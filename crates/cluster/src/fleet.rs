//! The colocated fleet loop: one discrete-event driver for every
//! colocated fleet — static, under a fault plan, or autoscaled (see
//! ARCHITECTURE.md, "One colocated loop").
//!
//! The loop runs one [`EngineCore`] per *slot* and routes within a *pool*
//! of slots: a static fleet is one pool over its replicas, an autoscale
//! policy makes one pool per group ([`elastic`](crate::elastic)). Events
//! at one instant resolve in a fixed order: fault and lifecycle
//! transitions, the reconcile tick, arrivals, completion deliveries,
//! admissions (fresh requests and retries), engine steps. Scripted faults
//! exist only under a plan and ticks only under an elastic policy, so a
//! static zero-fault run sees the order of the plain `drive` loop.
//! Routers read one [`SnapshotTracker`], re-indexed over the routable
//! slots when some slot is not. Completions are delivered at the step
//! that produced them, unless the plan holds a crash — only a crash can
//! revoke one — in which case they wait for their finish time.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

use cimtpu_autoscale::AutoscalePolicy;
use cimtpu_obs::{EventKind, SharedRecorder, TraceHandle, TraceSink as _};
use cimtpu_serving::{
    ActionHeap, ArrivalStream, Completion, EngineCore, EngineSession, PrefixStats, Request,
    ServingEngine, ServingReport, TenantReport, TenantUsage, TrafficSpec,
};
use cimtpu_units::{Error, Joules, Result, Seconds};

use crate::elastic::Elastic;
use crate::engine::{release_client, tenant_tag, ClusterRun, Tenancy};
use crate::fault::{AvailabilityStats, FaultEvent, FaultPlan, RecoveryPolicy};
use crate::replica::ReplicaSpec;
use crate::report::{ClusterReport, KvTransferStats, ReplicaUtilization};
use crate::router::{
    HealthView, ReplicaHealth, ReplicaSnapshot, Router, RouterPolicy, SnapshotTracker, TimeKey,
};

/// A point action on the fault timeline (a [`FaultEvent`] window expands
/// into a start and an end action).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultAction {
    Crash { replica: usize, repair: Seconds },
    SlowStart { replica: usize, factor: f64 },
    SlowEnd { replica: usize },
}

/// The plan's point actions for a colocated fleet of `n` replicas, in
/// time order (ties keep plan order).
pub(crate) fn fault_timeline(plan: &FaultPlan, n: usize) -> Result<Vec<(Seconds, FaultAction)>> {
    let mut timeline = Vec::new();
    for event in plan.resolve(n)? {
        match event {
            FaultEvent::Crash { at, replica, repair } => {
                timeline.push((at, FaultAction::Crash { replica, repair }));
            }
            FaultEvent::Straggler { replica, from, until, slowdown } => {
                timeline.push((from, FaultAction::SlowStart { replica, factor: slowdown }));
                timeline.push((until, FaultAction::SlowEnd { replica }));
            }
            FaultEvent::DegradedLink { .. } => {
                return Err(Error::invalid_config(
                    "degraded-link faults apply to the disaggregated interconnect; \
                     a colocated fleet has no handoff link",
                ));
            }
        }
    }
    timeline.sort_by(|a, b| a.0.get().total_cmp(&b.0.get()));
    Ok(timeline)
}

/// A request waiting to (re-)enter the fleet: a fresh arrival queued for
/// admission, a crash-lost request backing off before its retry, or a
/// request parked until some replica restarts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiting {
    /// When the request (re-)enters admission.
    pub(crate) fire: Seconds,
    /// The request (for retries, `arrival_s` is rewritten to the fire
    /// time at push; the original arrival lives in the driver's origin
    /// map and is restored on the delivered completion).
    pub(crate) request: Request,
    /// Retries already charged against the request's budget (0 for a
    /// fresh arrival).
    pub(crate) attempts: u32,
}

/// A heap entry ordered by its key alone, smallest key on top.
struct MinBy<K, V>(K, V);

impl<K: Ord, V> PartialEq for MinBy<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<K: Ord, V> Eq for MinBy<K, V> {}
impl<K: Ord, V> PartialOrd for MinBy<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, V> Ord for MinBy<K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

/// Admission order: fire time, then original arrival and id, then
/// insertion sequence.
type WaitKey = (TimeKey, TimeKey, u64, u64);

/// One crash on the books, for downtime and time-to-recover accounting.
pub(crate) struct CrashRecord {
    pub(crate) replica: usize,
    pub(crate) at: Seconds,
    /// When the replica came back `Up` (end of warmup).
    pub(crate) up_again: Option<Seconds>,
    /// Finish time of the replica's first completion after restart.
    pub(crate) first_completion: Option<Seconds>,
}

/// Per-slot counters accumulated across incarnations: a crash or a
/// retirement replaces the slot's core, so its energy/busy/KV history is
/// harvested then and the next core starts a new ledger.
#[derive(Default)]
pub(crate) struct ReplicaAccum {
    pub(crate) busy_s: f64,
    pub(crate) energy_j: f64,
    pub(crate) preemptions: u64,
    pub(crate) queue_full_s: f64,
    pub(crate) kv_hwm: f64,
    pub(crate) prefix: PrefixStats,
}

impl ReplicaAccum {
    pub(crate) fn harvest(&mut self, core: &EngineCore<'_>) {
        let memory = core.memory_stats();
        self.busy_s += core.busy().get();
        self.energy_j += core.energy().get();
        self.preemptions += memory.preemptions;
        self.queue_full_s += memory.queue_full_s;
        self.kv_hwm = self.kv_hwm.max(memory.kv_hwm_frac);
        self.prefix.absorb(&core.prefix_stats());
    }
}

/// The run ledger. It lives in the driver, not the cores: cores are
/// replaced on restart, and a completion only counts once delivered.
pub(crate) struct Ledger {
    pub(crate) accum: Vec<ReplicaAccum>,
    pub(crate) delivered: Vec<Completion>,
    pub(crate) delivered_by: Vec<u64>,
    pub(crate) avail: AvailabilityStats,
    pub(crate) crash_log: Vec<CrashRecord>,
}

impl Ledger {
    /// A ledger for `n` slots and `offered` requests.
    pub(crate) fn new(n: usize, offered: u64) -> Self {
        Ledger {
            accum: (0..n).map(|_| ReplicaAccum::default()).collect(),
            delivered: Vec::with_capacity(offered as usize),
            delivered_by: vec![0; n],
            avail: AvailabilityStats::zero(),
            crash_log: Vec::new(),
        }
    }

    /// Sorts the delivered completions, checks request conservation, and
    /// builds the fleet report over the slots `rows` selects. The report
    /// carries an availability section when `faults` is set.
    ///
    /// # Errors
    ///
    /// Returns an internal error if `offered` differs from delivered +
    /// shed + timed out.
    #[allow(clippy::too_many_arguments)] // one call site plus the oracle's
    pub(crate) fn report(
        &mut self,
        specs: &[ReplicaSpec],
        rows: impl Fn(usize) -> bool,
        label: &str,
        router: RouterPolicy,
        slo_ms: Option<f64>,
        offered: u64,
        faults: bool,
    ) -> Result<(ClusterReport, PrefixStats)> {
        self.delivered.sort_by_key(|c| c.id);
        settle(&mut self.avail, &self.crash_log, &self.delivered, offered, specs.len())?;

        let mut chip_energy = Joules::ZERO;
        let mut preemptions = 0;
        let mut queue_full_s = 0.0;
        let mut prefix = PrefixStats::default();
        let mut per_replica = Vec::with_capacity(specs.len());
        for (k, spec) in specs.iter().enumerate().filter(|&(k, _)| rows(k)) {
            let a = &self.accum[k];
            chip_energy += Joules::new(a.energy_j);
            preemptions += a.preemptions;
            queue_full_s += a.queue_full_s;
            prefix.absorb(&a.prefix);
            per_replica.push(ReplicaUtilization {
                name: spec.name.clone(),
                model: spec.model.name().to_owned(),
                role: "serve".to_owned(),
                chips: spec.chips(),
                requests: self.delivered_by[k],
                busy_s: a.busy_s,
                utilization: 0.0, // filled against the fleet makespan
                energy_j: a.energy_j,
                kv_hwm_frac: a.kv_hwm,
            });
        }
        let report = ClusterReport::build(
            label,
            "colocated",
            router.name().to_owned(),
            offered,
            &self.delivered,
            chip_energy,
            preemptions,
            queue_full_s,
            KvTransferStats::default(),
            per_replica,
            slo_ms,
            faults.then(|| self.avail.clone()),
        );
        Ok((report, prefix))
    }
}

/// Checks request conservation (`offered == delivered + shed + timed
/// out`) and fills `avail`'s downtime, time-to-recover and availability
/// from the crash log, for a fleet of `replicas` over the span from the
/// first delivered arrival to the last finish. Both topologies settle
/// their runs here.
///
/// # Errors
///
/// Returns an internal error if requests were not conserved.
pub(crate) fn settle(
    avail: &mut AvailabilityStats,
    crash_log: &[CrashRecord],
    delivered: &[Completion],
    offered: u64,
    replicas: usize,
) -> Result<()> {
    if delivered.len() as u64 + avail.shed + avail.timed_out != offered {
        return Err(Error::internal(format!(
            "request conservation violated: {offered} offered but {} delivered, {} shed, \
             {} timed out",
            delivered.len(),
            avail.shed,
            avail.timed_out
        )));
    }
    let finish = delivered.iter().map(|c| c.finish).fold(Seconds::ZERO, Seconds::max);
    let first_arrival = delivered.iter().map(|c| c.arrival).fold(finish, Seconds::min);
    let makespan = (finish - first_arrival).get().max(f64::MIN_POSITIVE);
    let clip = |t: f64| t.clamp(first_arrival.get(), finish.get());
    let mut downtime = 0.0;
    for rec in crash_log {
        let end = clip(rec.up_again.map_or(finish.get(), |u| u.get()));
        downtime += (end - clip(rec.at.get())).max(0.0);
        avail
            .time_to_recover_s
            .push((rec.first_completion.unwrap_or(finish).get() - rec.at.get()).max(0.0));
    }
    avail.downtime_s = downtime;
    avail.availability = (1.0 - downtime / (replicas as f64 * makespan)).clamp(0.0, 1.0);
    Ok(())
}

/// The per-tenant report section over the delivered completions.
///
/// # Errors
///
/// Returns an internal error if some tenant's requests were not
/// conserved.
pub(crate) fn tenant_report(
    tenancy: Tenancy<'_>,
    delivered: &[Completion],
    makespan_s: f64,
) -> Result<TenantReport> {
    let tenants = tenancy.ledger.report(delivered, makespan_s);
    let lost = |u: &&TenantUsage| u.offered != u.completed + u.shed + u.timed_out;
    if let Some(u) = tenants.tenants.iter().find(lost) {
        return Err(Error::internal(format!(
            "request conservation violated for tenant '{}': {} offered but {} completed, \
             {} shed, {} timed out",
            u.name, u.offered, u.completed, u.shed, u.timed_out
        )));
    }
    Ok(tenants)
}

/// Recorder wiring: one track per slot, a control track for driver-side
/// request and fleet events (fault plans and autoscaled fleets only —
/// otherwise the cores emit their own arrivals), and per-slot
/// `[queued, kv_frac]` gauges sampled after every step (static fleets).
pub(crate) struct FleetTrace {
    pub(crate) rec: SharedRecorder,
    pub(crate) tracks: Vec<u32>,
    series: Vec<[usize; 2]>,
    pub(crate) control: Option<u32>,
}

/// The loop's state; see the [module docs](self).
pub(crate) struct Fleet<'s, 't> {
    pub(crate) specs: Cow<'s, [ReplicaSpec]>,
    /// One session per distinct replica engine; `session_of[k]` is slot
    /// `k`'s.
    sessions: &'s [EngineSession],
    session_of: Vec<usize>,
    pub(crate) cores: Vec<EngineCore<'s>>,
    /// `live[k]`: slot `k`'s core is active. A crashed core stays in
    /// `cores`, inert, until its replica restarts; an offline elastic
    /// slot keeps a never-stepped core until a boot replaces it.
    pub(crate) live: Vec<bool>,
    pub(crate) pools: Vec<Vec<usize>>,
    /// Elastic slots draining toward retirement (up, but not routable).
    pub(crate) draining: Vec<bool>,
    routers: Vec<Box<dyn Router>>,
    pub(crate) health: HealthView,
    /// Warmup after a restart (crash repair or elastic provisioning).
    warmup: Seconds,
    recovery: RecoveryPolicy,
    timeline: Vec<(Seconds, FaultAction)>,
    next_fault: usize,
    /// Deliveries wait for their finish time (the plan has a crash).
    defer: bool,
    /// Whether the ledger copies each delivered completion. A static
    /// fleet whose plan holds no crash never replaces a core, so its
    /// cores' own completion records are the delivered set and are
    /// collected once, at the end of the run.
    copies: bool,
    slowdown: Vec<f64>,
    /// Start of the straggler window in flight per slot (NaN = none); the
    /// Straggler span is emitted when the window closes.
    slow_since: Vec<f64>,
    pub(crate) last_push: Vec<f64>,
    pub(crate) heap: ActionHeap,
    tracker: SnapshotTracker,
    stream: ArrivalStream,
    /// The stream's last request, until it is admitted: the live cores
    /// close right after (a static batch may then launch short).
    final_arrival: Option<u64>,
    exhausted_closed: bool,
    waiting: BinaryHeap<MinBy<WaitKey, Waiting>>,
    deliveries: BinaryHeap<MinBy<(TimeKey, u64), (usize, Completion)>>,
    seq: u64,
    pub(crate) tenancy: Option<Tenancy<'t>>,
    pub(crate) trace: Option<FleetTrace>,
    pub(crate) ledger: Ledger,
    /// Original arrivals of requests whose pushed `arrival_s` differs
    /// (retries, and pushes clamped to a replica's queue tail).
    origin: HashMap<u64, f64>,
    attempts_of: HashMap<u64, u32>,
    pub(crate) elastic: Option<Elastic>,
    up: Vec<usize>,
    snaps: Vec<ReplicaSnapshot>,
    scratch: Vec<Completion>,
}

/// Runs a colocated fleet: `replicas` under `router`, with the fault plan
/// and, when given, an elastic autoscale policy (see the
/// [module docs](self)).
///
/// # Errors
///
/// Returns an error for an invalid spec, traffic or plan, an engine
/// error, a stalled closed loop, or a conservation violation.
#[allow(clippy::too_many_arguments)] // one call site, in `ClusterEngine::dispatch`
pub(crate) fn run_colocated(
    replicas: &[ReplicaSpec],
    router: RouterPolicy,
    label: &str,
    traffic: &TrafficSpec,
    slo_ms: Option<f64>,
    plan: &FaultPlan,
    autoscale: Option<&AutoscalePolicy>,
    tenancy: Option<Tenancy<'_>>,
    recorder: Option<&SharedRecorder>,
) -> Result<ClusterRun> {
    let (specs, pools, elastic) = match autoscale {
        Some(policy) => {
            let (specs, pools, elastic) = Elastic::expand(replicas, policy, slo_ms);
            (Cow::Owned(specs), pools, Some(elastic))
        }
        None => (Cow::Borrowed(replicas), vec![(0..replicas.len()).collect()], None),
    };
    let (sessions, session_of) = sessions_for(specs.iter())?;
    let n = specs.len();
    let timeline = fault_timeline(plan, n)?;
    let stream = ArrivalStream::new(traffic)?;
    let offered = stream.total();
    let mut cores: Vec<EngineCore<'_>> =
        session_of.iter().map(|&i| sessions[i].core()).collect::<Result<_>>()?;
    if let Some(t) = &tenancy {
        for core in &mut cores {
            core.set_tenancy(t.sched);
        }
    }
    let mut health = HealthView::all_up(n);
    let mut live = vec![true; n];
    let mut heap = ActionHeap::new(n);
    for k in 0..n {
        if elastic.as_ref().is_some_and(|e| !e.held(k)) {
            // Offline until a boot: never restarts on its own.
            live[k] = false;
            health.mark_down(k, Seconds::new(f64::INFINITY));
        } else {
            heap.set(k, cores[k].next_action());
        }
    }
    let recovery = *plan.recovery();
    let defer = timeline.iter().any(|(_, a)| matches!(a, FaultAction::Crash { .. }));
    let mut fleet = Fleet {
        warmup: elastic.as_ref().map_or(recovery.warmup, Elastic::warmup),
        defer,
        copies: defer || elastic.is_some(),
        routers: pools.iter().map(|_| router.build()).collect(),
        specs,
        sessions: &sessions,
        session_of,
        cores,
        live,
        pools,
        draining: vec![false; n],
        health,
        recovery,
        timeline,
        next_fault: 0,
        slowdown: vec![1.0; n],
        slow_since: vec![f64::NAN; n],
        last_push: vec![f64::NEG_INFINITY; n],
        heap,
        tracker: if tenancy.as_ref().is_some_and(Tenancy::multi) {
            SnapshotTracker::classed(n)
        } else {
            SnapshotTracker::new(n)
        },
        stream,
        final_arrival: None,
        exhausted_closed: false,
        waiting: BinaryHeap::new(),
        deliveries: BinaryHeap::new(),
        seq: 0,
        tenancy,
        trace: None,
        ledger: Ledger::new(n, offered),
        origin: HashMap::new(),
        attempts_of: HashMap::new(),
        elastic,
        up: Vec::new(),
        snaps: Vec::new(),
        scratch: Vec::new(),
    };
    if let Some(rec) = recorder {
        fleet.attach(rec, if plan.is_empty() { None } else { Some("control") });
    }
    fleet.run()?;

    for k in 0..fleet.cores.len() {
        if fleet.live[k] {
            fleet.harvest(k);
        }
        if !fleet.copies {
            fleet.ledger.delivered.extend(fleet.cores[k].completions().iter().map(|&c| {
                let arrival = fleet.origin.get(&c.id).map_or(c.arrival, |&o| Seconds::new(o));
                Completion { arrival, ..c }
            }));
        }
    }
    let Fleet { specs, cores, tenancy, mut ledger, elastic, .. } = fleet;
    let held = |k: usize| elastic.as_ref().is_none_or(|e| e.held(k));
    let (mut report, prefix) =
        ledger.report(&specs, held, label, router, slo_ms, offered, !plan.is_empty())?;
    report.scaling = elastic.map(|e| e.finish(&specs, &ledger));
    if let Some(t) = tenancy {
        report.tenants = Some(tenant_report(t, &ledger.delivered, report.makespan_s)?);
    }
    // Per-incarnation ServingReports are not meaningful across crashes
    // and boots: only a static fleet without a plan reports per replica.
    let replica_reports: Vec<ServingReport> = if plan.is_empty() && autoscale.is_none() {
        specs
            .iter()
            .zip(&cores)
            .filter(|(_, core)| !core.completions().is_empty())
            .map(|(spec, core)| core.finish(&spec.name).report)
            .collect()
    } else {
        Vec::new()
    };
    for session in &sessions {
        session.persist_cache();
    }
    Ok(ClusterRun { report, replica_reports, completions: ledger.delivered, prefix })
}

/// One [`EngineSession`] per distinct replica engine, in order of first
/// use, and each slot's session index. Identical replicas share their
/// pricing state (mapping cache and phase memo), which is a pure function
/// of the engine, so the fleet prices each configuration once.
pub(crate) fn sessions_for<'a>(
    specs: impl IntoIterator<Item = &'a ReplicaSpec>,
) -> Result<(Vec<EngineSession>, Vec<usize>)> {
    let mut engines: Vec<ServingEngine> = Vec::new();
    let mut sessions = Vec::new();
    let mut session_of = Vec::new();
    for spec in specs {
        let engine = spec.engine()?;
        session_of.push(match engines.iter().position(|e| *e == engine) {
            Some(i) => i,
            None => {
                sessions.push(EngineSession::new(&engine)?);
                engines.push(engine);
                engines.len() - 1
            }
        });
    }
    Ok((sessions, session_of))
}

/// Event classes, in tie-break order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Fault,
    Tick,
    Arrival,
    Delivery,
    Admission,
    Step,
}

impl<'s, 't> Fleet<'s, 't> {
    /// Registers one track per slot (plus per-slot gauges for a static
    /// fleet, or per-group gauges for an elastic one) and the control
    /// track, and attaches a [`TraceHandle`] to every core.
    fn attach(&mut self, rec: &SharedRecorder, control: Option<&str>) {
        let mut r = rec.borrow_mut();
        let tracks: Vec<u32> = self.specs.iter().map(|s| r.track(&s.name)).collect();
        let series = if self.elastic.is_some() {
            Vec::new()
        } else {
            let gauge = |r: &mut cimtpu_obs::Recorder, s: &ReplicaSpec| {
                [
                    r.gauge_series(&format!("{}/queued", s.name)),
                    r.gauge_series(&format!("{}/kv_frac", s.name)),
                ]
            };
            self.specs.iter().map(|s| gauge(&mut r, s)).collect()
        };
        let control = match &mut self.elastic {
            Some(el) => {
                let control = r.track("reconciler");
                el.attach(&mut r);
                Some(control)
            }
            None => control.map(|name| r.track(name)),
        };
        drop(r);
        for (core, &track) in self.cores.iter_mut().zip(&tracks) {
            core.attach_trace(TraceHandle::new(Rc::clone(rec), track));
        }
        self.trace = Some(FleetTrace { rec: Rc::clone(rec), tracks, series, control });
    }

    fn run(&mut self) -> Result<()> {
        loop {
            let step_at = self.heap.peek();
            let parked = self.elastic.as_ref().is_some_and(Elastic::any_parked);
            // The run is over when nothing can produce or receive work —
            // trailing faults, boots, and reconcile ticks are dropped.
            if self.stream.exhausted()
                && self.waiting.is_empty()
                && self.deliveries.is_empty()
                && !parked
                && step_at.is_none()
            {
                return Ok(());
            }
            let scripted = self.timeline.get(self.next_fault).map(|&(t, _)| t);
            let transition = self.health.next_transition().filter(|t| t.get().is_finite());
            let fault_at = match (scripted, transition) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let candidates = [
                (fault_at, Class::Fault),
                (self.stream.peek(), Class::Arrival),
                (self.deliveries.peek().map(|d| Seconds::new(d.0 .0 .0)), Class::Delivery),
                (self.waiting.peek().map(|w| w.1.fire), Class::Admission),
                (step_at.map(|(_, t)| t), Class::Step),
            ];
            let mut chosen: Option<(Seconds, Class)> = None;
            for (t, class) in candidates {
                if let Some(t) = t {
                    // Iteration order is ascending class: strict `<`
                    // keeps the earlier class on ties.
                    if chosen.is_none_or(|(bt, _)| t < bt) {
                        chosen = Some((t, class));
                    }
                }
            }
            if chosen.is_none() && !parked {
                // Only reconcile ticks are pending: a closed-loop stall.
                self.flush_stalled()?;
                continue;
            }
            // The reconcile tick goes after fault and lifecycle events at
            // its instant and before everything else.
            if let Some(tick) = self.elastic.as_ref().map(|e| e.next_tick) {
                if chosen.is_none_or(|(t, c)| tick < t || (tick == t && c != Class::Fault)) {
                    chosen = Some((tick, Class::Tick));
                }
            }
            let Some((now, class)) = chosen else {
                return Err(Error::internal("a pending event implies a candidate"));
            };
            match class {
                Class::Fault => self.faults(now)?,
                Class::Tick => self.reconcile(now),
                Class::Arrival => self.arrival(now)?,
                Class::Delivery => {
                    if let Some(MinBy(_, (k, c))) = self.deliveries.pop() {
                        self.deliver(k, c);
                    }
                }
                Class::Admission => {
                    if let Some(MinBy(_, w)) = self.waiting.pop() {
                        self.admit(w, now)?;
                    }
                }
                Class::Step => {
                    if let Some((k, _)) = step_at {
                        self.step(k, now)?;
                    }
                }
            }
        }
    }

    /// Closed-loop stall: clients wait on completions held in partial
    /// batches, which no other event can produce. Flushes the lowest
    /// stalled core (mirrors `drive`).
    fn flush_stalled(&mut self) -> Result<()> {
        for k in 0..self.cores.len() {
            if self.live[k] && self.cores[k].flush_stalled()? {
                self.collect(k);
                return Ok(());
            }
        }
        Err(Error::invalid_config(
            "serving driver stalled: closed-loop clients wait on completions \
             no engine can produce",
        ))
    }

    /// Restarts, crash and straggler transitions, and elastic boots due
    /// at `now`.
    fn faults(&mut self, now: Seconds) -> Result<()> {
        // Restores first: a replica back up at `now` can take a crash
        // scripted for the same instant.
        for k in self.health.advance(now, self.warmup) {
            self.restart(k, now)?;
        }
        for rec in &mut self.ledger.crash_log {
            if rec.up_again.is_none() && self.health.is_up(rec.replica) {
                rec.up_again = Some(now);
            }
        }
        self.wake(now);
        while let Some(&(at, action)) = self.timeline.get(self.next_fault) {
            if at > now {
                break;
            }
            self.next_fault += 1;
            match action {
                FaultAction::Crash { replica, repair } => self.crash(replica, repair, now),
                FaultAction::SlowStart { replica, factor } => {
                    self.slowdown[replica] = factor;
                    self.slow_since[replica] = now.get();
                    self.set_slowdown(replica, factor);
                }
                FaultAction::SlowEnd { replica } => {
                    self.slowdown[replica] = 1.0;
                    if let Some(tr) = &self.trace {
                        if self.slow_since[replica].is_finite() {
                            tr.rec.borrow_mut().span(
                                tr.tracks[replica],
                                EventKind::Straggler,
                                0,
                                self.slow_since[replica],
                                now.get(),
                            );
                        }
                    }
                    self.slow_since[replica] = f64::NAN;
                    self.set_slowdown(replica, 1.0);
                }
            }
        }
        Ok(())
    }

    fn set_slowdown(&mut self, k: usize, factor: f64) {
        if self.live[k] {
            self.cores[k].set_slowdown(factor);
            self.heap.set(k, self.cores[k].next_action());
        }
    }

    /// Replaces slot `k`'s core with a fresh one (empty KV allocator,
    /// prefix index and batch state): a crashed replica's repair, or an
    /// elastic boot. Pricing memos live in the shared session and carry
    /// over; they are host-side and never change simulated time.
    fn restart(&mut self, k: usize, now: Seconds) -> Result<()> {
        self.cores[k] = self.sessions[self.session_of[k]].core()?;
        if let Some(t) = &self.tenancy {
            self.cores[k].set_tenancy(t.sched);
        }
        self.live[k] = true;
        self.last_push[k] = f64::NEG_INFINITY;
        self.tracker.reset(k);
        if let Some(tr) = &self.trace {
            self.cores[k].attach_trace(TraceHandle::new(Rc::clone(&tr.rec), tr.tracks[k]));
            if self.elastic.is_none() {
                tr.rec.borrow_mut().instant(tr.tracks[k], EventKind::Repair, 0, now.get());
            }
        }
        if self.slowdown[k] != 1.0 {
            self.cores[k].set_slowdown(self.slowdown[k]);
        }
        if self.exhausted_closed {
            self.cores[k].close();
        }
        self.heap.set(k, self.cores[k].next_action());
        Ok(())
    }

    /// Harvests slot `k`'s core into the run ledger before it is
    /// replaced or the run ends.
    pub(crate) fn harvest(&mut self, k: usize) {
        self.ledger.accum[k].harvest(&self.cores[k]);
        if let Some(t) = self.tenancy.as_mut() {
            if let Some(p) = self.cores[k].tenant_preemptions() {
                t.ledger.absorb_preemptions(p);
            }
        }
    }

    /// Takes slot `k` out of service: harvested, inert, unscheduled.
    pub(crate) fn retire_core(&mut self, k: usize) {
        self.harvest(k);
        self.live[k] = false;
        self.heap.set(k, None);
    }

    /// Kills replica `k`: its in-flight requests retry under the recovery
    /// policy (or are shed / time out), and the dead incarnation's
    /// undelivered completions are revoked.
    fn crash(&mut self, k: usize, repair: Seconds, now: Seconds) {
        if matches!(self.health.state(k), ReplicaHealth::Down { .. }) {
            return; // already down: nothing left to kill
        }
        let lost = self.cores[k].crash(now);
        self.retire_core(k);
        self.health.mark_down(k, now + repair);
        self.ledger.avail.crashes += 1;
        self.ledger.crash_log.push(CrashRecord {
            replica: k,
            at: now,
            up_again: None,
            first_completion: None,
        });
        if let Some(tr) = &self.trace {
            tr.rec.borrow_mut().instant(tr.tracks[k], EventKind::Crash, 0, now.get());
        }
        // The lost requests are exactly the revoked completions' ids.
        let lost_ids: Vec<u64> = lost.iter().map(|r| r.id).collect();
        self.deliveries.retain(|d| d.1 .0 != k || !lost_ids.contains(&d.1 .1.id));
        for r in lost {
            let orig = self.orig(&r);
            let attempts = self.attempts_of.get(&r.id).copied().unwrap_or(0) + 1;
            if attempts > self.recovery.max_attempts {
                self.drop_request(r.id, orig, now, EventKind::Shed);
                continue;
            }
            let fire = now + self.recovery.backoff_for(attempts);
            if fire.get() > orig + self.recovery.deadline.get() {
                self.drop_request(r.id, orig, now, EventKind::Timeout);
                continue;
            }
            if let Some((tr, control)) = self.control() {
                tr.rec.borrow_mut().span_for(
                    control,
                    EventKind::Retry,
                    r.id,
                    now.get(),
                    fire.get(),
                    tenant_tag(&self.tenancy, r.id),
                );
            }
            self.attempts_of.insert(r.id, attempts);
            self.enqueue(Waiting { fire, request: r, attempts });
        }
    }

    /// The trace and its control track, when both exist.
    pub(crate) fn control(&self) -> Option<(&FleetTrace, u32)> {
        self.trace.as_ref().and_then(|tr| tr.control.map(|c| (tr, c)))
    }

    /// A request's original arrival (before any rewrite at push).
    fn orig(&self, r: &Request) -> f64 {
        if self.origin.is_empty() {
            return r.arrival_s;
        }
        self.origin.get(&r.id).copied().unwrap_or(r.arrival_s)
    }

    /// Drops request `id` as shed or timed out at `now` and releases its
    /// closed-loop client.
    fn drop_request(&mut self, id: u64, orig: f64, now: Seconds, kind: EventKind) {
        if kind == EventKind::Shed {
            self.ledger.avail.shed += 1;
        } else {
            self.ledger.avail.timed_out += 1;
        }
        if let Some(t) = self.tenancy.as_mut() {
            if kind == EventKind::Shed {
                t.ledger.on_shed(id);
            } else {
                t.ledger.on_timeout(id);
            }
        }
        if let Some((tr, control)) = self.control() {
            tr.rec.borrow_mut().instant_for(
                control,
                kind,
                id,
                now.get(),
                tenant_tag(&self.tenancy, id),
            );
        }
        release_client(&mut self.stream, id, orig, now);
    }

    fn enqueue(&mut self, w: Waiting) {
        let key = (TimeKey(w.fire.get()), TimeKey(w.request.arrival_s), w.request.id, self.seq);
        self.seq += 1;
        self.waiting.push(MinBy(key, w));
    }

    /// An arrival enters the admission queue at its own instant (it is
    /// emitted by the driver when a control track exists: a request can
    /// be shed or time out before reaching a core). When its admission
    /// would be the very next event — nothing else waits, delivers, or
    /// arrives at this instant — it is admitted at once.
    fn arrival(&mut self, now: Seconds) -> Result<()> {
        let request = self.stream.pop();
        if let Some((tr, control)) = self.control() {
            tr.rec.borrow_mut().request_arrival_for(
                control,
                request.id,
                request.arrival_s,
                tenant_tag(&self.tenancy, request.id),
            );
        }
        if self.stream.exhausted() {
            self.final_arrival = Some(request.id);
        }
        let w = Waiting { fire: now, request, attempts: 0 };
        if self.waiting.peek().is_none_or(|q| q.1.fire > now)
            && self.deliveries.peek().is_none_or(|d| d.0 .0 .0 > now.get())
            && self.stream.peek().is_none_or(|t| t > now)
        {
            return self.admit(w, now);
        }
        self.enqueue(w);
        Ok(())
    }

    /// Brings the tracker to routing instant `now` (rebuilding it when a
    /// stall flush moved time backwards, see [`SnapshotTracker`]).
    pub(crate) fn sync_tracker(&mut self, now: Seconds) {
        if now < self.tracker.now() {
            self.tracker.resync(now, &self.cores);
        } else {
            self.tracker.advance_to(now);
        }
    }

    /// Collects `pool`'s routable slots into `self.up`, or returns `true`
    /// (leaving `up` untouched) for a static fleet with every replica up:
    /// its one pool is then the whole fleet, indexed as the tracker is.
    pub(crate) fn gather(&mut self, pool: usize) -> bool {
        if self.elastic.is_none() && self.health.next_transition().is_none() {
            return true;
        }
        let mut up = std::mem::take(&mut self.up);
        up.clear();
        up.extend(self.routable(pool));
        self.up = up;
        false
    }

    /// `pool`'s routable slots (up and not draining), ascending.
    pub(crate) fn routable(&self, pool: usize) -> impl Iterator<Item = usize> + '_ {
        self.pools[pool].iter().copied().filter(|&k| self.health.is_up(k) && !self.draining[k])
    }

    /// Routes `r` within `pool` over the slots [`gather`](Self::gather)
    /// selected (at least one).
    pub(crate) fn pick(&mut self, pool: usize, all: bool, r: &Request) -> usize {
        let members: &[usize] = if all { &self.pools[pool] } else { &self.up };
        let snaps = self.tracker.snapshots();
        #[cfg(debug_assertions)]
        if self.tenancy.as_ref().is_some_and(Tenancy::multi) {
            // The tracker's incremental class split must match a scan of
            // each routed core's ledger.
            let now = self.tracker.now();
            for &k in members {
                let split = snaps[k].class_outstanding;
                let scanned = self.cores[k].outstanding_by_class_at(now);
                assert_eq!(split, scanned, "slot {k} at {now:?}");
                assert_eq!(split.iter().sum::<u64>(), snaps[k].outstanding, "slot {k} at {now:?}");
            }
        }
        if all {
            return self.routers[pool].route(r, snaps).min(snaps.len() - 1);
        }
        self.snaps.clear();
        self.snaps.extend(
            members.iter().enumerate().map(|(index, &k)| ReplicaSnapshot { index, ..snaps[k] }),
        );
        members[self.routers[pool].route(r, &self.snaps).min(members.len() - 1)]
    }

    /// Admits a waiting request; once the stream's last request is
    /// admitted, every live core closes.
    fn admit(&mut self, w: Waiting, now: Seconds) -> Result<()> {
        let id = w.request.id;
        self.place(w, now)?;
        if self.final_arrival == Some(id) {
            self.final_arrival = None;
            self.exhausted_closed = true;
            for k in 0..self.cores.len() {
                if self.live[k] {
                    self.cores[k].close();
                    self.heap.set(k, self.cores[k].next_action());
                }
            }
        }
        Ok(())
    }

    /// Routes and pushes a waiting request, or times it out, parks it, or
    /// sheds it.
    fn place(&mut self, w: Waiting, now: Seconds) -> Result<()> {
        let r = w.request;
        let orig = self.orig(&r);
        if now.get() > orig + self.recovery.deadline.get() {
            self.drop_request(r.id, orig, now, EventKind::Timeout);
            return Ok(());
        }
        let pool = self.elastic.as_ref().map_or(0, |e| e.pool_of(&r));
        self.sync_tracker(now);
        let all = self.gather(pool);
        if !all && self.up.is_empty() {
            if let Some((tr, control)) = self.control() {
                tr.rec.borrow_mut().instant_for(
                    control,
                    EventKind::Park,
                    r.id,
                    now.get(),
                    tenant_tag(&self.tenancy, r.id),
                );
            }
            match &mut self.elastic {
                // Scaled to zero (or drained dry): park until the
                // reconciler wakes the pool. The original arrival is
                // preserved, so the wait lands in the request's latency.
                Some(el) => el.parked[pool].push(r),
                // Nowhere to go: wait for the next repair (no retry
                // charged — the request was never placed).
                None => {
                    let fire = self.health.next_transition().ok_or_else(|| {
                        Error::internal("every replica is down and none is scheduled to restart")
                    })?;
                    self.enqueue(Waiting { fire, ..w });
                }
            }
            return Ok(());
        }
        if let Some(threshold) = self.recovery.shed_outstanding {
            let members: &[usize] = if all { &self.pools[pool] } else { &self.up };
            let snaps = self.tracker.snapshots();
            if members.iter().all(|&k| snaps[k].outstanding >= threshold) {
                self.shed_oldest(r, orig, now);
                return Ok(());
            }
        }
        let k = self.pick(pool, all, &r);
        let mut pushed = r;
        if w.attempts > 0 {
            self.ledger.avail.retries += 1;
            pushed.arrival_s = now.get();
        }
        self.push_to(k, pushed, orig);
        Ok(())
    }

    /// Surviving capacity is saturated: sheds oldest first — `r` and
    /// every waiting request older than it (closest to their deadlines).
    fn shed_oldest(&mut self, r: Request, orig: f64, now: Seconds) {
        let key = (orig, r.id);
        let mut doomed = vec![(0, r.id, orig)];
        let origin = &self.origin;
        self.waiting.retain(|MinBy(k, w)| {
            let worig = origin.get(&w.request.id).copied().unwrap_or(w.request.arrival_s);
            if (worig, w.request.id) <= key {
                doomed.push((k.3 + 1, w.request.id, worig));
                false
            } else {
                true
            }
        });
        doomed.sort_by_key(|d| d.0);
        for (_, id, worig) in doomed {
            self.drop_request(id, worig, now, EventKind::Shed);
        }
    }

    /// Pushes `r` onto slot `k`, preserving the per-replica queue-tail
    /// monotonicity the engine requires (a parked request can land on a
    /// slot that took later work, or booted, meanwhile).
    pub(crate) fn push_to(&mut self, k: usize, mut r: Request, orig: f64) {
        r.arrival_s = r.arrival_s.max(self.last_push[k]);
        self.last_push[k] = r.arrival_s;
        if r.arrival_s != orig {
            self.origin.insert(r.id, orig);
        }
        let core = &mut self.cores[k];
        if self.exhausted_closed {
            core.reopen();
            core.push(r);
            core.close();
        } else {
            core.push(r);
        }
        self.heap.set(k, core.next_action());
        self.tracker.on_push_classed(k, core.queued(), r.class);
    }

    fn step(&mut self, k: usize, now: Seconds) -> Result<()> {
        self.cores[k].step()?;
        self.collect(k);
        if let Some(tr) = &self.trace {
            if let Some(series) = tr.series.get(k) {
                let mut rec = tr.rec.borrow_mut();
                rec.sample(series[0], now.get(), self.cores[k].queued() as f64);
                rec.sample(series[1], now.get(), self.cores[k].kv_frac());
            }
        }
        if self.draining[k] {
            self.retire_idle(now);
        }
        Ok(())
    }

    /// Reschedules slot `k` after it stepped or flushed, and delivers (or
    /// queues) the completions it produced.
    fn collect(&mut self, k: usize) {
        let core = &mut self.cores[k];
        self.heap.set(k, core.next_action());
        let (queued, kv_frac) = (core.queued(), core.kv_frac());
        let (done, classes) = core.drain_new_classed();
        self.tracker.on_step_classed(k, queued, kv_frac, done, classes);
        let mut new = std::mem::take(&mut self.scratch);
        new.clear();
        new.extend_from_slice(done);
        for &c in &new {
            if self.defer {
                self.deliveries.push(MinBy((TimeKey(c.finish.get()), self.seq), (k, c)));
                self.seq += 1;
            } else {
                self.deliver(k, c);
            }
        }
        self.scratch = new;
    }

    /// Delivers a completion of slot `k`: restores its original arrival,
    /// feeds its closed-loop client, and books it.
    fn deliver(&mut self, k: usize, mut c: Completion) {
        if !self.origin.is_empty() {
            if let Some(&orig) = self.origin.get(&c.id) {
                c.arrival = Seconds::new(orig);
            }
        }
        if !self.attempts_of.is_empty() && self.attempts_of.contains_key(&c.id) {
            self.ledger.avail.retried_ok += 1;
        }
        self.stream.on_complete(&c);
        self.ledger.delivered_by[k] += 1;
        for rec in &mut self.ledger.crash_log {
            if rec.replica == k && rec.first_completion.is_none() && c.finish > rec.at {
                rec.first_completion = Some(c.finish);
            }
        }
        if let Some(tr) = &self.trace {
            tr.rec.borrow_mut().complete_for(
                tr.tracks[k],
                c.id,
                c.finish.get(),
                c.latency().as_millis(),
                c.ttft().as_millis(),
                tenant_tag(&self.tenancy, c.id),
            );
        }
        if let Some(el) = &mut self.elastic {
            el.on_delivered(k, &c);
        }
        if self.copies {
            self.ledger.delivered.push(c);
        }
    }
}
