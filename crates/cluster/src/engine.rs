//! The fleet engine: topology + router + traffic → [`ClusterRun`].

use cimtpu_autoscale::{AutoscalePolicy, ScalingStats};
use cimtpu_obs::SharedRecorder;
use cimtpu_serving::{
    ArrivalStream, Completion, ServingReport, TenantLedger, TenantSched, TenantSet, TrafficSpec,
};
use cimtpu_units::{Error, Result, Seconds};

use crate::disagg::{run_disaggregated, InterconnectSpec, Pools};
use crate::fault::FaultPlan;
use crate::fleet::run_colocated;
use crate::replica::ReplicaSpec;
use crate::report::ClusterReport;
use crate::router::RouterPolicy;

/// How the fleet's replicas divide the serving pipeline.
#[derive(Debug, Clone)]
pub enum ClusterTopology {
    /// Every replica runs whole requests (prefill + decode on the same
    /// chips); the router spreads arrivals across them.
    Colocated {
        /// The replica groups.
        replicas: Vec<ReplicaSpec>,
        /// Arrival routing policy.
        router: RouterPolicy,
    },
    /// DistServe/Splitwise-style disaggregation: a prefill pool ingests
    /// prompts, hands the KV cache over the interconnect to a decode pool,
    /// and decode admission is gated by the target replica's paged
    /// allocator.
    Disaggregated {
        /// Prefill-pool replicas.
        prefill: Vec<ReplicaSpec>,
        /// Decode-pool replicas.
        decode: Vec<ReplicaSpec>,
        /// Arrival routing policy (across the prefill pool).
        router: RouterPolicy,
        /// KV-handoff routing policy (across the decode pool).
        decode_router: RouterPolicy,
        /// The link KV caches migrate over.
        interconnect: InterconnectSpec,
    },
}

/// Tenancy wiring threaded through the fleet drivers: the weighted-fair
/// schedule armed on every engine core plus the driver-side ledger that
/// attributes sheds, timeouts, and preemptions back to tenants.
pub(crate) struct Tenancy<'a> {
    pub(crate) sched: &'a TenantSched,
    pub(crate) ledger: &'a mut TenantLedger,
}

impl Tenancy<'_> {
    /// Whether the run has more than one tenant — the gate for class-split
    /// snapshot maintenance and tenant-tagged trace events (single-tenant
    /// runs stay bit-identical to runs without tenancy).
    pub(crate) fn multi(&self) -> bool {
        self.sched.classes.len() > 1
    }
}

/// The tenant tag for request `id`'s flight-recorder events: present only
/// for multi-tenant runs, so single-tenant traces stay byte-identical.
pub(crate) fn tenant_tag(tenancy: &Option<Tenancy<'_>>, id: u64) -> Option<u32> {
    tenancy
        .as_ref()
        .and_then(|t| t.multi().then(|| t.ledger.tenant_of(id) as u32))
}

/// A complete fleet-simulation configuration.
#[derive(Debug, Clone)]
pub struct ClusterEngine {
    topology: ClusterTopology,
    slo_ms: Option<f64>,
    faults: FaultPlan,
    autoscale: Option<AutoscalePolicy>,
}

/// Everything a cluster run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRun {
    /// The fleet aggregate.
    pub report: ClusterReport,
    /// Per-replica `ServingReport`s (colocated fleets only — one per
    /// replica that completed at least one request, labelled with the
    /// replica name; empty for disaggregated fleets, whose pools don't
    /// run the single-engine scheduler).
    pub replica_reports: Vec<ServingReport>,
    /// Per-request lifecycle records, in request-id order.
    pub completions: Vec<Completion>,
    /// Fleet-wide prefix-sharing counters, summed over replicas (all
    /// zero when no replica enables sharing; disaggregated pools do not
    /// run the prefix cache).
    pub prefix: cimtpu_serving::PrefixStats,
}

impl ClusterEngine {
    /// A colocated fleet.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty replica list.
    pub fn colocated(replicas: Vec<ReplicaSpec>, router: RouterPolicy) -> Result<Self> {
        if replicas.is_empty() {
            return Err(Error::invalid_config("a cluster needs at least one replica"));
        }
        Ok(ClusterEngine {
            topology: ClusterTopology::Colocated { replicas, router },
            slo_ms: None,
            faults: FaultPlan::none(),
            autoscale: None,
        })
    }

    /// A disaggregated prefill/decode fleet.
    ///
    /// # Errors
    ///
    /// Returns an error if either pool is empty.
    pub fn disaggregated(
        prefill: Vec<ReplicaSpec>,
        decode: Vec<ReplicaSpec>,
        router: RouterPolicy,
        decode_router: RouterPolicy,
        interconnect: InterconnectSpec,
    ) -> Result<Self> {
        if prefill.is_empty() || decode.is_empty() {
            return Err(Error::invalid_config(
                "a disaggregated cluster needs at least one prefill and one decode replica",
            ));
        }
        Ok(ClusterEngine {
            topology: ClusterTopology::Disaggregated {
                prefill,
                decode,
                router,
                decode_router,
                interconnect,
            },
            slo_ms: None,
            faults: FaultPlan::none(),
            autoscale: None,
        })
    }

    /// Sets the latency SLO the report's goodput is computed against.
    #[must_use]
    pub fn with_slo_ms(mut self, slo_ms: f64) -> Self {
        self.slo_ms = Some(slo_ms);
        self
    }

    /// Overrides every replica's KV budget (both pools of a disaggregated
    /// fleet) — what the `cluster_sim --kv-budget` flag applies.
    #[must_use]
    pub fn with_kv_budget(mut self, budget: cimtpu_serving::KvBudget) -> Self {
        let apply = |replicas: &mut Vec<ReplicaSpec>| {
            for r in replicas {
                r.memory.budget = budget;
            }
        };
        match &mut self.topology {
            ClusterTopology::Colocated { replicas, .. } => apply(replicas),
            ClusterTopology::Disaggregated { prefill, decode, .. } => {
                apply(prefill);
                apply(decode);
            }
        }
        self
    }

    /// Installs a fault plan. An **empty** plan (the default) injects
    /// nothing — runs stay bit-identical to an engine without any plan;
    /// a non-empty plan adds its fault events to the fleet loop (replica
    /// health view, retries, shedding) and the report grows an
    /// availability section.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The installed fault plan (empty by default).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Installs an autoscale policy: one [`GroupPolicy`] per replica
    /// group, making each group an elastic pool of up to `max` slots
    /// named `{name}-{slot}` that a reconcile loop grows and shrinks
    /// against the policy's utilization band.
    ///
    /// A **pinned** policy (every band `min == max`, no swaps) expands
    /// the fleet to its pinned sizes and runs it as a static fleet,
    /// bit-identically — the report just gains a `scaling` section
    /// pricing the static fleet. An *elastic* policy adds reconcile ticks
    /// and elastic slots to a colocated fleet's loop; elastic
    /// disaggregated fleets and elastic runs under a fault plan are
    /// rejected by [`run`](ClusterEngine::run).
    ///
    /// [`GroupPolicy`]: cimtpu_autoscale::GroupPolicy
    #[must_use]
    pub fn with_autoscale(mut self, policy: AutoscalePolicy) -> Self {
        self.autoscale = Some(policy);
        self
    }

    /// The installed autoscale policy, if any.
    pub fn autoscale(&self) -> Option<&AutoscalePolicy> {
        self.autoscale.as_ref()
    }

    /// The fleet topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// Simulates `traffic` across the fleet. Deterministic: identical
    /// inputs give identical reports (CI replays seeded runs and diffs).
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid traffic spec or replica
    /// configuration, an unmappable operator, or a KV budget too small to
    /// hold a single request.
    pub fn run(&self, label: &str, traffic: &TrafficSpec) -> Result<ClusterRun> {
        self.run_observed(label, traffic, None)
    }

    /// [`run`](Self::run) with an optional flight recorder threaded
    /// through the fleet's driver: replicas get
    /// one track each, control-plane events (crashes, retries, scaling
    /// actions, reconcile ticks) land on a control track, and queue/KV
    /// gauges stream into the recorder's timeseries. `None` is exactly
    /// [`run`](Self::run) — the recorder-off paths stay bit-identical.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_observed(
        &self,
        label: &str,
        traffic: &TrafficSpec,
        recorder: Option<&SharedRecorder>,
    ) -> Result<ClusterRun> {
        self.dispatch(label, traffic, None, recorder)
    }

    /// Simulates a multi-tenant [`TenantSet`] across the fleet: merges the
    /// per-tenant traffics into one trace, arms weighted-fair scheduling
    /// on every replica's engine core, and fills the report's per-tenant
    /// section (goodput, SLO attainment, Jain's fairness). A
    /// single-tenant set produces a report bit-identical to
    /// [`run`](Self::run) on that tenant's traffic, plus the tenant
    /// section.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run), plus invalid tenant sets.
    pub fn run_tenants(&self, label: &str, tenants: &TenantSet) -> Result<ClusterRun> {
        self.run_tenants_observed(label, tenants, None)
    }

    /// [`run_tenants`](Self::run_tenants) with an optional flight
    /// recorder; multi-tenant runs tag every request-lifecycle event
    /// (arrival, retry, shed, timeout, park, complete) with its tenant
    /// index.
    ///
    /// # Errors
    ///
    /// As for [`run_tenants`](Self::run_tenants).
    pub fn run_tenants_observed(
        &self,
        label: &str,
        tenants: &TenantSet,
        recorder: Option<&SharedRecorder>,
    ) -> Result<ClusterRun> {
        let merged = tenants.merged_spec()?;
        let sched = tenants.sched();
        let mut ledger = TenantLedger::new(tenants, &merged);
        self.dispatch(
            label,
            &merged,
            Some(Tenancy { sched: &sched, ledger: &mut ledger }),
            recorder,
        )
    }

    fn dispatch(
        &self,
        label: &str,
        traffic: &TrafficSpec,
        tenancy: Option<Tenancy<'_>>,
        recorder: Option<&SharedRecorder>,
    ) -> Result<ClusterRun> {
        let elastic = match &self.autoscale {
            Some(policy) => self.elastic_policy(policy)?,
            None => None,
        };
        if let Some(policy) = self.autoscale.as_ref().filter(|_| elastic.is_none()) {
            return self.run_pinned(policy, label, traffic, tenancy, recorder);
        }
        match &self.topology {
            ClusterTopology::Colocated { replicas, router } => run_colocated(
                replicas,
                *router,
                label,
                traffic,
                self.slo_ms,
                &self.faults,
                elastic,
                tenancy,
                recorder,
            ),
            ClusterTopology::Disaggregated {
                prefill,
                decode,
                router,
                decode_router,
                interconnect,
            } => run_disaggregated(
                Pools {
                    prefill,
                    decode,
                    router: *router,
                    decode_router: *decode_router,
                    interconnect: *interconnect,
                },
                label,
                traffic,
                self.slo_ms,
                &self.faults,
                tenancy,
                recorder,
            ),
        }
    }

    /// Validates an autoscale policy against the fleet: `None` for a
    /// pinned policy, the policy itself for an elastic one (colocated
    /// fleets without a fault plan only).
    fn elastic_policy<'p>(
        &self,
        policy: &'p AutoscalePolicy,
    ) -> Result<Option<&'p AutoscalePolicy>> {
        policy.validate()?;
        let ngroups = match &self.topology {
            ClusterTopology::Colocated { replicas, .. } => replicas.len(),
            ClusterTopology::Disaggregated { prefill, decode, .. } => {
                prefill.len() + decode.len()
            }
        };
        if policy.groups.len() != ngroups {
            return Err(Error::invalid_config(format!(
                "the autoscale policy covers {} group(s) but the fleet has {ngroups}",
                policy.groups.len()
            )));
        }
        if policy.is_pinned() {
            return Ok(None);
        }
        match &self.topology {
            ClusterTopology::Colocated { .. } if self.faults.is_empty() => Ok(Some(policy)),
            ClusterTopology::Colocated { .. } => Err(Error::invalid_config(
                "an elastic autoscale policy cannot run under a fault plan; pin the \
                 policy (min == max, no swap) or drop the faults",
            )),
            ClusterTopology::Disaggregated { .. } => Err(Error::invalid_config(
                "autoscaling a disaggregated fleet is not supported; pin the policy \
                 (min == max, no swap) to size the pools statically",
            )),
        }
    }

    /// A pinned policy expands every group to its pinned size and runs
    /// the static fleet unchanged (bit-identity is proptested); the
    /// report just gains a `scaling` section pricing the static fleet.
    fn run_pinned(
        &self,
        policy: &AutoscalePolicy,
        label: &str,
        traffic: &TrafficSpec,
        tenancy: Option<Tenancy<'_>>,
        recorder: Option<&SharedRecorder>,
    ) -> Result<ClusterRun> {
        let expand = |specs: &[ReplicaSpec], offset: usize| -> Vec<ReplicaSpec> {
            specs
                .iter()
                .enumerate()
                .flat_map(|(g, base)| {
                    (0..policy.groups[offset + g].min).map(move |j| {
                        let mut spec = base.clone();
                        spec.name = format!("{}-{j}", base.name);
                        spec
                    })
                })
                .collect()
        };
        let topology = match &self.topology {
            ClusterTopology::Colocated { replicas, router } => ClusterTopology::Colocated {
                replicas: expand(replicas, 0),
                router: *router,
            },
            ClusterTopology::Disaggregated {
                prefill,
                decode,
                router,
                decode_router,
                interconnect,
            } => ClusterTopology::Disaggregated {
                prefill: expand(prefill, 0),
                decode: expand(decode, prefill.len()),
                router: *router,
                decode_router: *decode_router,
                interconnect: *interconnect,
            },
        };
        let pinned = ClusterEngine {
            topology,
            slo_ms: self.slo_ms,
            faults: self.faults.clone(),
            autoscale: None,
        };
        let mut run = pinned.dispatch(label, traffic, tenancy, recorder)?;
        let chip_seconds = run.report.chips as f64 * run.report.makespan_s;
        let busy_chip_s: f64 = run
            .report
            .per_replica
            .iter()
            .map(|r| r.busy_s * r.chips as f64)
            .sum();
        run.report.scaling = Some(ScalingStats::static_fleet(
            run.report.replicas,
            chip_seconds,
            busy_chip_s,
            run.report.total_energy_j,
            policy.idle_watts,
        ));
        Ok(run)
    }
}

/// Releases a shed or timed-out request's closed-loop client: the client
/// observes the failure at `at` and thinks before reissuing, so dropping
/// a request never deadlocks a closed loop. Open-loop and burst streams
/// ignore the synthetic completion.
pub(crate) fn release_client(stream: &mut ArrivalStream, id: u64, orig_arrival: f64, at: Seconds) {
    stream.on_complete(&Completion {
        id,
        arrival: Seconds::new(orig_arrival),
        first_token: at,
        finish: at,
        steps: 0,
    });
}


#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use cimtpu_core::TpuConfig;
    use cimtpu_serving::{
        ArrivalPattern, BatchPolicy, EngineCore, EngineSession, LenDist, MemoryConfig,
        PrefixTraffic, ServingModel, SloClass, TenantSpec,
    };
    use cimtpu_units::Bytes;
    use proptest::prelude::*;

    use super::*;
    use crate::fault::{ChaosSpec, FaultEvent};
    use crate::fleet::{fault_timeline, CrashRecord, FaultAction, Ledger, Waiting};
    use crate::router::{HealthView, ReplicaHealth, ReplicaSnapshot};

    // ------------------------------------------------------------------
    // Scan oracle: the fleet loop before the heaps and the tracker, kept
    // so proptests can pin the loop bit-for-bit against it. Every event
    // class is re-derived by a linear scan at every iteration, every
    // delivery waits for its finish time, and every routing decision
    // rebuilds the routable replicas' snapshots from the cores.
    // ------------------------------------------------------------------

    /// Router snapshots rebuilt from the cores over the routable subset,
    /// re-indexed `0..up.len()`, with the per-class split scanned from
    /// each core's ledger when the run is `classed` (multi-tenant).
    fn rebuild_snapshots(
        cores: &[EngineCore<'_>],
        up: &[usize],
        t: Seconds,
        assigned: &[u64],
        classed: bool,
    ) -> Vec<ReplicaSnapshot> {
        up.iter()
            .enumerate()
            .map(|(pos, &k)| ReplicaSnapshot {
                index: pos,
                outstanding: cores[k].outstanding_at(t),
                queued: cores[k].queued(),
                kv_frac: cores[k].kv_frac(),
                assigned: assigned[k],
                class_outstanding: if classed {
                    cores[k].outstanding_by_class_at(t)
                } else {
                    [0; 3]
                },
            })
            .collect()
    }

    #[allow(clippy::too_many_lines)]
    fn run_colocated_faulty_oracle(
        replicas: &[ReplicaSpec],
        policy: RouterPolicy,
        label: &str,
        traffic: &TrafficSpec,
        slo_ms: Option<f64>,
        plan: &FaultPlan,
        sched: Option<&TenantSched>,
    ) -> Result<ClusterRun> {
        let recovery = *plan.recovery();
        let classed = sched.is_some_and(|s| s.classes.len() > 1);
        let timeline = fault_timeline(plan, replicas.len())?;
        let mut next_fault = 0usize;

        let sessions: Vec<EngineSession> = replicas
            .iter()
            .map(|r| EngineSession::new(&r.engine()?))
            .collect::<Result<_>>()?;
        let mut cores: Vec<EngineCore<'_>> =
            sessions.iter().map(EngineSession::core).collect::<Result<_>>()?;
        if let Some(sched) = sched {
            for core in &mut cores {
                core.set_tenancy(sched);
            }
        }
        let mut stream = ArrivalStream::new(traffic)?;
        let offered = stream.total();
        let mut router = policy.build();
        let n = replicas.len();
        let mut assigned = vec![0u64; n];
        let mut health = HealthView::all_up(n);
        let mut stale = vec![false; n];
        let mut slowdown = vec![1.0f64; n];
        let mut last_push = vec![f64::NEG_INFINITY; n];
        let mut exhausted_closed = false;
        // The stream's last request: the cores close once it is admitted.
        let mut final_arrival: Option<u64> = None;
        let mut close_now = false;

        let mut ledger = Ledger::new(n, offered);
        let mut deliveries: Vec<(usize, Completion)> = Vec::new();
        let mut waiting: Vec<Waiting> = Vec::new();
        let mut origin: HashMap<u64, f64> = HashMap::new();
        let mut attempts_of: HashMap<u64, u32> = HashMap::new();

        loop {
            if close_now {
                close_now = false;
                exhausted_closed = true;
                for (i, core) in cores.iter_mut().enumerate() {
                    if !stale[i] {
                        core.close();
                    }
                }
            }
            let mut step_at: Option<(usize, Seconds)> = None;
            for (i, core) in cores.iter().enumerate() {
                if stale[i] {
                    continue;
                }
                if let Some(t) = core.next_action() {
                    if step_at.is_none_or(|(_, best)| t < best) {
                        step_at = Some((i, t));
                    }
                }
            }
            let delivery_at: Option<(usize, Seconds)> = deliveries
                .iter()
                .enumerate()
                .min_by(|(ai, a), (bi, b)| {
                    a.1.finish.get().total_cmp(&b.1.finish.get()).then(ai.cmp(bi))
                })
                .map(|(i, d)| (i, d.1.finish));
            let retry_at: Option<usize> = waiting
                .iter()
                .enumerate()
                .min_by(|(ai, a), (bi, b)| {
                    let ka = (a.fire.get(), a.request.arrival_s, a.request.id);
                    let kb = (b.fire.get(), b.request.arrival_s, b.request.id);
                    ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal).then(ai.cmp(bi))
                })
                .map(|(i, _)| i);
            let fault_at: Option<Seconds> = {
                let scripted = (next_fault < timeline.len()).then(|| timeline[next_fault].0);
                match (scripted, health.next_transition()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            };
            let arrival_at = stream.peek();

            if stream.exhausted()
                && waiting.is_empty()
                && deliveries.is_empty()
                && step_at.is_none()
            {
                break;
            }

            let candidates = [
                (fault_at, 0u8),
                (arrival_at, 1),
                (delivery_at.map(|(_, t)| t), 2),
                (retry_at.map(|i| waiting[i].fire), 3),
                (step_at.map(|(_, t)| t), 4),
            ];
            let mut chosen: Option<(Seconds, u8)> = None;
            for (t, class) in candidates {
                if let Some(t) = t {
                    if chosen.is_none_or(|(bt, _)| t < bt) {
                        chosen = Some((t, class));
                    }
                }
            }
            let Some((now, class)) = chosen else {
                let mut progressed = false;
                for (i, core) in cores.iter_mut().enumerate() {
                    if stale[i] {
                        continue;
                    }
                    if core.flush_stalled()? {
                        for c in core.drain_new().to_vec() {
                            deliveries.push((i, c));
                        }
                        progressed = true;
                        break;
                    }
                }
                if !progressed {
                    return Err(Error::invalid_config(
                        "serving driver stalled: closed-loop clients wait on completions \
                         no engine can produce",
                    ));
                }
                continue;
            };

            match class {
                0 => {
                    for k in health.advance(now, recovery.warmup) {
                        cores[k] = sessions[k].core()?;
                        if let Some(sched) = sched {
                            cores[k].set_tenancy(sched);
                        }
                        stale[k] = false;
                        last_push[k] = f64::NEG_INFINITY;
                        if slowdown[k] != 1.0 {
                            cores[k].set_slowdown(slowdown[k]);
                        }
                        if exhausted_closed {
                            cores[k].close();
                        }
                    }
                    for rec in ledger.crash_log.iter_mut() {
                        if rec.up_again.is_none() && health.is_up(rec.replica) {
                            rec.up_again = Some(now);
                        }
                    }
                    while next_fault < timeline.len() && timeline[next_fault].0 <= now {
                        let (_, action) = timeline[next_fault];
                        next_fault += 1;
                        match action {
                            FaultAction::Crash { replica, repair } => {
                                if matches!(health.state(replica), ReplicaHealth::Down { .. }) {
                                    continue;
                                }
                                let lost = cores[replica].crash(now);
                                ledger.accum[replica].harvest(&cores[replica]);
                                stale[replica] = true;
                                health.mark_down(replica, now + repair);
                                ledger.avail.crashes += 1;
                                ledger.crash_log.push(CrashRecord {
                                    replica,
                                    at: now,
                                    up_again: None,
                                    first_completion: None,
                                });
                                let lost_ids: Vec<u64> = lost.iter().map(|r| r.id).collect();
                                deliveries
                                    .retain(|(k, c)| *k != replica || !lost_ids.contains(&c.id));
                                for r in lost {
                                    let orig = *origin.get(&r.id).unwrap_or(&r.arrival_s);
                                    let attempts =
                                        attempts_of.get(&r.id).copied().unwrap_or(0) + 1;
                                    if attempts > recovery.max_attempts {
                                        ledger.avail.shed += 1;
                                        release_client(&mut stream, r.id, orig, now);
                                        continue;
                                    }
                                    let fire = now + recovery.backoff_for(attempts);
                                    if fire.get() > orig + recovery.deadline.get() {
                                        ledger.avail.timed_out += 1;
                                        release_client(&mut stream, r.id, orig, now);
                                        continue;
                                    }
                                    attempts_of.insert(r.id, attempts);
                                    waiting.push(Waiting { fire, request: r, attempts });
                                }
                            }
                            FaultAction::SlowStart { replica, factor } => {
                                slowdown[replica] = factor;
                                if !stale[replica] {
                                    cores[replica].set_slowdown(factor);
                                }
                            }
                            FaultAction::SlowEnd { replica } => {
                                slowdown[replica] = 1.0;
                                if !stale[replica] {
                                    cores[replica].set_slowdown(1.0);
                                }
                            }
                        }
                    }
                }
                1 => {
                    let request = stream.pop();
                    origin.insert(request.id, request.arrival_s);
                    if stream.exhausted() {
                        final_arrival = Some(request.id);
                    }
                    waiting.push(Waiting { fire: now, request, attempts: 0 });
                }
                2 => {
                    let (idx, _) = delivery_at
                        .ok_or_else(|| Error::internal("class 2 implies a pending delivery"))?;
                    let (k, mut c) = deliveries.remove(idx);
                    if let Some(orig) = origin.get(&c.id) {
                        c.arrival = Seconds::new(*orig);
                    }
                    if attempts_of.get(&c.id).copied().unwrap_or(0) > 0 {
                        ledger.avail.retried_ok += 1;
                    }
                    stream.on_complete(&c);
                    ledger.delivered_by[k] += 1;
                    for rec in ledger.crash_log.iter_mut() {
                        if rec.replica == k && rec.first_completion.is_none() && c.finish > rec.at
                        {
                            rec.first_completion = Some(c.finish);
                        }
                    }
                    ledger.delivered.push(c);
                }
                3 => {
                    let idx = retry_at
                        .ok_or_else(|| Error::internal("class 3 implies a waiting request"))?;
                    let item = waiting.remove(idx);
                    let r = item.request;
                    if final_arrival == Some(r.id) {
                        final_arrival = None;
                        close_now = true;
                    }
                    let orig = *origin.get(&r.id).unwrap_or(&r.arrival_s);
                    if now.get() > orig + recovery.deadline.get() {
                        ledger.avail.timed_out += 1;
                        release_client(&mut stream, r.id, orig, now);
                        continue;
                    }
                    let up = health.up_replicas();
                    if up.is_empty() {
                        let fire = health.next_transition().ok_or_else(|| {
                            Error::internal(
                                "every replica is down and none is scheduled to restart",
                            )
                        })?;
                        waiting.push(Waiting { fire, ..item });
                        continue;
                    }
                    if let Some(threshold) = recovery.shed_outstanding {
                        if up.iter().all(|&k| cores[k].outstanding_at(now) >= threshold) {
                            let key = (orig, r.id);
                            let mut doomed = vec![(r.id, orig)];
                            waiting.retain(|w| {
                                let worig =
                                    *origin.get(&w.request.id).unwrap_or(&w.request.arrival_s);
                                if (worig, w.request.id) <= key {
                                    doomed.push((w.request.id, worig));
                                    false
                                } else {
                                    true
                                }
                            });
                            for (id, worig) in doomed {
                                ledger.avail.shed += 1;
                                release_client(&mut stream, id, worig, now);
                            }
                            continue;
                        }
                    }
                    let snaps = rebuild_snapshots(&cores, &up, now, &assigned, classed);
                    let pos = router.route(&r, &snaps).min(up.len() - 1);
                    let k = up[pos];
                    assigned[k] += 1;
                    if item.attempts > 0 {
                        ledger.avail.retries += 1;
                    }
                    let mut pushed = r;
                    pushed.arrival_s = if item.attempts > 0 { now.get() } else { r.arrival_s };
                    pushed.arrival_s = pushed.arrival_s.max(last_push[k]);
                    last_push[k] = pushed.arrival_s;
                    if exhausted_closed {
                        cores[k].reopen();
                        cores[k].push(pushed);
                        cores[k].close();
                    } else {
                        cores[k].push(pushed);
                    }
                }
                _ => {
                    let (i, _) = step_at
                        .ok_or_else(|| Error::internal("class 4 implies a steppable core"))?;
                    cores[i].step()?;
                    for c in cores[i].drain_new().to_vec() {
                        deliveries.push((i, c));
                    }
                }
            }
        }

        for (k, core) in cores.iter().enumerate() {
            if !stale[k] {
                ledger.accum[k].harvest(core);
            }
        }
        let (report, prefix) =
            ledger.report(replicas, |_| true, label, policy, slo_ms, offered, !plan.is_empty())?;
        let replica_reports = if plan.is_empty() {
            replicas
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

    // ------------------------------------------------------------------
    // Equivalence proptest: the fleet loop == the scan oracle.
    // ------------------------------------------------------------------

    fn tiny() -> ServingModel {
        ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer())
    }

    /// A three-replica fleet mixing batching policies (continuous,
    /// static, dynamic) so the equivalence runs cross every scheduler
    /// state machine, including the static stall-flush path.
    fn mixed_fleet() -> Vec<ReplicaSpec> {
        vec![
            ReplicaSpec::new("cont", TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Continuous { max_batch: 4 }),
            ReplicaSpec::new("stat", TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Static { batch: 2 }),
            ReplicaSpec::new("dyn", TpuConfig::design_a(), tiny())
                .with_policy(BatchPolicy::Dynamic { max_batch: 4, max_wait_ms: 0.5 }),
        ]
    }

    /// A four-replica fleet built to catch a too-coarse session dedupe:
    /// two identical twins (which share one session), a near-twin that
    /// differs only in its KV budget, and one that differs only in chip.
    /// Replica 0 is a twin, so the scripted crash restarts a core from a
    /// session its twin keeps pricing through.
    fn twin_fleet() -> Vec<ReplicaSpec> {
        let twin = |name: &str| {
            ReplicaSpec::new(name, TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Continuous { max_batch: 4 })
        };
        vec![
            twin("twin-0"),
            twin("twin-1"),
            twin("near")
                .with_memory(MemoryConfig::unlimited().with_budget_bytes(Bytes::from_kib(64))),
            ReplicaSpec { chip: TpuConfig::design_a(), ..twin("chip") },
        ]
    }

    fn traffics(seed: u64) -> [TrafficSpec; 2] {
        let base = TrafficSpec {
            requests: 24,
            arrival: ArrivalPattern::OpenLoop { rate_rps: 4_000.0 },
            prompt: LenDist::Uniform { lo: 8, hi: 48 },
            steps: LenDist::Uniform { lo: 2, hi: 10 },
            prefix: PrefixTraffic::None,
            seed,
        };
        let closed = TrafficSpec {
            arrival: ArrivalPattern::ClosedLoop { clients: 5, think_ms: 0.2 },
            ..base
        };
        [base, closed]
    }

    /// Three tenants, one per SLO class, over open-loop traffic.
    fn tenants(seed: u64) -> TenantSet {
        let [base, _] = traffics(seed);
        let tenant = |name: &str, class: SloClass, weight: f64, salt: u64| {
            let traffic = TrafficSpec { requests: 8, seed: seed ^ salt, ..base.clone() };
            TenantSpec::new(name, class, weight, traffic)
        };
        TenantSet::new(vec![
            tenant("i", SloClass::Interactive, 4.0, 0x11),
            tenant("s", SloClass::Standard, 2.0, 0x22),
            tenant("b", SloClass::Batch, 1.0, 0x33),
        ])
        .unwrap()
    }

    const POLICIES: [RouterPolicy; 7] = [
        RouterPolicy::PassThrough,
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastOutstanding,
        RouterPolicy::LeastKv,
        RouterPolicy::SessionAffinity,
        RouterPolicy::PrefixAffinity,
        RouterPolicy::SloAware,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// The fleet loop replays the scan oracle bit-for-bit for every
        /// router policy, open- and closed-loop traffic, and every kind
        /// of plan: none (immediate deliveries, tracker pass-through), a
        /// benign ×1 straggler, scripted crash + straggler, and seeded
        /// chaos (deferred deliveries, re-indexed routable subsets). A
        /// three-tenant run pits the loop's classed tracker against the
        /// oracle's per-decision ledger scan (what `SloAware` reads); the
        /// oracle keeps no tenant ledger, so that report section is
        /// left out of the comparison. Both fleets run: the mixed-policy
        /// one, and the twin fleet whose identical replicas share one
        /// session in the loop but not in the oracle.
        #[test]
        fn fleet_loop_matches_scan_oracle(seed in 0u64..1_000) {
            for fleet in [mixed_fleet(), twin_fleet()] {
                check_fleet_against_oracle(&fleet, seed);
            }
        }
    }

    fn check_fleet_against_oracle(fleet: &[ReplicaSpec], seed: u64) {
        let benign = FaultPlan::none().with_event(FaultEvent::Straggler {
            replica: 1,
            from: Seconds::new(0.000_2),
            until: Seconds::new(0.002),
            slowdown: 1.0,
        });
        let scripted = FaultPlan::none()
            .with_event(FaultEvent::Crash {
                at: Seconds::new(0.000_4),
                replica: 0,
                repair: Seconds::new(0.001),
            })
            .with_event(FaultEvent::Straggler {
                replica: 2,
                from: Seconds::new(0.000_2),
                until: Seconds::new(0.002),
                slowdown: 3.0,
            });
        let chaos = FaultPlan::seeded(seed ^ 0xFA417).with_chaos(ChaosSpec {
            crashes: 2,
            window: (Seconds::new(0.000_2), Seconds::new(0.003)),
            repair: Seconds::new(0.002),
        });
        for traffic in traffics(seed) {
            for plan in [&FaultPlan::none(), &benign, &scripted, &chaos] {
                for policy in POLICIES {
                    let fast = run_colocated(
                        fleet, policy, "eq", &traffic, Some(50.0), plan, None, None, None,
                    )
                    .unwrap();
                    let slow = run_colocated_faulty_oracle(
                        fleet, policy, "eq", &traffic, Some(50.0), plan, None,
                    )
                    .unwrap();
                    assert_eq!(&fast, &slow, "{}: policy {}", fleet[0].name, policy.name());
                }
            }
        }
        let set = tenants(seed);
        let merged = set.merged_spec().unwrap();
        let sched = set.sched();
        for plan in [&FaultPlan::none(), &benign, &scripted, &chaos] {
            for policy in POLICIES {
                let mut ledger = TenantLedger::new(&set, &merged);
                let tenancy = Tenancy { sched: &sched, ledger: &mut ledger };
                let mut fast = run_colocated(
                    fleet, policy, "eq", &merged, Some(50.0), plan, None, Some(tenancy),
                    None,
                )
                .unwrap();
                assert!(fast.report.tenants.take().is_some());
                let slow = run_colocated_faulty_oracle(
                    fleet, policy, "eq", &merged, Some(50.0), plan, Some(&sched),
                )
                .unwrap();
                assert_eq!(&fast, &slow, "{}: tenanted, policy {}", fleet[0].name, policy.name());
            }
        }
    }
}
