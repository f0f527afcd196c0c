//! The autoscaling half of the colocated fleet loop
//! ([`fleet`](crate::fleet)): slots, pools, and the reconcile tick.
//!
//! Each [`ReplicaSpec`] of the fleet becomes one elastic *group* of up to
//! `max` identically-configured slots named `{name}-{slot}`, and each
//! group is one routing pool. A [`Reconciler`] observes per-group
//! telemetry on a fixed interval of the simulated clock and decides; the
//! loop applies:
//!
//! * **scale-up** — the lowest offline slot starts provisioning
//!   (`provision` delay), then warms (`warmup`: a simulated weight-load
//!   delay — the slot gets a *fresh* core at warmup start), then turns
//!   `Up` and routable. The slot is *held* — and paid for in
//!   chip-seconds — from the decision instant.
//! * **scale-down / scale-to-zero** — the highest routable slot stops
//!   taking arrivals and drains: its core is closed so in-flight work
//!   runs to completion, then the slot retires and stops costing.
//! * **swap** — under skewed two-model traffic, a donor group's slot
//!   drains (`swap-out`) while the starved group boots one (`swap-in`)
//!   that skips provisioning and pays only warmup. A swap recipient is
//!   by definition at its `max`, so the donated machine carries it past
//!   the band — the only way a group exceeds `max`; plain scale-downs
//!   bring it back.
//!
//! Arrivals are hashed by session onto a group (a session is sticky to
//! one model) and routed across the group's routable slots; a group
//! scaled to zero parks arrivals until the reconciler wakes it, and the
//! parked wait is charged to the request's latency. Provisioning and
//! warmup ends are the loop's lifecycle transitions; the reconcile tick
//! follows them at one instant, so a seeded run replays bit-for-bit (the
//! scaling-action log is pinned by a replay test).

use cimtpu_autoscale::{
    action, AutoscalePolicy, GroupObservation, Reconciler, ScalingAction, ScalingDecision,
    ScalingStats,
};
use cimtpu_obs::{EventKind, Recorder, TraceSink as _};
use cimtpu_serving::{Completion, Request};
use cimtpu_units::{Joules, Seconds};

use crate::fleet::{Fleet, Ledger};
use crate::replica::ReplicaSpec;
use crate::router::{splitmix64, ReplicaHealth};

/// One held-slot interval, for chip-seconds accounting: a slot costs from
/// the scale-up decision (or t = 0 for an initial slot) until retirement
/// (or the end of the run).
struct HeldInterval {
    start: f64,
    end: Option<f64>,
}

/// One group's capacity ramp: from a scale-up decision until the slot
/// turns `Up`. Completions of the group that miss the SLO inside an open
/// ramp are the reactive-scaling latency price the report surfaces.
struct RampWindow {
    group: usize,
    start: f64,
    end: Option<f64>,
}

/// The autoscaled fleet's control-plane state.
pub(crate) struct Elastic {
    reconciler: Reconciler,
    /// Group names (the base specs' names).
    names: Vec<String>,
    /// Each slot's group.
    group_of: Vec<usize>,
    /// Slots booting (provisioning or warming) — waiting to turn `Up`.
    booting: Vec<bool>,
    held: Vec<Vec<HeldInterval>>,
    ramps: Vec<RampWindow>,
    /// Per group since the last tick: (delivered, within SLO).
    since_tick: Vec<(u64, u64)>,
    stats: ScalingStats,
    held_now: u64,
    pub(crate) next_tick: Seconds,
    /// Arrivals waiting for their scaled-to-zero group to wake.
    pub(crate) parked: Vec<Vec<Request>>,
    /// Per-group `[queued, outstanding]` gauges sampled at each tick.
    gseries: Vec<[usize; 2]>,
    slo_ms: Option<f64>,
}

impl Elastic {
    /// Expands every group into its slots: returns the slot specs, one
    /// pool (slot list) per group, and the control state with each
    /// group's `initial` slots held.
    pub(crate) fn expand(
        replicas: &[ReplicaSpec],
        policy: &AutoscalePolicy,
        slo_ms: Option<f64>,
    ) -> (Vec<ReplicaSpec>, Vec<Vec<usize>>, Elastic) {
        let mut specs = Vec::new();
        let mut pools: Vec<Vec<usize>> = vec![Vec::new(); replicas.len()];
        let mut group_of = Vec::new();
        let mut held = Vec::new();
        let total_max: u64 = policy.groups.iter().map(|g| g.max).sum();
        for (g, base) in replicas.iter().enumerate() {
            // A swap recipient is by definition *at* its max, so the
            // donated machine carries the group past it: with swaps on,
            // each group gets spare slots for every machine the rest of
            // the fleet could donate. The scale-up rule still caps plain
            // growth at `max`.
            let swap_spares = if policy.swap { total_max - policy.groups[g].max } else { 0 };
            for j in 0..policy.groups[g].max + swap_spares {
                let mut spec = base.clone();
                spec.name = format!("{}-{j}", base.name);
                pools[g].push(specs.len());
                specs.push(spec);
                group_of.push(g);
                held.push(if j < policy.groups[g].initial {
                    vec![HeldInterval { start: 0.0, end: None }]
                } else {
                    Vec::new()
                });
            }
        }
        let n = specs.len();
        let initial = held.iter().filter(|h| !h.is_empty()).count() as u64;
        let elastic = Elastic {
            reconciler: Reconciler::new(policy.clone()),
            names: replicas.iter().map(|r| r.name.clone()).collect(),
            group_of,
            booting: vec![false; n],
            held,
            ramps: Vec::new(),
            since_tick: vec![(0, 0); replicas.len()],
            stats: ScalingStats { peak_replicas: initial, ..ScalingStats::default() },
            held_now: initial,
            next_tick: policy.interval,
            parked: vec![Vec::new(); replicas.len()],
            gseries: Vec::new(),
            slo_ms,
        };
        (specs, pools, elastic)
    }

    /// Registers the per-group gauge series.
    pub(crate) fn attach(&mut self, rec: &mut Recorder) {
        self.gseries = self
            .names
            .iter()
            .map(|g| {
                [
                    rec.gauge_series(&format!("{g}/queued")),
                    rec.gauge_series(&format!("{g}/outstanding")),
                ]
            })
            .collect();
    }

    /// Warmup after provisioning ends.
    pub(crate) fn warmup(&self) -> Seconds {
        self.reconciler.policy().warmup
    }

    /// Whether slot `k` was ever held (and so gets a report row).
    pub(crate) fn held(&self, k: usize) -> bool {
        !self.held[k].is_empty()
    }

    /// Whether any arrival is parked.
    pub(crate) fn any_parked(&self) -> bool {
        self.parked.iter().any(|p| !p.is_empty())
    }

    /// The pool (group) a request's session hashes onto.
    pub(crate) fn pool_of(&self, r: &Request) -> usize {
        (splitmix64(r.session) % self.names.len() as u64) as usize
    }

    /// Books a delivered completion of slot `k` for the next observation
    /// and the ramp SLO-violation count.
    pub(crate) fn on_delivered(&mut self, k: usize, c: &Completion) {
        let g = self.group_of[k];
        self.since_tick[g].0 += 1;
        if self.slo_ms.is_none_or(|slo| c.latency().as_millis() <= slo) {
            self.since_tick[g].1 += 1;
        } else if self.ramps.iter().any(|w| {
            // An open ramp extends to the end of the run.
            w.group == g && c.finish.get() >= w.start && w.end.is_none_or(|e| c.finish.get() <= e)
        }) {
            self.stats.slo_violations_ramp += 1;
        }
    }

    /// Marks slot `k` booting (the caller schedules its provisioning end
    /// in the health view; warmup follows): the slot is held — costing
    /// chip-seconds — from this instant.
    fn boot(&mut self, k: usize, now: Seconds, kind: &str, slot: &str) {
        let group = self.group_of[k];
        self.booting[k] = true;
        self.held[k].push(HeldInterval { start: now.get(), end: None });
        self.ramps.push(RampWindow { group, start: now.get(), end: None });
        self.stats.actions.push(ScalingAction::new(
            now.get(),
            kind,
            &self.names[group],
            slot.to_owned(),
        ));
        self.held_now += 1;
    }

    /// The scaling section: held intervals clipped to the makespan priced
    /// in chip-seconds (directly comparable with a static fleet's
    /// `chips × makespan`), plus idle energy.
    pub(crate) fn finish(mut self, specs: &[ReplicaSpec], ledger: &Ledger) -> ScalingStats {
        let delivered = &ledger.delivered;
        let finish = delivered.iter().map(|c| c.finish).fold(Seconds::ZERO, Seconds::max);
        let first_arrival = delivered.iter().map(|c| c.arrival).fold(finish, Seconds::min);
        let clip = |t: f64| t.clamp(first_arrival.get(), finish.get());
        let mut chip_energy = Joules::ZERO;
        let mut busy_chip_s = 0.0;
        for (k, spec) in specs.iter().enumerate() {
            for iv in &self.held[k] {
                let end = clip(iv.end.unwrap_or(finish.get()));
                self.stats.chip_seconds += spec.chips() as f64 * (end - clip(iv.start)).max(0.0);
            }
            if self.held(k) {
                let a = &ledger.accum[k];
                chip_energy += Joules::new(a.energy_j);
                busy_chip_s += a.busy_s * spec.chips() as f64;
            }
        }
        let idle_watts = self.reconciler.policy().idle_watts;
        self.stats.idle_energy_j = idle_watts * (self.stats.chip_seconds - busy_chip_s).max(0.0);
        self.stats.total_cost_j = chip_energy.get() + self.stats.idle_energy_j;
        self.stats
    }
}

impl Fleet<'_, '_> {
    /// Emits a fleet event on slot `k`'s track.
    fn slot_event(&self, k: usize, kind: EventKind, now: Seconds) {
        if let Some(tr) = &self.trace {
            tr.rec.borrow_mut().instant(tr.tracks[k], kind, 0, now.get());
        }
    }

    /// Lifecycle: booted slots whose warmup ended turn `Up`, and their
    /// group's parked arrivals are routed.
    pub(crate) fn wake(&mut self, now: Seconds) {
        let Some(mut el) = self.elastic.take() else { return };
        let mut woken = Vec::new();
        for (g, pool) in self.pools.iter().enumerate() {
            let mut woke = false;
            for &k in pool {
                if !(el.booting[k] && self.health.is_up(k)) {
                    continue;
                }
                el.booting[k] = false;
                woke = true;
                // Service cannot start before the slot exists.
                self.last_push[k] = now.get();
                let (gname, name) = (&el.names[g], self.specs[k].name.clone());
                el.stats.actions.push(ScalingAction::new(now.get(), action::UP, gname, name));
                if let Some(ramp) = el.ramps.iter_mut().find(|w| w.group == g && w.end.is_none()) {
                    ramp.end = Some(now.get());
                }
                self.slot_event(k, EventKind::Up, now);
            }
            if woke && !el.parked[g].is_empty() {
                woken.push((g, std::mem::take(&mut el.parked[g])));
            }
        }
        self.elastic = Some(el);
        for (g, parked) in woken {
            self.sync_tracker(now);
            for r in parked {
                let all = self.gather(g);
                let k = self.pick(g, all, &r);
                self.push_to(k, r, r.arrival_s);
            }
        }
    }

    /// The reconcile tick: observe every group, decide, apply.
    pub(crate) fn reconcile(&mut self, now: Seconds) {
        let Some(mut el) = self.elastic.take() else { return };
        let obs: Vec<GroupObservation> = (0..self.pools.len())
            .map(|g| {
                let pool = &self.pools[g];
                let mut o = GroupObservation {
                    up: 0,
                    pending: pool.iter().filter(|&&k| el.booting[k]).count() as u64,
                    draining: pool.iter().filter(|&&k| self.draining[k] && self.live[k]).count()
                        as u64,
                    queued: el.parked[g].len() as u64,
                    outstanding: 0,
                    kv_frac: 0.0,
                    delivered: el.since_tick[g].0,
                    slo_ok: el.since_tick[g].1,
                };
                for k in self.routable(g) {
                    o.up += 1;
                    o.queued += self.cores[k].queued();
                    o.outstanding += self.cores[k].outstanding_at(now);
                    o.kv_frac = o.kv_frac.max(self.cores[k].kv_frac());
                }
                o
            })
            .collect();
        let policy = el.reconciler.policy().clone();
        el.next_tick += policy.interval;
        el.stats.reconciles += 1;
        el.since_tick.iter_mut().for_each(|s| *s = (0, 0));
        if let Some((tr, control)) = self.control() {
            let mut rec = tr.rec.borrow_mut();
            rec.instant(control, EventKind::Reconcile, el.stats.reconciles, now.get());
            for (g, o) in obs.iter().enumerate() {
                rec.sample(el.gseries[g][0], now.get(), o.queued as f64);
                rec.sample(el.gseries[g][1], now.get(), o.outstanding as f64);
            }
        }
        for decision in el.reconciler.reconcile(now, &obs) {
            match decision {
                ScalingDecision::Add { group } => {
                    if let Some(k) = self.boot_slot(group) {
                        self.health.mark_down(k, now + policy.provision);
                        el.boot(k, now, action::SCALE_UP, &self.specs[k].name);
                        el.stats.scale_ups += 1;
                        self.slot_event(k, EventKind::ScaleUp, now);
                    }
                }
                ScalingDecision::Drain { group } => {
                    if let Some(k) = self.routable(group).last() {
                        let (kind, event) = if self.routable(group).count() == 1 {
                            el.stats.scale_to_zero += 1;
                            (action::SCALE_TO_ZERO, EventKind::ScaleToZero)
                        } else {
                            (action::SCALE_DOWN, EventKind::ScaleDown)
                        };
                        el.stats.scale_downs += 1;
                        let (gname, name) = (&el.names[group], self.specs[k].name.clone());
                        el.stats.actions.push(ScalingAction::new(now.get(), kind, gname, name));
                        self.slot_event(k, event, now);
                        self.begin_drain(k);
                    }
                }
                ScalingDecision::Swap { from, to } => {
                    if let (Some(v), Some(t)) = (self.routable(from).last(), self.boot_slot(to)) {
                        el.stats.swaps += 1;
                        let name = self.specs[v].name.clone();
                        el.stats.actions.push(ScalingAction::new(
                            now.get(),
                            action::SWAP_OUT,
                            &el.names[from],
                            name,
                        ));
                        self.begin_drain(v);
                        // The swapped-in slot skips provisioning (the
                        // machine is already racked) and pays only warmup.
                        self.health.mark_down(t, now);
                        el.boot(t, now, action::SWAP_IN, &self.specs[t].name);
                        self.slot_event(v, EventKind::SwapOut, now);
                        self.slot_event(t, EventKind::SwapIn, now);
                    }
                }
            }
        }
        el.stats.peak_replicas = el.stats.peak_replicas.max(el.held_now);
        self.elastic = Some(el);
        // A drained core with no in-flight work retires at once.
        self.retire_idle(now);
    }

    /// The lowest offline slot of `group` (free to boot), if any: a group
    /// at its physical slot limit (every slot up, booting, or still
    /// draining) skips the decision until a drain finishes. The highest
    /// routable slot, `routable(group).last()`, is the drain victim
    /// (retire the newest capacity first).
    fn boot_slot(&self, group: usize) -> Option<usize> {
        self.pools[group].iter().copied().find(|&k| {
            !self.draining[k]
                && matches!(
                    self.health.state(k),
                    ReplicaHealth::Down { until } if !until.get().is_finite()
                )
        })
    }

    /// Closes slot `k`'s core so it stops taking work and runs its
    /// in-flight requests to completion.
    fn begin_drain(&mut self, k: usize) {
        self.draining[k] = true;
        self.cores[k].close();
        self.heap.set(k, self.cores[k].next_action());
    }

    /// Retires every draining slot whose core has gone dry (no scheduled
    /// action, nothing queued): harvests its counters, ends its held
    /// interval, and takes it offline.
    pub(crate) fn retire_idle(&mut self, now: Seconds) {
        let Some(mut el) = self.elastic.take() else { return };
        for k in 0..self.cores.len() {
            if !(self.draining[k] && self.live[k])
                || self.cores[k].next_action().is_some()
                || self.cores[k].queued() > 0
            {
                continue;
            }
            // Harvested now: a later boot replaces this core, so its
            // ledgers (including per-tenant preemption counters) are read
            // here or lost.
            self.retire_core(k);
            self.health.mark_down(k, Seconds::new(f64::INFINITY));
            self.draining[k] = false;
            el.held_now -= 1;
            if let Some(iv) = el.held[k].last_mut() {
                iv.end = Some(now.get());
            }
            let name = self.specs[k].name.clone();
            let group = &el.names[el.group_of[k]];
            el.stats.actions.push(ScalingAction::new(now.get(), action::RETIRED, group, name));
            self.slot_event(k, EventKind::Retired, now);
        }
        self.elastic = Some(el);
    }
}
