//! Request routing: which replica group an arriving request lands on.
//!
//! # Router contract
//!
//! A [`Router`] is consulted exactly once per request, at its arrival
//! instant, with a [`ReplicaSnapshot`] per replica describing what the
//! fleet knows *at that moment* (outstanding work, queue depth, live KV
//! occupancy, cumulative assignments). It returns the index of the chosen
//! replica; out-of-range indices are clamped by the driver. Routers may
//! keep internal state (round-robin cursors) but must be deterministic —
//! equal snapshot sequences must produce equal choices — because every
//! cluster run is replayed bit-for-bit in CI. Routing is *not* revisited:
//! once pushed, a request stays on its replica (no work stealing).
//!
//! # Affinity routing
//!
//! Two policies route by request *identity* instead of replica load, so
//! that cache state accumulated on a replica gets re-used:
//!
//! - [`RouterPolicy::SessionAffinity`] hashes [`Request::session`] — a
//!   session's requests land together (multi-turn conversations).
//! - [`RouterPolicy::PrefixAffinity`] hashes the request's prompt-prefix
//!   identity ([`Request::prefix`] — the shared-head seed and length), so
//!   every request carrying the same shared system prompt lands on the
//!   replica whose [prefix index](cimtpu_kv::PrefixIndex) already holds
//!   those KV blocks. Pair it with
//!   [`MemoryConfig::with_prefix_sharing`](cimtpu_serving::MemoryConfig::with_prefix_sharing)
//!   on the replicas: affinity concentrates the hits that sharing makes
//!   cheap, where load-oriented routing would scatter each head across
//!   the fleet and re-prefill it once per replica. Requests with no
//!   shared head (`head_len == 0`) fall back to the session hash, so
//!   mixed traffic still spreads.
//!
//! Both hash with a fixed 64-bit finalizer — no RNG, no load feedback —
//! so placement is reproducible whatever the interleaving.
//!
//! # Health view (failure-aware and elastic runs)
//!
//! The fleet loop keeps a [`HealthView`] — one [`ReplicaHealth`] per
//! replica slot — and, whenever some slot is not routable, consults the
//! router with snapshots of the **routable subset only**, re-indexed
//! `0..k` (the loop maps the choice back to real slot indices). Re-indexing
//! keeps every policy's contract intact whether it returns a snapshot's
//! `index` or a position: the two coincide. A crashed replica is
//! [`Down`](ReplicaHealth::Down) (drained — it takes no traffic), then
//! [`Warming`](ReplicaHealth::Warming) for the recovery policy's warmup
//! after its restart, and only then [`Up`](ReplicaHealth::Up) and
//! routable again. Affinity hashes mod the healthy count, so sessions
//! fail over while a replica is out and may re-home when it returns.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cimtpu_serving::{Completion, EngineCore, Request, SloClass};
use cimtpu_units::Seconds;

/// What a router sees about one replica at a routing instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaSnapshot {
    /// Replica index (what [`Router::route`] returns).
    pub index: usize,
    /// Requests in flight at this instant: queued, resident, or already
    /// scheduled to complete in the future.
    pub outstanding: u64,
    /// Requests pushed but not yet scheduled.
    pub queued: u64,
    /// Live KV occupancy as a fraction of capacity (0 for unlimited
    /// budgets, and between run-to-completion batches).
    pub kv_frac: f64,
    /// Requests ever assigned to this replica.
    pub assigned: u64,
    /// Outstanding requests split by SLO class rank (interactive,
    /// standard, batch) at this instant; sums to `outstanding` when
    /// maintained. Only a [`classed`](SnapshotTracker::classed) tracker
    /// maintains it — incrementally, on every push, step and expiry — and
    /// the fleet loop builds one only for multi-tenant runs. Single-tenant
    /// runs (including untenanted traces with mixed classes) keep the
    /// zeros, and every policy except [`RouterPolicy::SloAware`] ignores
    /// the field.
    pub class_outstanding: [u64; 3],
}

/// A routing strategy (see the [module docs](self) for the contract).
pub trait Router {
    /// The router's display name (reports, CLI).
    fn name(&self) -> &'static str;

    /// Picks the replica for `request` given the fleet state.
    fn route(&mut self, request: &Request, replicas: &[ReplicaSnapshot]) -> usize;
}

/// The built-in routing strategies, as a configuration value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Everything to replica 0 — the degenerate router that makes a
    /// 1-replica cluster reproduce its single engine bit-for-bit (the
    /// equivalence anchor).
    PassThrough,
    /// Cycle through replicas in index order.
    RoundRobin,
    /// The replica with the fewest outstanding requests (ties pick the
    /// lowest index) — the classic least-loaded policy.
    LeastOutstanding,
    /// The replica with the lowest live KV occupancy, breaking ties by
    /// outstanding requests then index — memory-pressure-aware routing.
    LeastKv,
    /// Hash the request's session onto a replica, so a session's requests
    /// always land together (a session's later requests re-use cache
    /// state where the first one ran).
    SessionAffinity,
    /// Hash the request's prompt-prefix identity onto a replica, so
    /// requests sharing a system-prompt head land where its KV blocks are
    /// already resident (falls back to the session hash for requests with
    /// no shared head). See the [module docs](self) on affinity routing.
    PrefixAffinity,
    /// Tier-aware least-loaded routing for multi-tenant fleets: each
    /// request goes to the replica with the fewest in-flight requests of
    /// its *own* SLO class (ties break by total outstanding, then index),
    /// so interactive traffic lands on the healthy replica least busy
    /// with interactive work instead of queueing behind another tenant's
    /// batch backlog. In a single-tenant run every
    /// [`ReplicaSnapshot::class_outstanding`] is zero and the policy
    /// degenerates to [`RouterPolicy::LeastOutstanding`].
    SloAware,
}

impl RouterPolicy {
    /// The policy's display name.
    pub fn name(&self) -> &'static str {
        match self {
            RouterPolicy::PassThrough => "pass-through",
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::LeastOutstanding => "least-outstanding",
            RouterPolicy::LeastKv => "least-kv",
            RouterPolicy::SessionAffinity => "session-affinity",
            RouterPolicy::PrefixAffinity => "prefix-affinity",
            RouterPolicy::SloAware => "slo-aware",
        }
    }

    /// Instantiates the router.
    pub fn build(&self) -> Box<dyn Router> {
        match self {
            RouterPolicy::PassThrough => Box::new(PassThrough),
            RouterPolicy::RoundRobin => Box::new(RoundRobin { next: 0 }),
            RouterPolicy::LeastOutstanding => Box::new(LeastOutstanding),
            RouterPolicy::LeastKv => Box::new(LeastKv),
            RouterPolicy::SessionAffinity => Box::new(SessionAffinity),
            RouterPolicy::PrefixAffinity => Box::new(PrefixAffinity),
            RouterPolicy::SloAware => Box::new(SloAware),
        }
    }

    /// Looks a policy up by its display name.
    ///
    /// # Errors
    ///
    /// Returns [`cimtpu_units::Error::UnknownPreset`] for anything else.
    pub fn by_name(name: &str) -> cimtpu_units::Result<Self> {
        [
            RouterPolicy::PassThrough,
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastOutstanding,
            RouterPolicy::LeastKv,
            RouterPolicy::SessionAffinity,
            RouterPolicy::PrefixAffinity,
            RouterPolicy::SloAware,
        ]
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| cimtpu_units::Error::unknown_preset(format!("router '{name}'")))
    }
}

struct PassThrough;

impl Router for PassThrough {
    fn name(&self) -> &'static str {
        RouterPolicy::PassThrough.name()
    }

    fn route(&mut self, _request: &Request, _replicas: &[ReplicaSnapshot]) -> usize {
        0
    }
}

struct RoundRobin {
    next: usize,
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        RouterPolicy::RoundRobin.name()
    }

    fn route(&mut self, _request: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        let pick = self.next % replicas.len().max(1);
        self.next = self.next.wrapping_add(1);
        pick
    }
}

struct LeastOutstanding;

impl Router for LeastOutstanding {
    fn name(&self) -> &'static str {
        RouterPolicy::LeastOutstanding.name()
    }

    fn route(&mut self, _request: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        replicas
            .iter()
            .min_by_key(|r| (r.outstanding, r.index))
            .map_or(0, |r| r.index)
    }
}

struct LeastKv;

impl Router for LeastKv {
    fn name(&self) -> &'static str {
        RouterPolicy::LeastKv.name()
    }

    fn route(&mut self, _request: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        // total_cmp instead of partial_cmp: occupancy fractions are never
        // NaN today, but a router consulted mid-fault must not be able to
        // panic the simulator on one.
        replicas
            .iter()
            .min_by(|a, b| {
                a.kv_frac
                    .total_cmp(&b.kv_frac)
                    .then(a.outstanding.cmp(&b.outstanding))
                    .then(a.index.cmp(&b.index))
            })
            .map_or(0, |r| r.index)
    }
}

struct SessionAffinity;

impl Router for SessionAffinity {
    fn name(&self) -> &'static str {
        RouterPolicy::SessionAffinity.name()
    }

    fn route(&mut self, request: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        (splitmix64(request.session) % replicas.len().max(1) as u64) as usize
    }
}

struct PrefixAffinity;

impl Router for PrefixAffinity {
    fn name(&self) -> &'static str {
        RouterPolicy::PrefixAffinity.name()
    }

    fn route(&mut self, request: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        let key = if request.prefix.head_len > 0 {
            // Mix length into the seed so distinct heads that happen to
            // share a seed prefix still spread.
            request.prefix.head_seed ^ request.prefix.head_len.rotate_left(32)
        } else {
            request.session
        };
        (splitmix64(key) % replicas.len().max(1) as u64) as usize
    }
}

struct SloAware;

impl Router for SloAware {
    fn name(&self) -> &'static str {
        RouterPolicy::SloAware.name()
    }

    fn route(&mut self, request: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        let rank = request.class.rank();
        replicas
            .iter()
            .min_by_key(|r| (r.class_outstanding[rank], r.outstanding, r.index))
            .map_or(0, |r| r.index)
    }
}

/// One replica's place in the failure lifecycle (see the
/// [module docs](self) on the health view).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplicaHealth {
    /// Serving normally; routable.
    Up,
    /// Crashed and drained; restarts (enters warmup) at `until`.
    Down {
        /// When the repair completes.
        until: Seconds,
    },
    /// Restarted with an empty KV allocator, prefix index and batch
    /// state; routable again at `until`.
    Warming {
        /// When warmup ends.
        until: Seconds,
    },
}

/// The driver's view of which replicas can take traffic — a tiny
/// deterministic state machine: `Up → Down → Warming → Up`. Transitions
/// happen only in [`advance`](HealthView::advance), at times the driver
/// controls, so two runs with the same fault timeline see identical
/// health histories.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthView {
    states: Vec<ReplicaHealth>,
    /// Maintained min over every non-`Up` replica's `until` — a function
    /// of `states`, updated on [`mark_down`](HealthView::mark_down) and
    /// recomputed on [`advance`](HealthView::advance), so
    /// [`next_transition`](HealthView::next_transition) is `O(1)` on the
    /// fleet loop's per-event path.
    next: Option<Seconds>,
}

impl HealthView {
    /// Every replica up.
    pub fn all_up(replicas: usize) -> Self {
        HealthView { states: vec![ReplicaHealth::Up; replicas], next: None }
    }

    /// The replica's current state.
    pub fn state(&self, replica: usize) -> ReplicaHealth {
        self.states[replica]
    }

    /// Whether the replica is routable.
    pub fn is_up(&self, replica: usize) -> bool {
        matches!(self.states[replica], ReplicaHealth::Up)
    }

    /// Marks a replica down (crashed); it restarts at `restart_at`.
    pub fn mark_down(&mut self, replica: usize, restart_at: Seconds) {
        self.states[replica] = ReplicaHealth::Down { until: restart_at };
        self.next = Some(self.next.map_or(restart_at, |t| t.min(restart_at)));
    }

    /// The earliest pending transition (a restart or a warmup end), if
    /// any replica is not up — the driver schedules a timeline event
    /// there.
    pub fn next_transition(&self) -> Option<Seconds> {
        self.next
    }

    /// Recomputes the maintained transition min from scratch (after
    /// `advance` moved states around).
    fn recompute_next(&mut self) {
        self.next = self
            .states
            .iter()
            .filter_map(|s| match s {
                ReplicaHealth::Up => None,
                ReplicaHealth::Down { until } | ReplicaHealth::Warming { until } => Some(*until),
            })
            .reduce(Seconds::min);
    }

    /// Applies every transition due at or before `now` (in replica-index
    /// order): a `Down` replica whose repair completed enters `Warming`
    /// for `warmup`, and a warmed replica comes back `Up`. Returns the
    /// replicas that restarted in this call — the driver rebuilds those
    /// as fresh cores (empty KV allocator, prefix index and batch state).
    pub fn advance(&mut self, now: Seconds, warmup: Seconds) -> Vec<usize> {
        let mut restarted = Vec::new();
        for (i, state) in self.states.iter_mut().enumerate() {
            if let ReplicaHealth::Down { until } = *state {
                if now >= until {
                    *state = ReplicaHealth::Warming { until: until + warmup };
                    restarted.push(i);
                }
            }
            if let ReplicaHealth::Warming { until } = *state {
                if now >= until {
                    *state = ReplicaHealth::Up;
                }
            }
        }
        self.recompute_next();
        restarted
    }

    /// Indices of routable replicas, ascending.
    pub fn up_replicas(&self) -> Vec<usize> {
        (0..self.states.len()).filter(|&i| self.is_up(i)).collect()
    }
}

/// A simulated time ordered by `total_cmp` (times are never NaN in a
/// healthy run, but an ordering that cannot panic keeps the event heaps
/// total).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimeKey(pub(crate) f64);

impl PartialEq for TimeKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for TimeKey {}
impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Incrementally-maintained router snapshots for the colocated fleet
/// loop: the `O(1)`-per-event replacement for rebuilding a
/// [`ReplicaSnapshot`] vector (with an `O(completions)`
/// `outstanding_at` scan per replica) at every routing decision.
///
/// The tracker exploits the identity `outstanding_at(t) = pushed −
/// #{completions with finish ≤ t}`: it counts pushes up and expires
/// scheduled completions through a global `(finish, replica)` min-heap as
/// routing time advances. Routing instants are nondecreasing in the
/// discrete-event loop (each arrival is the earliest pending event when
/// it routes), so expiry is a forward-only sweep — with one exception: a
/// stall flush launches a static batch *in the past* (its start is the
/// batch's own arrival window, which can predate already-routed
/// arrivals), and the flushed completions can re-arm closed-loop clients
/// below the tracker's clock. The driver handles that rare case by
/// [`resync`](SnapshotTracker::resync)ing from the cores' completion
/// ledgers instead of advancing. `queued` and `kv_frac` are refreshed
/// from the replica's own `O(1)`/`O(chips)` getters after each event
/// that can move them. A replica whose core is replaced (a crash restart
/// or an elastic boot) is [`reset`](SnapshotTracker::reset): its pending
/// expiry entries are stamped with an older epoch and skipped.
///
/// A [`classed`](SnapshotTracker::classed) tracker — what multi-tenant
/// runs build — applies the same identity per SLO class to maintain
/// [`ReplicaSnapshot::class_outstanding`]: a push adds one to its
/// request's class, and each expiry entry carries its completion's class
/// rank (packed into the epoch word, so entries stay 24 bytes) and
/// subtracts from that class when it expires. Feed a classed tracker
/// through [`on_push_classed`](SnapshotTracker::on_push_classed) and
/// [`on_step_classed`](SnapshotTracker::on_step_classed). A tracker built
/// with [`new`](SnapshotTracker::new) leaves every split at zero.
#[derive(Debug)]
pub struct SnapshotTracker {
    snaps: Vec<ReplicaSnapshot>,
    /// Scheduled completions not yet counted out of `outstanding`: finish,
    /// replica, and a `tag` of the replica's epoch at push time with the
    /// completion's class rank.
    expiry: BinaryHeap<Reverse<(TimeKey, usize, u64)>>,
    /// Per-replica incarnation counter, bumped by `reset`.
    epochs: Vec<u64>,
    /// Whether the per-class split is maintained.
    classed: bool,
    /// The last routing instant (monotone; debug-asserted).
    now: Seconds,
}

/// Low bits of an expiry tag that hold the class rank (ranks are 0..3).
const RANK_BITS: u32 = 2;
const RANK_MASK: u64 = (1 << RANK_BITS) - 1;

/// Packs a replica epoch and a class rank into one expiry-heap word.
fn tag(epoch: u64, rank: usize) -> u64 {
    (epoch << RANK_BITS) | rank as u64
}

impl SnapshotTracker {
    /// A tracker over `replicas` idle replicas that leaves
    /// [`ReplicaSnapshot::class_outstanding`] at zero (single-tenant
    /// runs).
    pub fn new(replicas: usize) -> Self {
        SnapshotTracker {
            snaps: (0..replicas)
                .map(|index| ReplicaSnapshot {
                    index,
                    outstanding: 0,
                    queued: 0,
                    kv_frac: 0.0,
                    assigned: 0,
                    class_outstanding: [0; 3],
                })
                .collect(),
            expiry: BinaryHeap::new(),
            epochs: vec![0; replicas],
            classed: false,
            now: Seconds::ZERO,
        }
    }

    /// A tracker over `replicas` idle replicas that also maintains the
    /// per-class outstanding split (multi-tenant runs; see the type docs).
    pub fn classed(replicas: usize) -> Self {
        SnapshotTracker { classed: true, ..Self::new(replicas) }
    }

    /// The last routing instant.
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Moves routing time forward to `t`: completions with `finish <= t`
    /// stop counting as outstanding, matching
    /// [`outstanding_at`](cimtpu_serving::EngineCore::outstanding_at)'s
    /// strict `finish > t` rule. `t` must not precede
    /// [`now`](SnapshotTracker::now) — rewind with
    /// [`resync`](SnapshotTracker::resync) instead.
    pub fn advance_to(&mut self, t: Seconds) {
        debug_assert!(t >= self.now, "routing instants regressed: {t:?} < {:?}", self.now);
        self.now = t;
        while let Some(&Reverse((TimeKey(finish), k, tag))) = self.expiry.peek() {
            if finish > t.get() {
                break;
            }
            self.expiry.pop();
            if tag >> RANK_BITS == self.epochs[k] {
                let s = &mut self.snaps[k];
                s.outstanding -= 1;
                if self.classed {
                    s.class_outstanding[(tag & RANK_MASK) as usize] -= 1;
                }
            }
        }
    }

    /// The current per-replica snapshots (valid for the instant last
    /// passed to [`advance_to`](SnapshotTracker::advance_to)).
    pub fn snapshots(&self) -> &[ReplicaSnapshot] {
        &self.snaps
    }

    /// Rewinds routing time to `t < now` by rebuilding the outstanding
    /// sets (and, when classed, their per-class split) from the cores'
    /// completion ledgers — the slow exact path for the one event that
    /// moves routing instants backwards (a stall flush, see the type
    /// docs). `O(total completions)`, paid only when a regression
    /// actually happens; `assigned` counts are preserved (they are
    /// cumulative, not time-indexed).
    pub fn resync(&mut self, t: Seconds, cores: &[EngineCore<'_>]) {
        self.now = t;
        self.expiry.clear();
        for (k, core) in cores.iter().enumerate() {
            let s = &mut self.snaps[k];
            s.outstanding = core.outstanding_at(t);
            if self.classed {
                s.class_outstanding = core.outstanding_by_class_at(t);
            }
            s.queued = core.queued();
            s.kv_frac = core.kv_frac();
            for (c, class) in core.completions().iter().zip(core.completion_classes()) {
                if c.finish > t {
                    let entry = (TimeKey(c.finish.get()), k, tag(self.epochs[k], class.rank()));
                    self.expiry.push(Reverse(entry));
                }
            }
        }
    }

    /// Forgets replica `k`'s current incarnation: its core was replaced by
    /// a fresh one (empty queue, no completions, empty allocator). The
    /// counts and their class split restart from zero and the old core's
    /// pending expiries are invalidated; `assigned` keeps counting across
    /// incarnations.
    pub fn reset(&mut self, k: usize) {
        self.epochs[k] += 1;
        let s = &mut self.snaps[k];
        s.outstanding = 0;
        s.queued = 0;
        s.kv_frac = 0.0;
        s.class_outstanding = [0; 3];
    }

    /// Records a request pushed into replica `k` (whose queue depth is
    /// now `queued`) on an unclassed tracker.
    pub fn on_push(&mut self, k: usize, queued: u64) {
        debug_assert!(!self.classed, "a classed tracker needs each push's class");
        self.on_push_classed(k, queued, SloClass::Standard);
    }

    /// [`on_push`](SnapshotTracker::on_push) for a request of `class`,
    /// which a classed tracker counts into the replica's split.
    pub fn on_push_classed(&mut self, k: usize, queued: u64, class: SloClass) {
        let s = &mut self.snaps[k];
        s.assigned += 1;
        s.outstanding += 1;
        s.queued = queued;
        if self.classed {
            s.class_outstanding[class.rank()] += 1;
        }
    }

    /// Records a scheduling step on replica `k` of an unclassed tracker:
    /// refreshed queue depth and KV occupancy, plus the completions the
    /// step scheduled (each stays outstanding until routing time passes
    /// its finish).
    pub fn on_step(&mut self, k: usize, queued: u64, kv_frac: f64, new: &[Completion]) {
        debug_assert!(!self.classed, "a classed tracker needs each completion's class");
        self.on_step_classed(k, queued, kv_frac, new, &[]);
    }

    /// [`on_step`](SnapshotTracker::on_step) with the class of each new
    /// completion, index-aligned with `new` (see
    /// [`EngineCore::drain_new_classed`]); an unclassed tracker ignores
    /// `classes`.
    pub fn on_step_classed(
        &mut self,
        k: usize,
        queued: u64,
        kv_frac: f64,
        new: &[Completion],
        classes: &[SloClass],
    ) {
        debug_assert!(!self.classed || classes.len() == new.len());
        let s = &mut self.snaps[k];
        s.queued = queued;
        s.kv_frac = kv_frac;
        for (i, c) in new.iter().enumerate() {
            let rank = if self.classed { classes[i].rank() } else { 0 };
            if c.finish.get() > self.now.get() {
                let entry = (TimeKey(c.finish.get()), k, tag(self.epochs[k], rank));
                self.expiry.push(Reverse(entry));
            } else {
                // Already in the past at the current routing instant:
                // it would expire on the next advance anyway.
                s.outstanding -= 1;
                if self.classed {
                    s.class_outstanding[rank] -= 1;
                }
            }
        }
    }
}

/// A stable 64-bit finalizer (splitmix64), so nearby session ids spread
/// across replicas while every run hashes identically.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(index: usize, outstanding: u64, kv_frac: f64) -> ReplicaSnapshot {
        ReplicaSnapshot {
            index,
            outstanding,
            queued: 0,
            kv_frac,
            assigned: 0,
            class_outstanding: [0; 3],
        }
    }

    fn req(id: u64, session: u64) -> Request {
        Request {
            id,
            arrival_s: 0.0,
            prompt_len: 8,
            steps: 4,
            session,
            tenant: 0,
            class: cimtpu_serving::SloClass::Standard,
            prefix: cimtpu_serving::PromptPrefix::UNIQUE,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = RouterPolicy::RoundRobin.build();
        let snaps = [snap(0, 0, 0.0), snap(1, 0, 0.0), snap(2, 0, 0.0)];
        let picks: Vec<usize> = (0..6).map(|i| r.route(&req(i, i), &snaps)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn pass_through_always_zero() {
        let mut r = RouterPolicy::PassThrough.build();
        let snaps = [snap(0, 9, 0.9), snap(1, 0, 0.0)];
        assert_eq!(r.route(&req(0, 0), &snaps), 0);
    }

    #[test]
    fn least_outstanding_picks_min_with_index_ties() {
        let mut r = RouterPolicy::LeastOutstanding.build();
        assert_eq!(r.route(&req(0, 0), &[snap(0, 3, 0.0), snap(1, 1, 0.0), snap(2, 1, 0.0)]), 1);
        assert_eq!(r.route(&req(0, 0), &[snap(0, 0, 0.0), snap(1, 0, 0.0)]), 0);
    }

    #[test]
    fn least_kv_breaks_ties_by_outstanding() {
        let mut r = RouterPolicy::LeastKv.build();
        assert_eq!(r.route(&req(0, 0), &[snap(0, 1, 0.8), snap(1, 5, 0.2)]), 1);
        assert_eq!(r.route(&req(0, 0), &[snap(0, 5, 0.5), snap(1, 1, 0.5)]), 1);
        assert_eq!(r.route(&req(0, 0), &[snap(0, 1, 0.5), snap(1, 1, 0.5)]), 0);
    }

    #[test]
    fn session_affinity_is_sticky_and_spreads() {
        let mut r = RouterPolicy::SessionAffinity.build();
        let snaps = [snap(0, 0, 0.0), snap(1, 0, 0.0), snap(2, 0, 0.0), snap(3, 0, 0.0)];
        // Same session always lands on the same replica, whatever the id.
        for session in 0..16 {
            let first = r.route(&req(0, session), &snaps);
            for id in 1..4 {
                assert_eq!(r.route(&req(id, session), &snaps), first);
            }
        }
        // Different sessions cover more than one replica.
        let covered: std::collections::HashSet<usize> =
            (0..16).map(|s| r.route(&req(0, s), &snaps)).collect();
        assert!(covered.len() > 1, "16 sessions all hashed to one replica");
    }

    #[test]
    fn prefix_affinity_is_sticky_per_head_and_falls_back_to_session() {
        let mut r = RouterPolicy::PrefixAffinity.build();
        let snaps = [snap(0, 0, 0.0), snap(1, 0, 0.0), snap(2, 0, 0.0), snap(3, 0, 0.0)];
        let headed = |id: u64, seed: u64| Request {
            prefix: cimtpu_serving::PromptPrefix { head_seed: seed, head_len: 64 },
            ..req(id, id)
        };
        // Same head always lands together, whatever the id/session; load
        // never enters the decision.
        for seed in 0..16 {
            let first = r.route(&headed(0, seed), &snaps);
            let busy = [snap(0, 99, 0.9), snap(1, 99, 0.9), snap(2, 99, 0.9), snap(3, 99, 0.9)];
            for id in 1..4 {
                assert_eq!(r.route(&headed(id, seed), &busy), first);
            }
        }
        // Distinct heads cover more than one replica.
        let covered: std::collections::HashSet<usize> =
            (0..16).map(|s| r.route(&headed(0, s), &snaps)).collect();
        assert!(covered.len() > 1, "16 heads all hashed to one replica");
        // No shared head: behaves exactly like session affinity.
        let mut sa = RouterPolicy::SessionAffinity.build();
        for session in 0..8 {
            assert_eq!(
                r.route(&req(0, session), &snaps),
                sa.route(&req(0, session), &snaps),
            );
        }
    }

    #[test]
    fn slo_aware_routes_by_own_class_then_total_load() {
        use cimtpu_serving::SloClass;
        let mut r = RouterPolicy::SloAware.build();
        let classed = |index: usize, outstanding: u64, split: [u64; 3]| ReplicaSnapshot {
            class_outstanding: split,
            ..snap(index, outstanding, 0.0)
        };
        let by_class = |class: SloClass| Request { class, ..req(0, 0) };
        // Replica 0 is drowning in batch work but idle on interactive;
        // interactive traffic still lands there, batch traffic avoids it.
        let snaps = [classed(0, 9, [0, 0, 9]), classed(1, 3, [2, 0, 1])];
        assert_eq!(r.route(&by_class(SloClass::Interactive), &snaps), 0);
        assert_eq!(r.route(&by_class(SloClass::Batch), &snaps), 1);
        // Equal own-class load: total outstanding breaks the tie.
        let snaps = [classed(0, 9, [1, 0, 8]), classed(1, 3, [1, 0, 2])];
        assert_eq!(r.route(&by_class(SloClass::Interactive), &snaps), 1);
        // All-zero splits (a single-tenant run): degenerates to
        // least-outstanding.
        let snaps = [snap(0, 3, 0.0), snap(1, 1, 0.0), snap(2, 1, 0.0)];
        let mut lo = RouterPolicy::LeastOutstanding.build();
        assert_eq!(r.route(&req(0, 0), &snaps), lo.route(&req(0, 0), &snaps));
    }

    #[test]
    fn health_view_walks_down_warming_up() {
        let mut h = HealthView::all_up(3);
        assert!(h.is_up(1));
        assert_eq!(h.next_transition(), None);
        h.mark_down(1, Seconds::new(5.0));
        assert!(!h.is_up(1));
        assert_eq!(h.up_replicas(), vec![0, 2]);
        assert_eq!(h.next_transition(), Some(Seconds::new(5.0)));
        // Too early: nothing moves.
        assert!(h.advance(Seconds::new(4.0), Seconds::new(1.0)).is_empty());
        // Repair completes: the replica restarts but warms up first.
        assert_eq!(h.advance(Seconds::new(5.0), Seconds::new(1.0)), vec![1]);
        assert_eq!(h.state(1), ReplicaHealth::Warming { until: Seconds::new(6.0) });
        assert!(!h.is_up(1), "warming replicas take no traffic");
        assert_eq!(h.next_transition(), Some(Seconds::new(6.0)));
        // Warmup ends: routable again; no second "restart" is reported.
        assert!(h.advance(Seconds::new(6.0), Seconds::new(1.0)).is_empty());
        assert!(h.is_up(1));
        assert_eq!(h.up_replicas(), vec![0, 1, 2]);
        // A zero warmup goes Down → Up in one call, still reporting the
        // restart.
        h.mark_down(0, Seconds::new(7.0));
        assert_eq!(h.advance(Seconds::new(7.0), Seconds::ZERO), vec![0]);
        assert!(h.is_up(0));
    }

    /// A tracker whose replica was replaced and `reset` reads exactly what
    /// a fresh rebuild from the replacement core reads, while `assigned`
    /// keeps counting across incarnations.
    #[test]
    fn reset_tracker_matches_rebuild_from_replacement_core() {
        use crate::ReplicaSpec;
        use cimtpu_serving::{EngineSession, ServingModel};

        let spec = ReplicaSpec::new(
            "r",
            cimtpu_core::TpuConfig::tpuv4i(),
            ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer()),
        );
        let sessions: Vec<EngineSession> =
            (0..2).map(|_| EngineSession::new(&spec.engine().unwrap()).unwrap()).collect();
        let mut cores: Vec<EngineCore<'_>> = sessions.iter().map(|s| s.core().unwrap()).collect();
        let mut tracker = SnapshotTracker::new(2);
        let push = |tracker: &mut SnapshotTracker, cores: &mut [EngineCore<'_>], k: usize, id| {
            cores[k].push(Request { arrival_s: 0.0, ..req(id, id) });
            tracker.on_push(k, cores[k].queued());
        };
        let step = |tracker: &mut SnapshotTracker, cores: &mut [EngineCore<'_>], k: usize| {
            cores[k].step().unwrap();
            let new = cores[k].drain_new().to_vec();
            tracker.on_step(k, cores[k].queued(), cores[k].kv_frac(), &new);
        };
        for id in 0..4 {
            push(&mut tracker, &mut cores, (id % 2) as usize, id);
        }
        for _ in 0..3 {
            step(&mut tracker, &mut cores, 0);
            step(&mut tracker, &mut cores, 1);
        }
        // Replica 1 is replaced mid-flight: its scheduled completions are
        // gone with the old core.
        cores[1] = sessions[1].core().unwrap();
        tracker.reset(1);
        push(&mut tracker, &mut cores, 1, 4);
        step(&mut tracker, &mut cores, 1);
        let t = cores.iter().filter_map(EngineCore::next_action).fold(Seconds::ZERO, Seconds::max);
        tracker.advance_to(t);
        let mut rebuilt = SnapshotTracker::new(2);
        rebuilt.resync(t, &cores);
        for (got, want) in tracker.snapshots().iter().zip(rebuilt.snapshots()) {
            assert_eq!(*got, ReplicaSnapshot { assigned: got.assigned, ..*want });
        }
        assert_eq!(tracker.snapshots()[1].assigned, 3);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A classed tracker fed by tenancy-armed continuous and static
        /// cores keeps every replica's class split equal to a scan of its
        /// core's ledger, and summing to `outstanding`, at every instant:
        /// across pushes of mixed classes, steps, a crash restart
        /// (`reset`), a `resync` rewind, and the final drain.
        #[test]
        fn classed_tracker_matches_ledger_scan(
            reqs in proptest::collection::vec(
                (0usize..3, 0usize..2, 1u64..40, 1u64..8, 0.0f64..2e-4),
                4..20,
            ),
            crash in (0usize..20, 0usize..2),
            rewind_at in 1usize..20,
        ) {
            use crate::ReplicaSpec;
            use cimtpu_serving::{BatchPolicy, EngineSession, ServingModel, TenantSched};
            use proptest::{prop_assert, prop_assert_eq};

            let spec = |policy| {
                let model = ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer());
                ReplicaSpec::new("r", cimtpu_core::TpuConfig::tpuv4i(), model).with_policy(policy)
            };
            let specs = [
                spec(BatchPolicy::Continuous { max_batch: 4 }),
                spec(BatchPolicy::Static { batch: 2 }),
            ];
            let sessions: Vec<EngineSession> =
                specs.iter().map(|s| EngineSession::new(&s.engine().unwrap()).unwrap()).collect();
            let classes = [SloClass::Interactive, SloClass::Standard, SloClass::Batch];
            let sched = TenantSched { classes: classes.to_vec(), weights: vec![4.0, 2.0, 1.0] };
            let fresh = |k: usize| {
                let mut core = sessions[k].core().unwrap();
                core.set_tenancy(&sched);
                core
            };
            let mut cores: Vec<EngineCore<'_>> = (0..2).map(fresh).collect();
            let mut tracker = SnapshotTracker::classed(2);
            let check = |tracker: &SnapshotTracker, cores: &[EngineCore<'_>]| {
                let now = tracker.now();
                for (s, core) in tracker.snapshots().iter().zip(cores) {
                    prop_assert_eq!(s.class_outstanding, core.outstanding_by_class_at(now));
                    prop_assert_eq!(s.class_outstanding.iter().sum::<u64>(), s.outstanding);
                }
            };
            let push = |tracker: &mut SnapshotTracker, core: &mut EngineCore<'_>, k, r: Request| {
                core.push(r);
                tracker.on_push_classed(k, core.queued(), r.class);
            };
            let step = |tracker: &mut SnapshotTracker, core: &mut EngineCore<'_>, k| {
                core.step().unwrap();
                let (queued, kv_frac) = (core.queued(), core.kv_frac());
                let (done, classes) = core.drain_new_classed();
                tracker.on_step_classed(k, queued, kv_frac, done, classes);
            };
            // The core with the earliest next action at or before `until`.
            let due = |cores: &[EngineCore<'_>], until: f64| {
                (0..cores.len())
                    .filter_map(|k| cores[k].next_action().map(|t| (k, t.get())))
                    .filter(|&(_, t)| t <= until)
                    .min_by(|a, b| a.1.total_cmp(&b.1))
            };

            let mut t = 0.0;
            for (i, &(class, k, prompt_len, steps, gap)) in reqs.iter().enumerate() {
                let prev = t;
                t += gap;
                while let Some((j, _)) = due(&cores, t) {
                    step(&mut tracker, &mut cores[j], j);
                    check(&tracker, &cores);
                }
                tracker.advance_to(Seconds::new(t));
                check(&tracker, &cores);
                let class = classes[class];
                let r = Request {
                    arrival_s: t,
                    prompt_len,
                    steps,
                    tenant: class.rank() as u32,
                    class,
                    ..req(i as u64, i as u64)
                };
                push(&mut tracker, &mut cores[k], k, r);
                check(&tracker, &cores);
                if i == crash.0 {
                    // The replica crashes and restarts at once; its lost
                    // requests retry on the replacement core.
                    let k = crash.1;
                    let lost = cores[k].crash(Seconds::new(t));
                    cores[k] = fresh(k);
                    tracker.reset(k);
                    for r in lost {
                        push(&mut tracker, &mut cores[k], k, Request { arrival_s: t, ..r });
                    }
                    check(&tracker, &cores);
                }
                if i == rewind_at {
                    // A stall-flush rewind to the previous routing instant.
                    tracker.resync(Seconds::new(prev), &cores);
                    check(&tracker, &cores);
                }
            }
            for core in &mut cores {
                core.close();
            }
            while let Some((j, at)) = due(&cores, f64::INFINITY) {
                step(&mut tracker, &mut cores[j], j);
                tracker.advance_to(Seconds::new(at).max(tracker.now()));
                check(&tracker, &cores);
            }
            let end =
                cores.iter().flat_map(|c| c.completions()).fold(t, |m, c| m.max(c.finish.get()));
            tracker.advance_to(Seconds::new(end));
            check(&tracker, &cores);
            prop_assert!(tracker.snapshots().iter().all(|s| s.outstanding == 0));
        }
    }

    #[test]
    fn least_kv_survives_nan_occupancy() {
        // A NaN must not panic routing mid-fault; the exact pick is
        // unimportant, determinism and in-range are.
        let mut r = RouterPolicy::LeastKv.build();
        let snaps = [snap(0, 1, f64::NAN), snap(1, 1, 0.5)];
        let pick = r.route(&req(0, 0), &snaps);
        assert!(pick < 2);
        assert_eq!(pick, r.route(&req(1, 1), &snaps));
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [
            RouterPolicy::PassThrough,
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastOutstanding,
            RouterPolicy::LeastKv,
            RouterPolicy::SessionAffinity,
            RouterPolicy::PrefixAffinity,
            RouterPolicy::SloAware,
        ] {
            assert_eq!(RouterPolicy::by_name(p.name()).unwrap(), p);
            assert_eq!(p.build().name(), p.name());
        }
        assert!(RouterPolicy::by_name("nope").is_err());
    }
}
