//! Disaggregated prefill/decode serving (DistServe/Splitwise-style).
//!
//! # Cost model
//!
//! Requests route (via the cluster's router) to a **prefill pool**
//! replica, which batches queued prompts FCFS — up to the replica
//! policy's [`max_concurrency`](cimtpu_serving::BatchPolicy::max_concurrency),
//! padded to the longest member — and prices the grouped prefill through
//! the replica's [`PhasePricer`]. The prompt's KV blocks are reserved in
//! the prefill replica's paged allocator for the whole residency:
//! ingestion *and* the outbound transfer (a prompt that does not fit
//! waits for earlier caches to finish migrating).
//!
//! When a prefill finishes (producing the request's first token — TTFT in
//! a disaggregated fleet is prefill completion, before any transfer), the
//! KV cache migrates to a **decode pool** replica chosen by the decode
//! router. The transfer moves whole paged blocks —
//! [`KvFootprint::handoff_bytes`] of the *unsharded* cache — over the
//! [`InterconnectSpec`]: each prefill replica owns one egress link, so
//! its transfers serialize (`start = max(prefill end, link free)`), and
//! every byte pays the link's bandwidth, hop latency, and pJ/byte energy.
//!
//! Decode admission is gated by the target replica's paged allocator:
//! the handed-off cache plus the request's worst-case decode growth
//! (`prompt + steps` tokens) must fit before the request joins the
//! decode batch, so the decode pool never preempts; arrivals that do not
//! fit wait in the replica's pending queue (charged to the queue-full
//! clock). Decode then proceeds continuous-batching style: one step per
//! round at the live batch size and the longest member context.
//!
//! # Event loop
//!
//! One discrete-event loop drives both pools. Events at one instant
//! resolve in a fixed order: fault transitions, arrivals, retry fires,
//! prefill batches, decode rounds, then lowest replica index. An
//! [`ActionHeap`] keeps the units' next actions, prefill unit `i` in
//! slot `i` and decode unit `j` in slot `prefill.len() + j`.
//!
//! # Faults
//!
//! The loop is fault-aware throughout, and a [`FaultPlan`] is data: an
//! empty plan schedules no crash and opens no link window, so every
//! handoff routes over the whole decode pool, no request is retried,
//! and the report omits the availability section. Two fault kinds
//! apply here:
//!
//! - **Decode-replica crashes.** Everything resident on or inbound to
//!   the replica is lost and its paged allocator is emptied; the replica
//!   is marked down, repaired, and warmed up before the decode router
//!   sees it again. Faults land on scheduling-round boundaries: a decode
//!   round that started before the crash completes atomically and its
//!   completions stand. Each lost request retries under the plan's
//!   [`RecoveryPolicy`]: if the source
//!   prefill replica still holds the cache (its post-transfer release
//!   has not fired), the retry **re-hands-off** — a second transfer,
//!   always cheaper than recomputing the prefill *and* transferring —
//!   otherwise the request **recomputes** through the prefill pool.
//!   Prefill replicas cannot crash (a crash event indexes the decode
//!   pool), and stragglers are a colocated-fleet fault.
//! - **Degraded links.** While a window is open, a transfer started
//!   inside it pays `wire / bandwidth_factor` (hop latency unchanged)
//!   and `energy × energy_factor` — retransmission-style degradation.

use std::collections::HashMap;
use std::rc::Rc;

use cimtpu_kv::{KvFootprint, PagedKvAllocator};
use cimtpu_obs::{EventKind, SharedRecorder, TraceSink as _};
use cimtpu_multi::RingTopology;
use cimtpu_serving::{
    ActionHeap, ArrivalStream, Completion, EngineSession, Parallelism, PhasePricer, Request,
    ServingModel, TrafficSpec,
};
use cimtpu_units::{Bandwidth, Bytes, Error, Joules, Result, Seconds};

use crate::engine::{release_client, tenant_tag, Tenancy};
use crate::fault::{AvailabilityStats, FaultEvent, FaultPlan, RecoveryPolicy};
use crate::fleet::{sessions_for, settle, tenant_report, CrashRecord};
use crate::replica::ReplicaSpec;
use crate::report::{ClusterReport, KvTransferStats, ReplicaUtilization};
use crate::router::{HealthView, ReplicaHealth, ReplicaSnapshot, Router, RouterPolicy};
use crate::ClusterRun;

/// The link KV caches migrate over between prefill and decode replicas:
/// bandwidth + per-transfer hop latency from the `cimtpu-multi` link
/// model, plus a serdes energy cost per byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectSpec {
    /// Link bandwidth.
    pub link_bandwidth: Bandwidth,
    /// Software/serialization latency per transfer.
    pub hop_latency: Seconds,
    /// Link energy per byte moved, in picojoules (serdes + switching;
    /// a few pJ/byte is typical of short-reach chip-to-chip links).
    pub energy_pj_per_byte: f64,
}

impl InterconnectSpec {
    /// An ICI-class link: 100 GB/s, 1 µs hop latency, 5 pJ/byte.
    pub fn ici() -> Self {
        InterconnectSpec {
            link_bandwidth: Bandwidth::from_gb_per_s(100.0),
            hop_latency: Seconds::from_micros(1.0),
            energy_pj_per_byte: 5.0,
        }
    }

    /// Derives the link parameters from a `cimtpu-multi` ring topology
    /// (one link's bandwidth, the ring's hop latency).
    pub fn from_ring(ring: &RingTopology, energy_pj_per_byte: f64) -> Self {
        InterconnectSpec {
            link_bandwidth: ring.link_bandwidth(),
            // One neighbour hop minus the pure wire time = the ring's
            // per-hop latency constant.
            hop_latency: ring.p2p_time(Bytes::ZERO),
            energy_pj_per_byte,
        }
    }

    /// Time to move `bytes` over the link.
    pub fn transfer_time(&self, bytes: Bytes) -> Seconds {
        self.link_bandwidth.transfer_time(bytes) + self.hop_latency
    }

    /// Energy to move `bytes` over the link.
    pub fn transfer_energy(&self, bytes: Bytes) -> Joules {
        Joules::new(bytes.get() as f64 * self.energy_pj_per_byte * 1e-12)
    }
}

/// One prefill-pool replica: an FCFS prompt-ingestion engine.
struct PrefillUnit<'a> {
    pricer: PhasePricer<'a>,
    alloc: PagedKvAllocator,
    cap: usize,
    free_at: Seconds,
    queue: std::collections::VecDeque<Request>,
    /// KV holdings awaiting their outbound transfer, in release-time
    /// order: each transfer ends when the egress link next frees, so
    /// pushes arrive sorted.
    pending_release: Vec<(Seconds, u64)>,
    /// When this replica's egress link frees.
    link_free: Seconds,
    busy: Seconds,
    energy: Joules,
    prefills: u64,
}

/// A finished prefill group: members (in admission order) whose caches
/// are ready to migrate at `end`; the batch occupied the executor from
/// `start` (the flight recorder's prefill span).
struct PrefillBatch {
    members: Vec<Request>,
    start: Seconds,
    end: Seconds,
}

impl<'a> PrefillUnit<'a> {
    /// When this unit can start its next prefill batch: the head of the
    /// queue has arrived, the executor is free, and — under a bounded KV
    /// budget — enough earlier caches have migrated out for the head
    /// prompt to fit.
    fn candidate(&self) -> Option<Seconds> {
        let head = self.queue.front()?;
        let base = self.free_at.max(head.arrival());
        let Some(_) = self.alloc.capacity_blocks() else { return Some(base) };
        let need = self.alloc.blocks_for(head.prompt_len);
        let mut free = self.alloc.free_blocks().unwrap_or(u64::MAX);
        let mut start = base;
        for &(t, id) in &self.pending_release {
            if free >= need {
                break;
            }
            free += self.alloc.held_blocks(id);
            start = start.max(t);
        }
        Some(start)
    }

    /// Releases holdings whose transfer finished by `now`.
    fn apply_releases(&mut self, now: Seconds) {
        let alloc = &mut self.alloc;
        self.pending_release.retain(|&(t, id)| {
            if t <= now {
                alloc.release(id);
                false
            } else {
                true
            }
        });
    }

    /// Runs one FCFS prefill batch at the candidate time.
    fn step(&mut self) -> Result<PrefillBatch> {
        // A missing candidate is a driver bug, but under injected faults
        // a typed error beats taking the whole simulator down.
        let start = self
            .candidate()
            .ok_or_else(|| Error::internal("prefill step with an empty queue"))?;
        if let Some(cap) = self.alloc.capacity_blocks() {
            let head = self
                .queue
                .front()
                .ok_or_else(|| Error::internal("prefill candidate with an empty queue"))?;
            if self.alloc.blocks_for(head.prompt_len) > cap {
                return Err(Error::invalid_config(format!(
                    "prefill KV budget too small: request {} needs {} blocks but capacity \
                     is {cap}",
                    head.id,
                    self.alloc.blocks_for(head.prompt_len),
                )));
            }
        }
        self.apply_releases(start);
        let mut members = Vec::new();
        while members.len() < self.cap {
            let Some(r) = self.queue.front() else { break };
            if r.arrival() > start || !self.alloc.try_grow(r.id, r.prompt_len) {
                break;
            }
            members.push(
                self.queue
                    .pop_front()
                    .ok_or_else(|| Error::internal("prefill queue emptied mid-batch"))?,
            );
        }
        let b = members.len() as u64;
        let padded = members
            .iter()
            .map(|r| r.prompt_len)
            .max()
            .ok_or_else(|| Error::internal("the candidate start admits the queue head"))?;
        let cost = self.pricer.prefill(b, padded)?;
        let end = start + cost.latency;
        self.busy += cost.latency;
        self.energy += cost.total_energy();
        self.prefills += b;
        self.free_at = end;
        Ok(PrefillBatch { members, start, end })
    }

    fn snapshot(&self, index: usize, assigned: u64, classed: bool) -> ReplicaSnapshot {
        let mut class_outstanding = [0u64; 3];
        if classed {
            for r in &self.queue {
                class_outstanding[r.class.rank()] += 1;
            }
        }
        ReplicaSnapshot {
            index,
            outstanding: self.queue.len() as u64,
            queued: self.queue.len() as u64,
            kv_frac: kv_frac(&self.alloc),
            assigned,
            class_outstanding,
        }
    }
}

/// A request whose cache is migrating to (or queued at) a decode replica.
struct PendingDecode {
    req: Request,
    first_token: Seconds,
    ready: Seconds,
}

/// A request decoding on a decode replica.
struct DecodeSlot {
    req: Request,
    first_token: Seconds,
    done: u64,
}

/// One decode-pool replica: continuous-batching decode over handed-off
/// caches, admission gated by the paged allocator (worst-case
/// reservation, so the pool never preempts).
struct DecodeUnit<'a> {
    pricer: PhasePricer<'a>,
    alloc: PagedKvAllocator,
    cap: usize,
    t: Seconds,
    pending: Vec<PendingDecode>,
    active: Vec<DecodeSlot>,
    busy: Seconds,
    energy: Joules,
    queue_full: Seconds,
    completed: u64,
}

impl<'a> DecodeUnit<'a> {
    fn candidate(&self) -> Option<Seconds> {
        if !self.active.is_empty() {
            return Some(self.t);
        }
        self.pending
            .iter()
            .map(|p| p.ready)
            .min_by(|a, b| a.get().total_cmp(&b.get()))
            .map(|ready| self.t.max(ready))
    }

    /// One decode round: admit ready transfers (KV permitting), then one
    /// generation step for the whole batch.
    fn step(&mut self) -> Result<Vec<Completion>> {
        let start = self
            .candidate()
            .ok_or_else(|| Error::internal("decode step with nothing pending"))?;
        self.t = start;
        let round_start = self.t;
        let mut blocked = false;
        while self.active.len() < self.cap {
            // The ready transfer with the earliest arrival (ties by id).
            let Some(pos) = self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, p)| p.ready <= self.t)
                .min_by(|a, b| {
                    a.1.ready
                        .get()
                        .total_cmp(&b.1.ready.get())
                        .then(a.1.req.id.cmp(&b.1.req.id))
                })
                .map(|(i, _)| i)
            else {
                break;
            };
            // Worst-case reservation: the handed-off prompt cache plus
            // every token the request will generate.
            let p = &self.pending[pos];
            if self.alloc.try_grow(p.req.id, p.req.prompt_len + p.req.steps) {
                let p = self.pending.remove(pos);
                self.active.push(DecodeSlot { req: p.req, first_token: p.first_token, done: 0 });
            } else {
                blocked = true;
                break;
            }
        }
        if self.active.is_empty() {
            debug_assert!(blocked, "the candidate time has a ready transfer");
            return Err(Error::invalid_config(format!(
                "decode KV budget too small: a request's worst case needs more than the {} \
                 block(s) of {} tokens available",
                self.alloc.capacity_blocks().unwrap_or(0),
                self.alloc.block_tokens(),
            )));
        }
        let b = self.active.len() as u64;
        let ctx = self
            .active
            .iter()
            .map(|s| s.req.prompt_len + s.done)
            .max()
            .ok_or_else(|| Error::internal("decode round with an empty batch"))?
            + 1;
        let cost = self.pricer.step(b, ctx)?;
        self.t += cost.latency;
        self.busy += cost.latency;
        self.energy += cost.total_energy();
        let now = self.t;
        for slot in &mut self.active {
            slot.done += 1;
        }
        let mut finished = Vec::new();
        let alloc = &mut self.alloc;
        self.active.retain(|slot| {
            if slot.done >= slot.req.steps {
                alloc.release(slot.req.id);
                finished.push(Completion {
                    id: slot.req.id,
                    arrival: slot.req.arrival(),
                    first_token: slot.first_token,
                    finish: now,
                    steps: slot.req.steps,
                });
                false
            } else {
                true
            }
        });
        self.completed += finished.len() as u64;
        if blocked {
            self.queue_full += self.t - round_start;
        }
        Ok(finished)
    }

    fn snapshot(&self, index: usize, assigned: u64, classed: bool) -> ReplicaSnapshot {
        let mut class_outstanding = [0u64; 3];
        if classed {
            for p in &self.pending {
                class_outstanding[p.req.class.rank()] += 1;
            }
            for s in &self.active {
                class_outstanding[s.req.class.rank()] += 1;
            }
        }
        ReplicaSnapshot {
            index,
            outstanding: (self.pending.len() + self.active.len()) as u64,
            queued: self.pending.len() as u64,
            kv_frac: kv_frac(&self.alloc),
            assigned,
            class_outstanding,
        }
    }
}

fn kv_frac(alloc: &PagedKvAllocator) -> f64 {
    match alloc.capacity_blocks() {
        Some(c) if c > 0 => alloc.used_blocks() as f64 / c as f64,
        _ => 0.0,
    }
}

/// Checks a pool replica is usable in a disaggregated fleet and returns
/// its transformer config.
fn validate_pool_replica<'a>(
    spec: &'a ReplicaSpec,
    role: &str,
) -> Result<&'a cimtpu_models::TransformerConfig> {
    let ServingModel::Llm(model) = &spec.model else {
        return Err(Error::invalid_config(format!(
            "disaggregated serving needs an LLM (a prefill phase); {role} replica '{}' \
             hosts a DiT",
            spec.name
        )));
    };
    if spec.memory.chunk_tokens.is_some() {
        return Err(Error::invalid_config(format!(
            "chunked prefill is not supported in disaggregated pools ({role} replica '{}')",
            spec.name
        )));
    }
    if spec.memory.prefix_sharing {
        return Err(Error::invalid_config(format!(
            "prefix sharing is not supported in disaggregated pools ({role} replica '{}'); \
             use a colocated fleet with RouterPolicy::PrefixAffinity",
            spec.name
        )));
    }
    if matches!(spec.parallelism, Parallelism::Replicated { chips } if chips != 1) {
        return Err(Error::invalid_config(format!(
            "{role} replica '{}' uses {} replicated chips: give the pool more replicas \
             instead (tensor-parallel rings are fine)",
            spec.name,
            spec.chips()
        )));
    }
    Ok(model)
}

/// Tracks and gauge series for both pools: one track per replica (the
/// prefill pool first, then the decode pool), `[queued, kv_frac]` gauges
/// per unit, and a control track for fleet-level events.
struct PoolTrace {
    rec: SharedRecorder,
    ptracks: Vec<u32>,
    dtracks: Vec<u32>,
    pseries: Vec<[usize; 2]>,
    dseries: Vec<[usize; 2]>,
    control: u32,
}

impl PoolTrace {
    fn attach(rec: &SharedRecorder, prefill: &[ReplicaSpec], decode: &[ReplicaSpec]) -> PoolTrace {
        let mut r = rec.borrow_mut();
        let series = |specs: &[ReplicaSpec], r: &mut cimtpu_obs::Recorder| {
            specs
                .iter()
                .map(|s| {
                    [
                        r.gauge_series(&format!("{}/queued", s.name)),
                        r.gauge_series(&format!("{}/kv_frac", s.name)),
                    ]
                })
                .collect()
        };
        let ptracks = prefill.iter().map(|s| r.track(&s.name)).collect();
        let dtracks = decode.iter().map(|s| r.track(&s.name)).collect();
        let pseries = series(prefill, &mut r);
        let dseries = series(decode, &mut r);
        let control = r.track("control");
        drop(r);
        PoolTrace { rec: Rc::clone(rec), ptracks, dtracks, pseries, dseries, control }
    }

    /// Samples a decode unit's queue depth and KV occupancy at `t`.
    fn sample_decode(&self, j: usize, t: Seconds, unit: &DecodeUnit<'_>) {
        let mut rec = self.rec.borrow_mut();
        rec.sample(self.dseries[j][0], t.get(), (unit.pending.len() + unit.active.len()) as f64);
        rec.sample(self.dseries[j][1], t.get(), kv_frac(&unit.alloc));
    }

    /// Samples a prefill unit's queue depth and KV occupancy at `t`.
    fn sample_prefill(&self, i: usize, t: Seconds, unit: &PrefillUnit<'_>) {
        let mut rec = self.rec.borrow_mut();
        rec.sample(self.pseries[i][0], t.get(), unit.queue.len() as f64);
        rec.sample(self.pseries[i][1], t.get(), kv_frac(&unit.alloc));
    }
}

/// A disaggregated fleet: the two pools, their routers and the link
/// between them.
#[derive(Clone, Copy)]
pub(crate) struct Pools<'a> {
    pub(crate) prefill: &'a [ReplicaSpec],
    pub(crate) decode: &'a [ReplicaSpec],
    /// Arrival routing, across the prefill pool.
    pub(crate) router: RouterPolicy,
    /// KV-handoff routing, across the decode pool.
    pub(crate) decode_router: RouterPolicy,
    pub(crate) interconnect: InterconnectSpec,
}

/// What a pipeline run hands back to [`Pools::serve`] for settling.
struct Served {
    offered: u64,
    /// Completions against their original arrivals, in any order.
    completions: Vec<Completion>,
    transfers: KvTransferStats,
    avail: AvailabilityStats,
    crash_log: Vec<CrashRecord>,
}

impl<'a> Pools<'a> {
    /// Every replica, the prefill pool first.
    fn replicas(&self) -> impl Iterator<Item = &'a ReplicaSpec> {
        self.prefill.iter().chain(self.decode)
    }

    /// Validates the pools, builds their sessions (`sessions` returns
    /// them with each replica's session index) and units, runs `drive`
    /// over the units, then settles the run and builds its report. Every
    /// unit keeps its own phase memo. The report carries an availability
    /// section when `faults` is set.
    fn serve(
        &self,
        label: &str,
        slo_ms: Option<f64>,
        faults: bool,
        sessions: impl FnOnce(&Self) -> Result<(Vec<EngineSession>, Vec<usize>)>,
        drive: impl for<'s> FnOnce(
            &mut [PrefillUnit<'s>],
            &mut [DecodeUnit<'s>],
            KvFootprint,
        ) -> Result<Served>,
    ) -> Result<ClusterRun> {
        let reference = validate_pool_replica(&self.prefill[0], "prefill")?.clone();
        let pool_members = self
            .prefill
            .iter()
            .map(|s| (s, "prefill"))
            .chain(self.decode.iter().map(|s| (s, "decode")));
        for (spec, role) in pool_members {
            let model = validate_pool_replica(spec, role)?;
            if *model != reference {
                return Err(Error::invalid_config(format!(
                    "disaggregated pools must host one common model: '{}' hosts {}, \
                     expected {}",
                    spec.name,
                    model.name(),
                    reference.name()
                )));
            }
        }
        let (sessions, session_of) = sessions(self)?;
        let (p_of, d_of) = session_of.split_at(self.prefill.len());
        let mut punits: Vec<PrefillUnit<'_>> = self
            .prefill
            .iter()
            .zip(p_of)
            .map(|(spec, &s)| {
                Ok(PrefillUnit {
                    pricer: sessions[s].pricer(),
                    alloc: sessions[s].allocator()?,
                    cap: spec.policy.max_concurrency() as usize,
                    free_at: Seconds::ZERO,
                    queue: std::collections::VecDeque::new(),
                    pending_release: Vec::new(),
                    link_free: Seconds::ZERO,
                    busy: Seconds::ZERO,
                    energy: Joules::ZERO,
                    prefills: 0,
                })
            })
            .collect::<Result<_>>()?;
        let mut dunits: Vec<DecodeUnit<'_>> = self
            .decode
            .iter()
            .zip(d_of)
            .map(|(spec, &s)| {
                Ok(DecodeUnit {
                    pricer: sessions[s].pricer(),
                    alloc: sessions[s].allocator()?,
                    cap: spec.policy.max_concurrency() as usize,
                    t: Seconds::ZERO,
                    pending: Vec::new(),
                    active: Vec::new(),
                    busy: Seconds::ZERO,
                    energy: Joules::ZERO,
                    queue_full: Seconds::ZERO,
                    completed: 0,
                })
            })
            .collect::<Result<_>>()?;

        // The cache that crosses the wire is the full (unsharded)
        // footprint, whatever the pool sharding.
        let Served { offered, mut completions, transfers, mut avail, crash_log } =
            drive(&mut punits, &mut dunits, KvFootprint::of(&reference))?;
        completions.sort_by_key(|c| c.id);
        settle(&mut avail, &crash_log, &completions, offered, session_of.len())?;

        let mut rows = Vec::with_capacity(session_of.len());
        let mut chip_energy = Joules::ZERO;
        let mut queue_full_s = 0.0;
        let row = |spec: &ReplicaSpec,
                   role: &str,
                   requests,
                   busy: Seconds,
                   energy: Joules,
                   alloc: &PagedKvAllocator| {
            ReplicaUtilization {
                name: spec.name.clone(),
                model: spec.model.name().to_owned(),
                role: role.to_owned(),
                chips: spec.chips(),
                requests,
                busy_s: busy.get(),
                utilization: 0.0,
                energy_j: energy.get(),
                kv_hwm_frac: alloc.high_water_frac(),
            }
        };
        for (spec, unit) in self.prefill.iter().zip(&punits) {
            chip_energy += unit.energy;
            rows.push(row(spec, "prefill", unit.prefills, unit.busy, unit.energy, &unit.alloc));
        }
        for (spec, unit) in self.decode.iter().zip(&dunits) {
            chip_energy += unit.energy;
            queue_full_s += unit.queue_full.get();
            rows.push(row(spec, "decode", unit.completed, unit.busy, unit.energy, &unit.alloc));
        }
        let report = ClusterReport::build(
            label,
            "disaggregated",
            format!("{}\u{2192}{}", self.router.name(), self.decode_router.name()),
            offered,
            &completions,
            chip_energy,
            0, // worst-case decode reservation: the pools never preempt
            queue_full_s,
            transfers,
            rows,
            slo_ms,
            faults.then_some(avail),
        );
        for session in &sessions {
            session.persist_cache();
        }
        Ok(ClusterRun {
            report,
            replica_reports: Vec::new(),
            completions,
            prefix: cimtpu_serving::PrefixStats::default(),
        })
    }
}

/// The plan's decode-pool crashes `(at, replica, repair)` in time order
/// and its degraded-link windows `(from, until, bandwidth factor, energy
/// factor)`. Crash events index the decode pool: prefill replicas are
/// the stateless front of the pipeline and cannot crash.
type Timeline = (Vec<(Seconds, usize, Seconds)>, Vec<(Seconds, Seconds, f64, f64)>);

fn timeline(plan: &FaultPlan, decode: usize) -> Result<Timeline> {
    let (mut crashes, mut windows) = (Vec::new(), Vec::new());
    for event in plan.resolve(decode)? {
        match event {
            FaultEvent::Crash { at, replica, repair } => crashes.push((at, replica, repair)),
            FaultEvent::DegradedLink { from, until, bandwidth_factor, energy_factor } => {
                windows.push((from, until, bandwidth_factor, energy_factor));
            }
            FaultEvent::Straggler { .. } => {
                return Err(Error::invalid_config(
                    "straggler faults apply to colocated replicas; disaggregated pools price \
                     whole phases — degrade the link instead",
                ));
            }
        }
    }
    crashes.sort_by(|a, b| a.0.get().total_cmp(&b.0.get()));
    Ok((crashes, windows))
}

/// Runs a disaggregated fleet under the fault plan (see the
/// [module docs](self)).
///
/// # Errors
///
/// Returns an error for an invalid pool, traffic or plan, an engine
/// error, a KV budget too small for one request, a stalled closed loop,
/// or a conservation violation.
pub(crate) fn run_disaggregated(
    pools: Pools<'_>,
    label: &str,
    traffic: &TrafficSpec,
    slo_ms: Option<f64>,
    plan: &FaultPlan,
    mut tenancy: Option<Tenancy<'_>>,
    recorder: Option<&SharedRecorder>,
) -> Result<ClusterRun> {
    let trace = recorder.map(|rec| PoolTrace::attach(rec, pools.prefill, pools.decode));
    let (crashes, windows) = timeline(plan, pools.decode.len())?;
    let sessions = |p: &Pools<'_>| sessions_for(p.replicas());
    let mut run =
        pools.serve(label, slo_ms, !plan.is_empty(), sessions, |punits, dunits, full_fp| {
            let stream = ArrivalStream::new(traffic)?;
            // A multi-tenant run keeps tenant identity at the traffic and
            // report level (classed router snapshots, tagged trace events, the
            // per-tenant ledger): the pools run FCFS/continuous-batching
            // queues, not `EngineCore`, so there is no WFQ inside them.
            let classed = tenancy.as_ref().is_some_and(Tenancy::multi);
            let mut heap = ActionHeap::new(punits.len() + dunits.len());
            for (i, u) in punits.iter().enumerate() {
                heap.set(i, u.candidate());
            }
            for (j, u) in dunits.iter().enumerate() {
                heap.set(punits.len() + j, u.candidate());
            }
            Pipeline {
                psnaps: Vec::with_capacity(punits.len()),
                dsnaps: Vec::with_capacity(dunits.len()),
                p_assigned: vec![0; punits.len()],
                d_assigned: vec![0; dunits.len()],
                health: HealthView::all_up(dunits.len()),
                punits,
                dunits,
                full_fp,
                interconnect: pools.interconnect,
                windows,
                crashes,
                next_crash: 0,
                recovery: *plan.recovery(),
                arouter: pools.router.build(),
                drouter: pools.decode_router.build(),
                up: Vec::new(),
                classed,
                heap,
                stream,
                waiting: Vec::new(),
                origin: HashMap::new(),
                attempts_of: HashMap::new(),
                transfers: KvTransferStats::default(),
                avail: AvailabilityStats::zero(),
                crash_log: Vec::new(),
                completions: Vec::new(),
                tenancy: &mut tenancy,
                trace,
            }
            .run()
        })?;
    if let Some(t) = tenancy {
        run.report.tenants = Some(tenant_report(t, &run.completions, run.report.makespan_s)?);
    }
    Ok(run)
}

/// A request waiting to re-enter the disaggregated pipeline after a
/// decode crash (or parked because the whole decode pool is down).
#[derive(Clone, Copy)]
struct DisaggRetry {
    /// When the retry fires.
    fire: Seconds,
    request: Request,
    /// Retries already charged against the request's budget.
    attempts: u32,
    /// Prefill unit still holding the cache (re-handoff), or `None` to
    /// recompute the prompt from scratch.
    source: Option<usize>,
    /// The TTFT the original prefill produced; a re-handoff keeps it.
    first_token: Option<Seconds>,
}

/// The disaggregated event loop's state; see the [module docs](self).
struct Pipeline<'u, 's, 't> {
    punits: &'u mut [PrefillUnit<'s>],
    dunits: &'u mut [DecodeUnit<'s>],
    full_fp: KvFootprint,
    interconnect: InterconnectSpec,
    /// Degraded-link windows: `(from, until, bandwidth, energy)`.
    windows: Vec<(Seconds, Seconds, f64, f64)>,
    /// Scripted decode crashes `(at, replica, repair)`, in time order.
    crashes: Vec<(Seconds, usize, Seconds)>,
    next_crash: usize,
    recovery: RecoveryPolicy,
    /// The decode pool's health (the prefill pool is always up).
    health: HealthView,
    arouter: Box<dyn Router>,
    drouter: Box<dyn Router>,
    p_assigned: Vec<u64>,
    d_assigned: Vec<u64>,
    /// Router-view scratch, reused across routing decisions.
    psnaps: Vec<ReplicaSnapshot>,
    dsnaps: Vec<ReplicaSnapshot>,
    /// The up decode replicas, gathered while some replica is not up.
    up: Vec<usize>,
    classed: bool,
    heap: ActionHeap,
    stream: ArrivalStream,
    waiting: Vec<DisaggRetry>,
    /// Original arrivals of recomputed requests (a recompute rewrites
    /// `arrival_s` to its fire time).
    origin: HashMap<u64, f64>,
    attempts_of: HashMap<u64, u32>,
    transfers: KvTransferStats,
    avail: AvailabilityStats,
    crash_log: Vec<CrashRecord>,
    completions: Vec<Completion>,
    tenancy: &'u mut Option<Tenancy<'t>>,
    trace: Option<PoolTrace>,
}

impl Pipeline<'_, '_, '_> {
    fn run(mut self) -> Result<Served> {
        let pn = self.punits.len();
        loop {
            // The run is over when nothing can produce or receive work;
            // trailing fault events on an idle fleet are dropped.
            let unit_at = self.heap.peek();
            if self.stream.exhausted() && self.waiting.is_empty() && unit_at.is_none() {
                break;
            }
            let mut best: Option<(Seconds, u8, usize)> = None;
            let mut offer = |t: Seconds, class: u8, idx: usize| {
                if best.is_none_or(|(bt, bc, bi)| t < bt || (t == bt && (class, idx) < (bc, bi))) {
                    best = Some((t, class, idx));
                }
            };
            let scripted = self.crashes.get(self.next_crash).map(|c| c.0);
            match (scripted, self.health.next_transition()) {
                (Some(a), Some(b)) => offer(a.min(b), 0, 0),
                (Some(t), None) | (None, Some(t)) => offer(t, 0, 0),
                (None, None) => {}
            }
            if let Some(ta) = self.stream.peek() {
                offer(ta, 1, 0);
            }
            if let Some((i, w)) = self.waiting.iter().enumerate().min_by(|(ai, a), (bi, b)| {
                (a.fire.get(), a.request.id, *ai)
                    .partial_cmp(&(b.fire.get(), b.request.id, *bi))
                    .unwrap_or(std::cmp::Ordering::Equal)
            }) {
                offer(w.fire, 2, i);
            }
            if let Some((slot, t)) = unit_at {
                if slot < pn {
                    offer(t, 3, slot);
                } else {
                    offer(t, 4, slot - pn);
                }
            }
            let Some((now, class, idx)) = best else {
                if self.stream.exhausted() {
                    break;
                }
                return Err(Error::invalid_config(
                    "disaggregated driver stalled: requests pending but no unit can act",
                ));
            };
            match class {
                0 => self.faults(now),
                1 => {
                    let request = self.stream.pop();
                    let k = self.route_prefill(&request);
                    if let Some(tr) = &self.trace {
                        tr.rec.borrow_mut().request_arrival_for(
                            tr.ptracks[k],
                            request.id,
                            request.arrival_s,
                            tenant_tag(self.tenancy, request.id),
                        );
                    }
                    self.punits[k].queue.push_back(request);
                    if let Some(tr) = &self.trace {
                        tr.sample_prefill(k, request.arrival(), &self.punits[k]);
                    }
                    self.heap.set(k, self.punits[k].candidate());
                }
                2 => self.fire(idx, now)?,
                3 => {
                    // Prefill batch: hand each member off.
                    let batch = self.punits[idx].step()?;
                    for request in batch.members {
                        if let Some(tr) = &self.trace {
                            tr.rec.borrow_mut().span(
                                tr.ptracks[idx],
                                EventKind::Prefill,
                                request.id,
                                batch.start.get(),
                                batch.end.get(),
                            );
                        }
                        let attempts = if self.attempts_of.is_empty() {
                            0
                        } else {
                            self.attempts_of.get(&request.id).copied().unwrap_or(0)
                        };
                        let item = DisaggRetry {
                            fire: batch.end,
                            request,
                            attempts,
                            source: Some(idx),
                            first_token: Some(batch.end),
                        };
                        self.handoff(idx, item, now)?;
                    }
                    if let Some(tr) = &self.trace {
                        tr.sample_prefill(idx, batch.end, &self.punits[idx]);
                    }
                    self.heap.set(idx, self.punits[idx].candidate());
                }
                // Decode round (atomic: a crash never lands mid-round).
                _ => self.decode(idx)?,
            }
        }
        Ok(Served {
            offered: self.stream.total(),
            completions: self.completions,
            transfers: self.transfers,
            avail: self.avail,
            crash_log: self.crash_log,
        })
    }

    /// The request's original arrival.
    fn orig(&self, r: &Request) -> f64 {
        if self.origin.is_empty() {
            return r.arrival_s;
        }
        self.origin.get(&r.id).copied().unwrap_or(r.arrival_s)
    }

    /// Routes `r` across the (always-healthy) prefill pool.
    fn route_prefill(&mut self, r: &Request) -> usize {
        let (assigned, classed) = (&self.p_assigned, self.classed);
        self.psnaps.clear();
        self.psnaps.extend(
            self.punits.iter().enumerate().map(|(i, u)| u.snapshot(i, assigned[i], classed)),
        );
        let k = self.arouter.route(r, &self.psnaps).min(self.punits.len() - 1);
        self.p_assigned[k] += 1;
        k
    }

    /// Routes `r` across the up decode replicas; with every replica up,
    /// the whole pool, indexed as is.
    fn route_decode(&mut self, r: &Request, all: bool) -> usize {
        let (assigned, classed) = (&self.d_assigned, self.classed);
        self.dsnaps.clear();
        let k = if all {
            self.dsnaps.extend(
                self.dunits.iter().enumerate().map(|(j, u)| u.snapshot(j, assigned[j], classed)),
            );
            self.drouter.route(r, &self.dsnaps).min(self.dunits.len() - 1)
        } else {
            let dunits = &self.dunits;
            self.dsnaps.extend(
                self.up
                    .iter()
                    .enumerate()
                    .map(|(pos, &k)| dunits[k].snapshot(pos, assigned[k], classed)),
            );
            self.up[self.drouter.route(r, &self.dsnaps).min(self.up.len() - 1)]
        };
        self.d_assigned[k] += 1;
        k
    }

    /// Transfer cost at `t_start`, with every open degraded-link window
    /// applied: wire time divided by the bandwidth factor (the hop
    /// stands), energy multiplied by the energy factor.
    fn priced_transfer(&self, t_start: Seconds, bytes: Bytes) -> (Seconds, Joules) {
        let link = &self.interconnect;
        let base = link.transfer_time(bytes);
        let mut bw = 1.0;
        let mut en = 1.0;
        for &(from, until, b, e) in &self.windows {
            if t_start >= from && t_start < until {
                bw *= b;
                en *= e;
            }
        }
        let duration = if bw == 1.0 {
            base
        } else {
            link.hop_latency + Seconds::new((base - link.hop_latency).get() / bw)
        };
        (duration, Joules::new(link.transfer_energy(bytes).get() * en))
    }

    /// Hands `item`'s cache, ready on prefill unit `src` at `item.fire`,
    /// to a decode replica (a fresh handoff or a crash re-handoff): routes
    /// it, serializes the transfer on `src`'s egress link, prices any open
    /// degraded-link window, pins the source cache until the transfer
    /// lands, and enqueues on the routed decode unit. With the whole
    /// decode pool down it parks the request until the next restart
    /// instead (no retry charged) and returns `false`.
    fn handoff(&mut self, src: usize, item: DisaggRetry, now: Seconds) -> Result<bool> {
        let all = self.health.next_transition().is_none();
        if !all {
            let health = &self.health;
            self.up.clear();
            self.up.extend((0..self.dunits.len()).filter(|&j| health.is_up(j)));
            if self.up.is_empty() {
                let fire = health.next_transition().ok_or_else(|| {
                    Error::internal("every decode replica is down and none is scheduled to restart")
                })?;
                if let Some(tr) = &self.trace {
                    tr.rec.borrow_mut().instant_for(
                        tr.control,
                        EventKind::Park,
                        item.request.id,
                        now.get(),
                        tenant_tag(self.tenancy, item.request.id),
                    );
                }
                // The cache stays resident at the source (no release is
                // scheduled until a transfer is).
                self.waiting.push(DisaggRetry { fire, ..item });
                return Ok(false);
            }
        }
        let r = item.request;
        let k = self.route_decode(&r, all);
        let bytes = self.full_fp.handoff_bytes(r.prompt_len, self.punits[src].alloc.block_tokens());
        let t_start = item.fire.max(self.punits[src].link_free);
        let (duration, energy) = self.priced_transfer(t_start, bytes);
        let t_end = t_start + duration;
        self.punits[src].link_free = t_end;
        self.punits[src].pending_release.push((t_end, r.id));
        self.transfers.record(bytes.get(), duration, energy);
        if let Some(tr) = &self.trace {
            tr.rec.borrow_mut().span(
                tr.ptracks[src],
                EventKind::KvHandoff,
                r.id,
                t_start.get(),
                t_end.get(),
            );
        }
        self.dunits[k].pending.push(PendingDecode {
            req: r,
            first_token: item.first_token.unwrap_or(t_end),
            ready: t_end,
        });
        self.heap.set(self.punits.len() + k, self.dunits[k].candidate());
        Ok(true)
    }

    /// Fault transitions due at `now`: restores first, then crashes.
    fn faults(&mut self, now: Seconds) {
        for k in self.health.advance(now, self.recovery.warmup) {
            if let Some(tr) = &self.trace {
                tr.rec.borrow_mut().instant(tr.dtracks[k], EventKind::Repair, 0, now.get());
            }
        }
        for rec in &mut self.crash_log {
            if rec.up_again.is_none() && self.health.is_up(rec.replica) {
                rec.up_again = Some(now);
            }
        }
        while let Some(&(_, replica, repair)) =
            self.crashes.get(self.next_crash).filter(|c| c.0 <= now)
        {
            self.next_crash += 1;
            if !matches!(self.health.state(replica), ReplicaHealth::Down { .. }) {
                self.crash(replica, now + repair, now);
            }
        }
        // A crash empties a decode unit and can unpin caches on any
        // prefill unit (releases change their admission starts): refresh
        // every slot. Fault events are rare, so the `O(fleet)` refresh is
        // off the hot path.
        let pn = self.punits.len();
        for (i, u) in self.punits.iter().enumerate() {
            self.heap.set(i, u.candidate());
        }
        for (j, u) in self.dunits.iter().enumerate() {
            self.heap.set(pn + j, u.candidate());
        }
    }

    /// Crashes decode replica `replica` at `now` until `restart`:
    /// everything resident on or inbound to it is lost and its allocator
    /// empties (high-water survives); each lost request re-hands-off,
    /// recomputes, or is dropped.
    fn crash(&mut self, replica: usize, restart: Seconds, now: Seconds) {
        let unit = &mut self.dunits[replica];
        let lost: Vec<(Request, Seconds)> = unit
            .pending
            .drain(..)
            .map(|p| (p.req, p.first_token))
            .chain(unit.active.drain(..).map(|s| (s.req, s.first_token)))
            .collect();
        unit.alloc.release_all();
        self.health.mark_down(replica, restart);
        self.avail.crashes += 1;
        self.crash_log.push(CrashRecord {
            replica,
            at: now,
            up_again: None,
            first_completion: None,
        });
        if let Some(tr) = &self.trace {
            tr.rec.borrow_mut().instant(tr.dtracks[replica], EventKind::Crash, 0, now.get());
        }
        for (r, ft) in lost {
            // Where is the cache now? If the source prefill replica has
            // not released the blocks yet, pin them and re-handoff
            // (transfer-only — always cheaper than recompute + transfer);
            // otherwise the prompt recomputes through the prefill pool.
            let source = self.punits.iter_mut().position(|pu| {
                let pos = pu.pending_release.iter().position(|&(t, id)| id == r.id && t > now);
                pos.map(|pos| pu.pending_release.remove(pos)).is_some()
            });
            let orig = self.orig(&r);
            let attempts = self.attempts_of.get(&r.id).copied().unwrap_or(0) + 1;
            if attempts > self.recovery.max_attempts {
                self.drop_request(r.id, orig, now, EventKind::Shed, source);
                continue;
            }
            let fire = now + self.recovery.backoff_for(attempts);
            if fire.get() > orig + self.recovery.deadline.get() {
                self.drop_request(r.id, orig, now, EventKind::Timeout, source);
                continue;
            }
            if let Some(tr) = &self.trace {
                tr.rec.borrow_mut().span_for(
                    tr.control,
                    EventKind::Retry,
                    r.id,
                    now.get(),
                    fire.get(),
                    tenant_tag(self.tenancy, r.id),
                );
            }
            self.attempts_of.insert(r.id, attempts);
            self.waiting.push(DisaggRetry {
                fire,
                request: r,
                attempts,
                source,
                first_token: source.is_some().then_some(ft),
            });
        }
    }

    /// Fires waiting request `idx`: re-handoff, recompute, or repark.
    fn fire(&mut self, idx: usize, now: Seconds) -> Result<()> {
        let item = self.waiting.remove(idx);
        let r = item.request;
        let orig = self.orig(&r);
        if now.get() > orig + self.recovery.deadline.get() {
            self.drop_request(r.id, orig, now, EventKind::Timeout, item.source);
            return Ok(());
        }
        match item.source {
            Some(p) => {
                if self.handoff(p, item, now)? {
                    if item.attempts > 0 {
                        self.avail.retries += 1;
                    }
                    self.heap.set(p, self.punits[p].candidate());
                }
            }
            None => {
                // Recompute: the cache is gone — back through the prefill
                // pool; admission restarts at the fire time, TTFT is
                // re-earned, latency still counts from the first arrival.
                self.origin.entry(r.id).or_insert(r.arrival_s);
                let rr = Request { arrival_s: now.get(), ..r };
                let k = self.route_prefill(&rr);
                if item.attempts > 0 {
                    self.avail.retries += 1;
                }
                self.punits[k].queue.push_back(rr);
                self.heap.set(k, self.punits[k].candidate());
            }
        }
        Ok(())
    }

    /// Drops request `id` as shed or timed out at `now`, frees the cache
    /// its `source` prefill unit still pins, and releases its closed-loop
    /// client.
    fn drop_request(
        &mut self,
        id: u64,
        orig: f64,
        now: Seconds,
        kind: EventKind,
        source: Option<usize>,
    ) {
        let shed = kind == EventKind::Shed;
        if shed {
            self.avail.shed += 1;
        } else {
            self.avail.timed_out += 1;
        }
        if let Some(t) = self.tenancy.as_mut() {
            if shed {
                t.ledger.on_shed(id);
            } else {
                t.ledger.on_timeout(id);
            }
        }
        if let Some(tr) = &self.trace {
            tr.rec.borrow_mut().instant_for(
                tr.control,
                kind,
                id,
                now.get(),
                tenant_tag(self.tenancy, id),
            );
        }
        if let Some(p) = source {
            self.punits[p].alloc.release(id);
            self.heap.set(p, self.punits[p].candidate());
        }
        release_client(&mut self.stream, id, orig, now);
    }

    /// One decode round on unit `idx`; its completions count against
    /// their original arrivals.
    fn decode(&mut self, idx: usize) -> Result<()> {
        let mut finished = self.dunits[idx].step()?;
        self.heap.set(self.punits.len() + idx, self.dunits[idx].candidate());
        for c in &mut finished {
            if !self.origin.is_empty() {
                if let Some(&orig) = self.origin.get(&c.id) {
                    c.arrival = Seconds::new(orig);
                }
            }
            if !self.attempts_of.is_empty() && self.attempts_of.contains_key(&c.id) {
                self.avail.retried_ok += 1;
            }
            for rec in &mut self.crash_log {
                if rec.replica == idx && rec.first_completion.is_none() && c.finish > rec.at {
                    rec.first_completion = Some(c.finish);
                }
            }
            self.stream.on_complete(c);
        }
        if let Some(tr) = &self.trace {
            {
                let mut rec = tr.rec.borrow_mut();
                for c in &finished {
                    rec.complete_for(
                        tr.dtracks[idx],
                        c.id,
                        c.finish.get(),
                        c.latency().as_millis(),
                        c.ttft().as_millis(),
                        tenant_tag(self.tenancy, c.id),
                    );
                }
            }
            tr.sample_decode(idx, self.dunits[idx].t, &self.dunits[idx]);
        }
        self.completions.extend(finished);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use cimtpu_core::TpuConfig;
    use cimtpu_serving::{ArrivalPattern, BatchPolicy, LenDist, PrefixTraffic};
    use proptest::prelude::*;

    use super::*;
    use crate::fault::ChaosSpec;

    #[test]
    fn interconnect_prices_time_and_energy() {
        let link = InterconnectSpec::ici();
        let mib = Bytes::from_mib(1);
        // 1 MiB at 100 GB/s + 1 µs hop.
        let expected = 1024.0 * 1024.0 / 100e9 + 1e-6;
        assert!((link.transfer_time(mib).get() - expected).abs() < 1e-15);
        // 5 pJ/byte.
        let ej = link.transfer_energy(mib).get();
        assert!((ej - 1024.0 * 1024.0 * 5e-12).abs() < 1e-18);
        // Zero bytes still pay the hop, but no energy.
        assert_eq!(link.transfer_time(Bytes::ZERO), Seconds::from_micros(1.0));
        assert_eq!(link.transfer_energy(Bytes::ZERO), Joules::ZERO);
    }

    #[test]
    fn interconnect_from_ring_matches_link_parameters() {
        let ring = RingTopology::new(4, 2, Bandwidth::from_gb_per_s(100.0)).unwrap();
        let link = InterconnectSpec::from_ring(&ring, 5.0);
        assert_eq!(link.link_bandwidth, ring.link_bandwidth());
        // A transfer over this spec equals the ring's neighbour p2p time.
        let bytes = Bytes::from_mib(8);
        assert_eq!(link.transfer_time(bytes), ring.p2p_time(bytes));
    }

    /// The scan oracle: the failure-aware pipeline as it was before the
    /// [`ActionHeap`] port — a full scan over every unit's candidate per
    /// event, fresh snapshot collects per routing decision, one session
    /// per replica — kept so proptests can pin the event loop
    /// bit-for-bit against it.
    fn run_disaggregated_faulty_oracle(
        pools: Pools<'_>,
        label: &str,
        traffic: &TrafficSpec,
        slo_ms: Option<f64>,
        plan: &FaultPlan,
    ) -> Result<ClusterRun> {
        let sessions = |p: &Pools<'_>| -> Result<(Vec<EngineSession>, Vec<usize>)> {
            let sessions: Vec<EngineSession> =
                p.replicas().map(|r| EngineSession::new(&r.engine()?)).collect::<Result<_>>()?;
            let session_of = (0..sessions.len()).collect();
            Ok((sessions, session_of))
        };
        pools.serve(label, slo_ms, !plan.is_empty(), sessions, |punits, dunits, full_fp| {
            scan(pools, punits, dunits, full_fp, traffic, plan)
        })
    }

    /// The oracle's event loop, scan and all.
    #[allow(clippy::too_many_lines)] // verbatim copy of the old driver
    fn scan(
        pools: Pools<'_>,
        punits: &mut [PrefillUnit<'_>],
        dunits: &mut [DecodeUnit<'_>],
        full_fp: KvFootprint,
        traffic: &TrafficSpec,
        plan: &FaultPlan,
    ) -> Result<Served> {
        let recovery = *plan.recovery();
        let (crash_timeline, windows) = timeline(plan, dunits.len())?;
        let mut next_crash = 0usize;
        let interconnect = pools.interconnect;
        let mut stream = ArrivalStream::new(traffic)?;
        let offered = stream.total();
        let mut arouter = pools.router.build();
        let mut drouter = pools.decode_router.build();
        let mut p_assigned = vec![0u64; punits.len()];
        let mut d_assigned = vec![0u64; dunits.len()];
        let mut transfers = KvTransferStats::default();
        let mut completions: Vec<Completion> = Vec::new();
        let mut dhealth = HealthView::all_up(dunits.len());
        let mut waiting: Vec<DisaggRetry> = Vec::new();
        let mut origin: HashMap<u64, f64> = HashMap::new();
        let mut attempts_of: HashMap<u64, u32> = HashMap::new();
        let mut avail = AvailabilityStats::zero();
        let mut crash_log: Vec<CrashRecord> = Vec::new();

        // Transfer cost at `t_start`, with every open degraded-link window
        // applied: wire time divided by the bandwidth factor (the hop stands),
        // energy multiplied by the energy factor.
        let priced_transfer = |t_start: Seconds, bytes: Bytes| -> (Seconds, Joules) {
            let base = interconnect.transfer_time(bytes);
            let mut bw = 1.0;
            let mut en = 1.0;
            for &(from, until, b, e) in &windows {
                if t_start >= from && t_start < until {
                    bw *= b;
                    en *= e;
                }
            }
            let duration = if bw == 1.0 {
                base
            } else {
                interconnect.hop_latency
                    + Seconds::new((base - interconnect.hop_latency).get() / bw)
            };
            (duration, Joules::new(interconnect.transfer_energy(bytes).get() * en))
        };

        loop {
            // The run is over when nothing can produce or receive work;
            // trailing fault events on an idle fleet are dropped.
            let punit_candidates: Vec<Option<Seconds>> =
                punits.iter().map(PrefillUnit::candidate).collect();
            let dunit_candidates: Vec<Option<Seconds>> =
                dunits.iter().map(DecodeUnit::candidate).collect();
            let any_unit = punit_candidates.iter().chain(&dunit_candidates).any(Option::is_some);
            if stream.exhausted() && waiting.is_empty() && !any_unit {
                break;
            }

            // Earliest event wins; ties resolve fault → arrival → retry →
            // prefill → decode, then lowest index.
            let mut best: Option<(Seconds, u8, usize)> = None;
            let mut offer = |t: Seconds, class: u8, idx: usize| {
                if best.is_none_or(|(bt, bc, bi)| t < bt || (t == bt && (class, idx) < (bc, bi))) {
                    best = Some((t, class, idx));
                }
            };
            let scripted = (next_crash < crash_timeline.len()).then(|| crash_timeline[next_crash].0);
            match (scripted, dhealth.next_transition()) {
                (Some(a), Some(b)) => offer(a.min(b), 0, 0),
                (Some(a), None) => offer(a, 0, 0),
                (None, Some(b)) => offer(b, 0, 0),
                (None, None) => {}
            }
            if let Some(ta) = stream.peek() {
                offer(ta, 1, 0);
            }
            if let Some((i, w)) = waiting
                .iter()
                .enumerate()
                .min_by(|(ai, a), (bi, b)| {
                    (a.fire.get(), a.request.id, *ai)
                        .partial_cmp(&(b.fire.get(), b.request.id, *bi))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
            {
                offer(w.fire, 2, i);
            }
            for (i, t) in punit_candidates.iter().enumerate() {
                if let Some(t) = t {
                    offer(*t, 3, i);
                }
            }
            for (i, t) in dunit_candidates.iter().enumerate() {
                if let Some(t) = t {
                    offer(*t, 4, i);
                }
            }
            let Some((now, class, idx)) = best else {
                if stream.exhausted() {
                    break;
                }
                return Err(Error::invalid_config(
                    "disaggregated driver stalled: requests pending but no unit can act",
                ));
            };
            match class {
                // Faults: restores first, then crashes due now.
                0 => {
                    dhealth.advance(now, recovery.warmup);
                    for rec in crash_log.iter_mut() {
                        if rec.up_again.is_none() && dhealth.is_up(rec.replica) {
                            rec.up_again = Some(now);
                        }
                    }
                    while next_crash < crash_timeline.len() && crash_timeline[next_crash].0 <= now {
                        let (_, replica, repair) = crash_timeline[next_crash];
                        next_crash += 1;
                        if matches!(dhealth.state(replica), ReplicaHealth::Down { .. }) {
                            continue; // already down: nothing left to kill
                        }
                        // Everything resident on or inbound to the replica is
                        // lost; the allocator empties (high-water survives).
                        let mut lost: Vec<(Request, Seconds)> = Vec::new();
                        for p in dunits[replica].pending.drain(..) {
                            lost.push((p.req, p.first_token));
                        }
                        for s in dunits[replica].active.drain(..) {
                            lost.push((s.req, s.first_token));
                        }
                        dunits[replica].alloc.release_all();
                        dhealth.mark_down(replica, now + repair);
                        avail.crashes += 1;
                        crash_log.push(CrashRecord {
                            replica,
                            at: now,
                            up_again: None,
                            first_completion: None,
                        });
                        for (r, ft) in lost {
                            // Where is the cache now? If the source prefill
                            // replica has not released the blocks yet, pin
                            // them and re-handoff (transfer-only — always
                            // cheaper than recompute + transfer); otherwise
                            // the prompt recomputes through the prefill pool.
                            let mut source = None;
                            for (pi, pu) in punits.iter_mut().enumerate() {
                                if let Some(pos) = pu
                                    .pending_release
                                    .iter()
                                    .position(|&(t, id)| id == r.id && t > now)
                                {
                                    pu.pending_release.remove(pos);
                                    source = Some(pi);
                                    break;
                                }
                            }
                            let orig = *origin.get(&r.id).unwrap_or(&r.arrival_s);
                            let attempts = attempts_of.get(&r.id).copied().unwrap_or(0) + 1;
                            let drop_blocks =
                                |punits: &mut [PrefillUnit<'_>], source: Option<usize>| {
                                    if let Some(p) = source {
                                        punits[p].alloc.release(r.id);
                                    }
                                };
                            if attempts > recovery.max_attempts {
                                avail.shed += 1;
                                drop_blocks(punits, source);
                                release_client(&mut stream, r.id, orig, now);
                                continue;
                            }
                            let fire = now + recovery.backoff_for(attempts);
                            if fire.get() > orig + recovery.deadline.get() {
                                avail.timed_out += 1;
                                drop_blocks(punits, source);
                                release_client(&mut stream, r.id, orig, now);
                                continue;
                            }
                            attempts_of.insert(r.id, attempts);
                            waiting.push(DisaggRetry {
                                fire,
                                request: r,
                                attempts,
                                source,
                                first_token: source.is_some().then_some(ft),
                            });
                        }
                    }
                }
                // Arrival: routes across the (always-healthy) prefill pool.
                1 => {
                    let request = stream.pop();
                    origin.insert(request.id, request.arrival_s);
                    let snaps: Vec<ReplicaSnapshot> = punits
                        .iter()
                        .enumerate()
                        .map(|(i, u)| u.snapshot(i, p_assigned[i], false))
                        .collect();
                    let k = arouter.route(&request, &snaps).min(punits.len() - 1);
                    p_assigned[k] += 1;
                    punits[k].queue.push_back(request);
                }
                // Retry fire: re-handoff, recompute, or repark.
                2 => {
                    let item = waiting.remove(idx);
                    let r = item.request;
                    let orig = *origin.get(&r.id).unwrap_or(&r.arrival_s);
                    if now.get() > orig + recovery.deadline.get() {
                        avail.timed_out += 1;
                        if let Some(p) = item.source {
                            punits[p].alloc.release(r.id);
                        }
                        release_client(&mut stream, r.id, orig, now);
                        continue;
                    }
                    match item.source {
                        Some(p) => {
                            let up = dhealth.up_replicas();
                            if up.is_empty() {
                                // Whole decode pool down: park until the next
                                // repair finishes (no retry charged).
                                let fire = dhealth.next_transition().ok_or_else(|| {
                                    Error::internal(
                                        "every decode replica is down and none is scheduled to \
                                         restart",
                                    )
                                })?;
                                waiting.push(DisaggRetry { fire, ..item });
                                continue;
                            }
                            let snaps: Vec<ReplicaSnapshot> = up
                                .iter()
                                .enumerate()
                                .map(|(pos, &k)| dunits[k].snapshot(pos, d_assigned[k], false))
                                .collect();
                            let pos = drouter.route(&r, &snaps).min(up.len() - 1);
                            let k = up[pos];
                            d_assigned[k] += 1;
                            if item.attempts > 0 {
                                avail.retries += 1;
                            }
                            let bytes =
                                full_fp.handoff_bytes(r.prompt_len, punits[p].alloc.block_tokens());
                            let t_start = now.max(punits[p].link_free);
                            let (duration, energy) = priced_transfer(t_start, bytes);
                            let t_end = t_start + duration;
                            punits[p].link_free = t_end;
                            // The source cache is held until the re-transfer
                            // lands, then released as usual.
                            punits[p].pending_release.push((t_end, r.id));
                            punits[p].pending_release.sort_by(|a, b| {
                                a.0.get().total_cmp(&b.0.get()).then(a.1.cmp(&b.1))
                            });
                            transfers.record(bytes.get(), duration, energy);
                            dunits[k].pending.push(PendingDecode {
                                req: r,
                                first_token: item.first_token.unwrap_or(t_end),
                                ready: t_end,
                            });
                        }
                        None => {
                            // Recompute: the cache is gone — back through the
                            // prefill pool; admission restarts at the fire
                            // time, TTFT is re-earned.
                            let snaps: Vec<ReplicaSnapshot> = punits
                                .iter()
                                .enumerate()
                                .map(|(i, u)| u.snapshot(i, p_assigned[i], false))
                                .collect();
                            let mut rr = r;
                            rr.arrival_s = now.get();
                            let k = arouter.route(&rr, &snaps).min(punits.len() - 1);
                            p_assigned[k] += 1;
                            if item.attempts > 0 {
                                avail.retries += 1;
                            }
                            punits[k].queue.push_back(rr);
                        }
                    }
                }
                // Prefill batch: hand each member off (or park it if the
                // whole decode pool is down).
                3 => {
                    let batch = punits[idx].step()?;
                    for req in batch.members {
                        let up = dhealth.up_replicas();
                        if up.is_empty() {
                            let fire = dhealth.next_transition().ok_or_else(|| {
                                Error::internal(
                                    "every decode replica is down and none is scheduled to restart",
                                )
                            })?;
                            // The cache stays resident at the source (no
                            // release is scheduled until a transfer is).
                            waiting.push(DisaggRetry {
                                fire,
                                request: req,
                                attempts: attempts_of.get(&req.id).copied().unwrap_or(0),
                                source: Some(idx),
                                first_token: Some(batch.end),
                            });
                            continue;
                        }
                        let snaps: Vec<ReplicaSnapshot> = up
                            .iter()
                            .enumerate()
                            .map(|(pos, &k)| dunits[k].snapshot(pos, d_assigned[k], false))
                            .collect();
                        let pos = drouter.route(&req, &snaps).min(up.len() - 1);
                        let k = up[pos];
                        d_assigned[k] += 1;
                        let bytes =
                            full_fp.handoff_bytes(req.prompt_len, punits[idx].alloc.block_tokens());
                        let t_start = batch.end.max(punits[idx].link_free);
                        let (duration, energy) = priced_transfer(t_start, bytes);
                        let t_end = t_start + duration;
                        punits[idx].link_free = t_end;
                        punits[idx].pending_release.push((t_end, req.id));
                        transfers.record(bytes.get(), duration, energy);
                        dunits[k].pending.push(PendingDecode {
                            req,
                            first_token: batch.end,
                            ready: t_end,
                        });
                    }
                }
                // Decode round (atomic: a crash never lands mid-round).
                _ => {
                    let finished = dunits[idx].step()?;
                    for c in &finished {
                        if attempts_of.get(&c.id).copied().unwrap_or(0) > 0 {
                            avail.retried_ok += 1;
                        }
                        for rec in crash_log.iter_mut() {
                            if rec.replica == idx
                                && rec.first_completion.is_none()
                                && c.finish > rec.at
                            {
                                rec.first_completion = Some(c.finish);
                            }
                        }
                        stream.on_complete(c);
                    }
                    completions.extend(finished);
                }
            }
        }

        // Recomputed requests were re-admitted at their retry fire time;
        // report latency against the original arrival.
        for c in &mut completions {
            if let Some(orig) = origin.get(&c.id) {
                c.arrival = Seconds::new(*orig);
            }
        }
        Ok(Served { offered, completions, transfers, avail, crash_log })
    }

    fn tiny() -> ServingModel {
        ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer())
    }

    /// A small heterogeneous pool: two prefill replicas with different
    /// admission caps feeding two decode replicas.
    fn pools() -> (Vec<ReplicaSpec>, Vec<ReplicaSpec>) {
        (
            vec![
                ReplicaSpec::new("p-0", TpuConfig::tpuv4i(), tiny())
                    .with_policy(BatchPolicy::Continuous { max_batch: 4 }),
                ReplicaSpec::new("p-1", TpuConfig::tpuv4i(), tiny())
                    .with_policy(BatchPolicy::Continuous { max_batch: 2 }),
            ],
            vec![
                ReplicaSpec::new("d-0", TpuConfig::tpuv4i(), tiny())
                    .with_policy(BatchPolicy::Continuous { max_batch: 4 }),
                ReplicaSpec::new("d-1", TpuConfig::tpuv4i(), tiny())
                    .with_policy(BatchPolicy::Continuous { max_batch: 4 }),
            ],
        )
    }

    fn traffics(seed: u64) -> [TrafficSpec; 2] {
        let base = TrafficSpec {
            requests: 16,
            arrival: ArrivalPattern::OpenLoop { rate_rps: 4_000.0 },
            prompt: LenDist::Uniform { lo: 16, hi: 48 },
            steps: LenDist::Uniform { lo: 4, hi: 12 },
            prefix: PrefixTraffic::None,
            seed,
        };
        [
            base.clone(),
            TrafficSpec {
                arrival: ArrivalPattern::ClosedLoop { clients: 3, think_ms: 1.0 },
                ..base
            },
        ]
    }

    /// Arrival-router → decode-router pairings under test.
    const PAIRS: [(RouterPolicy, RouterPolicy); 4] = [
        (RouterPolicy::RoundRobin, RouterPolicy::LeastKv),
        (RouterPolicy::LeastOutstanding, RouterPolicy::LeastOutstanding),
        (RouterPolicy::PassThrough, RouterPolicy::RoundRobin),
        (RouterPolicy::SessionAffinity, RouterPolicy::LeastOutstanding),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// The event loop replays the scan oracle bit-for-bit for every
        /// router pairing, in open and closed loop, without a plan, under
        /// a scripted decode crash + degraded link window, and under
        /// seeded chaos.
        #[test]
        fn heap_faulty_matches_scan_oracle(seed in 0u64..1_000) {
            let (prefill, decode) = pools();
            let scripted = FaultPlan::none()
                .with_event(FaultEvent::Crash {
                    at: Seconds::new(0.000_4),
                    replica: 0,
                    repair: Seconds::new(0.002),
                })
                .with_event(FaultEvent::DegradedLink {
                    from: Seconds::new(0.000_2),
                    until: Seconds::new(0.003),
                    bandwidth_factor: 0.5,
                    energy_factor: 1.5,
                });
            let chaos = FaultPlan::seeded(seed ^ 0xD15A6).with_chaos(ChaosSpec {
                crashes: 2,
                window: (Seconds::new(0.000_2), Seconds::new(0.003)),
                repair: Seconds::new(0.002),
            });
            for traffic in traffics(seed) {
                for plan in [&FaultPlan::none(), &scripted, &chaos] {
                    for slo_ms in [Some(50.0), None] {
                        for (router, decode_router) in PAIRS {
                            let pools = Pools {
                                prefill: &prefill,
                                decode: &decode,
                                router,
                                decode_router,
                                interconnect: InterconnectSpec::ici(),
                            };
                            let fast =
                                run_disaggregated(pools, "eq", &traffic, slo_ms, plan, None, None)
                                    .unwrap();
                            let slow =
                                run_disaggregated_faulty_oracle(pools, "eq", &traffic, slo_ms, plan)
                                    .unwrap();
                            prop_assert_eq!(
                                &fast, &slow, "{}→{}", router.name(), decode_router.name()
                            );
                            prop_assert_eq!(
                                fast.report.availability.is_some(),
                                !plan.is_empty()
                            );
                        }
                    }
                }
            }
        }
    }
}
