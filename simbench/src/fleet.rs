//! The two 100-replica fleet workloads.
//!
//! `fleet-day` is `cluster-day-smoke` unchanged: 250k closed-loop
//! requests from 1,000 clients, round-robin routing, no faults, no
//! recorder, no KV pressure. The plain colocated driver's event heap,
//! `EngineCore::step`, and router/snapshot tracking do the work; every
//! pricing call hits the memo.
//!
//! `fleet-ops` sends the same tiny fleet through an operations day:
//! open-loop traffic split into interactive, standard and batch SLO
//! tenants, SLO-aware routing, scripted crashes and a straggler window,
//! and the flight recorder attached with Chrome-JSON export to memory.
//! That takes the fault-aware driver, health view, retries, weighted-fair
//! admission and `cimtpu-obs`, none of which `fleet-day` touches.

use std::cell::RefCell;
use std::rc::Rc;

use cimtpu_cluster::router::SnapshotTracker;
use cimtpu_cluster::scenario::{cluster_day_smoke, Scenario};
use cimtpu_cluster::{
    ClusterEngine, ClusterRun, ClusterTopology, FaultEvent, FaultPlan, Recorder, ReplicaSpec,
    RouterPolicy, SloClass, TenantSet, TenantSpec, TraceFilter,
};
use cimtpu_core::{Simulator, TpuConfig};
use cimtpu_serving::{
    ActionHeap, ArrivalPattern, ArrivalStream, BatchPolicy, Completion, EngineCore, EngineSession,
    LenDist, PhasePricer, PrefixTraffic, ServingModel, ServingReport, TrafficSpec,
};
use cimtpu_units::Seconds;

use crate::claims::Claims;
use crate::layers::{self, PriceKey};
use crate::spans::{self, NoTrace, Probe, Tracer};
use crate::stats::median;
use crate::{wall, Ctx, EndToEnd, Output, Rng, Timings};

/// Untraced and traced passes of the own loop in a traced fleet-day run.
const TRACE_ITERS: usize = 3;
/// Recorder-off, untraced and traced iterations in a traced fleet-ops run.
const OPS_TRACE_ITERS: usize = 5;

// ---------------------------------------------------------------- fleet-day

pub struct DayInputs {
    scenario: Scenario,
    /// The scenario's traffic reseeded from the workload seed.
    traffic: TrafficSpec,
    specs: Vec<ReplicaSpec>,
    router: RouterPolicy,
    /// One backend per replica for the benchmark's own loop.
    sessions: Vec<EngineSession>,
}

impl DayInputs {
    fn build(seed: u64) -> Result<DayInputs, String> {
        let scenario = cluster_day_smoke();
        let mut traffic = scenario.traffic.clone();
        traffic.seed = seed;
        let ClusterTopology::Colocated { replicas, router } = scenario.engine.topology().clone()
        else {
            return Err("cluster-day-smoke is a colocated fleet".to_owned());
        };
        let sessions = replicas
            .iter()
            .map(|r| EngineSession::new(&r.engine()?))
            .collect::<cimtpu_units::Result<Vec<_>>>()
            .map_err(|e| e.to_string())?;
        Ok(DayInputs {
            scenario,
            traffic,
            specs: replicas,
            router,
            sessions,
        })
    }
}

/// What the benchmark's own fleet loop produced.
#[derive(Debug, PartialEq)]
struct DayLoop {
    /// Per-replica reports, as `Scenario::run` lists them.
    replica_reports: Vec<ServingReport>,
    /// Every completion, in request-id order.
    completions: Vec<Completion>,
    offered: u64,
    arrivals: u64,
    steps: u64,
    heap_ops: u64,
    energy_j: f64,
}

/// The zero-fault colocated driver, call by call: an `ArrivalStream`
/// feeds a `RouterPolicy` router over a `SnapshotTracker`, and an
/// `ActionHeap` picks the next core to step. Event order, tie-breaks and
/// tracker updates follow the library's colocated drive loop, so the
/// result must equal `Scenario::run` bit-for-bit.
fn day_loop(inputs: &DayInputs, probe: &mut impl Probe) -> Result<DayLoop, String> {
    let err = |e: cimtpu_units::Error| e.to_string();
    let root = probe.begin("fleet.loop");
    let span = probe.begin("engine.core");
    let mut cores: Vec<EngineCore<'_>> = inputs
        .sessions
        .iter()
        .map(EngineSession::core)
        .collect::<Result<_, _>>()
        .map_err(err)?;
    probe.end(span);
    let n = cores.len();
    let mut stream = ArrivalStream::new(&inputs.traffic).map_err(err)?;
    let offered = stream.total();
    let mut router = inputs.router.build();
    let mut tracker = SnapshotTracker::new(n);
    let mut heap = ActionHeap::new(n);
    let (mut arrivals, mut steps, mut heap_ops) = (0u64, 0u64, 0u64);
    for (i, core) in cores.iter().enumerate() {
        heap.set(i, core.next_action());
        heap_ops += 1;
    }
    let mut scratch: Vec<Completion> = Vec::new();
    loop {
        let span = probe.begin("heap.peek");
        let action = heap.peek();
        probe.end(span);
        heap_ops += 1;
        let arrival = stream.peek();
        match (arrival, action) {
            (Some(ta), act) if act.is_none_or(|(_, t)| ta <= t) => {
                let request = stream.pop();
                arrivals += 1;
                let span = probe.begin("router.tracker");
                let t = request.arrival();
                if t < tracker.now() {
                    tracker.resync(t, &cores);
                } else {
                    tracker.advance_to(t);
                }
                probe.end(span);
                let span = probe.begin("router.route");
                let k = router.route(&request, tracker.snapshots()).min(n - 1);
                probe.end(span);
                let span = probe.begin("engine.push");
                cores[k].push(request);
                probe.end(span);
                reschedule(&mut heap, &cores, k, probe);
                heap_ops += 1;
                let span = probe.begin("router.tracker");
                tracker.on_push(k, cores[k].queued());
                probe.end(span);
                if stream.exhausted() {
                    for core in cores.iter_mut() {
                        core.close();
                    }
                    for i in 0..n {
                        reschedule(&mut heap, &cores, i, probe);
                        heap_ops += 1;
                    }
                }
            }
            (_, Some((i, _))) => {
                let span = probe.begin("engine.step");
                cores[i].step().map_err(err)?;
                probe.end(span);
                steps += 1;
                reschedule(&mut heap, &cores, i, probe);
                heap_ops += 1;
                after_step(
                    &mut cores,
                    i,
                    &mut scratch,
                    &mut stream,
                    &mut tracker,
                    probe,
                );
            }
            (_, None) => {
                if stream.exhausted() {
                    break;
                }
                // A closed-loop stall: flush the lowest stalled core.
                let mut progressed = false;
                for i in 0..n {
                    let span = probe.begin("engine.step");
                    let flushed = cores[i].flush_stalled().map_err(err)?;
                    probe.end(span);
                    if flushed {
                        steps += 1;
                        reschedule(&mut heap, &cores, i, probe);
                        heap_ops += 1;
                        after_step(
                            &mut cores,
                            i,
                            &mut scratch,
                            &mut stream,
                            &mut tracker,
                            probe,
                        );
                        progressed = true;
                        break;
                    }
                }
                if !progressed {
                    return Err("fleet loop stalled".to_owned());
                }
            }
        }
    }
    let mut replica_reports = Vec::new();
    let mut completions = Vec::new();
    let mut energy = cimtpu_units::Joules::ZERO;
    for (spec, core) in inputs.specs.iter().zip(&cores) {
        energy += core.energy();
        completions.extend_from_slice(core.completions());
        if !core.completions().is_empty() {
            replica_reports.push(core.finish(&spec.name).report);
        }
    }
    completions.sort_by_key(|c| c.id);
    probe.end(root);
    Ok(DayLoop {
        replica_reports,
        completions,
        offered,
        arrivals,
        steps,
        heap_ops,
        energy_j: energy.get(),
    })
}

fn reschedule(heap: &mut ActionHeap, cores: &[EngineCore<'_>], i: usize, probe: &mut impl Probe) {
    let span = probe.begin("engine.next_action");
    let at: Option<Seconds> = cores[i].next_action();
    probe.end(span);
    let span = probe.begin("heap.set");
    heap.set(i, at);
    probe.end(span);
}

fn after_step(
    cores: &mut [EngineCore<'_>],
    i: usize,
    scratch: &mut Vec<Completion>,
    stream: &mut ArrivalStream,
    tracker: &mut SnapshotTracker,
    probe: &mut impl Probe,
) {
    scratch.clear();
    scratch.extend_from_slice(cores[i].drain_new());
    let span = probe.begin("stream.on_complete");
    for c in scratch.iter() {
        stream.on_complete(c);
    }
    probe.end(span);
    let span = probe.begin("router.tracker");
    tracker.on_step(i, cores[i].queued(), cores[i].kv_frac(), scratch);
    probe.end(span);
}

/// The own loop's result matches the library's run report-for-report.
fn day_matches(mine: &DayLoop, run: &ClusterRun) -> bool {
    mine.replica_reports == run.replica_reports
        && mine.completions == run.completions
        && mine.offered == run.report.offered
        && mine.energy_j.to_bits() == run.report.total_energy_j.to_bits()
}

fn fleet_conserved(run: &ClusterRun) -> bool {
    let (shed, timed_out) = run
        .report
        .availability
        .as_ref()
        .map_or((0, 0), |a| (a.shed, a.timed_out));
    run.report.offered == run.report.completed + shed + timed_out
}

fn day_counts(run: &ClusterRun) -> Vec<(&'static str, u64)> {
    vec![
        ("completed", run.report.completed),
        ("engine.preemptions", run.report.preemptions),
        (
            "decode_steps",
            run.completions.iter().map(|c| c.steps).sum(),
        ),
    ]
}

/// Pricing keys of the tiny fleet model: every prompt length in
/// `prompts` at batch 1, and every decode context up to `max_steps`
/// tokens past a prompt at each batch size.
fn tiny_keys(prompts: (u64, u64), max_steps: u64, max_batch: u64) -> Vec<PriceKey> {
    let ((p_lo, p_hi), s_hi) = (prompts, max_steps);
    let mut keys: Vec<PriceKey> = (p_lo..=p_hi)
        .map(|prompt| PriceKey::Prefill { batch: 1, prompt })
        .collect();
    for batch in 1..=max_batch {
        keys.extend((p_lo..=p_hi + s_hi).map(|ctx| PriceKey::Step { batch, ctx }));
    }
    keys
}

/// Probes shared by both fleet workloads: Simulator::new, and the mapper
/// and pricer on the tiny replica model over its pricing keys.
fn fleet_probes(
    spec: &ReplicaSpec,
    prompts: (u64, u64),
    max_steps: u64,
    out: &mut Output,
) -> Result<(), String> {
    let err = |e: cimtpu_units::Error| e.to_string();
    let walls: Vec<f64> = (0..100)
        .map(|_| wall(|| Simulator::new(spec.chip.clone())).0)
        .collect();
    out.metric("core.sim_new_ms", median(&walls) * 1e3, "ms");
    let BatchPolicy::Continuous { max_batch } = spec.policy else {
        unreachable!("fleet replicas batch continuously")
    };
    let keys = tiny_keys(prompts, max_steps, max_batch);
    let ServingModel::Llm(llm) = &spec.model else {
        unreachable!("fleet replicas host an LLM")
    };
    let sim = Simulator::new(spec.chip.clone()).map_err(err)?;
    let pricer = PhasePricer::single(&spec.model, &sim);
    let mut workloads = Vec::new();
    for k in &keys {
        match *k {
            PriceKey::Prefill { batch, prompt } => {
                pricer.prefill(batch, prompt).map_err(err)?;
                workloads.push(llm.prefill_layer(batch, prompt).map_err(err)?);
            }
            PriceKey::Step { batch, ctx } => {
                pricer.step(batch, ctx).map_err(err)?;
                workloads.push(llm.decode_layer(batch, ctx).map_err(err)?);
            }
            PriceKey::Chunk { .. } => unreachable!("no chunked prefill in the fleet"),
        }
    }
    let cold = sim.cache_stats();
    let queries = layers::gemm_queries(&workloads);
    let session = EngineSession::new(&spec.engine().map_err(err)?).map_err(err)?;
    let (miss_us, hit_ns) = layers::pricer_costs(&session, &keys)?;
    out.metric("mapper.searches", cold.misses as f64, "count");
    out.metric(
        "mapper.search_us",
        layers::mapper_search_us(&sim, &queries)?,
        "us",
    );
    out.metric("core.cache_hit_rate", cold.hit_rate(), "ratio");
    out.metric("pricer.miss_us", miss_us, "us");
    out.metric("pricer.hit_ns", hit_ns, "ns");
    Ok(())
}

/// The end-to-end figures of a fleet run.
fn fleet_e2e(t: Timings, claims: Claims, reference: &ClusterRun, export_mb: f64) -> EndToEnd {
    EndToEnd {
        timings: t,
        requests: reference.report.completed as f64,
        designs: 1.0,
        export_mb,
        p99_ms: reference.report.latency.p99_ms,
        mj_per_req: reference.report.energy_per_request_j * 1e3,
        claims,
    }
}

pub fn run_day(ctx: &Ctx, out: &mut Output) -> Result<(), String> {
    let inputs = DayInputs::build(ctx.seed)?;
    println!(
        "  cluster-day-smoke: {} closed-loop requests, {} replicas, {} routing",
        inputs.traffic.requests,
        inputs.specs.len(),
        inputs.router.name()
    );
    let seed = Some(ctx.seed);
    let reference = inputs.scenario.run(seed).map_err(|e| e.to_string())?;
    let mine = day_loop(&inputs, &mut NoTrace)?;
    out.iteration(
        "own loop reproduces Scenario::run report-for-report",
        day_matches(&mine, &reference),
    );
    out.iteration("offered == completed", fleet_conserved(&reference));
    out.counts(day_counts(&reference));

    if ctx.trace {
        return day_traced(&inputs, &reference, mine, out);
    }

    let claims = Claims::measure()?;
    claims.print();
    let t = out.measure(
        ctx.seconds,
        "run repeats the reference report bit-for-bit",
        || DayInputs::build(ctx.seed),
        || inputs.scenario.run(seed).map_err(|e| e.to_string()),
        |run| (run == &reference && fleet_conserved(run), day_counts(run)),
    )?;
    let json = serde_json::to_string(&reference.report).map_err(|e| e.to_string())?;
    out.end_to_end(fleet_e2e(t, claims, &reference, crate::mb(&json)))
}

fn day_traced(
    inputs: &DayInputs,
    reference: &ClusterRun,
    untraced: DayLoop,
    out: &mut Output,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..TRACE_ITERS {
        let (w, r) = wall(|| day_loop(inputs, &mut NoTrace));
        plain.push(w);
        let r = r?;
        out.iteration(
            "untraced own loop equals the library run, same work counts",
            day_matches(&r, reference) && r == untraced,
        );
        tracer.set_iteration(i as u32);
        let (w, r) = wall(|| day_loop(inputs, &mut tracer));
        traced.push(w);
        let r = r?;
        out.iteration(
            "traced own loop equals the library run, same work counts",
            day_matches(&r, reference) && r == untraced,
        );
    }
    let times = tracer.layers();
    spans::print(&times);
    let iters = TRACE_ITERS as f64;
    // Per-iteration milliseconds of self (or total) span time under a prefix.
    let sum_ms = |prefix: &str, total: bool| spans::sum_ms(&times, prefix, total) / iters;
    let heap = [times["heap.peek"], times["heap.set"]];
    let heap_calls: u64 = heap.iter().map(|h| h.count).sum();
    let heap_ns: u64 = heap.iter().map(|h| h.total_ns).sum();
    let loop_span = times["fleet.loop"];
    let events = untraced.arrivals + untraced.steps;

    let (LenDist::Uniform { lo, hi }, LenDist::Uniform { hi: steps, .. }) =
        (inputs.traffic.prompt, inputs.traffic.steps)
    else {
        unreachable!("cluster-day-smoke draws uniform lengths")
    };
    fleet_probes(&inputs.specs[0], (lo, hi), steps, out)?;
    out.metric("engine.steps", untraced.steps as f64, "count");
    out.metric(
        "engine.step_us",
        times["engine.step"].mean_ns() * 1e-3,
        "us",
    );
    out.metric("engine.push_ns", times["engine.push"].mean_ns(), "ns");
    out.metric(
        "engine.preemptions",
        reference.report.preemptions as f64,
        "count",
    );
    out.metric("engine.self_ms", sum_ms("engine.", false), "ms");
    out.metric("heap.ops", untraced.heap_ops as f64, "count");
    out.metric("heap.op_ns", heap_ns as f64 / heap_calls as f64, "ns");
    out.metric("heap.self_ms", sum_ms("heap.", false), "ms");
    let kv_hwm = reference
        .report
        .per_replica
        .iter()
        .map(|r| r.kv_hwm_frac)
        .fold(0.0, f64::max);
    out.metric("kv.hwm_frac", kv_hwm, "ratio");
    out.metric("router.decisions", untraced.arrivals as f64, "count");
    out.metric("router.route_ns", times["router.route"].mean_ns(), "ns");
    out.metric("router.tracker_ns", times["router.tracker"].mean_ns(), "ns");
    out.metric("router.self_ms", sum_ms("router.", false), "ms");
    out.metric("fleet.events", events as f64, "count");
    out.metric("fleet.event_ns", median(&plain) * 1e9 / events as f64, "ns");
    let loop_ms = loop_span.total_ns as f64 * 1e-6 / iters;
    let covered = sum_ms("engine.step", true) + sum_ms("heap.", true) + sum_ms("router.", true);
    out.metric(
        "fleet.loop_self_frac",
        (loop_ms - covered) / loop_ms,
        "ratio",
    );
    out.metric(
        "fleet.loop_self_ms",
        loop_span.self_ns as f64 * 1e-6 / iters,
        "ms",
    );
    out.metric(
        "bench.trace_overhead",
        median(&traced) / median(&plain),
        "ratio",
    );
    crate::write_spans("fleet-day", &tracer, out)?;
    Ok(())
}

// ---------------------------------------------------------------- fleet-ops

const OPS_LABEL: &str = "fleet-ops";
const OPS_REPLICAS: usize = 100;
/// Offered requests per tenant: interactive, standard, batch.
const OPS_REQUESTS: [u64; 3] = [8_000, 8_000, 4_000];
/// Aggregate open-loop rate: about a third of the fleet's saturated
/// throughput (~31k req/s per tiny replica).
const OPS_RATE_RPS: f64 = 1_000_000.0;
const OPS_CRASHES: usize = 8;
/// Prompt lengths and the most decode steps any tenant draws.
const OPS_PROMPTS: (u64, u64) = (16, 64);
const OPS_MAX_STEPS: u64 = 12;

pub struct OpsInputs {
    engine: ClusterEngine,
    tenants: TenantSet,
    requests: u64,
    spec: ReplicaSpec,
}

impl OpsInputs {
    fn build(seed: u64) -> Result<OpsInputs, String> {
        let spec = ReplicaSpec::new(
            "ops",
            TpuConfig::tpuv4i(),
            ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer()),
        )
        .with_policy(BatchPolicy::Continuous { max_batch: 8 });
        let replicas = (0..OPS_REPLICAS)
            .map(|i| ReplicaSpec {
                name: format!("ops-{i:02}"),
                ..spec.clone()
            })
            .collect();
        let total: u64 = OPS_REQUESTS.iter().sum();
        let traffic = |requests: u64, prompt: (u64, u64), steps: (u64, u64)| TrafficSpec {
            requests,
            arrival: ArrivalPattern::OpenLoop {
                rate_rps: OPS_RATE_RPS * requests as f64 / total as f64,
            },
            prompt: LenDist::Uniform {
                lo: prompt.0,
                hi: prompt.1,
            },
            steps: LenDist::Uniform {
                lo: steps.0,
                hi: steps.1,
            },
            prefix: PrefixTraffic::None,
            seed: 0,
        };
        let tenants = TenantSet::new(vec![
            TenantSpec::new(
                "interactive",
                SloClass::Interactive,
                4.0,
                traffic(OPS_REQUESTS[0], (16, 48), (2, 6)),
            ),
            TenantSpec::new(
                "standard",
                SloClass::Standard,
                2.0,
                traffic(OPS_REQUESTS[1], (16, 48), (2, 8)),
            ),
            TenantSpec::new(
                "batch",
                SloClass::Batch,
                1.0,
                traffic(OPS_REQUESTS[2], (32, 64), (4, 12)),
            ),
        ])
        .map_err(|e| e.to_string())?
        .with_seed(seed);
        // Scripted faults inside the traffic window (about 20 ms).
        let day_s = total as f64 / OPS_RATE_RPS;
        let mut rng = Rng::new(seed);
        let mut events: Vec<FaultEvent> = (0..OPS_CRASHES)
            .map(|_| FaultEvent::Crash {
                at: Seconds::new(day_s * (0.1 + 0.7 * rng.unit())),
                replica: rng.range(0, OPS_REPLICAS as u64 - 1) as usize,
                repair: Seconds::new(0.002),
            })
            .collect();
        let from = day_s * (0.1 + 0.3 * rng.unit());
        events.push(FaultEvent::Straggler {
            replica: rng.range(0, OPS_REPLICAS as u64 - 1) as usize,
            from: Seconds::new(from),
            until: Seconds::new(from + 0.4 * day_s),
            slowdown: 4.0,
        });
        let engine = ClusterEngine::colocated(replicas, RouterPolicy::SloAware)
            .map_err(|e| e.to_string())?
            .with_faults(FaultPlan::none().with_events(events));
        let requests = tenants.merged_spec().map_err(|e| e.to_string())?.requests;
        Ok(OpsInputs {
            engine,
            tenants,
            requests,
            spec,
        })
    }
}

/// One operations-day run with the recorder attached (or not), and the
/// Chrome-JSON trace it exports.
struct OpsRun {
    run: ClusterRun,
    events: usize,
    trace: String,
}

fn ops_once(inputs: &OpsInputs, record: bool) -> Result<OpsRun, String> {
    let rec = Rc::new(RefCell::new(Recorder::new()));
    let run = inputs
        .engine
        .run_tenants_observed(OPS_LABEL, &inputs.tenants, record.then_some(&rec))
        .map_err(|e| e.to_string())?;
    let rec = rec.borrow();
    let trace = if record {
        rec.to_chrome_json(&TraceFilter::default())
    } else {
        String::new()
    };
    Ok(OpsRun {
        run,
        events: rec.events().len(),
        trace,
    })
}

/// Per tenant and fleet-wide: offered == completed + shed + timed out.
fn ops_conserved(run: &ClusterRun) -> bool {
    let per_tenant = run.report.tenants.as_ref().is_some_and(|t| {
        t.tenants.len() == OPS_REQUESTS.len()
            && t.tenants.iter().zip(OPS_REQUESTS).all(|(u, offered)| {
                u.offered == offered && u.offered == u.completed + u.shed + u.timed_out
            })
    });
    per_tenant && fleet_conserved(run)
}

fn ops_counts(r: &OpsRun) -> Vec<(&'static str, u64)> {
    let a = r
        .run
        .report
        .availability
        .clone()
        .unwrap_or_else(cimtpu_cluster::AvailabilityStats::zero);
    vec![
        ("completed", r.run.report.completed),
        ("fleet.retries", a.retries),
        ("fleet.crashes", a.crashes),
        ("shed", a.shed),
        ("timed_out", a.timed_out),
        ("engine.preemptions", r.run.report.preemptions),
        ("obs.events", r.events as u64),
        ("trace_bytes", r.trace.len() as u64),
    ]
}

fn same_run(a: &OpsRun, b: &OpsRun) -> bool {
    a.run == b.run && a.events == b.events && a.trace == b.trace
}

pub fn run_ops(ctx: &Ctx, out: &mut Output) -> Result<(), String> {
    let inputs = OpsInputs::build(ctx.seed)?;
    println!(
        "  {OPS_REPLICAS} replicas, SLO-aware routing, {} open-loop requests at {OPS_RATE_RPS} \
         req/s in 3 tenants, {OPS_CRASHES} crashes + 1 straggler window, recorder on",
        inputs.requests
    );
    let reference = ops_once(&inputs, true)?;
    let off = ops_once(&inputs, false)?;
    out.iteration(
        "recorder-off run equals recorder-on run",
        off.run == reference.run,
    );
    out.iteration("per-tenant conservation", ops_conserved(&reference.run));
    out.counts(ops_counts(&reference));

    if ctx.trace {
        return ops_traced(&inputs, &reference, out);
    }

    let claims = Claims::measure()?;
    claims.print();
    let t = out.measure(
        ctx.seconds,
        "run repeats the reference run and trace bit-for-bit",
        || OpsInputs::build(ctx.seed),
        || ops_once(&inputs, true),
        |r| {
            (
                same_run(r, &reference) && ops_conserved(&r.run),
                ops_counts(r),
            )
        },
    )?;
    out.end_to_end(fleet_e2e(
        t,
        claims,
        &reference.run,
        crate::mb(&reference.trace),
    ))
}

fn ops_traced(inputs: &OpsInputs, reference: &OpsRun, out: &mut Output) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let (mut off, mut on, mut export, mut plain, mut traced) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..OPS_TRACE_ITERS {
        let (w, r) = wall(|| ops_once(inputs, false));
        off.push(w);
        out.iteration(
            "recorder-off run equals the reference",
            r?.run == reference.run,
        );
        let (w, r) = wall(|| ops_once(inputs, true));
        plain.push(w);
        out.iteration(
            "untraced iteration equals the reference",
            same_run(&r?, reference),
        );
        // The same iteration with a span around each call; the recorder-on
        // run and the export are also timed on their own.
        tracer.set_iteration(i as u32);
        let (w, r) = wall(|| -> Result<OpsRun, String> {
            let rec = Rc::new(RefCell::new(Recorder::new()));
            let span = tracer.begin("fleet.run");
            let (w, run) = wall(|| {
                inputs
                    .engine
                    .run_tenants_observed(OPS_LABEL, &inputs.tenants, Some(&rec))
            });
            tracer.end(span);
            on.push(w);
            let span = tracer.begin("obs.export");
            let (w, trace) = wall(|| rec.borrow().to_chrome_json(&TraceFilter::default()));
            tracer.end(span);
            export.push(w);
            let events = rec.borrow().events().len();
            Ok(OpsRun {
                run: run.map_err(|e| e.to_string())?,
                events,
                trace,
            })
        });
        traced.push(w);
        out.iteration(
            "traced iteration equals the reference",
            same_run(&r?, reference),
        );
    }
    spans::print(&tracer.layers());
    let a = reference
        .run
        .report
        .availability
        .clone()
        .unwrap_or_else(cimtpu_cluster::AvailabilityStats::zero);
    let decode_steps: u64 = reference.run.completions.iter().map(|c| c.steps).sum();
    let events = reference.run.report.offered + a.retries + decode_steps;
    let (off_s, on_s) = (median(&off), median(&on));

    fleet_probes(&inputs.spec, OPS_PROMPTS, OPS_MAX_STEPS, out)?;
    out.metric(
        "engine.preemptions",
        reference.run.report.preemptions as f64,
        "count",
    );
    out.metric("fleet.events", events as f64, "count");
    out.metric("fleet.event_ns", off_s * 1e9 / events as f64, "ns");
    out.metric("fleet.retries", a.retries as f64, "count");
    out.metric("fleet.crashes", a.crashes as f64, "count");
    out.metric("obs.events", reference.events as f64, "count");
    out.metric(
        "obs.event_ns",
        (on_s - off_s) * 1e9 / reference.events as f64,
        "ns",
    );
    out.metric("obs.export_ms", median(&export) * 1e3, "ms");
    out.metric("obs.overhead", on_s / off_s, "ratio");
    out.metric(
        "bench.trace_overhead",
        median(&traced) / median(&plain),
        "ratio",
    );
    crate::write_spans("fleet-ops", &tracer, out)?;
    Ok(())
}
