//! `serve-mixed`: one Design A chip serving GPT-3 6.7B with continuous
//! batching under a tight paged-KV budget (so requests are preempted),
//! 256-token chunked prefill, and prefix sharing over a few 512-token
//! system prompts. Open-loop traffic with widely varied prompt and
//! output lengths makes most `(batch, ctx)` pricing keys new, so pricing,
//! the KV allocator, the prefix index and preemption do the work, while
//! the fleet router and event heap see a single core.

use cimtpu_core::{Simulator, TpuConfig};
use cimtpu_models::presets;
use cimtpu_serving::{
    ArrivalPattern, BatchPolicy, EngineSession, LenDist, MemoryConfig, Parallelism, PhasePricer,
    PrefixTraffic, Request, ServingEngine, ServingModel, ServingRun, TrafficSpec,
};
use cimtpu_units::Bytes;

use crate::claims::Claims;
use crate::layers::{self, PriceKey};
use crate::spans::{self, NoTrace, Probe, Tracer};
use crate::stats::median;
use crate::{wall, Ctx, EndToEnd, Output, Rng};

const LABEL: &str = "serve-mixed";
const TRACE_ITERS: usize = 5;

/// Requests per run and their Poisson arrival rate.
const REQUESTS: u64 = 3_000;
const RATE_RPS: f64 = 0.55;
const MAX_BATCH: u64 = 16;
const BLOCK_TOKENS: u64 = 16;
const CHUNK_TOKENS: u64 = 256;
/// KV budget: 4k tokens of GPT-3 6.7B context (512 KiB per token), about
/// four mid-sized requests, so long requests preempt one another.
const KV_BUDGET_MIB: u64 = 2 * 1024;
const SYSTEM_PROMPT_TOKENS: u64 = 512;
const SYSTEM_PROMPTS: u64 = 4;

pub struct Inputs {
    engine: ServingEngine,
    traffic: TrafficSpec,
    /// The trace `traffic` generates, for the benchmark's own loop and
    /// the layer probes.
    requests: Vec<Request>,
}

impl Inputs {
    fn build(seed: u64) -> Result<Inputs, String> {
        let memory = MemoryConfig::unlimited()
            .with_budget_bytes(Bytes::from_mib(KV_BUDGET_MIB))
            .with_block_tokens(BLOCK_TOKENS)
            .with_chunked_prefill(CHUNK_TOKENS)
            .with_prefix_sharing();
        let engine = ServingEngine::new(
            TpuConfig::design_a(),
            ServingModel::Llm(presets::gpt3_6_7b()),
            Parallelism::Replicated { chips: 1 },
            BatchPolicy::Continuous {
                max_batch: MAX_BATCH,
            },
        )
        .map_err(|e| e.to_string())?
        .with_memory(memory);
        let traffic = TrafficSpec {
            requests: REQUESTS,
            arrival: ArrivalPattern::OpenLoop { rate_rps: RATE_RPS },
            prompt: LenDist::Uniform { lo: 32, hi: 2048 },
            steps: LenDist::Uniform { lo: 8, hi: 512 },
            prefix: PrefixTraffic::SharedHead {
                tokens: SYSTEM_PROMPT_TOKENS,
                groups: SYSTEM_PROMPTS,
            },
            seed,
        };
        traffic.validate().map_err(|e| e.to_string())?;
        let requests = traffic.generate();
        Ok(Inputs {
            engine,
            traffic,
            requests,
        })
    }

    /// A sample of the pricing keys the run asks for: decode steps at
    /// each request's mid-generation context over the batch sizes, and
    /// the chunked-prefill passes of each prompt.
    fn price_keys(&self, seed: u64) -> Vec<PriceKey> {
        let mut rng = Rng::new(seed);
        let mut keys = Vec::new();
        for r in &self.requests {
            let batch = rng.range(1, MAX_BATCH);
            keys.push(PriceKey::Step {
                batch,
                ctx: r.prompt_len + r.steps / 2,
            });
            let mut past = 0;
            while past < r.prompt_len {
                let chunk = CHUNK_TOKENS.min(r.prompt_len - past);
                keys.push(PriceKey::Chunk {
                    batch: 1,
                    chunk,
                    past,
                });
                past += chunk;
            }
        }
        let mut seen = std::collections::HashSet::new();
        keys.retain(|k| seen.insert(*k));
        keys
    }
}

/// Counts from one pass of the benchmark's own serving loop.
#[derive(Debug, Default, PartialEq)]
struct LoopCounts {
    steps: u64,
    completed: u64,
}

/// The single-engine open-loop path of `ServingEngine::run`, driven
/// call by call: push the whole trace, close, then step to completion.
fn own_loop(inputs: &Inputs, probe: &mut impl Probe) -> Result<(ServingRun, LoopCounts), String> {
    let mut n = LoopCounts::default();
    let root = probe.begin("serve.loop");
    let span = probe.begin("engine.session");
    let session = EngineSession::new(&inputs.engine).map_err(|e| e.to_string())?;
    let mut core = session.core().map_err(|e| e.to_string())?;
    probe.end(span);
    for &r in &inputs.requests {
        let span = probe.begin("engine.push");
        core.push(r);
        probe.end(span);
    }
    core.close();
    while core.next_action().is_some() {
        let span = probe.begin("engine.step");
        core.step().map_err(|e| e.to_string())?;
        probe.end(span);
        n.steps += 1;
        n.completed += core.drain_new().len() as u64;
    }
    let run = core.finish(LABEL);
    probe.end(root);
    Ok((run, n))
}

fn work_counts(run: &ServingRun) -> Vec<(&'static str, u64)> {
    vec![
        ("completed", run.report.completed),
        ("engine.preemptions", run.report.preemptions),
        ("prefix.lookups", run.prefix.lookups),
        ("prefix.hits", run.prefix.hits),
        ("prefix.shared_tokens", run.prefix.shared_tokens),
    ]
}

/// Every offered request completes (single engine, no faults).
fn conserved(run: &ServingRun) -> bool {
    run.report.offered == REQUESTS && run.report.completed == run.report.offered
}

pub fn run(ctx: &Ctx, out: &mut Output) -> Result<(), String> {
    let inputs = Inputs::build(ctx.seed)?;
    println!(
        "  Design A, GPT-3 6.7B, {REQUESTS} open-loop requests at {RATE_RPS} req/s, continuous \
         batching (max {MAX_BATCH}), {KV_BUDGET_MIB} MiB KV, {CHUNK_TOKENS}-token chunks, \
         {SYSTEM_PROMPTS} x {SYSTEM_PROMPT_TOKENS}-token system prompts"
    );
    let reference = inputs
        .engine
        .run(LABEL, &inputs.traffic)
        .map_err(|e| e.to_string())?;
    println!(
        "  reference run: {} completed in {:.1} simulated s, p50 {:.0} ms, {} preemptions, \
         prefix {}/{} hits",
        reference.report.completed,
        reference.report.makespan_s,
        reference.report.latency.p50_ms,
        reference.report.preemptions,
        reference.prefix.hits,
        reference.prefix.lookups
    );
    let (mine, counts) = own_loop(&inputs, &mut NoTrace)?;
    out.iteration(
        "own loop reproduces ServingEngine::run bit-for-bit",
        mine == reference && counts.completed == reference.report.completed,
    );
    out.iteration("every offered request completes", conserved(&reference));
    out.counts(work_counts(&reference));

    if ctx.trace {
        return traced(ctx, &inputs, &reference, counts, out);
    }

    let claims = Claims::measure()?;
    claims.print();
    let t = out.measure(
        ctx.seconds,
        "run repeats the reference report bit-for-bit",
        || Inputs::build(ctx.seed),
        || {
            inputs
                .engine
                .run(LABEL, &inputs.traffic)
                .map_err(|e| e.to_string())
        },
        |run| (run == &reference && conserved(run), work_counts(run)),
    )?;
    let report = &reference.report;
    let json = serde_json::to_string(report).map_err(|e| e.to_string())?;
    out.end_to_end(EndToEnd {
        timings: t,
        requests: report.completed as f64,
        designs: 1.0,
        export_mb: crate::mb(&json),
        p99_ms: report.latency.p99_ms,
        mj_per_req: report.energy_per_request_j * 1e3,
        claims,
    })
}

fn traced(
    ctx: &Ctx,
    inputs: &Inputs,
    reference: &ServingRun,
    counts: LoopCounts,
    out: &mut Output,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..TRACE_ITERS {
        let (w, r) = wall(|| own_loop(inputs, &mut NoTrace));
        plain.push(w);
        let (run, n) = r?;
        out.iteration(
            "untraced own loop equals the reference, same work counts",
            run == *reference && n == counts,
        );
        tracer.set_iteration(i as u32);
        let (w, r) = wall(|| own_loop(inputs, &mut tracer));
        traced.push(w);
        let (run, n) = r?;
        out.iteration(
            "traced own loop equals the reference, same work counts",
            run == *reference && n == counts,
        );
    }
    let times = tracer.layers();
    spans::print(&times);
    let iters = TRACE_ITERS as f64;

    let keys = inputs.price_keys(ctx.seed);
    let model = inputs.engine.model();
    let sim = Simulator::new(inputs.engine.chip().clone()).map_err(|e| e.to_string())?;
    let pricer = PhasePricer::single(model, &sim);
    let mut workloads = Vec::new();
    let ServingModel::Llm(llm) = model else {
        unreachable!("serve-mixed hosts an LLM")
    };
    for k in &keys {
        match *k {
            PriceKey::Step { batch, ctx } => {
                pricer.step(batch, ctx).map_err(|e| e.to_string())?;
                workloads.push(llm.decode_layer(batch, ctx).map_err(|e| e.to_string())?);
            }
            PriceKey::Chunk { batch, chunk, past } => {
                pricer
                    .prefill_chunk(batch, chunk, past)
                    .map_err(|e| e.to_string())?;
                workloads.push(
                    llm.prefill_chunk_layer(batch, chunk, past)
                        .map_err(|e| e.to_string())?,
                );
            }
            PriceKey::Prefill { .. } => unreachable!("chunked prefill only"),
        }
    }
    let cold = sim.cache_stats();
    let queries = layers::gemm_queries(&workloads);
    let session = EngineSession::new(&inputs.engine).map_err(|e| e.to_string())?;
    let (miss_us, hit_ns) = layers::pricer_costs(&session, &keys)?;
    let lens: Vec<(u64, u64)> = inputs
        .requests
        .iter()
        .map(|r| (r.prompt_len, r.steps))
        .collect();

    out.metric("mapper.searches", cold.misses as f64, "count");
    out.metric(
        "mapper.search_us",
        layers::mapper_search_us(&sim, &queries)?,
        "us",
    );
    out.metric("core.cache_hit_rate", cold.hit_rate(), "ratio");
    out.metric("pricer.miss_us", miss_us, "us");
    out.metric("pricer.hit_ns", hit_ns, "ns");
    out.metric("engine.steps", counts.steps as f64, "count");
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
    out.metric(
        "engine.self_ms",
        spans::sum_ms(&times, "engine.", false) / iters,
        "ms",
    );
    out.metric("kv.grow_ns", layers::kv_grow_ns(BLOCK_TOKENS, &lens)?, "ns");
    out.metric("kv.hwm_frac", reference.report.kv_hwm_frac, "ratio");
    out.metric("prefix.lookups", reference.prefix.lookups as f64, "count");
    let hit_rate = reference.prefix.hits as f64 / reference.prefix.lookups.max(1) as f64;
    out.metric("prefix.hit_rate", hit_rate, "ratio");
    out.metric(
        "prefix.lookup_us",
        layers::prefix_lookup_us(BLOCK_TOKENS, &inputs.requests)?,
        "us",
    );
    out.metric(
        "bench.trace_overhead",
        median(&traced) / median(&plain),
        "ratio",
    );
    crate::write_spans("serve-mixed", &tracer, out)?;
    Ok(())
}
