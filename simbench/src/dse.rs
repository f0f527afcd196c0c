//! `dse-sweep`: the paper's own use of the chip model. Every design point
//! gets a fresh `Simulator` (a cold `MappingCache`, as `repro_all` and
//! `fig7_exploration` users have without `CIMTPU_CACHE_DIR`) and prices
//! GPT-3 30B end-to-end inference at three batch sizes and DiT-XL/2 at
//! two. The mapper and core do almost all the work; serving and cluster
//! code never runs.

use cimtpu_core::{inference, Simulator, TpuConfig};
use cimtpu_models::{presets, DitConfig, LlmInferenceSpec, TransformerConfig, Workload};

use crate::claims::{self, Claims};
use crate::layers;
use crate::spans::{self, NoTrace, Probe, Tracer};
use crate::stats::median;
use crate::{wall, Ctx, EndToEnd, Output, Rng};

/// Traced and untraced sweeps timed in a traced run.
const TRACE_ITERS: usize = 5;

/// The sweep's inputs.
pub struct Inputs {
    /// The TPUv4i baseline, the nine Table IV designs, then the extension.
    designs: Vec<TpuConfig>,
    /// GPT-3 30B request shapes; the first is the paper's Fig. 7 spec.
    llm: Vec<LlmInferenceSpec>,
    /// DiT-XL/2 `(batch, resolution)`; the first is the paper's point.
    dit: Vec<(u64, u64)>,
    gpt3: TransformerConfig,
    dit_model: DitConfig,
    /// The operator lists the sweep prices for each shape (a prefill and
    /// a first decode layer per GPT-3 shape, a DiT block per DiT shape);
    /// their weight GEMMs are the mapper queries of a traced run.
    workloads: Vec<Workload>,
}

impl Inputs {
    /// The baseline, Table IV, and the extension grid (MXU counts 1..16
    /// by CIM grids up to 32×32, Table IV points excluded). The seed
    /// draws the prompt and output lengths of the two non-paper GPT-3
    /// shapes within about 3% of the Fig. 7 spec, so simulated figures
    /// move little between seeds.
    pub fn build(seed: u64) -> Result<Inputs, String> {
        let mut designs = vec![TpuConfig::tpuv4i()];
        designs.extend(TpuConfig::table4_designs());
        for &(rows, cols) in &[(8, 8), (16, 8), (16, 16), (32, 16), (32, 32)] {
            for &count in &[1u64, 2, 4, 8, 16] {
                let table4 = matches!(count, 2 | 4 | 8) && rows <= 16;
                if !table4 {
                    designs.push(TpuConfig::cim_variant(count, rows, cols));
                }
            }
        }
        let mut rng = Rng::new(seed);
        let mut llm = vec![LlmInferenceSpec::paper_fig7(8).map_err(|e| e.to_string())?];
        for batch in [4, 16] {
            let input = rng.range(992, 1056);
            let output = rng.range(496, 528);
            llm.push(LlmInferenceSpec::new(batch, input, output).map_err(|e| e.to_string())?);
        }
        let dit = vec![(claims::DIT_BATCH, claims::DIT_RESOLUTION), (4, 256)];
        let (gpt3, dit_model) = (presets::gpt3_30b(), presets::dit_xl_2());
        let mut workloads = Vec::new();
        for spec in &llm {
            let (b, input) = (spec.batch(), spec.input_len());
            workloads.push(gpt3.prefill_layer(b, input).map_err(|e| e.to_string())?);
            workloads.push(gpt3.decode_layer(b, input + 1).map_err(|e| e.to_string())?);
        }
        for &(b, res) in &dit {
            workloads.push(dit_model.block(b, res).map_err(|e| e.to_string())?);
        }
        Ok(Inputs {
            designs,
            llm,
            dit,
            gpt3,
            dit_model,
            workloads,
        })
    }

    /// Simulated requests priced per sweep (LLM sequences plus DiT images).
    fn requests(&self) -> u64 {
        let per_design: u64 = self.llm.iter().map(LlmInferenceSpec::batch).sum::<u64>()
            + self.dit.iter().map(|d| d.0).sum::<u64>();
        per_design * self.designs.len() as u64
    }
}

/// One sweep's simulated outputs and work counts.
#[derive(Debug, Clone, PartialEq)]
struct Sweep {
    /// Bit patterns of every priced latency and energy, in sweep order.
    bits: Vec<u64>,
    /// `(batch, latency s, MXU energy J)` of every GPT-3 run.
    llm: Vec<(u64, f64, f64)>,
    claims: Claims,
    searches: u64,
    hits: u64,
}

fn sweep(inputs: &Inputs, probe: &mut impl Probe) -> Result<Sweep, String> {
    let mut s = Sweep {
        bits: Vec::new(),
        llm: Vec::new(),
        claims: Claims {
            llm: 0.0,
            dit: 0.0,
            energy_x: 0.0,
        },
        searches: 0,
        hits: 0,
    };
    let mut paper_points = Vec::with_capacity(10);
    for cfg in &inputs.designs {
        let design = probe.begin("core.design");
        let span = probe.begin("core.sim_new");
        let sim = Simulator::new(cfg.clone()).map_err(|e| e.to_string())?;
        probe.end(span);
        let mut paper = (0.0, 0.0, 0.0);
        for (i, &spec) in inputs.llm.iter().enumerate() {
            let span = probe.begin("core.run_llm");
            let r = inference::run_llm(&sim, &inputs.gpt3, spec).map_err(|e| e.to_string())?;
            probe.end(span);
            let (lat, energy) = (r.total_latency().get(), r.total_mxu_energy().get());
            s.bits.extend([lat.to_bits(), energy.to_bits()]);
            s.llm.push((spec.batch(), lat, energy));
            if i == 0 {
                (paper.0, paper.1) = (lat, energy);
            }
        }
        for (i, &(batch, res)) in inputs.dit.iter().enumerate() {
            let span = probe.begin("core.run_dit");
            let r = inference::run_dit(&sim, &inputs.dit_model, batch, res)
                .map_err(|e| e.to_string())?;
            probe.end(span);
            s.bits.extend([
                r.total_latency.get().to_bits(),
                r.total_mxu_energy.get().to_bits(),
            ]);
            if i == 0 {
                paper.2 = r.total_latency.get();
            }
        }
        let stats = sim.cache_stats();
        s.searches += stats.misses;
        s.hits += stats.hits;
        if paper_points.len() < 10 {
            paper_points.push(paper);
        }
        probe.end(design);
    }
    s.claims = Claims::from_points(paper_points[0], &paper_points[1..]);
    Ok(s)
}

/// Request-weighted p99 of the GPT-3 runs' simulated latency, in ms
/// (every sequence of a batch finishes with its batch).
fn p99_ms(llm: &[(u64, f64, f64)]) -> f64 {
    let mut v: Vec<(f64, u64)> = llm.iter().map(|&(b, lat, _)| (lat, b)).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = v.iter().map(|x| x.1).sum();
    let rank = (0.99 * total as f64).ceil() as u64;
    let mut seen = 0;
    for (lat, b) in v {
        seen += b;
        if seen >= rank {
            return lat * 1e3;
        }
    }
    unreachable!("the rank is within the total weight")
}

fn mj_per_req(llm: &[(u64, f64, f64)]) -> f64 {
    let energy: f64 = llm.iter().map(|x| x.2).sum();
    let requests: u64 = llm.iter().map(|x| x.0).sum();
    energy * 1e3 / requests as f64
}

/// Size of the sweep's priced values exported as a JSON array, in MB.
fn export_mb(bits: &[u64]) -> f64 {
    let values: Vec<String> = bits
        .iter()
        .map(|&b| format!("{:?}", f64::from_bits(b)))
        .collect();
    crate::mb(&format!("[{}]", values.join(",")))
}

fn work_counts(s: &Sweep) -> Vec<(&'static str, u64)> {
    vec![("mapper.searches", s.searches), ("core.cache_hits", s.hits)]
}

pub fn run(ctx: &Ctx, out: &mut Output) -> Result<(), String> {
    let inputs = Inputs::build(ctx.seed)?;
    println!(
        "  {} designs x ({} GPT-3 30B shapes + {} DiT-XL/2 shapes), {} simulated requests per sweep",
        inputs.designs.len(),
        inputs.llm.len(),
        inputs.dit.len(),
        inputs.requests()
    );
    let reference = sweep(&inputs, &mut NoTrace)?;
    reference.claims.print();
    // The memo is an optimization only: with the mapping cache disabled
    // the Design A point must price bit-identically.
    let check = Simulator::new(TpuConfig::design_a()).map_err(|e| e.to_string())?;
    let cold = Simulator::new(TpuConfig::design_a()).map_err(|e| e.to_string())?;
    cold.mapping_cache().set_enabled(false);
    let spec = inputs.llm[1];
    let (a, b) = (
        inference::run_llm(&check, &inputs.gpt3, spec).map_err(|e| e.to_string())?,
        inference::run_llm(&cold, &inputs.gpt3, spec).map_err(|e| e.to_string())?,
    );
    out.iteration("cache-disabled pricing equals cached pricing", a == b);
    out.counts(work_counts(&reference));

    if ctx.trace {
        return traced(&inputs, &reference, out);
    }

    let t = out.measure(
        ctx.seconds,
        "sweep repeats the reference sweep bit-for-bit",
        || Inputs::build(ctx.seed),
        || sweep(&inputs, &mut NoTrace),
        |s| (s == &reference, work_counts(s)),
    )?;
    out.end_to_end(EndToEnd {
        timings: t,
        requests: inputs.requests() as f64,
        designs: inputs.designs.len() as f64,
        export_mb: export_mb(&reference.bits),
        p99_ms: p99_ms(&reference.llm),
        mj_per_req: mj_per_req(&reference.llm),
        claims: reference.claims,
    })
}

fn traced(inputs: &Inputs, reference: &Sweep, out: &mut Output) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..TRACE_ITERS {
        let (w, r) = wall(|| sweep(inputs, &mut NoTrace));
        plain.push(w);
        out.iteration("untraced sweep equals the reference", r? == *reference);
        tracer.set_iteration(i as u32);
        let (w, r) = wall(|| sweep(inputs, &mut tracer));
        traced.push(w);
        out.iteration("traced sweep equals the untraced one", r? == *reference);
    }
    let times = tracer.layers();
    let n = TRACE_ITERS as f64;
    let design = times["core.design"];
    let sim_new = times["core.sim_new"];
    let queries = layers::gemm_queries(&inputs.workloads);
    let mut search_s = 0.0;
    for cfg in &inputs.designs {
        let sim = Simulator::new(cfg.clone()).map_err(|e| e.to_string())?;
        search_s += layers::mapper_search_us(&sim, &queries)? * 1e-6 * queries.len() as f64;
    }
    let searches = queries.len() * inputs.designs.len();
    spans::print(&times);
    out.metric("mapper.searches", reference.searches as f64, "count");
    out.metric("mapper.search_us", search_s * 1e6 / searches as f64, "us");
    let lookups = (reference.searches + reference.hits) as f64;
    out.metric(
        "core.cache_hit_rate",
        reference.hits as f64 / lookups,
        "ratio",
    );
    out.metric("core.design_ms", design.mean_ns() * 1e-6, "ms");
    out.metric("core.sim_new_ms", sim_new.mean_ns() * 1e-6, "ms");
    out.metric(
        "core.self_ms",
        spans::sum_ms(&times, "core.", false) / n,
        "ms",
    );
    out.metric(
        "bench.trace_overhead",
        median(&traced) / median(&plain),
        "ratio",
    );
    crate::write_spans("dse-sweep", &tracer, out)?;
    Ok(())
}
