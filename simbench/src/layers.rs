//! Per-layer probes for traced runs: timed calls into one layer's public
//! functions over a workload's own inputs (its GEMM queries, pricing
//! keys, request lengths and prompts).

use std::collections::HashSet;
use std::time::Instant;

use cimtpu_core::{MatrixEngine, Simulator};
use cimtpu_kv::{PagedKvAllocator, PrefixIndex};
use cimtpu_mapper::TileCostModel;
use cimtpu_models::{Op, Workload};
use cimtpu_serving::{EngineSession, Request};
use cimtpu_units::{Cycles, DataType, Frequency, GemmShape};

use crate::stats::median;

/// Timed passes per probe; each probe reports its median pass.
const PASSES: usize = 5;

/// Requests resident at once in the KV and prefix probes.
const RESIDENT: usize = 16;

/// The mapper's view of one MXU: the same tile costs the simulator's
/// own pricing path hands the map-space search.
struct EngineTiles<'a> {
    engine: &'a MatrixEngine,
    clock: Frequency,
}

impl TileCostModel for EngineTiles<'_> {
    fn tile_cycles(&self, shape: GemmShape, dtype: DataType) -> Cycles {
        self.engine.gemm_cycles(shape, dtype)
    }

    fn clock(&self) -> Frequency {
        self.clock
    }

    fn preferred_k(&self) -> u64 {
        self.engine.preferred_k()
    }

    fn preferred_n(&self) -> u64 {
        self.engine.preferred_n()
    }
}

fn median_pass(mut pass: impl FnMut()) -> f64 {
    pass(); // warm-up: allocator growth, scratch buffers
    let walls: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

/// Distinct weight-GEMM queries of `workloads`, in first-seen order.
pub fn gemm_queries<'a>(
    workloads: impl IntoIterator<Item = &'a Workload>,
) -> Vec<(GemmShape, DataType)> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for w in workloads {
        for inst in w.ops() {
            if let Op::Gemm { shape, dtype } = *inst.op() {
                if seen.insert((shape, dtype)) {
                    out.push((shape, dtype));
                }
            }
        }
    }
    out
}

/// Mean microseconds per map-space search over `queries` on `sim`'s
/// per-MXU mapper (each query's widest per-MXU shard, as the simulator
/// prices it).
pub fn mapper_search_us(sim: &Simulator, queries: &[(GemmShape, DataType)]) -> Result<f64, String> {
    if queries.is_empty() {
        return Ok(0.0);
    }
    let tiles = EngineTiles {
        engine: sim.engine(),
        clock: sim.config().clock(),
    };
    let shards: Vec<(GemmShape, DataType)> = queries
        .iter()
        .map(|&(shape, dtype)| (shape.split_n(sim.config().mxu_count())[0], dtype))
        .collect();
    let mapper = sim.per_mxu_mapper();
    for &(shape, dtype) in &shards {
        mapper
            .best_gemm_mapping(shape, dtype, &tiles, false)
            .map_err(|e| e.to_string())?;
    }
    let pass = median_pass(|| {
        for &(shape, dtype) in &shards {
            let m = mapper.best_gemm_mapping(shape, dtype, &tiles, false);
            std::hint::black_box(m.ok());
        }
    });
    Ok(pass * 1e6 / shards.len() as f64)
}

/// One phase-pricing query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriceKey {
    Prefill { batch: u64, prompt: u64 },
    Chunk { batch: u64, chunk: u64, past: u64 },
    Step { batch: u64, ctx: u64 },
}

/// Per-query cost of a fresh `PhasePricer` from `session`: microseconds
/// per memo miss (the mapping cache underneath already warm) and
/// nanoseconds per memo hit.
pub fn pricer_costs(session: &EngineSession, keys: &[PriceKey]) -> Result<(f64, f64), String> {
    if keys.is_empty() {
        return Ok((0.0, 0.0));
    }
    let price = |p: &cimtpu_serving::PhasePricer<'_>| -> Result<(), String> {
        for &k in keys {
            let cost = match k {
                PriceKey::Prefill { batch, prompt } => p.prefill(batch, prompt),
                PriceKey::Chunk { batch, chunk, past } => p.prefill_chunk(batch, chunk, past),
                PriceKey::Step { batch, ctx } => p.step(batch, ctx),
            };
            std::hint::black_box(cost.map_err(|e| e.to_string())?);
        }
        Ok(())
    };
    price(&session.pricer())?; // fills the shared mapping cache
    let mut misses = Vec::with_capacity(PASSES);
    let mut hits = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let pricer = session.pricer();
        let t = Instant::now();
        price(&pricer)?;
        misses.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        price(&pricer)?;
        hits.push(t.elapsed().as_secs_f64());
    }
    let n = keys.len() as f64;
    Ok((median(&misses) * 1e6 / n, median(&hits) * 1e9 / n))
}

/// Nanoseconds per `PagedKvAllocator::try_grow`/`release` call when the
/// requests `(prompt, steps)` are admitted, grown token by token, and
/// released, with up to [`RESIDENT`] of them resident at once.
pub fn kv_grow_ns(block_tokens: u64, lens: &[(u64, u64)]) -> Result<f64, String> {
    let mut ops = 0u64;
    let pass = median_pass(|| {
        let mut alloc = PagedKvAllocator::unlimited(block_tokens).expect("block size is non-zero");
        ops = 0;
        for (id, &(prompt, steps)) in lens.iter().enumerate() {
            let id = id as u64;
            for t in prompt..=prompt + steps {
                std::hint::black_box(alloc.try_grow(id, t));
            }
            ops += steps + 1;
            if id >= RESIDENT as u64 {
                std::hint::black_box(alloc.release(id - RESIDENT as u64));
                ops += 1;
            }
        }
    });
    Ok(pass * 1e9 / ops.max(1) as f64)
}

/// Microseconds per `PrefixIndex::lookup` + `commit` over the requests'
/// prompts, admitting each into an unlimited allocator with up to
/// [`RESIDENT`] requests resident at once.
pub fn prefix_lookup_us(block_tokens: u64, requests: &[Request]) -> Result<f64, String> {
    if requests.is_empty() {
        return Ok(0.0);
    }
    let prompts: Vec<Vec<u64>> = requests.iter().map(Request::prompt_tokens).collect();
    let mut admitted = true;
    let pass = median_pass(|| {
        let mut index = PrefixIndex::new(block_tokens);
        let mut alloc = PagedKvAllocator::unlimited(block_tokens).expect("block size is non-zero");
        for (i, (r, tokens)) in requests.iter().zip(&prompts).enumerate() {
            let m = index.lookup(tokens);
            admitted &= alloc.try_admit(r.id, m.blocks(), r.prompt_len);
            index.commit(tokens, &m, r.id, &mut alloc, true);
            if i >= RESIDENT {
                alloc.release(requests[i - RESIDENT].id);
            }
        }
    });
    if !admitted {
        return Err("prefix probe: an unlimited allocator refused an admission".to_owned());
    }
    Ok(pass * 1e6 / requests.len() as f64)
}
