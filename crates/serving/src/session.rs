//! An instantiated serving backend: the simulator (or tensor-parallel
//! ring) a [`ServingEngine`] configuration prices against, and the phase
//! memo its cores share, owned so that incremental [`EngineCore`]s and
//! [`PhasePricer`]s can borrow them.

use cimtpu_core::Simulator;
use cimtpu_kv::{KvFootprint, PagedKvAllocator};
use cimtpu_multi::MultiTpu;
use cimtpu_units::{Error, Result};

use crate::engine::{Parallelism, ServingEngine};
use crate::memory::MemoryConfig;
use crate::policy::BatchPolicy;
use crate::pricer::{PhaseMemo, PhasePricer, ServingModel};
use crate::step::EngineCore;

#[derive(Debug)]
enum Backend {
    Single(Simulator),
    Ring(MultiTpu),
}

/// One engine configuration instantiated against real pricing state: the
/// chip simulator (or tensor-parallel ring), the phase memo, the hosted
/// model, and the policy/memory configuration. The session owns what the
/// borrowing front-ends need:
///
/// - [`EngineSession::core`] — an incremental [`EngineCore`] running the
///   full batching engine (what [`ServingEngine::run`] drives, and what a
///   cluster driver interleaves across replicas of one configuration);
/// - [`EngineSession::pricer`] — a bare [`PhasePricer`] for drivers that
///   schedule phases themselves (the cluster crate's disaggregated
///   prefill/decode pools);
/// - [`EngineSession::allocator`] / [`EngineSession::footprint`] — the
///   paged KV allocator and per-executor footprint derived from the
///   configured budget.
#[derive(Debug)]
pub struct EngineSession {
    model: ServingModel,
    policy: BatchPolicy,
    memory: MemoryConfig,
    parallelism: Parallelism,
    backend: Backend,
    /// Phase costs shared by every core of this session. Pricing is a pure
    /// function of the configuration and the key, so sharing never changes
    /// a simulated result.
    memo: PhaseMemo,
}

impl EngineSession {
    /// Instantiates `engine`'s backend (builds the simulator or ring; when
    /// `CIMTPU_CACHE_DIR` is set the underlying mapping cache loads from
    /// disk) with an empty phase memo.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid chip or memory configuration, or
    /// chunked prefill on a tensor-parallel ring.
    pub fn new(engine: &ServingEngine) -> Result<Self> {
        let memory = engine.memory();
        memory.validate()?;
        let parallelism = engine.parallelism();
        if memory.chunk_tokens.is_some()
            && matches!(parallelism, Parallelism::TensorParallel { .. })
        {
            return Err(Error::invalid_config(
                "chunked prefill is not supported on a tensor-parallel ring",
            ));
        }
        if memory.prefix_sharing && matches!(parallelism, Parallelism::TensorParallel { .. }) {
            return Err(Error::invalid_config(
                "prefix sharing is not supported on a tensor-parallel ring \
                 (shared-tail pricing needs chunked prefill)",
            ));
        }
        let backend = match parallelism {
            Parallelism::Replicated { .. } => {
                Backend::Single(Simulator::new(engine.chip().clone())?)
            }
            Parallelism::TensorParallel { chips } => {
                Backend::Ring(MultiTpu::new(engine.chip().clone(), chips)?)
            }
        };
        Ok(EngineSession {
            model: engine.model().clone(),
            policy: engine.policy(),
            memory,
            parallelism,
            backend,
            memo: PhaseMemo::default(),
        })
    }

    /// The hosted model.
    pub fn model(&self) -> &ServingModel {
        &self.model
    }

    /// The batching policy.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// The memory configuration.
    pub fn memory(&self) -> MemoryConfig {
        self.memory
    }

    /// The chip organization.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// A fresh phase pricer against this session's backend. Its phase memo
    /// is its own and starts empty; only the per-operator `MappingCache`
    /// underneath is shared (and warm). Cores use the session's shared
    /// memo instead (see [`EngineSession::core`]).
    pub fn pricer(&self) -> PhasePricer<'_> {
        match &self.backend {
            Backend::Single(sim) => PhasePricer::single(&self.model, sim),
            Backend::Ring(ring) => PhasePricer::tensor_parallel(&self.model, ring),
        }
    }

    /// A fresh incremental engine core over this session: empty KV
    /// allocators, prefix index and batch state. Its pricer borrows the
    /// session's phase memo, so every core of one session (a fleet's
    /// identical replicas, a crashed replica's restart) shares phase
    /// costs: what one core priced, the others hit. Simulated results are
    /// the same as with a fresh memo.
    ///
    /// # Errors
    ///
    /// Returns an error if the KV budget cannot be derived (zero-sized
    /// blocks, invalid sharding).
    pub fn core(&self) -> Result<EngineCore<'_>> {
        let executors = self.parallelism.executors();
        let allocs: Vec<PagedKvAllocator> =
            (0..executors).map(|_| self.allocator()).collect::<Result<_>>()?;
        Ok(EngineCore::new(
            self.pricer().sharing(&self.memo),
            self.policy,
            self.memory,
            self.parallelism.chips(),
            allocs,
        ))
    }

    /// Per-executor KV footprint of the hosted model (sharded across a
    /// tensor-parallel ring).
    ///
    /// # Errors
    ///
    /// Returns an error for zero-way sharding (unreachable via public
    /// constructors).
    pub fn footprint(&self) -> Result<KvFootprint> {
        match (&self.model, self.parallelism) {
            (ServingModel::Llm(m), Parallelism::TensorParallel { chips }) => {
                KvFootprint::sharded(m, chips)
            }
            (ServingModel::Llm(m), Parallelism::Replicated { .. }) => Ok(KvFootprint::of(m)),
            (ServingModel::Dit { .. }, _) => Ok(KvFootprint::none()),
        }
    }

    /// One executor's paged KV allocator from the configured budget.
    ///
    /// # Errors
    ///
    /// Returns an error for a zero block size.
    pub fn allocator(&self) -> Result<PagedKvAllocator> {
        let footprint = self.footprint()?;
        let budget = self.memory.budget.resolve(self.hbm_capacity(), &footprint);
        PagedKvAllocator::from_budget(budget, &footprint, self.memory.block_tokens)
    }

    fn hbm_capacity(&self) -> cimtpu_units::Bytes {
        match &self.backend {
            Backend::Single(sim) => sim.config().hbm_capacity(),
            Backend::Ring(ring) => ring.simulator().config().hbm_capacity(),
        }
    }

    /// Persists the backend's mapping cache (best effort, no-op without
    /// `CIMTPU_CACHE_DIR`).
    pub fn persist_cache(&self) {
        let _ = match &self.backend {
            Backend::Single(sim) => sim.persist_cache(),
            Backend::Ring(ring) => ring.simulator().persist_cache(),
        };
    }
}

#[cfg(test)]
mod tests {
    use cimtpu_core::{SegmentCost, TpuConfig};
    use cimtpu_models::TransformerConfig;

    use super::*;

    fn session() -> EngineSession {
        let engine = ServingEngine::new(
            TpuConfig::tpuv4i(),
            ServingModel::Llm(TransformerConfig::new("Tiny-2L", 2, 4, 256, 1024).unwrap()),
            Parallelism::Replicated { chips: 1 },
            BatchPolicy::Continuous { max_batch: 4 },
        )
        .unwrap();
        EngineSession::new(&engine).unwrap()
    }

    fn costs(pricer: &PhasePricer<'_>) -> Vec<SegmentCost> {
        let mut out = Vec::new();
        for batch in [1, 3] {
            out.push(pricer.prefill(batch, 32).unwrap());
            out.push(pricer.prefill_chunk(batch, 16, 48).unwrap());
            out.push(pricer.step(batch, 40).unwrap());
        }
        out
    }

    #[test]
    fn cores_of_one_session_share_the_phase_memo() {
        let shared = session();
        let first = shared.core().unwrap();
        let priced = costs(first.pricer());
        let size = first.pricer().memo_len();
        assert_eq!(size, priced.len());

        // A second core (a twin replica, or a restart) hits every query.
        let second = shared.core().unwrap();
        assert_eq!(second.pricer().memo_len(), size, "the memo is shared");
        assert_eq!(costs(second.pricer()), priced);
        assert_eq!(second.pricer().memo_len(), size, "second core's queries are hits");

        // Same costs as a core of a fresh session pricing from scratch.
        let fresh = session();
        let cold = fresh.core().unwrap();
        assert_eq!(cold.pricer().memo_len(), 0);
        assert_eq!(costs(cold.pricer()), priced);

        // A bare pricer keeps its own memo, empty at the start.
        let bare = shared.pricer();
        assert_eq!(bare.memo_len(), 0);
        assert_eq!(costs(&bare), priced);
        assert_eq!(bare.memo_len(), size);
        assert_eq!(first.pricer().memo_len(), size, "a bare pricer never fills the session memo");
    }
}
