//! The paper's three headline claims, measured on the chip model.
//!
//! Definitions follow `tests/paper_claims.rs`: the TPUv4i baseline
//! against the nine Table IV CIM designs, GPT-3 30B at the Fig. 7 spec
//! (batch 8, 1024 in / 512 out) and DiT-XL/2 at batch 8, 512×512.

use cimtpu_core::{inference, Simulator, TpuConfig};
use cimtpu_models::{presets, LlmInferenceSpec};

/// Abstract: up to 44.2% faster LLM inference.
pub const PAPER_LLM: f64 = 0.442;
/// Abstract: up to 33.8% faster DiT inference.
pub const PAPER_DIT: f64 = 0.338;
/// Abstract: up to 27.3x less MXU energy.
pub const PAPER_ENERGY_X: f64 = 27.3;

/// Batch and resolution of the DiT claim.
pub const DIT_BATCH: u64 = 8;
pub const DIT_RESOLUTION: u64 = 512;

/// The measured headline claims.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claims {
    /// Best LLM latency improvement over the baseline (fraction).
    pub llm: f64,
    /// Best DiT latency improvement over the baseline (fraction).
    pub dit: f64,
    /// Largest MXU energy reduction (factor).
    pub energy_x: f64,
}

impl Claims {
    /// Folds per-design results — `(llm latency s, llm MXU energy J,
    /// dit latency s)`, the baseline first and then the Table IV designs —
    /// into the three claims.
    pub fn from_points(base: (f64, f64, f64), designs: &[(f64, f64, f64)]) -> Claims {
        let mut c = Claims {
            llm: f64::MIN,
            dit: f64::MIN,
            energy_x: 0.0,
        };
        for &(llm_s, llm_j, dit_s) in designs {
            c.llm = c.llm.max(1.0 - llm_s / base.0);
            c.dit = c.dit.max(1.0 - dit_s / base.2);
            c.energy_x = c.energy_x.max(base.1 / llm_j);
        }
        c
    }

    /// Prices the baseline and the Table IV grid from cold simulators.
    pub fn measure() -> Result<Claims, String> {
        let spec = LlmInferenceSpec::paper_fig7(8).map_err(|e| e.to_string())?;
        let (gpt3, dit) = (presets::gpt3_30b(), presets::dit_xl_2());
        let point = |cfg: TpuConfig| -> Result<(f64, f64, f64), String> {
            let sim = Simulator::new(cfg).map_err(|e| e.to_string())?;
            let llm = inference::run_llm(&sim, &gpt3, spec).map_err(|e| e.to_string())?;
            let d = inference::run_dit(&sim, &dit, DIT_BATCH, DIT_RESOLUTION)
                .map_err(|e| e.to_string())?;
            Ok((
                llm.total_latency().get(),
                llm.total_mxu_energy().get(),
                d.total_latency.get(),
            ))
        };
        let base = point(TpuConfig::tpuv4i())?;
        let designs = TpuConfig::table4_designs()
            .into_iter()
            .map(point)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Claims::from_points(base, &designs))
    }

    /// Mean relative gap of the three claims to the paper, in percent.
    pub fn gap_pct(&self) -> f64 {
        let gap = |measured: f64, paper: f64| (measured - paper).abs() / paper;
        100.0
            * (gap(self.llm, PAPER_LLM)
                + gap(self.dit, PAPER_DIT)
                + gap(self.energy_x, PAPER_ENERGY_X))
            / 3.0
    }

    /// Prints measured vs paper.
    pub fn print(&self) {
        println!(
            "  headline claims (measured vs paper): LLM {:.1}% vs {:.1}%, DiT {:.1}% vs {:.1}%, \
             MXU energy {:.1}x vs {:.1}x",
            100.0 * self.llm,
            100.0 * PAPER_LLM,
            100.0 * self.dit,
            100.0 * PAPER_DIT,
            self.energy_x,
            PAPER_ENERGY_X
        );
    }
}
