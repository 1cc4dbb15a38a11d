//! Performance-shape simulator for the PaSh reproduction.
//!
//! This container has a single CPU core, so the paper's wall-clock
//! speedups cannot be reproduced directly. Following the substitution
//! rule of DESIGN.md, this crate simulates compiled programs on a
//! configurable C-core machine with disk and network bandwidth
//! ceilings, pipe back-pressure, blocking commands, eager buffering,
//! early-exit cancellation, and process startup costs — the mechanisms
//! behind every performance figure in §6.
//!
//! Correctness is *not* simulated: the `pash-runtime` crate executes
//! the same compiled programs for real and checks byte-identical
//! output.
//!
//! # Examples
//!
//! ```
//! use pash_core::compile::PashConfig;
//! use pash_sim::{simulated_speedup, CostModel, SimConfig};
//!
//! let sizes = [("in.txt".to_string(), 50e6)].into_iter().collect();
//! let s = simulated_speedup(
//!     "cat in.txt | tr A-Z a-z | grep '(a|b)+(c|d)*(ef|gh)+xy' > o",
//!     &PashConfig { width: 16, ..Default::default() },
//!     &sizes, &CostModel::default(), &SimConfig::default(),
//! ).unwrap();
//! assert!(s > 4.0);
//! ```

pub mod cost;
pub mod engine;

pub use cost::{CostModel, Discipline, Profile, Resource};
pub use engine::{simulate_program, simulate_region, InputSizes, SimConfig, SimReport};

use pash_core::compile::{compile_cached, PashConfig};
use pash_core::optimize::CandidatePricer;
use pash_core::plan::RegionPlan;

/// The simulator as a candidate pricer for the adaptive optimizer
/// (`pash_core::optimize`): a region candidate's price is its
/// simulated wall-clock seconds under this pricer's cost model and
/// machine. Calibrate the [`CostModel`] with measured rates from the
/// runtime's profile store to make the pricing profile-guided.
#[derive(Debug, Clone)]
pub struct SimPricer {
    /// Command cost model (priors, optionally calibrated).
    pub cost: CostModel,
    /// Simulated machine.
    pub sim: SimConfig,
    /// Input file sizes in bytes, by path.
    pub sizes: InputSizes,
    /// Bytes arriving on the program's stdin.
    pub stdin_bytes: f64,
}

impl SimPricer {
    /// A pricer over the default 64-core machine.
    pub fn new(cost: CostModel, sizes: InputSizes) -> SimPricer {
        SimPricer {
            cost,
            sim: SimConfig::default(),
            sizes,
            stdin_bytes: 0.0,
        }
    }
}

impl CandidatePricer for SimPricer {
    fn price_region(&self, r: &RegionPlan) -> f64 {
        simulate_region(r, &self.sizes, self.stdin_bytes, &self.cost, &self.sim).seconds
    }
}

/// Compiles a script (through the memoized compile cache) and
/// simulates its execution plan.
pub fn simulate_compiled(
    src: &str,
    cfg: &PashConfig,
    sizes: &InputSizes,
    cm: &CostModel,
    sim: &SimConfig,
) -> Result<SimReport, pash_core::Error> {
    let compiled = compile_cached(src, cfg)?;
    Ok(simulate_program(&compiled.plan, sizes, 0.0, cm, sim))
}

/// Simulated speedup of a configuration over sequential execution.
pub fn simulated_speedup(
    src: &str,
    cfg: &PashConfig,
    sizes: &InputSizes,
    cm: &CostModel,
    sim: &SimConfig,
) -> Result<f64, pash_core::Error> {
    let seq_cfg = PashConfig {
        width: 1,
        ..cfg.clone()
    };
    let seq = simulate_compiled(src, &seq_cfg, sizes, cm, sim)?;
    let par = simulate_compiled(src, cfg, sizes, cm, sim)?;
    Ok(seq.seconds / par.seconds)
}
