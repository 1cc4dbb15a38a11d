//! Performance-shape simulator for the PaSh reproduction.
//!
//! It runs a lowered execution plan on a fluid model of a C-core
//! machine with disk and network bandwidth ceilings, pipe
//! back-pressure, blocking commands, eager buffering, early-exit
//! cancellation and process startup costs.
//!
//! Its one job is to *price* plans, not to stand in for the clock:
//! the adaptive optimizer (`pash_core::optimize`, through
//! [`SimPricer`]) ranks candidate `(width, split)` shapes with it for
//! `pashd`'s width-0 requests and the `adaptive` gate, and the
//! `dataplane` gate compares the two splitters with it. Wall-clock
//! time is measured by `bench/run.sh`, which also reports how far the
//! simulator's prediction is from it (`sim.rel_err`).
//!
//! Correctness is *not* simulated: the `pash-runtime` crate executes
//! the same plans for real.
//!
//! # Examples
//!
//! ```
//! use pash_core::compile::{compile, PashConfig};
//! use pash_sim::{simulate_program, CostModel, SimConfig};
//!
//! let sizes = [("in.txt".to_string(), 50e6)].into_iter().collect();
//! let src = "cat in.txt | tr A-Z a-z | grep '(a|b)+(c|d)*(ef|gh)+xy' > o";
//! let seconds = |width| {
//!     let plan = compile(src, &PashConfig { width, ..Default::default() }).unwrap().plan;
//!     simulate_program(&plan, &sizes, 0.0, &CostModel::default(), &SimConfig::default()).seconds
//! };
//! assert!(seconds(1) / seconds(16) > 4.0);
//! ```

pub mod cost;
pub mod engine;

pub use cost::{CostModel, Discipline, Profile, Resource};
pub use engine::{simulate_program, simulate_region, InputSizes, SimConfig, SimReport};

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
