//! Performance-shape simulator for the PaSh reproduction.
//!
//! It runs a lowered execution plan on a fluid model of a C-core
//! machine with disk and network bandwidth ceilings, pipe
//! back-pressure, blocking commands, eager buffering, early-exit
//! cancellation and process startup costs.
//!
//! It *prices* plans; it does not stand in for the clock, chooses
//! nothing at run time and gates nothing in CI. `bench/run.sh`, which
//! measures wall-clock time, reports how far the simulator's
//! prediction is from it (`sim.rel_err`).
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
