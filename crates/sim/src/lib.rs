//! Performance model for the PaSh reproduction.
//!
//! It prices a lowered execution plan in one pass per region: bytes
//! flow from the input sizes through each node at its rate, and a
//! region costs `max(critical path, total busy ÷ cores)` plus a fixed
//! cost per node (ROADMAP item 4's model). Command rates are priors
//! that measured rates calibrate; the runtime's own plumbing is priced
//! at the rates the benchmark measures for it.
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

pub use cost::{CostModel, Discipline, Profile};
pub use engine::{simulate_program, InputSizes, SimConfig, SimReport};
