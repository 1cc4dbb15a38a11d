//! Benchmark harness regenerating every table and figure of the PaSh
//! paper.
//!
//! Each evaluation artifact has a binary that prints paper-style rows
//! (see DESIGN.md §3 for the experiment index):
//!
//! | artifact | binary |
//! |----------|--------|
//! | Tab. 1 (parallelizability study) | `tab1` |
//! | Tab. 2 (one-liner summary)       | `tab2` |
//! | Fig. 7 (speedup vs parallelism)  | `fig7` |
//! | Fig. 8 (Unix50)                  | `fig8` |
//! | §6.3 (NOAA weather)              | `noaa` |
//! | §6.4 (Wikipedia indexing)        | `wiki` |
//! | §6.5 (parallel sort)             | `micro_sort` |
//! | §6.5 (GNU parallel)              | `micro_parallel` |
//!
//! Criterion benches (one per artifact) live under `benches/`.

pub mod baseline;
pub mod dataplane;
pub mod fixtures;
pub mod regexbench;
pub mod rsplitbench;
pub mod suites {
    //! Benchmark script collections.
    pub mod oneliners;
    pub mod unix50;
    pub mod usecases;
}

use pash_core::compile::PashConfig;
use pash_core::dfg::transform::{EagerPolicy, SplitPolicy};

/// The Fig. 7 configuration axes, by their legend names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig7Config {
    /// `No Eager`: both eager and split disabled.
    NoEager,
    /// `Blocking Eager`: bounded relays only.
    BlockingEager,
    /// `Parallel`: eager enabled, no split nodes.
    Parallel,
    /// `Par + Split`: eager + general split.
    ParSplit,
    /// `Par + B.Split`: eager + input-aware split.
    ParBSplit,
}

impl Fig7Config {
    /// All configurations, in the figure's legend order.
    pub fn all() -> [Fig7Config; 5] {
        [
            Fig7Config::ParSplit,
            Fig7Config::ParBSplit,
            Fig7Config::Parallel,
            Fig7Config::BlockingEager,
            Fig7Config::NoEager,
        ]
    }

    /// The legend label.
    pub fn label(self) -> &'static str {
        match self {
            Fig7Config::NoEager => "No Eager",
            Fig7Config::BlockingEager => "Blocking Eager",
            Fig7Config::Parallel => "Parallel",
            Fig7Config::ParSplit => "Par + Split",
            Fig7Config::ParBSplit => "Par + B.Split",
        }
    }

    /// The compiler configuration at a width.
    pub fn pash_config(self, width: usize) -> PashConfig {
        let (eager, split) = match self {
            Fig7Config::NoEager => (EagerPolicy::Off, SplitPolicy::Off),
            Fig7Config::BlockingEager => (EagerPolicy::Blocking, SplitPolicy::Off),
            Fig7Config::Parallel => (EagerPolicy::Full, SplitPolicy::Off),
            Fig7Config::ParSplit => (EagerPolicy::Full, SplitPolicy::General),
            Fig7Config::ParBSplit => (EagerPolicy::Full, SplitPolicy::Sized),
        };
        PashConfig {
            width,
            eager,
            split,
            ..Default::default()
        }
    }
}

/// Formats seconds human-readably (paper style: `79m35s` / `3.2s`).
pub fn fmt_secs(s: f64) -> String {
    if s >= 60.0 {
        format!("{}m{:02.0}s", (s / 60.0) as u64, s % 60.0)
    } else {
        format!("{s:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_axes_match_figure() {
        assert_eq!(Fig7Config::all().len(), 5);
        let c = Fig7Config::NoEager.pash_config(8);
        assert!(matches!(c.eager, EagerPolicy::Off));
        assert!(matches!(c.split, SplitPolicy::Off));
        let c = Fig7Config::ParBSplit.pash_config(8);
        assert!(matches!(c.split, SplitPolicy::Sized));
        assert_eq!(c.width, 8);
    }

    #[test]
    fn fmt_secs_forms() {
        assert_eq!(fmt_secs(3.25), "3.25s");
        assert_eq!(fmt_secs(125.0), "2m05s");
    }
}
