//! Command cost profiles for the cost model.
//!
//! Each plan node gets a full-core processing rate, an output/input
//! byte ratio, a blocking discipline and, for `head`, an output cap.
//! Command rates are priors that measured rates calibrate
//! ([`CostModel::calibrated`]); the plumbing the runtime itself runs
//! (`cat`, relays, splits, aggregators) is priced at about the low end
//! of the rates the benchmark's traced rows measure for it. The ranges
//! quoted are those of seven traced runs of each workload at `--seed`
//! 1 and 2, on 2 vCPUs; the data-plane rows are the batch workloads'.
//!
//! Profiles are computed from [`PlanOp`]s — the model consumes the
//! lowered execution plan, never the compiler's DFG.

use super::{MeasuredRate, MeasuredRates};
use crate::plan::{PlanOp, SplitMode};

/// How a node consumes and produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Discipline {
    /// Consume and produce concurrently (tr, grep, relays, merges…).
    Streaming,
    /// Consume everything, then emit (sort, general split, tac, diff).
    Blocking,
}

/// A command's cost profile.
#[derive(Debug, Clone, Copy)]
pub(super) struct Profile {
    /// Full-core input consumption rate, bytes/second.
    pub(super) rate: f64,
    /// Output bytes per input byte.
    pub(super) out_ratio: f64,
    /// Consumption/production discipline.
    pub(super) discipline: Discipline,
    /// Stop after producing this many output bytes (`head -n 1`).
    pub(super) close_after_out: Option<f64>,
}

impl Profile {
    fn streaming(rate_mb: f64, out_ratio: f64) -> Profile {
        Profile {
            rate: rate_mb * 1e6,
            out_ratio,
            discipline: Discipline::Streaming,
            close_after_out: None,
        }
    }

    fn blocking(rate_mb: f64, out_ratio: f64) -> Profile {
        Profile {
            discipline: Discipline::Blocking,
            ..Profile::streaming(rate_mb, out_ratio)
        }
    }
}

/// Expansion factor of `fetch` (document bytes per URL byte).
const FETCH_EXPANSION: f64 = 200.0;
/// Expansion factor of `unrle` decompression.
const UNRLE_EXPANSION: f64 = 3.0;
/// The k-way merge's rate, MB/s: `runtime.agg.mb_s` on `sort-merge`
/// (0.45–0.63 GB/s). The counted merge is the same loop, and
/// the aggregators no row measures on bulk data take this rate too:
/// on `short-scripts` that row (0.13–0.22 GB/s) is per-call cost, which
/// the engine's per-node cost already prices.
const MERGE_MB_S: f64 = 530.0;

/// The cost model: rates for every command in the benchmarks.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    /// Measured rates by command name. A finite, positive one
    /// replaces its command's prior rate and out-ratio, while
    /// discipline and early-close behaviour stay model-defined (byte
    /// counters cannot observe those). Empty by default: pure priors.
    measured: MeasuredRates,
}

impl CostModel {
    /// A cost model calibrated with measured command rates.
    pub fn calibrated(measured: MeasuredRates) -> CostModel {
        CostModel { measured }
    }

    /// A prior profile with a measurement applied: a finite, positive
    /// measured rate replaces the prior's, and so does a finite,
    /// non-negative out-ratio beside it. Anything else is ignored.
    fn apply_measurement(prior: Profile, m: &MeasuredRate) -> Profile {
        if !(m.mb_per_s.is_finite() && m.mb_per_s > 0.0) {
            return prior;
        }
        let out_ratio = if m.out_ratio.is_finite() && m.out_ratio >= 0.0 {
            m.out_ratio
        } else {
            prior.out_ratio
        };
        Profile {
            rate: m.mb_per_s * 1e6,
            out_ratio,
            ..prior
        }
    }

    /// The profile of a plan node's operation.
    pub(super) fn profile_for(&self, op: &PlanOp) -> Profile {
        match op {
            PlanOp::Exec { .. } => {
                let argv = op.exec_argv_lossy().expect("exec argv");
                self.command_profile(&argv)
            }
            // A copy from pipe to pipe: `runtime.pipe.mb_s`, 2.2–3.2
            // GB/s.
            PlanOp::Cat => Profile::streaming(2400.0, 1.0),
            // `runtime.relay.mb_s`, 3.5–9.1 GB/s.
            PlanOp::Relay { .. } => Profile::streaming(3500.0, 1.0),
            // The general splitter must see the whole input before it
            // can place cut points (`runtime.split.general_mb_s`,
            // 5.3–8.9 GB/s); every runner runs a sized one as general.
            // The round-robin splitter streams: r_split needs no
            // up-front probing, that is its point
            // (`runtime.split.rr_mb_s`, 1.4–1.9 GB/s).
            PlanOp::Split {
                mode: SplitMode::General | SplitMode::Sized,
            } => Profile::blocking(5000.0, 1.0),
            PlanOp::Split {
                mode: SplitMode::RoundRobin { .. },
            } => Profile::streaming(1400.0, 1.0),
            PlanOp::Aggregate { argv } => self.aggregator_profile(argv),
        }
    }

    fn command_profile(&self, argv: &[String]) -> Profile {
        // Framed workers carry a leading `--framed` mode flag that is
        // not part of the command itself.
        let argv = if argv.first().map(|s| s.as_str()) == Some("--framed") {
            &argv[1..]
        } else {
            argv
        };
        let name = argv.first().map(|s| s.as_str()).unwrap_or("");
        let args: Vec<&str> = argv.iter().skip(1).map(|s| s.as_str()).collect();
        let prior = match name {
            "tr" => Profile::streaming(250.0, 1.0),
            "grep" => {
                // Pattern complexity dominates: a long alternation/
                // closure pattern is the paper's expensive Grep.
                let pattern_len = args
                    .iter()
                    .find(|a| !a.starts_with('-'))
                    .map(|p| p.len())
                    .unwrap_or(4);
                let rate = if pattern_len > 16 { 12.0 } else { 300.0 };
                let ratio = if args.contains(&"-c") { 1e-6 } else { 0.4 };
                Profile::streaming(rate, ratio)
            }
            "cut" => Profile::streaming(70.0, 0.25),
            "sed" => Profile::streaming(45.0, 1.1),
            "sort" => Profile::blocking(28.0, 1.0),
            "uniq" => {
                let ratio = if args.contains(&"-c") { 0.4 } else { 0.35 };
                Profile::streaming(60.0, ratio)
            }
            "wc" => Profile::streaming(120.0, 1e-6),
            "head" => Profile {
                close_after_out: Some(head_tail_bytes(&args)),
                ..Profile::streaming(250.0, 1.0)
            },
            "tail" => Profile::blocking(250.0, 0.01),
            "comm" => Profile::streaming(50.0, 0.5),
            "rev" => Profile::streaming(90.0, 1.0),
            "fold" => Profile::streaming(90.0, 1.0),
            "nl" | "cat" => Profile::streaming(200.0, 1.0),
            "paste" => Profile::blocking(80.0, 1.0),
            "diff" => Profile::blocking(18.0, 0.2),
            "sha1sum" => Profile::streaming(35.0, 1e-6),
            "tac" => Profile::blocking(120.0, 1.0),
            "fetch" => Profile::streaming(40.0, FETCH_EXPANSION),
            // `xargs -n 1 fetch`: a document fetch per URL.
            "xargs" if args.contains(&"fetch") => Profile::streaming(40.0, FETCH_EXPANSION),
            // The command runs in process, once per name: `pashc xargs
            // -n 1 wc -l` over 4 000 names of 0.2–1.1 KB files reads
            // 5.2–5.7 MB/s of names on 2 vCPUs (no traced row runs
            // `xargs`).
            "xargs" => Profile::streaming(5.0, 0.3),
            "unrle" => Profile::streaming(100.0, UNRLE_EXPANSION),
            "html-to-text" => Profile::streaming(6.0, 0.4),
            "word-stem" => Profile::streaming(25.0, 0.9),
            "bigrams-aux" => Profile::streaming(55.0, 2.0),
            "seq" | "echo" => Profile::streaming(200.0, 1.0),
            // Unknown commands: a middling CPU-bound stage.
            _ => Profile::streaming(30.0, 1.0),
        };
        match self.measured.get(name) {
            Some(m) => Self::apply_measurement(prior, m),
            None => prior,
        }
    }

    fn aggregator_profile(&self, argv: &[String]) -> Profile {
        let name = argv.first().map(|s| s.as_str()).unwrap_or("");
        match name {
            // `runtime.agg.mb_s` on `light-stream`, 1.1–1.4 GB/s.
            "pash-agg-reorder" => Profile::streaming(1100.0, 1.0),
            "head" => Profile {
                close_after_out: Some(head_tail_bytes(
                    &argv.iter().skip(1).map(|s| s.as_str()).collect::<Vec<_>>(),
                )),
                ..Profile::streaming(MERGE_MB_S, 1.0)
            },
            "tail" => Profile::blocking(MERGE_MB_S, 0.01),
            _ => Profile::streaming(MERGE_MB_S, 1.0),
        }
    }
}

/// Output bytes after which `head`-like commands close (N lines × an
/// assumed ~40-byte line).
fn head_tail_bytes(args: &[&str]) -> f64 {
    let mut n: f64 = 10.0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if *a == "-n" {
            if let Some(v) = it.next() {
                n = v.parse().unwrap_or(10.0);
            }
        } else if let Some(v) = a.strip_prefix("-n") {
            n = v.parse().unwrap_or(10.0);
        }
    }
    n * 40.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Arg;

    fn cmd(argv: &[&str]) -> PlanOp {
        PlanOp::Exec {
            argv: argv.iter().map(|s| Arg::Lit(s.to_string())).collect(),
            framed: false,
        }
    }

    #[test]
    fn complex_grep_slower_than_simple() {
        let cm = CostModel::default();
        let complex = cm.profile_for(&cmd(&["grep", "(a|b|c|d|e)+(f|g|h)*xyz"]));
        let simple = cm.profile_for(&cmd(&["grep", "gz"]));
        assert!(complex.rate < simple.rate);
    }

    #[test]
    fn sort_is_blocking() {
        let cm = CostModel::default();
        let p = cm.profile_for(&cmd(&["sort", "-rn"]));
        assert_eq!(p.discipline, Discipline::Blocking);
    }

    #[test]
    fn head_closes_early() {
        let cm = CostModel::default();
        let p = cm.profile_for(&cmd(&["head", "-n", "1"]));
        assert_eq!(p.close_after_out, Some(40.0));
    }

    #[test]
    fn fetch_is_network_bound() {
        let cm = CostModel::default();
        for argv in [&["xargs", "-n", "1", "fetch"][..], &["fetch"]] {
            assert_eq!(cm.profile_for(&cmd(argv)).out_ratio, FETCH_EXPANSION);
        }
    }

    #[test]
    fn general_and_sized_splits_block() {
        let cm = CostModel::default();
        for mode in [SplitMode::General, SplitMode::Sized] {
            assert_eq!(
                cm.profile_for(&PlanOp::Split { mode }).discipline,
                Discipline::Blocking
            );
        }
    }

    #[test]
    fn round_robin_split_streams() {
        let cm = CostModel::default();
        for framed in [false, true] {
            assert_eq!(
                cm.profile_for(&PlanOp::Split {
                    mode: SplitMode::RoundRobin { framed }
                })
                .discipline,
                Discipline::Streaming
            );
        }
    }

    #[test]
    fn reorder_aggregator_streams() {
        let cm = CostModel::default();
        let p = cm.profile_for(&PlanOp::Aggregate {
            argv: vec!["pash-agg-reorder".to_string()],
        });
        assert_eq!(p.discipline, Discipline::Streaming);
        assert_eq!(p.out_ratio, 1.0);
    }

    #[test]
    fn measured_rate_calibrates_prior() {
        let mut rates = MeasuredRates::new();
        rates.insert(
            "tr".to_string(),
            MeasuredRate {
                mb_per_s: 50.0,
                out_ratio: 0.5,
                weight: 0.0,
            },
        );
        let cold = CostModel::default();
        let warm = CostModel::calibrated(rates);
        let p_cold = cold.profile_for(&cmd(&["tr", "A-Z", "a-z"]));
        let p_warm = warm.profile_for(&cmd(&["tr", "A-Z", "a-z"]));
        // The measurement replaces the prior, whatever its weight.
        assert_eq!(p_warm.rate, 50e6);
        assert_eq!(p_warm.out_ratio, 0.5);
        // Discipline stays model-defined.
        assert_eq!(p_warm.discipline, p_cold.discipline);
    }

    #[test]
    fn degenerate_measurements_are_ignored() {
        for m in [
            MeasuredRate {
                mb_per_s: 0.0,
                out_ratio: 1.0,
                weight: 5.0,
            },
            MeasuredRate {
                mb_per_s: f64::NAN,
                out_ratio: 1.0,
                weight: 5.0,
            },
            MeasuredRate {
                mb_per_s: -80.0,
                out_ratio: 1.0,
                weight: 5.0,
            },
        ] {
            let mut rates = MeasuredRates::new();
            rates.insert("wc".to_string(), m);
            let warm = CostModel::calibrated(rates);
            let p = warm.profile_for(&cmd(&["wc", "-l"]));
            assert_eq!(
                p.rate,
                CostModel::default().profile_for(&cmd(&["wc", "-l"])).rate
            );
        }
    }

    #[test]
    fn stream_args_profile_like_stdin_operands() {
        let cm = CostModel::default();
        let with_stream = PlanOp::Exec {
            argv: vec![
                Arg::Lit("comm".into()),
                Arg::Lit("-13".into()),
                Arg::Stream(0),
            ],
            framed: false,
        };
        let p = cm.profile_for(&with_stream);
        let q = cm.profile_for(&cmd(&["comm", "-13", "-"]));
        assert_eq!(p.rate, q.rate);
    }
}
