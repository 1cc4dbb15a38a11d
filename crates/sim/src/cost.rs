//! Command cost profiles for the performance-shape simulator.
//!
//! The simulator substitutes for the paper's 64-core × 512 GB testbed
//! (this container has one core — see DESIGN.md §2). Profiles give
//! each plan node a full-core processing rate, an output/input byte
//! ratio, a blocking discipline, and a bottleneck resource. Absolute
//! rates are calibration constants; the *relative* rates and the
//! blocking semantics are what reproduce the paper's shapes.
//!
//! Profiles are computed from [`PlanOp`]s — the simulator consumes the
//! lowered execution plan, never the compiler's DFG.

use pash_core::optimize::{MeasuredRate, MeasuredRates};
use pash_core::plan::{PlanOp, SplitMode};

/// Which resource a node's work draws on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// CPU: shares the machine's cores.
    Cpu,
    /// Disk bandwidth (file scans with trivial compute).
    Disk,
    /// Network bandwidth (the `fetch` stages).
    Net,
}

/// How a node consumes and produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Consume and produce concurrently (tr, grep, relays, merges…).
    Streaming,
    /// Consume everything, then emit (sort, general split, tac, diff).
    Blocking,
}

/// A command's cost profile.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Full-core input consumption rate, bytes/second.
    pub rate: f64,
    /// Output bytes per input byte.
    pub out_ratio: f64,
    /// Consumption/production discipline.
    pub discipline: Discipline,
    /// Bottleneck resource.
    pub resource: Resource,
    /// Stop after producing this many output bytes (`head -n 1`).
    pub close_after_out: Option<f64>,
}

impl Profile {
    fn streaming(rate_mb: f64, out_ratio: f64) -> Profile {
        Profile {
            rate: rate_mb * 1e6,
            out_ratio,
            discipline: Discipline::Streaming,
            resource: Resource::Cpu,
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

/// The cost model: rates for every command in the benchmarks.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Expansion factor of `fetch` (document bytes per URL byte).
    pub fetch_expansion: f64,
    /// Expansion factor of `unrle` decompression.
    pub unrle_expansion: f64,
    /// Profile-measured rates by command name, from the runtime's
    /// profile store. These *calibrate* the static priors: the
    /// measured rate and out-ratio are blended in proportionally to
    /// their observation weight, while discipline, resource, and
    /// early-close behaviour stay model-defined (the runtime cannot
    /// observe those from byte counters). Empty by default (cold
    /// start: pure priors).
    pub measured: MeasuredRates,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            fetch_expansion: 200.0,
            unrle_expansion: 3.0,
            measured: MeasuredRates::new(),
        }
    }
}

impl CostModel {
    /// A cost model calibrated with measured command rates.
    pub fn calibrated(measured: MeasuredRates) -> CostModel {
        CostModel {
            measured,
            ..Default::default()
        }
    }

    /// Blends a measured observation into a prior profile. Trust grows
    /// with observation weight: weight 1 moves halfway to the
    /// measurement, heavy evidence converges on it. Non-finite or
    /// non-positive measurements are ignored.
    fn apply_measurement(prior: Profile, m: &MeasuredRate) -> Profile {
        if !(m.mb_per_s.is_finite() && m.mb_per_s > 0.0 && m.weight > 0.0) {
            return prior;
        }
        let trust = m.weight / (m.weight + 1.0);
        let rate = prior.rate * (1.0 - trust) + m.mb_per_s * 1e6 * trust;
        let out_ratio = if m.out_ratio.is_finite() && m.out_ratio >= 0.0 {
            prior.out_ratio * (1.0 - trust) + m.out_ratio * trust
        } else {
            prior.out_ratio
        };
        Profile {
            rate,
            out_ratio,
            ..prior
        }
    }
    /// The profile of a plan node's operation.
    pub fn profile_for(&self, op: &PlanOp) -> Profile {
        match op {
            PlanOp::Exec { .. } => {
                let argv = op.exec_argv_lossy().expect("exec argv");
                self.command_profile(&argv)
            }
            PlanOp::Cat => Profile {
                resource: Resource::Cpu,
                ..Profile::streaming(400.0, 1.0)
            },
            PlanOp::Relay { .. } => Profile::streaming(300.0, 1.0),
            // The general splitter must see the whole input before it
            // can place cut points; the sized and round-robin
            // splitters stream (r_split needs no up-front probing —
            // that is its point).
            PlanOp::Split {
                mode: SplitMode::General,
            } => Profile::blocking(200.0, 1.0),
            PlanOp::Split {
                mode: SplitMode::Sized,
            } => Profile::streaming(300.0, 1.0),
            PlanOp::Split {
                mode: SplitMode::RoundRobin { .. },
            } => Profile::streaming(300.0, 1.0),
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
            "sort" => {
                // `--parallel=N`: GNU sort's internal threading, the
                // §6.5 baseline. Sub-linear scaling that saturates
                // around 8 threads ("sort's scalability is inherently
                // limited", §6.5).
                let threads: f64 = args
                    .iter()
                    .find_map(|a| a.strip_prefix("--parallel="))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(1.0);
                // Saturates around 3.5× ("sort's scalability is
                // inherently limited", §6.5's SGNU curve).
                let factor = threads.min(64.0).powf(0.5).min(3.5);
                Profile::blocking(28.0 * factor, 1.0)
            }
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
            "xargs" => {
                // `xargs -n 1 fetch`: network-bound document fetch.
                if args.contains(&"fetch") {
                    Profile {
                        resource: Resource::Net,
                        ..Profile::streaming(40.0, self.fetch_expansion)
                    }
                } else {
                    // Non-fetch xargs forks one process per token
                    // (`xargs -n 1 wc`): spawn-bound, very slow per
                    // byte but embarrassingly parallel (the paper's
                    // Shortest-scripts is 28m45s over 85 MB).
                    Profile::streaming(0.08, 0.3)
                }
            }
            "fetch" => Profile {
                resource: Resource::Net,
                ..Profile::streaming(40.0, self.fetch_expansion)
            },
            "unrle" => Profile::streaming(100.0, self.unrle_expansion),
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
            // The counted mode is the same merge loop.
            "pash-agg-sort" | "pash-agg-sort-c" => Profile::streaming(120.0, 1.0),
            "pash-agg-uniq" | "pash-agg-uniq-c" => Profile::streaming(150.0, 1.0),
            "pash-agg-wc" | "pash-agg-sum" => Profile::streaming(200.0, 1.0),
            "pash-agg-tac" => Profile::streaming(250.0, 1.0),
            "pash-agg-bigram" => Profile::streaming(150.0, 1.0),
            // Frame stripping plus a bounded (k−1 block) reorder
            // buffer: cheap and streaming.
            "pash-agg-reorder" => Profile::streaming(250.0, 1.0),
            "head" => Profile {
                close_after_out: Some(head_tail_bytes(
                    &argv.iter().skip(1).map(|s| s.as_str()).collect::<Vec<_>>(),
                )),
                ..Profile::streaming(250.0, 1.0)
            },
            "tail" => Profile::blocking(250.0, 0.01),
            _ => Profile::streaming(150.0, 1.0),
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
    use pash_core::plan::Arg;

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
        let p = cm.profile_for(&cmd(&["xargs", "-n", "1", "fetch"]));
        assert_eq!(p.resource, Resource::Net);
        assert!(p.out_ratio > 1.0);
    }

    #[test]
    fn sized_split_streams_general_blocks() {
        let cm = CostModel::default();
        assert_eq!(
            cm.profile_for(&PlanOp::Split {
                mode: SplitMode::General
            })
            .discipline,
            Discipline::Blocking
        );
        assert_eq!(
            cm.profile_for(&PlanOp::Split {
                mode: SplitMode::Sized
            })
            .discipline,
            Discipline::Streaming
        );
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
                out_ratio: 1.0,
                weight: 9.0,
            },
        );
        let cold = CostModel::default();
        let warm = CostModel::calibrated(rates);
        let p_cold = cold.profile_for(&cmd(&["tr", "A-Z", "a-z"]));
        let p_warm = warm.profile_for(&cmd(&["tr", "A-Z", "a-z"]));
        // Weight 9 → trust 0.9: 250 * 0.1 + 50 * 0.9 = 70 MB/s.
        assert!(p_warm.rate < p_cold.rate);
        assert!((p_warm.rate - 70e6).abs() < 1e3);
        // Discipline and resource stay model-defined.
        assert_eq!(p_warm.discipline, p_cold.discipline);
        assert_eq!(p_warm.resource, p_cold.resource);
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
                mb_per_s: 80.0,
                out_ratio: 1.0,
                weight: 0.0,
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
