//! Profile-guided choice of per-region parallelization shape.
//!
//! PaSh picks one global width and split policy up front, but the best
//! choice varies per stage: commutative aggregators scale wide under
//! round-robin, merge-heavy sorts flatten past 8-way, and skewed
//! inputs punish segment splits. This pass makes the choice measured
//! and local: it compiles the script at a ladder of candidate shapes,
//! prices every candidate *region* through a [`CandidatePricer`] (the
//! simulator's fluid-rate model, optionally calibrated from runtime
//! profiles), and lowers the per-region argmin.
//!
//! The pass only selects among plan shapes the compiler could already
//! produce — every candidate is a `(width, split)` point that the
//! differential suite proves byte-identical to the sequential run —
//! so adaptivity is output-invariant by construction.
//!
//! Dependency direction: this crate cannot see the simulator, so the
//! pricing side is a trait. `pash-sim` implements it (`SimPricer`);
//! the runtime's profile store supplies [`MeasuredRate`]s that
//! calibrate the pricer's cost model when warm.

use std::collections::HashMap;
use std::sync::Arc;

use crate::compile::{compile_cached, Compiled, PashConfig, RegionShape};
use crate::dfg::transform::SplitPolicy;
use crate::plan::RegionPlan;
use crate::Error;

/// A decay-merged throughput observation for one command, as the
/// runtime's profile store reports it and the simulator's cost model
/// consumes it. Lives here because core is the only crate both sides
/// can name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredRate {
    /// Observed processing rate in MB/s of input consumed.
    pub mb_per_s: f64,
    /// Observed bytes-out / bytes-in ratio.
    pub out_ratio: f64,
    /// Total observation weight (decayed sample mass) behind the
    /// estimate — pricing trusts heavier estimates more.
    pub weight: f64,
}

/// Measured rates keyed by command name (`argv[0]`).
pub type MeasuredRates = HashMap<String, MeasuredRate>;

/// Prices one candidate region plan, in (simulated) seconds. Lower is
/// better. Implementations must be deterministic: the optimizer's
/// choice feeds cache keys.
pub trait CandidatePricer {
    /// Estimated wall-clock seconds for the region.
    fn price_region(&self, r: &RegionPlan) -> f64;
}

/// Split policies considered at widths > 1, in candidate order.
const SPLITS: [SplitPolicy; 2] = [SplitPolicy::Sized, SplitPolicy::RoundRobin];

/// The *smallest* shape whose price is within this relative margin of
/// the best price is preferred. Keeps choices stable under pricing
/// jitter and avoids burning cores for a 1% simulated win.
const HYSTERESIS: f64 = 0.02;

/// Optimizer knobs.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Widths are swept in powers of two up to this clamp (inclusive;
    /// the clamp itself is a candidate even when not a power of two).
    pub max_width: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig { max_width: 16 }
    }
}

impl OptimizerConfig {
    /// The candidate width ladder: 1, then powers of two up to the
    /// clamp, then the clamp itself.
    pub fn widths(&self) -> Vec<usize> {
        let max = self.max_width.max(1);
        let mut widths = vec![1];
        let mut w = 2;
        while w <= max {
            widths.push(w);
            w *= 2;
        }
        if widths.last() != Some(&max) {
            widths.push(max);
        }
        widths
    }

    /// All candidate shapes, cheapest-first (ascending width, then
    /// [`SPLITS`] order). Width 1 has a single `Off` candidate —
    /// splits are meaningless without fan-out.
    pub fn candidates(&self) -> Vec<RegionShape> {
        let mut out = Vec::new();
        for width in self.widths() {
            if width <= 1 {
                out.push(RegionShape {
                    width: 1,
                    split: SplitPolicy::Off,
                });
            } else {
                for split in SPLITS {
                    out.push(RegionShape { width, split });
                }
            }
        }
        out
    }
}

/// One region's decision, with the evidence.
#[derive(Debug, Clone)]
pub struct RegionChoice {
    /// Region index (plan-step order).
    pub region: usize,
    /// The chosen shape.
    pub shape: RegionShape,
    /// The chosen shape's price, in simulated seconds.
    pub priced_seconds: f64,
    /// The best fixed global candidate's price for this region (the
    /// floor the choice was measured against).
    pub best_seconds: f64,
    /// The worst candidate's price for this region.
    pub worst_seconds: f64,
}

/// The optimizer's result: the lowered plan plus the decision trail.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The configuration that produced `compiled` (base config with
    /// `per_region` filled in).
    pub config: PashConfig,
    /// The compiled program at the chosen shapes.
    pub compiled: Arc<Compiled>,
    /// Per-region decisions, indexed by region.
    pub choices: Vec<RegionChoice>,
}

impl Optimized {
    /// The widest chosen width (what a "chosen width" summary metric
    /// reports for multi-region scripts).
    pub fn chosen_width(&self) -> usize {
        self.choices
            .iter()
            .map(|c| c.shape.width)
            .max()
            .unwrap_or(1)
    }

    /// The split policy of the widest chosen region.
    pub fn chosen_split(&self) -> SplitPolicy {
        self.choices
            .iter()
            .max_by_key(|c| c.shape.width)
            .map(|c| c.shape.split)
            .unwrap_or(SplitPolicy::Off)
    }
}

/// Chooses a per-region `(width, split)` shape for `src` by pricing
/// every candidate region through `pricer`, then compiles the chosen
/// shape. `base` supplies everything the optimizer does not decide
/// (eager policy, agg tree, env); its `width`/`split`/`per_region` are
/// ignored.
///
/// All candidate compilations go through [`compile_cached`], so a
/// daemon re-optimizing a hot script pays no repeated front-end work.
pub fn optimize(
    src: &str,
    base: &PashConfig,
    pricer: &dyn CandidatePricer,
    ocfg: &OptimizerConfig,
) -> Result<Optimized, Error> {
    let shapes = ocfg.candidates();
    let mut candidates = Vec::with_capacity(shapes.len());
    for shape in shapes {
        let cfg = PashConfig {
            width: shape.width,
            split: shape.split,
            per_region: Vec::new(),
            ..base.clone()
        };
        candidates.push((shape, compile_cached(src, &cfg)?));
    }
    // All candidates share the front-end, so they agree on the region
    // count; use the first as the reference.
    let region_count = candidates
        .first()
        .map(|(_, c)| c.plan.region_count())
        .unwrap_or(0);

    let mut choices = Vec::with_capacity(region_count);
    let mut per_region = Vec::with_capacity(region_count);
    for region in 0..region_count {
        // Price this region under every candidate shape.
        let priced: Vec<(RegionShape, f64)> = candidates
            .iter()
            .filter_map(|(shape, c)| {
                c.plan
                    .regions()
                    .nth(region)
                    .map(|r| (*shape, pricer.price_region(r)))
            })
            .collect();
        let best = priced.iter().map(|(_, s)| *s).fold(f64::INFINITY, f64::min);
        let worst = priced.iter().map(|(_, s)| *s).fold(0.0f64, f64::max);
        // Candidates are ordered cheapest-shape-first, so the first
        // one within the hysteresis band of the best price is the
        // smallest acceptable shape.
        let (shape, seconds) = priced
            .iter()
            .find(|(_, s)| *s <= best * (1.0 + HYSTERESIS))
            .copied()
            .unwrap_or((
                RegionShape {
                    width: 1,
                    split: SplitPolicy::Off,
                },
                best,
            ));
        per_region.push(shape);
        choices.push(RegionChoice {
            region,
            shape,
            priced_seconds: seconds,
            best_seconds: best,
            worst_seconds: worst,
        });
    }

    let config = PashConfig {
        // The global width/split are the widest region's choice so
        // that code reading only the globals sees something sensible;
        // `per_region` is what actually binds.
        width: per_region.iter().map(|s| s.width).max().unwrap_or(1),
        split: per_region
            .iter()
            .max_by_key(|s| s.width)
            .map(|s| s.split)
            .unwrap_or(SplitPolicy::Off),
        per_region,
        ..base.clone()
    };
    let compiled = compile_cached(src, &config)?;
    Ok(Optimized {
        config,
        compiled,
        choices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Prices a region by node count — wider is pricier, so the
    /// optimizer must collapse to width 1.
    struct NodeCountPricer;

    impl CandidatePricer for NodeCountPricer {
        fn price_region(&self, r: &RegionPlan) -> f64 {
            r.nodes.len() as f64
        }
    }

    /// Prices a region by 1/nodes — wider is always cheaper, so the
    /// optimizer must saturate at the clamp.
    struct InverseNodePricer;

    impl CandidatePricer for InverseNodePricer {
        fn price_region(&self, r: &RegionPlan) -> f64 {
            1.0 / r.nodes.len() as f64
        }
    }

    #[test]
    fn width_ladder_covers_clamp() {
        let cfg = OptimizerConfig { max_width: 12 };
        assert_eq!(cfg.widths(), vec![1, 2, 4, 8, 12]);
        let cfg = OptimizerConfig { max_width: 16 };
        assert_eq!(cfg.widths(), vec![1, 2, 4, 8, 16]);
        let cfg = OptimizerConfig { max_width: 1 };
        assert_eq!(cfg.widths(), vec![1]);
    }

    #[test]
    fn serial_pricer_collapses_to_width_one() {
        let out = optimize(
            "cat in.txt | tr A-Z a-z | sort > out.txt",
            &PashConfig::default(),
            &NodeCountPricer,
            &OptimizerConfig::default(),
        )
        .expect("optimize");
        assert_eq!(out.chosen_width(), 1);
        assert_eq!(out.compiled.stats.nodes.commands, 2);
    }

    #[test]
    fn parallel_pricer_saturates_at_clamp() {
        let ocfg = OptimizerConfig { max_width: 8 };
        let out = optimize(
            "cat in.txt | tr A-Z a-z | sort > out.txt",
            &PashConfig::default(),
            &InverseNodePricer,
            &ocfg,
        )
        .expect("optimize");
        assert_eq!(out.chosen_width(), 8);
        assert!(out.choices[0].worst_seconds >= out.choices[0].best_seconds);
    }

    #[test]
    fn per_region_override_binds_in_compile() {
        let src = "cat a.txt | tr A-Z a-z > b.txt\ncat c.txt | tr a-z A-Z > d.txt";
        let narrow = crate::compile::compile(
            src,
            &PashConfig {
                width: 1,
                ..Default::default()
            },
        )
        .expect("compile");
        assert_eq!(narrow.plan.region_count(), 2);
        let cfg = PashConfig {
            width: 2,
            per_region: vec![
                RegionShape {
                    width: 1,
                    split: SplitPolicy::Off,
                },
                RegionShape {
                    width: 4,
                    split: SplitPolicy::Sized,
                },
            ],
            ..Default::default()
        };
        let mixed = crate::compile::compile(src, &cfg).expect("compile");
        let sizes: Vec<usize> = mixed.plan.regions().map(|r| r.nodes.len()).collect();
        let seq_sizes: Vec<usize> = narrow.plan.regions().map(|r| r.nodes.len()).collect();
        assert_eq!(sizes[0], seq_sizes[0], "region 0 pinned to width 1");
        assert!(
            sizes[1] > seq_sizes[1] * 2,
            "region 1 widened to 4 copies + merge"
        );
    }

    #[test]
    fn cache_key_distinguishes_per_region_shapes() {
        let base = PashConfig::default();
        let shaped = PashConfig {
            per_region: vec![RegionShape {
                width: 4,
                split: SplitPolicy::RoundRobin,
            }],
            ..Default::default()
        };
        assert_ne!(base.cache_key(), shaped.cache_key());
        assert!(
            base.cache_key().len() < shaped.cache_key().len(),
            "empty per_region must leave legacy keys untouched"
        );
    }

    #[test]
    fn region_fingerprint_is_local() {
        let one = crate::compile::compile("tr A-Z a-z < a.txt > b.txt", &PashConfig::default())
            .expect("compile");
        let two = crate::compile::compile(
            "tr A-Z a-z < a.txt > b.txt\necho done > s.txt",
            &PashConfig::default(),
        )
        .expect("compile");
        let f1 = one.plan.regions().next().expect("region").fingerprint();
        let f2 = two.plan.regions().next().expect("region").fingerprint();
        assert_eq!(f1, f2, "region fingerprint must ignore sibling steps");
        assert_ne!(one.plan.fingerprint(), two.plan.fingerprint());
    }
}
