//! `adaptive` — prices profile-guided per-region parallelism against
//! every fixed global configuration, on the skewed corpus where the
//! choice actually matters.
//!
//! ```text
//! adaptive --out BENCH_adaptive.json [--mb 64]
//! ```
//!
//! The corpus is the Unix-for-NLP family (single-region pipelines with
//! very different stage mixes) replayed through the fluid-rate
//! simulator over a line-length-skewed input: the general segment
//! split deals its first worker half the bytes (`split_shares`), the
//! round-robin split stays balanced by construction. A *fixed*
//! configuration applies one `(width, split)` to every script — the
//! global-flag status quo. The *adaptive* run lets the optimizer pick
//! per region, pricing candidates through the same rate model.
//!
//! The headline numbers gate in ci.sh:
//! * `adaptive_vs_worst_fixed_speedup` ≥ 1.1 — measured profiles must
//!   actually protect against a bad global choice;
//! * `adaptive_vs_best_fixed_ratio` ≤ 1.05 — and never lose more than
//!   noise to the best one.

use std::io::Write as _;
use std::path::PathBuf;

use pash_core::compile::{compile_cached, PashConfig};
use pash_core::dfg::SplitPolicy;
use pash_core::optimize::{optimize, CandidatePricer, OptimizerConfig};
use pash_core::plan::{PlanOp, RegionPlan, SplitMode};
use pash_sim::{simulate_region, CostModel, InputSizes, SimConfig};
use pash_workloads::nlp;

fn usage() -> ! {
    eprintln!("usage: adaptive --out PATH [--mb MB]");
    std::process::exit(2);
}

/// Byte shares modelling line-length skew for a `k`-way general
/// split: the first worker draws half the bytes, the rest divide the
/// remainder evenly (the shape of Fig. 7's skew discussion).
fn skew_shares(k: usize) -> Option<Vec<f64>> {
    if k < 2 {
        return None;
    }
    let mut v = vec![0.5 / (k - 1) as f64; k];
    v[0] = 0.5;
    Some(v)
}

/// Prices a region over the skewed input: general splits in the
/// region get skewed shares sized to their own fan-out, so every
/// candidate width sees the same imbalance.
struct SkewPricer {
    cost: CostModel,
    sizes: InputSizes,
}

impl SkewPricer {
    fn sim_for(&self, r: &RegionPlan) -> SimConfig {
        let fanout = r
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                PlanOp::Split {
                    mode: SplitMode::General,
                } => Some(n.outputs.len()),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        SimConfig {
            split_shares: skew_shares(fanout),
            ..SimConfig::default()
        }
    }
}

impl CandidatePricer for SkewPricer {
    fn price_region(&self, r: &RegionPlan) -> f64 {
        simulate_region(r, &self.sizes, 0.0, &self.cost, &self.sim_for(r)).seconds
    }
}

/// Total priced seconds for one script under one fixed configuration.
fn price_fixed(script: &str, cfg: &PashConfig, pricer: &SkewPricer) -> f64 {
    let compiled = compile_cached(script, cfg).expect("compile candidate");
    compiled
        .plan
        .regions()
        .map(|r| pricer.price_region(r))
        .sum()
}

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut mb: f64 = 64.0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--mb" => {
                mb = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    let out = out.unwrap_or_else(|| usage());

    let mut sizes = InputSizes::new();
    sizes.insert("in.txt".to_string(), mb * 1e6);
    sizes.insert("in2.txt".to_string(), mb * 1e6);
    let pricer = SkewPricer {
        cost: CostModel::default(),
        sizes,
    };
    let ocfg = OptimizerConfig { max_width: 16 };

    // Single-region pipelines only: the multi-step book comparison
    // writes intermediates the whole-corpus replay would have to size.
    let corpus: Vec<_> = nlp::scripts()
        .into_iter()
        .filter(|s| !s.script.contains('\n'))
        .collect();
    let fixed_shapes: Vec<(usize, SplitPolicy)> = {
        let mut v = vec![(1, SplitPolicy::Off)];
        for w in [2usize, 4, 8, 16] {
            v.push((w, SplitPolicy::Sized));
            v.push((w, SplitPolicy::RoundRobin));
        }
        v
    };

    // fixed_totals[i] = corpus seconds with fixed_shapes[i] applied
    // globally; adaptive_total lets the optimizer choose per script
    // (and per region within it).
    let mut fixed_totals = vec![0.0f64; fixed_shapes.len()];
    let mut adaptive_total = 0.0f64;
    let mut per_script = Vec::new();
    for bench in &corpus {
        let mut best_fixed = f64::INFINITY;
        let mut worst_fixed: f64 = 0.0;
        for (i, &(width, split)) in fixed_shapes.iter().enumerate() {
            let cfg = PashConfig {
                width,
                split,
                ..Default::default()
            };
            let s = price_fixed(bench.script, &cfg, &pricer);
            fixed_totals[i] += s;
            best_fixed = best_fixed.min(s);
            worst_fixed = worst_fixed.max(s);
        }
        let opt = optimize(bench.script, &PashConfig::default(), &pricer, &ocfg)
            .expect("optimize script");
        let adaptive: f64 = opt
            .compiled
            .plan
            .regions()
            .map(|r| pricer.price_region(r))
            .sum();
        adaptive_total += adaptive;
        eprintln!(
            "adaptive: {:<22} w{:<2} {:<12} {:.2}s (fixed best {:.2}s worst {:.2}s)",
            bench.name,
            opt.chosen_width(),
            format!("{:?}", opt.chosen_split()),
            adaptive,
            best_fixed,
            worst_fixed,
        );
        per_script.push((
            bench.name,
            opt.chosen_width(),
            format!("{:?}", opt.chosen_split()),
            adaptive,
            best_fixed,
            worst_fixed,
        ));
    }

    let best_i = fixed_totals
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("nonempty ladder")
        .0;
    let worst_i = fixed_totals
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("nonempty ladder")
        .0;
    let best_fixed_total = fixed_totals[best_i];
    let worst_fixed_total = fixed_totals[worst_i];
    let vs_worst = worst_fixed_total / adaptive_total;
    let vs_best = adaptive_total / best_fixed_total;

    let mut json = String::new();
    json.push_str(&format!(
        "{{\"bench\":\"adaptive\",\"input_mb\":{mb},\"scripts\":{},\
         \"skew\":\"first worker 50% of bytes\",",
        corpus.len()
    ));
    json.push_str("\"fixed\":[");
    for (i, &(width, split)) in fixed_shapes.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"width\":{width},\"split\":\"{split:?}\",\"total_s\":{:.4}}}",
            fixed_totals[i]
        ));
    }
    json.push_str("],");
    json.push_str("\"per_script\":[");
    for (i, (name, w, split, adaptive, best, worst)) in per_script.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"name\":\"{name}\",\"chosen_width\":{w},\"chosen_split\":\"{split}\",\
             \"adaptive_s\":{adaptive:.4},\"best_fixed_s\":{best:.4},\
             \"worst_fixed_s\":{worst:.4}}}"
        ));
    }
    json.push_str("],");
    json.push_str(&format!(
        "\"adaptive_total_s\":{adaptive_total:.4},\
         \"best_fixed_total_s\":{best_fixed_total:.4},\
         \"best_fixed\":{{\"width\":{},\"split\":\"{:?}\"}},\
         \"worst_fixed_total_s\":{worst_fixed_total:.4},\
         \"worst_fixed\":{{\"width\":{},\"split\":\"{:?}\"}},\
         \"adaptive_vs_worst_fixed_speedup\":{vs_worst:.4},\
         \"adaptive_vs_best_fixed_ratio\":{vs_best:.4}}}",
        fixed_shapes[best_i].0,
        fixed_shapes[best_i].1,
        fixed_shapes[worst_i].0,
        fixed_shapes[worst_i].1,
    ));

    let mut f = std::fs::File::create(&out).expect("create output");
    f.write_all(json.as_bytes()).expect("write output");
    f.write_all(b"\n").expect("write output");
    eprintln!(
        "adaptive: wrote {} (adaptive {adaptive_total:.2}s, best fixed {best_fixed_total:.2}s, \
         worst fixed {worst_fixed_total:.2}s, vs-worst {vs_worst:.2}x, vs-best {vs_best:.3})",
        out.display()
    );
}
