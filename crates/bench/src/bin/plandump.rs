//! Lowers a script to its backend-neutral `ExecutionPlan` and prints
//! the deterministic dump (plus, on stderr, the FNV fingerprint and
//! the node counts with the rewrites that shaped the plan).
//!
//! The CI plan-determinism smoke step runs this twice on the same
//! input and asserts byte-identical output — the property the
//! compile-result cache key relies on.
//!
//! Usage: `plandump [--width N] [--split off|sized|rr]
//!                  [--eager off|blocking|full] [--flat-agg]
//!                  (-e SCRIPT | FILE)`

use pash_core::compile::{compile, PashConfig};
use pash_core::dfg::transform::{AggTreeShape, EagerPolicy, SplitPolicy};

fn main() {
    let mut cfg = PashConfig::default();
    let mut source: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--width" => {
                cfg.width = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--split" => {
                cfg.split = match args.next().as_deref() {
                    Some("off") => SplitPolicy::Off,
                    Some("sized") => SplitPolicy::Sized,
                    Some("rr") => SplitPolicy::RoundRobin,
                    _ => usage(),
                };
            }
            "--eager" => {
                cfg.eager = match args.next().as_deref() {
                    Some("off") => EagerPolicy::Off,
                    Some("blocking") => EagerPolicy::Blocking,
                    Some("full") => EagerPolicy::Full,
                    _ => usage(),
                };
            }
            "--flat-agg" => cfg.agg_tree = AggTreeShape::Flat,
            "-e" => source = Some(args.next().unwrap_or_else(|| usage())),
            path if !path.starts_with('-') => {
                source = Some(std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("plandump: cannot read {path}: {e}");
                    std::process::exit(1);
                }));
            }
            _ => usage(),
        }
    }
    let src = source.unwrap_or_else(|| usage());
    let compiled = compile(&src, &cfg).unwrap_or_else(|e| {
        eprintln!("plandump: compile failed: {e}");
        std::process::exit(1);
    });
    print!("{}", compiled.plan.dump());
    eprintln!("fingerprint: {:016x}", compiled.plan.fingerprint());
    let n = &compiled.stats.nodes;
    eprintln!(
        "stats: nodes={} commands={} cats={} splits={} relays={} aggregates={} \
         commuted={} splits_raw_rr={}",
        n.total(),
        n.commands,
        n.cats,
        n.splits,
        n.relays,
        n.aggregates,
        n.commuted,
        n.splits_raw_rr
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: plandump [--width N] [--split off|sized|rr] \
         [--eager off|blocking|full] [--flat-agg] (-e SCRIPT | FILE)"
    );
    std::process::exit(2);
}
