//! Regex-tier microbenchmark driver.
//!
//! Measures the tiered matcher against the Pike-VM baseline on the
//! four standard pattern shapes (fixed-string, literal-prefix ERE,
//! class-heavy, adversarial NFA), one `is_match` per line, and on the
//! three line-mode shapes of the `regex-filter` benchmark through
//! `grep`'s block scan; writes the results, the per-case speedups and
//! each tiered matcher's counters (states built, cache clears,
//! give-ups, lines per engine, literal-set searches) and each case's
//! line count to `BENCH_regex.json`, so successive changes can track
//! the regex-engine trajectory.
//!
//! Usage: `regexbench [--size small|default|large] [--out PATH]`

use std::io::Write;

use pash_bench::dataplane::fmt_throughput;
use pash_bench::regexbench::{run_suite, speedups, stats_json};

fn main() {
    let mut size = "default".to_string();
    let mut out_path = "BENCH_regex.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--size" => size = args.next().unwrap_or_else(|| usage()),
            "--out" => out_path = args.next().unwrap_or_else(|| usage()),
            _ => {
                usage();
            }
        }
    }
    let (bytes, runs) = match size.as_str() {
        "small" => (64 * 1024, 3),
        "default" => (2 * 1024 * 1024, 7),
        "large" => (8 * 1024 * 1024, 5),
        _ => usage(),
    };

    println!("regex tier microbench: {bytes} bytes/corpus, {runs} runs\n");
    let suite = run_suite(bytes, runs);
    let samples = &suite.samples;
    println!(
        "{:<34} {:>12} {:>12} {:>12} {:>14}",
        "bench", "min", "median", "mean", "throughput"
    );
    for s in samples {
        println!(
            "{:<34} {:>12.3?} {:>12.3?} {:>12.3?} {:>14}",
            s.name,
            s.min,
            s.median,
            s.mean,
            fmt_throughput(s.throughput())
        );
    }
    let sp = speedups(samples);
    println!();
    for (case, ratio) in &sp {
        println!("{case:<20} tiered vs pikevm: {ratio:.1}x");
    }
    println!();
    for (case, lines, s) in &suite.stats {
        println!(
            "{case:<20} dfa states {:>4}, clears {}, give-ups {}, lines {lines}: dfa {} / pike {}, set searches {}",
            s.dfa_states, s.cache_clears, s.give_ups, s.dfa_lines, s.pike_lines, s.set_searches
        );
    }

    let json = format!(
        "{{\"bench\":\"regex\",\"bytes_per_corpus\":{},\"runs\":{},\"results\":[{}],\"speedup_vs_pikevm\":{{{}}},\"matcher_stats\":{{{}}}}}\n",
        bytes,
        runs,
        samples
            .iter()
            .map(|s| s.to_json())
            .collect::<Vec<_>>()
            .join(","),
        sp.iter()
            .map(|(case, ratio)| format!("\"{case}\":{ratio:.2}"))
            .collect::<Vec<_>>()
            .join(","),
        suite
            .stats
            .iter()
            .map(|(case, lines, s)| format!("\"{case}\":{}", stats_json(*lines, s)))
            .collect::<Vec<_>>()
            .join(","),
    );
    let mut f = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    f.write_all(json.as_bytes()).expect("write json");
    println!("\nwrote {out_path}");
}

fn usage() -> ! {
    eprintln!("usage: regexbench [--size small|default|large] [--out PATH]");
    std::process::exit(2);
}
