//! Data-plane microbenchmark driver.
//!
//! Measures the runtime's byte-shuffling primitives (pipe transfer,
//! split, segment read, eager relay, merge) and the `sort` kernel, and
//! writes the results to
//! `BENCH_dataplane.json` so successive PRs can track the perf
//! trajectory.
//!
//! Usage: `dataplane [--size small|default|large] [--out PATH]`

use std::io::Write;

use pash_bench::dataplane::{fmt_throughput, run_suite};
use pash_bench::rsplitbench;

fn main() {
    let mut size = "default".to_string();
    let mut out_path = "BENCH_dataplane.json".to_string();
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
        "default" => (1024 * 1024, 7),
        "large" => (8 * 1024 * 1024, 5),
        _ => usage(),
    };

    println!("dataplane microbench: {bytes} bytes/iter, {runs} runs\n");
    let mut samples = run_suite(bytes, runs);
    samples.extend(rsplitbench::run_series(bytes, runs));
    let speedup = rsplitbench::rr_speedup(&samples).expect("rsplit sim samples");
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>14}",
        "bench", "min", "median", "mean", "throughput"
    );
    for s in &samples {
        println!(
            "{:<20} {:>12.3?} {:>12.3?} {:>12.3?} {:>14}",
            s.name,
            s.min,
            s.median,
            s.mean,
            fmt_throughput(s.throughput())
        );
    }

    println!("\nr_split vs skewed general split (simulated, width 8): {speedup:.2}x");

    let json = format!(
        "{{\"bench\":\"dataplane\",\"bytes_per_iter\":{},\"runs\":{},\"rr_vs_general_split_speedup\":{:.2},\"results\":[{}]}}\n",
        bytes,
        runs,
        speedup,
        samples
            .iter()
            .map(|s| s.to_json())
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut f = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    f.write_all(json.as_bytes()).expect("write json");
    println!("\nwrote {out_path}");
}

fn usage() -> ! {
    eprintln!("usage: dataplane [--size small|default|large] [--out PATH]");
    std::process::exit(2);
}
