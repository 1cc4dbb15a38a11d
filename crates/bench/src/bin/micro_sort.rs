//! Regenerates the §6.5 parallel-sort microbenchmark: PaSh-optimized
//! `sort` (with and without eager) versus `sort --parallel`.

use std::sync::Arc;
use std::time::Instant;

use pash_bench::Fig7Config;
use pash_coreutils::fs::MemFs;
use pash_coreutils::{run_command, Registry};
use pash_runtime::exec::{run_script, ExecConfig};
use pash_sim::{simulate_compiled, CostModel, InputSizes, SimConfig};
use pash_workloads::text_corpus;

/// Size of the corpus the measured kernel rates are taken on.
const MEASURED_MB: usize = 32;

fn main() {
    println!("§6.5 parallel sort: PaSh vs sort --parallel\n");
    let cm = CostModel::default();
    let sim_cfg = SimConfig::default();
    let sizes: InputSizes = [("in.txt".to_string(), 256e6)].into_iter().collect();
    let pash_script = "sort in.txt > out.txt";
    let seq = simulate_compiled(
        pash_script,
        &Fig7Config::Parallel.pash_config(1),
        &sizes,
        &cm,
        &sim_cfg,
    )
    .expect("sim")
    .seconds;
    println!("simulated speedups over sequential sort ({seq:.0}s):");
    println!(
        "{:>6} {:>12} {:>14} {:>16}",
        "width", "PaSh", "PaSh(NoEager)", "sort --parallel"
    );
    for width in [2usize, 4, 8, 16, 32, 64] {
        let pash = simulate_compiled(
            pash_script,
            &Fig7Config::Parallel.pash_config(width),
            &sizes,
            &cm,
            &sim_cfg,
        )
        .expect("sim")
        .seconds;
        let noeager = simulate_compiled(
            pash_script,
            &Fig7Config::NoEager.pash_config(width),
            &sizes,
            &cm,
            &sim_cfg,
        )
        .expect("sim")
        .seconds;
        // GNU baseline at 2× PaSh's parallelism (the paper's setup).
        let gnu_script = format!("sort --parallel={} in.txt > out.txt", (width * 2).min(127));
        let gnu = simulate_compiled(
            &gnu_script,
            &Fig7Config::Parallel.pash_config(1),
            &sizes,
            &cm,
            &sim_cfg,
        )
        .expect("sim")
        .seconds;
        println!(
            "{width:>6} {:>11.2}x {:>13.2}x {:>15.2}x",
            seq / pash,
            seq / noeager,
            seq / gnu
        );
    }
    println!("\npaper: PaSh-with-eager ≈ 2x over sort --parallel; no-eager ≈ comparable.");

    // --- Wall clock: the kernels the table above prices -------------
    let corpus = text_corpus(17, MEASURED_MB << 20);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\nmeasured kernel rates ({MEASURED_MB} MiB corpus, best of 3, {cores} cores):");
    for argv in [&["sort"][..], &["sort", "--parallel=2"]] {
        let best = (0..3)
            .map(|_| {
                let start = Instant::now();
                let out = run_command(&Registry::standard(), Arc::new(MemFs::new()), argv, &corpus)
                    .expect("sort runs");
                assert_eq!(out.stdout.len(), corpus.len());
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let rate = corpus.len() as f64 / 1e6 / best;
        println!("{:>20} {best:>7.3} s {rate:>8.1} MB/s", argv.join(" "));
    }

    // --- Correctness: all three agree byte-for-byte -----------------
    let fs = Arc::new(MemFs::new());
    fs.add("in.txt", text_corpus(17, 200_000));
    let reg = Registry::standard();
    let mut outputs = Vec::new();
    for (label, script, width) in [
        ("sequential", "sort in.txt > out.txt", 1usize),
        ("pash 8x", "sort in.txt > out.txt", 8),
        ("--parallel=8", "sort --parallel=8 in.txt > out.txt", 1),
    ] {
        run_script(
            script,
            &Fig7Config::Parallel.pash_config(width),
            &reg,
            fs.clone(),
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        outputs.push((label, fs.read("out.txt").expect("out")));
    }
    let all_equal = outputs.windows(2).all(|w| w[0].1 == w[1].1);
    println!(
        "real-execution agreement (200 KB input): {}",
        if all_equal {
            "sequential ≡ PaSh ≡ --parallel"
        } else {
            "MISMATCH"
        }
    );
}
