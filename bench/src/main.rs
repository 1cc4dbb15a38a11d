//! `pash-perfbench` — the repository's benchmark: script-in →
//! bytes-out on every layer, wall-clock, checked against the host.
//!
//! ```text
//! pash-perfbench --bin-dir DIR --out-dir DIR [--workload NAME] [--seed N]
//!                [--trace 0|1] [--quick] [--seconds S]
//! ```
//!
//! Driven by `bench/run.sh`, which builds the binaries first. With
//! `--trace 0` a workload's end-to-end metrics are measured with
//! tracing off; with `--trace 1` one traced run produces the per-layer
//! metrics and `trace-<workload>.json`. The last line of stdout is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! `--seconds` is part of the command line the benchmark driver uses.
//! It is accepted and sizes nothing: what a run measures is a fixed
//! number of operations per workload (`workloads::Counts`), sized so
//! the timed part lasts about `run_seconds` of `BENCHMARK.json` on the
//! seed commit.

mod account;
mod daemon;
#[cfg(test)]
mod discover;
mod e2e;
mod layers;
mod names;
mod oracle;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use e2e::{Metric, Ops};
use runner::{Bins, Runner};
use trace::{json_string, Tracer};
use workloads::{Config, Mode};

struct Args {
    workload: Option<String>,
    seed: u64,
    /// `None`: both the end-to-end and the traced run.
    trace: Option<bool>,
    quick: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: pash-perfbench --bin-dir DIR --out-dir DIR [--workload NAME] [--seed N] \
         [--trace 0|1] [--quick] [--seconds S]\n\
         workloads: {}",
        names::names().workloads.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        trace: None,
        quick: false,
        bin_dir: PathBuf::new(),
        out_dir: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("pash-perfbench: {name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            // The driver's nominal run length; see the module comment.
            "--seconds" => {
                if !value("--seconds").parse::<f64>().is_ok_and(|s| s > 0.0) {
                    usage()
                }
            }
            "--trace" => {
                args.trace = Some(match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--quick" => args.quick = true,
            "--bin-dir" => args.bin_dir = PathBuf::from(value("--bin-dir")),
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")),
            _ => usage(),
        }
    }
    if args.bin_dir.as_os_str().is_empty() || args.out_dir.as_os_str().is_empty() {
        usage();
    }
    if let Some(w) = &args.workload {
        if !names::names().workloads.contains(&w.as_str()) {
            eprintln!("pash-perfbench: unknown workload `{w}`");
            usage();
        }
    }
    args
}

/// The per-invocation work directory; the harness runs inside it and
/// removes it on every exit path it controls (`run.sh` traps the
/// rest).
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir("/");
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Outcome {
    metrics: Vec<Metric>,
    ops: Ops,
}

/// Runs one workload in one mode (end-to-end or traced).
fn run_workload(args: &Args, bins: &Bins, name: &str, traced: bool) -> Result<Outcome, String> {
    let workload = workloads::by_name(name).expect("validated workload name");
    let counts = workload.counts(match (args.quick, traced) {
        (true, _) => Mode::Quick,
        (false, true) => Mode::Traced,
        (false, false) => Mode::EndToEnd,
    });
    // The end-to-end run samples the width-W `threads` configuration
    // only; the traced run (and `--quick`) every one.
    let configs: &[Config] = if traced || args.quick {
        &Config::ALL
    } else {
        &[Config::Par]
    };
    let mut ops = Ops::default();
    // A set-up that lasts seconds is timed once; a short one is
    // repeated on a fresh daemon and its median reported, so one slow
    // spawn does not read as a set-up regression.
    let mut setup_samples = Vec::new();
    let mut ready = None;
    for _ in 0..counts.setups {
        drop(ready.take());
        let start = Instant::now();
        ready = Some(e2e::set_up(
            &workload, args.seed, args.quick, configs, bins,
        )?);
        setup_samples.push(start.elapsed().as_secs_f64());
    }
    let ready = ready.expect("at least one set-up");
    let (references, host_s) = e2e::host_references(&workload, &ready.inputs)?;
    for (what, script, run) in ready.warm_runs {
        match run {
            Ok(observed) => ops.note(&what, &observed, &references[script]),
            Err(e) => ops.note_error(&what, &e),
        }
    }
    let mut warm_replies = Vec::new();
    for (planned, reply, observed) in ready.warm_requests {
        let what = format!("{} warm-up request", workload.scripts[planned.script].id);
        ops.note(&what, &observed, &references[planned.script]);
        warm_replies.push(reply);
    }
    let runner = Runner::new(&workload, &ready.inputs, bins);
    let metrics = if traced {
        let tracer = Tracer::new(name, true);
        let metrics = layers::measure(
            &runner,
            &ready.daemon,
            &warm_replies,
            &references,
            args.seed,
            host_s,
            &counts,
            args.quick,
            &tracer,
            &mut ops,
        )?;
        let path = args.out_dir.join(format!("trace-{name}.json"));
        tracer
            .write_chrome(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
        metrics
    } else {
        e2e::measure(
            &runner,
            &references,
            args.seed,
            &setup_samples,
            &counts,
            &mut ops,
        )
    };
    // In either mode: a recovered run gives the right bytes late.
    if runner.recoveries() > 0 {
        ops.note_error(
            "supervisor",
            "recovery actions ran inside timed samples; the timings are invalid",
        );
    }
    let errors = ready
        .daemon
        .metrics_json()
        .ok()
        .and_then(|j| daemon::json_number(&j, "errors"));
    if errors != Some(0.0) {
        ops.note_error("pashd Metrics", &format!("errors = {errors:?}"));
    }
    Ok(Outcome { metrics, ops })
}

fn print_outcome(name: &str, traced: bool, outcome: &Outcome) {
    println!(
        "== {name} ({}) ==\n   {}",
        if traced {
            "traced, per-layer"
        } else {
            "end-to-end"
        },
        workloads::by_name(name)
            .expect("validated workload name")
            .why
    );
    for m in &outcome.metrics {
        match &m.sample {
            Some(s) if s.min.is_finite() => println!(
                "{:<32} {:>14.4} {:<6} n={} min={:.4} max={:.4}",
                m.name, m.value, m.unit, s.n, s.min, s.max
            ),
            Some(s) => println!("{:<32} {:>14.4} {:<6} n={}", m.name, m.value, m.unit, s.n),
            None => println!("{:<32} {:>14.4} {:<6}", m.name, m.value, m.unit),
        }
    }
    println!(
        "{name}: failed/attempted = {}/{}",
        outcome.ops.failed, outcome.ops.attempted
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(&m.name),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.ops.failed == 0,
        outcome.ops.attempted,
        outcome.ops.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let mut args = parse_args();
    // The harness changes into its work directory below.
    for dir in [&mut args.bin_dir, &mut args.out_dir] {
        *dir = std::path::absolute(&*dir).expect("current directory");
    }
    let bins = match Bins::locate(&args.bin_dir) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("pash-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(args.out_dir.join(format!("work-{}", std::process::id())));
    if let Err(e) =
        std::fs::create_dir_all(&work.0).and_then(|()| std::env::set_current_dir(&work.0))
    {
        eprintln!("pash-perfbench: work dir {}: {e}", work.0.display());
        return ExitCode::from(2);
    }
    println!(
        "pash-perfbench: seed {} width {} nproc {}{}",
        args.seed,
        workloads::W,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if args.quick {
            " (quick: 64 KiB inputs, 1 sample, check only)"
        } else {
            ""
        }
    );
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => names::names().workloads.clone(),
    };
    let modes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut failed = false;
    for name in names {
        for &traced in modes {
            match run_workload(&args, &bins, name, traced) {
                Ok(outcome) => {
                    failed |= outcome.ops.failed > 0;
                    print_outcome(name, traced, &outcome);
                }
                Err(e) => {
                    // No result line: a run that could not measure
                    // must not look like a measurement.
                    eprintln!("pash-perfbench: {name}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
