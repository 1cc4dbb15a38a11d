//! The traced run: per-layer metrics for one workload.
//!
//! Every number here comes from calling a layer's public functions on
//! the workload's own data inside a harness span, or from the two
//! telemetry surfaces the program already exposes (`ExecConfig.profile`
//! and the `pashd` Metrics JSON). Nothing is traced inside the
//! program. Per-layer metrics are single samples (or short medians):
//! they explain an end-to-end number, they are not gated.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Cursor, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pash::core::annot::stdlib::AnnotationLibrary;
use pash::core::backend::{emit_program, EmitConfig};
use pash::core::dfg::transform::{parallelize, TransformConfig};
use pash::core::frontend::{translate, FrontendOptions};
use pash::core::optimize::{MeasuredRate, MeasuredRates};
use pash::core::plan::{lower, ExecutionPlan, PlanOp, PlanStep};
use pash::coreutils::fs::Fs;
use pash::coreutils::Registry;
use pash::runtime::frame::{write_frame, FrameReader};
use pash::runtime::profile::ProfileStore;
use pash::runtime::service::{
    read_request, read_response, write_request, write_response, CacheTier, Request, Response,
    RunRequest, RunResponse, MAX_FRAME,
};
use pash::sim::engine::simulate_program;
use pash::sim::{CostModel, InputSizes, SimConfig};
use pash_bench::dataplane::{time_pipe_transfer, time_relay, time_segment_read, time_split};
use pash_bench::rsplitbench::time_rsplit;

use crate::account::{walk, Account};
use crate::daemon::{json_number, Daemon, Reply};
use crate::e2e::{sample, service_phase, Metric, Ops};
use crate::names::names;
use crate::oracle::{host_run, take_outputs, Observed};
use crate::runner::{Runner, DATA_DIR};
use crate::stats::{highest_supported_tail, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{suite_scripts, Config, Counts, Script, Workload, STDIN_FILE, W};

/// Metric values by name, filled as the traced run proceeds.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn mb_per_s(bytes: usize, took: Duration) -> f64 {
    bytes as f64 / 1e6 / took.as_secs_f64().max(1e-12)
}

/// A batch of uncached compiles of the workload's scripts at width
/// [`W`] lasting at least `min`; returns milliseconds per compile.
fn compile_batch(workload: &Workload, min: Duration) -> f64 {
    let cfg = workload.config(W);
    let start = Instant::now();
    let mut n = 0u64;
    loop {
        for script in &workload.scripts {
            black_box(
                pash::compile(black_box(&script.text), &cfg).expect("workload script compiles"),
            );
            n += 1;
        }
        if start.elapsed() >= min {
            return start.elapsed().as_secs_f64() * 1e3 / n as f64;
        }
    }
}

/// Compiles `script` pass by pass, a span around each; returns the
/// plan, the emitted script, and the pass times in the order parse,
/// translate, parallelize, lower, emit.
fn compile_passes(
    script: &str,
    runner: &Runner<'_>,
    tracer: &Tracer,
) -> Result<(ExecutionPlan, String, [Duration; 5]), String> {
    let cfg = runner.workload.config(W);
    let (prog, t_parse) = tracer.span("parser.parse", || pash::parser::parse(script));
    let prog = prog.map_err(|e| format!("parse: {e}"))?;
    let (tp, t_translate) = tracer.span("core.translate", || {
        translate(
            &prog,
            AnnotationLibrary::standard(),
            &FrontendOptions {
                env: cfg.env.clone(),
                unroll_for: cfg.unroll_for,
            },
        )
    });
    let mut tp = tp.map_err(|e| format!("translate: {e}"))?;
    let (valid, t_parallelize) = tracer.span("core.parallelize", || {
        let tcfg = TransformConfig {
            width: cfg.width,
            split: cfg.split,
            eager: cfg.eager,
            agg_tree: cfg.agg_tree,
        };
        tp.regions_mut().try_for_each(|g| {
            parallelize(g, &tcfg);
            g.validate()
        })
    });
    valid.map_err(|e| format!("parallelize: {e}"))?;
    let (plan, t_lower) = tracer.span("core.lower", || lower(&tp));
    let (text, t_emit) = tracer.span("core.emit", || emit_program(&plan, &EmitConfig::default()));
    Ok((
        plan,
        text,
        [t_parse, t_translate, t_parallelize, t_lower, t_emit],
    ))
}

/// Commands of the sequential plan that the width-`W` plan did not
/// replicate, plus shell steps it could not lift at all.
fn commands_left_sequential(seq: &ExecutionPlan, par: &ExecutionPlan) -> usize {
    let count = |plan: &ExecutionPlan| {
        let mut labels: BTreeMap<String, usize> = BTreeMap::new();
        for node in plan.regions().flat_map(|r| &r.nodes) {
            if let PlanOp::Exec { .. } = node.op {
                *labels.entry(node.op.label()).or_default() += 1;
            }
        }
        labels
    };
    let (s, p) = (count(seq), count(par));
    let unreplicated: usize = s
        .iter()
        .filter(|(label, n)| p.get(*label) == Some(n))
        .map(|(_, n)| n)
        .sum();
    let shell = par
        .steps
        .iter()
        .filter(|st| {
            matches!(
                st,
                PlanStep::Shell {
                    data_noop: false,
                    ..
                }
            )
        })
        .count();
    unreplicated + shell
}

/// Runs the emitted POSIX script of every workload script under host
/// `/bin/sh` with the multi-call binaries; returns total seconds.
fn emitted_under_sh(
    runner: &Runner<'_>,
    references: &[Observed],
    emitted: &[String],
    tracer: &Tracer,
    ops: &mut Ops,
) -> Result<f64, String> {
    let stdin_path = Path::new(DATA_DIR).join(STDIN_FILE);
    let mut total = 0.0;
    for ((script, text), reference) in runner.workload.scripts.iter().zip(emitted).zip(references) {
        // Outside the data directory, so it is not taken for an output.
        std::fs::write("parallel.sh", text).map_err(|e| format!("write parallel.sh: {e}"))?;
        let stdin = match runner.inputs.stdin() {
            Some(_) => Stdio::from(
                std::fs::File::open(&stdin_path).map_err(|e| format!("open stdin: {e}"))?,
            ),
            None => Stdio::null(),
        };
        let (out, took) = tracer.span("core.emit.shell", || {
            Command::new("/bin/sh")
                .arg("../parallel.sh")
                .current_dir(DATA_DIR)
                .env("PASHC", &runner.bins.pashc)
                .env("PASH_RT", &runner.bins.pash_rt)
                .stdin(stdin)
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .output()
        });
        let out = out.map_err(|e| format!("run emitted script: {e}"))?;
        total += took.as_secs_f64();
        let observed = Observed {
            status: out.status.code().unwrap_or(-1),
            stdout: out.stdout,
            files: take_outputs(Path::new(DATA_DIR), runner.input_names())
                .map_err(|e| format!("collect outputs: {e}"))?,
        };
        ops.note(
            &format!("{} emitted script under sh", script.id),
            &observed,
            reference,
        );
    }
    Ok(total)
}

/// Throughput of `write_frame` + `FrameReader` over `data` in 64 KiB
/// blocks.
fn frame_mb_s(data: &[u8], tracer: &Tracer) -> f64 {
    let (_, took) = tracer.span("runtime.frame", || {
        let mut framed = Vec::with_capacity(data.len() + data.len() / 4096);
        for (tag, block) in data.chunks(64 * 1024).enumerate() {
            write_frame(&mut framed, tag as u64, block).expect("frame into memory");
        }
        let mut reader = FrameReader::new(Cursor::new(framed));
        let mut seen = 0;
        while let Some((_, payload)) = reader.next_frame().expect("read frame") {
            seen += payload.len();
        }
        assert_eq!(seen, data.len(), "frames lost bytes");
    });
    mb_per_s(data.len(), took)
}

/// Request + response encode and decode on in-memory buffers at the
/// script's real payload sizes; microseconds for the four together.
fn codec_us(runner: &Runner<'_>, script: &Script, reference: &Observed, tracer: &Tracer) -> f64 {
    let request = Request::Run(RunRequest {
        script: script.text.clone(),
        backend: "threads".to_string(),
        width: W as u32,
        split: runner.workload.split,
        stdin: runner.stdin_bytes(),
    });
    let response = Response::Run(RunResponse {
        status: reference.status,
        tier: CacheTier::Memory,
        compile_micros: 0,
        total_micros: 0,
        stdout: reference.stdout.clone(),
        files: reference.files.clone().into_iter().collect(),
    });
    let (_, took) = tracer.span("runtime.service.codec", || {
        let mut wire = Vec::new();
        write_request(&mut wire, &request).expect("encode request");
        std::hint::black_box(read_request(&mut Cursor::new(&wire)).expect("decode request"));
        wire.clear();
        write_response(&mut wire, &response).expect("encode response");
        std::hint::black_box(read_response(&mut Cursor::new(&wire)).expect("decode response"));
    });
    took.as_secs_f64() * 1e6
}

/// Spawns one `pash-worker`, runs every script once on the `remote`
/// backend, stops the worker; returns total seconds.
fn remote_sample(
    runner: &Runner<'_>,
    references: &[Observed],
    tracer: &Tracer,
    ops: &mut Ops,
) -> Result<f64, String> {
    let socket = Path::new("worker.sock");
    let mut worker = Command::new(&runner.bins.pash_worker)
        .args(["--socket", "worker.sock"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn pash-worker: {e}"))?;
    let _ = std::fs::write("worker.pid", worker.id().to_string());
    let mut pool = pash::runtime::WorkerPool::new(vec![socket.to_path_buf()]);
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.probe() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut total = 0.0;
    for (script, reference) in runner.workload.scripts.iter().zip(references) {
        let what = format!("{} on remote", script.id);
        let (result, _) = tracer.span("runtime.remote", || {
            runner.run_on("remote", W, &script.text, None, vec![socket.to_path_buf()])
        });
        match result {
            Ok((observed, took)) => {
                total += took.as_secs_f64();
                ops.note(&what, &observed, reference);
            }
            Err(e) => ops.note_error(&what, &e),
        }
    }
    pash::runtime::shutdown_worker(socket);
    let stop_by = Instant::now() + Duration::from_secs(5);
    while Instant::now() < stop_by && !matches!(worker.try_wait(), Ok(Some(_))) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = worker.kill();
    let _ = worker.wait();
    let _ = std::fs::remove_file("worker.pid");
    let _ = std::fs::remove_file(socket);
    Ok(total)
}

/// Bytes a coordinator ships to run `plan` remotely: each region's
/// dump, the files it reads, and stdin where it is read.
fn ship_bytes(plan: &ExecutionPlan, runner: &Runner<'_>) -> usize {
    let mut stdin = runner.inputs.stdin().map_or(0, |b| b.len());
    plan.regions()
        .map(|r| {
            let files: usize = r
                .reads_files()
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .map(|p| runner.inputs.files.get(p).map_or(0, |b| b.len()))
                .sum();
            let feed = if r.reads_stdin() {
                std::mem::take(&mut stdin)
            } else {
                0
            };
            r.dump().len() + files + feed
        })
        .sum()
}

/// What `ExecConfig.profile` recorded for the regions of `plan`.
struct ExecProfile {
    node_busy_s: f64,
    critical_busy_s: f64,
    bytes_moved: f64,
    skew: f64,
    threads: usize,
}

fn exec_profile(plans: &[ExecutionPlan], store: &ProfileStore) -> ExecProfile {
    let mut p = ExecProfile {
        node_busy_s: 0.0,
        critical_busy_s: 0.0,
        bytes_moved: 0.0,
        skew: 1.0,
        threads: 0,
    };
    for region in plans.iter().flat_map(|p| p.regions()) {
        let Some(stats) = store.region_stats(region.fingerprint()) else {
            continue;
        };
        p.threads = p.threads.max(stats.nodes.len());
        p.node_busy_s += stats.nodes.iter().map(|n| n.busy_s).sum::<f64>();
        p.critical_busy_s += stats.nodes.iter().map(|n| n.busy_s).fold(0.0, f64::max);
        p.bytes_moved += stats.nodes.iter().map(|n| n.bytes_out).sum::<f64>();
        // Copies of one command are the workers of a parallel stage.
        let mut workers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (node, stat) in region.nodes.iter().zip(&stats.nodes) {
            if let PlanOp::Exec { .. } = node.op {
                workers
                    .entry(node.op.label())
                    .or_default()
                    .push(stat.bytes_in);
            }
        }
        for bytes in workers.values().filter(|b| b.len() > 1) {
            let mean = bytes.iter().sum::<f64>() / bytes.len() as f64;
            if mean > 0.0 {
                p.skew = p.skew.max(bytes.iter().copied().fold(0.0, f64::max) / mean);
            }
        }
    }
    p
}

/// Suite scripts whose width-1 output differs from the host's (or that
/// the host cannot run), by name. Only meaningful on the inputs of
/// `short-scripts`, which hold every suite's files.
fn host_divergent(runner: &Runner<'_>) -> Vec<String> {
    let registry = Registry::standard();
    let quiet = Tracer::new("", false);
    let mut divergent = Vec::new();
    for script in suite_scripts() {
        let ours = pash::compile(&script.text, &runner.workload.config(1))
            .map_err(|e| e.to_string())
            .and_then(|c| {
                walk(&c.plan, runner.template(), b"", &registry, &quiet, false)
                    .map_err(|e| e.to_string())
            });
        let host = host_run(
            &script.text,
            Path::new(DATA_DIR),
            None,
            runner.input_names(),
        );
        let same = matches!((&ours, &host), (Ok((_, o)), Ok((h, _))) if o == h);
        if !same {
            divergent.push(script.id);
        }
    }
    divergent
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The traced run of one workload.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    runner: &Runner<'_>,
    daemon: &Daemon,
    warm_replies: &[Reply],
    references: &[Observed],
    seed: u64,
    host_s: f64,
    counts: &Counts,
    quick: bool,
    tracer: &Tracer,
    ops: &mut Ops,
) -> Result<Vec<Metric>, String> {
    let workload = runner.workload;
    let scripts = &workload.scripts;
    let n_scripts = scripts.len() as f64;
    let registry = Registry::standard();
    let stdin = runner.stdin_bytes();
    let mut v = Values::default();
    v.set("oracle.host_s", host_s);

    // The daemon first, while it is warm from set-up (see e2e::measure).
    let ((c1, c2), _) = tracer.span("daemon.phases", || {
        let (n1, n2) = (counts.c1_requests, counts.c2_requests);
        let mut phase = |first_id, n, clients| {
            service_phase(
                workload,
                runner.inputs,
                references,
                seed,
                first_id,
                n,
                clients,
                ops,
            )
        };
        (phase(0, n1, 1), phase(n1 as u64, n2, 2))
    });

    // compile_ms: one uncached `pash::compile` at width W (Tab. 2's
    // compile-time column), median of three batches of at least 0.5 s.
    let batches = if quick { 1 } else { 3 };
    let batch_min = Duration::from_millis(if quick { 1 } else { 500 });
    let (compile_ms, _) = tracer.span("core.compile_batches", || {
        let per_compile: Vec<f64> = (0..batches)
            .map(|_| compile_batch(workload, batch_min))
            .collect();
        median(&per_compile)
    });
    v.set("compile_ms", compile_ms);

    // parser + core: every pass of every script, repeated; the median
    // repetition is reported (per script), so one preempted
    // microsecond-scale pass does not set the number.
    let repeats = if quick {
        1
    } else {
        (40 / scripts.len()).max(3)
    };
    let mut pass_us: [Vec<f64>; 5] = Default::default();
    let mut par_plans = Vec::new();
    let mut emitted = Vec::new();
    for rep in 0..repeats {
        let mut totals = [0.0f64; 5];
        for script in scripts {
            let (plan, text, times) = compile_passes(&script.text, runner, tracer)
                .map_err(|e| format!("{}: {e}", script.id))?;
            for (total, t) in totals.iter_mut().zip(times) {
                *total += t.as_secs_f64() * 1e6;
            }
            if rep == 0 {
                par_plans.push(plan);
                emitted.push(text);
            }
        }
        for (all, total) in pass_us.iter_mut().zip(totals) {
            all.push(total / n_scripts);
        }
    }
    for (name, reps) in [
        "parser.parse_us",
        "core.translate_us",
        "core.parallelize_us",
        "core.lower_us",
        "core.emit_us",
    ]
    .into_iter()
    .zip(&pass_us)
    {
        v.set(name, median(reps));
    }
    let mut seq_plans = Vec::new();
    for script in scripts {
        let compiled = pash::compile(&script.text, &workload.config(1))
            .map_err(|e| format!("{}: compile: {e}", script.id))?;
        seq_plans.push(compiled.plan);
    }
    v.set(
        "core.plan_nodes",
        par_plans
            .iter()
            .flat_map(|p| p.regions())
            .map(|r| r.nodes.len())
            .sum::<usize>() as f64,
    );
    v.set(
        "core.plan_regions",
        par_plans.iter().map(|p| p.region_count()).sum::<usize>() as f64,
    );
    v.set(
        "core.seq_commands",
        seq_plans
            .iter()
            .zip(&par_plans)
            .map(|(s, p)| commands_left_sequential(s, p))
            .sum::<usize>() as f64,
    );
    v.set(
        "core.script_bytes",
        emitted.iter().map(String::len).sum::<usize>() as f64,
    );
    v.set(
        "core.emit.shell_par_s",
        emitted_under_sh(runner, references, &emitted, tracer, ops)?,
    );

    // coreutils + regex: the width-1 plan walked node by node, so each
    // command runs alone on its real input.
    let mut seq_account = Account::default();
    let mut par_account = Account::default();
    for (((script, seq), par), reference) in scripts
        .iter()
        .zip(&seq_plans)
        .zip(&par_plans)
        .zip(references)
    {
        for (plan, account, label) in [
            (seq, &mut seq_account, "width-1 walk"),
            (par, &mut par_account, "width-2 walk"),
        ] {
            let probe = label == "width-1 walk";
            let what = format!("{} {label}", script.id);
            match walk(plan, runner.template(), &stdin, &registry, tracer, probe) {
                Ok((account_part, observed)) => {
                    ops.note(&what, &observed, reference);
                    account.absorb(account_part);
                }
                // Plans with live shell steps cannot be walked; their
                // cost stays out of the account (counted, not hidden).
                Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
                    eprintln!("note: {what}: {e}");
                }
                Err(e) => ops.note_error(&what, &e.to_string()),
            }
        }
    }
    let kernel = |n: &crate::account::NodeCost| n.layer.starts_with("coreutils.");
    let kernel_s = seq_account.seconds(kernel);
    v.set("coreutils.kernel_s", kernel_s);
    let named = ["sort", "grep", "sed", "tr", "uniq", "cut"];
    for (metric, cmd) in [
        ("coreutils.sort_s", "sort"),
        ("coreutils.grep_s", "grep"),
        ("coreutils.sed_s", "sed"),
        ("coreutils.tr_s", "tr"),
        ("coreutils.uniq_s", "uniq"),
        ("coreutils.cut_s", "cut"),
    ] {
        v.set(metric, seq_account.seconds(|n| kernel(n) && n.name == cmd));
    }
    v.set(
        "coreutils.other_s",
        seq_account.seconds(|n| kernel(n) && !named.contains(&n.name.as_str())),
    );
    v.set(
        "coreutils.kernel_mb_s",
        seq_account.bytes_in(kernel) as f64 / 1e6 / kernel_s.max(1e-12),
    );
    v.set("regex.match_s", seq_account.regex_s);
    v.set(
        "regex.lines_per_s",
        if seq_account.regex_s > 0.0 {
            seq_account.regex_lines as f64 / seq_account.regex_s
        } else {
            0.0
        },
    );
    v.set("regex.share", seq_account.regex_s / kernel_s.max(1e-12));
    if workload.name == "short-scripts" {
        let divergent = host_divergent(runner);
        println!("coreutils.host_divergent: {}", divergent.join(" "));
        v.set("coreutils.host_divergent", divergent.len() as f64);
    } else {
        v.set("coreutils.host_divergent", 0.0);
    }

    // runtime data plane: aggregators (and everything else between the
    // kernels) on the real worker streams of the width-W walk, plus
    // each primitive alone on the workload's largest input.
    let agg = |n: &crate::account::NodeCost| n.layer == "runtime.agg";
    let agg_s = par_account.seconds(agg);
    v.set("runtime.agg.s", agg_s);
    v.set(
        "runtime.agg.mb_s",
        if agg_s > 0.0 {
            par_account.bytes_in(agg) as f64 / 1e6 / agg_s
        } else {
            0.0
        },
    );
    v.set(
        "runtime.dataplane_s",
        par_account.seconds(|n| n.layer.starts_with("runtime.")),
    );
    let (largest_name, largest) = runner
        .inputs
        .files
        .iter()
        .max_by_key(|(_, b)| b.len())
        .expect("workload has inputs");
    let data = largest.as_slice();
    if largest_name == STDIN_FILE {
        // Streams from stdin: no file segment is ever read.
        v.set("runtime.fileseg.mb_s", 0.0);
    } else {
        let fs: Arc<dyn Fs> = Arc::new(runner.template().snapshot());
        let (took, _) = tracer.span("runtime.fileseg", || {
            time_segment_read(&fs, largest_name, W)
        });
        v.set("runtime.fileseg.mb_s", mb_per_s(data.len(), took));
    }
    let (took, _) = tracer.span("runtime.split.general", || time_split(data, W));
    v.set("runtime.split.general_mb_s", mb_per_s(data.len(), took));
    let (took, _) = tracer.span("runtime.split.rr", || time_rsplit(data, W, true));
    v.set("runtime.split.rr_mb_s", mb_per_s(data.len(), took));
    v.set("runtime.frame.mb_s", frame_mb_s(data, tracer));
    let (took, _) = tracer.span("runtime.pipe", || time_pipe_transfer(64 * 1024, data.len()));
    v.set("runtime.pipe.mb_s", mb_per_s(data.len(), took));
    let (took, _) = tracer.span("runtime.relay", || time_relay(data));
    v.set("runtime.relay.mb_s", mb_per_s(data.len(), took));

    // runtime.exec: the profiled ("traced") run beside the plain one,
    // interleaved; their ratio is the tracing overhead.
    // Minima, not medians: the overhead is a difference of two nearly
    // equal times, and noise on this box only ever adds.
    let pairs = counts.samples;
    let mut plain = Vec::new();
    let mut profiled = Vec::new();
    let mut store = Arc::new(ProfileStore::in_memory());
    for _ in 0..pairs {
        let (s, _) = tracer.span("run.par", || {
            sample(runner, references, Config::Par, 1, ops)
        });
        plain.push(s);
        // A fresh store per run: the first observation is recorded
        // verbatim, later ones would be decay-merged.
        store = Arc::new(ProfileStore::in_memory());
        let mut total = 0.0;
        for (script, reference) in scripts.iter().zip(references) {
            let what = format!("{} profiled par", script.id);
            let (result, _) = tracer.span("run.par.profiled", || {
                runner.run_once(Config::Par, &script.text, Some(store.clone()))
            });
            match result {
                Ok((observed, took)) => {
                    total += took.as_secs_f64();
                    ops.note(&what, &observed, reference);
                }
                Err(e) => ops.note_error(&what, &e),
            }
        }
        profiled.push(total);
    }
    let least = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let par_s = least(&plain);
    v.set(
        "derived.trace_overhead_frac",
        least(&profiled) / par_s - 1.0,
    );
    let prof = exec_profile(&par_plans, &store);
    // Against the profiled run the counters came from, not the fastest.
    let profiled_s = *profiled.last().expect("at least one pair");
    v.set("runtime.exec.node_busy_s", prof.node_busy_s);
    v.set("runtime.exec.critical_busy_s", prof.critical_busy_s);
    v.set("runtime.exec.overhead_s", profiled_s - prof.critical_busy_s);
    v.set("runtime.exec.bytes_moved", prof.bytes_moved);
    v.set("runtime.exec.skew", prof.skew);
    v.set("runtime.exec.threads", prof.threads as f64);

    let (seq_s, _) = tracer.span("run.seq", || {
        sample(runner, references, Config::Seq, 1, ops)
    });
    let (procs_s, _) = tracer.span("run.procs", || {
        sample(runner, references, Config::Procs, 1, ops)
    });
    // Specified as end-to-end metrics; single samples here, because
    // they do not repeat within the bound in the time a run may take.
    v.set("seq_s", seq_s);
    v.set("procs_par_s", procs_s);
    v.set("derived.speedup_x", seq_s / par_s);
    v.set("derived.host_x", host_s / par_s);
    v.set("derived.procs_vs_threads_x", procs_s / par_s);

    // runtime.proc: what the plan costs in children and FIFOs, and the
    // floor of one trivial region at width W.
    v.set(
        "runtime.proc.children",
        par_plans
            .iter()
            .flat_map(|p| p.regions())
            .map(|r| r.nodes.len())
            .sum::<usize>() as f64,
    );
    v.set(
        "runtime.proc.fifos",
        par_plans
            .iter()
            .flat_map(|p| p.regions())
            .map(|r| r.internal_pipes().count())
            .sum::<usize>() as f64,
    );
    let mut floor_ms = Vec::new();
    for _ in 0..if quick { 1 } else { 5 } {
        // Not an input: collected (and removed) with the outputs.
        std::fs::write(Path::new(DATA_DIR).join("floor.txt"), b"floor\n")
            .map_err(|e| format!("write floor.txt: {e}"))?;
        let (result, _) = tracer.span("runtime.proc.floor", || {
            runner.run_once(
                Config::Procs,
                "cat floor.txt | tr a-z A-Z > floor.out",
                None,
            )
        });
        let (observed, took) = result.map_err(|e| format!("trivial processes run: {e}"))?;
        ops.attempted += 1;
        if observed.files.get("floor.out").map(Vec::as_slice) != Some(b"FLOOR\n") {
            ops.failed += 1;
            eprintln!("MISMATCH trivial processes run");
        }
        floor_ms.push(took.as_secs_f64() * 1e3);
    }
    v.set("runtime.proc.fixed_ms", median(&floor_ms));

    // runtime.remote: one worker, one sample. A region ships whole in
    // one frame, so one larger than the frame cap cannot run remotely
    // (the ladder would fall back and the sample would time that).
    let shipped: Vec<usize> = par_plans.iter().map(|p| ship_bytes(p, runner)).collect();
    let largest_ship = shipped.iter().copied().max().unwrap_or(0);
    let remote_s = if largest_ship < MAX_FRAME {
        remote_sample(runner, references, tracer, ops)?
    } else {
        println!(
            "runtime.remote: skipped, {largest_ship} bytes exceed the {MAX_FRAME}-byte frame cap"
        );
        0.0
    };
    v.set("runtime.remote.par_s", remote_s);
    v.set(
        "runtime.remote.ship_bytes",
        shipped.iter().sum::<usize>() as f64,
    );
    v.set("runtime.remote.overhead_x", remote_s / par_s);

    // runtime.service + daemon.
    let codec: f64 = scripts
        .iter()
        .zip(references)
        .map(|(s, r)| codec_us(runner, s, r, tracer))
        .sum();
    v.set("runtime.service.codec_us", codec / n_scripts);
    let latencies = c1.latencies_ms();
    let p50_ms = if latencies.is_empty() {
        f64::NAN
    } else {
        median(&latencies)
    };
    v.set("req_p50_ms", p50_ms);
    let in_process_us = par_s / n_scripts * 1e6;
    v.set("daemon.overhead_us", p50_ms * 1e3 - in_process_us);
    let compile_us = |tier: CacheTier| {
        let us: Vec<f64> = warm_replies
            .iter()
            .chain(&c1.replies)
            .chain(&c2.replies)
            .filter(|r| r.tier == tier)
            .map(|r| r.compile_micros as f64)
            .collect();
        if us.is_empty() {
            0.0
        } else {
            median(&us)
        }
    };
    v.set("daemon.compile_us_cold", compile_us(CacheTier::Cold));
    v.set("daemon.compile_us_mem", compile_us(CacheTier::Memory));
    let json = daemon.metrics_json().map_err(|e| format!("Metrics: {e}"))?;
    let number = |key: &str| json_number(&json, key).unwrap_or(0.0);
    v.set(
        "daemon.tier1_hit_ratio",
        number("tier1_hits") / number("run_requests").max(1.0),
    );
    v.set("daemon.compile_misses", number("compile_misses"));
    v.set("daemon.c2_scaling_x", c2.rps() / c1.rps());
    v.set(
        "daemon.req_p99_ms",
        match highest_supported_tail(latencies.len()) {
            Some(p) if p >= 0.99 => percentile(&latencies, 0.99),
            _ => 0.0,
        },
    );
    let front_us = v.get("parser.parse_us")
        + v.get("core.translate_us")
        + v.get("core.parallelize_us")
        + v.get("core.lower_us")
        + v.get("core.emit_us")
        + v.get("daemon.overhead_us");
    v.set("derived.front_share", front_us / (p50_ms * 1e3));

    // sim: the cost model calibrated with the kernel rates measured
    // above, asked to predict the width-W run.
    let mut rates = MeasuredRates::new();
    for cmd in seq_account.nodes.iter().filter(|n| kernel(n)) {
        let same = |n: &crate::account::NodeCost| kernel(n) && n.name == cmd.name;
        let (secs, bytes) = (seq_account.seconds(same), seq_account.bytes_in(same) as f64);
        if secs > 0.0 && bytes > 0.0 {
            let out: u64 = seq_account
                .nodes
                .iter()
                .filter(|n| same(n))
                .map(|n| n.bytes_out)
                .sum();
            rates.insert(
                cmd.name.clone(),
                MeasuredRate {
                    mb_per_s: bytes / 1e6 / secs,
                    out_ratio: out as f64 / bytes,
                    // Heavy evidence: the model should follow the
                    // measurement, not its prior.
                    weight: 1e6,
                },
            );
        }
    }
    let cost = CostModel::calibrated(rates);
    let sizes: InputSizes = runner
        .inputs
        .files
        .iter()
        .map(|(p, b)| (p.clone(), b.len() as f64))
        .collect();
    let machine = SimConfig {
        cores: W as f64,
        ..Default::default()
    };
    let pred: f64 = par_plans
        .iter()
        .map(|p| simulate_program(p, &sizes, stdin.len() as f64, &cost, &machine).seconds)
        .sum();
    v.set("sim.pred_par_s", pred);
    v.set("sim.rel_err", (pred - par_s).abs() / par_s);

    // runtime.supervise: must read 0 (the caller fails the run
    // otherwise, in this mode and in the end-to-end one).
    let c = &runner.counters;
    v.set("runtime.supervise.retries", c.retries() as f64);
    v.set(
        "runtime.supervise.fallbacks",
        (c.fallbacks() + c.local_fallbacks()) as f64,
    );
    v.set("runtime.supervise.reroutes", c.reroutes() as f64);
    v.set(
        "runtime.supervise.deadline_kills",
        c.deadline_kills() as f64,
    );
    v.set("bench.peak_rss_mb", peak_rss_mb());
    std::io::stdout().flush().ok();

    Ok(names()
        .per_layer
        .iter()
        .map(|&(name, _)| {
            let value =
                *v.0.get(name)
                    .unwrap_or_else(|| panic!("traced run did not set {name}"));
            Metric::new(name, value)
        })
        .collect())
}
