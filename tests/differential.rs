//! Cross-backend differential suite: every corpus script must produce
//! byte-identical stdout, byte-identical output files, and the same
//! exit status under the `shell` backend (emitted script on a real
//! `/bin/sh`), the `threads` backend (in-process), the `processes`
//! backend (real children over FIFOs), and the `remote` backend
//! (plan regions shipped to `pash-worker` daemons over sockets).
//!
//! This is the strongest fidelity check the reproduction has: the
//! same lowered `ExecutionPlan` executed by four unrelated engines —
//! one interpreting it in-process, one forking the multi-call binary
//! per node, one rendered to POSIX text, one serializing regions to
//! worker daemons — with OS semantics (FIFO blocking, SIGPIPE
//! teardown, wait status) in the loop for two of the four and wire
//! semantics (framed sockets, connection teardown) for a third.
//!
//! Both split strategies are exercised: the input-aware segment split
//! (`ParBSplit`) and the order-aware round-robin split (`r_split`,
//! tagged blocks restored by `pash-agg-reorder`), each at several
//! widths.
//!
//! The `threads` backend has two schedules for a region — run to
//! completion on one thread when the whole input fits one pipe buffer,
//! a thread per node otherwise — and these inputs are small enough to
//! fall on either side of that line by accident. So the pipe capacity
//! is set on purpose: `threads` is observed once under each schedule
//! ([`SCHEDULES`]) wherever it is compared, and
//! `schedules_agree_on_every_suite_script` holds the two against each
//! other region by region.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

use pash::core::backend::{emit_program, EmitConfig};
use pash::core::compile::PashConfig;
use pash::coreutils::fs::MemFs;
use pash::runtime::split::DEFAULT_LOOKAHEAD;
use pash::{run, BackendOutput, ProcSettings, RunEnv};
use pash_bench::fixtures::{cached_fs, runtime_binaries};
use pash_bench::suites::{oneliners, unix50};

/// What one backend produced for one script.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    stdout: Vec<u8>,
    status: i32,
    out_file: Option<Vec<u8>>,
}

/// How to run one differential comparison.
struct Setup<'a> {
    /// The parallel configuration under test.
    cfg: PashConfig,
    /// Bytes fed to the program's stdin.
    stdin: &'a [u8],
}

impl<'a> Setup<'a> {
    fn split(width: usize) -> Setup<'a> {
        Setup {
            cfg: PashConfig::best(width),
            stdin: b"",
        }
    }

    fn round_robin(width: usize) -> Setup<'a> {
        Setup {
            cfg: PashConfig::round_robin(width),
            stdin: b"",
        }
    }
}

/// The binaries plus `/bin/sh`; `None` skips the suite (mirrors the
/// emitted-script tests' behaviour on exotic hosts).
fn harness() -> Option<(PathBuf, PathBuf)> {
    if !PathBuf::from("/bin/sh").exists() {
        return None;
    }
    runtime_binaries()
}

/// A pipe capacity above every input in this suite: each region's
/// input fits one buffer and the region runs to completion.
const RUN_TO_COMPLETION: usize = 1 << 20;
/// A pipe capacity below every input in this suite, the file lists of
/// a few hundred bytes included: a region that reads anything gets a
/// thread per node, with real blocking on its rings.
const THREAD_PER_NODE: usize = 64;
/// The `threads` backend's two schedules, selected by pipe capacity.
const SCHEDULES: [(&str, usize); 2] = [
    ("run-to-completion", RUN_TO_COMPLETION),
    ("thread-per-node", THREAD_PER_NODE),
];

fn observe_threads(
    script: &str,
    fs: Arc<MemFs>,
    setup: &Setup,
    cfg: &PashConfig,
    pipe_capacity: usize,
) -> Observed {
    let mut env = RunEnv {
        fs,
        stdin: setup.stdin.to_vec(),
        ..Default::default()
    };
    env.exec.pipe_capacity = pipe_capacity;
    let observed = match run(script, cfg, "threads", &env) {
        Ok(BackendOutput::Execution(o)) => Observed {
            stdout: o.stdout,
            status: o.status,
            out_file: env.fs.read("out.txt").ok(),
        },
        other => panic!("threads produced {other:?} for `{script}`"),
    };
    if pipe_capacity == RUN_TO_COMPLETION {
        let threaded = env.exec.supervisor.counters.threaded_regions();
        assert_eq!(threaded, 0, "`{script}` left run-to-completion");
    }
    observed
}

fn observe_processes(
    script: &str,
    fs: Arc<MemFs>,
    setup: &Setup,
    bins: &(PathBuf, PathBuf),
) -> Observed {
    let env = RunEnv {
        fs,
        stdin: setup.stdin.to_vec(),
        proc: ProcSettings {
            root: None,
            pashc: Some(bins.0.clone()),
            pash_rt: Some(bins.1.clone()),
            ..Default::default()
        },
        ..Default::default()
    };
    match run(script, &setup.cfg, "processes", &env) {
        Ok(BackendOutput::Execution(o)) => Observed {
            stdout: o.stdout,
            status: o.status,
            out_file: env.fs.read("out.txt").ok(),
        },
        other => panic!("processes produced {other:?} for `{script}`"),
    }
}

/// A pair of in-process `pash-worker` serve loops on temp sockets —
/// multi-worker-on-localhost, so remote runs exercise real placement.
struct RemoteWorkers {
    sockets: Vec<PathBuf>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl RemoteWorkers {
    fn spawn(n: usize) -> RemoteWorkers {
        use pash::runtime::remote::serve_worker;
        use pash::runtime::service::bind;
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mut sockets = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..n {
            let socket = std::env::temp_dir().join(format!(
                "pash-diff-worker-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let listener = bind(&socket).expect("bind worker");
            let s = socket.clone();
            handles.push(std::thread::spawn(move || {
                serve_worker(listener, &s).expect("serve");
            }));
            sockets.push(socket);
        }
        RemoteWorkers { sockets, handles }
    }
}

impl Drop for RemoteWorkers {
    fn drop(&mut self) {
        for s in &self.sockets {
            pash::runtime::remote::shutdown_worker(s);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn observe_remote(
    script: &str,
    fs: Arc<MemFs>,
    setup: &Setup,
    workers: &RemoteWorkers,
) -> Observed {
    let env = RunEnv {
        fs,
        stdin: setup.stdin.to_vec(),
        workers: workers.sockets.clone(),
        ..Default::default()
    };
    match run(script, &setup.cfg, "remote", &env) {
        Ok(BackendOutput::Execution(o)) => Observed {
            stdout: o.stdout,
            status: o.status,
            out_file: env.fs.read("out.txt").ok(),
        },
        other => panic!("remote produced {other:?} for `{script}`"),
    }
}

/// Materializes `fs` into `dir` (the `MemFs` → real-files bridge the
/// shell run needs).
fn materialize(fs: &MemFs, dir: &Path) {
    for p in fs.paths() {
        let target = dir.join(&p);
        if let Some(parent) = target.parent() {
            std::fs::create_dir_all(parent).expect("mkdir");
        }
        std::fs::write(target, fs.read(&p).expect("template file")).expect("write input");
    }
}

fn observe_shell(
    script: &str,
    fs: Arc<MemFs>,
    setup: &Setup,
    bins: &(PathBuf, PathBuf),
) -> Observed {
    observe_shell_within(script, fs, setup, bins, None).expect("no watchdog, no timeout")
}

/// [`observe_shell`] under a killing `watchdog`: host `timeout` runs
/// the script in its own process group and SIGKILLs the whole group
/// when the time is up, which is reported as `None`.
fn observe_shell_within(
    script: &str,
    fs: Arc<MemFs>,
    setup: &Setup,
    bins: &(PathBuf, PathBuf),
    watchdog: Option<std::time::Duration>,
) -> Option<Observed> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let compiled = pash::compile(script, &setup.cfg).expect("compile");
    let dir = std::env::temp_dir().join(format!(
        "pash-diff-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    materialize(&fs, &dir);
    let emitted = emit_program(&compiled.plan, &EmitConfig);
    std::fs::write(dir.join("parallel.sh"), emitted).expect("write script");
    let mut command = match watchdog {
        Some(limit) => {
            let mut c = Command::new("timeout");
            c.args(["-s", "KILL", &limit.as_secs().to_string(), "/bin/sh"]);
            c
        }
        None => Command::new("/bin/sh"),
    };
    let mut child = command
        .arg("parallel.sh")
        .current_dir(&dir)
        .env("PASHC", &bins.0)
        .env("PASH_RT", &bins.1)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn sh");
    let mut stdin = child.stdin.take().expect("piped stdin");
    // Fed beside the read of its output: a script that streams more
    // than a pipe holds would otherwise block on the write back.
    let out = std::thread::scope(|scope| {
        scope.spawn(move || stdin.write_all(setup.stdin).ok());
        child.wait_with_output().expect("wait sh")
    });
    let status = out.status.code().unwrap_or_else(|| {
        #[cfg(unix)]
        {
            use std::os::unix::process::ExitStatusExt;
            if let Some(sig) = out.status.signal() {
                return 128 + sig;
            }
        }
        1
    });
    let observed = Observed {
        stdout: out.stdout,
        status,
        out_file: std::fs::read(dir.join("out.txt")).ok(),
    };
    let _ = std::fs::remove_dir_all(&dir);
    // `timeout -s KILL` dies by its own signal when the limit passes.
    (watchdog.is_none() || status != 128 + 9).then_some(observed)
}

/// Runs `script` under all four backends and asserts pairwise
/// equality — including exit statuses, which the status fold keeps
/// identical to the sequential verdict at any width — plus agreement
/// with the sequential (width-1) `threads` run, which pins the data,
/// under both of the `threads` schedules.
fn assert_backends_agree(
    label: &str,
    script: &str,
    make_fs: &dyn Fn() -> Arc<MemFs>,
    setup: &Setup,
    bins: &(PathBuf, PathBuf),
) {
    let width = setup.cfg.width;
    let seq_cfg = setup.cfg.sequential();
    // Width 1 run to completion is the reference that pins the data;
    // the other three `threads` runs — the status fold makes the
    // parallel status the sequential verdict too, independent of width
    // or split strategy — and the other backends must equal it.
    let t = observe_threads(script, make_fs(), setup, &seq_cfg, RUN_TO_COMPLETION);
    for (schedule, capacity) in SCHEDULES {
        for (what, cfg) in [("sequential", &seq_cfg), ("parallel", &setup.cfg)] {
            let other = observe_threads(script, make_fs(), setup, cfg, capacity);
            assert_eq!(
                t, other,
                "{label}: {what} {schedule} threads diverged at width {width}\nscript: {script}"
            );
        }
    }
    let p = observe_processes(script, make_fs(), setup, bins);
    let s = observe_shell(script, make_fs(), setup, bins);
    let workers = RemoteWorkers::spawn(2);
    let r = observe_remote(script, make_fs(), setup, &workers);
    drop(workers);
    assert_eq!(
        t, p,
        "{label}: threads vs processes diverged at width {width}\nscript: {script}"
    );
    assert_eq!(
        t, s,
        "{label}: threads vs shell diverged at width {width}\nscript: {script}"
    );
    assert_eq!(
        t, r,
        "{label}: threads vs remote diverged at width {width}\nscript: {script}"
    );
}

#[test]
fn oneliners_differential_across_backends() {
    let Some(bins) = harness() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    for bench in oneliners::all() {
        let make_fs = || {
            cached_fs(
                format!("differential/oneliners/{}/30000", bench.name),
                |fs| oneliners::setup_fs(&bench, 30_000, fs),
            )
        };
        assert_backends_agree(bench.name, &bench.script, &make_fs, &Setup::split(4), &bins);
    }
}

#[test]
fn oneliners_round_robin_across_backends() {
    let Some(bins) = harness() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    for bench in oneliners::all() {
        let make_fs = || {
            cached_fs(
                format!("differential/oneliners/{}/10000", bench.name),
                |fs| oneliners::setup_fs(&bench, 10_000, fs),
            )
        };
        assert_backends_agree(
            bench.name,
            &bench.script,
            &make_fs,
            &Setup::round_robin(4),
            &bins,
        );
    }
}

#[test]
fn unix50_differential_across_backends() {
    let Some(bins) = harness() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    let make_fs = || {
        cached_fs("differential/unix50/20000".to_string(), |fs| {
            unix50::setup_fs(20_000, fs)
        })
    };
    for p in unix50::all() {
        assert_backends_agree(
            &format!("unix50 #{}", p.idx),
            p.script,
            &make_fs,
            &Setup::split(4),
            &bins,
        );
    }
}

#[test]
fn unix50_round_robin_across_backends() {
    let Some(bins) = harness() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    let make_fs = || {
        cached_fs("differential/unix50/8000".to_string(), |fs| {
            unix50::setup_fs(8_000, fs)
        })
    };
    for p in unix50::all() {
        assert_backends_agree(
            &format!("unix50-rr #{}", p.idx),
            p.script,
            &make_fs,
            &Setup::round_robin(4),
            &bins,
        );
    }
}

#[test]
fn width_sweep_both_split_strategies() {
    // Widths 2, 4, and 8 for both the segment split and `r_split`,
    // over pipelines covering the framed stateless path, the raw
    // commutative path (wc, plain and reversed sort — whole-line
    // comparisons are total orders, so their merges commute), the
    // framed class-P path (uniq/uniq -c via frame-merge), the
    // segment fallback (keyed sort, whose ties break by partition),
    // the `sort | uniq -c | sort -rn` ranking idiom, and the
    // benchmark's `regex-filter` pipeline (block-scanning `grep`s
    // around a capturing `sed`, fed frames and segments of any size).
    let Some(bins) = harness() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    let make_fs = || {
        cached_fs("differential/sweep/10000".to_string(), |fs| {
            // Line-length-skewed corpus: the shape `r_split`'s
            // adaptive block sizing targets.
            let mut data = Vec::new();
            for i in 0..10_000u32 {
                match i % 5 {
                    0 => data.extend_from_slice(b"The quick brown fox\n"),
                    1 => data.extend_from_slice(format!("id {i} ok\n").as_bytes()),
                    2 => {
                        data.extend_from_slice(format!("row {i} ").as_bytes());
                        data.extend_from_slice("lorem ipsum dolor sit amet ".repeat(12).as_bytes());
                        data.push(b'\n');
                    }
                    3 => data.extend_from_slice(b"x\n"),
                    _ => data.extend_from_slice(format!("THE END {}\n", i % 97).as_bytes()),
                }
            }
            fs.add("in.txt", data);
            // Text in which the `regex-filter` patterns have matches.
            fs.add("text.txt", pash::workloads::text_corpus(23, 200_000));
        })
    };
    for (label, script) in [
        (
            "regex-filter",
            "cat text.txt in.txt | tr A-Z a-z \
             | grep -E '(river|mountain|signal|compiler) [a-z]+ (of|the|and)' \
             | sed -E 's/([a-z]+)ing/\\1ed/g' | grep -v -E '^[a-m]' > out.txt",
        ),
        (
            "stateless-chain",
            "cat in.txt | tr A-Z a-z | grep the > out.txt",
        ),
        (
            "commutative-wc",
            "cat in.txt | grep -v qqq | wc -l > out.txt",
        ),
        (
            "raw-total-order-sort",
            "cat in.txt | tr A-Z a-z | sort > out.txt",
        ),
        (
            "raw-reverse-sort",
            "cat in.txt | tr A-Z a-z | sort -r > out.txt",
        ),
        ("framed-uniq", "cat in.txt | tr A-Z a-z | uniq > out.txt"),
        (
            "framed-uniq-count",
            "cat in.txt | tr A-Z a-z | sort | uniq -c > out.txt",
        ),
        (
            "segment-keyed-sort",
            "cat in.txt | grep -v qqq | sort -k 2 > out.txt",
        ),
        // Equal counts everywhere: the numeric merge must break
        // ties by the (reversed) whole line like the kernel does.
        (
            "count-ranked-sort",
            "cat in.txt | sort | uniq -c | sort -rn > out.txt",
        ),
    ] {
        for width in [2usize, 4, 8] {
            assert_backends_agree(
                &format!("{label}@{width}"),
                script,
                &make_fs,
                &Setup::split(width),
                &bins,
            );
            assert_backends_agree(
                &format!("{label}-rr@{width}"),
                script,
                &make_fs,
                &Setup::round_robin(width),
                &bins,
            );
        }
    }
    // Stdin whose last line has no newline, through the exact split
    // (`abc`) and the streaming one (past the look-ahead window, so
    // `threads` runs a thread per node): the parts must concatenate to
    // exactly the input, or `wc -l` counts a line the width-1 run does
    // not.
    let capacity = pash::runtime::exec::ExecConfig::default().pipe_capacity;
    let mut long = b"alpha beta\n".repeat(DEFAULT_LOOKAHEAD / 10);
    long.extend_from_slice(b"no newline at the end");
    let make_fs = || cached_fs("differential/stdin/empty".to_string(), |_| {});
    for stdin in [&b"abc"[..], &long] {
        for script in ["tr a-z A-Z", "tr -d a", "wc -l", "wc -c"] {
            let mut sequential = Setup::split(1);
            sequential.stdin = stdin;
            let want = observe_threads(script, make_fs(), &sequential, &sequential.cfg, capacity);
            for width in [2, 4] {
                for mut setup in [Setup::split(width), Setup::round_robin(width)] {
                    setup.stdin = stdin;
                    let label = format!(
                        "{:?} width {width}, {} bytes of stdin: {script}",
                        setup.cfg.split,
                        stdin.len()
                    );
                    let got = observe_threads(script, make_fs(), &setup, &setup.cfg, capacity);
                    assert_eq!(got, want, "threads, {label}");
                    let got = observe_processes(script, make_fs(), &setup, &bins);
                    assert_eq!(got, want, "processes, {label}");
                    let got = observe_shell(script, make_fs(), &setup, &bins);
                    assert_eq!(got, want, "shell, {label}");
                }
            }
        }
    }
}

/// `uniq` / `uniq -c` fed by a `sort`'s merge run below it, one copy
/// per sorted run, under a combining merge (`pash-agg-sort-c`,
/// `pash-agg-sort … -u`); the stage after it takes raw round-robin
/// blocks. Inputs aimed at the seams: every distinct line in every
/// segment (numerically equal but different lines among them), one
/// distinct line, nothing, and fewer lines than workers with no final
/// newline — each script over all four, at widths 1 to 8, both split
/// strategies, four backends, against the width-1 run.
#[test]
fn folds_commute_below_sort_merges_across_backends() {
    let Some(bins) = harness() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    let make_fs = || {
        cached_fs("differential/fold-below-merge".to_string(), |fs| {
            const LINES: [&str; 12] = [
                "10",
                "010",
                "9",
                "apple",
                "Apple",
                "apple pie",
                "",
                "-3",
                "b 2",
                "a 2",
                "10 x",
                "9 lives of a rather long line that moves the segment cuts about",
            ];
            let mut dups = String::new();
            for i in 0..6_000usize {
                // Two strides, so neighbours and cut points vary.
                dups.push_str(LINES[(i * 7 + i / 13) % LINES.len()]);
                dups.push('\n');
            }
            fs.add("dups.txt", dups.into_bytes());
            fs.add("one.txt", b"same\n".repeat(3_000));
            fs.add("empty.txt", Vec::new());
            fs.add("short.txt", b"b\na\nb\na".to_vec());
        })
    };
    for stages in [
        "sort | uniq -c | sort -n",
        "sort -r | uniq",
        "sort | uniq -c | sort -rn | head -n 5",
        "sort -n | uniq -c",
    ] {
        // One region per input, all on stdout.
        let script: String = ["dups", "one", "empty", "short"]
            .iter()
            .map(|f| format!("cat {f}.txt | {stages}\n"))
            .collect();
        for width in [1usize, 2, 4, 8] {
            for setup in [Setup::split(width), Setup::round_robin(width)] {
                let label = format!("{stages} @{width} {:?}", setup.cfg.split);
                assert_backends_agree(&label, &script, &make_fs, &setup, &bins);
            }
        }
    }
}

/// Hangs must fail, not hang: stdin-fed pipelines under the paper's
/// headline configuration, 8 MiB, on the three backends that run
/// them locally, each under a deadline that kills the run and fails
/// the test. (`PashConfig::best` puts a general split on the stdin
/// pipe; the `cat` of the stateless pipeline and the raw round-robin
/// split of the sort pipeline are what drain it.)
#[test]
fn stdin_fed_pipelines_finish_under_a_watchdog() {
    use pash::runtime::SupervisorSettings;
    use std::time::Duration;
    const WATCHDOG: Duration = Duration::from_secs(30);

    let Some(bins) = harness() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    let have_timeout = Command::new("timeout")
        .args(["1", "true"])
        .status()
        .is_ok_and(|s| s.success());
    let stdin = pash_bench::fixtures::cached_corpus(29, 8 << 20);
    let make_fs = || cached_fs("differential/stdin/empty".to_string(), |_| {});
    // An attempt that outlives the deadline is killed and, with no
    // retry and no fallback, fails the run.
    let watched = || SupervisorSettings {
        region_deadline: Some(WATCHDOG),
        max_retries: 0,
        fallback: false,
        ..Default::default()
    };
    for script in ["tr A-Z a-z | cut -c 1-20", "sort | uniq -c | sort -rn"] {
        let setup = |width| Setup {
            cfg: PashConfig::best(width),
            stdin: &stdin[..],
        };
        let seq = setup(1);
        let expected = observe_threads(script, make_fs(), &seq, &seq.cfg, 64 * 1024);
        assert_eq!(expected.status, 0, "`{script}`");
        for width in [2usize, 4] {
            let setup = setup(width);
            for backend in ["threads", "processes"] {
                let mut env = RunEnv {
                    fs: make_fs(),
                    stdin: stdin.to_vec(),
                    proc: ProcSettings {
                        pashc: Some(bins.0.clone()),
                        pash_rt: Some(bins.1.clone()),
                        supervisor: watched(),
                        ..Default::default()
                    },
                    ..Default::default()
                };
                env.exec.supervisor = watched();
                match run(script, &setup.cfg, backend, &env) {
                    Ok(BackendOutput::Execution(o)) => {
                        assert_eq!(o.status, 0, "`{script}` on {backend} at width {width}");
                        assert!(
                            o.stdout == expected.stdout,
                            "`{script}` on {backend} at width {width}: output differs"
                        );
                    }
                    other => panic!(
                        "`{script}` on {backend} at width {width} did not finish \
                         within {WATCHDOG:?}: {:?}",
                        other.map(|_| "no execution")
                    ),
                }
            }
            if !have_timeout {
                eprintln!("skipping the shell leg: the host has no `timeout`");
                continue;
            }
            let got = observe_shell_within(script, make_fs(), &setup, &bins, Some(WATCHDOG))
                .unwrap_or_else(|| {
                    panic!("`{script}` under /bin/sh at width {width} hung: killed at {WATCHDOG:?}")
                });
            assert_eq!(got.status, 0, "`{script}` under /bin/sh at width {width}");
            assert!(
                got.stdout == expected.stdout,
                "`{script}` under /bin/sh at width {width}: output differs"
            );
        }
    }
}

/// A consumer that stops early on 8 MiB of stdin: `head` is satisfied
/// after three lines, and whatever feeds the stdin edge — the `threads`
/// runner's feeder thread, the `processes` parent's feeder, the bytes
/// a `remote` worker decoded — is hung up on mid-stream. That must end
/// the attempt, not wedge it: every backend at widths 1 and 2 finishes
/// under the same killing deadline with width 1's bytes.
#[test]
fn an_early_hang_up_on_stdin_finishes_under_a_watchdog() {
    use pash::runtime::SupervisorSettings;
    use std::time::Duration;
    const WATCHDOG: Duration = Duration::from_secs(30);
    const SCRIPT: &str = "tr A-Z a-z | head -n 3";

    let Some(bins) = harness() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    let stdin = pash_bench::fixtures::cached_corpus(29, 8 << 20);
    let make_fs = || cached_fs("differential/stdin/empty".to_string(), |_| {});
    let watched = || SupervisorSettings {
        region_deadline: Some(WATCHDOG),
        max_retries: 0,
        fallback: false,
        ..Default::default()
    };
    let setup = |width| Setup {
        cfg: PashConfig::best(width),
        stdin: &stdin[..],
    };
    let seq = setup(1);
    let expected = observe_threads(SCRIPT, make_fs(), &seq, &seq.cfg, 64 * 1024);
    assert_eq!(expected.status, 0);
    assert_eq!(expected.stdout.iter().filter(|&&b| b == b'\n').count(), 3);
    let workers = RemoteWorkers::spawn(2);
    for width in [1usize, 2] {
        let setup = setup(width);
        for backend in ["threads", "processes", "remote"] {
            let mut env = RunEnv {
                fs: make_fs(),
                stdin: stdin.to_vec(),
                workers: workers.sockets.clone(),
                proc: ProcSettings {
                    pashc: Some(bins.0.clone()),
                    pash_rt: Some(bins.1.clone()),
                    supervisor: watched(),
                    ..Default::default()
                },
                ..Default::default()
            };
            env.exec.supervisor = watched();
            match run(SCRIPT, &setup.cfg, backend, &env) {
                Ok(BackendOutput::Execution(o)) => {
                    assert_eq!(o.status, 0, "{backend} at width {width}");
                    assert_eq!(o.stdout, expected.stdout, "{backend} at width {width}");
                }
                other => panic!(
                    "{backend} at width {width} did not finish within {WATCHDOG:?}: {:?}",
                    other.map(|_| "no execution")
                ),
            }
        }
    }
}

/// A region attempt's verdict: its status, and the `(node, status)`
/// of each node that status is folded from.
type RegionVerdict = (i32, Vec<(usize, i32)>);

/// What one schedule left behind for one script: the program's
/// output, every file it wrote, and every region's verdict.
#[derive(Debug, PartialEq, Eq)]
struct ScheduleRun {
    stdout: Vec<u8>,
    status: i32,
    files: Vec<(String, Vec<u8>)>,
    regions: Vec<RegionVerdict>,
}

/// Runs `script` on the `threads` runner at `pipe_capacity`, recording
/// every region attempt's verdict on the way.
fn observe_schedule(
    script: &str,
    fs: Arc<MemFs>,
    cfg: &PashConfig,
    pipe_capacity: usize,
) -> ScheduleRun {
    use pash::core::plan::RegionPlan;
    use pash::coreutils::fs::Fs;
    use pash::runtime::exec::{ExecConfig, ThreadsRunner};
    use pash::runtime::fault::{ArmedFault, ExecError};
    use pash::runtime::{drive, RegionOutput, RegionRunner, SupervisorSettings};
    use std::sync::Mutex;

    struct Recording<'a> {
        inner: ThreadsRunner<'a>,
        regions: Mutex<Vec<RegionVerdict>>,
    }
    impl RegionRunner for Recording<'_> {
        fn attempt(
            &self,
            r: &RegionPlan,
            feed: &[u8],
            fault: Option<&ArmedFault>,
            attempt_no: u32,
            supervised: Option<&SupervisorSettings>,
        ) -> Result<RegionOutput, ExecError> {
            let out = self.inner.attempt(r, feed, fault, attempt_no, supervised)?;
            let sources = r
                .status_sources()
                .into_iter()
                .map(|id| {
                    let (_, status) = out.statuses.iter().find(|(n, _)| *n == id).expect("ran");
                    (id, *status)
                })
                .collect();
            self.regions.lock().unwrap().push((out.status, sources));
            Ok(out)
        }
    }

    let compiled = pash::compile(script, cfg).expect("compile");
    let registry = pash::coreutils::Registry::standard();
    let exec = ExecConfig {
        pipe_capacity,
        ..Default::default()
    };
    let dyn_fs: Arc<dyn Fs> = fs.clone();
    let recording = Recording {
        inner: ThreadsRunner {
            registry: &registry,
            fs: &dyn_fs,
            cfg: &exec,
        },
        regions: Mutex::new(Vec::new()),
    };
    let out = drive(&compiled.plan, None, &recording, &exec.supervisor, &[])
        .unwrap_or_else(|e| panic!("threads failed: {e}\nscript: {script}"));
    let counters = &exec.supervisor.counters;
    if pipe_capacity == RUN_TO_COMPLETION {
        assert_eq!(counters.threaded_regions(), 0, "`{script}`");
    } else {
        assert!(counters.threaded_regions() > 0, "`{script}`");
    }
    ScheduleRun {
        stdout: out.stdout,
        status: out.status,
        files: fs
            .paths()
            .into_iter()
            .map(|p| (p.clone(), fs.read(&p).expect("listed file")))
            .collect(),
        regions: recording.regions.into_inner().unwrap(),
    }
}

/// Two schedules of one plan: whatever the suite scripts compile to at
/// widths 1, 2 and 4 under either split, running each region node by
/// node on one thread and running it with a thread per node leave the
/// same stdout, the same files, and per region the same status folded
/// from the same status-source node statuses. No binaries, no
/// `/bin/sh`: this one runs on every host.
#[test]
fn schedules_agree_on_every_suite_script() {
    type MakeFs = Box<dyn Fn() -> Arc<MemFs>>;
    let mut cases: Vec<(String, String, MakeFs)> = Vec::new();
    for bench in oneliners::all() {
        cases.push((
            bench.name.to_string(),
            bench.script.clone(),
            Box::new(move || {
                cached_fs(
                    format!("differential/oneliners/{}/30000", bench.name),
                    |fs| oneliners::setup_fs(&bench, 30_000, fs),
                )
            }),
        ));
    }
    for p in unix50::all() {
        cases.push((
            format!("unix50 #{}", p.idx),
            p.script.to_string(),
            Box::new(|| {
                cached_fs("differential/unix50/20000".to_string(), |fs| {
                    unix50::setup_fs(20_000, fs)
                })
            }),
        ));
    }
    for bench in pash::workloads::nlp::scripts() {
        cases.push((
            bench.name.to_string(),
            bench.script.to_string(),
            Box::new(|| {
                cached_fs("differential/nlp/24000".to_string(), |fs| {
                    pash::workloads::nlp::setup_fs(24_000, fs)
                })
            }),
        ));
    }
    for (label, script, make_fs) in &cases {
        for width in [1usize, 2, 4] {
            for (split, cfg) in [
                ("sized", PashConfig::best(width)),
                ("round-robin", PashConfig::round_robin(width)),
            ] {
                let [inline, threaded] = SCHEDULES
                    .map(|(_, capacity)| observe_schedule(script, make_fs(), &cfg, capacity));
                assert_eq!(
                    inline, threaded,
                    "{label}: schedules diverged at width {width}, {split} split\nscript: {script}"
                );
            }
        }
    }
}

/// The `remote` rows pass whether a region ran on a worker or fell
/// back to the coordinator, so the codec regions ship in is held here
/// on its own: every region the suite scripts compile to, at widths 1,
/// 2 and 4 under either split, comes back out of the `Execute` codec as
/// it went in. No workers, no binaries.
#[test]
fn every_suite_region_round_trips_through_the_execute_codec() {
    use pash::runtime::remote::ExecuteRequest;
    use pash::runtime::service::{read_request, write_request, Request};
    let scripts = oneliners::all()
        .into_iter()
        .map(|b| b.script)
        .chain(unix50::all().into_iter().map(|p| p.script.to_string()))
        .chain(
            pash::workloads::nlp::scripts()
                .into_iter()
                .map(|b| b.script.to_string()),
        );
    let mut regions = 0;
    for script in scripts {
        for width in [1usize, 2, 4] {
            for cfg in [PashConfig::best(width), PashConfig::round_robin(width)] {
                let plan = pash::core::compile::compile(&script, &cfg)
                    .expect("compile")
                    .plan;
                for region in plan.regions() {
                    let req = Request::Execute(ExecuteRequest {
                        region: region.clone(),
                        files: Vec::new(),
                        stdin: Vec::new(),
                        fault: None,
                    });
                    let mut wire = Vec::new();
                    write_request(&mut wire, &req).expect("encode");
                    let back = read_request(&mut wire.as_slice())
                        .expect("decode")
                        .expect("one request");
                    assert_eq!(back, req, "width {width}\nscript: {script}");
                    regions += 1;
                }
            }
        }
    }
    assert!(regions >= 300, "only {regions} regions compiled");
}

#[test]
fn nlp_differential_across_backends() {
    let Some(bins) = harness() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    let make_fs = || {
        cached_fs("differential/nlp/24000".to_string(), |fs| {
            pash::workloads::nlp::setup_fs(24_000, fs)
        })
    };
    for bench in pash::workloads::nlp::scripts() {
        assert_backends_agree(bench.name, bench.script, &make_fs, &Setup::split(4), &bins);
        assert_backends_agree(
            &format!("{}-rr", bench.name),
            bench.script,
            &make_fs,
            &Setup::round_robin(4),
            &bins,
        );
    }
}

#[test]
fn statuses_and_guards_agree_across_backends() {
    let Some(bins) = harness() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    let make_fs = || {
        cached_fs("differential/status/basic".to_string(), |fs| {
            fs.add(
                "in.txt",
                b"the quick brown fox\njumps over the lazy dog\n".to_vec(),
            );
        })
    };
    // A failing final region (grep finds nothing → status 1) and a
    // head early-exit teardown, at parallel width.
    for (label, script) in [
        ("grep-miss", "grep zzz in.txt > out.txt"),
        (
            "head-early-exit",
            "cat in.txt | sort -rn | head -n 1 > out.txt",
        ),
    ] {
        assert_backends_agree(label, script, &make_fs, &Setup::split(4), &bins);
    }
    // Guard chains at parallel widths: the status fold over the
    // region's real commands keeps a guarded `grep` miss gating the
    // next step exactly as the sequential script would, for both
    // split strategies.
    for (label, script) in [
        (
            "guard-or",
            "grep zzz in.txt > miss.txt || cat in.txt > out.txt",
        ),
        (
            "guard-and",
            "grep the in.txt > out.txt && cat out.txt | wc -l",
        ),
        (
            "guard-and-skipped",
            "grep zzz in.txt > miss.txt && cat in.txt > out.txt",
        ),
        // The second step reads `a.txt` by a name it learns at run
        // time, which no plan edge shows: only program order keeps it
        // behind the step that writes the file.
        (
            "read-back-by-name",
            "grep the in.txt > a.txt\necho a.txt | xargs cat | wc -l > out.txt",
        ),
    ] {
        for setup in [Setup::split(1), Setup::split(4), Setup::round_robin(4)] {
            assert_backends_agree(
                &format!("{label}@{}", setup.cfg.width),
                script,
                &make_fs,
                &setup,
                &bins,
            );
        }
    }
}

/// `script` under the host's `/bin/sh` and utilities, in a directory
/// holding `fs`'s files.
fn observe_host(script: &str, fs: &MemFs) -> Observed {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pash-diff-host-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    materialize(fs, &dir);
    let out = Command::new("/bin/sh")
        .args(["-c", script])
        .current_dir(&dir)
        .env("LC_ALL", "C")
        .stdin(Stdio::null())
        .output()
        .expect("run the host shell");
    let observed = Observed {
        stdout: out.stdout,
        status: out.status.code().unwrap_or(1),
        out_file: std::fs::read(dir.join("out.txt")).ok(),
    };
    let _ = std::fs::remove_dir_all(&dir);
    observed
}

/// `grep -n` numbers the lines of its whole input and `grep -m N`
/// stops after N matches of it, so neither may run per segment; nor
/// may a `tr -s` whose squeezed run can span a line end: after the
/// `cut`, every line of this corpus starts with a digit, which the
/// `tr -cs` folds into the previous line's newline. On an input whose
/// later segments hold matches, widths 2 and 4 must give the width-1
/// bytes, and width 1 the host's. The input outgrows any pipe buffer,
/// so `threads` runs a thread per node.
#[test]
fn grep_line_numbers_and_caps_match_width_one() {
    let Some(bins) = harness() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    let capacity = pash::runtime::exec::ExecConfig::default().pipe_capacity;
    let make_fs = || {
        cached_fs("differential/grep-n-m/200000".to_string(), |fs| {
            fs.add("in.txt", pash::workloads::columnar_corpus(23, 200_000, 3));
        })
    };
    for script in [
        "cat in.txt | grep -n the | cut -d : -f 1 | tail -n 5",
        "cat in.txt | grep -m 3 the",
        "cat in.txt | grep -c -m 3 the",
        "cat in.txt | cut -d ' ' -f 2- | tr -cs A-Za-z '\\n' | wc -l",
    ] {
        let sequential = Setup::split(1);
        let want = observe_threads(script, make_fs(), &sequential, &sequential.cfg, capacity);
        assert_eq!(want, observe_host(script, &make_fs()), "host: {script}");
        for width in [2, 4] {
            for setup in [Setup::split(width), Setup::round_robin(width)] {
                let label = format!("{:?} width {width}: {script}", setup.cfg.split);
                let got = observe_threads(script, make_fs(), &setup, &setup.cfg, capacity);
                assert_eq!(got, want, "threads, {label}");
                let got = observe_processes(script, make_fs(), &setup, &bins);
                assert_eq!(got, want, "processes, {label}");
                let got = observe_shell(script, make_fs(), &setup, &bins);
                assert_eq!(got, want, "shell, {label}");
            }
        }
    }
}

#[test]
fn stdin_feeds_all_backends_identically() {
    let Some(bins) = harness() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    let make_fs = || cached_fs("differential/stdin/empty".to_string(), |_| {});
    let stdin_setup = |mut setup: Setup<'static>| {
        setup.stdin = b"delta\nalpha\ncharlie\n";
        setup
    };
    for setup in [
        stdin_setup(Setup::split(2)),
        stdin_setup(Setup::round_robin(2)),
    ] {
        assert_backends_agree(
            "stdin-pipeline",
            "tr a-z A-Z | sort",
            &make_fs,
            &setup,
            &bins,
        );
    }
    // The stdin consumer is the *second* region: the emitted script
    // keeps real stdin on a saved fd across regions, so executors
    // must not hand the bytes to a region that has no stdin edge.
    let make_fs = || {
        cached_fs("differential/stdin/later-region".to_string(), |fs| {
            fs.add("in.txt", b"the quick brown fox\n".to_vec());
        })
    };
    let mut setup = Setup::split(2);
    setup.stdin = b"abc\n";
    assert_backends_agree(
        "stdin-second-region",
        "grep the in.txt > out.txt && tr a-z A-Z",
        &make_fs,
        &setup,
        &bins,
    );
}
