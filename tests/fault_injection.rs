//! Differential fault sweep: every injected fault kind, on all three
//! execution backends (threads, processes, remote workers over
//! sockets), at several widths, must leave the program's observable
//! behaviour — stdout bytes, output-file bytes, exit status —
//! identical to an undisturbed width-1 sequential run.
//!
//! That is the supervisor's contract: faults may cost retries,
//! deadline kills, or a sequential re-execution, but they can never
//! corrupt output. The dedicated cases below additionally pin *which*
//! recovery path fired, via the supervisor counters.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pash::core::compile::PashConfig;
use pash::coreutils::fs::MemFs;
use pash::runtime::fault::{FaultKind, FaultPlan};
use pash::runtime::supervise::{SupervisorCounters, SupervisorSettings};
use pash::{run, BackendOutput, ProcSettings, RunEnv};
use pash_bench::fixtures::runtime_binaries;

/// Two regions: one redirected to a file, one on stdout, so the sweep
/// checks both observable channels. Every stage is replayable, so the
/// supervisor may retry freely.
const SCRIPT: &str = "cat in.txt | tr A-Z a-z | grep the > out.txt\n\
                      cat in.txt | tr a-z A-Z | grep THE";

/// A deterministic corpus with plenty of `the` matches. Big enough
/// (~1 MiB) that the round-robin split deals many blocks to *every*
/// worker at width 8 — a fault targeting any worker then lands on a
/// live stream, not an idle one (the splitter's smallest adaptive
/// block is 16 KiB).
fn corpus() -> Vec<u8> {
    let mut out = Vec::with_capacity(1 << 20);
    let mut i = 0u32;
    while out.len() < 1 << 20 {
        if i.is_multiple_of(3) {
            out.extend_from_slice(format!("line {i} over the lazy dog\n").as_bytes());
        } else {
            out.extend_from_slice(format!("Record {i} without a match {i:04x}\n").as_bytes());
        }
        i += 1;
    }
    out
}

fn fresh_fs() -> Arc<MemFs> {
    let fs = Arc::new(MemFs::new());
    fs.add("in.txt", corpus());
    fs
}

#[derive(Debug, PartialEq, Eq)]
struct Observed {
    stdout: Vec<u8>,
    status: i32,
    out_file: Option<Vec<u8>>,
}

/// The round-robin config: framed edges exist, so stream faults
/// (truncate / corrupt) have eligible sites.
fn cfg(width: usize) -> PashConfig {
    PashConfig::round_robin(width)
}

/// The fault-free width-1 run every faulted run must match.
fn reference() -> Observed {
    let (obs, _) = run_threads(1, SupervisorSettings::default());
    obs
}

fn observe(env: &RunEnv, out: BackendOutput, what: &str) -> Observed {
    match out {
        BackendOutput::Execution(o) => Observed {
            stdout: o.stdout,
            status: o.status,
            out_file: env.fs.read("out.txt").ok(),
        },
        other => panic!("{what} produced {other:?}"),
    }
}

fn run_threads(width: usize, sup: SupervisorSettings) -> (Observed, Arc<SupervisorCounters>) {
    let counters = sup.counters.clone();
    let mut env = RunEnv {
        fs: fresh_fs(),
        ..Default::default()
    };
    env.exec.supervisor = sup;
    let out = run(SCRIPT, &cfg(width), "threads", &env).expect("threads run");
    (observe(&env, out, "threads"), counters)
}

/// `None` when the multicall binaries cannot be built on this host.
fn run_processes(
    width: usize,
    sup: SupervisorSettings,
) -> Option<(Observed, Arc<SupervisorCounters>)> {
    let bins = runtime_binaries()?;
    let counters = sup.counters.clone();
    let env = RunEnv {
        fs: fresh_fs(),
        proc: ProcSettings {
            pashc: Some(bins.0),
            pash_rt: Some(bins.1),
            supervisor: sup,
            ..Default::default()
        },
        ..Default::default()
    };
    let out = run(SCRIPT, &cfg(width), "processes", &env).expect("processes run");
    Some((observe(&env, out, "processes"), counters))
}

/// Two in-process `pash-worker` serve loops, so the remote sweep
/// exercises real placement (and rerouting) on localhost.
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
                "pash-fault-worker-{}-{}",
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

fn run_remote(
    width: usize,
    sup: SupervisorSettings,
    workers: &RemoteWorkers,
) -> (Observed, Arc<SupervisorCounters>) {
    let counters = sup.counters.clone();
    let mut env = RunEnv {
        fs: fresh_fs(),
        workers: workers.sockets.clone(),
        ..Default::default()
    };
    env.exec.supervisor = sup;
    let out = run(SCRIPT, &cfg(width), "remote", &env).expect("remote run");
    (observe(&env, out, "remote"), counters)
}

/// One deterministic seed per (kind, width) cell.
fn seed(kind: FaultKind, width: usize) -> u64 {
    FaultKind::ALL.iter().position(|&k| k == kind).unwrap() as u64 * 131 + width as u64 * 7 + 1
}

fn single_shot(kind: FaultKind, width: usize) -> SupervisorSettings {
    SupervisorSettings {
        fault: Some(FaultPlan::new(kind, seed(kind, width))),
        ..Default::default()
    }
}

#[test]
fn fault_sweep_threads_is_byte_identical_to_sequential() {
    let expect = reference();
    let mut injected = 0u64;
    for kind in FaultKind::ALL {
        for width in [2usize, 4, 8] {
            let (got, counters) = run_threads(width, single_shot(kind, width));
            assert_eq!(
                got,
                expect,
                "threads diverged under {} at width {width}",
                kind.name()
            );
            injected += counters.injected();
        }
    }
    assert!(
        injected >= FaultKind::ALL.len() as u64,
        "sweep armed only {injected} faults — injection plane inert"
    );
}

#[test]
fn fault_sweep_processes_is_byte_identical_to_sequential() {
    if runtime_binaries().is_none() {
        eprintln!("skipping: multicall binaries not built");
        return;
    }
    let expect = reference();
    let mut injected = 0u64;
    for kind in FaultKind::ALL {
        for width in [2usize, 4, 8] {
            let (got, counters) =
                run_processes(width, single_shot(kind, width)).expect("binaries present");
            assert_eq!(
                got,
                expect,
                "processes diverged under {} at width {width}",
                kind.name()
            );
            injected += counters.injected();
        }
    }
    assert!(
        injected >= FaultKind::ALL.len() as u64,
        "sweep armed only {injected} faults — injection plane inert"
    );
}

#[test]
fn fault_sweep_remote_is_byte_identical_to_sequential() {
    let workers = RemoteWorkers::spawn(2);
    let expect = reference();
    let mut injected = 0u64;
    for kind in FaultKind::ALL {
        for width in [2usize, 4, 8] {
            let (got, counters) = run_remote(width, single_shot(kind, width), &workers);
            assert_eq!(
                got,
                expect,
                "remote diverged under {} at width {width}",
                kind.name()
            );
            injected += counters.injected();
        }
    }
    assert!(
        injected >= FaultKind::ALL.len() as u64,
        "sweep armed only {injected} faults — injection plane inert"
    );
}

#[test]
fn remote_conn_drop_reroutes_to_the_other_worker() {
    let workers = RemoteWorkers::spawn(2);
    let sup = SupervisorSettings {
        fault: Some(FaultPlan::new(FaultKind::ConnDrop, 7)),
        ..Default::default()
    };
    let (got, counters) = run_remote(4, sup, &workers);
    assert_eq!(got, reference());
    assert!(counters.injected() >= 1, "conn drop never armed");
    assert!(counters.retries() >= 1, "recovery did not use a retry");
    assert!(
        counters.reroutes() >= 1,
        "the retry stayed on the dropped worker"
    );
}

#[test]
fn remote_slow_worker_is_torn_down_by_the_region_deadline() {
    let workers = RemoteWorkers::spawn(2);
    let sup = SupervisorSettings {
        fault: Some(FaultPlan::new(FaultKind::SlowWorker, 3).stall(Duration::from_secs(30))),
        region_deadline: Some(Duration::from_millis(400)),
        ..Default::default()
    };
    let (got, counters) = run_remote(4, sup, &workers);
    assert_eq!(got, reference());
    assert!(
        counters.deadline_kills() >= 1,
        "a 30s stall under a 400ms deadline must be torn down"
    );
}

#[test]
fn dead_worker_pool_degrades_to_the_local_backend() {
    // Nobody listens on this socket: every remote attempt fails to
    // connect, and the ladder's middle rung (clean local run at full
    // width) must produce the reference bytes.
    let env_workers = vec![std::env::temp_dir().join("pash-fault-worker-nobody")];
    let sup = SupervisorSettings::default();
    let counters = sup.counters.clone();
    let mut env = RunEnv {
        fs: fresh_fs(),
        workers: env_workers,
        ..Default::default()
    };
    env.exec.supervisor = sup;
    let out = run(SCRIPT, &cfg(4), "remote", &env).expect("degraded remote run");
    let got = observe(&env, out, "remote");
    assert_eq!(got, reference());
    assert!(
        counters.local_fallbacks() >= 1,
        "the local rung never fired"
    );
}

#[test]
fn killed_worker_recovers_via_retry() {
    let (got, counters) = run_threads(4, single_shot(FaultKind::KillWorker, 4));
    assert_eq!(got, reference());
    assert!(counters.injected() >= 1, "fault never armed");
    assert!(counters.retries() >= 1, "recovery did not use a retry");
    assert_eq!(
        counters.fallbacks(),
        0,
        "single-shot fault must not need fallback"
    );
}

#[test]
fn stalled_edge_is_killed_by_the_region_deadline() {
    let sup = SupervisorSettings {
        fault: Some(FaultPlan::new(FaultKind::Stall, 9).stall(Duration::from_secs(30))),
        region_deadline: Some(Duration::from_millis(400)),
        ..Default::default()
    };
    let (got, counters) = run_threads(4, sup);
    assert_eq!(got, reference());
    assert!(
        counters.deadline_kills() >= 1,
        "the watchdog never fired on a 30s stall under a 400ms deadline"
    );
    assert!(counters.retries() >= 1, "deadline kill should be retried");
}

#[test]
fn persistent_fault_degrades_to_the_sequential_fallback() {
    let sup = SupervisorSettings {
        fault: Some(FaultPlan::new(FaultKind::KillWorker, 5).budget(u32::MAX)),
        max_retries: 1,
        ..Default::default()
    };
    let (got, counters) = run_threads(4, sup);
    assert_eq!(got, reference(), "fallback output must be the reference");
    assert!(
        counters.fallbacks() >= 1,
        "an every-attempt fault must exhaust retries and fall back"
    );
    assert!(counters.retries() >= 1);
}

/// A region fed on stdin, many pipe buffers of it: the `threads`
/// runner feeds its consumer through a ring, the `processes` runner
/// through the child's stdin pipe, both from the caller's borrowed
/// bytes.
const STDIN_SCRIPT: &str = "tr A-Z a-z | grep the";

/// `STDIN_SCRIPT` over [`corpus`] on `backend` at `width`; `None` when
/// the backend is `processes` and the multicall binaries cannot be
/// built on this host.
fn run_on_stdin(
    backend: &str,
    width: usize,
    sup: SupervisorSettings,
) -> Option<(Observed, Arc<SupervisorCounters>)> {
    let counters = sup.counters.clone();
    let mut env = RunEnv {
        stdin: corpus(),
        ..Default::default()
    };
    if backend == "processes" {
        let bins = runtime_binaries()?;
        env.proc = ProcSettings {
            pashc: Some(bins.0),
            pash_rt: Some(bins.1),
            supervisor: sup,
            ..Default::default()
        };
    } else {
        env.exec.supervisor = sup;
    }
    let out = run(STDIN_SCRIPT, &cfg(width), backend, &env).expect("stdin-fed run");
    Some((observe(&env, out, backend), counters))
}

/// Every attempt at a stdin-fed region reads the caller's feed from
/// byte 0: a retry after a killed worker, and the width-1 fallback
/// after every retry is spent, both leave the fault-free bytes.
#[test]
fn retries_and_the_fallback_reread_the_stdin_feed() {
    let (expect, _) = run_on_stdin("threads", 1, SupervisorSettings::default()).expect("threads");
    assert!(!expect.stdout.is_empty());
    for backend in ["threads", "processes"] {
        let retried = single_shot(FaultKind::KillWorker, 4);
        let Some((got, counters)) = run_on_stdin(backend, 4, retried) else {
            eprintln!("skipping processes: multicall binaries not built");
            continue;
        };
        assert_eq!(got, expect, "{backend}: a retry re-reads stdin");
        assert!(counters.retries() >= 1, "{backend}: no retry ran");
        assert_eq!(counters.fallbacks(), 0, "{backend}");

        let persistent = SupervisorSettings {
            fault: Some(FaultPlan::new(FaultKind::KillWorker, 5).budget(u32::MAX)),
            max_retries: 1,
            ..Default::default()
        };
        let (got, counters) = run_on_stdin(backend, 4, persistent).expect("ran above");
        assert_eq!(got, expect, "{backend}: the fallback re-reads stdin");
        assert!(counters.retries() >= 1, "{backend}: no retry ran");
        assert!(counters.fallbacks() >= 1, "{backend}: no fallback ran");
    }
}

#[test]
fn wedged_child_is_killed_by_the_proc_deadline() {
    if runtime_binaries().is_none() {
        eprintln!("skipping: multicall binaries not built");
        return;
    }
    let sup = SupervisorSettings {
        fault: Some(FaultPlan::new(FaultKind::Stall, 13).stall(Duration::from_secs(30))),
        region_deadline: Some(Duration::from_millis(600)),
        ..Default::default()
    };
    let (got, counters) = run_processes(2, sup).expect("binaries present");
    assert_eq!(got, reference());
    assert!(
        counters.deadline_kills() >= 1,
        "a wedged child must be SIGKILLed at the deadline, not waited out"
    );
}
