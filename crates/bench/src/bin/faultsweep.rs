//! `faultsweep` — the differential fault-injection smoke gate.
//!
//! Runs a two-region pipeline under every [`FaultKind`] at several
//! widths on the `threads` backend *and* on the `remote` backend (two
//! in-process workers on localhost sockets), and requires the
//! observable behaviour — stdout bytes, output-file bytes, exit
//! status — to be byte-identical to an undisturbed width-1 sequential
//! run. Dedicated episodes additionally pin the recovery paths: a
//! persistent fault must end in the sequential fallback, a stalled
//! edge must be cut by the region deadline, a dropped worker
//! connection must reroute its retry to the other worker, and a dead
//! worker pool must degrade to the local backend. Each of those
//! episodes also prints its wall time beside the undisturbed run's at
//! the same width (not gated: what recovery costs on this machine).
//!
//! This is the quick CI face of `tests/fault_injection.rs`: seconds,
//! hermetic (MemFs), exit status 0/1. Usage: `faultsweep`.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pash_core::compile::{compile_cached, PashConfig};
use pash_coreutils::fs::MemFs;
use pash_coreutils::Registry;
use pash_runtime::exec::{run_program_with_fallback, ExecConfig};
use pash_runtime::fault::{FaultKind, FaultPlan};
use pash_runtime::remote::{bind_worker, serve_worker, shutdown_worker, WorkerPool};
use pash_runtime::run_program_remote;
use pash_runtime::supervise::SupervisorSettings;

/// Two regions — one redirected to a file, one on stdout — so both
/// observable channels are checked.
const SCRIPT: &str = "cat in.txt | tr A-Z a-z | grep the > out.txt\n\
                      cat in.txt | tr a-z A-Z | grep THE";

const WIDTHS: [usize; 3] = [2, 4, 8];

/// ~1 MiB: the round-robin splitter's smallest adaptive block is
/// 16 KiB, so anything smaller leaves width-8 workers idle and a
/// fault aimed at them lands on a dead stream.
fn corpus() -> Vec<u8> {
    let mut out = Vec::with_capacity(1 << 20);
    let mut i = 0u32;
    while out.len() < 1 << 20 {
        if i % 3 == 0 {
            out.extend_from_slice(format!("line {i} over the lazy dog\n").as_bytes());
        } else {
            out.extend_from_slice(format!("Record {i} without a match {i:04x}\n").as_bytes());
        }
        i += 1;
    }
    out
}

struct Observed {
    stdout: Vec<u8>,
    status: i32,
    out_file: Option<Vec<u8>>,
    /// Wall time of the run (compiled plans come from the memo).
    wall: Duration,
}

/// One run under the supervisor settings — on the `threads` backend,
/// or with `workers` on the `remote` backend, regions shipped to that
/// pool — returning what a caller can observe plus the counter totals
/// `[injected, retries, deadline kills, sequential fallbacks,
/// reroutes, local fallbacks]` for the gate summary.
fn run(width: usize, sup: SupervisorSettings, workers: Option<&[PathBuf]>) -> (Observed, [u64; 6]) {
    let counters = sup.counters.clone();
    let cfg = PashConfig::round_robin(width);
    let compiled = compile_cached(SCRIPT, &cfg).expect("compile sweep script");
    let fallback = compile_cached(SCRIPT, &PashConfig::round_robin(1)).expect("compile fallback");
    let fallback = (width != 1).then_some(&fallback.plan);
    let fs = Arc::new(MemFs::new());
    fs.add("in.txt", corpus());
    let exec = ExecConfig {
        supervisor: sup,
        ..Default::default()
    };
    let registry = Registry::standard();
    let start = Instant::now();
    let out = match workers {
        None => run_program_with_fallback(
            &compiled.plan,
            fallback,
            &registry,
            fs.clone(),
            Vec::new(),
            &exec,
        ),
        Some(sockets) => run_program_remote(
            &compiled.plan,
            fallback,
            &registry,
            fs.clone(),
            Vec::new(),
            &exec,
            &WorkerPool::new(sockets.to_vec()),
        ),
    }
    .expect("sweep run");
    (
        Observed {
            stdout: out.stdout,
            status: out.status,
            out_file: fs.read("out.txt").ok(),
            wall: start.elapsed(),
        },
        [
            counters.injected(),
            counters.retries(),
            counters.deadline_kills(),
            counters.fallbacks(),
            counters.reroutes(),
            counters.local_fallbacks(),
        ],
    )
}

/// In-process `pash-worker` loops on temp sockets; shut down on drop.
struct Workers {
    sockets: Vec<PathBuf>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Workers {
    fn spawn(n: usize) -> Workers {
        let mut sockets = Vec::new();
        let mut handles = Vec::new();
        for i in 0..n {
            let socket = std::env::temp_dir()
                .join(format!("pash-faultsweep-worker-{}-{i}", std::process::id()));
            let listener = bind_worker(&socket).expect("bind worker");
            let s = socket.clone();
            handles.push(std::thread::spawn(move || {
                serve_worker(listener, &s, Arc::new(AtomicBool::new(false))).expect("serve");
            }));
            sockets.push(socket);
        }
        Workers { sockets, handles }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        for s in &self.sockets {
            shutdown_worker(s);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn check(label: &str, got: &Observed, expect: &Observed, failures: &mut u32) {
    let ok = got.stdout == expect.stdout
        && got.status == expect.status
        && got.out_file == expect.out_file;
    if ok {
        println!("ok   {label}");
    } else {
        println!(
            "FAIL {label}: stdout {}B/{}B status {}/{} out.txt {:?}B/{:?}B",
            got.stdout.len(),
            expect.stdout.len(),
            got.status,
            expect.status,
            got.out_file.as_ref().map(Vec::len),
            expect.out_file.as_ref().map(Vec::len),
        );
        *failures += 1;
    }
}

/// What a recovery episode cost beside the same run left alone.
fn wall(got: &Observed, undisturbed: &Observed) {
    println!(
        "     wall {:.3}s, undisturbed {:.3}s",
        got.wall.as_secs_f64(),
        undisturbed.wall.as_secs_f64()
    );
}

fn main() {
    let (expect, _) = run(1, SupervisorSettings::default(), None);
    let (undisturbed, _) = run(4, SupervisorSettings::default(), None);
    let mut failures = 0u32;
    let mut totals = [0u64; 6];

    // The sweep: one seeded single-shot fault per (kind, width) cell.
    for kind in FaultKind::ALL {
        for width in WIDTHS {
            let seed = FaultKind::ALL.iter().position(|&k| k == kind).unwrap() as u64 * 131
                + width as u64 * 7
                + 1;
            let sup = SupervisorSettings {
                fault: Some(FaultPlan::new(kind, seed)),
                ..Default::default()
            };
            let (got, c) = run(width, sup, None);
            check(
                &format!("{} width {width}", kind.name()),
                &got,
                &expect,
                &mut failures,
            );
            for (t, v) in totals.iter_mut().zip(c) {
                *t += v;
            }
        }
    }

    // A persistent fault must burn the retry budget and degrade to the
    // sequential fallback — with the reference output.
    let sup = SupervisorSettings {
        fault: Some(FaultPlan::new(FaultKind::KillWorker, 5).budget(u32::MAX)),
        max_retries: 1,
        ..Default::default()
    };
    let (got, c) = run(4, sup, None);
    check(
        "persistent kill-worker (fallback)",
        &got,
        &expect,
        &mut failures,
    );
    wall(&got, &undisturbed);
    if c[3] == 0 {
        println!("FAIL persistent fault never reached the sequential fallback");
        failures += 1;
    }
    for (t, v) in totals.iter_mut().zip(c) {
        *t += v;
    }

    // A wedged edge must be cut by the region deadline, not waited out.
    let sup = SupervisorSettings {
        fault: Some(FaultPlan::new(FaultKind::Stall, 9).stall(Duration::from_secs(30))),
        region_deadline: Some(Duration::from_millis(400)),
        ..Default::default()
    };
    let (got, c) = run(4, sup, None);
    check(
        "30s stall under 400ms deadline",
        &got,
        &expect,
        &mut failures,
    );
    wall(&got, &undisturbed);
    if c[2] == 0 {
        println!("FAIL the deadline watchdog never fired on a wedged edge");
        failures += 1;
    }
    for (t, v) in totals.iter_mut().zip(c) {
        *t += v;
    }

    let [injected, retries, kills, fallbacks, ..] = totals;
    println!(
        "\nfaultsweep(threads): {} cells, {injected} injected, {retries} retries, \
         {kills} deadline kills, {fallbacks} fallbacks, {failures} failures",
        FaultKind::ALL.len() * WIDTHS.len() + 2,
    );
    if injected < FaultKind::ALL.len() as u64 {
        println!("FAIL only {injected} faults armed — injection plane inert");
        failures += 1;
    }

    // --- the remote backend: the same sweep, regions shipped to two
    // localhost workers under the remote recovery ladder ---------------
    let workers = Workers::spawn(2);
    let (undisturbed, _) = run(4, SupervisorSettings::default(), Some(&workers.sockets));
    let mut rtotals = [0u64; 6];
    for kind in FaultKind::ALL {
        for width in WIDTHS {
            let seed = FaultKind::ALL.iter().position(|&k| k == kind).unwrap() as u64 * 131
                + width as u64 * 7
                + 1;
            let sup = SupervisorSettings {
                fault: Some(FaultPlan::new(kind, seed)),
                ..Default::default()
            };
            let (got, c) = run(width, sup, Some(&workers.sockets));
            check(
                &format!("remote {} width {width}", kind.name()),
                &got,
                &expect,
                &mut failures,
            );
            for (t, v) in rtotals.iter_mut().zip(c) {
                *t += v;
            }
        }
    }

    // A dropped connection must reroute its retry to the other worker.
    let sup = SupervisorSettings {
        fault: Some(FaultPlan::new(FaultKind::ConnDrop, 7)),
        ..Default::default()
    };
    let (got, c) = run(4, sup, Some(&workers.sockets));
    check("remote conn-drop (reroute)", &got, &expect, &mut failures);
    wall(&got, &undisturbed);
    if c[4] == 0 {
        println!("FAIL the conn-drop retry never rerouted to the other worker");
        failures += 1;
    }
    for (t, v) in rtotals.iter_mut().zip(c) {
        *t += v;
    }

    // A stalled worker must be torn down by the region deadline.
    let sup = SupervisorSettings {
        fault: Some(FaultPlan::new(FaultKind::SlowWorker, 3).stall(Duration::from_secs(30))),
        region_deadline: Some(Duration::from_millis(400)),
        ..Default::default()
    };
    let (got, c) = run(4, sup, Some(&workers.sockets));
    check(
        "remote 30s stall under 400ms deadline",
        &got,
        &expect,
        &mut failures,
    );
    wall(&got, &undisturbed);
    if c[2] == 0 {
        println!("FAIL the region deadline never tore down the slow worker");
        failures += 1;
    }
    for (t, v) in rtotals.iter_mut().zip(c) {
        *t += v;
    }

    // A dead pool must degrade to the clean local rung.
    let dead = [std::env::temp_dir().join("pash-faultsweep-nobody")];
    let (got, c) = run(4, SupervisorSettings::default(), Some(&dead));
    check(
        "remote dead pool (local rung)",
        &got,
        &expect,
        &mut failures,
    );
    wall(&got, &undisturbed);
    if c[5] == 0 {
        println!("FAIL a dead worker pool never reached the local rung");
        failures += 1;
    }
    for (t, v) in rtotals.iter_mut().zip(c) {
        *t += v;
    }
    drop(workers);

    let [rinjected, rretries, rkills, rfallbacks, rreroutes, rlocal] = rtotals;
    println!(
        "\nfaultsweep(remote): {} cells, {rinjected} injected, {rretries} retries, \
         {rkills} deadline kills, {rfallbacks} fallbacks, {rreroutes} reroutes, \
         {rlocal} local fallbacks, {failures} total failures",
        FaultKind::ALL.len() * WIDTHS.len() + 3,
    );
    if rinjected < FaultKind::ALL.len() as u64 {
        println!("FAIL only {rinjected} remote faults armed — injection plane inert");
        failures += 1;
    }
    std::process::exit(if failures == 0 { 0 } else { 1 });
}
