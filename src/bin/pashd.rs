//! `pashd` — the persistent compile-and-run daemon.
//!
//! ```text
//! pashd --socket PATH [--cache-dir DIR] [--max-concurrent N]
//!       [--retries N] [--no-fallback] [--worker PATH]...
//! ```
//!
//! Listens on a Unix-domain socket for length-prefixed requests
//! (script + config + backend + stdin bytes), compiles through the
//! in-memory plan cache, runs on the requested backend, and replies
//! with stdout/status. `--cache-dir` is where measured profiles
//! persist, so a restarted daemon keeps what it learned about command
//! rates. `--worker` (repeatable) names the
//! `pash-worker` sockets the `remote` backend ships regions to. Stop
//! it with a `Shutdown` request
//! (`pash::runtime::service::Client::shutdown`) or SIGTERM — both
//! drain in-flight connections (bounded by the drain deadline) so no
//! client sees a torn response.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use pash::daemon::{serve, DaemonConfig};
use pash::runtime::fault::{FaultKind, FaultPlan};
use pash::runtime::service::Client;

static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    STOP.store(true, Ordering::SeqCst);
}

extern "C" {
    #[link_name = "signal"]
    fn libc_signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

fn usage() -> ! {
    eprintln!(
        "usage: pashd --socket PATH [--cache-dir DIR] [--max-concurrent N] \
         [--retries N] [--no-fallback] [--fault KIND:SEED[:BUDGET]] [--worker PATH]..."
    );
    std::process::exit(2);
}

/// Parses a `KIND:SEED[:BUDGET]` fault spec (test plane; kinds are the
/// [`FaultKind::name`] strings, e.g. `kill-worker:5:100`).
fn parse_fault(spec: &str) -> Option<FaultPlan> {
    let mut parts = spec.split(':');
    let kind_name = parts.next()?;
    let kind = FaultKind::ALL.into_iter().find(|k| k.name() == kind_name)?;
    let seed: u64 = parts.next()?.parse().ok()?;
    let plan = FaultPlan::new(kind, seed);
    match parts.next() {
        Some(budget) => {
            let budget: u32 = budget.parse().ok()?;
            parts.next().is_none().then(|| plan.budget(budget))
        }
        None => Some(plan),
    }
}

fn main() -> ExitCode {
    let mut cfg = DaemonConfig::default();
    let mut socket = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("pashd: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket"))),
            "--cache-dir" => cfg.cache_dir = Some(PathBuf::from(value("--cache-dir"))),
            "--max-concurrent" => {
                cfg.max_concurrent_runs = value("--max-concurrent").parse().unwrap_or_else(|_| {
                    eprintln!("pashd: --max-concurrent needs a number");
                    usage()
                })
            }
            "--retries" => {
                cfg.supervisor.max_retries = value("--retries").parse().unwrap_or_else(|_| {
                    eprintln!("pashd: --retries needs a number");
                    usage()
                })
            }
            "--no-fallback" => cfg.supervisor.fallback = false,
            "--worker" => cfg.workers.push(PathBuf::from(value("--worker"))),
            "--fault" => {
                let spec = value("--fault");
                cfg.supervisor.fault = Some(parse_fault(&spec).unwrap_or_else(|| {
                    eprintln!("pashd: bad --fault spec {spec} (want KIND:SEED[:BUDGET])");
                    usage()
                }))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("pashd: unknown argument {other}");
                usage()
            }
        }
    }
    let Some(socket) = socket else { usage() };
    cfg.socket = socket;
    eprintln!(
        "pashd: listening on {} (profiles: {}, max concurrent runs: {}, workers: {})",
        cfg.socket.display(),
        cfg.cache_dir
            .as_ref()
            .map_or("in memory".to_string(), |d| d.display().to_string()),
        cfg.max_concurrent_runs,
        cfg.workers.len(),
    );
    // SIGTERM/SIGINT route through the same graceful path a `Shutdown`
    // request takes: the poller sends one to our own socket, the serve
    // loop stops accepting, drains in-flight connections under the
    // drain deadline, and returns — no client sees a torn response.
    unsafe {
        libc_signal(15, on_term); // SIGTERM
        libc_signal(2, on_term); // SIGINT
    }
    let self_socket = cfg.socket.clone();
    std::thread::spawn(move || loop {
        if STOP.load(Ordering::SeqCst) {
            if let Ok(mut c) = Client::connect(&self_socket) {
                let _ = c.shutdown();
            }
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
    match serve(cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pashd: {e}");
            ExitCode::FAILURE
        }
    }
}
