//! `pash-worker` — the remote execution worker daemon.
//!
//! ```text
//! pash-worker --socket PATH
//! ```
//!
//! Serves the same length-prefixed protocol as `pashd`, through the
//! same accept loop (`pash_runtime::service::serve`), with one verb of
//! its own: `Execute` runs one unsupervised region attempt and answers
//! with one `Region` reply. `Metrics` is the health probe, `Shutdown`
//! stops it, and `Run` / `PutFile` are refused with an error reply.
//! All retry and recovery policy lives with the coordinator (see
//! `pash_runtime::remote`). SIGTERM sends the worker a `Shutdown`, as
//! it does `pashd`: the attempts in flight send their replies, then
//! the socket is removed and the process exits 0.

use std::path::PathBuf;
use std::process::ExitCode;

use pash_runtime::remote::serve_worker;
use pash_runtime::service::{bind, shutdown_on_signal};

fn main() -> ExitCode {
    let mut socket: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--socket" => socket = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("usage: pash-worker --socket PATH");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("pash-worker: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(socket) = socket else {
        eprintln!("pash-worker: --socket PATH is required");
        return ExitCode::FAILURE;
    };
    let listener = match bind(&socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("pash-worker: cannot bind {}: {e}", socket.display());
            return ExitCode::FAILURE;
        }
    };
    shutdown_on_signal(&socket);
    match serve_worker(listener, &socket) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pash-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
