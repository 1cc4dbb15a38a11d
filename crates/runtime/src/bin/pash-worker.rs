//! `pash-worker` — the remote execution worker daemon.
//!
//! ```text
//! pash-worker --socket PATH
//! ```
//!
//! Listens on a Unix socket for one request per connection: `Ping`
//! (health probe), `Execute` (one unsupervised region attempt,
//! results streamed back in the tagged frame format), or `Shutdown`.
//! All retry and recovery policy lives with the coordinator (see
//! `pash_runtime::remote`); SIGTERM exits the serve loop after the
//! in-flight connections finish.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pash_runtime::remote::serve_worker;
use pash_runtime::service::bind;

static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    STOP.store(true, Ordering::SeqCst);
}

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
    // SIGTERM/SIGINT raise the stop flag; the self-connect in the
    // handler below cannot run in signal context, so the serve loop
    // also notices the flag on its next accepted connection — a
    // worker with no traffic is reaped by the socket unlink + the
    // supervisor's health probes, not by a wedged accept.
    unsafe {
        libc_signal(15, on_term); // SIGTERM
        libc_signal(2, on_term); // SIGINT
    }
    let stop = Arc::new(AtomicBool::new(false));
    let stop_poll = stop.clone();
    let poll_socket = socket.clone();
    std::thread::spawn(move || {
        // Forward the async-signal flag into the serve loop: connect
        // once so a blocked accept wakes and sees the flag.
        loop {
            if STOP.load(Ordering::SeqCst) {
                stop_poll.store(true, Ordering::SeqCst);
                let _ = std::os::unix::net::UnixStream::connect(&poll_socket);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    });
    match serve_worker(listener, &socket, stop) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pash-worker: {e}");
            ExitCode::FAILURE
        }
    }
}

extern "C" {
    #[link_name = "signal"]
    fn libc_signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}
