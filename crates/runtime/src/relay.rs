//! Eager relay nodes (§5.2, "Overcoming Laziness", Fig. 6d).
//!
//! A relay is an identity transformation whose purpose is buffering:
//! it "consumes input eagerly while attempting to push, forcing
//! upstream nodes to produce output when possible while also
//! preserving task-based parallelism". The *full* eager relay buffers
//! without bound; the *blocking* variant has a bounded intermediate
//! buffer (more pipelining than a bare FIFO, but still back-pressures).
//!
//! [`run_relay`] runs a relay that is a process or a thread of its own:
//! a `pash-rt eager` child on the `processes` and `shell` backends, a
//! blocking relay, or one with a boundary edge, on `threads`, and the
//! relay layer of the benchmark harness. An unbounded relay between two
//! in-process pipes never gets here: the `threads` backend wires it as
//! its edge, one spill pipe ([`crate::edge::MemEdges::wire`]).

use std::io::{self, Read, Write};
use std::sync::mpsc;

/// Relay buffering modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayMode {
    /// Unbounded buffering (the paper's `eager`).
    Full,
    /// Bounded buffering with this many 8 KiB chunks.
    Blocking(usize),
}

/// Runs a relay: copies `input` to `output` through an intermediate
/// buffer, reading eagerly on a separate thread.
///
/// Returns the number of bytes relayed. A broken output pipe
/// propagates as an error (the relay dies of SIGPIPE like any other
/// node); the eager reader thread then observes the closed channel and
/// stops.
pub fn run_relay(
    mut input: impl Read + Send + 'static,
    output: &mut dyn Write,
    mode: RelayMode,
) -> io::Result<u64> {
    const CHUNK: usize = 8 * 1024;
    // One shape over `Sender` and `SyncSender`; `false`: downstream
    // hung up.
    type SendChunk = Box<dyn Fn(Vec<u8>) -> bool + Send>;
    let (send, rx): (SendChunk, mpsc::Receiver<Vec<u8>>) = match mode {
        RelayMode::Full => {
            let (tx, rx) = mpsc::channel();
            (Box::new(move |chunk| tx.send(chunk).is_ok()), rx)
        }
        RelayMode::Blocking(chunks) => {
            let (tx, rx) = mpsc::sync_channel(chunks.max(1));
            (Box::new(move |chunk| tx.send(chunk).is_ok()), rx)
        }
    };
    // Consumed chunks flow back to the reader through this pool, so a
    // steady-state relay recycles a handful of buffers instead of
    // allocating a fresh `Vec` per 8 KiB of traffic.
    let (pool_tx, pool_rx) = mpsc::channel::<Vec<u8>>();
    // The eager half: consume input as fast as possible.
    let reader = std::thread::spawn(move || -> io::Result<()> {
        let mut buf = vec![0u8; CHUNK];
        loop {
            let n = input.read(&mut buf)?;
            if n == 0 {
                return Ok(());
            }
            buf.truncate(n);
            if !send(buf) {
                // Downstream hung up: stop pulling.
                return Ok(());
            }
            buf = pool_rx.try_recv().unwrap_or_default();
            buf.resize(CHUNK, 0);
        }
    });
    // The push half: forward to the consumer at its own pace.
    let mut total = 0u64;
    let mut push_err: Option<io::Error> = None;
    for chunk in &rx {
        if push_err.is_none() {
            match output.write_all(&chunk) {
                Ok(()) => total += chunk.len() as u64,
                Err(e) => push_err = Some(e),
            }
        }
        // Recycle regardless of the write outcome; if the reader is
        // already gone the pool send fails harmlessly.
        let _ = pool_tx.send(chunk);
        // On error keep draining so the reader thread can finish
        // quickly (matching SIGPIPE-style teardown).
        if push_err.is_some() {
            break;
        }
    }
    drop(rx);
    let read_res = reader
        .join()
        .map_err(|_| io::Error::other("relay reader thread panicked"))?;
    if let Some(e) = push_err {
        return Err(e);
    }
    read_res?;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipe::pipe;

    #[test]
    fn relays_all_bytes() {
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 250) as u8).collect();
        let expected = data.clone();
        let mut out = Vec::new();
        let n = run_relay(io::Cursor::new(data), &mut out, RelayMode::Full).expect("relay");
        assert_eq!(n, 50_000);
        assert_eq!(out, expected);
    }

    #[test]
    fn blocking_mode_relays_all_bytes() {
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 13) as u8).collect();
        let expected = data.clone();
        let mut out = Vec::new();
        run_relay(io::Cursor::new(data), &mut out, RelayMode::Blocking(2)).expect("relay");
        assert_eq!(out, expected);
    }

    #[test]
    fn eager_drains_producer_despite_stalled_consumer() {
        // The producer writes into a tiny pipe; the relay must drain
        // it fully even though no one consumes the relay's output yet
        // — the §5.2 laziness fix.
        let (mut w, r) = pipe(64);
        let producer = std::thread::spawn(move || {
            w.write_all(&vec![7u8; 10_000]).expect("producer write");
            // Returning drops the writer: EOF.
        });
        // The relay's output goes into a buffer only after the
        // producer finished: with a bare FIFO the producer would
        // deadlock (nothing drains the 64-byte pipe).
        let mut out = Vec::new();
        run_relay(r, &mut out, RelayMode::Full).expect("relay");
        producer.join().expect("producer");
        assert_eq!(out.len(), 10_000);
    }

    #[test]
    fn broken_output_pipe_propagates() {
        let (w, r) = pipe(16);
        drop(r); // Consumer already gone.
        let mut w = w;
        let res = run_relay(io::Cursor::new(vec![1u8; 1000]), &mut w, RelayMode::Full);
        assert_eq!(res.expect_err("broken").kind(), io::ErrorKind::BrokenPipe);
    }
}
