//! In-process pipes with UNIX semantics.
//!
//! A [`pipe`] is a bounded byte buffer shared between one writer and
//! one reader:
//!
//! * writes block while the buffer is full (the default 64 KiB
//!   capacity models the kernel pipe buffer — the root cause of the
//!   laziness stalls of §5.2, Fig. 6);
//! * reads block while the buffer is empty;
//! * dropping the writer delivers EOF;
//! * dropping the reader makes subsequent writes fail with
//!   [`std::io::ErrorKind::BrokenPipe`] — the SIGPIPE analogue that
//!   terminates producers whose consumer exited early.
//!
//! A [`spill_pipe`] is the same ring built with one property fixed:
//! it never blocks its writer. What the full ring has no room for —
//! and everything written while earlier bytes are still spilled, so
//! the order holds — is appended to a FIFO of owned chunks, which the
//! reader drains after the ring. Growth copies nothing already
//! buffered: a full chunk is never regrown, the next write starts
//! another, and drained chunks go back to a small pool. This is an
//! eager relay (§5.2) folded into its edge: in-process the buffer is
//! ours, so the edge itself can be unbounded, and the `threads`
//! backend wires each eager relay as one spill pipe
//! ([`crate::edge::MemEdges`]). EOF, `BrokenPipe` (which frees the
//! chunks) and poisoning behave as on the ring.
//!
//! The transport is a contiguous ring buffer: each read or write moves
//! its whole run of bytes with at most two `copy_from_slice` calls
//! (the run may wrap around the end of the ring), so a transfer costs
//! O(chunks) lock acquisitions rather than O(bytes).
//!
//! Wakeups are batched behind park flags. The naive bounded-buffer
//! discipline pays one condvar sleep *and* one condvar notify per
//! capacity-sized cycle — at small capacities the transfer is
//! wakeup-bound, not copy-bound (the `pipe_4k_cap` dataplane series).
//! Two refinements cut that cost:
//!
//! * a side about to sleep first spends a bounded number of
//!   `yield_now` spins re-checking the condition — when the peer is
//!   runnable this trades the futex sleep/wake round trip for a
//!   scheduler yield, and the park flag never gets set;
//! * `notify_one` is only issued when the peer actually parked
//!   (`reader_parked`/`writer_parked`, maintained under the lock), so
//!   spinning pairs exchange the whole stream with zero futex
//!   traffic.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Default capacity, matching the Linux pipe buffer.
pub const DEFAULT_PIPE_CAPACITY: usize = 64 * 1024;

// Commands read their stdin through buffers of one ring-full.
const _: () = assert!(pash_coreutils::lines::BLOCK_SIZE == DEFAULT_PIPE_CAPACITY);

/// How many times a full writer / empty reader re-checks after a
/// `yield_now` before parking on the condvar for real.
const SPIN_YIELDS: usize = 32;

/// Smallest spill chunk: a write larger than this gets a chunk of its
/// own size.
const SPILL_CHUNK: usize = DEFAULT_PIPE_CAPACITY;

/// Most drained chunks a spill pipe keeps for reuse.
const SPILL_POOL: usize = 4;

struct Inner {
    /// The ring storage, exactly `capacity` bytes, allocated once.
    buf: Box<[u8]>,
    /// Index of the first buffered byte.
    head: usize,
    /// Number of buffered bytes.
    len: usize,
    writer_closed: bool,
    reader_closed: bool,
    /// Set by [`PipeMonitor::poison`] (the region-deadline watchdog):
    /// both ends fail with `TimedOut` instead of blocking further.
    poisoned: bool,
    /// The reader is parked on `data_available` (set under the lock
    /// just before waiting; a notifier clears it).
    reader_parked: bool,
    /// The writer is parked on `space_available`.
    writer_parked: bool,
    /// Built by [`spill_pipe`]: a full ring spills instead of blocking.
    spills: bool,
    /// Bytes written after the ring, oldest chunk first; every byte in
    /// the ring precedes every byte here.
    spilled: VecDeque<Vec<u8>>,
    /// How much of the front chunk has been read.
    spill_head: usize,
    /// Drained chunks, emptied, for the next spill.
    pool: Vec<Vec<u8>>,
}

impl Inner {
    fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Copies up to `data.len()` bytes in at the write position;
    /// returns the count actually buffered.
    fn push(&mut self, data: &[u8]) -> usize {
        let cap = self.capacity();
        let n = data.len().min(cap - self.len);
        let pos = (self.head + self.len) % cap;
        let first = n.min(cap - pos);
        self.buf[pos..pos + first].copy_from_slice(&data[..first]);
        self.buf[..n - first].copy_from_slice(&data[first..n]);
        self.len += n;
        n
    }

    /// Copies up to `out.len()` bytes out from the read position;
    /// returns the count actually delivered.
    fn pop(&mut self, out: &mut [u8]) -> usize {
        let cap = self.capacity();
        let n = out.len().min(self.len);
        let first = n.min(cap - self.head);
        out[..first].copy_from_slice(&self.buf[self.head..self.head + first]);
        out[first..n].copy_from_slice(&self.buf[..n - first]);
        self.head = (self.head + n) % cap;
        self.len -= n;
        n
    }

    /// Whether the reader has anything to take.
    fn is_empty(&self) -> bool {
        self.len == 0 && self.spilled.is_empty()
    }

    /// Buffers what it can of `data`, returning the count: into the
    /// ring while nothing is spilled, and on a spill pipe the rest
    /// into the spill, so all of it.
    fn accept(&mut self, data: &[u8]) -> usize {
        let n = if self.spilled.is_empty() {
            self.push(data)
        } else {
            0
        };
        if !self.spills || n == data.len() {
            return n;
        }
        let mut rest = &data[n..];
        if let Some(last) = self.spilled.back_mut() {
            let fits = rest.len().min(last.capacity() - last.len());
            last.extend_from_slice(&rest[..fits]);
            rest = &rest[fits..];
        }
        if !rest.is_empty() {
            let mut chunk = self.pool.pop().unwrap_or_default();
            chunk.reserve_exact(rest.len().max(SPILL_CHUNK));
            chunk.extend_from_slice(rest);
            self.spilled.push_back(chunk);
        }
        data.len()
    }

    /// Delivers up to `out.len()` bytes in order, the ring's before the
    /// spill's; returns the count.
    fn take(&mut self, out: &mut [u8]) -> usize {
        let mut n = self.pop(out);
        while n < out.len() {
            let Some(front) = self.spilled.front() else {
                break;
            };
            let chunk = &front[self.spill_head..];
            let k = chunk.len().min(out.len() - n);
            out[n..n + k].copy_from_slice(&chunk[..k]);
            n += k;
            self.spill_head += k;
            if self.spill_head == front.len() {
                let mut drained = self.spilled.pop_front().expect("front chunk");
                self.spill_head = 0;
                if self.pool.len() < SPILL_POOL {
                    drained.clear();
                    self.pool.push(drained);
                }
            }
        }
        n
    }

    /// Discards all buffered bytes and frees the spill — called exactly
    /// once, when the reader closes, so blocked writers wake into the
    /// broken pipe.
    fn drop_buffered(&mut self) {
        self.head = 0;
        self.len = 0;
        self.spilled = VecDeque::new();
        self.spill_head = 0;
        self.pool = Vec::new();
    }
}

struct Shared {
    inner: Mutex<Inner>,
    /// The reader sleeps here for the empty→non-empty transition.
    data_available: Condvar,
    /// The writer sleeps here for the full→non-full transition.
    space_available: Condvar,
}

impl Shared {
    /// Locks the ring, ignoring poison: no update to [`Inner`] panics
    /// partway, so a peer that died holding the lock left it valid,
    /// and the survivor must still see EOF or a broken pipe.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Creates a bounded pipe with the given capacity in bytes.
pub fn pipe(capacity: usize) -> (PipeWriter, PipeReader) {
    let (w, r, _) = pipe_monitored(capacity);
    (w, r)
}

/// Creates a bounded pipe plus a [`PipeMonitor`] handle that can
/// poison it from outside (the region-deadline watchdog).
pub fn pipe_monitored(capacity: usize) -> (PipeWriter, PipeReader, PipeMonitor) {
    build(capacity, false)
}

/// Creates a spill pipe: a ring of `capacity` bytes whose writer never
/// blocks, spilling what the ring has no room for (see the module
/// header), plus its [`PipeMonitor`].
pub fn spill_pipe(capacity: usize) -> (PipeWriter, PipeReader, PipeMonitor) {
    build(capacity, true)
}

fn build(capacity: usize, spills: bool) -> (PipeWriter, PipeReader, PipeMonitor) {
    let capacity = capacity.max(1);
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            buf: vec![0u8; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            writer_closed: false,
            reader_closed: false,
            poisoned: false,
            reader_parked: false,
            writer_parked: false,
            spills,
            spilled: VecDeque::new(),
            spill_head: 0,
            pool: Vec::new(),
        }),
        data_available: Condvar::new(),
        space_available: Condvar::new(),
    });
    (
        PipeWriter {
            shared: shared.clone(),
        },
        PipeReader {
            shared: shared.clone(),
        },
        PipeMonitor { shared },
    )
}

/// An out-of-band handle on a pipe, held by the deadline watchdog.
pub struct PipeMonitor {
    shared: Arc<Shared>,
}

impl PipeMonitor {
    /// Poisons the pipe: both ends — including ones currently parked
    /// on a condvar — fail with `TimedOut` instead of blocking. This
    /// is how a region deadline unwedges node threads stuck on a
    /// stalled edge.
    pub fn poison(&self) {
        let mut inner = self.shared.lock();
        inner.poisoned = true;
        inner.reader_parked = false;
        inner.writer_parked = false;
        self.shared.data_available.notify_all();
        self.shared.space_available.notify_all();
    }
}

/// The error both ends report once poisoned.
fn poisoned_error() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "pipe poisoned by region deadline")
}

/// The writing end of a [`pipe`].
pub struct PipeWriter {
    shared: Arc<Shared>,
}

/// The reading end of a [`pipe`].
pub struct PipeReader {
    shared: Arc<Shared>,
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let mut spins = 0;
        let mut inner = self.shared.lock();
        loop {
            if inner.poisoned {
                return Err(poisoned_error());
            }
            if inner.reader_closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "pipe reader closed",
                ));
            }
            if inner.len < inner.capacity() || inner.spills {
                let n = inner.accept(data);
                if inner.reader_parked {
                    inner.reader_parked = false;
                    self.shared.data_available.notify_one();
                }
                return Ok(n);
            }
            if spins < SPIN_YIELDS {
                // Full, but the reader may be running: hand it the
                // core instead of paying a futex round trip.
                spins += 1;
                drop(inner);
                std::thread::yield_now();
                inner = self.shared.lock();
            } else {
                inner.writer_parked = true;
                let woken = self.shared.space_available.wait(inner);
                inner = woken.unwrap_or_else(|p| p.into_inner());
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.writer_closed = true;
        inner.reader_parked = false;
        self.shared.data_available.notify_one();
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut spins = 0;
        let mut inner = self.shared.lock();
        loop {
            if inner.poisoned {
                return Err(poisoned_error());
            }
            if !inner.is_empty() {
                let n = inner.take(out);
                if inner.writer_parked {
                    inner.writer_parked = false;
                    self.shared.space_available.notify_one();
                }
                return Ok(n);
            }
            if inner.writer_closed {
                return Ok(0);
            }
            if spins < SPIN_YIELDS {
                spins += 1;
                drop(inner);
                std::thread::yield_now();
                inner = self.shared.lock();
            } else {
                inner.reader_parked = true;
                let woken = self.shared.data_available.wait(inner);
                inner = woken.unwrap_or_else(|p| p.into_inner());
            }
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.reader_closed = true;
        inner.drop_buffered();
        inner.writer_parked = false;
        self.shared.space_available.notify_one();
    }
}

/// Reads a sequence of readers one after another (ordered
/// concatenation — how `cat`-style stdin is presented to commands).
pub struct MultiReader {
    sources: std::collections::VecDeque<Box<dyn Read + Send>>,
}

impl MultiReader {
    /// Builds a multi-reader over ordered sources.
    pub fn new(sources: Vec<Box<dyn Read + Send>>) -> Self {
        MultiReader {
            sources: sources.into(),
        }
    }
}

impl Read for MultiReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        loop {
            let src = match self.sources.front_mut() {
                Some(s) => s,
                None => return Ok(0),
            };
            let n = src.read(out)?;
            if n > 0 {
                return Ok(n);
            }
            self.sources.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::{BufRead, BufReader};

    #[test]
    fn roundtrip_small() {
        let (mut w, mut r) = pipe(16);
        std::thread::scope(|s| {
            s.spawn(move || {
                w.write_all(b"hello world, this exceeds capacity")
                    .expect("write");
            });
            let mut buf = Vec::new();
            r.read_to_end(&mut buf).expect("read");
            assert_eq!(buf, b"hello world, this exceeds capacity");
        });
    }

    #[test]
    fn writer_drop_is_eof() {
        let (w, mut r) = pipe(16);
        drop(w);
        let mut buf = [0u8; 4];
        assert_eq!(r.read(&mut buf).expect("read"), 0);
    }

    #[test]
    fn reader_drop_breaks_pipe() {
        let (mut w, r) = pipe(4);
        drop(r);
        let err = w.write(b"data").expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn blocked_writer_wakes_on_reader_drop() {
        let (mut w, r) = pipe(2);
        w.write_all(b"ab").expect("fill");
        let t = std::thread::spawn(move || w.write(b"c"));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(r);
        let res = t.join().expect("join");
        assert_eq!(res.expect_err("broken").kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn backpressure_bounds_buffer() {
        // A slow reader must bound the writer's progress.
        let (mut w, mut r) = pipe(8);
        let t = std::thread::spawn(move || {
            let mut written = 0usize;
            for _ in 0..4 {
                written += w.write(&[0u8; 64]).expect("write");
            }
            written
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Nothing consumed yet: at most the capacity got through.
        let mut buf = [0u8; 1024];
        let mut total = 0;
        loop {
            let n = r.read(&mut buf).expect("read");
            if n == 0 {
                break;
            }
            total += n;
        }
        let written = t.join().expect("join");
        assert_eq!(total, written);
    }

    #[test]
    fn writes_wrap_around_the_ring() {
        // Advance the head so a later bulk write must wrap, exercising
        // the two-slice path.
        let (mut w, mut r) = pipe(8);
        w.write_all(b"abcde").expect("write");
        let mut buf = [0u8; 5];
        r.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"abcde");
        // head is now 5; these 7 bytes occupy [5..8) + [0..4).
        w.write_all(b"0123456").expect("wrapping write");
        let mut buf = [0u8; 7];
        r.read_exact(&mut buf).expect("wrapping read");
        assert_eq!(&buf, b"0123456");
    }

    #[test]
    fn poison_unblocks_parked_ends() {
        let (mut w, mut r, m) = pipe_monitored(4);
        // Park the reader on an empty pipe, then poison from outside.
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 4];
            r.read(&mut buf)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        m.poison();
        let err = t.join().expect("join").expect_err("poisoned read");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let err = w.write(b"x").expect_err("poisoned write");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn multireader_concatenates_in_order() {
        let a: Box<dyn Read + Send> = Box::new(&b"one\n"[..]);
        let b: Box<dyn Read + Send> = Box::new(&b""[..]);
        let c: Box<dyn Read + Send> = Box::new(&b"two\n"[..]);
        let mut m = BufReader::new(MultiReader::new(vec![a, b, c]));
        let mut lines = Vec::new();
        let mut line = String::new();
        while m.read_line(&mut line).expect("read") > 0 {
            lines.push(line.clone());
            line.clear();
        }
        assert_eq!(lines, vec!["one\n", "two\n"]);
    }

    #[test]
    fn large_transfer_through_small_pipe() {
        let (mut w, mut r) = pipe(64);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let expected = data.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                w.write_all(&data).expect("write");
            });
            let mut buf = Vec::new();
            r.read_to_end(&mut buf).expect("read");
            assert_eq!(buf, expected);
        });
    }

    /// Chunks held in the spill of the pipe behind `w`.
    fn spilled_chunks(w: &PipeWriter) -> usize {
        w.shared.lock().spilled.len()
    }

    #[test]
    fn spill_writer_never_blocks_without_a_reader() {
        // No reader runs: a ring would park the writer at 16 bytes.
        let (mut w, mut r, _) = spill_pipe(16);
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        for piece in data.chunks(777) {
            assert_eq!(w.write(piece).expect("write"), piece.len());
        }
        assert!(spilled_chunks(&w) > 0);
        drop(w);
        let mut got = Vec::new();
        r.read_to_end(&mut got).expect("read");
        assert_eq!(got, data);
    }

    #[test]
    fn spill_keeps_order_across_ring_and_spill() {
        let (mut w, mut r, _) = spill_pipe(8);
        let mut buf = [0u8; 64];
        // Ring only.
        w.write_all(b"abcde").expect("write");
        assert_eq!(spilled_chunks(&w), 0);
        // Three bytes fill the ring, four spill.
        w.write_all(b"fghijkl").expect("write");
        assert_eq!(spilled_chunks(&w), 1);
        // The ring has room again, but the spill is not empty: these go
        // behind it, not into the ring.
        assert_eq!(r.read(&mut buf[..4]).expect("read"), 4);
        assert_eq!(&buf[..4], b"abcd");
        w.write_all(b"mn").expect("write");
        assert_eq!(w.shared.lock().len, 4, "ring untouched while spilled");
        // One read drains the ring, then the spill.
        let n = r.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"efghijklmn");
        assert_eq!(spilled_chunks(&w), 0);
        // Drained: writes go to the ring again.
        w.write_all(b"op").expect("write");
        assert_eq!(spilled_chunks(&w), 0);
        assert_eq!(w.shared.lock().len, 2);
        drop(w);
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).expect("read");
        assert_eq!(rest, b"op");
    }

    #[test]
    fn spill_reader_drop_breaks_pipe_and_frees_chunks() {
        let (mut w, r, _) = spill_pipe(4);
        for _ in 0..300 {
            w.write_all(&[1u8; 1000]).expect("spill");
        }
        assert!(spilled_chunks(&w) > 1);
        drop(r);
        {
            let inner = w.shared.lock();
            assert!(inner.spilled.is_empty() && inner.spilled.capacity() == 0);
            assert!(inner.pool.is_empty());
        }
        let err = w.write(b"x").expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn poison_wakes_a_parked_spill_reader() {
        let (mut w, mut r, m) = spill_pipe(4);
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 4];
            r.read(&mut buf)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        m.poison();
        let err = t.join().expect("join").expect_err("poisoned read");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let err = w.write(b"x").expect_err("poisoned write");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn spill_eof_comes_after_the_last_chunk() {
        let (mut w, mut r, _) = spill_pipe(2);
        w.write_all(b"ab").expect("ring");
        w.write_all(&[b'c'; 70_000])
            .expect("first chunk and a second");
        w.write_all(b"z").expect("tail");
        assert_eq!(spilled_chunks(&w), 2);
        drop(w);
        let mut got = Vec::new();
        let mut buf = [0u8; 1000];
        loop {
            match r.read(&mut buf).expect("read") {
                0 => break,
                n => got.extend_from_slice(&buf[..n]),
            }
        }
        assert_eq!(got.len(), 70_003);
        assert_eq!(got.last(), Some(&b'z'));
        assert_eq!(r.read(&mut buf).expect("sticky EOF"), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Arbitrary interleavings of partial reads and writes
        // round-trip byte-identically: the writer pushes the data in
        // chunks of varying sizes, the reader pulls with varying
        // buffer sizes, and the pipe capacity itself varies — so the
        // ring wraps at every offset.
        #[test]
        fn prop_chunked_roundtrip(
            data in proptest::collection::vec(0u8..255, 0..2048),
            write_sizes in proptest::collection::vec(1usize..97, 1..8),
            read_sizes in proptest::collection::vec(1usize..97, 1..8),
            capacity in 1usize..129,
        ) {
            let (mut w, mut r) = pipe(capacity);
            let expected = data.clone();
            let received = std::thread::scope(|s| {
                let data = &data;
                let write_sizes = &write_sizes;
                s.spawn(move || {
                    let mut off = 0;
                    let mut i = 0;
                    while off < data.len() {
                        let n = write_sizes[i % write_sizes.len()]
                            .min(data.len() - off);
                        w.write_all(&data[off..off + n]).expect("write");
                        off += n;
                        i += 1;
                    }
                });
                let mut got = Vec::new();
                let mut buf = [0u8; 96];
                let mut i = 0;
                loop {
                    let want = read_sizes[i % read_sizes.len()];
                    let n = r.read(&mut buf[..want]).expect("read");
                    if n == 0 {
                        break;
                    }
                    got.extend_from_slice(&buf[..n]);
                    i += 1;
                }
                got
            });
            prop_assert_eq!(received, expected);
        }

        // Writer drop ⇒ EOF, after any amount of drained traffic.
        #[test]
        fn prop_writer_drop_is_eof(
            data in proptest::collection::vec(0u8..255, 0..256),
            capacity in 1usize..64,
        ) {
            let (mut w, mut r) = pipe(capacity);
            let expected = data.clone();
            let got = std::thread::scope(|s| {
                s.spawn(move || {
                    w.write_all(&data).expect("write");
                });
                let mut got = Vec::new();
                r.read_to_end(&mut got).expect("read");
                // And EOF is sticky.
                let mut buf = [0u8; 8];
                assert_eq!(r.read(&mut buf).expect("read"), 0);
                got
            });
            prop_assert_eq!(got, expected);
        }

        // Reader drop ⇒ BrokenPipe, regardless of how full the pipe
        // already was.
        #[test]
        fn prop_reader_drop_breaks_pipe(
            prefill in 0usize..32,
            capacity in 1usize..33,
        ) {
            let (mut w, r) = pipe(capacity);
            let n = prefill.min(capacity.saturating_sub(1));
            if n > 0 {
                w.write_all(&vec![7u8; n]).expect("prefill");
            }
            drop(r);
            let err = w.write(b"x").expect_err("must fail");
            prop_assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        }

        // A spill pipe is a `Vec` to its reader: on one thread, any
        // sequence of writes and reads returns the bytes the model
        // says, in order, and never blocks. Sizes up to 200 cross the
        // ring's capacity and a spill chunk's boundary alike. The shim
        // does not shrink, so a failure names its own sizes.
        #[test]
        fn prop_spill_pipe_is_a_vec(
            capacity in 1usize..65,
            ops in proptest::collection::vec((0usize..2, 1usize..200), 1..40),
        ) {
            let (mut w, mut r, _) = spill_pipe(capacity);
            let mut model: std::collections::VecDeque<u8> = Default::default();
            let (mut next, mut buf) = (0u8, [0u8; 200]);
            for (i, &(op, size)) in ops.iter().enumerate() {
                let case = format!("capacity {capacity}, op {i} of {ops:?}");
                if op == 0 {
                    let data: Vec<u8> = (0..size)
                        .map(|_| { next = next.wrapping_add(1); next })
                        .collect();
                    prop_assert_eq!(w.write(&data).expect("write"), size, "{}", case);
                    model.extend(&data);
                } else if !model.is_empty() {
                    let n = r.read(&mut buf[..size]).expect("read");
                    let want: Vec<u8> = model.drain(..size.min(model.len())).collect();
                    prop_assert_eq!(&buf[..n], &want[..], "{}", case);
                }
            }
            drop(w);
            let mut rest = Vec::new();
            r.read_to_end(&mut rest).expect("read");
            prop_assert_eq!(rest, model.into_iter().collect::<Vec<u8>>(),
                "capacity {}, ops {:?}", capacity, ops);
        }
    }
}
