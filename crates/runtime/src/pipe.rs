//! In-process pipes with UNIX semantics, and queues of whole frames.
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
//! ours, so the edge itself can be unbounded.
//!
//! A [`frame_queue`] carries `r_split` frames ([`crate::frame`]) as
//! owned buffers instead of bytes: the writer hands a whole frame over
//! with its tag, the reader takes the buffer and reads it in place,
//! and the buffer it is done with goes back to the writer's pool in
//! the same step. No byte of a frame is copied by the edge. The queue
//! holds [`FRAME_QUEUE_DEPTH`] frames before its writer waits, or,
//! built to spill, any number (a wired eager relay between two framed
//! nodes). Which edge gets which carrier is [`crate::edge::MemEdges`]'s
//! decision: on `threads`, a frame queue between a frame writer and a
//! frame reader, a ring everywhere else.
//!
//! All three share one channel: EOF, `BrokenPipe` (which frees what is
//! buffered) and poisoning ([`PipeMonitor`]) behave the same on each.
//!
//! The ring is contiguous: each read or write moves its whole run of
//! bytes with at most two `copy_from_slice` calls (the run may wrap
//! around the end of the ring), so a transfer costs O(chunks) lock
//! acquisitions rather than O(bytes).
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

use crate::frame::HEADER_LEN;

/// Default capacity, matching the Linux pipe buffer.
pub const DEFAULT_PIPE_CAPACITY: usize = 64 * 1024;

// Commands read their stdin through buffers of one ring-full.
const _: () = assert!(pash_coreutils::lines::BLOCK_SIZE == DEFAULT_PIPE_CAPACITY);

/// How many frames a bounded [`frame_queue`] holds before its writer
/// waits.
pub const FRAME_QUEUE_DEPTH: usize = 4;

/// How many times a full writer / empty reader re-checks after a
/// `yield_now` before parking on the condvar for real.
const SPIN_YIELDS: usize = 32;

/// Smallest spill chunk: a write larger than this gets a chunk of its
/// own size.
const SPILL_CHUNK: usize = DEFAULT_PIPE_CAPACITY;

/// Most drained chunks or frame buffers a channel keeps for reuse.
const POOL: usize = FRAME_QUEUE_DEPTH + 1;

/// What a channel holds between its writer and its reader.
trait Buffer {
    /// Whether the writer may put now.
    fn has_room(&self) -> bool;
    /// Whether the reader has nothing to take.
    fn is_empty(&self) -> bool;
    /// Drops everything held — called once, when the reader closes.
    fn discard(&mut self);
}

/// A byte ring, spilling past its capacity when built to.
struct Ring {
    /// The ring storage, exactly `capacity` bytes, allocated once.
    buf: Box<[u8]>,
    /// Index of the first buffered byte.
    head: usize,
    /// Number of buffered bytes.
    len: usize,
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

impl Ring {
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
                if self.pool.len() < POOL {
                    drained.clear();
                    self.pool.push(drained);
                }
            }
        }
        n
    }
}

impl Buffer for Ring {
    fn has_room(&self) -> bool {
        self.len < self.capacity() || self.spills
    }

    fn is_empty(&self) -> bool {
        self.len == 0 && self.spilled.is_empty()
    }

    fn discard(&mut self) {
        self.head = 0;
        self.len = 0;
        self.spilled = VecDeque::new();
        self.spill_head = 0;
        self.pool = Vec::new();
    }
}

/// A queue of tagged frames and the pool of emptied frame buffers
/// that goes back to the writer.
struct Frames {
    queue: VecDeque<(u64, Vec<u8>)>,
    /// Frames held before the writer waits; `usize::MAX` spills.
    depth: usize,
    pool: Vec<Vec<u8>>,
}

impl Buffer for Frames {
    fn has_room(&self) -> bool {
        self.queue.len() < self.depth
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    fn discard(&mut self) {
        self.queue = VecDeque::new();
        self.pool = Vec::new();
    }
}

/// A channel's buffer and the state of its two ends, under one lock.
struct State<B> {
    buf: B,
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
}

struct Shared<B> {
    inner: Mutex<State<B>>,
    /// The reader sleeps here for the empty→non-empty transition.
    data_available: Condvar,
    /// The writer sleeps here for the full→non-full transition.
    space_available: Condvar,
}

/// Which end of a channel is waiting.
#[derive(Clone, Copy, PartialEq, Eq)]
enum End {
    Writer,
    Reader,
}

impl<B: Buffer> Shared<B> {
    fn new(buf: B) -> Arc<Shared<B>> {
        Arc::new(Shared {
            inner: Mutex::new(State {
                buf,
                writer_closed: false,
                reader_closed: false,
                poisoned: false,
                reader_parked: false,
                writer_parked: false,
            }),
            data_available: Condvar::new(),
            space_available: Condvar::new(),
        })
    }

    /// Locks the channel, ignoring poison: no update to [`State`]
    /// panics partway, so a peer that died holding the lock left it
    /// valid, and the survivor must still see EOF or a broken pipe.
    fn lock(&self) -> MutexGuard<'_, State<B>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Waits until `end` can go on and returns the lock: the writer
    /// once there is room, the reader once there is something to take
    /// — or `None`, at EOF. A poisoned channel fails both with
    /// `TimedOut`, a closed reader fails the writer with `BrokenPipe`.
    fn ready(&self, end: End) -> io::Result<Option<MutexGuard<'_, State<B>>>> {
        let mut spins = 0;
        let mut s = self.lock();
        loop {
            if s.poisoned {
                return Err(poisoned_error());
            }
            match end {
                End::Writer if s.reader_closed => {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "pipe reader closed",
                    ))
                }
                End::Writer if s.buf.has_room() => return Ok(Some(s)),
                End::Reader if !s.buf.is_empty() => return Ok(Some(s)),
                End::Reader if s.writer_closed => return Ok(None),
                _ => {}
            }
            if spins < SPIN_YIELDS {
                // The peer may be running: hand it the core instead of
                // paying a futex round trip.
                spins += 1;
                drop(s);
                std::thread::yield_now();
                s = self.lock();
            } else {
                let cv = if end == End::Writer {
                    s.writer_parked = true;
                    &self.space_available
                } else {
                    s.reader_parked = true;
                    &self.data_available
                };
                s = cv.wait(s).unwrap_or_else(|p| p.into_inner());
            }
        }
    }

    /// The writer's wait, which never ends in EOF.
    fn writable(&self) -> io::Result<MutexGuard<'_, State<B>>> {
        Ok(self.ready(End::Writer)?.expect("a writer never sees EOF"))
    }

    /// Wakes the peer of `end` if it parked, after `end` made progress.
    fn wake_peer(&self, s: &mut State<B>, end: End) {
        if end == End::Writer && s.reader_parked {
            s.reader_parked = false;
            self.data_available.notify_one();
        } else if end == End::Reader && s.writer_parked {
            s.writer_parked = false;
            self.space_available.notify_one();
        }
    }

    /// Closes `end`: the reader's EOF, or the writer's broken pipe
    /// (what is buffered is dropped, so blocked writers wake into it).
    fn close(&self, end: End) {
        let mut s = self.lock();
        if end == End::Writer {
            s.writer_closed = true;
        } else {
            s.reader_closed = true;
            s.buf.discard();
        }
        s.reader_parked = false;
        s.writer_parked = false;
        self.data_available.notify_all();
        self.space_available.notify_all();
    }
}

/// What a [`PipeMonitor`] can do to the channel it watches.
trait Poison: Send + Sync {
    fn poison(&self);
}

impl<B: Buffer + Send> Poison for Shared<B> {
    fn poison(&self) {
        let mut s = self.lock();
        s.poisoned = true;
        s.reader_parked = false;
        s.writer_parked = false;
        self.data_available.notify_all();
        self.space_available.notify_all();
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
    let shared = Shared::new(Ring {
        buf: vec![0u8; capacity.max(1)].into_boxed_slice(),
        head: 0,
        len: 0,
        spills,
        spilled: VecDeque::new(),
        spill_head: 0,
        pool: Vec::new(),
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

/// Creates a frame queue (see the module header): bounded at
/// [`FRAME_QUEUE_DEPTH`] frames, or, with `spills`, never blocking its
/// writer; plus its [`PipeMonitor`].
pub fn frame_queue(spills: bool) -> (FrameTx, FrameRx, PipeMonitor) {
    let shared = Shared::new(Frames {
        queue: VecDeque::new(),
        depth: if spills {
            usize::MAX
        } else {
            FRAME_QUEUE_DEPTH
        },
        pool: Vec::new(),
    });
    (
        FrameTx {
            shared: shared.clone(),
            spare: Vec::new(),
            taps: Vec::new(),
        },
        FrameRx {
            shared: shared.clone(),
            taps: Vec::new(),
        },
        PipeMonitor { shared },
    )
}

/// An out-of-band handle on a pipe or frame queue, held by the deadline
/// watchdog.
pub struct PipeMonitor {
    shared: Arc<dyn Poison>,
}

impl PipeMonitor {
    /// Poisons the channel: both ends — including ones currently
    /// parked on a condvar — fail with `TimedOut` instead of blocking.
    /// This is how a region deadline unwedges node threads stuck on a
    /// stalled edge.
    pub fn poison(&self) {
        self.shared.poison();
    }
}

/// The error both ends report once poisoned.
fn poisoned_error() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "pipe poisoned by region deadline")
}

/// The writing end of a [`pipe`].
pub struct PipeWriter {
    shared: Arc<Shared<Ring>>,
}

/// The reading end of a [`pipe`].
pub struct PipeReader {
    shared: Arc<Shared<Ring>>,
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let mut s = self.shared.writable()?;
        let n = s.buf.accept(data);
        self.shared.wake_peer(&mut s, End::Writer);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.shared.close(End::Writer);
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let Some(mut s) = self.shared.ready(End::Reader)? else {
            return Ok(0);
        };
        let n = s.buf.take(out);
        self.shared.wake_peer(&mut s, End::Reader);
        Ok(n)
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        self.shared.close(End::Reader);
    }
}

/// Counts the bytes of each frame crossing an end, in their encoded
/// size (header and payload): what the same frame costs on a byte
/// edge, so a profile reads the same whichever carried it.
pub type Tap = Box<dyn Fn(u64) + Send>;

fn tap_all(taps: &[Tap], payload: usize) {
    for tap in taps {
        tap((HEADER_LEN + payload) as u64);
    }
}

/// The writing end of a [`frame_queue`].
pub struct FrameTx {
    shared: Arc<Shared<Frames>>,
    /// The buffer [`FrameTx::send_copy`] fills.
    spare: Vec<u8>,
    taps: Vec<Tap>,
}

impl FrameTx {
    /// Hands the frame in `frame` over under `tag`, waiting while the
    /// queue is full, and leaves `frame` an empty buffer from the pool
    /// to build the next one in.
    pub fn send(&mut self, tag: u64, frame: &mut Vec<u8>) -> io::Result<()> {
        let len = frame.len();
        let mut s = self.shared.writable()?;
        let next = s.buf.pool.pop().unwrap_or_default();
        s.buf.queue.push_back((tag, std::mem::replace(frame, next)));
        self.shared.wake_peer(&mut s, End::Writer);
        drop(s);
        tap_all(&self.taps, len);
        Ok(())
    }

    /// [`FrameTx::send`] of a copy of `payload`.
    pub fn send_copy(&mut self, tag: u64, payload: &[u8]) -> io::Result<()> {
        let mut frame = std::mem::take(&mut self.spare);
        frame.extend_from_slice(payload);
        let sent = self.send(tag, &mut frame);
        frame.clear();
        self.spare = frame;
        sent
    }

    /// Counts every frame sent from now on into `tap`.
    pub fn tap(&mut self, tap: Tap) {
        self.taps.push(tap);
    }
}

impl Drop for FrameTx {
    fn drop(&mut self) {
        self.shared.close(End::Writer);
    }
}

/// The reading end of a [`frame_queue`].
pub struct FrameRx {
    shared: Arc<Shared<Frames>>,
    taps: Vec<Tap>,
}

impl FrameRx {
    /// Takes the next frame: its buffer replaces `payload`, whose old
    /// buffer goes back to the writer's pool, and its tag is returned.
    /// `None` once the writer is gone and every frame was taken.
    pub fn recv(&mut self, payload: &mut Vec<u8>) -> io::Result<Option<u64>> {
        let Some(mut s) = self.shared.ready(End::Reader)? else {
            return Ok(None);
        };
        let (tag, frame) = s.buf.queue.pop_front().expect("a frame to take");
        let mut spent = std::mem::replace(payload, frame);
        if spent.capacity() > 0 && s.buf.pool.len() < POOL {
            spent.clear();
            s.buf.pool.push(std::mem::take(&mut spent));
        }
        self.shared.wake_peer(&mut s, End::Reader);
        drop(s);
        tap_all(&self.taps, payload.len());
        Ok(Some(tag))
    }

    /// Counts every frame taken from now on into `tap`.
    pub fn tap(&mut self, tap: Tap) {
        self.taps.push(tap);
    }
}

impl Drop for FrameRx {
    fn drop(&mut self) {
        self.shared.close(End::Reader);
    }
}

/// Reads a sequence of readers one after another (ordered
/// concatenation — how `cat`-style stdin is presented to commands).
pub struct MultiReader<'a> {
    sources: VecDeque<Box<dyn Read + Send + 'a>>,
}

impl<'a> MultiReader<'a> {
    /// Builds a multi-reader over ordered sources.
    pub fn new(sources: Vec<Box<dyn Read + Send + 'a>>) -> Self {
        MultiReader {
            sources: sources.into(),
        }
    }
}

impl Read for MultiReader<'_> {
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
        w.shared.lock().buf.spilled.len()
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
        assert_eq!(w.shared.lock().buf.len, 4, "ring untouched while spilled");
        // One read drains the ring, then the spill.
        let n = r.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"efghijklmn");
        assert_eq!(spilled_chunks(&w), 0);
        // Drained: writes go to the ring again.
        w.write_all(b"op").expect("write");
        assert_eq!(spilled_chunks(&w), 0);
        assert_eq!(w.shared.lock().buf.len, 2);
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
            let guard = w.shared.lock();
            let inner = &guard.buf;
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

    /// A frame of `len` bytes whose content names its tag.
    fn frame_of(tag: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| (tag as usize + i) as u8).collect()
    }

    #[test]
    fn frame_eof_comes_only_after_the_last_frame() {
        let (mut tx, mut rx, _) = frame_queue(false);
        for tag in 0..FRAME_QUEUE_DEPTH as u64 {
            tx.send_copy(tag, &frame_of(tag, 10 * tag as usize))
                .expect("room for a queue-full");
        }
        drop(tx);
        let mut payload = Vec::new();
        for tag in 0..FRAME_QUEUE_DEPTH as u64 {
            assert_eq!(rx.recv(&mut payload).expect("frame"), Some(tag));
            assert_eq!(payload, frame_of(tag, 10 * tag as usize));
        }
        assert_eq!(rx.recv(&mut payload).expect("EOF"), None);
        assert_eq!(rx.recv(&mut payload).expect("sticky EOF"), None);
    }

    #[test]
    fn a_full_frame_queue_parks_its_writer_until_a_frame_is_taken() {
        let (mut tx, mut rx, _) = frame_queue(false);
        for tag in 0..FRAME_QUEUE_DEPTH as u64 {
            tx.send_copy(tag, b"x").expect("room");
        }
        let t = std::thread::spawn(move || tx.send_copy(99, b"late").map(|()| tx));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!t.is_finished(), "a full queue takes no more");
        let mut payload = Vec::new();
        assert_eq!(rx.recv(&mut payload).expect("frame"), Some(0));
        drop(t.join().expect("join").expect("sent once there was room"));
        let mut tags = Vec::new();
        while let Some(tag) = rx.recv(&mut payload).expect("frame") {
            tags.push(tag);
        }
        let want: Vec<u64> = (1..FRAME_QUEUE_DEPTH as u64).chain([99]).collect();
        assert_eq!(tags, want);
    }

    #[test]
    fn frame_reader_drop_breaks_the_queue_and_frees_its_buffers() {
        for spills in [false, true] {
            let (mut tx, rx, _) = frame_queue(spills);
            for tag in 0..FRAME_QUEUE_DEPTH as u64 {
                tx.send_copy(tag, &[7u8; 70_000]).expect("room");
            }
            // A writer parked on the full queue wakes into the break.
            let parked = std::thread::spawn(move || {
                let res = tx.send_copy(9, b"x");
                (res, tx)
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(rx);
            let (res, mut tx) = parked.join().expect("join");
            if !spills {
                assert_eq!(res.expect_err("broken").kind(), io::ErrorKind::BrokenPipe);
            }
            {
                let s = tx.shared.lock();
                assert!(s.buf.queue.is_empty() && s.buf.queue.capacity() == 0);
                assert!(s.buf.pool.is_empty());
            }
            let err = tx.send_copy(10, b"y").expect_err("must fail");
            assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        }
    }

    #[test]
    fn poison_wakes_a_parked_frame_reader_and_writer() {
        let (tx, mut rx, m) = frame_queue(false);
        let reader = std::thread::spawn(move || rx.recv(&mut Vec::new()));
        let (mut tx2, rx2, m2) = frame_queue(false);
        for tag in 0..FRAME_QUEUE_DEPTH as u64 {
            tx2.send_copy(tag, b"x").expect("room");
        }
        let writer = std::thread::spawn(move || tx2.send_copy(9, b"x"));
        std::thread::sleep(std::time::Duration::from_millis(20));
        m.poison();
        m2.poison();
        let err = reader.join().expect("join").expect_err("poisoned read");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let err = writer.join().expect("join").expect_err("poisoned write");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        drop((tx, rx2));
    }

    #[test]
    fn drained_frame_buffers_go_back_to_the_writer() {
        let (mut tx, mut rx, _) = frame_queue(false);
        let mut frame = Vec::with_capacity(64 * 1024);
        frame.extend_from_slice(b"first");
        let first = frame.as_ptr();
        tx.send(0, &mut frame).expect("send");
        assert!(frame.is_empty());
        let mut payload = Vec::new();
        assert_eq!(rx.recv(&mut payload).expect("frame"), Some(0));
        // The reader holds the writer's buffer itself, not a copy.
        assert_eq!((payload.as_ptr(), &payload[..]), (first, &b"first"[..]));
        tx.send_copy(1, b"second").expect("send");
        assert_eq!(rx.recv(&mut payload).expect("frame"), Some(1));
        // The buffer the reader was done with is the writer's next.
        let mut next = Vec::new();
        tx.send(2, &mut next).expect("send");
        assert_eq!((next.as_ptr(), next.capacity() >= 64 * 1024), (first, true));
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

        // A frame queue is a `VecDeque` of frames to its reader: on one
        // thread, sends (of 0 to 200 KB, empty frames included) and
        // takes in any order return the frames the model says, in
        // order; a bounded queue is only sent to while the model holds
        // fewer than its depth. The shim does not shrink, so a failure
        // names its own sizes.
        #[test]
        fn prop_frame_queue_is_a_vecdeque(
            spills in 0u8..2,
            ops in proptest::collection::vec((0usize..2, 0usize..200_000), 1..24),
        ) {
            let spills = spills == 1;
            let (mut tx, mut rx, _) = frame_queue(spills);
            let mut model: std::collections::VecDeque<(u64, usize)> = Default::default();
            let (mut tag, mut payload) = (0u64, Vec::new());
            for (i, &(op, size)) in ops.iter().enumerate() {
                let case = format!("spills {spills}, op {i} of {ops:?}");
                if op == 0 && (spills || model.len() < FRAME_QUEUE_DEPTH) {
                    let mut frame = frame_of(tag, size);
                    tx.send(tag, &mut frame).expect("room");
                    prop_assert!(frame.is_empty(), "{}", case);
                    model.push_back((tag, size));
                    tag += 1;
                } else if let Some((want, len)) = model.pop_front() {
                    let got = rx.recv(&mut payload).expect("frame");
                    prop_assert_eq!(got, Some(want), "{}", case);
                    prop_assert!(payload == frame_of(want, len), "payload of tag {}: {}", want, case);
                }
            }
            drop(tx);
            while let Some((want, len)) = model.pop_front() {
                prop_assert_eq!(rx.recv(&mut payload).expect("frame"), Some(want),
                    "spills {}, ops {:?}", spills, ops);
                prop_assert!(payload == frame_of(want, len), "tag {}, ops {:?}", want, ops);
            }
            prop_assert_eq!(rx.recv(&mut payload).expect("EOF"), None, "ops {:?}", ops);
        }
    }
}
