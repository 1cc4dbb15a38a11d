//! The runtime I/O layer: turning a region's resolved plan edges into
//! transports.
//!
//! Lowering decides *what* every edge is — internal pipe,
//! boundary stdin/stdout, file, file segment. This module decides
//! *how* those edges move bytes, in the two ways the runtime knows. A
//! file or file segment is handed to its node by name ([`File`]).
//!
//! * [`MemEdges`] — in-process wiring for the `threads` backend. A
//!   node takes each endpoint as a [`Source`] or a [`Sink`]: a byte
//!   stream, or a queue of owned `r_split` frames. Which carrier an
//!   internal pipe edge gets ([`Pipes`]):
//!   - when every node has a thread of its own, a
//!     [`crate::pipe::frame_queue`] where a frame writer (framed
//!     `r_split`, framed command) feeds a frame reader (framed command,
//!     `pash-agg-reorder`, `pash-agg-frame-merge`): the frame's buffer
//!     moves, its bytes are not copied; a bounded byte
//!     [`crate::pipe`] ring on every other edge, and on every edge of
//!     an attempt with a fault armed (the fault plane's stream faults
//!     live in the byte writer);
//!   - when the region runs to completion on one thread, a growable
//!     buffer a finished producer leaves behind for its consumer to
//!     take whole (see [`crate::exec`] for which schedule an attempt
//!     gets).
//!
//!   The primary boundary stdin is read in place under both: its
//!   consumer reads the caller's bytes through a borrowed reader. An
//!   eager relay between two internal pipes is wired, not run: its two
//!   edges become one — a frame queue or a [`spill_pipe`] whose writer
//!   never blocks, or one shared buffer — from the relay's producer
//!   straight to its consumer, and the relay's node has nothing left
//!   to do;
//! * [`FifoDir`] — on-disk wiring for the `processes` backend: one
//!   named FIFO per internal pipe edge in a private scratch
//!   directory, created with `mkfifo(3)` and removed on drop — the
//!   same artifact the emitted shell script builds with `mkfifo`.
//!   Frames cross a FIFO in their byte form ([`crate::frame`]), as
//!   they do under `shell`.
//!
//! (A `remote` region is wired by the worker that runs it, with
//! [`MemEdges`]; what crosses the socket is one request and one reply,
//! see [`crate::remote`].)
//!
//! Keeping the wirings behind one module means stdin routing,
//! buffering discipline, and edge naming stay in one place instead of
//! being re-derived per backend.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pash_core::plan::{
    EndpointKind, PlanEdgeId, PlanNode, PlanNodeId, PlanOp, RegionPlan, SplitMode,
};

use crate::agg::reads_frames;
use crate::exec::lock;
use crate::fault::ArmedFault;
use crate::pipe::{frame_queue, pipe_monitored, spill_pipe, FrameRx, FrameTx, PipeMonitor, Tap};

/// Buffer in front of every edge writer: commands emit line-sized
/// writes, and each unbuffered write on a pipe edge is a lock
/// acquisition. Flush happens on drop at node exit.
pub const EDGE_WRITE_BUFFER: usize = 32 * 1024;

/// Wraps an edge writer in the standard edge buffer.
pub fn buffered<'a>(w: impl Write + Send + 'a) -> Box<dyn Write + Send + 'a> {
    Box::new(io::BufWriter::with_capacity(EDGE_WRITE_BUFFER, w))
}

/// The consuming end of an edge, as a node takes it.
pub enum Source<'a> {
    /// A byte stream (frames, if any, in their byte form).
    Bytes(Box<dyn Read + Send + 'a>),
    /// A queue of owned frames.
    Frames(FrameRx),
    /// A file its node has not opened yet.
    File(File<Box<dyn Read + Send + 'a>>),
}

/// The producing end of an edge, as a node takes it.
pub enum Sink<'a> {
    /// A byte stream (frames, if any, in their byte form).
    Bytes(Box<dyn Write + Send + 'a>),
    /// A queue of owned frames.
    Frames(FrameTx),
    /// A file its node has not created yet.
    File(File<Box<dyn Write + Send + 'a>>),
}

/// A file its node opens when it runs ([`crate::exec::open_files`]),
/// so one that is not there ends that node, not the region. `S` is the
/// stream it opens as.
pub struct File<S> {
    /// The file's path.
    pub path: String,
    /// An input's line-aligned segment `(part, of)` ([`crate::fileseg`]).
    pub segment: Option<(usize, usize)>,
    /// An output another process waits in `open` for (a FIFO): it is
    /// opened, and closed, even when its node fails before it.
    pub peer: bool,
    /// Put around the stream once it is open, first to last.
    pub around: Vec<Box<dyn FnOnce(S) -> S + Send>>,
}

/// A file a node writes, created (truncated) when its node opens it.
pub type FileOut<'a> = File<Box<dyn Write + Send + 'a>>;

impl<S> File<S> {
    /// The file at `path`.
    pub fn new(path: &str) -> Self {
        File {
            path: path.to_string(),
            segment: None,
            peer: false,
            around: Vec::new(),
        }
    }

    /// `stream`, just opened as this file, with what goes around it.
    pub(crate) fn opened(&mut self, stream: S) -> S {
        let around = std::mem::take(&mut self.around);
        around.into_iter().fold(stream, |s, wrap| wrap(s))
    }
}

/// The error of a node that reads or writes bytes on an edge that is
/// not a byte stream: a frame queue, or a file it did not open.
pub(crate) fn not_bytes() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, "the edge is not a byte stream")
}

/// A stream that counts the bytes crossing it into a [`Tap`].
struct Tapped<T> {
    inner: T,
    tap: Tap,
}

impl<R: Read> Read for Tapped<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        (self.tap)(n as u64);
        Ok(n)
    }
}

impl<W: Write> Write for Tapped<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(data)?;
        (self.tap)(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<'a> Source<'a> {
    /// The byte stream of an edge that carries bytes.
    pub fn into_bytes(self) -> io::Result<Box<dyn Read + Send + 'a>> {
        match self {
            Source::Bytes(r) => Ok(r),
            _ => Err(not_bytes()),
        }
    }

    /// This source, counting into `tap` every byte its node takes from
    /// it: a frame as on a byte edge, a file once it is open.
    pub fn tapped(self, tap: Tap) -> Self {
        match self {
            Source::Bytes(r) => Source::Bytes(Box::new(Tapped { inner: r, tap })),
            Source::Frames(mut q) => {
                q.tap(tap);
                Source::Frames(q)
            }
            Source::File(mut f) => {
                f.around
                    .push(Box::new(move |r| Box::new(Tapped { inner: r, tap })));
                Source::File(f)
            }
        }
    }
}

impl<'a> Sink<'a> {
    /// The byte stream of an edge that carries bytes.
    pub fn into_bytes(self) -> io::Result<Box<dyn Write + Send + 'a>> {
        match self {
            Sink::Bytes(w) => Ok(w),
            _ => Err(not_bytes()),
        }
    }

    /// This sink, counting into `tap` every byte its node puts into it
    /// (see [`Source::tapped`]).
    pub fn tapped(self, tap: Tap) -> Self {
        match self {
            Sink::Bytes(w) => Sink::Bytes(Box::new(Tapped { inner: w, tap })),
            Sink::Frames(mut q) => {
                q.tap(tap);
                Sink::Frames(q)
            }
            Sink::File(mut f) => {
                f.around
                    .push(Box::new(move |w| Box::new(Tapped { inner: w, tap })));
                Sink::File(f)
            }
        }
    }
}

/// The buffered writer of the stream that `edges` carry (one edge, or
/// a wired relay's edges), wrapped first by `fault` when it targets one
/// of them.
fn edge_writer(
    w: impl Write + Send + 'static,
    edges: &[PlanEdgeId],
    fault: Option<&ArmedFault>,
) -> Sink<'static> {
    Sink::Bytes(
        match fault.filter(|a| a.edge.is_some_and(|e| edges.contains(&e))) {
            Some(a) => buffered(a.wrap(w, false)),
            None => buffered(w),
        },
    )
}

/// A writer into a shared buffer (the region's stdout collector).
pub struct SharedVecWriter(pub Arc<Mutex<Vec<u8>>>);

impl Write for SharedVecWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("stdout lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The bytes that crossed a wired relay, counted by its stream's writer.
type Tally = Arc<AtomicU64>;

/// A [`Tap`] that adds into `tally`.
fn counted(tally: &Tally) -> Tap {
    let tally = tally.clone();
    Box::new(move |n| {
        tally.fetch_add(n, Ordering::Relaxed);
    })
}

/// The relays of `r` that [`MemEdges::wire`] wires as their edge: every
/// non-blocking `Relay` between two internal pipes, by input edge, with
/// its node and its output edge. A blocking relay bounds its buffer on
/// purpose and still runs, as does one at a boundary.
fn wired_relays(r: &RegionPlan) -> HashMap<PlanEdgeId, (PlanNodeId, PlanEdgeId)> {
    let pipe = |e: PlanEdgeId| r.edges[e].kind == EndpointKind::Pipe;
    r.nodes
        .iter()
        .enumerate()
        .filter_map(|(id, n)| match (&n.op, &n.inputs[..], &n.outputs[..]) {
            (PlanOp::Relay { blocking: false }, &[i], &[o]) if pipe(i) && pipe(o) => {
                Some((i, (id, o)))
            }
            _ => None,
        })
        .collect()
}

/// Whether a stream that `from` writes and `to` reads is a stream of
/// frames both ends take whole: every output of a framed `r_split` or
/// framed command, into a framed command's one stdin input or any
/// input of a frame aggregator.
fn carries_frames(
    r: &RegionPlan,
    from: Option<PlanNodeId>,
    to: Option<PlanNodeId>,
    e: PlanEdgeId,
) -> bool {
    let (Some(from), Some(to)) = (from, to) else {
        return false;
    };
    let writes = matches!(
        r.nodes[from].op,
        PlanOp::Split {
            mode: SplitMode::RoundRobin { framed: true }
        } | PlanOp::Exec { framed: true, .. }
    );
    let to = &r.nodes[to];
    let reads = match &to.op {
        PlanOp::Exec { framed: true, .. } => {
            matches!(&to.stdin_inputs[..], &[k] if to.inputs.get(k) == Some(&e))
        }
        PlanOp::Aggregate { argv } => reads_frames(argv),
        _ => false,
    };
    writes && reads
}

/// How [`MemEdges`] realises a region's internal `Pipe` edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipes {
    /// A bounded ring of this many bytes per edge, or a bounded frame
    /// queue on an edge of frames: producer and consumer run
    /// concurrently and synchronize on it.
    Ring(usize),
    /// A growable buffer per edge: the producer runs first and fills
    /// it, the consumer then takes it whole as a cursor — no ring, no
    /// condvar, no monitor, no write buffer in front. A buffer refuses
    /// to grow past `limit` bytes (see [`MemEdges::overflowed`]).
    Buffer {
        /// Most bytes one edge may hold.
        limit: usize,
    },
}

/// The buffer behind one [`Pipes::Buffer`] edge, empty until its
/// producer is done.
type Slot = Arc<Mutex<Vec<u8>>>;

/// Producer side of a [`Pipes::Buffer`] edge: collects privately and
/// leaves the bytes in the edge's slot when dropped, i.e. when the
/// producing node has run to completion.
struct BufferWriter {
    buf: Vec<u8>,
    slot: Slot,
    limit: usize,
    overflowed: Arc<AtomicBool>,
}

impl Write for BufferWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.buf.len() + data.len() > self.limit {
            self.overflowed.store(true, Ordering::Relaxed);
            return Err(io::Error::other("stream outgrew its edge buffer"));
        }
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for BufferWriter {
    fn drop(&mut self) {
        *lock(&self.slot) = std::mem::take(&mut self.buf);
    }
}

/// In-process transports for one region's edges: each edge id maps to
/// a reader (consumer side), a writer (producer side), or both. `'a`
/// is the caller's stdin, which the primary stdin edge borrows.
///
/// Built once per region by [`MemEdges::wire`]; the executor then
/// *takes* each node's endpoints as it reaches the node, leaving the
/// maps empty when the region is fully wired.
pub struct MemEdges<'a> {
    readers: HashMap<PlanEdgeId, Source<'a>>,
    writers: HashMap<PlanEdgeId, Sink<'static>>,
    /// [`Pipes::Buffer`] edges; their endpoints are made when taken. A
    /// wired relay's input and output edges share one slot.
    slots: HashMap<PlanEdgeId, Slot>,
    slot_limit: usize,
    /// The wired relays, each with the tally of its stream.
    relays: Vec<(PlanNodeId, Tally)>,
    /// The tally of each relayed [`Pipes::Buffer`] edge, by the edge its
    /// producer writes.
    slot_tallies: HashMap<PlanEdgeId, Tally>,
    overflowed: Arc<AtomicBool>,
    stdout: Arc<Mutex<Vec<u8>>>,
    monitors: Vec<PipeMonitor>,
}

impl<'a> MemEdges<'a> {
    /// Wires every edge of `r`: internal edges in the `pipes` form,
    /// the `stdin` bytes for the primary boundary input, a shared
    /// collector for stdout edges, and each file or segment by name.
    /// An armed `fault` is delivered here: its target edge fails to
    /// wire at all (the in-process analogue of a `mkfifo` error) or
    /// gets its writer wrapped ([`ArmedFault::wrap`]), an output
    /// file's once its node has opened it. Buffer pipes
    /// and frame queues carry no fault site: an armed attempt is wired
    /// with byte rings only.
    ///
    /// An eager relay between two internal pipes is wired here, not
    /// run (see [`MemEdges::wires_relay`]): the edge into it and the
    /// edge out of it — and on through a chain of such relays — are one
    /// transport from the producer of the first to the consumer of the
    /// last. Under rings that is a [`spill_pipe`], or a frame queue
    /// built to spill, whose writer never blocks: what the eager relay
    /// is for. Under buffers it is one slot. Each edge of the chain is
    /// still wired, as far as [`ArmedFault::before_wiring`] can tell,
    /// and a stream fault on any of them wraps the one writer.
    ///
    /// The primary boundary input, if it has a consumer, reads `stdin`
    /// in place under either form: the caller's bytes stay borrowed,
    /// and a retry wires them again from byte 0. A slice never blocks,
    /// so it needs no monitor; and the fault plane never targets a
    /// boundary edge.
    ///
    /// No file is opened here.
    pub fn wire(
        r: &RegionPlan,
        stdin: &'a [u8],
        pipes: Pipes,
        fault: Option<&ArmedFault>,
    ) -> io::Result<MemEdges<'a>> {
        let stdout: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let mut readers: HashMap<PlanEdgeId, Source<'a>> = HashMap::new();
        let mut writers: HashMap<PlanEdgeId, Sink<'static>> = HashMap::new();
        let mut slots: HashMap<PlanEdgeId, Slot> = HashMap::new();
        let mut monitors: Vec<PipeMonitor> = Vec::new();
        let mut stdin = Some(stdin);
        let through = wired_relays(r);
        let relayed: HashSet<PlanEdgeId> = through.values().map(|&(_, o)| o).collect();
        let mut relays = Vec::new();
        let mut slot_tallies = HashMap::new();
        for (e, edge) in r.edges.iter().enumerate() {
            if let Some(a) = fault {
                a.before_wiring(e)?;
            }
            match &edge.kind {
                // Carried by the edge into its relay.
                EndpointKind::Pipe if relayed.contains(&e) => {}
                EndpointKind::Pipe => {
                    // The edges this stream crosses, through each wired
                    // relay to the one its consumer reads.
                    let mut chain = vec![e];
                    let tally = Tally::default();
                    while let Some(&(id, out)) = chain.last().and_then(|t| through.get(t)) {
                        relays.push((id, tally.clone()));
                        chain.push(out);
                    }
                    let tail = *chain.last().expect("the edge itself");
                    let spills = tail != e;
                    match pipes {
                        Pipes::Ring(_)
                            if fault.is_none()
                                && carries_frames(r, edge.from, r.edges[tail].to, tail) =>
                        {
                            let (mut w, rd, m) = frame_queue(spills);
                            monitors.push(m);
                            if spills {
                                w.tap(counted(&tally));
                            }
                            writers.insert(e, Sink::Frames(w));
                            readers.insert(tail, Source::Frames(rd));
                        }
                        Pipes::Ring(capacity) if !spills => {
                            let (w, rd, m) = pipe_monitored(capacity);
                            monitors.push(m);
                            writers.insert(e, edge_writer(w, &chain, fault));
                            readers.insert(e, Source::Bytes(Box::new(rd)));
                        }
                        Pipes::Ring(capacity) => {
                            let (w, rd, m) = spill_pipe(capacity);
                            monitors.push(m);
                            let w = Tapped {
                                inner: w,
                                tap: counted(&tally),
                            };
                            writers.insert(e, edge_writer(w, &chain, fault));
                            readers.insert(tail, Source::Bytes(Box::new(rd)));
                        }
                        Pipes::Buffer { .. } => {
                            let slot = Slot::default();
                            if spills {
                                slot_tallies.insert(e, tally);
                                slots.insert(tail, slot.clone());
                            }
                            slots.insert(e, slot);
                        }
                    }
                }
                EndpointKind::StdinPipe { primary } => {
                    // Non-primary boundary inputs read empty streams,
                    // and so does a second primary one.
                    let feed = if *primary && edge.to.is_some() {
                        stdin.take()
                    } else {
                        None
                    };
                    readers.insert(e, Source::Bytes(Box::new(feed.unwrap_or_default())));
                }
                EndpointKind::StdoutPipe => {
                    let w = SharedVecWriter(stdout.clone());
                    writers.insert(e, edge_writer(w, &[e], fault));
                }
                EndpointKind::InputFile(path) => {
                    readers.insert(e, Source::File(File::new(path)));
                }
                EndpointKind::InputSegment { path, part, of } => {
                    let mut file = File::new(path);
                    file.segment = Some((*part, *of));
                    readers.insert(e, Source::File(file));
                }
                EndpointKind::OutputFile(path) => {
                    let mut file: FileOut = File::new(path);
                    if let Some(a) = fault.filter(|a| a.edge == Some(e)).cloned() {
                        file.around
                            .push(Box::new(move |w| Box::new(a.wrap(w, false))));
                    }
                    writers.insert(e, Sink::File(file));
                }
                // Detached edges need no transport.
                EndpointKind::Detached => {}
            }
        }
        Ok(MemEdges {
            readers,
            writers,
            slots,
            slot_limit: match pipes {
                Pipes::Buffer { limit } => limit,
                Pipes::Ring(_) => 0,
            },
            relays,
            slot_tallies,
            overflowed: Arc::default(),
            stdout,
            monitors,
        })
    }

    /// Takes the monitor handles of every ring and frame queue (for the
    /// region-deadline watchdog).
    pub fn take_monitors(&mut self) -> Vec<PipeMonitor> {
        std::mem::take(&mut self.monitors)
    }

    /// Takes the consumer endpoints of `node`'s inputs, in input
    /// order. A buffer pipe reads as a cursor over what its producer
    /// left; untracked edges read as empty streams.
    pub fn take_inputs(&mut self, node: &PlanNode) -> Vec<Source<'a>> {
        node.inputs
            .iter()
            .map(|&e| {
                self.readers.remove(&e).unwrap_or_else(|| {
                    let bytes = self.slots.get(&e).map(|s| std::mem::take(&mut *lock(s)));
                    Source::Bytes(Box::new(io::Cursor::new(bytes.unwrap_or_default())))
                })
            })
            .collect()
    }

    /// Takes the producer endpoints of `node`'s outputs, in output
    /// order. Untracked edges discard their bytes.
    pub fn take_outputs(&mut self, node: &PlanNode) -> Vec<Sink<'static>> {
        node.outputs
            .iter()
            .map(|&e| {
                if let Some(w) = self.writers.remove(&e) {
                    return w;
                }
                let sink = Sink::Bytes(match self.slots.get(&e) {
                    Some(slot) => Box::new(BufferWriter {
                        buf: Vec::new(),
                        slot: slot.clone(),
                        limit: self.slot_limit,
                        overflowed: self.overflowed.clone(),
                    }),
                    None => Box::new(io::sink()),
                });
                match self.slot_tallies.get(&e) {
                    Some(t) => sink.tapped(counted(t)),
                    None => sink,
                }
            })
            .collect()
    }

    /// Whether node `id` is a relay this wiring made part of its edge:
    /// the node has no endpoints to take and nothing to run.
    pub fn wires_relay(&self, id: PlanNodeId) -> bool {
        self.relays.iter().any(|(n, _)| *n == id)
    }

    /// Each wired relay with the bytes that have crossed it so far —
    /// what its stream's producer put into the edge.
    pub fn relayed(&self) -> Vec<(PlanNodeId, u64)> {
        self.relays
            .iter()
            .map(|(id, t)| (*id, t.load(Ordering::Relaxed)))
            .collect()
    }

    /// Whether a buffer pipe refused a write that would have taken it
    /// past its limit: the region's streams are not small after all.
    pub fn overflowed(&self) -> bool {
        self.overflowed.load(Ordering::Relaxed)
    }

    /// The shared stdout collector (drain after every producer
    /// dropped its writer).
    pub fn stdout_handle(&self) -> Arc<Mutex<Vec<u8>>> {
        self.stdout.clone()
    }
}

/// Creates a FIFO special file (`mkfifo(3)`). The workspace vendors no
/// `libc`, but `std` already links the platform C library, so the one
/// symbol the FIFO wiring needs is declared directly.
#[cfg(unix)]
pub fn mkfifo(path: &Path) -> io::Result<()> {
    use std::os::unix::ffi::OsStrExt;
    extern "C" {
        fn mkfifo(path: *const std::os::raw::c_char, mode: u32) -> i32;
    }
    let c = std::ffi::CString::new(path.as_os_str().as_bytes())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "path contains NUL"))?;
    if unsafe { mkfifo(c.as_ptr().cast(), 0o600) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Unsupported off Unix: named FIFOs are a POSIX feature.
#[cfg(not(unix))]
pub fn mkfifo(_path: &Path) -> io::Result<()> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "named FIFOs require a Unix platform",
    ))
}

/// On-disk wiring for one region: a private scratch directory holding
/// one named FIFO per internal pipe edge (`p<edge>`, mirroring the
/// emitted script's `$PASH_TMP/r<region>_p<edge>` naming).
///
/// The directory and its FIFOs are removed on drop.
pub struct FifoDir {
    dir: PathBuf,
    paths: HashMap<PlanEdgeId, PathBuf>,
}

impl FifoDir {
    /// Creates the scratch directory under `scratch_root` (tagged so
    /// concurrent regions/processes cannot collide) and a FIFO for
    /// every internal pipe edge of `r`. An armed `fault` targeting one
    /// of those edges makes its `mkfifo` fail
    /// ([`ArmedFault::before_wiring`]). The scratch directory is
    /// removed on any error, so a failed attempt leaks nothing.
    pub fn create(
        r: &RegionPlan,
        scratch_root: &Path,
        tag: &str,
        fault: Option<&ArmedFault>,
    ) -> io::Result<FifoDir> {
        let dir = scratch_root.join(format!("pash-fifo-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let mut paths = HashMap::new();
        for e in r.internal_pipes() {
            let p = dir.join(format!("p{e}"));
            let res = fault.map_or(Ok(()), |a| a.before_wiring(e));
            if let Err(err) = res.and_then(|()| mkfifo(&p)) {
                let _ = std::fs::remove_dir_all(&dir);
                return Err(err);
            }
            paths.insert(e, p);
        }
        Ok(FifoDir { dir, paths })
    }

    /// The FIFO path backing edge `e`, if `e` is an internal pipe.
    pub fn path(&self, e: PlanEdgeId) -> Option<&Path> {
        self.paths.get(&e).map(|p| p.as_path())
    }

    /// The scratch directory itself.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for FifoDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use pash_core::compile::{compile, PashConfig};
    use pash_core::plan::PlanStep;
    use pash_coreutils::fs::MemFs;

    fn region(src: &str, width: usize) -> RegionPlan {
        let compiled = compile(
            src,
            &PashConfig {
                width,
                ..Default::default()
            },
        )
        .expect("compile");
        compiled
            .plan
            .steps
            .iter()
            .find_map(|s| match s {
                PlanStep::Region(r) => Some(r.clone()),
                _ => None,
            })
            .expect("region")
    }

    #[test]
    fn mem_wiring_covers_all_live_edges() {
        let r = region("cat in.txt | tr A-Z a-z | sort > out.txt", 2);
        let mut edges = MemEdges::wire(&r, &[], Pipes::Ring(1024), None).expect("wire");
        // Taking every running node's endpoints drains the maps
        // completely.
        let running = (0..r.nodes.len()).filter(|&id| !edges.wires_relay(id));
        for node in running.map(|id| &r.nodes[id]).collect::<Vec<_>>() {
            let ins = edges.take_inputs(node);
            let outs = edges.take_outputs(node);
            assert_eq!(ins.len(), node.inputs.len());
            assert_eq!(outs.len(), node.outputs.len());
        }
        assert!(edges.readers.is_empty(), "all readers taken");
        assert!(edges.writers.is_empty(), "all writers taken");
    }

    /// The eager relay of `r` with its producer and its consumer.
    fn relay_between(r: &RegionPlan) -> (PlanNodeId, &PlanNode, &PlanNode) {
        let relay = r
            .nodes
            .iter()
            .position(|n| matches!(n.op, PlanOp::Relay { blocking: false }))
            .expect("relay");
        let node = &r.nodes[relay];
        let upstream = &r.nodes[r.edges[node.inputs[0]].from.expect("producer")];
        let downstream = &r.nodes[r.edges[node.outputs[0]].to.expect("consumer")];
        (relay, upstream, downstream)
    }

    /// Where `consumer` reads what the relay `relay` passes on.
    fn relayed_input(r: &RegionPlan, relay: PlanNodeId, consumer: &PlanNode) -> usize {
        let out = r.nodes[relay].outputs[0];
        consumer
            .inputs
            .iter()
            .position(|e| *e == out)
            .expect("input position")
    }

    /// The one byte writer of `node`'s first output.
    fn byte_out(edges: &mut MemEdges, node: &PlanNode) -> Box<dyn Write + Send> {
        let sink = edges.take_outputs(node).remove(0);
        sink.into_bytes().expect("a byte edge")
    }

    /// All of what `node` reads on input `at`, as bytes.
    fn read_in(edges: &mut MemEdges, node: &PlanNode, at: usize) -> Vec<u8> {
        let source = edges.take_inputs(node).remove(at);
        let mut got = Vec::new();
        let mut r = source.into_bytes().expect("a byte edge");
        r.read_to_end(&mut got).expect("read");
        got
    }

    #[test]
    fn buffer_pipes_pass_whole_streams_through_wired_relays() {
        let r = region("cat in.txt | tr A-Z a-z | sort > out.txt", 2);
        let pipes = Pipes::Buffer { limit: 8 };
        let mut edges = MemEdges::wire(&r, &[], pipes, None).expect("wire");
        assert!(edges.take_monitors().is_empty(), "no rings, no monitors");
        let (relay, upstream, downstream) = relay_between(&r);
        assert!(edges.wires_relay(relay));
        // The producer's bytes appear once it is done (dropped)...
        let mut out = byte_out(&mut edges, upstream);
        out.write_all(b"abc").expect("write");
        out.write_all(b"de").expect("write");
        drop(out);
        // ...counted as having crossed the relay, which never ran...
        assert!(edges.relayed().contains(&(relay, 5)));
        // ...and the consumer gets them whole.
        let at = relayed_input(&r, relay, downstream);
        assert_eq!(read_in(&mut edges, downstream, at), b"abcde");
        // A stream past the limit is refused and remembered.
        assert!(!edges.overflowed());
        let other = r
            .nodes
            .iter()
            .find(|n| {
                !std::ptr::eq(*n, upstream)
                    && matches!(n.op, PlanOp::Exec { .. })
                    && r.edges[n.outputs[0]].kind == EndpointKind::Pipe
            })
            .expect("another node writing a pipe");
        let mut out = byte_out(&mut edges, other);
        out.write_all(b"12345678").expect("at the limit");
        assert!(out.write_all(b"9").is_err());
        assert!(edges.overflowed());
    }

    #[test]
    fn a_wired_relay_is_one_spill_pipe() {
        // Under rings the relay's two edges are one spill pipe: its
        // producer writes far past the ring with no consumer running,
        // and the consumer then reads it all, in order.
        let r = region("cat in.txt | tr A-Z a-z | sort > out.txt", 2);
        let relays = r
            .nodes
            .iter()
            .filter(|n| matches!(n.op, PlanOp::Relay { .. }))
            .count();
        let mut edges = MemEdges::wire(&r, &[], Pipes::Ring(16), None).expect("wire");
        let pipes = r.internal_pipes().count();
        assert_eq!(
            edges.take_monitors().len(),
            pipes - relays,
            "one per relay fewer"
        );
        let (relay, upstream, downstream) = relay_between(&r);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut out = byte_out(&mut edges, upstream);
        out.write_all(&data).expect("never blocks");
        drop(out);
        let at = relayed_input(&r, relay, downstream);
        assert_eq!(read_in(&mut edges, downstream, at), data);
        assert!(edges.relayed().contains(&(relay, 100_000)));
        // The relay has no endpoints of its own left to take.
        let node = &r.nodes[relay];
        assert!(!edges.readers.contains_key(&node.inputs[0]));
        assert!(!edges.writers.contains_key(&node.outputs[0]));
    }

    #[test]
    fn frames_cross_as_buffers_only_between_framed_nodes() {
        // The `light-stream` shape: r_split, framed commands, relays
        // and the reorder aggregator.
        let compiled = compile(
            "tr A-Z a-z | cut -c 1-4 | tr -s ' '",
            &PashConfig::round_robin(2),
        )
        .expect("compile");
        let r = compiled.plan.regions().next().expect("region").clone();
        // Which endpoint kind each internal pipe edge gets, by edge,
        // as its producer and its consumer take it.
        let kinds = |pipes, fault: Option<&ArmedFault>| {
            let mut edges = MemEdges::wire(&r, b"", pipes, fault).expect("wire");
            let mut frames = Vec::new();
            for (id, node) in r.nodes.iter().enumerate() {
                if edges.wires_relay(id) {
                    continue;
                }
                for (src, e) in edges.take_inputs(node).iter().zip(&node.inputs) {
                    if matches!(src, Source::Frames(_)) {
                        frames.push(("in", *e));
                    }
                }
                for (sink, e) in edges.take_outputs(node).iter().zip(&node.outputs) {
                    if matches!(sink, Sink::Frames(_)) {
                        frames.push(("out", *e));
                    }
                }
            }
            frames
        };
        let framed = kinds(Pipes::Ring(1 << 16), None);
        // Every edge but the boundary ones (stdin into the split,
        // stdout out of the aggregator) and the ones into a wired relay
        // carry frames, at both ends.
        let relays = r
            .nodes
            .iter()
            .filter(|n| matches!(n.op, PlanOp::Relay { .. }))
            .count();
        let pipes = r.internal_pipes().count();
        assert_eq!(framed.len(), 2 * (pipes - relays), "{framed:?}");
        assert!(framed
            .iter()
            .all(|(_, e)| r.edges[*e].kind == EndpointKind::Pipe));
        // Run to completion, or with a fault armed, it is bytes only.
        assert!(kinds(Pipes::Buffer { limit: 1 << 16 }, None).is_empty());
        let plan = FaultPlan::new(FaultKind::from_name("stall").expect("kind"), 1);
        let armed = plan.arm(&r, false).expect("a site");
        assert!(kinds(Pipes::Ring(1 << 16), Some(&armed)).is_empty());
    }

    #[test]
    fn primary_stdin_is_read_in_place() {
        let r = region("tr A-Z a-z | sort", 1);
        let feed = b"B\nA\n".repeat(100);
        // `tr`, whose one input is the stdin edge.
        let consumer = &r.nodes[0];
        assert_eq!(
            r.edges[consumer.inputs[0]].kind,
            EndpointKind::StdinPipe { primary: true }
        );
        // Either form: the consumer reads the borrowed bytes, with no
        // ring (and so no monitor) in between.
        let pipes = r.internal_pipes().count();
        for (form, monitors) in [(Pipes::Ring(16), pipes), (Pipes::Buffer { limit: 16 }, 0)] {
            let mut edges = MemEdges::wire(&r, &feed, form, None).expect("wire");
            assert_eq!(edges.take_monitors().len(), monitors, "{form:?}");
            assert_eq!(read_in(&mut edges, consumer, 0), feed, "{form:?}");
        }
    }

    #[test]
    fn mem_wiring_names_files_and_opens_none() {
        // Wiring a region over a missing input stores nothing and fails
        // nothing: each file goes to its node by name. Run in plan
        // order, the nodes then give what `sh` gives for the same line:
        // `cat` reports the file and ends 1, `sort` sorts nothing and
        // ends 0 (the pipeline's status), and `out.txt` is made, empty.
        use crate::exec::run_node;
        use pash_coreutils::{fs::Fs, Registry};
        let r = region("cat nope.txt | sort > out.txt", 1);
        let fs = Arc::new(MemFs::new());
        let mut edges = MemEdges::wire(&r, &[], Pipes::Buffer { limit: 64 }, None).expect("wire");
        assert!(fs.paths().is_empty(), "wiring stored nothing");
        let mut named = |node: &PlanNode| {
            let ins = edges.take_inputs(node);
            let outs = edges.take_outputs(node);
            let files = ins.iter().filter_map(|s| match s {
                Source::File(f) => Some(f.path.clone()),
                _ => None,
            });
            let files: Vec<String> = files.collect();
            (files, ins, outs)
        };
        let mut statuses = Vec::new();
        let mut said = Vec::new();
        for node in &r.nodes {
            let (files, ins, outs) = named(node);
            if matches!(node.op, PlanOp::Cat) {
                assert_eq!(files, ["nope.txt"]);
            }
            let dyn_fs: Arc<dyn Fs> = fs.clone();
            let registry = Registry::standard();
            let status = run_node(
                &node.op,
                &node.stdin_inputs,
                ins,
                outs,
                &registry,
                dyn_fs,
                &mut said,
            )
            .expect("a status, not an error");
            statuses.push(status);
        }
        assert_eq!(statuses, [1, 0]);
        assert_eq!(
            String::from_utf8_lossy(&said),
            "cat: nope.txt: No such file or directory\n"
        );
        assert_eq!(fs.read("out.txt").expect("out.txt"), b"");
        assert!(edges.stdout_handle().lock().expect("stdout").is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn fifo_dir_creates_and_cleans_up() {
        let r = region("cat in.txt | tr A-Z a-z | sort > out.txt", 2);
        let pipes: Vec<_> = r.internal_pipes().collect();
        assert!(!pipes.is_empty());
        let dir;
        {
            let fifos =
                FifoDir::create(&r, &std::env::temp_dir(), "edge-test", None).expect("fifos");
            dir = fifos.dir().to_path_buf();
            for e in &pipes {
                let p = fifos.path(*e).expect("pipe edge has a fifo");
                let meta = std::fs::metadata(p).expect("fifo exists");
                use std::os::unix::fs::FileTypeExt;
                assert!(meta.file_type().is_fifo(), "{p:?} is a FIFO");
            }
        }
        assert!(!dir.exists(), "scratch dir removed on drop");
    }

    #[cfg(unix)]
    #[test]
    fn fifo_roundtrip_between_threads() {
        // A FIFO wired by this layer carries bytes between two
        // openers, like the process backend's children will.
        let r = region("cat in.txt | tr A-Z a-z > out.txt", 1);
        let e = r.internal_pipes().next().expect("pipe edge");
        let fifos = FifoDir::create(&r, &std::env::temp_dir(), "edge-rt", None).expect("fifos");
        let path = fifos.path(e).expect("path").to_path_buf();
        let writer_path = path.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut w = std::fs::OpenOptions::new()
                    .write(true)
                    .open(writer_path)
                    .expect("open fifo for write");
                w.write_all(b"through the fifo").expect("write");
            });
            let mut buf = Vec::new();
            std::fs::File::open(&path)
                .expect("open fifo for read")
                .read_to_end(&mut buf)
                .expect("read");
            assert_eq!(buf, b"through the fifo");
        });
    }
}
