//! The runtime I/O layer: turning a region's resolved plan edges into
//! transports.
//!
//! Lowering (PR 3) decides *what* every edge is — internal pipe,
//! boundary stdin/stdout, file, file segment. This module decides
//! *how* those edges move bytes, in the three ways the runtime knows:
//!
//! * [`MemEdges`] — in-process wiring for the `threads` backend:
//!   readers the consuming node pulls its file or file segment
//!   through, a shared buffer collecting region stdout, and internal
//!   pipe edges in one of two forms ([`Pipes`]): bounded ring
//!   [`crate::pipe`]s when every node has a thread of its own, or
//!   growable buffers a finished producer leaves behind for its
//!   consumer to take whole when the region runs to completion on one
//!   thread (see [`crate::exec`] for which schedule an attempt gets);
//! * [`FifoDir`] — on-disk wiring for the `processes` backend: one
//!   named FIFO per internal pipe edge in a private scratch
//!   directory, created with `mkfifo(3)` and removed on drop — the
//!   same artifact the emitted shell script builds with `mkfifo`;
//! * [`SockEdgeWriter`] / [`SockEdgeReader`] — socket wiring for the
//!   `remote` backend: a worker streams a region's results (stdout
//!   chunks, output files, the terminal status) back to the
//!   coordinator in the [`crate::frame`] tagged format, so a dropped
//!   connection or half-written frame is detected by the same
//!   magic/length checks that guard `r_split` streams — never passed
//!   off as a short but plausible result.
//!
//! Keeping the wirings behind one module means stdin routing,
//! buffering discipline, and edge naming stay in one place instead of
//! being re-derived per backend.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use pash_core::plan::{EndpointKind, PlanEdgeId, PlanNode, RegionPlan};
use pash_coreutils::fs::Fs;

use crate::drive::Feed;
use crate::fault::{ArmedFault, FaultKind, FaultMode, FaultyWriter};
use crate::fileseg::open_segment;
use crate::pipe::{pipe_monitored, PipeMonitor};
use crate::wire::{bad_data, put_str, put_u32, put_u64, Cursor};

/// Buffer in front of every edge writer: commands emit line-sized
/// writes, and each unbuffered write on a pipe edge is a lock
/// acquisition. Flush happens on drop at node exit.
pub const EDGE_WRITE_BUFFER: usize = 32 * 1024;

/// Wraps an edge writer in the standard edge buffer.
pub fn buffered(w: impl Write + Send + 'static) -> Box<dyn Write + Send> {
    Box::new(io::BufWriter::with_capacity(EDGE_WRITE_BUFFER, w))
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

/// How [`MemEdges`] realises a region's internal `Pipe` edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipes {
    /// A bounded ring of this many bytes per edge: producer and
    /// consumer run concurrently and synchronize on it.
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

fn slot_lock(slot: &Slot) -> std::sync::MutexGuard<'_, Vec<u8>> {
    slot.lock().unwrap_or_else(|p| p.into_inner())
}

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
        *slot_lock(&self.slot) = std::mem::take(&mut self.buf);
    }
}

/// In-process transports for one region's edges: each edge id maps to
/// a reader (consumer side), a writer (producer side), or both.
///
/// Built once per region by [`MemEdges::wire`]; the executor then
/// *takes* each node's endpoints as it reaches the node, leaving the
/// maps empty when the region is fully wired.
pub struct MemEdges {
    readers: HashMap<PlanEdgeId, Box<dyn Read + Send>>,
    writers: HashMap<PlanEdgeId, Box<dyn Write + Send>>,
    /// [`Pipes::Buffer`] edges; their endpoints are made when taken.
    slots: HashMap<PlanEdgeId, Slot>,
    slot_limit: usize,
    overflowed: Arc<AtomicBool>,
    stdout: Arc<Mutex<Vec<u8>>>,
    monitors: Vec<PipeMonitor>,
}

impl MemEdges {
    /// Wires every edge of `r`: ring pipes for internal edges, the
    /// given `stdin` bytes for the primary boundary input, a shared
    /// collector for stdout edges, and `fs`-backed files/segments.
    pub fn wire(
        r: &RegionPlan,
        fs: &Arc<dyn Fs>,
        stdin: Vec<u8>,
        pipe_capacity: usize,
    ) -> io::Result<MemEdges> {
        MemEdges::wire_with(r, fs, stdin.into(), Pipes::Ring(pipe_capacity), None)
    }

    /// [`MemEdges::wire`] with the pipe form chosen and an armed
    /// fault: the fault's target edge gets a [`FaultyWriter`] wrapper
    /// (stream faults) or fails to wire at all (the in-process
    /// analogue of a `mkfifo` error). Buffer pipes carry no fault
    /// site: an armed attempt is wired with rings.
    /// The primary boundary input reads `stdin` through a cursor: the
    /// feed is shared with the attempt's retries, never copied.
    /// Boundary endpoints are made here, in edge order, whatever the
    /// pipe form — output files exist (truncated) before any node runs.
    pub fn wire_with(
        r: &RegionPlan,
        fs: &Arc<dyn Fs>,
        stdin: Feed,
        pipes: Pipes,
        fault: Option<&ArmedFault>,
    ) -> io::Result<MemEdges> {
        let stdout: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let mut readers: HashMap<PlanEdgeId, Box<dyn Read + Send>> = HashMap::new();
        let mut writers: HashMap<PlanEdgeId, Box<dyn Write + Send>> = HashMap::new();
        let mut slots: HashMap<PlanEdgeId, Slot> = HashMap::new();
        let mut monitors: Vec<PipeMonitor> = Vec::new();
        let mut stdin = Some(stdin);
        let fault_mode = |e: PlanEdgeId| -> Option<FaultMode> {
            fault.and_then(|a| {
                if a.edge == Some(e) && a.is_stream_fault() {
                    a.writer_mode()
                } else {
                    None
                }
            })
        };
        for (e, edge) in r.edges.iter().enumerate() {
            if let Some(a) = fault {
                if a.kind == FaultKind::MkfifoFail && a.edge == Some(e) {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "injected edge wiring failure",
                    ));
                }
            }
            match &edge.kind {
                EndpointKind::Pipe => match pipes {
                    Pipes::Ring(capacity) => {
                        let (w, rd, m) = pipe_monitored(capacity);
                        monitors.push(m);
                        let w = match fault_mode(e) {
                            Some(mode) => buffered(FaultyWriter::new(w, mode)),
                            None => buffered(w),
                        };
                        writers.insert(e, w);
                        readers.insert(e, Box::new(rd));
                    }
                    Pipes::Buffer { .. } => {
                        slots.insert(e, Slot::default());
                    }
                },
                EndpointKind::StdinPipe { primary } => {
                    // Non-primary boundary inputs read empty streams.
                    let feed = if *primary { stdin.take() } else { None };
                    let reader: Box<dyn Read + Send> = match feed {
                        Some(feed) => Box::new(io::Cursor::new(feed)),
                        None => Box::new(io::empty()),
                    };
                    readers.insert(e, reader);
                }
                EndpointKind::StdoutPipe => {
                    let w = SharedVecWriter(stdout.clone());
                    let w = match fault_mode(e) {
                        Some(mode) => buffered(FaultyWriter::new(w, mode)),
                        None => buffered(w),
                    };
                    writers.insert(e, w);
                }
                EndpointKind::InputFile(path) => {
                    readers.insert(e, fs.open(path)?);
                }
                EndpointKind::OutputFile(path) => {
                    let w = fs.create(path)?;
                    let w = match fault_mode(e) {
                        Some(mode) => buffered(FaultyWriter::new(w, mode)),
                        None => buffered(w),
                    };
                    writers.insert(e, w);
                }
                EndpointKind::InputSegment { path, part, of } => {
                    readers.insert(e, open_segment(fs.as_ref(), path, *part, *of)?);
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
            overflowed: Arc::default(),
            stdout,
            monitors,
        })
    }

    /// Takes the monitor handles of every internal pipe (for the
    /// region-deadline watchdog).
    pub fn take_monitors(&mut self) -> Vec<PipeMonitor> {
        std::mem::take(&mut self.monitors)
    }

    /// Takes the consumer endpoints of `node`'s inputs, in input
    /// order. A buffer pipe reads as a cursor over what its producer
    /// left; untracked edges read as empty streams.
    pub fn take_inputs(&mut self, node: &PlanNode) -> Vec<Box<dyn Read + Send>> {
        node.inputs
            .iter()
            .map(|&e| {
                self.readers.remove(&e).unwrap_or_else(|| {
                    let bytes = self
                        .slots
                        .get(&e)
                        .map(|s| std::mem::take(&mut *slot_lock(s)));
                    Box::new(io::Cursor::new(bytes.unwrap_or_default()))
                })
            })
            .collect()
    }

    /// Takes the producer endpoints of `node`'s outputs, in output
    /// order. Untracked edges discard their bytes.
    pub fn take_outputs(&mut self, node: &PlanNode) -> Vec<Box<dyn Write + Send>> {
        node.outputs
            .iter()
            .map(|&e| -> Box<dyn Write + Send> {
                if let Some(w) = self.writers.remove(&e) {
                    return w;
                }
                match self.slots.get(&e) {
                    Some(slot) => Box::new(BufferWriter {
                        buf: Vec::new(),
                        slot: slot.clone(),
                        limit: self.slot_limit,
                        overflowed: self.overflowed.clone(),
                    }),
                    None => Box::new(io::sink()),
                }
            })
            .collect()
    }

    /// If `node` has one input and one output and both are buffer
    /// pipes, gives the input's buffer to the output edge — what an
    /// identity node comes to once its producer is done — and returns
    /// the number of bytes that changed hands. `None` (and nothing
    /// moved) for a node wired any other way. Whether `node` *is* an
    /// identity is the caller's knowledge.
    pub fn hand_over(&mut self, node: &PlanNode) -> Option<u64> {
        let (&[i], &[o]) = (&node.inputs[..], &node.outputs[..]) else {
            return None;
        };
        let (from, to) = (self.slots.get(&i)?, self.slots.get(&o)?);
        let bytes = std::mem::take(&mut *slot_lock(from));
        let n = bytes.len() as u64;
        *slot_lock(to) = bytes;
        Some(n)
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
    /// every internal pipe edge of `r`.
    pub fn create(r: &RegionPlan, scratch_root: &Path, tag: &str) -> io::Result<FifoDir> {
        FifoDir::create_with(r, scratch_root, tag, None)
    }

    /// [`FifoDir::create`] with an armed fault: a
    /// [`FaultKind::MkfifoFail`] targeting one of the region's pipe
    /// edges makes that edge's `mkfifo` fail. The scratch directory
    /// is removed on any error, so a failed attempt leaks nothing.
    pub fn create_with(
        r: &RegionPlan,
        scratch_root: &Path,
        tag: &str,
        fault: Option<&ArmedFault>,
    ) -> io::Result<FifoDir> {
        let dir = scratch_root.join(format!("pash-fifo-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let mut paths = HashMap::new();
        for e in r.internal_pipes() {
            let injected = fault
                .map(|a| a.kind == FaultKind::MkfifoFail && a.edge == Some(e))
                .unwrap_or(false);
            let p = dir.join(format!("p{e}"));
            let res = if injected {
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected mkfifo failure",
                ))
            } else {
                mkfifo(&p)
            };
            if let Err(err) = res {
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

/// Frame tag for a chunk of the region's stdout.
pub const SOCK_TAG_STDOUT: u64 = 1;
/// Frame tag for an output file (path + full contents).
pub const SOCK_TAG_FILE: u64 = 2;
/// Frame tag for the terminal status frame. A result stream without
/// one is torn, no matter how plausible the bytes so far looked.
pub const SOCK_TAG_STATUS: u64 = 3;
/// Frame tag for a structured execution error (class + message).
pub const SOCK_TAG_ERROR: u64 = 4;

/// One decoded message from a socket result stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SockMsg {
    /// A chunk of the region's stdout, in order.
    Stdout(Vec<u8>),
    /// An output file the region produced: path and full contents.
    File(String, Vec<u8>),
    /// Terminal frame: overall status, per-node exit statuses, and
    /// the number of frames the writer sent before this one (checked
    /// against the reader's own count).
    Status {
        status: i32,
        statuses: Vec<(usize, i32)>,
        frames: u64,
    },
    /// Terminal frame: the worker hit a structured execution error.
    Error { transient: bool, message: String },
}

/// Worker side of a socket edge: streams a region's results to the
/// coordinator in the [`crate::frame`] tagged format. An optional cut
/// offset models a [`FaultKind::TornFrame`] injection — the stream is
/// truncated mid-frame at that byte and the writer reports a broken
/// pipe, exactly what a worker dying mid-send looks like on the wire.
pub struct SockEdgeWriter<W: Write> {
    inner: W,
    /// Bytes remaining before the injected tear, if armed.
    cut: Option<u64>,
    frames: u64,
}

impl<W: Write> SockEdgeWriter<W> {
    pub fn new(inner: W) -> SockEdgeWriter<W> {
        SockEdgeWriter {
            inner,
            cut: None,
            frames: 0,
        }
    }

    /// A writer that tears the stream after `offset` raw bytes.
    pub fn with_cut(inner: W, offset: u64) -> SockEdgeWriter<W> {
        SockEdgeWriter {
            inner,
            cut: Some(offset),
            frames: 0,
        }
    }

    fn write_cut(&mut self, buf: &[u8]) -> io::Result<()> {
        if let Some(left) = &mut self.cut {
            if (*left as usize) < buf.len() {
                let keep = *left as usize;
                self.inner.write_all(&buf[..keep])?;
                let _ = self.inner.flush();
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected torn frame",
                ));
            }
            *left -= buf.len() as u64;
        }
        self.inner.write_all(buf)
    }

    fn emit(&mut self, tag: u64, payload: &[u8]) -> io::Result<()> {
        let mut framed = Vec::with_capacity(crate::frame::HEADER_LEN + payload.len());
        crate::frame::write_frame(&mut framed, tag, payload)?;
        self.write_cut(&framed)?;
        self.frames += 1;
        Ok(())
    }

    /// Streams one chunk of the region's stdout.
    pub fn stdout_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.emit(SOCK_TAG_STDOUT, bytes)
    }

    /// Streams one output file (path + full contents).
    pub fn output_file(&mut self, path: &str, bytes: &[u8]) -> io::Result<()> {
        let mut payload = Vec::with_capacity(4 + path.len() + bytes.len());
        put_str(&mut payload, path);
        payload.extend_from_slice(bytes);
        self.emit(SOCK_TAG_FILE, &payload)
    }

    /// Terminates the stream with the region's statuses and flushes.
    pub fn status(&mut self, status: i32, statuses: &[(usize, i32)]) -> io::Result<()> {
        let mut payload = Vec::with_capacity(16 + statuses.len() * 8);
        put_u64(&mut payload, self.frames);
        put_u32(&mut payload, status as u32);
        put_u32(&mut payload, statuses.len() as u32);
        for (node, st) in statuses {
            put_u32(&mut payload, *node as u32);
            put_u32(&mut payload, *st as u32);
        }
        self.emit(SOCK_TAG_STATUS, &payload)?;
        self.inner.flush()
    }

    /// Terminates the stream with a structured error and flushes.
    pub fn error(&mut self, transient: bool, message: &str) -> io::Result<()> {
        let mut payload = Vec::with_capacity(1 + message.len());
        payload.push(if transient { 0 } else { 1 });
        payload.extend_from_slice(message.as_bytes());
        self.emit(SOCK_TAG_ERROR, &payload)?;
        self.inner.flush()
    }
}

/// Coordinator side of a socket edge: decodes the tagged result
/// stream a worker sends. Truncation, bad magic, and oversized frames
/// surface as `InvalidData` from the underlying [`crate::frame`]
/// reader; a clean EOF before the terminal frame, an unknown tag, or
/// a frame-count mismatch in the status frame are reported the same
/// way — the caller treats all of them as a torn (transient) result.
pub struct SockEdgeReader<R: Read> {
    inner: crate::frame::FrameReader<R>,
    seen: u64,
}

impl<R: Read> SockEdgeReader<R> {
    pub fn new(inner: R) -> SockEdgeReader<R> {
        SockEdgeReader {
            inner: crate::frame::FrameReader::new(inner),
            seen: 0,
        }
    }

    /// The next message, or `Ok(None)` on clean EOF. EOF is only
    /// clean *after* a terminal frame — callers that see `Ok(None)`
    /// before [`SockMsg::Status`]/[`SockMsg::Error`] must treat the
    /// result as torn.
    pub fn next(&mut self) -> io::Result<Option<SockMsg>> {
        let Some((tag, payload)) = self.inner.next_frame()? else {
            return Ok(None);
        };
        let before = self.seen;
        self.seen += 1;
        let mut c = Cursor::new(&payload);
        match tag {
            SOCK_TAG_STDOUT => Ok(Some(SockMsg::Stdout(payload))),
            SOCK_TAG_FILE => {
                let path = std::str::from_utf8(c.slice()?)
                    .map_err(|_| bad_data("file frame path is not utf-8".to_string()))?
                    .to_string();
                Ok(Some(SockMsg::File(path, c.rest().to_vec())))
            }
            SOCK_TAG_STATUS => {
                let frames = c.u64()?;
                if frames != before {
                    return Err(bad_data(format!(
                        "status frame count mismatch: writer sent {frames}, reader saw {before}"
                    )));
                }
                let status = c.u32()? as i32;
                let n = c.u32()? as usize;
                if n > c.remaining() / 8 {
                    return Err(bad_data(format!("status count {n} out of range")));
                }
                let mut statuses = Vec::with_capacity(n);
                for _ in 0..n {
                    statuses.push((c.u32()? as usize, c.u32()? as i32));
                }
                c.done()
                    .map_err(|_| bad_data("status frame length mismatch".to_string()))?;
                Ok(Some(SockMsg::Status {
                    status,
                    statuses,
                    frames,
                }))
            }
            SOCK_TAG_ERROR => {
                let transient = c.u8()? == 0;
                let message = String::from_utf8_lossy(c.rest()).into_owned();
                Ok(Some(SockMsg::Error { transient, message }))
            }
            other => Err(bad_data(format!("unknown result frame tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let fs = MemFs::new();
        fs.add("in.txt", b"b\na\n".to_vec());
        let fs: Arc<dyn Fs> = Arc::new(fs);
        let mut edges = MemEdges::wire(&r, &fs, Vec::new(), 1024).expect("wire");
        // Taking every node's endpoints drains the maps completely.
        for node in &r.nodes {
            let ins = edges.take_inputs(node);
            let outs = edges.take_outputs(node);
            assert_eq!(ins.len(), node.inputs.len());
            assert_eq!(outs.len(), node.outputs.len());
        }
        assert!(edges.readers.is_empty(), "all readers taken");
        assert!(edges.writers.is_empty(), "all writers taken");
    }

    #[test]
    fn buffer_pipes_pass_whole_streams_and_relays_hand_them_over() {
        let r = region("cat in.txt | tr A-Z a-z | sort > out.txt", 2);
        let fs = MemFs::new();
        fs.add("in.txt", b"b\na\n".to_vec());
        let fs: Arc<dyn Fs> = Arc::new(fs);
        let pipes = Pipes::Buffer { limit: 8 };
        let mut edges = MemEdges::wire_with(&r, &fs, Feed::from([]), pipes, None).expect("wire");
        assert!(edges.take_monitors().is_empty(), "no rings, no monitors");
        let relay = r
            .nodes
            .iter()
            .find(|n| matches!(n.op, pash_core::plan::PlanOp::Relay { .. }))
            .expect("relay");
        let upstream = &r.nodes[r.edges[relay.inputs[0]].from.expect("producer")];
        let downstream = &r.nodes[r.edges[relay.outputs[0]].to.expect("consumer")];
        // A node that does not sit between two buffers moves nothing.
        let last = r.nodes.last().expect("output producer");
        assert_eq!(edges.hand_over(last), None);
        // The producer's bytes appear once it is done (dropped)...
        let mut outs = edges.take_outputs(upstream);
        outs[0].write_all(b"abc").expect("write");
        outs[0].write_all(b"de").expect("write");
        drop(outs);
        // ...the relay passes the buffer on without reading it...
        assert_eq!(edges.hand_over(relay), Some(5));
        // ...and the consumer gets it whole.
        let at = downstream
            .inputs
            .iter()
            .position(|e| *e == relay.outputs[0])
            .expect("input position");
        let mut got = Vec::new();
        edges.take_inputs(downstream)[at]
            .read_to_end(&mut got)
            .expect("read");
        assert_eq!(got, b"abcde");
        // A stream past the limit is refused and remembered.
        assert!(!edges.overflowed());
        let mut outs = edges.take_outputs(relay);
        outs[0].write_all(b"12345678").expect("at the limit");
        assert!(outs[0].write_all(b"9").is_err());
        assert!(edges.overflowed());
    }

    #[test]
    fn mem_wiring_missing_input_file_errors() {
        let r = region("cat nope.txt | sort > out.txt", 1);
        let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
        assert!(MemEdges::wire(&r, &fs, Vec::new(), 1024).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn fifo_dir_creates_and_cleans_up() {
        let r = region("cat in.txt | tr A-Z a-z | sort > out.txt", 2);
        let pipes: Vec<_> = r.internal_pipes().collect();
        assert!(!pipes.is_empty());
        let dir;
        {
            let fifos = FifoDir::create(&r, &std::env::temp_dir(), "edge-test").expect("fifos");
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
        let fifos = FifoDir::create(&r, &std::env::temp_dir(), "edge-rt").expect("fifos");
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

    #[test]
    fn sock_edge_round_trips_results() {
        let mut wire = Vec::new();
        {
            let mut w = SockEdgeWriter::new(&mut wire);
            w.stdout_chunk(b"hello ").expect("stdout");
            w.stdout_chunk(b"world\n").expect("stdout");
            w.output_file("out.txt", b"file bytes").expect("file");
            w.status(0, &[(2, 0), (3, 1)]).expect("status");
        }
        let mut r = SockEdgeReader::new(wire.as_slice());
        assert_eq!(r.next().unwrap(), Some(SockMsg::Stdout(b"hello ".to_vec())));
        assert_eq!(
            r.next().unwrap(),
            Some(SockMsg::Stdout(b"world\n".to_vec()))
        );
        assert_eq!(
            r.next().unwrap(),
            Some(SockMsg::File("out.txt".to_string(), b"file bytes".to_vec()))
        );
        assert_eq!(
            r.next().unwrap(),
            Some(SockMsg::Status {
                status: 0,
                statuses: vec![(2, 0), (3, 1)],
                frames: 3,
            })
        );
        assert_eq!(r.next().unwrap(), None, "clean EOF after terminal frame");
    }

    #[test]
    fn sock_edge_detects_torn_and_miscounted_streams() {
        // A cut mid-frame surfaces on the writer as a broken pipe and
        // on the reader as InvalidData — never as a short-but-valid
        // result.
        let mut wire = Vec::new();
        {
            // First frame is 16 header + 16 payload = 32 bytes; a
            // cut at 40 lands mid-way through the status frame.
            let mut w = SockEdgeWriter::with_cut(&mut wire, 40);
            w.stdout_chunk(b"0123456789abcdef").expect("first fits");
            let err = w.status(0, &[]).expect_err("cut fires");
            assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        }
        let mut r = SockEdgeReader::new(wire.as_slice());
        assert!(matches!(r.next(), Ok(Some(SockMsg::Stdout(_)))));
        let err = r.next().expect_err("torn frame detected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // EOF before any terminal frame is visible to the caller as
        // Ok(None) with no Status/Error seen.
        let mut wire = Vec::new();
        SockEdgeWriter::new(&mut wire)
            .stdout_chunk(b"partial")
            .expect("chunk");
        let mut r = SockEdgeReader::new(wire.as_slice());
        assert!(matches!(r.next(), Ok(Some(SockMsg::Stdout(_)))));
        assert!(matches!(r.next(), Ok(None)), "no terminal frame");

        // A status frame whose count disagrees with what the reader
        // saw is rejected: a replayed or spliced stream cannot pass.
        let mut wire = Vec::new();
        {
            let mut w = SockEdgeWriter::new(&mut wire);
            w.frames = 7; // lie about how many frames preceded
            w.status(0, &[]).expect("status");
        }
        let mut r = SockEdgeReader::new(wire.as_slice());
        let err = r.next().expect_err("count mismatch detected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Worker-side structured errors arrive intact.
        let mut wire = Vec::new();
        {
            let mut w = SockEdgeWriter::new(&mut wire);
            w.error(true, "exec node 3 died").expect("error frame");
        }
        let mut r = SockEdgeReader::new(wire.as_slice());
        assert_eq!(
            r.next().unwrap(),
            Some(SockMsg::Error {
                transient: true,
                message: "exec node 3 died".to_string(),
            })
        );
    }
}
