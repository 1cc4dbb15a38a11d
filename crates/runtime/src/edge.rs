//! The runtime I/O layer: turning a region's resolved plan edges into
//! transports.
//!
//! Lowering decides *what* every edge is — internal pipe,
//! boundary stdin/stdout, file, file segment. This module decides
//! *how* those edges move bytes, in the two ways the runtime knows:
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
//!   same artifact the emitted shell script builds with `mkfifo`.
//!
//! (A `remote` region is wired by the worker that runs it, with
//! [`MemEdges`]; what crosses the socket is one request and one reply,
//! see [`crate::remote`].)
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
use crate::fault::ArmedFault;
use crate::fileseg::open_segment;
use crate::pipe::{pipe_monitored, PipeMonitor};

/// Buffer in front of every edge writer: commands emit line-sized
/// writes, and each unbuffered write on a pipe edge is a lock
/// acquisition. Flush happens on drop at node exit.
pub const EDGE_WRITE_BUFFER: usize = 32 * 1024;

/// Wraps an edge writer in the standard edge buffer.
pub fn buffered(w: impl Write + Send + 'static) -> Box<dyn Write + Send> {
    Box::new(io::BufWriter::with_capacity(EDGE_WRITE_BUFFER, w))
}

/// The buffered writer of edge `e`, wrapped first by `fault` when `e`
/// is its target.
fn edge_writer(
    w: impl Write + Send + 'static,
    e: PlanEdgeId,
    fault: Option<&ArmedFault>,
) -> Box<dyn Write + Send> {
    match fault.filter(|a| a.edge == Some(e)) {
        Some(a) => buffered(a.wrap(w, false)),
        None => buffered(w),
    }
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
    /// Wires every edge of `r`: internal edges in the `pipes` form,
    /// the `stdin` feed for the primary boundary input, a shared
    /// collector for stdout edges, and `fs`-backed files/segments.
    /// An armed `fault` is delivered here: its target edge fails to
    /// wire at all (the in-process analogue of a `mkfifo` error) or
    /// gets its writer wrapped ([`ArmedFault::wrap`]). Buffer pipes
    /// carry no fault site: an armed attempt is wired with rings.
    /// The primary boundary input reads `stdin` through a cursor: the
    /// feed is shared with the attempt's retries, never copied.
    /// Boundary endpoints are made here, in edge order, whatever the
    /// pipe form — output files exist (truncated) before any node runs.
    pub fn wire(
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
        for (e, edge) in r.edges.iter().enumerate() {
            if let Some(a) = fault {
                a.before_wiring(e)?;
            }
            match &edge.kind {
                EndpointKind::Pipe => match pipes {
                    Pipes::Ring(capacity) => {
                        let (w, rd, m) = pipe_monitored(capacity);
                        monitors.push(m);
                        writers.insert(e, edge_writer(w, e, fault));
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
                    writers.insert(e, edge_writer(w, e, fault));
                }
                EndpointKind::InputFile(path) => {
                    readers.insert(e, fs.open(path)?);
                }
                EndpointKind::OutputFile(path) => {
                    writers.insert(e, edge_writer(fs.create(path)?, e, fault));
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
        let mut edges =
            MemEdges::wire(&r, &fs, Feed::from([]), Pipes::Ring(1024), None).expect("wire");
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
        let mut edges = MemEdges::wire(&r, &fs, Feed::from([]), pipes, None).expect("wire");
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
        assert!(MemEdges::wire(&r, &fs, Feed::from([]), Pipes::Ring(1024), None).is_err());
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
