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
//!   thread (see [`crate::exec`] for which schedule an attempt gets).
//!   The primary boundary stdin takes the same form: a ring that a
//!   feeder thread fills from the caller's bytes, or a copy of bytes
//!   that fit one pipe buffer. An eager relay between two internal
//!   pipes is wired, not run, under both forms: its two edges become
//!   one — a [`spill_pipe`] whose writer never blocks, or one shared
//!   buffer — from the relay's producer straight to its consumer, and
//!   the relay's node has nothing left to do;
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

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pash_core::plan::{EndpointKind, PlanEdgeId, PlanNode, PlanNodeId, PlanOp, RegionPlan};
use pash_coreutils::fs::Fs;

use crate::fault::ArmedFault;
use crate::fileseg::open_segment;
use crate::pipe::{pipe_monitored, spill_pipe, PipeMonitor, PipeWriter};

/// Buffer in front of every edge writer: commands emit line-sized
/// writes, and each unbuffered write on a pipe edge is a lock
/// acquisition. Flush happens on drop at node exit.
pub const EDGE_WRITE_BUFFER: usize = 32 * 1024;

/// Wraps an edge writer in the standard edge buffer.
pub fn buffered(w: impl Write + Send + 'static) -> Box<dyn Write + Send> {
    Box::new(io::BufWriter::with_capacity(EDGE_WRITE_BUFFER, w))
}

/// The buffered writer of the stream that `edges` carry (one edge, or
/// a wired relay's edges), wrapped first by `fault` when it targets one
/// of them.
fn edge_writer(
    w: impl Write + Send + 'static,
    edges: &[PlanEdgeId],
    fault: Option<&ArmedFault>,
) -> Box<dyn Write + Send> {
    match fault.filter(|a| a.edge.is_some_and(|e| edges.contains(&e))) {
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

/// The bytes that crossed a wired relay, counted by its stream's writer.
type Tally = Arc<AtomicU64>;

/// A writer that counts what it passes on into a [`Tally`].
struct Tallied<W> {
    inner: W,
    tally: Tally,
}

impl<W: Write> Write for Tallied<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(data)?;
        self.tally.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
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
    /// Counts the bytes left when the slot is a wired relay's.
    tally: Option<Tally>,
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
        if let Some(t) = &self.tally {
            t.fetch_add(self.buf.len() as u64, Ordering::Relaxed);
        }
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
    /// The writing end of the primary stdin ring, for the feeder.
    feeder: Option<PipeWriter>,
}

impl MemEdges {
    /// Wires every edge of `r`: internal edges in the `pipes` form,
    /// the `stdin` feed for the primary boundary input, a shared
    /// collector for stdout edges, and `fs`-backed files/segments.
    /// An armed `fault` is delivered here: its target edge fails to
    /// wire at all (the in-process analogue of a `mkfifo` error) or
    /// gets its writer wrapped ([`ArmedFault::wrap`]). Buffer pipes
    /// carry no fault site: an armed attempt is wired with rings.
    ///
    /// An eager relay between two internal pipes is wired here, not
    /// run (see [`MemEdges::wires_relay`]): the edge into it and the
    /// edge out of it — and on through a chain of such relays — are one
    /// transport from the producer of the first to the consumer of the
    /// last. Under rings that is a [`spill_pipe`], whose writer never
    /// blocks: what the eager relay is for. Under buffers it is one
    /// slot. Each edge of the chain is still wired, as far as
    /// [`ArmedFault::before_wiring`] can tell, and a stream fault on any
    /// of them wraps the one writer.
    ///
    /// The primary boundary input, if it has a consumer, takes the
    /// pipe form too. Under rings it is one more ring, whose writing
    /// end [`MemEdges::take_feeder`] hands to the thread that copies
    /// `stdin` in — the caller's bytes stay borrowed, and a retry reads
    /// them again from byte 0. Under buffers, where the region's whole
    /// input fits one pipe buffer, the consumer reads a copy of
    /// `stdin` through a cursor. The ring is no fault site either: the
    /// fault plane never targets a boundary edge.
    ///
    /// Boundary endpoints are made here, in edge order, whatever the
    /// pipe form — output files exist (truncated) before any node runs.
    pub fn wire(
        r: &RegionPlan,
        fs: &Arc<dyn Fs>,
        stdin: &[u8],
        pipes: Pipes,
        fault: Option<&ArmedFault>,
    ) -> io::Result<MemEdges> {
        let stdout: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let mut readers: HashMap<PlanEdgeId, Box<dyn Read + Send>> = HashMap::new();
        let mut writers: HashMap<PlanEdgeId, Box<dyn Write + Send>> = HashMap::new();
        let mut slots: HashMap<PlanEdgeId, Slot> = HashMap::new();
        let mut monitors: Vec<PipeMonitor> = Vec::new();
        let mut feeder = None;
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
                    match pipes {
                        Pipes::Ring(capacity) if tail == e => {
                            let (w, rd, m) = pipe_monitored(capacity);
                            monitors.push(m);
                            writers.insert(e, edge_writer(w, &chain, fault));
                            readers.insert(e, Box::new(rd));
                        }
                        Pipes::Ring(capacity) => {
                            let (w, rd, m) = spill_pipe(capacity);
                            monitors.push(m);
                            let w = Tallied { inner: w, tally };
                            writers.insert(e, edge_writer(w, &chain, fault));
                            readers.insert(tail, Box::new(rd));
                        }
                        Pipes::Buffer { .. } => {
                            let slot = Slot::default();
                            if tail != e {
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
                    let reader: Box<dyn Read + Send> = match (feed, pipes) {
                        (None, _) => Box::new(io::empty()),
                        (Some(_), Pipes::Ring(capacity)) => {
                            let (w, rd, m) = pipe_monitored(capacity);
                            monitors.push(m);
                            feeder = Some(w);
                            Box::new(rd)
                        }
                        (Some(feed), Pipes::Buffer { .. }) => {
                            Box::new(io::Cursor::new(feed.to_owned()))
                        }
                    };
                    readers.insert(e, reader);
                }
                EndpointKind::StdoutPipe => {
                    let w = SharedVecWriter(stdout.clone());
                    writers.insert(e, edge_writer(w, &[e], fault));
                }
                EndpointKind::InputFile(path) => {
                    readers.insert(e, fs.open(path)?);
                }
                EndpointKind::OutputFile(path) => {
                    writers.insert(e, edge_writer(fs.create(path)?, &[e], fault));
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
            relays,
            slot_tallies,
            overflowed: Arc::default(),
            stdout,
            monitors,
            feeder,
        })
    }

    /// Takes the writing end of the primary stdin ring, if this wiring
    /// made one: whoever holds it must write the feed into it and drop
    /// it, or the consumer never sees EOF. A consumer that stops early
    /// makes the writes fail with `BrokenPipe`, which is not an error.
    pub fn take_feeder(&mut self) -> Option<PipeWriter> {
        self.feeder.take()
    }

    /// Takes the monitor handles of every ring, the stdin ring's
    /// included (for the region-deadline watchdog).
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
                        tally: self.slot_tallies.get(&e).cloned(),
                    }),
                    None => Box::new(io::sink()),
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
        let mut edges = MemEdges::wire(&r, &fs, &[], Pipes::Ring(1024), None).expect("wire");
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

    #[test]
    fn buffer_pipes_pass_whole_streams_through_wired_relays() {
        let r = region("cat in.txt | tr A-Z a-z | sort > out.txt", 2);
        let fs = MemFs::new();
        fs.add("in.txt", b"b\na\n".to_vec());
        let fs: Arc<dyn Fs> = Arc::new(fs);
        let pipes = Pipes::Buffer { limit: 8 };
        let mut edges = MemEdges::wire(&r, &fs, &[], pipes, None).expect("wire");
        assert!(edges.take_monitors().is_empty(), "no rings, no monitors");
        let (relay, upstream, downstream) = relay_between(&r);
        assert!(edges.wires_relay(relay));
        // The producer's bytes appear once it is done (dropped)...
        let mut outs = edges.take_outputs(upstream);
        outs[0].write_all(b"abc").expect("write");
        outs[0].write_all(b"de").expect("write");
        drop(outs);
        // ...counted as having crossed the relay, which never ran...
        assert!(edges.relayed().contains(&(relay, 5)));
        // ...and the consumer gets them whole.
        let at = relayed_input(&r, relay, downstream);
        let mut got = Vec::new();
        edges.take_inputs(downstream)[at]
            .read_to_end(&mut got)
            .expect("read");
        assert_eq!(got, b"abcde");
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
        let mut outs = edges.take_outputs(other);
        outs[0].write_all(b"12345678").expect("at the limit");
        assert!(outs[0].write_all(b"9").is_err());
        assert!(edges.overflowed());
    }

    #[test]
    fn a_wired_relay_is_one_spill_pipe() {
        // Under rings the relay's two edges are one spill pipe: its
        // producer writes far past the ring with no consumer running,
        // and the consumer then reads it all, in order.
        let r = region("cat in.txt | tr A-Z a-z | sort > out.txt", 2);
        let fs = MemFs::new();
        fs.add("in.txt", Vec::new());
        let fs: Arc<dyn Fs> = Arc::new(fs);
        let relays = r
            .nodes
            .iter()
            .filter(|n| matches!(n.op, PlanOp::Relay { .. }))
            .count();
        let mut edges = MemEdges::wire(&r, &fs, &[], Pipes::Ring(16), None).expect("wire");
        let pipes = r.internal_pipes().count();
        assert_eq!(
            edges.take_monitors().len(),
            pipes - relays,
            "one per relay fewer"
        );
        let (relay, upstream, downstream) = relay_between(&r);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut outs = edges.take_outputs(upstream);
        outs[0].write_all(&data).expect("never blocks");
        drop(outs);
        let at = relayed_input(&r, relay, downstream);
        let mut got = Vec::new();
        edges.take_inputs(downstream)[at]
            .read_to_end(&mut got)
            .expect("read");
        assert_eq!(got, data);
        assert!(edges.relayed().contains(&(relay, 100_000)));
        // The relay has no endpoints of its own left to take.
        let node = &r.nodes[relay];
        assert!(!edges.readers.contains_key(&node.inputs[0]));
        assert!(!edges.writers.contains_key(&node.outputs[0]));
    }

    #[test]
    fn primary_stdin_is_a_fed_ring_or_a_copy() {
        let r = region("tr A-Z a-z | sort", 1);
        let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
        let feed = b"B\nA\n".repeat(100);
        // `tr`, whose one input is the stdin edge.
        let consumer = &r.nodes[0];
        assert_eq!(
            r.edges[consumer.inputs[0]].kind,
            EndpointKind::StdinPipe { primary: true }
        );
        // Rings: a feeder writes the borrowed bytes through a ring the
        // watchdog can poison; the consumer reads them all.
        let mut edges = MemEdges::wire(&r, &fs, &feed, Pipes::Ring(16), None).expect("wire");
        let mut w = edges.take_feeder().expect("a feeder for the stdin ring");
        let pipes = r.internal_pipes().count();
        assert!(!r.nodes.iter().any(|n| matches!(n.op, PlanOp::Relay { .. })));
        assert_eq!(edges.take_monitors().len(), pipes + 1, "the stdin ring too");
        let mut got = Vec::new();
        std::thread::scope(|s| {
            // Dropping the writer when done is the consumer's EOF.
            let feed = &feed;
            s.spawn(move || w.write_all(feed).expect("feed"));
            edges.take_inputs(consumer)[0]
                .read_to_end(&mut got)
                .expect("read");
        });
        assert_eq!(got, feed);
        // A consumer that hangs up ends the feeder with a broken pipe.
        let mut edges = MemEdges::wire(&r, &fs, &feed, Pipes::Ring(16), None).expect("wire");
        let mut w = edges.take_feeder().expect("feeder");
        drop(edges.take_inputs(consumer));
        let err = w.write_all(&feed).expect_err("hung up");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // Buffers: no feeder, the consumer reads a copy.
        let pipes = Pipes::Buffer { limit: 1 << 16 };
        let mut edges = MemEdges::wire(&r, &fs, &feed, pipes, None).expect("wire");
        assert!(edges.take_feeder().is_none());
        let mut got = Vec::new();
        edges.take_inputs(consumer)[0]
            .read_to_end(&mut got)
            .expect("read");
        assert_eq!(got, feed);
    }

    #[test]
    fn mem_wiring_missing_input_file_errors() {
        let r = region("cat nope.txt | sort > out.txt", 1);
        let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
        assert!(MemEdges::wire(&r, &fs, &[], Pipes::Ring(1024), None).is_err());
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
