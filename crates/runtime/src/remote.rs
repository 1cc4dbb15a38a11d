//! Remote worker backend: supervised, fault-tolerant plan shipping
//! over Unix sockets.
//!
//! The coordinator serializes a region plan ([`RegionPlan::dump`]),
//! the input files it reads, and its stdin bytes into one
//! length-prefixed request (the [`crate::service`] wire discipline),
//! ships it to a `pash-worker`, and reads the result back as a tagged
//! frame stream ([`crate::edge::SockEdgeReader`], the PR 6 framed
//! format) — so a dropped connection, a half-written frame, or a
//! spliced stream is *detected*, never silently accepted as a short
//! but plausible result.
//!
//! The robustness contract mirrors the local supervisor's, one rung
//! deeper — the same ladder ([`crate::supervise`]), with the one rung
//! only this runner offers:
//!
//! * a transient remote failure retries on a **different** worker
//!   (per-attempt placement over the healthy set, jittered backoff);
//! * a region deadline tears down the socket — the worker notices the
//!   broken pipe and reaps its per-connection state;
//! * exhausted retries degrade first to a clean **local** attempt at
//!   full width ([`RegionRunner::clean_local`]), then to the width-1
//!   **sequential** plan.
//!
//! Injected remote faults may delay a run; they never change its
//! bytes.
//!
//! The worker itself is deliberately dumb: one unsupervised region
//! attempt per connection ([`ThreadsRunner`]'s, the one the
//! coordinator's clean-local rung makes too), against an in-memory
//! filesystem populated from the shipped files.
//! All retry policy lives coordinator-side, so there is exactly one
//! recovery ladder to reason about.

use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pash_core::plan::{ExecutionPlan, PlanOp, RegionPlan};
use pash_coreutils::fs::{Fs, MemFs};
use pash_coreutils::Registry;

use crate::drive::{drive, Feed, RegionRunner};
use crate::edge::{SockEdgeReader, SockEdgeWriter, SockMsg};
use crate::exec::{ExecConfig, ProgramOutput, RegionOutput, ThreadsRunner};
use crate::fault::{ArmedFault, CancelToken, ExecError, FaultKind, FaultPlan};
use crate::supervise::SupervisorSettings;
use crate::wire::{
    bad_data, put_bytes, put_str, put_u32, put_u64, read_frame, write_frame, Cursor,
};

/// Request op: execute one region attempt.
pub const OP_EXECUTE: u8 = 1;
/// Request op: health probe.
pub const OP_PING: u8 = 2;
/// Request op: stop accepting connections and exit the serve loop.
pub const OP_SHUTDOWN: u8 = 3;

/// A fault the coordinator armed but the *worker* must deliver (the
/// local kinds — node deaths, stream truncation, stalls — injected
/// inside the worker's attempt so remote runs exercise the same
/// failure surface local runs do). Remote kinds never ride here:
/// conn-drop is delivered by the coordinator's own truncated write,
/// torn-frame by the worker's response cut, slow-worker by a shipped
/// sleep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFault {
    pub kind: String,
    pub node: Option<usize>,
    pub edge: Option<usize>,
    pub offset: u64,
    pub delay_ms: u64,
    pub stall_ms: u64,
}

impl WireFault {
    fn from_armed(a: &ArmedFault) -> WireFault {
        WireFault {
            kind: a.kind.name().to_string(),
            node: a.node,
            edge: a.edge,
            offset: a.offset,
            delay_ms: a.delay.as_millis() as u64,
            stall_ms: a.stall.as_millis() as u64,
        }
    }

    fn to_armed(&self) -> io::Result<ArmedFault> {
        let kind = FaultKind::from_name(&self.kind)
            .ok_or_else(|| bad_data(format!("unknown fault kind {:?}", self.kind)))?;
        Ok(ArmedFault {
            kind,
            node: self.node,
            edge: self.edge,
            offset: self.offset,
            delay: Duration::from_millis(self.delay_ms),
            stall: Duration::from_millis(self.stall_ms),
            cancel: CancelToken::new(),
        })
    }
}

/// One shipped region attempt: everything a worker needs, nothing it
/// has to go looking for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecuteRequest {
    /// The region, serialized with [`RegionPlan::dump`] (carries the
    /// file-segment assignments in its `InputSegment` endpoints).
    pub region_dump: String,
    /// Input files the region reads: path and full contents.
    pub files: Vec<(String, Vec<u8>)>,
    /// Bytes for the region's primary boundary stdin (the run's
    /// shared feed on the coordinator; written from it, not copied).
    pub stdin: Feed,
    /// A local-kind fault the worker must inject into its attempt.
    pub fault: Option<WireFault>,
    /// Sleep this long before executing (slow-worker injection).
    pub sleep_ms: u64,
    /// Tear the response stream after this many raw bytes
    /// (torn-frame injection); `u64::MAX` means no cut.
    pub response_cut: u64,
}

impl ExecuteRequest {
    /// The request as it goes on the wire: length prefix included, so
    /// the payload is built once, in place.
    fn encode_framed(&self) -> Vec<u8> {
        let mut out = vec![0u8; 4];
        out.push(OP_EXECUTE);
        put_str(&mut out, &self.region_dump);
        put_bytes(&mut out, &self.stdin);
        put_u64(&mut out, self.sleep_ms);
        put_u64(&mut out, self.response_cut);
        match &self.fault {
            None => out.push(0),
            Some(f) => {
                out.push(1);
                put_str(&mut out, &f.kind);
                put_u64(&mut out, f.node.map(|n| n as u64 + 1).unwrap_or(0));
                put_u64(&mut out, f.edge.map(|e| e as u64 + 1).unwrap_or(0));
                put_u64(&mut out, f.offset);
                put_u64(&mut out, f.delay_ms);
                put_u64(&mut out, f.stall_ms);
            }
        }
        put_u32(&mut out, self.files.len() as u32);
        for (path, bytes) in &self.files {
            put_str(&mut out, path);
            put_bytes(&mut out, bytes);
        }
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
        out
    }

    fn decode(c: &mut Cursor<'_>) -> io::Result<ExecuteRequest> {
        let region_dump = c.string()?;
        let stdin = Feed::from(c.slice()?);
        let sleep_ms = c.u64()?;
        let response_cut = c.u64()?;
        let fault = match c.u8()? {
            0 => None,
            1 => {
                let kind = c.string()?;
                let node = c.u64()?;
                let edge = c.u64()?;
                Some(WireFault {
                    kind,
                    node: node.checked_sub(1).map(|n| n as usize),
                    edge: edge.checked_sub(1).map(|e| e as usize),
                    offset: c.u64()?,
                    delay_ms: c.u64()?,
                    stall_ms: c.u64()?,
                })
            }
            other => return Err(bad_data(format!("bad fault presence byte {other}"))),
        };
        let nfiles = c.u32()? as usize;
        if nfiles > c.remaining() / 8 {
            return Err(bad_data(format!("inflated file count {nfiles}")));
        }
        let mut files = Vec::with_capacity(nfiles);
        for _ in 0..nfiles {
            let path = c.string()?;
            let bytes = c.bytes()?;
            files.push((path, bytes));
        }
        c.done()?;
        Ok(ExecuteRequest {
            region_dump,
            files,
            stdin,
            fault,
            sleep_ms,
            response_cut,
        })
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// The worker serve loop: one request per connection, one thread per
/// connection (an execute wedged on a torn-down coordinator socket
/// must not block health probes). Returns when a `Shutdown` request
/// arrives or `stop` is raised externally (e.g. by a signal handler).
pub fn serve_worker(
    listener: UnixListener,
    socket: &Path,
    stop: Arc<AtomicBool>,
) -> io::Result<()> {
    let registry = Registry::standard();
    std::thread::scope(|scope| {
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let stop = stop.clone();
            let registry = registry.clone();
            let socket = socket.to_path_buf();
            scope.spawn(move || {
                if serve_worker_conn(stream, &registry) {
                    stop.store(true, Ordering::SeqCst);
                    // Unblock our own accept loop.
                    let _ = UnixStream::connect(&socket);
                }
            });
        }
    });
    let _ = std::fs::remove_file(socket);
    Ok(())
}

/// Handles one connection; returns true if it was a shutdown request.
fn serve_worker_conn(mut stream: UnixStream, registry: &Registry) -> bool {
    // A coordinator that armed conn-drop sends a truncated request and
    // vanishes; never hang on it.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let frame = match read_frame(&mut stream) {
        Ok(Some(f)) => f,
        // Clean EOF (probe-and-close) or a torn/oversized request:
        // drop the connection, keep serving.
        _ => return false,
    };
    let mut c = Cursor::new(&frame);
    match c.u8() {
        Ok(OP_PING) => {
            let _ = write_frame(&mut stream, b"pong");
            false
        }
        Ok(OP_SHUTDOWN) => {
            let _ = write_frame(&mut stream, b"bye");
            true
        }
        Ok(OP_EXECUTE) => {
            match ExecuteRequest::decode(&mut c) {
                Ok(req) => {
                    // The torn-frame cut applies to the *result*
                    // stream; a request that decoded cleanly commits
                    // to answering in the cut (or clean) writer.
                    let mut w = if req.response_cut != u64::MAX {
                        SockEdgeWriter::with_cut(stream, req.response_cut)
                    } else {
                        SockEdgeWriter::new(stream)
                    };
                    run_execute(req, registry, &mut w);
                }
                Err(e) => {
                    let mut w = SockEdgeWriter::new(stream);
                    let _ = w.error(false, &format!("bad execute request: {e}"));
                }
            }
            false
        }
        _ => false,
    }
}

/// Runs one shipped region attempt and streams the result back.
fn run_execute(req: ExecuteRequest, registry: &Registry, w: &mut SockEdgeWriter<UnixStream>) {
    if req.sleep_ms > 0 {
        std::thread::sleep(Duration::from_millis(req.sleep_ms));
    }
    let region = match RegionPlan::parse_dump(&req.region_dump) {
        Ok(r) => r,
        Err(e) => {
            let _ = w.error(false, &format!("bad region dump: {e}"));
            return;
        }
    };
    let armed = match req.fault.as_ref().map(WireFault::to_armed).transpose() {
        Ok(a) => a,
        Err(e) => {
            let _ = w.error(false, &format!("bad fault spec: {e}"));
            return;
        }
    };
    let fs = Arc::new(MemFs::new());
    for (path, bytes) in req.files {
        fs.add(path, bytes);
    }
    // One unsupervised attempt: retries, deadlines and the fallback
    // ladder are the coordinator's.
    let worker = ThreadsRunner {
        registry,
        fs: &(fs.clone() as Arc<dyn Fs>),
        cfg: &ExecConfig::default(),
    };
    match worker.attempt(&region, &req.stdin, armed.as_ref(), 0, None) {
        Ok(out) => {
            let _ = stream_region_output(&region, &out, &fs, w);
        }
        Err(e) => {
            let _ = w.error(e.is_transient(), &format!("{e}"));
        }
    }
}

/// Streams a finished attempt: stdout chunks, the output files the
/// region declared, then the terminal status frame.
fn stream_region_output(
    region: &RegionPlan,
    out: &RegionOutput,
    fs: &MemFs,
    w: &mut SockEdgeWriter<UnixStream>,
) -> io::Result<()> {
    for chunk in out.stdout.chunks(64 * 1024).filter(|c| !c.is_empty()) {
        w.stdout_chunk(chunk)?;
    }
    let mut written = region.writes_files();
    written.sort();
    written.dedup();
    for path in written {
        if let Ok(bytes) = fs.read(&path) {
            w.output_file(&path, &bytes)?;
        }
    }
    w.status(out.status, &out.statuses)
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// The coordinator's view of the worker fleet: socket paths plus the
/// latest health verdicts. Placement is per-attempt — attempt `i` of a
/// region with fingerprint `fp` lands on healthy worker
/// `(fp + i) mod n` — so a retry after a transient remote failure
/// moves to a *different* worker whenever more than one is healthy.
pub struct WorkerPool {
    sockets: Vec<PathBuf>,
    healthy: Vec<bool>,
}

/// Socket I/O timeout for health probes.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

impl WorkerPool {
    pub fn new(sockets: Vec<PathBuf>) -> WorkerPool {
        let healthy = vec![true; sockets.len()];
        WorkerPool { sockets, healthy }
    }

    /// Pings every worker, refreshes the health map, and returns how
    /// many answered.
    pub fn probe(&mut self) -> usize {
        for (i, s) in self.sockets.iter().enumerate() {
            self.healthy[i] = ping(s, PROBE_TIMEOUT);
        }
        self.healthy.iter().filter(|h| **h).count()
    }

    /// Number of workers currently believed healthy.
    pub fn healthy_count(&self) -> usize {
        self.healthy.iter().filter(|h| **h).count()
    }

    /// The healthy worker for attempt `attempt` of a region with
    /// fingerprint `fp`, with its pool index (for reroute
    /// accounting). `None` when no worker is healthy.
    pub fn pick(&self, fp: u64, attempt: u32) -> Option<(usize, &Path)> {
        let healthy: Vec<usize> = (0..self.sockets.len())
            .filter(|&i| self.healthy[i])
            .collect();
        if healthy.is_empty() {
            return None;
        }
        let at = ((fp.wrapping_add(attempt as u64)) % healthy.len() as u64) as usize;
        let idx = healthy[at];
        Some((idx, &self.sockets[idx]))
    }

    /// Marks a worker unhealthy after a failed attempt, so the next
    /// placement skips it until the next probe.
    pub fn mark_down(&mut self, idx: usize) {
        if let Some(h) = self.healthy.get_mut(idx) {
            *h = false;
        }
    }
}

/// One health probe: connect, ping, expect a pong.
fn ping(socket: &Path, timeout: Duration) -> bool {
    let Ok(stream) = UnixStream::connect(socket) else {
        return false;
    };
    let mut stream = stream;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    if write_frame(&mut stream, &[OP_PING]).is_err() {
        return false;
    }
    matches!(read_frame(&mut stream), Ok(Some(f)) if f == b"pong")
}

/// Sends a shutdown request to a worker (best effort).
pub fn shutdown_worker(socket: &Path) -> bool {
    let Ok(mut stream) = UnixStream::connect(socket) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    if write_frame(&mut stream, &[OP_SHUTDOWN]).is_err() {
        return false;
    }
    matches!(read_frame(&mut stream), Ok(Some(f)) if f == b"bye")
}

/// Ships one region attempt to `socket` and decodes the result
/// stream. All failure shapes — connect refused, torn stream, corrupt
/// frame, missing terminal frame, read timeout — map to classified
/// [`ExecError`]s; a read timeout under a region deadline is reported
/// with the supervisor's deadline context so the ladder counts it as
/// a deadline kill.
fn execute_remote(
    socket: &Path,
    r: &RegionPlan,
    armed: Option<&ArmedFault>,
    feed: &Feed,
    fs: &Arc<dyn Fs>,
    deadline: Option<Duration>,
) -> Result<RegionOutput, ExecError> {
    let transient = |ctx: &'static str, e: io::Error| -> ExecError { ExecError::transient(ctx, e) };
    // Gather the inputs the region reads. A file the coordinator
    // cannot open is simply not shipped: the worker's edge wiring then
    // fails exactly like a local attempt on the same filesystem would.
    let mut paths = r.reads_files();
    // Commands may also open literal argv operands by path (e.g. an
    // unsplittable `grep pat in.txt` keeps the file as a plain word,
    // not a stream edge). Ship every literal the coordinator can
    // open; command names and flags fail the open below and drop out.
    let mut data_driven = false;
    for n in &r.nodes {
        if let PlanOp::Exec { argv, .. } = &n.op {
            data_driven |= argv.first().and_then(|a| a.as_lit()) == Some("xargs");
            paths.extend(
                argv.iter()
                    .skip(1)
                    .filter_map(|a| a.as_lit().map(String::from)),
            );
        }
    }
    if data_driven {
        // `xargs` opens paths named in its *input data*, which no
        // static scan of the plan can see — ship the coordinator's
        // whole filesystem image rather than guess.
        if let Ok(all) = fs.list("") {
            paths.extend(all);
        }
    }
    paths.sort();
    paths.dedup();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        if let Ok(mut h) = fs.open(&p) {
            let mut bytes = Vec::new();
            if h.read_to_end(&mut bytes).is_ok() {
                files.push((p, bytes));
            }
        }
    }
    let mut req = ExecuteRequest {
        region_dump: r.dump(),
        files,
        stdin: feed.clone(),
        fault: None,
        sleep_ms: 0,
        response_cut: u64::MAX,
    };
    let mut request_cut = None;
    match armed {
        Some(a) if a.kind == FaultKind::ConnDrop => request_cut = Some(a.offset),
        Some(a) if a.kind == FaultKind::SlowWorker => req.sleep_ms = a.stall.as_millis() as u64,
        Some(a) if a.kind == FaultKind::TornFrame => req.response_cut = a.offset,
        Some(a) => req.fault = Some(WireFault::from_armed(a)),
        None => {}
    }

    let mut stream = UnixStream::connect(socket).map_err(|e| transient("remote connect", e))?;
    stream
        .set_read_timeout(deadline.or(Some(Duration::from_secs(60))))
        .map_err(|e| transient("remote socket", e))?;
    let framed = req.encode_framed();
    match request_cut {
        Some(cut) => {
            // Injected connection drop: ship a half-written request,
            // then hang up mid-frame. The worker sees a torn length-
            // prefixed frame; we see EOF before any terminal frame.
            let keep = (cut as usize).min(framed.len().saturating_sub(1));
            stream
                .write_all(&framed[..keep])
                .map_err(|e| transient("remote send", e))?;
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
        None => {
            stream
                .write_all(&framed)
                .map_err(|e| transient("remote send", e))?;
        }
    }

    let mut reader = SockEdgeReader::new(stream);
    let mut stdout = Vec::new();
    let mut out_files: Vec<(String, Vec<u8>)> = Vec::new();
    loop {
        match reader.next() {
            Ok(Some(SockMsg::Stdout(chunk))) => stdout.extend_from_slice(&chunk),
            Ok(Some(SockMsg::File(path, bytes))) => out_files.push((path, bytes)),
            Ok(Some(SockMsg::Status {
                status, statuses, ..
            })) => {
                // Only a stream that reached its terminal frame may
                // touch the coordinator's filesystem.
                for (path, bytes) in out_files {
                    let mut w = fs
                        .create(&path)
                        .map_err(|e| ExecError::classify("remote output file", e))?;
                    w.write_all(&bytes)
                        .map_err(|e| ExecError::classify("remote output file", e))?;
                }
                return Ok(RegionOutput {
                    stdout,
                    statuses,
                    status,
                });
            }
            Ok(Some(SockMsg::Error { transient, message })) => {
                let e = io::Error::other(message);
                return Err(if transient {
                    ExecError::transient("remote worker", e)
                } else {
                    ExecError::fatal("remote worker", e)
                });
            }
            Ok(None) => {
                return Err(transient(
                    "remote stream",
                    io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "result stream ended before its terminal frame",
                    ),
                ));
            }
            Err(e)
                if deadline.is_some()
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                // The region deadline: drop the socket (tearing down
                // the worker's attempt) and report it as a deadline so
                // the supervisor counts the kill.
                return Err(transient("region deadline", e));
            }
            Err(e) => return Err(transient("remote stream", e)),
        }
    }
}

/// The `remote` backend as a [`RegionRunner`]: one attempt ships the
/// region to the worker placed for that attempt index; the clean-local
/// rung is the `threads` runner on the coordinator.
pub struct RemoteRunner<'a> {
    /// The worker fleet attempts are placed over.
    pub pool: &'a WorkerPool,
    /// The coordinator's own runner: the rung below the workers.
    pub local: ThreadsRunner<'a>,
}

impl RegionRunner for RemoteRunner<'_> {
    fn attempt(
        &self,
        r: &RegionPlan,
        feed: &Feed,
        fault: Option<&ArmedFault>,
        attempt_no: u32,
        supervised: Option<&SupervisorSettings>,
    ) -> Result<RegionOutput, ExecError> {
        let fp = r.fingerprint();
        let Some((idx, socket)) = self.pool.pick(fp, attempt_no) else {
            return Err(ExecError::fatal(
                "remote placement",
                io::Error::new(io::ErrorKind::NotConnected, "no healthy workers"),
            ));
        };
        // Placement is a function of the attempt index alone, so where
        // the failed attempt ran is known without remembering it.
        let rerouted = attempt_no > 0
            && self
                .pool
                .pick(fp, attempt_no - 1)
                .is_some_and(|(prev, _)| prev != idx);
        let deadline = supervised.and_then(|s| s.region_deadline);
        let res = execute_remote(socket, r, fault, feed, self.local.fs, deadline);
        if let Some(sup) = supervised {
            if rerouted {
                sup.note_reroute();
            }
            if res.as_ref().is_err_and(|e| e.is_deadline()) {
                sup.note_deadline_kill();
            }
        }
        res
    }

    fn arm(&self, plan: &FaultPlan, r: &RegionPlan) -> Option<ArmedFault> {
        plan.arm_remote(r)
    }

    fn clean_local(&self) -> Option<&dyn RegionRunner> {
        Some(&self.local)
    }
}

/// Runs a whole program through the remote backend: region steps ship
/// to workers under the recovery ladder; everything else a program run
/// means is the driver's ([`drive`]).
///
/// `fallback` is the same program compiled at width 1 (the sequential
/// reference).
pub fn run_program_remote(
    plan: &ExecutionPlan,
    fallback: Option<&ExecutionPlan>,
    registry: &Registry,
    fs: Arc<dyn Fs>,
    stdin: impl Into<Feed>,
    cfg: &ExecConfig,
    pool: &WorkerPool,
) -> io::Result<ProgramOutput> {
    let runner = RemoteRunner {
        pool,
        local: ThreadsRunner {
            registry,
            fs: &fs,
            cfg,
        },
    };
    drive(
        plan,
        fallback,
        &runner,
        &cfg.supervisor,
        cfg.max_inflight,
        stdin.into(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::supervise::SupervisorSettings;
    use pash_core::compile::{compile, PashConfig};

    fn plan_pair(src: &str, width: usize) -> (ExecutionPlan, ExecutionPlan) {
        // Round-robin split so framed edges exist: the stream fault
        // kinds (truncate/corrupt) need an eligible site.
        let wide = compile(src, &PashConfig::round_robin(width))
            .expect("compile wide")
            .plan;
        let seq = compile(src, &PashConfig::round_robin(1))
            .expect("compile seq")
            .plan;
        (wide, seq)
    }

    fn corpus_fs() -> Arc<MemFs> {
        let fs = Arc::new(MemFs::new());
        let mut text = String::new();
        for i in 0..400 {
            text.push_str(&format!("line {} word{}\n", i % 13, i % 7));
        }
        fs.add("in.txt", text.into_bytes());
        fs
    }

    struct Workers {
        sockets: Vec<PathBuf>,
        handles: Vec<std::thread::JoinHandle<()>>,
    }

    fn spawn_workers(tag: &str, n: usize) -> Workers {
        let dir = std::env::temp_dir();
        let mut sockets = Vec::new();
        let mut handles = Vec::new();
        for i in 0..n {
            let socket = dir.join(format!("pash-worker-test-{tag}-{}-{i}", std::process::id()));
            let _ = std::fs::remove_file(&socket);
            let listener = crate::service::bind(&socket).expect("bind worker");
            let s = socket.clone();
            handles.push(std::thread::spawn(move || {
                serve_worker(listener, &s, Arc::new(AtomicBool::new(false))).expect("serve");
            }));
            sockets.push(socket);
        }
        Workers { sockets, handles }
    }

    impl Drop for Workers {
        fn drop(&mut self) {
            for s in &self.sockets {
                shutdown_worker(s);
            }
            for h in self.handles.drain(..) {
                let _ = h.join();
            }
        }
    }

    const SCRIPT: &str = "cat in.txt | tr a-z A-Z | sort | uniq -c > out.txt ; \
                          cat in.txt | grep line | wc -l";

    fn local_reference(fs: &Arc<MemFs>) -> (Vec<u8>, i32, Vec<u8>) {
        let (_, seq) = plan_pair(SCRIPT, 1);
        let snap: Arc<dyn Fs> = Arc::new(fs.snapshot());
        let out = crate::exec::run_program(
            &seq,
            &Registry::standard(),
            snap.clone(),
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("local run");
        let file = snap
            .open("out.txt")
            .and_then(|mut h| {
                let mut b = Vec::new();
                h.read_to_end(&mut b)?;
                Ok(b)
            })
            .expect("out.txt");
        (out.stdout, out.status, file)
    }

    #[test]
    fn remote_program_matches_local_reference() {
        let workers = spawn_workers("basic", 2);
        let fs = corpus_fs();
        let (want_stdout, want_status, want_file) = local_reference(&fs);
        let (wide, seq) = plan_pair(SCRIPT, 4);
        let mut pool = WorkerPool::new(workers.sockets.clone());
        assert_eq!(pool.probe(), 2, "both workers answer pings");
        let run_fs: Arc<dyn Fs> = fs.clone();
        let out = run_program_remote(
            &wide,
            Some(&seq),
            &Registry::standard(),
            run_fs,
            Vec::new(),
            &ExecConfig::default(),
            &pool,
        )
        .expect("remote run");
        assert_eq!(out.stdout, want_stdout);
        assert_eq!(out.status, want_status);
        assert_eq!(fs.read("out.txt").expect("out.txt"), want_file);
    }

    #[test]
    fn remote_faults_delay_but_never_change_bytes() {
        let workers = spawn_workers("faults", 2);
        let base_fs = corpus_fs();
        let (want_stdout, want_status, want_file) = local_reference(&base_fs);
        let (wide, seq) = plan_pair(SCRIPT, 4);
        let mut pool = WorkerPool::new(workers.sockets.clone());
        assert_eq!(pool.probe(), 2);
        for kind in FaultKind::ALL {
            let sup = SupervisorSettings {
                fault: Some(FaultPlan::new(kind, 0xC0FFEE).budget(1)),
                fallback: true,
                ..Default::default()
            };
            let cfg = ExecConfig {
                supervisor: sup,
                ..Default::default()
            };
            let fs = Arc::new(base_fs.snapshot());
            let run_fs: Arc<dyn Fs> = fs.clone();
            let out = run_program_remote(
                &wide,
                Some(&seq),
                &Registry::standard(),
                run_fs,
                Vec::new(),
                &cfg,
                &pool,
            )
            .unwrap_or_else(|e| panic!("remote run under {}: {e}", kind.name()));
            assert_eq!(out.stdout, want_stdout, "stdout under {}", kind.name());
            assert_eq!(out.status, want_status, "status under {}", kind.name());
            assert_eq!(
                fs.read("out.txt").expect("out.txt"),
                want_file,
                "out.txt under {}",
                kind.name()
            );
            assert!(
                cfg.supervisor.counters.injected() >= 1,
                "{} armed at least once",
                kind.name()
            );
        }
    }

    #[test]
    fn remote_retry_reroutes_to_another_worker() {
        let workers = spawn_workers("reroute", 2);
        let fs = corpus_fs();
        let (want_stdout, ..) = local_reference(&fs);
        let (wide, seq) = plan_pair(SCRIPT, 4);
        let mut pool = WorkerPool::new(workers.sockets.clone());
        assert_eq!(pool.probe(), 2);
        let sup = SupervisorSettings {
            fault: Some(FaultPlan::new(FaultKind::ConnDrop, 7).budget(1)),
            fallback: true,
            ..Default::default()
        };
        let cfg = ExecConfig {
            supervisor: sup,
            ..Default::default()
        };
        let run_fs: Arc<dyn Fs> = Arc::new(fs.snapshot());
        let out = run_program_remote(
            &wide,
            Some(&seq),
            &Registry::standard(),
            run_fs,
            Vec::new(),
            &cfg,
            &pool,
        )
        .expect("remote run");
        assert_eq!(out.stdout, want_stdout);
        let c = &cfg.supervisor.counters;
        assert!(c.retries() >= 1, "conn drop forced a retry");
        assert!(
            c.reroutes() >= 1,
            "the retry moved to the other worker (reroutes={})",
            c.reroutes()
        );
    }

    #[test]
    fn deadline_tears_down_slow_worker_and_recovers() {
        let workers = spawn_workers("deadline", 2);
        let fs = corpus_fs();
        let (want_stdout, ..) = local_reference(&fs);
        let (wide, seq) = plan_pair(SCRIPT, 4);
        let mut pool = WorkerPool::new(workers.sockets.clone());
        assert_eq!(pool.probe(), 2);
        let sup = SupervisorSettings {
            fault: Some(
                FaultPlan::new(FaultKind::SlowWorker, 3)
                    .budget(1)
                    .stall(Duration::from_millis(1000)),
            ),
            region_deadline: Some(Duration::from_millis(150)),
            fallback: true,
            ..Default::default()
        };
        let cfg = ExecConfig {
            supervisor: sup,
            ..Default::default()
        };
        let run_fs: Arc<dyn Fs> = Arc::new(fs.snapshot());
        let out = run_program_remote(
            &wide,
            Some(&seq),
            &Registry::standard(),
            run_fs,
            Vec::new(),
            &cfg,
            &pool,
        )
        .expect("remote run");
        assert_eq!(out.stdout, want_stdout);
        assert!(
            cfg.supervisor.counters.deadline_kills() >= 1,
            "the stalled attempt was killed by the region deadline"
        );
    }

    #[test]
    fn dead_pool_degrades_to_local_then_matches() {
        // No worker ever listens: every remote attempt fails to
        // connect, the ladder degrades to the clean local rung, and
        // the output still matches the sequential reference.
        let fs = corpus_fs();
        let (want_stdout, want_status, want_file) = local_reference(&fs);
        let (wide, seq) = plan_pair(SCRIPT, 4);
        let pool = WorkerPool::new(vec![std::env::temp_dir().join("pash-worker-nobody")]);
        let sup = SupervisorSettings {
            fallback: true,
            ..Default::default()
        };
        let cfg = ExecConfig {
            supervisor: sup,
            ..Default::default()
        };
        let run_fs: Arc<dyn Fs> = fs.clone();
        let out = run_program_remote(
            &wide,
            Some(&seq),
            &Registry::standard(),
            run_fs,
            Vec::new(),
            &cfg,
            &pool,
        )
        .expect("degraded run");
        assert_eq!(out.stdout, want_stdout);
        assert_eq!(out.status, want_status);
        assert_eq!(fs.read("out.txt").expect("out.txt"), want_file);
        assert!(
            cfg.supervisor.counters.local_fallbacks() >= 1,
            "the local rung fired"
        );
    }

    #[test]
    fn worker_rejects_a_region_of_impossible_arity_and_keeps_serving() {
        // An `exec` with no output used to reach `run_node`'s
        // `expect("command has one output")` and panic the thread
        // running it; it must come back as a fatal error frame.
        let workers = spawn_workers("arity", 1);
        let socket = &workers.sockets[0];
        let send = |region_dump: &str| {
            let req = ExecuteRequest {
                region_dump: region_dump.to_string(),
                files: vec![("in.txt".to_string(), b"b\na\n".to_vec())],
                stdin: Feed::from([]),
                fault: None,
                sleep_ms: 0,
                response_cut: u64::MAX,
            };
            let mut stream = UnixStream::connect(socket).expect("connect");
            stream.write_all(&req.encode_framed()).expect("send");
            let mut reader = SockEdgeReader::new(stream);
            let mut msgs = Vec::new();
            while let Some(m) = reader.next().expect("well-formed reply") {
                msgs.push(m);
            }
            msgs
        };
        let bad = "region nodes=1 edges=1 replayable=true\n  e0: in:\"in.txt\" ->0\n  \
                   n0: exec \"sort\" [e0] stdin=[0] -> []\n";
        match &send(bad)[..] {
            [SockMsg::Error { transient, message }] => {
                assert!(!transient, "a malformed region is not worth a retry");
                assert!(message.contains("bad region dump"), "{message}");
                assert!(message.contains("exec"), "{message}");
            }
            other => panic!("expected one error frame, got {other:?}"),
        }
        let good = "region nodes=1 edges=2 replayable=true\n  e0: in:\"in.txt\" ->0\n  \
                    e1: stdout 0->\n  n0: exec \"sort\" [e0] stdin=[0] -> [e1] producer\n";
        match &send(good)[..] {
            [SockMsg::Stdout(bytes), SockMsg::Status { status: 0, .. }] => {
                assert_eq!(bytes, b"a\nb\n")
            }
            other => panic!("expected stdout + status, got {other:?}"),
        }
    }

    #[test]
    fn execute_request_round_trips() {
        let req = ExecuteRequest {
            region_dump: "region nodes=0 edges=0 replayable=true\n".to_string(),
            files: vec![("in.txt".to_string(), b"abc".to_vec())],
            stdin: b"feed".to_vec().into(),
            fault: Some(WireFault {
                kind: "exec-die".to_string(),
                node: Some(3),
                edge: None,
                offset: 7,
                delay_ms: 20,
                stall_ms: 50,
            }),
            sleep_ms: 5,
            response_cut: u64::MAX,
        };
        let enc = req.encode_framed();
        assert_eq!(enc[..4], ((enc.len() - 4) as u32).to_le_bytes());
        let mut c = Cursor::new(&enc[4..]);
        assert_eq!(c.u8().unwrap(), OP_EXECUTE);
        let back = ExecuteRequest::decode(&mut c).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn worker_pool_places_per_attempt_and_skips_unhealthy() {
        let mut pool = WorkerPool::new(vec![
            PathBuf::from("/tmp/w0"),
            PathBuf::from("/tmp/w1"),
            PathBuf::from("/tmp/w2"),
        ]);
        let (a0, _) = pool.pick(100, 0).unwrap();
        let (a1, _) = pool.pick(100, 1).unwrap();
        assert_ne!(a0, a1, "consecutive attempts land on different workers");
        pool.mark_down(a1);
        assert_eq!(pool.healthy_count(), 2);
        let (b1, _) = pool.pick(100, 1).unwrap();
        assert_ne!(b1, a1, "downed worker is skipped");
        pool.mark_down(0);
        pool.mark_down(1);
        pool.mark_down(2);
        assert!(pool.pick(100, 0).is_none(), "empty pool yields no pick");
    }
}
