//! Remote worker backend: supervised, fault-tolerant plan shipping
//! over Unix sockets.
//!
//! A `pash-worker` is [`service::serve`] — the accept loop, drain and
//! metrics `pashd` runs — with a handler that answers one verb,
//! [`Request::Execute`]. The coordinator puts everything a region
//! attempt needs into that one request: the [`RegionPlan`] itself,
//! encoded field by field in the [`crate::wire`] codec (every string
//! length-prefixed, every count checked before allocation), the input
//! files it reads, and its stdin bytes. The worker answers with one
//! [`Response::Region`]: the attempt's output and the files it wrote,
//! or its failure with a transient/fatal class. A reply is one
//! length-prefixed frame, so a dropped connection or a half-written
//! reply fails the reader's length check — it is never passed off as
//! a short but plausible result. Health probes are `Metrics` round
//! trips, and [`shutdown_worker`] sends `Shutdown`.
//!
//! The robustness contract mirrors the local supervisor's, one rung
//! deeper — the same ladder ([`crate::supervise`]), with the one rung
//! only this runner offers:
//!
//! * a transient remote failure retries on a **different** worker
//!   (per-attempt placement over the healthy set, jittered backoff);
//! * a region deadline tears down the socket — the worker's write of
//!   its reply fails and the connection's thread ends;
//! * exhausted retries degrade first to a clean **local** attempt at
//!   full width ([`RegionRunner::clean_local`]), then to the width-1
//!   **sequential** plan.
//!
//! Injected remote faults may delay a run; they never change its
//! bytes. A region whose request or reply exceeds
//! [`crate::wire::MAX_FRAME`] fails the reader's length check like a
//! torn reply and finishes on the local rung.
//!
//! The worker itself is deliberately dumb: one unsupervised region
//! attempt per request ([`ThreadsRunner`]'s, the one the
//! coordinator's clean-local rung makes too), against an in-memory
//! filesystem populated from the shipped files.
//! All retry policy lives coordinator-side, so there is exactly one
//! recovery ladder to reason about.

use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use pash_core::plan::{
    Arg, EndpointKind, ExecutionPlan, PlanEdge, PlanNode, PlanOp, RegionPlan, SplitMode,
};
use pash_coreutils::fs::{Fs, MemFs};
use pash_coreutils::Registry;

use crate::drive::{drive, Feed, RegionRunner};
use crate::exec::{ExecConfig, ProgramOutput, RegionOutput, ThreadsRunner};
use crate::fault::{ArmedFault, ExecError, FaultKind};
use crate::service::{self, read_response, write_request, Request, Response, ServiceSettings};
use crate::supervise::SupervisorSettings;
use crate::wire::{bad_data, put_bytes, put_str, put_u32, Cursor};

/// One shipped region attempt ([`Request::Execute`]): everything a
/// worker needs, nothing it has to go looking for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecuteRequest {
    /// The region (its `InputSegment` endpoints carry the file-segment
    /// assignments).
    pub region: RegionPlan,
    /// Input files the region reads: path and full contents.
    pub files: Vec<(String, Vec<u8>)>,
    /// Bytes for the region's primary boundary stdin (the run's
    /// shared feed on the coordinator; written from it, not copied).
    pub stdin: Feed,
    /// The fault armed against this attempt, in its one text form
    /// ([`ArmedFault`]). The worker delivers the local kinds inside
    /// its attempt, as a local run would, and a slow worker's sleep
    /// before it; a dropped connection or a torn reply is the
    /// coordinator's to deliver.
    pub fault: Option<String>,
}

impl ExecuteRequest {
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_region(out, &self.region);
        put_bytes(out, &self.stdin);
        match &self.fault {
            None => out.push(0),
            Some(spec) => {
                out.push(1);
                put_str(out, spec);
            }
        }
        put_files(out, &self.files);
    }

    pub(crate) fn decode(c: &mut Cursor<'_>) -> io::Result<ExecuteRequest> {
        let region = region(c)?;
        let stdin = Feed::from(c.slice()?);
        let fault = match c.bool()? {
            false => None,
            true => Some(c.string()?),
        };
        Ok(ExecuteRequest {
            region,
            files: files(c)?,
            stdin,
            fault,
        })
    }
}

/// What a worker answers a [`Request::Execute`] with
/// ([`Response::Region`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionReply {
    /// The attempt ran to the end (its status may still be nonzero —
    /// that is a result, not a failure).
    Done {
        /// What a local attempt would have returned.
        output: RegionOutput,
        /// The output files the region declares, as the attempt left
        /// them.
        files: Vec<(String, Vec<u8>)>,
    },
    /// The attempt failed; `transient` says whether another attempt
    /// may succeed.
    Failed { transient: bool, message: String },
}

impl RegionReply {
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RegionReply::Done { output, files } => {
                out.push(0);
                put_u32(out, output.status as u32);
                put_u32(out, output.statuses.len() as u32);
                for &(node, status) in &output.statuses {
                    put_u32(out, node as u32);
                    put_u32(out, status as u32);
                }
                put_bytes(out, &output.stdout);
                put_files(out, files);
            }
            RegionReply::Failed { transient, message } => {
                out.push(1);
                out.push(*transient as u8);
                put_str(out, message);
            }
        }
    }

    pub(crate) fn decode(c: &mut Cursor<'_>) -> io::Result<RegionReply> {
        Ok(match c.bool()? {
            false => {
                let status = c.u32()? as i32;
                let n = c.count(8)?;
                let statuses = (0..n)
                    .map(|_| Ok((c.u32()? as usize, c.u32()? as i32)))
                    .collect::<io::Result<_>>()?;
                let output = RegionOutput {
                    stdout: c.bytes()?,
                    statuses,
                    status,
                };
                RegionReply::Done {
                    output,
                    files: files(c)?,
                }
            }
            true => RegionReply::Failed {
                transient: c.bool()?,
                message: c.string()?,
            },
        })
    }
}

fn put_files(out: &mut Vec<u8>, files: &[(String, Vec<u8>)]) {
    put_u32(out, files.len() as u32);
    for (path, bytes) in files {
        put_str(out, path);
        put_bytes(out, bytes);
    }
}

fn files(c: &mut Cursor<'_>) -> io::Result<Vec<(String, Vec<u8>)>> {
    // Each file is at least its two length prefixes.
    let n = c.count(8)?;
    (0..n).map(|_| Ok((c.string()?, c.bytes()?))).collect()
}

// ---------------------------------------------------------------------------
// The region codec
// ---------------------------------------------------------------------------

// Node and edge ids ride as `u32`; an optional node id as `id + 1`,
// with 0 for none.

fn put_ids(out: &mut Vec<u8>, ids: &[usize]) {
    put_u32(out, ids.len() as u32);
    for &id in ids {
        put_u32(out, id as u32);
    }
}

fn ids(c: &mut Cursor<'_>) -> io::Result<Vec<usize>> {
    let n = c.count(4)?;
    (0..n).map(|_| Ok(c.u32()? as usize)).collect()
}

fn put_node_ref(out: &mut Vec<u8>, node: Option<usize>) {
    put_u32(out, node.map_or(0, |n| n as u32 + 1));
}

fn node_ref(c: &mut Cursor<'_>) -> io::Result<Option<usize>> {
    Ok(c.u32()?.checked_sub(1).map(|n| n as usize))
}

/// Encodes a region field by field. The decoder ([`region`]) checks
/// only that the bytes are well formed; whether the region they
/// describe can run is [`RegionPlan::validate`]'s question, which the
/// worker's attempt asks first.
fn put_region(out: &mut Vec<u8>, r: &RegionPlan) {
    out.push(r.replayable as u8);
    put_u32(out, r.edges.len() as u32);
    for e in &r.edges {
        match &e.kind {
            EndpointKind::Pipe => out.push(0),
            EndpointKind::StdinPipe { primary } => {
                out.push(1);
                out.push(*primary as u8);
            }
            EndpointKind::StdoutPipe => out.push(2),
            EndpointKind::InputFile(path) => {
                out.push(3);
                put_str(out, path);
            }
            EndpointKind::OutputFile(path) => {
                out.push(4);
                put_str(out, path);
            }
            EndpointKind::InputSegment { path, part, of } => {
                out.push(5);
                put_str(out, path);
                put_u32(out, *part as u32);
                put_u32(out, *of as u32);
            }
            EndpointKind::Detached => out.push(6),
        }
        put_node_ref(out, e.from);
        put_node_ref(out, e.to);
    }
    put_u32(out, r.nodes.len() as u32);
    for n in &r.nodes {
        match &n.op {
            PlanOp::Exec { argv, framed } => {
                out.push(0);
                out.push(*framed as u8);
                put_u32(out, argv.len() as u32);
                for a in argv {
                    match a {
                        Arg::Lit(word) => {
                            out.push(0);
                            put_str(out, word);
                        }
                        Arg::Stream(k) => {
                            out.push(1);
                            put_u32(out, *k as u32);
                        }
                    }
                }
            }
            PlanOp::Cat => out.push(1),
            PlanOp::Split { mode } => {
                out.push(2);
                out.push(match mode {
                    SplitMode::General => 0,
                    SplitMode::Sized => 1,
                    SplitMode::RoundRobin { framed: false } => 2,
                    SplitMode::RoundRobin { framed: true } => 3,
                });
            }
            PlanOp::Relay { blocking } => {
                out.push(3);
                out.push(*blocking as u8);
            }
            PlanOp::Aggregate { argv } => {
                out.push(4);
                put_u32(out, argv.len() as u32);
                for word in argv {
                    put_str(out, word);
                }
            }
        }
        put_ids(out, &n.inputs);
        put_ids(out, &n.outputs);
        put_ids(out, &n.stdin_inputs);
        out.push(n.output_producer as u8);
    }
}

/// Decodes what [`put_region`] wrote.
fn region(c: &mut Cursor<'_>) -> io::Result<RegionPlan> {
    let replayable = c.bool()?;
    // An edge is at least a tag and two node refs; a node at least a
    // tag, three id counts and a flag.
    let n = c.count(9)?;
    let mut edges = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = match c.u8()? {
            0 => EndpointKind::Pipe,
            1 => EndpointKind::StdinPipe { primary: c.bool()? },
            2 => EndpointKind::StdoutPipe,
            3 => EndpointKind::InputFile(c.string()?),
            4 => EndpointKind::OutputFile(c.string()?),
            5 => EndpointKind::InputSegment {
                path: c.string()?,
                part: c.u32()? as usize,
                of: c.u32()? as usize,
            },
            6 => EndpointKind::Detached,
            other => return Err(bad_data(format!("bad edge kind {other}"))),
        };
        edges.push(PlanEdge {
            kind,
            from: node_ref(c)?,
            to: node_ref(c)?,
        });
    }
    let n = c.count(14)?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let op = match c.u8()? {
            0 => {
                let framed = c.bool()?;
                // A word is at least a tag and a `u32`.
                let n = c.count(5)?;
                let argv = (0..n)
                    .map(|_| match c.u8()? {
                        0 => Ok(Arg::Lit(c.string()?)),
                        1 => Ok(Arg::Stream(c.u32()? as usize)),
                        other => Err(bad_data(format!("bad argv word tag {other}"))),
                    })
                    .collect::<io::Result<_>>()?;
                PlanOp::Exec { argv, framed }
            }
            1 => PlanOp::Cat,
            2 => PlanOp::Split {
                mode: match c.u8()? {
                    0 => SplitMode::General,
                    1 => SplitMode::Sized,
                    2 => SplitMode::RoundRobin { framed: false },
                    3 => SplitMode::RoundRobin { framed: true },
                    other => return Err(bad_data(format!("bad split mode {other}"))),
                },
            },
            3 => PlanOp::Relay {
                blocking: c.bool()?,
            },
            4 => {
                let n = c.count(4)?;
                PlanOp::Aggregate {
                    argv: (0..n).map(|_| c.string()).collect::<io::Result<_>>()?,
                }
            }
            other => return Err(bad_data(format!("bad node op {other}"))),
        };
        nodes.push(PlanNode {
            op,
            inputs: ids(c)?,
            outputs: ids(c)?,
            stdin_inputs: ids(c)?,
            output_producer: c.bool()?,
        });
    }
    Ok(RegionPlan {
        nodes,
        edges,
        replayable,
    })
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// The worker serve loop: [`service::serve`] — a thread per
/// connection, so an attempt wedged on a torn-down coordinator socket
/// never blocks a health probe — answering [`Request::Execute`] and
/// refusing `pashd`'s verbs with [`Response::Error`]. Returns once a
/// `Shutdown` request has been acknowledged and the attempts in flight
/// have sent their replies (under [`service::serve`]'s drain
/// deadline); the socket file is removed on the way out.
pub fn serve_worker(listener: UnixListener, socket: &Path) -> io::Result<()> {
    let registry = Registry::standard();
    service::serve(
        listener,
        socket,
        Arc::default(),
        ServiceSettings::default(),
        Arc::new(move |req| match req {
            Request::Execute(req) => Response::Region(execute(req, &registry)),
            _ => Response::Error(
                "pash-worker only executes shipped regions; Run and PutFile are pashd's"
                    .to_string(),
            ),
        }),
    )
}

/// Runs one shipped region attempt.
fn execute(req: ExecuteRequest, registry: &Registry) -> RegionReply {
    let parsed = req.fault.as_deref().map(str::parse::<ArmedFault>);
    let armed = match parsed.transpose() {
        Ok(a) => a,
        Err(e) => {
            return RegionReply::Failed {
                transient: false,
                message: format!("bad fault spec: {e}"),
            }
        }
    };
    if let Some(a) = armed.as_ref().filter(|a| a.kind == FaultKind::SlowWorker) {
        std::thread::sleep(a.stall);
    }
    let fs = Arc::new(MemFs::new());
    for (path, bytes) in req.files {
        fs.add(path, bytes);
    }
    // One unsupervised attempt: retries, deadlines and the fallback
    // ladder are the coordinator's. The attempt validates the region
    // first, so a malformed one is a fatal failure, not a panic.
    let worker = ThreadsRunner {
        registry,
        fs: &(fs.clone() as Arc<dyn Fs>),
        cfg: &ExecConfig::default(),
    };
    match worker.attempt(&req.region, &req.stdin, armed.as_ref(), 0, None) {
        Ok(output) => {
            let mut written = req.region.writes_files();
            written.sort();
            written.dedup();
            let files = written
                .into_iter()
                .filter_map(|path| fs.read(&path).ok().map(|bytes| (path, bytes)))
                .collect();
            RegionReply::Done { output, files }
        }
        Err(e) => RegionReply::Failed {
            transient: e.is_transient(),
            message: e.to_string(),
        },
    }
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

/// One request and its reply on a fresh connection, every socket
/// operation bounded by `timeout`.
fn round_trip(socket: &Path, req: &Request, timeout: Duration) -> io::Result<Response> {
    let mut stream = UnixStream::connect(socket)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write_request(&mut stream, req)?;
    read_response(&mut stream)
}

/// One health probe: a `Metrics` round trip.
fn ping(socket: &Path, timeout: Duration) -> bool {
    matches!(
        round_trip(socket, &Request::Metrics, timeout),
        Ok(Response::Text(_))
    )
}

/// Asks a worker to stop (best effort): `true` once it acknowledged.
/// It then drains the attempts in flight and removes its socket.
pub fn shutdown_worker(socket: &Path) -> bool {
    matches!(
        round_trip(socket, &Request::Shutdown, Duration::from_secs(2)),
        Ok(Response::Ack)
    )
}

/// Ships one region attempt to `socket` and decodes the reply. All
/// failure shapes — connect refused, torn or oversized reply, a peer
/// that does not execute regions, read timeout — map to classified
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
    let req = Request::Execute(ExecuteRequest {
        region: r.clone(),
        files,
        stdin: feed.clone(),
        fault: armed.map(ArmedFault::to_string),
    });
    let cut = |kind| armed.filter(|a| a.kind == kind).map(|a| a.offset);
    let (request_cut, reply_cut) = (cut(FaultKind::ConnDrop), cut(FaultKind::TornFrame));

    let mut stream = UnixStream::connect(socket).map_err(|e| transient("remote connect", e))?;
    stream
        .set_read_timeout(deadline.or(Some(Duration::from_secs(60))))
        .map_err(|e| transient("remote socket", e))?;
    let sent = match request_cut {
        // Injected connection drop: ship a half-written request, then
        // hang up mid-frame. The worker sees a torn frame and closes;
        // we see EOF where the reply should be.
        Some(cut) => {
            let mut framed = Vec::new();
            write_request(&mut framed, &req).and_then(|()| {
                let keep = (cut as usize).min(framed.len() - 1);
                stream.write_all(&framed[..keep])?;
                let _ = stream.shutdown(std::net::Shutdown::Write);
                Ok(())
            })
        }
        None => write_request(&mut stream, &req),
    };
    sent.map_err(|e| transient("remote send", e))?;
    let reply = match reply_cut {
        // Injected torn reply: read no further than the cut, then hang
        // up. The reply's length prefix promises more than arrives.
        Some(cut) => read_response(&mut (&stream).take(cut)),
        None => read_response(&mut stream),
    };
    match reply {
        Ok(Response::Region(RegionReply::Done { output, files })) => {
            // Only a whole reply may touch the coordinator's
            // filesystem.
            for (path, bytes) in files {
                fs.create(&path)
                    .and_then(|mut w| w.write_all(&bytes))
                    .map_err(|e| ExecError::classify("remote output file", e))?;
            }
            Ok(output)
        }
        Ok(Response::Region(RegionReply::Failed { transient, message })) => {
            let e = io::Error::other(message);
            Err(if transient {
                ExecError::transient("remote worker", e)
            } else {
                ExecError::fatal("remote worker", e)
            })
        }
        // A peer that does not execute regions (`pashd` behind a
        // worker's socket): another worker, or the local rung, may.
        Ok(other) => Err(transient(
            "remote reply",
            bad_data(format!("not a region reply: {other:?}")),
        )),
        Err(e)
            if deadline.is_some()
                && matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
        {
            // The region deadline: drop the socket (the worker's reply
            // then has nowhere to go) and report it as a deadline so
            // the supervisor counts the kill.
            Err(transient("region deadline", e))
        }
        Err(e) => Err(transient("remote stream", e)),
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

    fn has_connection(&self) -> bool {
        true
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
    use pash_core::dfg::transform::SplitPolicy;

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
                serve_worker(listener, &s).expect("serve");
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

    /// Sends one request to a worker and reads its reply.
    fn call(socket: &Path, req: &Request) -> Response {
        let mut stream = UnixStream::connect(socket).expect("connect");
        write_request(&mut stream, req).expect("send");
        read_response(&mut stream).expect("well-formed reply")
    }

    /// A region shipped with one small input file.
    fn shipped(region: RegionPlan) -> ExecuteRequest {
        ExecuteRequest {
            region,
            files: vec![("in.txt".to_string(), b"b\na\n".to_vec())],
            stdin: Feed::from([]),
            fault: None,
        }
    }

    fn edge(kind: EndpointKind, from: Option<usize>, to: Option<usize>) -> PlanEdge {
        PlanEdge { kind, from, to }
    }

    #[test]
    fn worker_rejects_a_region_of_impossible_arity_and_keeps_serving() {
        // An `exec` with no output used to reach `run_node`'s
        // `expect("command has one output")` and panic the thread
        // running it; it must come back as a fatal failure.
        let workers = spawn_workers("arity", 1);
        let socket = &workers.sockets[0];
        let sort = |outputs: Vec<usize>| PlanNode {
            op: PlanOp::Exec {
                argv: vec![Arg::Lit("sort".to_string())],
                framed: false,
            },
            inputs: vec![0],
            output_producer: !outputs.is_empty(),
            outputs,
            stdin_inputs: vec![0],
        };
        let input = edge(EndpointKind::InputFile("in.txt".to_string()), None, Some(0));
        let bad = RegionPlan {
            nodes: vec![sort(vec![])],
            edges: vec![input.clone()],
            replayable: true,
        };
        match call(socket, &Request::Execute(shipped(bad))) {
            Response::Region(RegionReply::Failed { transient, message }) => {
                assert!(!transient, "a malformed region is not worth a retry");
                assert!(message.contains("fatal plan"), "{message}");
                assert!(message.contains("exec"), "{message}");
            }
            other => panic!("expected a failed region, got {other:?}"),
        }
        let good = RegionPlan {
            nodes: vec![sort(vec![1])],
            edges: vec![input, edge(EndpointKind::StdoutPipe, Some(0), None)],
            replayable: true,
        };
        match call(socket, &Request::Execute(shipped(good))) {
            Response::Region(RegionReply::Done { output, files }) => {
                assert_eq!(output.stdout, b"a\nb\n");
                assert_eq!(output.status, 0);
                assert!(files.is_empty(), "the region writes no file");
            }
            other => panic!("expected a finished region, got {other:?}"),
        }
    }

    #[test]
    fn worker_rejects_a_malformed_fault_spec_and_keeps_serving() {
        let workers = spawn_workers("spec", 1);
        let socket = &workers.sockets[0];
        let (plan, _) = plan_pair("cat in.txt | sort", 1);
        let region = plan.regions().next().expect("region").clone();
        let with_fault = |spec: Option<&str>| {
            Request::Execute(ExecuteRequest {
                fault: spec.map(String::from),
                ..shipped(region.clone())
            })
        };
        for spec in ["die:4", "kill-worker:0:-:x:20:50", "nonsense"] {
            match call(socket, &with_fault(Some(spec))) {
                Response::Region(RegionReply::Failed { transient, message }) => {
                    assert!(!transient, "{spec}: a bad spec is not worth a retry");
                    assert!(message.contains("bad fault spec"), "{message}");
                }
                other => panic!("{spec}: expected a failed region, got {other:?}"),
            }
        }
        // A well-formed spec and no spec both run the region.
        for spec in [Some("spawn-delay:0:-:1:1:50"), None] {
            match call(socket, &with_fault(spec)) {
                Response::Region(RegionReply::Done { output, .. }) => {
                    assert_eq!(output.stdout, b"a\nb\n", "{spec:?}");
                }
                other => panic!("{spec:?}: expected a finished region, got {other:?}"),
            }
        }
    }

    #[test]
    fn worker_refuses_pashd_verbs_and_keeps_serving() {
        let workers = spawn_workers("verbs", 1);
        let socket = &workers.sockets[0];
        let run = Request::Run(crate::service::RunRequest {
            script: "cat in.txt".to_string(),
            backend: "threads".to_string(),
            width: 1,
            split: SplitPolicy::Off,
            stdin: Vec::new(),
        });
        let put = Request::PutFile {
            path: "in.txt".to_string(),
            bytes: b"x\n".to_vec(),
        };
        for req in [run, put] {
            let mut stream = UnixStream::connect(socket).expect("connect");
            write_request(&mut stream, &req).expect("send");
            match read_response(&mut stream).expect("reply") {
                Response::Error(msg) => assert!(msg.contains("pash-worker"), "{msg}"),
                other => panic!("{req:?} answered with {other:?}"),
            }
            // The same connection still serves the health probe.
            write_request(&mut stream, &Request::Metrics).expect("send");
            match read_response(&mut stream).expect("reply") {
                Response::Text(json) => assert!(json.contains("\"errors\":"), "{json}"),
                other => panic!("Metrics answered with {other:?}"),
            }
        }
    }

    #[test]
    fn execute_request_round_trips() {
        let (wide, _) = plan_pair(SCRIPT, 4);
        let req = Request::Execute(ExecuteRequest {
            region: wide.regions().next().expect("region").clone(),
            files: vec![("in.txt".to_string(), b"abc".to_vec())],
            stdin: b"feed".to_vec().into(),
            fault: Some("kill-worker:3:-:7:20:50".to_string()),
        });
        let mut wire = Vec::new();
        write_request(&mut wire, &req).expect("encode");
        assert_eq!(wire[..4], ((wire.len() - 4) as u32).to_le_bytes());
        let back = crate::service::read_request(&mut io::Cursor::new(wire))
            .expect("decode")
            .expect("one request");
        assert_eq!(back, req);
    }

    /// A region through the `Execute` codec and back.
    fn round_trip(r: &RegionPlan) -> RegionPlan {
        let mut wire = Vec::new();
        shipped(r.clone()).encode(&mut wire);
        let mut c = Cursor::new(&wire);
        let back = ExecuteRequest::decode(&mut c).expect("decode");
        c.done().expect("the whole payload is read");
        back.region
    }

    #[test]
    fn region_codec_round_trips_every_lowered_region() {
        let scripts = [
            (
                "cat in.txt | tr A-Z a-z | sort | uniq -c > o",
                SplitPolicy::Sized,
            ),
            (
                "cat in.txt | tr A-Z a-z | grep x | wc -l > o",
                SplitPolicy::RoundRobin,
            ),
            (
                "x=1\ngrep a f > t && sort t > u || echo no",
                SplitPolicy::General,
            ),
            ("sort words.txt | comm -13 dict.txt -", SplitPolicy::Off),
            (
                "tr A-Z a-z < in.txt | sort > t1 & tr A-Z a-z < in2.txt | sort > t2",
                SplitPolicy::Sized,
            ),
        ];
        for (src, split) in scripts {
            for width in [1, 4, 8] {
                let cfg = PashConfig {
                    width,
                    split,
                    ..Default::default()
                };
                let plan = compile(src, &cfg).expect("compile").plan;
                assert!(plan.region_count() > 0, "{src:?}");
                for r in plan.regions() {
                    let back = round_trip(r);
                    assert_eq!(&back, r, "{src:?} w={width}");
                    assert_eq!(back.fingerprint(), r.fingerprint());
                }
            }
        }
    }

    #[test]
    fn region_codec_carries_hostile_strings_verbatim() {
        let region = RegionPlan {
            nodes: vec![PlanNode {
                op: PlanOp::Exec {
                    argv: vec![
                        Arg::Lit("grep".into()),
                        Arg::Lit("sp ace \"q\" ] [ -> e9\t\\ \u{1}\n'q'".into()),
                        Arg::Stream(0),
                    ],
                    framed: false,
                },
                inputs: vec![0],
                outputs: vec![1],
                stdin_inputs: vec![],
                output_producer: true,
            }],
            edges: vec![
                edge(
                    EndpointKind::InputFile("weird name\n[0/2]".into()),
                    None,
                    Some(0),
                ),
                edge(EndpointKind::StdoutPipe, Some(0), None),
            ],
            replayable: false,
        };
        assert_eq!(round_trip(&region), region);
    }

    #[test]
    fn region_codec_rejects_truncated_and_inflated_input() {
        let cfg = PashConfig {
            width: 4,
            split: SplitPolicy::Sized,
            ..Default::default()
        };
        let plan = compile("cat in.txt | sort | uniq -c > o", &cfg)
            .expect("compile")
            .plan;
        let r = plan.regions().next().expect("region");
        let mut payload = Vec::new();
        shipped(r.clone()).encode(&mut payload);
        // Every strict prefix is missing a field.
        for cut in 0..payload.len() {
            let err = ExecuteRequest::decode(&mut Cursor::new(&payload[..cut]))
                .expect_err("truncated request decoded");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        // Counts the frame cannot hold are refused before allocation.
        let region_with = |edges: u32, nodes: &[u8]| {
            let mut p = vec![5, 1];
            put_u32(&mut p, edges);
            p.extend_from_slice(nodes);
            p
        };
        let mut exec_node = Vec::new();
        put_u32(&mut exec_node, 1);
        exec_node.extend_from_slice(&[0, 0]); // exec, not framed
        put_u32(&mut exec_node, u32::MAX); // argv words
        exec_node.extend_from_slice(&[0; 16]); // room for the node
        let mut no_nodes = Vec::new();
        put_u32(&mut no_nodes, 0);
        let mut no_files = region_with(0, &no_nodes);
        put_bytes(&mut no_files, b""); // stdin
        no_files.push(0); // no fault
        put_u32(&mut no_files, u32::MAX); // files
        let inflated = [
            region_with(u32::MAX, &[]),
            region_with(0, &u32::MAX.to_le_bytes()),
            region_with(0, &exec_node),
            no_files,
            // And an edge kind no encoder writes, with room for it.
            region_with(1, &[9, 0, 0, 0, 0, 0, 0, 0, 0]),
        ];
        for p in inflated {
            let mut frame = Vec::new();
            crate::wire::write_frame(&mut frame, &p).expect("frame");
            let err = crate::service::read_request(&mut io::Cursor::new(frame))
                .expect_err("inflated request decoded");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        // A well-formed region that names an edge it does not have
        // decodes; the worker's attempt validates it before running.
        let mut broken = r.clone();
        broken.nodes[0].inputs.push(broken.edges.len() + 7);
        let back = round_trip(&broken);
        assert!(back.validate().is_err());
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
