//! The in-process plan executor (the `threads` backend).
//!
//! Runs a compiled [`ExecutionPlan`] in-process. This engine is the
//! correctness vehicle of the reproduction — the parallel output must
//! be byte-identical to the sequential output, which the integration
//! suite checks for every benchmark script.
//!
//! A plan node is a function from its input streams to its output
//! streams, and a region is an acyclic graph of them stored in
//! topological order. Any order of evaluation that respects the edges
//! computes the same bytes, so *how* a region's nodes are scheduled is
//! a cost decision, made once per attempt by [`fits_one_buffer`] from
//! what the runner can see of the region's input:
//!
//! * **thread-per-node** — one scoped OS thread per plan node, bounded
//!   edges: nodes overlap, a consumer can hang up on its producer
//!   (SIGPIPE-style), memory is bounded by the edges. What a stream
//!   larger than a pipe buffer needs. An edge between two framed nodes
//!   (framed `r_split` or command, into a framed command or a reorder
//!   aggregator) is a queue of a few owned `r_split` frames
//!   ([`crate::pipe::frame_queue`]): a frame's buffer moves from node
//!   to node and each framed command reads it in place. Every other
//!   edge, and every edge of an attempt with a fault armed, is a byte
//!   [`crate::pipe`] ring.
//! * **run-to-completion** — every node in plan order on the calling
//!   thread, each pipe edge a buffer the producer leaves for the
//!   consumer. No thread, no ring, no condvar: for a region whose whole
//!   input fits one pipe buffer there is no steady state for
//!   concurrent nodes to pipeline, and spawning them costs many times
//!   the work (`short-scripts` in `bench/`). Frames cross these
//!   buffers in their byte form.
//!
//! Under either schedule the run's stdin is read in place: its
//! consumer reads the caller's bytes through a borrowed reader, with
//! no copy, no ring and no thread to feed one.
//!
//! Under either schedule an eager relay between two pipe edges is not
//! a node that runs but part of its edge ([`MemEdges::wire`]): one
//! unbounded spill pipe or frame queue, or one buffer, from the relay's
//! producer to its consumer. The relay exists to take what its
//! producer writes while the consumer is not reading yet (§5.2), and
//! an in-process edge can do that itself, with no thread, no channel
//! and no extra copy. Such a relay has status 0 and a profile row of
//! the bytes that crossed it, with no busy time. A blocking relay still
//! runs, through [`run_node`].
//!
//! The gate says "run to completion" when the input (files, file
//! segments, stdin; a file that is not there counts as empty) is at
//! most `ExecConfig::pipe_capacity` bytes *and* no fault is armed and
//! every node has an input edge; [`fits_one_buffer`] has the reasons.
//! Both of them
//! are worth knowing here. An armed fault always picks thread-per-node
//! because that is where the fault sites live (node spawn, edge
//! wiring, the ring writer), and byte rings on every edge: injection
//! keeps firing every path it fired before. A generator picks
//! thread-per-node because nothing but a consumer closing the pipe
//! bounds it — and since the gate only sees inputs, a
//! run-to-completion attempt whose *streams* outgrow a few buffers
//! abandons itself, unobserved, and the region runs thread-per-node
//! after all. Both schedules share everything that is
//! not scheduling: [`RegionPlan::validate`] first, the one interpreter
//! [`run_node`], `MemEdges` wiring of the boundary endpoints, the
//! status fold, the profile record.
//!
//! A node's files arrive by name and [`run_node`] opens them
//! ([`open_files`]): one that cannot be opened ends that node with a
//! status, as in the shell, never the attempt.
//!
//! The executor never inspects the compiler's DFG: everything it
//! needs (edge endpoint kinds, stream-argument roles, stdin routing,
//! output producers, guard structure) arrives resolved in the plan.
//! A command's streamed operand ([`Arg::Stream`]) is an input file's
//! own path, which the command opens itself, as on the other backends.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use pash_core::compile::PashConfig;
use pash_core::plan::{
    fold_statuses, Arg, EndpointKind, ExecutionPlan, PlanNode, PlanNodeId, PlanOp, RegionPlan,
    SplitMode,
};

use pash_coreutils::fs::Fs;
use pash_coreutils::lines::BLOCK_SIZE;
use pash_coreutils::{error_text, CmdIo, Registry, SIGPIPE_STATUS};

use crate::agg::aggregate;
use crate::drive::{drive, RegionRunner};
use crate::edge::{buffered, MemEdges, Pipes, Sink, Source};
use crate::fault::{ArmedFault, ExecError};
use crate::fileseg::open_segment;
use crate::frame::run_framed;
use crate::pipe::{MultiReader, Tap, DEFAULT_PIPE_CAPACITY};
use crate::profile::{ProfileStore, RegionProfile};
use crate::relay::{run_relay, RelayMode};
use crate::split::{abandoned, deal_frames, split_general, split_round_robin, DEFAULT_LOOKAHEAD};
use crate::supervise::SupervisorSettings;

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Pipe capacity in bytes (the kernel pipe buffer analogue). Also
    /// the line between the two schedules: a region whose whole input
    /// is at most this many bytes runs to completion on one thread.
    pub pipe_capacity: usize,
    /// The execution supervisor: retries, region deadlines, fault
    /// injection, sequential fallback (see [`crate::supervise`]).
    pub supervisor: SupervisorSettings,
    /// When set, each successful region attempt records its per-node
    /// bytes-in/bytes-out and busy-time here, replacing the region's
    /// previous record; the caller reads them back with
    /// [`ProfileStore::region_stats`] (nothing chooses a plan from
    /// them, see [`crate::profile`]). `None` (the default) skips all
    /// instrumentation. Only regions run by this executor record
    /// (`threads`, and what `remote` runs locally); `processes`
    /// ignores its store.
    pub profile: Option<Arc<ProfileStore>>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            pipe_capacity: DEFAULT_PIPE_CAPACITY,
            supervisor: SupervisorSettings::default(),
            profile: None,
        }
    }
}

/// Bounded-relay buffer, in chunks (the "blocking eager").
const BLOCKING_RELAY_CHUNKS: usize = 8;

/// Locks a mutex, tolerating poison: a panicking node thread must not
/// cascade into every other thread that shares the lock.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Result of executing one region plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionOutput {
    /// Bytes the region wrote to its stdout edge(s).
    pub stdout: Vec<u8>,
    /// Exit status per node that ran.
    pub statuses: Vec<(PlanNodeId, i32)>,
    /// The region's overall status: the [`fold_statuses`] fold over
    /// the region's [`RegionPlan::status_sources`] — the commands
    /// whose exit codes the sequential pipeline would have reported.
    /// For a sequential region this is exactly the final producer's
    /// status; for a parallelized one it reproduces the sequential
    /// verdict (e.g. a `grep` miss stays status 1 at any width).
    pub status: i32,
}

/// How large a stream inside a run-to-completion attempt may grow, in
/// pipe capacities, before the attempt gives the region to
/// thread-per-node after all. The input was at most one; commands
/// that pass more than this on are not transforming it, they are
/// generating.
const INLINE_STREAM_BUFFERS: usize = 4;

/// The scheduling question, asked once per attempt: is this region's
/// whole external input at most one pipe buffer (`capacity` bytes)?
/// Then nothing in it reaches a steady state for concurrent nodes to
/// pipeline, and the attempt runs to completion on the calling thread.
///
/// Counted: the size of every `InputFile` edge, this region's share of
/// every `InputSegment`'s file (one that cannot be sized counts as
/// empty: its node reports it), and `feed` if the region has the
/// primary stdin edge. The answer is "yes" only if, as well,
///
/// 1. no fault is armed — the fault sites (spawn, edge wiring, ring
///    writer) are thread-per-node's, so an armed attempt always takes
///    that schedule and fires them;
/// 2. every node has an input edge — a generator (`seq`, `yes`) is
///    bounded by nothing it reads and needs a live consumer that can
///    hang up on it (one that was lowered with the region's stdin as
///    its input and ignores it passes this test; its output then meets
///    [`INLINE_STREAM_BUFFERS`]).
///
/// Sizes are read now, not at compile time, so a region that reads
/// what an earlier region of the same script wrote is judged on the
/// file that is really there.
fn fits_one_buffer(
    r: &RegionPlan,
    fs: &Arc<dyn Fs>,
    feed: &[u8],
    capacity: usize,
    fault: Option<&ArmedFault>,
) -> bool {
    if fault.is_some() || r.nodes.iter().any(|n| n.inputs.is_empty()) {
        return false;
    }
    let mut total = 0u64;
    for edge in &r.edges {
        total += match &edge.kind {
            EndpointKind::InputFile(path) => fs.size(path).unwrap_or(0),
            EndpointKind::InputSegment { path, of, .. } => {
                fs.size(path).unwrap_or(0).div_ceil((*of).max(1) as u64)
            }
            EndpointKind::StdinPipe { primary: true } => feed.len() as u64,
            _ => 0,
        };
        if total > capacity as u64 {
            return false;
        }
    }
    true
}

/// One attempt at a region: `stdin` feeds its primary boundary pipe
/// input (if any) from byte 0, with optional fault injection and an
/// optional deadline (taken from `settings`). Validates the plan, asks
/// [`fits_one_buffer`] and runs the schedule it names; which one ran is
/// counted on `cfg.supervisor.counters`.
fn run_region_attempt(
    r: &RegionPlan,
    registry: &Registry,
    fs: Arc<dyn Fs>,
    stdin: &[u8],
    cfg: &ExecConfig,
    fault: Option<&ArmedFault>,
    settings: Option<&SupervisorSettings>,
) -> Result<RegionOutput, ExecError> {
    r.validate()
        .map_err(|e| ExecError::fatal("plan", io::Error::new(io::ErrorKind::InvalidInput, e)))?;
    let counters = &cfg.supervisor.counters;
    if fits_one_buffer(r, &fs, stdin, cfg.pipe_capacity, fault) {
        if let Some(done) = run_to_completion(r, registry, &fs, stdin, cfg, settings) {
            counters.note_schedule(true);
            return done;
        }
    }
    counters.note_schedule(false);
    run_thread_per_node(r, registry, fs, stdin, cfg, fault, settings)
}

/// A node's inputs and outputs, as [`run_node`] takes them.
type Endpoints<'a> = (Vec<Source<'a>>, Vec<Sink<'static>>);

/// Takes `node`'s endpoints off the wiring, counting their bytes into
/// `profile` when the attempt is profiled ([`Source::tapped`]).
fn endpoints<'a>(
    edges: &mut MemEdges<'a>,
    node: &PlanNode,
    id: PlanNodeId,
    profile: Option<&Arc<RegionProfile>>,
) -> Endpoints<'a> {
    let (ins, outs) = (edges.take_inputs(node), edges.take_outputs(node));
    let Some(p) = profile else {
        return (ins, outs);
    };
    let tap = |add: fn(&RegionProfile, PlanNodeId, u64)| -> Tap {
        let p = p.clone();
        Box::new(move |n| add(&p, id, n))
    };
    let ins = ins
        .into_iter()
        .map(|s| s.tapped(tap(RegionProfile::add_in)));
    let outs = outs
        .into_iter()
        .map(|s| s.tapped(tap(RegionProfile::add_out)));
    (ins.collect(), outs.collect())
}

/// [`run_node`] of plan node `id` over its endpoints, its busy time
/// credited to `profile`.
fn run_timed(
    node: &PlanNode,
    id: PlanNodeId,
    (ins, outs): Endpoints,
    registry: &Registry,
    fs: Arc<dyn Fs>,
    profile: Option<&Arc<RegionProfile>>,
) -> io::Result<i32> {
    let started = Instant::now();
    let res = run_node(
        &node.op,
        &node.stdin_inputs,
        ins,
        outs,
        registry,
        fs,
        &mut io::sink(),
    );
    if let Some(p) = profile {
        p.add_busy(id, started.elapsed());
    }
    res
}

/// What a node's result means for the attempt: an exit status — a
/// `BrokenPipe` is SIGPIPE-style death, normal early-exit teardown —
/// or the classified error that ends it.
fn node_status(id: PlanNodeId, res: io::Result<i32>) -> Result<i32, ExecError> {
    match res {
        Ok(s) => Ok(s),
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(SIGPIPE_STATUS),
        Err(e) => Err(ExecError::classify("node", e).at_node(id)),
    }
}

/// The error of an attempt that outlived its region deadline, counted
/// as a deadline kill on `settings`.
pub(crate) fn deadline_exceeded(settings: Option<&SupervisorSettings>) -> ExecError {
    if let Some(s) = settings {
        s.note_deadline_kill();
    }
    ExecError::transient(
        "region deadline",
        io::Error::new(io::ErrorKind::TimedOut, "region deadline exceeded"),
    )
}

/// The tail both schedules share once every node has a status and no
/// infrastructure failed: each relay the wiring carried gets status 0
/// and a profile row of the bytes that crossed it, in and out, with no
/// busy time; the attempt's byte counts and timings describe a full
/// run, so they are folded into the profile store (failed attempts
/// would under-report bytes), and the region's status is the
/// sequential pipeline's verdict — the fold over the real commands
/// behind the output (the emitted script does the same with its
/// `pash_spids` wait loop; a relay is never one of them).
fn finish_attempt(
    r: &RegionPlan,
    cfg: &ExecConfig,
    profile: Option<&Arc<RegionProfile>>,
    edges: &MemEdges,
    mut statuses: Vec<(PlanNodeId, i32)>,
) -> RegionOutput {
    for (id, n) in edges.relayed() {
        if let Some(p) = profile {
            p.add_in(id, n);
            p.add_out(id, n);
        }
        statuses.push((id, 0));
    }
    if let (Some(store), Some(p)) = (&cfg.profile, profile) {
        store.record(p);
    }
    let stdout = std::mem::take(&mut *lock(&edges.stdout_handle()));
    let status_of = |id: PlanNodeId| {
        statuses
            .iter()
            .rev()
            .find(|(n, _)| *n == id)
            .map(|(_, s)| *s)
            .unwrap_or(0)
    };
    let source_statuses: Vec<i32> = r.status_sources().into_iter().map(status_of).collect();
    let status = fold_statuses(&source_statuses);
    RegionOutput {
        stdout,
        statuses,
        status,
    }
}

/// The run-to-completion schedule: every node through [`run_node`] in
/// plan (topological) order on the calling thread, each to completion
/// before the next starts. A pipe edge is a buffer its finished
/// producer leaves for its consumer ([`Pipes::Buffer`]); an eager relay
/// between two of them is wired as one buffer and does not run.
/// Nothing here can block, so the region deadline is checked against
/// the clock once the last node is done.
///
/// `None` — nothing the caller can observe has happened — when a stream
/// outgrew [`INLINE_STREAM_BUFFERS`] pipe capacities: a small input
/// turned out not to mean small streams (`xargs cat` over a short list
/// of large files), and the region wants concurrent, bounded pipes.
fn run_to_completion(
    r: &RegionPlan,
    registry: &Registry,
    fs: &Arc<dyn Fs>,
    stdin: &[u8],
    cfg: &ExecConfig,
    settings: Option<&SupervisorSettings>,
) -> Option<Result<RegionOutput, ExecError>> {
    let started = Instant::now();
    let pipes = Pipes::Buffer {
        limit: cfg.pipe_capacity.saturating_mul(INLINE_STREAM_BUFFERS),
    };
    // Unarmed, wiring cannot fail: only an injected fault fails it.
    let mut edges = MemEdges::wire(r, stdin, pipes, None).ok()?;
    let profile = cfg.profile.as_ref().map(|_| RegionProfile::for_region(r));
    let mut statuses = Vec::with_capacity(r.nodes.len());
    for (id, node) in r.nodes.iter().enumerate() {
        if edges.wires_relay(id) {
            continue;
        }
        let ends = endpoints(&mut edges, node, id, profile.as_ref());
        let res = run_timed(node, id, ends, registry, fs.clone(), profile.as_ref());
        if edges.overflowed() {
            return None;
        }
        match node_status(id, res) {
            Ok(s) => statuses.push((id, s)),
            Err(e) => return Some(Err(e)),
        }
    }
    let deadline = settings.and_then(|s| s.region_deadline);
    if deadline.is_some_and(|limit| started.elapsed() >= limit) {
        return Some(Err(deadline_exceeded(settings)));
    }
    Some(Ok(finish_attempt(
        r,
        cfg,
        profile.as_ref(),
        &edges,
        statuses,
    )))
}

/// The thread-per-node schedule: one scoped OS thread per plan node but
/// the eager relays, which the wiring makes spill pipes or spilling
/// frame queues, and bounded edges for the rest ([`Pipes::Ring`]): frame
/// queues between framed nodes, byte rings elsewhere. The run's stdin
/// is read in place by its consumer.
///
/// The deadline is enforced by a watchdog thread: on expiry it poisons
/// every in-memory pipe and frame queue (unblocking parked readers and
/// writers with `TimedOut`) and cancels any injected stall, so wedged
/// node threads unwind promptly instead of hanging the scope. The
/// thread-backend analogue of SIGKILL-after-grace. It sleeps parked;
/// the node that finishes last wakes it, so a supervised attempt ends
/// with its last node and not at the watchdog's next look.
fn run_thread_per_node(
    r: &RegionPlan,
    registry: &Registry,
    fs: Arc<dyn Fs>,
    stdin: &[u8],
    cfg: &ExecConfig,
    fault: Option<&ArmedFault>,
    settings: Option<&SupervisorSettings>,
) -> Result<RegionOutput, ExecError> {
    let mut edges = MemEdges::wire(r, stdin, Pipes::Ring(cfg.pipe_capacity), fault)
        .map_err(|e| ExecError::classify("edge wiring", e))?;
    let monitors = edges.take_monitors();
    let deadline = settings.and_then(|s| s.region_deadline);
    let deadline_hit = Arc::new(AtomicBool::new(false));
    let remaining = Arc::new(AtomicUsize::new(r.nodes.len() - edges.relayed().len()));
    let profile = cfg.profile.as_ref().map(|_| RegionProfile::for_region(r));

    // Spawn one thread per node in plan (topological) order — order is
    // not semantically required (pipes synchronize) but makes teardown
    // deterministic in tests.
    let statuses: Arc<Mutex<Vec<(PlanNodeId, i32)>>> = Arc::new(Mutex::new(Vec::new()));
    let hard_error: Arc<Mutex<Option<ExecError>>> = Arc::new(Mutex::new(None));
    std::thread::scope(|scope| {
        let watchdog = deadline.map(|limit| {
            let remaining = remaining.clone();
            let deadline_hit = deadline_hit.clone();
            let monitors = &monitors;
            let cancel = fault.map(|a| a.cancel.clone());
            let handle = scope.spawn(move || {
                let end = Instant::now() + limit;
                while remaining.load(Ordering::Acquire) != 0 {
                    let now = Instant::now();
                    if now >= end {
                        deadline_hit.store(true, Ordering::Release);
                        if let Some(c) = &cancel {
                            c.cancel();
                        }
                        for m in monitors {
                            m.poison();
                        }
                        return;
                    }
                    std::thread::park_timeout(end - now);
                }
            });
            handle.thread().clone()
        });
        for (id, node) in r.nodes.iter().enumerate() {
            if edges.wires_relay(id) {
                continue;
            }
            let ends = endpoints(&mut edges, node, id, profile.as_ref());
            let profile = profile.clone();
            let registry = registry.clone();
            let fs = fs.clone();
            let statuses = statuses.clone();
            let hard_error = hard_error.clone();
            let remaining = remaining.clone();
            let watchdog = watchdog.clone();
            scope.spawn(move || {
                // An injected spawn failure drops the endpoints, closing
                // the node's edges, so neighbours tear down.
                let res = fault
                    .map_or(Ok(()), |a| a.before_spawn(id))
                    .and_then(|()| run_timed(node, id, ends, &registry, fs, profile.as_ref()));
                match node_status(id, res) {
                    Ok(s) => lock(&statuses).push((id, s)),
                    Err(e) => {
                        lock(&hard_error).get_or_insert(e);
                    }
                }
                if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    if let Some(w) = &watchdog {
                        w.unpark();
                    }
                }
            });
        }
    });
    if deadline_hit.load(Ordering::Acquire) {
        return Err(deadline_exceeded(settings));
    }
    if let Some(e) = lock(&hard_error).take() {
        return Err(e);
    }
    let statuses = std::mem::take(&mut *lock(&statuses));
    Ok(finish_attempt(r, cfg, profile.as_ref(), &edges, statuses))
}

/// The status of a node that could not open one of its files: the
/// shell's for a command whose redirection fails.
const OPEN_FAILED: i32 = 2;

/// The one opener of a region's file endpoints, on every backend:
/// through `fs`, each file of `ins` (whole, or one segment of it), then
/// each of `outs` (created, behind the edge buffer), as the shell
/// performs `< in > out`. The first that fails comes back with its
/// path, and no file after it is created; but a peer output (a FIFO)
/// is opened and closed, so the process waiting in `open` for its
/// other end goes on.
pub(crate) fn open_files<'s, 'a: 's, 'b: 's>(
    fs: &dyn Fs,
    ins: impl IntoIterator<Item = &'s mut Source<'a>>,
    outs: impl IntoIterator<Item = &'s mut Sink<'b>>,
) -> Result<(), (String, io::Error)> {
    let mut failed = None;
    for src in ins {
        let Source::File(f) = src else { continue };
        let opened = match f.segment {
            Some((part, of)) => open_segment(fs, &f.path, part, of),
            None => fs.open(&f.path),
        };
        match opened {
            Ok(r) => *src = Source::Bytes(f.opened(r)),
            Err(e) => {
                failed = Some((f.path.clone(), e));
                break;
            }
        }
    }
    for sink in outs {
        let Sink::File(f) = sink else { continue };
        if failed.is_some() && !f.peer {
            continue;
        }
        match (fs.create(&f.path), failed.is_none()) {
            (Ok(w), true) => *sink = Sink::Bytes(buffered(f.opened(w))),
            // A peer's end, closed as soon as it is open.
            (Ok(_), false) => {}
            (Err(e), _) => {
                failed.get_or_insert((f.path.clone(), e));
            }
        }
    }
    failed.map_or(Ok(()), Err)
}

/// Executes one node's work on the current thread: `op` over its
/// input and output endpoints, `stdin_inputs` naming the inputs that
/// feed a command's standard input. The one interpreter of [`PlanOp`]
/// — a node of this backend under either schedule and a child process
/// of the `processes` and `shell` backends ([`crate::cli`]) all end up
/// here. The `expect`s below are arities [`RegionPlan::validate`] has
/// checked.
///
/// Its redirections come first, as in the shell: [`open_files`] opens
/// the files of `stdin_inputs`, then of `outs`, and one that cannot be
/// opened ends the node with status 2 and a line on `stderr`. A
/// command's [`Arg::Stream`]`(k)` is the path of its input `k`, which
/// the command opens itself; [`PlanOp::Cat`] opens each of its inputs
/// when it reaches it, as `cat` does.
pub(crate) fn run_node(
    op: &PlanOp,
    stdin_inputs: &[usize],
    mut ins: Vec<Source<'_>>,
    mut outs: Vec<Sink<'_>>,
    registry: &Registry,
    fs: Arc<dyn Fs>,
    stderr: &mut dyn Write,
) -> io::Result<i32> {
    let redirected = ins
        .iter_mut()
        .enumerate()
        .filter(|(k, _)| stdin_inputs.contains(k));
    if let Err((path, e)) = open_files(fs.as_ref(), redirected.map(|(_, s)| s), &mut outs) {
        writeln!(stderr, "{path}: {}", error_text(&e))?;
        return Ok(OPEN_FAILED);
    }
    match op {
        PlanOp::Exec { argv, framed } => {
            let final_argv = argv
                .iter()
                .map(|a| match a {
                    Arg::Lit(w) => Ok(w.clone()),
                    Arg::Stream(k) => match ins.get(*k) {
                        Some(Source::File(f)) => Ok(f.path.clone()),
                        _ => Err(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!("stream operand {k} names no input file"),
                        )),
                    },
                })
                .collect::<io::Result<Vec<String>>>()?;
            // The inputs no operand names feed stdin, in plan order.
            let mut slots: Vec<Option<Source>> = ins.drain(..).map(Some).collect();
            let stdin_sources: Vec<Source> = stdin_inputs
                .iter()
                .filter_map(|&k| slots.get_mut(k).and_then(|s| s.take()))
                .collect();
            let (name, args) = final_argv
                .split_first()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "empty argv"))?;
            let cmd = registry.get(name).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("{name}: not found"))
            })?;
            let mut out = outs.pop().expect("command has one output");
            let stdin = concatenated(stdin_sources)?;
            if *framed {
                return run_framed(stdin, &mut out, |stdin, stdout| {
                    let mut cio = CmdIo {
                        stdin,
                        stdout,
                        stderr: &mut *stderr,
                        fs: fs.clone(),
                        registry,
                    };
                    cmd.run(args, &mut cio)
                });
            }
            let mut stdin = io::BufReader::with_capacity(BLOCK_SIZE, stdin.into_bytes()?);
            let mut out = out.into_bytes()?;
            let mut cio = CmdIo {
                stdin: &mut stdin,
                stdout: &mut out,
                stderr,
                fs,
                registry,
            };
            let status = cmd.run(args, &mut cio)?;
            // Flush the edge buffer while errors can still be
            // reported; the drop-time flush swallows them.
            out.flush()?;
            Ok(status)
        }
        PlanOp::Cat => {
            let mut out = outs.pop().expect("cat has one output").into_bytes()?;
            let mut status = 0;
            for mut r in ins {
                if let Err((path, e)) = open_files(fs.as_ref(), [&mut r], None::<&mut Sink>) {
                    writeln!(stderr, "cat: {path}: {}", error_text(&e))?;
                    status = 1;
                    continue;
                }
                let mut r = r.into_bytes()?;
                let mut buf = [0u8; 64 * 1024];
                loop {
                    let n = r.read(&mut buf)?;
                    if n == 0 {
                        break;
                    }
                    out.write_all(&buf[..n])?;
                }
            }
            out.flush()?;
            Ok(status)
        }
        PlanOp::Relay { blocking } => {
            let input = ins.pop().expect("relay has one input").into_bytes()?;
            let mut out = outs.pop().expect("relay has one output").into_bytes()?;
            let mode = if *blocking {
                RelayMode::Blocking(BLOCKING_RELAY_CHUNKS)
            } else {
                RelayMode::Full
            };
            run_relay(input, &mut out, mode)?;
            out.flush()?;
            Ok(0)
        }
        PlanOp::Split { mode } => {
            // No lowering produces the sized variant; it runs as the
            // general splitter. Round-robin deals tagged blocks.
            let input = ins.pop().expect("split has one input").into_bytes()?;
            let mut r = io::BufReader::with_capacity(BLOCK_SIZE, input);
            if *mode == (SplitMode::RoundRobin { framed: true }) {
                deal_frames(&mut r, &mut outs, DEFAULT_LOOKAHEAD)?;
            } else {
                let mut bytes = outs
                    .drain(..)
                    .map(Sink::into_bytes)
                    .collect::<io::Result<Vec<_>>>()?;
                match mode {
                    SplitMode::RoundRobin { .. } => split_round_robin(&mut r, &mut bytes, false)?,
                    SplitMode::General | SplitMode::Sized => split_general(&mut r, &mut bytes)?,
                }
                outs = bytes.into_iter().map(Sink::Bytes).collect();
            }
            for out in outs.iter_mut() {
                // Same discipline as the split itself: a chunk whose
                // consumer is gone is abandoned, not fatal.
                abandoned(out.flush())?;
            }
            Ok(0)
        }
        PlanOp::Aggregate { argv } => {
            let mut out = outs.pop().expect("aggregate has one output").into_bytes()?;
            let status = aggregate(argv, ins, &mut out, registry, fs)?;
            out.flush()?;
            Ok(status)
        }
    }
}

/// One source reading `sources` in order: the one source itself — a
/// frame queue stays one — or the concatenation of their bytes.
fn concatenated(mut sources: Vec<Source<'_>>) -> io::Result<Source<'_>> {
    if sources.len() == 1 {
        return Ok(sources.pop().expect("one source"));
    }
    let bytes = sources
        .into_iter()
        .map(Source::into_bytes)
        .collect::<io::Result<Vec<_>>>()?;
    Ok(Source::Bytes(Box::new(MultiReader::new(bytes))))
}

/// Result of executing a whole plan.
#[derive(Debug)]
pub struct ProgramOutput {
    /// Bytes written to stdout across all regions.
    pub stdout: Vec<u8>,
    /// Status of the last executed step.
    pub status: i32,
}

/// The `threads` backend as a [`RegionRunner`]: one attempt is one
/// [`run_region_attempt`] over in-memory edges, under the schedule
/// the region's input size selects.
pub struct ThreadsRunner<'a> {
    /// Command implementations.
    pub registry: &'a Registry,
    /// Filesystem the regions read and write.
    pub fs: &'a Arc<dyn Fs>,
    /// Executor tuning (its `supervisor` is the driver's business).
    pub cfg: &'a ExecConfig,
}

impl RegionRunner for ThreadsRunner<'_> {
    fn attempt(
        &self,
        r: &RegionPlan,
        feed: &[u8],
        fault: Option<&ArmedFault>,
        _attempt_no: u32,
        supervised: Option<&SupervisorSettings>,
    ) -> Result<RegionOutput, ExecError> {
        run_region_attempt(
            r,
            self.registry,
            self.fs.clone(),
            feed,
            self.cfg,
            fault,
            supervised,
        )
    }
}

/// Executes a plan step by step.
///
/// `Shell` steps are supported only when they are no-ops for the data
/// path (assignments, comments): the front-end already folded their
/// effect into the compile-time environment and lowering marked them
/// `data_noop`. Anything else is an error — the hermetic executor
/// does not run arbitrary shell.
///
/// `fallback` is the same program compiled at width 1, the
/// supervisor's sequential fallback (see [`drive`] for the contract).
pub fn run_program(
    plan: &ExecutionPlan,
    fallback: Option<&ExecutionPlan>,
    registry: &Registry,
    fs: Arc<dyn Fs>,
    stdin: &[u8],
    cfg: &ExecConfig,
) -> io::Result<ProgramOutput> {
    let runner = ThreadsRunner {
        registry,
        fs: &fs,
        cfg,
    };
    drive(plan, fallback, &runner, &cfg.supervisor, stdin)
}

/// Compiles and runs a script against a filesystem; returns stdout.
///
/// This is the one-call API used by tests, examples, and benchmarks.
/// Compilation goes through the memoized
/// [`pash_core::compile::compile_cached`], so repeated runs of the
/// same script and configuration reuse the lowered plan.
pub fn run_script(
    src: &str,
    pash_cfg: &PashConfig,
    registry: &Registry,
    fs: Arc<dyn Fs>,
    stdin: Vec<u8>,
    exec_cfg: &ExecConfig,
) -> io::Result<ProgramOutput> {
    let compiled = pash_core::compile::compile_cached(src, pash_cfg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    // The sequential fallback plan: the same source at width 1. Only
    // compiled when the supervisor could use it; compile_cached makes
    // repeat runs free.
    let fallback = if exec_cfg.supervisor.fallback && pash_cfg.width != 1 {
        pash_core::compile::compile_cached(src, &pash_cfg.sequential()).ok()
    } else {
        None
    };
    run_program(
        &compiled.plan,
        fallback.as_deref().map(|c| &c.plan),
        registry,
        fs,
        &stdin,
        exec_cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pash_core::plan::PlanEdge;
    use pash_coreutils::fs::MemFs;

    fn fixture() -> (Registry, Arc<MemFs>) {
        let fs = Arc::new(MemFs::new());
        fs.add(
            "in.txt",
            b"Banana\napple\nCherry\napple\nbanana\nAPPLE\n".to_vec(),
        );
        (Registry::standard(), fs)
    }

    fn run(src: &str, width: usize) -> String {
        let (reg, fs) = fixture();
        let cfg = PashConfig {
            width,
            ..Default::default()
        };
        let out = run_script(
            src,
            &cfg,
            &reg,
            fs.clone(),
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        String::from_utf8(out.stdout).expect("utf8")
    }

    #[test]
    fn sequential_pipeline() {
        let out = run("cat in.txt | tr A-Z a-z | sort", 1);
        assert_eq!(out, "apple\napple\napple\nbanana\nbanana\ncherry\n");
    }

    #[test]
    fn profiling_hooks_record_bytes_per_plan_node() {
        let (reg, fs) = fixture();
        let store = Arc::new(ProfileStore::in_memory());
        let ecfg = ExecConfig {
            profile: Some(store.clone()),
            ..Default::default()
        };
        let cfg = PashConfig {
            width: 2,
            ..Default::default()
        };
        let out = run_script(
            "cat in.txt | tr A-Z a-z | sort > s.txt",
            &cfg,
            &reg,
            fs.clone(),
            Vec::new(),
            &ecfg,
        )
        .expect("run");
        assert_eq!(out.status, 0);
        // Stats are indexed by node id; the plan names the nodes.
        let compiled =
            pash_core::compile::compile_cached("cat in.txt | tr A-Z a-z | sort > s.txt", &cfg)
                .expect("compile");
        let (mut tr_in, mut tr_out, mut tr_busy) = (0.0, 0.0, 0.0);
        for region in compiled.plan.regions() {
            let stats = store
                .region_stats(region.fingerprint())
                .expect("region recorded");
            for (node, n) in region.nodes.iter().zip(&stats.nodes) {
                if node.op.label().starts_with("tr ") {
                    tr_in += n.bytes_in;
                    tr_out += n.bytes_out;
                    tr_busy += n.busy_s;
                }
            }
        }
        assert!(tr_in > 0.0 && tr_busy > 0.0, "tr observed");
        // tr is byte-preserving: measured ratio must be ~1.
        assert!((tr_out / tr_in - 1.0).abs() < 0.01, "{tr_in} -> {tr_out}");
        // Profiling must not change the output.
        let plain = run("cat in.txt | tr A-Z a-z | sort", 1);
        let (reg2, fs2) = fixture();
        let profiled = run_script(
            "cat in.txt | tr A-Z a-z | sort",
            &cfg,
            &reg2,
            fs2,
            Vec::new(),
            &ecfg,
        )
        .expect("run");
        assert_eq!(String::from_utf8(profiled.stdout).expect("utf8"), plain);
    }

    #[test]
    fn parallel_matches_sequential_stateless() {
        let seq = run("cat in.txt | tr A-Z a-z | grep an", 1);
        for width in [2, 4, 8] {
            assert_eq!(run("cat in.txt | tr A-Z a-z | grep an", width), seq);
        }
    }

    #[test]
    fn parallel_matches_sequential_sort() {
        let seq = run("cat in.txt | tr A-Z a-z | sort", 1);
        for width in [2, 3, 8] {
            assert_eq!(run("cat in.txt | tr A-Z a-z | sort", width), seq);
        }
    }

    #[test]
    fn parallel_uniq_count() {
        let seq = run("cat in.txt | tr A-Z a-z | sort | uniq -c", 1);
        assert_eq!(run("cat in.txt | tr A-Z a-z | sort | uniq -c", 4), seq);
        assert!(seq.contains("3 apple"));
    }

    /// An executor configuration for each schedule on the fixture's
    /// 39-byte input: at the default capacity it fits one buffer and
    /// runs to completion, below 39 bytes it does not.
    fn both_schedules() -> [ExecConfig; 2] {
        [
            ExecConfig::default(),
            ExecConfig {
                pipe_capacity: 16,
                ..Default::default()
            },
        ]
    }

    /// (run-to-completion, thread-per-node) attempts counted so far.
    fn schedules(cfg: &ExecConfig) -> (u64, u64) {
        let c = &cfg.supervisor.counters;
        (c.inline_regions(), c.threaded_regions())
    }

    #[test]
    fn head_early_exit_terminates() {
        // The §5.2 dangling-FIFO scenario: head exits after one line;
        // upstream must die of broken pipes, not deadlock — and when
        // the nodes run one after another there is nothing to hang up
        // on: upstream has finished before head starts.
        for (i, ecfg) in both_schedules().into_iter().enumerate() {
            let (reg, fs) = fixture();
            let cfg = PashConfig {
                width: 4,
                ..Default::default()
            };
            let out = run_script(
                "cat in.txt | sort -rn | head -n 1",
                &cfg,
                &reg,
                fs,
                Vec::new(),
                &ecfg,
            )
            .expect("run");
            assert_eq!(out.stdout, b"banana\n");
            assert_eq!(schedules(&ecfg), [(1, 0), (0, 1)][i]);
        }
    }

    #[test]
    fn file_output_lands_in_fs() {
        let (reg, fs) = fixture();
        let cfg = PashConfig {
            width: 4,
            ..Default::default()
        };
        run_script(
            "cat in.txt | tr A-Z a-z | sort > sorted.txt",
            &cfg,
            &reg,
            fs.clone(),
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        let out = fs.read("sorted.txt").expect("output file");
        assert_eq!(out, b"apple\napple\napple\nbanana\nbanana\ncherry\n");
    }

    #[test]
    fn comm_with_static_dictionary() {
        let (reg, fs) = fixture();
        fs.add("dict.txt", b"apple\nbanana\n".to_vec());
        fs.add("words.txt", b"apple\ncherry\nzebra\n".to_vec());
        let cfg = PashConfig {
            width: 3,
            ..Default::default()
        };
        let out = run_script(
            "cat words.txt | comm -13 dict.txt -",
            &cfg,
            &reg,
            fs,
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        assert_eq!(out.stdout, b"cherry\nzebra\n");
    }

    #[test]
    fn guards_respect_status() {
        let (reg, fs) = fixture();
        let cfg = PashConfig {
            width: 1,
            ..Default::default()
        };
        // grep finds nothing (status 1) so the second region is
        // skipped.
        let out = run_script(
            "grep zzz in.txt > miss.txt && cat in.txt",
            &cfg,
            &reg,
            fs.clone(),
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        assert!(out.stdout.is_empty());
        // With `||` it runs.
        let out = run_script(
            "grep zzz in.txt > miss.txt || cat in.txt",
            &cfg,
            &reg,
            fs,
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        assert!(!out.stdout.is_empty());
    }

    #[test]
    fn stdin_feeds_first_region() {
        let (reg, fs) = fixture();
        let cfg = PashConfig {
            width: 1,
            ..Default::default()
        };
        let out = run_script(
            "tr a-z A-Z",
            &cfg,
            &reg,
            fs,
            b"hello\n".to_vec(),
            &ExecConfig::default(),
        )
        .expect("run");
        assert_eq!(out.stdout, b"HELLO\n");
    }

    #[test]
    fn assignments_are_noops_in_process() {
        let (reg, fs) = fixture();
        let cfg = PashConfig {
            width: 2,
            ..Default::default()
        };
        let out = run_script(
            "f=in.txt\ncat $f | tr A-Z a-z | grep apple",
            &cfg,
            &reg,
            fs,
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        assert_eq!(out.stdout, b"apple\napple\napple\n");
    }

    #[test]
    fn dynamic_shell_step_is_unsupported() {
        let (reg, fs) = fixture();
        let cfg = PashConfig::default();
        let res = run_script(
            "grep $UNDEFINED in.txt",
            &cfg,
            &reg,
            fs,
            Vec::new(),
            &ExecConfig::default(),
        );
        assert!(res.is_err());
    }

    #[test]
    fn a_missing_input_file_ends_the_node_that_opens_it() {
        // As in `sh`: `cat` reports the file and the pipeline goes on,
        // its status `sort`'s; `< nope` fails its command with 2 and
        // `out.txt` is not made; a missing output directory fails its
        // command with 2 and stores nothing. On both schedules, at
        // width 1 and where copies open the file's segments — there
        // the `cat` is gone, and its verdict lands on the `sort` copies
        // that cannot open their segments: 2.
        for ecfg in both_schedules() {
            for width in [1, 4] {
                let (reg, fs) = fixture();
                let cfg = PashConfig {
                    width,
                    ..Default::default()
                };
                for (src, status) in [
                    ("cat nonexistent.txt | sort", if width == 1 { 0 } else { 2 }),
                    ("sort < nonexistent.txt > out.txt", 2),
                    ("cat in.txt > nodir/out.txt", 2),
                ] {
                    let out = run_script(src, &cfg, &reg, fs.clone(), Vec::new(), &ecfg)
                        .expect("a status, not an error");
                    assert_eq!(
                        (out.stdout, out.status),
                        (Vec::new(), status),
                        "`{src}` @{width}"
                    );
                }
                assert!(fs.read("nodir/out.txt").is_err(), "@{width}: stored");
                // At width 4 the merge behind `sort`'s copies makes
                // `out.txt`, as the emitted script's does.
                assert_eq!(fs.read("out.txt").is_ok(), width > 1, "@{width}");
            }
        }
    }

    #[test]
    fn tiny_pipes_still_correct() {
        // Squeeze everything through 32-byte pipes: heavy blocking,
        // same bytes.
        let (reg, fs) = fixture();
        let cfg = PashConfig {
            width: 4,
            ..Default::default()
        };
        let out = run_script(
            "cat in.txt | tr A-Z a-z | sort | uniq -c",
            &cfg,
            &reg,
            fs,
            Vec::new(),
            &ExecConfig {
                pipe_capacity: 32,
                ..Default::default()
            },
        )
        .expect("run");
        let s = String::from_utf8(out.stdout).expect("utf8");
        assert!(s.contains("3 apple"));
    }

    fn run_rr(src: &str, width: usize) -> String {
        let (reg, fs) = fixture();
        let out = run_script(
            src,
            &PashConfig::round_robin(width),
            &reg,
            fs.clone(),
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        String::from_utf8(out.stdout).expect("utf8")
    }

    #[test]
    fn round_robin_matches_sequential_stateless() {
        let seq = run("cat in.txt | tr A-Z a-z | grep an", 1);
        for width in [2, 4, 8] {
            assert_eq!(run_rr("cat in.txt | tr A-Z a-z | grep an", width), seq);
        }
    }

    #[test]
    fn round_robin_matches_sequential_wc() {
        // Commutative aggregator: blocks flow raw, no reorder needed.
        let seq = run("cat in.txt | tr A-Z a-z | wc -l", 1);
        for width in [2, 4, 8] {
            assert_eq!(run_rr("cat in.txt | tr A-Z a-z | wc -l", width), seq);
        }
    }

    #[test]
    fn round_robin_order_sensitive_still_correct() {
        // sort falls back to segment splitting under the RR policy;
        // output must stay identical either way.
        let seq = run("cat in.txt | tr A-Z a-z | sort | uniq -c", 1);
        for width in [2, 4] {
            assert_eq!(
                run_rr("cat in.txt | tr A-Z a-z | sort | uniq -c", width),
                seq
            );
        }
    }

    #[test]
    fn round_robin_grep_miss_gates_guard() {
        // Satellite: a guarded miss must behave identically at any
        // width — the folded statuses keep the region status at 1.
        let (reg, fs) = fixture();
        for (i, ecfg) in both_schedules().into_iter().enumerate() {
            for width in [1, 4] {
                let out = run_script(
                    "cat in.txt | grep zzz > miss.txt && cat in.txt",
                    &PashConfig::round_robin(width),
                    &reg,
                    fs.clone(),
                    Vec::new(),
                    &ecfg,
                )
                .expect("run");
                assert!(out.stdout.is_empty(), "width {width}");
                assert_eq!(out.status, 1, "width {width}");
            }
            assert_eq!(schedules(&ecfg), [(2, 0), (0, 2)][i]);
        }
    }

    /// Runs `src` at `width` over `fs` and returns the output.
    fn run_on(
        src: &str,
        width: usize,
        fs: &Arc<MemFs>,
        stdin: &[u8],
        ecfg: &ExecConfig,
    ) -> ProgramOutput {
        let cfg = PashConfig {
            width,
            ..Default::default()
        };
        run_script(
            src,
            &cfg,
            &Registry::standard(),
            fs.clone(),
            stdin.to_vec(),
            ecfg,
        )
        .expect("run")
    }

    fn lines(bytes: usize) -> Vec<u8> {
        b"abcdefg\n".iter().copied().cycle().take(bytes).collect()
    }

    #[test]
    fn gate_is_one_pipe_buffer_of_input() {
        // capacity − 1 and capacity bytes run to completion,
        // capacity + 1 gets a thread per node; files, segments and
        // stdin are all counted.
        const CAP: usize = 4096;
        for (size, inline) in [(CAP - 1, true), (CAP, true), (CAP + 1, false)] {
            let expected = format!("{}\n", lines(size).iter().filter(|&&b| b == b'\n').count());
            for (src, width, stdin) in [
                ("cat in.txt | tr a-z A-Z | wc -l", 1, false),
                ("cat in.txt | tr a-z A-Z | wc -l", 4, false),
                ("tr a-z A-Z | wc -l", 1, true),
                ("tr a-z A-Z | wc -l", 2, true),
            ] {
                let fs = Arc::new(MemFs::new());
                fs.add("in.txt", lines(size));
                let feed = if stdin { lines(size) } else { Vec::new() };
                let ecfg = ExecConfig {
                    pipe_capacity: CAP,
                    ..Default::default()
                };
                let out = run_on(src, width, &fs, &feed, &ecfg);
                assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
                let want = if inline { (1, 0) } else { (0, 1) };
                assert_eq!(schedules(&ecfg), want, "`{src}` @{width}, {size} bytes");
            }
        }
    }

    #[test]
    fn two_inputs_are_summed_by_the_gate() {
        let fs = Arc::new(MemFs::new());
        fs.add("a.txt", lines(3000));
        fs.add("b.txt", lines(3000));
        let ecfg = ExecConfig {
            pipe_capacity: 4096,
            ..Default::default()
        };
        run_on("cat a.txt | wc -l", 1, &fs, b"", &ecfg);
        assert_eq!(schedules(&ecfg), (1, 0));
        run_on("cat a.txt b.txt | wc -l", 1, &fs, b"", &ecfg);
        assert_eq!(schedules(&ecfg), (1, 1));
    }

    #[test]
    fn empty_input_runs_to_completion() {
        let fs = Arc::new(MemFs::new());
        fs.add("in.txt", Vec::new());
        let ecfg = ExecConfig::default();
        for width in [1, 4] {
            let out = run_on(
                "cat in.txt | tr a-z A-Z | sort | uniq -c",
                width,
                &fs,
                b"",
                &ecfg,
            );
            assert!(out.stdout.is_empty());
            assert_eq!(out.status, 0);
        }
        assert_eq!(schedules(&ecfg), (2, 0));
    }

    #[test]
    fn generator_region_gets_a_consumer_that_can_hang_up() {
        // Nothing bounds `seq` but `head` closing the pipe. Lowered,
        // it holds the region's (empty) stdin and passes the gate, but
        // its 589 KB outgrow what an input of one buffer explains and
        // the region moves to thread-per-node.
        let (reg, fs) = fixture();
        let ecfg = ExecConfig::default();
        let out = run_on("seq 1 100000 | head -n 3", 1, &fs, b"", &ecfg);
        assert_eq!(out.stdout, b"1\n2\n3\n");
        assert_eq!(schedules(&ecfg), (0, 1));
        // A node with no input edge at all never starts the other way.
        let exec = |words: &[&str], inputs: Vec<usize>, output| PlanNode {
            op: PlanOp::Exec {
                argv: words.iter().map(|w| Arg::Lit(w.to_string())).collect(),
                framed: false,
            },
            stdin_inputs: (0..inputs.len()).collect(),
            inputs,
            outputs: vec![output],
            output_producer: output == 1,
        };
        let r = RegionPlan {
            nodes: vec![
                exec(&["seq", "1", "5"], vec![], 0),
                exec(&["head", "-n", "3"], vec![0], 1),
            ],
            edges: vec![
                PlanEdge {
                    kind: EndpointKind::Pipe,
                    from: Some(0),
                    to: Some(1),
                },
                PlanEdge {
                    kind: EndpointKind::StdoutPipe,
                    from: Some(1),
                    to: None,
                },
            ],
            replayable: true,
        };
        let fs: Arc<dyn Fs> = fs;
        assert!(!fits_one_buffer(&r, &fs, &[], 1 << 16, None));
        let runner = ThreadsRunner {
            registry: &reg,
            fs: &fs,
            cfg: &ecfg,
        };
        let out = runner.attempt(&r, &[], None, 0, None).expect("attempt");
        assert_eq!(out.stdout, b"1\n2\n3\n");
        assert_eq!(schedules(&ecfg), (0, 2));
    }

    #[test]
    fn later_region_is_judged_on_the_file_an_earlier_one_wrote() {
        // Region 1 reads a 12-byte list and runs to completion; what
        // it writes is 1 MiB, so region 2 — whose input did not exist
        // at compile time — must not.
        let fs = Arc::new(MemFs::new());
        fs.add("list.txt", b"big.txt\nbig.txt\n".to_vec());
        fs.add("big.txt", lines(512 * 1024));
        let ecfg = ExecConfig::default();
        let out = run_on(
            "cat list.txt | xargs cat > all.txt\ncat all.txt | tr a-z A-Z | wc -c",
            1,
            &fs,
            b"",
            &ecfg,
        );
        assert_eq!(out.stdout, b"1048576\n");
        assert_eq!(fs.size("all.txt").expect("all.txt"), 1 << 20);
        assert_eq!(schedules(&ecfg), (1, 1));
    }

    #[test]
    fn streams_that_outgrow_a_small_input_move_to_thread_per_node() {
        // Same short list, but now the 1 MiB flows through pipe edges:
        // the attempt gives up running to completion (nothing of it is
        // observable) and the region runs with bounded rings.
        let fs = Arc::new(MemFs::new());
        fs.add("list.txt", b"big.txt\nbig.txt\n".to_vec());
        fs.add("big.txt", lines(512 * 1024));
        let ecfg = ExecConfig::default();
        let out = run_on(
            "cat list.txt | xargs cat | tr a-z A-Z | wc -c > n.txt",
            1,
            &fs,
            b"",
            &ecfg,
        );
        assert_eq!(out.status, 0);
        assert_eq!(fs.read("n.txt").expect("n.txt"), b"1048576\n");
        assert_eq!(schedules(&ecfg), (0, 1));
    }

    #[test]
    fn four_small_regions_run_to_completion() {
        let (_, fs) = fixture();
        let ecfg = ExecConfig::default();
        let src = "grep apple in.txt > a.txt\ngrep -c an in.txt > b.txt\n\
                   tr a-z A-Z < in.txt > c.txt\nsort in.txt > d.txt";
        let out = run_on(src, 2, &fs, b"", &ecfg);
        assert_eq!(out.status, 0);
        assert_eq!(fs.read("a.txt").expect("a.txt"), b"apple\napple\n");
        assert_eq!(fs.read("b.txt").expect("b.txt"), b"2\n");
        assert_eq!(schedules(&ecfg), (4, 0));
    }

    #[test]
    fn schedules_record_the_same_profile() {
        // Bytes in and out per node — relays included, handed over or
        // run — are the same whichever schedule carried them.
        let src = "cat in.txt | tr A-Z a-z | sort | uniq -c > out.txt";
        let cfg = PashConfig {
            width: 2,
            ..Default::default()
        };
        let compiled = pash_core::compile::compile_cached(src, &cfg).expect("compile");
        let region = compiled.plan.regions().next().expect("region");
        assert!(region
            .nodes
            .iter()
            .any(|n| matches!(n.op, PlanOp::Relay { .. })));
        let observed = both_schedules().map(|base| {
            let (reg, fs) = fixture();
            let store = Arc::new(ProfileStore::in_memory());
            let ecfg = ExecConfig {
                profile: Some(store.clone()),
                ..base
            };
            run_script(src, &cfg, &reg, fs, Vec::new(), &ecfg).expect("run");
            let stats = store
                .region_stats(region.fingerprint())
                .expect("region recorded");
            region
                .nodes
                .iter()
                .zip(&stats.nodes)
                .map(|(node, n)| (node.op.label(), n.bytes_in, n.bytes_out))
                .collect::<Vec<_>>()
        });
        assert_eq!(observed[0], observed[1]);
        assert!(observed[0].iter().all(|(_, i, o)| *i > 0.0 && *o > 0.0));
    }

    /// `n` lines of mixed-case words with punctuation, as the
    /// `light-stream` workload streams them.
    fn prose(n: usize, salt: usize) -> Vec<u8> {
        const WORDS: [&str; 7] = ["The", "river,", "Signal", "of", "the.", "Compiler", "e"];
        (0..n)
            .flat_map(|i| {
                let words = (0..1 + (i * 7 + salt) % 9).map(|k| WORDS[(i + k * 3 + salt) % 7]);
                let line = words.collect::<Vec<_>>().join(" ");
                format!("{line}\n").into_bytes()
            })
            .collect()
    }

    /// Runs `f` on a thread of its own and fails if it has not
    /// returned within `limit`: a wedged edge fails the test instead
    /// of hanging it.
    fn within(limit: std::time::Duration, f: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        match finished.recv_timeout(limit) {
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("wedged for {limit:?}"),
            _ => t.join().expect("no panic"),
        }
    }

    #[test]
    fn wired_relays_never_wedge_a_full_edge() {
        // 64-byte pipes fill at once, so every edge of these runs is
        // full most of the time, the relays' included: the
        // `light-stream` shape (r_split, relays, framed chains, the
        // reorder aggregator), and a relay in front of `cat`'s second
        // input, which `cat` reads only once the first has ended. Same
        // bytes as width 1, under a watchdog.
        within(std::time::Duration::from_secs(120), || {
            let ecfg = ExecConfig {
                pipe_capacity: 64,
                ..Default::default()
            };
            let fs = Arc::new(MemFs::new());
            fs.add("a.txt", prose(3_000, 1));
            fs.add("b.txt", prose(3_000, 2));
            let feed = prose(6_000, 3);
            for (src, rr, stdin) in [
                (
                    "tr A-Z a-z | cut -d ' ' -f 1-4 | tr -d ',.' | tr -s ' '",
                    true,
                    &feed[..],
                ),
                ("cat a.txt b.txt | tr A-Z a-z | grep e", false, &[][..]),
            ] {
                let run_at = |width| {
                    let reg = Registry::standard();
                    let cfg = cfg_for(rr, width);
                    let out = run_script(src, &cfg, &reg, fs.clone(), stdin.to_vec(), &ecfg);
                    out.expect("run").stdout
                };
                let seq = run_at(1);
                for width in [2, 4] {
                    assert!(run_at(width) == seq, "`{src}` at width {width}");
                    let region = first_region_with(src, &cfg_for(rr, width));
                    assert!(region
                        .nodes
                        .iter()
                        .any(|n| matches!(n.op, PlanOp::Relay { blocking: false })));
                }
            }
            assert_eq!(schedules(&ecfg), (0, 6));
        });
    }

    #[test]
    fn framed_chains_print_the_width_one_bytes_at_every_width() {
        // Every edge between two framed nodes is a frame queue here,
        // and every byte ring holds 64 bytes: the `light-stream` chain,
        // one whose `sed` grows every frame, and one whose `grep -v`
        // empties most of them, at widths 2, 4 and 8 against width 1.
        within(std::time::Duration::from_secs(120), || {
            let ecfg = ExecConfig {
                pipe_capacity: 64,
                ..Default::default()
            };
            let fs = Arc::new(MemFs::new());
            let feed = prose(20_000, 5);
            for src in [
                "tr A-Z a-z | cut -d ' ' -f 1-4 | tr -d ',.' | tr -s ' '",
                "tr A-Z a-z | sed 's/ /  /g' | tr -s ' '",
                "tr A-Z a-z | grep -v e | cut -c 1-8",
            ] {
                let run_at = |width| {
                    let reg = Registry::standard();
                    let cfg = PashConfig::round_robin(width);
                    let out = run_script(src, &cfg, &reg, fs.clone(), feed.clone(), &ecfg);
                    out.expect("run").stdout
                };
                let seq = run_at(1);
                assert!(!seq.is_empty(), "`{src}`");
                for width in [2, 4, 8] {
                    let region = first_region_with(src, &PashConfig::round_robin(width));
                    assert!(region
                        .nodes
                        .iter()
                        .any(|n| matches!(n.op, PlanOp::Exec { framed: true, .. })));
                    assert!(run_at(width) == seq, "`{src}` at width {width}");
                }
            }
        });
    }

    /// A command that dies of SIGPIPE on the block holding a `die`
    /// line and copies every other block.
    struct DieAt;

    impl pash_coreutils::Command for DieAt {
        fn run(&self, _args: &[String], io: &mut CmdIo<'_>) -> io::Result<i32> {
            let mut block = Vec::new();
            io.stdin.read_to_end(&mut block)?;
            if block.windows(4).any(|w| w == b"die\n") {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            io.stdout.write_all(&block)?;
            Ok(0)
        }
    }

    #[test]
    fn a_framed_stage_dying_mid_stream_ends_the_attempt_with_the_missing_tag() {
        // r_split deals to two framed `die-at` copies and the reorder
        // aggregator puts them back. The copy that takes the block with
        // the `die` line dies (status 141, no error of its own), its
        // edges close, and the reorder, holding later tags of the other
        // copy, names the tag that never came: an `InvalidData` that
        // ends the attempt, on both schedules — not a hang.
        let pipe = |from, to| PlanEdge {
            kind: EndpointKind::Pipe,
            from: Some(from),
            to: Some(to),
        };
        let node = |op, inputs: Vec<usize>, outputs, stdin_inputs| PlanNode {
            op,
            inputs,
            outputs,
            stdin_inputs,
            output_producer: false,
        };
        let worker = |input, output| {
            let op = PlanOp::Exec {
                argv: vec![Arg::Lit("die-at".to_string())],
                framed: true,
            };
            node(op, vec![input], vec![output], vec![0])
        };
        let mut reorder = node(
            PlanOp::Aggregate {
                argv: vec!["pash-agg-reorder".to_string()],
            },
            vec![3, 4],
            vec![5],
            vec![],
        );
        reorder.output_producer = true;
        let split = PlanOp::Split {
            mode: SplitMode::RoundRobin { framed: true },
        };
        let r = RegionPlan {
            nodes: vec![
                node(split, vec![0], vec![1, 2], vec![0]),
                worker(1, 3),
                worker(2, 4),
                reorder,
            ],
            edges: vec![
                PlanEdge {
                    kind: EndpointKind::StdinPipe { primary: true },
                    from: None,
                    to: Some(0),
                },
                pipe(0, 1),
                pipe(0, 2),
                pipe(1, 3),
                pipe(2, 3),
                PlanEdge {
                    kind: EndpointKind::StdoutPipe,
                    from: Some(3),
                    to: None,
                },
            ],
            replayable: true,
        };
        let mut feed = b"line\n".repeat(30_000);
        feed.extend_from_slice(b"die\n");
        feed.extend(b"line\n".repeat(30_000));
        within(std::time::Duration::from_secs(60), move || {
            let reg = Registry::from_commands(vec![("die-at", Arc::new(DieAt))]);
            let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
            for capacity in [64, 1 << 20] {
                let ecfg = ExecConfig {
                    pipe_capacity: capacity,
                    ..Default::default()
                };
                let runner = ThreadsRunner {
                    registry: &reg,
                    fs: &fs,
                    cfg: &ecfg,
                };
                let err = runner
                    .attempt(&r, &feed, None, 0, None)
                    .expect_err("a lost block");
                let text = err.to_string();
                assert!(text.contains("missing"), "capacity {capacity}: {text}");
            }
        });
    }

    #[test]
    fn frame_queues_count_the_bytes_the_byte_carrier_counts() {
        // The same run three ways — frame queues (thread-per-node),
        // buffers (run to completion) and byte rings (a harmless fault
        // armed, which keeps the byte carrier) — records the same bytes
        // in and out for every node, relays included.
        use crate::fault::{FaultKind, FaultPlan};
        let src = "tr A-Z a-z | cut -d ' ' -f 1-4 | tr -s ' '";
        let cfg = PashConfig::round_robin(2);
        let region = first_region_with(src, &cfg);
        let feed = prose(2_000, 7);
        let delay = FaultKind::from_name("spawn-delay").expect("kind");
        let carriers = [
            (64, None),
            (1 << 20, None),
            (64, Some(FaultPlan::new(delay, 3))),
        ];
        let observed = carriers.map(|(pipe_capacity, fault)| {
            let (reg, fs) = fixture();
            let store = Arc::new(ProfileStore::in_memory());
            let armed = u64::from(fault.is_some());
            let ecfg = ExecConfig {
                pipe_capacity,
                profile: Some(store.clone()),
                supervisor: SupervisorSettings {
                    fault,
                    ..Default::default()
                },
            };
            run_script(src, &cfg, &reg, fs, feed.clone(), &ecfg).expect("run");
            let c = &ecfg.supervisor.counters;
            assert_eq!((c.injected(), c.retries()), (armed, 0));
            let stats = store
                .region_stats(region.fingerprint())
                .expect("region recorded");
            stats
                .nodes
                .iter()
                .map(|n| (n.bytes_in, n.bytes_out))
                .collect::<Vec<_>>()
        });
        assert_eq!(observed[0], observed[1], "frames vs buffers");
        assert_eq!(observed[0], observed[2], "frames vs byte rings");
        assert!(observed[0].iter().all(|&(i, o)| i > 0.0 && o > 0.0));
    }

    #[test]
    fn a_wired_relay_takes_what_a_merge_is_not_reading_yet() {
        // Fig. 6's stall, as a hand-built plan that would wedge: a
        // general split writes its first part whole before its second,
        // while the merge behind it needs a line of each to go on. The
        // relay on the first part is all that takes the bytes the
        // merge is not reading yet.
        let pipe = |from, to| PlanEdge {
            kind: EndpointKind::Pipe,
            from: Some(from),
            to: Some(to),
        };
        let node = |op, inputs: Vec<usize>, outputs, stdin_inputs| PlanNode {
            op,
            inputs,
            outputs,
            stdin_inputs,
            output_producer: false,
        };
        let mut merge = node(
            PlanOp::Aggregate {
                argv: vec!["pash-agg-sort".to_string()],
            },
            vec![3, 2],
            vec![4],
            vec![],
        );
        merge.output_producer = true;
        let r = RegionPlan {
            nodes: vec![
                node(
                    PlanOp::Split {
                        mode: SplitMode::General,
                    },
                    vec![0],
                    vec![1, 2],
                    vec![0],
                ),
                node(PlanOp::Relay { blocking: false }, vec![1], vec![3], vec![0]),
                merge,
            ],
            edges: vec![
                PlanEdge {
                    kind: EndpointKind::StdinPipe { primary: true },
                    from: None,
                    to: Some(0),
                },
                pipe(0, 1),
                pipe(0, 2),
                pipe(1, 2),
                PlanEdge {
                    kind: EndpointKind::StdoutPipe,
                    from: Some(2),
                    to: None,
                },
            ],
            replayable: true,
        };
        let sorted: Vec<u8> = (0..20_000)
            .flat_map(|i| format!("{i:06}\n").into_bytes())
            .collect();
        within(std::time::Duration::from_secs(60), move || {
            let (reg, fs) = fixture();
            let fs: Arc<dyn Fs> = fs;
            let ecfg = ExecConfig {
                pipe_capacity: 64,
                ..Default::default()
            };
            let runner = ThreadsRunner {
                registry: &reg,
                fs: &fs,
                cfg: &ecfg,
            };
            let out = runner.attempt(&r, &sorted, None, 0, None).expect("attempt");
            assert!(out.stdout == sorted);
            assert_eq!(schedules(&ecfg), (0, 1));
        });
    }

    #[test]
    fn a_wired_relay_reports_its_bytes_and_no_busy_time() {
        // On either schedule a relay carried by its edge has a profile
        // row of the bytes that crossed it, in and out, and no busy
        // time: it never ran.
        let src = "cat in.txt | tr A-Z a-z | sort | uniq -c > out.txt";
        let cfg = PashConfig {
            width: 2,
            ..Default::default()
        };
        let region = first_region(src, 2);
        for base in both_schedules() {
            let (reg, fs) = fixture();
            let store = Arc::new(ProfileStore::in_memory());
            let ecfg = ExecConfig {
                profile: Some(store.clone()),
                ..base
            };
            run_script(src, &cfg, &reg, fs, Vec::new(), &ecfg).expect("run");
            let stats = store
                .region_stats(region.fingerprint())
                .expect("region recorded");
            let relays: Vec<_> = region
                .nodes
                .iter()
                .zip(&stats.nodes)
                .filter(|(node, _)| matches!(node.op, PlanOp::Relay { .. }))
                .map(|(_, n)| n)
                .collect();
            assert!(!relays.is_empty());
            for n in relays {
                assert!(n.bytes_in > 0.0 && n.bytes_in == n.bytes_out, "{n:?}");
                assert_eq!(n.busy_s, 0.0, "{n:?}");
            }
        }
    }

    fn cfg_for(rr: bool, width: usize) -> PashConfig {
        if rr {
            PashConfig::round_robin(width)
        } else {
            PashConfig {
                width,
                ..Default::default()
            }
        }
    }

    fn first_region(src: &str, width: usize) -> RegionPlan {
        first_region_with(src, &cfg_for(false, width))
    }

    fn first_region_with(src: &str, cfg: &PashConfig) -> RegionPlan {
        let compiled = pash_core::compile::compile_cached(src, cfg).expect("compile");
        let region = compiled.plan.regions().next().expect("region").clone();
        region
    }

    #[test]
    fn zero_deadline_on_a_small_region_walks_the_ladder() {
        use std::time::Duration;
        let (reg, fs) = fixture();
        let fs: Arc<dyn Fs> = fs;
        let ecfg = ExecConfig {
            supervisor: SupervisorSettings {
                max_retries: 1,
                backoff_base: Duration::from_micros(10),
                region_deadline: Some(Duration::ZERO),
                ..Default::default()
            },
            ..Default::default()
        };
        // One supervised attempt, seen from the runner: the transient
        // deadline error the watchdog would have produced.
        let runner = ThreadsRunner {
            registry: &reg,
            fs: &fs,
            cfg: &ecfg,
        };
        let r = first_region("cat in.txt | tr A-Z a-z | sort", 2);
        let err = runner
            .attempt(&r, &[], None, 0, Some(&ecfg.supervisor))
            .expect_err("deadline");
        assert!(err.is_transient());
        assert!(err.to_string().contains("region deadline"), "{err}");
        assert_eq!(ecfg.supervisor.counters.deadline_kills(), 1);
        // The whole ladder: both attempts die of the deadline, the
        // clean width-1 fallback (no deadline) answers.
        let cfg = PashConfig {
            width: 2,
            ..Default::default()
        };
        let out = run_script(
            "cat in.txt | tr A-Z a-z | sort",
            &cfg,
            &reg,
            fs.clone(),
            Vec::new(),
            &ecfg,
        )
        .expect("fallback answers");
        assert_eq!(out.stdout, b"apple\napple\napple\nbanana\nbanana\ncherry\n");
        let c = &ecfg.supervisor.counters;
        assert_eq!((c.deadline_kills(), c.retries(), c.fallbacks()), (3, 1, 1));
        assert_eq!(schedules(&ecfg), (4, 0));
    }

    #[test]
    fn armed_fault_always_takes_thread_per_node() {
        use crate::fault::{FaultKind, FaultPlan};
        let (reg, fs) = fixture();
        let spawn_fail = FaultKind::from_name("spawn-fail").expect("kind");
        let ecfg = ExecConfig {
            supervisor: SupervisorSettings {
                max_retries: 0,
                fault: Some(FaultPlan::new(spawn_fail, 0)),
                ..Default::default()
            },
            ..Default::default()
        };
        let cfg = PashConfig {
            width: 2,
            ..Default::default()
        };
        let out = run_script(
            "cat in.txt | tr A-Z a-z | sort",
            &cfg,
            &reg,
            fs,
            Vec::new(),
            &ecfg,
        )
        .expect("fallback answers");
        assert_eq!(out.stdout, b"apple\napple\napple\nbanana\nbanana\ncherry\n");
        let c = &ecfg.supervisor.counters;
        assert_eq!((c.injected(), c.fallbacks()), (1, 1));
        // The armed attempt ran (and failed) with threads; the clean
        // fallback is small and ran to completion.
        assert_eq!(schedules(&ecfg), (1, 1));
    }

    #[test]
    fn supervised_attempt_ends_with_its_last_node() {
        // The deadline watchdog sleeps parked and is woken by the last
        // node: a supervised thread-per-node attempt under a far
        // deadline takes about what the same attempt takes with no
        // deadline (no watchdog), where a watchdog that polls would
        // add a poll interval to each, and one never woken the whole
        // deadline. The two kinds run in turn, so load slows both.
        use std::time::Duration;
        let (reg, fs) = fixture();
        let fs: Arc<dyn Fs> = fs;
        let ecfg = ExecConfig {
            pipe_capacity: 16,
            supervisor: SupervisorSettings {
                region_deadline: Some(Duration::from_secs(10)),
                ..Default::default()
            },
            ..Default::default()
        };
        let runner = ThreadsRunner {
            registry: &reg,
            fs: &fs,
            cfg: &ecfg,
        };
        let r = first_region("cat in.txt | tr A-Z a-z", 1);
        let (mut supervised, mut free) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..200 {
            for (settings, took) in [(Some(&ecfg.supervisor), &mut supervised), (None, &mut free)] {
                let started = Instant::now();
                let out = runner.attempt(&r, &[], None, 0, settings).expect("attempt");
                *took += started.elapsed();
                assert_eq!(out.stdout.len(), 39);
            }
            assert!(
                supervised < free * 3 + Duration::from_millis(250),
                "supervised attempts took {supervised:?}, unsupervised {free:?}"
            );
        }
        assert_eq!(schedules(&ecfg), (0, 400));
    }
}
