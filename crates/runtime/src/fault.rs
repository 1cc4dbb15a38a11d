//! The fault-injection plane and the structured execution-error
//! taxonomy.
//!
//! PaSh's transparency guarantee — parallel output byte-identical to
//! `sh` — is only worth stating if it survives the failure modes real
//! deployments hit: a worker dying mid-stream, a spawn or `mkfifo`
//! failing, a framed block arriving truncated or corrupted, an edge
//! that stalls. This module provides
//!
//! * [`FaultPlan`] — a deterministic, seeded description of *one*
//!   fault to inject into region execution. The supervisor arms it
//!   once per attempt ([`FaultPlan::arm`]); the armed form
//!   ([`ArmedFault`]) names a concrete node or edge of the region
//!   picked by a seeded hash over the eligible sites, so the same
//!   seed always hits the same site. A budget bounds how many
//!   attempts get the fault (budget 1 = fail once then run clean,
//!   the retry scenario; an effectively-unbounded budget forces the
//!   sequential fallback).
//! * [`FaultyWriter`] — the stream-level delivery vehicle: wraps an
//!   edge writer to truncate, corrupt, stall, or kill at a byte
//!   offset. The threaded backend wraps in-process edge writers; the
//!   process backend ships the same spec to the armed child via the
//!   `PASH_FAULT` environment variable (see [`ArmedFault::env_spec`])
//!   and the multicall wraps its own stdout.
//! * [`ExecError`] — the structured error both backends raise:
//!   a transient/fatal classification plus the failing node/edge, so
//!   the supervisor can decide between retry, fallback, and giving
//!   up without string-matching `io::Error` text.
//!
//! Injection is a test/verification plane: it is deterministic, off
//! by default, and never enabled on the sequential fallback path.

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pash_core::plan::{PlanEdgeId, PlanNodeId, PlanOp, RegionPlan};

/// Exit status a multicall child reports for an infrastructure
/// failure (corrupt frame, injected death) — distinguishable from
/// any status a user command legitimately produces in our plans and
/// from the signal range (≥ 128).
pub const INFRA_STATUS: i32 = 120;

/// Whether a failure is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Environmental / timing failure: a retry (or the sequential
    /// fallback) may well succeed — dead worker, truncated frame,
    /// failed spawn, deadline kill.
    Transient,
    /// Deterministic failure the sequential run would hit identically
    /// (missing input file, unknown command, invalid plan): retrying
    /// or falling back cannot help.
    Fatal,
}

/// A structured execution error: classification plus the failing
/// plan site, wrapping the underlying `io::Error`.
#[derive(Debug)]
pub struct ExecError {
    /// Retry-worthiness of the failure.
    pub class: FaultClass,
    /// The plan node that failed, when attributable.
    pub node: Option<PlanNodeId>,
    /// The plan edge that failed, when attributable.
    pub edge: Option<PlanEdgeId>,
    /// Which runtime operation failed ("spawn", "wait", "deadline",
    /// "edge", "node", …) — stable tokens the supervisor keys on.
    pub context: &'static str,
    /// The underlying error.
    pub source: io::Error,
}

impl ExecError {
    /// A transient (retryable) error.
    pub fn transient(context: &'static str, source: io::Error) -> ExecError {
        ExecError {
            class: FaultClass::Transient,
            node: None,
            edge: None,
            context,
            source,
        }
    }

    /// A fatal (non-retryable) error.
    pub fn fatal(context: &'static str, source: io::Error) -> ExecError {
        ExecError {
            class: FaultClass::Fatal,
            node: None,
            edge: None,
            context,
            source,
        }
    }

    /// Classifies a plain `io::Error` by kind: data corruption,
    /// timeouts, and interruptions are transient (the parallel
    /// plumbing failed); everything else — missing files, permission
    /// errors, invalid plans — would fail sequentially too.
    pub fn classify(context: &'static str, source: io::Error) -> ExecError {
        let class = match source.kind() {
            io::ErrorKind::InvalidData
            | io::ErrorKind::TimedOut
            | io::ErrorKind::Interrupted
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof => FaultClass::Transient,
            _ => FaultClass::Fatal,
        };
        ExecError {
            class,
            node: None,
            edge: None,
            context,
            source,
        }
    }

    /// Attaches the failing node.
    pub fn at_node(mut self, node: PlanNodeId) -> ExecError {
        self.node = Some(node);
        self
    }

    /// Attaches the failing edge.
    pub fn at_edge(mut self, edge: PlanEdgeId) -> ExecError {
        self.edge = Some(edge);
        self
    }

    /// Whether a retry or fallback may succeed.
    pub fn is_transient(&self) -> bool {
        self.class == FaultClass::Transient
    }

    /// Whether this failure is a region-deadline expiry (the caller
    /// escalated, or must escalate, to killing the region).
    pub fn is_deadline(&self) -> bool {
        self.context == "region deadline"
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let class = match self.class {
            FaultClass::Transient => "transient",
            FaultClass::Fatal => "fatal",
        };
        write!(f, "{class} {} failure", self.context)?;
        if let Some(n) = self.node {
            write!(f, " at node {n}")?;
        }
        if let Some(e) = self.edge {
            write!(f, " at edge {e}")?;
        }
        write!(f, ": {}", self.source)
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl From<ExecError> for io::Error {
    fn from(e: ExecError) -> io::Error {
        io::Error::new(e.source.kind(), e.to_string())
    }
}

/// The injectable fault kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A worker dies mid-stream (threads: its node thread errors out;
    /// processes: the child aborts) after writing a few bytes.
    KillWorker,
    /// Spawning a node fails outright.
    SpawnFail,
    /// Spawning a node is delayed (latency fault; the attempt still
    /// succeeds, exercising the supervisor's patience, not its
    /// recovery).
    SpawnDelay,
    /// Creating a FIFO (processes) / wiring an edge (threads) fails.
    MkfifoFail,
    /// A framed edge is truncated mid-frame: the writer silently
    /// swallows everything past the offset.
    Truncate,
    /// A framed edge is corrupted from a byte offset on (XOR), which
    /// the frame magic check downstream must catch.
    Corrupt,
    /// An internal edge stalls (stops moving bytes) at an offset for
    /// a duration — the wedged-child scenario the region deadline
    /// must catch.
    Stall,
    /// The coordinator→worker connection drops mid-request: the
    /// length-prefixed request is cut after a few bytes and the
    /// socket closed (remote backend only).
    ConnDrop,
    /// The worker is slow: it sleeps for the stall duration before
    /// running the region (remote backend only). On its own this
    /// exercises the supervisor's patience; with a region deadline it
    /// becomes the wedged-worker socket-teardown scenario.
    SlowWorker,
    /// The worker's reply is cut part-way and the socket closed: the
    /// coordinator reads no further than the offset, so the reply's
    /// length prefix promises bytes that never arrive — the
    /// half-written-frame shape the reader must catch (remote backend
    /// only).
    TornFrame,
}

impl FaultKind {
    /// Every kind, for sweep suites.
    pub const ALL: [FaultKind; 10] = [
        FaultKind::KillWorker,
        FaultKind::SpawnFail,
        FaultKind::SpawnDelay,
        FaultKind::MkfifoFail,
        FaultKind::Truncate,
        FaultKind::Corrupt,
        FaultKind::Stall,
        FaultKind::ConnDrop,
        FaultKind::SlowWorker,
        FaultKind::TornFrame,
    ];

    /// A stable display/parse name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::KillWorker => "kill-worker",
            FaultKind::SpawnFail => "spawn-fail",
            FaultKind::SpawnDelay => "spawn-delay",
            FaultKind::MkfifoFail => "mkfifo-fail",
            FaultKind::Truncate => "truncate",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Stall => "stall",
            FaultKind::ConnDrop => "conn-drop",
            FaultKind::SlowWorker => "slow-worker",
            FaultKind::TornFrame => "torn-frame",
        }
    }

    /// Parses a stable name back into a kind.
    pub fn from_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether this kind targets the coordinator↔worker connection
    /// (remote backend only). Remote kinds have no eligible site on
    /// the local backends, so arming them there is a no-op and local
    /// sweeps over [`FaultKind::ALL`] stay byte-clean.
    pub fn is_remote(self) -> bool {
        matches!(
            self,
            FaultKind::ConnDrop | FaultKind::SlowWorker | FaultKind::TornFrame
        )
    }
}

/// A cancellable flag shared between a stalling writer and the
/// supervisor's deadline watchdog, so a deadline kill does not have
/// to sit out the stall.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Signals cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation was signalled.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Sleeps up to `dur`, waking early if cancelled.
    pub fn sleep(&self, dur: Duration) {
        let slice = Duration::from_millis(5);
        let mut left = dur;
        while !left.is_zero() && !self.is_cancelled() {
            let d = left.min(slice);
            std::thread::sleep(d);
            left = left.saturating_sub(d);
        }
    }
}

/// One fault to inject, deterministically: kind, seed, and budget.
///
/// Cloning shares the budget, so the supervisor's retries draw from
/// the same pool (budget 1 ⇒ exactly the first attempt is faulty).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// What goes wrong.
    pub kind: FaultKind,
    /// Seeds the site choice and default offsets.
    pub seed: u64,
    budget: Arc<AtomicU32>,
    offset: Option<u64>,
    delay: Option<Duration>,
    stall: Option<Duration>,
    cancel: CancelToken,
}

impl FaultPlan {
    /// A single-shot fault of the given kind and seed.
    pub fn new(kind: FaultKind, seed: u64) -> FaultPlan {
        FaultPlan {
            kind,
            seed,
            budget: Arc::new(AtomicU32::new(1)),
            offset: None,
            delay: None,
            stall: None,
            cancel: CancelToken::new(),
        }
    }

    /// How many region attempts get the fault (default 1).
    /// `u32::MAX` is effectively "every attempt" — the fallback
    /// scenario.
    pub fn budget(mut self, n: u32) -> FaultPlan {
        self.budget = Arc::new(AtomicU32::new(n));
        self
    }

    /// Byte offset override for stream faults.
    pub fn offset(mut self, o: u64) -> FaultPlan {
        self.offset = Some(o);
        self
    }

    /// Delay override for [`FaultKind::SpawnDelay`].
    pub fn delay(mut self, d: Duration) -> FaultPlan {
        self.delay = Some(d);
        self
    }

    /// Stall duration override for [`FaultKind::Stall`].
    pub fn stall(mut self, d: Duration) -> FaultPlan {
        self.stall = Some(d);
        self
    }

    /// The cancel token stalls honour (the deadline watchdog cancels
    /// it so a kill does not wait out the stall).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Arms the fault against one region attempt: decrements the
    /// budget and picks the target site by seeded hash. `None` when
    /// the budget is spent or the region has no eligible site (e.g. a
    /// corruption fault on a plan with no framed edges, or a remote
    /// kind on a local backend).
    pub fn arm(&self, r: &RegionPlan) -> Option<ArmedFault> {
        let (node, edge) = pick_site(self.kind, self.seed, r)?;
        self.claim_budget()?;
        let sm = splitmix64(self.seed);
        let offset = self.offset.unwrap_or(match self.kind {
            // Mid-header: a truncated frame header is always detected.
            FaultKind::Truncate => (sm % 12).max(2),
            // Within the 4-byte magic: corruption is always detected.
            FaultKind::Corrupt => sm % 4,
            _ => 1 + sm % 64,
        });
        Some(ArmedFault {
            kind: self.kind,
            node,
            edge,
            offset,
            delay: self.delay.unwrap_or(Duration::from_millis(20)),
            stall: self.stall.unwrap_or(Duration::from_millis(50)),
            cancel: self.cancel.clone(),
        })
    }

    /// Arms the fault against one *remote* region attempt. Remote-only
    /// kinds (connection drop, slow worker, torn frame) target the
    /// coordinator↔worker connection and are eligible on any region
    /// with an `Exec` node; local kinds arm exactly as
    /// [`FaultPlan::arm`] does, and the coordinator ships the armed
    /// form to the worker for in-attempt delivery.
    pub fn arm_remote(&self, r: &RegionPlan) -> Option<ArmedFault> {
        if !self.kind.is_remote() {
            return self.arm(r);
        }
        // Attribute the connection fault to a seeded Exec node, the
        // same family worker-death faults target.
        let nodes: Vec<PlanNodeId> = r
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, PlanOp::Exec { .. }))
            .map(|(i, _)| i)
            .collect();
        if nodes.is_empty() {
            return None;
        }
        self.claim_budget()?;
        let sm = splitmix64(self.seed);
        let node = nodes[(sm % nodes.len() as u64) as usize];
        let offset = self.offset.unwrap_or(match self.kind {
            // Cut inside the request's 4-byte length prefix or just
            // past it: the worker always sees a malformed request.
            FaultKind::ConnDrop => (sm % 64).max(1),
            // Inside the reply's length prefix or just past it: a
            // reply is always longer, so the tear always lands.
            FaultKind::TornFrame => (sm % 12).max(2),
            _ => 1 + sm % 64,
        });
        Some(ArmedFault {
            kind: self.kind,
            node: Some(node),
            edge: None,
            offset,
            delay: self.delay.unwrap_or(Duration::from_millis(20)),
            stall: self.stall.unwrap_or(Duration::from_millis(50)),
            cancel: self.cancel.clone(),
        })
    }

    /// Claims one unit of budget without underflowing concurrent
    /// arms. `None` when the budget is spent.
    fn claim_budget(&self) -> Option<()> {
        let mut cur = self.budget.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return None;
            }
            let next = if cur == u32::MAX { cur } else { cur - 1 };
            match self
                .budget
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(v) => cur = v,
            }
        }
        Some(())
    }
}

/// SplitMix64: the seeded hash behind site choice, offsets, and the
/// supervisor's backoff jitter.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Picks the (node, edge) target for `kind` in `r`, seeded.
///
/// Eligibility keeps the differential guarantee checkable:
///
/// * worker/spawn faults target `Exec` nodes (real commands — the
///   things that die in deployments);
/// * truncation/corruption target *framed* edges only, where the
///   frame magic/length checks make the damage detectable; silent
///   raw-byte damage is indistinguishable from legitimate output and
///   no supervisor could catch it;
/// * stalls target internal pipe edges fed by a node's stdout (so
///   the process backend can deliver them by wrapping that stdout);
/// * mkfifo faults target internal pipe edges.
fn pick_site(
    kind: FaultKind,
    seed: u64,
    r: &RegionPlan,
) -> Option<(Option<PlanNodeId>, Option<PlanEdgeId>)> {
    // The edge a node's stdout feeds, if any.
    let stdout_edge = |n: PlanNodeId| -> Option<PlanEdgeId> {
        let spec = r.nodes[n].spawn_spec();
        spec.stdout_output.map(|j| r.nodes[n].outputs[j])
    };
    match kind {
        FaultKind::KillWorker | FaultKind::SpawnFail | FaultKind::SpawnDelay => {
            let nodes: Vec<PlanNodeId> = r
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| matches!(n.op, PlanOp::Exec { .. }))
                .map(|(i, _)| i)
                .collect();
            if nodes.is_empty() {
                return None;
            }
            let n = nodes[(splitmix64(seed) % nodes.len() as u64) as usize];
            Some((Some(n), stdout_edge(n)))
        }
        FaultKind::Truncate | FaultKind::Corrupt => {
            let edges: Vec<(PlanNodeId, PlanEdgeId)> = r
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| matches!(n.op, PlanOp::Exec { framed: true, .. }))
                .filter_map(|(i, _)| stdout_edge(i).map(|e| (i, e)))
                .collect();
            if edges.is_empty() {
                return None;
            }
            let (n, e) = edges[(splitmix64(seed) % edges.len() as u64) as usize];
            Some((Some(n), Some(e)))
        }
        FaultKind::Stall => {
            let edges: Vec<(PlanNodeId, PlanEdgeId)> = r
                .nodes
                .iter()
                .enumerate()
                .filter_map(|(i, _)| stdout_edge(i).map(|e| (i, e)))
                .filter(|&(_, e)| r.edges[e].kind == pash_core::plan::EndpointKind::Pipe)
                .collect();
            if edges.is_empty() {
                return None;
            }
            let (n, e) = edges[(splitmix64(seed) % edges.len() as u64) as usize];
            Some((Some(n), Some(e)))
        }
        FaultKind::MkfifoFail => {
            let edges: Vec<PlanEdgeId> = r.internal_pipes().collect();
            if edges.is_empty() {
                return None;
            }
            let e = edges[(splitmix64(seed) % edges.len() as u64) as usize];
            Some((None, Some(e)))
        }
        // Remote kinds target the coordinator↔worker connection; the
        // local backends have no such site, so sweeping them over
        // `FaultKind::ALL` is a clean no-op (see
        // [`FaultPlan::arm_remote`]).
        FaultKind::ConnDrop | FaultKind::SlowWorker | FaultKind::TornFrame => None,
    }
}

/// A fault armed against one region attempt: a concrete target plus
/// resolved offsets.
#[derive(Debug, Clone)]
pub struct ArmedFault {
    /// What goes wrong.
    pub kind: FaultKind,
    /// Target node (worker/spawn/stream faults).
    pub node: Option<PlanNodeId>,
    /// Target edge (stream/edge-setup faults).
    pub edge: Option<PlanEdgeId>,
    /// Byte offset for stream faults.
    pub offset: u64,
    /// Spawn delay for [`FaultKind::SpawnDelay`].
    pub delay: Duration,
    /// Stall duration for [`FaultKind::Stall`].
    pub stall: Duration,
    /// Cancels in-flight stalls (deadline watchdog).
    pub cancel: CancelToken,
}

impl ArmedFault {
    /// Whether this fault wraps the target node's output stream (the
    /// kinds [`FaultyWriter`] delivers).
    pub fn is_stream_fault(&self) -> bool {
        matches!(
            self.kind,
            FaultKind::KillWorker | FaultKind::Truncate | FaultKind::Corrupt | FaultKind::Stall
        )
    }

    /// The `PASH_FAULT` spec the process backend sets on the armed
    /// child: `kind:offset[:millis]`, parsed by the multicall (see
    /// [`parse_env_spec`]).
    pub fn env_spec(&self) -> Option<String> {
        match self.kind {
            FaultKind::KillWorker => Some(format!("die:{}", self.offset)),
            FaultKind::Truncate => Some(format!("trunc:{}", self.offset)),
            FaultKind::Corrupt => Some(format!("corrupt:{}", self.offset)),
            FaultKind::Stall => Some(format!("stall:{}:{}", self.offset, self.stall.as_millis())),
            _ => None,
        }
    }

    /// The writer-level mode for this fault, if it is a stream fault.
    pub fn writer_mode(&self) -> Option<FaultMode> {
        match self.kind {
            FaultKind::KillWorker => Some(FaultMode::Die { at: self.offset }),
            FaultKind::Truncate => Some(FaultMode::Truncate { at: self.offset }),
            FaultKind::Corrupt => Some(FaultMode::Corrupt { at: self.offset }),
            FaultKind::Stall => Some(FaultMode::Stall {
                at: self.offset,
                dur: self.stall,
                cancel: self.cancel.clone(),
            }),
            _ => None,
        }
    }
}

/// Parses a `PASH_FAULT` spec (`die:N`, `trunc:N`, `corrupt:N`,
/// `stall:N:MS`) into a writer mode. Unknown or malformed specs are
/// ignored (`None`) — the injection plane must never break a clean
/// run.
pub fn parse_env_spec(spec: &str) -> Option<FaultMode> {
    let mut parts = spec.split(':');
    let kind = parts.next()?;
    let at: u64 = parts.next()?.parse().ok()?;
    match kind {
        "die" => Some(FaultMode::Die { at }),
        "trunc" => Some(FaultMode::Truncate { at }),
        "corrupt" => Some(FaultMode::Corrupt { at }),
        "stall" => {
            let ms: u64 = parts.next()?.parse().ok()?;
            Some(FaultMode::Stall {
                at,
                dur: Duration::from_millis(ms),
                cancel: CancelToken::new(),
            })
        }
        _ => None,
    }
}

/// What a [`FaultyWriter`] does at its trigger offset.
#[derive(Debug, Clone)]
pub enum FaultMode {
    /// Report an injected death (threads) / abort the process
    /// (multicall) once `at` bytes have passed.
    Die {
        /// Trigger offset in bytes.
        at: u64,
    },
    /// Swallow all bytes past `at`, claiming success.
    Truncate {
        /// Trigger offset in bytes.
        at: u64,
    },
    /// XOR every byte from `at` on with a fixed mask.
    Corrupt {
        /// Trigger offset in bytes.
        at: u64,
    },
    /// Sleep `dur` (cancellably) once `at` bytes have passed, then
    /// continue normally.
    Stall {
        /// Trigger offset in bytes.
        at: u64,
        /// How long the stall lasts.
        dur: Duration,
        /// Cancelled by the deadline watchdog.
        cancel: CancelToken,
    },
}

/// The XOR mask corruption applies.
const CORRUPT_MASK: u8 = 0xA5;

/// A writer that injects its fault mode at a byte offset, passing
/// everything else through.
pub struct FaultyWriter<W> {
    inner: W,
    mode: FaultMode,
    written: u64,
    stalled: bool,
    died: bool,
    /// `abort` on trigger instead of returning an error — the
    /// multicall (child-process) delivery of [`FaultMode::Die`].
    abort_on_die: bool,
}

impl<W: Write> FaultyWriter<W> {
    /// Wraps `inner`, delivering errors in-process (the threaded
    /// backend).
    pub fn new(inner: W, mode: FaultMode) -> FaultyWriter<W> {
        FaultyWriter {
            inner,
            mode,
            written: 0,
            stalled: false,
            died: false,
            abort_on_die: false,
        }
    }

    /// Wraps `inner` for a child process: `Die` aborts the process
    /// (SIGABRT) instead of returning an error, modelling a worker
    /// crash the parent only sees as a wait status.
    pub fn new_abort(inner: W, mode: FaultMode) -> FaultyWriter<W> {
        FaultyWriter {
            inner,
            mode,
            written: 0,
            stalled: false,
            died: false,
            abort_on_die: true,
        }
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match &self.mode {
            FaultMode::Die { at } => {
                // The death is sticky and must NOT be `Interrupted`:
                // `write_all`/`io::copy` transparently retry that
                // kind, which would both spin forever and re-write
                // the pre-death prefix once per retry (unbounded
                // growth on Vec-backed edges).
                if self.died {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "injected worker death",
                    ));
                }
                if self.written + buf.len() as u64 > *at {
                    let room = (*at - self.written) as usize;
                    self.inner.write_all(&buf[..room])?;
                    self.written += room as u64;
                    let _ = self.inner.flush();
                    self.died = true;
                    if self.abort_on_die {
                        std::process::abort();
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "injected worker death",
                    ));
                }
                let n = self.inner.write(buf)?;
                self.written += n as u64;
                Ok(n)
            }
            FaultMode::Truncate { at } => {
                if self.written >= *at {
                    // Swallow, claiming success: the silent-loss shape.
                    self.written += buf.len() as u64;
                    return Ok(buf.len());
                }
                let room = ((*at - self.written) as usize).min(buf.len());
                self.inner.write_all(&buf[..room])?;
                self.written += buf.len() as u64;
                Ok(buf.len())
            }
            FaultMode::Corrupt { at } => {
                let mut data = buf.to_vec();
                for (i, b) in data.iter_mut().enumerate() {
                    if self.written + i as u64 >= *at {
                        *b ^= CORRUPT_MASK;
                    }
                }
                self.inner.write_all(&data)?;
                self.written += data.len() as u64;
                Ok(buf.len())
            }
            FaultMode::Stall { at, dur, cancel } => {
                if !self.stalled && self.written + buf.len() as u64 > *at {
                    self.stalled = true;
                    cancel.sleep(*dur);
                }
                let n = self.inner.write(buf)?;
                self.written += n as u64;
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pash_core::compile::{compile, PashConfig};
    use pash_core::plan::PlanStep;

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
    fn arm_is_deterministic_and_budgeted() {
        let r = region("cat in.txt | tr A-Z a-z | grep x > out.txt", 4);
        let plan = FaultPlan::new(FaultKind::KillWorker, 42);
        let a = plan.arm(&r).expect("armed");
        // Budget 1: the second arm is a no-op.
        assert!(plan.arm(&r).is_none());
        let again = FaultPlan::new(FaultKind::KillWorker, 42)
            .arm(&r)
            .expect("armed");
        assert_eq!(a.node, again.node);
        assert_eq!(a.edge, again.edge);
        // Different seeds may pick different sites, but always an
        // Exec node.
        for seed in 0..16 {
            let a = FaultPlan::new(FaultKind::KillWorker, seed)
                .arm(&r)
                .expect("armed");
            let n = a.node.expect("node target");
            assert!(matches!(r.nodes[n].op, PlanOp::Exec { .. }));
        }
    }

    #[test]
    fn corrupt_targets_framed_edges_only() {
        // Segment-split plans have no framed edges: nothing to arm.
        let r = region("cat in.txt | tr A-Z a-z | grep x > out.txt", 4);
        assert!(FaultPlan::new(FaultKind::Corrupt, 1).arm(&r).is_none());
        // Round-robin plans do.
        let compiled = compile(
            "cat in.txt | tr A-Z a-z | grep x > out.txt",
            &PashConfig::round_robin(4),
        )
        .expect("compile");
        let rr = compiled
            .plan
            .steps
            .iter()
            .find_map(|s| match s {
                PlanStep::Region(r) => Some(r.clone()),
                _ => None,
            })
            .expect("region");
        let a = FaultPlan::new(FaultKind::Corrupt, 1)
            .arm(&rr)
            .expect("armed");
        let n = a.node.expect("producer node");
        assert!(matches!(rr.nodes[n].op, PlanOp::Exec { framed: true, .. }));
        // Default corrupt offset lands inside the 4-byte frame magic.
        assert!(a.offset < 4, "offset {} not in the magic", a.offset);
    }

    #[test]
    fn remote_kinds_arm_only_remotely() {
        let r = region("cat in.txt | tr A-Z a-z | grep x > out.txt", 4);
        for kind in [
            FaultKind::ConnDrop,
            FaultKind::SlowWorker,
            FaultKind::TornFrame,
        ] {
            // No eligible site on the local backends.
            assert!(FaultPlan::new(kind, 3).arm(&r).is_none());
            let a = FaultPlan::new(kind, 3).arm_remote(&r).expect("armed");
            assert_eq!(a.kind, kind);
            assert!(a.node.is_some(), "connection fault attributes a node");
        }
        // The torn-frame default offset lands at the reply's head.
        let a = FaultPlan::new(FaultKind::TornFrame, 5)
            .arm_remote(&r)
            .expect("armed");
        assert!((2..16).contains(&a.offset), "offset {}", a.offset);
        // Local kinds pass through arm(), sharing the budget.
        let p = FaultPlan::new(FaultKind::KillWorker, 7);
        assert!(p.arm_remote(&r).is_some());
        assert!(p.arm_remote(&r).is_none());
        // Name round-trip covers the new kinds.
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(kind.name()), Some(kind));
        }
    }

    #[test]
    fn faulty_writer_truncates_and_corrupts() {
        let mut buf = Vec::new();
        {
            let mut w = FaultyWriter::new(&mut buf, FaultMode::Truncate { at: 4 });
            assert_eq!(w.write(b"abcdefgh").expect("write"), 8);
            assert_eq!(w.write(b"ij").expect("write"), 2);
        }
        assert_eq!(buf, b"abcd");

        let mut buf = Vec::new();
        {
            let mut w = FaultyWriter::new(&mut buf, FaultMode::Corrupt { at: 2 });
            w.write_all(b"abcd").expect("write");
        }
        assert_eq!(&buf[..2], b"ab");
        assert_eq!(buf[2], b'c' ^ CORRUPT_MASK);
        assert_eq!(buf[3], b'd' ^ CORRUPT_MASK);
    }

    #[test]
    fn faulty_writer_dies_at_offset() {
        let mut buf = Vec::new();
        let mut w = FaultyWriter::new(&mut buf, FaultMode::Die { at: 3 });
        let err = w.write(b"abcdef").expect_err("must die");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        // A retrying caller (`write_all` semantics) sees the sticky
        // death, and the prefix is NOT re-written.
        let err = w.write(b"abcdef").expect_err("stays dead");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        drop(w);
        assert_eq!(buf, b"abc");
    }

    #[test]
    fn env_spec_roundtrips() {
        // Round-robin so framed edges exist for the Truncate arm.
        let compiled = compile(
            "cat in.txt | tr A-Z a-z > out.txt",
            &PashConfig::round_robin(2),
        )
        .expect("compile");
        let r = compiled
            .plan
            .steps
            .iter()
            .find_map(|s| match s {
                PlanStep::Region(r) => Some(r.clone()),
                _ => None,
            })
            .expect("region");
        for kind in [FaultKind::KillWorker, FaultKind::Truncate, FaultKind::Stall] {
            let a = FaultPlan::new(kind, 9).arm(&r).expect("armed");
            let spec = a.env_spec().expect("spec");
            assert!(parse_env_spec(&spec).is_some(), "{spec}");
        }
        assert!(parse_env_spec("nonsense").is_none());
        assert!(parse_env_spec("die:notanumber").is_none());
    }

    #[test]
    fn classification_follows_error_kind() {
        assert!(
            ExecError::classify("edge", io::Error::new(io::ErrorKind::InvalidData, "x"))
                .is_transient()
        );
        assert!(
            !ExecError::classify("edge", io::Error::new(io::ErrorKind::NotFound, "x"))
                .is_transient()
        );
        let e = ExecError::transient("spawn", io::Error::new(io::ErrorKind::Other, "boom"))
            .at_node(3)
            .at_edge(7);
        let s = e.to_string();
        assert!(s.contains("node 3") && s.contains("edge 7"), "{s}");
    }

    #[test]
    fn cancel_token_cuts_stall_short() {
        let t = CancelToken::new();
        t.cancel();
        let start = std::time::Instant::now();
        t.sleep(Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
