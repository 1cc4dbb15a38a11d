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
//! * [`ArmedFault`]'s delivery calls — one per site, so a runner
//!   never asks which kind it holds: [`ArmedFault::before_spawn`],
//!   [`ArmedFault::before_wiring`] and [`ArmedFault::wrap`], the last
//!   a [`FaultyWriter`] that truncates, corrupts, stalls, or kills at
//!   a byte offset. An armed fault travels as its one text form: the
//!   process backend sets it on the armed child as `PASH_FAULT` (the
//!   multicall wraps its own stdout), and the remote backend ships it
//!   to the worker inside the `Execute` request.
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

use pash_core::plan::{EndpointKind, PlanEdgeId, PlanNodeId, PlanOp, RegionPlan};

use crate::wire::bad_data;

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

    /// Arms the fault against one region attempt: picks the target
    /// site by seeded hash and decrements the budget. `connection`
    /// says whether the attempt crosses a coordinator↔worker
    /// connection (the `remote` runner), the only place the remote
    /// kinds have a site. `None` when the budget is spent or the
    /// region has no eligible site (e.g. a corruption fault on a plan
    /// with no framed edges, or a remote kind on a local backend).
    pub fn arm(&self, r: &RegionPlan, connection: bool) -> Option<ArmedFault> {
        let (node, edge) = pick_site(self.kind, self.seed, r, connection)?;
        self.claim_budget()?;
        let sm = splitmix64(self.seed);
        let offset = self.offset.unwrap_or(match self.kind {
            // Mid-header: a truncated frame header is always detected;
            // inside the reply's length prefix or just past it, a tear
            // always lands.
            FaultKind::Truncate | FaultKind::TornFrame => (sm % 12).max(2),
            // Within the 4-byte magic: corruption is always detected.
            FaultKind::Corrupt => sm % 4,
            // Inside the request's length prefix or just past it: the
            // worker always sees a malformed request.
            FaultKind::ConnDrop => (sm % 64).max(1),
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

/// A fault site: the target node and edge.
type Site = (Option<PlanNodeId>, Option<PlanEdgeId>);

/// Picks the target site for `kind` in `r`, seeded: one eligibility
/// test per kind over the candidates in plan order, then one seeded
/// pick.
///
/// Eligibility keeps the differential guarantee checkable:
///
/// * worker/spawn faults target `Exec` nodes (real commands — the
///   things that die in deployments), with the edge their stdout
///   feeds;
/// * truncation/corruption target *framed* edges only, where the
///   frame magic/length checks make the damage detectable; silent
///   raw-byte damage is indistinguishable from legitimate output and
///   no supervisor could catch it;
/// * stalls target internal pipe edges fed by a node's stdout (so
///   the process backend can deliver them by wrapping that stdout);
/// * mkfifo faults target internal pipe edges;
/// * remote kinds target the coordinator↔worker connection, which
///   only `connection` attempts have, and are attributed to a seeded
///   `Exec` node. The local backends have no such site, so sweeping
///   them over [`FaultKind::ALL`] is a clean no-op.
fn pick_site(kind: FaultKind, seed: u64, r: &RegionPlan, connection: bool) -> Option<Site> {
    let sites: Vec<Site> = if kind == FaultKind::MkfifoFail {
        r.internal_pipes().map(|e| (None, Some(e))).collect()
    } else {
        (0..r.nodes.len())
            .filter_map(|n| {
                let node = &r.nodes[n];
                let exec = matches!(node.op, PlanOp::Exec { .. });
                // The edge the node's stdout feeds, if any.
                let out = node.spawn_spec().stdout_output.map(|j| node.outputs[j]);
                let site = match kind {
                    FaultKind::KillWorker | FaultKind::SpawnFail | FaultKind::SpawnDelay => {
                        exec.then_some(out)
                    }
                    FaultKind::Truncate | FaultKind::Corrupt => out
                        .filter(|_| matches!(node.op, PlanOp::Exec { framed: true, .. }))
                        .map(Some),
                    FaultKind::Stall => out
                        .filter(|&e| r.edges[e].kind == EndpointKind::Pipe)
                        .map(Some),
                    FaultKind::ConnDrop | FaultKind::SlowWorker | FaultKind::TornFrame => {
                        (connection && exec).then_some(None)
                    }
                    // Edge sites, collected above.
                    FaultKind::MkfifoFail => None,
                };
                site.map(|edge| (Some(n), edge))
            })
            .collect()
    };
    let at = splitmix64(seed).checked_rem(sites.len() as u64)?;
    Some(sites[at as usize])
}

/// A fault armed against one region attempt: a concrete target plus
/// resolved offsets.
///
/// It has one text form, which is how it travels: the `PASH_FAULT`
/// value a `processes` child reads and the spec an `Execute` request
/// ships to a worker. The form is
///
/// ```text
/// KIND:NODE:EDGE:OFFSET:DELAY_MS:STALL_MS      e.g. stall:3:5:12:20:1500
/// ```
///
/// with `KIND` a [`FaultKind::name`], `-` for an absent node or edge,
/// and the two durations in whole milliseconds. The cancel token does
/// not travel: a parsed fault gets a fresh one.
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
    /// Delivery before node `node` is spawned: an injected spawn
    /// failure, or a spawn delay slept out here. A no-op for every
    /// other node and kind.
    pub fn before_spawn(&self, node: PlanNodeId) -> io::Result<()> {
        if self.node != Some(node) {
            return Ok(());
        }
        match self.kind {
            FaultKind::SpawnFail => Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected spawn failure",
            )),
            FaultKind::SpawnDelay => {
                std::thread::sleep(self.delay);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Delivery before edge `edge` is wired (a FIFO made, an
    /// in-process pipe built): an injected failure to create it. A
    /// no-op for every other edge and kind.
    pub fn before_wiring(&self, edge: PlanEdgeId) -> io::Result<()> {
        if self.kind == FaultKind::MkfifoFail && self.edge == Some(edge) {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected edge wiring failure",
            ));
        }
        Ok(())
    }

    /// Delivery on the target edge's writer: wraps `inner` so the
    /// stream kinds fire at their byte offset; any other kind passes
    /// every byte through. With `abort_on_death` an injected death
    /// aborts the process (SIGABRT) instead of returning an error —
    /// a child process's crash, which its parent sees only as a wait
    /// status. Which writer is the target's is the caller's to know.
    pub fn wrap<W: Write>(&self, inner: W, abort_on_death: bool) -> FaultyWriter<W> {
        FaultyWriter {
            inner,
            fault: self.clone(),
            written: 0,
            fired: false,
            abort_on_death,
        }
    }
}

impl fmt::Display for ArmedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let site = |id: Option<usize>| id.map_or("-".to_string(), |i| i.to_string());
        write!(
            f,
            "{}:{}:{}:{}:{}:{}",
            self.kind.name(),
            site(self.node),
            site(self.edge),
            self.offset,
            self.delay.as_millis(),
            self.stall.as_millis()
        )
    }
}

impl std::str::FromStr for ArmedFault {
    type Err = io::Error;

    /// Parses the text form [`ArmedFault`]'s `Display` writes.
    fn from_str(spec: &str) -> io::Result<ArmedFault> {
        let bad = || bad_data(format!("bad fault spec {spec:?}"));
        let fields: Vec<&str> = spec.split(':').collect();
        let &[kind, node, edge, offset, delay, stall] = &fields[..] else {
            return Err(bad());
        };
        let number = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let site = |s: &str| match s {
            "-" => Ok(None),
            s => s.parse::<usize>().map(Some).map_err(|_| bad()),
        };
        Ok(ArmedFault {
            kind: FaultKind::from_name(kind).ok_or_else(bad)?,
            node: site(node)?,
            edge: site(edge)?,
            offset: number(offset)?,
            delay: Duration::from_millis(number(delay)?),
            stall: Duration::from_millis(number(stall)?),
            cancel: CancelToken::new(),
        })
    }
}

/// The XOR mask corruption applies.
const CORRUPT_MASK: u8 = 0xA5;

/// A writer that injects its fault at a byte offset, passing
/// everything else through ([`ArmedFault::wrap`] makes one).
pub struct FaultyWriter<W> {
    inner: W,
    fault: ArmedFault,
    written: u64,
    /// A death or a stall has happened (both fire once).
    fired: bool,
    abort_on_death: bool,
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let at = self.fault.offset;
        let crosses = self.written + buf.len() as u64 > at;
        match self.fault.kind {
            FaultKind::KillWorker => {
                // The death is sticky and must NOT be `Interrupted`:
                // `write_all`/`io::copy` transparently retry that
                // kind, which would both spin forever and re-write
                // the pre-death prefix once per retry (unbounded
                // growth on Vec-backed edges).
                let death =
                    || io::Error::new(io::ErrorKind::ConnectionAborted, "injected worker death");
                if self.fired {
                    return Err(death());
                }
                if crosses {
                    let room = (at - self.written) as usize;
                    self.inner.write_all(&buf[..room])?;
                    self.written += room as u64;
                    let _ = self.inner.flush();
                    self.fired = true;
                    if self.abort_on_death {
                        std::process::abort();
                    }
                    return Err(death());
                }
            }
            FaultKind::Truncate => {
                // Past the offset: swallow, claiming success — the
                // silent-loss shape.
                let room = at.saturating_sub(self.written).min(buf.len() as u64) as usize;
                self.inner.write_all(&buf[..room])?;
                self.written += buf.len() as u64;
                return Ok(buf.len());
            }
            FaultKind::Corrupt => {
                let mut data = buf.to_vec();
                for (i, b) in data.iter_mut().enumerate() {
                    if self.written + i as u64 >= at {
                        *b ^= CORRUPT_MASK;
                    }
                }
                self.inner.write_all(&data)?;
                self.written += data.len() as u64;
                return Ok(buf.len());
            }
            FaultKind::Stall if crosses && !self.fired => {
                self.fired = true;
                self.fault.cancel.sleep(self.fault.stall);
            }
            _ => {}
        }
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
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

    /// A fault of `kind` at `offset` on node 0, as a writer test
    /// needs it.
    fn armed(kind: FaultKind, offset: u64) -> ArmedFault {
        ArmedFault {
            kind,
            node: Some(0),
            edge: None,
            offset,
            delay: Duration::ZERO,
            stall: Duration::ZERO,
            cancel: CancelToken::new(),
        }
    }

    #[test]
    fn arm_is_deterministic_and_budgeted() {
        let r = region("cat in.txt | tr A-Z a-z | grep x > out.txt", 4);
        let plan = FaultPlan::new(FaultKind::KillWorker, 42);
        let a = plan.arm(&r, false).expect("armed");
        // Budget 1: the second arm is a no-op.
        assert!(plan.arm(&r, false).is_none());
        let again = FaultPlan::new(FaultKind::KillWorker, 42)
            .arm(&r, false)
            .expect("armed");
        assert_eq!(a.node, again.node);
        assert_eq!(a.edge, again.edge);
        // Different seeds may pick different sites, but always an
        // Exec node.
        for seed in 0..16 {
            let a = FaultPlan::new(FaultKind::KillWorker, seed)
                .arm(&r, false)
                .expect("armed");
            let n = a.node.expect("node target");
            assert!(matches!(r.nodes[n].op, PlanOp::Exec { .. }));
        }
    }

    #[test]
    fn corrupt_targets_framed_edges_only() {
        // Segment-split plans have no framed edges: nothing to arm.
        let r = region("cat in.txt | tr A-Z a-z | grep x > out.txt", 4);
        assert!(FaultPlan::new(FaultKind::Corrupt, 1)
            .arm(&r, false)
            .is_none());
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
            .arm(&rr, false)
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
            assert!(FaultPlan::new(kind, 3).arm(&r, false).is_none());
            let a = FaultPlan::new(kind, 3).arm(&r, true).expect("armed");
            assert_eq!(a.kind, kind);
            assert!(a.node.is_some(), "connection fault attributes a node");
        }
        // The torn-frame default offset lands at the reply's head.
        let a = FaultPlan::new(FaultKind::TornFrame, 5)
            .arm(&r, true)
            .expect("armed");
        assert!((2..16).contains(&a.offset), "offset {}", a.offset);
        // Local kinds arm the same over a connection, sharing the
        // budget.
        let p = FaultPlan::new(FaultKind::KillWorker, 7);
        let remote = p.arm(&r, true).expect("armed").to_string();
        let local = FaultPlan::new(FaultKind::KillWorker, 7).arm(&r, false);
        assert_eq!(remote, local.expect("armed").to_string());
        assert!(p.arm(&r, true).is_none());
        // Name round-trip covers the new kinds.
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(kind.name()), Some(kind));
        }
    }

    #[test]
    fn delivery_fires_only_at_the_armed_site() {
        let fail = armed(FaultKind::SpawnFail, 0);
        let err = fail.before_spawn(0).expect_err("armed node");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        fail.before_spawn(1).expect("another node");
        fail.before_wiring(0).expect("not an edge fault");
        let mkfifo = ArmedFault {
            node: None,
            edge: Some(2),
            ..armed(FaultKind::MkfifoFail, 0)
        };
        mkfifo.before_wiring(2).expect_err("armed edge");
        mkfifo.before_wiring(3).expect("another edge");
        mkfifo.before_spawn(0).expect("not a spawn fault");
        // A kind with no stream delivery passes every byte through.
        let mut buf = Vec::new();
        armed(FaultKind::SpawnDelay, 0)
            .wrap(&mut buf, true)
            .write_all(b"abc")
            .expect("write");
        assert_eq!(buf, b"abc");
    }

    #[test]
    fn faulty_writer_truncates_and_corrupts() {
        let mut buf = Vec::new();
        {
            let mut w = armed(FaultKind::Truncate, 4).wrap(&mut buf, false);
            assert_eq!(w.write(b"abcdefgh").expect("write"), 8);
            assert_eq!(w.write(b"ij").expect("write"), 2);
        }
        assert_eq!(buf, b"abcd");

        let mut buf = Vec::new();
        {
            let mut w = armed(FaultKind::Corrupt, 2).wrap(&mut buf, false);
            w.write_all(b"abcd").expect("write");
        }
        assert_eq!(&buf[..2], b"ab");
        assert_eq!(buf[2], b'c' ^ CORRUPT_MASK);
        assert_eq!(buf[3], b'd' ^ CORRUPT_MASK);
    }

    #[test]
    fn faulty_writer_dies_at_offset() {
        let mut buf = Vec::new();
        let mut w = armed(FaultKind::KillWorker, 3).wrap(&mut buf, false);
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
        let r = compiled.plan.regions().next().expect("region").clone();
        let fields = |a: &ArmedFault| (a.kind, a.node, a.edge, a.offset, a.delay, a.stall);
        for kind in FaultKind::ALL {
            let a = FaultPlan::new(kind, 9)
                .delay(Duration::from_millis(7))
                .stall(Duration::from_millis(1500))
                .arm(&r, true)
                .expect("armed");
            let spec = a.to_string();
            assert!(spec.starts_with(&format!("{}:", kind.name())), "{spec}");
            let back: ArmedFault = spec.parse().expect(&spec);
            assert_eq!(fields(&back), fields(&a), "{spec}");
        }
        let back: ArmedFault = "stall:-:4:12:20:1500".parse().expect("spec");
        assert_eq!(
            fields(&back),
            (
                FaultKind::Stall,
                None,
                Some(4),
                12,
                Duration::from_millis(20),
                Duration::from_millis(1500)
            )
        );
        for bad in [
            "nonsense",
            "stall:-:4:x:20:1500",
            "stall:-:4:12:20",
            "stall:-:4:12:20:1500:9",
            "die:4",
            "",
        ] {
            assert!(bad.parse::<ArmedFault>().is_err(), "{bad:?} parsed");
        }
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
