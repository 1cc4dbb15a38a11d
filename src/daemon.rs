//! `pashd` — the persistent compile-and-run daemon.
//!
//! The runtime's [`crate::runtime::service`] module supplies the
//! mechanism (protocol, admission, metrics); this module supplies the
//! policy: how a [`RunRequest`] becomes a compiled [`RunHandle`] and
//! how a run executes in isolation.
//!
//! **Plan cache.** One tier: the process-wide `compile_cached` LRU,
//! keyed by `"{cfg.cache_key()}\0{src}"`. [`RunHandle::compile`] looks
//! each of a request's plans up once and says whether the plan was a
//! hit ([`CacheTier::Memory`]) or a miss ([`CacheTier::Cold`], which
//! compiles and populates it). A compile costs tens of microseconds —
//! less than reading a stored plan back — so nothing about plans is
//! kept on disk; a restarted daemon recompiles on first sight.
//!
//! **No profiles.** The daemon records nothing about the runs it
//! serves: no [`crate::runtime::profile::ProfileStore`] is attached to
//! a run, and nothing survives a restart. Every request names its
//! width (at least 1) and split, and a width of 0 is refused.
//!
//! **Isolation.** The daemon owns a *template* [`MemFs`] seeded over
//! the socket (`PutFile`). Every run executes against
//! [`MemFs::snapshot`] of the template — `Arc`-shared contents,
//! independent tree — so concurrent runs never observe each other's
//! writes. Files a run created or modified are returned in the
//! response: [`MemFs::changed_since`], the rule a `pash-worker` uses
//! for the files a shipped region wrote, by `Arc` pointer identity
//! with no byte comparisons. Every node opens its own files, whichever
//! backend runs it, so a file a command writes by operand (`tee f`,
//! `uniq IN OUT`) is one of them like an output redirection's.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::core::compile::PashConfig;
use crate::coreutils::fs::MemFs;
use crate::coreutils::Registry;
use crate::runtime::service::{
    self, CacheTier, Request, Response, RunRequest, RunResponse, ServiceMetrics, ServiceSettings,
};
use crate::runtime::supervise::SupervisorSettings;
use crate::{BackendOutput, RunEnv, RunHandle};

/// Daemon construction parameters.
pub struct DaemonConfig {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Admission-control width (runs executing at once).
    pub max_concurrent_runs: usize,
    /// Supervisor settings applied to every run (retries, deadlines,
    /// fault injection, sequential fallback). Daemon-level rather than
    /// per-request: recovery policy belongs to the operator, not the
    /// client.
    pub supervisor: SupervisorSettings,
    /// `pash-worker` sockets for requests selecting the `remote`
    /// backend. Daemon-level for the same reason the supervisor is:
    /// placement is operator topology, not client input.
    pub workers: Vec<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            socket: PathBuf::from("pashd.sock"),
            max_concurrent_runs: 2,
            supervisor: SupervisorSettings::default(),
            workers: Vec::new(),
        }
    }
}

/// The daemon's shared state: the template filesystem and the
/// metrics. One instance serves every connection.
pub struct Daemon {
    template: MemFs,
    registry: Registry,
    supervisor: SupervisorSettings,
    workers: Vec<PathBuf>,
    metrics: Arc<ServiceMetrics>,
}

impl Daemon {
    /// Builds daemon state.
    pub fn new(cfg: &DaemonConfig) -> Daemon {
        Daemon {
            template: MemFs::new(),
            registry: Registry::standard(),
            supervisor: cfg.supervisor.clone(),
            workers: cfg.workers.clone(),
            metrics: Arc::new(ServiceMetrics::new(cfg.supervisor.counters.clone())),
        }
    }

    /// The metrics surface (shared with the server loop).
    pub fn metrics(&self) -> Arc<ServiceMetrics> {
        self.metrics.clone()
    }

    /// Dispatches one decoded request (the server handles `Metrics`
    /// and `Shutdown` itself; `Execute` is `pash-worker`'s verb).
    pub fn handle(&self, req: Request) -> Response {
        match req {
            Request::Run(r) => self.handle_run(r),
            Request::PutFile { path, bytes } => {
                self.template.add(path, bytes);
                Response::Ack
            }
            Request::Execute(_) => Response::Error(
                "pashd does not execute shipped regions; a pash-worker does".to_string(),
            ),
            Request::Metrics | Request::Shutdown => {
                Response::Error("request op is server-handled".to_string())
            }
        }
    }

    fn handle_run(&self, req: RunRequest) -> Response {
        // The caller sets the width; nothing here guesses one.
        if req.width == 0 {
            return Response::Error("width must be at least 1".to_string());
        }
        let snapshot = Arc::new(self.template.snapshot());
        let t0 = Instant::now();
        let cfg = PashConfig {
            width: req.width as usize,
            split: req.split,
            ..Default::default()
        };
        let want_fallback = self.supervisor.fallback
            && matches!(req.backend.as_str(), "threads" | "processes" | "remote");
        let (handle, hit) = match RunHandle::compile(&req.script, &cfg, want_fallback) {
            Ok(x) => x,
            Err(e) => return Response::Error(e.to_string()),
        };
        let tier = if hit {
            CacheTier::Memory
        } else {
            CacheTier::Cold
        };
        let compile_micros = t0.elapsed().as_micros() as u64;
        if tier == CacheTier::Cold {
            // Which rewrites shaped the plan this request compiled.
            let shaped = &handle.plan.stats.nodes;
            let m = &self.metrics;
            m.plan_commuted
                .fetch_add(shaped.commuted as u64, Ordering::Relaxed);
            m.plan_splits_raw_rr
                .fetch_add(shaped.splits_raw_rr as u64, Ordering::Relaxed);
        }
        let env = RunEnv {
            registry: self.registry.clone(),
            fs: snapshot,
            stdin: req.stdin,
            workers: self.workers.clone(),
            exec: crate::runtime::exec::ExecConfig {
                supervisor: self.supervisor.clone(),
                ..Default::default()
            },
            proc: crate::ProcSettings {
                supervisor: self.supervisor.clone(),
                ..Default::default()
            },
        };
        let out = match handle.execute(&req.backend, &env) {
            Ok(o) => o,
            Err(e) => return Response::Error(e.to_string()),
        };
        let (stdout, status) = match out {
            BackendOutput::Execution(o) => (o.stdout, o.status),
            BackendOutput::Script(s) => (s.into_bytes(), 0),
        };
        Response::Run(RunResponse {
            status,
            tier,
            compile_micros,
            total_micros: 0, // filled by the server loop
            stdout,
            files: Arc::unwrap_or_clone(env.fs).changed_since(&self.template),
        })
    }
}

/// Binds the socket and serves until a `Shutdown` request (SIGTERM
/// sends `pashd` one) and every connection has drained. This is the
/// blocking entry point both the `pashd` binary and in-process tests
/// use.
pub fn serve(cfg: DaemonConfig) -> io::Result<()> {
    let daemon = Daemon::new(&cfg);
    let metrics = daemon.metrics();
    let listener = service::bind(&cfg.socket)?;
    service::serve(
        listener,
        &cfg.socket,
        metrics,
        ServiceSettings {
            max_concurrent_runs: cfg.max_concurrent_runs,
        },
        Arc::new(move |req| daemon.handle(req)),
    )
}
