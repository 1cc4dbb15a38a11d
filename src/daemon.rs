//! `pashd` — the persistent compile-and-run daemon.
//!
//! The runtime's [`crate::runtime::service`] module supplies the
//! mechanism (protocol, admission, metrics); this module supplies the
//! policy: how a [`RunRequest`] becomes a compiled [`RunHandle`] and
//! how a run executes in isolation.
//!
//! **Plan cache.** One tier: the process-wide `compile_cached` LRU,
//! keyed by `"{cfg.cache_key()}\0{src}"`. The one lookup of a request's
//! plan ([`compile_cached_hit`]) tells a hit ([`CacheTier::Memory`])
//! from a miss ([`CacheTier::Cold`], which compiles and populates it).
//! A compile costs tens of microseconds — less than reading a stored
//! plan back — so nothing about plans is kept on disk; a restarted
//! daemon recompiles on first sight.
//!
//! **Cache directory.** What does survive a restart is what was
//! *measured*. The [`ProfileStore`] of per-command rates lives in
//! memory while the daemon serves — a request records into it without
//! touching the disk — and with `cache_dir` set [`serve`] writes it as
//! one snapshot under `<cache_dir>/profiles` once the drain has
//! completed, for the next process to load. A daemon that is killed
//! instead of stopped restarts cold and re-learns. Nothing picks a
//! plan from the profiles yet: every request names its width (at
//! least 1) and split, and a width of 0 is refused.
//!
//! **Isolation.** The daemon owns a *template* [`MemFs`] seeded over
//! the socket (`PutFile`). Every run executes against
//! [`MemFs::snapshot`] of the template — `Arc`-shared contents,
//! independent tree — so concurrent runs never observe each other's
//! writes. Files a run created or modified (detected by `Arc` pointer
//! identity, no byte comparisons) are returned in the response.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::core::compile::{compile_cached, compile_cached_hit, PashConfig};
use crate::coreutils::fs::MemFs;
use crate::coreutils::Registry;
use crate::runtime::profile::ProfileStore;
use crate::runtime::service::{
    self, CacheTier, Request, Response, RunRequest, RunResponse, ServiceMetrics, ServiceSettings,
};
use crate::runtime::supervise::SupervisorSettings;
use crate::{BackendOutput, RunEnv, RunError, RunHandle};

/// Daemon construction parameters.
pub struct DaemonConfig {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Where measured profiles persist (`<cache_dir>/profiles`);
    /// `None` keeps them in memory only.
    pub cache_dir: Option<PathBuf>,
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
            cache_dir: None,
            max_concurrent_runs: 2,
            supervisor: SupervisorSettings::default(),
            workers: Vec::new(),
        }
    }
}

/// The daemon's shared state: the template filesystem and the
/// profile store. One instance serves every connection.
pub struct Daemon {
    template: MemFs,
    registry: Registry,
    supervisor: SupervisorSettings,
    workers: Vec<PathBuf>,
    metrics: Arc<ServiceMetrics>,
    /// Measured per-command rates, recorded by every run. In memory;
    /// [`serve`] saves it under the cache directory on the way out.
    profile: Arc<ProfileStore>,
}

impl Daemon {
    /// Builds daemon state (opening the profile store if configured).
    pub fn new(cfg: &DaemonConfig) -> io::Result<Daemon> {
        let profile = match &cfg.cache_dir {
            Some(dir) => ProfileStore::open(&dir.join("profiles"))?,
            None => ProfileStore::in_memory(),
        };
        Ok(Daemon {
            template: MemFs::new(),
            registry: Registry::standard(),
            supervisor: cfg.supervisor.clone(),
            workers: cfg.workers.clone(),
            metrics: Arc::new(ServiceMetrics::new(cfg.supervisor.counters.clone())),
            profile: Arc::new(profile),
        })
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

    /// Resolves a script through the plan cache to a runnable handle,
    /// one lookup per plan: the plan's lookup also names the tier that
    /// served it, and the width-1 fallback rides the same memo.
    fn lookup(
        script: &str,
        cfg: &PashConfig,
        want_fallback: bool,
    ) -> Result<(RunHandle, CacheTier), RunError> {
        let (plan, hit) = compile_cached_hit(script, cfg).map_err(RunError::Compile)?;
        let fallback = if want_fallback {
            compile_cached(script, &cfg.sequential()).ok()
        } else {
            None
        };
        let tier = if hit {
            CacheTier::Memory
        } else {
            CacheTier::Cold
        };
        Ok((RunHandle::from_compiled(plan, fallback), tier))
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
        let want_fallback = cfg.width != 1
            && self.supervisor.fallback
            && matches!(req.backend.as_str(), "threads" | "processes" | "remote");
        let (handle, tier) = match Self::lookup(&req.script, &cfg, want_fallback) {
            Ok(x) => x,
            Err(e) => return Response::Error(e.to_string()),
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
                profile: Some(self.profile.clone()),
                ..Default::default()
            },
            proc: crate::ProcSettings {
                supervisor: self.supervisor.clone(),
                profile: Some(self.profile.clone()),
                ..Default::default()
            },
        };
        let out = handle.execute(&req.backend, &env);
        self.metrics
            .profile_regions
            .store(self.profile.regions() as u64, Ordering::Relaxed);
        let out = match out {
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
            files: changed_files(&self.template, env.fs),
        })
    }
}

/// Files in `run` that `template` lacks or holds different contents
/// for — by `Arc` pointer identity, so unchanged corpus files cost
/// nothing per request. The run's snapshot is dropped first, so a
/// written file's bytes are moved into the reply; they are copied
/// only if something else still shares them.
fn changed_files(template: &MemFs, run: Arc<MemFs>) -> Vec<(String, Vec<u8>)> {
    let base: std::collections::HashMap<String, Arc<Vec<u8>>> =
        template.entries().into_iter().collect();
    let changed: Vec<_> = run
        .entries()
        .into_iter()
        .filter(|(path, contents)| {
            base.get(path)
                .is_none_or(|orig| !Arc::ptr_eq(orig, contents))
        })
        .collect();
    drop(run);
    changed
        .into_iter()
        .map(|(path, contents)| {
            let bytes = Arc::try_unwrap(contents).unwrap_or_else(|shared| shared.as_ref().clone());
            (path, bytes)
        })
        .collect()
}

/// Binds the socket and serves until a `Shutdown` request (SIGTERM
/// sends `pashd` one), then — every connection drained — writes the
/// profile snapshot. This is the blocking entry point both the `pashd`
/// binary and in-process tests use.
pub fn serve(cfg: DaemonConfig) -> io::Result<()> {
    let daemon = Arc::new(Daemon::new(&cfg)?);
    let metrics = daemon.metrics();
    let listener = service::bind(&cfg.socket)?;
    let handler_daemon = daemon.clone();
    let served = service::serve(
        listener,
        &cfg.socket,
        metrics,
        ServiceSettings {
            max_concurrent_runs: cfg.max_concurrent_runs,
        },
        Arc::new(move |req| handler_daemon.handle(req)),
    );
    // Profiles are advisory: losing them costs the next process a cold
    // start, not this one its exit status.
    if let Err(e) = daemon.profile.save() {
        eprintln!("pashd: profile snapshot not saved: {e}");
    }
    served
}
