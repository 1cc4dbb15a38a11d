//! **pash** — a Rust reproduction of "PaSh: Light-touch Data-Parallel
//! Shell Processing" (EuroSys 2021).
//!
//! PaSh takes a POSIX shell script, lifts its parallelizable regions
//! into an order-aware dataflow graph, applies semantics-preserving
//! transformations that expose data parallelism, lowers the result to
//! a backend-neutral execution plan, and hands that plan to a
//! pluggable execution backend — the POSIX-script emitter, the
//! in-process threaded executor, real child processes over FIFOs, or
//! `pash-worker` daemons over sockets.
//!
//! This crate re-exports the workspace:
//!
//! * [`core`] — classes, annotations, DFG, transformations, compiler,
//!   the [`core::plan`] IR and the `shell` backend;
//! * [`parser`] — the POSIX shell front-end;
//! * [`coreutils`] — from-scratch command implementations;
//! * [`runtime`] — runtime primitives, the runtime I/O layer, the
//!   `threads` backend, and the `processes` backend (real children
//!   over FIFOs);
//! * [`sim`] — [`core::optimize`]'s byte-flow cost model (max of critical
//!   path and work ÷ cores, plus a cost per node), whose prediction the
//!   benchmark reports beside the measured time (`sim.rel_err`);
//! * [`workloads`] — synthetic input generators;
//! * [`regex`] — the linear-time regex engine.
//!
//! # Examples
//!
//! Compile and run a pipeline at 4× parallelism, hermetically:
//!
//! ```
//! use std::sync::Arc;
//! use pash::core::compile::PashConfig;
//! use pash::coreutils::{fs::MemFs, Registry};
//! use pash::runtime::exec::{run_script, ExecConfig};
//!
//! let fs = Arc::new(MemFs::new());
//! fs.add("in.txt", b"Hello\nworld\nhello\n".to_vec());
//! let out = run_script(
//!     "cat in.txt | tr A-Z a-z | sort | uniq -c",
//!     &PashConfig { width: 4, ..Default::default() },
//!     &Registry::standard(),
//!     fs,
//!     Vec::new(),
//!     &ExecConfig::default(),
//! )
//! .unwrap();
//! assert_eq!(
//!     String::from_utf8(out.stdout).unwrap(),
//!     "      2 hello\n      1 world\n"
//! );
//! ```
//!
//! Or select a backend by name through [`run`]:
//!
//! ```
//! use pash::core::compile::PashConfig;
//! use pash::{run, BackendOutput, RunEnv};
//!
//! let mut env = RunEnv::default();
//! env.fs_mem().add("in.txt", b"b\na\n".to_vec());
//! let cfg = PashConfig { width: 2, ..Default::default() };
//! match run("cat in.txt | sort", &cfg, "threads", &env).unwrap() {
//!     BackendOutput::Execution(out) => assert_eq!(out.stdout, b"a\nb\n"),
//!     other => panic!("unexpected {other:?}"),
//! }
//! match run("cat in.txt | sort", &cfg, "shell", &env).unwrap() {
//!     BackendOutput::Script(s) => assert!(s.contains("#!/bin/sh")),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

pub mod daemon;

pub use pash_core as core;
pub use pash_coreutils as coreutils;
pub use pash_parser as parser;
pub use pash_regex as regex;
pub use pash_runtime as runtime;
pub use pash_workloads as workloads;

/// The cost model of [`core::optimize`], under the paths the benchmark
/// harness imports.
pub mod sim {
    pub use crate::core::optimize::{CostModel, InputSizes, SimConfig};
    pub mod engine {
        pub use crate::core::optimize::simulate_program;
    }
}

use crate::core::backend::{emit_program, EmitConfig};
use crate::core::compile::{compile_cached, compile_cached_hit, Compiled, PashConfig};
use crate::core::plan::ExecutionPlan;
use crate::coreutils::fs::{Fs, MemFs};
use crate::coreutils::Registry;
use crate::runtime::exec::{run_program, ExecConfig, ProgramOutput};
use crate::runtime::proc::run_plan;
pub use crate::runtime::proc::ProcSettings;
use crate::runtime::remote::{run_program_remote, WorkerPool};

/// Compiles a script with the standard annotation library (shorthand
/// for [`core::compile::compile`]).
pub fn compile(
    src: &str,
    cfg: &core::compile::PashConfig,
) -> Result<core::compile::Compiled, core::Error> {
    core::compile::compile(src, cfg)
}

/// The registered execution backends, by selection name.
pub const BACKENDS: &[&str] = &["shell", "threads", "processes", "remote"];

/// Everything a backend might need to run a plan; construct with
/// [`RunEnv::default`] and override what matters.
pub struct RunEnv {
    /// Command implementations for the `threads` backend.
    pub registry: Registry,
    /// Filesystem for the `threads` backend (a [`MemFs`] by default),
    /// and the materialization source/sink for `processes` when no
    /// real root is given.
    pub fs: Arc<MemFs>,
    /// Bytes fed to the program's stdin (`threads`, `processes`,
    /// `remote`).
    pub stdin: Vec<u8>,
    /// Worker socket paths (`remote`). Regions ship to these
    /// `pash-worker` daemons under the supervisor's recovery ladder;
    /// the list must be non-empty to select the `remote` backend.
    pub workers: Vec<PathBuf>,
    /// Executor tuning (`threads`).
    pub exec: ExecConfig,
    /// Real-filesystem and binary settings (`processes`).
    pub proc: ProcSettings,
}

impl Default for RunEnv {
    fn default() -> Self {
        RunEnv {
            registry: Registry::standard(),
            fs: Arc::new(MemFs::new()),
            stdin: Vec::new(),
            workers: Vec::new(),
            exec: ExecConfig::default(),
            proc: ProcSettings::default(),
        }
    }
}

impl RunEnv {
    /// The in-memory filesystem, for seeding inputs and reading
    /// outputs.
    pub fn fs_mem(&self) -> &MemFs {
        &self.fs
    }
}

/// What a backend produced.
#[derive(Debug)]
pub enum BackendOutput {
    /// The `shell` backend's POSIX script.
    Script(String),
    /// An executing backend's result (`threads`, `processes`,
    /// `remote`).
    Execution(ProgramOutput),
}

/// Errors from [`run`].
#[derive(Debug)]
pub enum RunError {
    /// Compilation failed.
    Compile(core::Error),
    /// The backend failed at execution time.
    Io(std::io::Error),
    /// No backend with that name (see [`BACKENDS`]).
    UnknownBackend(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Compile(e) => write!(f, "compile: {e}"),
            RunError::Io(e) => write!(f, "run: {e}"),
            RunError::UnknownBackend(name) => {
                write!(
                    f,
                    "unknown backend `{name}` (known: {})",
                    BACKENDS.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// One run's compiled state: the execution plan plus the optional
/// width-1 plan backing the supervisor's sequential fallback.
///
/// A handle owns everything [`run`] needs besides the per-run
/// [`RunEnv`] — from a fresh compile or the process-wide memo
/// ([`RunHandle::compile`]). The `pashd` service constructs one
/// `RunEnv` per request, so concurrent runs share nothing but the
/// immutable plans.
pub struct RunHandle {
    plan: Arc<Compiled>,
    seq_fallback: Option<Arc<Compiled>>,
}

impl RunHandle {
    /// Compiles `src` through the memoized cache, one lookup per plan,
    /// and says whether the plan was a hit. With `fallback` set (and
    /// `cfg.width != 1`), the width-1 plan for the supervisor's
    /// sequential-fallback path is compiled (and memoized) alongside.
    pub fn compile(
        src: &str,
        cfg: &PashConfig,
        fallback: bool,
    ) -> Result<(RunHandle, bool), RunError> {
        let (compiled, hit) = compile_cached_hit(src, cfg).map_err(RunError::Compile)?;
        let seq_fallback = if fallback && cfg.width != 1 {
            compile_cached(src, &cfg.sequential()).ok()
        } else {
            None
        };
        let handle = RunHandle {
            plan: compiled,
            seq_fallback,
        };
        Ok((handle, hit))
    }

    /// Wraps already-compiled results (no extra work).
    pub fn from_compiled(
        compiled: Arc<Compiled>,
        seq_fallback: Option<Arc<Compiled>>,
    ) -> RunHandle {
        RunHandle {
            plan: compiled,
            seq_fallback,
        }
    }

    /// The execution plan.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan.plan
    }

    /// The width-1 fallback plan, when one was compiled or attached.
    pub fn fallback_plan(&self) -> Option<&ExecutionPlan> {
        self.seq_fallback.as_ref().map(|c| &c.plan)
    }

    /// Runs the plan on the backend named `backend` — `"shell"`,
    /// `"threads"`, `"processes"` or `"remote"` — against
    /// `env`. The executing backends get the fallback plan whenever
    /// there is one; whether it is used is the supervisor's decision
    /// (`SupervisorSettings::fallback`).
    pub fn execute(&self, backend: &str, env: &RunEnv) -> Result<BackendOutput, RunError> {
        let plan = self.plan();
        let fallback = self.fallback_plan();
        // The caller's stdin, borrowed for the length of the run: no
        // copy is made, and every attempt of the region that reads it
        // — each retry, each fallback — reads it from byte 0.
        let stdin = env.stdin.as_slice();
        let fs = || env.fs.clone() as Arc<dyn Fs>;
        let executed = match backend {
            "shell" => return Ok(BackendOutput::Script(emit_program(plan, &EmitConfig))),
            "threads" => run_program(plan, fallback, &env.registry, fs(), stdin, &env.exec),
            "processes" => run_processes(plan, fallback, env, stdin),
            "remote" => {
                if env.workers.is_empty() {
                    return Err(RunError::Io(std::io::Error::new(
                        std::io::ErrorKind::NotConnected,
                        "remote backend needs worker sockets (RunEnv::workers)",
                    )));
                }
                // No up-front probe: a worker that fails to answer is
                // discovered by the attempt itself, which the ladder
                // treats as transient (reroute, then local fallback).
                let pool = WorkerPool::new(env.workers.clone());
                run_program_remote(plan, fallback, &env.registry, fs(), stdin, &env.exec, &pool)
            }
            other => return Err(RunError::UnknownBackend(other.to_string())),
        };
        executed.map(BackendOutput::Execution).map_err(RunError::Io)
    }
}

/// Compiles `src` (through the memoized cache) and runs the lowered
/// [`core::plan::ExecutionPlan`] on the backend named `backend` —
/// `"shell"`, `"threads"`, `"processes"` or `"remote"`.
///
/// This is the multi-backend entry point the plan layer exists for:
/// every backend consumes the same lowered artifact — the `processes`
/// arm (real children over FIFOs) and the `remote` arm (plan regions
/// shipped to `pash-worker` daemons over sockets) each landed exactly
/// by implementing the execution contract and adding an arm here.
/// Long-lived callers (the `pashd` service) keep the intermediate
/// [`RunHandle`] instead of re-entering here.
pub fn run(
    src: &str,
    cfg: &PashConfig,
    backend: &str,
    env: &RunEnv,
) -> Result<BackendOutput, RunError> {
    // The width-1 fallback is only worth compiling when the selected
    // backend's supervisor would use it (compile_cached makes repeats
    // free either way).
    let want_fallback = match backend {
        "threads" | "remote" => env.exec.supervisor.fallback,
        "processes" => env.proc.supervisor.fallback,
        _ => false,
    };
    let (handle, _) = RunHandle::compile(src, cfg, want_fallback)?;
    handle.execute(backend, env)
}

/// Runs a lowered plan on the process backend, providing the
/// tempdir/read-back story when the caller gave no real root.
fn run_processes(
    plan: &ExecutionPlan,
    fallback: Option<&ExecutionPlan>,
    env: &RunEnv,
    stdin: &[u8],
) -> std::io::Result<ProgramOutput> {
    let (root, ephemeral) = match &env.proc.root {
        Some(r) => (r.clone(), None),
        None => {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "pash-run-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let manifest = materialize_fs(&env.fs, &dir)?;
            (dir, Some(manifest))
        }
    };
    let mut result = run_plan(plan, fallback, &env.proc, &root, stdin);
    if let Some(manifest) = ephemeral {
        if result.is_ok() {
            if let Err(e) = read_back_fs(&env.fs, &root, &manifest) {
                result = Err(e);
            }
        }
        // Unconditional: a failed read-back must not leak the
        // materialized corpus directory.
        let _ = std::fs::remove_dir_all(&root);
    }
    result
}

/// What [`materialize_fs`] wrote: relative path → (size, mtime) as
/// observed right after the write, so read-back can skip inputs no
/// child touched.
type Materialized = std::collections::HashMap<PathBuf, (u64, Option<std::time::SystemTime>)>;

/// Writes every `MemFs` file under `dir` (creating parents).
fn materialize_fs(fs: &MemFs, dir: &Path) -> std::io::Result<Materialized> {
    std::fs::create_dir_all(dir)?;
    let mut manifest = Materialized::new();
    for path in fs.paths() {
        let data = fs.read(&path)?;
        let target = dir.join(&path);
        if let Some(parent) = target.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&target, data)?;
        let meta = std::fs::metadata(&target)?;
        // Only a sub-second-precision mtime is a usable "unchanged"
        // witness: on a coarse-clock filesystem a child could rewrite
        // the file with same-size content inside the same tick. A
        // fresh write on a nanosecond filesystem has zero subsecond
        // part with probability ~1e-9, so this disables the skip
        // exactly where it would be unsound.
        let mtime = meta.modified().ok().filter(|t| {
            t.duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos() != 0)
                .unwrap_or(false)
        });
        manifest.insert(PathBuf::from(path), (meta.len(), mtime));
    }
    Ok(manifest)
}

/// Reads the files under `dir` back into the `MemFs`, so outputs
/// written by child processes are visible through [`RunEnv::fs_mem`]
/// exactly as the `threads` backend leaves them. Materialized inputs
/// whose size and mtime are unchanged are skipped — the `MemFs`
/// already holds those bytes, and corpora can be large.
fn read_back_fs(fs: &MemFs, dir: &Path, manifest: &Materialized) -> std::io::Result<()> {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let entry = entry?;
            let ty = entry.file_type()?;
            if ty.is_dir() {
                stack.push(entry.path());
            } else if ty.is_file() {
                let rel = entry
                    .path()
                    .strip_prefix(dir)
                    .expect("entry under walk root")
                    .to_path_buf();
                if let Some(&(len, mtime)) = manifest.get(&rel) {
                    let meta = entry.metadata()?;
                    if meta.len() == len && mtime.is_some() && meta.modified().ok() == mtime {
                        continue;
                    }
                }
                fs.add(
                    rel.to_string_lossy().into_owned(),
                    std::fs::read(entry.path())?,
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn multicall_built() -> bool {
        use crate::runtime::proc::ProcessRunner;
        ProcessRunner::new(&ProcSettings::default(), Path::new(".")).is_ok()
    }

    #[test]
    fn all_backends_run_the_same_plan() {
        use crate::runtime::remote::{serve_worker, shutdown_worker};
        use crate::runtime::service::bind;

        let socket =
            std::env::temp_dir().join(format!("pash-facade-worker-{}", std::process::id()));
        let listener = bind(&socket).expect("bind worker");
        let worker_socket = socket.clone();
        let worker = std::thread::spawn(move || {
            serve_worker(listener, &worker_socket).expect("serve worker");
        });

        let env = RunEnv {
            workers: vec![socket.clone()],
            ..Default::default()
        };
        env.fs_mem().add("in.txt", b"b\na\nc\n".to_vec());
        let cfg = PashConfig {
            width: 2,
            ..Default::default()
        };
        let src = "cat in.txt | sort";
        for &name in BACKENDS {
            if name == "processes" && !multicall_built() {
                eprintln!("skipping processes: multicall binaries not built");
                continue;
            }
            let out = run(src, &cfg, name, &env).expect("backend runs");
            match (name, out) {
                ("shell", BackendOutput::Script(s)) => assert!(s.contains("#!/bin/sh")),
                ("threads" | "processes" | "remote", BackendOutput::Execution(o)) => {
                    assert_eq!(o.stdout, b"a\nb\nc\n", "{name} stdout")
                }
                (name, other) => panic!("{name} produced {other:?}"),
            }
        }
        shutdown_worker(&socket);
        worker.join().expect("worker thread");
    }

    #[test]
    fn processes_backend_reads_outputs_back() {
        if !multicall_built() {
            eprintln!("skipping: multicall binaries not built");
            return;
        }
        let env = RunEnv::default();
        env.fs_mem().add("in.txt", b"B\na\nB\n".to_vec());
        let cfg = PashConfig {
            width: 2,
            ..Default::default()
        };
        let out = run(
            "cat in.txt | tr A-Z a-z | sort > out.txt",
            &cfg,
            "processes",
            &env,
        )
        .expect("processes run");
        match out {
            BackendOutput::Execution(o) => assert_eq!(o.status, 0),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            env.fs_mem().read("out.txt").expect("read back"),
            b"a\nb\nb\n"
        );
    }

    #[test]
    fn unknown_backend_is_an_error() {
        let env = RunEnv::default();
        let err = run("cat f", &PashConfig::default(), "gpu", &env).unwrap_err();
        assert!(matches!(err, RunError::UnknownBackend(_)));
        assert!(err.to_string().contains("threads"));
        // The cost model prices plans; it is not a backend.
        let err = run("cat f", &PashConfig::default(), "sim", &env).unwrap_err();
        assert!(matches!(err, RunError::UnknownBackend(_)));
    }
}
