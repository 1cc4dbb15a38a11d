//! The work directory, the located binaries, and one in-process
//! script-text → bytes-out execution on a named configuration.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pash::coreutils::fs::MemFs;
use pash::runtime::exec::ExecConfig;
use pash::runtime::supervise::{SupervisorCounters, SupervisorSettings};
use pash::runtime::ProfileStore;
use pash::{BackendOutput, ProcSettings, RunEnv, RunHandle};

use crate::oracle::{take_outputs, Observed};
use crate::workloads::{Config, Inputs, Workload, STDIN_FILE};

/// The release binaries the benchmark drives, located once by
/// `run.sh` (`--bin-dir`).
#[derive(Debug, Clone)]
pub struct Bins {
    pub pashd: PathBuf,
    pub pashc: PathBuf,
    pub pash_rt: PathBuf,
    pub pash_worker: PathBuf,
}

impl Bins {
    pub fn locate(dir: &Path) -> io::Result<Bins> {
        let find = |name: &str| {
            let p = dir.join(name);
            if p.is_file() {
                Ok(p)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("{} not built (run bench/run.sh)", p.display()),
                ))
            }
        };
        Ok(Bins {
            pashd: find("pashd")?,
            pashc: find("pashc")?,
            pash_rt: find("pash-rt")?,
            pash_worker: find("pash-worker")?,
        })
    }
}

/// Name of the input/output directory inside the work directory: the
/// root the `processes` backend and the host oracle run in.
pub const DATA_DIR: &str = "data";

/// Writes `inputs` under `dir` (created fresh).
pub fn write_inputs(dir: &Path, inputs: &Inputs) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    for (path, bytes) in &inputs.files {
        let target = dir.join(path);
        if let Some(parent) = target.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(target, bytes.as_slice())?;
    }
    Ok(())
}

/// Everything needed to execute the workload's scripts in-process.
pub struct Runner<'a> {
    pub workload: &'a Workload,
    pub inputs: &'a Inputs,
    pub bins: &'a Bins,
    /// Shared by every in-process run, so `runtime.supervise.*` reads
    /// what the supervisor did across the whole invocation.
    pub counters: Arc<SupervisorCounters>,
    template: MemFs,
    top_level_inputs: BTreeSet<String>,
}

impl<'a> Runner<'a> {
    pub fn new(workload: &'a Workload, inputs: &'a Inputs, bins: &'a Bins) -> Runner<'a> {
        let template = MemFs::new();
        for (path, bytes) in &inputs.files {
            if path != STDIN_FILE {
                template.add_shared(path.clone(), bytes.clone());
            }
        }
        Runner {
            workload,
            inputs,
            bins,
            counters: Arc::new(SupervisorCounters::default()),
            template,
            top_level_inputs: inputs.files.keys().cloned().collect(),
        }
    }

    /// The in-memory filesystem holding the inputs (shared bytes).
    pub fn template(&self) -> &MemFs {
        &self.template
    }

    /// Names in the data directory that are inputs, not outputs.
    pub fn input_names(&self) -> &BTreeSet<String> {
        &self.top_level_inputs
    }

    /// Retries, fallbacks, reroutes and deadline kills so far, summed.
    /// A run whose supervisor recovered anything still produces the
    /// right bytes, but its time includes the recovery: the timings
    /// are invalid unless this reads 0.
    pub fn recoveries(&self) -> u64 {
        let c = &self.counters;
        c.retries() + c.fallbacks() + c.local_fallbacks() + c.reroutes() + c.deadline_kills()
    }

    pub fn stdin_bytes(&self) -> Vec<u8> {
        self.inputs
            .stdin()
            .map(|b| b.as_ref().clone())
            .unwrap_or_default()
    }

    /// One sample step: an uncached compile of `script` plus its
    /// execution on `config` — what a CLI user pays. Only compile and
    /// execute are timed; building the environment and collecting the
    /// outputs for the check are not.
    pub fn run_once(
        &self,
        config: Config,
        script: &str,
        profile: Option<Arc<ProfileStore>>,
    ) -> Result<(Observed, Duration), String> {
        self.run_on(
            config.backend(),
            config.width(),
            script,
            profile,
            Vec::new(),
        )
    }

    /// [`Self::run_once`] on any backend by name; `workers` are the
    /// `pash-worker` sockets of the `remote` backend.
    pub fn run_on(
        &self,
        backend: &str,
        width: usize,
        script: &str,
        profile: Option<Arc<ProfileStore>>,
        workers: Vec<PathBuf>,
    ) -> Result<(Observed, Duration), String> {
        let supervisor = SupervisorSettings {
            counters: self.counters.clone(),
            ..Default::default()
        };
        let fs = Arc::new(self.template.snapshot());
        let mut env = RunEnv {
            fs: fs.clone(),
            workers,
            exec: ExecConfig {
                supervisor: supervisor.clone(),
                profile: profile.clone(),
                ..Default::default()
            },
            proc: ProcSettings {
                root: Some(PathBuf::from(DATA_DIR)),
                pashc: Some(self.bins.pashc.clone()),
                pash_rt: Some(self.bins.pash_rt.clone()),
                supervisor,
                profile,
                ..Default::default()
            },
            ..Default::default()
        };
        let pcfg = self.workload.config(width);
        let start = Instant::now();
        let compiled = pash::compile(script, &pcfg).map_err(|e| format!("compile: {e}"))?;
        let compile_time = start.elapsed();
        // Untimed: a caller would have its stdin open already.
        if compiled.plan.regions().any(|r| r.reads_stdin()) {
            env.stdin = self.stdin_bytes();
        }
        let start = Instant::now();
        let out = RunHandle::from_compiled(Arc::new(compiled), None)
            .execute(backend, &env)
            .map_err(|e| e.to_string())?;
        let elapsed = compile_time + start.elapsed();
        let BackendOutput::Execution(out) = out else {
            return Err("backend produced no execution output".to_string());
        };
        // `processes` leaves its files on disk, the others in `fs`.
        let files = if backend == "processes" {
            take_outputs(Path::new(DATA_DIR), &self.top_level_inputs)
                .map_err(|e| format!("collect outputs: {e}"))?
        } else {
            changed_files(&self.template, &fs)
        };
        Ok((
            Observed {
                status: out.status,
                stdout: out.stdout,
                files,
            },
            elapsed,
        ))
    }
}

/// Files of `run` that `template` lacks or holds other contents for
/// (by `Arc` identity, as the daemon does).
pub fn changed_files(template: &MemFs, run: &MemFs) -> std::collections::BTreeMap<String, Vec<u8>> {
    let base: std::collections::HashMap<String, Arc<Vec<u8>>> =
        template.entries().into_iter().collect();
    run.entries()
        .into_iter()
        .filter(|(path, contents)| {
            base.get(path)
                .is_none_or(|orig| !Arc::ptr_eq(orig, contents))
        })
        .map(|(path, contents)| (path, contents.as_ref().clone()))
        .collect()
}
