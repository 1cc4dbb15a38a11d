//! The OS-process backend: a lowered [`ExecutionPlan`] run as real
//! child processes over named FIFOs — the paper's actual deployment
//! story (§5.2), without going through emitted shell text.
//!
//! Each plan node becomes one child of the multi-call binaries
//! (`pashc` for coreutils nodes, `pash-rt` for runtime primitives),
//! spawned with its [`pash_core::plan::SpawnSpec`] command line — the
//! one an emitted script runs, word for word, its redirections
//! (`--stdin PATH`, `--stdin-seg PATH PART OF`, `--stdout PATH`)
//! included. The parent only names each edge the command line refers
//! to, by its transport from the runtime I/O layer ([`crate::edge`]):
//!
//! * an internal pipe edge is a named FIFO in a scratch directory
//!   ([`crate::edge::FifoDir`]); the child opens its own end, so the
//!   parent never blocks in a FIFO open;
//! * a file edge is its path, resolved against the backend's root
//!   directory, which is every child's working directory. The parent
//!   opens no file: the child opens them as a `threads` node does, so
//!   a file it cannot open ends that child with status 2, not the
//!   region — a region forks exactly one child per plan node;
//! * the region boundary is the parent's: the primary stdin edge is an
//!   anonymous pipe fed by a parent thread, straight from the caller's
//!   borrowed slice and scoped to the attempt, and the region's stdout
//!   an anonymous pipe a parent thread drains.
//!
//! Teardown matches the emitted script: wait on the region's output
//! producers, deliver `SIGPIPE` to everything still running (the
//! dangling-FIFO fix), then reap — escalating to `SIGKILL` after a
//! grace period so a wedged child cannot hang the backend. An attempt
//! that fails or outlives its deadline SIGKILLs and reaps every child
//! before its scope joins the feeder, which the dead reader then
//! releases with `EPIPE`.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pash_core::plan::{
    fold_statuses, EndpointKind, ExecutionPlan, PlanEdgeId, RegionPlan, SpawnBin, SpawnWord,
};

use crate::drive::{append, drive, RegionRunner};
use crate::edge::FifoDir;
use crate::exec::{deadline_exceeded, ProgramOutput, RegionOutput};
use crate::fault::{ArmedFault, ExecError, INFRA_STATUS};
use crate::profile::ProfileStore;
use crate::supervise::SupervisorSettings;

/// Exit status of a child killed by `SIGABRT` (128 + 6): how an
/// injected in-child worker death ([`ArmedFault::wrap`] with abort on death)
/// reports itself. Together with [`INFRA_STATUS`] these are the two
/// reaped statuses the backend classifies as infrastructure failures
/// rather than command verdicts.
const ABORT_STATUS: i32 = 134;

/// How long teardown waits after `SIGPIPE` before escalating to
/// `SIGKILL`.
const KILL_GRACE: Duration = Duration::from_secs(2);

/// Settings for the `processes` backend.
#[derive(Debug, Clone, Default)]
pub struct ProcSettings {
    /// Root directory the plan's file edges resolve against (every
    /// child's cwd). The functions here take the root they run in as
    /// an argument; this field is what `pash::run` resolves it from —
    /// `None`, the default, makes it materialize its in-memory
    /// filesystem into a fresh temp directory, run there, read every
    /// file back and remove the directory, so `processes` then behaves
    /// like `threads` from the caller's perspective, except the work
    /// happened in real OS processes.
    pub root: Option<PathBuf>,
    /// `pashc` override (default: `$PASHC`, else a sibling of the
    /// current executable).
    pub pashc: Option<PathBuf>,
    /// `pash-rt` override (default: `$PASH_RT`, else a sibling of the
    /// current executable).
    pub pash_rt: Option<PathBuf>,
    /// The execution supervisor: retries, region deadlines, fault
    /// injection, sequential fallback (see [`crate::supervise`]).
    pub supervisor: SupervisorSettings,
    /// Ignored: this backend records no profile. Kept only because
    /// the benchmark harness sets it; ROADMAP item 5 deletes it, as
    /// it does `pashd --cache-dir`. A profile comes from the
    /// `threads` backend (`ExecConfig.profile`).
    pub profile: Option<Arc<ProfileStore>>,
}

/// Finds a sibling binary of the running executable (or honours the
/// role's environment override, the same contract emitted scripts
/// use).
pub fn locate_bin(name: &str, env_var: &str) -> io::Result<PathBuf> {
    if let Some(p) = std::env::var_os(env_var) {
        return Ok(PathBuf::from(p));
    }
    let exe = std::env::current_exe()?;
    let mut dir = exe.parent();
    for _ in 0..3 {
        let Some(d) = dir else { break };
        let candidate = d.join(name);
        if candidate.is_file() {
            return Ok(candidate);
        }
        dir = d.parent();
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        format!("cannot locate the `{name}` binary: set ${env_var} or build the workspace bins"),
    ))
}

/// Maps a reaped child status onto the shell convention (`128 + sig`
/// for signal deaths, so SIGPIPE reports [`pash_coreutils::SIGPIPE_STATUS`]).
fn exit_code(st: std::process::ExitStatus) -> i32 {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = st.signal() {
            return 128 + sig;
        }
    }
    st.code().unwrap_or(1)
}

/// Sends `SIGPIPE` to a process (teardown parity with the emitted
/// script's `kill -s PIPE`). Declared directly: the workspace vendors
/// no `libc`, but `std` already links it.
#[cfg(unix)]
fn kill_pipe(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGPIPE: i32 = 13;
    unsafe {
        kill(pid as i32, SIGPIPE);
    }
}

#[cfg(not(unix))]
fn kill_pipe(_pid: u32) {}

/// Linux's `ETXTBSY`: the executable is open for writing somewhere.
const ETXTBSY: i32 = 26;

/// Spawns `cmd`, retrying a few times, with a short sleep between
/// tries, while the executable is busy (`ETXTBSY`). A script written
/// moments ago can be: a `fork` on another thread of this process
/// copies its still-open write descriptor into a child, which holds
/// it until that child's own `exec` closes it. The hold lasts no
/// longer than a fork-to-exec, so the retry goes through.
fn spawn_retrying_busy(cmd: &mut Command) -> io::Result<Child> {
    const TRIES: u32 = 5;
    let mut tries = 1;
    loop {
        match cmd.spawn() {
            Err(e) if e.raw_os_error() == Some(ETXTBSY) && tries < TRIES => {
                std::thread::sleep(Duration::from_millis(5 << tries));
                tries += 1;
            }
            spawned => return spawned,
        }
    }
}

/// The `processes` backend as a [`RegionRunner`]: one attempt is one
/// process tree over FIFOs, and — unlike the hermetic runners —
/// non-no-op `Shell` steps run for real under `/bin/sh -c` in the
/// backend's root, the same text the shell backend would inline into
/// its script.
pub struct ProcessRunner<'a> {
    /// Every child's cwd.
    root: &'a Path,
    pashc: PathBuf,
    pash_rt: PathBuf,
}

impl<'a> ProcessRunner<'a> {
    /// A runner over `root`, its two binaries located once: the
    /// overrides in `settings`, else `$PASHC`/`$PASH_RT`, else beside
    /// the current executable ([`locate_bin`]).
    pub fn new(settings: &'a ProcSettings, root: &'a Path) -> io::Result<ProcessRunner<'a>> {
        let bin = |given: &Option<PathBuf>, name, env_var| match given {
            Some(p) => Ok(p.clone()),
            None => locate_bin(name, env_var),
        };
        Ok(ProcessRunner {
            root,
            pashc: bin(&settings.pashc, "pashc", "PASHC")?,
            pash_rt: bin(&settings.pash_rt, "pash-rt", "PASH_RT")?,
        })
    }
}

impl RegionRunner for ProcessRunner<'_> {
    fn attempt(
        &self,
        r: &RegionPlan,
        feed: &[u8],
        fault: Option<&ArmedFault>,
        _attempt_no: u32,
        supervised: Option<&SupervisorSettings>,
    ) -> Result<RegionOutput, ExecError> {
        run_region_attempt(r, self, feed, fault, supervised)
    }

    fn shell_step(&self, text: &str, status: i32) -> io::Result<ProgramOutput> {
        // A fresh `sh` starts with `$?` at 0; the script's has the
        // status of the step before.
        let out = Command::new("/bin/sh")
            .arg("-c")
            .arg(format!("(exit {status}); {text}"))
            .current_dir(self.root)
            .stdin(Stdio::null())
            .output()?;
        io::stderr().write_all(&out.stderr)?;
        Ok(ProgramOutput {
            stdout: out.stdout,
            status: exit_code(out.status),
        })
    }
}

/// Executes a whole plan as process trees, step by step. `fallback`
/// is the same program at width 1, for the supervisor's
/// graceful-degradation path (see [`drive`] for the contract).
pub fn run_plan(
    plan: &ExecutionPlan,
    fallback: Option<&ExecutionPlan>,
    settings: &ProcSettings,
    root: &Path,
    stdin: &[u8],
) -> io::Result<ProgramOutput> {
    let runner = ProcessRunner::new(settings, root)?;
    drive(plan, fallback, &runner, &settings.supervisor, stdin)
}

/// The name a plan edge gets when it appears in a child's argv.
fn edge_name(r: &RegionPlan, fifos: &FifoDir, e: PlanEdgeId) -> io::Result<std::ffi::OsString> {
    match &r.edges[e].kind {
        EndpointKind::Pipe => Ok(fifos
            .path(e)
            .expect("pipe edge has a fifo")
            .as_os_str()
            .to_os_string()),
        // Relative: children run with the backend root as cwd.
        EndpointKind::InputFile(p) | EndpointKind::OutputFile(p) => Ok(p.into()),
        other => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("edge kind {other:?} cannot appear in argument position"),
        )),
    }
}

/// One attempt at a region as a process tree: `stdin` feeds the
/// primary boundary input from byte 0, with optional fault injection
/// and an optional deadline (taken from `settings`). Parent-side faults
/// (spawn failure/delay, mkfifo failure) are injected here; stream
/// faults travel to the armed child via the `PASH_FAULT` environment
/// variable, which the multicall wraps around its stdout.
fn run_region_attempt(
    r: &RegionPlan,
    runner: &ProcessRunner,
    stdin: &[u8],
    fault: Option<&ArmedFault>,
    settings: Option<&SupervisorSettings>,
) -> Result<RegionOutput, ExecError> {
    r.validate()
        .map_err(|e| ExecError::fatal("plan", io::Error::new(io::ErrorKind::InvalidInput, e)))?;
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let tag = format!("r{}", SEQ.fetch_add(1, Ordering::Relaxed));
    let fifos = FifoDir::create(r, &std::env::temp_dir(), &tag, fault)
        .map_err(|e| ExecError::classify("edge wiring", e))?;
    let deadline = settings
        .and_then(|s| s.region_deadline)
        .map(|d| Instant::now() + d);

    let mut children: Vec<Child> = Vec::with_capacity(r.nodes.len());
    // The feeder borrows `stdin`, so it is scoped to the attempt: the
    // scope joins it after every child is reaped, on every path.
    let result = std::thread::scope(|scope| {
        let result = spawn_and_reap(
            r,
            runner,
            stdin,
            &fifos,
            fault,
            deadline,
            &mut children,
            scope,
        );
        if result.is_err() {
            // A failure partway through spawning (a missing binary, an
            // unreadable input) must not leak the children already
            // spawned: blocked in a FIFO open, they would outlive the
            // FIFOs' unlink forever. SIGKILL — not PIPE, which an
            // open(2) does not observe — and reap everything still
            // running; a feeder blocked on a dead child's stdin then
            // fails with EPIPE and the scope can end. A deadline
            // expiry lands here too: this is the escalation from
            // [`KILL_GRACE`] to an unconditional SIGKILL of the region.
            for child in children.iter_mut() {
                if !matches!(child.try_wait(), Ok(Some(_))) {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
        }
        result
    });
    if let (Some(s), Err(e)) = (settings, &result) {
        if e.is_deadline() {
            s.note_deadline_kill();
        }
    }
    result
}

/// Waits for one child until `deadline`: its status, or `None` once
/// the deadline has passed. With no deadline it blocks until the child
/// exits; with one it polls, so the deadline can interrupt the wait.
fn wait_until(child: &mut Child, deadline: Option<Instant>) -> io::Result<Option<i32>> {
    let Some(dl) = deadline else {
        return child.wait().map(|st| Some(exit_code(st)));
    };
    loop {
        if let Some(st) = child.try_wait()? {
            return Ok(Some(exit_code(st)));
        }
        if Instant::now() >= dl {
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The fallible body of [`run_region_attempt`]: spawns every node, waits on
/// the output producers, and tears the region down. Children are
/// pushed into the caller's vector as they spawn, so an early `?`
/// return leaves the caller holding everything that needs killing.
/// The feeder of the child that reads `stdin` runs on `scope`.
#[allow(clippy::too_many_arguments)]
fn spawn_and_reap<'scope, 'env>(
    r: &RegionPlan,
    runner: &ProcessRunner,
    stdin: &'env [u8],
    fifos: &FifoDir,
    fault: Option<&ArmedFault>,
    deadline: Option<Instant>,
    children: &mut Vec<Child>,
    scope: &'scope std::thread::Scope<'scope, 'env>,
) -> Result<RegionOutput, ExecError> {
    let mut drains: Vec<std::thread::JoinHandle<Vec<u8>>> = Vec::new();
    let mut stdin = Some(stdin);
    let root = runner.root;

    for (id, node) in r.nodes.iter().enumerate() {
        // Parent-side spawn faults for the armed node.
        if let Some(a) = fault {
            a.before_spawn(id)
                .map_err(|e| ExecError::transient("spawn", e).at_node(id))?;
        }
        let spec = r.spawn_spec(id);
        let bin = match spec.bin {
            SpawnBin::Coreutils => &runner.pashc,
            SpawnBin::Runtime => &runner.pash_rt,
        };
        let mut cmd = Command::new(bin);
        cmd.current_dir(root);
        // The fault rides to the armed child in the environment; the
        // multicall wraps its stdout with it (see `cli.rs`). Every
        // other child must run clean.
        if let Some(a) = fault.filter(|a| a.node == Some(id)) {
            cmd.env("PASH_FAULT", a.to_string());
        }
        // The spawn spec's command line, each edge named by its FIFO
        // or file: the child opens its own — a parent-side open of a
        // FIFO would block until the peer spawns.
        let named =
            |e| edge_name(r, fifos, e).map_err(|e| ExecError::fatal("edge naming", e).at_node(id));
        for w in &spec.argv {
            match w {
                SpawnWord::Lit(s) => cmd.arg(s),
                SpawnWord::In(k) => cmd.arg(named(node.inputs[*k])?),
                SpawnWord::Out(j) => cmd.arg(named(node.outputs[*j])?),
            };
        }
        // The region's boundary: the primary stdin edge is fed the
        // caller's bytes (a second one, the feed taken, and every
        // other boundary input read empty streams), and the region's
        // stdout is drained.
        let feed = match spec.reads_stdin {
            Some(true) => stdin.take(),
            _ => None,
        };
        cmd.stdin(if feed.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        });
        cmd.stdout(if spec.writes_stdout {
            Stdio::piped()
        } else {
            Stdio::null()
        });

        let mut child = spawn_retrying_busy(&mut cmd).map_err(|e| {
            ExecError::classify(
                "spawn",
                io::Error::new(e.kind(), format!("spawning {bin:?} for a plan node: {e}")),
            )
            .at_node(id)
        })?;
        if let Some(bytes) = feed {
            let mut si = child.stdin.take().ok_or_else(|| {
                ExecError::fatal("spawn", io::Error::other("piped child stdin missing")).at_node(id)
            })?;
            scope.spawn(move || {
                // A consumer that exits early breaks this pipe; that
                // is normal teardown, not an error.
                let _ = si.write_all(bytes);
            });
        }
        if spec.writes_stdout {
            let mut so = child.stdout.take().ok_or_else(|| {
                ExecError::fatal("spawn", io::Error::other("piped child stdout missing"))
                    .at_node(id)
            })?;
            drains.push(std::thread::spawn(move || {
                let mut buf = Vec::new();
                let _ = so.read_to_end(&mut buf);
                buf
            }));
        }
        children.push(child);
    }

    // Wait on the region's output producers, in node order — the
    // emitted script's `wait $pash_out_pids` — then on the status
    // sources, the real commands behind the output, whose folded
    // statuses reproduce the sequential verdict (the emitted script's
    // `pash_spids` loop). Producers finishing implies their upstream
    // sources have finished, so these waits cannot block on a
    // still-streaming child. A region deadline can interrupt them (the
    // error path SIGKILLs).
    let sources = r.status_sources();
    let producers = (0..r.nodes.len()).filter(|&id| r.nodes[id].output_producer);
    let mut reaped: Vec<Option<i32>> = vec![None; children.len()];
    for id in producers.chain(sources.iter().copied()) {
        if reaped[id].is_some() {
            continue;
        }
        let waited = wait_until(&mut children[id], deadline)
            .map_err(|e| ExecError::classify("wait", e).at_node(id))?;
        // Expiry is transient; the caller's error path SIGKILLs the
        // whole region, and counts the kill.
        reaped[id] = Some(waited.ok_or_else(|| deadline_exceeded(None).at_node(id))?);
    }

    // Deliver PIPE to everything still running (`kill -s PIPE`, the
    // §5.2 dangling-FIFO fix), then reap with a bounded grace.
    for (id, child) in children.iter().enumerate() {
        if reaped[id].is_none() {
            kill_pipe(child.id());
        }
    }
    let grace = Some(Instant::now() + KILL_GRACE);
    let reap = |child: &mut Child| -> io::Result<i32> {
        match wait_until(child, grace)? {
            Some(s) => Ok(s),
            // A child ignoring PIPE while blocked in a FIFO open would
            // hang the backend; SIGKILL is the backstop.
            None => child.kill().and_then(|()| child.wait()).map(exit_code),
        }
    };
    let mut statuses = Vec::with_capacity(children.len());
    for (id, (child, s)) in children.iter_mut().zip(reaped).enumerate() {
        let s = match s {
            Some(s) => s,
            None => reap(child).map_err(|e| ExecError::classify("reap", e).at_node(id))?,
        };
        statuses.push((id, s));
    }
    let mut stdout = Vec::new();
    for d in drains {
        append(&mut stdout, d.join().unwrap_or_default());
    }

    // A region's status folds its source statuses — exactly what the
    // emitted script computes after `wait $pash_out_pids`.
    let status = fold_statuses(&sources.iter().map(|&id| statuses[id].1).collect::<Vec<_>>());

    // Reserved statuses signal infrastructure death, not a command
    // verdict: 120 is the multicall's InvalidData report (a corrupted
    // or truncated frame crossed a child), 134 is SIGABRT (an injected
    // worker death). Surface them as transient errors so the
    // supervisor retries or falls back instead of letting a damaged
    // region report success. A graceless SIGKILL reports 137 and a
    // teardown SIGPIPE 141 — both normal, neither matches.
    if let Some(&(id, s)) = statuses
        .iter()
        .find(|(_, s)| *s == INFRA_STATUS || *s == ABORT_STATUS)
    {
        return Err(ExecError::transient(
            "worker",
            io::Error::new(
                io::ErrorKind::Interrupted,
                format!("worker exited with infrastructure status {s}"),
            ),
        )
        .at_node(id));
    }
    // A runtime primitive (aggregator, split, relay) that fails exits
    // 1, the multicall's error exit. It is no command verdict: on
    // `threads` the same failure is the node's fatal error, and so it
    // is here, not a region that ends 0 with part of its output.
    if let Some(&(id, s)) = statuses
        .iter()
        .find(|&&(id, s)| s == 1 && r.spawn_spec(id).bin == SpawnBin::Runtime)
    {
        return Err(ExecError::fatal(
            "node",
            io::Error::other(format!("runtime primitive exited with status {s}")),
        )
        .at_node(id));
    }
    Ok(RegionOutput {
        stdout,
        statuses,
        status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pash_core::compile::{compile, PashConfig};

    /// A scratch root with the given files; removed by the caller.
    fn scratch_with(files: &[(&str, &[u8])]) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pash-proc-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        for (name, data) in files {
            std::fs::write(dir.join(name), data).expect("write input");
        }
        dir
    }

    #[test]
    fn a_busy_executable_is_retried_a_bounded_number_of_times() {
        use std::os::unix::fs::PermissionsExt;
        let root = scratch_with(&[]);
        let path = root.join("busy.sh");
        let mut script = std::fs::File::create(&path).expect("create");
        script.write_all(b"#!/bin/sh\nexit 0\n").expect("write");
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod");
        // Open for writing here: every try is busy, and the last
        // error is the caller's.
        let err = spawn_retrying_busy(&mut Command::new(&path)).expect_err("busy");
        assert_eq!(err.raw_os_error(), Some(ETXTBSY));
        drop(script);
        let mut child = spawn_retrying_busy(&mut Command::new(&path)).expect("spawn");
        assert!(child.wait().expect("wait").success());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Default settings, or `None` (skip) when the multicall binaries
    /// are not built.
    fn located() -> Option<ProcSettings> {
        let cfg = ProcSettings::default();
        if ProcessRunner::new(&cfg, Path::new(".")).is_err() {
            eprintln!("skipping: multicall binaries not built");
            return None;
        }
        Some(cfg)
    }

    fn run_processes(
        src: &str,
        width: usize,
        files: &[(&str, &[u8])],
        stdin: &[u8],
    ) -> Option<(ProgramOutput, PathBuf)> {
        let cfg = located()?;
        let root = scratch_with(files);
        let compiled = compile(
            src,
            &PashConfig {
                width,
                ..Default::default()
            },
        )
        .expect("compile");
        let out = run_plan(&compiled.plan, None, &cfg, &root, stdin).expect("run");
        Some((out, root))
    }

    /// An aggregator whose argv its command refuses (`pash-agg-sort -k`
    /// lacks `-k`'s value) is a fatal error at its node on both local
    /// backends, not a region that ends 0 with an empty stdout.
    #[test]
    fn a_failing_aggregator_is_fatal_on_threads_and_processes() {
        use crate::drive::RegionRunner;
        use crate::exec::{ExecConfig, ThreadsRunner};
        use crate::fault::FaultClass;
        use pash_core::plan::{Arg, PlanEdge, PlanNode, PlanOp};
        use pash_coreutils::{fs::Fs, Registry};

        let Some(cfg) = located() else { return };
        let seq = |from: &str| PlanNode {
            op: PlanOp::Exec {
                argv: ["seq", from, "9"]
                    .iter()
                    .map(|w| Arg::Lit(w.to_string()))
                    .collect(),
                framed: false,
            },
            stdin_inputs: Vec::new(),
            inputs: Vec::new(),
            outputs: vec![if from == "1" { 0 } else { 1 }],
            output_producer: false,
        };
        let pipe = |from| PlanEdge {
            kind: EndpointKind::Pipe,
            from: Some(from),
            to: Some(2),
        };
        let r = RegionPlan {
            nodes: vec![
                seq("1"),
                seq("5"),
                PlanNode {
                    op: PlanOp::Aggregate {
                        argv: vec!["pash-agg-sort".to_string(), "-k".to_string()],
                    },
                    stdin_inputs: Vec::new(),
                    inputs: vec![0, 1],
                    outputs: vec![2],
                    output_producer: true,
                },
            ],
            edges: vec![
                pipe(0),
                pipe(1),
                PlanEdge {
                    kind: EndpointKind::StdoutPipe,
                    from: Some(2),
                    to: None,
                },
            ],
            replayable: true,
        };
        let root = scratch_with(&[]);
        let registry = Registry::standard();
        let fs: Arc<dyn Fs> = Arc::new(pash_coreutils::fs::MemFs::new());
        let ecfg = ExecConfig::default();
        let threads = ThreadsRunner {
            registry: &registry,
            fs: &fs,
            cfg: &ecfg,
        };
        let processes = ProcessRunner::new(&cfg, &root).expect("binaries");
        let runners: [(&str, &dyn RegionRunner); 2] =
            [("threads", &threads), ("processes", &processes)];
        for (name, runner) in runners {
            let err = runner
                .attempt(&r, b"", None, 0, None)
                .expect_err("the aggregator fails");
            assert_eq!(err.class, FaultClass::Fatal, "{name}: {err}");
            assert_eq!(err.node, Some(2), "{name}: {err}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn pipeline_over_fifos_matches_expected() {
        let input = b"Banana\napple\nCherry\napple\nbanana\nAPPLE\n";
        for width in [1usize, 3] {
            let Some((out, root)) = run_processes(
                "cat in.txt | tr A-Z a-z | sort > out.txt",
                width,
                &[("in.txt", input)],
                b"",
            ) else {
                return;
            };
            assert_eq!(out.status, 0);
            let got = std::fs::read(root.join("out.txt")).expect("out.txt");
            assert_eq!(
                got, b"apple\napple\napple\nbanana\nbanana\ncherry\n",
                "width {width}"
            );
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn stdout_edge_is_captured() {
        let Some((out, root)) = run_processes("tr a-z A-Z", 1, &[], b"hello\n") else {
            return;
        };
        assert_eq!(out.stdout, b"HELLO\n");
        assert_eq!(out.status, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn head_early_exit_reaps_producers() {
        // The §5.2 dangling-FIFO scenario under real processes: head
        // exits after one line; the backend must SIGPIPE and reap the
        // upstream copies instead of hanging.
        let corpus: Vec<u8> = (0..2000)
            .flat_map(|i| format!("{i}\n").into_bytes())
            .collect();
        let Some((out, root)) = run_processes(
            "cat in.txt | sort -rn | head -n 1 > out.txt",
            4,
            &[("in.txt", &corpus)],
            b"",
        ) else {
            return;
        };
        assert_eq!(out.status, 0, "head (the producer) exits cleanly");
        let got = std::fs::read(root.join("out.txt")).expect("out.txt");
        assert_eq!(got, b"1999\n");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Early exit over segment-fed copies: `head` is done after one
    /// line while four `tr` copies still have most of their segment to
    /// write. Every process of the region is one of its nodes — the
    /// binaries are wrapped to log each exec — so teardown signals and
    /// reaps nothing else, and the bytes and status are the in-process
    /// backend's.
    #[test]
    fn a_region_forks_one_child_per_node_and_head_exits_promptly() {
        use std::os::unix::fs::PermissionsExt;
        let Some(cfg) = located() else { return };
        let corpus: Vec<u8> = (0..200_000)
            .flat_map(|i| format!("Line {i} of the Corpus\n").into_bytes())
            .collect();
        let root = scratch_with(&[("in.txt", &corpus)]);
        let runner = ProcessRunner::new(&cfg, &root).expect("binaries");
        let log = root.join("forks.log");
        let wrap = |name: &str, real: &Path| {
            let path = root.join(name);
            let text = format!(
                "#!/bin/sh\necho {name} >> '{}'\nexec '{}' \"$@\"\n",
                log.display(),
                real.display()
            );
            std::fs::write(&path, text).expect("write wrapper");
            std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod");
            Some(path)
        };
        let cfg = ProcSettings {
            pashc: wrap("pashc-logged", &runner.pashc),
            pash_rt: wrap("pash-rt-logged", &runner.pash_rt),
            ..cfg.clone()
        };
        let src = "cat in.txt | tr A-Z a-z | head -n 1";
        let compiled = compile(src, &PashConfig::best(4)).expect("compile");
        let nodes: usize = compiled.plan.regions().map(|r| r.nodes.len()).sum();
        let segments = compiled
            .plan
            .regions()
            .flat_map(|r| &r.edges)
            .filter(|e| matches!(e.kind, EndpointKind::InputSegment { .. }))
            .count();
        assert_eq!(segments, 4, "the copies read file segments");

        let started = Instant::now();
        let out = run_plan(&compiled.plan, None, &cfg, &root, &[]).expect("run");
        assert!(
            started.elapsed() < KILL_GRACE,
            "teardown waited out the kill grace: {:?}",
            started.elapsed()
        );
        let forks = std::fs::read_to_string(&log).expect("fork log");
        assert_eq!(forks.lines().count(), nodes, "{forks}");

        let mem = pash_coreutils::fs::MemFs::new();
        mem.add("in.txt", corpus);
        let threads = crate::exec::run_program(
            &compiled.plan,
            None,
            &pash_coreutils::Registry::standard(),
            Arc::new(mem),
            &[],
            &crate::exec::ExecConfig::default(),
        )
        .expect("threads run");
        assert_eq!(out.stdout, b"line 0 of the corpus\n");
        assert_eq!((out.stdout, out.status), (threads.stdout, threads.status));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A copy that cannot open its segment still opens, and closes, the
    /// FIFO it writes: its consumer sees an empty stream — what `sh`
    /// gives `cat nope.txt | …` — rather than waiting for a peer that
    /// is gone.
    #[test]
    fn an_unopenable_segment_reads_as_empty_not_as_a_hang() {
        let src = "cat nope.txt | tr A-Z a-z | sort";
        let Some((out, root)) = run_processes(src, 2, &[], b"") else {
            return;
        };
        assert_eq!((out.stdout.as_slice(), out.status), (&b""[..], 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn guards_respect_child_statuses() {
        let Some((out, root)) = run_processes(
            "grep zzz in.txt > miss.txt && cat in.txt",
            1,
            &[("in.txt", b"some words\n")],
            b"",
        ) else {
            return;
        };
        assert!(out.stdout.is_empty(), "guard must skip the cat region");
        assert_eq!(out.status, 1, "program status is grep's miss status");
        let _ = std::fs::remove_dir_all(&root);

        let Some((out, root)) = run_processes(
            "grep zzz in.txt > miss.txt || cat in.txt",
            1,
            &[("in.txt", b"some words\n")],
            b"",
        ) else {
            return;
        };
        assert_eq!(out.stdout, b"some words\n");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn round_robin_pipeline_over_fifos() {
        // End-to-end over real children: `r_split` deals tagged
        // blocks, `--framed` workers re-frame, `pash-agg-reorder`
        // restores order.
        let Some(cfg) = located() else { return };
        let corpus: Vec<u8> = (0..500)
            .flat_map(|i| format!("Line {i} of the Corpus\n").into_bytes())
            .collect();
        for width in [2usize, 4] {
            let root = scratch_with(&[("in.txt", &corpus)]);
            let compiled = compile(
                "cat in.txt | tr A-Z a-z | grep corpus > out.txt",
                &PashConfig::round_robin(width),
            )
            .expect("compile");
            let out = run_plan(&compiled.plan, None, &cfg, &root, &[]).expect("run");
            assert_eq!(out.status, 0, "width {width}");
            let got = std::fs::read(root.join("out.txt")).expect("out.txt");
            let want: Vec<u8> = (0..500)
                .flat_map(|i| format!("line {i} of the corpus\n").into_bytes())
                .collect();
            assert_eq!(got, want, "width {width}");
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn round_robin_grep_miss_status_folds() {
        // A guarded miss must gate the next step identically at any
        // width: the folded worker statuses report 1, not the
        // reorderer's 0.
        let Some(cfg) = located() else { return };
        let root = scratch_with(&[("in.txt", b"some words here\nand more\n")]);
        let compiled = compile(
            "cat in.txt | grep zzz > miss.txt && cat in.txt",
            &PashConfig::round_robin(4),
        )
        .expect("compile");
        let out = run_plan(&compiled.plan, None, &cfg, &root, &[]).expect("run");
        assert!(out.stdout.is_empty(), "guard must skip the cat region");
        assert_eq!(out.status, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn parallel_width_with_segments_and_aggregator() {
        let corpus = b"the quick Brown fox\nJumps over the lazy dog\nthe end\n";
        let Some((out, root)) = run_processes(
            "cat in.txt | tr A-Z a-z | sort | uniq -c > out.txt",
            4,
            &[("in.txt", corpus)],
            b"",
        ) else {
            return;
        };
        assert_eq!(out.status, 0);
        let got = std::fs::read(root.join("out.txt")).expect("out.txt");
        let text = String::from_utf8(got).expect("utf8");
        assert!(text.contains("1 the end"), "{text}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
