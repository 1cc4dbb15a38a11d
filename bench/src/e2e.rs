//! Set-up, the host references, and the end-to-end measurement
//! (tracing off): a closed-loop service phase and timed in-process
//! samples.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Duration;

use crate::daemon::{self, closed_loop, Daemon, Phase, Reply};
use crate::names::unit_of;
use crate::oracle::{host_run, require_host_utilities, Observed};
use crate::runner::{write_inputs, Bins, Runner, DATA_DIR};
use crate::stats::{median, Summary};
use crate::workloads::{
    generate, request_schedule, Config, Counts, Inputs, Planned, Workload, STDIN_FILE,
};

/// Operations checked against the host reference so far.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn note(&mut self, what: &str, ours: &Observed, reference: &Observed) {
        self.attempted += 1;
        if let Some(diff) = ours.first_difference(reference) {
            self.failed += 1;
            eprintln!("MISMATCH {what}: {diff}");
        }
    }

    pub fn note_error(&mut self, what: &str, err: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("FAILED {what}: {err}");
    }

    pub fn note_phase(&mut self, phase: &Phase) {
        self.attempted += phase.attempted() as u64;
        self.failed += phase.failed() as u64;
    }
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// The sample behind a median, when there is one.
    pub sample: Option<Summary>,
}

impl Metric {
    pub fn new(name: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit_of(name),
            sample: None,
        }
    }

    pub fn median_of(name: &str, values: &[f64]) -> Metric {
        Metric {
            sample: Some(Summary::of(values)),
            ..Metric::new(name, median(values))
        }
    }
}

/// What one set-up leaves ready: generated inputs on disk and in
/// memory, a seeded daemon, and what its warm-up runs and requests
/// produced (not yet checked: the references come after).
pub struct Ready {
    pub inputs: Inputs,
    pub daemon: Daemon,
    /// The warm-up runs: what ran, on which script, and its output.
    pub warm_runs: Vec<(String, usize, Result<Observed, String>)>,
    pub warm_requests: Vec<(Planned, Reply, Observed)>,
}

/// One complete set-up, timed by the caller: generate the inputs from
/// the seed, write them to the work directory, run each of `configs`
/// (the configurations the run will sample) once untimed, spawn
/// `pashd` and wait for its first `Metrics` reply, seed it with
/// `PutFile`, and send one warm-up request per script (which fills
/// both plan-cache tiers). The daemon comes last so that it is still
/// warm when the request phases start.
pub fn set_up(
    workload: &Workload,
    seed: u64,
    quick: bool,
    configs: &[Config],
    bins: &Bins,
) -> Result<Ready, String> {
    let inputs = generate(workload.name, seed, quick);
    write_inputs(Path::new(DATA_DIR), &inputs).map_err(|e| format!("write inputs: {e}"))?;
    let mut warm_runs = Vec::new();
    {
        let runner = Runner::new(workload, &inputs, bins);
        for &config in configs {
            for (i, script) in workload.scripts.iter().enumerate() {
                let what = format!("{} warm-up on {}", script.id, config.metric());
                let run = runner.run_once(config, &script.text, None);
                warm_runs.push((what, i, run.map(|(observed, _)| observed)));
            }
        }
        if runner.recoveries() > 0 {
            return Err("the supervisor recovered a warm-up run".to_string());
        }
    }
    let daemon = Daemon::spawn(bins, Path::new("cache")).map_err(|e| format!("pashd: {e}"))?;
    daemon.seed(&inputs).map_err(|e| format!("PutFile: {e}"))?;
    let stdin = inputs.stdin().map(|b| b.as_slice()).unwrap_or_default();
    let mut warm_requests = Vec::new();
    for script in 0..workload.scripts.len() {
        let planned = Planned {
            script,
            fresh: None,
        };
        let (reply, observed) = daemon::request_unchecked(workload, stdin, planned)
            .map_err(|e| format!("warm-up request {}: {e}", workload.scripts[script].id))?;
        warm_requests.push((planned, reply, observed));
    }
    Ok(Ready {
        inputs,
        daemon,
        warm_runs,
        warm_requests,
    })
}

/// Runs every script of the workload, unmodified, under the host
/// `/bin/sh` + coreutils: the references, and the host's total time.
pub fn host_references(
    workload: &Workload,
    inputs: &Inputs,
) -> Result<(Vec<Observed>, f64), String> {
    let names: BTreeSet<String> = inputs.files.keys().cloned().collect();
    let stdin_path = Path::new(DATA_DIR).join(STDIN_FILE);
    let stdin_file = inputs.stdin().map(|_| stdin_path.as_path());
    let mut references = Vec::new();
    let mut total = 0.0;
    let mut on_host = BTreeSet::new();
    for script in &workload.scripts {
        let plan = pash::compile(&script.text, &workload.config(1))
            .map_err(|e| format!("{}: compile: {e}", script.id))?
            .plan;
        require_host_utilities(&plan, &mut on_host).map_err(|e| format!("{}: {e}", script.id))?;
        let (observed, took) = host_run(&script.text, Path::new(DATA_DIR), stdin_file, &names)
            .map_err(|e| format!("{}: host oracle: {e}", script.id))?;
        total += took.as_secs_f64();
        references.push(observed);
    }
    Ok((references, total))
}

/// One timed sample of `config`: `passes` back-to-back passes over the
/// workload's scripts, every execution checked against the host.
/// Returns seconds per pass.
pub fn sample(
    runner: &Runner<'_>,
    references: &[Observed],
    config: Config,
    passes: usize,
    ops: &mut Ops,
) -> f64 {
    let mut total = Duration::ZERO;
    for _ in 0..passes {
        for (script, reference) in runner.workload.scripts.iter().zip(references) {
            let what = format!("{} on {}", script.id, config.metric());
            match runner.run_once(config, &script.text, None) {
                Ok((observed, took)) => {
                    total += took;
                    ops.note(&what, &observed, reference);
                }
                Err(e) => ops.note_error(&what, &e),
            }
        }
    }
    total.as_secs_f64() / passes as f64
}

/// One closed-loop service phase: `n` requests from `clients` client
/// threads, every reply checked. `first_id` keeps the never-seen
/// script texts of one run's phases distinct.
#[allow(clippy::too_many_arguments)]
pub fn service_phase(
    workload: &Workload,
    inputs: &Inputs,
    references: &[Observed],
    seed: u64,
    first_id: u64,
    n: usize,
    clients: usize,
    ops: &mut Ops,
) -> Phase {
    let stdin = inputs.stdin().map(|b| b.as_slice()).unwrap_or_default();
    let schedule = request_schedule(
        seed,
        first_id,
        n,
        workload.scripts.len(),
        workload.fresh_share,
    );
    let phase = closed_loop(workload, stdin, references, &schedule, clients);
    ops.note_phase(&phase);
    phase
}

/// The end-to-end measurement of one workload: `setup_s` (the timed
/// set-ups already done by the caller), `rps` and `par_s`. The other
/// timings are per-layer metrics of the traced run: they do not repeat
/// within the bound in the time a run may take (see `bench/README.md`).
pub fn measure(
    runner: &Runner<'_>,
    references: &[Observed],
    seed: u64,
    setup_samples: &[f64],
    counts: &Counts,
    ops: &mut Ops,
) -> Vec<Metric> {
    // The service phase comes first, while the daemon is still warm
    // from set-up: after some ten idle seconds its first requests run
    // up to 1.5x slower (its freed memory has to be faulted in again).
    let c2 = service_phase(
        runner.workload,
        runner.inputs,
        references,
        seed,
        0,
        counts.c2_requests,
        2,
        ops,
    );
    let times: Vec<f64> = (0..counts.samples)
        .map(|_| sample(runner, references, Config::Par, counts.passes, ops))
        .collect();
    // One rate over the whole phase: its "sample" is the request count.
    let mut rps = Metric::new("rps", c2.rps());
    rps.sample = Some(Summary {
        n: c2.replies.len(),
        min: f64::NAN,
        max: f64::NAN,
    });
    vec![
        Metric::median_of("setup_s", setup_samples),
        Metric::median_of("par_s", &times),
        rps,
    ]
}
