//! End-to-end correctness: for every benchmark script in the suite,
//! parallel execution must produce byte-identical results to
//! sequential execution — the property PaSh's transformations promise
//! (§4.2) and the paper verifies over multi-GB inputs ("PaSh's
//! results ... are identical to the sequential for all benchmarks").
//!
//! The suite-wide loops run under both schedules of the executor
//! ([`schedules`]): these inputs are tens of kilobytes, close enough
//! to one pipe buffer that which schedule a default configuration
//! picks would be an accident of the corpus size.

use std::sync::{Arc, OnceLock};

use pash::core::compile::PashConfig;
use pash::core::dfg::{AggTreeShape, EagerPolicy, SplitPolicy};
use pash::core::plan::{PlanOp, SplitMode};
use pash::coreutils::fs::MemFs;
use pash::runtime::exec::{run_script, ExecConfig};
use pash_bench::fixtures::{cached_fs, registry};
use pash_bench::suites::{oneliners, unix50, usecases};

/// Runs a script and returns `(stdout, out.txt contents if any)`.
///
/// Corpus filesystems come from the shared
/// [`pash_bench::fixtures::cached_fs`] template cache (regeneration
/// used to dominate this suite's wall clock).
fn run(
    script: &str,
    cfg: &PashConfig,
    fs: Arc<MemFs>,
    exec: &ExecConfig,
) -> (Vec<u8>, Option<Vec<u8>>) {
    let out = run_script(script, cfg, registry(), fs.clone(), Vec::new(), exec)
        .unwrap_or_else(|e| panic!("execution failed: {e}\nscript: {script}"));
    let file = fs.read("out.txt").ok();
    (out.stdout, file)
}

/// The four `(eager, split)` configurations the one-liners sweep: no
/// eager relays, blocking relays, full relays without splits, and
/// full relays with the input-aware split.
const CONFIGS: [(EagerPolicy, SplitPolicy); 4] = [
    (EagerPolicy::Full, SplitPolicy::Sized),
    (EagerPolicy::Full, SplitPolicy::Off),
    (EagerPolicy::Blocking, SplitPolicy::Off),
    (EagerPolicy::Off, SplitPolicy::Off),
];

/// The sequential configuration every parallel run is compared with.
fn sequential() -> PashConfig {
    PashConfig {
        width: 1,
        ..Default::default()
    }
}

/// The executor's two schedules by name: a pipe capacity above the
/// corpus (every region's input fits one buffer, so it runs to
/// completion on one thread) and one below it (a thread per node).
fn schedules() -> [(&'static str, ExecConfig); 2] {
    let at = |pipe_capacity| ExecConfig {
        pipe_capacity,
        ..Default::default()
    };
    [
        ("run-to-completion", at(1 << 20)),
        ("thread-per-node", at(4096)),
    ]
}

#[test]
fn oneliners_parallel_equals_sequential() {
    for bench in oneliners::all() {
        let make_fs = || {
            cached_fs(format!("oneliners/{}/60000", bench.name), |fs| {
                oneliners::setup_fs(&bench, 60_000, fs)
            })
        };
        let seq = run(
            &bench.script,
            &sequential(),
            make_fs(),
            &ExecConfig::default(),
        );
        for (schedule, exec) in schedules() {
            for (eager, split) in CONFIGS {
                for width in [2usize, 3, 8] {
                    let cfg = PashConfig {
                        width,
                        eager,
                        split,
                        ..Default::default()
                    };
                    let par = run(&bench.script, &cfg, make_fs(), &exec);
                    assert_eq!(
                        seq, par,
                        "{} diverged at width {width} under {eager:?}/{split:?}, {schedule}",
                        bench.name,
                    );
                }
            }
        }
    }
}

#[test]
fn unix50_parallel_equals_sequential() {
    let make_fs = || {
        cached_fs("unix50/40000".to_string(), |fs| {
            unix50::setup_fs(40_000, fs)
        })
    };
    for p in unix50::all() {
        let seq = run(p.script, &sequential(), make_fs(), &ExecConfig::default());
        for (schedule, exec) in schedules() {
            let par = run(p.script, &PashConfig::best(16), make_fs(), &exec);
            assert_eq!(
                seq, par,
                "unix50 pipeline {} diverged at 16x, {schedule}",
                p.idx
            );
        }
    }
}

#[test]
fn noaa_matches_ground_truth_at_all_widths() {
    let spec = pash::workloads::NoaaSpec {
        years: 2015..=2017,
        files_per_year: 3,
        records_per_file: 120,
        seed: 9,
    };
    let script = usecases::noaa_script(2015..=2017);
    // The mirror is expensive to generate; cache it with its ground
    // truths and snapshot per width.
    static NOAA: OnceLock<(MemFs, Vec<(u32, u32)>)> = OnceLock::new();
    for width in [1usize, 2, 10] {
        let (template, truths) = NOAA.get_or_init(|| {
            let fs = MemFs::new();
            let truths = usecases::setup_noaa(&fs, &spec);
            (fs, truths)
        });
        let fs = Arc::new(template.snapshot());
        let (stdout, _) = run(
            &script,
            &PashConfig::best(width),
            fs,
            &ExecConfig::default(),
        );
        let text = String::from_utf8(stdout).expect("utf8 output");
        for (year, max) in truths {
            assert!(
                text.contains(&format!("Maximum temperature for {year} is: {max:04}")),
                "width {width}: wrong maximum for {year}\n{text}"
            );
        }
    }
}

#[test]
fn wiki_index_identical_across_widths() {
    let script = usecases::wiki_script();
    let spec = pash::workloads::WikiSpec {
        pages: 15,
        bytes_per_page: 1500,
        seed: 4,
    };
    let make_fs = || cached_fs("wiki/15".to_string(), |fs| usecases::setup_wiki(fs, &spec));
    let reference = {
        let fs = make_fs();
        run(&script, &sequential(), fs.clone(), &ExecConfig::default());
        fs.read("index.txt").expect("index")
    };
    for width in [4usize, 16] {
        let fs = make_fs();
        run(
            &script,
            &PashConfig::best(width),
            fs.clone(),
            &ExecConfig::default(),
        );
        assert_eq!(
            fs.read("index.txt").expect("index"),
            reference,
            "wiki index diverged at width {width}"
        );
    }
}

#[test]
fn flat_aggregation_tree_also_correct() {
    let bench = oneliners::by_name("Sort").expect("Sort exists");
    let fs = cached_fs("oneliners/Sort/50000".to_string(), |fs| {
        oneliners::setup_fs(&bench, 50_000, fs)
    });
    let seq = run(
        &bench.script,
        &sequential(),
        fs.clone(),
        &ExecConfig::default(),
    );
    let cfg = PashConfig {
        width: 8,
        agg_tree: AggTreeShape::Flat,
        ..Default::default()
    };
    let par = run(&bench.script, &cfg, fs, &ExecConfig::default());
    assert_eq!(seq, par);
}

#[test]
fn correctness_resilient_to_tiny_pipes() {
    // 48-byte pipes force maximal blocking and teardown interleavings,
    // through the general splitter as well: Top-n's plan gives `head`
    // one behind the `sort -rn` merge.
    let bench = oneliners::by_name("Top-n").expect("Top-n exists");
    let fs = cached_fs("oneliners/Top-n/30000".to_string(), |fs| {
        oneliners::setup_fs(&bench, 30_000, fs)
    });
    let cfg = PashConfig {
        width: 4,
        split: SplitPolicy::Sized,
        ..Default::default()
    };
    let plan = pash::compile(&bench.script, &cfg).expect("compile").plan;
    assert!(
        plan.regions().any(|r| r.nodes.iter().any(|n| matches!(
            n.op,
            PlanOp::Split {
                mode: SplitMode::General
            }
        ))),
        "Top-n's plan lost its general split"
    );
    let exec = ExecConfig {
        pipe_capacity: 48,
        ..Default::default()
    };
    let seq = run(&bench.script, &sequential(), fs.clone(), &exec);
    let par = run(&bench.script, &cfg, fs, &exec);
    assert_eq!(seq, par);
}

#[test]
fn conservative_configs_match_too() {
    // Eager off + splits off: the "No Eager" ablation still preserves
    // semantics (it is only slower).
    let bench = oneliners::by_name("Spell").expect("Spell exists");
    let fs = cached_fs("oneliners/Spell/40000".to_string(), |fs| {
        oneliners::setup_fs(&bench, 40_000, fs)
    });
    let seq = run(
        &bench.script,
        &sequential(),
        fs.clone(),
        &ExecConfig::default(),
    );
    let cfg = PashConfig {
        width: 6,
        eager: EagerPolicy::Off,
        split: SplitPolicy::Off,
        ..Default::default()
    };
    let par = run(&bench.script, &cfg, fs, &ExecConfig::default());
    assert_eq!(seq, par);
}
