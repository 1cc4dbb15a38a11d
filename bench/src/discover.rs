//! Which suite scripts belong in `short_scripts.txt`.
//!
//! Runs every oneliners / Unix50 / NLP script on the `short-scripts`
//! inputs under the host oracle and on all three configurations, for a
//! few seeds. Fails if a listed script differs from the host anywhere;
//! prints the ids that match everywhere (the list) and, for the rest,
//! the first difference (the rows of `KNOWN_DIVERGENCES.md`).
//!
//! ```sh
//! bash bench/run.sh --quick        # builds the release binaries
//! cargo test --release --offline --manifest-path bench/Cargo.toml -- --ignored --nocapture
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::oracle::{host_run, require_host_utilities};
use crate::runner::{write_inputs, Bins, Runner, DATA_DIR};
use crate::workloads::{by_name, generate, short_list, suite_scripts, Config, Workload, W};

const SEEDS: std::ops::RangeInclusive<u64> = 1..=5;

/// `Err` is the first difference from the host on any configuration.
fn against_the_host(
    runner: &Runner<'_>,
    text: &str,
    on_host: &mut BTreeSet<String>,
) -> Result<(), String> {
    let plan = pash::compile(text, &runner.workload.config(W))
        .map_err(|e| format!("does not compile: {e}"))?
        .plan;
    require_host_utilities(&plan, on_host)?;
    let (reference, _) = host_run(text, Path::new(DATA_DIR), None, runner.input_names())
        .map_err(|e| e.to_string())?;
    for config in Config::ALL {
        let (observed, _) = runner
            .run_once(config, text, None)
            .map_err(|e| format!("{} fails: {e}", config.metric()))?;
        if let Some(diff) = observed.first_difference(&reference) {
            return Err(format!("{}: {diff}", config.metric()));
        }
    }
    Ok(())
}

#[test]
#[ignore = "needs the release binaries (bash bench/run.sh builds them) and changes directory"]
fn suite_scripts_against_the_host() {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../target"));
    let bins = Bins::locate(&std::path::absolute(target.join("release")).expect("cwd"))
        .expect("release binaries");
    let work = std::env::temp_dir().join(format!("pash-perfbench-discover-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("work dir");
    std::env::set_current_dir(&work).expect("enter work dir");

    let workload = Workload {
        scripts: suite_scripts(),
        ..by_name("short-scripts").expect("short-scripts is defined")
    };
    let mut on_host = BTreeSet::new();
    // Script id -> the first difference seen on any seed.
    let mut excluded: BTreeMap<String, String> = BTreeMap::new();
    for seed in SEEDS {
        let inputs = generate(workload.name, seed, false);
        write_inputs(Path::new(DATA_DIR), &inputs).expect("write inputs");
        let runner = Runner::new(&workload, &inputs, &bins);
        for script in &workload.scripts {
            if let Err(why) = against_the_host(&runner, &script.text, &mut on_host) {
                excluded
                    .entry(script.id.clone())
                    .or_insert(format!("seed {seed}: {why}"));
            }
        }
    }
    std::env::set_current_dir("/").expect("leave work dir");
    std::fs::remove_dir_all(&work).expect("remove work dir");

    println!("# short_scripts.txt");
    for script in &workload.scripts {
        if !excluded.contains_key(&script.id) {
            println!("{}", script.id);
        }
    }
    println!("\n# KNOWN_DIVERGENCES.md rows");
    for script in &workload.scripts {
        if let Some(why) = excluded.get(&script.id) {
            println!(
                "| `{}` | `{}` | {} |",
                script.id,
                script.text.replace('\n', "; ").replace('|', "\\|"),
                why.replace('|', "\\|")
            );
        }
    }
    for listed in short_list() {
        assert!(
            !excluded.contains_key(&listed.id),
            "{} is in short_scripts.txt but differs from the host: {}",
            listed.id,
            excluded[&listed.id]
        );
    }
}
