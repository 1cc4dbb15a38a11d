//! The back-end's other half: the scripts PaSh *emits* must run under
//! a real POSIX `/bin/sh` — with real FIFOs, background jobs, `wait`,
//! and SIGPIPE cleanup — and produce the sequential output.
//!
//! These tests build the `pashc` (coreutils multi-call) and `pash-rt`
//! (runtime primitives) binaries and drive the generated scripts
//! through the system shell.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pash::core::backend::{emit_program, emit_region, EmitConfig};
use pash::core::compile::PashConfig;
use pash::coreutils::fs::MemFs;
use pash::runtime::exec::{run_script, ExecConfig};
use pash_bench::fixtures::{cached_corpus, registry, runtime_binaries};

/// A shared corpus from the process-wide cache, cloned into the
/// per-test file list.
fn corpus(seed: u64, bytes: usize) -> Vec<u8> {
    cached_corpus(seed, bytes).as_ref().clone()
}

/// The multi-call binaries, when `/bin/sh` exists to drive them.
fn build_binaries() -> Option<(PathBuf, PathBuf)> {
    if !PathBuf::from("/bin/sh").exists() {
        return None;
    }
    runtime_binaries()
}

/// Compiles `script` with `cfg`, materializes `files` in a temp dir
/// and runs the emitted script there under `/bin/sh`; returns the
/// script's captured output beside the bytes of the `output` file it
/// left behind.
fn run_under_sh(
    script: &str,
    cfg: &PashConfig,
    files: &[(&str, Vec<u8>)],
    output: Option<&str>,
) -> Option<(std::process::Output, Vec<u8>)> {
    let (pashc, pash_rt) = build_binaries()?;
    let compiled = pash::compile(script, cfg).expect("compile");
    let dir = std::env::temp_dir().join(format!(
        "pash-e2e-{}-{}-{}",
        std::process::id(),
        cfg.width,
        files.iter().map(|(_, d)| d.len()).sum::<usize>()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (name, data) in files {
        std::fs::write(dir.join(name), data).expect("write input");
    }
    let emitted = emit_program(&compiled.plan, &EmitConfig);
    std::fs::write(dir.join("parallel.sh"), &emitted).expect("write script");
    let out = Command::new("/bin/sh")
        .arg("parallel.sh")
        .current_dir(&dir)
        .env("PASHC", &pashc)
        .env("PASH_RT", &pash_rt)
        .output()
        .expect("run sh");
    let left = output.map(|o| std::fs::read(dir.join(o)).expect("output file"));
    let _ = std::fs::remove_dir_all(&dir);
    Some((out, left.unwrap_or_default()))
}

/// [`run_under_sh`] at `width`, for a script that must succeed and
/// leave its result in the `output` file.
fn run_emitted(
    script: &str,
    files: &[(&str, Vec<u8>)],
    width: usize,
    output: &str,
) -> Option<Vec<u8>> {
    let cfg = PashConfig {
        width,
        ..Default::default()
    };
    let (out, left) = run_under_sh(script, &cfg, files, Some(output))?;
    assert!(out.status.success(), "emitted script failed: {script}");
    Some(left)
}

/// The executor's sequential output as the reference.
fn reference(script: &str, files: &[(&str, Vec<u8>)], output: &str) -> Vec<u8> {
    let fs = Arc::new(MemFs::new());
    for (name, data) in files {
        fs.add(*name, data.clone());
    }
    run_script(
        script,
        &PashConfig {
            width: 1,
            ..Default::default()
        },
        registry(),
        fs.clone(),
        Vec::new(),
        &ExecConfig::default(),
    )
    .expect("reference run");
    fs.read(output).expect("reference output")
}

#[test]
fn emitted_sort_pipeline_runs_under_sh() {
    let files = vec![("in.txt", corpus(51, 60_000))];
    let script = "cat in.txt | tr A-Z a-z | sort | uniq -c > out.txt";
    let expected = reference(script, &files, "out.txt");
    for width in [1usize, 3] {
        match run_emitted(script, &files, width, "out.txt") {
            Some(out) => assert_eq!(
                out, expected,
                "emitted script output diverged at width {width}"
            ),
            None => eprintln!("skipping: no /bin/sh or binaries unavailable"),
        }
    }
}

#[test]
fn emitted_grep_head_terminates_cleanly() {
    // The §5.2 dangling-FIFO scenario under a real shell: head exits
    // early; the emitted cleanup must SIGPIPE the producers so the
    // script terminates.
    let files = vec![("in.txt", corpus(52, 40_000))];
    let script = "cat in.txt | tr A-Z a-z | sort -rn | head -n 1 > out.txt";
    let expected = reference(script, &files, "out.txt");
    match run_emitted(script, &files, 4, "out.txt") {
        Some(out) => assert_eq!(out, expected),
        None => eprintln!("skipping: no /bin/sh or binaries unavailable"),
    }
}

#[test]
fn emitted_comm_with_static_input() {
    let dict = pash::workloads::dictionary();
    let files = vec![("in.txt", corpus(53, 30_000)), ("dict.txt", dict)];
    let script =
        "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq | comm -13 dict.txt - > out.txt";
    let expected = reference(script, &files, "out.txt");
    match run_emitted(script, &files, 3, "out.txt") {
        Some(out) => assert_eq!(out, expected),
        None => eprintln!("skipping: no /bin/sh or binaries unavailable"),
    }
}

#[test]
fn emitted_head_over_segments_launches_one_job_per_node() {
    // Early exit over segment-fed copies: `head` is done after one line
    // while four `tr` copies still hold most of their segment. Every
    // background job of the region is one of its nodes — a copy opens
    // its own segment (`--stdin-seg`), nothing is piped into it — so
    // the cleanup signals exactly the pids it launched and the script
    // returns at once, with the in-process backend's bytes and status.
    let script = "cat in.txt | tr A-Z a-z | head -n 1";
    let cfg = PashConfig::best(4);
    let compiled = pash::compile(script, &cfg).expect("compile");
    for (idx, r) in compiled.plan.regions().enumerate() {
        let block = emit_region(r, idx, &EmitConfig);
        assert_eq!(block.matches(" &\n").count(), r.nodes.len(), "{block}");
        assert_eq!(block.matches(" --stdin-seg in.txt ").count(), 4, "{block}");
        assert!(!block.contains(" | "), "{block}");
    }

    // Built (once per process) before the clock starts.
    if build_binaries().is_none() {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    }
    let files = vec![("in.txt", corpus(54, 4_000_000))];
    let started = Instant::now();
    let (out, _) = run_under_sh(script, &cfg, &files, None).expect("binaries are built");
    let took = started.elapsed();

    let fs = Arc::new(MemFs::new());
    fs.add("in.txt", files[0].1.clone());
    let threads = run_script(
        script,
        &cfg,
        registry(),
        fs,
        Vec::new(),
        &ExecConfig::default(),
    )
    .expect("threads run");
    assert!(!threads.stdout.is_empty());
    assert_eq!(
        (out.stdout, out.status.code()),
        (threads.stdout, Some(threads.status))
    );
    assert!(took < Duration::from_secs(5), "teardown took {took:?}");
}
