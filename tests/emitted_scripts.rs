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
use pash::{BackendOutput, ProcSettings, RunEnv};
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

/// A step kept as shell text runs in a shell of its own on
/// `processes`, and after an unrolled loop on `shell` too: it must
/// still see the variables the compiler folded, the loop's among them.
/// Stdout and status against the host's `/bin/sh`.
#[test]
fn shell_steps_see_the_variables_the_compiler_folded() {
    let Some((pashc, pash_rt)) = build_binaries() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    for script in ["for x in a b; do ! echo $x; done", "x=a; ! echo $x"] {
        let host = Command::new("/bin/sh")
            .args(["-c", script])
            .output()
            .expect("run sh");
        let cfg = PashConfig::default();
        let (emitted, _) = run_under_sh(script, &cfg, &[], None).expect("binaries");
        assert_eq!(
            (emitted.stdout, emitted.status.code()),
            (host.stdout.clone(), host.status.code()),
            "`{script}` on shell"
        );
        let env = RunEnv {
            proc: ProcSettings {
                pashc: Some(pashc.clone()),
                pash_rt: Some(pash_rt.clone()),
                ..Default::default()
            },
            ..Default::default()
        };
        let out = match pash::run(script, &cfg, "processes", &env) {
            Ok(BackendOutput::Execution(out)) => out,
            other => panic!("`{script}` on processes: {other:?}"),
        };
        assert_eq!(
            (out.stdout, Some(out.status)),
            (host.stdout, host.status.code()),
            "`{script}` on processes"
        );
    }
}

/// A step kept as shell text sees `$?`, the status of the step before
/// it, on `processes` as on `shell`: a `sh -c` of its own starts at 0.
/// Stdout and status against the host's `/bin/sh`.
#[test]
fn shell_steps_see_the_status_before_them() {
    let Some((pashc, pash_rt)) = build_binaries() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    let dir = std::env::temp_dir().join(format!("pash-e2e-status-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("t1"), b"1\n2\n").expect("write input");
    for script in [
        "false; echo st $?",
        "grep zzz t1; echo st $?",
        "tr a b < nope; echo st $?",
        "grep 1 t1; echo st $?",
    ] {
        let host = Command::new("/bin/sh")
            .args(["-c", script])
            .current_dir(&dir)
            .output()
            .expect("run sh");
        let cfg = PashConfig::default();
        let files = [("t1", b"1\n2\n".to_vec())];
        let (emitted, _) = run_under_sh(script, &cfg, &files, None).expect("binaries");
        assert_eq!(
            (emitted.stdout, emitted.status.code()),
            (host.stdout.clone(), host.status.code()),
            "`{script}` on shell"
        );
        let env = RunEnv {
            proc: ProcSettings {
                pashc: Some(pashc.clone()),
                pash_rt: Some(pash_rt.clone()),
                ..Default::default()
            },
            ..Default::default()
        };
        env.fs.add("t1", b"1\n2\n".to_vec());
        let out = match pash::run(script, &cfg, "processes", &env) {
            Ok(BackendOutput::Execution(out)) => out,
            other => panic!("`{script}` on processes: {other:?}"),
        };
        assert_eq!(
            (out.stdout, Some(out.status)),
            (host.stdout, host.status.code()),
            "`{script}` on processes"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A missing input file fails the emitted script instead of wedging
/// it. At width 2 each copy of `wc -l` reads one file on its stdin and
/// writes a FIFO an eager relay reads; the copy whose file is missing
/// must still open that FIFO, or the relay waits in `open` for ever.
/// The copy opens both itself (`--stdin nope --stdout FIFO`), and
/// opens and closes the FIFO when `nope` fails. Under a killing
/// watchdog: the script must end by itself, with the failed open's
/// status, as the host shell's redirection failure ends with a status.
#[test]
fn a_missing_input_file_fails_the_emitted_script_under_a_watchdog() {
    let Some((pashc, pash_rt)) = build_binaries() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    if !PathBuf::from("/usr/bin/timeout").exists() && !PathBuf::from("/bin/timeout").exists() {
        eprintln!("skipping: the host has no `timeout`");
        return;
    }
    let script = "wc -l t1 nope";
    let compiled = pash::compile(script, &PashConfig::best(2)).expect("compile");
    let emitted = emit_program(&compiled.plan, &EmitConfig);
    assert!(
        emitted.contains(" --stdin nope --stdout \"$PASH_TMP\"/"),
        "{emitted}"
    );
    let dir = std::env::temp_dir().join(format!("pash-e2e-nope-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("t1"), b"1\n2\n").expect("write input");
    std::fs::write(dir.join("parallel.sh"), &emitted).expect("write script");
    let started = Instant::now();
    let out = Command::new("timeout")
        .args(["-s", "KILL", "20", "/bin/sh", "parallel.sh"])
        .current_dir(&dir)
        .env("PASHC", &pashc)
        .env("PASH_RT", &pash_rt)
        .output()
        .expect("run sh");
    let took = started.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    // `timeout -s KILL` reports the kill as the signal, not a status.
    assert!(
        out.status.code().is_some(),
        "the script wedged and was killed after {took:?}"
    );
    assert_ne!(out.status.code(), Some(0), "a missing file fails the run");
    assert!(took < Duration::from_secs(10), "the script took {took:?}");
}

/// The `processes` twin of the test above: the copy of `wc -l` whose
/// file is missing is a child told to open it (`--stdin nope`), and it
/// still opens, and closes, the FIFO it writes, so the relay reading
/// that FIFO is not left in `open`. The run must end by itself, with a
/// status, under a watchdog that fails the test instead of hanging it.
#[test]
fn a_missing_input_file_fails_the_process_run_under_a_watchdog() {
    let Some((pashc, pash_rt)) = build_binaries() else {
        eprintln!("skipping: no /bin/sh or binaries unavailable");
        return;
    };
    let script = "wc -l t1 nope";
    let compiled = pash::compile(script, &PashConfig::best(2)).expect("compile");
    let relays = compiled.plan.regions().flat_map(|r| &r.nodes);
    let relays = relays.filter(|n| matches!(n.op, pash::core::plan::PlanOp::Relay { .. }));
    assert!(relays.count() > 0, "a relay waits on a copy's FIFO");
    let (done, finished) = std::sync::mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        let env = RunEnv {
            proc: ProcSettings {
                pashc: Some(pashc),
                pash_rt: Some(pash_rt),
                ..Default::default()
            },
            ..Default::default()
        };
        env.fs.add("t1", b"1\n2\n".to_vec());
        let _ = done.send(pash::run(script, &PashConfig::best(2), "processes", &env));
    });
    let out = match finished.recv_timeout(Duration::from_secs(20)) {
        Ok(Ok(BackendOutput::Execution(out))) => out,
        Ok(other) => panic!("`{script}` on processes: {other:?}"),
        Err(_) => panic!("the run wedged for {:?}", started.elapsed()),
    };
    assert_ne!(out.status, 0, "a missing file fails the run");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "took {:?}",
        started.elapsed()
    );
}

/// A missing input file leaves the job's output file as it was, as in
/// the host shell, which opens `< nope` first and never reaches
/// `> out`. Only a FIFO is still opened, and closed, after a failed
/// input (above); a user file is not, at width 1 and for a command
/// that runs whole at every width.
#[test]
fn a_missing_input_file_leaves_the_output_file_untouched() {
    let kept = b"kept by the failed open\n".to_vec();
    for (script, width) in [("sort < nope > out", 1), ("sha1sum < nope > out", 2)] {
        let cfg = PashConfig {
            width,
            ..Default::default()
        };
        let Some((out, left)) = run_under_sh(script, &cfg, &[("out", kept.clone())], Some("out"))
        else {
            eprintln!("skipping: no /bin/sh or binaries unavailable");
            return;
        };
        assert!(!out.status.success(), "{script} at width {width}");
        assert_eq!(
            String::from_utf8_lossy(&left),
            String::from_utf8_lossy(&kept),
            "{script} at width {width} touched its output file"
        );
    }
}

/// A node's redirections are part of its command line, and the
/// command opens its own FIFOs and files: over every suite script at
/// widths 1, 2 and 4 under both split policies, the only redirections
/// an emitted job carries are the region boundary's, `<&9` and
/// `< /dev/null`.
#[test]
fn emitted_jobs_redirect_only_the_region_boundary() {
    use pash::core::dfg::transform::SplitPolicy;
    use pash_bench::suites::{oneliners, unix50};
    let scripts = (oneliners::all().into_iter().map(|b| b.script))
        .chain(unix50::all().into_iter().map(|p| p.script.to_string()))
        .chain(
            pash::workloads::nlp::scripts()
                .into_iter()
                .map(|b| b.script.to_string()),
        );
    let mut jobs = 0;
    for script in scripts {
        for width in [1, 2, 4] {
            for split in [SplitPolicy::Sized, SplitPolicy::RoundRobin] {
                let cfg = PashConfig {
                    width,
                    split,
                    ..Default::default()
                };
                let plan = pash::compile(&script, &cfg).expect("compile").plan;
                let emitted = emit_program(&plan, &EmitConfig);
                let is_job = |l: &&str| l.starts_with("\"$PASH") && l.ends_with(" &");
                for line in emitted.lines().filter(is_job) {
                    jobs += 1;
                    let words = line.trim_end_matches(" &");
                    let words = (words.strip_suffix(" <&9"))
                        .or_else(|| words.strip_suffix(" < /dev/null"))
                        .unwrap_or(words);
                    assert!(
                        !unquoted(words).contains(['<', '>']),
                        "width {width}, {split:?}: {line}\nscript: {script}"
                    );
                }
            }
        }
    }
    assert!(jobs > 1000, "only {jobs} jobs emitted");
}

/// `line` without its quoted and escaped text: what `sh` reads as
/// operators.
fn unquoted(line: &str) -> String {
    let mut out = String::new();
    let mut chars = line.chars();
    let mut quote = None;
    while let Some(c) = chars.next() {
        match (quote, c) {
            (None, '\'' | '"') => quote = Some(c),
            (None, '\\') => {
                chars.next();
            }
            (None, c) => out.push(c),
            (Some(q), c) if c == q => quote = None,
            (Some(_), _) => {}
        }
    }
    out
}
