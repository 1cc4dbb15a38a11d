//! `backendrun` — compile one script and execute it under a named
//! backend against a real directory, so backends can be diffed from
//! the command line (the CI smoke step `cmp`s `processes` against
//! `shell` this way):
//!
//! ```text
//! backendrun --backend processes --width 4 --dir work \
//!     --gen in.txt:200000 -e 'cat in.txt | tr A-Z a-z | sort > out.txt'
//! ```
//!
//! Backends: `shell` (emit + run under `/bin/sh`), `processes` (real
//! children over FIFOs), `threads` (in-process; directory contents are
//! loaded into a `MemFs` and outputs written back), and `remote`
//! (regions shipped to `pash-worker` daemons named by `--worker PATH`,
//! repeatable; directory handling as for `threads`). `--split sized`
//! (the default, `PashConfig::best`) or `--split rr`
//! (`PashConfig::round_robin`, which deals a stdin stream in tagged
//! `r_split` blocks) picks the split policy. The multi-call binaries
//! are found next to this executable (or via `$PASHC`/`$PASH_RT`).
//! Exits with the program's status.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use pash_core::backend::{emit_program, EmitConfig};
use pash_core::compile::{compile, PashConfig};
use pash_coreutils::fs::{Fs, MemFs};
use pash_coreutils::Registry;
use pash_runtime::exec::{run_program, ExecConfig, ProgramOutput};
use pash_runtime::proc::{run_plan, ProcSettings};
use pash_runtime::run_program_remote;

fn main() {
    let mut backend = "processes".to_string();
    let mut width = 4usize;
    let mut round_robin = false;
    let mut dir = PathBuf::from("backendrun-work");
    let mut gens: Vec<(String, usize)> = Vec::new();
    let mut workers: Vec<PathBuf> = Vec::new();
    let mut script: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--backend" => backend = args.next().unwrap_or_else(|| usage()),
            "--width" => {
                width = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--split" => {
                round_robin = match args.next().as_deref() {
                    Some("sized") => false,
                    Some("rr") => true,
                    _ => usage(),
                }
            }
            "--dir" => dir = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--gen" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let (name, bytes) = spec.split_once(':').unwrap_or_else(|| usage());
                let bytes = bytes.parse().unwrap_or_else(|_| usage());
                gens.push((name.to_string(), bytes));
            }
            "--worker" => workers.push(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "-e" => script = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let script = script.unwrap_or_else(|| usage());

    std::fs::create_dir_all(&dir).expect("create work dir");
    for (name, bytes) in &gens {
        let path = dir.join(name);
        if !path.exists() {
            std::fs::write(&path, pash_workloads::text_corpus(11, *bytes)).expect("write corpus");
        }
    }

    let cfg = if round_robin {
        PashConfig::round_robin(width)
    } else {
        PashConfig::best(width)
    };
    let compiled = compile(&script, &cfg).unwrap_or_else(|e| {
        eprintln!("backendrun: compile: {e}");
        std::process::exit(2);
    });

    // Piped stdin reaches every backend the same way: `shell` inherits
    // the real fd, the others get the bytes. A terminal is not read.
    let read_stdin = || {
        use std::io::{IsTerminal, Read};
        let mut bytes = Vec::new();
        if !std::io::stdin().is_terminal() {
            std::io::stdin()
                .read_to_end(&mut bytes)
                .expect("read stdin");
        }
        bytes
    };

    let registry = Registry::standard();
    let status = match backend.as_str() {
        "shell" => run_shell(&emit_program(&compiled.plan, &EmitConfig), &dir),
        "processes" => {
            let pcfg = ProcSettings::default();
            let out =
                run_plan(&compiled.plan, None, &pcfg, &dir, &read_stdin()).unwrap_or_else(|e| {
                    eprintln!("backendrun: processes: {e}");
                    std::process::exit(2);
                });
            print_bytes(&out.stdout);
            out.status
        }
        "threads" => through_memfs("threads", &dir, |fs| {
            let cfg = ExecConfig::default();
            run_program(&compiled.plan, None, &registry, fs, &read_stdin(), &cfg)
        }),
        "remote" => {
            if workers.is_empty() {
                eprintln!("backendrun: the remote backend needs at least one --worker PATH");
                std::process::exit(2);
            }
            // The regions themselves execute on the worker daemons.
            let pool = pash_runtime::WorkerPool::new(workers);
            through_memfs("remote", &dir, |fs| {
                let cfg = ExecConfig::default();
                run_program_remote(
                    &compiled.plan,
                    None,
                    &registry,
                    fs,
                    &read_stdin(),
                    &cfg,
                    &pool,
                )
            })
        }
        other => {
            eprintln!("backendrun: unknown backend `{other}` (shell|processes|threads|remote)");
            std::process::exit(2);
        }
    };
    std::process::exit(status);
}

fn run_shell(script_text: &str, dir: &Path) -> i32 {
    let pashc = pash_runtime::proc::locate_bin("pashc", "PASHC").unwrap_or_else(die);
    let pash_rt = pash_runtime::proc::locate_bin("pash-rt", "PASH_RT").unwrap_or_else(die);
    let path = dir.join("parallel.sh");
    std::fs::write(&path, script_text).expect("write script");
    let status = Command::new("/bin/sh")
        .arg("parallel.sh")
        .current_dir(dir)
        .env("PASHC", pashc)
        .env("PASH_RT", pash_rt)
        .status()
        .expect("run /bin/sh");
    status.code().unwrap_or(1)
}

/// Loads the files of `dir` into a `MemFs`, runs `run` over it
/// hermetically, writes every file back into `dir` and prints the
/// program's stdout. Returns its status; a file that cannot be written
/// back (its directory does not exist) is reported, with status 2, as
/// the shell reports an output it cannot create.
fn through_memfs(
    backend: &str,
    dir: &Path,
    run: impl FnOnce(Arc<dyn Fs>) -> std::io::Result<ProgramOutput>,
) -> i32 {
    let fs = MemFs::new();
    for entry in std::fs::read_dir(dir).expect("read work dir") {
        let entry = entry.expect("dir entry");
        if entry.file_type().expect("file type").is_file() {
            let name = entry.file_name().to_string_lossy().into_owned();
            fs.add(name, std::fs::read(entry.path()).expect("read input"));
        }
    }
    let fs = Arc::new(fs);
    let out = run(fs.clone()).unwrap_or_else(|e| {
        eprintln!("backendrun: {backend}: {e}");
        std::process::exit(2);
    });
    for path in fs.paths() {
        let bytes = fs.read(&path).expect("fs file");
        if let Err(e) = std::fs::write(dir.join(&path), bytes) {
            eprintln!("backendrun: {backend}: cannot create {path}: {e}");
            std::process::exit(2);
        }
    }
    print_bytes(&out.stdout);
    out.status
}

fn print_bytes(bytes: &[u8]) {
    use std::io::Write;
    std::io::stdout().write_all(bytes).expect("stdout");
}

fn die<T>(e: std::io::Error) -> T {
    eprintln!("backendrun: {e}");
    std::process::exit(2);
}

fn usage() -> ! {
    eprintln!(
        "usage: backendrun [--backend shell|processes|threads|remote] [--width N] \
         [--split sized|rr] [--dir DIR] [--gen NAME:BYTES]… [--worker PATH]… -e SCRIPT"
    );
    std::process::exit(2);
}
