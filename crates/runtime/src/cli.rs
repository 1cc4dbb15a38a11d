//! The multi-call command-line dispatch shared by the `pashc` and
//! `pash-rt` binaries.
//!
//! Both binaries expose the same union of commands — every coreutils
//! command plus the runtime primitives (`eager`, `split`, `fileseg`,
//! `pash-agg-*`) — so every [`pash_core::plan::PlanOp`] is runnable
//! as a standalone OS process. They differ only in lookup precedence:
//! `pashc` resolves coreutils names first, `pash-rt` resolves runtime
//! primitives first (the roles `$PASHC` / `$PASH_RT` play in emitted
//! scripts).
//!
//! # FIFO redirection (`--stdin` / `--stdout`)
//!
//! The process backend wires internal plan edges as named FIFOs.
//! Opening a FIFO blocks until the peer end opens, so the *parent*
//! must never open one — it would deadlock before spawning the peer.
//! Instead the spawned command is told to open its own endpoints:
//!
//! ```text
//! pashc --stdin /tmp/fifo-in --stdout /tmp/fifo-out grep foo
//! ```
//!
//! The open happens here, in the child, after every node of the
//! region has been spawned — exactly when `sh` would perform `<`/`>`
//! redirections in a background job.

use std::io::{self, Read, Write};
use std::sync::Arc;

use pash_coreutils::fs::{Fs, RealFs};
use pash_coreutils::lines::BLOCK_SIZE;
use pash_coreutils::{run_standalone, Registry};

use crate::agg::run_aggregator;
use crate::fault::{parse_env_spec, FaultyWriter, INFRA_STATUS};
use crate::fileseg::read_segment;
use crate::frame::run_framed;
use crate::relay::{run_relay, RelayMode};
use crate::split::{split_general, split_round_robin};

/// Which name table wins when a name exists in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Personality {
    /// Coreutils commands first (`pashc`).
    Coreutils,
    /// Runtime primitives first (`pash-rt`).
    Runtime,
}

/// Leading `--stdin PATH` / `--stdout PATH` / `--in PATH` redirections
/// plus the valueless `--framed` worker-mode flag.
#[derive(Debug, Default)]
struct Redirections {
    stdin: Option<String>,
    stdout: Option<String>,
    /// Ordered input operands for the `agg` subcommand.
    ins: Vec<String>,
    /// Run the command once per tagged input block, re-framing its
    /// output under the same tag (the `r_split` worker mode).
    framed: bool,
}

impl Redirections {
    /// Splits redirections off the front of `args`.
    fn parse(args: &[String]) -> io::Result<(Redirections, &[String])> {
        let mut redir = Redirections::default();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if flag == "--framed" {
                redir.framed = true;
                i += 1;
                continue;
            }
            if !matches!(flag, "--stdin" | "--stdout" | "--in") {
                break;
            }
            let path = args.get(i + 1).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, format!("{flag} needs a path"))
            })?;
            match flag {
                "--stdin" => redir.stdin = Some(path.clone()),
                "--stdout" => redir.stdout = Some(path.clone()),
                _ => redir.ins.push(path.clone()),
            }
            i += 2;
        }
        Ok((redir, &args[i..]))
    }

    /// Opens the input side: the redirected file (blocking until a
    /// FIFO peer arrives) or the process's stdin.
    fn open_stdin(&self) -> io::Result<Box<dyn Read + Send>> {
        Ok(match &self.stdin {
            Some(p) => Box::new(std::fs::File::open(p)?),
            None => Box::new(io::stdin()),
        })
    }

    /// Opens the output side, buffered. When the parent armed this
    /// child with a stream fault (`PASH_FAULT`, set by the process
    /// backend on exactly one node per attempt), the writer is
    /// wrapped so the fault fires at its byte offset — an injected
    /// death aborts the whole process (SIGABRT, status 134).
    fn open_stdout(&self) -> io::Result<Box<dyn Write + Send>> {
        let raw: Box<dyn Write + Send> = match &self.stdout {
            Some(p) => Box::new(io::BufWriter::new(std::fs::File::create(p)?)),
            None => Box::new(io::BufWriter::new(io::stdout())),
        };
        Ok(
            match std::env::var("PASH_FAULT")
                .ok()
                .and_then(|s| parse_env_spec(&s))
            {
                Some(mode) => Box::new(FaultyWriter::new_abort(raw, mode)),
                None => raw,
            },
        )
    }
}

/// Whether `name` is a runtime primitive.
fn is_runtime_name(name: &str) -> bool {
    matches!(name, "eager" | "split" | "r_split" | "fileseg" | "agg")
        || name.starts_with("pash-agg-")
}

/// Runs one multi-call invocation; returns the exit status.
///
/// The filesystem is the host's, rooted at the working directory —
/// spawned plan nodes inherit the backend's root as their cwd.
pub fn run_multicall(personality: Personality, args: &[String]) -> io::Result<i32> {
    let (redir, rest) = Redirections::parse(args)?;
    let (name, rest) = match rest.split_first() {
        Some(x) => x,
        None => {
            eprintln!("usage: pashc|pash-rt [--stdin PATH] [--stdout PATH] COMMAND [ARGS…]");
            eprintln!(
                "commands: {} + eager split r_split fileseg pash-agg-*",
                Registry::standard().names().join(" ")
            );
            return Ok(2);
        }
    };
    let cwd = std::env::current_dir()?;
    let fs: Arc<dyn Fs> = Arc::new(RealFs::new(cwd));
    let registry = Registry::standard();
    let runtime_first = personality == Personality::Runtime;
    let runtime_hit = is_runtime_name(name);
    let registry_hit = registry.get(name).is_some();
    if runtime_hit && (runtime_first || !registry_hit) {
        run_runtime(name, rest, &redir, &registry, fs)
    } else if redir.framed {
        // The `--framed` worker mode: once per tagged input block.
        let mut out = redir.open_stdout()?;
        run_framed(redir.open_stdin()?, &mut out, |stdin, stdout| {
            run_standalone(&registry, fs.clone(), name, rest, stdin, stdout)
        })
    } else {
        let mut stdin = io::BufReader::with_capacity(BLOCK_SIZE, redir.open_stdin()?);
        let mut stdout = redir.open_stdout()?;
        run_standalone(&registry, fs, name, rest, &mut stdin, &mut stdout)
    }
}

/// Runs a runtime primitive.
fn run_runtime(
    name: &str,
    rest: &[String],
    redir: &Redirections,
    registry: &Registry,
    fs: Arc<dyn Fs>,
) -> io::Result<i32> {
    match name {
        "eager" => {
            let mode = if rest.first().map(|s| s.as_str()) == Some("--blocking") {
                RelayMode::Blocking(8)
            } else {
                RelayMode::Full
            };
            let input = redir.open_stdin()?;
            let mut out = redir.open_stdout()?;
            run_relay(input, &mut out, mode)?;
            out.flush()?;
            Ok(0)
        }
        "split" => {
            let outputs: Vec<&String> = rest.iter().filter(|a| !a.starts_with("--")).collect();
            if outputs.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "split needs output paths",
                ));
            }
            let mut writers: Vec<Box<dyn Write + Send>> = Vec::new();
            for o in &outputs {
                writers.push(fs.create(o)?);
            }
            let mut input = io::BufReader::with_capacity(BLOCK_SIZE, redir.open_stdin()?);
            split_general(&mut input, &mut writers)?;
            Ok(0)
        }
        "r_split" => {
            let raw = rest.iter().any(|a| a == "--raw");
            let outputs: Vec<&String> = rest.iter().filter(|a| !a.starts_with("--")).collect();
            if outputs.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "r_split needs output paths",
                ));
            }
            let mut writers: Vec<Box<dyn Write + Send>> = Vec::new();
            for o in &outputs {
                writers.push(fs.create(o)?);
            }
            let mut input = io::BufReader::with_capacity(BLOCK_SIZE, redir.open_stdin()?);
            split_round_robin(&mut input, &mut writers, !raw)?;
            Ok(0)
        }
        "fileseg" => {
            if rest.len() != 3 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "usage: fileseg PATH PART OF",
                ));
            }
            let part: usize = rest[1]
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "bad PART"))?;
            let of: usize = rest[2]
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "bad OF"))?;
            let data = read_segment(&fs, &rest[0], part, of)?;
            let mut out = redir.open_stdout()?;
            out.write_all(&data)?;
            out.flush()?;
            Ok(0)
        }
        // The spawn-spec form: inputs arrive as `--in` redirections,
        // the words after `agg` are the aggregator argv verbatim.
        // This is the only unambiguous form for re-applied command
        // aggregators (`agg head -n 3` takes three lines of the
        // ordered concatenation; `head -n 3 f1 f2` would take three
        // *per file*).
        "agg" => {
            if rest.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "agg needs an aggregator argv",
                ));
            }
            let mut inputs: Vec<Box<dyn Read + Send>> = Vec::new();
            for f in &redir.ins {
                inputs.push(fs.open(f)?);
            }
            let mut out = redir.open_stdout()?;
            let status = run_aggregator(rest, inputs, &mut out, registry, fs)?;
            out.flush()?;
            Ok(status)
        }
        // Compatibility form used by hand-written invocations: input
        // paths as operands, separated heuristically.
        agg if agg.starts_with("pash-agg-") => {
            let (agg_args, files) = split_agg_args(agg, rest);
            let mut inputs: Vec<Box<dyn Read + Send>> = Vec::new();
            for f in &files {
                inputs.push(fs.open(f)?);
            }
            let mut argv: Vec<String> = vec![agg.to_string()];
            argv.extend(agg_args);
            let mut out = redir.open_stdout()?;
            let status = run_aggregator(&argv, inputs, &mut out, registry, fs)?;
            out.flush()?;
            Ok(status)
        }
        other => Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{other}: not found"),
        )),
    }
}

/// Splits aggregator argv into (arguments, input paths).
fn split_agg_args(agg: &str, rest: &[String]) -> (Vec<String>, Vec<String>) {
    match agg {
        "pash-agg-sort" => {
            // Options -k/-t take values; everything non-option is an
            // input path.
            let mut args = Vec::new();
            let mut files = Vec::new();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                if a == "-k" || a == "-t" {
                    args.push(a.clone());
                    if let Some(v) = it.next() {
                        args.push(v.clone());
                    }
                } else if a.starts_with('-') && a.len() > 1 {
                    args.push(a.clone());
                } else {
                    files.push(a.clone());
                }
            }
            (args, files)
        }
        "pash-agg-frame-merge" => {
            // The first operand names the wrapped boundary-fold
            // aggregator (it has no flags of its own); everything
            // after it is an input path.
            match rest.split_first() {
                Some((inner, files)) => (vec![inner.clone()], files.to_vec()),
                None => (Vec::new(), Vec::new()),
            }
        }
        _ => {
            let (args, files): (Vec<String>, Vec<String>) = rest
                .iter()
                .cloned()
                .partition(|a| a.starts_with('-') && a.len() > 1);
            (args, files)
        }
    }
}

/// Restores the default `SIGPIPE` disposition. Rust's startup sets it
/// to ignore, which would make both the emitted script's
/// `kill -s PIPE` and the process backend's teardown signal no-ops
/// against these binaries — a straggler blocked in a FIFO `open(2)`
/// would only die at the `SIGKILL` backstop. Real coreutils die of
/// `SIGPIPE`; so do we. The exit status is unchanged either way:
/// `128 + 13` equals the [`pash_coreutils::SIGPIPE_STATUS`] the
/// `BrokenPipe`-error path reports.
#[cfg(unix)]
fn restore_default_sigpipe() {
    extern "C" {
        fn signal(sig: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_default_sigpipe() {}

/// The shared `main` body of both multi-call binaries.
pub fn multicall_main(tool: &str, personality: Personality) -> ! {
    restore_default_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run_multicall(personality, &args) {
        Ok(c) => c,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => pash_coreutils::SIGPIPE_STATUS,
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            // A corrupted or truncated frame crossed this process:
            // report the reserved infrastructure status so the parent
            // backend retries or falls back instead of trusting the
            // region's output.
            eprintln!("{tool}: {e}");
            INFRA_STATUS
        }
        Err(e) => {
            eprintln!("{tool}: {e}");
            1
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn redirections_split_off_the_front() {
        let args = s(&["--stdin", "a", "--stdout", "b", "grep", "--stdin"]);
        let (redir, rest) = Redirections::parse(&args).expect("parse");
        assert_eq!(redir.stdin.as_deref(), Some("a"));
        assert_eq!(redir.stdout.as_deref(), Some("b"));
        // Later words are command args even if they look like flags.
        assert_eq!(rest, &s(&["grep", "--stdin"])[..]);
    }

    #[test]
    fn redirection_without_path_is_an_error() {
        assert!(Redirections::parse(&s(&["--stdin"])).is_err());
    }

    #[test]
    fn runtime_names_recognized() {
        for n in [
            "eager",
            "split",
            "r_split",
            "fileseg",
            "pash-agg-sort",
            "pash-agg-wc",
            "pash-agg-reorder",
        ] {
            assert!(is_runtime_name(n), "{n}");
        }
        for n in ["cat", "sort", "head", "pashagg", "split2"] {
            assert!(!is_runtime_name(n), "{n}");
        }
    }

    #[test]
    fn framed_flag_parses_with_redirections() {
        let args = s(&["--framed", "--stdin", "a", "--stdout", "b", "grep", "x"]);
        let (redir, rest) = Redirections::parse(&args).expect("parse");
        assert!(redir.framed);
        assert_eq!(redir.stdin.as_deref(), Some("a"));
        assert_eq!(rest, &s(&["grep", "x"])[..]);
        // Redirections first, flag after — order must not matter.
        let args = s(&["--stdin", "a", "--framed", "grep", "x"]);
        let (redir, rest) = Redirections::parse(&args).expect("parse");
        assert!(redir.framed);
        assert_eq!(rest, &s(&["grep", "x"])[..]);
    }

    #[test]
    fn agg_arg_splitting_keeps_sort_key_values() {
        let (args, files) = split_agg_args("pash-agg-sort", &s(&["-k", "2", "-n", "f1", "f2"]));
        assert_eq!(args, s(&["-k", "2", "-n"]));
        assert_eq!(files, s(&["f1", "f2"]));
    }

    #[test]
    fn agg_arg_splitting_frame_merge_inner_is_not_a_file() {
        let (args, files) =
            split_agg_args("pash-agg-frame-merge", &s(&["pash-agg-uniq-c", "w0", "w1"]));
        assert_eq!(args, s(&["pash-agg-uniq-c"]));
        assert_eq!(files, s(&["w0", "w1"]));
    }
}
