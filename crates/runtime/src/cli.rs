//! The multi-call command line shared by the `pashc` and `pash-rt`
//! binaries.
//!
//! One program under two role names (the roles `$PASHC` / `$PASH_RT`
//! play in emitted scripts): every coreutils command plus the runtime
//! primitives (`eager`, `split`, `r_split`, `agg`), so every
//! [`PlanOp`] is runnable as a standalone OS process. This module does
//! not execute ops itself: it parses its argv — the rendering of a
//! [`pash_core::plan::SpawnSpec`] — back into the [`PlanOp`] it denotes,
//! opens the endpoints the argv names, and hands both to the threaded
//! executor's [`run_node`]. What a node does is therefore written once,
//! whichever backend runs it.
//!
//! # Redirections (`--stdin` / `--stdin-seg` / `--stdout`)
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
//!
//! A file-segment edge is opened the same way, by the node that reads
//! it — `sh` has no redirection for "lines 2/4 of this file", so both
//! the process backend and emitted scripts spell it
//!
//! ```text
//! pashc --stdin-seg in.txt 1 4 --stdout /tmp/fifo-out tr A-Z a-z
//! ```

use std::io::{self, Read, Write};
use std::sync::Arc;

use pash_core::plan::{Arg, PlanOp, SplitMode};
use pash_coreutils::fs::{Fs, RealFs};
use pash_coreutils::Registry;

use crate::exec::run_node;
use crate::fault::{ArmedFault, INFRA_STATUS};
use crate::fileseg::open_segment;

/// What a redirected standard input reads.
#[derive(Debug, PartialEq, Eq)]
enum StdinFrom {
    /// `--stdin PATH`: a file or FIFO, whole.
    Path(String),
    /// `--stdin-seg PATH PART OF`: line-aligned segment `part` of `of`
    /// of a file ([`crate::fileseg`]).
    Segment {
        path: String,
        part: usize,
        of: usize,
    },
}

/// Leading `--stdin PATH` / `--stdin-seg PATH PART OF` / `--stdout
/// PATH` / `--in PATH` redirections plus the valueless `--framed`
/// worker-mode flag.
#[derive(Debug, Default)]
struct Redirections {
    stdin: Option<StdinFrom>,
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
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        let mut redir = Redirections::default();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            i += match (flag, &args[i + 1..]) {
                ("--framed", _) => {
                    redir.framed = true;
                    1
                }
                ("--stdin", [path, ..]) => {
                    redir.stdin = Some(StdinFrom::Path(path.clone()));
                    2
                }
                ("--stdin-seg", [path, part, of, ..]) => {
                    let number = |what: &str, s: &String| {
                        s.parse::<usize>()
                            .map_err(|_| invalid(format!("--stdin-seg: bad {what} `{s}`")))
                    };
                    redir.stdin = Some(StdinFrom::Segment {
                        path: path.clone(),
                        part: number("PART", part)?,
                        of: number("OF", of)?,
                    });
                    4
                }
                ("--stdout", [path, ..]) => {
                    redir.stdout = Some(path.clone());
                    2
                }
                ("--in", [path, ..]) => {
                    redir.ins.push(path.clone());
                    2
                }
                ("--stdin-seg", _) => return Err(invalid(format!("{flag} needs PATH PART OF"))),
                ("--stdin" | "--stdout" | "--in", _) => {
                    return Err(invalid(format!("{flag} needs a path")))
                }
                _ => break,
            };
        }
        Ok((redir, &args[i..]))
    }

    /// Opens the input side: the redirected file (blocking until a
    /// FIFO peer arrives), the redirected segment of a file of `fs`, or
    /// the process's stdin.
    fn open_stdin(&self, fs: &dyn Fs) -> io::Result<Box<dyn Read + Send>> {
        Ok(match &self.stdin {
            Some(StdinFrom::Path(p)) => Box::new(std::fs::File::open(p)?),
            Some(StdinFrom::Segment { path, part, of }) => open_segment(fs, path, *part, *of)?,
            None => Box::new(io::stdin()),
        })
    }

    /// Opens the output side, buffered. When the parent armed this
    /// child with a fault (`PASH_FAULT`, set by the process backend on
    /// exactly one node per attempt), the writer is wrapped so a
    /// stream fault fires at its byte offset — an injected death
    /// aborts the whole process (SIGABRT, status 134). A malformed
    /// spec is ignored: the injection plane never breaks a clean run.
    fn open_stdout(&self) -> io::Result<Box<dyn Write + Send>> {
        let raw: Box<dyn Write + Send> = match &self.stdout {
            Some(p) => Box::new(io::BufWriter::new(std::fs::File::create(p)?)),
            None => Box::new(io::BufWriter::new(io::stdout())),
        };
        let fault = std::env::var("PASH_FAULT").ok();
        Ok(match fault.and_then(|s| s.parse::<ArmedFault>().ok()) {
            Some(a) => Box::new(a.wrap(raw, true)),
            None => raw,
        })
    }
}

/// The [`PlanOp`] an invocation denotes, with the output paths a split
/// names as operands (every other op writes its stdout): the inverse
/// of [`pash_core::plan::PlanNode::spawn_spec`]. A name that is no
/// runtime primitive is a command to execute — `cat IN…` included, so
/// [`PlanOp::Cat`] comes back as the `cat` command over named files.
fn denoted_op(framed: bool, name: &str, rest: &[String]) -> io::Result<(PlanOp, Vec<String>)> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    Ok(match name {
        "eager" => {
            let blocking = rest.first().is_some_and(|a| a == "--blocking");
            (PlanOp::Relay { blocking }, Vec::new())
        }
        "split" | "r_split" => {
            let (flags, outs): (Vec<String>, Vec<String>) =
                rest.iter().cloned().partition(|a| a.starts_with("--"));
            if outs.is_empty() {
                return Err(invalid(format!("{name} needs output paths")));
            }
            let has = |flag: &str| flags.iter().any(|a| a == flag);
            let mode = if name == "r_split" {
                SplitMode::RoundRobin {
                    framed: !has("--raw"),
                }
            } else {
                SplitMode::General
            };
            (PlanOp::Split { mode }, outs)
        }
        // Inputs arrive as `--in` redirections, the words after `agg`
        // are the aggregator argv verbatim: the only unambiguous form
        // for re-applied command aggregators (`agg head -n 3` takes
        // three lines of the ordered concatenation; `head -n 3 f1 f2`
        // would take three *per file*).
        "agg" => {
            if rest.is_empty() {
                return Err(invalid("agg needs an aggregator argv".to_string()));
            }
            let argv = rest.to_vec();
            (PlanOp::Aggregate { argv }, Vec::new())
        }
        _ => {
            let argv = std::iter::once(name)
                .chain(rest.iter().map(String::as_str))
                .map(|w| Arg::Lit(w.to_string()))
                .collect();
            (PlanOp::Exec { argv, framed }, Vec::new())
        }
    })
}

/// Runs one multi-call invocation; returns the exit status.
///
/// The filesystem is the host's, rooted at the working directory —
/// spawned plan nodes inherit the backend's root as their cwd.
pub fn run_multicall(args: &[String]) -> io::Result<i32> {
    let (redir, rest) = Redirections::parse(args)?;
    let registry = Registry::standard();
    let Some((name, rest)) = rest.split_first() else {
        eprintln!(
            "usage: pashc|pash-rt [--stdin PATH | --stdin-seg PATH PART OF] [--stdout PATH] \
             COMMAND [ARGS…]"
        );
        eprintln!(
            "commands: {} + eager split r_split agg",
            registry.names().join(" ")
        );
        return Ok(2);
    };
    let fs: Arc<dyn Fs> = Arc::new(RealFs::new(std::env::current_dir()?));
    let (op, split_outs) = denoted_op(redir.framed, name, rest)?;
    // This process, not its parent, opens what the argv names: an open
    // of a FIFO blocks until the peer's.
    let (ins, outs) = match &op {
        PlanOp::Split { .. } => {
            let outs = split_outs
                .iter()
                .map(|o| fs.create(o))
                .collect::<io::Result<Vec<_>>>()?;
            (vec![redir.open_stdin(fs.as_ref())?], outs)
        }
        PlanOp::Aggregate { .. } => {
            let ins = redir
                .ins
                .iter()
                .map(|f| fs.open(f))
                .collect::<io::Result<Vec<_>>>()?;
            (ins, vec![redir.open_stdout()?])
        }
        _ => {
            // An input that cannot be opened still gets its output
            // opened, and closed: a peer blocked in the open of that
            // FIFO's other end would otherwise wait for ever.
            let stdin = redir.open_stdin(fs.as_ref());
            let stdout = redir.open_stdout()?;
            (vec![stdin?], vec![stdout])
        }
    };
    let mut stderr = io::stderr().lock();
    // A command's standard input is its one input.
    run_node(&op, &[0], ins, outs, &registry, fs, &mut stderr)
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
pub fn multicall_main(tool: &str) -> ! {
    restore_default_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run_multicall(&args) {
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
        assert_eq!(redir.stdin, Some(StdinFrom::Path("a".to_string())));
        assert_eq!(redir.stdout.as_deref(), Some("b"));
        // Later words are command args even if they look like flags.
        assert_eq!(rest, &s(&["grep", "--stdin"])[..]);
    }

    #[test]
    fn redirection_without_path_is_an_error() {
        assert!(Redirections::parse(&s(&["--stdin"])).is_err());
    }

    #[test]
    fn framed_flag_parses_with_redirections() {
        let args = s(&["--framed", "--stdin", "a", "--stdout", "b", "grep", "x"]);
        let (redir, rest) = Redirections::parse(&args).expect("parse");
        assert!(redir.framed);
        assert_eq!(redir.stdin, Some(StdinFrom::Path("a".to_string())));
        assert_eq!(rest, &s(&["grep", "x"])[..]);
        // Redirections first, flag after — order must not matter.
        let args = s(&["--stdin", "a", "--framed", "grep", "x"]);
        let (redir, rest) = Redirections::parse(&args).expect("parse");
        assert!(redir.framed);
        assert_eq!(rest, &s(&["grep", "x"])[..]);
    }

    /// The round trip the `processes` and `shell` backends rely on:
    /// what `spawn_spec` renders, this module reads back as the node's
    /// own op — and the input redirection in front of it as the edge
    /// it names.
    #[test]
    fn spawn_specs_parse_back_to_their_ops() {
        use pash_core::compile::{compile, PashConfig};
        use pash_core::dfg::transform::SplitPolicy;
        use pash_core::plan::{EndpointKind, PlanNode, RegionPlan, SpawnWord};

        // Stateless and pure stages over file and pipe sources, a
        // parallel stage after a sequential one (a multi-input cat), a
        // command naming a stream operand.
        let script = "cat a.txt b.txt | tr A-Z a-z | sort | uniq -c > out.txt\n\
                      cat a.txt | sort | comm -23 - b.txt | head -n 1 | tr a-z A-Z > o.txt\n\
                      paste a.txt b.txt > p.txt\n\
                      tr a-z A-Z | grep X | wc -l";
        let edge = |kind: &str, k: usize| format!("{kind}{k}");
        // A segment edge is named by what it is, every other input by
        // a transport path.
        let stdin_from = |r: Option<&RegionPlan>, node: &PlanNode, k: usize| match r
            .map(|r| &r.edges[node.inputs[k]].kind)
        {
            Some(EndpointKind::InputSegment { path, part, of }) => StdinFrom::Segment {
                path: path.clone(),
                part: *part,
                of: *of,
            },
            _ => StdinFrom::Path(edge("in", k)),
        };
        let argv_of = |r: Option<&RegionPlan>, node: &PlanNode| -> Vec<String> {
            let spec = node.spawn_spec();
            let mut argv = Vec::new();
            match spec.stdin_input.map(|k| stdin_from(r, node, k)) {
                Some(StdinFrom::Path(p)) => argv.extend(["--stdin".to_string(), p]),
                Some(StdinFrom::Segment { path, part, of }) => {
                    argv.extend(["--stdin-seg".to_string(), path]);
                    argv.extend([part.to_string(), of.to_string()]);
                }
                None => {}
            }
            if let Some(j) = spec.stdout_output {
                argv.extend(["--stdout".to_string(), edge("out", j)]);
            }
            argv.extend(spec.argv.iter().map(|w| match w {
                SpawnWord::Lit(s) => s.clone(),
                SpawnWord::In(k) => edge("in", *k),
                SpawnWord::Out(j) => edge("out", *j),
            }));
            argv
        };
        let mut seen = std::collections::BTreeSet::new();
        let mut seen_framed = false;
        let mut seen_segment = false;
        for split in [SplitPolicy::Sized, SplitPolicy::RoundRobin] {
            let cfg = PashConfig {
                width: 4,
                split,
                ..Default::default()
            };
            let compiled = compile(script, &cfg).expect("compile");
            // Lowering reads a whole file by segment and emits only
            // unbounded relays, so these plans hold no sized split and
            // no blocking relay; one of each is built by hand.
            let sized = PlanNode {
                op: PlanOp::Split {
                    mode: SplitMode::Sized,
                },
                inputs: vec![0],
                outputs: vec![1, 2],
                stdin_inputs: vec![0],
                output_producer: false,
            };
            let blocking = PlanNode {
                op: PlanOp::Relay { blocking: true },
                inputs: vec![0],
                outputs: vec![1],
                stdin_inputs: vec![0],
                output_producer: false,
            };
            let lowered = compiled
                .plan
                .regions()
                .flat_map(|r| r.nodes.iter().map(move |n| (Some(r), n)));
            for (r, node) in lowered.chain([(None, &sized), (None, &blocking)]) {
                let argv = argv_of(r, node);
                let (redir, rest) = Redirections::parse(&argv).expect("redirections");
                let (name, rest) = rest.split_first().expect("command name");
                let (op, outs) = denoted_op(redir.framed, name, rest).expect("op");
                let inputs = |n: usize| (0..n).map(|k| edge("in", k)).collect::<Vec<_>>();
                let lits = |words: Vec<String>| words.into_iter().map(Arg::Lit).collect();
                let (want, want_outs) = match &node.op {
                    // Stream operands arrive as the paths they name.
                    PlanOp::Exec { argv, framed } => {
                        let words = argv.iter().map(|a| match a {
                            Arg::Lit(w) => w.clone(),
                            Arg::Stream(k) => edge("in", *k),
                        });
                        let argv = lits(words.collect());
                        let framed = *framed;
                        seen_framed |= framed;
                        (PlanOp::Exec { argv, framed }, Vec::new())
                    }
                    // Ordered concatenation is the `cat` command.
                    PlanOp::Cat => {
                        let mut words = vec!["cat".to_string()];
                        words.extend(inputs(node.inputs.len()));
                        let (argv, framed) = (lits(words), false);
                        (PlanOp::Exec { argv, framed }, Vec::new())
                    }
                    // A sized split is spawned as the general one.
                    PlanOp::Split { mode } => {
                        let mode = match mode {
                            SplitMode::Sized => SplitMode::General,
                            m => *m,
                        };
                        let outs = (0..node.outputs.len()).map(|j| edge("out", j));
                        (PlanOp::Split { mode }, outs.collect())
                    }
                    PlanOp::Aggregate { .. } => {
                        assert_eq!(redir.ins, inputs(node.inputs.len()), "{argv:?}");
                        (node.op.clone(), Vec::new())
                    }
                    PlanOp::Relay { .. } => (node.op.clone(), Vec::new()),
                };
                assert_eq!((&op, &outs), (&want, &want_outs), "{argv:?}");
                let stdin = node.stdin_inputs.first().map(|&k| stdin_from(r, node, k));
                if !matches!(node.op, PlanOp::Cat | PlanOp::Aggregate { .. }) {
                    seen_segment |= matches!(stdin, Some(StdinFrom::Segment { .. }));
                    assert_eq!(redir.stdin, stdin, "{argv:?}");
                }
                seen.insert(node.op.label());
            }
        }
        // The table covered what it claims to.
        for label in [
            "cat",
            "split",
            "split -sized",
            "r_split",
            "r_split -raw",
            "eager",
            "eager -blocking",
            "paste - -",
        ] {
            assert!(seen.contains(label), "{label} not in {seen:?}");
        }
        assert!(seen.iter().any(|l| l.starts_with("pash-agg-")), "{seen:?}");
        assert!(seen_framed, "no framed worker in {seen:?}");
        assert!(seen_segment, "no segment-fed node in {seen:?}");
        // A segment redirection short of an operand, or with a PART or
        // OF that is no number, is refused before anything is opened.
        for bad in [
            &["--stdin-seg", "f", "0"][..],
            &["--stdin-seg", "f", "x", "2", "cat"],
            &["--stdin-seg", "f", "0", "-1", "cat"],
        ] {
            let err = Redirections::parse(&s(bad)).expect_err("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad:?}");
        }
    }
}
