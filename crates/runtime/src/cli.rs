//! The multi-call command line shared by the `pashc` and `pash-rt`
//! binaries.
//!
//! One program under two role names (the roles `$PASHC` / `$PASH_RT`
//! play in emitted scripts): every coreutils command plus the runtime
//! primitives (`eager`, `split`, `r_split`, `agg`), so every
//! [`PlanOp`] is runnable as a standalone OS process. This module does
//! not execute ops itself: it parses its argv — the rendering of a
//! [`pash_core::plan::SpawnSpec`] — back into the [`PlanOp`] it denotes,
//! names the endpoints the argv names, and hands both to the threaded
//! executor's [`run_node`], which opens them as it opens a `threads`
//! node's files. What a node does, and what a file it cannot open
//! means, is therefore written once, whichever backend runs it.
//!
//! # Redirections (`--stdin` / `--stdin-seg` / `--stdout`)
//!
//! A node's redirections are part of its command line, rendered once
//! by [`pash_core::plan::RegionPlan::spawn_spec`]: the `processes`
//! backend spawns that command line, and an emitted script runs it as
//! a background job, word for word, each edge named by its FIFO or
//! file. The spawned command opens its own endpoints on both — `sh`
//! opens none. A parent must never open a FIFO, which blocks until the
//! peer end opens: it would deadlock before spawning the peer.
//!
//! ```text
//! pashc --stdin /tmp/fifo-in --stdout out.txt grep foo
//! ```
//!
//! The open happens in the child, after every node of the region has
//! been spawned — when `sh` would perform `<`/`>` redirections in a
//! background job, and in the same order: input first, so a missing
//! input leaves the output file as it was. An output that is a FIFO is
//! opened, and closed, even then: its reader waits in `open`.
//!
//! A file segment is named the same way — there is no redirection for
//! "lines 2/4 of this file":
//!
//! ```text
//! pashc --stdin-seg in.txt 1 4 --stdout /tmp/fifo-out tr A-Z a-z
//! ```

use std::io::{self, Write};
use std::sync::Arc;

use pash_core::plan::{Arg, PlanOp, SplitMode};
use pash_coreutils::fs::{Fs, RealFs};
use pash_coreutils::Registry;

use crate::edge::{buffered, File, FileOut, Sink, Source};
use crate::exec::run_node;
use crate::fault::{ArmedFault, INFRA_STATUS};

/// Leading `--stdin PATH` / `--stdin-seg PATH PART OF` / `--stdout
/// PATH` / `--in PATH` redirections plus the valueless `--framed`
/// worker-mode flag.
#[derive(Debug, Default)]
struct Redirections {
    /// The inputs in order, each a file or FIFO, whole, or line-aligned
    /// segment `(part, of)` of a file ([`crate::fileseg`]): a command's
    /// one `--stdin`, an aggregator's `--in`s. None: the process's
    /// stdin.
    ins: Vec<(String, Option<(usize, usize)>)>,
    stdout: Option<String>,
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
                ("--stdin" | "--in", [path, ..]) => {
                    redir.ins.push((path.clone(), None));
                    2
                }
                ("--stdin-seg", [path, part, of, ..]) => {
                    let number = |what: &str, s: &String| {
                        s.parse::<usize>()
                            .map_err(|_| invalid(format!("--stdin-seg: bad {what} `{s}`")))
                    };
                    let segment = (number("PART", part)?, number("OF", of)?);
                    redir.ins.push((path.clone(), Some(segment)));
                    4
                }
                ("--stdout", [path, ..]) => {
                    redir.stdout = Some(path.clone());
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

    /// The output side: the redirected file or FIFO, or the process's
    /// stdout, buffered. When the parent armed this child with a fault
    /// (`PASH_FAULT`, set by the process backend on exactly one node
    /// per attempt), the writer is wrapped so a stream fault fires at
    /// its byte offset — an injected death aborts the whole process
    /// (SIGABRT, status 134). A malformed spec is ignored: the
    /// injection plane never breaks a clean run.
    fn stdout(&self) -> Sink<'static> {
        let fault = std::env::var("PASH_FAULT").ok();
        let fault = fault.and_then(|s| s.parse::<ArmedFault>().ok());
        let wrap = move |w: Box<dyn Write + Send>| -> Box<dyn Write + Send> {
            match fault {
                Some(a) => Box::new(a.wrap(w, true)),
                None => w,
            }
        };
        match &self.stdout {
            Some(p) => {
                let mut file = output(p);
                file.around.push(Box::new(wrap));
                Sink::File(file)
            }
            None => Sink::Bytes(buffered(wrap(Box::new(io::stdout())))),
        }
    }
}

/// An output this process names by `path`: a file, or a FIFO whose
/// reader waits in `open` for it.
fn output(path: &str) -> FileOut<'static> {
    let mut file = File::new(path);
    file.peer = std::fs::metadata(path).is_ok_and(|m| !m.is_file() && !m.is_dir());
    file
}

/// The [`PlanOp`] an invocation denotes, with the output paths a split
/// names as operands (every other op writes its stdout): the inverse
/// of [`pash_core::plan::RegionPlan::spawn_spec`]. A name that is no
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
    // This process, not its parent, opens what the argv names — in
    // `run_node`, as every backend's node does: an open of a FIFO
    // blocks until the peer's.
    let mut ins: Vec<Source> = (redir.ins.iter())
        .map(|(path, segment)| {
            let mut file = File::new(path);
            file.segment = *segment;
            Source::File(file)
        })
        .collect();
    if ins.is_empty() {
        ins.push(Source::Bytes(Box::new(io::stdin())));
    }
    let outs = match &op {
        PlanOp::Split { .. } => split_outs.iter().map(|o| Sink::File(output(o))).collect(),
        _ => vec![redir.stdout()],
    };
    let mut stderr = io::stderr().lock();
    // Every input is a redirection: a command's standard input is its
    // one input, and its argv already names each file operand by its
    // path.
    let redirected: Vec<usize> = (0..ins.len()).collect();
    run_node(&op, &redirected, ins, outs, &registry, fs, &mut stderr)
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

    fn whole(path: &str) -> Vec<(String, Option<(usize, usize)>)> {
        vec![(path.to_string(), None)]
    }

    #[test]
    fn redirections_split_off_the_front() {
        let args = s(&["--stdin", "a", "--stdout", "b", "grep", "--stdin"]);
        let (redir, rest) = Redirections::parse(&args).expect("parse");
        assert_eq!(redir.ins, whole("a"));
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
        assert_eq!(redir.ins, whole("a"));
        assert_eq!(rest, &s(&["grep", "x"])[..]);
        // Redirections first, flag after — order must not matter.
        let args = s(&["--stdin", "a", "--framed", "grep", "x"]);
        let (redir, rest) = Redirections::parse(&args).expect("parse");
        assert!(redir.framed);
        assert_eq!(rest, &s(&["grep", "x"])[..]);
    }

    /// The round trip the `processes` and `shell` backends rely on: the
    /// command line [`RegionPlan::spawn_spec`] renders for a node, each
    /// edge named by its transport as a backend names its FIFO or file,
    /// reads back here as the node's own op over the node's own inputs
    /// and output.
    ///
    /// [`RegionPlan::spawn_spec`]: pash_core::plan::RegionPlan::spawn_spec
    #[test]
    fn spawn_specs_parse_back_to_their_ops() {
        use pash_core::compile::{compile, PashConfig};
        use pash_core::dfg::transform::SplitPolicy;
        use pash_core::plan::{EndpointKind, PlanEdge, PlanNode, RegionPlan, SpawnWord};
        use std::collections::BTreeSet;

        // Stateless and pure stages over file and pipe sources, a
        // parallel stage after a sequential one (a multi-input cat), a
        // command naming a stream operand.
        let script = "cat a.txt b.txt | tr A-Z a-z | sort | uniq -c > out.txt\n\
                      cat a.txt | sort | comm -23 - b.txt | head -n 1 | tr a-z A-Z > o.txt\n\
                      paste a.txt b.txt > p.txt\n\
                      tr a-z A-Z | grep X | wc -l";
        // Lowering reads a whole file by segment and emits only
        // unbounded relays, so these plans hold no sized split and no
        // blocking relay: a region built by hand holds one of each,
        // the relay reading a file on its stdin.
        let edge = |kind, from, to| PlanEdge { kind, from, to };
        let node = |op, inputs, outputs| PlanNode {
            op,
            inputs,
            outputs,
            stdin_inputs: vec![0],
            output_producer: false,
        };
        let by_hand = RegionPlan {
            nodes: vec![
                node(PlanOp::Relay { blocking: true }, vec![0], vec![1]),
                node(
                    PlanOp::Split {
                        mode: SplitMode::Sized,
                    },
                    vec![1],
                    vec![2, 3],
                ),
            ],
            edges: vec![
                edge(EndpointKind::InputFile("a.txt".into()), None, Some(0)),
                edge(EndpointKind::Pipe, Some(0), Some(1)),
                edge(EndpointKind::Pipe, Some(1), None),
                edge(EndpointKind::Pipe, Some(1), None),
            ],
            replayable: false,
        };
        let mut regions = vec![by_hand];
        for split in [SplitPolicy::Sized, SplitPolicy::RoundRobin] {
            let cfg = PashConfig {
                width: 4,
                split,
                ..Default::default()
            };
            let compiled = compile(script, &cfg).expect("compile");
            regions.extend(compiled.plan.regions().cloned());
        }
        // An edge's transport here is its id.
        let name = |e: usize| format!("e{e}");
        let kind_of = |kind: &EndpointKind| match kind {
            EndpointKind::Pipe => "fifo",
            EndpointKind::InputFile(_) | EndpointKind::OutputFile(_) => "file",
            EndpointKind::InputSegment { .. } => "segment",
            EndpointKind::StdinPipe { .. } => "region stdin",
            EndpointKind::StdoutPipe => "region stdout",
            EndpointKind::Detached => "detached",
        };
        let mut seen = BTreeSet::new();
        let mut seen_framed = false;
        let (mut stdin_kinds, mut stdout_kinds) = (BTreeSet::new(), BTreeSet::new());
        for r in &regions {
            for (id, node) in r.nodes.iter().enumerate() {
                let spec = r.spawn_spec(id);
                let argv: Vec<String> = (spec.argv.iter())
                    .map(|w| match w {
                        SpawnWord::Lit(s) => s.clone(),
                        SpawnWord::In(k) => name(node.inputs[*k]),
                        SpawnWord::Out(j) => name(node.outputs[*j]),
                    })
                    .collect();
                let (redir, rest) = Redirections::parse(&argv).expect("redirections");
                let (command, rest) = rest.split_first().expect("command name");
                let (op, outs) = denoted_op(redir.framed, command, rest).expect("op");
                let inputs = || node.inputs.iter().map(|&e| name(e));
                let lits = |words: Vec<String>| words.into_iter().map(Arg::Lit).collect();
                let (want, want_outs) = match &node.op {
                    // Stream operands arrive as the paths they name.
                    PlanOp::Exec { argv, framed } => {
                        let words = argv.iter().map(|a| match a {
                            Arg::Lit(w) => w.clone(),
                            Arg::Stream(k) => name(node.inputs[*k]),
                        });
                        let argv = lits(words.collect());
                        let framed = *framed;
                        seen_framed |= framed;
                        (PlanOp::Exec { argv, framed }, Vec::new())
                    }
                    // Ordered concatenation is the `cat` command.
                    PlanOp::Cat => {
                        let words = std::iter::once("cat".to_string()).chain(inputs());
                        let (argv, framed) = (lits(words.collect()), false);
                        (PlanOp::Exec { argv, framed }, Vec::new())
                    }
                    // A sized split is spawned as the general one.
                    PlanOp::Split { mode } => {
                        let mode = match mode {
                            SplitMode::Sized => SplitMode::General,
                            m => *m,
                        };
                        let outs = node.outputs.iter().map(|&e| name(e));
                        (PlanOp::Split { mode }, outs.collect())
                    }
                    PlanOp::Aggregate { .. } | PlanOp::Relay { .. } => {
                        (node.op.clone(), Vec::new())
                    }
                };
                assert_eq!((&op, &outs), (&want, &want_outs), "{argv:?}");
                // The inputs the child opens: an aggregator's in order,
                // and the one standard input of any other op but `cat`,
                // its edge's transport or a segment of a file. The
                // region's stdin is the backend's to plumb.
                let mut want_ins: Vec<(String, Option<(usize, usize)>)> = Vec::new();
                match &node.op {
                    PlanOp::Aggregate { .. } => want_ins.extend(inputs().map(|p| (p, None))),
                    PlanOp::Cat => {}
                    _ => {
                        if let Some(&e) = node.stdin_inputs.first().map(|&k| &node.inputs[k]) {
                            let kind = &r.edges[e].kind;
                            stdin_kinds.insert(kind_of(kind));
                            match kind {
                                EndpointKind::InputSegment { path, part, of } => {
                                    want_ins.push((path.clone(), Some((*part, *of))))
                                }
                                EndpointKind::StdinPipe { primary } => {
                                    assert_eq!(spec.reads_stdin, Some(*primary), "{argv:?}")
                                }
                                _ => want_ins.push((name(e), None)),
                            }
                        }
                    }
                }
                assert_eq!(redir.ins, want_ins, "{argv:?}");
                // Its standard output, but a split's: the edge's
                // transport, or the region's stdout.
                let stdout = match node.op {
                    PlanOp::Split { .. } => None,
                    _ => Some(node.outputs[0]),
                };
                assert_eq!(spec.stdout_edge, stdout, "{argv:?}");
                let want_stdout = stdout.filter(|&e| {
                    let kind = &r.edges[e].kind;
                    stdout_kinds.insert(kind_of(kind));
                    assert_eq!(spec.writes_stdout, kind == &EndpointKind::StdoutPipe);
                    !spec.writes_stdout
                });
                assert_eq!(redir.stdout, want_stdout.map(name), "{argv:?}");
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
        for kind in ["segment", "fifo", "file", "region stdin"] {
            assert!(
                stdin_kinds.contains(kind),
                "no {kind} on a stdin: {stdin_kinds:?}"
            );
        }
        for kind in ["fifo", "file", "region stdout"] {
            assert!(
                stdout_kinds.contains(kind),
                "no {kind} on a stdout: {stdout_kinds:?}"
            );
        }
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
