//! The layer account: a plan executed node by node, sequentially, on
//! in-memory buffers, with a span around every call into a layer's
//! public function.
//!
//! The executors overlap nodes on threads or processes, so from
//! outside only their total is visible. Walking the same plan one
//! node at a time gives each layer's own cost on the workload's real
//! data: at width 1 every command runs alone on its real input
//! (`coreutils.*`, `regex.*`); at width `W` the splitters, relays and
//! aggregators see the real worker streams (`runtime.*`). The walk's
//! output is checked against the host reference like any other run.

use std::io::{self, Cursor, Write};
use std::sync::{Arc, Mutex};

use pash::core::plan::{
    fold_statuses, Arg, EndpointKind, ExecutionPlan, PlanNode, PlanOp, PlanStep, RegionPlan,
    SplitMode,
};
use pash::coreutils::fs::{Fs, MemFs};
use pash::coreutils::{run_command, Registry};
use pash::regex::{Regex, Syntax};
use pash::runtime::agg::{run_aggregator, AggInput};
use pash::runtime::fileseg::read_segment;
use pash::runtime::frame::{write_frame, FrameReader};
use pash::runtime::relay::{run_relay, RelayMode};
use pash::runtime::split::{split_general, split_round_robin};

use crate::oracle::Observed;
use crate::runner::changed_files;
use crate::trace::Tracer;

/// Prefix of the scratch files that stand in for stream arguments.
const STREAM_PREFIX: &str = ".perfbench-stream-";

/// The cost of one plan node, run alone.
#[derive(Debug, Clone)]
pub struct NodeCost {
    /// The layer span it ran under (`coreutils.sort`, `runtime.agg`, …).
    pub layer: String,
    /// Command name for exec nodes, op label otherwise.
    pub name: String,
    pub seconds: f64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

#[derive(Debug, Default)]
pub struct Account {
    pub nodes: Vec<NodeCost>,
    /// Time in `pash_regex::Matcher` over the lines the grep/sed
    /// stages saw, and how many lines that was.
    pub regex_s: f64,
    pub regex_lines: u64,
}

impl Account {
    /// Total seconds of nodes whose layer passes `keep`.
    pub fn seconds(&self, keep: impl Fn(&NodeCost) -> bool) -> f64 {
        // `+ 0.0`: an empty f64 sum is -0.0, which prints as "-0".
        self.nodes
            .iter()
            .filter(|n| keep(n))
            .map(|n| n.seconds)
            .sum::<f64>()
            + 0.0
    }

    pub fn bytes_in(&self, keep: impl Fn(&NodeCost) -> bool) -> u64 {
        self.nodes
            .iter()
            .filter(|n| keep(n))
            .map(|n| n.bytes_in)
            .sum()
    }

    pub fn absorb(&mut self, other: Account) {
        self.nodes.extend(other.nodes);
        self.regex_s += other.regex_s;
        self.regex_lines += other.regex_lines;
    }
}

struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("split sink").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Walks `plan` sequentially over a snapshot of `template`. With
/// `probe_regex`, each grep/sed stage's pattern is also run through
/// the regex engine alone over the stage's input lines.
pub fn walk(
    plan: &ExecutionPlan,
    template: &MemFs,
    stdin: &[u8],
    registry: &Registry,
    tracer: &Tracer,
    probe_regex: bool,
) -> io::Result<(Account, Observed)> {
    let fs = Arc::new(template.snapshot());
    let mut account = Account::default();
    let mut stdin = Some(stdin.to_vec());
    let mut stdout = Vec::new();
    let mut status = 0;
    let mut skip_next = false;
    for step in &plan.steps {
        match step {
            PlanStep::Guard(cond) => skip_next = !cond.admits(status),
            PlanStep::Shell { text, data_noop } => {
                if std::mem::take(&mut skip_next) {
                    continue;
                }
                if !data_noop {
                    return Err(io::Error::new(
                        io::ErrorKind::Unsupported,
                        format!("shell step `{text}` cannot be walked"),
                    ));
                }
                status = 0;
            }
            PlanStep::Region(r) => {
                if std::mem::take(&mut skip_next) {
                    continue;
                }
                let feed = if r.reads_stdin() {
                    stdin.take().unwrap_or_default()
                } else {
                    Vec::new()
                };
                let mut walker = RegionWalk {
                    region: r,
                    fs: &fs,
                    registry,
                    tracer,
                    probe_regex,
                    account: &mut account,
                    stdout: &mut stdout,
                };
                status = walker.run(feed)?;
            }
        }
    }
    let mut files = changed_files(template, &fs);
    files.retain(|name, _| !name.starts_with(STREAM_PREFIX));
    Ok((
        account,
        Observed {
            status,
            stdout,
            files,
        },
    ))
}

struct RegionWalk<'a> {
    region: &'a RegionPlan,
    fs: &'a Arc<MemFs>,
    registry: &'a Registry,
    tracer: &'a Tracer,
    probe_regex: bool,
    account: &'a mut Account,
    stdout: &'a mut Vec<u8>,
}

impl RegionWalk<'_> {
    fn dyn_fs(&self) -> Arc<dyn Fs> {
        self.fs.clone() as Arc<dyn Fs>
    }

    fn run(&mut self, feed: Vec<u8>) -> io::Result<i32> {
        let r = self.region;
        let mut feed = Some(feed);
        let mut pipes: Vec<Option<Vec<u8>>> = vec![None; r.edges.len()];
        let mut statuses = vec![0; r.nodes.len()];
        for (id, node) in r.nodes.iter().enumerate() {
            let mut inputs = Vec::with_capacity(node.inputs.len());
            for &e in &node.inputs {
                inputs.push(match &r.edges[e].kind {
                    EndpointKind::Pipe => pipes[e].take().unwrap_or_default(),
                    EndpointKind::StdinPipe { primary: true } => feed.take().unwrap_or_default(),
                    EndpointKind::InputFile(path) => self.fs.read(path)?,
                    EndpointKind::InputSegment { path, part, of } => {
                        let fs = self.dyn_fs();
                        let (seg, took) = self
                            .tracer
                            .span("runtime.fileseg", || read_segment(&fs, path, *part, *of));
                        let seg = seg?;
                        self.account.nodes.push(NodeCost {
                            layer: "runtime.fileseg".to_string(),
                            name: "read_segment".to_string(),
                            seconds: took.as_secs_f64(),
                            bytes_in: seg.len() as u64,
                            bytes_out: seg.len() as u64,
                        });
                        seg
                    }
                    _ => Vec::new(),
                });
            }
            let (status, outputs) = self.run_node(id, node, inputs)?;
            statuses[id] = status;
            for (&e, bytes) in node.outputs.iter().zip(outputs) {
                match &r.edges[e].kind {
                    EndpointKind::Pipe => pipes[e] = Some(bytes),
                    EndpointKind::StdoutPipe => self.stdout.extend_from_slice(&bytes),
                    EndpointKind::OutputFile(path) => self.fs.add(path.clone(), bytes),
                    _ => {}
                }
            }
        }
        let sources: Vec<i32> = r
            .status_sources()
            .into_iter()
            .map(|n| statuses[n])
            .collect();
        Ok(fold_statuses(&sources))
    }

    /// Runs one node alone; returns its status and one buffer per
    /// output edge.
    fn run_node(
        &mut self,
        id: usize,
        node: &PlanNode,
        mut inputs: Vec<Vec<u8>>,
    ) -> io::Result<(i32, Vec<Vec<u8>>)> {
        let bytes_in: u64 = inputs.iter().map(|i| i.len() as u64).sum();
        let fs = self.dyn_fs();
        let (layer, name, result, took) = match &node.op {
            PlanOp::Exec { argv, framed } => {
                let mut words = Vec::with_capacity(argv.len());
                for a in argv {
                    words.push(match a {
                        Arg::Lit(w) => w.clone(),
                        Arg::Stream(k) => {
                            let path = format!("{STREAM_PREFIX}{id}-{k}");
                            self.fs.add(path.clone(), std::mem::take(&mut inputs[*k]));
                            path
                        }
                    });
                }
                let mut stdin = Vec::new();
                for &k in &node.stdin_inputs {
                    stdin.append(&mut inputs[k]);
                }
                let argv: Vec<&str> = words.iter().map(String::as_str).collect();
                let name = argv.first().copied().unwrap_or("").to_string();
                let layer = format!("coreutils.{name}");
                let registry = self.registry;
                let (result, took) = self.tracer.span(&layer, || {
                    if *framed {
                        run_framed(registry, fs, &argv, &stdin)
                    } else {
                        run_command(registry, fs, &argv, &stdin).map(|c| (c.status, c.stdout))
                    }
                });
                if self.probe_regex && !*framed {
                    if let Some(probe) = RegexProbe::of(&words) {
                        let (lines, took) = self.tracer.span("regex.match", || probe.scan(&stdin));
                        self.account.regex_s += took.as_secs_f64();
                        self.account.regex_lines += lines;
                    }
                }
                (layer, name, result.map(|(s, out)| (s, vec![out])), took)
            }
            PlanOp::Cat => {
                // A cat of several streams is the concatenating
                // combiner of a parallel stage; a cat of one is a read.
                let layer = if inputs.len() > 1 {
                    "runtime.agg"
                } else {
                    "runtime.cat"
                };
                let (out, took) = self.tracer.span(layer, || inputs.concat());
                (
                    layer.to_string(),
                    "cat".to_string(),
                    Ok((0, vec![out])),
                    took,
                )
            }
            PlanOp::Relay { blocking } => {
                let mode = if *blocking {
                    RelayMode::Blocking(8)
                } else {
                    RelayMode::Full
                };
                let input = Cursor::new(inputs.pop().unwrap_or_default());
                let (result, took) = self.tracer.span("runtime.relay", || {
                    let mut out = Vec::new();
                    run_relay(input, &mut out, mode).map(|_| (0, vec![out]))
                });
                ("runtime.relay".to_string(), node.op.label(), result, took)
            }
            PlanOp::Split { mode } => {
                let input = inputs.pop().unwrap_or_default();
                let sinks: Vec<Arc<Mutex<Vec<u8>>>> =
                    node.outputs.iter().map(|_| Arc::default()).collect();
                let mut outs: Vec<Box<dyn Write + Send>> = sinks
                    .iter()
                    .map(|s| Box::new(SharedBuf(s.clone())) as Box<dyn Write + Send>)
                    .collect();
                let (result, took) = self.tracer.span("runtime.split", || {
                    let mut r = io::BufReader::new(Cursor::new(&input));
                    match mode {
                        SplitMode::RoundRobin { framed } => {
                            split_round_robin(&mut r, &mut outs, *framed)
                        }
                        SplitMode::General | SplitMode::Sized => split_general(&mut r, &mut outs),
                    }
                });
                drop(outs);
                let parts = sinks
                    .into_iter()
                    .map(|s| std::mem::take(&mut *s.lock().expect("split sink")))
                    .collect();
                (
                    "runtime.split".to_string(),
                    node.op.label(),
                    result.map(|()| (0, parts)),
                    took,
                )
            }
            PlanOp::Aggregate { argv } => {
                let agg_inputs: Vec<AggInput> = inputs
                    .drain(..)
                    .map(|i| Box::new(Cursor::new(i)) as AggInput)
                    .collect();
                let registry = self.registry;
                let (result, took) = self.tracer.span("runtime.agg", || {
                    let mut out = Vec::new();
                    run_aggregator(argv, agg_inputs, &mut out, registry, fs).map(|s| (s, vec![out]))
                });
                ("runtime.agg".to_string(), argv.join(" "), result, took)
            }
        };
        let (status, outputs) = result?;
        self.account.nodes.push(NodeCost {
            layer,
            name,
            seconds: took.as_secs_f64(),
            bytes_in,
            bytes_out: outputs.iter().map(|o| o.len() as u64).sum(),
        });
        Ok((status, outputs))
    }
}

/// A framed worker: the command once per tagged block, its output
/// re-framed under the same tag (mirrors the threaded executor).
fn run_framed(
    registry: &Registry,
    fs: Arc<dyn Fs>,
    argv: &[&str],
    stdin: &[u8],
) -> io::Result<(i32, Vec<u8>)> {
    let mut frames = FrameReader::new(Cursor::new(stdin));
    let mut out = Vec::new();
    let mut statuses = Vec::new();
    while let Some((tag, payload)) = frames.next_frame()? {
        let c = run_command(registry, fs.clone(), argv, &payload)?;
        statuses.push(c.status);
        write_frame(&mut out, tag, &c.stdout)?;
    }
    if statuses.is_empty() {
        statuses.push(run_command(registry, fs, argv, b"")?.status);
    }
    Ok((fold_statuses(&statuses), out))
}

/// The pattern of a `grep` or `sed s///` invocation, compiled alone.
pub struct RegexProbe {
    regex: Regex,
    /// `sed …/g`: scan for every match of a line, not just the first.
    global: bool,
}

impl RegexProbe {
    /// Extracts the pattern from a grep/sed argv (`None` for other
    /// commands, fixed-string greps, and sed scripts that are not a
    /// single `s` command).
    pub fn of(argv: &[String]) -> Option<RegexProbe> {
        let (name, args) = argv.split_first()?;
        let flag = |c: char| {
            args.iter()
                .any(|a| a.starts_with('-') && !a.starts_with("--") && a.contains(c))
        };
        let syntax = if flag('E') || flag('r') {
            Syntax::Ere
        } else {
            Syntax::Bre
        };
        let operand = args.iter().find(|a| !a.starts_with('-'))?;
        match name.as_str() {
            "grep" if !flag('F') => Some(RegexProbe {
                regex: Regex::with_flags(operand, syntax, flag('i')).ok()?,
                global: false,
            }),
            "sed" => {
                let mut chars = operand.chars();
                if chars.next()? != 's' {
                    return None;
                }
                let delim = chars.next()?;
                let body: String = chars.collect();
                let mut pattern = String::new();
                let mut rest = body.chars();
                loop {
                    match rest.next()? {
                        '\\' => {
                            let c = rest.next()?;
                            if c != delim {
                                pattern.push('\\');
                            }
                            pattern.push(c);
                        }
                        c if c == delim => break,
                        c => pattern.push(c),
                    }
                }
                let tail: String = rest.collect();
                let flags = tail.rsplit(delim).next().unwrap_or("");
                Some(RegexProbe {
                    regex: Regex::new(&pattern, syntax).ok()?,
                    global: flags.contains('g'),
                })
            }
            _ => None,
        }
    }

    /// Runs the matcher over every line of `input`; returns the line
    /// count.
    pub fn scan(&self, input: &[u8]) -> u64 {
        let mut m = self.regex.matcher();
        let mut lines = 0;
        let mut hits = 0u64;
        for line in input.split_inclusive(|&b| b == b'\n') {
            let line = line.strip_suffix(b"\n").unwrap_or(line);
            lines += 1;
            if self.global {
                let mut at = 0;
                while let Some((s, e)) = m.find_at(line, at) {
                    hits += 1;
                    at = if e > s { e } else { e + 1 };
                    if at > line.len() {
                        break;
                    }
                }
            } else if m.is_match(line) {
                hits += 1;
            }
        }
        std::hint::black_box(hits);
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pash::core::compile::PashConfig;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn probe_extracts_grep_and_sed_patterns() {
        let p = RegexProbe::of(&argv(&["grep", "-v", "-E", "^[a-m]"])).expect("grep");
        assert_eq!(p.regex.pattern(), "^[a-m]");
        assert!(!p.global);
        let p = RegexProbe::of(&argv(&["sed", "-E", "s/([a-z]+)ing/\\1ed/g"])).expect("sed");
        assert_eq!(p.regex.pattern(), "([a-z]+)ing");
        assert!(p.global);
        let p = RegexProbe::of(&argv(&["sed", "s/ /_/"])).expect("sed");
        assert_eq!(p.regex.pattern(), " ");
        assert!(!p.global);
        assert!(RegexProbe::of(&argv(&["sed", "2d"])).is_none());
        assert!(RegexProbe::of(&argv(&["sort", "-n"])).is_none());
        assert!(RegexProbe::of(&argv(&["grep", "-F", "x"])).is_none());
        assert_eq!(p.scan(b"a b\nc\n"), 2);
    }

    #[test]
    fn walk_matches_the_threaded_executor_at_both_widths() {
        let template = MemFs::new();
        template.add("in.txt", pash::workloads::text_corpus(5, 20_000));
        let registry = Registry::standard();
        let tracer = Tracer::new("t", true);
        let script = "cat in.txt | tr A-Z a-z | sort | uniq -c | sort -n > out.txt";
        let mut outs = Vec::new();
        for (width, split) in [
            (1, pash::core::dfg::transform::SplitPolicy::Sized),
            (2, pash::core::dfg::transform::SplitPolicy::Sized),
            (2, pash::core::dfg::transform::SplitPolicy::RoundRobin),
        ] {
            let cfg = PashConfig {
                width,
                split,
                ..Default::default()
            };
            let plan = pash::compile(script, &cfg).expect("compile").plan;
            let (account, observed) =
                walk(&plan, &template, b"", &registry, &tracer, true).expect("walk");
            assert_eq!(observed.status, 0);
            assert!(account.seconds(|n| n.layer.starts_with("coreutils.")) > 0.0);
            if width == 2 {
                assert!(account.seconds(|n| n.layer == "runtime.agg") > 0.0);
            }
            outs.push(observed.files["out.txt"].clone());
        }
        let expect = {
            let env = pash::RunEnv::default();
            env.fs_mem()
                .add("in.txt", template.read("in.txt").expect("in"));
            pash::run(script, &PashConfig::default(), "threads", &env).expect("run");
            env.fs_mem().read("out.txt").expect("out")
        };
        for o in outs {
            assert!(o == expect, "walked output differs from the executor's");
        }
    }

    #[test]
    fn walk_feeds_stdin_through_framed_workers() {
        let template = MemFs::new();
        let input = pash::workloads::text_corpus(6, 50_000);
        let cfg = PashConfig::round_robin(2);
        let script = "tr A-Z a-z | cut -d ' ' -f 1-2";
        let plan = pash::compile(script, &cfg).expect("compile").plan;
        let tracer = Tracer::new("t", false);
        let (account, observed) = walk(
            &plan,
            &template,
            &input,
            &Registry::standard(),
            &tracer,
            false,
        )
        .expect("walk");
        let env = pash::RunEnv {
            stdin: input,
            ..Default::default()
        };
        let pash::BackendOutput::Execution(expect) =
            pash::run(script, &cfg, "threads", &env).expect("run")
        else {
            panic!("no execution output")
        };
        assert!(observed.stdout == expect.stdout);
        assert!(account.seconds(|n| n.layer == "runtime.split") > 0.0);
    }
}
