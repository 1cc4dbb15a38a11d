//! The backend-neutral execution plan (lowered IR).
//!
//! The compiler's [`crate::frontend::TranslatedProgram`] is a sequence
//! of order-aware DFGs — the right representation for transformation,
//! but an awkward one for execution: every consumer (shell emission,
//! the threaded executor, the cost model) used to re-derive the same
//! facts from it ad hoc — which edges are internal pipes vs. boundary
//! files, which input routes via stdin, which nodes a region must wait
//! on.
//!
//! [`lower`] computes those facts once and produces an
//! [`ExecutionPlan`]: a flat, topologically-ordered IR in which
//!
//! * every node carries a resolved [`PlanOp`] — argv with explicit
//!   stream roles ([`Arg::Stream`], typed since classification: no
//!   word is parsed back into one) and the set of inputs routed via
//!   stdin (every input no [`Arg::Stream`] names);
//! * an aggregator is its verbatim argv: what kind of combiner it is
//!   mattered only to the transformations;
//! * every edge carries a resolved [`EndpointKind`] (internal pipe,
//!   boundary stdin, stdout sink, input/output file, file segment);
//! * every region records its output-producer set, and the program
//!   records guard structure and whether shell steps touch the data
//!   path.
//!
//! Every execution engine consumes this plan — the shell emitter in
//! this crate, the `threads` / `processes` / `remote` region runners in
//! `pash-runtime`, the cost model in [`crate::optimize`] — and sharding and
//! compile-result caching key off the same artifact:
//! [`ExecutionPlan::dump`] is deterministic, so the plan can be
//! hashed and cached.

use crate::dfg::{Dfg, NodeKind, SplitKind, StreamSpec};
use crate::frontend::{Step, TranslatedProgram};
use pash_parser::ast::AndOrOp;

/// Index of a node within its region plan (dense, topological order).
pub type PlanNodeId = usize;
/// Index of an edge within its region plan (dense).
pub type PlanEdgeId = usize;

/// What an edge resolves to at execution time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndpointKind {
    /// An internal pipe: both endpoints are live region nodes.
    Pipe,
    /// A region-boundary pipe input. Exactly one such edge per region
    /// is `primary` (the first in edge order): it receives the
    /// program's stdin; the rest read empty streams.
    StdinPipe {
        /// Receives the region's stdin bytes.
        primary: bool,
    },
    /// A region-boundary pipe output: bytes go to the program's stdout.
    StdoutPipe,
    /// A named input file read by a region node.
    InputFile(String),
    /// A named output file written by a region node.
    OutputFile(String),
    /// A line-aligned byte-range segment of an input file: part `part`
    /// of `of` (§5.2, input-aware split — no splitter process needed).
    InputSegment {
        /// Path of the underlying file.
        path: String,
        /// 0-based segment index.
        part: usize,
        /// Total number of segments.
        of: usize,
    },
    /// An edge with no execution-time transport (defensive; lowering
    /// does not produce these for valid graphs).
    Detached,
}

/// A plan edge: resolved endpoint kind plus dense node endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanEdge {
    /// Resolved endpoint kind.
    pub kind: EndpointKind,
    /// Producing node, if any.
    pub from: Option<PlanNodeId>,
    /// Consuming node, if any.
    pub to: Option<PlanNodeId>,
}

/// One argv word of a command: of an [`PlanOp::Exec`] node, and of
/// a DFG command node from classification on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arg {
    /// A literal word, passed through (and quoted by shell backends).
    Lit(String),
    /// The k-th input edge of the node, named in argument position.
    Stream(usize),
}

impl Arg {
    /// The literal text, if this is a literal word.
    pub fn as_lit(&self) -> Option<&str> {
        match self {
            Arg::Lit(s) => Some(s),
            Arg::Stream(_) => None,
        }
    }

    /// The word for display and cost modelling: a stream reference
    /// reads as `-`.
    pub fn lossy(&self) -> &str {
        self.as_lit().unwrap_or("-")
    }
}

/// Which splitter implementation a [`PlanOp::Split`] node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitMode {
    /// Count-then-scatter: consumes the whole input, splits evenly.
    General,
    /// Input size known beforehand. No lowering produces it (a whole
    /// file is read by segment); every runner runs it as `General`.
    Sized,
    /// Round-robin block distribution (`r_split`): streams fixed-size
    /// line-aligned blocks to outputs in rotation. `framed` stamps
    /// each block with a sequence tag for downstream reordering.
    RoundRobin {
        /// Emit tagged frames (true) or bare blocks (false).
        framed: bool,
    },
}

/// What a plan node executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanOp {
    /// Run a command with the given argv. Inputs referenced by
    /// [`Arg::Stream`] are named in place; the node's `stdin_inputs`
    /// feed its standard input in order.
    Exec {
        /// Resolved argv (command name first).
        argv: Vec<Arg>,
        /// The node consumes and produces tagged round-robin frames:
        /// the executor runs the command once per input frame and
        /// emits one output frame per input frame under the same tag
        /// (stateless law: per-block outputs concatenate).
        framed: bool,
    },
    /// Ordered concatenation of all inputs.
    Cat,
    /// Scatter the single input across all outputs.
    Split {
        /// Which splitter implementation runs.
        mode: SplitMode,
    },
    /// Identity relay (the paper's `eager`).
    Relay {
        /// Bounded intermediate buffer instead of unbounded. Lowering
        /// always emits `false`; the runtime still runs `true`, which
        /// can arrive over the wire and which the benchmark harness
        /// names.
        blocking: bool,
    },
    /// A multi-input aggregation function (runtime command).
    Aggregate {
        /// Aggregator argv.
        argv: Vec<String>,
    },
}

impl PlanOp {
    /// Argv as plain strings, with stream references rendered as `-`
    /// (for display and cost modelling). `None` for non-exec ops.
    pub fn exec_argv_lossy(&self) -> Option<Vec<String>> {
        match self {
            PlanOp::Exec { argv, .. } => Some(argv.iter().map(|a| a.lossy().to_string()).collect()),
            _ => None,
        }
    }

    /// A short display label.
    pub fn label(&self) -> String {
        match self {
            PlanOp::Exec { .. } => self.exec_argv_lossy().expect("exec").join(" "),
            PlanOp::Cat => "cat".to_string(),
            PlanOp::Split {
                mode: SplitMode::General,
            } => "split".to_string(),
            PlanOp::Split {
                mode: SplitMode::Sized,
            } => "split -sized".to_string(),
            PlanOp::Split {
                mode: SplitMode::RoundRobin { framed: true },
            } => "r_split".to_string(),
            PlanOp::Split {
                mode: SplitMode::RoundRobin { framed: false },
            } => "r_split -raw".to_string(),
            PlanOp::Relay { blocking: false } => "eager".to_string(),
            PlanOp::Relay { blocking: true } => "eager -blocking".to_string(),
            PlanOp::Aggregate { argv } => argv.join(" "),
        }
    }
}

/// A plan node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// The operation.
    pub op: PlanOp,
    /// Input edges in consumption order.
    pub inputs: Vec<PlanEdgeId>,
    /// Output edges (exactly one except for split nodes).
    pub outputs: Vec<PlanEdgeId>,
    /// Positions in `inputs` that feed the node's standard input, in
    /// order. Empty for ops whose inputs are all named operands
    /// (`Cat`, `Aggregate`).
    pub stdin_inputs: Vec<usize>,
    /// Whether this node writes a region output (a backend must wait
    /// on exactly these nodes; §5.2's `wait $pash_out_pids`).
    pub output_producer: bool,
}

/// One word of a spawned node's command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpawnWord {
    /// Literal text (shell backends quote it).
    Lit(String),
    /// The transport name of the node's k-th input edge.
    In(usize),
    /// The transport name of the node's j-th output edge.
    Out(usize),
}

/// Which role name of the multi-call binary serves a spawned node.
///
/// `pashc` and `pash-rt` are one program, but backends keep the
/// distinction so the emitted artifacts stay overridable per role
/// (`$PASHC` / `$PASH_RT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpawnBin {
    /// A coreutils command (`$PASHC`).
    Coreutils,
    /// A runtime primitive — split/relay/aggregate (`$PASH_RT`).
    Runtime,
}

/// How to run one plan node as a standalone OS process
/// ([`RegionPlan::spawn_spec`]): its whole command line, redirections
/// included, with edge references still symbolic, plus the two
/// region-boundary ends a backend plumbs itself.
///
/// This is the single source of truth for a spawned node — the shell
/// emitter renders it into script text and the process backend into a
/// real `exec`, word for word, so the two cannot drift. The words are
/// the multicall's: `--stdin In(k)` for a pipe or file on the node's
/// standard input, `--stdin-seg PATH PART OF` for a file segment,
/// `--stdout Out(j)` for a pipe or file on its standard output; then
/// an aggregator's `--in In(k)` words, `--framed`, and the subcommand
/// with its operands (a split names its outputs there). A backend
/// names each `In`/`Out` edge as its transport, a FIFO or a file path,
/// and the child opens it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpawnSpec {
    /// The role name to invoke.
    pub bin: SpawnBin,
    /// The command line after the binary name.
    pub argv: Vec<SpawnWord>,
    /// The edge the node's standard output feeds — a pipe, a file or
    /// the region's stdout; `None` only for a split, which names its
    /// outputs.
    pub stdout_edge: Option<PlanEdgeId>,
    /// The node's standard input is the region's stdin: `Some(true)`
    /// on the primary boundary edge, which receives the program's
    /// stdin, `Some(false)` on one that reads an empty stream.
    pub reads_stdin: Option<bool>,
    /// The node's standard output is the region's stdout.
    pub writes_stdout: bool,
}

impl PlanNode {
    /// The role name and the words after the redirections: the
    /// subcommand, its operands and the flags it takes ahead of them.
    fn command_words(&self) -> (SpawnBin, Vec<SpawnWord>) {
        let lit = |w: &str| SpawnWord::Lit(w.to_string());
        match &self.op {
            // `--framed` rides ahead of the command name: the
            // multicall strips it as a leading redirection-style flag
            // and wraps the command in a per-frame loop.
            PlanOp::Exec { argv, framed } => (
                SpawnBin::Coreutils,
                framed
                    .then(|| lit("--framed"))
                    .into_iter()
                    .chain(argv.iter().map(|a| match a {
                        Arg::Lit(w) => SpawnWord::Lit(w.clone()),
                        Arg::Stream(k) => SpawnWord::In(*k),
                    }))
                    .collect(),
            ),
            PlanOp::Cat => (
                SpawnBin::Coreutils,
                std::iter::once(lit("cat"))
                    .chain((0..self.inputs.len()).map(SpawnWord::In))
                    .collect(),
            ),
            PlanOp::Split { mode } => {
                let mut words = match mode {
                    SplitMode::General | SplitMode::Sized => vec![lit("split")],
                    SplitMode::RoundRobin { framed: true } => vec![lit("r_split")],
                    SplitMode::RoundRobin { framed: false } => vec![lit("r_split"), lit("--raw")],
                };
                words.extend((0..self.outputs.len()).map(SpawnWord::Out));
                (SpawnBin::Runtime, words)
            }
            PlanOp::Relay { blocking } => {
                let mut words = vec![lit("eager")];
                if *blocking {
                    words.push(lit("--blocking"));
                }
                (SpawnBin::Runtime, words)
            }
            PlanOp::Aggregate { argv } => {
                // Inputs ride in `--in` redirections ahead of the
                // `agg` subcommand: the multicall then applies real
                // aggregator semantics. (Plain operand passing would
                // be ambiguous for re-applied commands — `head -n 3
                // f1 f2` takes three lines *per file*, an aggregator
                // takes three lines of the ordered concatenation.)
                let mut words = Vec::with_capacity(2 * self.inputs.len() + argv.len() + 1);
                for k in 0..self.inputs.len() {
                    words.extend([lit("--in"), SpawnWord::In(k)]);
                }
                words.push(lit("agg"));
                words.extend(argv.iter().map(|a| lit(a)));
                (SpawnBin::Runtime, words)
            }
        }
    }
}

/// One region, lowered: nodes in topological order, edges dense.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionPlan {
    /// Nodes in topological (spawn) order.
    pub nodes: Vec<PlanNode>,
    /// Edges, densely indexed.
    pub edges: Vec<PlanEdge>,
    /// Whether a failed execution of this region may be re-run from
    /// scratch: every node is a pure stream transformation, so a
    /// retry that re-applies the region's outputs (stdout buffer,
    /// truncated output files) observes no state from the failed
    /// attempt. Lowering sets this; hand-built plans default to
    /// `false` (the conservative choice — the supervisor then never
    /// retries them).
    pub replayable: bool,
}

impl RegionPlan {
    /// Renders this region in the [`ExecutionPlan::dump`] text format
    /// (the `region …` header plus edge and node lines). Factored out
    /// so a region has a dump — and therefore a fingerprint — of its
    /// own: profile observations are keyed by `(region fingerprint,
    /// node id)`, which must not shift when unrelated steps of the
    /// surrounding plan change.
    pub fn dump_into(&self, out: &mut String) {
        out.push_str(&format!(
            "region nodes={} edges={} replayable={}\n",
            self.nodes.len(),
            self.edges.len(),
            self.replayable
        ));
        for (i, e) in self.edges.iter().enumerate() {
            let kind = match &e.kind {
                EndpointKind::Pipe => "pipe".to_string(),
                EndpointKind::StdinPipe { primary: true } => "stdin*".to_string(),
                EndpointKind::StdinPipe { primary: false } => "stdin".to_string(),
                EndpointKind::StdoutPipe => "stdout".to_string(),
                EndpointKind::InputFile(p) => format!("in:{p:?}"),
                EndpointKind::OutputFile(p) => format!("out:{p:?}"),
                EndpointKind::InputSegment { path, part, of } => {
                    format!("seg:{path:?}[{part}/{of}]")
                }
                EndpointKind::Detached => "detached".to_string(),
            };
            let from = e.from.map(|n| n.to_string()).unwrap_or_default();
            let to = e.to.map(|n| n.to_string()).unwrap_or_default();
            out.push_str(&format!("  e{i}: {kind} {from}->{to}\n"));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let op = match &n.op {
                PlanOp::Exec { argv, framed } => {
                    let words: Vec<String> = argv
                        .iter()
                        .map(|a| match a {
                            Arg::Lit(s) => format!("{s:?}"),
                            Arg::Stream(k) => format!("<in{k}>"),
                        })
                        .collect();
                    format!(
                        "exec {}{}",
                        words.join(" "),
                        if *framed { " framed" } else { "" }
                    )
                }
                PlanOp::Cat => "cat".to_string(),
                PlanOp::Split { mode } => match mode {
                    SplitMode::General => "split sized=false".to_string(),
                    SplitMode::Sized => "split sized=true".to_string(),
                    SplitMode::RoundRobin { framed } => {
                        format!("split rr framed={framed}")
                    }
                },
                PlanOp::Relay { blocking } => format!("relay blocking={blocking}"),
                PlanOp::Aggregate { argv } => {
                    let words: Vec<String> = argv.iter().map(|a| format!("{a:?}")).collect();
                    format!("agg {}", words.join(" "))
                }
            };
            let ins: Vec<String> = n.inputs.iter().map(|e| format!("e{e}")).collect();
            let outs: Vec<String> = n.outputs.iter().map(|e| format!("e{e}")).collect();
            let stdin: Vec<String> = n.stdin_inputs.iter().map(|k| k.to_string()).collect();
            out.push_str(&format!(
                "  n{i}: {op} [{}] stdin=[{}] -> [{}]{}\n",
                ins.join(","),
                stdin.join(","),
                outs.join(","),
                if n.output_producer { " producer" } else { "" }
            ));
        }
    }

    /// This region's slice of the deterministic dump text.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.dump_into(&mut out);
        out
    }

    /// A 64-bit FNV-1a fingerprint of this region alone — stable
    /// across changes to other steps of the surrounding plan. Profile
    /// observations are keyed by `(region fingerprint, node id)`.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.dump().as_bytes())
    }

    /// Node ids that produce region outputs.
    pub fn output_producers(&self) -> impl Iterator<Item = PlanNodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.output_producer)
            .map(|(i, _)| i)
    }

    /// Node `id`'s standalone-process form: its redirections, rendered
    /// from the kinds of the edges they name, ahead of its command.
    ///
    /// A command, split or relay reads at most one input on its
    /// standard input (further stdin inputs do not occur in lowered
    /// plans; ops with several inputs name them in argv instead), and
    /// every op but a split writes its one output there.
    pub fn spawn_spec(&self, id: PlanNodeId) -> SpawnSpec {
        let node = &self.nodes[id];
        let lit = |w: &str| SpawnWord::Lit(w.to_string());
        let (bin, command) = node.command_words();
        let mut argv = Vec::with_capacity(command.len() + 4);
        let mut reads_stdin = None;
        let stdin = match node.op {
            PlanOp::Cat | PlanOp::Aggregate { .. } => None,
            _ => node.stdin_inputs.first().copied(),
        };
        if let Some(k) = stdin {
            match &self.edges[node.inputs[k]].kind {
                EndpointKind::Pipe | EndpointKind::InputFile(_) => {
                    argv.extend([lit("--stdin"), SpawnWord::In(k)]);
                }
                // No descriptor ends at a segment's last line: the
                // command opens its own.
                EndpointKind::InputSegment { path, part, of } => argv.extend([
                    lit("--stdin-seg"),
                    lit(path),
                    lit(&part.to_string()),
                    lit(&of.to_string()),
                ]),
                EndpointKind::StdinPipe { primary } => reads_stdin = Some(*primary),
                _ => {}
            }
        }
        let stdout_edge = match node.op {
            PlanOp::Split { .. } => None,
            _ => node.outputs.first().copied(),
        };
        let mut writes_stdout = false;
        if let Some(e) = stdout_edge {
            match &self.edges[e].kind {
                EndpointKind::Pipe | EndpointKind::OutputFile(_) => {
                    argv.extend([lit("--stdout"), SpawnWord::Out(0)]);
                }
                EndpointKind::StdoutPipe => writes_stdout = true,
                _ => {}
            }
        }
        argv.extend(command);
        SpawnSpec {
            bin,
            argv,
            stdout_edge,
            reads_stdin,
            writes_stdout,
        }
    }

    /// Whether this region consumes the program's stdin (has a
    /// primary boundary-stdin edge). Executors must leave stdin
    /// untouched for regions that don't — the emitted script keeps
    /// the real stdin on a saved fd, so a later region still sees it.
    pub fn reads_stdin(&self) -> bool {
        self.edges
            .iter()
            .any(|e| e.kind == EndpointKind::StdinPipe { primary: true })
    }

    /// Edge ids of internal pipes (the FIFOs a shell backend creates).
    pub fn internal_pipes(&self) -> impl Iterator<Item = PlanEdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind == EndpointKind::Pipe)
            .map(|(i, _)| i)
    }

    /// The nodes whose exit statuses determine the region's status
    /// (folded with [`fold_statuses`]).
    ///
    /// Parallelization replaces a region's output producer with a
    /// synthetic combiner (cat-merge, relay, `pash-agg-*` network), so
    /// the producer's own status says nothing about the user's
    /// command. This walks back from the last output producer through
    /// synthetic nodes to the command copies whose statuses the
    /// sequential script would have reported. The walk stops at `Exec`
    /// nodes and at *re-applied command* aggregators (e.g. `head` used
    /// as its own combiner): those carry real command semantics —
    /// which also keeps `head`-style early-exit teardowns (upstream
    /// copies killed by SIGPIPE) out of the fold.
    pub fn status_sources(&self) -> Vec<PlanNodeId> {
        let Some(producer) = self.output_producers().last() else {
            return Vec::new();
        };
        let synthetic = |op: &PlanOp| match op {
            PlanOp::Cat | PlanOp::Relay { .. } => true,
            PlanOp::Aggregate { argv } => argv
                .first()
                .map(|a| a.starts_with("pash-agg-"))
                .unwrap_or(false),
            _ => false,
        };
        let mut out = Vec::new();
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![producer];
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n], true) {
                continue;
            }
            if !synthetic(&self.nodes[n].op) {
                out.push(n);
                continue;
            }
            let mut any_input = false;
            for &e in &self.nodes[n].inputs {
                if let Some(p) = self.edges[e].from {
                    any_input = true;
                    stack.push(p);
                }
            }
            if !any_input {
                // A synthetic node over boundary inputs only (e.g. a
                // cat of file segments): its own status stands in.
                out.push(n);
            }
        }
        out.sort_unstable();
        out
    }

    /// Paths of files (and file segments) the region reads.
    pub fn reads_files(&self) -> Vec<String> {
        self.edges
            .iter()
            .filter_map(|e| match &e.kind {
                EndpointKind::InputFile(p) => Some(p.clone()),
                EndpointKind::InputSegment { path, .. } => Some(path.clone()),
                _ => None,
            })
            .collect()
    }

    /// Checks structural invariants, so executors can reject a
    /// hand-built, corrupted or shipped plan with an error instead of
    /// an out-of-bounds panic:
    ///
    /// * every node's edge ids are in bounds and the edge points back;
    /// * every `stdin_inputs` / `Arg::Stream` position is a valid
    ///   input index, and an `Arg::Stream` names an `InputFile` edge
    ///   (the command opens the file by its path; a pipe has none);
    /// * every op has the arity its interpreter takes for granted:
    ///   `Exec`, `Cat`, `Relay` and `Aggregate` exactly one output,
    ///   `Relay` and `Split` exactly one input, `Split` at least one
    ///   output;
    /// * every edge endpoint is a valid node id, and an edge's
    ///   producer comes before its consumer (nodes are in topological
    ///   order — what lets a region run node by node).
    pub fn validate(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            let (ins, outs) = (node.inputs.len(), node.outputs.len());
            let (name, ins_ok, outs_ok) = match &node.op {
                PlanOp::Exec { .. } => ("exec", true, outs == 1),
                PlanOp::Cat => ("cat", true, outs == 1),
                PlanOp::Aggregate { .. } => ("agg", true, outs == 1),
                PlanOp::Relay { .. } => ("relay", ins == 1, outs == 1),
                PlanOp::Split { .. } => ("split", ins == 1, outs >= 1),
            };
            if !(ins_ok && outs_ok) {
                return Err(format!(
                    "node {i}: {name} cannot have {ins} inputs and {outs} outputs"
                ));
            }
            for &e in &node.inputs {
                if self.edges.get(e).map(|edge| edge.to) != Some(Some(i)) {
                    return Err(format!("node {i}: input edge {e} does not point back"));
                }
            }
            for &e in &node.outputs {
                if self.edges.get(e).map(|edge| edge.from) != Some(Some(i)) {
                    return Err(format!("node {i}: output edge {e} does not point back"));
                }
            }
            for &k in &node.stdin_inputs {
                if k >= node.inputs.len() {
                    return Err(format!("node {i}: stdin input {k} out of range"));
                }
            }
            if let PlanOp::Exec { argv, .. } = &node.op {
                for a in argv {
                    if let Arg::Stream(k) = a {
                        let Some(&e) = node.inputs.get(*k) else {
                            return Err(format!("node {i}: stream arg {k} out of range"));
                        };
                        if !matches!(self.edges[e].kind, EndpointKind::InputFile(_)) {
                            return Err(format!("node {i}: stream arg {k} names no input file"));
                        }
                    }
                }
            }
        }
        for (e, edge) in self.edges.iter().enumerate() {
            for endpoint in [edge.from, edge.to].into_iter().flatten() {
                if endpoint >= self.nodes.len() {
                    return Err(format!("edge {e}: endpoint node {endpoint} out of range"));
                }
            }
            if let (Some(from), Some(to)) = (edge.from, edge.to) {
                if from >= to {
                    return Err(format!(
                        "edge {e}: producer node {from} does not precede consumer node {to}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Folds the statuses of a region's [`RegionPlan::status_sources`]
/// into the status the sequential script would have reported.
///
/// Hard errors dominate: any status ≥ 2 yields the largest such
/// status (a copy that failed to open a file fails the whole
/// command). Otherwise the minimum wins: a command that "succeeds if
/// any part succeeds" (`grep`'s found-a-match contract) reports 0
/// when any copy reports 0, and 1 only when every copy missed —
/// exactly the sequential semantics at any width.
pub fn fold_statuses(statuses: &[i32]) -> i32 {
    match statuses.iter().copied().filter(|&s| s >= 2).max() {
        Some(err) => err,
        None => statuses.iter().copied().min().unwrap_or(0),
    }
}

/// Guard over the preceding step's exit status (`&&` / `||`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardCond {
    /// Run the next step only on success (`&&`).
    IfSuccess,
    /// Run the next step only on failure (`||`).
    IfFailure,
}

impl GuardCond {
    /// Whether a status admits the guarded step.
    pub fn admits(self, status: i32) -> bool {
        match self {
            GuardCond::IfSuccess => status == 0,
            GuardCond::IfFailure => status != 0,
        }
    }
}

/// One step of an execution plan, executed in order.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStep {
    /// A lowered region.
    Region(RegionPlan),
    /// A fragment kept as shell text.
    Shell {
        /// The original shell text.
        text: String,
        /// True when the step has no data-path effect (assignments,
        /// comments): the front-end already folded its effect into the
        /// compile-time environment, so hermetic backends may skip it.
        data_noop: bool,
    },
    /// Run the next step only if the guard admits the current status.
    Guard(GuardCond),
}

/// A lowered program: the flat, serializable execution artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionPlan {
    /// Steps in execution order.
    pub steps: Vec<PlanStep>,
}

impl ExecutionPlan {
    /// Number of region steps.
    pub fn region_count(&self) -> usize {
        self.regions().count()
    }

    /// Iterates the region plans.
    pub fn regions(&self) -> impl Iterator<Item = &RegionPlan> {
        self.steps.iter().filter_map(|s| match s {
            PlanStep::Region(r) => Some(r),
            _ => None,
        })
    }

    /// Renders the plan as deterministic text: same program and
    /// configuration ⇒ byte-identical dump. This is the serialization
    /// format that cache keys, golden tests, and the CI determinism
    /// smoke step rely on.
    pub fn dump(&self) -> String {
        let mut out = String::from("plan v1\n");
        for step in &self.steps {
            match step {
                PlanStep::Shell { text, data_noop } => {
                    out.push_str(&format!("shell noop={data_noop} {text:?}\n"));
                }
                PlanStep::Guard(GuardCond::IfSuccess) => out.push_str("guard if-success\n"),
                PlanStep::Guard(GuardCond::IfFailure) => out.push_str("guard if-failure\n"),
                PlanStep::Region(r) => r.dump_into(&mut out),
            }
        }
        out
    }

    /// A 64-bit FNV-1a fingerprint of [`ExecutionPlan::dump`] — the
    /// hashable identity of the plan.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.dump().as_bytes())
    }
}

/// FNV-1a over a byte string (the workspace has no hashing crates).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Lowers a translated (and transformed) program to its execution
/// plan. This is the only place in the workspace that interprets
/// [`NodeKind`]/[`StreamSpec`]; every backend consumes the resolved
/// plan.
pub fn lower(tp: &TranslatedProgram) -> ExecutionPlan {
    let mut steps = Vec::with_capacity(tp.steps.len());
    for step in &tp.steps {
        match step {
            Step::Shell(text) => steps.push(PlanStep::Shell {
                text: text.clone(),
                data_noop: shell_is_data_noop(text),
            }),
            Step::Guard(AndOrOp::AndIf) => steps.push(PlanStep::Guard(GuardCond::IfSuccess)),
            Step::Guard(AndOrOp::OrIf) => steps.push(PlanStep::Guard(GuardCond::IfFailure)),
            Step::Region(g) => steps.push(PlanStep::Region(lower_region(g))),
        }
    }
    ExecutionPlan { steps }
}

/// Lowers one DFG region.
fn lower_region(g: &Dfg) -> RegionPlan {
    let order = g.topo_order();
    // Dense node index, keyed by original NodeId.
    let mut node_index: Vec<Option<PlanNodeId>> = Vec::new();
    for (dense, &id) in order.iter().enumerate() {
        if id >= node_index.len() {
            node_index.resize(id + 1, None);
        }
        node_index[id] = Some(dense);
    }
    // Dense edge index over referenced edges, in original-id order
    // (deterministic). The first boundary pipe input is the primary
    // stdin edge — the same first-wins rule the executor used.
    let mut edge_index: Vec<Option<PlanEdgeId>> = vec![None; g.edge_count()];
    let mut edges: Vec<PlanEdge> = Vec::new();
    let mut primary_assigned = false;
    for (e, slot) in edge_index.iter_mut().enumerate() {
        let edge = g.edge(e);
        if edge.from.is_none() && edge.to.is_none() {
            continue; // Retired edge slot.
        }
        let kind = match (&edge.spec, edge.from, edge.to) {
            (StreamSpec::Pipe, Some(_), Some(_)) => EndpointKind::Pipe,
            (StreamSpec::Pipe, None, Some(_)) => {
                let primary = !primary_assigned;
                primary_assigned = true;
                EndpointKind::StdinPipe { primary }
            }
            (StreamSpec::Pipe, Some(_), None) => EndpointKind::StdoutPipe,
            (StreamSpec::File(p), None, Some(_)) => EndpointKind::InputFile(p.clone()),
            (StreamSpec::File(p), Some(_), _) => EndpointKind::OutputFile(p.clone()),
            (StreamSpec::FileSegment { path, part, of }, None, Some(_)) => {
                EndpointKind::InputSegment {
                    path: path.clone(),
                    part: *part,
                    of: *of,
                }
            }
            _ => EndpointKind::Detached,
        };
        *slot = Some(edges.len());
        edges.push(PlanEdge {
            kind,
            from: edge.from.and_then(|n| node_index.get(n).copied().flatten()),
            to: edge.to.and_then(|n| node_index.get(n).copied().flatten()),
        });
    }
    let remap = |e: crate::dfg::EdgeId| -> PlanEdgeId {
        edge_index[e].expect("edge referenced by a live node")
    };
    let mut nodes = Vec::with_capacity(order.len());
    // Frame tracking: an edge carries tagged round-robin frames when
    // its producer is a framed `r_split`, a framed command copy, or a
    // relay forwarding a framed stream. Reorder aggregators consume
    // frames and emit bare payloads. Topological order guarantees a
    // producer's framing is known before its consumers lower.
    let mut edge_framed = vec![false; edges.len()];
    for &id in &order {
        let node = g.node(id).expect("live node");
        let inputs: Vec<PlanEdgeId> = node.inputs.iter().map(|&e| remap(e)).collect();
        let outputs: Vec<PlanEdgeId> = node.outputs.iter().map(|&e| remap(e)).collect();
        let (op, stdin_inputs) = match &node.kind {
            NodeKind::Command { argv, .. } => {
                let named = |k: &usize| argv.contains(&Arg::Stream(*k));
                let stdin: Vec<usize> = (0..inputs.len()).filter(|k| !named(k)).collect();
                let framed = !inputs.is_empty() && inputs.iter().all(|&e| edge_framed[e]);
                if framed {
                    for &e in &outputs {
                        edge_framed[e] = true;
                    }
                }
                (
                    PlanOp::Exec {
                        argv: argv.clone(),
                        framed,
                    },
                    stdin,
                )
            }
            NodeKind::Cat => (PlanOp::Cat, Vec::new()),
            NodeKind::Split(kind) => {
                let mode = match kind {
                    SplitKind::General => SplitMode::General,
                    SplitKind::RoundRobin { framed } => SplitMode::RoundRobin { framed: *framed },
                };
                if matches!(mode, SplitMode::RoundRobin { framed: true }) {
                    for &e in &outputs {
                        edge_framed[e] = true;
                    }
                }
                (
                    PlanOp::Split { mode },
                    if inputs.is_empty() {
                        Vec::new()
                    } else {
                        vec![0]
                    },
                )
            }
            NodeKind::Relay => {
                if inputs.iter().any(|&e| edge_framed[e]) {
                    for &e in &outputs {
                        edge_framed[e] = true;
                    }
                }
                (
                    PlanOp::Relay { blocking: false },
                    if inputs.is_empty() {
                        Vec::new()
                    } else {
                        vec![0]
                    },
                )
            }
            NodeKind::Aggregate(agg) => (
                PlanOp::Aggregate {
                    argv: agg.argv.clone(),
                },
                Vec::new(),
            ),
        };
        let output_producer = outputs.iter().any(|&e| edges[e].to.is_none());
        nodes.push(PlanNode {
            op,
            inputs,
            outputs,
            stdin_inputs,
            output_producer,
        });
    }
    let replayable = nodes.iter().all(|n| node_is_replayable(&n.op));
    RegionPlan {
        nodes,
        edges,
        replayable,
    }
}

/// Whether an op may be safely re-executed after a failed attempt.
/// Synthetic ops (cat, split, relay, `pash-agg-*`) are pure stream
/// transforms by construction; exec/aggregate commands are checked
/// against a denylist of heads whose output is nondeterministic or
/// whose effects outlive the attempt.
fn node_is_replayable(op: &PlanOp) -> bool {
    const IMPURE: [&str; 4] = ["shuf", "mktemp", "tee", "date"];
    let head_ok = |head: Option<&str>| head.map(|h| !IMPURE.contains(&h)).unwrap_or(false);
    match op {
        PlanOp::Exec { argv, .. } => head_ok(argv.first().and_then(|a| a.as_lit())),
        PlanOp::Aggregate { argv } => head_ok(argv.first().map(|s| s.as_str())),
        PlanOp::Cat | PlanOp::Split { .. } | PlanOp::Relay { .. } => true,
    }
}

/// True when a shell step has no data-path effect (assignments only) —
/// hermetic backends may treat it as a no-op because the front-end
/// already folded the assignment into the compile-time environment.
fn shell_is_data_noop(text: &str) -> bool {
    let prog = match pash_parser::parse(text) {
        Ok(p) => p,
        Err(_) => return false,
    };
    prog.commands.iter().all(|cc| {
        cc.items.iter().all(|(ao, _)| {
            ao.rest.is_empty()
                && ao.first.commands.iter().all(|c| match c {
                    pash_parser::ast::Command::Simple(sc) => {
                        sc.words.is_empty() && sc.redirects.is_empty()
                    }
                    _ => false,
                })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annot::stdlib::AnnotationLibrary;
    use crate::dfg::transform::{parallelize, SplitPolicy, TransformConfig};
    use crate::frontend::{translate, FrontendOptions};

    fn lowered(src: &str, width: usize) -> ExecutionPlan {
        lowered_with(src, width, SplitPolicy::Off)
    }

    fn lowered_with(src: &str, width: usize, split: SplitPolicy) -> ExecutionPlan {
        let prog = pash_parser::parse(src).expect("parse");
        let mut tp = translate(
            &prog,
            AnnotationLibrary::standard(),
            &FrontendOptions::default(),
        )
        .expect("translate");
        for g in tp.regions_mut() {
            parallelize(
                g,
                &TransformConfig {
                    width,
                    split,
                    ..Default::default()
                },
            );
        }
        lower(&tp)
    }

    fn first_region(plan: &ExecutionPlan) -> &RegionPlan {
        plan.regions().next().expect("region")
    }

    #[test]
    fn linear_pipeline_lowers_to_dense_region() {
        let plan = lowered("cat in.txt | tr A-Z a-z | grep x > out.txt", 1);
        let r = first_region(&plan);
        assert_eq!(r.nodes.len(), 3);
        // Input file, two internal pipes, output file.
        assert!(r
            .edges
            .iter()
            .any(|e| matches!(e.kind, EndpointKind::InputFile(ref p) if p == "in.txt")));
        assert!(r
            .edges
            .iter()
            .any(|e| matches!(e.kind, EndpointKind::OutputFile(ref p) if p == "out.txt")));
        assert_eq!(r.internal_pipes().count(), 2);
        // Only the last node produces region output.
        assert_eq!(r.output_producers().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn parallel_region_has_segments_and_producers() {
        let plan = lowered("cat in.txt | tr A-Z a-z | sort > out.txt", 4);
        let r = first_region(&plan);
        let segs = r
            .edges
            .iter()
            .filter(|e| matches!(e.kind, EndpointKind::InputSegment { of: 4, .. }))
            .count();
        assert_eq!(segs, 4);
        assert_eq!(r.output_producers().count(), 1);
        // Every node's edge references are in bounds and consistent.
        for (i, n) in r.nodes.iter().enumerate() {
            for &e in n.inputs.iter() {
                assert_eq!(r.edges[e].to, Some(i));
            }
            for &e in n.outputs.iter() {
                assert_eq!(r.edges[e].from, Some(i));
            }
        }
    }

    #[test]
    fn streamed_operands_lower_typed() {
        // A streamed `-` reads stdin wherever it stands; the file
        // before it is named in place.
        let plan = lowered("comm f -", 2);
        let r = first_region(&plan);
        let comm = &r.nodes[0];
        let words = |ws: &[&str]| ws.iter().map(|w| Arg::Lit(w.to_string())).collect();
        match &comm.op {
            PlanOp::Exec { argv, .. } => {
                let mut want: Vec<Arg> = words(&["comm"]);
                want.extend([Arg::Stream(0), Arg::Lit("-".into())]);
                assert_eq!(argv, &want);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(comm.stdin_inputs, vec![1]);
        assert_eq!(
            r.edges[comm.inputs[0]].kind,
            EndpointKind::InputFile("f".into())
        );
        assert_eq!(
            r.edges[comm.inputs[1]].kind,
            EndpointKind::StdinPipe { primary: true }
        );
        // A literal word is a word, whatever it holds.
        let plan = lowered("grep '\u{1}PASH_STREAM0\u{1}' g", 2);
        let r = first_region(&plan);
        let grep = r.nodes.iter().find(|n| matches!(n.op, PlanOp::Exec { .. }));
        match &grep.expect("grep copies").op {
            PlanOp::Exec { argv, .. } => {
                assert_eq!(argv, &words(&["grep", "\u{1}PASH_STREAM0\u{1}", "-"]))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn static_operands_stay_literal() {
        let plan = lowered("sort words.txt | comm -13 dict.txt -", 1);
        let r = first_region(&plan);
        let comm = r
            .nodes
            .iter()
            .find(|n| matches!(&n.op, PlanOp::Exec { argv, .. } if argv.first() == Some(&Arg::Lit("comm".into()))))
            .expect("comm node");
        // `-` stays literal (stdin-routed); the static dict stays too.
        match &comm.op {
            PlanOp::Exec { argv, .. } => {
                assert!(argv.contains(&Arg::Lit("dict.txt".into())));
                assert!(argv.contains(&Arg::Lit("-".into())));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(comm.stdin_inputs, vec![0]);
    }

    #[test]
    fn guards_and_shell_steps_lower() {
        let plan = lowered("x=1\ngrep a f > t && sort t > u", 1);
        assert!(plan
            .steps
            .iter()
            .any(|s| matches!(s, PlanStep::Guard(GuardCond::IfSuccess))));
        assert!(plan.steps.iter().any(|s| matches!(
            s,
            PlanStep::Shell {
                data_noop: true,
                ..
            }
        )));
    }

    #[test]
    fn dynamic_shell_step_is_not_a_noop() {
        let plan = lowered("grep $UNDEF f", 1);
        assert!(plan.steps.iter().any(|s| matches!(
            s,
            PlanStep::Shell {
                data_noop: false,
                ..
            }
        )));
    }

    #[test]
    fn exactly_one_primary_stdin_edge() {
        let plan = lowered("sort a > t1 & sort b > t2", 1);
        let r = first_region(&plan);
        // File inputs here, so no stdin pipes at all.
        let primaries = r
            .edges
            .iter()
            .filter(|e| matches!(e.kind, EndpointKind::StdinPipe { primary: true }))
            .count();
        assert!(primaries <= 1);
        let plan = lowered("tr A-Z a-z | grep x", 1);
        let r = first_region(&plan);
        let primaries = r
            .edges
            .iter()
            .filter(|e| matches!(e.kind, EndpointKind::StdinPipe { primary: true }))
            .count();
        assert_eq!(primaries, 1);
    }

    #[test]
    fn dump_is_deterministic_and_fingerprintable() {
        let a = lowered_with(
            "cat in.txt | tr A-Z a-z | sort | uniq -c > o",
            8,
            SplitPolicy::Sized,
        );
        let b = lowered_with(
            "cat in.txt | tr A-Z a-z | sort | uniq -c > o",
            8,
            SplitPolicy::Sized,
        );
        assert_eq!(a.dump(), b.dump());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = lowered_with(
            "cat in.txt | tr A-Z a-z | sort | uniq -c > o",
            4,
            SplitPolicy::Sized,
        );
        assert_ne!(a.dump(), c.dump());
    }

    #[test]
    fn region_fingerprint_is_local() {
        let one = lowered("tr A-Z a-z < a.txt > b.txt", 2);
        let two = lowered("tr A-Z a-z < a.txt > b.txt\necho done > s.txt", 2);
        let f1 = first_region(&one).fingerprint();
        let f2 = first_region(&two).fingerprint();
        assert_eq!(f1, f2, "region fingerprint must ignore sibling steps");
        assert_ne!(one.fingerprint(), two.fingerprint());
    }

    #[test]
    fn split_nodes_route_stdin_and_produce_pipes() {
        let plan = lowered_with(
            "cat in.txt | sort | grep x > out.txt",
            4,
            SplitPolicy::Sized,
        );
        let r = first_region(&plan);
        let split = r
            .nodes
            .iter()
            .find(|n| matches!(n.op, PlanOp::Split { .. }))
            .expect("split node");
        assert_eq!(split.stdin_inputs, vec![0]);
        assert!(split.outputs.len() >= 2);
    }

    #[test]
    fn lowered_plans_validate_and_corruption_is_caught() {
        let plan = lowered_with("cat in.txt | sort | uniq -c > o", 4, SplitPolicy::Sized);
        for r in plan.regions() {
            r.validate().expect("lowered plan is valid");
        }
        let mut broken = plan.regions().next().expect("region").clone();
        broken.nodes[0].inputs.push(broken.edges.len() + 7);
        assert!(broken.validate().is_err());
        let mut broken = plan.regions().next().expect("region").clone();
        broken.nodes[0].stdin_inputs.push(99);
        assert!(broken.validate().is_err());
    }

    /// A one-node region whose node has `ins` file inputs and `outs`
    /// file outputs, as it might arrive over the wire.
    fn one_node_region(op: PlanOp, ins: usize, outs: usize) -> RegionPlan {
        let edge = |kind, from, to| PlanEdge { kind, from, to };
        let mut edges = Vec::new();
        for k in 0..ins {
            edges.push(edge(
                EndpointKind::InputFile(format!("i{k}")),
                None,
                Some(0),
            ));
        }
        for k in 0..outs {
            edges.push(edge(
                EndpointKind::OutputFile(format!("o{k}")),
                Some(0),
                None,
            ));
        }
        RegionPlan {
            nodes: vec![PlanNode {
                op,
                inputs: (0..ins).collect(),
                outputs: (ins..ins + outs).collect(),
                stdin_inputs: Vec::new(),
                output_producer: outs > 0,
            }],
            edges,
            replayable: true,
        }
    }

    #[test]
    fn shipped_regions_are_checked_for_op_arity() {
        let exec = || PlanOp::Exec {
            argv: vec![Arg::Lit("tr".to_string())],
            framed: false,
        };
        let agg = || PlanOp::Aggregate {
            argv: vec!["pash-agg-wc".to_string()],
        };
        let relay = || PlanOp::Relay { blocking: false };
        let split = || PlanOp::Split {
            mode: SplitMode::General,
        };
        // The arities the interpreter takes for granted validate...
        for (op, ins, outs) in [
            (exec(), 1, 1),
            (exec(), 0, 1),
            (PlanOp::Cat, 3, 1),
            (agg(), 2, 1),
            (relay(), 1, 1),
            (split(), 1, 1),
            (split(), 1, 4),
        ] {
            let r = one_node_region(op, ins, outs);
            r.validate().unwrap_or_else(|e| panic!("{e}\n{}", r.dump()));
        }
        // ...and every other one is an error naming the op, not a
        // panic in whichever thread runs the node.
        for (op, ins, outs, name) in [
            (exec(), 1, 0, "exec"),
            (exec(), 1, 2, "exec"),
            (PlanOp::Cat, 2, 0, "cat"),
            (agg(), 2, 0, "agg"),
            (agg(), 2, 2, "agg"),
            (relay(), 0, 1, "relay"),
            (relay(), 2, 1, "relay"),
            (relay(), 1, 0, "relay"),
            (split(), 0, 2, "split"),
            (split(), 2, 2, "split"),
            (split(), 1, 0, "split"),
        ] {
            let err = one_node_region(op, ins, outs)
                .validate()
                .expect_err("bad arity rejected");
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn a_stream_operand_must_name_an_input_file() {
        let plan = lowered("wc -l t1 t2 | sort > o", 1);
        let r = first_region(&plan);
        r.validate().expect("lowered operands name files");
        let wc = &r.nodes[0];
        let PlanOp::Exec { argv, .. } = &wc.op else {
            panic!("{}", r.dump());
        };
        assert_eq!(&argv[2..], [Arg::Stream(0), Arg::Stream(1)]);
        assert!(wc.stdin_inputs.is_empty(), "{}", r.dump());
        // The same operand naming a pipe is refused: a pipe has no path
        // for the command to open.
        let mut piped = r.clone();
        piped.edges[wc.inputs[1]].kind = EndpointKind::Pipe;
        let err = piped.validate().expect_err("a pipe operand is refused");
        assert!(err.contains("stream arg 1 names no input file"), "{err}");
    }

    #[test]
    fn validate_rejects_a_consumer_before_its_producer() {
        let plan = lowered("cat in.txt | tr a-z A-Z | sort > o", 1);
        let mut r = first_region(&plan).clone();
        r.validate().expect("lowered order is topological");
        // Swap the first pipe's two ends: same graph, wrong order.
        let e = r.internal_pipes().next().expect("a pipe");
        let (from, to) = (r.edges[e].from.expect("from"), r.edges[e].to.expect("to"));
        r.nodes.swap(from, to);
        for edge in &mut r.edges {
            for end in [&mut edge.from, &mut edge.to] {
                *end = end.map(|n| match n {
                    n if n == from => to,
                    n if n == to => from,
                    n => n,
                });
            }
        }
        let err = r.validate().expect_err("order checked");
        assert!(err.contains("does not precede"), "{err}");
    }

    #[test]
    fn spawn_specs_cover_every_op() {
        // (`sort | uniq -c` would do without a split: the fold moves
        // below the merge.)
        let plan = lowered_with(
            "cat in.txt | sort | grep x > out.txt",
            4,
            SplitPolicy::Sized,
        );
        let r = first_region(&plan);
        let mut seen_split = false;
        let mut seen_agg = false;
        let stdin_pipe = [SpawnWord::Lit("--stdin".into()), SpawnWord::In(0)];
        for (id, n) in r.nodes.iter().enumerate() {
            let spec = r.spawn_spec(id);
            match &n.op {
                PlanOp::Split { .. } => {
                    seen_split = true;
                    assert_eq!(spec.bin, SpawnBin::Runtime);
                    assert_eq!(spec.stdout_edge, None, "split names its outputs");
                    let outs = spec
                        .argv
                        .iter()
                        .filter(|w| matches!(w, SpawnWord::Out(_)))
                        .count();
                    assert_eq!(outs, n.outputs.len());
                    assert_eq!(spec.argv[..2], stdin_pipe);
                }
                PlanOp::Aggregate { argv } => {
                    seen_agg = true;
                    assert_eq!(spec.bin, SpawnBin::Runtime);
                    assert!(!spec.argv.contains(&stdin_pipe[0]));
                    // Inputs ride in `--in` pairs before `agg NAME`.
                    let agg_pos = spec
                        .argv
                        .iter()
                        .position(|w| w == &SpawnWord::Lit("agg".into()))
                        .expect("agg subcommand");
                    assert_eq!(
                        spec.argv.get(agg_pos + 1),
                        Some(&SpawnWord::Lit(argv[0].clone())),
                        "aggregator name follows `agg`"
                    );
                    let ins = spec
                        .argv
                        .iter()
                        .filter(|w| matches!(w, SpawnWord::In(_)))
                        .count();
                    assert_eq!(ins, n.inputs.len());
                }
                PlanOp::Exec { .. } | PlanOp::Cat => {
                    assert_eq!(spec.bin, SpawnBin::Coreutils);
                    assert_eq!(spec.stdout_edge, Some(n.outputs[0]));
                }
                PlanOp::Relay { .. } => {
                    assert_eq!(spec.bin, SpawnBin::Runtime);
                    assert!(spec.argv.contains(&SpawnWord::Lit("eager".into())));
                }
            }
        }
        assert!(seen_split && seen_agg);
    }

    #[test]
    fn spawn_spec_maps_stream_args_to_inputs() {
        let plan = lowered("sort words.txt | comm -13 dict.txt -", 1);
        let r = first_region(&plan);
        let comm = r
            .nodes
            .iter()
            .position(|n| matches!(&n.op, PlanOp::Exec { argv, .. } if argv.first() == Some(&Arg::Lit("comm".into()))))
            .expect("comm node");
        let spec = r.spawn_spec(comm);
        // `-` is stdin-routed, so its pipe is the node's `--stdin` and
        // the command's own words are all literal.
        let stdin_pipe = [SpawnWord::Lit("--stdin".into()), SpawnWord::In(0)];
        assert_eq!(spec.argv[..2], stdin_pipe);
        assert!(spec.argv[2..]
            .iter()
            .all(|w| matches!(w, SpawnWord::Lit(_))));
    }

    #[test]
    fn topological_node_order() {
        let plan = lowered("cat in.txt | tr A-Z a-z | sort | uniq -c > o", 8);
        for r in plan.regions() {
            for (i, n) in r.nodes.iter().enumerate() {
                for &e in &n.inputs {
                    if let Some(p) = r.edges[e].from {
                        assert!(p < i, "producer {p} not before consumer {i}");
                    }
                }
            }
        }
    }
}
