//! Graph transformations (§4.2): the parallelization transformation
//! `T` for stateless and parallelizable-pure nodes, plus the auxiliary
//! transformations `t1` (cat-insertion), `t2` (split+cat insertion),
//! and `t3` (eager relay insertion).
//!
//! All transformations preserve the graph's observable behaviour: `T`
//! is justified by the stateless law `f(x·x') = f(x)·f(x')` and the
//! map/aggregate law `f(x·x') = agg(m(x)·m(x'))` (both property-tested
//! against the real command implementations in the runtime crate).
//!
//! `T` alone restarts every stage from a split: `sort | uniq -c` would
//! merge, split again, count per worker and stitch. One more law keeps
//! the parallelism across the merge ([`commute_fold_below_merge`]).
//! The merge of a *total* order is a commutative, associative
//! combiner, and a fold over adjacent equal lines commutes below it:
//!
//! ```text
//! uniq -c ∘ merge≤  =  merge⊕≤ ∘ (uniq -c)ᵂ
//! uniq    ∘ merge≤  =  merge-u≤ ∘ (uniq)ᵂ
//! ```
//!
//! where `merge⊕` (`pash-agg-sort-c`) merges `count text` records by
//! their text under the sort's own comparison and adds the counts of
//! equal texts, and `merge-u` is `pash-agg-sort -u`. Both sides group
//! exactly the byte-identical lines, because without `-u` every
//! comparison ends in GNU's last-resort whole-line compare: lines that
//! compare equal *are* equal, so they are adjacent in the merged
//! stream and meet in the merge. Side conditions:
//!
//! * no `-u` in the sort: its groups are key-equal lines of which only
//!   the first survives, so there is nothing to count per worker that
//!   adds up to what the sequential `uniq -c` sees;
//! * plain `uniq` only below a whole-line sort (`sort`, `sort -r`):
//!   its combining merge is `pash-agg-sort … -u`, and under `-n` / `-k`
//!   that `-u` would drop lines that are key-equal but not identical.
//!   `uniq -c` has no such limit — the counted merge never takes `-u`.

use crate::classes::{rr_mode, sort_flags_unique, RrMode};
use crate::dfg::graph::{Dfg, Edge, EdgeId, Node, NodeId, NodeKind, SplitKind, StreamSpec};

/// Split insertion policy (the Fig. 7 `Split` axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitPolicy {
    /// No split nodes; only whole files at the graph boundary are
    /// divided (via byte-range segments, which need no process).
    #[default]
    Off,
    /// Split pipe inputs too: a consumer whose aggregator commutes
    /// takes raw `r_split` blocks, any other a general
    /// (count-then-scatter) split. Whole files are still divided into
    /// byte-range segments. No sized split is ever lowered.
    Sized,
    /// Order-aware round-robin distribution (`r_split`): capable nodes
    /// (see [`crate::classes::rr_mode`]) read tagged or raw blocks from
    /// a streaming round-robin splitter — no cut-point probing, and
    /// balanced regardless of line-length skew. Stateless copies emit
    /// tagged frames that a `pash-agg-reorder` aggregator restores to
    /// input order; incapable nodes fall back to the `Sized` behaviour.
    RoundRobin,
}

/// Eager-relay insertion policy (§5.2). It has one value: `t3`
/// always inserts unbounded relays. The type stays only because the
/// benchmark harness names it; ROADMAP item 5 deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EagerPolicy {
    /// Unbounded eager relays (the paper's default).
    #[default]
    Full,
}

/// Shape of the aggregation network for class-P nodes. It has one
/// value: associative aggregators form a binary tree. The type stays
/// only because the benchmark harness names it; ROADMAP item 5
/// deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggTreeShape {
    /// A balanced binary tree of 2-input aggregators (the paper's
    /// `sort` at 8× spawns 7 aggregators; Tab. 2's node counts).
    #[default]
    Binary,
}

/// Transformation configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformConfig {
    /// Parallelism width (paper: 2–64).
    pub width: usize,
    /// Split policy.
    pub split: SplitPolicy,
    /// Eager policy (one value; see [`EagerPolicy`]).
    pub eager: EagerPolicy,
    /// Aggregation-tree shape (one value; see [`AggTreeShape`]).
    pub agg_tree: AggTreeShape,
}

impl Default for TransformConfig {
    fn default() -> Self {
        TransformConfig {
            width: 2,
            split: SplitPolicy::Off,
            eager: EagerPolicy::Full,
            agg_tree: AggTreeShape::Binary,
        }
    }
}

/// Applies all transformations to the graph.
///
/// Walks the original nodes in topological order, applying `t1`/`t2`
/// to expose a concatenation in front of each parallelizable node and
/// then commuting it through (`T`). Finishes with the `t3` eager pass.
pub fn parallelize(g: &mut Dfg, cfg: &TransformConfig) {
    if cfg.width >= 2 {
        let order = g.topo_order();
        for id in order {
            if g.node(id).map(|n| n.is_parallelizable()).unwrap_or(false) {
                try_parallelize_node(g, id, cfg);
            }
        }
    }
    insert_eager_relays(g);
    debug_assert!(g.validate().is_ok(), "transformations broke the DFG");
}

/// The parallelization transformation `T` on one node.
fn try_parallelize_node(g: &mut Dfg, id: NodeId, cfg: &TransformConfig) {
    // A fold fed by a sort's merge moves below it: no split needed.
    if commute_fold_below_merge(g, id) {
        return;
    }
    // t1: multiple inputs are first concatenated.
    if g.node(id).expect("live node").inputs.len() > 1 {
        insert_cat_before(g, id);
    }
    let input_edge = g.node(id).expect("live node").inputs[0];
    // How this node may consume round-robin blocks, and whether the
    // RoundRobin policy lets it.
    let capability = node_rr_mode(g.node(id).expect("live node"));
    let rr = if cfg.split == SplitPolicy::RoundRobin {
        capability
    } else {
        RrMode::No
    };
    // Find (or create) the parallel sources feeding this node. The
    // `framed` flag records whether the sources carry tagged blocks
    // (round-robin frames) rather than contiguous byte streams; framed
    // copies are recombined with a reordering aggregator.
    let (sources, framed): (Vec<EdgeId>, bool) = match g.edge(input_edge).from {
        // A preceding cat: commute with it (consume its inputs).
        Some(p) if matches!(g.node(p).expect("live node").kind, NodeKind::Cat) => {
            let srcs = g.node(p).expect("live node").inputs.clone();
            g.remove_node(p);
            // Retire the cat→node edge; the copies consume the cat's
            // inputs directly.
            g.edge_mut(input_edge).from = None;
            g.edge_mut(input_edge).to = None;
            if srcs.len() == 1 {
                // Single-input cat is the identity: bypass it and try
                // again against whatever feeds it.
                g.edge_mut(srcs[0]).to = Some(id);
                g.node_mut(id).expect("live node").inputs = vec![srcs[0]];
                return try_parallelize_node(g, id, cfg);
            }
            (srcs, false)
        }
        // A preceding reorder aggregator and a frame-capable node:
        // commute through it (consume the still-framed streams), the
        // round-robin analogue of the cat commute. A fresh reorder is
        // built over this node's copies below.
        Some(p) if rr == RrMode::Framed && is_reorder(&g.node(p).expect("live node").kind) => {
            let srcs = g.node(p).expect("live node").inputs.clone();
            g.remove_node(p);
            g.edge_mut(input_edge).from = None;
            g.edge_mut(input_edge).to = None;
            (srcs, true)
        }
        // A whole file at the graph boundary: round-robin-capable
        // nodes stream it through `r_split`; others divide it into
        // byte-range segments (no process needed).
        None => match g.edge(input_edge).spec.clone() {
            StreamSpec::File(path) if rr == RrMode::No => {
                (segment_file_edge(g, input_edge, &path, cfg.width), false)
            }
            _ => match split_sources(g, id, input_edge, cfg, rr) {
                Some(s) => s,
                None => return,
            },
        },
        // A pipe from a non-cat producer: needs a split node (t2).
        // Under `Sized` a consumer whose aggregator commutes takes raw
        // round-robin blocks — balanced and streaming, where a general
        // split of a long pipe leaves all but one copy a single block.
        Some(_) => {
            let rr = if cfg.split == SplitPolicy::Sized && capability == RrMode::Raw {
                RrMode::Raw
            } else {
                rr
            };
            match split_sources(g, id, input_edge, cfg, rr) {
                Some(s) => s,
                None => return,
            }
        }
    };
    if sources.len() < 2 {
        return;
    }
    let n = sources.len();
    let node = g.node(id).expect("live node").clone();
    let output_edge = node.outputs[0];
    // Each copy reads one source on stdin; stream markers (positions
    // of further streamed args) disappear with the concatenation.
    let copy_kind = sanitize_copy_kind(&node.kind);
    // Spawn n copies, one per source.
    let mut copy_outputs = Vec::with_capacity(n);
    for src in sources {
        let copy_id = g.add_node(Node {
            kind: copy_kind.clone(),
            inputs: vec![src],
            outputs: vec![],
        });
        g.edge_mut(src).to = Some(copy_id);
        let out = g.add_edge(Edge {
            spec: StreamSpec::Pipe,
            from: Some(copy_id),
            to: None,
        });
        g.node_mut(copy_id).expect("just added").outputs.push(out);
        copy_outputs.push(out);
    }
    // Combine copy outputs: cat for S, aggregation network for P.
    let agg = match &node.kind {
        NodeKind::Command { agg, class, .. } if *class == crate::classes::ParClass::Pure => {
            agg.clone()
        }
        _ => None,
    };
    let combined = match agg {
        // Framed copies emit tagged blocks; a flat reordering
        // aggregator restores global input order (binary trees would
        // strip the frames an outer reorder still needs, so the shape
        // is always flat — see `aggregator_associative`).
        None if framed => build_agg_network(g, &copy_outputs, &[REORDER_AGG.to_string()]),
        None => {
            let cat_id = g.add_node(Node {
                kind: NodeKind::Cat,
                inputs: copy_outputs.clone(),
                outputs: vec![],
            });
            for &e in &copy_outputs {
                g.edge_mut(e).to = Some(cat_id);
            }
            cat_id
        }
        // Framed class-P copies (uniq, uniq -c) emit one output block
        // per tagged input block; the frame-merge wrapper restores tag
        // order and re-applies the boundary fold incrementally. It
        // consumes frames but emits bare lines, so the network must be
        // one flat node.
        Some(agg_argv) if framed => {
            let mut argv = vec![FRAME_MERGE_AGG.to_string()];
            argv.extend(agg_argv.iter().cloned());
            build_agg_network(g, &copy_outputs, &argv)
        }
        Some(agg_argv) => build_agg_network(g, &copy_outputs, &agg_argv),
    };
    // Rewire the original output edge to the combiner and retire the
    // original node. The binary aggregation network created its own
    // final edge; retire it first.
    let old_outs = g.node(combined).expect("combiner").outputs.clone();
    for e in old_outs {
        g.edge_mut(e).from = None;
        g.edge_mut(e).to = None;
    }
    g.edge_mut(output_edge).from = Some(combined);
    g.node_mut(combined).expect("combiner").outputs = vec![output_edge];
    g.remove_node(id);
}

/// The sort family's merge aggregator, and its counted mode.
const SORT_AGG: &str = "pash-agg-sort";
const COUNTED_SORT_AGG: &str = "pash-agg-sort-c";

/// Commutes a `uniq` / `uniq -c` below the merge network of the
/// `sort` that feeds it (the law and its side conditions are in the
/// module doc): one copy of the command goes on every leaf edge of the
/// network, every aggregator of the network becomes the combining
/// merge — `pash-agg-sort … -u` for `uniq`, `pash-agg-sort-c …` for
/// `uniq -c`, each emitting its own input format, so binary trees stay
/// valid — and the network's root takes over the command's output
/// edge. Returns whether it fired.
///
/// Fires only when `id` is a single-input command annotated with the
/// `uniq` / `uniq -c` aggregator whose producer is a `pash-agg-sort`
/// aggregator without `-u`, and for plain `uniq` with no flag but
/// `-r`. A sequential `sort`, a `sort -u`, a command in between, or a
/// file operand all leave some other producer there.
fn commute_fold_below_merge(g: &mut Dfg, id: NodeId) -> bool {
    let node = g.node(id).expect("live node").clone();
    let counted = match &node.kind {
        NodeKind::Command { agg: Some(agg), .. } if node.inputs.len() == 1 => {
            match agg.as_slice() {
                [a] if a == "pash-agg-uniq" => false,
                [a] if a == "pash-agg-uniq-c" => true,
                _ => return false,
            }
        }
        _ => return false,
    };
    let input_edge = node.inputs[0];
    let merge_of = |g: &Dfg, e: EdgeId| -> Option<(NodeId, Vec<String>)> {
        let p = g.edge(e).from?;
        match &g.node(p)?.kind {
            NodeKind::Aggregate { argv } if argv.first().is_some_and(|a| a == SORT_AGG) => {
                Some((p, argv.clone()))
            }
            _ => None,
        }
    };
    let Some((root, sort_argv)) = merge_of(g, input_edge) else {
        return false;
    };
    let flags = &sort_argv[1..];
    if sort_flags_unique(flags) || (!counted && flags.iter().any(|f| f != "-r")) {
        return false;
    }
    let mut combined = sort_argv.clone();
    if counted {
        combined[0] = COUNTED_SORT_AGG.to_string();
    } else {
        combined.push("-u".to_string());
    }
    // Walk the network from its root: an input produced by the same
    // merge is an inner edge, any other a leaf (a sorted run).
    let copy_kind = sanitize_copy_kind(&node.kind);
    let mut stack = vec![root];
    while let Some(agg_id) = stack.pop() {
        let inputs = g.node(agg_id).expect("aggregator").inputs.clone();
        for (slot, &e) in inputs.iter().enumerate() {
            match merge_of(g, e) {
                Some((inner, argv)) if argv == sort_argv => stack.push(inner),
                _ => {
                    let folded = g.add_edge(Edge {
                        spec: StreamSpec::Pipe,
                        from: None,
                        to: Some(agg_id),
                    });
                    let copy = g.add_node(Node {
                        kind: copy_kind.clone(),
                        inputs: vec![e],
                        outputs: vec![folded],
                    });
                    g.edge_mut(folded).from = Some(copy);
                    g.edge_mut(e).to = Some(copy);
                    g.node_mut(agg_id).expect("aggregator").inputs[slot] = folded;
                }
            }
        }
        g.node_mut(agg_id).expect("aggregator").kind = NodeKind::Aggregate {
            argv: combined.clone(),
        };
    }
    // The root writes where the command wrote; the command retires.
    let output_edge = node.outputs[0];
    g.edge_mut(input_edge).from = None;
    g.edge_mut(input_edge).to = None;
    g.edge_mut(output_edge).from = Some(root);
    g.node_mut(root).expect("root").outputs = vec![output_edge];
    g.remove_node(id);
    g.note_commuted();
    true
}

/// The reordering aggregator's argv head.
pub const REORDER_AGG: &str = "pash-agg-reorder";

/// The frame-merge wrapper's argv head: restores tag order over framed
/// class-P copy outputs and re-applies the wrapped boundary fold.
pub const FRAME_MERGE_AGG: &str = "pash-agg-frame-merge";

/// True when `kind` is the reordering aggregator.
fn is_reorder(kind: &NodeKind) -> bool {
    matches!(kind, NodeKind::Aggregate { argv }
        if argv.first().map(|s| s == REORDER_AGG).unwrap_or(false))
}

/// The round-robin capability of a node.
fn node_rr_mode(node: &Node) -> RrMode {
    match &node.kind {
        NodeKind::Command { class, agg, .. } => rr_mode(*class, agg.as_deref()),
        _ => RrMode::No,
    }
}

/// True when an aggregator's output format equals its input format,
/// making binary reduction trees equivalent to one k-ary application.
fn aggregator_associative(argv: &[String]) -> bool {
    // The bigram aggregator consumes *marked* map output but produces
    // clean pairs — a projection, not a monoid operation. The reorder
    // and frame-merge aggregators likewise consume tagged frames but
    // emit bare payloads, so an inner copy would strip the frames an
    // outer one still needs.
    match argv.first() {
        Some(s) => s != "pash-agg-bigram" && s != REORDER_AGG && s != FRAME_MERGE_AGG,
        None => true,
    }
}

/// Builds the argv parallel copies execute: the declared map command
/// when one exists, else the original argv with stream markers
/// removed (each copy reads its single source on stdin).
fn sanitize_copy_kind(kind: &NodeKind) -> NodeKind {
    match kind {
        NodeKind::Command {
            argv,
            class,
            static_files,
            agg,
            map,
        } => NodeKind::Command {
            argv: match map {
                Some(m) => m.clone(),
                None => argv
                    .iter()
                    .filter(|a| crate::annot::parse_stream_marker(a).is_none())
                    .cloned()
                    .collect(),
            },
            class: *class,
            static_files: static_files.clone(),
            agg: agg.clone(),
            map: None,
        },
        other => other.clone(),
    }
}

/// t1: inserts a cat node in front of a multi-input node.
fn insert_cat_before(g: &mut Dfg, id: NodeId) {
    let inputs = g.node(id).expect("live node").inputs.clone();
    let cat_out = g.add_edge(Edge {
        spec: StreamSpec::Pipe,
        from: None,
        to: Some(id),
    });
    let cat_id = g.add_node(Node {
        kind: NodeKind::Cat,
        inputs: inputs.clone(),
        outputs: vec![cat_out],
    });
    g.edge_mut(cat_out).from = Some(cat_id);
    for e in inputs {
        g.edge_mut(e).to = Some(cat_id);
    }
    g.node_mut(id).expect("live node").inputs = vec![cat_out];
}

/// Divides a boundary file edge into `width` line-aligned segments.
fn segment_file_edge(g: &mut Dfg, edge: EdgeId, path: &str, width: usize) -> Vec<EdgeId> {
    let consumer = g.edge(edge).to;
    let mut out = Vec::with_capacity(width);
    for part in 0..width {
        let e = g.add_edge(Edge {
            spec: StreamSpec::FileSegment {
                path: path.to_string(),
                part,
                of: width,
            },
            from: None,
            to: consumer,
        });
        out.push(e);
    }
    // Retire the original edge (it keeps its slot but loses its
    // consumer so it is no longer an input edge).
    g.edge_mut(edge).to = None;
    if let Some(c) = consumer {
        let node = g.node_mut(c).expect("consumer");
        node.inputs.retain(|&e| e != edge);
        node.inputs.extend(&out);
    }
    out
}

/// t2: inserts a split node feeding `width` streams.
///
/// Returns the split's output edges plus whether they carry tagged
/// round-robin frames.
fn split_sources(
    g: &mut Dfg,
    consumer: NodeId,
    input_edge: EdgeId,
    cfg: &TransformConfig,
    rr: RrMode,
) -> Option<(Vec<EdgeId>, bool)> {
    let kind = match rr {
        RrMode::Framed => SplitKind::RoundRobin { framed: true },
        RrMode::Raw => SplitKind::RoundRobin { framed: false },
        RrMode::No if cfg.split == SplitPolicy::Off => return None,
        RrMode::No => SplitKind::General,
    };
    let split_id = g.add_node(Node {
        kind: NodeKind::Split(kind),
        inputs: vec![input_edge],
        outputs: vec![],
    });
    g.edge_mut(input_edge).to = Some(split_id);
    let mut out = Vec::with_capacity(cfg.width);
    for _ in 0..cfg.width {
        let e = g.add_edge(Edge {
            spec: StreamSpec::Pipe,
            from: Some(split_id),
            to: None,
        });
        g.node_mut(split_id).expect("split").outputs.push(e);
        out.push(e);
    }
    // The consumer no longer reads the original edge directly.
    g.node_mut(consumer)
        .expect("consumer")
        .inputs
        .retain(|&e| e != input_edge);
    Some((out, matches!(kind, SplitKind::RoundRobin { framed: true })))
}

/// Builds the aggregation network over ordered partial outputs.
///
/// The paper's aggregators are k-ary ("they work with more than two
/// inputs", §5.2); a binary tree is an equivalent network only when
/// the aggregator is associative — its output must be in the same
/// format as its inputs. Any other aggregator (bigram, reorder,
/// frame-merge) is one flat node that sees every part at once.
fn build_agg_network(g: &mut Dfg, parts: &[EdgeId], agg_argv: &[String]) -> NodeId {
    if !aggregator_associative(agg_argv) {
        let id = g.add_node(Node {
            kind: NodeKind::Aggregate {
                argv: agg_argv.to_vec(),
            },
            inputs: parts.to_vec(),
            outputs: vec![],
        });
        for &e in parts {
            g.edge_mut(e).to = Some(id);
        }
        return id;
    }
    // Reduce pairwise, preserving stream order, until one producer
    // remains. For n parts this creates n-1 nodes (the paper's 7
    // aggregators for sort at 8×).
    let mut layer: Vec<EdgeId> = parts.to_vec();
    loop {
        if layer.len() == 1 {
            let only = layer[0];
            return g.edge(only).from.expect("aggregated edge has producer");
        }
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        let mut i = 0;
        while i < layer.len() {
            if i + 1 == layer.len() {
                // Odd stream passes through to the next level.
                next.push(layer[i]);
                i += 1;
                continue;
            }
            let (a, b) = (layer[i], layer[i + 1]);
            let id = g.add_node(Node {
                kind: NodeKind::Aggregate {
                    argv: agg_argv.to_vec(),
                },
                inputs: vec![a, b],
                outputs: vec![],
            });
            g.edge_mut(a).to = Some(id);
            g.edge_mut(b).to = Some(id);
            let out = g.add_edge(Edge {
                spec: StreamSpec::Pipe,
                from: Some(id),
                to: None,
            });
            g.node_mut(id).expect("agg").outputs.push(out);
            next.push(out);
            i += 2;
        }
        layer = next;
    }
}

/// t3: inserts unbounded eager relays.
///
/// Relays go on every aggregator input, on every split output except
/// the last, and on every cat-merge input except the first (§5.2) —
/// the points where the shell's lazy evaluation stalls producers. The
/// cat case is Fig. 6 verbatim: `cat t1 t2` leaves `t2`'s producer
/// blocked on a full FIFO until `t1` is drained.
fn insert_eager_relays(g: &mut Dfg) {
    let ids: Vec<NodeId> = g.node_ids().collect();
    for id in ids {
        let node = g.node(id).expect("live id").clone();
        match node.kind {
            NodeKind::Aggregate { .. } => {
                for &e in &node.inputs {
                    insert_relay_on_edge(g, e);
                }
            }
            NodeKind::Split(_) => {
                for &e in &node.outputs[..node.outputs.len().saturating_sub(1)] {
                    insert_relay_on_edge(g, e);
                }
            }
            NodeKind::Cat if node.inputs.len() > 1 => {
                for &e in &node.inputs[1..] {
                    // Only pipes stall; files are seekable.
                    if matches!(g.edge(e).spec, StreamSpec::Pipe) {
                        insert_relay_on_edge(g, e);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Splices `producer -> e -> consumer` into
/// `producer -> e -> relay -> e' -> consumer`.
fn insert_relay_on_edge(g: &mut Dfg, e: EdgeId) {
    let consumer = match g.edge(e).to {
        Some(c) => c,
        None => return,
    };
    let out = g.add_edge(Edge {
        spec: StreamSpec::Pipe,
        from: None,
        to: Some(consumer),
    });
    let relay = g.add_node(Node {
        kind: NodeKind::Relay,
        inputs: vec![e],
        outputs: vec![out],
    });
    g.edge_mut(out).from = Some(relay);
    g.edge_mut(e).to = Some(relay);
    let cnode = g.node_mut(consumer).expect("consumer");
    for slot in cnode.inputs.iter_mut() {
        if *slot == e {
            *slot = out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ParClass;
    use crate::dfg::graph::{command_node, linear_pipeline, DfgStats};

    fn grep_pipeline() -> Dfg {
        linear_pipeline(
            vec![
                command_node(&["tr", "A-Z", "a-z"], ParClass::Stateless, None),
                command_node(&["grep", "x"], ParClass::Stateless, None),
                command_node(&["tr", "-d", "q"], ParClass::Stateless, None),
            ],
            StreamSpec::File("in.txt".into()),
            StreamSpec::File("out.txt".into()),
        )
    }

    fn sort_pipeline() -> Dfg {
        linear_pipeline(
            vec![
                command_node(&["tr", "A-Z", "a-z"], ParClass::Stateless, None),
                command_node(
                    &["sort"],
                    ParClass::Pure,
                    Some(vec!["pash-agg-sort".to_string()]),
                ),
            ],
            StreamSpec::File("in.txt".into()),
            StreamSpec::File("out.txt".into()),
        )
    }

    /// A `sort FLAGS…` node with the aggregator the stdlib gives it.
    fn sort_node(flags: &[&str]) -> Node {
        let argv: Vec<&str> = std::iter::once("sort")
            .chain(flags.iter().copied())
            .collect();
        let agg = std::iter::once("pash-agg-sort")
            .chain(flags.iter().copied())
            .map(String::from);
        command_node(&argv, ParClass::Pure, Some(agg.collect()))
    }

    /// The one region of `script`, translated with the standard
    /// annotations and parallelized under `cfg`.
    fn region_of(script: &str, cfg: &TransformConfig) -> Dfg {
        let prog = pash_parser::parse(script).expect("parse");
        let mut tp = crate::frontend::translate(
            &prog,
            crate::annot::stdlib::AnnotationLibrary::standard(),
            &crate::frontend::FrontendOptions::default(),
        )
        .expect("translate");
        let g = tp.regions_mut().next().expect("one region");
        parallelize(g, cfg);
        g.validate().expect("valid after transform");
        g.clone()
    }

    /// The argv of every aggregator of `g`, in node order.
    fn aggregators(g: &Dfg) -> Vec<Vec<String>> {
        g.node_ids()
            .filter_map(|id| match &g.node(id).expect("live").kind {
                NodeKind::Aggregate { argv } => Some(argv.clone()),
                _ => None,
            })
            .collect()
    }

    fn split_kinds(g: &Dfg) -> Vec<SplitKind> {
        g.node_ids()
            .filter_map(|id| match g.node(id).expect("live").kind {
                NodeKind::Split(kind) => Some(kind),
                _ => None,
            })
            .collect()
    }

    fn stats_after(mut g: Dfg, cfg: &TransformConfig) -> DfgStats {
        parallelize(&mut g, cfg);
        g.validate().expect("valid after transform");
        g.stats()
    }

    #[test]
    fn width_one_is_identity() {
        let g0 = grep_pipeline();
        let mut g = g0.clone();
        parallelize(
            &mut g,
            &TransformConfig {
                width: 1,
                ..Default::default()
            },
        );
        assert_eq!(g.stats().total(), g0.stats().total());
    }

    #[test]
    fn stateless_pipeline_matches_tab2_grep_counts() {
        // Tab. 2: Grep (3×S) has 49 nodes at 16× and 193 at 64× — the
        // paper's count excludes the relays on the final merge's
        // inputs (width-1 of them, the Fig. 6 fix).
        for (width, expected) in [(16, 49), (64, 193)] {
            let s = stats_after(
                grep_pipeline(),
                &TransformConfig {
                    width,
                    ..Default::default()
                },
            );
            assert_eq!(s.commands, 3 * width);
            assert_eq!(s.cats, 1);
            assert_eq!(s.relays, width - 1);
            assert_eq!(s.total() - s.relays, expected, "width {width}");
        }
    }

    #[test]
    fn sort_pipeline_matches_tab2_sort_counts() {
        // Tab. 2: Sort (S,P) has 77 nodes at 16× and 317 at 64×:
        // width×tr + width×sort + (width-1) aggs + 2(width-1) eagers.
        for (width, expected) in [(16, 77), (64, 317)] {
            let s = stats_after(
                sort_pipeline(),
                &TransformConfig {
                    width,
                    ..Default::default()
                },
            );
            assert_eq!(s.commands, 2 * width);
            assert_eq!(s.aggregates, width - 1);
            assert_eq!(s.relays, 2 * (width - 1));
            assert_eq!(s.total(), expected, "width {width}");
        }
    }

    #[test]
    fn sort_at_8x_matches_paper_discussion() {
        // §6.1: "Sort in 8× spawns 37 nodes: 8 tr, 8 sort, 7
        // aggregation nodes, and 14 relay nodes."
        let s = stats_after(
            sort_pipeline(),
            &TransformConfig {
                width: 8,
                ..Default::default()
            },
        );
        assert_eq!(s.commands, 16);
        assert_eq!(s.aggregates, 7);
        assert_eq!(s.relays, 14);
    }

    #[test]
    fn pure_without_aggregator_stays_sequential() {
        let g = linear_pipeline(
            vec![command_node(&["paste", "-"], ParClass::Pure, None)],
            StreamSpec::File("in.txt".into()),
            StreamSpec::Pipe,
        );
        let s = stats_after(
            g,
            &TransformConfig {
                width: 8,
                ..Default::default()
            },
        );
        assert_eq!(s.commands, 1);
    }

    #[test]
    fn non_parallelizable_class_untouched() {
        let g = linear_pipeline(
            vec![command_node(
                &["sha1sum"],
                ParClass::NonParallelizable,
                None,
            )],
            StreamSpec::File("in.txt".into()),
            StreamSpec::Pipe,
        );
        let s = stats_after(
            g,
            &TransformConfig {
                width: 8,
                ..Default::default()
            },
        );
        assert_eq!(s.commands, 1);
        assert_eq!(s.total(), 1);
    }

    #[test]
    fn stage_after_aggregation_needs_split() {
        // sort | grep: grep's input comes from the aggregator; without
        // split it stays sequential, with split it parallelizes.
        let pipeline = || {
            linear_pipeline(
                vec![
                    command_node(
                        &["sort"],
                        ParClass::Pure,
                        Some(vec!["pash-agg-sort".to_string()]),
                    ),
                    command_node(&["grep", "x"], ParClass::Stateless, None),
                ],
                StreamSpec::File("in.txt".into()),
                StreamSpec::Pipe,
            )
        };
        let without = stats_after(
            pipeline(),
            &TransformConfig {
                width: 4,
                split: SplitPolicy::Off,
                ..Default::default()
            },
        );
        // 4 sorts + 1 grep.
        assert_eq!(without.commands, 5);
        assert_eq!(without.splits, 0);
        let with = stats_after(
            pipeline(),
            &TransformConfig {
                width: 4,
                split: SplitPolicy::Sized,
                ..Default::default()
            },
        );
        // 4 sorts + 4 greps + a split.
        assert_eq!(with.commands, 8);
        assert_eq!(with.splits, 1);
    }

    #[test]
    fn split_outputs_get_relays_except_last() {
        let g = linear_pipeline(
            vec![
                command_node(
                    &["sort"],
                    ParClass::Pure,
                    Some(vec!["pash-agg-sort".to_string()]),
                ),
                command_node(&["grep", "x"], ParClass::Stateless, None),
            ],
            StreamSpec::File("in.txt".into()),
            StreamSpec::Pipe,
        );
        let s = stats_after(
            g,
            &TransformConfig {
                width: 4,
                split: SplitPolicy::Sized,
                ..Default::default()
            },
        );
        // 2×(width-1) on agg inputs + (width-1) on split outputs +
        // (width-1) on the final cat-merge inputs.
        assert_eq!(s.relays, 4 * 3);
    }

    #[test]
    fn deep_stateless_chain_commutes_single_final_cat() {
        // A chain of k stateless stages ends with exactly one cat.
        let g = grep_pipeline();
        let mut g2 = g;
        parallelize(
            &mut g2,
            &TransformConfig {
                width: 4,
                ..Default::default()
            },
        );
        assert_eq!(g2.stats().cats, 1);
        // All graph inputs are segments of the original file.
        for e in g2.input_edges() {
            assert!(matches!(
                g2.edge(e).spec,
                StreamSpec::FileSegment { of: 4, .. }
            ));
        }
    }

    #[test]
    fn pipe_input_without_split_stays_sequential() {
        let g = linear_pipeline(
            vec![command_node(&["grep", "x"], ParClass::Stateless, None)],
            StreamSpec::Pipe,
            StreamSpec::Pipe,
        );
        let s = stats_after(
            g,
            &TransformConfig {
                width: 8,
                split: SplitPolicy::Off,
                ..Default::default()
            },
        );
        assert_eq!(s.total(), 1);
    }

    #[test]
    fn round_robin_chains_stateless_through_one_reorder() {
        // Under the RoundRobin policy a 3-stage stateless chain gets
        // one framed r_split at the file boundary, the downstream
        // stages commute through the intermediate reorders, and one
        // flat reorder restores order at the end.
        let mut g = grep_pipeline();
        parallelize(
            &mut g,
            &TransformConfig {
                width: 4,
                split: SplitPolicy::RoundRobin,
                ..Default::default()
            },
        );
        g.validate().expect("valid");
        let s = g.stats();
        assert_eq!(s.commands, 12);
        assert_eq!(s.cats, 0);
        assert_eq!(s.splits, 1);
        assert_eq!(s.aggregates, 1);
        // width relays on the reorder inputs + width-1 on split outputs.
        assert_eq!(s.relays, 4 + 3);
        let has_rr = g.node_ids().any(|id| {
            matches!(
                g.node(id).expect("live").kind,
                NodeKind::Split(SplitKind::RoundRobin { framed: true })
            )
        });
        assert!(has_rr, "expected a framed round-robin split");
        let reorders = g
            .node_ids()
            .filter(|&id| is_reorder(&g.node(id).expect("live").kind))
            .count();
        assert_eq!(reorders, 1);
    }

    #[test]
    fn round_robin_raw_for_commutative_aggregator() {
        // `wc` aggregates with the commutative pash-agg-wc: blocks may
        // flow untagged and the normal aggregation network combines.
        let mut g = linear_pipeline(
            vec![command_node(
                &["wc", "-l"],
                ParClass::Pure,
                Some(vec!["pash-agg-wc".to_string()]),
            )],
            StreamSpec::File("in.txt".into()),
            StreamSpec::Pipe,
        );
        parallelize(
            &mut g,
            &TransformConfig {
                width: 4,
                split: SplitPolicy::RoundRobin,
                ..Default::default()
            },
        );
        g.validate().expect("valid");
        let has_raw = g.node_ids().any(|id| {
            matches!(
                g.node(id).expect("live").kind,
                NodeKind::Split(SplitKind::RoundRobin { framed: false })
            )
        });
        assert!(has_raw, "expected a raw round-robin split");
        let reorders = g
            .node_ids()
            .filter(|&id| is_reorder(&g.node(id).expect("live").kind))
            .count();
        assert_eq!(reorders, 0, "commutative agg needs no reorder");
        assert_eq!(g.stats().aggregates, 3, "binary pash-agg-wc tree");
    }

    #[test]
    fn round_robin_order_sensitive_falls_back_to_segments() {
        // `sort -u` keeps the first line of each key group, which
        // depends on which worker saw it first; under RoundRobin it
        // must keep the segment path: tr commutes into an
        // r_split+reorder chain — the sort gets no round-robin split.
        // (A keyed sort without `-u` is a total order and takes raw
        // blocks: `sized_gives_commutative_pipe_consumers_raw_blocks`.)
        let mut g = linear_pipeline(
            vec![
                command_node(&["tr", "A-Z", "a-z"], ParClass::Stateless, None),
                sort_node(&["-k", "2", "-u"]),
            ],
            StreamSpec::File("in.txt".into()),
            StreamSpec::File("out.txt".into()),
        );
        parallelize(
            &mut g,
            &TransformConfig {
                width: 4,
                split: SplitPolicy::RoundRobin,
                ..Default::default()
            },
        );
        g.validate().expect("valid");
        for id in g.node_ids() {
            if let NodeKind::Split(kind) = g.node(id).expect("live").kind {
                if matches!(kind, SplitKind::RoundRobin { .. }) {
                    // Only the stateless `tr` may sit behind it.
                    for &e in &g.node(id).expect("live").outputs {
                        let consumer = g.edge(e).to.expect("consumed");
                        let label = g.node(consumer).expect("live").label();
                        assert!(
                            label.starts_with("eager") || label.starts_with("tr"),
                            "round-robin split feeds {label}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn round_robin_raw_for_total_order_sort() {
        // Plain `sort` compares whole lines — a total order, so equal
        // lines are byte-identical and the merge commutes: blocks may
        // flow untagged straight into the usual aggregation tree.
        let mut g = sort_pipeline();
        parallelize(
            &mut g,
            &TransformConfig {
                width: 4,
                split: SplitPolicy::RoundRobin,
                ..Default::default()
            },
        );
        g.validate().expect("valid");
        // tr commutes through a framed chain; sort consumes a raw
        // split of the reorder output.
        let has_raw = g.node_ids().any(|id| {
            matches!(
                g.node(id).expect("live").kind,
                NodeKind::Split(SplitKind::RoundRobin { framed: false })
            )
        });
        assert!(has_raw, "expected a raw round-robin split for sort");
        let sort_aggs = g
            .node_ids()
            .filter(|&id| {
                matches!(&g.node(id).expect("live").kind, NodeKind::Aggregate { argv }
                    if argv.first().map(|s| s == "pash-agg-sort").unwrap_or(false))
            })
            .count();
        assert_eq!(sort_aggs, 3, "binary pash-agg-sort tree at width 4");
    }

    #[test]
    fn round_robin_framed_pure_wraps_fold_in_frame_merge() {
        // `uniq -c` folds only at block boundaries, so its copies may
        // consume tagged blocks; the combiner is one flat frame-merge
        // wrapping the boundary fold, not a reorder.
        let mut g = linear_pipeline(
            vec![
                command_node(&["tr", "A-Z", "a-z"], ParClass::Stateless, None),
                command_node(
                    &["uniq", "-c"],
                    ParClass::Pure,
                    Some(vec!["pash-agg-uniq-c".to_string()]),
                ),
            ],
            StreamSpec::File("in.txt".into()),
            StreamSpec::Pipe,
        );
        parallelize(
            &mut g,
            &TransformConfig {
                width: 4,
                split: SplitPolicy::RoundRobin,
                ..Default::default()
            },
        );
        g.validate().expect("valid");
        // The uniq copies commute through tr's reorder: one framed
        // split feeds both stages, no reorder survives, and the only
        // aggregator is the frame-merge wrapper.
        let s = g.stats();
        assert_eq!(s.commands, 8);
        assert_eq!(s.splits, 1);
        assert_eq!(s.aggregates, 1);
        let reorders = g
            .node_ids()
            .filter(|&id| is_reorder(&g.node(id).expect("live").kind))
            .count();
        assert_eq!(reorders, 0, "frame-merge subsumes the reorder");
        let merge = g
            .node_ids()
            .find_map(|id| match &g.node(id).expect("live").kind {
                NodeKind::Aggregate { argv }
                    if argv.first().map(|s| s == FRAME_MERGE_AGG).unwrap_or(false) =>
                {
                    Some(argv.clone())
                }
                _ => None,
            });
        assert_eq!(
            merge.expect("frame-merge aggregator"),
            vec![FRAME_MERGE_AGG.to_string(), "pash-agg-uniq-c".to_string()]
        );
    }

    #[test]
    fn sized_split_used_for_file_inputs_only() {
        let g = linear_pipeline(
            vec![
                command_node(
                    &["sort"],
                    ParClass::Pure,
                    Some(vec!["pash-agg-sort".to_string()]),
                ),
                command_node(&["grep", "x"], ParClass::Stateless, None),
            ],
            StreamSpec::File("in.txt".into()),
            StreamSpec::Pipe,
        );
        let mut g2 = g;
        parallelize(
            &mut g2,
            &TransformConfig {
                width: 4,
                split: SplitPolicy::Sized,
                ..Default::default()
            },
        );
        // The split after the aggregator reads a pipe ⇒ General.
        let has_general = g2.node_ids().any(|id| {
            matches!(
                g2.node(id).expect("live").kind,
                NodeKind::Split(SplitKind::General)
            )
        });
        assert!(has_general);
    }

    const BENCH_SCRIPT: &str = "cat in.txt | tr A-Z a-z | sort | uniq -c | sort -n > out.txt";

    #[test]
    fn fold_commutes_below_the_sort_merge() {
        // (script, the combining merge every aggregator of the first
        // network becomes).
        let cases: [(&str, &[&str]); 3] = [
            ("cat in.txt | sort | uniq -c", &["pash-agg-sort-c"]),
            (
                "cat in.txt | sort -r | uniq",
                &["pash-agg-sort", "-r", "-u"],
            ),
            ("cat in.txt | sort -n | uniq -c", &["pash-agg-sort-c", "-n"]),
        ];
        for (script, merge) in cases {
            for width in [2, 4, 8] {
                // No split needed: it fires under `Off` too.
                for split in [SplitPolicy::Off, SplitPolicy::Sized] {
                    let g = region_of(
                        script,
                        &TransformConfig {
                            width,
                            split,
                            ..Default::default()
                        },
                    );
                    let s = g.stats();
                    let what = format!("{script} w={width} {split:?}");
                    assert_eq!(s.commuted, 1, "{what}");
                    assert_eq!(s.commands, 2 * width, "{what}");
                    assert_eq!(s.splits, 0, "{what}");
                    let merges = aggregators(&g);
                    assert_eq!(merges.len(), width - 1, "{what}");
                    assert!(
                        merges.iter().all(|argv| argv == merge),
                        "{what}: {merges:?}"
                    );
                    // A `uniq` copy sits on every leaf: each `sort`
                    // copy feeds one, and t3's relays come after.
                    for id in g.node_ids() {
                        let node = g.node(id).expect("live");
                        if node.label().starts_with("sort") {
                            let next = g.edge(node.outputs[0]).to.expect("consumed");
                            let next = g.node(next).expect("live");
                            assert!(next.label().starts_with("uniq"), "{what}");
                            let after = g.edge(next.outputs[0]).to.expect("consumed");
                            assert_eq!(g.node(after).expect("live").label(), "eager");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn benchmark_script_node_counts_after_the_rewrite() {
        // W × (tr, sort, uniq -c) + counted-merge network with its
        // relays + one raw r_split with W−1 relays + W × sort -n + its
        // network with relays: 16 nodes at W = 2 (21 before the fold
        // moved below the merge).
        for (width, total) in [(2, 16), (4, 38), (8, 82)] {
            let g = region_of(
                BENCH_SCRIPT,
                &TransformConfig {
                    width,
                    split: SplitPolicy::Sized,
                    ..Default::default()
                },
            );
            let s = g.stats();
            assert_eq!(s.total(), total, "w={width}");
            assert_eq!((s.commuted, s.splits, s.splits_raw_rr), (1, 1, 1));
            assert_eq!(
                split_kinds(&g),
                vec![SplitKind::RoundRobin { framed: false }]
            );
        }
    }

    #[test]
    fn fold_stays_above_the_merge_without_the_side_conditions() {
        let cfg = TransformConfig {
            width: 4,
            split: SplitPolicy::Sized,
            ..Default::default()
        };
        for script in [
            // `-u` groups are key-equal lines; nothing to count below.
            "cat in.txt | sort -u | uniq -c",
            "cat in.txt | sort -nu | uniq -c",
            // The combining merge would be `pash-agg-sort -n -u`, which
            // drops lines that are numerically equal but not identical.
            "cat in.txt | sort -n | uniq",
            "cat in.txt | sort -k2 | uniq",
            // Not a boundary fold.
            "cat in.txt | sort | uniq -d",
            // Something between the merge and the fold.
            "cat in.txt | sort | grep x | uniq -c",
            // The fold reads a file, not a merge.
            "uniq -c sorted.txt",
        ] {
            let g = region_of(script, &cfg);
            assert_eq!(g.stats().commuted, 0, "{script}");
            let merges = aggregators(&g);
            assert!(
                merges.iter().all(|argv| argv[0] != COUNTED_SORT_AGG),
                "{script}: {merges:?}"
            );
        }
        // A sequential sort (width 1, or no way to divide its input)
        // has no merge either.
        let seq = region_of("sort | uniq -c", &TransformConfig::default());
        assert_eq!(seq.stats().commuted, 0);
        assert_eq!(seq.stats().total(), 2);
    }

    #[test]
    fn sized_gives_commutative_pipe_consumers_raw_blocks() {
        let cfg = TransformConfig {
            width: 4,
            split: SplitPolicy::Sized,
            ..Default::default()
        };
        // Behind an aggregator: a pipe, so `sort -n` / `sort -k2` /
        // `wc -l` take raw round-robin blocks …
        for script in [
            "cat in.txt | sort | uniq -c | sort -n",
            "cat in.txt | sort | uniq -c | sort -k2",
            "cat in.txt | sort | uniq -c | wc -l",
        ] {
            let g = region_of(script, &cfg);
            assert_eq!(
                split_kinds(&g),
                vec![SplitKind::RoundRobin { framed: false }],
                "{script}"
            );
        }
        // … an order-sensitive consumer keeps the general split …
        let g = region_of("cat in.txt | sort | uniq -c | sort -nu", &cfg);
        assert_eq!(split_kinds(&g), vec![SplitKind::General]);
        let g = region_of("cat in.txt | sort | uniq -c | grep x", &cfg);
        assert_eq!(split_kinds(&g), vec![SplitKind::General]);
        // … and a file-fed `sort -n` keeps its byte-range segments.
        let g = region_of("sort -n in.txt", &cfg);
        assert!(split_kinds(&g).is_empty());
        for e in g.input_edges() {
            assert!(matches!(
                g.edge(e).spec,
                StreamSpec::FileSegment { of: 4, .. }
            ));
        }
    }

    #[test]
    fn sized_and_off_plans_of_a_lone_sort_are_unchanged() {
        // Tab. 2's Sort row under both split policies: a file-fed sort
        // takes segments, and no rule behind a merge fires.
        for split in [SplitPolicy::Off, SplitPolicy::Sized] {
            let s = stats_after(
                sort_pipeline(),
                &TransformConfig {
                    width: 16,
                    split,
                    ..Default::default()
                },
            );
            assert_eq!(s.total(), 77, "{split:?}");
            assert_eq!((s.commuted, s.splits_raw_rr), (0, 0));
        }
    }
}
