//! The order-aware dataflow graph model (§4.1).
//!
//! Nodes are commands, edges are streams (pipes or files). The two
//! properties that distinguish this DFG from classic models, and that
//! the transformations rely on:
//!
//! 1. each node records the *order* in which it consumes its inputs;
//! 2. file arguments that act as per-copy configuration ("static
//!    inputs", e.g. `comm -13 dict -`'s dictionary) are not edges at
//!    all — they replicate with the node.

use crate::classes::ParClass;

/// Index of a node in its graph.
pub type NodeId = usize;
/// Index of an edge in its graph.
pub type EdgeId = usize;

/// What a stream edge is backed by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamSpec {
    /// An anonymous pipe (instantiated as a FIFO by the back-end).
    Pipe,
    /// A named file.
    File(String),
    /// A byte-range segment of a file, aligned to line boundaries:
    /// part `part` of `of`. This is how PaSh divides an input file of
    /// known size without a split process (§5.2, input-aware split).
    FileSegment {
        /// Path of the underlying file.
        path: String,
        /// 0-based segment index.
        part: usize,
        /// Total number of segments.
        of: usize,
    },
}

/// A stream edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Backing stream.
    pub spec: StreamSpec,
    /// Producing node, if any (`None` = graph input).
    pub from: Option<NodeId>,
    /// Consuming node, if any (`None` = graph output).
    pub to: Option<NodeId>,
}

/// Which splitter implementation a split node uses (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitKind {
    /// Consumes its complete input, counts lines, splits evenly.
    General,
    /// Round-robin block distribution (`r_split`): streams fixed-size
    /// line-aligned blocks to outputs in rotation, with no pre-pass and
    /// balanced load regardless of line-length skew. `framed` output
    /// stamps each block with a sequence tag (magic + tag + length) so
    /// a downstream `pash-agg-reorder` can restore global order; raw
    /// output sends bare bytes for commutative consumers.
    RoundRobin {
        /// Emit tagged frames (true) or bare blocks (false).
        framed: bool,
    },
}

/// Node kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A command with its (stream-)argv and classification.
    Command {
        /// argv with streamed file args removed (stream on stdin).
        argv: Vec<String>,
        /// Parallelizability class of this invocation.
        class: ParClass,
        /// Static configuration files replicated with each copy.
        static_files: Vec<String>,
        /// Aggregator argv, when the command is class P and one is
        /// known (from [`crate::annot::stdlib::aggregator_for`]).
        agg: Option<Vec<String>>,
        /// Map argv for parallel copies, when it differs from the
        /// command itself (§3.2, Custom Aggregators: "map can consume
        /// (or extend) the output of the original command").
        map: Option<Vec<String>>,
    },
    /// Ordered concatenation of inputs (`cat`).
    Cat,
    /// One input, N outputs (§5.2's `split`).
    Split(SplitKind),
    /// Identity relay with an unbounded buffer (`eager`, t3): it
    /// consumes its input eagerly and never back-pressures the
    /// producer (§5.2, Fig. 6).
    Relay,
    /// A multi-input aggregation function (§5.2).
    Aggregate {
        /// Aggregator argv (a runtime command).
        argv: Vec<String>,
    },
}

/// A DFG node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Node kind.
    pub kind: NodeKind,
    /// Input edges in consumption order.
    pub inputs: Vec<EdgeId>,
    /// Output edges (exactly one except for split nodes).
    pub outputs: Vec<EdgeId>,
}

impl Node {
    /// True when PaSh may divide this node's input.
    pub fn is_parallelizable(&self) -> bool {
        match &self.kind {
            NodeKind::Command { class, agg, .. } => match class {
                ParClass::Stateless => true,
                ParClass::Pure => agg.is_some(),
                _ => false,
            },
            _ => false,
        }
    }

    /// A short display label.
    pub fn label(&self) -> String {
        match &self.kind {
            NodeKind::Command { argv, .. } => argv.join(" "),
            NodeKind::Cat => "cat".to_string(),
            NodeKind::Split(SplitKind::General) => "split".to_string(),
            NodeKind::Split(SplitKind::RoundRobin { framed: true }) => "split -rr".to_string(),
            NodeKind::Split(SplitKind::RoundRobin { framed: false }) => "split -rr-raw".to_string(),
            NodeKind::Relay => "eager".to_string(),
            NodeKind::Aggregate { argv } => argv.join(" "),
        }
    }
}

/// A dataflow graph.
///
/// Nodes are stored in slots so ids stay stable across removals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dfg {
    nodes: Vec<Option<Node>>,
    edges: Vec<Edge>,
    /// Fold stages the transformations moved below a merge.
    commuted: usize,
}

/// Node-count statistics (for Tab. 2's `#Nodes` column), and which
/// rewrites shaped the graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DfgStats {
    /// Command (map) nodes.
    pub commands: usize,
    /// Cat nodes.
    pub cats: usize,
    /// Split nodes.
    pub splits: usize,
    /// Relay (eager) nodes.
    pub relays: usize,
    /// Aggregate nodes.
    pub aggregates: usize,
    /// Fold stages (`uniq`, `uniq -c`) moved below a `sort`'s merge
    /// instead of restarting from a split; not nodes.
    pub commuted: usize,
    /// How many of `splits` deal raw round-robin blocks.
    pub splits_raw_rr: usize,
}

impl std::ops::AddAssign for DfgStats {
    fn add_assign(&mut self, s: DfgStats) {
        self.commands += s.commands;
        self.cats += s.cats;
        self.splits += s.splits;
        self.relays += s.relays;
        self.aggregates += s.aggregates;
        self.commuted += s.commuted;
        self.splits_raw_rr += s.splits_raw_rr;
    }
}

impl DfgStats {
    /// Total node count.
    pub fn total(&self) -> usize {
        self.commands + self.cats + self.splits + self.relays + self.aggregates
    }
}

impl Dfg {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its id. Edges must be connected by the
    /// caller (see [`Dfg::add_edge`] / field updates).
    pub fn add_node(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Some(node));
        id
    }

    /// Adds an edge, returning its id.
    pub fn add_edge(&mut self, edge: Edge) -> EdgeId {
        let id = self.edges.len();
        self.edges.push(edge);
        id
    }

    /// Records that a fold stage was commuted below a merge (reported
    /// by [`Dfg::stats`]).
    pub(crate) fn note_commuted(&mut self) {
        self.commuted += 1;
    }

    /// Removes a node (its edges must have been rewired first).
    pub fn remove_node(&mut self, id: NodeId) {
        self.nodes[id] = None;
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id).and_then(|n| n.as_ref())
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(id).and_then(|n| n.as_mut())
    }

    /// Immutable edge access.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id]
    }

    /// Mutable edge access.
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut Edge {
        &mut self.edges[id]
    }

    /// Iterates live node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| i))
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.node_ids().count()
    }

    /// Number of edges (including dead ones kept for id stability).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Edges with no producer: the graph's inputs.
    pub fn input_edges(&self) -> Vec<EdgeId> {
        (0..self.edges.len())
            .filter(|&e| self.edges[e].from.is_none() && self.edges[e].to.is_some())
            .collect()
    }

    /// Edges with no consumer: the graph's outputs.
    pub fn output_edges(&self) -> Vec<EdgeId> {
        (0..self.edges.len())
            .filter(|&e| self.edges[e].to.is_none() && self.edges[e].from.is_some())
            .collect()
    }

    /// Per-kind node counts.
    pub fn stats(&self) -> DfgStats {
        let mut s = DfgStats {
            commuted: self.commuted,
            ..DfgStats::default()
        };
        for id in self.node_ids() {
            match &self.node(id).expect("live id").kind {
                NodeKind::Command { .. } => s.commands += 1,
                NodeKind::Cat => s.cats += 1,
                NodeKind::Split(kind) => {
                    s.splits += 1;
                    if *kind == (SplitKind::RoundRobin { framed: false }) {
                        s.splits_raw_rr += 1;
                    }
                }
                NodeKind::Relay => s.relays += 1,
                NodeKind::Aggregate { .. } => s.aggregates += 1,
            }
        }
        s
    }

    /// Topological order of live nodes.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle (validation rejects those).
    pub fn topo_order(&self) -> Vec<NodeId> {
        self.kahn().expect("cycle in DFG")
    }

    /// Kahn's algorithm over the live nodes, smallest ready id first:
    /// the topological order, or an error when the graph has a cycle.
    fn kahn(&self) -> Result<Vec<NodeId>, crate::Error> {
        let ids: Vec<NodeId> = self.node_ids().collect();
        let mut indegree: Vec<usize> = vec![0; self.nodes.len()];
        for &id in &ids {
            for &e in &self.node(id).expect("live id").inputs {
                if self.edges[e].from.is_some() {
                    indegree[id] += 1;
                }
            }
        }
        let mut queue: Vec<NodeId> = ids.iter().copied().filter(|&i| indegree[i] == 0).collect();
        queue.sort_unstable();
        let mut qi = 0;
        while qi < queue.len() {
            let id = queue[qi];
            qi += 1;
            for &e in &self.node(id).expect("live id").outputs {
                if let Some(next) = self.edges[e].to {
                    indegree[next] -= 1;
                    if indegree[next] == 0 {
                        queue.push(next);
                    }
                }
            }
        }
        if queue.len() != ids.len() {
            return Err(crate::Error::dfg("cycle in DFG"));
        }
        Ok(queue)
    }

    /// Checks structural invariants.
    ///
    /// * every edge endpoint refers to a live node that lists it;
    /// * every node's edges point back at the node;
    /// * the graph is acyclic;
    /// * non-split nodes have exactly one output.
    pub fn validate(&self) -> Result<(), crate::Error> {
        for id in self.node_ids() {
            let node = self.node(id).expect("live id");
            for &e in &node.inputs {
                if e >= self.edges.len() || self.edges[e].to != Some(id) {
                    return Err(crate::Error::dfg(format!(
                        "node {id} input edge {e} does not point back"
                    )));
                }
            }
            for &e in &node.outputs {
                if e >= self.edges.len() || self.edges[e].from != Some(id) {
                    return Err(crate::Error::dfg(format!(
                        "node {id} output edge {e} does not point back"
                    )));
                }
            }
            let is_split = matches!(node.kind, NodeKind::Split(_));
            if !is_split && node.outputs.len() != 1 {
                return Err(crate::Error::dfg(format!(
                    "node {id} ({}) has {} outputs",
                    node.label(),
                    node.outputs.len()
                )));
            }
            if is_split && node.outputs.len() < 2 {
                return Err(crate::Error::dfg(format!(
                    "split node {id} has fewer than 2 outputs"
                )));
            }
        }
        for (e, edge) in self.edges.iter().enumerate() {
            if let Some(n) = edge.from {
                let ok = self
                    .node(n)
                    .map(|node| node.outputs.contains(&e))
                    .unwrap_or(false);
                if !ok {
                    return Err(crate::Error::dfg(format!(
                        "edge {e} producer {n} does not list it"
                    )));
                }
            }
            if let Some(n) = edge.to {
                let ok = self
                    .node(n)
                    .map(|node| node.inputs.contains(&e))
                    .unwrap_or(false);
                if !ok {
                    return Err(crate::Error::dfg(format!(
                        "edge {e} consumer {n} does not list it"
                    )));
                }
            }
        }
        self.kahn().map(drop)
    }

    /// Renders the graph as text (one node per line) for debugging and
    /// golden tests.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for id in self.topo_order() {
            let node = self.node(id).expect("live id");
            let ins: Vec<String> = node.inputs.iter().map(|e| edge_name(self, *e)).collect();
            let outs: Vec<String> = node.outputs.iter().map(|e| edge_name(self, *e)).collect();
            out.push_str(&format!(
                "n{id}: {} [{}] -> [{}]\n",
                node.label(),
                ins.join(", "),
                outs.join(", ")
            ));
        }
        out
    }
}

fn edge_name(g: &Dfg, e: EdgeId) -> String {
    match &g.edge(e).spec {
        StreamSpec::Pipe => format!("p{e}"),
        StreamSpec::File(f) => f.clone(),
        StreamSpec::FileSegment { path, part, of } => format!("{path}[{part}/{of}]"),
    }
}

/// Convenience: builds a linear pipeline DFG from command specs.
///
/// Used heavily in tests; the front-end builds graphs the same way.
pub fn linear_pipeline(commands: Vec<Node>, input: StreamSpec, output: StreamSpec) -> Dfg {
    let mut g = Dfg::new();
    let n = commands.len();
    let mut prev_edge = g.add_edge(Edge {
        spec: input,
        from: None,
        to: None,
    });
    for (i, mut node) in commands.into_iter().enumerate() {
        let id_hint = g.nodes.len();
        g.edges[prev_edge].to = Some(id_hint);
        node.inputs = vec![prev_edge];
        let out_spec = if i + 1 == n {
            output.clone()
        } else {
            StreamSpec::Pipe
        };
        let out_edge = g.add_edge(Edge {
            spec: out_spec,
            from: Some(id_hint),
            to: None,
        });
        node.outputs = vec![out_edge];
        let id = g.add_node(node);
        debug_assert_eq!(id, id_hint);
        prev_edge = out_edge;
    }
    g
}

/// Builds a command node (edges filled in later).
pub fn command_node(argv: &[&str], class: ParClass, agg: Option<Vec<String>>) -> Node {
    Node {
        kind: NodeKind::Command {
            argv: argv.iter().map(|s| s.to_string()).collect(),
            class,
            static_files: Vec::new(),
            agg,
            map: None,
        },
        inputs: Vec::new(),
        outputs: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dfg {
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

    #[test]
    fn linear_pipeline_shape() {
        let g = sample();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.input_edges().len(), 1);
        assert_eq!(g.output_edges().len(), 1);
        g.validate().expect("valid");
    }

    #[test]
    fn topo_order_is_pipeline_order() {
        let g = sample();
        assert_eq!(g.topo_order(), vec![0, 1]);
    }

    #[test]
    fn stats_count_kinds() {
        let g = sample();
        let s = g.stats();
        assert_eq!(s.commands, 2);
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn validation_rejects_dangling_edge() {
        let mut g = sample();
        // Break: point edge 1's consumer at a node that does not list it.
        let e = g.node(1).expect("node").inputs[0];
        g.edge_mut(e).to = Some(0);
        assert!(g.validate().is_err());
    }

    #[test]
    fn validation_rejects_cycle() {
        let mut g = Dfg::new();
        let e1 = g.add_edge(Edge {
            spec: StreamSpec::Pipe,
            from: None,
            to: None,
        });
        let e2 = g.add_edge(Edge {
            spec: StreamSpec::Pipe,
            from: None,
            to: None,
        });
        let a = g.add_node(Node {
            kind: NodeKind::Cat,
            inputs: vec![e2],
            outputs: vec![e1],
        });
        let b = g.add_node(Node {
            kind: NodeKind::Cat,
            inputs: vec![e1],
            outputs: vec![e2],
        });
        g.edges[e1].from = Some(a);
        g.edges[e1].to = Some(b);
        g.edges[e2].from = Some(b);
        g.edges[e2].to = Some(a);
        assert!(g.validate().is_err());
    }

    #[test]
    fn parallelizable_requires_agg_for_pure() {
        let with_agg = command_node(&["sort"], ParClass::Pure, Some(vec!["x".into()]));
        assert!(with_agg.is_parallelizable());
        let without = command_node(&["paste"], ParClass::Pure, None);
        assert!(!without.is_parallelizable());
        let stateless = command_node(&["tr"], ParClass::Stateless, None);
        assert!(stateless.is_parallelizable());
    }

    #[test]
    fn render_lists_nodes() {
        let g = sample();
        let r = g.render();
        assert!(r.contains("tr A-Z a-z"));
        assert!(r.contains("in.txt"));
    }
}
