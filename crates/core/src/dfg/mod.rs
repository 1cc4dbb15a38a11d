//! The dataflow graph model and its transformations (§4).
//!
//! Classification hands the graph each command typed: its argv as
//! [`crate::plan::Arg`] words (a streamed operand is the input edge it
//! names), the argv its parallel copies run, and its [`Aggregator`] —
//! a verbatim runtime argv plus the [`AggKind`] that says whether it
//! commutes, folds at part seams, is associative, or is `sort`'s
//! merge with `-u` or with `-r` only. The transformations decide by
//! these values and never read an argv.

pub mod graph;
pub mod transform;

pub use graph::{
    AggKind, Aggregator, Dfg, DfgStats, Edge, EdgeId, Node, NodeId, NodeKind, SplitKind, StreamSpec,
};
pub use transform::{parallelize, AggTreeShape, EagerPolicy, SplitPolicy, TransformConfig};
