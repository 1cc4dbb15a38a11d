//! The dataflow graph model and its transformations (§4).

pub mod graph;
pub mod transform;

pub use graph::{
    command_node, linear_pipeline, Dfg, DfgStats, Edge, EdgeId, Node, NodeId, NodeKind, SplitKind,
    StreamSpec,
};
pub use transform::{parallelize, AggTreeShape, EagerPolicy, SplitPolicy, TransformConfig};
