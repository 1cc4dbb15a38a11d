//! PaSh core: the paper's primary contribution.
//!
//! Given a POSIX shell script, this crate
//!
//! 1. classifies each command invocation through the annotation
//!    library ([`annot`], §3);
//! 2. identifies parallelizable regions and lifts them into the
//!    order-aware dataflow-graph model ([`frontend`], [`dfg`], §4–5.1);
//! 3. applies semantics-preserving parallelization transformations
//!    ([`dfg::transform`], §4.2);
//! 4. lowers the transformed graphs to a backend-neutral
//!    [`plan::ExecutionPlan`] — the flat IR every execution engine
//!    consumes ([`plan`]);
//! 5. compiles the plan back into a POSIX script that orchestrates
//!    the parallel execution with FIFOs, background jobs, and runtime
//!    primitives ([`backend`], §5.2) — one consumer of the plan
//!    among several.
//!
//! [`optimize`] prices a plan on a C-core machine. Execution engines
//! live elsewhere: `pash-runtime` runs compiled plans on threads,
//! processes and remote workers; the `pash` facade selects one by name.
//!
//! # Examples
//!
//! ```
//! use pash_core::backend::{emit_program, EmitConfig};
//! use pash_core::compile::{compile, PashConfig};
//!
//! let cfg = PashConfig { width: 4, ..Default::default() };
//! let out = compile("cat in.txt | tr A-Z a-z | grep foo > out.txt", &cfg).unwrap();
//! assert!(emit_program(&out.plan, &EmitConfig).contains("mkfifo"));
//! ```

pub mod annot;
pub mod backend;
pub mod classes;
pub mod compile;
pub mod dfg;
pub mod frontend;
pub mod optimize;
pub mod plan;
pub mod study;

pub use classes::ParClass;

/// Errors from compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Shell parsing failed.
    Parse(pash_parser::Error),
    /// An annotation record was malformed.
    Annotation(String),
    /// A DFG invariant was violated.
    Dfg(String),
    /// Front-end translation failed.
    Frontend(String),
}

impl Error {
    pub(crate) fn annotation(msg: impl Into<String>) -> Self {
        Error::Annotation(msg.into())
    }

    pub(crate) fn dfg(msg: impl Into<String>) -> Self {
        Error::Dfg(msg.into())
    }

    pub(crate) fn frontend(msg: impl Into<String>) -> Self {
        Error::Frontend(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "parse: {e}"),
            Error::Annotation(m) => write!(f, "annotation: {m}"),
            Error::Dfg(m) => write!(f, "dfg: {m}"),
            Error::Frontend(m) => write!(f, "frontend: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<pash_parser::Error> for Error {
    fn from(e: pash_parser::Error) -> Self {
        Error::Parse(e)
    }
}
