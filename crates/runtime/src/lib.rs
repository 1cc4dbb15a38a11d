//! PaSh runtime primitives and the threaded DFG executor (§5.2).
//!
//! * [`pipe`] — bounded in-process pipes with UNIX semantics
//!   (blocking, EOF on writer drop, broken-pipe on reader drop);
//! * [`relay`] — the `eager` relays that defeat the shell's laziness;
//! * [`split`] / [`fileseg`] — the two splitter implementations;
//! * [`agg`] — the aggregator library (`sort -m`, `uniq`, `uniq -c`,
//!   `wc`, `tac`, counts, and the custom bigram aggregator), fed by
//!   the batched [`scan::LineScanner`];
//! * [`drive`] — the one program driver: steps in plan order, one at a
//!   time, and one [`supervise`] ladder per region, over a
//!   `RegionRunner`;
//! * [`exec`] / [`proc`] / [`remote`] — the three region runners: in
//!   process (the `threads` backend: a thread per node, or node by
//!   node on one thread when the region's input fits one pipe
//!   buffer), child processes over FIFOs, and regions shipped to
//!   `pash-worker`s;
//! * [`service`] — the one socket protocol and its accept loop:
//!   `pashd` and `pash-worker` are both [`service::serve`], with
//!   different handlers;
//! * [`wire`] — the length-prefixed codec under it, region plans
//!   included.
//!
//! The same primitives are exposed as a standalone multi-call binary
//! (`pash-rt`) so that scripts emitted by the back-end run under a
//! real `/bin/sh`.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use pash_core::compile::PashConfig;
//! use pash_coreutils::{fs::MemFs, Registry};
//! use pash_runtime::exec::{run_script, ExecConfig};
//!
//! let fs = Arc::new(MemFs::new());
//! fs.add("in.txt", b"b\na\nb\n".to_vec());
//! let out = run_script(
//!     "cat in.txt | sort | uniq -c",
//!     &PashConfig { width: 2, ..Default::default() },
//!     &Registry::standard(),
//!     fs,
//!     Vec::new(),
//!     &ExecConfig::default(),
//! )
//! .unwrap();
//! assert_eq!(String::from_utf8(out.stdout).unwrap(), "      1 a\n      2 b\n");
//! ```

pub mod agg;
pub mod cli;
pub mod drive;
pub mod edge;
pub mod exec;
pub mod fault;
pub mod fileseg;
pub mod frame;
pub mod pipe;
pub mod proc;
pub mod profile;
pub mod relay;
pub mod remote;
pub mod scan;
pub mod service;
pub mod split;
pub mod supervise;
pub mod wire;

pub use drive::{drive, RegionRunner};
pub use exec::{run_program, run_script, ExecConfig, ProgramOutput, RegionOutput};
pub use fault::{ExecError, FaultClass, FaultKind, FaultPlan, INFRA_STATUS};
pub use pipe::{
    pipe, pipe_monitored, spill_pipe, MultiReader, PipeMonitor, PipeReader, PipeWriter,
    DEFAULT_PIPE_CAPACITY,
};
pub use profile::{ProfileStore, RegionProfile};
pub use remote::{run_program_remote, serve_worker, shutdown_worker, WorkerPool};
pub use service::{
    CacheTier, Client, Request, Response, RunRequest, RunResponse, Semaphore, ServiceMetrics,
    ServiceSettings,
};
pub use supervise::{supervise_ladder, SupervisorCounters, SupervisorSettings};
