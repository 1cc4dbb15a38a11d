//! `pash-rt` — the runtime primitives as a multi-call binary, used by
//! scripts emitted by the PaSh back-end and by the process backend:
//!
//! ```text
//! pash-rt eager [--blocking]               # stdin → stdout relay
//! pash-rt split OUT…                       # scatter stdin to files
//! pash-rt r_split [--raw] OUT…             # deal tagged blocks to files
//! pash-rt --in P… agg pash-agg-… [ARGS]    # aggregator over inputs
//! pash-rt [--stdin P] [--stdout P] CMD     # any coreutils command
//! pash-rt --stdin-seg PATH PART OF CMD     # … over one file segment
//! ```
//!
//! The same program as `pashc` under the role name emitted scripts and
//! the process backend use for primitives (`$PASH_RT`). See
//! [`pash_runtime::cli`].

use pash_runtime::cli::multicall_main;

fn main() {
    multicall_main("pash-rt");
}
