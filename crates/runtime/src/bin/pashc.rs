//! `pashc` — a multi-call binary exposing every command in the
//! workspace (like busybox), so that PaSh-compiled scripts run
//! hermetically under any POSIX `/bin/sh`:
//!
//! ```text
//! pashc grep -c foo < input
//! ```
//!
//! The same program as `pash-rt` under the role name emitted scripts
//! and the process backend use for commands (`$PASHC`): both serve
//! every command, every runtime primitive and the `--stdin`/`--stdout`
//! FIFO redirections. See [`pash_runtime::cli`].

use pash_runtime::cli::multicall_main;

fn main() {
    multicall_main("pashc");
}
