//! Measurement tools, gates and script suites for the PaSh
//! reproduction.
//!
//! | binary | what it does |
//! |--------|--------------|
//! | `tab1` | Tab. 1: the parallelizability study of the command set |
//! | `dataplane` | pipe, relay, split and segment rates, and the r_split gate (`BENCH_dataplane.json`) |
//! | `regexbench` | the tiered matcher against the Pike VM (`BENCH_regex.json`) |
//! | `plandump` | prints a script's lowered plan and its fingerprint |
//! | `backendrun` | runs a script on one backend over a generated corpus |
//!
//! Wall-clock time, script in to bytes out, is `bench/run.sh`'s job;
//! its harness reads the suites in [`suites`]. The criterion benches
//! under `benches/` time compilation, the kernels, the data plane and
//! the regex engine.

pub mod dataplane;
pub mod fixtures;
pub mod regexbench;
pub mod rsplitbench;
pub mod suites {
    //! Benchmark script collections.
    pub mod oneliners;
    pub mod unix50;
    pub mod usecases;
}
