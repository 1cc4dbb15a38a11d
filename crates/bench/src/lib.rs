//! Measurement tools, gates and script suites for the PaSh
//! reproduction.
//!
//! | binary | what it does |
//! |--------|--------------|
//! | `tab1` | Tab. 1: the parallelizability study of the command set |
//! | `regexbench` | the tiered matcher against the Pike VM (`BENCH_regex.json`) |
//! | `plandump` | prints a script's lowered plan and its fingerprint |
//! | `backendrun` | runs a script on one backend over a generated corpus |
//!
//! Wall-clock time, script in to bytes out, is `bench/run.sh`'s job;
//! its harness reads the suites in [`suites`] and times compilation,
//! the kernels and the data plane (with the timers of [`dataplane`]
//! and [`rsplitbench`]), the only producer of the data-plane rates.

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
