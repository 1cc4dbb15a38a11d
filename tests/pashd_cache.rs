//! `pashd`'s plan-cache accounting. The compile-cache counters are
//! process-wide, so this test has a binary of its own: nothing else
//! compiles while it counts.

use pash::core::compile::cache_stats;
use pash::core::dfg::SplitPolicy;
use pash::daemon::{Daemon, DaemonConfig};
use pash::runtime::service::{CacheTier, Request, Response, RunRequest, RunResponse};

#[test]
fn a_warm_request_looks_each_plan_up_once() {
    let daemon = Daemon::new(&DaemonConfig::default()).expect("daemon");
    daemon.handle(Request::PutFile {
        path: "in.txt".to_string(),
        bytes: b"b\na\nb\n".to_vec(),
    });
    let run = || -> RunResponse {
        let req = Request::Run(RunRequest {
            script: "cat in.txt | sort | uniq -c".to_string(),
            backend: "threads".to_string(),
            width: 2,
            split: SplitPolicy::Sized,
            stdin: Vec::new(),
        });
        match daemon.handle(req) {
            Response::Run(r) => r,
            other => panic!("{other:?}"),
        }
    };
    assert_eq!(run().tier, CacheTier::Cold);
    let before = cache_stats();
    let warm = run();
    let after = cache_stats();
    assert_eq!(warm.tier, CacheTier::Memory);
    assert_eq!(warm.stdout, b"      1 a\n      2 b\n");
    // Two plans, the width-2 one and its width-1 fallback: two
    // lookups, each a hit.
    assert_eq!(after.hits - before.hits, 2);
    assert_eq!(after.misses, before.misses);
}
