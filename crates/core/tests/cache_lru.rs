//! The bounded compile cache, exercised against the process-global
//! instance. This lives in its own integration binary (its own OS
//! process) so the churn below cannot evict entries that the unit
//! suites rely on staying resident.

use std::sync::Arc;

use pash_core::compile::{cache_stats, compile_cached, PashConfig, DEFAULT_CACHE_CAPACITY};

/// One test fn on purpose: the global cache is process state, and
/// parallel test threads inside this binary would race its population.
#[test]
fn global_cache_is_lru_bounded() {
    let cfg = PashConfig::default();
    let churn = DEFAULT_CACHE_CAPACITY + 16;

    // A pinned entry we keep touching; it must survive the churn.
    let pinned_src = "grep keep lru-pinned.txt > o";
    let pinned = compile_cached(pinned_src, &cfg).expect("compile");

    let before = cache_stats();
    for i in 0..churn {
        let src = format!("grep x lru-churn-{i}.txt > o");
        compile_cached(&src, &cfg).expect("compile");
        // Touch the pinned entry so it is never the stalest.
        let again = compile_cached(pinned_src, &cfg).expect("compile");
        assert!(
            Arc::ptr_eq(&pinned, &again),
            "freshly-touched entry evicted at churn step {i}"
        );
    }
    let after = cache_stats();
    assert!(
        after.evictions >= before.evictions + 16,
        "{churn} inserts into a {DEFAULT_CACHE_CAPACITY}-entry cache must evict \
         (before {before:?}, after {after:?})"
    );
    assert!(after.misses >= before.misses + churn as u64);

    // An entry that churned out misses on re-lookup (recompiles).
    let miss_floor = cache_stats().misses;
    compile_cached("grep x lru-churn-0.txt > o", &cfg).expect("compile");
    assert!(
        cache_stats().misses > miss_floor,
        "evicted entry should recompile"
    );
}
