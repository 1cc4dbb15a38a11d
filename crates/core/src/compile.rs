//! Top-level compiler API: script in, execution plan + parallel
//! script + regions out, with an optional compile-result cache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use pash_parser::expand::StaticEnv;

use crate::annot::stdlib::AnnotationLibrary;
use crate::dfg::transform::{parallelize, AggTreeShape, EagerPolicy, SplitPolicy, TransformConfig};
use crate::dfg::DfgStats;
use crate::frontend::{translate, FrontendOptions};
use crate::plan::{lower, ExecutionPlan};
use crate::Error;

/// Compiler configuration (one per PaSh invocation).
#[derive(Debug, Clone)]
pub struct PashConfig {
    /// Parallelism width (the paper sweeps 2–64).
    pub width: usize,
    /// Split-node policy (Fig. 7's `Split` axis): `Off`, `Sized`
    /// (what [`PashConfig::best`] uses) or `RoundRobin`.
    pub split: SplitPolicy,
    /// Eager-relay policy. It has one value, unbounded relays; the
    /// field stays only because the benchmark harness reads it
    /// (ROADMAP item 5 deletes it).
    pub eager: EagerPolicy,
    /// Aggregation-tree shape. It has one value, a binary tree (the
    /// paper's counts); the field stays only because the benchmark
    /// harness reads it (ROADMAP item 5 deletes it).
    pub agg_tree: AggTreeShape,
    /// Unroll static `for` loops (per-iteration compilation).
    pub unroll_for: bool,
    /// Compile-time-known variables.
    pub env: StaticEnv,
}

impl Default for PashConfig {
    fn default() -> Self {
        PashConfig {
            width: 2,
            split: SplitPolicy::Off,
            eager: EagerPolicy::Full,
            agg_tree: AggTreeShape::Binary,
            unroll_for: true,
            env: StaticEnv::new(),
        }
    }
}

impl PashConfig {
    /// The paper's best configuration at a given width: eager on,
    /// input-aware split on.
    pub fn best(width: usize) -> Self {
        PashConfig {
            width,
            split: SplitPolicy::Sized,
            ..Default::default()
        }
    }

    /// The order-aware round-robin configuration (`--r_split`):
    /// capable stages consume tagged round-robin blocks with order
    /// restored by `pash-agg-reorder`; the rest keep the `best`
    /// (input-aware segment) behaviour.
    pub fn round_robin(width: usize) -> Self {
        PashConfig {
            width,
            split: SplitPolicy::RoundRobin,
            ..Default::default()
        }
    }

    /// This configuration at width 1: the same program, every region
    /// sequential. It compiles the supervisor's width-1 fallback plan.
    pub fn sequential(&self) -> Self {
        PashConfig {
            width: 1,
            ..self.clone()
        }
    }

    /// A deterministic textual key for this configuration — combined
    /// with the source text it identifies a compilation (the plan
    /// lowering is deterministic, so equal keys mean equal plans).
    pub fn cache_key(&self) -> String {
        let mut key = format!(
            "w={};split={:?};unroll={}",
            self.width, self.split, self.unroll_for
        );
        for (name, value) in self.env.sorted_vars() {
            // Both sides escaped: an unescaped name could smuggle the
            // `;env ` separator and collide two distinct configs.
            key.push_str(&format!(";env {name:?}={value:?}"));
        }
        key
    }
}

/// Compilation statistics (Tab. 2's `#Nodes` and `Compile time`).
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    /// Number of DFG regions.
    pub regions: usize,
    /// Aggregate node counts over all regions (after transformation).
    pub nodes: DfgStats,
    /// Wall-clock compilation time.
    pub compile_time: Duration,
}

/// A compiled program.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The lowered, backend-neutral execution plan — what every
    /// execution engine consumes (the shell backend renders it with
    /// [`crate::backend::emit_program`]).
    pub plan: ExecutionPlan,
    /// Statistics.
    pub stats: CompileStats,
}

/// Compiles a script with the standard annotation library.
pub fn compile(src: &str, cfg: &PashConfig) -> Result<Compiled, Error> {
    compile_with_library(src, cfg, AnnotationLibrary::standard())
}

/// Compiles a script with a custom annotation library.
pub fn compile_with_library(
    src: &str,
    cfg: &PashConfig,
    lib: &AnnotationLibrary,
) -> Result<Compiled, Error> {
    let start = Instant::now();
    let prog = pash_parser::parse(src)?;
    let mut tp = translate(
        &prog,
        lib,
        &FrontendOptions {
            env: cfg.env.clone(),
            unroll_for: cfg.unroll_for,
        },
    )?;
    let tcfg = TransformConfig {
        width: cfg.width,
        split: cfg.split,
        eager: cfg.eager,
        agg_tree: cfg.agg_tree,
    };
    let mut nodes = DfgStats::default();
    let mut regions = 0;
    for g in tp.regions_mut() {
        parallelize(g, &tcfg);
        g.validate()?;
        nodes += g.stats();
        regions += 1;
    }
    let plan = lower(&tp);
    Ok(Compiled {
        plan,
        stats: CompileStats {
            regions,
            nodes,
            compile_time: start.elapsed(),
        },
    })
}

/// Process-wide compile-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries dropped to stay within the LRU capacity.
    pub evictions: u64,
}

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Default number of memoized compilations kept in memory. A compiled
/// plan for a typical script is a few tens of KiB, so the default cap
/// bounds the cache at a few MiB while still covering whole benchmark
/// suites and width sweeps.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// A bounded LRU map: values are stamped with a logical clock on every
/// touch and the stalest entry is dropped when the map outgrows its
/// capacity. Eviction is O(n) over the map, but runs only on insert
/// beyond capacity — irrelevant next to a compile.
struct Lru<V> {
    map: HashMap<String, (V, u64)>,
    tick: u64,
    capacity: usize,
}

impl<V> Lru<V> {
    fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    /// Looks up and freshens an entry.
    fn get(&mut self, key: &str) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((v, stamp)) => {
                *stamp = tick;
                Some(v)
            }
            None => None,
        }
    }

    /// Inserts an entry (first write wins, like `entry().or_insert`);
    /// returns how many entries were evicted to make room.
    fn insert(&mut self, key: String, value: V) -> u64 {
        self.tick += 1;
        let tick = self.tick;
        self.map.entry(key).or_insert((value, tick));
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            if let Some(stalest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&stalest);
                evicted += 1;
            } else {
                break;
            }
        }
        evicted
    }
}

fn cache() -> &'static Mutex<Lru<Arc<Compiled>>> {
    static CACHE: OnceLock<Mutex<Lru<Arc<Compiled>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Lru::new(DEFAULT_CACHE_CAPACITY)))
}

/// Current process-wide [`compile_cached`] hit/miss/eviction counters.
pub fn cache_stats() -> CacheStats {
    CacheStats {
        hits: CACHE_HITS.load(Ordering::Relaxed),
        misses: CACHE_MISSES.load(Ordering::Relaxed),
        evictions: CACHE_EVICTIONS.load(Ordering::Relaxed),
    }
}

/// Compiles with the standard library, memoizing results by
/// `(source, configuration)` in a bounded LRU of
/// [`DEFAULT_CACHE_CAPACITY`] entries.
///
/// Compilation is deterministic (see the CI plan-determinism smoke
/// step), so a cache hit returns the *same* `Arc<Compiled>` — plan
/// and stats included — without re-running the front-end or
/// transformations. Errors are not cached. Hit/miss/eviction counters
/// are surfaced via [`cache_stats`].
pub fn compile_cached(src: &str, cfg: &PashConfig) -> Result<Arc<Compiled>, Error> {
    compile_cached_hit(src, cfg).map(|(compiled, _)| compiled)
}

/// [`compile_cached`], also telling whether the cache already held the
/// compilation: one lookup, counted once.
pub fn compile_cached_hit(src: &str, cfg: &PashConfig) -> Result<(Arc<Compiled>, bool), Error> {
    let key = format!("{}\u{0}{src}", cfg.cache_key());
    // Fast path: serve a hit without compiling.
    if let Some(hit) = cache().lock().expect("compile cache lock").get(&key) {
        CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return Ok((hit.clone(), true));
    }
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    let compiled = Arc::new(compile(src, cfg)?);
    let evicted = cache()
        .lock()
        .expect("compile cache lock")
        .insert(key, compiled.clone());
    if evicted > 0 {
        CACHE_EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
    }
    Ok((compiled, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{emit_program, EmitConfig};

    #[test]
    fn end_to_end_compile() {
        let out = compile(
            "cat in.txt | tr A-Z a-z | sort > out.txt",
            &PashConfig {
                width: 16,
                ..Default::default()
            },
        )
        .expect("compile");
        assert_eq!(out.stats.regions, 1);
        // Tab. 2's Sort row shape at 16×: 77 nodes.
        assert_eq!(out.stats.nodes.total(), 16 + 16 + 15 + 30);
        assert!(emit_program(&out.plan, &EmitConfig).contains("mkfifo"));
        assert!(out.stats.compile_time.as_secs() < 5);
        // The plan mirrors the transformed graph.
        assert_eq!(out.plan.region_count(), 1);
        let region = out.plan.regions().next().expect("region");
        assert_eq!(region.nodes.len(), out.stats.nodes.total());
    }

    #[test]
    fn default_config_is_conservative() {
        let cfg = PashConfig::default();
        assert_eq!(cfg.width, 2);
        assert!(matches!(cfg.split, SplitPolicy::Off));
    }

    #[test]
    fn best_config_enables_split() {
        let cfg = PashConfig::best(16);
        assert!(matches!(cfg.split, SplitPolicy::Sized));
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(compile("cat |", &PashConfig::default()).is_err());
    }

    #[test]
    fn width_one_still_compiles() {
        let out = compile(
            "grep x in.txt > out.txt",
            &PashConfig {
                width: 1,
                ..Default::default()
            },
        )
        .expect("compile");
        assert_eq!(out.stats.nodes.commands, 1);
    }

    #[test]
    fn env_parameterizes_compilation() {
        let mut env = StaticEnv::new();
        env.set("f", "data.txt");
        let out = compile(
            "grep x $f > out.txt",
            &PashConfig {
                width: 2,
                env,
                ..Default::default()
            },
        )
        .expect("compile");
        assert_eq!(out.stats.regions, 1);
        assert!(emit_program(&out.plan, &EmitConfig).contains("data.txt"));
    }

    #[test]
    fn cached_compile_returns_same_arc() {
        let cfg = PashConfig {
            width: 7,
            ..Default::default()
        };
        let src = "cat cache-test.txt | tr A-Z a-z | sort > o";
        let before = cache_stats();
        let a = compile_cached(src, &cfg).expect("compile");
        let b = compile_cached(src, &cfg).expect("compile");
        assert!(Arc::ptr_eq(&a, &b), "hit must return the cached Arc");
        let after = cache_stats();
        assert!(after.hits > before.hits);
        assert!(after.misses > before.misses);
    }

    #[test]
    fn cache_distinguishes_configs_and_env() {
        let src = "grep x cache-env.txt > o";
        let a = compile_cached(
            src,
            &PashConfig {
                width: 3,
                ..Default::default()
            },
        )
        .expect("compile");
        let b = compile_cached(
            src,
            &PashConfig {
                width: 5,
                ..Default::default()
            },
        )
        .expect("compile");
        assert!(!Arc::ptr_eq(&a, &b), "different width must miss");
        let mut env = StaticEnv::new();
        env.set("p", "q");
        let c = compile_cached(
            src,
            &PashConfig {
                width: 3,
                env,
                ..Default::default()
            },
        )
        .expect("compile");
        assert!(!Arc::ptr_eq(&a, &c), "different env must miss");
    }

    #[test]
    fn cache_key_is_deterministic_across_env_insertion_order() {
        let mut e1 = StaticEnv::new();
        e1.set("a", "1");
        e1.set("b", "2");
        let mut e2 = StaticEnv::new();
        e2.set("b", "2");
        e2.set("a", "1");
        let c1 = PashConfig {
            env: e1,
            ..Default::default()
        };
        let c2 = PashConfig {
            env: e2,
            ..Default::default()
        };
        assert_eq!(c1.cache_key(), c2.cache_key());
    }

    #[test]
    fn cache_key_escapes_hostile_env_names() {
        // Without escaping, a name containing the `;env ` separator
        // could make two distinct configs collide.
        let mut honest = StaticEnv::new();
        honest.set("a", "1");
        honest.set("b", "2");
        let mut hostile = StaticEnv::new();
        hostile.set("a\"=\"1\";env \"b", "2");
        let k1 = PashConfig {
            env: honest,
            ..Default::default()
        }
        .cache_key();
        let k2 = PashConfig {
            env: hostile,
            ..Default::default()
        }
        .cache_key();
        assert_ne!(k1, k2);
    }

    #[test]
    fn errors_are_not_cached() {
        let cfg = PashConfig::default();
        assert!(compile_cached("cat |", &cfg).is_err());
        assert!(compile_cached("cat |", &cfg).is_err());
    }

    #[test]
    fn lru_evicts_stalest_first() {
        let mut lru = Lru::new(2);
        assert_eq!(lru.insert("a".into(), 1), 0);
        assert_eq!(lru.insert("b".into(), 2), 0);
        // Touch `a`, making `b` the stalest.
        assert_eq!(lru.get("a"), Some(&1));
        assert_eq!(lru.insert("c".into(), 3), 1);
        assert_eq!(lru.get("b"), None, "stalest entry evicted");
        assert_eq!(lru.get("a"), Some(&1), "freshened entry survives");
        assert_eq!(lru.get("c"), Some(&3));
    }

    #[test]
    fn lru_first_write_wins_and_capacity_clamped() {
        let mut lru = Lru::new(0); // Clamped to 1.
        lru.insert("k".into(), 10);
        lru.insert("k".into(), 99);
        assert_eq!(lru.get("k"), Some(&10), "or_insert semantics");
        assert_eq!(lru.map.len(), 1);
        lru.insert("l".into(), 20);
        assert_eq!(lru.map.len(), 1, "capacity 1 holds one entry");
    }

    #[test]
    fn lru_shrinking_capacity_evicts_down() {
        let mut lru = Lru::new(8);
        for i in 0..8 {
            lru.insert(format!("k{i}"), i);
        }
        lru.capacity = 3;
        // The next insert trims the map down to the new bound.
        let evicted = lru.insert("fresh".into(), 100);
        assert_eq!(evicted, 6);
        assert_eq!(lru.map.len(), 3);
        assert_eq!(lru.get("fresh"), Some(&100));
    }
}
