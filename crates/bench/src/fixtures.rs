//! Shared test fixtures: process-wide caches for the expensive bits
//! every integration suite needs — generated corpora, template
//! filesystems, and the standard registry.
//!
//! Workload generation used to dominate the integration suites' wall
//! clock; `tests/correctness.rs` fixed that with a `OnceLock`-cached
//! template-filesystem helper, and this module is that helper made
//! shared so `tests/properties.rs` and `tests/emitted_scripts.rs`
//! stop regenerating their own corpora per suite.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Arc, Mutex, OnceLock};

use pash_coreutils::fs::MemFs;
use pash_coreutils::Registry;

/// Returns a fresh filesystem for `key`, building the workload corpus
/// only on the first request: corpora are cached as template
/// filesystems and each call gets an isolated `snapshot` (contents
/// stay `Arc`-shared, so the marginal cost is a map clone, not
/// regeneration).
pub fn cached_fs(key: String, build: impl FnOnce(&MemFs)) -> Arc<MemFs> {
    static CACHE: OnceLock<Mutex<HashMap<String, MemFs>>> = OnceLock::new();
    let mut map = CACHE
        .get_or_init(Default::default)
        .lock()
        .expect("corpus cache lock");
    let template = map.entry(key).or_insert_with(|| {
        let fs = MemFs::new();
        build(&fs);
        fs
    });
    Arc::new(template.snapshot())
}

/// A `text_corpus(seed, bytes)` result, generated once per process
/// and shared by `Arc`.
pub fn cached_corpus(seed: u64, bytes: usize) -> Arc<Vec<u8>> {
    type Corpora = HashMap<(u64, usize), Arc<Vec<u8>>>;
    static CACHE: OnceLock<Mutex<Corpora>> = OnceLock::new();
    CACHE
        .get_or_init(Default::default)
        .lock()
        .expect("corpus cache lock")
        .entry((seed, bytes))
        .or_insert_with(|| Arc::new(pash_workloads::text_corpus(seed, bytes)))
        .clone()
}

/// The standard registry, constructed once per process. Registries
/// are cheap to clone but not free to build; suites that create one
/// per command invocation add up.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::standard)
}

/// Locates the workspace target directory from the current executable
/// (`target/<profile>/deps/<bin>` → `target/<profile>`).
pub fn target_dir() -> PathBuf {
    let mut p = std::env::current_exe().expect("test exe path");
    p.pop();
    if p.ends_with("deps") {
        p.pop();
    }
    p
}

fn build_runtime_binaries() -> Option<(PathBuf, PathBuf)> {
    let dir = target_dir();
    let pashc = dir.join("pashc");
    let pash_rt = dir.join("pash-rt");
    // Always invoke cargo: an up-to-date build is a fast no-op, and
    // skipping it when the files merely *exist* let suites run against
    // stale binaries from before the change under test.
    let profile_flag: &[&str] = if dir.ends_with("release") {
        &["--release"]
    } else {
        &[]
    };
    let status = Command::new(env!("CARGO"))
        .args(["build", "-p", "pash-runtime", "--bins"])
        .args(profile_flag)
        .status()
        .ok()?;
    if !status.success() || !pashc.exists() || !pash_rt.exists() {
        return None;
    }
    Some((pashc, pash_rt))
}

/// The multi-call binaries (`pashc`, `pash-rt`), built on first
/// request and shared process-wide. `None` when they cannot be built
/// (callers should skip, like the emitted-script suites always have).
pub fn runtime_binaries() -> Option<(PathBuf, PathBuf)> {
    static BINS: OnceLock<Option<(PathBuf, PathBuf)>> = OnceLock::new();
    BINS.get_or_init(build_runtime_binaries).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_fs_builds_once_and_isolates_snapshots() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        let build = |fs: &MemFs| {
            BUILDS.fetch_add(1, Ordering::Relaxed);
            fs.add("a.txt", b"hello\n".to_vec());
        };
        let fs1 = cached_fs("fixtures-test".into(), build);
        let fs2 = cached_fs("fixtures-test".into(), build);
        assert_eq!(BUILDS.load(Ordering::Relaxed), 1, "template built once");
        // Snapshots are isolated: writes to one do not leak.
        fs1.add("extra.txt", b"x".to_vec());
        assert!(fs2.read("extra.txt").is_err());
        assert_eq!(fs2.read("a.txt").expect("shared template"), b"hello\n");
    }

    #[test]
    fn cached_corpus_shares_bytes() {
        let a = cached_corpus(99, 2048);
        let b = cached_corpus(99, 2048);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 2048);
        let c = cached_corpus(100, 2048);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn registry_is_shared() {
        let a = registry() as *const Registry;
        let b = registry() as *const Registry;
        assert_eq!(a, b);
        assert!(registry().get("sort").is_some());
    }
}
