//! Per-region execution profiles and the persistent profile store.
//!
//! The adaptive optimizer (`pash_core::optimize`) prices candidate
//! plan shapes through the simulator's rate model; this module is
//! where those rates stop being priors. Both backends cheaply record
//! per-node bytes-in / bytes-out and busy-time into a
//! [`RegionProfile`] (atomic counters, the
//! [`crate::supervise::SupervisorCounters`] pattern), keyed by
//! `(region fingerprint, node id)`. A [`ProfileStore`] decay-merges
//! repeated observations in memory and mirrors them to an on-disk
//! tier (atomic rename writes, corruption-tolerant reads), so a
//! restarted daemon warm-starts with measured rates instead of cold
//! priors.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use pash_core::optimize::{MeasuredRate, MeasuredRates};
use pash_core::plan::{PlanOp, RegionPlan};

/// Exponential-decay factor for merging a new observation into stored
/// stats: `new = ALPHA·obs + (1−ALPHA)·old`. At 0.3 the store follows
/// a drifting workload within a handful of runs while one outlier
/// moves the estimate < a third of the way.
pub const DECAY_ALPHA: f64 = 0.3;

/// Default size bound for the on-disk profile tier.
pub const DEFAULT_PROFILE_DISK_BYTES: u64 = 4 * 1024 * 1024;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Live counters for one plan node. All increments are relaxed
/// atomics on the node's own cache line — the profiling hook costs a
/// few nanoseconds per I/O call, never a lock.
#[derive(Debug, Default)]
pub struct NodeCounters {
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    busy_ns: AtomicU64,
}

impl NodeCounters {
    /// Bytes the node consumed.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed)
    }

    /// Bytes the node produced.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }

    /// Wall-clock time the node's worker was alive.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed))
    }
}

/// The label a node's observations are aggregated under. Exec nodes
/// report their command name; synthetic plumbing (splits, relays,
/// cats, aggregators) is bracketed so the rate index can skip it —
/// the cost model has its own profiles for plumbing.
pub fn node_label(op: &PlanOp) -> String {
    match op {
        PlanOp::Exec { .. } => {
            let argv = op.exec_argv_lossy().unwrap_or_default();
            let name = argv
                .iter()
                .map(|s| s.as_str())
                .find(|s| *s != "--framed")
                .unwrap_or("");
            name.to_string()
        }
        PlanOp::Cat => "<cat>".to_string(),
        PlanOp::Split { .. } => "<split>".to_string(),
        PlanOp::Relay { .. } => "<relay>".to_string(),
        PlanOp::Aggregate { argv } => {
            format!("<agg:{}>", argv.first().map(|s| s.as_str()).unwrap_or(""))
        }
    }
}

/// A live per-region profile: one [`NodeCounters`] per plan node,
/// keyed by the region's own fingerprint (stable across changes to
/// sibling plan steps). Shared `Arc` across the node threads of one
/// region attempt.
#[derive(Debug)]
pub struct RegionProfile {
    fingerprint: u64,
    labels: Vec<String>,
    nodes: Vec<NodeCounters>,
}

impl RegionProfile {
    /// An empty profile shaped like `r`.
    pub fn for_region(r: &RegionPlan) -> Arc<RegionProfile> {
        Arc::new(RegionProfile {
            fingerprint: r.fingerprint(),
            labels: r.nodes.iter().map(|n| node_label(&n.op)).collect(),
            nodes: r.nodes.iter().map(|_| NodeCounters::default()).collect(),
        })
    }

    /// The profiled region's fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the region has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The label of node `id`.
    pub fn label(&self, id: usize) -> &str {
        &self.labels[id]
    }

    /// Node `id`'s counters.
    pub fn node(&self, id: usize) -> &NodeCounters {
        &self.nodes[id]
    }

    /// Credits consumed bytes to node `id`.
    pub fn add_in(&self, id: usize, n: u64) {
        self.nodes[id].bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Credits produced bytes to node `id`.
    pub fn add_out(&self, id: usize, n: u64) {
        self.nodes[id].bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Credits busy wall-time to node `id`.
    pub fn add_busy(&self, id: usize, d: Duration) {
        self.nodes[id]
            .busy_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A profiling reader: counts consumed bytes into a node's counter.
pub struct CountingReader {
    inner: Box<dyn io::Read + Send>,
    profile: Arc<RegionProfile>,
    node: usize,
}

impl CountingReader {
    /// Wraps `inner`, crediting reads to `profile`'s node `node`.
    pub fn new(
        inner: Box<dyn io::Read + Send>,
        profile: Arc<RegionProfile>,
        node: usize,
    ) -> CountingReader {
        CountingReader {
            inner,
            profile,
            node,
        }
    }
}

impl io::Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.profile.add_in(self.node, n as u64);
        Ok(n)
    }
}

/// A profiling writer: counts produced bytes into a node's counter.
pub struct CountingWriter {
    inner: Box<dyn io::Write + Send>,
    profile: Arc<RegionProfile>,
    node: usize,
}

impl CountingWriter {
    /// Wraps `inner`, crediting writes to `profile`'s node `node`.
    pub fn new(
        inner: Box<dyn io::Write + Send>,
        profile: Arc<RegionProfile>,
        node: usize,
    ) -> CountingWriter {
        CountingWriter {
            inner,
            profile,
            node,
        }
    }
}

impl io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.profile.add_out(self.node, n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Decay-merged statistics for one node of one region shape.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// The node's aggregation label (see [`node_label`]).
    pub label: String,
    /// Smoothed bytes consumed per run.
    pub bytes_in: f64,
    /// Smoothed bytes produced per run.
    pub bytes_out: f64,
    /// Smoothed busy seconds per run.
    pub busy_s: f64,
    /// Observation mass behind the estimate. Grows toward
    /// `1/DECAY_ALPHA` with repeated observations; consumers use it
    /// as a trust signal.
    pub weight: f64,
}

impl NodeStats {
    fn fresh(label: String) -> NodeStats {
        NodeStats {
            label,
            bytes_in: 0.0,
            bytes_out: 0.0,
            busy_s: 0.0,
            weight: 0.0,
        }
    }

    /// Folds one observation in with exponential decay `alpha`. The
    /// first observation is taken verbatim (no prior to decay).
    pub fn decay_merge(&mut self, bytes_in: f64, bytes_out: f64, busy_s: f64, alpha: f64) {
        let a = alpha.clamp(0.0, 1.0);
        if self.weight <= 0.0 {
            self.bytes_in = bytes_in;
            self.bytes_out = bytes_out;
            self.busy_s = busy_s;
            self.weight = 1.0;
            return;
        }
        self.bytes_in = a * bytes_in + (1.0 - a) * self.bytes_in;
        self.bytes_out = a * bytes_out + (1.0 - a) * self.bytes_out;
        self.busy_s = a * busy_s + (1.0 - a) * self.busy_s;
        self.weight = 1.0 + (1.0 - a) * self.weight;
    }
}

/// Stored statistics for one region fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionStats {
    /// The region's fingerprint ([`RegionPlan::fingerprint`]).
    pub fingerprint: u64,
    /// Per-node stats, indexed by node id.
    pub nodes: Vec<NodeStats>,
}

impl RegionStats {
    fn render(&self) -> String {
        let mut out = format!("pash-profile v1\nregion {:016x}\n", self.fingerprint);
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "n{i} {:?} in={:.3} out={:.3} busy={:.9} w={:.6}\n",
                n.label, n.bytes_in, n.bytes_out, n.busy_s, n.weight
            ));
        }
        out
    }

    fn parse(text: &str) -> Option<RegionStats> {
        let mut lines = text.lines();
        if lines.next()? != "pash-profile v1" {
            return None;
        }
        let fingerprint = u64::from_str_radix(lines.next()?.strip_prefix("region ")?, 16).ok()?;
        let mut nodes = Vec::new();
        for (i, line) in lines.enumerate() {
            let rest = line.strip_prefix(&format!("n{i} "))?;
            // The label is a Rust debug-quoted string; it never
            // contains a raw `" ` sequence, so the closing quote is
            // the last one before ` in=`.
            let in_at = rest.find(" in=")?;
            let label_field = &rest[..in_at];
            if !(label_field.starts_with('"') && label_field.ends_with('"')) {
                return None;
            }
            let label = label_field[1..label_field.len() - 1].replace("\\\"", "\"");
            let mut fields = rest[in_at + 1..].split(' ');
            let f = |field: Option<&str>, prefix: &str| -> Option<f64> {
                field?.strip_prefix(prefix)?.parse().ok()
            };
            let bytes_in = f(fields.next(), "in=")?;
            let bytes_out = f(fields.next(), "out=")?;
            let busy_s = f(fields.next(), "busy=")?;
            let weight = f(fields.next(), "w=")?;
            if fields.next().is_some()
                || !(bytes_in.is_finite()
                    && bytes_out.is_finite()
                    && busy_s.is_finite()
                    && weight.is_finite())
            {
                return None;
            }
            nodes.push(NodeStats {
                label,
                bytes_in,
                bytes_out,
                busy_s,
                weight,
            });
        }
        Some(RegionStats { fingerprint, nodes })
    }
}

/// The two-tier profile store.
///
/// The in-memory tier is the source of truth while the process lives;
/// every record is mirrored to the disk tier (when configured) by
/// writing a temporary file and renaming it into place. Reads of the
/// disk tier are corruption-tolerant: files that fail to parse, or
/// whose content disagrees with their fingerprint file name, are
/// ignored.
#[derive(Debug)]
pub struct ProfileStore {
    mem: Mutex<HashMap<u64, RegionStats>>,
    dir: Option<PathBuf>,
    /// Disk-tier size bound; oldest-mtime profiles are evicted past
    /// it. 0 disables the bound.
    max_disk_bytes: u64,
    alpha: f64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProfileStore {
    /// A memory-only store.
    pub fn in_memory() -> ProfileStore {
        ProfileStore {
            mem: Mutex::new(HashMap::new()),
            dir: None,
            max_disk_bytes: 0,
            alpha: DECAY_ALPHA,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Opens a store with a disk tier at `dir` (created if missing)
    /// and warm-starts the memory tier from every readable profile
    /// file found there.
    pub fn open(dir: &Path) -> io::Result<ProfileStore> {
        std::fs::create_dir_all(dir)?;
        let store = ProfileStore {
            dir: Some(dir.to_path_buf()),
            max_disk_bytes: DEFAULT_PROFILE_DISK_BYTES,
            ..ProfileStore::in_memory()
        };
        let mut mem = HashMap::new();
        for entry in std::fs::read_dir(dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("prof") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Ok(expect_fp) = u64::from_str_radix(stem, 16) else {
                continue;
            };
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            match RegionStats::parse(&text) {
                // Self-verification: the content's fingerprint must
                // match the file name it was stored under.
                Some(rs) if rs.fingerprint == expect_fp => {
                    mem.insert(rs.fingerprint, rs);
                }
                _ => {}
            }
        }
        *lock(&store.mem) = mem;
        Ok(store)
    }

    /// Overrides the disk-tier size bound (0 disables it).
    pub fn with_disk_cap(mut self, bytes: u64) -> ProfileStore {
        self.max_disk_bytes = bytes;
        self
    }

    /// Number of region shapes with stored observations.
    pub fn regions(&self) -> usize {
        lock(&self.mem).len()
    }

    /// Lookups that found measured data ([`Self::rates_for`]).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found none.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Folds one finished region attempt into the store and mirrors
    /// the merged stats to the disk tier.
    pub fn record(&self, p: &RegionProfile) {
        let merged = {
            let mut mem = lock(&self.mem);
            let rs = mem.entry(p.fingerprint()).or_insert_with(|| RegionStats {
                fingerprint: p.fingerprint(),
                nodes: (0..p.len())
                    .map(|i| NodeStats::fresh(p.label(i).to_string()))
                    .collect(),
            });
            // A fingerprint collision with a different node count is
            // astronomically unlikely; resize defensively anyway.
            while rs.nodes.len() < p.len() {
                let i = rs.nodes.len();
                rs.nodes.push(NodeStats::fresh(p.label(i).to_string()));
            }
            for i in 0..p.len() {
                let c = p.node(i);
                rs.nodes[i].decay_merge(
                    c.bytes_in() as f64,
                    c.bytes_out() as f64,
                    c.busy().as_secs_f64(),
                    self.alpha,
                );
            }
            rs.clone()
        };
        if let Some(dir) = &self.dir {
            let path = dir.join(format!("{:016x}.prof", merged.fingerprint));
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            let _ =
                std::fs::write(&tmp, merged.render()).and_then(|()| std::fs::rename(&tmp, &path));
            if self.max_disk_bytes > 0 {
                let _ = evict_lru_by_mtime(dir, self.max_disk_bytes);
            }
        }
    }

    /// A snapshot of one region's stored stats.
    pub fn region_stats(&self, fingerprint: u64) -> Option<RegionStats> {
        lock(&self.mem).get(&fingerprint).cloned()
    }

    /// The derived command-rate index: every exec node observation
    /// across every stored region, aggregated by command name into
    /// the [`MeasuredRate`]s the simulator's cost model calibrates
    /// from. Nodes with no byte or time signal (e.g. process-backend
    /// FIFO interiors, recorded as zero) are skipped rather than
    /// polluting the estimate.
    pub fn rates(&self) -> MeasuredRates {
        let mem = lock(&self.mem);
        // label → (Σw, Σw·rate, Σw·ratio)
        let mut acc: HashMap<String, (f64, f64, f64)> = HashMap::new();
        for rs in mem.values() {
            for n in &rs.nodes {
                if n.label.is_empty() || n.label.starts_with('<') {
                    continue;
                }
                if !(n.weight > 0.0 && n.bytes_in > 0.0 && n.busy_s > 1e-9) {
                    continue;
                }
                let rate_mb = n.bytes_in / n.busy_s / 1e6;
                let ratio = n.bytes_out / n.bytes_in;
                let e = acc.entry(n.label.clone()).or_insert((0.0, 0.0, 0.0));
                e.0 += n.weight;
                e.1 += n.weight * rate_mb;
                e.2 += n.weight * ratio;
            }
        }
        acc.into_iter()
            .map(|(label, (w, wr, wq))| {
                (
                    label,
                    MeasuredRate {
                        mb_per_s: wr / w,
                        out_ratio: wq / w,
                        weight: w,
                    },
                )
            })
            .collect()
    }

    /// The rate index restricted to `commands`, counting a store hit
    /// when at least one requested command has measured data and a
    /// miss otherwise. This is the daemon's per-request entry point —
    /// the hit/miss counters are what `pashd` Metrics reports as
    /// `profile_hits` / `profile_misses`.
    pub fn rates_for(&self, commands: &[String]) -> MeasuredRates {
        let mut all = self.rates();
        all.retain(|k, _| commands.iter().any(|c| c == k));
        if all.is_empty() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        all
    }
}

/// Shrinks a cache directory to `max_bytes` by deleting
/// oldest-mtime files first (recursing into subdirectories). Returns
/// how many files were removed. Dangling references are fine by
/// construction: the profile store treats a missing or unreadable file
/// as a cold miss.
pub fn evict_lru_by_mtime(root: &Path, max_bytes: u64) -> io::Result<usize> {
    let mut files: Vec<(std::time::SystemTime, u64, PathBuf)> = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            let Ok(md) = entry.metadata() else { continue };
            if md.is_dir() {
                stack.push(path);
            } else {
                let mtime = md.modified().unwrap_or(std::time::UNIX_EPOCH);
                files.push((mtime, md.len(), path));
            }
        }
    }
    let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
    if total <= max_bytes {
        return Ok(0);
    }
    // Oldest first; ties broken by path for determinism.
    files.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
    let mut removed = 0;
    for (_, len, path) in files {
        if total <= max_bytes {
            break;
        }
        if std::fs::remove_file(&path).is_ok() {
            total = total.saturating_sub(len);
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pash_core::compile::{compile, PashConfig};

    fn sample_region() -> RegionPlan {
        let out = compile(
            "cat in.txt | tr A-Z a-z | sort > out.txt",
            &PashConfig {
                width: 2,
                ..Default::default()
            },
        )
        .expect("compile");
        let r = out.plan.regions().next().expect("region").clone();
        r
    }

    fn observe(p: &RegionProfile, scale: u64) {
        for i in 0..p.len() {
            p.add_in(i, 1000 * scale);
            p.add_out(i, 500 * scale);
            p.add_busy(i, Duration::from_micros(10 * scale));
        }
    }

    #[test]
    fn labels_name_commands_and_bracket_plumbing() {
        let r = sample_region();
        let p = RegionProfile::for_region(&r);
        let labels: Vec<&str> = (0..p.len()).map(|i| p.label(i)).collect();
        assert!(labels.contains(&"tr"), "{labels:?}");
        assert!(labels.iter().any(|l| l.starts_with('<')), "{labels:?}");
    }

    #[test]
    fn decay_merge_first_observation_verbatim_then_smooths() {
        let mut s = NodeStats::fresh("tr".into());
        s.decay_merge(1000.0, 500.0, 0.5, 0.3);
        assert_eq!(s.bytes_in, 1000.0);
        assert_eq!(s.weight, 1.0);
        s.decay_merge(2000.0, 500.0, 0.5, 0.3);
        // 0.3·2000 + 0.7·1000 = 1300.
        assert!((s.bytes_in - 1300.0).abs() < 1e-9);
        assert!((s.weight - 1.7).abs() < 1e-9);
        // Weight converges toward 1/alpha.
        for _ in 0..100 {
            s.decay_merge(2000.0, 500.0, 0.5, 0.3);
        }
        assert!((s.weight - 1.0 / 0.3).abs() < 1e-6);
        assert!((s.bytes_in - 2000.0).abs() < 1.0);
    }

    #[test]
    fn rates_index_skips_plumbing_and_averages_by_weight() {
        let store = ProfileStore::in_memory();
        let r = sample_region();
        let p = RegionProfile::for_region(&r);
        observe(&p, 1);
        store.record(&p);
        let rates = store.rates();
        assert!(rates.contains_key("tr"));
        assert!(rates.keys().all(|k| !k.starts_with('<')));
        let tr = &rates["tr"];
        // 1000 bytes / 10 µs = 100 MB/s; ratio 0.5.
        assert!((tr.mb_per_s - 100.0).abs() < 1e-6, "{tr:?}");
        assert!((tr.out_ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rates_for_counts_hits_and_misses() {
        let store = ProfileStore::in_memory();
        assert!(store.rates_for(&["tr".to_string()]).is_empty());
        assert_eq!((store.hits(), store.misses()), (0, 1));
        let r = sample_region();
        let p = RegionProfile::for_region(&r);
        observe(&p, 1);
        store.record(&p);
        assert!(!store.rates_for(&["tr".to_string()]).is_empty());
        assert_eq!((store.hits(), store.misses()), (1, 1));
    }

    #[test]
    fn disk_tier_round_trips_across_reopen() {
        let dir = std::env::temp_dir().join(format!("pash-prof-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = sample_region();
        {
            let store = ProfileStore::open(&dir).expect("open");
            let p = RegionProfile::for_region(&r);
            observe(&p, 1);
            store.record(&p);
        }
        let warm = ProfileStore::open(&dir).expect("reopen");
        assert_eq!(warm.regions(), 1, "warm start must reload the profile");
        let rs = warm.region_stats(r.fingerprint()).expect("stats");
        assert!(rs.nodes.iter().any(|n| n.label == "tr" && n.weight > 0.0));
        assert!(!warm.rates_for(&["tr".to_string()]).is_empty());
        assert_eq!(warm.hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_profile_files_are_ignored() {
        let dir = std::env::temp_dir().join(format!("pash-prof-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = sample_region();
        let store = ProfileStore::open(&dir).expect("open");
        let p = RegionProfile::for_region(&r);
        observe(&p, 1);
        store.record(&p);
        let path = dir.join(format!("{:016x}.prof", r.fingerprint()));
        assert!(path.exists());
        // Truncate mid-line: parse fails, warm start skips the file.
        std::fs::write(&path, "pash-profile v1\nregion dead").expect("corrupt");
        let warm = ProfileStore::open(&dir).expect("reopen");
        assert_eq!(warm.regions(), 0);
        // A well-formed file under the wrong name fails
        // self-verification too.
        let rogue = RegionStats {
            fingerprint: 0x1234,
            nodes: vec![],
        };
        std::fs::write(dir.join("0000000000000001.prof"), rogue.render()).expect("rogue");
        let warm = ProfileStore::open(&dir).expect("reopen");
        assert_eq!(warm.regions(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_render_parse_round_trip() {
        let rs = RegionStats {
            fingerprint: 0xdead_beef,
            nodes: vec![
                NodeStats {
                    label: "grep \"quoted\"".to_string(),
                    bytes_in: 12345.5,
                    bytes_out: 0.25,
                    busy_s: 0.001234567,
                    weight: 2.89,
                },
                NodeStats::fresh("<split>".to_string()),
            ],
        };
        let parsed = RegionStats::parse(&rs.render()).expect("parse");
        assert_eq!(parsed.fingerprint, rs.fingerprint);
        assert_eq!(parsed.nodes.len(), 2);
        assert_eq!(parsed.nodes[0].label, rs.nodes[0].label);
        assert!((parsed.nodes[0].bytes_in - rs.nodes[0].bytes_in).abs() < 1e-2);
        assert!(RegionStats::parse("junk").is_none());
        assert!(RegionStats::parse("pash-profile v1\nregion zz\n").is_none());
    }

    #[test]
    fn lru_eviction_keeps_newest_within_cap() {
        let dir = std::env::temp_dir().join(format!("pash-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sub")).expect("mkdir");
        let old = dir.join("old.prof");
        let mid = dir.join("sub").join("mid.prof");
        let new = dir.join("new.prof");
        std::fs::write(&old, vec![0u8; 400]).expect("write");
        std::fs::write(&mid, vec![0u8; 400]).expect("write");
        std::fs::write(&new, vec![0u8; 400]).expect("write");
        // Order mtimes explicitly — same-millisecond writes are
        // common on fast filesystems.
        let t = std::time::SystemTime::now();
        for (path, age_s) in [(&old, 30u64), (&mid, 20), (&new, 10)] {
            let f = std::fs::File::options()
                .write(true)
                .open(path)
                .expect("open");
            f.set_modified(t - Duration::from_secs(age_s))
                .expect("set mtime");
        }
        let removed = evict_lru_by_mtime(&dir, 900).expect("evict");
        assert_eq!(removed, 1);
        assert!(!old.exists(), "oldest file evicted first");
        assert!(mid.exists() && new.exists());
        let removed = evict_lru_by_mtime(&dir, 900).expect("evict again");
        assert_eq!(removed, 0, "already within cap");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
