//! Per-region execution profiles and the persistent profile store.
//!
//! This is the measurement plane: what runs observed, per command,
//! where the simulator's cost model otherwise has only priors. Nothing
//! chooses a plan from it yet. Both backends cheaply record per-node
//! bytes-in / bytes-out and busy-time into a
//! [`RegionProfile`] (atomic counters, the
//! [`crate::supervise::SupervisorCounters`] pattern), keyed by
//! `(region fingerprint, node id)`. A [`ProfileStore`] decay-merges
//! repeated observations in one bounded in-memory map: a record costs
//! one lock and no I/O, however long the process has lived. The owner
//! of a store opened over a directory calls [`ProfileStore::save`] when
//! it stops — one snapshot file, one atomic rename — and the next
//! [`ProfileStore::open`] warm-starts from it (corruption-tolerant: what
//! parses loads, the rest starts cold). A process that is killed
//! instead of stopped restarts cold; profiles are advisory and
//! re-learned within a handful of runs.

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

/// How many region shapes a store holds. Past it the
/// least-recently-recorded region is dropped, so neither a long-lived
/// daemon fed never-seen scripts nor the snapshot it writes can grow
/// without bound.
pub const MAX_REGIONS: usize = 1024;

/// The snapshot's file name under the store's directory.
const SNAPSHOT_FILE: &str = "profiles.snapshot";

/// The first line of every region's block in a snapshot.
const BLOCK_HEADER: &str = "pash-profile v1";

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

    /// Folds one observation in with exponential decay
    /// [`DECAY_ALPHA`]. The first observation is taken verbatim (no
    /// prior to decay).
    pub fn decay_merge(&mut self, bytes_in: f64, bytes_out: f64, busy_s: f64) {
        let a = DECAY_ALPHA;
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
        let mut out = format!("{BLOCK_HEADER}\nregion {:016x}\n", self.fingerprint);
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
        if lines.next()? != BLOCK_HEADER {
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

/// The region map plus the logical clock that orders it by recency.
#[derive(Debug, Default)]
struct Regions {
    /// Fingerprint → (clock value of the last record, stats).
    map: HashMap<u64, (u64, RegionStats)>,
    clock: u64,
}

impl Regions {
    /// The entry for `fingerprint`, stamped most recent; made empty
    /// when absent, after dropping the least-recently-recorded region
    /// of a full map.
    fn touch(&mut self, fingerprint: u64) -> &mut RegionStats {
        self.clock += 1;
        if !self.map.contains_key(&fingerprint) && self.map.len() >= MAX_REGIONS {
            let oldest = self.map.iter().min_by_key(|(_, (stamp, _))| *stamp);
            if let Some(fp) = oldest.map(|(fp, _)| *fp) {
                self.map.remove(&fp);
            }
        }
        let nodes = Vec::new();
        let entry = self
            .map
            .entry(fingerprint)
            .or_insert((0, RegionStats { fingerprint, nodes }));
        entry.0 = self.clock;
        &mut entry.1
    }
}

/// The profile store: one in-memory map, bounded by [`MAX_REGIONS`],
/// optionally backed by a snapshot file that [`Self::open`] reads and
/// [`Self::save`] writes — nothing in between touches the disk.
#[derive(Debug)]
pub struct ProfileStore {
    mem: Mutex<Regions>,
    dir: Option<PathBuf>,
}

impl ProfileStore {
    /// A memory-only store ([`Self::save`] is a no-op).
    pub fn in_memory() -> ProfileStore {
        ProfileStore {
            mem: Mutex::default(),
            dir: None,
        }
    }

    /// Opens a store that persists under `dir` (created if missing —
    /// the only failure) and warm-starts it from the snapshot a
    /// previous [`Self::save`] left there. A missing, unreadable or
    /// damaged snapshot is not an error: every block that parses
    /// loads, and the store starts cold for the rest.
    pub fn open(dir: &Path) -> io::Result<ProfileStore> {
        std::fs::create_dir_all(dir)?;
        let mut mem = Regions::default();
        let bytes = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap_or_default();
        let text = String::from_utf8_lossy(&bytes);
        // One block per region, oldest first, each starting at its
        // header line and checked by `RegionStats::parse` on its own.
        let mut block = String::new();
        let mut load = |block: &mut String| {
            if let Some(rs) = RegionStats::parse(block) {
                let fingerprint = rs.fingerprint;
                *mem.touch(fingerprint) = rs;
            }
            block.clear();
        };
        for line in text.lines() {
            if line == BLOCK_HEADER {
                load(&mut block);
            }
            block.push_str(line);
            block.push('\n');
        }
        load(&mut block);
        Ok(ProfileStore {
            mem: Mutex::new(mem),
            dir: Some(dir.to_path_buf()),
        })
    }

    /// Writes the whole store as one snapshot under the directory it
    /// was opened over: a uniquely named temporary file, renamed into
    /// place, so a reader (or a concurrent `save`) sees a complete
    /// snapshot or the previous one, never a mixture.
    pub fn save(&self) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let text = {
            let mem = lock(&self.mem);
            let mut regions: Vec<&(u64, RegionStats)> = mem.map.values().collect();
            // Oldest first: a reload re-stamps in file order, so
            // recency survives the restart.
            regions.sort_by_key(|(stamp, _)| *stamp);
            regions
                .iter()
                .map(|(_, rs)| rs.render())
                .collect::<String>()
        };
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            "{SNAPSHOT_FILE}.tmp.{}.{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, text)
            .and_then(|()| std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE)))
            .inspect_err(|_| {
                let _ = std::fs::remove_file(&tmp);
            })
    }

    /// Number of region shapes with stored observations (never more
    /// than [`MAX_REGIONS`]).
    pub fn regions(&self) -> usize {
        lock(&self.mem).map.len()
    }

    /// Folds one finished region attempt into the store: one lock, no
    /// I/O.
    pub fn record(&self, p: &RegionProfile) {
        let mut mem = lock(&self.mem);
        let rs = mem.touch(p.fingerprint());
        // Every node of a new entry — and the tail of one that came up
        // short: a fingerprint collision with a different node count is
        // astronomically unlikely, a snapshot cut at a line boundary is
        // not.
        let have = rs.nodes.len();
        rs.nodes
            .extend((have..p.len()).map(|i| NodeStats::fresh(p.label(i).to_string())));
        for i in 0..p.len() {
            let c = p.node(i);
            rs.nodes[i].decay_merge(
                c.bytes_in() as f64,
                c.bytes_out() as f64,
                c.busy().as_secs_f64(),
            );
        }
    }

    /// A snapshot of one region's stored stats.
    pub fn region_stats(&self, fingerprint: u64) -> Option<RegionStats> {
        lock(&self.mem)
            .map
            .get(&fingerprint)
            .map(|(_, rs)| rs.clone())
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
        for (_, rs) in mem.map.values() {
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
        s.decay_merge(1000.0, 500.0, 0.5);
        assert_eq!(s.bytes_in, 1000.0);
        assert_eq!(s.weight, 1.0);
        s.decay_merge(2000.0, 500.0, 0.5);
        // 0.3·2000 + 0.7·1000 = 1300.
        assert!((s.bytes_in - 1300.0).abs() < 1e-9);
        assert!((s.weight - 1.7).abs() < 1e-9);
        // Weight converges toward 1/alpha.
        for _ in 0..100 {
            s.decay_merge(2000.0, 500.0, 0.5);
        }
        assert!((s.weight - 1.0 / DECAY_ALPHA).abs() < 1e-6);
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

    /// A one-node profile of a region nothing else shares.
    fn synthetic(fingerprint: u64, label: &str) -> RegionProfile {
        let p = RegionProfile {
            fingerprint,
            labels: vec![label.to_string()],
            nodes: vec![NodeCounters::default()],
        };
        observe(&p, 1);
        p
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pash-prof-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_tier_round_trips_across_reopen() {
        let dir = scratch("reopen");
        let r = sample_region();
        {
            let store = ProfileStore::open(&dir).expect("open");
            let p = RegionProfile::for_region(&r);
            observe(&p, 1);
            store.record(&p);
            let listed = std::fs::read_dir(&dir).expect("list").count();
            assert_eq!(listed, 0, "a record writes nothing");
            store.save().expect("save");
            let listed = std::fs::read_dir(&dir).expect("list").count();
            assert_eq!(listed, 1, "one snapshot, no temporary left behind");
        }
        let warm = ProfileStore::open(&dir).expect("reopen");
        assert_eq!(warm.regions(), 1, "warm start must reload the profile");
        let rs = warm.region_stats(r.fingerprint()).expect("stats");
        assert!(rs.nodes.iter().any(|n| n.label == "tr" && n.weight > 0.0));
        assert!(warm.rates().contains_key("tr"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_profile_files_are_ignored() {
        let dir = scratch("corrupt");
        let store = ProfileStore::open(&dir).expect("open");
        for fp in 1..=3 {
            store.record(&synthetic(fp, "tr"));
        }
        store.save().expect("save");
        let path = dir.join(SNAPSHOT_FILE);
        let good = std::fs::read(&path).expect("snapshot");
        let regions = |bytes: &[u8]| {
            std::fs::write(&path, bytes).expect("damage");
            ProfileStore::open(&dir).expect("reopen").regions()
        };
        assert_eq!(regions(&good), 3);
        // Cut mid-field: the last block fails to parse, the two
        // before it load.
        assert_eq!(regions(&good[..good.len() - 10]), 2);
        // A flipped byte in the first block's header, in the second's
        // fingerprint, in the third's numbers: each costs its own
        // block and no other.
        let flip = |at: usize| {
            let mut bad = good.clone();
            bad[at] ^= 0x10;
            bad
        };
        let block = good.len() / 3;
        assert_eq!(regions(&flip(3)), 2);
        assert_eq!(regions(&flip(block + BLOCK_HEADER.len() + 10)), 2);
        assert_eq!(regions(&flip(good.len() - 4)), 2);
        // Not text at all, and nothing at all.
        assert_eq!(regions(&[0xff, 0xfe, 0x00, 0x80]), 0);
        assert_eq!(regions(b""), 0);
        assert_eq!(regions(b"pash-profile v1\nregi"), 0);
        // The layout older versions wrote — one `<fp>.prof` per region
        // beside no snapshot — is neither read nor an error.
        std::fs::remove_file(&path).expect("remove snapshot");
        std::fs::write(
            dir.join("0000000000000001.prof"),
            RegionStats::parse(&String::from_utf8_lossy(&good[..block]))
                .expect("first block")
                .render(),
        )
        .expect("old layout");
        assert_eq!(ProfileStore::open(&dir).expect("reopen").regions(), 0);
        // So is a directory where the snapshot should be.
        std::fs::create_dir(&path).expect("mkdir");
        let store = ProfileStore::open(&dir).expect("reopen");
        assert_eq!(store.regions(), 0);
        assert!(
            store.save().is_err(),
            "a snapshot that cannot be published is reported"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_is_bounded_and_keeps_the_most_recent() {
        let store = ProfileStore::in_memory();
        let total = 10 * MAX_REGIONS as u64;
        for fp in 0..total {
            // Two command names, so the rate index has to answer from
            // whichever regions survived.
            store.record(&synthetic(fp, if fp % 2 == 0 { "tr" } else { "cut" }));
            assert!(store.regions() <= MAX_REGIONS);
        }
        assert_eq!(store.regions(), MAX_REGIONS);
        for fp in total - MAX_REGIONS as u64..total {
            assert!(store.region_stats(fp).is_some(), "recent region {fp} kept");
        }
        assert!(store.region_stats(0).is_none(), "oldest region dropped");
        let rates = store.rates();
        assert!(rates.contains_key("tr") && rates.contains_key("cut"));
        // Recording again is what keeps a region, not having been first.
        store.record(&synthetic(total - MAX_REGIONS as u64, "tr"));
        store.record(&synthetic(total, "tr"));
        assert!(store.region_stats(total - MAX_REGIONS as u64).is_some());
        assert!(store.region_stats(total - MAX_REGIONS as u64 + 1).is_none());
    }

    #[test]
    fn recency_survives_a_snapshot() {
        let dir = scratch("recency");
        let store = ProfileStore::open(&dir).expect("open");
        for fp in 0..MAX_REGIONS as u64 {
            store.record(&synthetic(fp, "tr"));
        }
        store.record(&synthetic(0, "tr"));
        store.save().expect("save");
        let warm = ProfileStore::open(&dir).expect("reopen");
        assert_eq!(warm.regions(), MAX_REGIONS);
        warm.record(&synthetic(u64::MAX, "tr"));
        assert!(
            warm.region_stats(0).is_some(),
            "re-recorded before the save"
        );
        assert!(warm.region_stats(1).is_none(), "the oldest at the save");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_saves_publish_whole_snapshots() {
        let dir = scratch("race");
        let store = ProfileStore::open(&dir).expect("open");
        for fp in 0..64 {
            store.record(&synthetic(fp, "tr"));
        }
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..50 {
                        store.save().expect("save");
                    }
                });
            }
            scope.spawn(|| {
                start.wait();
                for fp in 64..512 {
                    store.record(&synthetic(fp, "cut"));
                }
            });
        });
        // Whichever save published last, its file is one whole
        // snapshot: every block it holds parses, none is cut short or
        // spliced with another writer's.
        let text = std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).expect("snapshot");
        let blocks = text.lines().filter(|l| *l == BLOCK_HEADER).count();
        let warm = ProfileStore::open(&dir).expect("reopen");
        assert_eq!(warm.regions(), blocks);
        assert!((64..=512).contains(&blocks), "{blocks}");
        assert!(text.ends_with('\n'));
        let listed = std::fs::read_dir(&dir).expect("list").count();
        assert_eq!(listed, 1, "no temporary left behind");
        // An unwritable directory (here: gone) is an error, not silence.
        std::fs::remove_dir_all(&dir).expect("remove");
        assert!(store.save().is_err());
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
}
