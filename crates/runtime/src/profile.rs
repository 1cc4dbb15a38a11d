//! Per-region execution profiles and the in-memory profile store.
//!
//! This is the measurement plane: what runs observed, per plan node.
//! Nothing chooses a plan from it yet. Both backends cheaply record
//! per-node bytes-in / bytes-out and busy-time into a
//! [`RegionProfile`] (atomic counters, the
//! [`crate::supervise::SupervisorCounters`] pattern), keyed by
//! `(region fingerprint, node id)`. A [`ProfileStore`] decay-merges
//! repeated observations in one bounded in-memory map: a record costs
//! one lock and no I/O, however long the process has lived, and
//! nothing outlives the process. Stats carry no names: a consumer that
//! holds the plan labels node `i` from the region's node `i`.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use pash_core::plan::RegionPlan;

/// Exponential-decay factor for merging a new observation into stored
/// stats: `new = ALPHA·obs + (1−ALPHA)·old`. At 0.3 the store follows
/// a drifting workload within a handful of runs while one outlier
/// moves the estimate < a third of the way.
pub const DECAY_ALPHA: f64 = 0.3;

/// How many region shapes a store holds. Past it the
/// least-recently-recorded region is dropped, so a long-lived daemon
/// fed never-seen scripts cannot grow it without bound.
pub const MAX_REGIONS: usize = 1024;

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

/// A live per-region profile: one [`NodeCounters`] per plan node,
/// keyed by the region's own fingerprint (stable across changes to
/// sibling plan steps). Shared `Arc` across the node threads of one
/// region attempt.
#[derive(Debug)]
pub struct RegionProfile {
    fingerprint: u64,
    nodes: Vec<NodeCounters>,
}

impl RegionProfile {
    /// An empty profile shaped like `r`.
    pub fn for_region(r: &RegionPlan) -> Arc<RegionProfile> {
        Arc::new(RegionProfile {
            fingerprint: r.fingerprint(),
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeStats {
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

/// The profile store: one in-memory map, bounded by [`MAX_REGIONS`].
#[derive(Debug)]
pub struct ProfileStore {
    mem: Mutex<Regions>,
}

impl ProfileStore {
    /// An empty store.
    pub fn in_memory() -> ProfileStore {
        ProfileStore {
            mem: Mutex::default(),
        }
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
        // short, should a fingerprint collide with a region of fewer
        // nodes.
        if rs.nodes.len() < p.len() {
            rs.nodes.resize(p.len(), NodeStats::default());
        }
        for i in 0..p.len() {
            let c = p.node(i);
            rs.nodes[i].decay_merge(
                c.bytes_in() as f64,
                c.bytes_out() as f64,
                c.busy().as_secs_f64(),
            );
        }
    }

    /// A copy of one region's stored stats.
    pub fn region_stats(&self, fingerprint: u64) -> Option<RegionStats> {
        lock(&self.mem)
            .map
            .get(&fingerprint)
            .map(|(_, rs)| rs.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_merge_first_observation_verbatim_then_smooths() {
        let mut s = NodeStats::default();
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

    /// A one-node profile of a region nothing else shares.
    fn synthetic(fingerprint: u64) -> RegionProfile {
        let p = RegionProfile {
            fingerprint,
            nodes: vec![NodeCounters::default()],
        };
        p.add_in(0, 1000);
        p.add_out(0, 500);
        p.add_busy(0, Duration::from_micros(10));
        p
    }

    #[test]
    fn memory_is_bounded_and_keeps_the_most_recent() {
        let store = ProfileStore::in_memory();
        let total = 10 * MAX_REGIONS as u64;
        for fp in 0..total {
            store.record(&synthetic(fp));
            assert!(store.regions() <= MAX_REGIONS);
        }
        assert_eq!(store.regions(), MAX_REGIONS);
        for fp in total - MAX_REGIONS as u64..total {
            assert!(store.region_stats(fp).is_some(), "recent region {fp} kept");
        }
        assert!(store.region_stats(0).is_none(), "oldest region dropped");
        // Recording again is what keeps a region, not having been first.
        store.record(&synthetic(total - MAX_REGIONS as u64));
        store.record(&synthetic(total));
        assert!(store.region_stats(total - MAX_REGIONS as u64).is_some());
        assert!(store.region_stats(total - MAX_REGIONS as u64 + 1).is_none());
    }
}
