//! Per-region execution profiles: a tap an in-process caller attaches.
//!
//! What a run observed, per plan node; nothing chooses a plan from it.
//! A caller that sets `ExecConfig.profile` gets per-node bytes-in,
//! bytes-out and busy time from the `threads` backend: each successful
//! region attempt counts into a [`RegionProfile`] (relaxed atomics,
//! the [`crate::supervise::SupervisorCounters`] pattern) and records
//! it into the [`ProfileStore`], which keeps the latest attempt per
//! region fingerprint and hands it back as [`RegionStats`]. The store
//! has no bound: its callers (the benchmark harness, the tests) are
//! short-lived, and the long-lived `pashd` attaches none. Stats carry
//! no names: a consumer that holds the plan labels node `i` from the
//! region's node `i`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pash_core::plan::RegionPlan;

use crate::exec::lock;

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

/// What one node of a recorded region observed.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Bytes consumed.
    pub bytes_in: f64,
    /// Bytes produced.
    pub bytes_out: f64,
    /// Busy seconds.
    pub busy_s: f64,
}

/// The recorded statistics of one region fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionStats {
    /// The region's fingerprint ([`RegionPlan::fingerprint`]).
    pub fingerprint: u64,
    /// Per-node stats, indexed by node id.
    pub nodes: Vec<NodeStats>,
}

/// The profile store: region fingerprint → the latest successful
/// attempt's counters. A second record of a region replaces the first.
#[derive(Debug, Default)]
pub struct ProfileStore {
    regions: Mutex<HashMap<u64, Arc<RegionProfile>>>,
}

impl ProfileStore {
    /// An empty store.
    pub fn in_memory() -> ProfileStore {
        ProfileStore::default()
    }

    /// Keeps one finished region attempt's counters: one lock, no copy.
    pub fn record(&self, p: &Arc<RegionProfile>) {
        lock(&self.regions).insert(p.fingerprint, p.clone());
    }

    /// What the last record of region `fingerprint` observed.
    pub fn region_stats(&self, fingerprint: u64) -> Option<RegionStats> {
        let p = lock(&self.regions).get(&fingerprint)?.clone();
        let nodes = p
            .nodes
            .iter()
            .map(|c| NodeStats {
                bytes_in: c.bytes_in() as f64,
                bytes_out: c.bytes_out() as f64,
                busy_s: c.busy().as_secs_f64(),
            })
            .collect();
        Some(RegionStats { fingerprint, nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-node profile that consumed `bytes_in` bytes.
    fn observed(fingerprint: u64, bytes_in: u64) -> Arc<RegionProfile> {
        let p = Arc::new(RegionProfile {
            fingerprint,
            nodes: vec![NodeCounters::default()],
        });
        p.add_in(0, bytes_in);
        p.add_out(0, 500);
        p.add_busy(0, Duration::from_micros(10));
        p
    }

    #[test]
    fn a_second_record_of_a_region_replaces_the_first() {
        let store = ProfileStore::in_memory();
        store.record(&observed(7, 1000));
        store.record(&observed(7, 2000));
        let stats = store.region_stats(7).expect("region recorded");
        assert_eq!(stats.fingerprint, 7);
        assert_eq!(stats.nodes.len(), 1);
        let node = &stats.nodes[0];
        assert_eq!(node.bytes_in, 2000.0);
        assert_eq!(node.bytes_out, 500.0);
        assert_eq!(node.busy_s, 10e-6);
        assert!(store.region_stats(8).is_none());
    }
}
