//! The execution supervisor: retries, deadlines, and graceful
//! fallback to the sequential baseline.
//!
//! Every backend executes a region as one *attempt* of a
//! [`RegionRunner`], returning [`ExecError`] on failure.
//! [`supervise_ladder`] walks that attempt down the one recovery
//! ladder, taking the rungs the runner offers:
//!
//! ```text
//!   attempt (fault armed per attempt; the runner enforces the
//!     │      region deadline)
//!     │ transient error, region replayable, retries left
//!     ├──▶ retry after a jittered backoff (2^i × base × [0.5, 1))
//!     │ retries spent
//!     ▼
//!   clean local attempt     only if the runner has a local one
//!     │ transient error      (`remote`): same region, no injection,
//!     ▼                      no deadline
//!   width-1 fallback        the aligned sequential region, clean —
//!                           its output IS the definition of correct
//!
//!   a fatal error at any rung ends the ladder: the sequential run
//!   would fail identically
//! ```
//!
//! Retrying is sound because attempts are *replayable*: a region's
//! outputs (stdout buffer, output files) are applied from scratch on
//! every attempt — nothing downstream observes a failed attempt —
//! and the plan marks regions whose commands are pure
//! ([`RegionPlan::replayable`]). Non-replayable regions go straight
//! to the error.
//!
//! Counters record which recovery path ran, so tests can assert "this
//! sweep case exercised a retry / a deadline kill / the fallback"
//! instead of trusting the output alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pash_core::plan::RegionPlan;

use crate::drive::{Feed, RegionRunner};
use crate::exec::RegionOutput;
use crate::fault::{splitmix64, ExecError, FaultPlan};

/// Recovery counters, shared across a program run (and its clones).
#[derive(Debug, Default)]
pub struct SupervisorCounters {
    retries: AtomicU64,
    deadline_kills: AtomicU64,
    fallbacks: AtomicU64,
    injected: AtomicU64,
    reroutes: AtomicU64,
    local_fallbacks: AtomicU64,
    inline_regions: AtomicU64,
    threaded_regions: AtomicU64,
}

impl SupervisorCounters {
    /// Region attempts re-run after a transient failure.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Attempts killed by the region deadline.
    pub fn deadline_kills(&self) -> u64 {
        self.deadline_kills.load(Ordering::Relaxed)
    }

    /// Regions re-executed through the sequential fallback.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Faults armed and delivered into attempts.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Remote retries that landed on a different worker than the
    /// failed attempt (see `runtime::remote`).
    pub fn reroutes(&self) -> u64 {
        self.reroutes.load(Ordering::Relaxed)
    }

    /// Regions that degraded to their runner's clean local attempt
    /// (the middle rung of the recovery ladder).
    pub fn local_fallbacks(&self) -> u64 {
        self.local_fallbacks.load(Ordering::Relaxed)
    }

    /// `threads` region attempts that ran to completion on the calling
    /// thread — the schedule [`crate::exec`] picks when a region's
    /// whole input fits one pipe buffer.
    pub fn inline_regions(&self) -> u64 {
        self.inline_regions.load(Ordering::Relaxed)
    }

    /// `threads` region attempts that ran one thread per plan node.
    pub fn threaded_regions(&self) -> u64 {
        self.threaded_regions.load(Ordering::Relaxed)
    }

    /// Counts one `threads` region attempt under the schedule it ran.
    pub(crate) fn note_schedule(&self, inline: bool) {
        let counter = if inline {
            &self.inline_regions
        } else {
            &self.threaded_regions
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Supervisor knobs. Cloning shares the counters and the fault plan's
/// budget, so clones report into — and draw from — one place.
#[derive(Debug, Clone)]
pub struct SupervisorSettings {
    /// Retries after the first failed attempt of a replayable region.
    pub max_retries: u32,
    /// Backoff before retry `i` is `backoff_base × 2^(i-1)`, scaled
    /// by a jitter factor drawn from the region's fingerprint and the
    /// attempt index (see [`jittered_backoff`]), so k regions retrying
    /// a shared-cause fault spread out instead of resynchronizing.
    pub backoff_base: Duration,
    /// Wall-clock budget per region attempt; `None` disables the
    /// watchdog (the default — deadlines are opt-in because a fair
    /// deadline depends on input size).
    pub region_deadline: Option<Duration>,
    /// Whether exhausted retries degrade to the sequential fallback
    /// (when the caller can provide one).
    pub fallback: bool,
    /// The fault to inject, if any (test plane).
    pub fault: Option<FaultPlan>,
    /// Shared recovery counters.
    pub counters: Arc<SupervisorCounters>,
}

impl Default for SupervisorSettings {
    fn default() -> Self {
        SupervisorSettings {
            max_retries: 2,
            backoff_base: Duration::from_millis(25),
            region_deadline: None,
            fallback: true,
            fault: None,
            counters: Arc::new(SupervisorCounters::default()),
        }
    }
}

impl SupervisorSettings {
    /// Counts one deadline kill (backends call this when their
    /// watchdog fires; the supervisor itself cannot see inside an
    /// attempt).
    pub fn note_deadline_kill(&self) {
        self.counters.deadline_kills.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one remote reroute (a retry placed on a different
    /// worker than the failed attempt; see `runtime::remote`).
    pub fn note_reroute(&self) {
        self.counters.reroutes.fetch_add(1, Ordering::Relaxed);
    }
}

/// The backoff before retry `attempt` (1-based): the exponential
/// `base × 2^(attempt-1)`, scaled by a deterministic jitter factor in
/// `[0.5, 1.0)` drawn from `seed` — so the same (seed, attempt)
/// always backs off identically, while different regions/runs spread
/// out instead of retrying in lockstep.
pub fn jittered_backoff(base: Duration, attempt: u32, seed: u64) -> Duration {
    let exp = base.saturating_mul(1 << (attempt - 1).min(16));
    let h = splitmix64(seed.wrapping_add(attempt as u64));
    // nanos × (2^16 + (h mod 2^16)) / 2^17 ∈ [nanos/2, nanos).
    let num = (1u128 << 16) + (h & 0xFFFF) as u128;
    let nanos = (exp.as_nanos().saturating_mul(num)) >> 17;
    Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
}

/// Runs one region under supervision: up to `1 + max_retries`
/// attempts of `r` on `runner` (one for a non-replayable region), each
/// with `feed` on its stdin and the fault plan armed afresh; then, if
/// fallback is enabled and the region replayable, a clean attempt on
/// the runner's local runner when it has one; then `fallback` — the
/// aligned width-1 region, the last resort that restores the `sh`
/// baseline byte for byte. A fatal error ends the ladder at any rung; with nothing left
/// to try the last transient error is returned.
pub fn supervise_ladder(
    runner: &dyn RegionRunner,
    r: &RegionPlan,
    fallback: Option<&RegionPlan>,
    feed: &Feed,
    settings: &SupervisorSettings,
) -> Result<RegionOutput, ExecError> {
    let attempts = if r.replayable {
        1 + settings.max_retries
    } else {
        1
    };
    let mut last: Option<ExecError> = None;
    for i in 0..attempts {
        if i > 0 {
            settings.counters.retries.fetch_add(1, Ordering::Relaxed);
            // Hashing the region is a retry's cost, not every run's.
            let backoff = jittered_backoff(settings.backoff_base, i, r.fingerprint());
            std::thread::sleep(backoff);
        }
        let armed = settings
            .fault
            .as_ref()
            .and_then(|f| f.arm(r, runner.has_connection()));
        if armed.is_some() {
            settings.counters.injected.fetch_add(1, Ordering::Relaxed);
        }
        match runner.attempt(r, feed, armed.as_ref(), i, Some(settings)) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() => last = Some(e),
            // Fatal: the sequential run would fail identically;
            // neither retry nor fallback can help.
            Err(e) => return Err(e),
        }
    }
    let last = last.expect("at least one attempt ran");
    if !(settings.fallback && r.replayable) {
        return Err(last);
    }
    // Middle rung: infrastructure trouble between here and the runner
    // does not condemn a run to width 1.
    let local = runner.clean_local();
    if let Some(local) = local {
        settings
            .counters
            .local_fallbacks
            .fetch_add(1, Ordering::Relaxed);
        match local.attempt(r, feed, None, 0, None) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() => {}
            Err(e) => return Err(e),
        }
    }
    // Last rung: width-1 sequential re-execution, injection disabled
    // — its output IS the definition of correct.
    if let Some(fb) = fallback {
        settings.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
        return local.unwrap_or(runner).attempt(fb, feed, None, 0, None);
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::fake::{fatal, ok, transient, FakeRunner};
    use crate::fault::FaultClass;

    fn replayable_region() -> RegionPlan {
        RegionPlan {
            replayable: true,
            ..Default::default()
        }
    }

    /// A second region, tellable apart from [`replayable_region`].
    fn fallback_region() -> RegionPlan {
        RegionPlan::default()
    }

    fn quick(max_retries: u32) -> SupervisorSettings {
        SupervisorSettings {
            max_retries,
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        }
    }

    fn feed() -> Feed {
        Feed::from(*b"feed")
    }

    /// Fails every attempt at the main region; the fallback succeeds
    /// with status 99.
    fn failing() -> FakeRunner {
        let fb = fallback_region().fingerprint();
        FakeRunner::new(move |c| {
            if c.region == fb {
                ok(99, b"")
            } else {
                Err(transient())
            }
        })
    }

    #[test]
    fn first_success_needs_no_recovery() {
        let s = quick(2);
        let runner = FakeRunner::new(|_| ok(7, b""));
        let out = supervise_ladder(&runner, &replayable_region(), None, &feed(), &s).expect("ok");
        assert_eq!(out.status, 7);
        assert_eq!(s.counters.retries(), 0);
        assert_eq!(s.counters.fallbacks(), 0);
    }

    #[test]
    fn transient_failure_retries_then_succeeds() {
        let s = quick(2);
        let runner = FakeRunner::new(|c| {
            if c.attempt_no < 2 {
                Err(transient())
            } else {
                ok(42, b"")
            }
        });
        let out = supervise_ladder(&runner, &replayable_region(), None, &feed(), &s).expect("ok");
        assert_eq!(out.status, 42);
        assert_eq!(s.counters.retries(), 2);
        assert_eq!(s.counters.fallbacks(), 0);
        // Attempt indices arrive in order (the remote runner places by
        // them), every attempt supervised.
        let seen: Vec<(u32, bool)> = runner
            .calls()
            .iter()
            .map(|c| (c.attempt_no, c.supervised))
            .collect();
        assert_eq!(seen, [(0, true), (1, true), (2, true)]);
    }

    #[test]
    fn exhausted_retries_fall_back() {
        let s = quick(1);
        let runner = failing();
        let fb = fallback_region();
        let out = supervise_ladder(&runner, &replayable_region(), Some(&fb), &feed(), &s)
            .expect("fallback");
        assert_eq!(out.status, 99);
        assert_eq!(s.counters.retries(), 1);
        assert_eq!(s.counters.fallbacks(), 1);
        let last = runner.calls().pop().expect("calls");
        assert_eq!(last.region, fb.fingerprint());
        assert!(!last.supervised, "the reference run has no deadline");
        // With fallback disabled the last transient error comes back.
        let s = SupervisorSettings {
            fallback: false,
            ..quick(1)
        };
        supervise_ladder(&failing(), &replayable_region(), Some(&fb), &feed(), &s)
            .expect_err("no fallback");
        assert_eq!(s.counters.fallbacks(), 0);
    }

    #[test]
    fn fatal_errors_do_not_retry_or_fall_back() {
        let s = quick(2);
        let runner = FakeRunner::new(|_| Err(fatal()));
        let fb = fallback_region();
        let err = supervise_ladder(&runner, &replayable_region(), Some(&fb), &feed(), &s)
            .expect_err("fatal");
        assert_eq!(runner.calls().len(), 1);
        assert_eq!(err.class, FaultClass::Fatal);
        assert_eq!(s.counters.fallbacks(), 0);
    }

    #[test]
    fn jitter_is_deterministic_and_banded() {
        let base = Duration::from_millis(40);
        for attempt in 1..=4u32 {
            let exp = base.saturating_mul(1 << (attempt - 1));
            for seed in 0..32u64 {
                let a = jittered_backoff(base, attempt, seed);
                let b = jittered_backoff(base, attempt, seed);
                assert_eq!(a, b, "same (seed, attempt) must back off identically");
                assert!(
                    a >= exp / 2 && a < exp,
                    "{a:?} outside [{exp:?}/2, {exp:?})"
                );
            }
        }
        // Different seeds actually spread out (not all identical).
        let spread: std::collections::HashSet<Duration> =
            (0..32u64).map(|s| jittered_backoff(base, 1, s)).collect();
        assert!(spread.len() > 8, "only {} distinct backoffs", spread.len());
    }

    #[test]
    fn a_local_rung_sits_between_retries_and_the_fallback() {
        let s = quick(1);
        let fb = fallback_region();
        // Local rung succeeds: sequential fallback untouched.
        let runner = failing().with_local(FakeRunner::new(|_| ok(11, b"")));
        let out = supervise_ladder(&runner, &replayable_region(), Some(&fb), &feed(), &s)
            .expect("local rung");
        assert_eq!(out.status, 11);
        assert_eq!(s.counters.local_fallbacks(), 1);
        assert_eq!(s.counters.fallbacks(), 0);
        let local = runner.local().calls();
        assert_eq!(local.len(), 1);
        assert!(
            !local[0].supervised && !local[0].armed,
            "the local rung is clean"
        );
        assert_eq!(local[0].feed, b"feed");
        // Local rung also transient: the sequential rung finishes it,
        // on the local runner.
        let runner = failing().with_local(failing());
        let out = supervise_ladder(&runner, &replayable_region(), Some(&fb), &feed(), &s)
            .expect("sequential rung");
        assert_eq!(out.status, 99);
        assert_eq!(s.counters.local_fallbacks(), 2);
        assert_eq!(s.counters.fallbacks(), 1);
        assert_eq!(runner.calls().len(), 2, "the two supervised attempts only");
        let local: Vec<u64> = runner.local().calls().iter().map(|c| c.region).collect();
        assert_eq!(local, [replayable_region().fingerprint(), fb.fingerprint()]);
    }

    #[test]
    fn non_replayable_regions_fail_on_first_transient() {
        let s = quick(2);
        let r = RegionPlan::default(); // replayable: false
        let runner = FakeRunner::new(|_| Err(transient()));
        supervise_ladder(&runner, &r, Some(&replayable_region()), &feed(), &s)
            .expect_err("no retry");
        assert_eq!(runner.calls().len(), 1);
        assert_eq!(s.counters.retries(), 0);
        assert_eq!(s.counters.fallbacks(), 0);
    }
}
