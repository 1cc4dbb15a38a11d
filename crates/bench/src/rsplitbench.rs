//! Round-robin split benchmarks: `r_split` vs the segment split on a
//! line-length-skewed corpus.
//!
//! Two views of the same question, recorded side by side in
//! `BENCH_dataplane.json`:
//!
//! * **runtime microbenchmarks** — the real splitters pushed through
//!   counting sinks, measuring per-byte dealing cost (framing tax,
//!   adaptive block sizing);
//! * **simulator series** — the whole-pipeline effect on the paper's
//!   64-core testbed model, where the general split's blocking pass
//!   and line-count skew cost wall-clock that `r_split`'s streaming
//!   uniform deal does not.
//!
//! The simulator is deterministic, so the r_split-vs-general speedup
//! it reports is a stable CI assertion, not a flaky timing race.

use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pash_core::compile::{compile, PashConfig};
use pash_core::dfg::transform::SplitPolicy;
use pash_runtime::split::{split_general, split_round_robin};
use pash_sim::cost::CostModel;
use pash_sim::engine::{simulate_program, InputSizes, SimConfig};

use crate::dataplane::{measure, Sample};

/// A byte-counting discard sink (same shape as dataplane's).
struct CountSink(Arc<AtomicUsize>);

impl Write for CountSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.fetch_add(buf.len(), Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A corpus whose line lengths are heavily skewed: mostly short
/// records with a periodic run of very long ones — the shape that
/// makes line-count segmentation hand one worker most of the bytes.
pub fn skewed_corpus(seed: u64, bytes: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes + 512);
    let mut x = seed | 1;
    let mut i = 0u64;
    while out.len() < bytes {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // 1 line in 16 is ~60× longer than the rest, and the long
        // lines cluster in the second half of the file (so equal
        // line-count segments are very unequal byte-count segments).
        let long = i % 16 == 15 && out.len() > bytes / 2;
        if long {
            let word = [b'w', b'x', b'y', b'z'][(x >> 60) as usize % 4];
            out.extend(std::iter::repeat_n(word, 480));
        } else {
            out.extend_from_slice(format!("rec {} {:04x}", i, (x >> 48) as u16).as_bytes());
        }
        out.push(b'\n');
        i += 1;
    }
    out.truncate(bytes);
    if out.last() != Some(&b'\n') {
        out.push(b'\n');
    }
    out
}

/// Byte share of each of `k` equal *line-count* segments of `corpus`
/// — the empirical skew a line-count segmenter would produce, fed to
/// the simulator as [`SimConfig::split_shares`].
pub fn line_count_shares(corpus: &[u8], k: usize) -> Vec<f64> {
    let lines: Vec<&[u8]> = corpus.split_inclusive(|&b| b == b'\n').collect();
    let k = k.max(1);
    let per = lines.len().div_ceil(k).max(1);
    let total = corpus.len().max(1) as f64;
    let mut shares: Vec<f64> = lines
        .chunks(per)
        .map(|c| c.iter().map(|l| l.len()).sum::<usize>() as f64 / total)
        .collect();
    shares.resize(k, 1e-9);
    shares
}

/// Times `split_round_robin` over `corpus` into `k` counting sinks.
pub fn time_rsplit(corpus: &[u8], k: usize, framed: bool) -> Duration {
    let counter = Arc::new(AtomicUsize::new(0));
    let mut outs: Vec<Box<dyn Write + Send>> = (0..k)
        .map(|_| Box::new(CountSink(counter.clone())) as Box<dyn Write + Send>)
        .collect();
    let mut r = io::BufReader::new(io::Cursor::new(corpus));
    let start = Instant::now();
    split_round_robin(&mut r, &mut outs, framed).expect("r_split");
    let elapsed = start.elapsed();
    assert!(
        counter.load(Ordering::Relaxed) >= corpus.len(),
        "r_split dropped bytes"
    );
    elapsed
}

/// Times the general splitter over the same corpus (the baseline the
/// runtime samples compare against).
pub fn time_general_split(corpus: &[u8], k: usize) -> Duration {
    let counter = Arc::new(AtomicUsize::new(0));
    let mut outs: Vec<Box<dyn Write + Send>> = (0..k)
        .map(|_| Box::new(CountSink(counter.clone())) as Box<dyn Write + Send>)
        .collect();
    let mut r = io::BufReader::new(io::Cursor::new(corpus));
    let start = Instant::now();
    split_general(&mut r, &mut outs).expect("split");
    start.elapsed()
}

/// The simulated pipeline: a heavy stateless stage downstream of an
/// aggregation point — the shape only a split node re-parallelizes.
const SIM_SCRIPT: &str = "cat in.txt | sort | grep '(a|b|c|d|e)+(f|g|h)*(ij|kl)+xyz' > out.txt";

/// Simulated input size: large enough that compute dominates the
/// per-region setup constants.
const SIM_INPUT_BYTES: f64 = 64e6;

/// Simulates [`SIM_SCRIPT`] at width 8 under the given split policy;
/// `shares` skews the general split's output distribution.
pub fn sim_split_seconds(split: SplitPolicy, shares: Option<Vec<f64>>) -> f64 {
    let cfg = PashConfig {
        width: 8,
        split,
        ..Default::default()
    };
    let compiled = compile(SIM_SCRIPT, &cfg).expect("compile sim script");
    let sizes: InputSizes = [("in.txt".to_string(), SIM_INPUT_BYTES)]
        .into_iter()
        .collect();
    let sim_cfg = SimConfig {
        split_shares: shares,
        ..Default::default()
    };
    simulate_program(&compiled.plan, &sizes, 0.0, &CostModel::default(), &sim_cfg).seconds
}

/// The r_split series: runtime splitter microbenchmarks on the skewed
/// corpus plus the deterministic simulator comparison.
pub fn run_series(bytes: usize, runs: usize) -> Vec<Sample> {
    let corpus = skewed_corpus(97, bytes);
    let shares = line_count_shares(&corpus, 8);
    let general_s = sim_split_seconds(SplitPolicy::General, Some(shares));
    let rr_s = sim_split_seconds(SplitPolicy::RoundRobin, None);
    let sim_sample = |name: &str, secs: f64| Sample {
        name: name.to_string(),
        bytes: SIM_INPUT_BYTES as usize,
        runs: 1,
        min: Duration::from_secs_f64(secs),
        median: Duration::from_secs_f64(secs),
        mean: Duration::from_secs_f64(secs),
    };
    vec![
        measure("rsplit_8way_framed", bytes, runs, || {
            time_rsplit(&corpus, 8, true)
        }),
        measure("rsplit_8way_raw", bytes, runs, || {
            time_rsplit(&corpus, 8, false)
        }),
        measure("split_8way_skewed", bytes, runs, || {
            time_general_split(&corpus, 8)
        }),
        sim_sample("sim_split_general_skewed", general_s),
        sim_sample("sim_split_rr", rr_s),
    ]
}

/// The simulated whole-pipeline speedup of `r_split` over the skewed
/// general split, from a [`run_series`] result.
pub fn rr_speedup(samples: &[Sample]) -> Option<f64> {
    let secs = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.median.as_secs_f64())
    };
    Some(secs("sim_split_general_skewed")? / secs("sim_split_rr")?.max(1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_corpus_is_line_skewed() {
        let c = skewed_corpus(3, 64 * 1024);
        assert!(c.ends_with(b"\n"));
        let shares = line_count_shares(&c, 8);
        assert_eq!(shares.len(), 8);
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 0.01, "shares sum to {sum}");
        // The skew the bench depends on: the largest line-count
        // segment carries well over its uniform 1/8 of the bytes.
        let max = shares.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > 0.2, "corpus not skewed enough: max share {max:.3}");
    }

    #[test]
    fn series_reports_rr_speedup_on_skewed_corpus() {
        let samples = run_series(16 * 1024, 1);
        assert_eq!(samples.len(), 5);
        let speedup = rr_speedup(&samples).expect("sim samples present");
        assert!(
            speedup > 1.05,
            "r_split should beat the skewed general split: {speedup:.2}x"
        );
    }
}
