//! Data-plane microbenchmarks: the byte-shuffling primitives of §5.2
//! (pipes, splitters, segment reads, eager relays) measured in
//! isolation, and the `sort` kernel whose output the merge
//! aggregators carry.
//!
//! The paper's speedups assume edges move data at memory bandwidth;
//! these benchmarks put a number on how close the runtime gets. They
//! are shared between the `dataplane` binary (which emits
//! `BENCH_dataplane.json` so successive PRs have a perf trajectory)
//! and the `runtime.{pipe,relay,fileseg}.mb_s` and
//! `runtime.split.general_mb_s` rows of `bench/run.sh`.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pash_coreutils::fs::{Fs, MemFs};
use pash_coreutils::{run_command, Registry};
use pash_runtime::agg::{run_aggregator, AggInput};
use pash_runtime::fileseg::read_segment;
use pash_runtime::pipe::pipe;
use pash_runtime::relay::{run_relay, RelayMode};
use pash_runtime::split::split_general;

/// A writer that counts bytes and discards them — the cheapest
/// possible sink, so the primitive under test dominates the time.
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

/// Transfers `total` bytes through a `capacity`-byte pipe (writer
/// thread, reader on the caller's thread); returns the wall time.
pub fn time_pipe_transfer(capacity: usize, total: usize) -> Duration {
    let (mut w, mut r) = pipe(capacity);
    let chunk = vec![0x61u8; 64 * 1024];
    let start = Instant::now();
    std::thread::scope(|s| {
        let chunk = &chunk;
        s.spawn(move || {
            let mut left = total;
            while left > 0 {
                let n = chunk.len().min(left);
                if w.write_all(&chunk[..n]).is_err() {
                    break;
                }
                left -= n;
            }
            // Thread end drops the moved writer: EOF for the reader.
        });
        let mut buf = vec![0u8; 64 * 1024];
        let mut seen = 0usize;
        loop {
            let n = r.read(&mut buf).expect("pipe read");
            if n == 0 {
                break;
            }
            seen += n;
        }
        assert_eq!(seen, total, "pipe transfer lost bytes");
    });
    start.elapsed()
}

/// Splits `corpus` into `k` counting sinks; returns the wall time.
pub fn time_split(corpus: &[u8], k: usize) -> Duration {
    let counter = Arc::new(AtomicUsize::new(0));
    let mut outs: Vec<Box<dyn Write + Send>> = (0..k)
        .map(|_| Box::new(CountSink(counter.clone())) as Box<dyn Write + Send>)
        .collect();
    let mut r = io::BufReader::new(io::Cursor::new(corpus));
    let start = Instant::now();
    split_general(&mut r, &mut outs).expect("split");
    let elapsed = start.elapsed();
    assert!(
        counter.load(Ordering::Relaxed) >= corpus.len(),
        "split dropped bytes"
    );
    elapsed
}

/// Reads all `k` segments of `path` (the k-wide stage's aggregate
/// input I/O); returns the wall time.
pub fn time_segment_read(fs: &Arc<dyn Fs>, path: &str, k: usize) -> Duration {
    let expected = fs.size(path).expect("size") as usize;
    let start = Instant::now();
    let mut total = 0usize;
    for part in 0..k {
        total += read_segment(fs, path, part, k).expect("segment").len();
    }
    let elapsed = start.elapsed();
    assert_eq!(total, expected, "segments do not cover the file");
    elapsed
}

/// Splits a corpus into `k` contiguous sorted runs — the shape of the
/// partial outputs that parallel `sort` copies hand the aggregator.
pub fn sorted_chunks(corpus: &[u8], k: usize) -> Vec<Vec<u8>> {
    let mut lines: Vec<&[u8]> = corpus.split_inclusive(|&b| b == b'\n').collect();
    lines.sort_unstable();
    let k = k.max(1);
    let per = lines.len().div_ceil(k);
    lines
        .chunks(per.max(1))
        .map(|chunk| chunk.concat())
        .chain(std::iter::repeat_with(Vec::new))
        .take(k)
        .collect()
}

/// Merges `chunks` through the `sort` aggregator (the batched
/// [`pash_runtime::scan::LineScanner`] input path) into a counting
/// sink; returns the wall time.
pub fn time_agg_merge(registry: &Registry, fs: &Arc<dyn Fs>, chunks: &[Vec<u8>]) -> Duration {
    let total: usize = chunks.iter().map(|c| c.len()).sum();
    let inputs: Vec<AggInput> = chunks
        .iter()
        .map(|c| Box::new(io::Cursor::new(c.clone())) as AggInput)
        .collect();
    let counter = Arc::new(AtomicUsize::new(0));
    let mut out = CountSink(counter.clone());
    let argv = vec!["pash-agg-sort".to_string()];
    let start = Instant::now();
    run_aggregator(&argv, inputs, &mut out, registry, fs.clone()).expect("agg merge");
    let elapsed = start.elapsed();
    assert_eq!(counter.load(Ordering::Relaxed), total, "merge lost bytes");
    elapsed
}

/// Runs `sort ARGS…` over `input` (newline-terminated) through the
/// command itself — arena, index, kernel, gathered output — into
/// memory; returns the wall time.
pub fn time_sort(registry: &Registry, args: &[&str], input: &[u8]) -> Duration {
    let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
    let argv: Vec<&str> = std::iter::once("sort")
        .chain(args.iter().copied())
        .collect();
    let start = Instant::now();
    let out = run_command(registry, fs, &argv, input).expect("sort runs");
    let elapsed = start.elapsed();
    assert_eq!(out.stdout.len(), input.len(), "sort lost bytes");
    elapsed
}

/// `sort | uniq -c` of `corpus`: the records the benchmark's final
/// `sort -n` orders.
pub fn counted_records(registry: &Registry, corpus: &[u8]) -> Vec<u8> {
    let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
    let sorted = run_command(registry, fs.clone(), &["sort"], corpus).expect("sort runs");
    let counted = run_command(registry, fs, &["uniq", "-c"], &sorted.stdout).expect("uniq runs");
    counted.stdout
}

/// Runs a full eager relay over `data`; returns the wall time.
pub fn time_relay(data: &[u8]) -> Duration {
    let owned = data.to_vec();
    let counter = Arc::new(AtomicUsize::new(0));
    let mut out = CountSink(counter.clone());
    let start = Instant::now();
    let n = run_relay(io::Cursor::new(owned), &mut out, RelayMode::Full).expect("relay");
    let elapsed = start.elapsed();
    assert_eq!(n as usize, data.len(), "relay lost bytes");
    elapsed
}

/// One benchmark's aggregated measurement.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark name.
    pub name: String,
    /// Bytes moved per iteration.
    pub bytes: usize,
    /// Timed iterations.
    pub runs: usize,
    /// Fastest iteration.
    pub min: Duration,
    /// Median iteration.
    pub median: Duration,
    /// Mean iteration.
    pub mean: Duration,
}

impl Sample {
    /// Throughput of the median iteration, in bytes per second.
    pub fn throughput(&self) -> f64 {
        self.bytes as f64 / self.median.as_secs_f64().max(1e-12)
    }

    /// One JSON object (hand-rolled; the workspace has no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"bytes\":{},\"runs\":{},\"min_s\":{:.6},\"median_s\":{:.6},\"mean_s\":{:.6},\"throughput_bytes_per_s\":{:.0}}}",
            self.name,
            self.bytes,
            self.runs,
            self.min.as_secs_f64(),
            self.median.as_secs_f64(),
            self.mean.as_secs_f64(),
            self.throughput(),
        )
    }
}

/// Times `f` for `runs` iterations (after one warm-up) and aggregates.
pub fn measure(name: &str, bytes: usize, runs: usize, mut f: impl FnMut() -> Duration) -> Sample {
    let runs = runs.max(1);
    f(); // warm-up
    let mut times: Vec<Duration> = (0..runs).map(|_| f()).collect();
    times.sort_unstable();
    let mean = times.iter().sum::<Duration>() / times.len() as u32;
    Sample {
        name: name.to_string(),
        bytes,
        runs,
        min: times[0],
        median: times[times.len() / 2],
        mean,
    }
}

/// The standard suite at a given transfer size; `runs` iterations per
/// benchmark. Covers the four primitives the executor's edges use,
/// the aggregator merge path, and the `sort` kernel on text and on
/// `uniq -c` records under `-n`.
pub fn run_suite(bytes: usize, runs: usize) -> Vec<Sample> {
    let corpus = pash_workloads::text_corpus(41, bytes);
    let mem = MemFs::new();
    mem.add("seg.txt", corpus.clone());
    let fs: Arc<dyn Fs> = Arc::new(mem);
    let registry = Registry::standard();
    let chunks = sorted_chunks(&corpus, 8);
    let merge_bytes: usize = chunks.iter().map(|c| c.len()).sum();
    let chunks32 = sorted_chunks(&corpus, 32);
    let merge32_bytes: usize = chunks32.iter().map(|c| c.len()).sum();
    let counted = counted_records(&registry, &corpus);
    vec![
        measure("pipe_64k_cap", bytes, runs, || {
            time_pipe_transfer(64 * 1024, bytes)
        }),
        measure("pipe_4k_cap", bytes, runs, || {
            time_pipe_transfer(4 * 1024, bytes)
        }),
        measure("split_8way", bytes, runs, || time_split(&corpus, 8)),
        measure("segment_read_8way", bytes, runs, || {
            time_segment_read(&fs, "seg.txt", 8)
        }),
        measure("relay_full", bytes, runs, || time_relay(&corpus)),
        measure("agg_sort_merge_8way", merge_bytes, runs, || {
            time_agg_merge(&registry, &fs, &chunks)
        }),
        // High fan-in is where the loser tree's O(log k) replay beats
        // the old O(k) head scan.
        measure("agg_sort_merge_32way", merge32_bytes, runs, || {
            time_agg_merge(&registry, &fs, &chunks32)
        }),
        measure("sort_kernel_text", bytes, runs, || {
            time_sort(&registry, &[], &corpus)
        }),
        measure("sort_kernel_counted_n", counted.len(), runs, || {
            time_sort(&registry, &["-n"], &counted)
        }),
    ]
}

/// Human-readable throughput, e.g. `312.4 MiB/s`.
pub fn fmt_throughput(bytes_per_sec: f64) -> String {
    const MIB: f64 = 1024.0 * 1024.0;
    if bytes_per_sec >= MIB * 1024.0 {
        format!("{:.2} GiB/s", bytes_per_sec / (MIB * 1024.0))
    } else if bytes_per_sec >= MIB {
        format!("{:.1} MiB/s", bytes_per_sec / MIB)
    } else {
        format!("{:.1} KiB/s", bytes_per_sec / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_at_tiny_size() {
        let samples = run_suite(4 * 1024, 1);
        assert_eq!(samples.len(), 9);
        for s in &samples {
            assert!(s.throughput() > 0.0, "{} has zero throughput", s.name);
            assert!(s.to_json().contains(&s.name));
        }
        assert!(samples.iter().any(|s| s.name == "agg_sort_merge_8way"));
        assert!(samples.iter().any(|s| s.name == "agg_sort_merge_32way"));
        assert!(samples.iter().any(|s| s.name == "sort_kernel_text"));
        assert!(samples.iter().any(|s| s.name == "sort_kernel_counted_n"));
    }

    #[test]
    fn sorted_chunks_cover_and_order() {
        let corpus = pash_workloads::text_corpus(7, 4 * 1024);
        let chunks = sorted_chunks(&corpus, 8);
        assert_eq!(chunks.len(), 8);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, corpus.len());
        for c in &chunks {
            let lines: Vec<&[u8]> = c.split_inclusive(|&b| b == b'\n').collect();
            assert!(lines.windows(2).all(|w| w[0] <= w[1]), "chunk not sorted");
        }
    }

    #[test]
    fn throughput_formatting() {
        assert!(fmt_throughput(2.0 * 1024.0 * 1024.0).contains("MiB/s"));
        assert!(fmt_throughput(500.0).contains("KiB/s"));
    }
}
