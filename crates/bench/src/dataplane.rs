//! Data-plane timers: the byte-shuffling primitives of §5.2 (pipes,
//! the general splitter, segment reads, eager relays) measured in
//! isolation, for the `runtime.{pipe,relay,fileseg}.mb_s` and
//! `runtime.split.general_mb_s` rows of `bench/run.sh`.
//!
//! The paper's speedups assume edges move data at memory bandwidth;
//! these timers put a number on how close the runtime gets. [`measure`]
//! and [`Sample`] aggregate repeated timings; `regexbench` records its
//! rows with them.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pash_coreutils::fs::Fs;
use pash_runtime::fileseg::read_segment;
use pash_runtime::pipe::pipe;
use pash_runtime::relay::{run_relay, RelayMode};
use pash_runtime::split::split_general;

/// A writer that counts bytes and discards them — the cheapest
/// possible sink, so the primitive under test dominates the time.
pub(crate) struct CountSink(pub(crate) Arc<AtomicUsize>);

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
    fn throughput_formatting() {
        assert!(fmt_throughput(2.0 * 1024.0 * 1024.0).contains("MiB/s"));
        assert!(fmt_throughput(500.0).contains("KiB/s"));
    }
}
