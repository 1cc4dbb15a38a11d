//! The round-robin splitter (`r_split`) timed on its own, for the
//! `runtime.split.rr_mb_s` row of `bench/run.sh`.

use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pash_runtime::split::split_round_robin;

use crate::dataplane::CountSink;

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
