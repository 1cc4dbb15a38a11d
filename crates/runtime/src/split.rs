//! The `split` runtime primitives (§5.2, "Splitting Challenges").
//!
//! Three implementations:
//! * [`split_general`] — for inputs of unknown size: streams with a
//!   **bounded look-ahead**. While the input fits in the look-ahead
//!   window the split is exact (contiguous line ranges of near-equal
//!   counts, as the paper describes); beyond it, each output receives
//!   a line-aligned block sized adaptively from the observed line
//!   density and the final output streams the remainder, so memory
//!   stays constant at any input size. Either way an output is closed
//!   as soon as its range is written, so an ordered consumer (`cat`
//!   over FIFOs) can move on to the next while the split still runs;
//! * [`split_round_robin`] — the order-aware `r_split`: fixed-size
//!   line-aligned blocks dealt to the outputs in rotation, optionally
//!   stamped with sequence tags ([`crate::frame`]) so a downstream
//!   reorder aggregator can restore input order. No pre-pass, and
//!   balanced regardless of line-length skew;
//! * the input-aware variant for known sizes is `fileseg` (byte-range
//!   segments, no process needed) — see [`crate::fileseg`].
//!
//! For `split_general`, contiguity is essential: the concatenation of
//! the outputs must be exactly the input, or the stateless law does
//! not apply. For `split_round_robin`, the *tag-ordered* concatenation
//! of the blocks is the input — order is data, carried by the frames.
//!
//! What a block costs. Both splitters read into one [`Window`] — the
//! bytes land in its free tail straight from the input, around the
//! caller's `BufReader` — and write each block out of it in place: one
//! copy in, one copy out. The rest is per block and runs a machine
//! word or a 64-byte window at a time, not a byte at a time: the cut
//! is a `memrchr` for the block's last newline (a `memchr` past it for
//! a line longer than the block), and the line count that sizes the
//! next block is a `count_byte` (`pash_coreutils::bytemask`). The
//! window moves its undealt bytes to its front only when its free tail
//! is shorter than a read and the bytes dealt before them outnumber
//! them by a read, so a move copies less than was dealt; otherwise it
//! doubles, so it grows with the bytes it holds.

use crate::edge::Sink;
use pash_coreutils::bytemask::{count_byte, nth_byte};
use pash_coreutils::lines::BLOCK_SIZE;
use pash_regex::memmem::{memchr, memrchr};
use std::io::{self, BufRead, Write};

/// Default look-ahead window: inputs up to this size split exactly;
/// larger inputs stream through in blocks of up to this size.
pub const DEFAULT_LOOKAHEAD: usize = 4 * 1024 * 1024;

/// Smallest adaptive block: short-line inputs converge here instead of
/// shipping the whole look-ahead window as one block.
pub const MIN_ADAPTIVE_BLOCK: usize = 16 * 1024;

/// The adaptive sizing targets this many lines per block.
pub const TARGET_LINES_PER_BLOCK: u64 = 2048;

/// Fewest bytes a read into the [`Window`] asks for: the capacity of
/// the `BufReader` a split node reads through, so a read goes around
/// that buffer and lands in the window directly.
const READ_CHUNK: usize = BLOCK_SIZE;

/// Picks a block size from the line density observed so far: aim at
/// [`TARGET_LINES_PER_BLOCK`] lines of the average observed length,
/// clamped to `[MIN_ADAPTIVE_BLOCK, max_block]` (and never above
/// `max_block`, which callers set to their look-ahead bound so
/// buffering stays bounded). With no observations yet, start small.
pub fn adaptive_block_size(bytes_seen: u64, lines_seen: u64, max_block: usize) -> usize {
    let max_block = max_block.max(1);
    if lines_seen == 0 {
        return MIN_ADAPTIVE_BLOCK.min(max_block);
    }
    let avg_line = (bytes_seen / lines_seen).max(1);
    let want = avg_line.saturating_mul(TARGET_LINES_PER_BLOCK);
    let want = usize::try_from(want).unwrap_or(usize::MAX);
    want.max(MIN_ADAPTIVE_BLOCK).min(max_block)
}

/// A splitter's one buffer: input is read into its free tail, and
/// blocks are written out of `buf[start..end]` in place.
///
/// All of `buf` is initialised — zeroed as it grows — so a read can
/// borrow the free tail as a plain slice.
#[derive(Default)]
struct Window {
    buf: Vec<u8>,
    /// First byte not yet dealt.
    start: usize,
    /// End of the bytes read.
    end: usize,
    /// The input has reported its end.
    eof: bool,
}

impl Window {
    /// The bytes read and not yet dealt.
    fn held(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Deals the first `n` held bytes.
    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.end - self.start);
        self.start += n;
    }

    /// Reads until at least `want` bytes are held or the input ends;
    /// returns whether they are.
    fn fill(&mut self, input: &mut dyn BufRead, want: usize) -> io::Result<bool> {
        while self.end - self.start < want {
            let missing = want - (self.end - self.start);
            if self.read(input, missing)? == 0 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// One read of up to `max(want, READ_CHUNK)` bytes into the free
    /// tail, making room first; returns how many arrived (0 at the end
    /// of the input).
    ///
    /// The window grows with what it holds, not with what is asked: a
    /// 4 MiB look-ahead over an 8 KiB input allocates 128 KiB. Room
    /// for a read is made by moving the held bytes to the front, and
    /// by doubling the window too unless the bytes dealt before them
    /// outnumbered them by a read: a move that does not grow the
    /// window copies less than was dealt since the last, and a block of
    /// `B` bytes settles in a window of about `2 × (B + READ_CHUNK)`.
    fn read(&mut self, input: &mut dyn BufRead, want: usize) -> io::Result<usize> {
        if self.eof {
            return Ok(0);
        }
        if self.buf.len() - self.end < READ_CHUNK {
            let held = self.end - self.start;
            let grow = self.start < held + READ_CHUNK;
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.start = 0;
                self.end = held;
            }
            if grow {
                let len = (2 * self.buf.len())
                    .max(held + READ_CHUNK)
                    .max(2 * READ_CHUNK);
                self.buf.resize(len, 0);
            }
        }
        let ask = want.max(READ_CHUNK).min(self.buf.len() - self.end);
        let n = loop {
            match input.read(&mut self.buf[self.end..self.end + ask]) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        self.end += n;
        self.eof = n == 0;
        Ok(n)
    }

    /// Where a block that must end at a line end ends, given that the
    /// held bytes hold `block` of them: after the last newline within
    /// the first `block` bytes, or, for a line longer than the block,
    /// after the first newline past them (reading on until it
    /// arrives). `None` when the input ends with no such newline: all
    /// that is left is one unterminated line.
    fn cut(&mut self, input: &mut dyn BufRead, block: usize) -> io::Result<Option<usize>> {
        if let Some(p) = memrchr(b'\n', &self.held()[..block]) {
            return Ok(Some(p + 1));
        }
        let mut from = block;
        loop {
            if let Some(p) = memchr(b'\n', &self.held()[from..]) {
                return Ok(Some(from + p + 1));
            }
            from = self.end - self.start;
            if self.read(input, 0)? == 0 {
                return Ok(None);
            }
        }
    }
}

/// Reads the input to its end and drops it.
fn drain(input: &mut dyn BufRead) -> io::Result<()> {
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        let n = chunk.len();
        input.consume(n);
    }
}

/// Splits the input into `outputs.len()` contiguous line-aligned
/// chunks, writing them in order, under the default look-ahead.
pub fn split_general(
    input: &mut dyn BufRead,
    outputs: &mut [Box<dyn Write + Send + '_>],
) -> io::Result<()> {
    split_general_bounded(input, outputs, DEFAULT_LOOKAHEAD)
}

/// [`split_general`] with an explicit look-ahead window.
///
/// Invariants regardless of input size vs. window:
/// * the concatenation of all outputs is exactly the input, byte for
///   byte: an unterminated last line stays unterminated;
/// * every output is one contiguous line-aligned range;
/// * the bytes held never exceed the window plus one read and one
///   line.
pub fn split_general_bounded(
    input: &mut dyn BufRead,
    outputs: &mut [Box<dyn Write + Send + '_>],
    lookahead: usize,
) -> io::Result<()> {
    let lookahead = lookahead.max(1);
    if outputs.is_empty() {
        // Degenerate zero-output call: consume and discard, matching
        // the fully-buffered path's silent drop.
        return drain(input);
    }
    let mut win = Window::default();
    if !win.fill(input, lookahead + 1)? {
        // The whole input fits: exact near-equal line counts.
        return scatter_exact(win.held(), outputs);
    }
    // Streaming path: the per-output block size adapts to the line
    // density observed in the first window (short lines ⇒ smaller
    // blocks, long lines ⇒ up to the full window), bounded by the
    // look-ahead so buffering stays constant.
    let first = win.held();
    let block = adaptive_block_size(
        first.len() as u64,
        count_byte(b'\n', first) as u64,
        lookahead,
    );
    let k = outputs.len();
    for i in 0..k.saturating_sub(1) {
        if !win.fill(input, block)? {
            // The tail arrived mid-stream: split what remains exactly
            // across the outputs not yet served.
            return scatter_exact(win.held(), &mut outputs[i..]);
        }
        // A single line longer than the block is kept whole.
        let Some(cut) = win.cut(input, block)? else {
            // EOF before any newline: everything left is one final
            // (unterminated) line.
            return scatter_exact(win.held(), &mut outputs[i..]);
        };
        write_last_chunk(&mut outputs[i], &win.held()[..cut])?;
        win.consume(cut);
    }
    // Last output: stream the remainder through without buffering.
    let last = outputs.last_mut().expect("outputs non-empty").as_mut();
    write_chunk(last, win.held())?;
    drop(win);
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        let n = chunk.len();
        write_chunk(last, chunk)?;
        input.consume(n);
    }
}

/// Splits the input into line-aligned blocks dealt round-robin across
/// the outputs (`r_split`), under the default block-size bound.
///
/// With `framed`, each block is stamped with its sequence tag
/// ([`crate::frame`]); downstream `pash-agg-reorder` restores input
/// order. Without, bare blocks flow to commutative consumers.
pub fn split_round_robin(
    input: &mut dyn BufRead,
    outputs: &mut [Box<dyn Write + Send + '_>],
    framed: bool,
) -> io::Result<()> {
    split_round_robin_bounded(input, outputs, framed, DEFAULT_LOOKAHEAD)
}

/// [`split_round_robin`] with an explicit block-size bound.
///
/// Invariants:
/// * the tag-ordered (for raw: emission-ordered) concatenation of all
///   blocks is exactly the input, byte for byte: an unterminated last
///   line ends the last block unterminated;
/// * every block is line-aligned, and a single line longer than the
///   block bound is kept whole;
/// * block sizes adapt to the observed line density
///   ([`adaptive_block_size`] over the exact byte and newline counts
///   of the blocks dealt so far), so the bytes held never exceed the
///   bound plus one read and one line, and load balances regardless of
///   line-length skew.
///
/// The blocks are a function of the input bytes alone: block `t`
/// holds the next `adaptive_block_size(bytes, lines, max_block)` bytes
/// cut back to their last newline (or on to the first newline after
/// them, for a longer line), and the rest of the input when less than
/// that is left. How the reads happen to fall does not move a cut.
pub fn split_round_robin_bounded(
    input: &mut dyn BufRead,
    outputs: &mut [Box<dyn Write + Send + '_>],
    framed: bool,
    max_block: usize,
) -> io::Result<()> {
    if framed {
        let mut sinks: Vec<Sink> = outputs
            .iter_mut()
            .map(|out| Sink::Bytes(Box::new(out)))
            .collect();
        return deal_frames(input, &mut sinks, max_block);
    }
    deal(input, outputs.len(), max_block, |i, _, block| {
        write_chunk(outputs[i].as_mut(), block)
    })
}

/// The framed deal of [`split_round_robin_bounded`], onto sinks of
/// either carrier: each block goes out as one frame under its tag.
pub(crate) fn deal_frames(
    input: &mut dyn BufRead,
    sinks: &mut [Sink],
    max_block: usize,
) -> io::Result<()> {
    deal(input, sinks.len(), max_block, |i, tag, block| {
        abandoned(sinks[i].put_frame(tag, block))
    })
}

/// Cuts the input into the blocks [`split_round_robin_bounded`]
/// describes and hands block `t` to `emit(t mod k, t, block)`.
fn deal(
    input: &mut dyn BufRead,
    k: usize,
    max_block: usize,
    mut emit: impl FnMut(usize, u64, &[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let max_block = max_block.max(1);
    if k == 0 {
        return drain(input);
    }
    let mut win = Window::default();
    let mut bytes_seen = 0u64;
    let mut lines_seen = 0u64;
    let mut tag = 0u64;
    loop {
        let block = adaptive_block_size(bytes_seen, lines_seen, max_block);
        let cut = if win.fill(input, block)? {
            win.cut(input, block)?
        } else {
            None
        };
        // Without a cut, everything that remains is the final block.
        let cut = cut.unwrap_or(win.held().len());
        if cut == 0 {
            return Ok(());
        }
        let payload = &win.held()[..cut];
        bytes_seen += cut as u64;
        lines_seen += count_byte(b'\n', payload) as u64;
        emit((tag % k as u64) as usize, tag, payload)?;
        tag += 1;
        win.consume(cut);
    }
}

/// A write's result with a broken pipe read as success: a consumer
/// that exited early abandons the rest of its blocks, and must not
/// stall the others'.
pub(crate) fn abandoned(res: io::Result<()>) -> io::Result<()> {
    match res {
        Err(err) if err.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        res => res,
    }
}

/// Writes one chunk, abandoned if its consumer is gone.
fn write_chunk(out: &mut (dyn Write + Send + '_), data: &[u8]) -> io::Result<()> {
    abandoned(out.write_all(data))
}

/// Writes an output's whole range and closes it: the writer is
/// flushed and dropped (a sink takes its slot), so its consumer sees
/// end of input now and not when the split returns. A `cat` over FIFOs
/// reads branch `i` to its end before it opens branch `i + 1`; held
/// open, an early branch would keep it from ever opening the branch
/// the split is still writing.
fn write_last_chunk(out: &mut Box<dyn Write + Send + '_>, data: &[u8]) -> io::Result<()> {
    write_chunk(out.as_mut(), data)?;
    let flushed = out.flush();
    *out = Box::new(io::sink());
    match flushed {
        Err(err) if err.kind() != io::ErrorKind::BrokenPipe => Err(err),
        _ => Ok(()),
    }
}

/// Scatters fully-buffered data as contiguous chunks of near-equal
/// line counts (the exact split of the paper). A final unterminated
/// line counts as a line and is delivered as it is.
fn scatter_exact(data: &[u8], outputs: &mut [Box<dyn Write + Send + '_>]) -> io::Result<()> {
    let unterminated = data.last().is_some_and(|&b| b != b'\n');
    let n = count_byte(b'\n', data) + usize::from(unterminated);
    let k = outputs.len().max(1);
    let base = n / k;
    let extra = n % k;
    let mut s = 0usize;
    for (i, out) in outputs.iter_mut().enumerate() {
        let take = base + usize::from(i < extra);
        // Past the `take`-th newline from `s`; the last line may have
        // none, and then the range runs to the end.
        let e = match take.checked_sub(1) {
            None => s,
            Some(nth) => nth_byte(b'\n', &data[s..], nth).map_or(data.len(), |p| s + p + 1),
        };
        write_last_chunk(out, &data[s..e])?;
        s = e;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn split_with(input: &str, k: usize, lookahead: Option<usize>) -> Vec<Vec<u8>> {
        let sinks: Vec<std::sync::Arc<std::sync::Mutex<Vec<u8>>>> =
            (0..k).map(|_| Default::default()).collect();
        struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().expect("sink lock").extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut outs: Vec<Box<dyn Write + Send>> = sinks
            .iter()
            .map(|s| Box::new(SharedSink(s.clone())) as Box<dyn Write + Send>)
            .collect();
        let mut r = io::BufReader::new(io::Cursor::new(input.as_bytes().to_vec()));
        match lookahead {
            None => split_general(&mut r, &mut outs).expect("split"),
            Some(la) => split_general_bounded(&mut r, &mut outs, la).expect("split"),
        }
        drop(outs);
        sinks
            .iter()
            .map(|s| s.lock().expect("sink lock").clone())
            .collect()
    }

    fn split_into(input: &str, k: usize) -> Vec<Vec<u8>> {
        split_with(input, k, None)
    }

    #[test]
    fn splits_evenly() {
        let parts = split_into("1\n2\n3\n4\n5\n6\n", 3);
        assert_eq!(parts[0], b"1\n2\n");
        assert_eq!(parts[1], b"3\n4\n");
        assert_eq!(parts[2], b"5\n6\n");
    }

    #[test]
    fn an_output_closes_before_the_next_is_written() {
        // What a `cat` over FIFOs needs: branch `i` at its end while
        // the split still writes branch `i + 1`. Both the exact path
        // (input within the look-ahead) and the streaming one.
        type Log = std::sync::Arc<std::sync::Mutex<Vec<String>>>;
        struct Logged(usize, Log);
        impl Write for Logged {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.1
                    .lock()
                    .expect("log")
                    .push(format!("write {}", self.0));
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        impl Drop for Logged {
            fn drop(&mut self) {
                self.1
                    .lock()
                    .expect("log")
                    .push(format!("close {}", self.0));
            }
        }
        let input = "line\n".repeat(4_000);
        for lookahead in [1 << 20, 4_096] {
            let log = Log::default();
            let mut outs: Vec<Box<dyn Write + Send>> = (0..3)
                .map(|i| Box::new(Logged(i, log.clone())) as Box<dyn Write + Send>)
                .collect();
            let mut r = io::BufReader::new(io::Cursor::new(input.as_bytes().to_vec()));
            split_general_bounded(&mut r, &mut outs, lookahead).expect("split");
            let log = log.lock().expect("log");
            let at = |what: &str| log.iter().position(|e| e == what).expect(what);
            assert!(at("close 0") < at("write 1"), "{log:?}");
            assert!(at("close 1") < at("write 2"), "{log:?}");
        }
    }

    #[test]
    fn uneven_division_front_loads() {
        let parts = split_into("1\n2\n3\n4\n5\n", 2);
        assert_eq!(parts[0], b"1\n2\n3\n");
        assert_eq!(parts[1], b"4\n5\n");
    }

    #[test]
    fn fewer_lines_than_outputs() {
        let parts = split_into("only\n", 4);
        assert_eq!(parts[0], b"only\n");
        assert!(parts[1..].iter().all(|p| p.is_empty()));
    }

    #[test]
    fn empty_input() {
        let parts = split_into("", 3);
        assert!(parts.iter().all(|p| p.is_empty()));
    }

    #[test]
    fn zero_outputs_drains_input_without_panicking() {
        // Degenerate call, but both the buffered and the streaming
        // path must drain and return Ok rather than panic.
        let big: String = (0..200).map(|i| format!("line{i}\n")).collect();
        for lookahead in [None, Some(64)] {
            let parts = split_with(&big, 0, lookahead);
            assert!(parts.is_empty());
        }
    }

    #[test]
    fn streaming_path_preserves_concatenation() {
        // 100 lines of ~6 bytes against a 64-byte window: forces the
        // block-per-output streaming path.
        let input: String = (0..100).map(|i| format!("l{i:03}\n")).collect();
        let parts = split_with(&input, 4, Some(64));
        assert_eq!(parts.concat(), input.as_bytes());
        // Every output is line-aligned.
        for p in &parts {
            assert!(p.is_empty() || p.last() == Some(&b'\n'));
        }
        // The early outputs carry roughly a window's worth, not a
        // quarter of the input.
        assert!(parts[0].len() <= 64 + 6);
        assert!(!parts[3].is_empty());
    }

    #[test]
    fn streaming_keeps_long_lines_whole() {
        let long = "x".repeat(500);
        let input = format!("{long}\na\nb\nc\n");
        let parts = split_with(&input, 3, Some(16));
        assert_eq!(parts.concat(), input.as_bytes());
        // The 500-byte line exceeded the window but was not torn.
        assert!(parts[0].starts_with(long.as_bytes()));
        assert_eq!(&parts[0][long.len()..long.len() + 1], b"\n");
    }

    #[test]
    fn streaming_passes_an_unterminated_tail_through() {
        let input: String = (0..50).map(|i| format!("{i}\n")).collect::<String>() + "tail";
        let parts = split_with(&input, 2, Some(32));
        assert_eq!(parts.concat(), input.as_bytes());
        assert!(parts[1].ends_with(b"\ntail"));
    }

    #[test]
    fn eof_mid_stream_rebalances_remaining_outputs() {
        // Window 32, 3 outputs, ~90 bytes: output 0 gets a block, the
        // remainder splits exactly across outputs 1 and 2.
        let input: String = (0..18).map(|i| format!("x{i:03}\n")).collect();
        let parts = split_with(&input, 3, Some(32));
        assert_eq!(parts.concat(), input.as_bytes());
        assert!(!parts[1].is_empty());
        assert!(!parts[2].is_empty());
    }

    fn rr_split_with(input: &str, k: usize, framed: bool, max_block: usize) -> Vec<Vec<u8>> {
        let mut r = io::BufReader::new(io::Cursor::new(input.as_bytes().to_vec()));
        rr_deal(&mut r, k, framed, max_block)
    }

    fn rr_deal(input: &mut dyn BufRead, k: usize, framed: bool, max_block: usize) -> Vec<Vec<u8>> {
        let sinks: Vec<std::sync::Arc<std::sync::Mutex<Vec<u8>>>> =
            (0..k).map(|_| Default::default()).collect();
        struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().expect("sink lock").extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut outs: Vec<Box<dyn Write + Send>> = sinks
            .iter()
            .map(|s| Box::new(SharedSink(s.clone())) as Box<dyn Write + Send>)
            .collect();
        split_round_robin_bounded(input, &mut outs, framed, max_block).expect("r_split");
        drop(outs);
        sinks
            .iter()
            .map(|s| s.lock().expect("sink lock").clone())
            .collect()
    }

    /// The `(tag, len)` of every block `r_split` deals from `input`
    /// under `max_block`, worked out a byte at a time: the definition
    /// the splitter must meet however its reads fall.
    fn reference_layout(input: &[u8], max_block: usize) -> Vec<(u64, usize)> {
        let mut layout = Vec::new();
        let (mut bytes, mut lines, mut at) = (0u64, 0u64, 0usize);
        while at < input.len() {
            let rest = &input[at..];
            let block = adaptive_block_size(bytes, lines, max_block);
            let len = if rest.len() < block {
                rest.len()
            } else if let Some(p) = rest[..block].iter().rposition(|&b| b == b'\n') {
                p + 1
            } else {
                rest[block..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(rest.len(), |p| block + p + 1)
            };
            bytes += len as u64;
            lines += rest[..len].iter().filter(|&&b| b == b'\n').count() as u64;
            layout.push((layout.len() as u64, len));
            at += len;
        }
        layout
    }

    /// Hands its bytes out in reads of a fixed cycle of sizes, none of
    /// them a block's, so cuts cannot lean on where reads end.
    struct Trickle {
        data: Vec<u8>,
        at: usize,
        turn: usize,
    }

    impl io::Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            const SIZES: [usize; 5] = [1, 7, 4093, 65_537, 300_007];
            self.turn += 1;
            let n = SIZES[self.turn % SIZES.len()]
                .min(buf.len())
                .min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// Deals `input` both through a whole-buffer reader and a trickle
    /// behind a small `BufReader`, and checks both against
    /// [`reference_layout`]: framed, the tags and payload lengths;
    /// raw, that output `i` is the blocks `i, i + k, …` back to back.
    fn assert_layout(input: &[u8], k: usize, framed: bool, max_block: usize) {
        let want = reference_layout(input, max_block);
        let mut starts = vec![0usize];
        for &(_, len) in &want {
            starts.push(starts.last().expect("a start") + len);
        }
        let mut whole = io::BufReader::new(io::Cursor::new(input.to_vec()));
        let mut trickle = io::BufReader::with_capacity(
            1000,
            Trickle {
                data: input.to_vec(),
                at: 0,
                turn: 0,
            },
        );
        for reader in [&mut whole as &mut dyn BufRead, &mut trickle] {
            let parts = rr_deal(reader, k, framed, max_block);
            let what = format!(
                "{} bytes, k {k}, framed {framed}, bound {max_block}",
                input.len()
            );
            if framed {
                let mut got: Vec<(u64, usize)> = frames_of(&parts)
                    .into_iter()
                    .map(|(tag, payload)| (tag, payload.len()))
                    .collect();
                got.sort_unstable();
                assert_eq!(got, want, "{what}");
            } else {
                for (i, part) in parts.iter().enumerate() {
                    let mut dealt = Vec::with_capacity(part.len());
                    for t in (i..want.len()).step_by(k) {
                        dealt.extend_from_slice(&input[starts[t]..starts[t + 1]]);
                    }
                    assert!(*part == dealt, "output {i}: {what}");
                }
            }
        }
    }

    /// A seeded corpus of `lines` lines: mostly short, every so often
    /// one of up to `long` bytes.
    fn skewed_corpus(seed: u64, lines: usize, long: usize) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut out = Vec::new();
        for _ in 0..lines {
            let len = match next() % 16 {
                0 => next() as usize % long,
                _ => next() as usize % 40,
            };
            out.extend((0..len).map(|i| b'a' + (i % 26) as u8));
            out.push(b'\n');
        }
        out
    }

    #[test]
    fn round_robin_frames_are_the_byte_counted_layout() {
        let mut corpora = vec![
            Vec::new(),
            skewed_corpus(1, 3_000, 300),
            skewed_corpus(2, 1_500, 40_000),
        ];
        // An unterminated tail, after short lines and alone.
        let mut tail = skewed_corpus(3, 2_000, 500);
        tail.extend_from_slice(b"no newline at the end");
        corpora.push(tail);
        corpora.push(b"one unterminated line".to_vec());
        for bound in [1, 17, 16 * 1024] {
            for input in &corpora {
                for framed in [true, false] {
                    assert_layout(input, 3, framed, bound);
                }
            }
        }
        // The default bound: lines longer than it, between short ones,
        // and one at the very end without its newline.
        let mut long = skewed_corpus(4, 4_000, 2_000);
        long.extend(std::iter::repeat_n(b'x', DEFAULT_LOOKAHEAD + 12_345));
        long.push(b'\n');
        long.extend(skewed_corpus(5, 4_000, 2_000));
        long.extend(std::iter::repeat_n(b'y', DEFAULT_LOOKAHEAD + 1));
        for framed in [true, false] {
            assert_layout(&long, 3, framed, DEFAULT_LOOKAHEAD);
            assert_layout(&corpora[2], 2, framed, DEFAULT_LOOKAHEAD);
        }
    }

    /// Reads every frame off each part; returns (tag, payload) pairs.
    fn frames_of(parts: &[Vec<u8>]) -> Vec<(u64, Vec<u8>)> {
        let mut all = Vec::new();
        for p in parts {
            let mut r = crate::frame::FrameReader::new(io::Cursor::new(p.clone()));
            while let Some(f) = r.next_frame().expect("frame") {
                all.push(f);
            }
        }
        all
    }

    #[test]
    fn round_robin_framed_restores_input_in_tag_order() {
        let input: String = (0..100).map(|i| format!("l{i:03}\n")).collect();
        let parts = rr_split_with(&input, 3, true, 32);
        let mut frames = frames_of(&parts);
        frames.sort_by_key(|(t, _)| *t);
        // Tags are dense from zero and the ordered payloads are the
        // input, byte for byte.
        for (i, (t, _)) in frames.iter().enumerate() {
            assert_eq!(*t, i as u64);
        }
        let joined: Vec<u8> = frames.into_iter().flat_map(|(_, p)| p).collect();
        assert_eq!(joined, input.into_bytes());
    }

    #[test]
    fn round_robin_deals_tags_by_rotation() {
        let input: String = (0..60).map(|i| format!("l{i:03}\n")).collect();
        let parts = rr_split_with(&input, 4, true, 16);
        for (i, p) in parts.iter().enumerate() {
            let mut r = crate::frame::FrameReader::new(io::Cursor::new(p.clone()));
            let mut expect = i as u64;
            while let Some((tag, _)) = r.next_frame().expect("frame") {
                assert_eq!(tag, expect, "output {i} carries tags i, i+k, i+2k, …");
                expect += 4;
            }
        }
    }

    #[test]
    fn round_robin_raw_concatenates_by_rotation() {
        let input: String = (0..40).map(|i| format!("{i}\n")).collect();
        let parts = rr_split_with(&input, 3, false, 16);
        // Raw blocks carry no tags, so only multiset equality can be
        // checked structurally: every output is line-aligned and the
        // line sets union back to the input.
        let mut all: Vec<&[u8]> = Vec::new();
        for p in &parts {
            assert!(p.is_empty() || p.last() == Some(&b'\n'));
            all.extend(p.split_inclusive(|&b| b == b'\n'));
        }
        let mut want: Vec<&[u8]> = input.as_bytes().split_inclusive(|&b| b == b'\n').collect();
        all.sort_unstable();
        want.sort_unstable();
        assert_eq!(all, want);
    }

    #[test]
    fn round_robin_balances_skewed_line_lengths() {
        // Pathological for the segment splitter: line lengths grow so
        // the back half holds most of the bytes. Round-robin deals
        // fixed-size blocks, so the byte spread stays bounded by a
        // couple of blocks regardless of the skew.
        let input: String = (0..400)
            .map(|i| format!("{}\n", "x".repeat(1 + (i / 4) * 3)))
            .collect();
        let block = 4 * 1024;
        let parts = rr_split_with(&input, 4, false, block);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        let max = *sizes.iter().max().expect("sizes");
        let min = *sizes.iter().min().expect("sizes");
        assert!(
            max - min <= 2 * block + 400,
            "skewed input must stay balanced: {sizes:?}"
        );
    }

    #[test]
    fn round_robin_empty_input_emits_no_frames() {
        let parts = rr_split_with("", 3, true, 64);
        assert!(parts.iter().all(|p| p.is_empty()));
    }

    #[test]
    fn round_robin_passes_an_unterminated_tail_through() {
        for block in [1, 1024] {
            let parts = rr_split_with("a\nb", 2, true, block);
            let mut frames = frames_of(&parts);
            frames.sort_by_key(|(t, _)| *t);
            let joined: Vec<u8> = frames.into_iter().flat_map(|(_, p)| p).collect();
            assert_eq!(joined, b"a\nb", "block {block}");
        }
    }

    #[test]
    fn adaptive_block_grows_with_line_length() {
        // Short lines: the average-line estimate stays at the floor.
        let short = adaptive_block_size(6 * 2048, 2048, usize::MAX);
        assert_eq!(short, MIN_ADAPTIVE_BLOCK);
        // Long lines: the block scales to hold ~TARGET_LINES_PER_BLOCK
        // of them, so per-block dispatch overhead stays amortized.
        let long = adaptive_block_size(512 * 2048, 2048, usize::MAX);
        assert_eq!(long, 512 * 2048);
        assert!(long > short);
        // The bound always wins.
        assert_eq!(adaptive_block_size(512 * 2048, 2048, 64 * 1024), 64 * 1024);
        // No lines seen yet: floor, clamped.
        assert_eq!(adaptive_block_size(10, 0, usize::MAX), MIN_ADAPTIVE_BLOCK);
        assert_eq!(adaptive_block_size(10, 0, 64), 64);
    }

    #[test]
    fn adaptive_sizing_short_vs_long_line_corpora() {
        // Satellite regression: the same splitter call dispatches far
        // fewer, larger blocks on a long-line corpus than a naive
        // fixed tiny block would, while short-line corpora stay at
        // the floor. Block count ≈ bytes / chosen-block-size.
        let short_input: String = (0..4000).map(|i| format!("s{i}\n")).collect();
        let short_parts = rr_split_with(&short_input, 2, true, 1 << 20);
        let short_frames = frames_of(&short_parts).len();
        // ~24 KiB of short lines at a 16 KiB floor → a small handful
        // of blocks, not one per line.
        assert!(short_frames <= 4, "{short_frames} frames");

        let long_line = "y".repeat(8 * 1024);
        let long_input: String = (0..64).map(|_| format!("{long_line}\n")).collect();
        let long_parts = rr_split_with(&long_input, 2, true, 1 << 20);
        for (_, payload) in frames_of(&long_parts) {
            // Every 8 KiB line stays whole even though it dwarfs the
            // 16 KiB floor-sized early blocks.
            assert_eq!(payload.len() % (8 * 1024 + 1), 0);
        }
    }

    /// `lines`, each newline-terminated, then `tail` unterminated (an
    /// empty tail leaves the input ending in a newline).
    fn lines_then(lines: &[String], tail: &str) -> String {
        lines.iter().map(|l| format!("{l}\n")).collect::<String>() + tail
    }

    proptest! {
        #[test]
        fn prop_round_robin_tag_order_identity(
            lines in proptest::collection::vec("[a-z]{0,12}", 0..80),
            tail in "[a-z]{0,12}",
            k in 1usize..6,
            block in 1usize..96,
        ) {
            let input = lines_then(&lines, &tail);
            let parts = rr_split_with(&input, k, true, block);
            let mut frames = frames_of(&parts);
            frames.sort_by_key(|(t, _)| *t);
            let joined: Vec<u8> = frames.into_iter().flat_map(|(_, p)| p).collect();
            prop_assert_eq!(joined, input.into_bytes());
        }

        #[test]
        fn prop_round_robin_layout_is_the_byte_counted_one(
            lines in proptest::collection::vec("[a-z]{0,30}", 0..80),
            tail in "[a-z]{0,12}",
            k in 1usize..4,
            block in 1usize..96,
            framed in 0u8..2,
        ) {
            assert_layout(lines_then(&lines, &tail).as_bytes(), k, framed == 1, block);
        }

        #[test]
        fn prop_concatenation_identity(
            lines in proptest::collection::vec("[a-z ]{0,10}", 0..60),
            tail in "[a-z ]{0,10}",
            k in 1usize..8,
        ) {
            let input = lines_then(&lines, &tail);
            let parts = split_into(&input, k);
            let joined: Vec<u8> = parts.concat();
            prop_assert_eq!(joined, input.into_bytes());
        }

        #[test]
        fn prop_balanced_within_one_line(
            n in 0usize..100,
            k in 1usize..8,
        ) {
            let input: String = (0..n).map(|i| format!("{i}\n")).collect();
            let parts = split_into(&input, k);
            let counts: Vec<usize> = parts
                .iter()
                .map(|p| p.iter().filter(|&&b| b == b'\n').count())
                .collect();
            let max = counts.iter().max().copied().unwrap_or(0);
            let min = counts.iter().min().copied().unwrap_or(0);
            prop_assert!(max - min <= 1);
        }

        #[test]
        fn prop_bounded_lookahead_concatenation_identity(
            lines in proptest::collection::vec("[a-z]{0,12}", 0..80),
            tail in "[a-z]{0,12}",
            k in 1usize..6,
            lookahead in 1usize..96,
        ) {
            let input = lines_then(&lines, &tail);
            let parts = split_with(&input, k, Some(lookahead));
            let joined: Vec<u8> = parts.concat();
            prop_assert_eq!(joined, input.into_bytes());
        }
    }
}
