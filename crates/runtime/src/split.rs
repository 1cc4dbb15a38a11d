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

use crate::frame::write_frame;
use std::io::{self, BufRead, Write};

/// Default look-ahead window: inputs up to this size split exactly;
/// larger inputs stream through in blocks of up to this size.
pub const DEFAULT_LOOKAHEAD: usize = 4 * 1024 * 1024;

/// Smallest adaptive block: short-line inputs converge here instead of
/// shipping the whole look-ahead window as one block.
pub const MIN_ADAPTIVE_BLOCK: usize = 16 * 1024;

/// The adaptive sizing targets this many lines per block.
pub const TARGET_LINES_PER_BLOCK: u64 = 2048;

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

/// Splits the input into `outputs.len()` contiguous line-aligned
/// chunks, writing them in order, under the default look-ahead.
pub fn split_general(
    input: &mut dyn BufRead,
    outputs: &mut [Box<dyn Write + Send>],
) -> io::Result<()> {
    split_general_bounded(input, outputs, DEFAULT_LOOKAHEAD)
}

/// [`split_general`] with an explicit look-ahead window.
///
/// Invariants regardless of input size vs. window:
/// * the concatenation of all outputs is exactly the input (with a
///   final missing newline restored, as the line-oriented contract
///   requires);
/// * every output is one contiguous line-aligned range;
/// * buffered bytes never exceed the window plus one line.
pub fn split_general_bounded(
    input: &mut dyn BufRead,
    outputs: &mut [Box<dyn Write + Send>],
    lookahead: usize,
) -> io::Result<()> {
    let lookahead = lookahead.max(1);
    if outputs.is_empty() {
        // Degenerate zero-output call: consume and discard, matching
        // the fully-buffered path's silent drop.
        loop {
            let chunk = input.fill_buf()?;
            if chunk.is_empty() {
                return Ok(());
            }
            let n = chunk.len();
            input.consume(n);
        }
    }
    let mut buf: Vec<u8> = Vec::new();
    let eof = fill(input, &mut buf, lookahead + 1)?;
    if eof {
        // The whole input fits: exact near-equal line counts.
        return scatter_exact(buf, outputs);
    }
    // Streaming path: the per-output block size adapts to the line
    // density observed in the first window (short lines ⇒ smaller
    // blocks, long lines ⇒ up to the full window), bounded by the
    // look-ahead so buffering stays constant.
    let block = adaptive_block_size(buf.len() as u64, count_newlines(&buf), lookahead);
    let k = outputs.len();
    for i in 0..k.saturating_sub(1) {
        let eof = fill(input, &mut buf, block)?;
        if eof {
            // The tail arrived mid-stream: split what remains exactly
            // across the outputs not yet served.
            return scatter_exact(buf, &mut outputs[i..]);
        }
        // Cut at the last newline inside the block; a single line
        // longer than the block is kept whole (extend to its end).
        let cut = match buf[..block.min(buf.len())]
            .iter()
            .rposition(|&b| b == b'\n')
        {
            Some(p) => p + 1,
            None => match read_through_newline(input, &mut buf)? {
                Some(p) => p + 1,
                // EOF before any newline: everything left is one
                // final (unterminated) line.
                None => {
                    return scatter_exact(buf, &mut outputs[i..]);
                }
            },
        };
        write_last_chunk(&mut outputs[i], &buf[..cut])?;
        buf.drain(..cut);
    }
    // Last output: stream the remainder through without buffering.
    let last = outputs.last_mut().expect("outputs non-empty").as_mut();
    let mut ends_with_nl = buf.last() == Some(&b'\n');
    let mut wrote_any = !buf.is_empty();
    write_chunk(last, &buf)?;
    drop(buf);
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            break;
        }
        let n = chunk.len();
        ends_with_nl = chunk[n - 1] == b'\n';
        wrote_any = true;
        write_chunk(last, chunk)?;
        input.consume(n);
    }
    if wrote_any && !ends_with_nl {
        write_chunk(last, b"\n")?;
    }
    Ok(())
}

/// Splits the input into line-aligned blocks dealt round-robin across
/// the outputs (`r_split`), under the default block-size bound.
///
/// With `framed`, each block is stamped with its sequence tag
/// ([`crate::frame`]); downstream `pash-agg-reorder` restores input
/// order. Without, bare blocks flow to commutative consumers.
pub fn split_round_robin(
    input: &mut dyn BufRead,
    outputs: &mut [Box<dyn Write + Send>],
    framed: bool,
) -> io::Result<()> {
    split_round_robin_bounded(input, outputs, framed, DEFAULT_LOOKAHEAD)
}

/// [`split_round_robin`] with an explicit block-size bound.
///
/// Invariants:
/// * the tag-ordered (for raw: emission-ordered) concatenation of all
///   blocks is exactly the input, with a final missing newline
///   restored;
/// * every block is line-aligned, and a single line longer than the
///   block bound is kept whole;
/// * block sizes adapt to the observed line density
///   ([`adaptive_block_size`]), so buffering never exceeds the bound
///   plus one line and load balances regardless of line-length skew.
pub fn split_round_robin_bounded(
    input: &mut dyn BufRead,
    outputs: &mut [Box<dyn Write + Send>],
    framed: bool,
    max_block: usize,
) -> io::Result<()> {
    let max_block = max_block.max(1);
    if outputs.is_empty() {
        loop {
            let chunk = input.fill_buf()?;
            if chunk.is_empty() {
                return Ok(());
            }
            let n = chunk.len();
            input.consume(n);
        }
    }
    let k = outputs.len();
    let mut buf: Vec<u8> = Vec::new();
    let mut bytes_seen = 0u64;
    let mut lines_seen = 0u64;
    let mut tag = 0u64;
    loop {
        let block = adaptive_block_size(bytes_seen, lines_seen, max_block);
        let eof = fill(input, &mut buf, block)?;
        if buf.is_empty() {
            return Ok(());
        }
        let cut = if eof {
            // Everything that remains is the final block; the
            // line-oriented contract restores a missing newline.
            if buf.last() != Some(&b'\n') {
                buf.push(b'\n');
            }
            buf.len()
        } else {
            match buf[..block.min(buf.len())]
                .iter()
                .rposition(|&b| b == b'\n')
            {
                Some(p) => p + 1,
                // A line longer than the block: keep it whole.
                None => match read_through_newline(input, &mut buf)? {
                    Some(p) => p + 1,
                    None => {
                        if buf.last() != Some(&b'\n') {
                            buf.push(b'\n');
                        }
                        buf.len()
                    }
                },
            }
        };
        bytes_seen += cut as u64;
        lines_seen += count_newlines(&buf[..cut]);
        let out = outputs[(tag as usize) % k].as_mut();
        if framed {
            write_frame_abandoning(out, tag, &buf[..cut])?;
        } else {
            write_chunk(out, &buf[..cut])?;
        }
        tag += 1;
        buf.drain(..cut);
        if eof && buf.is_empty() {
            return Ok(());
        }
    }
}

/// Number of newlines in a chunk.
fn count_newlines(data: &[u8]) -> u64 {
    data.iter().filter(|&&b| b == b'\n').count() as u64
}

/// [`write_frame`] with the same broken-pipe tolerance as
/// [`write_chunk`]: an early-exiting consumer abandons its blocks.
fn write_frame_abandoning(
    out: &mut (dyn Write + Send),
    tag: u64,
    payload: &[u8],
) -> io::Result<()> {
    match write_frame(out, tag, payload) {
        Ok(()) => Ok(()),
        Err(err) if err.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        Err(err) => Err(err),
    }
}

/// Reads until `buf` holds at least `target` bytes or EOF; returns
/// whether EOF was reached.
fn fill(input: &mut dyn BufRead, buf: &mut Vec<u8>, target: usize) -> io::Result<bool> {
    while buf.len() < target {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(true);
        }
        let n = chunk.len();
        buf.extend_from_slice(chunk);
        input.consume(n);
    }
    Ok(false)
}

/// Extends `buf` until it contains a newline at or past its current
/// end-of-window, returning the newline's position (`None` at EOF).
fn read_through_newline(input: &mut dyn BufRead, buf: &mut Vec<u8>) -> io::Result<Option<usize>> {
    let mut from = buf.len();
    loop {
        if let Some(p) = buf[from..].iter().position(|&b| b == b'\n') {
            return Ok(Some(from + p));
        }
        from = buf.len();
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(None);
        }
        let n = chunk.len();
        buf.extend_from_slice(chunk);
        input.consume(n);
    }
}

/// A consumer that exited early must not stall the remaining chunks;
/// treat its broken pipe as "chunk abandoned".
fn write_chunk(out: &mut (dyn Write + Send), data: &[u8]) -> io::Result<()> {
    match out.write_all(data) {
        Ok(()) => Ok(()),
        Err(err) if err.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        Err(err) => Err(err),
    }
}

/// Writes an output's whole range and closes it: the writer is
/// flushed and dropped (a sink takes its slot), so its consumer sees
/// end of input now and not when the split returns. A `cat` over FIFOs
/// reads branch `i` to its end before it opens branch `i + 1`; held
/// open, an early branch would keep it from ever opening the branch
/// the split is still writing.
fn write_last_chunk(out: &mut Box<dyn Write + Send>, data: &[u8]) -> io::Result<()> {
    write_chunk(out.as_mut(), data)?;
    let flushed = out.flush();
    *out = Box::new(io::sink());
    match flushed {
        Err(err) if err.kind() != io::ErrorKind::BrokenPipe => Err(err),
        _ => Ok(()),
    }
}

/// Scatters fully-buffered data as contiguous chunks of near-equal
/// line counts (the exact split of the paper).
fn scatter_exact(mut data: Vec<u8>, outputs: &mut [Box<dyn Write + Send>]) -> io::Result<()> {
    // The line-oriented contract: a final unterminated line is still a
    // line, delivered with a newline (as the per-line path always did).
    if data.last().is_some_and(|&b| b != b'\n') {
        data.push(b'\n');
    }
    // Line-start index; a trailing sentinel marks end-of-data so line
    // `i` spans `starts[i]..starts[i + 1]`.
    let mut starts: Vec<usize> = Vec::with_capacity(data.len() / 32 + 2);
    if !data.is_empty() {
        starts.push(0);
        for (i, &b) in data.iter().enumerate() {
            if b == b'\n' && i + 1 < data.len() {
                starts.push(i + 1);
            }
        }
    }
    starts.push(data.len());

    let k = outputs.len().max(1);
    let n = starts.len() - 1;
    let base = n / k;
    let extra = n % k;
    let mut idx = 0usize;
    for (i, out) in outputs.iter_mut().enumerate() {
        let take = base + usize::from(i < extra);
        let (s, e) = (starts[idx], starts[idx + take]);
        write_last_chunk(out, &data[s..e])?;
        idx += take;
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
    fn streaming_appends_missing_final_newline() {
        let input: String = (0..50).map(|i| format!("{i}\n")).collect::<String>() + "tail";
        let parts = split_with(&input, 2, Some(32));
        let mut want = input.into_bytes();
        want.push(b'\n');
        assert_eq!(parts.concat(), want);
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
        split_round_robin_bounded(&mut r, &mut outs, framed, max_block).expect("r_split");
        drop(outs);
        sinks
            .iter()
            .map(|s| s.lock().expect("sink lock").clone())
            .collect()
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
    fn round_robin_appends_missing_final_newline() {
        let parts = rr_split_with("a\nb", 2, true, 1024);
        let mut frames = frames_of(&parts);
        frames.sort_by_key(|(t, _)| *t);
        let joined: Vec<u8> = frames.into_iter().flat_map(|(_, p)| p).collect();
        assert_eq!(joined, b"a\nb\n");
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

    proptest! {
        #[test]
        fn prop_round_robin_tag_order_identity(
            lines in proptest::collection::vec("[a-z]{0,12}", 0..80),
            k in 1usize..6,
            block in 1usize..96,
        ) {
            let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
            let parts = rr_split_with(&input, k, true, block);
            let mut frames = frames_of(&parts);
            frames.sort_by_key(|(t, _)| *t);
            let joined: Vec<u8> = frames.into_iter().flat_map(|(_, p)| p).collect();
            prop_assert_eq!(joined, input.into_bytes());
        }

        #[test]
        fn prop_concatenation_identity(
            lines in proptest::collection::vec("[a-z ]{0,10}", 0..60),
            k in 1usize..8,
        ) {
            let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
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
            k in 1usize..6,
            lookahead in 1usize..96,
        ) {
            let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
            let parts = split_with(&input, k, Some(lookahead));
            let joined: Vec<u8> = parts.concat();
            prop_assert_eq!(joined, input.into_bytes());
        }
    }
}
