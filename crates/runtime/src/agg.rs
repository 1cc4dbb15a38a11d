//! The aggregator library (§5.2, "Aggregator Implementations").
//!
//! Aggregators consume *multiple ordered input streams* — the partial
//! outputs of parallel map copies — and combine them into the output
//! the sequential command would have produced. They "apply pure
//! functions at the boundaries of input streams (with the exception of
//! sort that has to interleave inputs)".
//!
//! The sort merge pulls its inputs through [`LineScanner`]s, flat
//! buffers refilled in bulk, and borrows each one's whole window of
//! lines; the other line-wise aggregators read lines or blocks
//! borrowed from a [`BLOCK_SIZE`] reader, as the commands do.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::sync::Arc;

use pash_coreutils::cmd::sort::{merge, parse_args as parse_sort_args, Records};
use pash_coreutils::cmd::wc;
use pash_coreutils::fs::Fs;
use pash_coreutils::lines::{
    add_counts, for_each_block, for_each_line, parse_count_line, push_count, write_line, BLOCK_SIZE,
};
use pash_coreutils::Registry;

use crate::frame::FrameReader;
use crate::scan::LineScanner;

/// A boxed ordered input stream.
pub type AggInput = Box<dyn Read + Send>;

/// Runs the aggregator named by `argv[0]` over ordered inputs.
///
/// `head`/`tail` re-applied over the concatenation are also accepted
/// (their own command implementations serve as their aggregators).
pub fn run_aggregator(
    argv: &[String],
    inputs: Vec<AggInput>,
    output: &mut dyn Write,
    registry: &Registry,
    fs: Arc<dyn Fs>,
) -> io::Result<i32> {
    let (name, args) = argv
        .split_first()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "empty aggregator argv"))?;
    match name.as_str() {
        "pash-agg-sort" => agg_sort(args, Records::Lines, inputs, output),
        "pash-agg-sort-c" => agg_sort(args, Records::Counted, inputs, output),
        "pash-agg-uniq" => agg_uniq(false, inputs, output),
        "pash-agg-uniq-c" => agg_uniq(true, inputs, output),
        "pash-agg-wc" => agg_wc(args, inputs, output),
        "pash-agg-sum" => agg_sum(inputs, output),
        "pash-agg-tac" => agg_tac(inputs, output),
        "pash-agg-bigram" => agg_bigram(inputs, output),
        "pash-agg-reorder" => agg_reorder(inputs, output),
        "pash-agg-frame-merge" => agg_frame_merge(args, inputs, output),
        // Re-applied commands (e.g. `head -n 1`) run over the ordered
        // concatenation of the inputs.
        _ => {
            let cmd = registry.get(name).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("unknown aggregator `{name}`"),
                )
            })?;
            let mut stdin = io::BufReader::with_capacity(
                pash_coreutils::lines::BLOCK_SIZE,
                crate::pipe::MultiReader::new(inputs),
            );
            let mut stderr = io::sink();
            let mut cio = pash_coreutils::CmdIo {
                stdin: &mut stdin,
                stdout: output,
                stderr: &mut stderr,
                fs,
                registry,
            };
            cmd.run(args, &mut cio)
        }
    }
}

/// `sort -m`: the sort family's streaming k-way merge — the
/// sequential comparator on keys prepared once per line — over the
/// windows of the batched input scanners. [`Records::Counted`] is the merge the
/// compiler leaves where a `sort`'s merge fed a `uniq -c`: its inputs
/// are per-worker `sort | uniq -c` outputs, ordered by their texts
/// under the sort's flags.
fn agg_sort(
    args: &[String],
    records: Records,
    inputs: Vec<AggInput>,
    output: &mut dyn Write,
) -> io::Result<i32> {
    let parsed =
        parse_sort_args(args).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    if records == Records::Counted && parsed.spec.unique {
        // Under `-u` equal keys are not equal lines: their counts
        // would add up to lines `sort -u | uniq -c` never saw.
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "pash-agg-sort-c: -u has no counted merge",
        ));
    }
    let scanners = inputs.into_iter().map(LineScanner::new).collect();
    merge(&parsed.spec, records, scanners, output)?;
    Ok(0)
}

/// The boundary fold of `uniq` and `uniq -c` over per-part outputs
/// arriving as blocks of whole lines, in order. Inside one part
/// adjacent lines already differ, so only a block's first line can
/// meet what came before it: the last line seen is held back and
/// stitched with the next block's first, and every line between is
/// written as it arrived — not parsed, not copied.
struct SeamFold {
    /// `uniq -c` records (equal texts add their counts) rather than
    /// plain lines (an equal line is dropped).
    counted: bool,
    /// The held-back line, without its newline, when `live`.
    held: Vec<u8>,
    live: bool,
    /// Where the held record's text starts, its count, and whether a
    /// stitch changed that count (`counted` only).
    text: usize,
    count: u64,
    recounted: bool,
}

impl SeamFold {
    fn new(counted: bool) -> SeamFold {
        SeamFold {
            counted,
            held: Vec::new(),
            live: false,
            text: 0,
            count: 0,
            recounted: false,
        }
    }

    /// Folds one block (complete lines; the stream's last may lack its
    /// newline) into the output.
    fn feed(&mut self, mut block: &[u8], output: &mut dyn Write) -> io::Result<()> {
        if block.is_empty() {
            return Ok(());
        }
        if self.live {
            let end = block
                .iter()
                .position(|&b| b == b'\n')
                .unwrap_or(block.len());
            let first = &block[..end];
            let (count, text) = if self.counted {
                parse_count_line(first)?
            } else {
                (0, first)
            };
            if text == &self.held[self.text..] {
                self.count = add_counts(self.count, count)?;
                self.recounted = self.counted;
                block = &block[(end + 1).min(block.len())..];
                if block.is_empty() {
                    // The group may go on into the next block.
                    return Ok(());
                }
            }
            self.flush(output)?;
        }
        // Everything up to the last line is final; the last is held.
        let body = block.strip_suffix(b"\n").unwrap_or(block);
        let last = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        output.write_all(&block[..last])?;
        self.held.clear();
        self.held.extend_from_slice(&body[last..]);
        self.live = true;
        self.recounted = false;
        if self.counted {
            let (count, text) = parse_count_line(&self.held)?;
            self.count = count;
            self.text = self.held.len() - text.len();
        }
        Ok(())
    }

    /// Writes the held line, if any: as it arrived unless a stitch
    /// changed its count.
    fn flush(&mut self, output: &mut dyn Write) -> io::Result<()> {
        if !std::mem::take(&mut self.live) {
            return Ok(());
        }
        if self.recounted {
            let mut prefix = Vec::with_capacity(24);
            push_count(&mut prefix, self.count);
            output.write_all(&prefix)?;
            write_line(output, &self.held[self.text..])
        } else {
            write_line(output, &self.held)
        }
    }
}

/// `uniq` / `uniq -c`: concatenate, folding the group that straddles
/// each boundary ([`SeamFold`]).
fn agg_uniq(counted: bool, inputs: Vec<AggInput>, output: &mut dyn Write) -> io::Result<i32> {
    let mut fold = SeamFold::new(counted);
    for input in inputs {
        let mut reader = io::BufReader::with_capacity(BLOCK_SIZE, input);
        for_each_block(&mut reader, |block| {
            fold.feed(block, output)?;
            Ok(true)
        })?;
    }
    fold.flush(output)?;
    Ok(0)
}

/// `wc`: sum per-part count vectors.
fn agg_wc(args: &[String], inputs: Vec<AggInput>, output: &mut dyn Write) -> io::Result<i32> {
    let (sel, _) = wc::parse_selection(args);
    let mut total = [0u64; 3];
    for input in inputs {
        let mut reader = io::BufReader::with_capacity(BLOCK_SIZE, input);
        for_each_line(&mut reader, |line| {
            let nums: Vec<u64> = std::str::from_utf8(line)
                .unwrap_or("")
                .split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect();
            for (slot, v) in total.iter_mut().zip(&nums) {
                *slot += v;
            }
            Ok(true)
        })?;
    }
    let counts = wc_counts_from(&sel, &total);
    // The parts stood for one input: a lone count prints bare, as the
    // sequential `wc` prints it.
    writeln!(output, "{}", sel.format(&counts, None, sel.width(1)))?;
    Ok(0)
}

fn wc_counts_from(sel: &wc::Selection, total: &[u64; 3]) -> wc::Counts {
    // The summed columns appear in canonical order for the selection.
    let mut it = total.iter();
    let mut counts = wc::Counts::default();
    if sel.lines {
        counts.lines = *it.next().expect("column");
    }
    if sel.words {
        counts.words = *it.next().expect("column");
    }
    if sel.bytes {
        counts.bytes = *it.next().expect("column");
    }
    counts
}

/// `grep -c` and friends: sum one integer per input.
fn agg_sum(inputs: Vec<AggInput>, output: &mut dyn Write) -> io::Result<i32> {
    let mut total: i64 = 0;
    for input in inputs {
        let mut reader = io::BufReader::with_capacity(BLOCK_SIZE, input);
        for_each_line(&mut reader, |line| {
            total += std::str::from_utf8(line)
                .unwrap_or("0")
                .trim()
                .parse::<i64>()
                .unwrap_or(0);
            Ok(true)
        })?;
    }
    writeln!(output, "{total}")?;
    Ok(0)
}

/// `tac`: consume stream descriptors in reverse order.
fn agg_tac(inputs: Vec<AggInput>, output: &mut dyn Write) -> io::Result<i32> {
    for mut input in inputs.into_iter().rev() {
        let mut buf = [0u8; 64 * 1024];
        loop {
            let n = input.read(&mut buf)?;
            if n == 0 {
                break;
            }
            output.write_all(&buf[..n])?;
        }
    }
    Ok(0)
}

/// The Bi-grams-opt custom aggregator: stitch `bigrams-aux` chunks.
///
/// Each chunk starts with a `\x01F\t<first-word>` marker and ends with
/// `\x01L\t<last-word>`; at every chunk boundary the pair
/// `<last of i> <first of i+1>` was lost by the split and is
/// re-inserted here.
fn agg_bigram(inputs: Vec<AggInput>, output: &mut dyn Write) -> io::Result<i32> {
    let mut prev_last: Option<Vec<u8>> = None;
    for input in inputs {
        let mut reader = io::BufReader::with_capacity(BLOCK_SIZE, input);
        let mut last_marker: Option<Vec<u8>> = None;
        for_each_line(&mut reader, |line| {
            if let Some(rest) = line.strip_prefix(b"\x01F\t") {
                // Boundary pair with the previous chunk.
                if let Some(last) = &prev_last {
                    let mut pair = last.clone();
                    pair.push(b' ');
                    pair.extend_from_slice(rest);
                    write_line(output, &pair)?;
                }
            } else if let Some(rest) = line.strip_prefix(b"\x01L\t") {
                last_marker = Some(rest.to_vec());
            } else {
                write_line(output, line)?;
            }
            Ok(true)
        })?;
        // An empty chunk carries the boundary over unchanged.
        if last_marker.is_some() {
            prev_last = last_marker;
        }
    }
    Ok(0)
}

/// Reads `r_split` frames from `k` inputs and hands each payload to
/// `sink` in tag order.
///
/// The splitter deals tag `t` to worker `t mod k` and framed workers
/// emit exactly one output frame per input frame, so input `i`
/// carries tags `i, i+k, i+2k, …` in order. Reading by rotation keeps
/// the reorder buffer bounded: at most `k − 1` blocks are pending at
/// any time on a conforming stream.
///
/// A tag that arrives twice, or a stream that can no longer deliver
/// the next expected tag (its owner hit EOF while later tags are
/// already buffered), is an `InvalidData` error: a missing or
/// duplicated block means a worker or edge failed, and emitting the
/// remainder would silently reorder or drop bytes. Failing fast here
/// — instead of blocking on inputs that will never produce the gap —
/// is what lets the supervisor detect a lost block and recover.
fn for_each_frame_in_tag_order(
    inputs: Vec<AggInput>,
    sink: &mut impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    fn missing_tag(next: u64) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("r_split stream ended with tag {next} missing"),
        )
    }
    let mut readers: Vec<Option<FrameReader<AggInput>>> = inputs
        .into_iter()
        .map(|i| Some(FrameReader::new(i)))
        .collect();
    let k = readers.len();
    if k == 0 {
        return Ok(());
    }
    let mut pending: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut next: u64 = 0;
    let mut live = k;
    while live > 0 {
        // Pull from the input that owns the next expected tag; once
        // it is exhausted, drain whichever input is still live.
        let owner = (next % k as u64) as usize;
        let pick = if readers[owner].is_some() {
            owner
        } else {
            // Tags are dense and owner-exclusive, so with the owner
            // exhausted, `next` can only already be buffered; a
            // buffered tag beyond it proves the stream lost a block.
            if !pending.contains_key(&next) && pending.keys().next_back().is_some_and(|&t| t > next)
            {
                return Err(missing_tag(next));
            }
            readers
                .iter()
                .position(|r| r.is_some())
                .expect("a live reader while live > 0")
        };
        match readers[pick].as_mut().expect("picked live").next_frame()? {
            Some((tag, payload)) => {
                // `tag < next` means the tag was already emitted;
                // both shapes are one lost-or-replayed block.
                if tag < next || pending.insert(tag, payload).is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("duplicate r_split tag {tag}"),
                    ));
                }
            }
            None => {
                readers[pick] = None;
                live -= 1;
            }
        }
        while let Some(payload) = pending.remove(&next) {
            sink(&payload)?;
            next += 1;
        }
    }
    if !pending.is_empty() {
        // Every input ended but a gap remains before the buffered
        // tail: the block tagged `next` never arrived.
        return Err(missing_tag(next));
    }
    Ok(())
}

/// `pash-agg-reorder`: strips `r_split` frames and writes payloads
/// back in tag order (see [`for_each_frame_in_tag_order`]).
fn agg_reorder(inputs: Vec<AggInput>, output: &mut dyn Write) -> io::Result<i32> {
    for_each_frame_in_tag_order(inputs, &mut |payload| output.write_all(payload))?;
    Ok(0)
}

/// `pash-agg-frame-merge INNER…`: the framed-pure combiner.
///
/// Parallel class-P copies ran the command once per tagged round-robin
/// block, so each output frame is the command's result on one block.
/// Restoring tag order and re-applying the command's boundary fold
/// over *every* adjacent frame pair — including frames from the same
/// worker — reconstructs the sequential output, because the wrapped
/// aggregators satisfy `f(x·x') = fold(f(x), f(x'))` exactly.
fn agg_frame_merge(
    args: &[String],
    inputs: Vec<AggInput>,
    output: &mut dyn Write,
) -> io::Result<i32> {
    let mut fold = match args.first().map(String::as_str) {
        Some("pash-agg-uniq") => SeamFold::new(false),
        Some("pash-agg-uniq-c") => SeamFold::new(true),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("pash-agg-frame-merge cannot wrap {other:?}"),
            ))
        }
    };
    for_each_frame_in_tag_order(inputs, &mut |payload| fold.feed(payload, output))?;
    fold.flush(output)?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pash_coreutils::fs::MemFs;

    fn run(argv: &[&str], inputs: &[&str]) -> String {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let inputs: Vec<AggInput> = inputs
            .iter()
            .map(|s| Box::new(io::Cursor::new(s.as_bytes().to_vec())) as AggInput)
            .collect();
        let mut out = Vec::new();
        let reg = Registry::standard();
        run_aggregator(&argv, inputs, &mut out, &reg, Arc::new(MemFs::new())).expect("agg");
        String::from_utf8(out).expect("utf8")
    }

    #[test]
    fn sort_merge_two_runs() {
        assert_eq!(
            run(&["pash-agg-sort"], &["a\nc\ne\n", "b\nd\n"]),
            "a\nb\nc\nd\ne\n"
        );
    }

    #[test]
    fn sort_merge_numeric_reverse() {
        assert_eq!(
            run(&["pash-agg-sort", "-rn"], &["30\n20\n", "25\n5\n"]),
            "30\n25\n20\n5\n"
        );
    }

    #[test]
    fn sort_merge_by_key() {
        assert_eq!(
            run(
                &["pash-agg-sort", "-k", "2", "-n"],
                &["x 1\ny 5\n", "z 3\n"]
            ),
            "x 1\nz 3\ny 5\n"
        );
    }

    #[test]
    fn sort_merge_empty_inputs() {
        assert_eq!(run(&["pash-agg-sort"], &["", "a\n", ""]), "a\n");
    }

    #[test]
    fn sort_merge_unique_across_boundaries() {
        assert_eq!(
            run(&["pash-agg-sort", "-u"], &["a\nb\n", "b\nc\n"]),
            "a\nb\nc\n"
        );
    }

    #[test]
    fn uniq_boundary_duplicate_collapsed() {
        // "b" straddles the boundary: must appear once.
        assert_eq!(run(&["pash-agg-uniq"], &["a\nb\n", "b\nc\n"]), "a\nb\nc\n");
    }

    #[test]
    fn uniq_keeps_inner_structure() {
        assert_eq!(
            run(&["pash-agg-uniq"], &["a\nb\na\n", "a\nc\n"]),
            "a\nb\na\nc\n"
        );
    }

    #[test]
    fn uniq_count_merges_boundary() {
        let out = run(
            &["pash-agg-uniq-c"],
            &["      2 a\n      1 b\n", "      3 b\n      1 c\n"],
        );
        assert_eq!(out, "      2 a\n      4 b\n      1 c\n");
    }

    #[test]
    fn uniq_seams_fold_and_interiors_pass_untouched() {
        // A group spanning three inputs, the middle one a single line,
        // with empty inputs in between.
        let out = run(
            &["pash-agg-uniq-c"],
            &[
                "      1 a\n      2 b\n",
                "",
                "      3 b\n",
                "",
                "      4 b\n      1 c\n",
            ],
        );
        assert_eq!(out, "      1 a\n      9 b\n      1 c\n");
        assert_eq!(
            run(&["pash-agg-uniq"], &["a\nb\n", "", "b\n", "b\nc\n"]),
            "a\nb\nc\n"
        );
        // Every input a single line of one group.
        assert_eq!(
            run(
                &["pash-agg-uniq-c"],
                &["      1 x\n", "      1 x\n", "      1 x\n"]
            ),
            "      3 x\n"
        );
        // Eight-digit counts outgrow the column, as `uniq -c` prints
        // them; an untouched record keeps whatever padding it had.
        assert_eq!(
            run(
                &["pash-agg-uniq-c"],
                &["9999999 a\n 5 z\n", " 5 z\n12345678 q\n"]
            ),
            "9999999 a\n     10 z\n12345678 q\n"
        );
        assert_eq!(
            run(&["pash-agg-uniq-c"], &["9999999 a\n", "      1 a\n"]),
            "10000000 a\n"
        );
        // No final newline, at a seam and at the end of the stream;
        // texts that begin with blanks or are empty.
        assert_eq!(
            run(
                &["pash-agg-uniq-c"],
                &["      2   a", "      1   a\n      1 "]
            ),
            "      3   a\n      1 \n"
        );
        assert_eq!(run(&["pash-agg-uniq"], &["a\nb", "b\nc"]), "a\nb\nc\n");
        assert_eq!(run(&["pash-agg-uniq-c"], &["", ""]), "");
    }

    #[test]
    fn counted_merge_sums_equal_texts_under_the_sort_order() {
        assert_eq!(
            run(
                &["pash-agg-sort-c"],
                &["      2 a\n      1 c\n", "      3 a\n      1 b\n", ""]
            ),
            "      5 a\n      1 b\n      1 c\n"
        );
        // Ordered by the text under the sort's flags, not by the
        // count in front of it; untouched records keep their bytes.
        assert_eq!(
            run(
                &["pash-agg-sort-c", "-rn"],
                &["      1 10 x\n 7 9\n", "9999999 10 x\n      1 2\n"]
            ),
            "10000000 10 x\n 7 9\n      1 2\n"
        );
    }

    fn try_run(argv: &[&str], inputs: &[&str]) -> io::Result<Vec<u8>> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let inputs: Vec<AggInput> = inputs
            .iter()
            .map(|s| Box::new(io::Cursor::new(s.as_bytes().to_vec())) as AggInput)
            .collect();
        let mut out = Vec::new();
        let reg = Registry::standard();
        run_aggregator(&argv, inputs, &mut out, &reg, Arc::new(MemFs::new()))?;
        Ok(out)
    }

    #[test]
    fn malformed_counted_records_are_errors_not_counts() {
        for agg in ["pash-agg-sort-c", "pash-agg-uniq-c"] {
            for bad in [
                "no count\n",
                "      x 1\n",
                "\n",
                "99999999999999999999 a\n",
            ] {
                // (Behind a good record, so the seam fold parses it.)
                let err = try_run(&[agg], &["      1 a\n", bad]).expect_err(bad);
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{agg} {bad:?}");
            }
            let max = format!("{} a\n", u64::MAX);
            let err = try_run(&[agg], &[&max, "      1 a\n"]).expect_err("overflow");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{agg}");
        }
        // `-u` has no counted merge.
        let err = try_run(&["pash-agg-sort-c", "-u"], &[]).expect_err("-u");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn wc_sums_columns() {
        let out = run(
            &["pash-agg-wc", "-lw"],
            &["      2       5\n", "      3       7\n"],
        );
        let cols: Vec<&str> = out.split_whitespace().collect();
        assert_eq!(cols, vec!["5", "12"]);
    }

    #[test]
    fn wc_prints_a_lone_count_bare_like_the_sequential_command() {
        // Parts report bare counts now; padded ones (older parts, the
        // next level of an aggregation tree) still parse.
        assert_eq!(run(&["pash-agg-wc", "-l"], &["2\n", "      3\n"]), "5\n");
        assert_eq!(
            run(&["pash-agg-wc", "-lc"], &["2 10\n", "3 11\n"]),
            "      5      21\n"
        );
    }

    #[test]
    fn sum_adds_counts() {
        assert_eq!(run(&["pash-agg-sum"], &["3\n", "4\n", "0\n"]), "7\n");
    }

    #[test]
    fn tac_reverse_stream_order() {
        assert_eq!(
            run(&["pash-agg-tac"], &["c\nb\n", "e\nd\n"]),
            "e\nd\nc\nb\n"
        );
    }

    #[test]
    fn head_as_aggregator() {
        assert_eq!(run(&["head", "-n", "2"], &["1\n2\n", "3\n"]), "1\n2\n");
    }

    #[test]
    fn bigram_stitches_boundary() {
        // Chunks from `bigrams-aux` over [a b c] and [d e].
        let c1 = "\u{1}F\ta\na b\nb c\n\u{1}L\tc\n";
        let c2 = "\u{1}F\td\nd e\n\u{1}L\te\n";
        assert_eq!(run(&["pash-agg-bigram"], &[c1, c2]), "a b\nb c\nc d\nd e\n");
    }

    #[test]
    fn bigram_single_chunk() {
        let c1 = "\u{1}F\ta\na b\n\u{1}L\tb\n";
        assert_eq!(run(&["pash-agg-bigram"], &[c1]), "a b\n");
    }

    #[test]
    fn unknown_aggregator_errors() {
        let argv = vec!["pash-agg-nope".to_string()];
        let mut out = Vec::new();
        let reg = Registry::standard();
        let res = run_aggregator(&argv, vec![], &mut out, &reg, Arc::new(MemFs::new()));
        assert!(res.is_err());
    }

    #[test]
    fn sort_merge_no_inputs_is_empty() {
        assert_eq!(run(&["pash-agg-sort"], &[]), "");
    }

    #[test]
    fn sort_merge_single_input_passthrough() {
        assert_eq!(run(&["pash-agg-sort"], &["a\nb\nc\n"]), "a\nb\nc\n");
    }

    #[test]
    fn sort_merge_wide_odd_fanin() {
        // Nine inputs (not a power of two) with skewed lengths and
        // early exhaustion: the loser tree's replay path must stay
        // correct as streams die at different times.
        let inputs = [
            "a\nj\ns\n",
            "",
            "b\nk\n",
            "c\n",
            "d\nl\nt\nx\n",
            "e\n",
            "f\nm\n",
            "g\nn\nu\n",
            "h\n",
        ];
        let merged = run(&["pash-agg-sort"], &inputs);
        let mut all: Vec<&str> = inputs.iter().flat_map(|s| s.lines()).collect();
        all.sort_unstable();
        let expected: String = all.iter().map(|l| format!("{l}\n")).collect();
        assert_eq!(merged, expected);
    }

    #[test]
    fn sort_merge_equal_lines_stay_stable() {
        // Compare-equal heads must drain lowest-input-first, like the
        // linear scan did (ties broken by stream id).
        assert_eq!(
            run(&["pash-agg-sort"], &["x\nx\n", "x\n", "x\nx\n"]),
            "x\nx\nx\nx\nx\n"
        );
    }

    /// A reader that hands out 1–7 bytes per call, the sizes drawn
    /// from a seed: every merge input refills mid-line and mid-run.
    struct Trickle {
        data: Vec<u8>,
        at: usize,
        seed: u64,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.seed = self
                .seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let want = 1 + (self.seed >> 33) as usize % 7;
            let n = want.min(buf.len()).min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// `argv` over `inputs`, each read through a [`Trickle`].
    fn run_trickled(argv: &[&str], inputs: &[String], seed: u64) -> io::Result<String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let inputs: Vec<AggInput> = (0..)
            .zip(inputs)
            .map(|(i, s)| {
                Box::new(Trickle {
                    data: s.as_bytes().to_vec(),
                    at: 0,
                    seed: seed ^ i,
                }) as AggInput
            })
            .collect();
        let mut out = Vec::new();
        let reg = Registry::standard();
        run_aggregator(&argv, inputs, &mut out, &reg, Arc::new(MemFs::new()))?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn runs_that_end_on_a_refill_and_lines_past_a_window() {
        // Stream 0's `a` lines fill the first 64 KiB read exactly, and
        // the whole window beats stream 1; its next line, read after
        // the refill, loses. A line longer than a window sits in each.
        let line = |c: char, i: usize| format!("{c}{i:014}\n");
        let a_run: String = (0..64 * 1024 / 16).map(|i| line('a', i)).collect();
        assert_eq!(a_run.len(), 64 * 1024);
        let long = |c: char| format!("{}\n", c.to_string().repeat(70_000));
        let s0 = format!("{a_run}{}{}", line('c', 0), long('d'));
        let s1 = format!("{}{}{}", line('b', 0), long('c'), line('e', 0));
        let mut all: Vec<&str> = s0.lines().chain(s1.lines()).collect();
        all.sort_unstable();
        let expected: String = all.iter().map(|l| format!("{l}\n")).collect();
        let inputs = [s0.clone(), s1.clone()];
        assert_eq!(run(&["pash-agg-sort"], &[&s0, &s1]), expected);
        assert_eq!(
            run_trickled(&["pash-agg-sort"], &inputs, 1).expect("agg"),
            expected
        );
        let mut reversed = all.clone();
        reversed.reverse();
        let reversed: String = reversed.iter().map(|l| format!("{l}\n")).collect();
        let back = |s: &str| {
            s.lines()
                .rev()
                .map(|l| format!("{l}\n"))
                .collect::<String>()
        };
        assert_eq!(
            run(&["pash-agg-sort", "-r"], &[&back(&s0), &back(&s1)]),
            reversed
        );
    }

    #[test]
    fn unique_merge_keeps_the_lower_streams_line() {
        assert_eq!(
            run(&["pash-agg-sort", "-nu"], &["1 b\n", "01 a\n"]),
            "1 b\n"
        );
        assert_eq!(
            run(&["pash-agg-sort", "-nu"], &["01 a\n", "1 b\n"]),
            "01 a\n"
        );
        let three = ["x 2\n", "y 2\nz 3\n", "w 2\nw 3\n"].map(String::from);
        assert_eq!(
            run_trickled(&["pash-agg-sort", "-u", "-k2,2n"], &three, 7).expect("agg"),
            "x 2\nz 3\n"
        );
    }

    #[test]
    fn counted_merge_folds_one_text_across_three_streams_and_within_one() {
        let inputs = [
            "      2 a\n      1 b\n",
            "      3 a\n",
            "      1 a\n      1 a\n      1 c\n",
        ]
        .map(String::from);
        let expected = "      7 a\n      1 b\n      1 c\n";
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        assert_eq!(run(&["pash-agg-sort-c"], &refs), expected);
        for seed in 0..8 {
            assert_eq!(
                run_trickled(&["pash-agg-sort-c"], &inputs, seed).expect("agg"),
                expected
            );
        }
        // A malformed record still fails, however the input arrives.
        let bad = [
            "      1 a\n".to_string(),
            "      1 a\nno count\n".to_string(),
        ];
        let err = run_trickled(&["pash-agg-sort-c"], &bad, 3).expect_err("malformed");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Builds one framed input from (tag, payload) pairs in the given
    /// arrival order.
    fn framed_input(frames: &[(u64, &str)]) -> AggInput {
        let mut buf = Vec::new();
        for (tag, payload) in frames {
            crate::frame::write_frame(&mut buf, *tag, payload.as_bytes()).expect("frame");
        }
        Box::new(io::Cursor::new(buf))
    }

    fn try_run_reorder(inputs: Vec<AggInput>) -> io::Result<String> {
        let mut out = Vec::new();
        let reg = Registry::standard();
        run_aggregator(
            &["pash-agg-reorder".to_string()],
            inputs,
            &mut out,
            &reg,
            Arc::new(MemFs::new()),
        )?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    fn run_reorder(inputs: Vec<AggInput>) -> String {
        try_run_reorder(inputs).expect("reorder")
    }

    #[test]
    fn reorder_restores_rotation_order() {
        // The conforming shape: tag t on input t % k.
        let inputs = vec![
            framed_input(&[(0, "a\n"), (3, "d\n")]),
            framed_input(&[(1, "b\n"), (4, "e\n")]),
            framed_input(&[(2, "c\n")]),
        ];
        assert_eq!(run_reorder(inputs), "a\nb\nc\nd\ne\n");
    }

    #[test]
    fn reorder_handles_uneven_and_empty_inputs() {
        // Conforming deal (tag t on input t % k) with uneven counts.
        let inputs = vec![
            framed_input(&[(0, "a\n"), (3, "d\n"), (6, "g\n")]),
            framed_input(&[(1, "b\n"), (4, "e\n")]),
            framed_input(&[(2, "c\n"), (5, "f\n")]),
        ];
        assert_eq!(run_reorder(inputs), "a\nb\nc\nd\ne\nf\ng\n");
        // A short stream leaves later inputs with nothing at all.
        let inputs = vec![
            framed_input(&[(0, "a\n")]),
            framed_input(&[(1, "b\n")]),
            framed_input(&[]),
        ];
        assert_eq!(run_reorder(inputs), "a\nb\n");
    }

    #[test]
    fn reorder_duplicate_tag_fails_fast() {
        let inputs = vec![
            framed_input(&[(0, "a\n"), (1, "b\n")]),
            framed_input(&[(1, "b\n")]),
        ];
        let err = try_run_reorder(inputs).expect_err("duplicate tag");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn reorder_missing_tag_fails_fast() {
        // Tag 1's owner ends empty while tag 2 is in flight: the gap
        // can never fill, and the reorderer must not hang or silently
        // emit the tail.
        let inputs = vec![framed_input(&[(0, "a\n"), (2, "c\n")]), framed_input(&[])];
        let err = try_run_reorder(inputs).expect_err("missing tag");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn reorder_empty_payloads_vanish() {
        // A worker that filtered everything out still emits its frame.
        let inputs = vec![
            framed_input(&[(0, ""), (2, "c\n")]),
            framed_input(&[(1, "b\n")]),
        ];
        assert_eq!(run_reorder(inputs), "b\nc\n");
    }

    #[test]
    fn reorder_no_inputs_is_empty() {
        assert_eq!(run_reorder(Vec::new()), "");
    }

    fn try_run_frame_merge(inner: &[&str], inputs: Vec<AggInput>) -> io::Result<String> {
        let mut argv = vec!["pash-agg-frame-merge".to_string()];
        argv.extend(inner.iter().map(|s| s.to_string()));
        let mut out = Vec::new();
        let reg = Registry::standard();
        run_aggregator(&argv, inputs, &mut out, &reg, Arc::new(MemFs::new()))?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    fn run_frame_merge(inner: &[&str], inputs: Vec<AggInput>) -> String {
        try_run_frame_merge(inner, inputs).expect("frame-merge")
    }

    #[test]
    fn frame_merge_uniq_folds_every_tag_boundary() {
        // Per-block uniq output with duplicates straddling boundaries
        // between frames of *different* workers (tags 0→1) and frames
        // of the *same* worker (tags 1→3 live on input 1): both fold.
        let inputs = vec![
            framed_input(&[(0, "a\nb\n"), (2, "b\nc\n")]),
            framed_input(&[(1, "b\n"), (3, "c\nd\n")]),
        ];
        assert_eq!(run_frame_merge(&["pash-agg-uniq"], inputs), "a\nb\nc\nd\n");
    }

    #[test]
    fn frame_merge_uniq_count_sums_boundary_groups() {
        // `uniq -c` per block; the group `b` spans three blocks and
        // its counts must sum, while distinct groups pass through.
        let inputs = vec![
            framed_input(&[(0, "      2 a\n      1 b\n"), (2, "      3 b\n")]),
            framed_input(&[(1, "      4 b\n"), (3, "      1 c\n")]),
        ];
        assert_eq!(
            run_frame_merge(&["pash-agg-uniq-c"], inputs),
            "      2 a\n      8 b\n      1 c\n"
        );
    }

    #[test]
    fn frame_merge_empty_blocks_are_neutral() {
        // A block the worker filtered to nothing contributes no lines
        // and must not break an open group around it.
        let inputs = vec![
            framed_input(&[(0, "      2 x\n"), (2, "      1 x\n")]),
            framed_input(&[(1, "")]),
        ];
        assert_eq!(run_frame_merge(&["pash-agg-uniq-c"], inputs), "      3 x\n");
    }

    #[test]
    fn frame_merge_missing_tag_fails_fast() {
        // Same fail-fast contract as the reorderer: a gap in the tag
        // sequence is a lost block, not something to paper over.
        let inputs = vec![framed_input(&[(0, "a\n"), (2, "c\n")]), framed_input(&[])];
        let err = try_run_frame_merge(&["pash-agg-uniq"], inputs).expect_err("missing tag");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn frame_merge_rejects_unwrappable_inner() {
        let err = try_run_frame_merge(&["pash-agg-sort"], Vec::new()).expect_err("bad inner");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    mod reorder_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            // For ANY within-input arrival permutation under the
            // conforming deal (tag t on input t % k — what r_split
            // guarantees), the reorderer emits payloads in tag order.
            #[test]
            fn prop_reorder_restores_any_permutation(
                n in 0usize..40,
                k in 1usize..6,
                seed in 0u64..(1u64 << 48),
            ) {
                // Seeded Fisher–Yates over the tag sequence.
                let mut order: Vec<u64> = (0..n as u64).collect();
                let mut s = seed | 1;
                for i in (1..order.len()).rev() {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let j = (s >> 33) as usize % (i + 1);
                    order.swap(i, j);
                }
                // Deal each tag to its owning input, preserving the
                // permuted relative order within each input.
                let mut per_input: Vec<Vec<(u64, String)>> = vec![Vec::new(); k];
                for &tag in &order {
                    per_input[(tag % k as u64) as usize].push((tag, format!("line-{tag}\n")));
                }
                let inputs: Vec<AggInput> = per_input
                    .iter()
                    .map(|frames| {
                        let refs: Vec<(u64, &str)> =
                            frames.iter().map(|(t, p)| (*t, p.as_str())).collect();
                        framed_input(&refs)
                    })
                    .collect();
                let expected: String = (0..n as u64).map(|t| format!("line-{t}\n")).collect();
                prop_assert_eq!(run_reorder(inputs), expected);
            }
        }
    }

    mod merge_props {
        use super::*;
        use pash_coreutils::run_command;
        use proptest::prelude::*;

        fn sort(flags: &[&str], input: &str) -> String {
            let argv: Vec<&str> = std::iter::once("sort")
                .chain(flags.iter().copied())
                .collect();
            let fs = Arc::new(MemFs::new());
            let out = run_command(&Registry::standard(), fs, &argv, input.as_bytes());
            String::from_utf8(out.expect("sort").stdout).expect("utf8")
        }

        fn uniq(flags: &[&str], input: &str) -> String {
            let argv: Vec<&str> = std::iter::once("uniq")
                .chain(flags.iter().copied())
                .collect();
            let fs = Arc::new(MemFs::new());
            let out = run_command(&Registry::standard(), fs, &argv, input.as_bytes());
            String::from_utf8(out.expect("uniq").stdout).expect("utf8")
        }

        /// `agg` over `parts` as one flat application and as a binary
        /// tree of two-input applications; both must agree.
        fn flat_and_tree(agg: &[&str], parts: &[String]) -> String {
            let refs: Vec<&str> = parts.iter().map(|s| s.as_str()).collect();
            let flat = run(agg, &refs);
            let mut layer = parts.to_vec();
            while layer.len() > 1 {
                layer = layer
                    .chunks(2)
                    .map(|pair| match pair {
                        [a, b] => run(agg, &[a, b]),
                        one => one[0].clone(),
                    })
                    .collect();
            }
            assert_eq!(layer.concat(), flat, "tree vs flat: {agg:?} {parts:?}");
            flat
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            // The law that moves a fold below a sort's merge: `uniq
            // -c` of each sorted chunk, merged by text with equal
            // texts' counts added, is `uniq -c` of the global sort —
            // for every order without `-u`, flat or as a binary tree;
            // and `uniq` with the `-u` merge under whole-line orders.
            #[test]
            fn prop_fold_commutes_below_the_merge(
                lines in proptest::collection::vec("[ab01 ,.-]{0,4}", 0..60),
                k in 1usize..9,
            ) {
                let chunks: Vec<String> = (0..k)
                    .map(|i| {
                        let (lo, hi) = (i * lines.len() / k, (i + 1) * lines.len() / k);
                        lines[lo..hi].iter().map(|l| format!("{l}\n")).collect()
                    })
                    .collect();
                let all = chunks.concat();
                for flags in [
                    &[][..], &["-r"], &["-n"], &["-rn"], &["-k2"], &["-t,", "-k2n"],
                ] {
                    let parts: Vec<String> =
                        chunks.iter().map(|c| uniq(&["-c"], &sort(flags, c))).collect();
                    let agg: Vec<&str> = std::iter::once("pash-agg-sort-c")
                        .chain(flags.iter().copied())
                        .collect();
                    prop_assert_eq!(
                        flat_and_tree(&agg, &parts), uniq(&["-c"], &sort(flags, &all)),
                        "flags {:?} chunks {:?}", flags, chunks
                    );
                }
                for flags in [&[][..], &["-r"]] {
                    let parts: Vec<String> =
                        chunks.iter().map(|c| uniq(&[], &sort(flags, c))).collect();
                    let agg: Vec<&str> = std::iter::once("pash-agg-sort")
                        .chain(flags.iter().copied())
                        .chain(std::iter::once("-u"))
                        .collect();
                    prop_assert_eq!(
                        flat_and_tree(&agg, &parts), uniq(&[], &sort(flags, &all)),
                        "flags {:?} chunks {:?}", flags, chunks
                    );
                }
            }

            // The same laws with every input trickled in 1–7 bytes per
            // read, at k ∈ {1, 2, 3, 5, 8}, with lines past a 64 KiB
            // scanner window: refills land mid-line, mid-run and on run
            // ends. Counted streams hold a text twice when a chunk's
            // two halves were counted apart.
            #[test]
            fn prop_merge_survives_any_read_sizes(
                lines in proptest::collection::vec("[ab01 :.-]{0,5}", 0..60),
                k in 0usize..5,
                long in 0usize..4,
                seed in 0u64..(1u64 << 48),
            ) {
                let k = [1, 2, 3, 5, 8][k];
                let mut lines = lines;
                if long == 0 {
                    let at = seed as usize % (lines.len() + 1);
                    lines.insert(at, format!("{}:{seed}", "b".repeat(70_000)));
                }
                let chunks: Vec<String> = (0..k)
                    .map(|i| {
                        let (lo, hi) = (i * lines.len() / k, (i + 1) * lines.len() / k);
                        lines[lo..hi].iter().map(|l| format!("{l}\n")).collect()
                    })
                    .collect();
                let all = chunks.concat();
                let show = |argv: &[&str]| {
                    let input: Vec<String> = chunks
                        .iter()
                        .map(|c| c.chars().take(200).collect())
                        .collect();
                    format!("argv {argv:?} k {k} seed {seed} inputs (first 200 chars) {input:?}")
                };
                for flags in [
                    &[][..], &["-n"], &["-r"], &["-rn"], &["-u"], &["-nu"], &["-k2"],
                    &["-t:", "-k2"],
                ] {
                    let argv: Vec<&str> =
                        std::iter::once("pash-agg-sort").chain(flags.iter().copied()).collect();
                    let runs: Vec<String> = chunks.iter().map(|c| sort(flags, c)).collect();
                    prop_assert_eq!(
                        run_trickled(&argv, &runs, seed).expect("merge"),
                        sort(flags, &all),
                        "{}", show(&argv)
                    );
                    if flags.contains(&"-u") || flags.contains(&"-nu") {
                        continue;
                    }
                    let argv: Vec<&str> =
                        std::iter::once("pash-agg-sort-c").chain(flags.iter().copied()).collect();
                    let counted: Vec<String> = runs
                        .iter()
                        .map(|run| {
                            let lines: Vec<&str> = run.split_inclusive('\n').collect();
                            let (a, b) = lines.split_at(lines.len() / 2);
                            uniq(&["-c"], &a.concat()) + &uniq(&["-c"], &b.concat())
                        })
                        .collect();
                    prop_assert_eq!(
                        run_trickled(&argv, &counted, seed).expect("counted merge"),
                        uniq(&["-c"], &sort(flags, &all)),
                        "{}", show(&argv)
                    );
                }
            }

            // The map/aggregate law the parallel `sort` rests on:
            // sorting k contiguous chunks of the input (some empty,
            // key groups and duplicates straddling the cuts) and
            // merging them is the sequential sort, under every flag
            // set — including which line of a `-u` group survives.
            #[test]
            fn prop_merge_of_sorted_chunks_equals_global_sort(
                lines in proptest::collection::vec("[ab01 :.-]{0,5}", 0..60),
                cuts in proptest::collection::vec(0usize..61, 0..8),
            ) {
                let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (lines.len() + 1)).collect();
                cuts.sort_unstable();
                cuts.push(lines.len());
                let mut chunks: Vec<String> = Vec::new();
                let mut start = 0;
                for end in cuts {
                    chunks.push(lines[start..end].iter().map(|l| format!("{l}\n")).collect());
                    start = end;
                }
                for flags in [
                    &[][..], &["-n"], &["-r"], &["-rn"], &["-u"], &["-nu"], &["-k2"],
                    &["-k2,2n"], &["-t:", "-k2"], &["-k1,1", "-u"],
                ] {
                    let runs: Vec<String> = chunks.iter().map(|c| sort(flags, c)).collect();
                    let refs: Vec<&str> = runs.iter().map(|s| s.as_str()).collect();
                    let argv: Vec<&str> =
                        std::iter::once("pash-agg-sort").chain(flags.iter().copied()).collect();
                    prop_assert_eq!(
                        run(&argv, &refs), sort(flags, &chunks.concat()),
                        "flags {:?} chunks {:?}", flags, chunks
                    );
                }
            }
        }
    }
}
