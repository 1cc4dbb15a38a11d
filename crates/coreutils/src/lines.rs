//! Line-oriented I/O helpers shared by the commands.
//!
//! UNIX streams are newline-delimited byte sequences (§2.1 of the
//! paper); these helpers implement that discipline once: one block
//! reader that hands out runs of complete lines *in place*, iteration
//! over lines *without* their terminator on top of it, and writing
//! lines *with* one.

use std::io::{self, BufRead, Write};

use pash_regex::memmem::{memchr, memrchr};

/// Capacity of the buffers commands read through: one ring-full (the
/// runtime's pipe capacity, the Linux pipe buffer), so an unframed
/// block is everything the upstream edge can hold.
pub const BLOCK_SIZE: usize = 64 * 1024;

/// Longest run handed out at once. A reader that holds its whole
/// input would otherwise make every per-block output buffer as large
/// as the input; a framed worker's payload (2048 lines) fits whole.
const MAX_BLOCK: usize = 4 * BLOCK_SIZE;

/// The one reader loop behind [`for_each_block`] and
/// [`for_each_line`]. `f` sees a non-empty run of complete lines and
/// returns `None` to continue or `Some(n)` to stop with only the
/// first `n` bytes of the run consumed from `r`.
fn scan_blocks<R: BufRead + ?Sized>(
    r: &mut R,
    mut f: impl FnMut(&[u8]) -> io::Result<Option<usize>>,
) -> io::Result<()> {
    // The head of a line whose end the reader has not delivered yet:
    // the only bytes this loop ever copies.
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let chunk = match r.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // End of stream: what was carried is the final,
            // unterminated line.
            if !carry.is_empty() {
                f(&carry)?;
            }
            return Ok(());
        }
        if !carry.is_empty() {
            // Finish the carried line and hand it out on its own, so
            // nothing past its newline leaves the reader.
            let take = memchr(b'\n', chunk).map_or(chunk.len(), |i| i + 1);
            carry.extend_from_slice(&chunk[..take]);
            r.consume(take);
            if carry.last() == Some(&b'\n') {
                if f(&carry)?.is_some() {
                    return Ok(());
                }
                carry.clear();
            }
            continue;
        }
        let window = &chunk[..chunk.len().min(MAX_BLOCK)];
        match memrchr(b'\n', window) {
            Some(last) => {
                let stop = f(&window[..=last])?;
                r.consume(stop.unwrap_or(last + 1));
                if stop.is_some() {
                    return Ok(());
                }
            }
            None => {
                carry.extend_from_slice(window);
                let n = window.len();
                r.consume(n);
            }
        }
    }
}

/// Calls `f` with successive *blocks*: non-empty runs of complete
/// lines borrowed from the reader's own buffer. Every line of a block
/// ends in `\n`, except that the last line of the stream may be
/// unterminated (it closes the final block). `f` returns `false` to
/// stop after the block it was given.
///
/// Nothing is copied but a line that straddles two `fill_buf` chunks
/// (or is longer than the largest block); a reader that holds its
/// whole input (a slice, a `Cursor`) is handed out in place, a frame
/// payload as one block.
pub fn for_each_block<R: BufRead + ?Sized>(
    r: &mut R,
    mut f: impl FnMut(&[u8]) -> io::Result<bool>,
) -> io::Result<()> {
    scan_blocks(r, |block| {
        Ok(if f(block)? { None } else { Some(block.len()) })
    })
}

/// Calls `f` for each line (newline stripped). `f` returns `false` to
/// stop early; the bytes after the stopping line stay unread in `r`.
///
/// A final line without a trailing newline is still delivered.
pub fn for_each_line<R: BufRead + ?Sized>(
    r: &mut R,
    mut f: impl FnMut(&[u8]) -> io::Result<bool>,
) -> io::Result<()> {
    scan_blocks(r, |block| {
        let mut pos = 0;
        while pos < block.len() {
            let end = memchr(b'\n', &block[pos..]).map_or(block.len(), |i| pos + i);
            let next = (end + 1).min(block.len());
            if !f(&block[pos..end])? {
                return Ok(Some(next));
            }
            pos = next;
        }
        Ok(None)
    })
}

/// Reads all lines into owned vectors (newlines stripped).
pub fn read_all_lines<R: BufRead + ?Sized>(r: &mut R) -> io::Result<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    for_each_line(r, |line| {
        out.push(line.to_vec());
        Ok(true)
    })?;
    Ok(out)
}

/// Writes a line followed by a newline, as one `write_all`.
///
/// On an unbuffered edge, two writes mean two lock acquisitions per
/// line; assembling `line + "\n"` on the stack first halves that. The
/// window is kept small (a few cache lines) so its zeroing cost stays
/// negligible; longer lines (rare) fall back to two writes rather
/// than allocate per line.
pub fn write_line<W: Write + ?Sized>(w: &mut W, line: &[u8]) -> io::Result<()> {
    const STACK: usize = 256;
    if line.len() < STACK {
        let mut buf = [0u8; STACK];
        buf[..line.len()].copy_from_slice(line);
        buf[line.len()] = b'\n';
        w.write_all(&buf[..line.len() + 1])
    } else {
        w.write_all(line)?;
        w.write_all(b"\n")
    }
}

/// Splits a line into whitespace-separated fields (runs of blanks
/// collapse, leading blanks ignored) — the `awk`/`sort -k` default.
pub fn split_whitespace(line: &[u8]) -> Vec<&[u8]> {
    line.split(|b| b.is_ascii_whitespace())
        .filter(|f| !f.is_empty())
        .collect()
}

/// The lines of an in-memory buffer, terminators stripped; a final
/// unterminated line is still a line and an empty buffer has none.
pub fn buffer_lines(buf: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = buf;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let (line, tail) = match memchr(b'\n', rest) {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => (rest, &rest[rest.len()..]),
        };
        rest = tail;
        Some(line)
    })
}

/// Appends `n` right-aligned in seven columns and a space: the
/// `uniq -c` prefix (`"%7d "`), without the formatting machinery.
pub fn push_count(out: &mut Vec<u8>, n: u64) {
    let mut digits = [b' '; 20];
    let mut i = digits.len();
    let mut v = n;
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i.min(digits.len() - 7)..]);
    out.push(b' ');
}

/// Splits a `uniq -c` record into its count and its text: blanks,
/// digits, then one separating space (what [`push_count`] writes). A
/// record without a count that fits a `u64` is `InvalidData`.
pub fn parse_count_line(line: &[u8]) -> io::Result<(u64, &[u8])> {
    let start = line.iter().position(|&b| b != b' ').unwrap_or(line.len());
    let digits = line[start..]
        .iter()
        .position(|b| !b.is_ascii_digit())
        .map_or(line.len(), |n| start + n);
    let mut count = 0u64;
    for &d in &line[start..digits] {
        count = count
            .checked_mul(10)
            .and_then(|c| c.checked_add(u64::from(d - b'0')))
            .ok_or_else(malformed_count)?;
    }
    if digits == start {
        return Err(malformed_count());
    }
    let text = &line[digits..];
    Ok((count, text.strip_prefix(b" ").unwrap_or(text)))
}

fn malformed_count() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "malformed uniq -c line")
}

/// The count of two `uniq -c` records of one text folded into one; a
/// sum past `u64` is `InvalidData`, like a count that does not parse.
pub fn add_counts(a: u64, b: u64) -> io::Result<u64> {
    a.checked_add(b)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "uniq -c count overflows"))
}

/// Parses a decimal prefix of a byte string as `f64`, the way
/// `sort -n` does: optional blanks, optional minus sign, digits,
/// optional fraction (no exponent, and no `+`: GNU reads `+5` as 0).
/// Unparsable values compare as 0.
pub fn numeric_prefix(s: &[u8]) -> f64 {
    let mut i = 0;
    while i < s.len() && (s[i] == b' ' || s[i] == b'\t') {
        i += 1;
    }
    let start = i;
    let negative = s.get(i) == Some(&b'-');
    if negative {
        i += 1;
    }
    // Digits accumulate straight into the number: every partial sum
    // stays below 10^15 < 2^53, so each step is exact in an `f64`.
    const EXACT_DIGITS: usize = 15;
    let digits = i;
    let mut int = 0.0;
    while i < s.len() && s[i].is_ascii_digit() {
        int = int * 10.0 + f64::from(s[i] - b'0');
        i += 1;
    }
    let mut seen_digit = i > digits;
    if s.get(i) != Some(&b'.') && i - digits <= EXACT_DIGITS {
        return if negative { -int } else { int };
    }
    // Fractions and very long integers take the correctly rounded
    // library parse of the same prefix.
    if s.get(i) == Some(&b'.') {
        i += 1;
        while i < s.len() && s[i].is_ascii_digit() {
            i += 1;
            seen_digit = true;
        }
    }
    if !seen_digit {
        return 0.0;
    }
    std::str::from_utf8(&s[start..i])
        .ok()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0.0)
}

/// Parses a list spec like `1,3-5,7-` into sorted, disjoint,
/// non-adjacent inclusive ranges (1-based, end `usize::MAX` for open
/// ranges) — the `cut -f`/`-c` argument format. Overlapping and
/// touching ranges are merged: a selection is a set.
pub fn parse_ranges(spec: &str) -> Option<Vec<(usize, usize)>> {
    let mut parsed = Vec::new();
    for part in spec.split(',') {
        if part.is_empty() {
            return None;
        }
        let (lo, hi) = match part.split_once('-') {
            None => {
                let n: usize = part.parse().ok()?;
                (n, n)
            }
            Some(("", hi)) => (1, hi.parse().ok()?),
            Some((lo, "")) => (lo.parse().ok()?, usize::MAX),
            Some((lo, hi)) => (lo.parse().ok()?, hi.parse().ok()?),
        };
        if lo == 0 || hi < lo {
            return None;
        }
        parsed.push((lo, hi));
    }
    parsed.sort_unstable();
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(parsed.len());
    for (lo, hi) in parsed {
        match out.last_mut() {
            Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn lines_with_and_without_trailing_newline() {
        let mut r = BufReader::new(&b"a\nb\nc"[..]);
        let lines = read_all_lines(&mut r).expect("read");
        assert_eq!(lines, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn empty_input_no_lines() {
        let mut r = BufReader::new(&b""[..]);
        assert!(read_all_lines(&mut r).expect("read").is_empty());
    }

    #[test]
    fn empty_lines_preserved() {
        let mut r = BufReader::new(&b"a\n\nb\n"[..]);
        let lines = read_all_lines(&mut r).expect("read");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].is_empty());
    }

    #[test]
    fn early_stop() {
        let mut r = BufReader::new(&b"1\n2\n3\n"[..]);
        let mut seen = 0;
        for_each_line(&mut r, |_| {
            seen += 1;
            Ok(seen < 2)
        })
        .expect("iterate");
        assert_eq!(seen, 2);
    }

    #[test]
    fn bytes_after_the_stopping_line_stay_in_the_reader() {
        // A 4-byte buffer: the stopping line straddles two refills.
        let mut r = BufReader::with_capacity(4, &b"one\ntwo\nthree\nfour"[..]);
        let mut seen = Vec::new();
        for_each_line(&mut r, |line| {
            seen.push(line.to_vec());
            Ok(line != b"two")
        })
        .expect("iterate");
        assert_eq!(seen, vec![b"one".to_vec(), b"two".to_vec()]);
        let mut rest = Vec::new();
        io::Read::read_to_end(&mut r, &mut rest).expect("read on");
        assert_eq!(rest, b"three\nfour");
    }

    /// The blocks `for_each_block` hands out over a buffer of `cap`
    /// bytes.
    fn blocks_of(data: &[u8], cap: usize) -> Vec<Vec<u8>> {
        let mut r = BufReader::with_capacity(cap, data);
        let mut blocks = Vec::new();
        for_each_block(&mut r, |b| {
            blocks.push(b.to_vec());
            Ok(true)
        })
        .expect("iterate");
        blocks
    }

    #[test]
    fn blocks_are_runs_of_whole_lines() {
        let data = b"ab\ncd\n\nefghijklmnop\nq\nlast";
        for cap in 1..data.len() + 2 {
            let blocks = blocks_of(data, cap);
            assert_eq!(blocks.concat(), data, "cap {cap}");
            let (last, full) = blocks.split_last().expect("blocks");
            assert!(full.iter().all(|b| b.ends_with(b"\n")), "cap {cap}");
            assert_eq!(last, b"last", "cap {cap}: the unterminated tail");
        }
        // A reader that holds everything passes it on in place: one
        // block of whole lines, then the tail.
        assert_eq!(
            blocks_of(data, 64),
            vec![data[..data.len() - 4].to_vec(), b"last".to_vec()]
        );
        assert!(blocks_of(b"", 8).is_empty());
    }

    #[test]
    fn oversized_inputs_come_out_in_bounded_blocks() {
        // A slice holding several windows' worth, then one line longer
        // than a window: only that line may exceed the bound.
        let mut data = b"some words on a line\n".repeat(2 * MAX_BLOCK / 21);
        let long = [vec![b'x'; MAX_BLOCK + 10], b"\n".to_vec()].concat();
        data.extend_from_slice(&long);
        data.extend_from_slice(b"end\n");
        let mut blocks: Vec<Vec<u8>> = Vec::new();
        for_each_block(&mut &data[..], |b| {
            blocks.push(b.to_vec());
            Ok(true)
        })
        .expect("iterate");
        assert_eq!(blocks.concat(), data);
        assert!(blocks.len() >= 4);
        for b in &blocks {
            assert!(b.ends_with(b"\n"));
            assert!(b.len() <= MAX_BLOCK || *b == long, "{}", b.len());
        }
    }

    #[test]
    fn count_prefix_is_seven_wide() {
        let mut out = Vec::new();
        for n in [0, 7, 1234567, 12345678, u64::MAX] {
            push_count(&mut out, n);
            out.push(b'|');
        }
        assert_eq!(
            String::from_utf8(out).expect("ascii"),
            format!(
                "{:7} |{:7} |{:7} |{:7} |{:7} |",
                0,
                7,
                1234567,
                12345678,
                u64::MAX
            )
        );
    }

    #[test]
    fn numeric_prefix_parsing() {
        assert_eq!(numeric_prefix(b"42abc"), 42.0);
        assert_eq!(numeric_prefix(b"  -3.5x"), -3.5);
        assert_eq!(numeric_prefix(b"abc"), 0.0);
        assert_eq!(numeric_prefix(b""), 0.0);
        assert_eq!(numeric_prefix(b"+7"), 0.0);
        assert_eq!(numeric_prefix(b"-0"), 0.0);
        assert!(numeric_prefix(b"-0").is_sign_negative());
        assert_eq!(numeric_prefix(b"+.5"), 0.0);
        assert_eq!(numeric_prefix(b"-.5"), -0.5);
        assert_eq!(numeric_prefix(b"-."), 0.0);
        // GNU `-n` has no exponent: the prefix ends at the `e`.
        assert_eq!(numeric_prefix(b"1e3"), 1.0);
        assert_eq!(numeric_prefix(b"\t\t 12 x"), 12.0);
        assert_eq!(numeric_prefix(b"     64 the the"), 64.0);
        // Past the exact range the library parse rounds correctly.
        assert_eq!(numeric_prefix(b"9007199254740993"), 9007199254740992.0);
        assert_eq!(
            numeric_prefix(b"12345678901234567890"),
            1.2345678901234567e19
        );
    }

    #[test]
    fn ranges_parse_sorted_and_merged() {
        assert_eq!(
            parse_ranges("8-,1,3-5"),
            Some(vec![(1, 1), (3, 5), (8, usize::MAX)])
        );
        // Overlapping and touching ranges are one range.
        assert_eq!(parse_ranges("4-6,1-2,3,5-9"), Some(vec![(1, 9)]));
        assert_eq!(parse_ranges("2-,5"), Some(vec![(2, usize::MAX)]));
        assert_eq!(parse_ranges("-3,7"), Some(vec![(1, 3), (7, 7)]));
        assert!(parse_ranges("0").is_none());
        assert!(parse_ranges("5-2").is_none());
        assert!(parse_ranges("").is_none());
    }

    #[test]
    fn whitespace_split() {
        assert_eq!(
            split_whitespace(b"  a\t b  c "),
            vec![&b"a"[..], &b"b"[..], &b"c"[..]]
        );
    }
}
