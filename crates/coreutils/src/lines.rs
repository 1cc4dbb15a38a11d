//! Line-oriented I/O helpers shared by the commands.
//!
//! UNIX streams are newline-delimited byte sequences (§2.1 of the
//! paper); these helpers implement that discipline once: iteration
//! over lines *without* their terminator, and writing lines *with*
//! one.

use std::io::{self, BufRead, Write};

/// Calls `f` for each line (newline stripped). `f` returns `false` to
/// stop early.
///
/// A final line without a trailing newline is still delivered.
pub fn for_each_line<R: BufRead + ?Sized>(
    r: &mut R,
    mut f: impl FnMut(&[u8]) -> io::Result<bool>,
) -> io::Result<()> {
    let mut buf = Vec::with_capacity(256);
    loop {
        buf.clear();
        let n = r.read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(());
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        }
        if !f(&buf)? {
            return Ok(());
        }
    }
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

/// Splits a line into fields on a single-byte delimiter.
pub fn split_fields(line: &[u8], delim: u8) -> Vec<&[u8]> {
    line.split(|&b| b == delim).collect()
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
    buf.split_inclusive(|&b| b == b'\n')
        .map(|l| l.strip_suffix(b"\n").unwrap_or(l))
}

/// Parses a decimal prefix of a byte string as `f64`, the way
/// `sort -n` does: optional blanks, optional sign, digits, optional
/// fraction (no exponent). Unparsable values compare as 0.
pub fn numeric_prefix(s: &[u8]) -> f64 {
    let mut i = 0;
    while i < s.len() && (s[i] == b' ' || s[i] == b'\t') {
        i += 1;
    }
    let start = i;
    let negative = s.get(i) == Some(&b'-');
    if negative || s.get(i) == Some(&b'+') {
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

/// Parses a list spec like `1,3-5,7-` into sorted half-open ranges
/// (1-based, end `usize::MAX` for open ranges) — the `cut -f`/`-c`
/// argument format.
pub fn parse_ranges(spec: &str) -> Option<Vec<(usize, usize)>> {
    let mut out = Vec::new();
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
        out.push((lo, hi));
    }
    out.sort_unstable();
    Some(out)
}

/// Tests membership of a 1-based index in parsed ranges.
pub fn in_ranges(ranges: &[(usize, usize)], idx: usize) -> bool {
    ranges.iter().any(|&(lo, hi)| idx >= lo && idx <= hi)
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
    fn numeric_prefix_parsing() {
        assert_eq!(numeric_prefix(b"42abc"), 42.0);
        assert_eq!(numeric_prefix(b"  -3.5x"), -3.5);
        assert_eq!(numeric_prefix(b"abc"), 0.0);
        assert_eq!(numeric_prefix(b""), 0.0);
        assert_eq!(numeric_prefix(b"+7"), 7.0);
        assert_eq!(numeric_prefix(b"-0"), 0.0);
        assert!(numeric_prefix(b"-0").is_sign_negative());
        assert_eq!(numeric_prefix(b"+.5"), 0.5);
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
    fn ranges_parse_and_match() {
        let r = parse_ranges("1,3-5,8-").expect("parse");
        assert!(in_ranges(&r, 1));
        assert!(!in_ranges(&r, 2));
        assert!(in_ranges(&r, 4));
        assert!(in_ranges(&r, 100));
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
