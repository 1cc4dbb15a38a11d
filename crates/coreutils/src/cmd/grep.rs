//! `grep` — print lines matching a pattern.

use std::io::{self, Write};

use pash_regex::{Matcher, Regex, Syntax};

use crate::args::scanned;
use crate::bytemask::count_byte;
use crate::lines::{buffer_lines, for_each_block};
use crate::{open_or_report, usage_error, CmdIo, Command, ExitStatus};

/// `grep [-EFhivcnwm] PATTERN [file…]`, or `grep … -e PATTERN… [file…]`.
///
/// Stateless per line in its filter form; `-c` moves it to class P
/// (counts from parallel parts must be summed by an aggregator).
///
/// Matching is tiered (see `pash_regex::Matcher`) and block-at-a-time:
/// every pattern takes the one loop below, in which the matcher walks
/// a block of whole lines in the reader's buffer and reports the lines
/// that match (`Matcher::find_line`) — the stretches between them are
/// the lines that do not. `-v`, `-c`, `-n` and `-m` are bookkeeping on
/// those two kinds of span; the regex engine is never restarted once
/// per line.
pub struct Grep;

#[derive(Default)]
struct Opts {
    ere: bool,
    fixed: bool,
    ignore_case: bool,
    invert: bool,
    count: bool,
    line_numbers: bool,
    word: bool,
    max: Option<u64>,
}

/// `grep -m`'s count, or its usage error.
pub(crate) fn max_count(value: &str) -> Result<u64, String> {
    value.parse().map_err(|_| "invalid max count".to_string())
}

/// Cross-file match accounting.
struct Tally {
    any: bool,
    count: u64,
    emitted: u64,
    stop: bool,
    /// Current line number (reset per file).
    line_no: u64,
    /// Selected lines of the current block, written once per block.
    buf: Vec<u8>,
}

impl Command for Grep {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut o = Opts::default();
        let mut patterns: Vec<&str> = Vec::new();
        let mut operands = scanned!(io, args, "grep", |name, value| {
            match name {
                "E" => o.ere = true,
                "F" => o.fixed = true,
                "i" => o.ignore_case = true,
                "v" => o.invert = true,
                "c" => o.count = true,
                "n" => o.line_numbers = true,
                "w" => o.word = true,
                // No file names, which this grep never prints.
                "h" => {}
                "m" => o.max = Some(max_count(value)?),
                _ => patterns.push(value),
            }
            Ok(())
        });
        // Without `-e`, the first operand is the pattern.
        if patterns.is_empty() {
            match operands.shift() {
                Some(pattern) => patterns.push(pattern),
                None => return usage_error(io, "grep", "missing pattern"),
            }
        }
        // Each line of a pattern is a pattern of its own.
        let mut matchers = Vec::new();
        for pattern in patterns.iter().flat_map(|p| p.split('\n')) {
            match build_regex(pattern, &o) {
                Ok(re) => matchers.push(re.matcher()),
                // GNU's status for a pattern that does not compile is
                // its usage status, 2: 1 would read as "no match".
                Err(e) => return usage_error(io, "grep", &e.to_string()),
            }
        }
        let mut m = Patterns {
            hits: vec![None; matchers.len()],
            matchers,
        };
        let files = operands.inputs();
        let mut t = Tally {
            any: false,
            count: 0,
            emitted: 0,
            stop: false,
            line_no: 0,
            buf: Vec::new(),
        };
        let mut failed = false;
        for f in &files {
            let Some(mut r) = open_or_report(&io.fs, "grep", f, io.stdin, io.stderr)? else {
                failed = true;
                continue;
            };
            t.line_no = 0;
            for_each_block(&mut r, |block| {
                scan_block(&mut m, block, &o, io.stdout, &mut t)?;
                Ok(!t.stop)
            })?;
            if t.stop {
                break;
            }
        }
        if o.count {
            writeln!(io.stdout, "{}", t.count)?;
        }
        // An operand that could not be read is an error, 2, whatever
        // the others matched.
        Ok(match (failed, t.any) {
            (true, _) => 2,
            (false, true) => 0,
            (false, false) => 1,
        })
    }
}

/// The matchers of grep's patterns: a line matches when any of them
/// does, as GNU ORs its `-e` patterns. Each matcher's next hit in the
/// block is kept until the scan passes it, so no pattern searches a
/// stretch of the block twice.
struct Patterns {
    matchers: Vec<Matcher>,
    /// Each matcher's first hit at or after the scan position, once
    /// searched for in this block (`Some(None)`: there is none).
    hits: Vec<Option<Option<(usize, usize)>>>,
}

impl Patterns {
    /// The first line at or after `from` that some pattern matches
    /// (see `Matcher::find_line`).
    fn find_line(&mut self, block: &[u8], from: usize) -> Option<(usize, usize)> {
        if let [m] = self.matchers.as_mut_slice() {
            return m.find_line(block, from);
        }
        let mut first: Option<(usize, usize)> = None;
        for (m, hit) in self.matchers.iter_mut().zip(&mut self.hits) {
            let found = match *hit {
                Some(found) if found.is_none_or(|(start, _)| start >= from) => found,
                _ => *hit.insert(m.find_line(block, from)),
            };
            if let Some(line) = found.filter(|&(start, _)| first.is_none_or(|(s, _)| start < s)) {
                first = Some(line);
            }
        }
        first
    }
}

/// Selects one line (or just counts it), honoring `-c`, `-n`, and the
/// `-m` early exit. `t.line_no` is already the line's number.
fn select_line(line: &[u8], o: &Opts, t: &mut Tally) {
    t.any = true;
    t.count += 1;
    if !o.count {
        if o.line_numbers {
            write!(t.buf, "{}:", t.line_no).expect("writing to a Vec cannot fail");
        }
        t.buf.extend_from_slice(line);
        t.buf.push(b'\n');
    }
    t.emitted += 1;
    if o.max.is_some_and(|mx| t.emitted >= mx) {
        t.stop = true;
    }
}

/// Number of lines in a region (a final unterminated line counts).
fn line_count(region: &[u8]) -> u64 {
    let nl = count_byte(b'\n', region) as u64;
    nl + u64::from(region.last().is_some_and(|&b| b != b'\n'))
}

/// A run this long is written straight from the block instead of
/// through the per-block buffer.
const BULK: usize = 4096;

/// Handles a run of whole lines the pattern does not match. Without
/// `-v` it is skipped (its newlines counted a window at a time, only for
/// `-n`); with `-v` every line of it is selected — as one copy or one
/// bulk write when no per-line bookkeeping (`-n`, `-m`) is needed.
fn on_gap(gap: &[u8], o: &Opts, out: &mut dyn Write, t: &mut Tally) -> io::Result<()> {
    if !o.invert {
        if o.line_numbers {
            t.line_no += line_count(gap);
        }
        return Ok(());
    }
    if o.max.is_some() || (o.line_numbers && !o.count) {
        for line in buffer_lines(gap) {
            t.line_no += 1;
            select_line(line, o, t);
            if t.stop {
                break;
            }
        }
        return Ok(());
    }
    t.any = true;
    if o.count {
        t.count += line_count(gap);
    } else if gap.len() < BULK {
        t.buf.extend_from_slice(gap);
    } else {
        out.write_all(&t.buf)?;
        t.buf.clear();
        out.write_all(gap)?;
    }
    if !o.count && gap.last() != Some(&b'\n') {
        // A selected final line is always terminated.
        t.buf.push(b'\n');
    }
    Ok(())
}

/// Scans one block of complete lines (the final line of the input may
/// be unterminated): the matcher finds each line the pattern matches,
/// and what lies between two of them is a run of lines it does not.
/// The block's selected lines leave in one write.
fn scan_block(
    m: &mut Patterns,
    block: &[u8],
    o: &Opts,
    out: &mut dyn Write,
    t: &mut Tally,
) -> io::Result<()> {
    m.hits.fill(None);
    let mut pos = 0usize;
    while pos < block.len() && !t.stop {
        let hit = m.find_line(block, pos);
        let gap_end = hit.map_or(block.len(), |(start, _)| start);
        if gap_end > pos {
            on_gap(&block[pos..gap_end], o, out, t)?;
            if t.stop {
                break;
            }
        }
        let Some((start, end)) = hit else { break };
        t.line_no += 1;
        if !o.invert {
            select_line(&block[start..end], o, t);
        }
        pos = end + 1;
    }
    out.write_all(&t.buf)?;
    t.buf.clear();
    Ok(())
}

fn build_regex(pattern: &str, o: &Opts) -> Result<Regex, pash_regex::Error> {
    let base = if o.fixed {
        escape_fixed(pattern)
    } else {
        pattern.to_string()
    };
    let syntax = if o.ere || o.fixed {
        Syntax::Ere
    } else {
        Syntax::Bre
    };
    let wrapped = if o.word {
        // \b is supported by the engine in both syntaxes.
        format!(r"\b({base})\b")
    } else {
        base
    };
    let wrapped = if o.word && syntax == Syntax::Bre {
        // BRE grouping uses escaped parens.
        format!(r"\b\({pattern}\)\b")
    } else {
        wrapped
    };
    Regex::with_flags(&wrapped, syntax, o.ignore_case)
}

/// Escapes ERE metacharacters for `-F` fixed-string matching.
///
/// The escaped pattern parses back to a pure literal, so the tier
/// picker recognizes it and `-F` runs as plain `memmem` — no automaton
/// is ever built for fixed strings.
fn escape_fixed(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 2);
    for c in s.chars() {
        if "\\^$.[]|()*+?{}".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::fs::MemFs;
    use crate::{run_command, Captured, Registry};
    use std::sync::Arc;

    fn grep(args: &[&str], input: &str) -> Captured {
        let mut argv = vec!["grep"];
        argv.extend(args);
        let fs = Arc::new(MemFs::new());
        fs.add("f1", b"apple\nbanana\n".to_vec());
        fs.add("f2", b"cherry\napricot\n".to_vec());
        run_command(&Registry::standard(), fs, &argv, input.as_bytes()).expect("run")
    }

    fn out(args: &[&str], input: &str) -> String {
        String::from_utf8(grep(args, input).stdout).expect("utf8")
    }

    #[test]
    fn basic_filter() {
        assert_eq!(out(&["gz"], "a.gz\nb.txt\nc.gz\n"), "a.gz\nc.gz\n");
    }

    #[test]
    fn invert() {
        assert_eq!(out(&["-v", "gz"], "a.gz\nb.txt\n"), "b.txt\n");
    }

    #[test]
    fn case_insensitive() {
        // The NOAA filter: grep -iv 999.
        assert_eq!(out(&["-iv", "999"], "0123\n0999\nAbCd\n"), "0123\nAbCd\n");
        assert_eq!(out(&["-i", "abc"], "xABCy\n"), "xABCy\n");
    }

    #[test]
    fn count() {
        assert_eq!(out(&["-c", "a"], "a\nb\nca\n"), "2\n");
    }

    #[test]
    fn count_with_no_matches() {
        let c = grep(&["-c", "zzz"], "a\nb\n");
        assert_eq!(String::from_utf8(c.stdout).expect("utf8"), "0\n");
        assert_eq!(c.status, 1);
    }

    #[test]
    fn exit_status_reflects_match() {
        assert_eq!(grep(&["a"], "abc\n").status, 0);
        assert_eq!(grep(&["z"], "abc\n").status, 1);
        // A pattern that does not compile is a usage error, not a miss.
        for bad in [&["a\\("][..], &["-E", "a("], &["-e", "a", "-e", "b\\("]] {
            let c = grep(bad, "abc\n");
            assert_eq!((c.status, c.stdout.len()), (2, 0), "{bad:?}");
        }
    }

    #[test]
    fn ere_alternation() {
        assert_eq!(out(&["-E", "a|c"], "a\nb\nc\n"), "a\nc\n");
    }

    #[test]
    fn bre_default_plus_literal() {
        assert_eq!(out(&["a+"], "a+\naa\n"), "a+\n");
    }

    #[test]
    fn fixed_strings() {
        assert_eq!(out(&["-F", "a.b"], "a.b\naxb\n"), "a.b\n");
    }

    #[test]
    fn line_numbers() {
        assert_eq!(out(&["-n", "b"], "a\nb\nc\nb\n"), "2:b\n4:b\n");
    }

    #[test]
    fn word_match() {
        assert_eq!(out(&["-w", "cat"], "cat\nconcat\ncat!\n"), "cat\ncat!\n");
    }

    #[test]
    fn files_in_order() {
        assert_eq!(out(&["ap", "f1", "f2"], ""), "apple\napricot\n");
    }

    #[test]
    fn max_count_stops_early() {
        assert_eq!(out(&["-m", "2", "a"], "a1\na2\na3\n"), "a1\na2\n");
    }

    #[test]
    fn max_count_attached_value() {
        // `-m2` (attached) must behave exactly like `-m 2` (separate).
        assert_eq!(out(&["-m2", "a"], "a1\na2\na3\n"), "a1\na2\n");
        assert_eq!(out(&["-m1", "a"], "a1\na2\n"), "a1\n");
    }

    #[test]
    fn max_count_in_cluster() {
        assert_eq!(out(&["-vm2", "x"], "a\nx\nb\nc\n"), "a\nb\n");
        assert_eq!(out(&["-nm2", "a"], "a1\nb\na2\na3\n"), "1:a1\n3:a2\n");
        // Bare trailing m in a cluster takes the next argument.
        assert_eq!(out(&["-vm", "1", "x"], "a\nx\nb\n"), "a\n");
    }

    #[test]
    fn max_count_spans_files() {
        assert_eq!(
            out(&["-m", "3", "a", "f1", "f2"], ""),
            "apple\nbanana\napricot\n"
        );
        assert_eq!(out(&["-m2", "a", "f1", "f2"], ""), "apple\nbanana\n");
    }

    #[test]
    fn max_count_with_count_flag_caps_count() {
        assert_eq!(out(&["-cm2", "a"], "a1\na2\na3\n"), "2\n");
    }

    #[test]
    fn line_numbers_reset_per_file() {
        assert_eq!(out(&["-n", "ap", "f1", "f2"], ""), "1:apple\n2:apricot\n");
    }

    #[test]
    fn line_numbers_with_invert() {
        // The scan path counts skipped lines a window at a time; numbers
        // must stay exact either way.
        assert_eq!(out(&["-vn", "b"], "a\nb\nc\nd\n"), "1:a\n3:c\n4:d\n");
    }

    #[test]
    fn line_numbers_on_candidate_lines_only() {
        // Lines 1..3 carry no candidate literal; line 4 does.
        assert_eq!(out(&["-n", "needle"], "x\ny\nz\nneedle\nw\n"), "4:needle\n");
    }

    #[test]
    fn explicit_e_pattern() {
        assert_eq!(out(&["-e", "-x"], "-x\nyy\n"), "-x\n");
    }

    #[test]
    fn every_e_pattern_selects() {
        let input = "a\nx\nb\nax\n";
        assert_eq!(out(&["-e", "a", "-e", "x"], input), "a\nx\nax\n");
        assert_eq!(out(&["-c", "-e", "x", "-e", "a"], input), "3\n");
        assert_eq!(out(&["-v", "-e", "a", "-e", "x"], input), "b\n");
        assert_eq!(out(&["-n", "-e", "b", "-e", "^x"], input), "2:x\n3:b\n");
        // The lines of one pattern are patterns too.
        assert_eq!(out(&["a\nb"], input), "a\nb\nax\n");
    }

    #[test]
    fn unterminated_final_line() {
        assert_eq!(out(&["b"], "a\nb"), "b\n");
        assert_eq!(out(&["-v", "a"], "a\nb"), "b\n");
        assert_eq!(out(&["-c", "b"], "a\nb"), "1\n");
    }

    #[test]
    fn anchored_patterns_are_line_relative() {
        assert_eq!(out(&["^b"], "ab\nba\n"), "ba\n");
        assert_eq!(out(&["b$"], "ab\nba\n"), "ab\n");
        assert_eq!(out(&["-E", "^$"], "a\n\nb\n"), "\n");
    }

    #[test]
    fn scan_path_handles_large_input() {
        // Forces multiple 256 KiB chunks through the scan loop with a
        // match near the end.
        let mut input = "filler line without the token\n".repeat(20_000);
        input.push_str("the needle line\n");
        input.push_str(&"more filler\n".repeat(5));
        assert_eq!(out(&["needle"], &input), "the needle line\n");
        assert_eq!(out(&["-c", "needle"], &input), "1\n");
        let c = grep(&["-c", "-v", "needle"], &input);
        assert_eq!(String::from_utf8(c.stdout).expect("utf8"), "20005\n");
    }
}
