//! `cut` — select fields or character columns from each line.
//!
//! `cut -f` finds its field and line terminators by position mask:
//! one 64-byte window of the block at a time, a mask of the delimiter
//! and one of `\n` (`bytemask`), walked bit by bit with
//! `trailing_zeros`. Every list form and `-s` take this path; `cut -c`
//! slices each line by position.

use std::io;

use crate::args::scanned;
use crate::bytemask::{copy_run, ByteSet, WINDOW};
use crate::lines::{buffer_lines, for_each_block, parse_ranges};
use crate::{open_or_report, usage_error, CmdIo, Command, ExitStatus};

/// `cut -f LIST [-d DELIM] [-s]` and `cut -c LIST`.
///
/// Stateless (class S): each line maps to at most one output line.
/// The paper's Fig. 1 calls it twice with different flag sets — the
/// annotation record resolves both to S.
pub struct Cut;

/// `cut -d`'s delimiter, or its usage error. `-d ''` is NUL, as in
/// GNU's.
pub(crate) fn delimiter(value: &str) -> Result<u8, String> {
    match value.as_bytes() {
        [] => Ok(0),
        [d] => Ok(*d),
        _ => Err("the delimiter must be a single character".into()),
    }
}

/// `cut`'s usage error for a second `-f` or `-c`.
pub(crate) const ONE_LIST: &str = "only one list may be specified";

/// The ranges of `cut`'s one list, or its usage error.
pub(crate) fn ranges(list: Option<&str>) -> Result<Vec<(usize, usize)>, &'static str> {
    match list {
        None => Err("you must specify a list of bytes, characters, or fields"),
        Some(list) => parse_ranges(list).ok_or("invalid list"),
    }
}

impl Command for Cut {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        // The list, and whether it counts fields.
        let mut list: Option<(&str, bool)> = None;
        let mut delim = b'\t';
        let mut suppress = false;
        let files = scanned!(io, args, "cut", |name, value| {
            match name {
                "f" | "c" if list.is_some() => return Err(ONE_LIST.into()),
                "f" | "c" => list = Some((value, name == "f")),
                "d" => delim = delimiter(value)?,
                _ => suppress = true,
            }
            Ok(())
        })
        .inputs();
        let ranges = match ranges(list.map(|(list, _)| list)) {
            Ok(ranges) => ranges,
            Err(e) => return usage_error(io, "cut", e),
        };
        let by_fields = list.is_some_and(|(_, by_fields)| by_fields);
        let mut out = Vec::new();
        let mut status = 0;
        for f in files {
            let Some(mut r) = open_or_report(&io.fs, "cut", f, io.stdin, io.stderr)? else {
                status = 1;
                continue;
            };
            for_each_block(&mut r, |block| {
                let n = if by_fields {
                    cut_fields(block, &ranges, delim, suppress, &mut out)
                } else {
                    out.clear();
                    cut_bytes(block, &ranges, &mut out);
                    out.len()
                };
                io.stdout.write_all(&out[..n])?;
                Ok(true)
            })?;
        }
        Ok(status)
    }
}

/// The field and line terminators of a block, in order, found one
/// 64-byte window of position masks at a time.
///
/// Each call answers the lowest terminator not yet answered: the
/// lowest bit left in the window's masks, whose bits are cleared as
/// they are answered; an empty window gives way to the next.
struct Seps<'a> {
    block: &'a [u8],
    delim: ByteSet,
    newline: ByteSet,
    /// Offset of the window's first byte.
    base: usize,
    /// Terminators of the window not yet answered, by position.
    seps: u64,
    /// The newlines among them.
    newlines: u64,
}

impl<'a> Seps<'a> {
    fn new(block: &'a [u8], delim: u8) -> Seps<'a> {
        let mut seps = Seps {
            block,
            delim: ByteSet::new(&[delim]).expect("one byte"),
            newline: ByteSet::new(b"\n").expect("one byte"),
            base: 0,
            seps: 0,
            newlines: 0,
        };
        seps.load(0);
        seps
    }

    /// Makes the window start at `base`.
    #[inline]
    fn load(&mut self, base: usize) {
        self.base = base;
        let window = &self.block[base..self.block.len().min(base + WINDOW)];
        self.newlines = self.newline.mask(window);
        self.seps = self.delim.mask(window) | self.newlines;
    }

    /// Moves to the next window; false at the block's end.
    #[inline]
    fn advance(&mut self) -> bool {
        let more = self.base + WINDOW < self.block.len();
        if more {
            self.load(self.base + WINDOW);
        }
        more
    }

    /// The next terminator: its offset (the block's end for an
    /// unterminated last line) and whether it is a delimiter, i.e.
    /// whether the line goes on.
    #[inline]
    fn next_sep(&mut self) -> (usize, bool) {
        loop {
            if self.seps != 0 {
                let at = self.seps.trailing_zeros();
                self.seps &= self.seps - 1;
                let delimiter = self.newlines >> at & 1 == 0;
                self.newlines &= self.seps;
                return (self.base + at as usize, delimiter);
            }
            if !self.advance() {
                return (self.block.len(), false);
            }
        }
    }

    /// The end of the current line, its `\n` or the block's end,
    /// passing the delimiters before it.
    #[inline]
    fn line_end(&mut self) -> usize {
        loop {
            if self.newlines != 0 {
                let at = self.newlines.trailing_zeros();
                let passed = u64::MAX.checked_shl(at + 1).unwrap_or(0);
                self.seps &= passed;
                self.newlines &= passed;
                return self.base + at as usize;
            }
            if !self.advance() {
                return self.block.len();
            }
        }
    }
}

/// `cut -f` over one block of whole lines, into the front of `out`;
/// returns the output length.
///
/// `ranges` are sorted and disjoint, so one cursor walks the line's
/// terminators forward while another walks the ranges, and a range's
/// fields — delimiters between them included — are one slice of the
/// line. No line's output is longer than the line and its newline,
/// so `out` is sized once, with room for [`copy_run`]'s whole-window
/// moves past the end.
fn cut_fields(
    block: &[u8],
    ranges: &[(usize, usize)],
    delim: u8,
    suppress: bool,
    out: &mut Vec<u8>,
) -> usize {
    if out.len() < block.len() + 1 + WINDOW {
        out.resize(block.len() + 1 + WINDOW, 0);
    }
    let mut w = 0;
    let mut seps = Seps::new(block, delim);
    let mut pos = 0;
    while pos < block.len() {
        let (first, delimited) = seps.next_sep();
        if !delimited {
            // No delimiter on the line: it passes whole, or not at all.
            if !suppress {
                copy_run(block, pos, first - pos, out, w);
                w += first - pos;
                out[w] = b'\n';
                w += 1;
            }
            pos = first + 1;
            continue;
        }
        // Field number `field` is `block[at..end]`; `more` says `end`
        // is a delimiter rather than the end of the line.
        let (mut field, mut at, mut end, mut more) = (1, pos, first, true);
        let mut wrote = false;
        for &(lo, hi) in ranges {
            while field < lo && more {
                at = end + 1;
                (end, more) = seps.next_sep();
                field += 1;
            }
            if field < lo {
                break;
            }
            let span = at;
            if hi == usize::MAX && more {
                // An open range runs to the end of the line.
                (end, more) = (seps.line_end(), false);
            }
            while field < hi && more {
                (end, more) = seps.next_sep();
                field += 1;
            }
            if wrote {
                out[w] = delim;
                w += 1;
            }
            copy_run(block, span, end - span, out, w);
            w += end - span;
            wrote = true;
        }
        if more {
            end = seps.line_end();
        }
        out[w] = b'\n';
        w += 1;
        pos = end + 1;
    }
    w
}

/// `cut -c` over one block of whole lines: each (sorted, disjoint)
/// range is one slice of the line.
fn cut_bytes(block: &[u8], ranges: &[(usize, usize)], out: &mut Vec<u8>) {
    for line in buffer_lines(block) {
        for &(lo, hi) in ranges {
            if lo > line.len() {
                break;
            }
            out.extend_from_slice(&line[lo - 1..hi.min(line.len())]);
        }
        out.push(b'\n');
    }
}

#[cfg(test)]
mod tests {
    use crate::fs::MemFs;
    use crate::{run_command, Registry};
    use std::sync::Arc;

    fn cut(args: &[&str], input: &str) -> String {
        let mut argv = vec!["cut"];
        argv.extend(args);
        let out = run_command(
            &Registry::standard(),
            Arc::new(MemFs::new()),
            &argv,
            input.as_bytes(),
        )
        .expect("run");
        String::from_utf8(out.stdout).expect("utf8")
    }

    #[test]
    fn fields_tab_default() {
        assert_eq!(cut(&["-f", "2"], "a\tb\tc\n"), "b\n");
    }

    #[test]
    fn fields_custom_delim() {
        assert_eq!(
            cut(&["-d", " ", "-f", "9"], "1 2 3 4 5 6 7 8 nine ten\n"),
            "nine\n"
        );
    }

    #[test]
    fn field_ranges() {
        assert_eq!(cut(&["-d", ",", "-f", "1,3-4"], "a,b,c,d,e\n"), "a,c,d\n");
    }

    #[test]
    fn open_range() {
        assert_eq!(cut(&["-d", ",", "-f", "2-"], "a,b,c\n"), "b,c\n");
    }

    #[test]
    fn line_without_delimiter_passes_through() {
        assert_eq!(cut(&["-d", ",", "-f", "2"], "nodelim\n"), "nodelim\n");
    }

    #[test]
    fn suppress_lines_without_delimiter() {
        assert_eq!(cut(&["-d", ",", "-f", "2", "-s"], "nodelim\na,b\n"), "b\n");
    }

    #[test]
    fn characters() {
        // The NOAA temperature extraction shape: cut -c 89-92.
        assert_eq!(cut(&["-c", "2-4"], "abcdef\n"), "bcd\n");
        assert_eq!(cut(&["-c", "1,3"], "abc\n"), "ac\n");
    }

    #[test]
    fn characters_past_end() {
        assert_eq!(cut(&["-c", "5-9"], "abc\n"), "\n");
    }

    #[test]
    fn attached_flag_forms() {
        assert_eq!(cut(&["-d,", "-f2"], "a,b,c\n"), "b\n");
    }

    #[test]
    fn invalid_list_is_usage_error() {
        let out = run_command(
            &Registry::standard(),
            Arc::new(MemFs::new()),
            &["cut", "-f", "0"],
            b"",
        )
        .expect("run");
        assert_eq!(out.status, 1);
    }
}
