//! `wc` — count lines, words, bytes.

use std::io;

use crate::args::{of, scan, Operands};
use crate::bytemask::count_byte;
use crate::{open_or_report, usage_error, CmdIo, Command, ExitStatus};

/// `wc [-lwcm] [file…]`.
///
/// The paper's example of a *trivially* parallelizable-pure command:
/// the aggregator adds per-part count vectors, whatever flag subset is
/// active (`wc -lw`, `wc -lwc`, … — §5.2).
pub struct Wc;

/// One file's counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Newline count.
    pub lines: u64,
    /// Word count.
    pub words: u64,
    /// Byte count.
    pub bytes: u64,
}

/// Counts a byte stream in place, one `fill_buf` chunk at a time.
/// Newlines are counted a word at a time; the per-byte word scan runs
/// only when `words` asks for it (`wc -l`, `wc -c` skip it, and then
/// `Counts::words` stays 0).
pub fn count_stream<R: io::BufRead + ?Sized>(r: &mut R, words: bool) -> io::Result<Counts> {
    let mut c = Counts::default();
    let mut in_word = false;
    loop {
        let chunk = r.fill_buf()?;
        let n = chunk.len();
        if n == 0 {
            return Ok(c);
        }
        c.bytes += n as u64;
        c.lines += count_byte(b'\n', chunk) as u64;
        if words {
            for &b in chunk {
                if b.is_ascii_whitespace() {
                    in_word = false;
                } else if !in_word {
                    in_word = true;
                    c.words += 1;
                }
            }
        }
        r.consume(n);
    }
}

/// Which columns to print, in canonical order (lines, words, bytes).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// `-l`
    pub lines: bool,
    /// `-w`
    pub words: bool,
    /// `-c` / `-m` (byte/char counts coincide for our byte streams).
    pub bytes: bool,
}

impl Selection {
    /// The column width of a report over `inputs` (`-` is stdin), by
    /// GNU's `compute_number_width`: a lone count of a lone input is
    /// bare; else the digits of the named files' summed `size`, and at
    /// least seven when stdin, a pipe of no known size, is one.
    pub fn width(&self, inputs: &[&str], size: impl Fn(&str) -> Option<u64>) -> usize {
        let columns = usize::from(self.lines) + usize::from(self.words) + usize::from(self.bytes);
        if columns == 1 && inputs.len() <= 1 {
            return 1;
        }
        let named = inputs.iter().filter(|f| **f != "-");
        let total: u64 = named.filter_map(|f| size(f)).sum();
        let least = if inputs.contains(&"-") { 7 } else { 1 };
        let digits = total.checked_ilog10().map_or(1, |d| d as usize + 1);
        digits.max(least)
    }

    /// Formats one counts row under this selection, every count
    /// right-aligned to `width`.
    pub fn format(&self, c: &Counts, label: Option<&str>, width: usize) -> String {
        let mut cols: Vec<String> = Vec::new();
        if self.lines {
            cols.push(format!("{:width$}", c.lines));
        }
        if self.words {
            cols.push(format!("{:width$}", c.words));
        }
        if self.bytes {
            cols.push(format!("{:width$}", c.bytes));
        }
        let mut row = cols.join(" ");
        if let Some(l) = label {
            row.push(' ');
            row.push_str(l);
        }
        row
    }
}

/// Parses wc's argv with the commands' one option scanner (shared
/// with the aggregator): the selection, and the operands or why the
/// argv is refused.
pub fn parse_selection(args: &[String]) -> (Selection, Result<Operands<'_>, String>) {
    let mut sel = Selection::default();
    let operands = scan(args, of("wc"), |name, _| {
        match name {
            "l" => sel.lines = true,
            "w" => sel.words = true,
            _ => sel.bytes = true, // `-c`, `-m`: one count for bytes.
        }
        Ok(())
    });
    if !(sel.lines || sel.words || sel.bytes) {
        sel = Selection {
            lines: true,
            words: true,
            bytes: true,
        };
    }
    (sel, operands)
}

impl Command for Wc {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let (sel, operands) = parse_selection(args);
        let operands = match operands {
            Ok(operands) => operands,
            Err(e) => return usage_error(io, "wc", &e),
        };
        // A count of stdin read by default is not labelled.
        let from_stdin = operands.0.is_empty();
        let files = operands.inputs();
        let mut total = Counts::default();
        let many = files.len() > 1;
        let width = sel.width(&files, |f| io.fs.size(f).ok());
        let mut status = 0;
        for f in &files {
            let Some(mut r) = open_or_report(&io.fs, "wc", f, io.stdin, io.stderr)? else {
                status = 1;
                continue;
            };
            let c = count_stream(&mut r, sel.words)?;
            total.lines += c.lines;
            total.words += c.words;
            total.bytes += c.bytes;
            let label = if from_stdin { None } else { Some(*f) };
            writeln!(io.stdout, "{}", sel.format(&c, label, width))?;
        }
        if many {
            writeln!(io.stdout, "{}", sel.format(&total, Some("total"), width))?;
        }
        Ok(status)
    }
}

#[cfg(test)]
mod tests {
    use crate::fs::MemFs;
    use crate::{run_command, Registry};
    use std::sync::Arc;

    fn wc(args: &[&str], input: &str) -> String {
        let mut argv = vec!["wc"];
        argv.extend(args);
        let fs = Arc::new(MemFs::new());
        fs.add("w1", b"one two\nthree\n".to_vec());
        fs.add("w2", b"x\n".to_vec());
        let out = run_command(&Registry::standard(), fs, &argv, input.as_bytes()).expect("run");
        String::from_utf8(out.stdout).expect("utf8")
    }

    #[test]
    fn lines_only() {
        assert_eq!(wc(&["-l"], "a\nb\nc\n").trim(), "3");
    }

    #[test]
    fn a_lone_count_of_a_lone_input_is_bare() {
        // GNU pads only when there is something to align with.
        assert_eq!(wc(&["-l"], "a\nb\nc\n"), "3\n");
        assert_eq!(wc(&["-c"], ""), "0\n");
        assert_eq!(wc(&["-l", "w1"], ""), "2 w1\n");
        assert_eq!(wc(&["-lw"], "a b\n"), "      1       2\n");
    }

    #[test]
    fn named_files_are_as_wide_as_their_summed_sizes() {
        // GNU's `compute_number_width`: 14 + 2 bytes make two digits,
        // a missing file adds nothing, stdin makes at least seven.
        assert_eq!(wc(&["-l", "w1", "w2"], ""), " 2 w1\n 1 w2\n 3 total\n");
        assert_eq!(wc(&["-lw", "w1"], ""), " 2  3 w1\n");
        assert_eq!(wc(&["w2"], ""), "1 1 2 w2\n");
        assert_eq!(
            wc(&["-l", "-", "w1"], "a\n"),
            "      1 -\n      2 w1\n      3 total\n"
        );
        let width = |inputs: &[&str]| {
            let sel = super::Selection {
                lines: true,
                ..Default::default()
            };
            sel.width(inputs, |f| (f != "nope").then_some(16))
        };
        assert_eq!(width(&["nope", "w1"]), 2);
        assert_eq!(width(&["nope", "nope"]), 1);
    }

    #[test]
    fn words_only() {
        assert_eq!(wc(&["-w"], "one two  three\nfour\n").trim(), "4");
    }

    #[test]
    fn bytes_only() {
        assert_eq!(wc(&["-c"], "abcd").trim(), "4");
    }

    #[test]
    fn default_all_three() {
        let row = wc(&[], "a b\n");
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols, vec!["1", "2", "4"]);
    }

    #[test]
    fn combined_lw() {
        let row = wc(&["-lw"], "a b\nc\n");
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols, vec!["2", "3"]);
    }

    #[test]
    fn multiple_files_with_total() {
        let out = wc(&["-l", "w1", "w2"], "");
        assert!(out.contains("w1"));
        assert!(out.contains("w2"));
        assert!(out.lines().last().expect("total row").contains("total"));
        let total_line = out.lines().last().expect("total row");
        assert!(total_line.split_whitespace().next() == Some("3"));
    }

    #[test]
    fn no_trailing_newline_still_counts_words() {
        let row = wc(&["-lw"], "no newline here");
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols, vec!["0", "3"]);
    }
}
