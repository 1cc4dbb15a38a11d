//! `uniq` — filter adjacent duplicate lines.

use std::io::{self, Write};

use crate::args::scanned;
use crate::lines::{buffer_lines, for_each_block, push_count};
use crate::{error_text, open_or_report, usage_error, CmdIo, Command, ExitStatus};

/// `uniq [-c] [-d] [-u] [-i] [INPUT [OUTPUT]]`: OUTPUT, when given, is
/// written instead of stdout.
///
/// Class P: parallel parts need an aggregator that re-examines the
/// boundary between adjacent parts (§5.2's `uniq` combiner).
pub struct Uniq;

/// Which groups print, and how.
#[derive(Default)]
struct Opts {
    count: bool,
    only_dup: bool,
    only_uniq: bool,
    ignore_case: bool,
}

impl Opts {
    fn same(&self, a: &[u8], b: &[u8]) -> bool {
        if self.ignore_case {
            a.eq_ignore_ascii_case(b)
        } else {
            a == b
        }
    }

    /// Appends a finished group of `n` lines, if it is selected.
    fn emit(&self, line: &[u8], n: u64, out: &mut Vec<u8>) {
        let selected = if self.only_dup {
            n > 1
        } else if self.only_uniq {
            n == 1
        } else {
            true
        };
        if !selected {
            return;
        }
        if self.count {
            push_count(out, n);
        }
        out.extend_from_slice(line);
        out.push(b'\n');
    }
}

impl Command for Uniq {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut o = Opts::default();
        let operands = scanned!(io, args, "uniq", |name, _| {
            match name {
                "c" => o.count = true,
                "d" => o.only_dup = true,
                "u" => o.only_uniq = true,
                _ => o.ignore_case = true,
            }
            Ok(())
        })
        .words();
        if let Some(extra) = operands.get(2) {
            return usage_error(io, "uniq", &format!("extra operand '{extra}'"));
        }
        let input = operands.first().copied().unwrap_or("-");
        // As GNU's: the input is opened first, then the output.
        let Some(mut r) = open_or_report(&io.fs, "uniq", input, io.stdin, io.stderr)? else {
            return Ok(1);
        };
        let mut file;
        let stdout: &mut dyn Write = match operands.get(1).filter(|&&o| o != "-") {
            None => &mut *io.stdout,
            Some(path) => match io.fs.create(path) {
                Ok(w) => {
                    file = w;
                    &mut file
                }
                Err(e) => {
                    writeln!(io.stderr, "uniq: {path}: {}", error_text(&e))?;
                    return Ok(1);
                }
            },
        };
        // The open group is `held` × `n` between blocks. Inside a block
        // its first line is compared where it lies; only a group still
        // open at the block's end is copied out.
        let mut held: Vec<u8> = Vec::new();
        let mut n = 0u64;
        let mut out = Vec::new();
        for_each_block(&mut r, |block| {
            out.clear();
            let mut first: Option<&[u8]> = None;
            for line in buffer_lines(block) {
                if n > 0 && o.same(first.unwrap_or(&held), line) {
                    n += 1;
                    continue;
                }
                if n > 0 {
                    o.emit(first.unwrap_or(&held), n, &mut out);
                }
                first = Some(line);
                n = 1;
            }
            if let Some(line) = first {
                held.clear();
                held.extend_from_slice(line);
            }
            stdout.write_all(&out)?;
            Ok(true)
        })?;
        if n > 0 {
            out.clear();
            o.emit(&held, n, &mut out);
            stdout.write_all(&out)?;
        }
        stdout.flush()?;
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use crate::fs::MemFs;
    use crate::{run_command, Registry};
    use std::sync::Arc;

    fn uniq(args: &[&str], input: &str) -> String {
        let mut argv = vec!["uniq"];
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
    fn adjacent_dedup() {
        assert_eq!(uniq(&[], "a\na\nb\na\n"), "a\nb\na\n");
    }

    #[test]
    fn count() {
        assert_eq!(uniq(&["-c"], "a\na\nb\n"), "      2 a\n      1 b\n");
    }

    #[test]
    fn only_duplicates() {
        assert_eq!(uniq(&["-d"], "a\na\nb\nc\nc\n"), "a\nc\n");
    }

    #[test]
    fn only_uniques() {
        assert_eq!(uniq(&["-u"], "a\na\nb\nc\nc\n"), "b\n");
    }

    #[test]
    fn ignore_case() {
        assert_eq!(uniq(&["-i"], "A\na\nb\n"), "A\nb\n");
    }

    #[test]
    fn empty_input() {
        assert_eq!(uniq(&[], ""), "");
    }

    #[test]
    fn single_line() {
        assert_eq!(uniq(&["-c"], "only\n"), "      1 only\n");
    }

    #[test]
    fn a_second_operand_is_the_output() {
        let fs = Arc::new(MemFs::new());
        fs.add("in", b"a\na\nb\n".to_vec());
        let reg = Registry::standard();
        let out = run_command(&reg, fs.clone(), &["uniq", "in", "out"], b"").expect("run");
        assert_eq!((out.stdout.as_slice(), out.status), (&b""[..], 0));
        assert_eq!(fs.read("out").expect("out"), b"a\nb\n");
        let out = run_command(&reg, fs.clone(), &["uniq", "in", "-"], b"").expect("run");
        assert_eq!(out.stdout, b"a\nb\n");
        // A third operand is refused, and a missing input creates no
        // output, as GNU's.
        let out = run_command(&reg, fs.clone(), &["uniq", "in", "o2", "x"], b"").expect("run");
        assert_eq!(out.status, 1);
        let out = run_command(&reg, fs.clone(), &["uniq", "nope", "o3"], b"").expect("run");
        assert_eq!(out.status, 1);
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "uniq: nope: No such file or directory\n"
        );
        assert!(fs.read("o2").is_err() && fs.read("o3").is_err());
    }
}
