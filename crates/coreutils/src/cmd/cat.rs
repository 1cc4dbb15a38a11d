//! `cat` and `tac`.

use std::io::{self, Read};

use pash_regex::memmem::memrchr;

use crate::args::scanned;
use crate::lines::{for_each_record, write_record};
use crate::{open_input, open_or_report, CmdIo, Command, ExitStatus};

/// `cat [-n] [file…]` — concatenate inputs in argument order.
///
/// The quintessential *streaming* command (§4.1): it consumes its
/// inputs strictly in order. With `-n` it numbers output lines and
/// moves from class S to class P (the annotation stdlib encodes this).
/// Numbering runs across operands, as GNU's does: one that ends
/// mid-line is continued by the next.
pub struct Cat;

impl Command for Cat {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut number = false;
        // `-u`, unbuffered, is a no-op.
        let files = scanned!(io, args, "cat", |name, _| {
            number |= name == "n";
            Ok(())
        })
        .inputs();
        let mut line_no: u64 = 0;
        let mut at_line_start = true;
        let mut status = 0;
        for f in files {
            let Some(mut r) = open_or_report(&io.fs, "cat", f, io.stdin, io.stderr)? else {
                status = 1;
                continue;
            };
            if number {
                for_each_record(&mut r, |line, terminated| {
                    if at_line_start {
                        line_no += 1;
                        write!(io.stdout, "{line_no:6}\t")?;
                    }
                    write_record(io.stdout, line, terminated)?;
                    at_line_start = terminated;
                    Ok(true)
                })?;
            } else {
                let mut buf = [0u8; 64 * 1024];
                loop {
                    let n = r.read(&mut buf)?;
                    if n == 0 {
                        break;
                    }
                    io.stdout.write_all(&buf[..n])?;
                }
            }
        }
        Ok(status)
    }
}

/// `tac [file…]` — concatenate, then write the lines in reverse order.
///
/// A *parallelizable pure* command: its aggregator consumes partial
/// outputs in reverse stream order (§5.2).
pub struct Tac;

impl Command for Tac {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let files = scanned!(io, args, "tac", |_, _| Ok(())).inputs();
        let mut data = Vec::new();
        for f in files {
            open_input(&io.fs, f, io.stdin)?.read_to_end(&mut data)?;
        }
        // Each record goes out as it came in, terminator and all: an
        // unterminated last record leads the output, newline-less, as
        // GNU's does.
        let mut end = data.len();
        while end > 0 {
            let start = memrchr(b'\n', &data[..end - 1]).map_or(0, |i| i + 1);
            io.stdout.write_all(&data[start..end])?;
            end = start;
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use crate::fs::MemFs;
    use crate::{run_command, Registry};
    use std::sync::Arc;

    fn run(argv: &[&str], input: &[u8]) -> Vec<u8> {
        let fs = Arc::new(MemFs::new());
        fs.add("f1", b"one\ntwo\n".to_vec());
        fs.add("f2", b"three\n".to_vec());
        run_command(&Registry::standard(), fs, argv, input)
            .expect("run")
            .stdout
    }

    #[test]
    fn cat_stdin() {
        assert_eq!(run(&["cat"], b"a\nb\n"), b"a\nb\n");
    }

    #[test]
    fn cat_files_in_order() {
        assert_eq!(run(&["cat", "f1", "f2"], b""), b"one\ntwo\nthree\n");
        assert_eq!(run(&["cat", "f2", "f1"], b""), b"three\none\ntwo\n");
    }

    #[test]
    fn cat_dash_mixes_stdin() {
        assert_eq!(run(&["cat", "f2", "-"], b"tail\n"), b"three\ntail\n");
    }

    #[test]
    fn cat_n_numbers_lines() {
        let out = run(&["cat", "-n", "f1"], b"");
        let s = String::from_utf8(out).expect("utf8");
        assert!(s.contains("1\tone"));
        assert!(s.contains("2\ttwo"));
    }

    #[test]
    fn cat_n_continues_across_files() {
        let out = run(&["cat", "-n", "f1", "f2"], b"");
        let s = String::from_utf8(out).expect("utf8");
        assert!(s.contains("3\tthree"));
    }

    #[test]
    fn cat_n_keeps_an_unterminated_line_so() {
        assert_eq!(run(&["cat", "-n"], b"ab\ncad"), b"     1\tab\n     2\tcad");
        // The next operand continues the line, unnumbered.
        assert_eq!(run(&["cat", "-n", "-", "f2"], b"ab"), b"     1\tabthree\n");
    }

    #[test]
    fn tac_reverses() {
        assert_eq!(run(&["tac"], b"a\nb\nc\n"), b"c\nb\na\n");
        // Each record keeps the terminator it had, as GNU's do.
        assert_eq!(run(&["tac"], b"ab\n\ncd"), b"cd\nab\n");
        assert_eq!(run(&["tac"], b"x\ncd"), b"cdx\n");
        assert_eq!(run(&["tac"], b"\n\n"), b"\n\n");
    }

    #[test]
    fn tac_across_files() {
        assert_eq!(run(&["tac", "f1", "f2"], b""), b"three\ntwo\none\n");
    }

    #[test]
    fn cat_empty_input() {
        assert_eq!(run(&["cat"], b""), b"");
    }
}
