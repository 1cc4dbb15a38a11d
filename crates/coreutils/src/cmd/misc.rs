//! Small utility commands: `rev`, `seq`, `echo`, `paste`, `fold`,
//! `tee`, `nl`, `true`, `false`.

use std::io::{self, Read, Write};

use crate::args::{escape, scanned};
use crate::lines::{buffer_lines, for_each_line, for_each_record, write_line, write_record};
use crate::{error_text, open_input, open_or_report, CmdIo, Command, ExitStatus};

/// `rev` — reverse the bytes of each line (class S); an unterminated one stays so.
pub struct Rev;

impl Command for Rev {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let files = scanned!(io, args, "rev", |_, _| Ok(())).inputs();
        for f in files {
            let mut r = open_input(&io.fs, f, io.stdin)?;
            for_each_record(&mut r, |line, terminated| {
                let rev: Vec<u8> = line.iter().rev().copied().collect();
                write_record(io.stdout, &rev, terminated)?;
                Ok(true)
            })?;
        }
        Ok(0)
    }
}

/// `seq [first [incr]] last` — print a number sequence.
pub struct Seq;

impl Command for Seq {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let nums: Vec<i64> = args.iter().filter_map(|a| a.parse().ok()).collect();
        let (first, incr, last) = match nums.as_slice() {
            [l] => (1, 1, *l),
            [f, l] => (*f, 1, *l),
            [f, i, l] => (*f, *i, *l),
            _ => return crate::usage_error(io, "seq", "expected 1-3 numeric arguments"),
        };
        if incr == 0 {
            return crate::usage_error(io, "seq", "increment must be non-zero");
        }
        let mut v = first;
        while (incr > 0 && v <= last) || (incr < 0 && v >= last) {
            writeln!(io.stdout, "{v}")?;
            v += incr;
        }
        Ok(0)
    }
}

/// `echo [args…]` (class E in the study: writes depend on arguments
/// only, consuming no input).
pub struct Echo;

impl Command for Echo {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut newline = true;
        let mut words: &[String] = args;
        if words.first().map(|s| s.as_str()) == Some("-n") {
            newline = false;
            words = &words[1..];
        }
        io.stdout.write_all(words.join(" ").as_bytes())?;
        if newline {
            io.stdout.write_all(b"\n")?;
        }
        Ok(0)
    }
}

/// `paste [-s] [-d LIST] file…` — merge corresponding lines. Side by
/// side, the `-` operands take stdin's lines in turn, as GNU's do.
pub struct Paste;

/// `paste -d`'s list, as GNU's `paste` reads it: a literal list of
/// one-byte delimiters used in turn, where `\0` (or an empty list) is
/// an empty delimiter, `\\ \b \f \n \r \t \v` are [`escape`]'s and
/// any other escaped byte stands for itself. A backslash that ends the
/// list is an error.
pub(crate) fn delimiters(list: &str) -> Result<Vec<Option<u8>>, String> {
    let mut out = Vec::with_capacity(list.len());
    let mut bytes = list.bytes();
    while let Some(b) = bytes.next() {
        // After a backslash, the byte it escapes, if any.
        out.push(match (b == b'\\').then(|| bytes.next()) {
            None => Some(b),
            Some(None) => return Err(format!("delimiter list ends with a backslash: {list}")),
            Some(Some(b'0')) => None,
            // GNU's `paste` knows no `\a` and no octal escape.
            Some(Some(c @ (b'a' | b'1'..=b'9'))) => Some(c),
            Some(Some(c)) => Some(escape(&[c]).map_or(c, |(e, _)| e)),
        });
    }
    if out.is_empty() {
        out.push(None);
    }
    Ok(out)
}

impl Command for Paste {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut delims = vec![Some(b'\t')];
        let mut serial = false;
        let files = scanned!(io, args, "paste", |name, value| {
            match name {
                "s" => serial = true,
                _ => delims = delimiters(value)?,
            }
            Ok(())
        })
        .inputs();
        // The first `-` reads stdin to its end, and the rest find it
        // empty.
        let mut inputs: Vec<Vec<u8>> = Vec::with_capacity(files.len());
        for f in &files {
            let mut buf = Vec::new();
            open_input(&io.fs, f, io.stdin)?.read_to_end(&mut buf)?;
            inputs.push(buf);
        }
        // Side by side, the `-` columns take stdin's lines in turn.
        let dashes: Vec<usize> = (0..files.len()).filter(|&i| files[i] == "-").collect();
        if !serial && dashes.len() > 1 {
            let stdin = std::mem::take(&mut inputs[dashes[0]]);
            for (n, line) in buffer_lines(&stdin).enumerate() {
                let column = &mut inputs[dashes[n % dashes.len()]];
                column.extend_from_slice(line);
                column.push(b'\n');
            }
        }
        // A row is an input's lines (serial), or the next line of each
        // input, where one that ran out leaves its field empty.
        let mut columns: Vec<_> = inputs.iter().map(|input| buffer_lines(input)).collect();
        let rows: Vec<Vec<Option<&[u8]>>> = if serial {
            columns
                .into_iter()
                .map(|lines| lines.map(Some).collect())
                .collect()
        } else {
            std::iter::from_fn(|| {
                let row: Vec<_> = columns.iter_mut().map(Iterator::next).collect();
                row.iter().any(Option::is_some).then_some(row)
            })
            .collect()
        };
        // Every row goes into one buffer, written once.
        let mut out: Vec<u8> = Vec::with_capacity(inputs.iter().map(Vec::len).sum::<usize>() + 1);
        for row in rows {
            for (i, field) in row.into_iter().enumerate() {
                if i > 0 {
                    out.extend(delims[(i - 1) % delims.len()]);
                }
                out.extend_from_slice(field.unwrap_or_default());
            }
            out.push(b'\n');
        }
        io.stdout.write_all(&out)?;
        Ok(0)
    }
}

/// `fold [-w WIDTH]` — wrap lines to a width (class S within lines);
/// an unterminated one stays so.
///
/// The width counts columns, as GNU's does: a tab moves to the next
/// multiple of 8, a backspace goes back one column, a carriage return
/// to column 0, and any other byte takes one. A byte that would pass
/// the width starts the next output line, unless it is the first of
/// its line.
pub struct Fold;

/// The column after `b`, starting from `column`.
fn fold_column(column: usize, b: u8) -> usize {
    match b {
        b'\t' => column + 8 - column % 8,
        b'\x08' => column.saturating_sub(1),
        b'\r' => 0,
        _ => column + 1,
    }
}

/// `fold -w`'s width, or its usage error.
pub(crate) fn columns(value: &str) -> Result<usize, String> {
    let width = value.parse().ok().filter(|&w| w > 0);
    width.ok_or_else(|| format!("invalid number of columns: '{value}'"))
}

impl Command for Fold {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut width = 80usize;
        let files = scanned!(io, args, "fold", |_, value| {
            width = columns(value)?;
            Ok(())
        })
        .inputs();
        for f in files {
            let mut r = open_input(&io.fs, f, io.stdin)?;
            for_each_record(&mut r, |line, terminated| {
                let (mut start, mut column) = (0, 0);
                for (i, &b) in line.iter().enumerate() {
                    column = fold_column(column, b);
                    if column > width && i > start {
                        write_line(io.stdout, &line[start..i])?;
                        start = i;
                        column = fold_column(0, b);
                    }
                }
                write_record(io.stdout, &line[start..], terminated)?;
                Ok(true)
            })?;
        }
        Ok(0)
    }
}

/// `tee [file…]` — copy stdin to stdout and to files; one it cannot
/// create is reported and skipped, with status 1, as GNU's.
pub struct Tee;

impl Command for Tee {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let files = scanned!(io, args, "tee", |_, _| Ok(())).words();
        let mut writers: Vec<Box<dyn Write + Send>> = Vec::new();
        let mut status = 0;
        for f in files {
            match io.fs.create(f) {
                Ok(w) => writers.push(w),
                Err(e) => {
                    writeln!(io.stderr, "tee: {f}: {}", error_text(&e))?;
                    status = 1;
                }
            }
        }
        let mut buf = [0u8; 64 * 1024];
        loop {
            let n = io.stdin.read(&mut buf)?;
            if n == 0 {
                break;
            }
            io.stdout.write_all(&buf[..n])?;
            for w in &mut writers {
                w.write_all(&buf[..n])?;
            }
        }
        Ok(status)
    }
}

/// `nl` — number non-empty lines (a `cat -n` relative; class P).
pub struct Nl;

impl Command for Nl {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let files = scanned!(io, args, "nl", |_, _| Ok(())).inputs();
        let mut n = 0u64;
        let mut status = 0;
        for f in files {
            let Some(mut r) = open_or_report(&io.fs, "nl", f, io.stdin, io.stderr)? else {
                status = 1;
                continue;
            };
            for_each_line(&mut r, |line| {
                if line.is_empty() {
                    // Padded as GNU pads an unnumbered line: number
                    // width plus separator.
                    write_line(io.stdout, b"       ")?;
                } else {
                    n += 1;
                    write!(io.stdout, "{n:6}\t")?;
                    write_line(io.stdout, line)?;
                }
                Ok(true)
            })?;
        }
        Ok(status)
    }
}

/// `true` — succeed (class E in the study: no data path).
pub struct True;

impl Command for True {
    fn run(&self, _args: &[String], _io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        Ok(0)
    }
}

/// `false` — fail.
pub struct False;

impl Command for False {
    fn run(&self, _args: &[String], _io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        Ok(1)
    }
}

#[cfg(test)]
mod tests {
    use crate::fs::MemFs;
    use crate::{run_command, Registry};
    use std::sync::Arc;

    fn run(argv: &[&str], input: &str) -> String {
        let fs = Arc::new(MemFs::new());
        fs.add("c1", b"a\nb\nc\n".to_vec());
        fs.add("c2", b"1\n2\n".to_vec());
        let out = run_command(&Registry::standard(), fs, argv, input.as_bytes()).expect("run");
        String::from_utf8(out.stdout).expect("utf8")
    }

    #[test]
    fn rev_lines() {
        assert_eq!(run(&["rev"], "abc\nxy\n"), "cba\nyx\n");
        assert_eq!(run(&["rev"], "ab\ncad"), "ba\ndac");
    }

    #[test]
    fn seq_forms() {
        assert_eq!(run(&["seq", "3"], ""), "1\n2\n3\n");
        assert_eq!(run(&["seq", "2", "4"], ""), "2\n3\n4\n");
        assert_eq!(run(&["seq", "1", "2", "5"], ""), "1\n3\n5\n");
        assert_eq!(run(&["seq", "3", "-1", "1"], ""), "3\n2\n1\n");
    }

    #[test]
    fn echo_basic() {
        assert_eq!(run(&["echo", "a", "b"], ""), "a b\n");
        assert_eq!(run(&["echo", "-n", "x"], ""), "x");
    }

    #[test]
    fn paste_two_files() {
        assert_eq!(run(&["paste", "c1", "c2"], ""), "a\t1\nb\t2\nc\t\n");
    }

    #[test]
    fn paste_custom_delim() {
        assert_eq!(run(&["paste", "-d", " ", "c1", "c2"], ""), "a 1\nb 2\nc \n");
    }

    #[test]
    fn paste_dashes_take_stdin_lines_in_turn() {
        assert_eq!(run(&["paste", "-", "-"], "ab\ncad\nx\n"), "ab\tcad\nx\t\n");
        assert_eq!(
            run(&["paste", "-", "c2", "-"], "ab\ncad\nx\n"),
            "ab\t1\tcad\nx\t2\t\n"
        );
        // Serially, the first `-` takes all of stdin.
        assert_eq!(run(&["paste", "-s", "-", "-"], "a\nb\n"), "a\tb\n\n");
    }

    #[test]
    fn paste_serial() {
        assert_eq!(run(&["paste", "-s", "c2"], ""), "1\t2\n");
    }

    #[test]
    fn paste_empty_delimiter_list_joins_with_nothing() {
        assert_eq!(run(&["paste", "-s", "-d", "", "c2"], ""), "12\n");
        assert_eq!(run(&["paste", "-d", "", "c1", "c2"], ""), "a1\nb2\nc\n");
    }

    #[test]
    fn a_delimiter_list_is_literal_bytes() {
        let list = |l: &str| super::delimiters(l).expect("a list");
        assert_eq!(list("a-c"), [Some(b'a'), Some(b'-'), Some(b'c')]);
        assert_eq!(list("\\0x"), [None, Some(b'x')]);
        assert_eq!(list("\\01"), [None, Some(b'1')]);
        assert_eq!(
            list("\\t\\\\\\a\\7\\q"),
            [Some(b'\t'), Some(b'\\'), Some(b'a'), Some(b'7'), Some(b'q')]
        );
        assert!(super::delimiters("x\\").is_err());
        assert_eq!(
            run(&["paste", "-s", "-d", "\\0,", "c2", "c1"], ""),
            "12\nab,c\n"
        );
    }

    #[test]
    fn fold_width() {
        assert_eq!(run(&["fold", "-w", "2"], "abcde\n"), "ab\ncd\ne\n");
        assert_eq!(run(&["fold", "-w", "3"], "ab\ncadabr"), "ab\ncad\nabr");
        // Columns, not bytes: a tab runs to the next multiple of 8,
        // and is let through alone where nothing precedes it.
        assert_eq!(run(&["fold", "-w", "4"], "a\tb\n"), "a\n\t\nb\n");
        assert_eq!(
            run(&["fold", "-w", "3"], "ab\x08\x08cd\rxyz\n"),
            "ab\x08\x08cd\rxyz\n"
        );
        assert_eq!(run(&["fold", "-w", "3"], "abcd\x08e\n"), "abc\nd\x08e\n");
    }

    #[test]
    fn fold_refuses_width_zero() {
        for w in ["-w0", "-wx"] {
            let out = run_command(
                &Registry::standard(),
                Arc::new(MemFs::new()),
                &["fold", w],
                b"ab\n",
            )
            .expect("run");
            assert_eq!((out.status, out.stdout.as_slice()), (1, &b""[..]), "{w}");
        }
    }

    #[test]
    fn tee_writes_file_and_stdout() {
        let fs = Arc::new(MemFs::new());
        let out = run_command(
            &Registry::standard(),
            fs.clone(),
            &["tee", "copy"],
            b"data\n",
        )
        .expect("run");
        assert_eq!(out.stdout, b"data\n");
        assert_eq!(fs.read("copy").expect("copy"), b"data\n");
    }

    #[test]
    fn nl_numbers_nonempty() {
        let out = run(&["nl"], "a\n\nb\n");
        assert_eq!(out, "     1\ta\n       \n     2\tb\n");
    }

    #[test]
    fn true_false_statuses() {
        let fs = Arc::new(MemFs::new());
        let t = run_command(&Registry::standard(), fs.clone(), &["true"], b"").expect("run");
        assert_eq!(t.status, 0);
        let f = run_command(&Registry::standard(), fs, &["false"], b"").expect("run");
        assert_eq!(f.status, 1);
    }
}
