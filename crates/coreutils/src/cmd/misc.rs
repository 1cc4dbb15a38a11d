//! Small utility commands: `rev`, `seq`, `echo`, `paste`, `fold`,
//! `tee`, `nl`, `true`, `false`.

use std::io::{self, Read, Write};

use crate::lines::{buffer_lines, for_each_line, for_each_record, write_line, write_record};
use crate::{open_input, CmdIo, Command, ExitStatus};

/// `rev` — reverse the bytes of each line (class S); an unterminated one stays so.
pub struct Rev;

impl Command for Rev {
    fn name(&self) -> &'static str {
        "rev"
    }

    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut files: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
        if files.is_empty() {
            files.push("-");
        }
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
    fn name(&self) -> &'static str {
        "seq"
    }

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
    fn name(&self) -> &'static str {
        "echo"
    }

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

/// `paste [-d LIST] file…` — merge corresponding lines. Side by side,
/// the `-` operands take stdin's lines in turn, as GNU's do.
pub struct Paste;

impl Command for Paste {
    fn name(&self) -> &'static str {
        "paste"
    }

    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut delims: Vec<u8> = vec![b'\t'];
        let mut serial = false;
        let mut files: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "-d" => {
                    if let Some(d) = it.next() {
                        delims = crate::cmd::tr::expand_set(d);
                        if delims.is_empty() {
                            delims.push(b'\t');
                        }
                    }
                }
                "-s" => serial = true,
                "-" => files.push("-".to_string()),
                s if s.starts_with("-d") && s.len() > 2 => {
                    delims = crate::cmd::tr::expand_set(&s[2..]);
                }
                other => files.push(other.to_string()),
            }
        }
        if files.is_empty() {
            files.push("-".to_string());
        }
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
        // Every row goes into one buffer, written once.
        let mut out: Vec<u8> = Vec::with_capacity(inputs.iter().map(Vec::len).sum::<usize>() + 1);
        if serial {
            for input in &inputs {
                for (i, line) in buffer_lines(input).enumerate() {
                    if i > 0 {
                        out.push(delims[(i - 1) % delims.len()]);
                    }
                    out.extend_from_slice(line);
                }
                out.push(b'\n');
            }
        } else {
            let mut columns: Vec<_> = inputs.iter().map(|input| buffer_lines(input)).collect();
            loop {
                let row = out.len();
                let mut any = false;
                for (ci, col) in columns.iter_mut().enumerate() {
                    if ci > 0 {
                        out.push(delims[(ci - 1) % delims.len()]);
                    }
                    // A column that ran out leaves its field empty.
                    if let Some(line) = col.next() {
                        out.extend_from_slice(line);
                        any = true;
                    }
                }
                if !any {
                    out.truncate(row);
                    break;
                }
                out.push(b'\n');
            }
        }
        io.stdout.write_all(&out)?;
        Ok(0)
    }
}

/// `fold [-w WIDTH]` — wrap lines to a width (class S within lines);
/// an unterminated one stays so.
pub struct Fold;

impl Command for Fold {
    fn name(&self) -> &'static str {
        "fold"
    }

    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut width = 80usize;
        let mut files: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "-w" => {
                    width = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&w| w > 0)
                        .unwrap_or(80)
                }
                s if s.starts_with("-w") && s.len() > 2 => {
                    width = s[2..].parse().ok().filter(|&w| w > 0).unwrap_or(80);
                }
                other => files.push(other.to_string()),
            }
        }
        if files.is_empty() {
            files.push("-".to_string());
        }
        for f in &files {
            let mut r = open_input(&io.fs, f, io.stdin)?;
            for_each_record(&mut r, |mut line, terminated| {
                while line.len() > width {
                    write_line(io.stdout, &line[..width])?;
                    line = &line[width..];
                }
                write_record(io.stdout, line, terminated)?;
                Ok(true)
            })?;
        }
        Ok(0)
    }
}

/// `tee [file…]` — copy stdin to stdout and to files.
pub struct Tee;

impl Command for Tee {
    fn name(&self) -> &'static str {
        "tee"
    }

    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let files: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
        let mut writers: Vec<Box<dyn Write + Send>> = Vec::new();
        for f in &files {
            writers.push(io.fs.create(f)?);
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
        Ok(0)
    }
}

/// `nl` — number non-empty lines (a `cat -n` relative; class P).
pub struct Nl;

impl Command for Nl {
    fn name(&self) -> &'static str {
        "nl"
    }

    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut files: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
        if files.is_empty() {
            files.push("-");
        }
        let mut n = 0u64;
        for f in files {
            let mut r = open_input(&io.fs, f, io.stdin)?;
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
        Ok(0)
    }
}

/// `true` — succeed (class E in the study: no data path).
pub struct True;

impl Command for True {
    fn name(&self) -> &'static str {
        "true"
    }

    fn run(&self, _args: &[String], _io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        Ok(0)
    }
}

/// `false` — fail.
pub struct False;

impl Command for False {
    fn name(&self) -> &'static str {
        "false"
    }

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
    fn fold_width() {
        assert_eq!(run(&["fold", "-w", "2"], "abcde\n"), "ab\ncd\ne\n");
        assert_eq!(run(&["fold", "-w", "3"], "ab\ncadabr"), "ab\ncad\nabr");
        assert_eq!(run(&["fold", "-w0"], "ab\n"), "ab\n");
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
