//! `comm` — select or reject lines common to two sorted files.
//!
//! The paper's running annotation example (§3.2): with `-13` or `-23`
//! one input becomes a static "configuration" input and `comm` drops
//! to class S; in the general case it is class P.

use std::io;

use crate::args::scanned;
use crate::lines::read_all_lines;
use crate::{open_input, usage_error, CmdIo, Command, ExitStatus};

/// `comm [-1] [-2] [-3] file1 file2`.
pub struct Comm;

impl Command for Comm {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut show1 = true;
        let mut show2 = true;
        let mut show3 = true;
        let files = scanned!(io, args, "comm", |name, _| {
            match name {
                "1" => show1 = false,
                "2" => show2 = false,
                _ => show3 = false,
            }
            Ok(())
        })
        .words();
        if files.len() != 2 {
            return usage_error(io, "comm", "needs exactly two files");
        }
        let mut r1 = open_input(&io.fs, files[0], io.stdin)?;
        let a = read_all_lines(&mut r1)?;
        let mut r2 = open_input(&io.fs, files[1], io.stdin)?;
        let b = read_all_lines(&mut r2)?;

        // Column layout: col2 indented by one tab, col3 by the number
        // of preceding selected columns.
        let tab2: &[u8] = if show1 { b"\t" } else { b"" };
        let mut tab3: Vec<u8> = Vec::new();
        if show1 {
            tab3.push(b'\t');
        }
        if show2 {
            tab3.push(b'\t');
        }

        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() || j < b.len() {
            let ord = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => x.cmp(y),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => break,
            };
            match ord {
                std::cmp::Ordering::Less => {
                    if show1 {
                        io.stdout.write_all(&a[i])?;
                        io.stdout.write_all(b"\n")?;
                    }
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    if show2 {
                        io.stdout.write_all(tab2)?;
                        io.stdout.write_all(&b[j])?;
                        io.stdout.write_all(b"\n")?;
                    }
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if show3 {
                        io.stdout.write_all(&tab3)?;
                        io.stdout.write_all(&a[i])?;
                        io.stdout.write_all(b"\n")?;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use crate::fs::MemFs;
    use crate::{run_command, Registry};
    use std::sync::Arc;

    fn comm(args: &[&str], stdin: &str) -> String {
        let mut argv = vec!["comm"];
        argv.extend(args);
        let fs = Arc::new(MemFs::new());
        fs.add("f1", b"a\nb\nc\nd\n".to_vec());
        fs.add("f2", b"b\nd\ne\n".to_vec());
        fs.add("dict", b"apple\nbanana\n".to_vec());
        let out = run_command(&Registry::standard(), fs, &argv, stdin.as_bytes()).expect("run");
        String::from_utf8(out.stdout).expect("utf8")
    }

    #[test]
    fn three_columns() {
        assert_eq!(comm(&["f1", "f2"], ""), "a\n\t\tb\nc\n\t\td\n\te\n");
    }

    #[test]
    fn suppress_first_and_third() {
        // Lines unique to the second input.
        assert_eq!(comm(&["-13", "f1", "f2"], ""), "e\n");
    }

    #[test]
    fn suppress_second_and_third() {
        // Lines unique to the first input — the Spell idiom
        // `comm -23 sorted-words dict`.
        assert_eq!(comm(&["-23", "f1", "f2"], ""), "a\nc\n");
    }

    #[test]
    fn common_only() {
        assert_eq!(comm(&["-12", "f1", "f2"], ""), "b\nd\n");
    }

    #[test]
    fn stdin_as_dash() {
        // The Spell pipeline feeds candidate words on stdin.
        assert_eq!(comm(&["-13", "dict", "-"], "apple\nzebra\n"), "zebra\n");
    }

    #[test]
    fn separate_flags() {
        assert_eq!(
            comm(&["-1", "-3", "f1", "f2"], ""),
            comm(&["-13", "f1", "f2"], "")
        );
    }

    #[test]
    fn wrong_arity_is_usage_error() {
        let out = run_command(
            &Registry::standard(),
            Arc::new(MemFs::new()),
            &["comm", "only-one"],
            b"",
        )
        .expect("run");
        assert_eq!(out.status, 1);
    }
}
