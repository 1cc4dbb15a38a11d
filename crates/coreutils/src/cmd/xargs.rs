//! `xargs` — build and run command lines from standard input.
//!
//! Supports `-n N` (arguments per invocation) and an inner command
//! resolved from the registry. This is the construct PaSh's Fig. 3
//! parallelizes (`xargs -n 1 curl -s` fed by `split`).

use std::io::{self};

use crate::args::scanned;
use crate::{CmdIo, Command, ExitStatus};

/// `xargs -n`'s count, or its usage error.
pub(crate) fn per_call_of(value: &str) -> Result<usize, String> {
    let n = value.parse().ok().filter(|&n| n > 0);
    n.ok_or_else(|| format!("invalid number \"{value}\" for -n option"))
}

/// The `xargs` command.
pub struct Xargs;

impl Command for Xargs {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut per_call: Option<usize> = None;
        // The first operand ends the options: the rest is the inner
        // command's argv.
        let inner = scanned!(io, args, "xargs", |_, value| {
            per_call = Some(per_call_of(value)?);
            Ok(())
        })
        .words();
        let (name, fixed) = inner.split_first().unwrap_or((&"echo", &[]));
        let cmd = io.registry.get(name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("xargs: {name}: command not found"),
            )
        })?;

        // Collect whitespace-separated tokens from stdin.
        let mut tokens: Vec<String> = Vec::new();
        let mut buf = String::new();
        io.stdin.read_to_string(&mut buf)?;
        tokens.extend(buf.split_whitespace().map(|s| s.to_string()));

        if tokens.is_empty() {
            return Ok(0);
        }
        let n = per_call.unwrap_or(tokens.len());
        let mut status = 0;
        for chunk in tokens.chunks(n) {
            let mut argv: Vec<String> = fixed.iter().map(|s| s.to_string()).collect();
            argv.extend(chunk.iter().cloned());
            let mut empty = io::BufReader::new(&b""[..]);
            let mut inner_io = CmdIo {
                stdin: &mut empty,
                stdout: io.stdout,
                stderr: io.stderr,
                fs: io.fs.clone(),
                registry: io.registry,
            };
            let s = cmd.run(&argv, &mut inner_io)?;
            if s != 0 {
                status = 123;
            }
        }
        Ok(status)
    }
}

#[cfg(test)]
mod tests {
    use crate::fs::MemFs;
    use crate::{run_command, Registry};
    use std::sync::Arc;

    fn xargs(argv: &[&str], input: &str) -> String {
        let fs = Arc::new(MemFs::new());
        fs.add("x1", b"alpha\nbeta\n".to_vec());
        fs.add("x2", b"gamma\n".to_vec());
        let out = run_command(&Registry::standard(), fs, argv, input.as_bytes()).expect("run");
        String::from_utf8(out.stdout).expect("utf8")
    }

    #[test]
    fn default_echo() {
        assert_eq!(xargs(&["xargs"], "a b\nc\n"), "a b c\n");
    }

    #[test]
    fn n1_one_per_invocation() {
        assert_eq!(xargs(&["xargs", "-n", "1", "echo"], "a b c"), "a\nb\nc\n");
    }

    #[test]
    fn n2_pairs() {
        assert_eq!(
            xargs(&["xargs", "-n2", "echo"], "a b c d e"),
            "a b\nc d\ne\n"
        );
    }

    #[test]
    fn inner_command_with_fixed_args() {
        assert_eq!(
            xargs(&["xargs", "-n", "1", "echo", "got:"], "x y"),
            "got: x\ngot: y\n"
        );
    }

    #[test]
    fn cat_files_from_stdin() {
        // The `xargs -n 1 curl -s` shape: inner command reads the named
        // files and concatenates their contents.
        assert_eq!(
            xargs(&["xargs", "-n", "1", "cat"], "x1 x2"),
            "alpha\nbeta\ngamma\n"
        );
    }

    #[test]
    fn wc_over_files() {
        // The Shortest-scripts shape: xargs wc -l.
        let out = xargs(&["xargs", "wc", "-l"], "x1 x2");
        assert!(out.contains("x1"));
        assert!(out.contains("total"));
    }

    #[test]
    fn empty_input_runs_nothing() {
        assert_eq!(xargs(&["xargs", "echo"], ""), "");
    }

    #[test]
    fn unknown_inner_command_errors() {
        let fs = Arc::new(MemFs::new());
        assert!(run_command(&Registry::standard(), fs, &["xargs", "nope"], b"x").is_err());
    }
}
