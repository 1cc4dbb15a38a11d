//! `head` and `tail`.

use std::collections::VecDeque;
use std::io;

use pash_regex::memmem::memchr;

use crate::args::scanned;
use crate::lines::for_each_block;
use crate::{open_or_report, CmdIo, Command, ExitStatus};

/// Passes over up to `n` lines of `block`, taking each off `n`, and
/// returns the offset just after them. A line ends after its `\n`, or
/// at the end of the block (an unterminated last line stays so).
fn skip_lines(block: &[u8], n: &mut u64) -> usize {
    let mut pos = 0;
    while *n > 0 && pos < block.len() {
        pos = memchr(b'\n', &block[pos..]).map_or(block.len(), |i| pos + i + 1);
        *n -= 1;
    }
    pos
}

/// A count as GNU reads it: digits after an optional `sign`; one too
/// large for a `u64` is as good as endless.
pub fn count(value: &str, sign: &[char]) -> Option<u64> {
    let digits = value.strip_prefix(sign).unwrap_or(value);
    let valid = !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit());
    valid.then(|| digits.parse().unwrap_or(u64::MAX))
}

/// The count `command` (`head` or `tail`) reads as the value of its
/// option `option`, or its usage error. `head` lacks GNU's "all but the
/// last N" (`-n -N`); `tail -n -N` is `tail -n N`.
pub(crate) fn option_count(command: &str, option: &str, value: &str) -> Result<u64, String> {
    let sign: &[char] = if command == "tail" {
        &['-', '+']
    } else {
        &['+']
    };
    let unit = if option == "c" { "bytes" } else { "lines" };
    count(value, sign).ok_or(format!("invalid number of {unit}: '{value}'"))
}

/// `head [-n N] [-c N] [file…]`, and the obsolete `head -N …`.
///
/// `head` exits after N lines; under a pipe this is what triggers the
/// dangling-FIFO problem of §5.2 (its producers must be SIGPIPE'd).
pub struct Head;

impl Command for Head {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        // The count, and whether it counts bytes; the last option wins.
        // (The scan reads an obsolete `head -N` as `-n N`.)
        let (mut n, mut bytes) = (10, false);
        let files = scanned!(io, args, "head", |name, value| {
            bytes = name == "c";
            n = option_count("head", name, value)?;
            Ok(())
        })
        .inputs();
        let mut status = 0;
        for f in files {
            let Some(mut r) = open_or_report(&io.fs, "head", f, io.stdin, io.stderr)? else {
                status = 1;
                continue;
            };
            if bytes {
                let mut remaining = n;
                let mut buf = [0u8; 8192];
                while remaining > 0 {
                    let want = (remaining as usize).min(buf.len());
                    let n = io::Read::read(&mut r, &mut buf[..want])?;
                    if n == 0 {
                        break;
                    }
                    io.stdout.write_all(&buf[..n])?;
                    remaining -= n as u64;
                }
            } else if n > 0 {
                let mut left = n;
                for_each_block(&mut r, |block| {
                    let end = skip_lines(block, &mut left);
                    io.stdout.write_all(&block[..end])?;
                    Ok(left > 0)
                })?;
            }
        }
        Ok(status)
    }
}

/// `tail [-n N | -n +N] [file…]`, and the obsolete `tail -N [file]`
/// and `tail +N [file]`.
///
/// `tail -n +N` (start *from* line N) is the stream-shifting idiom the
/// Bi-grams benchmark uses; it is stateless-after-a-prefix, annotated
/// conservatively as P.
pub struct Tail;

impl Command for Tail {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        // The count, and whether it counts from the start (`+N`). (The
        // scan reads an obsolete `tail -N` or `tail +N` as `-n N` or
        // `-n +N`.)
        let (mut n, mut from_start) = (10, false);
        let files = scanned!(io, args, "tail", |_, value| {
            n = option_count("tail", "n", value)?;
            from_start = value.starts_with('+');
            Ok(())
        })
        .inputs();
        let mut status = 0;
        for f in files {
            let Some(mut r) = open_or_report(&io.fs, "tail", f, io.stdin, io.stderr)? else {
                status = 1;
                continue;
            };
            if from_start {
                let mut skip = n.saturating_sub(1);
                for_each_block(&mut r, |block| {
                    let start = skip_lines(block, &mut skip);
                    io.stdout.write_all(&block[start..])?;
                    Ok(true)
                })?;
            } else if n > 0 {
                // Grown as lines arrive: `n` is only a bound.
                let mut ring: VecDeque<Vec<u8>> = VecDeque::new();
                for_each_block(&mut r, |block| {
                    let mut pos = 0;
                    while pos < block.len() {
                        let end = memchr(b'\n', &block[pos..]).map_or(block.len(), |i| pos + i + 1);
                        let mut line = if ring.len() as u64 >= n {
                            ring.pop_front().unwrap_or_default()
                        } else {
                            Vec::new()
                        };
                        line.clear();
                        line.extend_from_slice(&block[pos..end]);
                        ring.push_back(line);
                        pos = end;
                    }
                    Ok(true)
                })?;
                for line in ring {
                    io.stdout.write_all(&line)?;
                }
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

    fn run(argv: &[&str], input: &str) -> String {
        let out = run_command(
            &Registry::standard(),
            Arc::new(MemFs::new()),
            argv,
            input.as_bytes(),
        )
        .expect("run");
        String::from_utf8(out.stdout).expect("utf8")
    }

    #[test]
    fn head_default_ten() {
        let input: String = (1..=15).map(|i| format!("{i}\n")).collect();
        let out = run(&["head"], &input);
        assert_eq!(out.lines().count(), 10);
    }

    #[test]
    fn head_n_one() {
        // The max-temperature idiom: sort -rn | head -n 1.
        assert_eq!(run(&["head", "-n", "1"], "500\n450\n300\n"), "500\n");
    }

    #[test]
    fn head_attached_n() {
        assert_eq!(run(&["head", "-n2"], "a\nb\nc\n"), "a\nb\n");
    }

    #[test]
    fn head_legacy_dash_number() {
        assert_eq!(run(&["head", "-2"], "a\nb\nc\n"), "a\nb\n");
    }

    #[test]
    fn head_bytes() {
        assert_eq!(run(&["head", "-c", "3"], "abcdef"), "abc");
    }

    #[test]
    fn head_short_input() {
        assert_eq!(run(&["head", "-n", "5"], "a\nb\n"), "a\nb\n");
        // An unterminated last line stays so, as GNU leaves it.
        assert_eq!(run(&["head", "-n", "5"], "a\nb"), "a\nb");
    }

    #[test]
    fn tail_last_n() {
        assert_eq!(run(&["tail", "-n", "2"], "a\nb\nc\nd\n"), "c\nd\n");
        assert_eq!(run(&["tail", "-n", "1"], "a\nb"), "b");
    }

    #[test]
    fn tail_from_line() {
        // The Bi-grams stream shift: tail +2.
        assert_eq!(run(&["tail", "-n", "+2"], "a\nb\nc\n"), "b\nc\n");
        assert_eq!(run(&["tail", "+2"], "a\nb\nc\n"), "b\nc\n");
        assert_eq!(run(&["tail", "-n", "+2"], "a\nb"), "b");
        assert_eq!(run(&["tail", "-n", "+0"], "a\nb"), "a\nb");
    }

    #[test]
    fn tail_n_zero() {
        assert_eq!(run(&["tail", "-n", "0"], "a\nb\n"), "");
    }

    #[test]
    fn tail_from_line_past_end() {
        assert_eq!(run(&["tail", "-n", "+10"], "a\nb\n"), "");
    }

    #[test]
    fn tail_count_larger_than_memory_returns_the_input() {
        let out = run_command(
            &Registry::standard(),
            Arc::new(MemFs::new()),
            &["tail", "-n", "99999999999"],
            b"a\nb\nc\n",
        )
        .expect("run");
        assert_eq!((out.stdout.as_slice(), out.status), (&b"a\nb\nc\n"[..], 0));
    }
}
