//! `head` and `tail`.

use std::collections::VecDeque;
use std::io;

use pash_regex::memmem::memchr;

use crate::lines::for_each_block;
use crate::{open_input, CmdIo, Command, ExitStatus};

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

/// `head [-n N] [-c N] [file…]`.
///
/// `head` exits after N lines; under a pipe this is what triggers the
/// dangling-FIFO problem of §5.2 (its producers must be SIGPIPE'd).
pub struct Head;

impl Command for Head {
    fn name(&self) -> &'static str {
        "head"
    }

    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut n_lines: Option<u64> = None;
        let mut n_bytes: Option<u64> = None;
        let mut files: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "-n" => n_lines = it.next().and_then(|s| s.parse().ok()),
                "-c" => n_bytes = it.next().and_then(|s| s.parse().ok()),
                s if s.starts_with("-n") && s.len() > 2 => n_lines = s[2..].parse().ok(),
                s if s.starts_with("-c") && s.len() > 2 => n_bytes = s[2..].parse().ok(),
                s if s.starts_with('-')
                    && s[1..].chars().all(|c| c.is_ascii_digit())
                    && s.len() > 1 =>
                {
                    n_lines = s[1..].parse().ok()
                }
                other => files.push(other.to_string()),
            }
        }
        let n_lines = n_lines.unwrap_or(10);
        if files.is_empty() {
            files.push("-".to_string());
        }
        for f in &files {
            let mut r = open_input(&io.fs, f, io.stdin)?;
            if let Some(max) = n_bytes {
                let mut remaining = max;
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
            } else if n_lines > 0 {
                let mut left = n_lines;
                for_each_block(&mut r, |block| {
                    let end = skip_lines(block, &mut left);
                    io.stdout.write_all(&block[..end])?;
                    Ok(left > 0)
                })?;
            }
        }
        Ok(0)
    }
}

/// `tail [-n N | -n +N] [file…]`.
///
/// `tail -n +N` (start *from* line N) is the stream-shifting idiom the
/// Bi-grams benchmark uses; it is stateless-after-a-prefix, annotated
/// conservatively as P.
pub struct Tail;

impl Command for Tail {
    fn name(&self) -> &'static str {
        "tail"
    }

    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut from_start: Option<u64> = None;
        let mut last: u64 = 10;
        let mut files: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "-n" => match it.next() {
                    Some(v) if v.starts_with('+') => from_start = v[1..].parse().ok(),
                    Some(v) => last = v.parse().unwrap_or(10),
                    None => {}
                },
                s if s.starts_with("-n+") => from_start = s[3..].parse().ok(),
                s if s.starts_with("+") && s[1..].chars().all(|c| c.is_ascii_digit()) => {
                    // Historic form: `tail +2`.
                    from_start = s[1..].parse().ok();
                }
                s if s.starts_with("-n") && s.len() > 2 => last = s[2..].parse().unwrap_or(10),
                other => files.push(other.to_string()),
            }
        }
        if files.is_empty() {
            files.push("-".to_string());
        }
        for f in &files {
            let mut r = open_input(&io.fs, f, io.stdin)?;
            match from_start {
                Some(start) => {
                    let mut skip = start.saturating_sub(1);
                    for_each_block(&mut r, |block| {
                        let start = skip_lines(block, &mut skip);
                        io.stdout.write_all(&block[start..])?;
                        Ok(true)
                    })?;
                }
                None if last > 0 => {
                    // Grown as lines arrive: `last` is only a bound.
                    let mut ring: VecDeque<Vec<u8>> = VecDeque::new();
                    for_each_block(&mut r, |block| {
                        let mut pos = 0;
                        while pos < block.len() {
                            let end =
                                memchr(b'\n', &block[pos..]).map_or(block.len(), |i| pos + i + 1);
                            let mut line = if ring.len() as u64 >= last {
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
                None => {}
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
