//! `diff` — compare two files line by line (normal output format).
//!
//! `diff` is the evaluation's stand-in for a *non-parallelizable pure*
//! data path (the Diff benchmark, Tab. 2): its output depends on a
//! global alignment of both inputs, so PaSh leaves it sequential. The
//! implementation is a Myers O(ND) shortest-edit-script diff.

use std::io;

use crate::args::scanned;
use crate::lines::read_all_lines;
use crate::{open_input, usage_error, CmdIo, Command, ExitStatus};

/// `diff file1 file2` (normal format: `aNcM`-style hunks).
pub struct Diff;

impl Command for Diff {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let files = scanned!(io, args, "diff", |_, _| Ok(())).words();
        if files.len() != 2 {
            return usage_error(io, "diff", "needs exactly two files");
        }
        let mut r1 = open_input(&io.fs, files[0], io.stdin)?;
        let a = read_all_lines(&mut r1)?;
        let mut r2 = open_input(&io.fs, files[1], io.stdin)?;
        let b = read_all_lines(&mut r2)?;
        let hunks = diff_hunks(&a, &b);
        let changed = !hunks.is_empty();
        for h in hunks {
            write_hunk(io, &a, &b, &h)?;
        }
        Ok(if changed { 1 } else { 0 })
    }
}

/// One contiguous change region (0-based, half-open).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hunk {
    /// Removed range in `a`.
    pub a: (usize, usize),
    /// Added range in `b`.
    pub b: (usize, usize),
}

/// Computes change hunks with a Myers shortest-edit-script.
pub fn diff_hunks(a: &[Vec<u8>], b: &[Vec<u8>]) -> Vec<Hunk> {
    // Longest-common-subsequence via Myers; collect matched pairs.
    let matches = lcs_matches(a, b);
    let mut hunks = Vec::new();
    let (mut ai, mut bi) = (0usize, 0usize);
    for &(ma, mb) in matches.iter().chain(std::iter::once(&(a.len(), b.len()))) {
        if ai < ma || bi < mb {
            hunks.push(Hunk {
                a: (ai, ma),
                b: (bi, mb),
            });
        }
        ai = ma + 1;
        bi = mb + 1;
    }
    hunks
}

/// Myers O(ND) LCS: returns matched index pairs in order.
fn lcs_matches(a: &[Vec<u8>], b: &[Vec<u8>]) -> Vec<(usize, usize)> {
    let n = a.len() as isize;
    let m = b.len() as isize;
    let max = (n + m) as usize;
    if max == 0 {
        return Vec::new();
    }
    let offset = max as isize;
    let mut v = vec![0isize; 2 * max + 1];
    let mut trace: Vec<Vec<isize>> = Vec::new();
    'outer: for d in 0..=(max as isize) {
        trace.push(v.clone());
        let mut k = -d;
        while k <= d {
            let idx = (k + offset) as usize;
            let mut x = if k == -d || (k != d && v[idx - 1] < v[idx + 1]) {
                v[idx + 1]
            } else {
                v[idx - 1] + 1
            };
            let mut y = x - k;
            while x < n && y < m && a[x as usize] == b[y as usize] {
                x += 1;
                y += 1;
            }
            v[idx] = x;
            if x >= n && y >= m {
                break 'outer;
            }
            k += 2;
        }
    }
    // Backtrack to collect the matched (diagonal) steps.
    let mut matches = Vec::new();
    let (mut x, mut y) = (n, m);
    for d in (0..trace.len() as isize).rev() {
        if x == 0 && y == 0 {
            break;
        }
        let v = &trace[d as usize];
        let k = x - y;
        let idx = (k + offset) as usize;
        let prev_k = if k == -d || (k != d && v[idx - 1] < v[idx + 1]) {
            k + 1
        } else {
            k - 1
        };
        let prev_x = v[(prev_k + offset) as usize];
        let prev_y = prev_x - prev_k;
        // Diagonal run from the end of the previous op.
        while x > prev_x.max(if prev_k < k { prev_x + 1 } else { prev_x })
            && y > prev_y.max(if prev_k > k { prev_y + 1 } else { prev_y })
        {
            x -= 1;
            y -= 1;
            matches.push((x as usize, y as usize));
        }
        if d > 0 {
            x = prev_x;
            y = prev_y;
        } else {
            // d == 0: pure diagonal to the origin.
            while x > 0 && y > 0 {
                x -= 1;
                y -= 1;
                matches.push((x as usize, y as usize));
            }
            break;
        }
    }
    matches.reverse();
    matches
}

fn range_str(lo: usize, hi: usize) -> String {
    // Normal-diff 1-based inclusive ranges.
    if hi - lo <= 1 {
        format!("{}", hi)
    } else {
        format!("{},{}", lo + 1, hi)
    }
}

fn write_hunk(io: &mut CmdIo<'_>, a: &[Vec<u8>], b: &[Vec<u8>], h: &Hunk) -> io::Result<()> {
    let (as_, ae) = h.a;
    let (bs, be) = h.b;
    let op = if as_ == ae {
        'a'
    } else if bs == be {
        'd'
    } else {
        'c'
    };
    let left = if as_ == ae {
        format!("{as_}")
    } else {
        range_str(as_, ae)
    };
    let right = if bs == be {
        format!("{bs}")
    } else {
        range_str(bs, be)
    };
    writeln!(io.stdout, "{left}{op}{right}")?;
    for line in &a[as_..ae] {
        io.stdout.write_all(b"< ")?;
        io.stdout.write_all(line)?;
        io.stdout.write_all(b"\n")?;
    }
    if op == 'c' {
        writeln!(io.stdout, "---")?;
    }
    for line in &b[bs..be] {
        io.stdout.write_all(b"> ")?;
        io.stdout.write_all(line)?;
        io.stdout.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;
    use crate::{run_command, Registry};
    use std::sync::Arc;

    fn lines(s: &str) -> Vec<Vec<u8>> {
        s.lines().map(|l| l.as_bytes().to_vec()).collect()
    }

    fn diff(a: &str, b: &str) -> (String, i32) {
        let fs = Arc::new(MemFs::new());
        fs.add("a", a.as_bytes().to_vec());
        fs.add("b", b.as_bytes().to_vec());
        let out = run_command(&Registry::standard(), fs, &["diff", "a", "b"], b"").expect("run");
        (String::from_utf8(out.stdout).expect("utf8"), out.status)
    }

    #[test]
    fn identical_files() {
        let (out, status) = diff("a\nb\n", "a\nb\n");
        assert_eq!(out, "");
        assert_eq!(status, 0);
    }

    #[test]
    fn pure_addition() {
        let (out, status) = diff("a\nc\n", "a\nb\nc\n");
        assert!(out.contains("> b"));
        assert_eq!(status, 1);
    }

    #[test]
    fn pure_deletion() {
        let (out, _) = diff("a\nb\nc\n", "a\nc\n");
        assert!(out.contains("< b"));
    }

    #[test]
    fn change() {
        let (out, _) = diff("a\nx\nc\n", "a\ny\nc\n");
        assert!(out.contains("< x"));
        assert!(out.contains("---"));
        assert!(out.contains("> y"));
    }

    #[test]
    fn hunks_cover_all_differences() {
        let a = lines("1\n2\n3\n4\n5");
        let b = lines("1\nX\n3\nY\nZ\n5");
        let hs = diff_hunks(&a, &b);
        assert!(!hs.is_empty());
        // Reconstruct b from a + hunks to verify completeness.
        let mut rebuilt: Vec<Vec<u8>> = Vec::new();
        let mut ai = 0usize;
        for h in &hs {
            while ai < h.a.0 {
                rebuilt.push(a[ai].clone());
                ai += 1;
            }
            ai = h.a.1;
            rebuilt.extend_from_slice(&b[h.b.0..h.b.1]);
        }
        while ai < a.len() {
            rebuilt.push(a[ai].clone());
            ai += 1;
        }
        assert_eq!(rebuilt, b);
    }

    #[test]
    fn empty_vs_nonempty() {
        let (out, _) = diff("", "a\n");
        assert!(out.contains("> a"));
        let (out, _) = diff("a\n", "");
        assert!(out.contains("< a"));
    }

    #[test]
    fn diff_is_order_sensitive() {
        // The N-class property: diff of concatenated halves is not the
        // concatenation of diffs of halves.
        let a1 = lines("x\ny");
        let b1 = lines("y\nx");
        assert!(!diff_hunks(&a1, &b1).is_empty());
    }
}
