//! `tr` — translate, squeeze, or delete characters.
//!
//! Supports `tr SET1 SET2`, `-d SET1`, `-s SET1 [SET2]`, `-c` or `-C`
//! (complement), and combinations such as the classic word-splitting
//! idiom `tr -cs A-Za-z '\n'`.
//!
//! Input is read in place, one 64 KiB tile at a time, and each tile
//! takes one of three paths:
//!
//! * *Translation* is a byte map. When it shifts one range by a
//!   constant (`A-Z a-z`, `[:upper:] [:lower:]`), it is a branch-free
//!   loop that LLVM vectorizes; any other map is a table.
//! * *Deletion by a set of at most four bytes* (`-d ',.'`) and
//!   *squeezing by a one-byte set* (`-s ' '`, and `-cs A-Za-z '\n'`,
//!   whose squeeze set is `\n`) go by position mask (`bytemask`). Each
//!   64-byte window gets a mask of the bytes to drop: the members of
//!   the deleted set, or, for the squeezed byte's mask `m` on the
//!   translated tile, `m & (m << 1 | carry)`. The runs between the
//!   dropped bytes are copied whole.
//! * *The byte loop* (`compact`) for every other deletion or squeeze
//!   (`-d aeiou`, `-cd a-z`, `-s a-z`, and every `-ds`): one
//!   class-table load per byte.

use std::io;

use crate::args::scanned;
use crate::bytemask::{copy_run, low_bits, ByteSet, WINDOW};
use crate::lines::BLOCK_SIZE;
use crate::{usage_error, CmdIo, Command, ExitStatus};

/// Whether `tr` has as many sets as its mode takes, as GNU counts them:
/// two to translate, one with `-d`, one or two with `-s`, two with
/// `-ds`. Else its usage error.
pub(crate) fn count_sets(sets: &[&str], delete: bool, squeeze: bool) -> Result<(), String> {
    let (least, most) = match (delete, squeeze) {
        (true, false) => (1, 1),
        (false, true) => (1, 2),
        _ => (2, 2),
    };
    if sets.len() < least {
        return Err(match sets.last() {
            Some(last) => format!("missing operand after '{last}'"),
            None => "missing operand".to_string(),
        });
    }
    match sets.get(most) {
        Some(extra) => Err(format!("extra operand '{extra}'")),
        None => Ok(()),
    }
}

/// The `tr` command. Stateless even *within* lines (§3.1 notes ~1/3 of
/// class S commands share this property).
pub struct Tr;

impl Command for Tr {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut complement = false;
        let mut delete = false;
        let mut squeeze = false;
        let sets = scanned!(io, args, "tr", |name, _| {
            match name {
                // `-C` complements characters, `-c` values: the same
                // bytes in the C locale.
                "c" | "C" => complement = true,
                "d" => delete = true,
                _ => squeeze = true,
            }
            Ok(())
        })
        .words();
        if let Err(e) = count_sets(&sets, delete, squeeze) {
            return usage_error(io, "tr", &e);
        }
        let set1 = expand_set(sets[0]);
        let mut member = [false; 256];
        for &b in &set1 {
            member[b as usize] = true;
        }
        if complement {
            for m in member.iter_mut() {
                *m = !*m;
            }
        }

        // Build the translation table when two sets are given.
        let mut table: [u8; 256] = std::array::from_fn(|i| i as u8);
        let translating = !delete && sets.len() >= 2;
        if translating {
            let set2 = expand_set(sets[1]);
            if set2.is_empty() {
                return usage_error(io, "tr", "empty SET2");
            }
            if complement {
                // Complemented translation: map every member byte to
                // the last byte of SET2 (GNU behaviour for -c).
                let last = *set2.last().expect("non-empty set2");
                for (i, m) in member.iter().enumerate() {
                    if *m {
                        table[i] = last;
                    }
                }
            } else {
                for (i, &from) in set1.iter().enumerate() {
                    let to = *set2.get(i).or(set2.last()).expect("non-empty set2");
                    table[from as usize] = to;
                }
            }
        }
        // The squeeze set: after translation, squeeze runs of bytes in
        // SET2 (or SET1 when deleting/squeezing only).
        let mut squeeze_member = [false; 256];
        if squeeze {
            if translating {
                for &b in &expand_set(sets[1]) {
                    squeeze_member[b as usize] = true;
                }
            } else {
                let src = if delete {
                    // `-ds SET1 SET2`: squeeze SET2 after deleting SET1.
                    expand_set(sets[1])
                } else {
                    set1.clone()
                };
                for &b in &src {
                    squeeze_member[b as usize] = true;
                }
                if !delete && complement {
                    // `tr -cs A-Za-z '\n'` style: squeeze translated
                    // output (single-set complement squeeze).
                    squeeze_member = member;
                }
            }
        }

        // Deletion is keyed on the input byte, squeezing on the
        // translated one; with neither, `tr` is a byte map.
        let classes: [u32; 256] = std::array::from_fn(|b| {
            let t = table[b];
            class_of(t, delete && member[b], squeeze_member[t as usize])
        });
        let map = ByteMap::new(&table);
        let members =
            |m: &[bool; 256]| -> Vec<u8> { (0..=255u8).filter(|&b| m[b as usize]).collect() };
        // Position masks for deletion by at most four bytes and for
        // squeezing by one; the byte loop for every other set.
        let kernel = match (delete, squeeze) {
            (false, false) => Kernel::Map,
            (true, false) => {
                ByteSet::new(&members(&member)).map_or(Kernel::Compact, Kernel::Delete)
            }
            (false, true) => match members(&squeeze_member)[..] {
                [b] => Kernel::Squeeze(ByteSet::new(&[b]).expect("one byte")),
                _ => Kernel::Compact,
            },
            // Under `-ds` a repeat is judged against the last byte that
            // survived deletion: `compact`'s rule.
            (true, true) => Kernel::Compact,
        };
        let mut out: Vec<u8> = Vec::new();
        let mut mapped: Vec<u8> = Vec::new();
        let mut prev = NO_SURVIVOR;
        // Bit 0 is set when the byte before the next window is the
        // squeezed one.
        let mut carry = 0u64;
        loop {
            let chunk = io.stdin.fill_buf()?;
            if chunk.is_empty() {
                break;
            }
            // Read in place, one bounded tile at a time, so `out`
            // stays cache-sized whatever the reader holds.
            let tile = &chunk[..chunk.len().min(BLOCK_SIZE)];
            let n = tile.len();
            // Room for `copy_run`'s whole-window moves past the end.
            if out.len() < n + WINDOW {
                out.resize(n + WINDOW, 0);
            }
            let kept = match &kernel {
                Kernel::Map => {
                    map.apply(tile, &mut out[..n]);
                    n
                }
                Kernel::Compact => {
                    let (kept, last) = compact(tile, &classes, prev, &mut out);
                    prev = last;
                    kept
                }
                Kernel::Delete(set) => compact_masked(tile, &mut out, |w| set.mask(w)),
                Kernel::Squeeze(byte) => {
                    // A squeeze looks at translated bytes.
                    let src = if translating {
                        mapped.resize(n, 0);
                        map.apply(tile, &mut mapped);
                        &mapped[..]
                    } else {
                        tile
                    };
                    compact_masked(src, &mut out, |w| {
                        let m = byte.mask(w);
                        let drop = m & (m << 1 | carry);
                        carry = m >> (w.len() - 1) & 1;
                        drop
                    })
                }
            };
            io.stdout.write_all(&out[..kept])?;
            io.stdin.consume(n);
        }
        Ok(0)
    }
}

/// How a `tr` invocation turns a tile into output.
enum Kernel {
    /// Translation only: [`ByteMap::apply`].
    Map,
    /// Deletion or squeezing by the byte loop [`compact`].
    Compact,
    /// Deletion of the input bytes in a set, by [`compact_masked`].
    Delete(ByteSet),
    /// Squeezing runs of one translated byte, by [`compact_masked`].
    Squeeze(ByteSet),
}

/// Copies the bytes of `src` into the front of `out`, leaving out
/// those whose bit is set in `drop(window)`, one 64-byte window at a
/// time; the runs between them are copied whole. Returns the output
/// length.
fn compact_masked(src: &[u8], out: &mut [u8], mut drop: impl FnMut(&[u8]) -> u64) -> usize {
    let mut w = 0;
    for base in (0..src.len()).step_by(WINDOW) {
        let window = &src[base..src.len().min(base + WINDOW)];
        let mut keep = !drop(window) & low_bits(window.len());
        while keep != 0 {
            let start = keep.trailing_zeros() as usize;
            let end = start + (!(keep >> start)).trailing_zeros() as usize;
            copy_run(src, base + start, end - start, out, w);
            w += end - start;
            keep &= u64::MAX.checked_shl(end as u32).unwrap_or(0);
        }
    }
    w
}

/// `tr`'s translation, however it is computed.
enum ByteMap {
    /// One range shifted by a constant: the bytes `lo..=lo + span`
    /// move by `shift`, the others stay. The branch-free loop
    /// vectorizes.
    Range { lo: u8, span: u8, shift: u8 },
    /// Any other translation: a table lookup per byte.
    Table(Box<[u8; 256]>),
}

impl ByteMap {
    fn new(table: &[u8; 256]) -> ByteMap {
        let Some(lo) = (0..=255u8).find(|&b| table[b as usize] != b) else {
            return ByteMap::Range {
                lo: 0,
                span: 0,
                shift: 0,
            };
        };
        let shift = table[lo as usize].wrapping_sub(lo);
        let hi = (lo..=255u8)
            .take_while(|&b| table[b as usize] == b.wrapping_add(shift))
            .last()
            .expect("lo moves by shift");
        let span = hi - lo;
        match (0..=255u8).all(|b| shifted(b, lo, span, shift) == table[b as usize]) {
            true => ByteMap::Range { lo, span, shift },
            false => ByteMap::Table(Box::new(*table)),
        }
    }

    /// Translates `tile` into `out` (of the same length).
    fn apply(&self, tile: &[u8], out: &mut [u8]) {
        match *self {
            ByteMap::Range { lo, span, shift } => {
                for (o, &b) in out.iter_mut().zip(tile) {
                    *o = shifted(b, lo, span, shift);
                }
            }
            ByteMap::Table(ref table) => {
                for (o, &b) in out.iter_mut().zip(tile) {
                    *o = table[b as usize];
                }
            }
        }
    }
}

/// `b` moved by `shift` when it is in `lo..=lo + span`.
#[inline]
fn shifted(b: u8, lo: u8, span: u8, shift: u8) -> u8 {
    b.wrapping_add(u8::from(b.wrapping_sub(lo) <= span) * shift)
}

/// What [`compact`] needs to know about one input byte, packed so
/// the loop makes a single table load per byte:
///
/// * bits 0–7: the translated byte;
/// * bits 8–16, *match*: the translated byte if it is squeezable,
///   else `0x100` — what a repeat of this byte would find in `prev`;
/// * bit 17: the byte is deleted;
/// * bits 18–27, *leave*: what this byte leaves in `prev` when it
///   survives deletion — the translated byte if squeezable, else
///   [`NO_SURVIVOR`], which no *match* field equals.
fn class_of(translated: u8, deleted: bool, squeezable: bool) -> u32 {
    let (matches, leaves) = if squeezable {
        (u32::from(translated), u32::from(translated))
    } else {
        (0x100, NO_SURVIVOR)
    };
    u32::from(translated) | matches << 8 | u32::from(deleted) << 17 | leaves << 18
}

/// `prev` before any byte has survived, and after one that cannot be
/// squeezed.
const NO_SURVIVOR: u32 = 0x200;

/// Translates `tile` into the front of `out`, leaving out deleted
/// bytes and squeezed repeats, without a data-dependent branch: every
/// byte is stored, and the write cursor advances only past the ones
/// that stay. `prev` is the *leave* field of the last byte that
/// survived deletion, carried from tile to tile. Returns the output
/// length and the new `prev`.
fn compact(tile: &[u8], classes: &[u32; 256], mut prev: u32, out: &mut [u8]) -> (usize, u32) {
    let mut w = 0;
    for &b in tile {
        let class = classes[b as usize];
        let deleted = (class >> 17) & 1;
        let repeat = u32::from((class >> 8) & 0x1ff == prev);
        out[w] = class as u8;
        w += ((deleted | repeat) ^ 1) as usize;
        prev = if deleted == 0 { class >> 18 } else { prev };
    }
    (w, prev)
}

/// Expands a `tr` set: escapes, ranges (`a-z`), classes (`[:upper:]`).
pub fn expand_set(spec: &str) -> Vec<u8> {
    let bytes = spec.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        // POSIX class.
        if bytes[i] == b'[' && i + 1 < bytes.len() && bytes[i + 1] == b':' {
            if let Some(end) = spec[i..].find(":]") {
                let name = &spec[i + 2..i + end];
                out.extend(class_bytes(name));
                i += end + 2;
                continue;
            }
        }
        let (c, used) = unescape_at(bytes, i);
        // Range?
        if i + used < bytes.len() && bytes[i + used] == b'-' && i + used + 1 < bytes.len() {
            let (hi, used2) = unescape_at(bytes, i + used + 1);
            if hi >= c {
                for b in c..=hi {
                    out.push(b);
                }
                i += used + 1 + used2;
                continue;
            }
        }
        out.push(c);
        i += used;
    }
    out
}

/// Decodes one byte at `i`, handling `\n`-style escapes and `\NNN`:
/// one to three octal digits, as many as keep the value within 0377
/// (GNU reads `\400` as `\40` followed by `0`).
fn unescape_at(bytes: &[u8], i: usize) -> (u8, usize) {
    if bytes[i] != b'\\' || i + 1 >= bytes.len() {
        return (bytes[i], 1);
    }
    let mut value = 0u32;
    let mut digits = 0;
    while let Some(&d @ b'0'..=b'7') = bytes.get(i + 1 + digits) {
        let next = value * 8 + u32::from(d - b'0');
        if digits == 3 || next > 0o377 {
            break;
        }
        value = next;
        digits += 1;
    }
    if digits > 0 {
        return (value as u8, 1 + digits);
    }
    let c = match bytes[i + 1] {
        b'n' => b'\n',
        b't' => b'\t',
        b'r' => b'\r',
        other => other,
    };
    (c, 2)
}

fn class_bytes(name: &str) -> Vec<u8> {
    let mut out = Vec::new();
    match name {
        "upper" => out.extend(b'A'..=b'Z'),
        "lower" => out.extend(b'a'..=b'z'),
        "digit" => out.extend(b'0'..=b'9'),
        "alpha" => {
            out.extend(b'A'..=b'Z');
            out.extend(b'a'..=b'z');
        }
        "alnum" => {
            out.extend(b'0'..=b'9');
            out.extend(b'A'..=b'Z');
            out.extend(b'a'..=b'z');
        }
        "space" => out.extend([b' ', b'\t', b'\n', b'\r', 0x0B, 0x0C]),
        "blank" => out.extend([b' ', b'\t']),
        "cntrl" => out.extend((0..=0x1F).chain([0x7F])),
        "punct" => {
            out.extend(b'!'..=b'/');
            out.extend(b':'..=b'@');
            out.extend(b'['..=b'`');
            out.extend(b'{'..=b'~');
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::expand_set;
    use crate::fs::MemFs;
    use crate::{run_command, Registry};
    use std::sync::Arc;

    fn tr(args: &[&str], input: &str) -> String {
        let mut argv = vec!["tr"];
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
    fn simple_translate() {
        assert_eq!(tr(&["abc", "xyz"], "aabbcc"), "xxyyzz");
    }

    #[test]
    fn range_translate_case() {
        assert_eq!(tr(&["a-z", "A-Z"], "Hello, World!"), "HELLO, WORLD!");
    }

    #[test]
    fn uneven_sets_pad_with_last() {
        assert_eq!(tr(&["abc", "x"], "cab"), "xxx");
    }

    #[test]
    fn delete() {
        assert_eq!(tr(&["-d", "aeiou"], "education"), "dctn");
    }

    #[test]
    fn squeeze_single_set() {
        assert_eq!(tr(&["-s", " "], "a   b  c"), "a b c");
    }

    #[test]
    fn squeeze_after_translate() {
        assert_eq!(tr(&["-s", "ab", "xy"], "aabb"), "xy");
    }

    #[test]
    fn complement_squeeze_word_split() {
        // The classic word-splitting idiom from Wf / Top-n.
        assert_eq!(
            tr(&["-cs", "A-Za-z", "\\n"], "one, two!!three"),
            "one\ntwo\nthree"
        );
    }

    #[test]
    fn complement_delete() {
        assert_eq!(tr(&["-cd", "0-9"], "a1b2c3"), "123");
    }

    #[test]
    fn escapes_in_sets() {
        assert_eq!(tr(&["\\n", " "], "a\nb\n"), "a b ");
        assert_eq!(tr(&["\\t", " "], "a\tb"), "a b");
    }

    #[test]
    fn octal_escapes_take_up_to_three_digits() {
        assert_eq!(expand_set("\\001"), [1]);
        assert_eq!(expand_set("\\01"), [1]);
        assert_eq!(expand_set("\\0"), [0]);
        assert_eq!(expand_set("\\40"), b" ");
        assert_eq!(expand_set("\\101-\\103"), b"ABC");
        // A fourth digit is a literal, and so is a digit that would
        // take the value past 0377.
        assert_eq!(expand_set("\\0012"), [1, b'2']);
        assert_eq!(expand_set("\\400"), b" 0");
        assert_eq!(expand_set("\\8"), b"8");
        assert_eq!(tr(&["-d", "\\001"], "a\u{1}b01\n"), "ab01\n");
    }

    #[test]
    fn posix_classes() {
        assert_eq!(tr(&["[:upper:]", "[:lower:]"], "ABCdef"), "abcdef");
        assert_eq!(tr(&["-d", "[:digit:]"], "a1b2"), "ab");
    }

    #[test]
    fn expand_set_ranges() {
        assert_eq!(expand_set("a-e"), b"abcde".to_vec());
        assert_eq!(expand_set("A-Za-z").len(), 52);
        assert_eq!(expand_set("abc"), b"abc".to_vec());
    }

    #[test]
    fn squeeze_resets_between_runs() {
        assert_eq!(tr(&["-s", "a"], "aabaa"), "aba");
    }

    #[test]
    fn delete_then_squeeze() {
        assert_eq!(tr(&["-ds", "x", "a"], "xaxaxaax"), "a");
    }
}
