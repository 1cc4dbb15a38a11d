//! `tr` — translate, squeeze, or delete characters.
//!
//! Supports `tr SET1 SET2`, `-d SET1`, `-s SET1 [SET2]`, `-c` or `-C`
//! (complement), and combinations such as the classic word-splitting
//! idiom `tr -cs A-Za-z '\n'`. A set is read as GNU reads it in the C
//! locale: escapes first (`\\ \a \b \f \n \r \t \v \NNN`; any other
//! escaped byte, and a last lone backslash, is itself), then, where
//! three bytes are left, constructs of unescaped `[ : = ] -`: the
//! twelve classes `[:alnum:]` `alpha` `blank` `cntrl` `digit` `graph`
//! `lower` `print` `punct` `space` `upper` `xdigit`, `[=c=]`, and
//! `m-n` (reversed: an error). SET2, when it translates, holds no
//! `[=c=]` and no class but `[:upper:]`/`[:lower:]`, each where SET1
//! has one; it is not empty, nor ends in a class, when shorter than
//! SET1; and it is one byte repeated when SET1 complements a class.
//! The repeats `[c*]` and `[c*n]` are refused: status 1, GNU's usage
//! status, as for every set GNU refuses.
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

use crate::args::{escape, scanned, Reading};
use crate::bytemask::{copy_run, low_bits, ByteSet, WINDOW};
use crate::lines::BLOCK_SIZE;
use crate::{usage_error, CmdIo, Command, ExitStatus};

/// The `tr` command. Stateless even *within* lines (§3.1 notes ~1/3 of
/// class S commands share this property).
pub struct Tr;

impl Command for Tr {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut complement = false;
        let mut delete = false;
        let mut squeeze = false;
        let words = scanned!(io, args, "tr", |name, _| {
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
        let (set1, set2) = match read_sets(&words, complement, delete, squeeze) {
            Ok(sets) => sets,
            Err(e) => return usage_error(io, "tr", &e),
        };
        let mut member = [false; 256];
        for &b in &set1 {
            member[b as usize] = true;
        }
        // SET1's bytes map in order onto SET2's, the last of which
        // stands in for any SET2 lacks.
        let mut table: [u8; 256] = std::array::from_fn(|i| i as u8);
        let translating = !delete && set2.is_some();
        if let Some(set2) = set2.as_ref().filter(|_| translating) {
            for (i, &from) in set1.iter().enumerate() {
                table[from as usize] = set2[i.min(set2.len() - 1)];
            }
        }
        // Runs of the bytes in the last set given are squeezed, after
        // translation.
        let mut squeeze_member = [false; 256];
        for &b in set2.as_ref().unwrap_or(&set1).iter().filter(|_| squeeze) {
            squeeze_member[b as usize] = true;
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

/// `tr`'s sets, read from its operands as the module docs say: SET1's
/// bytes (complemented under `-c`, in byte order) and SET2's, when
/// given; or the usage error, for a set or for a number of sets the
/// mode does not take (two to translate, one with `-d`, one or two
/// with `-s`, two with `-ds`).
pub(crate) fn read_sets(
    words: &[&str],
    complement: bool,
    delete: bool,
    squeeze: bool,
) -> Result<(Vec<u8>, Option<Vec<u8>>), String> {
    let (least, most) = match (delete, squeeze) {
        (true, false) => (1, 1),
        (false, true) => (1, 2),
        _ => (2, 2),
    };
    if words.len() < least {
        return Err(match words.last() {
            Some(last) => format!("missing operand after '{last}'"),
            None => "missing operand".to_string(),
        });
    }
    if let Some(extra) = words.get(most) {
        return Err(format!("extra operand '{extra}'"));
    }
    let s1 = Set::read(words[0])?;
    let s2 = words.get(1).map(|w| Set::read(w)).transpose()?;
    let mut set1 = s1.bytes;
    if complement {
        let listed = set1.iter().fold([false; 256], |mut m, &b| {
            m[b as usize] = true;
            m
        });
        set1 = (0..=255).filter(|&b| !listed[b as usize]).collect();
    }
    let Some(s2) = s2 else {
        return Ok((set1, None));
    };
    let longer = set1.len() > s2.bytes.len();
    let misaligned = !complement && s2.cases.iter().any(|at| !s1.cases.contains(at));
    let class1 = s1.other_class || !s1.cases.is_empty();
    let spread = complement && class1 && s2.bytes.windows(2).any(|w| w[0] != w[1]);
    let rules = [
        (s2.equiv, "[=c=] in SET2"),
        (s2.other_class, "a class but [:upper:] or [:lower:] in SET2"),
        (misaligned, "misaligned [:upper:] or [:lower:]"),
        (longer && s2.bytes.is_empty(), "an empty SET2"),
        (
            longer && s2.ends_in_class,
            "a class at the end of a shorter SET2",
        ),
        (spread, "a complemented class mapped to more than one byte"),
    ];
    match rules.iter().find(|rule| rule.0 && !delete) {
        Some((_, what)) => Err(format!("when translating, {what}")),
        None => Ok((set1, Some(s2.bytes))),
    }
}

/// Whether `tr`, read as `r`, squeezes a run that can cross a line
/// end: with `-s` under a complement (whose set almost always holds
/// `\n`), or with `\n` in a set as it is read — literally, as an
/// escape (`\n`, `\012`), in a range (`\001-\177`) or through a
/// class (`[:space:]`). A segment that starts inside such a run would
/// keep a byte the whole input drops.
pub fn squeezes_across_lines(r: &Reading) -> bool {
    let words: Vec<&str> = r.operands.0.iter().map(|&(_, w)| w).collect();
    let holds_newline = || {
        let (set1, set2) = read_sets(&words, false, r.has("d"), true).unwrap_or_default();
        set1.contains(&b'\n') || set2.is_some_and(|set| set.contains(&b'\n'))
    };
    r.has("s") && (r.has("c") || r.has("C") || holds_newline())
}

/// The test for a member of GNU's class `name` in the C locale, one of
/// twelve.
fn class(name: &[u8]) -> Option<fn(&u8) -> bool> {
    Some(match name {
        b"alnum" => u8::is_ascii_alphanumeric,
        b"alpha" => u8::is_ascii_alphabetic,
        b"blank" => |&b| b == b' ' || b == b'\t',
        b"cntrl" => u8::is_ascii_control,
        b"digit" => u8::is_ascii_digit,
        b"graph" => u8::is_ascii_graphic,
        b"lower" => u8::is_ascii_lowercase,
        b"print" => |&b| b.is_ascii_graphic() || b == b' ',
        b"punct" => u8::is_ascii_punctuation,
        b"space" => |&b| b.is_ascii_whitespace() || b == 0x0b,
        b"upper" => u8::is_ascii_uppercase,
        b"xdigit" => u8::is_ascii_hexdigit,
        _ => return None,
    })
}

/// One `tr` set as it is read, with what SET2's rules ask of it.
#[derive(Default)]
struct Set {
    bytes: Vec<u8>,
    /// Where each `[:upper:]` and `[:lower:]` starts in `bytes`.
    cases: Vec<usize>,
    /// Whether it holds another class, and an `[=c=]`.
    other_class: bool,
    equiv: bool,
    /// Whether its last element is a class.
    ends_in_class: bool,
}

impl Set {
    fn read(word: &str) -> Result<Set, String> {
        let raw = word.as_bytes();
        // Each byte, and whether it was escaped.
        let mut s: Vec<(u8, bool)> = Vec::with_capacity(raw.len());
        let mut i = 0;
        while let Some(&b) = raw.get(i) {
            i += 1;
            match (b, raw.get(i)) {
                (b'\\', Some(&next)) => {
                    let (byte, used) = escape(&raw[i..]).unwrap_or((next, 1));
                    s.push((byte, true));
                    i += used;
                }
                _ => s.push((b, false)),
            }
        }
        let plain = |at: usize, c: u8| s.get(at) == Some(&(c, false));
        let mut set = Set::default();
        let mut i = 0;
        while let Some(&(b, _)) = s.get(i) {
            set.ends_in_class = false;
            let bracket = i + 2 < s.len() && plain(i, b'[');
            // `[:name:]` or `[=c=]`, closed by the first `:]` or `=]`.
            let kind = [b':', b'=']
                .into_iter()
                .find(|&k| bracket && plain(i + 1, k));
            let close =
                kind.and_then(|k| (i + 2..s.len()).find(|&j| plain(j, k) && plain(j + 1, b']')));
            if let (Some(kind), Some(j)) = (kind, close) {
                let name: Vec<u8> = s[i + 2..j].iter().map(|&(b, _)| b).collect();
                let shown = String::from_utf8_lossy(&name);
                i = j + 2;
                if kind == b'=' {
                    let [c] = name[..] else {
                        return Err(format!("invalid equivalence class [={shown}=]"));
                    };
                    set.bytes.push(c);
                    set.equiv = true;
                    continue;
                }
                let Some(member) = class(&name) else {
                    return Err(format!("invalid character class [:{shown}:]"));
                };
                match &name[..] {
                    b"upper" | b"lower" => set.cases.push(set.bytes.len()),
                    _ => set.other_class = true,
                }
                set.bytes.extend((0..=255u8).filter(member));
                set.ends_in_class = true;
                continue;
            }
            // `[c*]` or `[c*n]`: a `*` after one byte, and a `]` before
            // any escaped byte.
            let tail = s
                .get(i + 3..)
                .unwrap_or_default()
                .iter()
                .take_while(|e| !e.1);
            if bracket && plain(i + 2, b'*') && tail.into_iter().any(|e| e.0 == b']') {
                return Err("the repeats [c*] and [c*n] are not supported".into());
            }
            let (hi, width) = match i + 2 < s.len() && plain(i + 1, b'-') {
                true => (s[i + 2].0, 3),
                false => (b, 1),
            };
            if b > hi {
                return Err(format!("reversed range {}-{}", b as char, hi as char));
            }
            set.bytes.extend(b..=hi);
            i += width;
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::read_sets;
    use crate::fs::MemFs;
    use crate::{run_command, Registry};
    use std::sync::Arc;

    /// A set as `tr -d` reads it.
    fn expand_set(spec: &str) -> Vec<u8> {
        read_sets(&[spec], false, true, false).expect("a set").0
    }

    /// The usage error of `tr` with these sets, translating.
    fn refusal(sets: [&str; 2]) -> String {
        read_sets(&sets, false, false, false).expect_err("refused")
    }

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
        assert_eq!(expand_set("[:xdigit:]"), b"0123456789ABCDEFabcdef");
        assert_eq!(expand_set("[:space:]"), b"\t\n\x0b\x0c\r ");
        assert_eq!(expand_set("[:graph:]").len(), 94);
        assert_eq!(expand_set("[:print:]").len(), 95);
        assert_eq!(expand_set("[:punct:]").len(), 32);
        assert_eq!(expand_set("[=a=][=\\n=]"), b"a\n");
        // Too short for a construct, or not closed: literal bytes.
        assert_eq!(expand_set("[:]"), b"[:]");
        assert_eq!(expand_set("[:a"), b"[:a");
        assert_eq!(expand_set("\\[:alpha:]"), b"[:alpha:]");
        assert_eq!(expand_set("a-"), b"a-");
        assert_eq!(expand_set("a\\-c"), b"a-c");
        assert_eq!(expand_set("ab\\"), b"ab\\");
    }

    #[test]
    fn what_gnu_refuses_is_refused() {
        let refused = |set: &str| read_sets(&[set], false, true, false).is_err();
        for set in [
            "c-a", "[:foo:]", "[::]", "[==]", "[=ab=]", "[a*]", "[a*3]", "x[:*]",
        ] {
            assert!(refused(set), "{set}");
        }
        assert!(refusal(["a", "[:digit:]"]).contains("a class but"));
        assert!(refusal(["a", "[=b=]"]).contains("[=c=]"));
        assert!(refusal(["[:alpha:]1", "x[:upper:]"]).contains("misaligned"));
        assert!(refusal(["a[:upper:]", "[:lower:]b"]).contains("misaligned"));
        assert!(refusal(["[:lower:]A", "[:upper:]"]).contains("at the end"));
        assert!(refusal(["abc", ""]).contains("empty SET2"));
        assert!(refusal(["abc", "[x*]"]).contains("repeat"));
        // Aligned case classes translate; a complemented class goes to
        // one byte.
        assert!(read_sets(&["[:upper:]a", "[:lower:]b"], false, false, false).is_ok());
        assert!(read_sets(&["[:lower:]", "x"], true, false, false).is_ok());
        assert!(read_sets(&["[:lower:]", "xy"], true, false, false).is_err());
        // Not translating, SET2 takes any class.
        assert!(read_sets(&["a", "[:digit:]"], false, true, true).is_ok());
    }

    #[test]
    fn a_complement_maps_in_byte_order() {
        assert_eq!(tr(&["-c", "abc", "xy"], "abcd\0"), "abcyx");
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
