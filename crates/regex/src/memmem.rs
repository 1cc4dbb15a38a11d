//! Word-at-a-time byte scanning: `memchr`/`memmem`-style primitives.
//!
//! These are prefilter workhorses of the tiered matcher. They use no
//! vector instructions: each step processes one machine word with the
//! classic SWAR zero-byte trick, which moves bytes at several GiB/s —
//! far faster than any per-byte NFA or DFA loop, and fast enough that
//! skipping non-candidate input dominates total `grep`/`sed` time on
//! literal-bearing patterns. A set of several literals goes to the
//! SSSE3 Teddy searcher in [`crate::teddy`] instead.
//!
//! Counting a byte is not here: the one count of the workspace
//! (`pash_coreutils::bytemask::count_byte`, 64-byte SSE2 masks) is
//! several times faster than a word at a time, and `grep -n`, `wc` and
//! the runtime's splitters all call it.

const WORD: usize = std::mem::size_of::<usize>();
const LO: usize = usize::from_ne_bytes([0x01; WORD]);
const HI: usize = usize::from_ne_bytes([0x80; WORD]);

/// Broadcasts a byte into every lane of a word.
#[inline(always)]
fn splat(b: u8) -> usize {
    usize::from_ne_bytes([b; WORD])
}

/// Flags zero byte lanes of `w` with `0x80` (SWAR trick: borrows out
/// of zero lanes survive the mask). A borrow can also flag the lane
/// *after* a zero lane, so the word is zero-free iff the result is 0
/// and the lowest flagged lane is exact, but the flags above it are
/// not.
#[inline(always)]
fn zero_lanes(w: usize) -> usize {
    w.wrapping_sub(LO) & !w & HI
}

/// True when any byte lane of `w` is zero.
#[inline(always)]
fn has_zero_byte(w: usize) -> bool {
    zero_lanes(w) != 0
}

/// Index of the lowest flagged lane of a non-zero [`zero_lanes`]
/// result: words load little-endian, so that is the first byte.
#[inline(always)]
fn first_lane(flags: usize) -> usize {
    (flags.trailing_zeros() / 8) as usize
}

/// Reads a word from `hay` at `i`, first byte in the lowest lane
/// (caller guarantees `i + WORD` fits).
#[inline(always)]
fn load_word(hay: &[u8], i: usize) -> usize {
    let mut buf = [0u8; WORD];
    buf.copy_from_slice(&hay[i..i + WORD]);
    usize::from_le_bytes(buf)
}

/// Finds the first occurrence of byte `b` in `hay`.
#[inline]
pub fn memchr(b: u8, hay: &[u8]) -> Option<usize> {
    let pat = splat(b);
    let mut i = 0;
    while i + WORD <= hay.len() {
        // A hit resolves without a per-byte loop, so short fields and
        // lines do not pay a mispredicted exit per call.
        let flags = zero_lanes(load_word(hay, i) ^ pat);
        if flags != 0 {
            return Some(i + first_lane(flags));
        }
        i += WORD;
    }
    hay[i..].iter().position(|&h| h == b).map(|j| i + j)
}

/// Finds the first occurrence of either byte in `hay` (one pass, two
/// SWAR tests per word). The caseless prefilter's probe: scan for
/// both cases of an ASCII letter at `memchr` speed.
#[inline]
pub fn memchr2(a: u8, b: u8, hay: &[u8]) -> Option<usize> {
    let pa = splat(a);
    let pb = splat(b);
    let mut i = 0;
    while i + WORD <= hay.len() {
        let w = load_word(hay, i);
        let flags = zero_lanes(w ^ pa) | zero_lanes(w ^ pb);
        if flags != 0 {
            return Some(i + first_lane(flags));
        }
        i += WORD;
    }
    hay[i..]
        .iter()
        .position(|&h| h == a || h == b)
        .map(|j| i + j)
}

/// Finds the last occurrence of byte `b` in `hay`.
#[inline]
pub fn memrchr(b: u8, hay: &[u8]) -> Option<usize> {
    let pat = splat(b);
    let mut end = hay.len();
    // Unaligned tail first, then whole words backwards.
    while !end.is_multiple_of(WORD) && end > 0 {
        end -= 1;
        if hay[end] == b {
            return Some(end);
        }
    }
    while end >= WORD {
        let i = end - WORD;
        if has_zero_byte(load_word(hay, i) ^ pat) {
            for j in (0..WORD).rev() {
                if hay[i + j] == b {
                    return Some(i + j);
                }
            }
            unreachable!("word test claimed a match");
        }
        end = i;
    }
    hay[..end].iter().rposition(|&h| h == b)
}

/// Estimated background frequency rank of each byte (0 = rarest).
///
/// A static heuristic modeled on typical line-oriented text: controls
/// and high bytes are rare, vowels/space/digits are common. Used to
/// pick the needle byte worth `memchr`-ing for.
fn rarity(b: u8) -> u8 {
    match b {
        b'e' | b't' | b'a' | b'o' | b'i' | b'n' | b' ' => 250,
        b's' | b'h' | b'r' | b'd' | b'l' | b'u' => 230,
        b'0'..=b'9' => 200,
        b'c' | b'm' | b'f' | b'w' | b'g' | b'y' | b'p' | b'b' => 190,
        b'v' | b'k' | b'.' | b',' | b'-' | b'_' | b'/' => 150,
        b'A'..=b'Z' => 120,
        b'\n' | b'\t' => 110,
        0x21..=0x7E => 60,
        _ => 10,
    }
}

/// A substring searcher with a precomputed rare-byte probe.
///
/// Strategy: `memchr` for the needle's rarest byte, check the second
/// probe byte, then verify the full needle. On mismatch-dominated
/// haystacks (the `grep` common case) the word-at-a-time `memchr`
/// does nearly all the work.
///
/// A *caseless* finder (see [`Finder::new_caseless`]) stores the
/// needle lowercased, probes for both cases of an ASCII letter via
/// [`memchr2`], and verifies windows with `eq_ignore_ascii_case` —
/// so `grep -i` patterns keep a word-at-a-time prefilter.
#[derive(Debug, Clone)]
pub struct Finder {
    needle: Vec<u8>,
    /// Offset of the rarest needle byte (the `memchr` probe).
    rare1: usize,
    /// Offset of the second-rarest byte (the confirm probe).
    rare2: usize,
    /// Match ASCII case-insensitively.
    caseless: bool,
}

impl Finder {
    /// Builds a searcher for `needle`.
    pub fn new(needle: &[u8]) -> Finder {
        Finder::build(needle.to_vec(), false)
    }

    /// Builds an ASCII case-insensitive searcher (the needle is
    /// normalized to lowercase).
    pub fn new_caseless(needle: &[u8]) -> Finder {
        Finder::build(needle.to_ascii_lowercase(), true)
    }

    fn build(needle: Vec<u8>, caseless: bool) -> Finder {
        let mut rare1 = 0usize;
        let mut rare2 = 0usize;
        for (i, &b) in needle.iter().enumerate() {
            if rarity(b) < rarity(needle[rare1]) {
                rare2 = rare1;
                rare1 = i;
            } else if i != rare1 && rarity(b) < rarity(needle[rare2]) {
                rare2 = i;
            }
        }
        Finder {
            needle,
            rare1,
            rare2,
            caseless,
        }
    }

    /// The needle being searched for (lowercased when caseless).
    pub fn needle(&self) -> &[u8] {
        &self.needle
    }

    /// Whether this finder matches ASCII case-insensitively.
    pub fn is_caseless(&self) -> bool {
        self.caseless
    }

    /// Whether `window` equals the needle under this finder's
    /// comparison (used by the anchored literal tier).
    #[inline]
    pub fn matches(&self, window: &[u8]) -> bool {
        if self.caseless {
            window.eq_ignore_ascii_case(&self.needle)
        } else {
            window == self.needle.as_slice()
        }
    }

    /// Scans for the probe byte, honoring caselessness.
    #[inline]
    fn probe(&self, b: u8, hay: &[u8]) -> Option<usize> {
        if self.caseless && b.is_ascii_lowercase() {
            memchr2(b, b.to_ascii_uppercase(), hay)
        } else {
            memchr(b, hay)
        }
    }

    #[inline]
    fn byte_eq(&self, h: u8, n: u8) -> bool {
        h == n || (self.caseless && h.eq_ignore_ascii_case(&n))
    }

    /// Finds the first occurrence of the needle in `hay`.
    #[inline]
    pub fn find(&self, hay: &[u8]) -> Option<usize> {
        let n = &self.needle;
        if n.is_empty() {
            return Some(0);
        }
        if n.len() == 1 {
            return self.probe(n[0], hay);
        }
        if n.len() > hay.len() {
            return None;
        }
        let probe1 = n[self.rare1];
        let probe2 = n[self.rare2];
        // Scan for the rare byte at its offset within candidate
        // windows: position `i` of the probe corresponds to a match
        // starting at `i - rare1`.
        let mut at = self.rare1;
        let last = hay.len() - n.len() + self.rare1;
        while at <= last {
            match self.probe(probe1, &hay[at..=last]) {
                None => return None,
                Some(off) => {
                    let i = at + off;
                    let start = i - self.rare1;
                    if self.byte_eq(hay[start + self.rare2], probe2)
                        && self.matches(&hay[start..start + n.len()])
                    {
                        return Some(start);
                    }
                    at = i + 1;
                }
            }
        }
        None
    }

    /// Iterates over (possibly overlapping) occurrence start offsets.
    pub fn find_iter<'f, 'h>(&'f self, hay: &'h [u8]) -> FindIter<'f, 'h> {
        FindIter {
            finder: self,
            hay,
            at: 0,
        }
    }
}

/// Iterator over needle occurrences; see [`Finder::find_iter`].
pub struct FindIter<'f, 'h> {
    finder: &'f Finder,
    hay: &'h [u8],
    at: usize,
}

impl Iterator for FindIter<'_, '_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.at > self.hay.len() {
            return None;
        }
        let pos = self.finder.find(&self.hay[self.at..])? + self.at;
        self.at = pos + 1;
        Some(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memchr_all_positions() {
        let hay = b"the quick brown fox jumps over the lazy dog";
        for (i, &b) in hay.iter().enumerate() {
            let first = hay.iter().position(|&h| h == b).unwrap();
            assert_eq!(memchr(b, hay), Some(first), "byte {b} at {i}");
        }
        assert_eq!(memchr(b'z', b"abc"), None);
        assert_eq!(memchr(b'a', b""), None);
    }

    #[test]
    fn memchr_long_haystack() {
        let mut hay = vec![b'x'; 1000];
        hay[777] = b'q';
        assert_eq!(memchr(b'q', &hay), Some(777));
        assert_eq!(memrchr(b'q', &hay), Some(777));
    }

    #[test]
    fn memrchr_matches_rposition() {
        let hay = b"abcabcabc-xyz-abc";
        for b in [b'a', b'c', b'-', b'z', b'Q'] {
            assert_eq!(memrchr(b, hay), hay.iter().rposition(|&h| h == b));
        }
    }

    #[test]
    fn first_hit_is_exact_for_every_byte_pair_in_a_word() {
        // The lane after a hit can be flagged by the borrow; the
        // first hit must still be the one reported.
        for a in [0u8, 1, b'\n', 0x0b, b' ', 0x7f, 0x80, 0xff] {
            for fill in [a ^ 1, a.wrapping_add(1), 0, 0xff, b'x'] {
                if fill == a {
                    continue;
                }
                for at in 0..WORD + 3 {
                    let mut hay = vec![fill; 2 * WORD + 3];
                    hay[at] = a;
                    assert_eq!(memchr(a, &hay), Some(at), "{a} in {fill} at {at}");
                    assert_eq!(memchr2(a, b'Q', &hay), Some(at));
                    assert_eq!(memchr2(b'Q', a, &hay), Some(at));
                }
            }
        }
    }

    #[test]
    fn finder_basic() {
        let f = Finder::new(b"needle");
        assert_eq!(f.find(b"haystack with a needle in it"), Some(16));
        assert_eq!(f.find(b"no such thing"), None);
        assert_eq!(f.find(b"needle"), Some(6 - 6));
        assert_eq!(f.find(b"needl"), None);
    }

    #[test]
    fn finder_first_of_many() {
        let f = Finder::new(b"ab");
        assert_eq!(f.find(b"xxabyyab"), Some(2));
        let hits: Vec<usize> = f.find_iter(b"ababab").collect();
        assert_eq!(hits, vec![0, 2, 4]);
    }

    #[test]
    fn finder_overlapping_occurrences() {
        let f = Finder::new(b"aa");
        let hits: Vec<usize> = f.find_iter(b"aaaa").collect();
        assert_eq!(hits, vec![0, 1, 2]);
    }

    #[test]
    fn finder_single_and_empty_needles() {
        assert_eq!(Finder::new(b"x").find(b"aaxa"), Some(2));
        assert_eq!(Finder::new(b"").find(b"abc"), Some(0));
        assert_eq!(Finder::new(b"").find(b""), Some(0));
    }

    #[test]
    fn finder_rare_byte_probe_positions() {
        // "e" is common, "%" rare: the probe should pick the rare one
        // regardless of position.
        for needle in [&b"e%e"[..], b"%ee", b"ee%"] {
            let f = Finder::new(needle);
            assert_eq!(f.needle()[f.rare1], b'%');
            let hay = b"eeeeeeeee%eeeeeeeee";
            let expect = hay.windows(needle.len()).position(|w| w == needle);
            assert_eq!(f.find(hay), expect, "needle {needle:?}");
        }
    }

    #[test]
    fn memchr2_finds_either_byte() {
        let hay = b"xxxxxxxxxxxxXyxxxxx";
        assert_eq!(memchr2(b'X', b'y', hay), Some(12));
        assert_eq!(memchr2(b'y', b'X', hay), Some(12));
        assert_eq!(memchr2(b'q', b'Q', hay), None);
        assert_eq!(memchr2(b'a', b'b', b""), None);
        // Tail (sub-word) path.
        assert_eq!(memchr2(b'c', b'C', b"abC"), Some(2));
    }

    #[test]
    fn caseless_finder_matches_any_case() {
        let f = Finder::new_caseless(b"NeEdLe");
        assert!(f.is_caseless());
        assert_eq!(f.needle(), b"needle");
        assert_eq!(f.find(b"haystack with a NEEDLE in it"), Some(16));
        assert_eq!(f.find(b"haystack with a needle in it"), Some(16));
        assert_eq!(f.find(b"haystack with a nEeDlE in it"), Some(16));
        assert_eq!(f.find(b"no such thing"), None);
        assert!(f.matches(b"NEEDLE"));
        assert!(!f.matches(b"NEEDLES"));
    }

    #[test]
    fn caseless_finder_agrees_with_naive_fold() {
        let hay: Vec<u8> = (0..500u32)
            .map(|i| b"aBcDeFg \n"[(i * 7 % 9) as usize])
            .collect();
        for needle in [&b"ab"[..], b"CDEF", b"g \nA", b"zzz", b"A", b"%"] {
            let f = Finder::new_caseless(needle);
            let naive = hay
                .windows(needle.len())
                .position(|w| w.eq_ignore_ascii_case(&needle.to_ascii_lowercase()));
            assert_eq!(f.find(&hay), naive, "needle {needle:?}");
        }
    }

    #[test]
    fn finder_agrees_with_naive_search() {
        let hay: Vec<u8> = (0..500u32)
            .map(|i| b"abcdefg \n"[(i * 7 % 9) as usize])
            .collect();
        for needle in [&b"ab"[..], b"cdef", b"g \na", b"zzz", b"a"] {
            let f = Finder::new(needle);
            let naive = hay.windows(needle.len()).position(|w| w == needle);
            assert_eq!(f.find(&hay), naive, "needle {needle:?}");
        }
    }
}
