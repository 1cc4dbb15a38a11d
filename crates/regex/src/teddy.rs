//! A packed multi-literal searcher: finds the first place in a
//! haystack where any of up to eight literals starts.
//!
//! This is the Teddy algorithm (from Hyperscan, as the `aho-corasick`
//! crate also implements it), in its simplest form. Each literal owns
//! one of eight *buckets*, one bit of a byte. For each of the first
//! [`FP`] byte positions `k` of a literal, two 16-entry tables map a
//! haystack byte's low and high nibble to the buckets whose literal
//! could have that nibble at position `k`. A `pshufb` looks up sixteen
//! haystack bytes in one table at once, so ANDing the lookups for
//! positions `i`, `i + 1` and `i + 2` leaves, in lane `j`, the buckets
//! whose first three bytes fit the haystack at `i + j`. A lane with a bucket left is a *candidate*, and the whole
//! literal is compared there; most text has no candidate at all, and a
//! chunk without one costs a few vector instructions.
//!
//! The answer never depends on the instruction set: the vector loop
//! and the scalar loop ([`Isa::Scalar`], other targets, and the last
//! byte or two of a haystack, which no vector step fingerprints) use
//! the same tables and the same verification, and each returns the
//! leftmost position where a whole literal occurs. All `unsafe` of
//! the crate lives in this module.
//!
//! Caseless literals (`grep -i`) are stored lowercased; their tables
//! hold both cases of every ASCII letter and verification ignores
//! ASCII case.

/// Most literals a searcher holds: one per bucket bit.
pub const MAX_LITERALS: usize = 8;

/// Shortest literal a searcher holds. A single byte is `memchr`'s job,
/// and a set holding one is too common to skip anything by.
pub const MIN_LEN: usize = 2;

/// Leading bytes of each literal the tables fingerprint.
const FP: usize = 3;

/// Vector width the tables are laid out for (one `pshufb` operand).
const LANES: usize = 16;

/// The instruction sets a [`Teddy`] can scan with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Table lookups one byte at a time; runs anywhere.
    Scalar,
    /// 16 bytes per step with SSSE3's `pshufb`.
    Ssse3,
}

impl Isa {
    /// The instruction sets this CPU runs, scalar first.
    pub fn available() -> Vec<Isa> {
        let mut out = vec![Isa::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("ssse3") {
                out.push(Isa::Ssse3);
            }
        }
        out
    }

    /// The widest instruction set this CPU runs.
    fn best() -> Isa {
        *Isa::available().last().expect("scalar is always available")
    }
}

/// A compiled literal set; see the module docs.
#[derive(Debug, Clone)]
pub struct Teddy {
    /// Bucket `j`'s literal is `lits[j]` (lowercased when caseless).
    lits: Vec<Vec<u8>>,
    caseless: bool,
    /// Bytes of each literal the tables check: the shortest literal's
    /// length, at most [`FP`]. Rows at and past it accept every byte.
    fp_len: usize,
    /// `lo[k][n]`: the buckets whose literal can have low nibble `n`
    /// at position `k`.
    lo: [[u8; LANES]; FP],
    /// `hi[k][n]`: the same for the high nibble.
    hi: [[u8; LANES]; FP],
    /// The instruction set [`Teddy::find`] scans with, detected once.
    isa: Isa,
}

impl Teddy {
    /// Builds a searcher for `lits`, or `None` unless there are 1 to
    /// [`MAX_LITERALS`] of them, each at least [`MIN_LEN`] bytes long.
    /// A caseless searcher finds every ASCII case variant of each.
    pub fn new(lits: &[Vec<u8>], caseless: bool) -> Option<Teddy> {
        if lits.is_empty() || lits.len() > MAX_LITERALS || lits.iter().any(|l| l.len() < MIN_LEN) {
            return None;
        }
        let lits: Vec<Vec<u8>> = if caseless {
            lits.iter().map(|l| l.to_ascii_lowercase()).collect()
        } else {
            lits.to_vec()
        };
        let fp_len = lits.iter().map(Vec::len).min().unwrap_or(0).min(FP);
        let mut lo = [[0u8; LANES]; FP];
        let mut hi = [[0u8; LANES]; FP];
        for k in fp_len..FP {
            lo[k] = [0xff; LANES];
            hi[k] = [0xff; LANES];
        }
        for (j, lit) in lits.iter().enumerate() {
            let bucket = 1u8 << j;
            for (k, &b) in lit.iter().take(fp_len).enumerate() {
                let mut variants = vec![b];
                if caseless && b.is_ascii_lowercase() {
                    variants.push(b.to_ascii_uppercase());
                }
                for v in variants {
                    lo[k][usize::from(v & 0x0f)] |= bucket;
                    hi[k][usize::from(v >> 4)] |= bucket;
                }
            }
        }
        Some(Teddy {
            lits,
            caseless,
            fp_len,
            lo,
            hi,
            isa: Isa::best(),
        })
    }

    /// The literals, one per bucket (lowercased when caseless).
    pub fn literals(&self) -> &[Vec<u8>] {
        &self.lits
    }

    /// The leftmost position in `hay` where one of the literals
    /// starts, scanning with the widest instruction set the CPU has.
    #[inline]
    pub fn find(&self, hay: &[u8]) -> Option<usize> {
        self.dispatch(self.isa, hay)
    }

    /// [`Teddy::find`] on a chosen instruction set, which must be one
    /// [`Isa::available`] lists: every one gives the same answer.
    ///
    /// # Panics
    ///
    /// When the CPU lacks `isa`.
    pub fn find_with(&self, isa: Isa, hay: &[u8]) -> Option<usize> {
        assert!(
            Isa::available().contains(&isa),
            "{isa:?} is not available on this CPU"
        );
        self.dispatch(isa, hay)
    }

    /// Runs the scan for `isa`, which the caller has found available:
    /// `self.isa` was detected at construction, and `find_with`
    /// checks its argument.
    #[inline]
    fn dispatch(&self, isa: Isa, hay: &[u8]) -> Option<usize> {
        match isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the CPU supports SSSE3 (see above), the one
            // requirement of `find_ssse3`'s target feature.
            Isa::Ssse3 => unsafe { x86::find_ssse3(self, hay) },
            _ => self.find_scalar(hay, 0),
        }
    }

    /// The buckets whose fingerprint fits `hay` at `at`, one byte at a
    /// time through the same tables the vector loop uses.
    #[inline]
    fn buckets_at(&self, hay: &[u8], at: usize) -> u8 {
        let mut buckets = 0xff;
        for (k, &b) in hay[at..at + self.fp_len].iter().enumerate() {
            buckets &= self.lo[k][usize::from(b & 0x0f)] & self.hi[k][usize::from(b >> 4)];
        }
        buckets
    }

    /// The scalar scan over the literal starts at `from` and after.
    fn find_scalar(&self, hay: &[u8], from: usize) -> Option<usize> {
        // Past `ends`, too few bytes are left for a fingerprint.
        let ends = (hay.len() + 1).saturating_sub(self.fp_len);
        (from..ends).find(|&at| {
            let buckets = self.buckets_at(hay, at);
            buckets != 0 && self.verify(hay, at, buckets)
        })
    }

    /// Whether the literal of one of `buckets` occurs at `at`.
    #[inline]
    fn verify(&self, hay: &[u8], at: usize, buckets: u8) -> bool {
        let mut bits = buckets;
        while bits != 0 {
            let lit = &self.lits[bits.trailing_zeros() as usize];
            bits &= bits - 1;
            if let Some(window) = hay.get(at..at + lit.len()) {
                let hit = if self.caseless {
                    window.eq_ignore_ascii_case(lit)
                } else {
                    window == lit.as_slice()
                };
                if hit {
                    return true;
                }
            }
        }
        false
    }

    /// The leftmost verified candidate among the lanes of one vector:
    /// `base` is the haystack position of lane 0, `mask` has bit `j`
    /// set where lane `j`'s bucket byte in `lanes` is not zero.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn verify_lanes(&self, hay: &[u8], base: usize, mut mask: u32, lanes: &[u8]) -> Option<usize> {
        while mask != 0 {
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if self.verify(hay, base + j, lanes[j]) {
                return Some(base + j);
            }
        }
        None
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{Teddy, FP, LANES};

    /// Loads 16 bytes from `hay` at `at`.
    ///
    /// # Safety
    ///
    /// `at + 16 <= hay.len()`.
    #[inline]
    #[target_feature(enable = "ssse3")]
    unsafe fn load(hay: &[u8], at: usize) -> __m128i {
        debug_assert!(at + 16 <= hay.len());
        // SAFETY: the caller keeps the 16 bytes inside `hay`, and
        // `loadu` has no alignment requirement.
        unsafe { _mm_loadu_si128(hay.as_ptr().add(at).cast()) }
    }

    /// A 16-byte table row as a vector.
    #[inline]
    #[target_feature(enable = "ssse3")]
    fn row(row: &[u8; LANES]) -> __m128i {
        // SAFETY: `row` is exactly 16 readable bytes.
        unsafe { _mm_loadu_si128(row.as_ptr().cast()) }
    }

    /// The buckets whose byte `k` fits each lane of `chunk`.
    #[inline]
    #[target_feature(enable = "ssse3")]
    fn lookup(chunk: __m128i, lo: __m128i, hi: __m128i) -> __m128i {
        let nibble = _mm_set1_epi8(0x0f);
        let lo_n = _mm_and_si128(chunk, nibble);
        let hi_n = _mm_and_si128(_mm_srli_epi16::<4>(chunk), nibble);
        _mm_and_si128(_mm_shuffle_epi8(lo, lo_n), _mm_shuffle_epi8(hi, hi_n))
    }

    /// Bytes one 16-lane step reads: lane `j` of the chunk loaded at
    /// `at + k` is byte `k` of the candidate at `at + j`.
    const SPAN: usize = LANES + FP - 1;

    /// One 16-lane step: the leftmost literal starting in
    /// `at + skip..at + 16`, its bytes read from `src` (`hay` itself,
    /// or a zero-padded copy of it) and verified in `hay`.
    ///
    /// # Safety
    ///
    /// `at + SPAN <= src.len()`, and `skip < 16`.
    #[inline]
    #[target_feature(enable = "ssse3")]
    unsafe fn step(
        t: &Teddy,
        tables: &([__m128i; FP], [__m128i; FP]),
        src: &[u8],
        hay: &[u8],
        at: usize,
        skip: usize,
    ) -> Option<usize> {
        let (lo, hi) = tables;
        // SAFETY: `at + k + 16 <= at + SPAN <= src.len()` for every
        // `k < FP`, by the caller's guarantee.
        let (c0, c1, c2) = unsafe { (load(src, at), load(src, at + 1), load(src, at + 2)) };
        let hits = _mm_and_si128(
            _mm_and_si128(lookup(c0, lo[0], hi[0]), lookup(c1, lo[1], hi[1])),
            lookup(c2, lo[2], hi[2]),
        );
        let keep = (0xffff_u32 << skip) & 0xffff;
        let empty = _mm_movemask_epi8(_mm_cmpeq_epi8(hits, _mm_setzero_si128())) as u32;
        let mask = !empty & keep;
        if mask == 0 {
            return None;
        }
        let mut lanes = [0u8; LANES];
        // SAFETY: `lanes` is 16 writable bytes; `storeu` has no
        // alignment requirement.
        unsafe { _mm_storeu_si128(lanes.as_mut_ptr().cast(), hits) };
        t.verify_lanes(hay, at, mask, &lanes)
    }

    /// [`Teddy::find`] 16 bytes at a time. The last step
    /// overlaps the one before it (its lanes already seen skipped),
    /// and a haystack shorter than one step is read from a zero-padded
    /// copy, so only the last byte or two go through the scalar loop.
    #[target_feature(enable = "ssse3")]
    pub(super) fn find_ssse3(t: &Teddy, hay: &[u8]) -> Option<usize> {
        let tables = (
            std::array::from_fn(|k| row(&t.lo[k])),
            std::array::from_fn(|k| row(&t.hi[k])),
        );
        if hay.len() < SPAN {
            // A candidate in the padding fails verification, which
            // reads `hay`.
            let mut padded = [0u8; SPAN];
            padded[..hay.len()].copy_from_slice(hay);
            // SAFETY: `0 + SPAN == padded.len()`.
            let found = unsafe { step(t, &tables, &padded, hay, 0, 0) };
            return found.or_else(|| t.find_scalar(hay, LANES));
        }
        let last = hay.len() - SPAN;
        let mut at = 0;
        while at <= last {
            // SAFETY: `at + SPAN <= last + SPAN == hay.len()`.
            let found = unsafe { step(t, &tables, hay, hay, at, 0) };
            if found.is_some() {
                return found;
            }
            at += LANES;
        }
        // Here `last < at <= last + 16`.
        if at < last + LANES {
            // SAFETY: `last + SPAN == hay.len()`, and
            // `at - last < 16`.
            let found = unsafe { step(t, &tables, hay, hay, last, at - last) };
            if found.is_some() {
                return found;
            }
        }
        t.find_scalar(hay, last + LANES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(words: &[&str]) -> Vec<Vec<u8>> {
        words.iter().map(|w| w.as_bytes().to_vec()).collect()
    }

    /// The leftmost start of any literal, by brute force.
    fn naive(words: &[Vec<u8>], caseless: bool, hay: &[u8]) -> Option<usize> {
        (0..hay.len()).find(|&at| {
            words.iter().any(|w| {
                hay.get(at..at + w.len()).is_some_and(|win| {
                    if caseless {
                        win.eq_ignore_ascii_case(w)
                    } else {
                        win == w.as_slice()
                    }
                })
            })
        })
    }

    #[test]
    fn refuses_what_it_cannot_hold() {
        assert!(Teddy::new(&[], false).is_none());
        assert!(Teddy::new(&lits(&["ab", "c"]), false).is_none());
        let nine: Vec<Vec<u8>> = (0..9).map(|i| format!("w{i}").into_bytes()).collect();
        assert!(Teddy::new(&nine, false).is_none());
        assert!(Teddy::new(&nine[..8], false).is_some());
    }

    #[test]
    fn finds_the_leftmost_literal_on_every_isa() {
        let words = lits(&["river ", "mountain ", "signal ", "compiler "]);
        let t = Teddy::new(&words, false).expect("set");
        let mut hay = b"a common\nsignal of the river".repeat(3);
        hay.extend_from_slice(b"\nthe mountain\n river \n");
        for isa in Isa::available() {
            for from in 0..hay.len() {
                let rest = &hay[from..];
                let want = naive(&words, false, rest);
                assert_eq!(t.find_with(isa, rest), want, "{isa:?} from {from}");
            }
        }
    }

    #[test]
    fn two_byte_literals_fingerprint_two_bytes() {
        let words = lits(&["of", "the", "and"]);
        let t = Teddy::new(&words, false).expect("set");
        assert_eq!(t.fp_len, 2);
        let hay = b"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxof";
        for isa in Isa::available() {
            assert_eq!(t.find_with(isa, hay), Some(hay.len() - 2), "{isa:?}");
            assert_eq!(t.find_with(isa, &hay[..hay.len() - 1]), None, "{isa:?}");
        }
    }

    #[test]
    fn caseless_sets_find_every_case() {
        let words = lits(&["River", "SIG"]);
        let t = Teddy::new(&words, true).expect("set");
        assert_eq!(t.literals(), &lits(&["river", "sig"])[..]);
        let hay = b"..............................................RiVeR sIg";
        for isa in Isa::available() {
            assert_eq!(t.find_with(isa, hay), Some(46), "{isa:?}");
            assert_eq!(t.find_with(isa, &hay[47..]), Some(5), "{isa:?}");
        }
    }
}
