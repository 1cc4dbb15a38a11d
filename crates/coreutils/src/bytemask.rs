//! Position masks over 64-byte windows: which bytes of a window belong
//! to a small set.
//!
//! A mask has one bit per position (bit `i` for `window[i]`), so a
//! kernel that wants the bytes of a class walks the set bits with
//! `trailing_zeros` instead of testing every byte, and copies the runs
//! between them whole. `tr -d`/`-s` and `cut -f` work this way.
//!
//! The same comparisons count: [`count_byte`] sums a window's
//! comparisons in byte counters (on x86_64; elsewhere one mask and one
//! `count_ones` per window), and [`nth_byte`] walks the masks' counts
//! to the window that holds the `n`th hit. They are the one newline
//! count of the workspace — `wc`, `grep -c`/`-n`, `sort`'s index
//! sizing and both runtime splitters call them.
//!
//! On x86_64 a mask costs four `pcmpeqb` per set byte and four
//! `pmovmskb`. SSE2 is part of the x86_64 baseline, so there is no
//! runtime detection. The scalar twin ([`ByteSet::mask_scalar`])
//! serves every other target and is the reference the vector form is
//! tested against; the counts are tested against byte-at-a-time twins
//! of their own. All `unsafe` of the crate lives in this module.

/// Bytes a mask covers.
pub(crate) const WINDOW: usize = 64;

/// Most bytes a [`ByteSet`] holds.
const MAX_SET: usize = 4;

/// A set of one to [`MAX_SET`] bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ByteSet {
    bytes: [u8; MAX_SET],
    len: usize,
}

impl ByteSet {
    /// The set of `bytes` (duplicates allowed), or `None` when there
    /// are none or more than [`MAX_SET`].
    pub(crate) fn new(bytes: &[u8]) -> Option<ByteSet> {
        if bytes.is_empty() || bytes.len() > MAX_SET {
            return None;
        }
        let mut set = [bytes[0]; MAX_SET];
        set[..bytes.len()].copy_from_slice(bytes);
        Some(ByteSet {
            bytes: set,
            len: bytes.len(),
        })
    }

    fn bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// Bit `i` is set when `window[i]` is in the set. A window shorter
    /// than [`WINDOW`] has no bits at or past its length.
    ///
    /// # Panics
    ///
    /// When `window` is longer than [`WINDOW`].
    pub(crate) fn mask(&self, window: &[u8]) -> u64 {
        match <&[u8; WINDOW]>::try_from(window) {
            Ok(whole) => self.mask64(whole),
            Err(_) => {
                assert!(window.len() < WINDOW, "a window is at most 64 bytes");
                let mut whole = [0u8; WINDOW];
                whole[..window.len()].copy_from_slice(window);
                self.mask64(&whole) & low_bits(window.len())
            }
        }
    }

    /// The byte-at-a-time form of [`ByteSet::mask`]: the same bits.
    #[cfg(any(test, not(target_arch = "x86_64")))]
    fn mask_scalar(&self, window: &[u8]) -> u64 {
        assert!(window.len() <= WINDOW, "a window is at most 64 bytes");
        window
            .iter()
            .enumerate()
            .filter(|(_, b)| self.bytes().contains(b))
            .fold(0, |m, (i, _)| m | 1 << i)
    }

    #[cfg(target_arch = "x86_64")]
    fn mask64(&self, window: &[u8; WINDOW]) -> u64 {
        // SAFETY: SSE2 is part of the x86_64 baseline; every x86_64
        // CPU runs it.
        unsafe { x86::mask(self.bytes(), window) }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn mask64(&self, window: &[u8; WINDOW]) -> u64 {
        self.mask_scalar(window)
    }
}

/// How many bytes of `hay` equal `b`: the whole windows by
/// [`count_windows`], the rest by one mask.
pub fn count_byte(b: u8, hay: &[u8]) -> usize {
    let whole = hay.len() - hay.len() % WINDOW;
    let set = ByteSet::new(&[b]).expect("one byte");
    count_windows(b, &hay[..whole]) + set.mask(&hay[whole..]).count_ones() as usize
}

/// [`count_byte`] over whole windows (`hay.len()` a multiple of
/// [`WINDOW`]).
#[cfg(target_arch = "x86_64")]
fn count_windows(b: u8, hay: &[u8]) -> usize {
    // SAFETY: SSE2 is part of the x86_64 baseline; every x86_64 CPU
    // runs it.
    unsafe { x86::count(b, hay) }
}

/// [`count_byte`] over whole windows: one mask and one `count_ones`
/// per window.
#[cfg(not(target_arch = "x86_64"))]
fn count_windows(b: u8, hay: &[u8]) -> usize {
    let set = ByteSet::new(&[b]).expect("one byte");
    hay.chunks_exact(WINDOW)
        .map(|w| set.mask(w).count_ones() as usize)
        .sum()
}

/// Where in `hay` the `n`th byte equal to `b` is, counting from 0;
/// `None` when there are no more than `n`. Windows are counted whole
/// until the one that holds it.
pub fn nth_byte(b: u8, hay: &[u8], mut n: usize) -> Option<usize> {
    let set = ByteSet::new(&[b]).expect("one byte");
    for (at, window) in hay.chunks(WINDOW).enumerate() {
        let mut m = set.mask(window);
        let hits = m.count_ones() as usize;
        if n < hits {
            for _ in 0..n {
                m &= m - 1;
            }
            return Some(at * WINDOW + m.trailing_zeros() as usize);
        }
        n -= hits;
    }
    None
}

/// The low `n` bits, `n <= 64`.
pub(crate) fn low_bits(n: usize) -> u64 {
    u64::MAX.checked_shr((WINDOW - n) as u32).unwrap_or(0)
}

/// Copies `src[from..from + len]` to `out[at..]`. Where `len` is at
/// most a window and both slices hold a whole window from there, this
/// is one fixed-size [`WINDOW`]-byte move, and the bytes it writes
/// past `at + len` are the caller's to overwrite or ignore.
#[inline]
pub(crate) fn copy_run(src: &[u8], from: usize, len: usize, out: &mut [u8], at: usize) {
    if len <= WINDOW {
        if let (Some(run), Some(to)) = (src.get(from..from + WINDOW), out.get_mut(at..at + WINDOW))
        {
            to.copy_from_slice(run);
            return;
        }
    }
    out[at..at + len].copy_from_slice(&src[from..from + len]);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The SSE2 forms. The functions enable `sse2`, which makes the
    //! intrinsics they call safe; the caller's `unsafe` block says why
    //! the CPU has it.

    use std::arch::x86_64::{
        _mm_cmpeq_epi8, _mm_cvtsi128_si64, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128,
        _mm_sad_epu8, _mm_set1_epi8, _mm_setzero_si128, _mm_srli_si128, _mm_sub_epi8,
    };

    use super::WINDOW;

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn mask(set: &[u8], window: &[u8; WINDOW]) -> u64 {
        let p = window.as_ptr();
        // SAFETY: lane `k < 4` reads the 16 bytes at offset `16 * k`
        // of a 64-byte array, all in bounds; `loadu` has no alignment
        // requirement.
        let lanes = unsafe {
            [
                _mm_loadu_si128(p.cast()),
                _mm_loadu_si128(p.add(16).cast()),
                _mm_loadu_si128(p.add(32).cast()),
                _mm_loadu_si128(p.add(48).cast()),
            ]
        };
        let mut hits = [_mm_setzero_si128(); 4];
        for &b in set {
            let b = _mm_set1_epi8(b as i8);
            for k in 0..4 {
                hits[k] = _mm_or_si128(hits[k], _mm_cmpeq_epi8(lanes[k], b));
            }
        }
        // Bit `16 * k + j` is the top bit of byte `j` of lane `k`.
        let mut m = 0;
        for (k, lane) in hits.into_iter().enumerate() {
            m |= u64::from(_mm_movemask_epi8(lane) as u16) << (16 * k);
        }
        m
    }

    /// How many bytes of `hay`'s whole windows equal `b`. A mask per
    /// window would pay a `count_ones`, which the x86_64 baseline
    /// (no `popcnt`) spells as a dozen instructions; instead each
    /// lane's comparison, −1 per hit, is subtracted into a byte
    /// counter, and `psadbw` adds the counters up every 255 windows,
    /// before one can wrap.
    #[target_feature(enable = "sse2")]
    pub(super) fn count(b: u8, hay: &[u8]) -> usize {
        let needle = _mm_set1_epi8(b as i8);
        let zero = _mm_setzero_si128();
        let mut total = 0;
        for run in hay.chunks(255 * WINDOW) {
            let mut counters = [zero; 4];
            for window in run.chunks_exact(WINDOW) {
                let p = window.as_ptr();
                for (k, counter) in counters.iter_mut().enumerate() {
                    // SAFETY: lane `k < 4` reads the 16 bytes at
                    // offset `16 * k` of a 64-byte window, all in
                    // bounds; `loadu` has no alignment requirement.
                    let lane = unsafe { _mm_loadu_si128(p.add(16 * k).cast()) };
                    *counter = _mm_sub_epi8(*counter, _mm_cmpeq_epi8(lane, needle));
                }
            }
            for counter in counters {
                // Two sums of eight counters, in the low 16 bits of
                // each half.
                let sums = _mm_sad_epu8(counter, zero);
                total += _mm_cvtsi128_si64(sums) as usize
                    + _mm_cvtsi128_si64(_mm_srli_si128::<8>(sums)) as usize;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::{count_byte, low_bits, nth_byte, ByteSet};
    use proptest::prelude::*;

    /// The byte-at-a-time form of [`count_byte`].
    fn count_byte_scalar(b: u8, hay: &[u8]) -> usize {
        hay.iter().filter(|&&h| h == b).count()
    }

    /// The byte-at-a-time form of [`nth_byte`].
    fn nth_byte_scalar(b: u8, hay: &[u8], n: usize) -> Option<usize> {
        hay.iter()
            .enumerate()
            .filter(|&(_, &h)| h == b)
            .nth(n)
            .map(|(i, _)| i)
    }

    /// Bytes for the mask tests: the sign bit set and clear, NUL, and
    /// neighbours that differ in one bit.
    const MASK_BYTES: &[u8] = b" ,.aA\t\n\x00\x7f\x80\xfe\xff";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn byte_masks_match_their_scalar_twins(
            window in proptest::collection::vec(0usize..MASK_BYTES.len(), 0..65),
            set in proptest::collection::vec(0usize..MASK_BYTES.len(), 1..5),
        ) {
            let window: Vec<u8> = window.into_iter().map(|i| MASK_BYTES[i]).collect();
            let set: Vec<u8> = set.into_iter().map(|i| MASK_BYTES[i]).collect();
            let bytes = ByteSet::new(&set).expect("one to four bytes");
            prop_assert_eq!(bytes.mask(&window), bytes.mask_scalar(&window), "{:?} in {:?}", set, window);
        }

        #[test]
        fn byte_counts_match_their_scalar_twins(
            hay in proptest::collection::vec(0usize..MASK_BYTES.len(), 0..300),
            b in 0usize..MASK_BYTES.len(),
            from in 0usize..64,
            n in 0usize..300,
        ) {
            let hay: Vec<u8> = hay.into_iter().map(|i| MASK_BYTES[i]).collect();
            let hay = &hay[from.min(hay.len())..];
            let b = MASK_BYTES[b];
            prop_assert_eq!(count_byte(b, hay), count_byte_scalar(b, hay));
            prop_assert_eq!(nth_byte(b, hay, n), nth_byte_scalar(b, hay, n));
        }
    }

    #[test]
    fn counts_match_at_every_length_offset_and_byte_value() {
        // Every byte value appears in `base`, twice over, so a slice
        // holds hits and misses of many values. Each byte value is
        // counted at every length from its own offset, and the mask
        // bytes at every length from every offset in a window.
        let base: Vec<u8> = (0..512).map(|i| (i * 167 + i / 256) as u8).collect();
        let check = |b: u8, hay: &[u8]| {
            let want = count_byte_scalar(b, hay);
            assert_eq!(count_byte(b, hay), want, "{b} in {hay:?}");
            for n in [0, want / 2, want.saturating_sub(1), want] {
                assert_eq!(nth_byte(b, hay, n), nth_byte_scalar(b, hay, n));
            }
        };
        for len in 0..=130 {
            for b in 0..=255u8 {
                check(b, &base[b as usize..b as usize + len]);
            }
            for from in 0..64 {
                for &b in MASK_BYTES {
                    check(b, &base[from..from + len]);
                }
            }
        }
        // Every byte a hit, over more windows than a byte counter
        // holds (255) and across the runs it is summed in.
        for len in [255 * 64 - 1, 255 * 64, 255 * 64 + 1, 3 * 255 * 64 + 77] {
            let hay = vec![0xffu8; len];
            assert_eq!(count_byte(0xff, &hay), len, "{len} hits");
            assert_eq!(nth_byte(0xff, &hay, len - 1), Some(len - 1));
        }
        // A hit at every position of every length, among its
        // neighbouring byte value.
        for b in [b'\n', 0, 0x7f, 0xff] {
            for len in 1..=130 {
                let mut hay = vec![b ^ 1; len];
                for at in 0..len {
                    hay[at] = b;
                    assert_eq!(count_byte(b, &hay), 1, "{b} at {at} of {len}");
                    assert_eq!(nth_byte(b, &hay, 0), Some(at));
                    assert_eq!(count_byte(b ^ 1, &hay), len - 1);
                    hay[at] = b ^ 1;
                }
            }
        }
    }

    #[test]
    fn masks_find_a_byte_at_every_offset() {
        let set = ByteSet::new(b",\xff").expect("two bytes");
        for len in 0..=64 {
            let plain = vec![b'x'; len];
            assert_eq!(set.mask(&plain), 0);
            for at in 0..len {
                let mut window = plain.clone();
                window[at] = b',';
                assert_eq!(set.mask(&window), 1 << at, "len {len} at {at}");
                window[at] = b'\xff';
                assert_eq!(set.mask(&window), 1 << at, "len {len} at {at}");
            }
            assert_eq!(set.mask(&vec![b','; len]), low_bits(len));
        }
        assert_eq!(ByteSet::new(b""), None);
        assert_eq!(ByteSet::new(b"abcde"), None);
    }
}
