//! Position masks over 64-byte windows: which bytes of a window belong
//! to a small set.
//!
//! A mask has one bit per position (bit `i` for `window[i]`), so a
//! kernel that wants the bytes of a class walks the set bits with
//! `trailing_zeros` instead of testing every byte, and copies the runs
//! between them whole. `tr -d`/`-s` and `cut -f` work this way.
//!
//! On x86_64 a mask costs four `pcmpeqb` per set byte and four
//! `pmovmskb`. SSE2 is part of the x86_64 baseline, so there is no
//! runtime detection. The scalar twin ([`ByteSet::mask_scalar`])
//! serves every other target and is the reference the vector form is
//! tested against. All `unsafe` of the crate lives in this module.

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
    //! The SSE2 form. The function enables `sse2`, which makes the
    //! intrinsics it calls safe; the caller's `unsafe` block says why
    //! the CPU has it.

    use std::arch::x86_64::{
        _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi8,
        _mm_setzero_si128,
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
}

#[cfg(test)]
mod tests {
    use super::{low_bits, ByteSet};
    use proptest::prelude::*;

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
