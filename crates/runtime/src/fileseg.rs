//! Line-aligned file segmentation (the input-aware split of §5.2).
//!
//! Segment `i` of `k` covers the lines whose first byte falls in
//! `[⌊i·len/k⌋, ⌊(i+1)·len/k⌋)` after alignment to line boundaries.
//! The concatenation of all segments is exactly the file — the
//! invariant the stateless law depends on (property-tested below).

use std::io::{self, Read};
use std::sync::Arc;

use pash_coreutils::fs::Fs;

/// Computes the byte bounds of segment `part` of `of` over `data`.
pub fn segment_bounds(data: &[u8], part: usize, of: usize) -> (usize, usize) {
    let len = data.len();
    let of = of.max(1);
    let part = part.min(of - 1);
    (
        cut_point(data, part, of, len),
        cut_point(data, part + 1, of, len),
    )
}

/// The aligned cut point before segment `i`: the smallest index `>=
/// i*len/of` that starts a line.
fn cut_point(data: &[u8], i: usize, of: usize, len: usize) -> usize {
    if i == 0 {
        return 0;
    }
    if i >= of {
        return len;
    }
    let raw = len * i / of;
    let mut p = raw;
    while p < len && data[p.saturating_sub(1)] != b'\n' {
        p += 1;
    }
    p.min(len)
}

/// Bytes fetched per probe while hunting for the newline that aligns
/// a cut point. One probe almost always suffices: lines are far
/// shorter than this.
const PROBE_BYTES: u64 = 4096;

/// The aligned cut point before segment `i`, computed against the
/// filesystem without reading the whole file: probes
/// [`Fs::open_range`] windows forward from the raw offset until the
/// newline rule of [`cut_point`] resolves. Byte-for-byte equivalent
/// to `cut_point` over the full contents (property-tested below).
fn aligned_cut(fs: &dyn Fs, path: &str, len: u64, i: usize, of: usize) -> io::Result<u64> {
    if i == 0 {
        return Ok(0);
    }
    if i >= of {
        return Ok(len);
    }
    let raw = (len as u128 * i as u128 / of as u128) as u64;
    // Walk p forward exactly like cut_point: stop at the first p with
    // data[p.saturating_sub(1)] == '\n' (or at len). Bytes are pulled
    // through a probe window, so the cost is the distance to the next
    // newline, not the file size.
    let mut p = raw;
    let mut win: Vec<u8> = Vec::new();
    let mut win_start = 0u64;
    while p < len {
        let idx = p.saturating_sub(1);
        if idx < win_start || idx >= win_start + win.len() as u64 {
            win_start = idx;
            win.clear();
            fs.open_range(path, win_start, (win_start + PROBE_BYTES).min(len))?
                .read_to_end(&mut win)?;
            if win.is_empty() {
                return Ok(len.min(p));
            }
        }
        if win[(idx - win_start) as usize] == b'\n' {
            return Ok(p);
        }
        p += 1;
    }
    Ok(len)
}

/// Opens segment `part` of `of` of a file: a reader bounded to the
/// segment, for the consuming node to read at its own pace — no node,
/// no process, no copy stands between the file and its consumer.
///
/// Only the bytes near the two cut points are read here, and the
/// reader covers the segment's own O(len/of) slice — a k-wide stage
/// costs one file's worth of I/O in total, not k files' worth.
pub fn open_segment(
    fs: &dyn Fs,
    path: &str,
    part: usize,
    of: usize,
) -> io::Result<Box<dyn Read + Send>> {
    let len = fs.size(path)?;
    let of = of.max(1);
    let part = part.min(of - 1);
    let start = aligned_cut(fs, path, len, part, of)?;
    let end = aligned_cut(fs, path, len, part + 1, of)?;
    fs.open_range(path, start, end)
}

/// [`open_segment`], read to its end.
pub fn read_segment(fs: &Arc<dyn Fs>, path: &str, part: usize, of: usize) -> io::Result<Vec<u8>> {
    let mut data = Vec::new();
    open_segment(fs.as_ref(), path, part, of)?.read_to_end(&mut data)?;
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pash_coreutils::fs::{MemFs, RealFs};
    use proptest::prelude::*;

    fn segs(data: &[u8], k: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                let (s, e) = segment_bounds(data, i, k);
                data[s..e].to_vec()
            })
            .collect()
    }

    #[test]
    fn concatenation_identity() {
        let data = b"one\ntwo\nthree\nfour\nfive\n";
        for k in 1..=6 {
            let joined: Vec<u8> = segs(data, k).concat();
            assert_eq!(joined, data, "k = {k}");
        }
    }

    #[test]
    fn segments_end_on_line_boundaries() {
        let data = b"aaaa\nbb\ncccccc\ndddd\n";
        for k in 2..=4 {
            for (i, seg) in segs(data, k).iter().enumerate() {
                if !seg.is_empty() && i + 1 < k {
                    assert_eq!(*seg.last().expect("non-empty"), b'\n');
                }
            }
        }
    }

    #[test]
    fn empty_file() {
        assert_eq!(segs(b"", 4).concat(), b"");
    }

    #[test]
    fn single_long_line_goes_to_first_segment() {
        let data = b"one-single-very-long-line-without-newline";
        let parts = segs(data, 4);
        assert_eq!(parts[0], data.to_vec());
        assert!(parts[1..].iter().all(|p| p.is_empty()));
    }

    /// Runs `check` on `data` as the file `f` of an in-memory and of a
    /// host filesystem.
    fn on_both_fs(tag: &str, data: &[u8], check: impl Fn(&Arc<dyn Fs>)) {
        let mem = MemFs::new();
        mem.add("f", data.to_vec());
        check(&(Arc::new(mem) as Arc<dyn Fs>));
        let dir = std::env::temp_dir().join(format!("pash-fileseg-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("f"), data).expect("write");
        check(&(Arc::new(RealFs::new(&dir)) as Arc<dyn Fs>));
        std::fs::remove_dir_all(&dir).expect("rmdir");
    }

    /// Every segment reader yields exactly the in-memory bounds' slice,
    /// and the readers concatenate to the file.
    fn assert_segments_match(fs: &Arc<dyn Fs>, data: &[u8], k: usize) {
        let mut joined = Vec::new();
        for (part, expected) in segs(data, k).into_iter().enumerate() {
            let mut got = Vec::new();
            open_segment(fs.as_ref(), "f", part, k)
                .expect("open")
                .read_to_end(&mut got)
                .expect("read");
            assert_eq!(got, expected, "part {part}/{k} of {} bytes", data.len());
            assert_eq!(read_segment(fs, "f", part, k).expect("read_segment"), got);
            joined.extend_from_slice(&got);
        }
        assert_eq!(joined, data, "k = {k}");
    }

    #[test]
    fn segment_readers_match_in_memory_bounds_on_both_filesystems() {
        // The second cut of the last case lands inside a line whose
        // newline lies more than one probe window further on.
        let straddling = [b"short\n".to_vec(), vec![b'y'; 9000], b"\ntail\n".to_vec()].concat();
        let cases: [(&str, Vec<u8>); 5] = [
            ("empty", Vec::new()),
            ("one-unterminated-line", vec![b'x'; 10_000]),
            ("no-final-newline", b"a\nbb\nccc".to_vec()),
            ("fewer-lines-than-k", b"a\nb\n".to_vec()),
            ("line-across-probe-windows", straddling),
        ];
        for (tag, data) in &cases {
            on_both_fs(tag, data, |fs| {
                for k in 1..=8 {
                    assert_segments_match(fs, data, k);
                }
            });
        }
    }

    #[test]
    fn a_missing_file_is_an_error_not_an_empty_segment() {
        on_both_fs("missing", b"x\n", |fs| {
            assert!(open_segment(fs.as_ref(), "nope", 0, 2).is_err());
        });
    }

    proptest! {
        #[test]
        fn prop_concatenation_identity(
            lines in proptest::collection::vec("[a-z]{0,12}", 0..50),
            k in 1usize..10,
        ) {
            let data: Vec<u8> = lines
                .iter()
                .flat_map(|l| {
                    let mut v = l.as_bytes().to_vec();
                    v.push(b'\n');
                    v
                })
                .collect();
            let joined: Vec<u8> = segs(&data, k).concat();
            prop_assert_eq!(joined, data);
        }

        // The segment readers agree with the in-memory bounds for
        // every part, and their segments concatenate to exactly the
        // file — including inputs with long lines and no trailing
        // newline.
        #[test]
        fn prop_open_segment_matches_in_memory(
            lines in proptest::collection::vec("[a-z]{0,40}", 0..30),
            k in 1usize..9,
            trailing_newline in 0usize..2,
        ) {
            let mut data: Vec<u8> = lines
                .iter()
                .flat_map(|l| {
                    let mut v = l.as_bytes().to_vec();
                    v.push(b'\n');
                    v
                })
                .collect();
            if trailing_newline == 0 {
                data.pop();
            }
            on_both_fs("prop", &data, |fs| assert_segments_match(fs, &data, k));
        }

        #[test]
        fn prop_segments_are_monotone(
            lines in proptest::collection::vec("[a-z]{0,8}", 1..40),
            k in 1usize..8,
        ) {
            let data: Vec<u8> = lines
                .iter()
                .flat_map(|l| {
                    let mut v = l.as_bytes().to_vec();
                    v.push(b'\n');
                    v
                })
                .collect();
            let mut prev_end = 0;
            for i in 0..k {
                let (s, e) = segment_bounds(&data, i, k);
                prop_assert_eq!(s, prev_end);
                prop_assert!(e >= s);
                prev_end = e;
            }
            prop_assert_eq!(prev_end, data.len());
        }
    }
}
