//! Batched line scanning for the sort merge: the flat-buffer +
//! line-index technique from the splitter, adapted to streaming
//! readers.
//!
//! [`LineScanner`] refills a flat buffer in large reads and exposes
//! the whole lines it holds as one borrowed window ([`MergeInput`]),
//! so the merge consumes whole runs of lines at once.

use std::io::{self, Read};

use pash_coreutils::cmd::sort::MergeInput;
use pash_regex::memmem::memrchr;

/// Refill granularity (and initial buffer size).
const SCAN_CHUNK: usize = 64 * 1024;

/// A batched line reader over any byte stream.
///
/// Every line in the window ends in a newline: a final unterminated
/// line gets one at the end of the stream.
pub struct LineScanner<R> {
    src: R,
    buf: Vec<u8>,
    /// First unconsumed byte.
    start: usize,
    /// One past the last whole line's newline: the window's end.
    lines: usize,
    /// One past the last valid byte.
    end: usize,
    eof: bool,
}

impl<R: Read> LineScanner<R> {
    /// Wraps a reader.
    pub fn new(src: R) -> Self {
        LineScanner {
            src,
            buf: vec![0; SCAN_CHUNK],
            start: 0,
            lines: 0,
            end: 0,
            eof: false,
        }
    }
}

/// The sort merge borrows the scanner's window of whole lines.
impl<R: Read> MergeInput for LineScanner<R> {
    fn window(&self) -> &[u8] {
        &self.buf[self.start..self.lines]
    }

    fn consume(&mut self, n: usize) {
        assert!(n <= self.lines - self.start, "consumed past the window");
        self.start += n;
    }

    fn fill(&mut self) -> io::Result<()> {
        while self.start == self.lines && !self.eof {
            // Compact the partial line to the front (once, not per
            // read of a line that grows), then refill the tail in one
            // bulk read (growing for oversized lines).
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                (self.start, self.lines) = (0, 0);
            }
            if self.end == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            // Retry on EINTR like `read_until` did; a signal mid-read
            // must not abort the aggregation.
            let n = loop {
                match self.src.read(&mut self.buf[self.end..]) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            if n == 0 {
                self.eof = true;
                if self.end > 0 {
                    // The stream's last line had no newline; the read
                    // had room, so one fits.
                    self.buf[self.end] = b'\n';
                    self.end += 1;
                    self.lines = self.end;
                }
            } else {
                if let Some(i) = memrchr(b'\n', &self.buf[self.end..self.end + n]) {
                    self.lines = self.end + i + 1;
                }
                self.end += n;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Every line the scanner's windows hold, newlines stripped.
    fn drain<R: Read>(mut sc: LineScanner<R>) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        loop {
            sc.fill().expect("scan");
            let n = sc.window().len();
            let Some((b'\n', lines)) = sc.window().split_last() else {
                assert_eq!(n, 0, "a window of whole lines");
                return out;
            };
            out.extend(lines.split(|&b| b == b'\n').map(<[u8]>::to_vec));
            sc.consume(n);
        }
    }

    fn lines_of(data: &[u8]) -> Vec<Vec<u8>> {
        drain(LineScanner::new(Cursor::new(data.to_vec())))
    }

    #[test]
    fn splits_on_newlines() {
        assert_eq!(
            lines_of(b"a\nbb\nccc\n"),
            vec![b"a".to_vec(), b"bb".to_vec(), b"ccc".to_vec()]
        );
    }

    #[test]
    fn final_unterminated_line_delivered() {
        assert_eq!(lines_of(b"a\nb"), vec![b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(lines_of(b"").is_empty());
    }

    #[test]
    fn empty_lines_preserved() {
        assert_eq!(
            lines_of(b"\n\nx\n"),
            vec![Vec::new(), Vec::new(), b"x".to_vec()]
        );
    }

    #[test]
    fn lines_longer_than_the_buffer_grow_it() {
        let long = vec![b'q'; 3 * SCAN_CHUNK + 17];
        let mut data = long.clone();
        data.push(b'\n');
        data.extend_from_slice(b"tail\n");
        let got = lines_of(&data);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], long);
        assert_eq!(got[1], b"tail");
    }

    /// A reader that returns one byte per read call: the scanner must
    /// still assemble whole lines.
    struct Trickle(Vec<u8>, usize);
    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.1 >= self.0.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[self.1];
            self.1 += 1;
            Ok(1)
        }
    }

    #[test]
    fn trickled_input_assembles_lines() {
        let out = drain(LineScanner::new(Trickle(b"ab\ncd\n".to_vec(), 0)));
        assert_eq!(out, vec![b"ab".to_vec(), b"cd".to_vec()]);
    }
}
