//! The length-prefixed wire discipline under the runtime's one socket
//! protocol ([`crate::service`]): what `pashd` and `pash-worker` read
//! and write, the region plans a worker executes included
//! ([`crate::remote`]).
//!
//! Integers are little-endian; byte strings and UTF-8 strings carry a
//! `u32` length prefix, so nothing is escaped; a frame is a `u32`
//! length plus that many payload bytes, capped at [`MAX_FRAME`] for
//! requests and replies alike.
//!
//! Frames are streamed, one codec each way:
//!
//! * [`encode_frame`] runs the caller's field list twice — once to
//!   size the frame, once to write it — so the length prefix goes out
//!   first and a frame over [`MAX_FRAME`] is refused before a byte is
//!   sent. Small fields are coalesced into one buffer (a small frame
//!   is one `write`); a byte string of [`DIRECT`] bytes or more is
//!   written from the caller's slice, never staged.
//! * [`decode_frame`] reads the header, then hands the caller a
//!   [`Decoder`] over exactly that many bytes: small fields come
//!   through a buffer that sits on a `Take` of the frame, so it never
//!   reads into the next frame on the connection, and each byte
//!   string is read straight into its final `Vec`. Every field length
//!   and element count is checked against the bytes the frame has
//!   left, so a truncated or inflated field is an `InvalidData` error
//!   — never a panic or an attacker-sized allocation — while an error
//!   from the stream itself (a torn frame's end, a read timeout) keeps
//!   its `io::ErrorKind`.

use std::io::{self, BufReader, Read, Take, Write};

/// Largest frame either side accepts (64 MiB). Scripts, configs, and
/// benchmark corpora are far smaller; a length beyond this is a
/// protocol error or corruption, rejected before allocation — and the
/// writer refuses to send one.
pub const MAX_FRAME: usize = 64 << 20;

/// Byte strings this long or longer go from the caller's slice to the
/// stream; shorter fields are copied into the coalescing buffer.
const DIRECT: usize = 8 << 10;

/// Capacity of the encoder's coalescing buffer and of the decoder's
/// small-field buffer.
const BUFFER: usize = 16 << 10;

pub(crate) fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The error a frame over [`MAX_FRAME`] is refused with.
#[derive(Debug)]
struct Oversized(usize);

impl std::fmt::Display for Oversized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
            self.0
        )
    }
}

impl std::error::Error for Oversized {}

/// Whether `e` is [`encode_frame`]'s refusal of an over-cap frame:
/// nothing was written, so the stream is still at a frame boundary.
pub(crate) fn is_oversized(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<Oversized>())
}

/// The field sink [`encode_frame`] hands its caller: counts bytes on
/// the sizing pass, writes them on the second. A write error is kept
/// and every later field skipped, so the field lists need no `?`.
pub(crate) struct Encoder<'w> {
    /// `None` on the sizing pass.
    sink: Option<&'w mut dyn Write>,
    buf: Vec<u8>,
    /// Payload bytes seen so far.
    len: usize,
    err: Option<io::Error>,
}

impl Encoder<'_> {
    /// Writes `b` to the sink, unless this is the sizing pass or a
    /// write has already failed.
    fn send(&mut self, b: &[u8]) {
        if let (Some(sink), None) = (self.sink.as_mut(), &self.err) {
            if let Err(e) = sink.write_all(b) {
                self.err = Some(e);
            }
        }
    }

    fn flush_buf(&mut self) {
        let mut buf = std::mem::take(&mut self.buf);
        self.send(&buf);
        buf.clear();
        self.buf = buf;
    }

    /// A small field, coalesced.
    fn put(&mut self, b: &[u8]) {
        self.len += b.len();
        if self.sink.is_some() {
            if self.buf.len() + b.len() > self.buf.capacity() {
                self.flush_buf();
            }
            self.buf.extend_from_slice(b);
        }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// A `u32` field; element counts and lengths are below
    /// [`MAX_FRAME`] in any frame that is sent, so they fit.
    pub(crate) fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// A length-prefixed byte string.
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        if b.len() < DIRECT {
            return self.put(b);
        }
        self.len += b.len();
        self.flush_buf();
        self.send(b);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// A counted list of files, path and contents each.
    pub(crate) fn files(&mut self, files: &[(String, Vec<u8>)]) {
        self.u32(files.len() as u32);
        for (path, bytes) in files {
            self.str(path);
            self.bytes(bytes);
        }
    }
}

/// Writes one frame whose payload is what `fields` puts. `fields` runs
/// twice and must put the same fields both times. A frame over
/// [`MAX_FRAME`] is refused ([`is_oversized`]) before anything is
/// written.
pub(crate) fn encode_frame(w: &mut dyn Write, fields: impl Fn(&mut Encoder<'_>)) -> io::Result<()> {
    let mut sizing = Encoder {
        sink: None,
        buf: Vec::new(),
        len: 0,
        err: None,
    };
    fields(&mut sizing);
    let len = sizing.len;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, Oversized(len)));
    }
    let mut buf = Vec::with_capacity((4 + len).min(BUFFER));
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    let mut e = Encoder {
        sink: Some(w),
        buf,
        len: 0,
        err: None,
    };
    fields(&mut e);
    e.flush_buf();
    if let Some(err) = e.err {
        return Err(err);
    }
    assert_eq!(e.len, len, "a frame's two encoding passes disagree");
    e.sink.expect("the writing pass has a sink").flush()
}

/// One frame's payload, read field by field.
pub(crate) struct Decoder<'r> {
    r: BufReader<Take<&'r mut dyn Read>>,
    /// Payload bytes not yet decoded.
    left: usize,
}

impl Decoder<'_> {
    /// Claims `n` more bytes of the frame.
    fn claim(&mut self, n: usize) -> io::Result<()> {
        if n > self.left {
            return Err(bad_data("truncated frame".to_string()));
        }
        self.left -= n;
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        self.claim(N)?;
        let mut b = [0u8; N];
        self.r.read_exact(&mut b)?;
        Ok(b)
    }

    pub(crate) fn u8(&mut self) -> io::Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn bool(&mut self) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(bad_data(format!("bad flag byte {other}"))),
        }
    }

    pub(crate) fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An element count, each element at least `min_len` bytes on the
    /// wire: a count the rest of the frame cannot hold is rejected
    /// before anything is allocated for it.
    pub(crate) fn count(&mut self, min_len: usize) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n > self.left / min_len {
            return Err(bad_data(format!("count {n} out of range")));
        }
        Ok(n)
    }

    /// A length-prefixed byte string, read into its own `Vec` once its
    /// length is known to fit the frame.
    pub(crate) fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let len = self.u32()? as usize;
        self.claim(len)?;
        let mut v = vec![0u8; len];
        self.r.read_exact(&mut v)?;
        Ok(v)
    }

    pub(crate) fn string(&mut self) -> io::Result<String> {
        String::from_utf8(self.bytes()?).map_err(|_| bad_data("non-UTF-8 string".to_string()))
    }

    /// What [`Encoder::files`] wrote.
    pub(crate) fn files(&mut self) -> io::Result<Vec<(String, Vec<u8>)>> {
        // Each file is at least its two length prefixes.
        let n = self.count(8)?;
        (0..n)
            .map(|_| Ok((self.string()?, self.bytes()?)))
            .collect()
    }
}

/// Reads one frame and decodes it with `fields`, which must consume
/// the whole payload; `None` at a clean end-of-stream.
pub(crate) fn decode_frame<T>(
    r: &mut dyn Read,
    fields: impl FnOnce(&mut Decoder<'_>) -> io::Result<T>,
) -> io::Result<Option<T>> {
    let mut len = [0u8; 4];
    if !read_header(r, &mut len).map_err(|e| truncated(e, "frame length"))? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(bad_data(format!("frame length {len} out of range")));
    }
    let mut d = Decoder {
        r: BufReader::with_capacity(len.min(BUFFER), r.take(len as u64)),
        left: len,
    };
    let value = fields(&mut d)?;
    if d.left != 0 {
        return Err(bad_data("trailing bytes in frame".to_string()));
    }
    Ok(Some(value))
}

/// Fills `header` from `r`: `Ok(false)` at a clean end-of-stream (not
/// a byte read), `UnexpectedEof` when the stream ends part-way. An
/// interrupted read is retried, as `read_exact` does — a socket with a
/// read timeout reports `EINTR` whatever the signal's disposition.
pub(crate) fn read_header(r: &mut dyn Read, header: &mut [u8]) -> io::Result<bool> {
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// [`read_header`]'s part-way end as the codec's own error.
pub(crate) fn truncated(e: io::Error, what: &str) -> io::Error {
    match e.kind() {
        io::ErrorKind::UnexpectedEof => bad_data(format!("truncated {what}")),
        _ => e,
    }
}

/// Raw frame builders for tests that need bytes no encoder writes
/// (inflated counts, fields that run past their frame, unknown tags),
/// and a sink that shows where the encoder's writes come from.
#[cfg(test)]
pub(crate) mod raw {
    use std::io::{self, Write};

    pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
        put_u32(out, b.len() as u32);
        out.extend_from_slice(b);
    }

    /// Writes `payload` behind its length prefix, whatever it holds.
    pub(crate) fn write_frame(w: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
        put_bytes(w, payload);
        Ok(())
    }

    /// Records where each write it is handed points, and the bytes.
    #[derive(Default)]
    pub(crate) struct Recorder {
        pub(crate) writes: Vec<(*const u8, usize)>,
        pub(crate) bytes: Vec<u8>,
    }

    impl Recorder {
        /// Whether `field` went out in one write from where it lies.
        pub(crate) fn wrote_in_place(&self, field: &[u8]) -> bool {
            self.writes.contains(&(field.as_ptr(), field.len()))
        }
    }

    impl Write for Recorder {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.writes.push((b.as_ptr(), b.len()));
            self.bytes.extend_from_slice(b);
            Ok(b.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::raw::Recorder;
    use super::*;

    #[test]
    fn an_over_cap_frame_is_refused_before_a_byte_is_written() {
        let big = vec![0u8; MAX_FRAME + 1];
        let mut sink = Recorder::default();
        let err = encode_frame(&mut sink, |e| {
            e.u8(1);
            e.bytes(&big);
        })
        .expect_err("over the cap");
        assert!(is_oversized(&err), "{err}");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.writes.is_empty() && sink.bytes.is_empty());
        // A frame at the cap exactly is sent.
        let at_cap = &big[..MAX_FRAME - 5];
        encode_frame(&mut sink, |e| {
            e.u8(1);
            e.bytes(at_cap);
        })
        .expect("at the cap");
        assert_eq!(sink.bytes.len(), 4 + MAX_FRAME);
    }

    #[test]
    fn large_byte_strings_are_written_from_the_callers_slice() {
        let payload = vec![7u8; DIRECT * 3];
        let mut sink = Recorder::default();
        encode_frame(&mut sink, |e| {
            e.str("small");
            e.bytes(&payload);
            e.u32(9);
        })
        .expect("encode");
        assert!(sink.wrote_in_place(&payload), "{:?}", sink.writes);
        // Header and the small fields before it went out as one write.
        assert_eq!(sink.writes[0].1, 4 + 4 + 5 + 4);
    }

    #[test]
    fn a_small_frame_is_one_write() {
        let mut sink = Recorder::default();
        encode_frame(&mut sink, |e| {
            e.u8(2);
            e.str("in.txt");
            e.bytes(&[1, 2, 3]);
            e.u64(u64::MAX);
        })
        .expect("encode");
        assert_eq!(sink.writes.len(), 1);
    }

    #[test]
    fn a_field_past_the_frame_is_invalid_data_before_it_is_read() {
        // The frame claims 1 MiB, its first field claims more than
        // that, and the stream ends after the field's length: the
        // decoder must refuse the length, not allocate and wait for
        // bytes that never come (which would be `UnexpectedEof`).
        let mut wire = Vec::new();
        raw::put_u32(&mut wire, 1 << 20);
        raw::put_u32(&mut wire, (1 << 20) + 1);
        let err = decode_frame(&mut io::Cursor::new(wire), |d| d.bytes())
            .expect_err("field past its frame");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn a_frame_decodes_no_byte_of_the_next() {
        let mut wire = Vec::new();
        for word in ["first", "second"] {
            encode_frame(&mut wire, |e| e.str(word)).expect("encode");
        }
        let mut r = io::Cursor::new(wire);
        for word in ["first", "second"] {
            let got = decode_frame(&mut r, |d| d.string()).expect("decode");
            assert_eq!(got.as_deref(), Some(word));
        }
        assert!(decode_frame(&mut r, |d| d.u8()).expect("eof").is_none());
    }

    #[test]
    fn stream_errors_keep_their_kind() {
        // A read timeout mid-frame reaches the caller as itself.
        struct TimesOut(io::Cursor<Vec<u8>>);
        impl Read for TimesOut {
            fn read(&mut self, b: &mut [u8]) -> io::Result<usize> {
                match self.0.read(b)? {
                    0 => Err(io::ErrorKind::WouldBlock.into()),
                    n => Ok(n),
                }
            }
        }
        let mut wire = Vec::new();
        encode_frame(&mut wire, |e| e.bytes(&[5; 64])).expect("encode");
        wire.truncate(40);
        let err = decode_frame(&mut TimesOut(io::Cursor::new(wire.clone())), |d| d.bytes())
            .expect_err("timed out");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        // A stream that ends mid-frame is an error, never a short
        // field.
        let err = decode_frame(&mut io::Cursor::new(wire), |d| d.bytes()).expect_err("torn");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
