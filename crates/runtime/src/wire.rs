//! The length-prefixed wire discipline shared by every socket codec in
//! the runtime: `pashd` requests and responses ([`crate::service`]),
//! `pash-worker` requests ([`crate::remote`]), and the payloads inside
//! a worker's tagged result frames ([`crate::edge`]).
//!
//! Integers are little-endian; byte strings and UTF-8 strings carry a
//! `u32` length prefix; a frame is a `u32` length plus that many
//! payload bytes, capped at [`MAX_FRAME`]. Decoding goes through
//! [`Cursor`], which bounds-checks every read, so a truncated or
//! inflated field is an `InvalidData` error and never a panic or an
//! attacker-sized allocation.

use std::io::{self, Read, Write};

/// Largest frame either side accepts (64 MiB). Scripts, configs, and
/// benchmark corpora are far smaller; a length beyond this is a
/// protocol error or corruption, rejected before allocation.
pub const MAX_FRAME: usize = 64 << 20;

pub(crate) fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

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

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A cursor over a decoded frame.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes left in the frame (bounds untrusted element counts).
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(bad_data("truncated frame".to_string()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Everything left in the frame (for a trailing field that carries
    /// no length prefix of its own).
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    pub(crate) fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A length-prefixed byte string, borrowed from the frame.
    pub(crate) fn slice(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME {
            return Err(bad_data(format!("field length {len} out of range")));
        }
        self.take(len)
    }

    pub(crate) fn bytes(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.slice()?.to_vec())
    }

    pub(crate) fn string(&mut self) -> io::Result<String> {
        String::from_utf8(self.bytes()?).map_err(|_| bad_data("non-UTF-8 string".to_string()))
    }

    pub(crate) fn done(&self) -> io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(bad_data("trailing bytes in frame".to_string()));
        }
        Ok(())
    }
}

/// Writes one length-prefixed frame.
pub(crate) fn write_frame(w: &mut dyn Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
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

/// Reads one length-prefixed frame; `None` at clean end-of-stream.
pub(crate) fn read_frame(r: &mut dyn Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    if !read_header(r, &mut len).map_err(|e| truncated(e, "frame length"))? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(bad_data(format!("frame length {len} out of range")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}
