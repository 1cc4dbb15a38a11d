//! The tagged-block stream format behind `r_split` (order-aware
//! round-robin distribution).
//!
//! A framed stream is a sequence of records:
//!
//! ```text
//! +------+----------------+----------------+---------------+
//! | \x01RSB | tag: u64 LE | len: u32 LE    | payload (len) |
//! +------+----------------+----------------+---------------+
//! ```
//!
//! Tags are assigned by the splitter in input order (0, 1, 2, …) and
//! travel with the block through any number of stateless stages; the
//! reordering aggregator (`pash-agg-reorder`) strips the frames and
//! writes payloads back in tag order. The 4-byte magic guards against
//! a raw stream being fed to a frame consumer (or vice versa): the
//! first byte is `\x01`, which never starts a text line produced by
//! the supported commands.
//!
//! Frames have two carriers, behind one source/sink pair: a node reads
//! them with [`Source::next_frame_into`] and writes them with
//! [`Sink::send_frame`] or [`Sink::put_frame`]. On a byte edge — a
//! FIFO under `processes` and `shell`, a byte ring, a file, the wire —
//! that is [`FrameReader`] and [`write_frame`] over the encoding above.
//! On an in-process edge between two framed nodes of a `threads` region
//! it is a [`crate::pipe::frame_queue`]: the same frame, its buffer
//! moved instead of its bytes copied. The splitter's deal, the framed
//! worker loop ([`run_framed`]) and the reorder aggregators are written
//! once, over the pair.

use std::io::{self, BufRead, Read, Write};

use pash_core::plan::fold_statuses;

use crate::edge::{not_bytes, Sink, Source};
use crate::wire::{read_header, truncated};

/// Frame magic: `\x01RSB` ("round-robin split block").
pub const MAGIC: [u8; 4] = [0x01, b'R', b'S', b'B'];
/// Fixed header length: magic + u64 tag + u32 payload length.
pub const HEADER_LEN: usize = 16;
/// Largest payload a reader accepts (256 MiB). Splitters deal blocks
/// orders of magnitude smaller; a length beyond this is corruption,
/// and rejecting it up front keeps a flipped length bit from turning
/// into a giant allocation.
pub const MAX_FRAME_LEN: usize = 1 << 28;
/// Largest tag a reader accepts. Tags count blocks from zero, so a
/// tag needing more than 48 bits means the header bytes were damaged
/// (e.g. a corrupted stream where the magic happened to survive).
pub const MAX_FRAME_TAG: u64 = 1 << 48;

/// Writes one frame. A broken pipe is reported as such (callers that
/// tolerate early-exiting consumers map it to "abandoned").
pub fn write_frame(out: &mut dyn Write, tag: u64, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4..12].copy_from_slice(&tag.to_le_bytes());
    header[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    out.write_all(&header)?;
    out.write_all(payload)
}

/// Reads frames off a byte stream.
pub struct FrameReader<R> {
    inner: R,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a reader.
    pub fn new(inner: R) -> Self {
        FrameReader { inner }
    }

    /// Reads the next frame, `None` at a clean end-of-stream. A
    /// truncated header or payload, or a bad magic, is an
    /// `InvalidData` error — silent tail loss would corrupt the
    /// reordered output undetectably.
    pub fn next_frame(&mut self) -> io::Result<Option<(u64, Vec<u8>)>> {
        let mut payload = Vec::new();
        Ok(self
            .next_frame_into(&mut payload)?
            .map(|tag| (tag, payload)))
    }

    /// [`FrameReader::next_frame`] into a caller-owned buffer: the
    /// payload replaces `payload`'s contents and the tag is returned.
    /// A loop over frames reuses one allocation instead of a fresh
    /// zero-filled `Vec` per block.
    pub fn next_frame_into(&mut self, payload: &mut Vec<u8>) -> io::Result<Option<u64>> {
        let mut header = [0u8; HEADER_LEN];
        if !read_header(&mut self.inner, &mut header).map_err(|e| truncated(e, "frame header"))? {
            return Ok(None);
        }
        if header[..4] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad frame magic (raw bytes on a framed stream?)",
            ));
        }
        let tag = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        if tag > MAX_FRAME_TAG {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame tag {tag} out of range (corrupted header?)"),
            ));
        }
        let len = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} out of range (corrupted header?)"),
            ));
        }
        // No `clear` first: a reused buffer is zero-filled only where
        // it grows past the longest payload it has held.
        payload.resize(len, 0);
        self.inner
            .read_exact(payload)
            .map_err(|e| truncated(e, "frame payload"))?;
        Ok(Some(tag))
    }
}

impl Source<'_> {
    /// The next frame off this source: its payload replaces
    /// `payload`'s contents and its tag is returned; `None` at a clean
    /// end of stream. On bytes this is [`FrameReader::next_frame_into`];
    /// on a frame queue the frame's buffer is swapped in and the old
    /// one goes back to the writer.
    pub fn next_frame_into(&mut self, payload: &mut Vec<u8>) -> io::Result<Option<u64>> {
        match self {
            Source::Bytes(r) => FrameReader::new(r).next_frame_into(payload),
            Source::Frames(q) => q.recv(payload),
            Source::File(_) => Err(not_bytes()),
        }
    }
}

impl Sink<'_> {
    /// Sends the frame built in `frame` under `tag` and leaves `frame`
    /// empty for the next one: encoded on bytes, handed over whole on a
    /// frame queue.
    pub fn send_frame(&mut self, tag: u64, frame: &mut Vec<u8>) -> io::Result<()> {
        match self {
            Sink::Bytes(w) => {
                write_frame(w, tag, frame)?;
                frame.clear();
                Ok(())
            }
            Sink::Frames(q) => q.send(tag, frame),
            Sink::File(_) => Err(not_bytes()),
        }
    }

    /// Sends a frame of a copy of `payload` under `tag`.
    pub fn put_frame(&mut self, tag: u64, payload: &[u8]) -> io::Result<()> {
        match self {
            Sink::Bytes(w) => write_frame(w, tag, payload),
            Sink::Frames(q) => q.send_copy(tag, payload),
            Sink::File(_) => Err(not_bytes()),
        }
    }

    /// Flushes a byte sink; a frame queue holds nothing back.
    pub fn flush(&mut self) -> io::Result<()> {
        match self {
            Sink::Bytes(w) => w.flush(),
            Sink::Frames(_) | Sink::File(_) => Ok(()),
        }
    }
}

/// The framed-worker loop (`PlanOp::Exec { framed: true }`, the
/// `--framed` mode of the multi-call binaries): `run` executes the
/// command once per tagged block of `input`, and its output goes to
/// `out` as one block under the same tag, so order survives to the
/// downstream `pash-agg-reorder`. The status folds the per-block
/// statuses exactly like the region-level fold (so e.g. `grep` reports
/// a miss only if every block missed).
///
/// `run` reads a block in place — the payload buffer is its stdin —
/// and writes the block it makes straight into the buffer that is
/// sent; on bytes both buffers are reused from frame to frame, on a
/// frame queue they circulate between the nodes.
pub fn run_framed(
    mut input: Source<'_>,
    out: &mut Sink<'_>,
    mut run: impl FnMut(&mut dyn BufRead, &mut Vec<u8>) -> io::Result<i32>,
) -> io::Result<i32> {
    let mut payload = Vec::new();
    let mut produced = Vec::new();
    let mut statuses = Vec::new();
    while let Some(tag) = input.next_frame_into(&mut payload)? {
        statuses.push(run(&mut payload.as_slice(), &mut produced)?);
        out.send_frame(tag, &mut produced)?;
    }
    if statuses.is_empty() {
        // No blocks reached this worker: run once on empty input for
        // the status, emit nothing.
        statuses.push(run(&mut io::empty(), &mut produced)?);
    }
    out.flush()?;
    Ok(fold_statuses(&statuses))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_tags_and_payloads() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0, b"alpha\n").expect("write");
        write_frame(&mut buf, 7, b"").expect("write");
        write_frame(&mut buf, 2, b"beta\ngamma\n").expect("write");
        let mut r = FrameReader::new(io::Cursor::new(buf));
        assert_eq!(
            r.next_frame().expect("frame"),
            Some((0, b"alpha\n".to_vec()))
        );
        assert_eq!(r.next_frame().expect("frame"), Some((7, Vec::new())));
        assert_eq!(
            r.next_frame().expect("frame"),
            Some((2, b"beta\ngamma\n".to_vec()))
        );
        assert_eq!(r.next_frame().expect("eof"), None);
    }

    /// Hands out its bytes one at a time, reporting an interrupted
    /// call before each — what a socket with a read timeout does when
    /// a signal arrives.
    struct Interrupted(io::Cursor<Vec<u8>>, bool);

    impl Read for Interrupted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.1 = !self.1;
            if self.1 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn interrupted_reads_are_retried_not_reported() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 9, b"payload\n").expect("write");
        let mut r = FrameReader::new(Interrupted(io::Cursor::new(buf.clone()), false));
        assert_eq!(
            r.next_frame().expect("frame"),
            Some((9, b"payload\n".to_vec()))
        );
        assert_eq!(r.next_frame().expect("eof"), None);
        // A stream that ends inside a header is still an error.
        buf.truncate(HEADER_LEN - 3);
        let mut r = FrameReader::new(Interrupted(io::Cursor::new(buf), false));
        let e = r.next_frame().expect_err("truncated");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("truncated frame header"), "{e}");
    }

    #[test]
    fn one_buffer_serves_every_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, b"a long first payload\n").expect("write");
        write_frame(&mut buf, 4, b"short\n").expect("write");
        write_frame(&mut buf, 5, b"").expect("write");
        let mut r = FrameReader::new(io::Cursor::new(buf));
        let mut payload = b"stale bytes from the caller".to_vec();
        assert_eq!(r.next_frame_into(&mut payload).expect("frame"), Some(3));
        assert_eq!(payload, b"a long first payload\n");
        let held = payload.capacity();
        assert_eq!(r.next_frame_into(&mut payload).expect("frame"), Some(4));
        assert_eq!(payload, b"short\n");
        assert_eq!(r.next_frame_into(&mut payload).expect("frame"), Some(5));
        assert!(payload.is_empty());
        assert_eq!(
            payload.capacity(),
            held,
            "no reallocation for smaller frames"
        );
        assert_eq!(r.next_frame_into(&mut payload).expect("eof"), None);
    }

    /// A stand-in command for [`run_framed`]: upper-cases its block,
    /// status 1 when the block has no `x`.
    fn shout(stdin: &mut dyn BufRead, stdout: &mut Vec<u8>) -> io::Result<i32> {
        let mut block = Vec::new();
        stdin.read_to_end(&mut block)?;
        stdout.extend(block.to_ascii_uppercase());
        Ok(i32::from(!block.contains(&b'x')))
    }

    /// [`run_framed`] of [`shout`] over the byte form: the status and
    /// the encoded output.
    fn shout_bytes(input: Vec<u8>) -> io::Result<(i32, Vec<u8>)> {
        let mut out = Vec::new();
        let mut sink = Sink::Bytes(Box::new(&mut out));
        let status = run_framed(
            Source::Bytes(Box::new(io::Cursor::new(input))),
            &mut sink,
            shout,
        )?;
        drop(sink);
        Ok((status, out))
    }

    #[test]
    fn framed_worker_keeps_tags_and_folds_statuses() {
        let mut input = Vec::new();
        write_frame(&mut input, 1, b"x one\n").expect("write");
        write_frame(&mut input, 3, b"").expect("write");
        write_frame(&mut input, 5, b"three\n").expect("write");
        let (status, out) = shout_bytes(input).expect("run");
        // One block hit, so the fold reports success.
        assert_eq!(status, 0);
        let mut r = FrameReader::new(io::Cursor::new(out));
        assert_eq!(
            r.next_frame().expect("frame"),
            Some((1, b"X ONE\n".to_vec()))
        );
        assert_eq!(r.next_frame().expect("frame"), Some((3, Vec::new())));
        assert_eq!(
            r.next_frame().expect("frame"),
            Some((5, b"THREE\n".to_vec()))
        );
        assert_eq!(r.next_frame().expect("eof"), None);
    }

    #[test]
    fn framed_worker_moves_queued_frames_as_it_encodes_bytes() {
        // The same worker between two frame queues: the same tags,
        // payloads and status as over bytes.
        use crate::pipe::frame_queue;
        let (mut tx, rx, _) = frame_queue(true);
        for (tag, payload) in [(1, &b"x one\n"[..]), (3, b""), (5, b"three\n")] {
            tx.send_copy(tag, payload).expect("send");
        }
        drop(tx);
        let (out_tx, mut out_rx, _) = frame_queue(true);
        let mut sink = Sink::Frames(out_tx);
        let status = run_framed(Source::Frames(rx), &mut sink, shout).expect("run");
        drop(sink);
        assert_eq!(status, 0);
        let mut got = Vec::new();
        let mut payload = Vec::new();
        while let Some(tag) = out_rx.recv(&mut payload).expect("frame") {
            got.push((tag, payload.clone()));
        }
        let want = [
            (1, b"X ONE\n".to_vec()),
            (3, Vec::new()),
            (5, b"THREE\n".to_vec()),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn framed_worker_without_blocks_runs_once_for_the_status() {
        let (status, out) = shout_bytes(Vec::new()).expect("run");
        assert_eq!(status, 1);
        assert!(out.is_empty(), "no block in, no frame out");
        // A damaged stream is an error, not a short run.
        let err = shout_bytes(b"\x01RS".to_vec()).expect_err("truncated header");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_magic_is_invalid_data() {
        let mut r = FrameReader::new(io::Cursor::new(b"hello world, not a frame".to_vec()));
        let err = r.next_frame().expect_err("bad magic");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_is_invalid_data() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"full payload").expect("write");
        buf.truncate(buf.len() - 3);
        let mut r = FrameReader::new(io::Cursor::new(buf));
        let err = r.next_frame().expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut half_header = vec![0x01, b'R', b'S'];
        half_header.truncate(3);
        let mut r = FrameReader::new(io::Cursor::new(half_header));
        let err = r.next_frame().expect_err("truncated header");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Asserts the stream fails with `InvalidData` whose message
    /// contains `what`.
    fn expect_invalid(bytes: Vec<u8>, what: &str) {
        let mut r = FrameReader::new(io::Cursor::new(bytes));
        let err = r.next_frame().expect_err(what);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
        assert!(err.to_string().contains(what), "{what}: got {err}");
    }

    #[test]
    fn truncated_magic_is_classified() {
        // EOF two bytes into the magic: "truncated frame header".
        expect_invalid(MAGIC[..2].to_vec(), "truncated frame header");
    }

    #[test]
    fn truncated_length_word_is_classified() {
        // The magic and tag arrive, the length word does not.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&5u64.to_le_bytes());
        buf.extend_from_slice(&7u32.to_le_bytes()[..2]);
        expect_invalid(buf, "truncated frame header");
    }

    #[test]
    fn short_payload_at_eof_is_classified() {
        // A full header promising 8 bytes, only 3 delivered.
        let mut buf = Vec::new();
        write_frame(&mut buf, 0, b"12345678").expect("write");
        buf.truncate(HEADER_LEN + 3);
        expect_invalid(buf, "truncated frame payload");
    }

    #[test]
    fn tag_out_of_range_is_classified() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        expect_invalid(buf, "tag");
    }

    #[test]
    fn oversized_length_is_classified() {
        // A corrupted length word must be rejected before allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        expect_invalid(buf, "length");
    }
}
