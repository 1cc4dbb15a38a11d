//! Benchmark-specific commands (the paper's non-POSIX stages).
//!
//! These model the paper's use-case stages that are not POSIX/GNU
//! commands but become parallelizable through one-line annotations
//! (§6.4): a local-mirror `fetch` (for `curl`), an `unrle` decompressor
//! (for `gunzip`), `html-to-text` and `word-stem` (the JavaScript and
//! Python stages of the web-indexing pipeline), and `bigrams-aux` (the
//! optimized Bi-grams kernel with a custom aggregator).

use std::io;

use crate::args::scanned;
use crate::lines::{for_each_line, write_line};
use crate::{open_input, CmdIo, Command, ExitStatus};

/// `fetch [url…]` — reads each "URL" (a path in the local mirror) and
/// concatenates the contents, simulating `curl -s`.
///
/// Annotated stateless: under `xargs -n 1 fetch` each input line maps
/// to the referenced document.
pub struct Fetch;

impl Command for Fetch {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        // Strip URL schemes: the workload generator lays mirrors out as
        // plain paths.
        let mut urls: Vec<String> = args.iter().map(|a| strip_scheme(a)).collect();
        if urls.is_empty() {
            // Read URLs from stdin, one per line.
            let mut collected = Vec::new();
            for_each_line(io.stdin, |line| {
                collected.push(strip_scheme(&String::from_utf8_lossy(line)));
                Ok(true)
            })?;
            urls = collected;
        }
        for u in &urls {
            let mut r = io.fs.open_buffered(u)?;
            let mut buf = [0u8; 64 * 1024];
            loop {
                let n = io::Read::read(&mut r, &mut buf)?;
                if n == 0 {
                    break;
                }
                io.stdout.write_all(&buf[..n])?;
            }
        }
        Ok(0)
    }
}

fn strip_scheme(u: &str) -> String {
    for scheme in ["ftp://", "http://", "https://"] {
        if let Some(rest) = u.strip_prefix(scheme) {
            // Drop the host component.
            return match rest.split_once('/') {
                Some((_host, path)) => path.to_string(),
                None => rest.to_string(),
            };
        }
    }
    u.to_string()
}

/// `unrle` — decode the workload generator's line-level run-length
/// format: `N<TAB>text` expands to N copies of `text`.
///
/// Stands in for `gunzip` (no offline gzip implementation): a real
/// decompression stage, stateless per record.
pub struct Unrle;

impl Command for Unrle {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let files = scanned!(io, args, "unrle", |_, _| Ok(())).inputs();
        for f in files {
            let mut r = open_input(&io.fs, f, io.stdin)?;
            for_each_line(&mut r, |line| {
                match line.iter().position(|&b| b == b'\t') {
                    Some(tab) => {
                        let n: u64 = std::str::from_utf8(&line[..tab])
                            .ok()
                            .and_then(|s| s.parse().ok())
                            .unwrap_or(1);
                        for _ in 0..n {
                            write_line(io.stdout, &line[tab + 1..])?;
                        }
                    }
                    None => write_line(io.stdout, line)?,
                }
                Ok(true)
            })?;
        }
        Ok(0)
    }
}

/// Encodes the `unrle` format (used by tests and generators).
pub fn rle_encode(lines: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let mut j = i + 1;
        while j < lines.len() && lines[j] == lines[i] {
            j += 1;
        }
        out.extend_from_slice(format!("{}\t", j - i).as_bytes());
        out.extend_from_slice(&lines[i]);
        out.push(b'\n');
        i = j;
    }
    out
}

/// `html-to-text` — strip tags and decode basic entities.
///
/// Models the web-indexing pipeline's HTML extraction stage (the
/// costliest stage of §6.4). Stateless per line for the generator's
/// one-tag-per-line pages.
pub struct HtmlToText;

impl Command for HtmlToText {
    fn run(&self, _args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        for_each_line(io.stdin, |line| {
            let mut out: Vec<u8> = Vec::with_capacity(line.len());
            let mut in_tag = false;
            let mut i = 0;
            while i < line.len() {
                match line[i] {
                    b'<' => in_tag = true,
                    b'>' => in_tag = false,
                    b'&' if !in_tag => {
                        // Decode a small entity set.
                        let rest = &line[i..];
                        let (text, used) = decode_entity(rest);
                        out.extend_from_slice(text);
                        i += used;
                        continue;
                    }
                    b if !in_tag => out.push(b),
                    _ => {}
                }
                i += 1;
            }
            let trimmed: Vec<u8> = String::from_utf8_lossy(&out).trim().as_bytes().to_vec();
            if !trimmed.is_empty() {
                write_line(io.stdout, &trimmed)?;
            }
            Ok(true)
        })?;
        Ok(0)
    }
}

fn decode_entity(rest: &[u8]) -> (&'static [u8], usize) {
    const TABLE: [(&[u8], &[u8]); 5] = [
        (b"&amp;", b"&"),
        (b"&lt;", b"<"),
        (b"&gt;", b">"),
        (b"&quot;", b"\""),
        (b"&nbsp;", b" "),
    ];
    for (ent, text) in TABLE {
        if rest.starts_with(ent) {
            return (text, ent.len());
        }
    }
    (b"&", 1)
}

/// `word-stem` — a crude suffix-stripping stemmer, one word per line.
///
/// Models the Python stemming stage of §6.4; stateless.
pub struct WordStem;

impl Command for WordStem {
    fn run(&self, _args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        for_each_line(io.stdin, |line| {
            write_line(io.stdout, stem(line))?;
            Ok(true)
        })?;
        Ok(0)
    }
}

/// Strips common English suffixes (a Porter-stemmer sketch).
pub fn stem(word: &[u8]) -> &[u8] {
    const SUFFIXES: [&[u8]; 8] = [
        b"ational", b"ization", b"fulness", b"ing", b"edly", b"tion", b"ies", b"s",
    ];
    for s in SUFFIXES {
        if word.len() > s.len() + 2 && word.ends_with(s) {
            return &word[..word.len() - s.len()];
        }
    }
    word
}

/// `bigrams-aux` — emit adjacent word pairs from a one-word-per-line
/// stream, with boundary markers for the custom aggregator.
///
/// This is the §6.1 "Bi-grams-opt" kernel: a map command (class P)
/// whose aggregator stitches chunk boundaries back together. The first
/// and last words of the chunk are emitted as `\x01F\t<word>` and
/// `\x01L\t<word>` marker lines, which `bigram-agg` (in the runtime
/// crate) consumes.
pub struct BigramsAux;

impl Command for BigramsAux {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        // `--marked` is the map role: boundary markers are emitted for
        // the aggregator to stitch; the plain form is the sequential
        // command (no markers).
        let mut marked = false;
        scanned!(io, args, "bigrams-aux", |_, _| {
            marked = true;
            Ok(())
        });
        let mut prev: Option<Vec<u8>> = None;
        let mut first: Option<Vec<u8>> = None;
        for_each_line(io.stdin, |line| {
            if first.is_none() {
                first = Some(line.to_vec());
                if marked {
                    let mut marker = b"\x01F\t".to_vec();
                    marker.extend_from_slice(line);
                    write_line(io.stdout, &marker)?;
                }
            }
            if let Some(p) = &prev {
                let mut pair = p.clone();
                pair.push(b' ');
                pair.extend_from_slice(line);
                write_line(io.stdout, &pair)?;
            }
            prev = Some(line.to_vec());
            Ok(true)
        })?;
        if marked {
            if let Some(p) = &prev {
                let mut marker = b"\x01L\t".to_vec();
                marker.extend_from_slice(p);
                write_line(io.stdout, &marker)?;
            }
        }
        Ok(0)
    }
}

/// `awk-reorder` — prints the second field followed by the whole
/// line, mimicking the Unix50 solutions' `awk "{print \$2, \$0}"`.
///
/// Deliberately *not* annotated: it models the general `awk` stages
/// PaSh cannot parallelize (§6.2's no-speedup group); the front-end
/// treats it conservatively.
pub struct AwkReorder;

impl Command for AwkReorder {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let files = scanned!(io, args, "awk-reorder", |_, _| Ok(())).inputs();
        for f in files {
            let mut r = open_input(&io.fs, f, io.stdin)?;
            for_each_line(&mut r, |line| {
                let fields = crate::lines::split_whitespace(line);
                let mut out: Vec<u8> = Vec::with_capacity(line.len() + 8);
                if let Some(second) = fields.get(1) {
                    out.extend_from_slice(second);
                    out.push(b' ');
                }
                out.extend_from_slice(line);
                write_line(io.stdout, &out)?;
                Ok(true)
            })?;
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;
    use crate::{run_command, Registry};
    use std::sync::Arc;

    fn run(argv: &[&str], input: &str) -> String {
        let fs = Arc::new(MemFs::new());
        fs.add("mirror/2015/f1", b"doc-one\n".to_vec());
        fs.add("mirror/2015/f2", b"doc-two\n".to_vec());
        let out = run_command(&Registry::standard(), fs, argv, input.as_bytes()).expect("run");
        String::from_utf8(out.stdout).expect("utf8")
    }

    #[test]
    fn fetch_args() {
        assert_eq!(run(&["fetch", "mirror/2015/f1"], ""), "doc-one\n");
    }

    #[test]
    fn fetch_strips_scheme() {
        assert_eq!(
            run(&["fetch", "ftp://host.example/mirror/2015/f2"], ""),
            "doc-two\n"
        );
    }

    #[test]
    fn fetch_from_stdin() {
        assert_eq!(
            run(&["fetch"], "mirror/2015/f1\nmirror/2015/f2\n"),
            "doc-one\ndoc-two\n"
        );
    }

    #[test]
    fn unrle_expands() {
        assert_eq!(run(&["unrle"], "3\tx\n1\ty\n"), "x\nx\nx\ny\n");
    }

    #[test]
    fn unrle_passthrough_without_tab() {
        assert_eq!(run(&["unrle"], "plain\n"), "plain\n");
    }

    #[test]
    fn rle_roundtrip() {
        let lines: Vec<Vec<u8>> = ["a", "a", "b", "a"]
            .iter()
            .map(|s| s.as_bytes().to_vec())
            .collect();
        let enc = rle_encode(&lines);
        let out = run(&["unrle"], std::str::from_utf8(&enc).expect("utf8"));
        assert_eq!(out, "a\na\nb\na\n");
    }

    #[test]
    fn html_to_text_strips_tags() {
        assert_eq!(
            run(
                &["html-to-text"],
                "<p>Hello <b>world</b></p>\n<div></div>\n"
            ),
            "Hello world\n"
        );
    }

    #[test]
    fn html_entities_decoded() {
        assert_eq!(
            run(&["html-to-text"], "a &amp; b &lt;c&gt;\n"),
            "a & b <c>\n"
        );
    }

    #[test]
    fn word_stem_strips_suffixes() {
        assert_eq!(
            run(&["word-stem"], "running\ncats\ntables\n"),
            "runn\ncat\ntable\n"
        );
    }

    #[test]
    fn bigrams_aux_plain_pairs() {
        let out = run(&["bigrams-aux"], "a\nb\nc\n");
        assert_eq!(out, "a b\nb c\n");
    }

    #[test]
    fn bigrams_aux_marked_pairs() {
        let out = run(&["bigrams-aux", "--marked"], "a\nb\nc\n");
        assert_eq!(out, "\u{1}F\ta\na b\nb c\n\u{1}L\tc\n");
    }

    #[test]
    fn awk_reorder_prepends_second_field() {
        assert_eq!(run(&["awk-reorder"], "a b c\nx\n"), "b a b c\nx\n");
    }

    #[test]
    fn bigrams_aux_empty() {
        assert_eq!(run(&["bigrams-aux"], ""), "");
    }
}
