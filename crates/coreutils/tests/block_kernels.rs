//! The block-at-a-time kernels (`cut`, `tr`, `uniq`, `wc`) against
//! naive per-line references, over readers that hand out their input
//! in arbitrary pieces.
//!
//! Three runs must agree for every input: the kernel over a reader
//! that yields chunks of arbitrary sizes (lines, squeeze runs and
//! `uniq` groups straddle the edges), the kernel over one chunk, and a
//! reference that works on an owned `Vec<Vec<u8>>` of lines (or, for
//! `tr`, byte by byte) and shares no code with the kernels. The
//! position-mask kernels of `tr -d`/`-s` and `cut -f` are held to the
//! references with a deleted byte, a squeeze run or a delimiter at
//! every offset of a 64-byte window and across the 64 KiB tile edge.
//! The streaming and early-exit tests pin what borrowing stdin
//! bought: a command produces output before its input ends, and stops
//! reading once it is satisfied.

use std::cell::Cell;
use std::io::{self, BufRead, Read, Write};
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use pash_coreutils::fs::MemFs;
use pash_coreutils::lines::BLOCK_SIZE;
use pash_coreutils::{CmdIo, Registry};
use proptest::prelude::*;

/// A reader that hands out its data in chunks of the given sizes
/// (cycled), like a pipe delivering whatever has arrived.
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    /// End of the chunk currently on offer.
    end: usize,
    sizes: Vec<usize>,
    fetched: usize,
    /// Called with the number of chunks already consumed, before the
    /// next one is handed out: where a test asserts what must have
    /// happened by then, or that no further chunk is wanted.
    on_fetch: Option<Box<dyn FnMut(usize)>>,
}

impl Chunked {
    fn new(data: &[u8], sizes: &[usize]) -> Chunked {
        Chunked {
            data: data.to_vec(),
            pos: 0,
            end: 0,
            sizes: sizes.to_vec(),
            fetched: 0,
            on_fetch: None,
        }
    }
}

impl BufRead for Chunked {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.end && self.pos < self.data.len() {
            if let Some(hook) = self.on_fetch.as_mut() {
                hook(self.fetched);
            }
            let size = self.sizes[self.fetched % self.sizes.len()].max(1);
            self.fetched += 1;
            self.end = (self.pos + size).min(self.data.len());
        }
        Ok(&self.data[self.pos..self.end])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
        assert!(self.pos <= self.end, "consumed past the chunk on offer");
    }
}

impl Read for Chunked {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let chunk = self.fill_buf()?;
        let n = chunk.len().min(out.len());
        out[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// Runs `argv` over `stdin`, writing to `stdout`; returns the status.
fn run_io(argv: &[&str], stdin: &mut dyn BufRead, stdout: &mut dyn Write) -> i32 {
    // Built once: the offset sweeps run commands tens of thousands of
    // times.
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    let registry = REGISTRY.get_or_init(Registry::standard);
    let cmd = registry.get(argv[0]).expect("command exists");
    let args: Vec<String> = argv[1..].iter().map(|s| s.to_string()).collect();
    let mut stderr = Vec::new();
    let mut io = CmdIo {
        stdin,
        stdout,
        stderr: &mut stderr,
        fs: Arc::new(MemFs::new()),
        registry,
    };
    cmd.run(&args, &mut io).expect("command runs")
}

fn run(argv: &[&str], stdin: &mut dyn BufRead) -> Vec<u8> {
    let mut out = Vec::new();
    run_io(argv, stdin, &mut out);
    out
}

/// Asserts chunked == whole == `reference` for one command line.
fn assert_three_ways(argv: &[&str], input: &[u8], sizes: &[usize], reference: Vec<u8>) {
    let whole = run(argv, &mut &input[..]);
    let chunked = run(argv, &mut Chunked::new(input, sizes));
    assert_eq!(
        String::from_utf8_lossy(&whole),
        String::from_utf8_lossy(&reference),
        "{argv:?}: one chunk vs reference"
    );
    assert_eq!(whole, reference, "{argv:?}: raw bytes");
    assert_eq!(chunked, whole, "{argv:?}: chunks {sizes:?} vs one chunk");
}

/// The lines of an input the way every line tool sees them: a final
/// unterminated line counts, nothing follows a final newline.
fn lines_of(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut lines: Vec<Vec<u8>> = bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
    if lines.last().is_some_and(Vec::is_empty) {
        lines.pop();
    }
    lines
}

fn unlines(lines: impl IntoIterator<Item = Vec<u8>>) -> Vec<u8> {
    let mut out = Vec::new();
    for l in lines {
        out.extend_from_slice(&l);
        out.push(b'\n');
    }
    out
}

/// Few symbols, so delimiters, squeezable runs, duplicate lines and
/// case variants are common; NUL and 0xff ride along.
const ALPHABET: &[u8] = b"  ,,.aAbB\t\x00\xff";

/// Mostly short lines; one in eight is longer than the small chunks.
fn line() -> impl Strategy<Value = Vec<u8>> {
    (
        0usize..8,
        proptest::collection::vec(0usize..ALPHABET.len(), 30..50),
    )
        .prop_map(|(pick, picks)| {
            let len = if pick == 0 {
                picks.len()
            } else {
                picks.len() % 7
            };
            picks[..len].iter().map(|&i| ALPHABET[i]).collect()
        })
}

/// Lines — some repeated, so `uniq` has groups — the last one
/// terminated or not.
fn input() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec((line(), 1usize..4), 0..12),
        0u8..2,
    )
        .prop_map(|(lines, terminated)| {
            let lines: Vec<Vec<u8>> = lines
                .into_iter()
                .flat_map(|(l, repeat)| std::iter::repeat_n(l, repeat))
                .collect();
            let mut bytes = lines.join(&b'\n');
            if terminated == 1 && !lines.is_empty() {
                bytes.push(b'\n');
            }
            bytes
        })
}

/// Chunk sizes from one byte up: with the 256-byte ceiling an input
/// often arrives whole.
fn sizes() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        proptest::collection::vec(1usize..9, 1..5),
        proptest::collection::vec(1usize..256, 1..3),
    ]
}

/// Membership of a 1-based index in a `cut` list, parsed here without
/// the kernel's parser: unsorted, overlapping and open ranges are all
/// just a set.
fn selected(list: &str, idx: usize) -> bool {
    list.split(',').any(|part| match part.split_once('-') {
        None => part.parse() == Ok(idx),
        Some((lo, hi)) => {
            lo.parse().map_or(true, |lo: usize| idx >= lo)
                && hi.parse().map_or(true, |hi: usize| idx <= hi)
        }
    })
}

const LISTS: [&str; 8] = [
    "1",
    "2-",
    "-2",
    "1-4",
    "3,1",
    "2-4,3-6,1",
    "4-,2",
    "2,2,5-5",
];

fn ref_cut_fields(input: &[u8], list: &str, delim: u8, suppress: bool) -> Vec<u8> {
    unlines(lines_of(input).into_iter().filter_map(|line| {
        if !line.contains(&delim) {
            return (!suppress).then_some(line);
        }
        let picked: Vec<&[u8]> = line
            .split(|&b| b == delim)
            .enumerate()
            .filter(|(i, _)| selected(list, i + 1))
            .map(|(_, f)| f)
            .collect();
        Some(picked.join(&delim))
    }))
}

fn ref_cut_bytes(input: &[u8], list: &str) -> Vec<u8> {
    unlines(lines_of(input).into_iter().map(|line| {
        line.iter()
            .enumerate()
            .filter(|(i, _)| selected(list, i + 1))
            .map(|(_, &b)| b)
            .collect()
    }))
}

/// A set of the forms the `tr` cases use: bytes, ranges, `\n` and
/// `\377`.
fn expand_set(spec: &str) -> Vec<u8> {
    let spec = spec.replace("\\n", "\n").replace("\\377", "\u{ff}");
    let s: Vec<u8> = spec.chars().map(|c| c as u8).collect();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(&lo) = s.get(i) {
        let range = s.get(i + 1) == Some(&b'-') && i + 2 < s.len();
        out.extend(lo..=if range { s[i + 2] } else { lo });
        i += if range { 3 } else { 1 };
    }
    out
}

/// `tr` one byte at a time, from the manual: delete members of SET1,
/// else translate SET1 to SET2 (SET2 padded with its last byte; under
/// `-c` every non-member maps to that byte), then squeeze repeats of
/// bytes in the last given set.
fn ref_tr(input: &[u8], complement: bool, delete: bool, squeeze: bool, sets: &[&str]) -> Vec<u8> {
    let set1 = expand_set(sets[0]);
    let set2 = sets.get(1).map(|s| expand_set(s));
    let in_set1 = |b: u8| set1.contains(&b) != complement;
    let squeeze_set: Vec<u8> = match (&set2, complement && !delete) {
        (Some(s2), _) => s2.clone(),
        (None, true) => (0..=255u8).filter(|&b| in_set1(b)).collect(),
        (None, false) => set1.clone(),
    };
    let mut out: Vec<u8> = Vec::new();
    let mut last: Option<u8> = None;
    for &b in input {
        if delete && in_set1(b) {
            continue;
        }
        let t = match &set2 {
            Some(s2) if !delete && in_set1(b) => {
                let at = if complement {
                    s2.len() - 1
                } else {
                    set1.iter().position(|&x| x == b).expect("member")
                };
                s2[at.min(s2.len() - 1)]
            }
            _ => b,
        };
        if squeeze && squeeze_set.contains(&t) && last == Some(t) {
            continue;
        }
        last = Some(t);
        out.push(t);
    }
    out
}

fn ref_uniq(input: &[u8], count: bool, dup: bool, uniq: bool, fold: bool) -> Vec<u8> {
    let mut groups: Vec<(Vec<u8>, u64)> = Vec::new();
    for line in lines_of(input) {
        match groups.last_mut() {
            Some((first, n)) if *first == line || (fold && first.eq_ignore_ascii_case(&line)) => {
                *n += 1
            }
            _ => groups.push((line, 1)),
        }
    }
    unlines(
        groups
            .into_iter()
            .filter(|(_, n)| if dup { *n > 1 } else { !uniq || *n == 1 })
            .map(|(line, n)| {
                let mut row = if count {
                    format!("{n:7} ").into_bytes()
                } else {
                    Vec::new()
                };
                row.extend_from_slice(&line);
                row
            }),
    )
}

fn ref_wc(input: &[u8], flags: &str) -> Vec<u8> {
    let lines = input.iter().filter(|&&b| b == b'\n').count();
    let words = input
        .split(|b| b.is_ascii_whitespace())
        .filter(|w| !w.is_empty())
        .count();
    let mut cols = Vec::new();
    for (flag, n) in [('l', lines), ('w', words), ('c', input.len())] {
        if flags.is_empty() || flags.contains(flag) {
            cols.push(n);
        }
    }
    // A lone count of a lone input is bare; several share a width.
    let row: Vec<String> = match cols.as_slice() {
        [n] => vec![n.to_string()],
        _ => cols.iter().map(|n| format!("{n:7}")).collect(),
    };
    format!("{}\n", row.join(" ")).into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cut_fields_matches_the_reference(
        input in input(), sizes in sizes(), list in 0usize..LISTS.len(),
        delim in 0usize..3, suppress in 0u8..2,
    ) {
        let suppress = suppress == 1;
        let list = LISTS[list];
        let delim = [" ", ",", "\t"][delim];
        let mut argv = vec!["cut", "-d", delim, "-f", list];
        if suppress {
            argv.push("-s");
        }
        let reference = ref_cut_fields(&input, list, delim.as_bytes()[0], suppress);
        assert_three_ways(&argv, &input, &sizes, reference);
    }

    #[test]
    fn cut_bytes_matches_the_reference(
        input in input(), sizes in sizes(), list in 0usize..LISTS.len(),
    ) {
        let list = LISTS[list];
        assert_three_ways(&["cut", "-c", list], &input, &sizes, ref_cut_bytes(&input, list));
    }

    #[test]
    fn tr_matches_the_reference(input in input(), sizes in sizes(), case in 0usize..9) {
        // (flags, sets): translate, `-d`, `-s`, `-ds`, `-cs`, `-cd`.
        let (flags, sets): (&str, &[&str]) = [
            ("", &["A-Z", "a-z"][..]),
            ("", &["ab,", "x"][..]),
            ("-d", &[",."][..]),
            ("-s", &[" "][..]),
            ("-s", &["a ", "b,"][..]),
            ("-ds", &[".", " ,"][..]),
            ("-cs", &["A-Za-z", "\\n"][..]),
            ("-cs", &["ab"][..]),
            ("-cd", &["a-b\\n"][..]),
        ][case];
        let mut argv = vec!["tr"];
        if !flags.is_empty() {
            argv.push(flags);
        }
        argv.extend(sets);
        let reference = ref_tr(
            &input, flags.contains('c'), flags.contains('d'), flags.contains('s'), sets,
        );
        assert_three_ways(&argv, &input, &sizes, reference);
    }

    #[test]
    fn uniq_matches_the_reference(input in input(), sizes in sizes(), flags in 0usize..16) {
        let (count, dup, uniq, fold) =
            (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0, flags & 8 != 0);
        let mut argv = vec!["uniq"];
        for (on, flag) in [(count, "-c"), (dup, "-d"), (uniq, "-u"), (fold, "-i")] {
            if on {
                argv.push(flag);
            }
        }
        assert_three_ways(&argv, &input, &sizes, ref_uniq(&input, count, dup, uniq, fold));
    }

    #[test]
    fn wc_matches_the_reference(input in input(), sizes in sizes(), flags in 0usize..6) {
        let flags = ["", "l", "w", "c", "lw", "lc"][flags];
        let argv: Vec<String> = std::iter::once("wc".to_string())
            .chain((!flags.is_empty()).then(|| format!("-{flags}")))
            .collect();
        let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
        assert_three_ways(&argv, &input, &sizes, ref_wc(&input, flags));
    }
}

/// `feature` after every filler length 0..=64 and, with `tile_edge`,
/// ending at, straddling and starting at the 64 KiB tile edge; each
/// input ends with a line that is not terminated.
fn placed(feature: &[u8], tile_edge: bool) -> Vec<Vec<u8>> {
    let n = feature.len();
    let edge = [
        BLOCK_SIZE - n,
        BLOCK_SIZE - n / 2 - 1,
        BLOCK_SIZE - 1,
        BLOCK_SIZE,
    ];
    (0..=64)
        .chain(edge.into_iter().filter(|_| tile_edge))
        .map(|len| {
            // Filler lines of 'x' words, so a long prefix has lines too.
            let mut input: Vec<u8> = (0..len)
                .map(|i| match i % 40 {
                    39 => b'\n',
                    13 | 26 => b'q',
                    _ => b'x',
                })
                .collect();
            input.extend_from_slice(feature);
            input.extend_from_slice(b"x y, z\nlast, line");
            input
        })
        .collect()
}

/// `tr`'s mask paths against the byte-by-byte reference, with the
/// byte they look for, in runs of 1 to 70, at every window offset and
/// across the tile edge.
#[test]
fn tr_matches_the_reference_at_every_offset() {
    // (flags, sets, what to place): `-d` by a two- and a four-byte
    // set, `-s` on the input, `-cs` after a table map and `-s` after a
    // range map.
    let tr_cases: [(&str, &[&str], u8); 5] = [
        ("-d", &[",."], b','),
        ("-d", &[",.\\n\\377"], b'.'),
        ("-s", &[" "], b' '),
        ("-cs", &["A-Za-z", "\\n"], b','),
        ("-s", &[" ", "_"], b' '),
    ];
    let sizes = [64, 7, 1000];
    for (flags, sets, byte) in tr_cases {
        let mut argv = vec!["tr"];
        if !flags.is_empty() {
            argv.push(flags);
        }
        argv.extend(sets);
        for run in 1..=70 {
            // The tile edge for the shortest and the longest runs.
            let tile_edge = [1, 64, 70].contains(&run);
            for input in placed(&vec![byte; run], tile_edge) {
                let reference = ref_tr(
                    &input,
                    flags.contains('c'),
                    flags.contains('d'),
                    flags.contains('s'),
                    sets,
                );
                assert_three_ways(&argv, &input, &sizes, reference);
            }
        }
    }
}

/// `cut -f`'s separator walk against the reference, with delimiters
/// and line ends at every window offset and across the tile edge.
#[test]
fn cut_fields_matches_the_reference_at_every_offset() {
    let sizes = [64, 7, 1000];
    for list in ["1", "2,4-", "-3", "1-4", "3-"] {
        for suppress in [false, true] {
            let mut argv = vec!["cut", "-d", " ", "-f", list];
            if suppress {
                argv.push("-s");
            }
            for feature in [&b" "[..], b"  ", b" a b ", b"\n", b"\n \n"] {
                for input in placed(feature, true) {
                    let reference = ref_cut_fields(&input, list, b' ', suppress);
                    assert_three_ways(&argv, &input, &sizes, reference);
                }
            }
        }
    }
}

/// A sink that shares its byte count with the reader feeding the
/// command, so the reader can see whether output has started.
struct CountingSink(Rc<Cell<usize>>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.set(self.0.get() + buf.len());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// 400 distinct lines in chunks of 64 bytes: dozens of chunks, each
/// holding whole lines for every command below to answer.
fn numbered_lines() -> Vec<u8> {
    (0..400)
        .flat_map(|i| format!("line {i} of the stream\n").into_bytes())
        .collect()
}

#[test]
fn commands_emit_output_before_their_stdin_ends() {
    const K: usize = 3;
    let data = numbered_lines();
    let commands: [&[&str]; 6] = [
        &["cut", "-d", " ", "-f", "2"],
        &["uniq", "-c"],
        // The block-scan path (a required literal) and the per-line path.
        &["grep", "stream"],
        &["grep", "[0-9]"],
        &["sed", "s/line/LINE/"],
        &["tr", "a-z", "A-Z"],
    ];
    for argv in commands {
        let written = Rc::new(Cell::new(0));
        let seen = written.clone();
        let mut stdin = Chunked::new(&data, &[64]);
        stdin.on_fetch = Some(Box::new(move |consumed| {
            if consumed >= K {
                assert!(
                    seen.get() > 0,
                    "{argv:?}: {consumed} chunks read and not a byte written"
                );
            }
        }));
        let status = run_io(argv, &mut stdin, &mut CountingSink(written.clone()));
        assert_eq!(status, 0, "{argv:?}");
        assert!(
            stdin.fetched > K,
            "{argv:?}: the input has more than {K} chunks"
        );
    }
}

#[test]
fn satisfied_commands_stop_reading_their_stdin() {
    // Every line is 8 bytes and every chunk 64: line N ends in chunk
    // N / 8, and one more chunk may already have been asked for.
    let data: Vec<u8> = (0..4000)
        .flat_map(|i| format!("{i:07}\n").into_bytes())
        .collect();
    let cases: [(&[&str], &[u8]); 5] = [
        (&["head", "-n", "3"], b"0000000\n0000001\n0000002\n"),
        (&["head", "-c", "20"], b"0000000\n0000001\n0000"),
        (&["grep", "-m", "2", "0"], b"0000000\n0000001\n"),
        (&["grep", "-m", "1", "[1]"], b"0000001\n"),
        (&["sed", "2q"], b"0000000\n0000001\n"),
    ];
    for (argv, expected) in cases {
        let mut stdin = Chunked::new(&data, &[64]);
        stdin.on_fetch = Some(Box::new(move |consumed| {
            assert!(consumed < 2, "{argv:?} asked for chunk {}", consumed + 1);
        }));
        let out = run(argv, &mut stdin);
        assert_eq!(out, expected, "{argv:?}");
        // What the command did not need is still there to be read.
        stdin.on_fetch = None;
        let mut rest = Vec::new();
        stdin.read_to_end(&mut rest).expect("read the rest");
        assert!(
            rest.len() > data.len() - 128,
            "{argv:?}: {} left",
            rest.len()
        );
    }
}

/// Side by side, the `-` operands take the stream's lines in turn, as
/// GNU's do.
#[test]
fn paste_dashes_take_the_stream_line_by_line() {
    let out = run(&["paste", "-", "-"], &mut &b"a\nb\nc\n"[..]);
    assert_eq!(out, b"a\tb\nc\t\n");
}
