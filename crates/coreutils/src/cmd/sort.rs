//! `sort` — sort or merge lines.
//!
//! Supports `-n`, `-r`, `-u`, `-k POS1[,POS2]`, `-t SEP`, `-m`
//! (merge pre-sorted inputs — the aggregation phase PaSh uses, spelled
//! `sort -m` on GNU systems, §5.2), and `--parallel=N` (an internal
//! threaded sort used as the §6.5 baseline).
//!
//! Every input is appended to one buffer; the sort moves an index of
//! line slices decorated with keys computed once per line
//! ([`SortSpec::prepare`]), and output is gathered into large writes.
//! `sort -m`, `--parallel` and the runtime's `pash-agg-sort` share one
//! streaming k-way [`merge`]; its counted mode ([`Records::Counted`],
//! `pash-agg-sort-c`) merges per-worker `sort | uniq -c` outputs by
//! their text and adds the counts of equal texts.

use std::cmp::Ordering;
use std::io::{self, BufWriter, Write};

use crate::lines::{add_counts, buffer_lines, parse_count_line, push_count};
use crate::sortkeys::{line_order, Keyed, Prepared, SortSpec};
use crate::{CmdIo, Command, ExitStatus};

/// The `sort` command (class P: map = sort, aggregate = merge).
pub struct Sort;

/// Parsed invocation.
pub struct SortArgs {
    /// Ordering specification.
    pub spec: SortSpec,
    /// `-m`: inputs are pre-sorted, merge only.
    pub merge: bool,
    /// `--parallel=N` thread count (1 = sequential).
    pub parallel: usize,
    /// Input files (empty = stdin).
    pub files: Vec<String>,
}

/// Parses sort arguments (shared with the runtime merge aggregator).
pub fn parse_args(args: &[String]) -> Result<SortArgs, String> {
    let mut out = SortArgs {
        spec: SortSpec::default(),
        merge: false,
        parallel: 1,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            s if s.starts_with("--parallel=") => {
                out.parallel = s["--parallel=".len()..]
                    .parse()
                    .map_err(|_| format!("bad --parallel in `{s}`"))?;
            }
            // `-k KEY` / `-kKEY`, `-t SEP` / `-tSEP`.
            s if s.starts_with("-k") || s.starts_with("-t") => {
                let (flag, attached) = s.split_at(2);
                let value = match attached {
                    "" => it.next().ok_or(format!("missing {flag} argument"))?,
                    attached => attached,
                };
                if flag == "-k" {
                    let key = SortSpec::parse_key(value);
                    out.spec.keys.push(key.ok_or(format!("bad key `{value}`"))?);
                } else {
                    out.spec.separator = value.as_bytes().first().copied();
                }
            }
            s if s.starts_with('-')
                && s.len() > 1
                && s[1..].chars().all(|c| "nrum".contains(c)) =>
            {
                for c in s[1..].chars() {
                    match c {
                        'n' => out.spec.numeric = true,
                        'r' => out.spec.reverse = true,
                        'u' => out.spec.unique = true,
                        'm' => out.merge = true,
                        _ => unreachable!("guard checked flag set"),
                    }
                }
            }
            other => out.files.push(other.to_string()),
        }
    }
    Ok(out)
}

impl Command for Sort {
    fn name(&self) -> &'static str {
        "sort"
    }

    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let parsed = match parse_args(args) {
            Ok(p) => p,
            Err(e) => return crate::usage_error(io, "sort", &e),
        };
        let spec = &parsed.spec;
        let (arena, ends) = read_inputs(io, &parsed.files)?;
        if parsed.merge {
            let mut start = 0;
            let runs = ends.iter().map(|&end| {
                let run = buffer_lines(&arena[start..end]);
                start = end;
                run
            });
            merge(spec, Records::Lines, runs.collect(), io.stdout)?;
        } else if spec.whole_line() {
            // Bare slices under the bare comparator, its direction
            // fixed here: the sort moves entries, and a third fewer
            // bytes per entry plus a comparison that inlines to a
            // `memcmp` is a third off.
            let keyed = |line| (Prepared::default(), line);
            if spec.reverse {
                let compare = |a: &&[u8], b: &&[u8]| line_order::<true>(a, b);
                sort_lines(&parsed, &arena, io.stdout, |line| line, keyed, compare)?;
            } else {
                let compare = |a: &&[u8], b: &&[u8]| line_order::<false>(a, b);
                sort_lines(&parsed, &arena, io.stdout, |line| line, keyed, compare)?;
            }
        } else {
            let entry = |line| (spec.prepare(line), line);
            let compare = |a: &Keyed<'_>, b: &Keyed<'_>| spec.compare_prepared(*a, *b);
            sort_lines(&parsed, &arena, io.stdout, entry, |e| e, compare)?;
        }
        Ok(0)
    }
}

/// Appends every input to one buffer, restoring a missing final
/// newline per file, and returns it with each file's end offset.
fn read_inputs(io: &mut CmdIo<'_>, files: &[String]) -> io::Result<(Vec<u8>, Vec<usize>)> {
    let stdin = ["-".to_string()];
    let files = if files.is_empty() { &stdin } else { files };
    let mut arena = Vec::new();
    let mut ends = Vec::with_capacity(files.len());
    for f in files {
        let before = arena.len();
        if f == "-" {
            io.stdin.read_to_end(&mut arena)?;
        } else {
            io.fs.open(f)?.read_to_end(&mut arena)?;
        }
        if arena.len() > before && arena.last() != Some(&b'\n') {
            arena.push(b'\n');
        }
        ends.push(arena.len());
    }
    Ok((arena, ends))
}

/// Most threads `--parallel=N` is honoured with (a failed spawn would
/// abort the sort).
const MAX_THREADS: usize = 64;

/// Sorts the lines of `arena` and writes them out: one index `entry`
/// per line (its key prepared once), a stable sort (ties keep input
/// order, which `-u` relies on), a gather. With `--parallel=N` the
/// index is sorted in that many chunks on scoped threads and the
/// chunks are merged — GNU `sort --parallel` for the §6.5
/// microbenchmark.
fn sort_lines<'a, E: Copy + Send>(
    SortArgs { spec, parallel, .. }: &SortArgs,
    arena: &'a [u8],
    out: &mut dyn Write,
    entry: impl Fn(&'a [u8]) -> E,
    keyed: impl Fn(E) -> Keyed<'a>,
    compare: impl Fn(&E, &E) -> Ordering + Copy + Send,
) -> io::Result<()> {
    let mut index: Vec<E> = Vec::with_capacity(pash_regex::memmem::count_bytes(b'\n', arena));
    index.extend(buffer_lines(arena).map(entry));
    let chunk = index
        .len()
        .div_ceil((*parallel).clamp(1, MAX_THREADS))
        .max(1);
    if chunk < index.len() {
        std::thread::scope(|scope| {
            for part in index.chunks_mut(chunk) {
                scope.spawn(move || part.sort_by(compare));
            }
        });
        let runs = index.chunks(chunk).map(|c| c.iter().map(|&e| keyed(e).1));
        return merge(spec, Records::Lines, runs.collect(), out);
    }
    index.sort_by(compare);
    let mut out = BufWriter::with_capacity(arena.len().min(CHUNK), out);
    let mut last: Option<Keyed<'_>> = None;
    for cur in index.into_iter().map(keyed) {
        if spec.unique {
            if last.is_some_and(|prev| spec.equal_prepared(prev, cur)) {
                continue;
            }
            last = Some(cur);
        }
        out.write_all(cur.1)?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// Output leaves through a `BufWriter` of this many bytes — two plain
/// copies per line (`lines::write_line`'s stack assembly would double
/// them) and one `write_all` per chunk, keeping the per-line cost off
/// the `dyn Write`.
const CHUNK: usize = 256 * 1024;

/// One pre-sorted input of a [`merge`].
pub trait LineSource {
    /// Replaces `buf` with the next line (terminator stripped);
    /// `false` at the end of the input.
    fn next_into(&mut self, buf: &mut Vec<u8>) -> io::Result<bool>;
}

/// Replaces `buf` with `line`, if there is one — what a
/// [`LineSource`] does with the line it found.
pub fn replace_line(buf: &mut Vec<u8>, line: Option<&[u8]>) -> bool {
    buf.clear();
    line.is_some_and(|line| {
        buf.extend_from_slice(line);
        true
    })
}

impl<'a, I: Iterator<Item = &'a [u8]>> LineSource for I {
    fn next_into(&mut self, buf: &mut Vec<u8>) -> io::Result<bool> {
        Ok(replace_line(buf, self.next()))
    }
}

/// What the lines of a [`merge`]'s inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Records {
    /// Lines, compared whole (`sort -m`, `pash-agg-sort`).
    Lines,
    /// `uniq -c` records (`count text`), ordered by their text: the
    /// per-worker output of `sort | uniq -c`. Records whose texts
    /// compare equal become one record with the sum of their counts,
    /// so the output is again in the input format.
    Counted,
}

/// The current head record of one merge input: its line, where the
/// compared text starts in it, its count, and the text's key, prepared
/// when the line is pulled (buffer reused across lines; `live ==
/// false` means the input is exhausted).
#[derive(Default)]
struct Head {
    buf: Vec<u8>,
    text: usize,
    count: u64,
    key: Prepared,
    live: bool,
}

impl Head {
    fn advance(
        &mut self,
        spec: &SortSpec,
        records: Records,
        src: &mut impl LineSource,
    ) -> io::Result<()> {
        self.live = src.next_into(&mut self.buf)?;
        if self.live {
            if records == Records::Counted {
                let (count, text) = parse_count_line(&self.buf)?;
                self.count = count;
                self.text = self.buf.len() - text.len();
            }
            self.key = spec.prepare(&self.buf[self.text..]);
        }
        Ok(())
    }

    fn keyed(&self) -> Keyed<'_> {
        (self.key, &self.buf[self.text..])
    }
}

/// The open group of a folding [`merge`]: the record the next
/// compare-equal winners fold into, written when a different one
/// arrives. It leaves as it came unless a fold changed its count.
#[derive(Default)]
struct Group {
    head: Head,
    recounted: bool,
}

impl Group {
    /// Folds `next` in when it compares equal: under `-u` the group
    /// keeps its first line, counted records add up.
    fn absorbs(&mut self, spec: &SortSpec, records: Records, next: &Head) -> io::Result<bool> {
        if !(self.head.live
            && spec
                .compare_prepared(self.head.keyed(), next.keyed())
                .is_eq())
        {
            return Ok(false);
        }
        if records == Records::Counted {
            self.head.count = add_counts(self.head.count, next.count)?;
            self.recounted = true;
        }
        Ok(true)
    }

    fn write(&self, out: &mut impl Write, prefix: &mut Vec<u8>) -> io::Result<()> {
        if !self.head.live {
            return Ok(());
        }
        if self.recounted {
            prefix.clear();
            push_count(prefix, self.head.count);
            out.write_all(prefix)?;
            out.write_all(self.head.keyed().1)?;
        } else {
            out.write_all(&self.head.buf)?;
        }
        out.write_all(b"\n")
    }
}

/// A loser tree (tournament tree) over `k` merge inputs.
///
/// Scanning all `k` heads per output line costs O(k) comparisons per
/// line, which dominates at high widths. A loser tree keeps the losers
/// of past matches in internal nodes, so after advancing the winning
/// stream only the path from its leaf to the root is replayed:
/// O(log k) comparisons per line.
///
/// Indices are stream ids; `EMPTY` marks a match slot not yet played.
struct LoserTree {
    /// `tree[1..k]` hold losers; `tree[0]` is unused. Leaf `i`'s
    /// parent is `(i + k) / 2`.
    tree: Vec<usize>,
    /// Current overall winner (a stream id, or `EMPTY` before build).
    winner: usize,
    k: usize,
}

const EMPTY: usize = usize::MAX;

impl LoserTree {
    /// Builds the tree by replaying every leaf once.
    fn build(k: usize, mut beats: impl FnMut(usize, usize) -> bool) -> LoserTree {
        let mut t = LoserTree {
            tree: vec![EMPTY; k.max(1)],
            winner: EMPTY,
            k,
        };
        for i in 0..k {
            t.replay(i, &mut beats);
        }
        t
    }

    /// Replays the path from leaf `i` to the root after stream `i`
    /// changed (new head line, or exhausted).
    ///
    /// During the build, a climber reaching a not-yet-played match
    /// slot deposits itself there and waits for the sibling subtree's
    /// winner (sequential insertion guarantees the last leaf's whole
    /// path is played, so the build always crowns a winner). After the
    /// build every slot is filled and a replay runs the full path.
    fn replay(&mut self, i: usize, beats: &mut impl FnMut(usize, usize) -> bool) {
        let mut w = i;
        let mut slot = (i + self.k) / 2;
        while slot > 0 {
            let held = self.tree[slot];
            if held == EMPTY {
                self.tree[slot] = w;
                return;
            }
            // The slot keeps the loser; the winner moves up.
            if beats(held, w) {
                self.tree[slot] = w;
                w = held;
            }
            slot /= 2;
        }
        self.winner = w;
    }

    /// The best of the losers on `i`'s root path: in a tournament the
    /// second-best lost directly to the winner, so it sits there.
    fn challenger(&self, i: usize, mut beats: impl FnMut(usize, usize) -> bool) -> usize {
        let mut best = EMPTY;
        let mut slot = (i + self.k) / 2;
        while slot > 0 {
            let held = self.tree[slot];
            if held != EMPTY && (best == EMPTY || beats(held, best)) {
                best = held;
            }
            slot /= 2;
        }
        best
    }
}

/// Streaming, stable k-way merge of pre-sorted inputs under the
/// sequential comparator, driven by a [`LoserTree`]: `sort -m`, the
/// merge phase of `--parallel`, and the runtime's `pash-agg-sort`.
///
/// Consecutive winners that compare equal fold into one record when
/// there is a fold to apply: `-u` keeps the first line of each group,
/// [`Records::Counted`] adds the counts of equal texts (without `-u`
/// equal means byte-identical, so this is `uniq -c` of the merged
/// lines). Otherwise every line is written as it wins.
pub fn merge<S: LineSource>(
    spec: &SortSpec,
    records: Records,
    mut sources: Vec<S>,
    out: &mut dyn Write,
) -> io::Result<()> {
    let mut heads = Vec::with_capacity(sources.len());
    for src in sources.iter_mut() {
        let mut head = Head::default();
        head.advance(spec, records, src)?;
        heads.push(head);
    }
    // Does stream `a` come before stream `b`? Exhausted streams lose;
    // compare-equal heads break toward the lower id (stability).
    let beats = |heads: &[Head], a: usize, b: usize| -> bool {
        match (heads[a].live, heads[b].live) {
            (false, _) => false,
            (true, false) => true,
            (true, true) => spec
                .compare_prepared(heads[a].keyed(), heads[b].keyed())
                .then(a.cmp(&b))
                .is_lt(),
        }
    };
    let mut tree = LoserTree::build(heads.len(), |a, b| beats(&heads, a, b));
    // Equal records may also straddle input boundaries.
    let folds = spec.unique || records == Records::Counted;
    let mut open = Group::default();
    let mut prefix = Vec::new();
    let mut out = BufWriter::with_capacity(CHUNK, out);
    // Run fast path: when the same stream wins twice running, cache
    // the best loser on its root path and keep emitting from the
    // winner with one comparison per line — no tree replay — until
    // its head stops beating the cached challenger. Computed lazily
    // (only on a repeat win) so interleaved streams pay nothing extra.
    let mut challenger = EMPTY;
    while tree.winner != EMPTY && heads[tree.winner].live {
        let b = tree.winner;
        if !folds {
            out.write_all(&heads[b].buf)?;
            out.write_all(b"\n")?;
        } else if !open.absorbs(spec, records, &heads[b])? {
            open.write(&mut out, &mut prefix)?;
            // The winner's buffers become the group's; the stream
            // refills the ones it gets back.
            std::mem::swap(&mut open.head, &mut heads[b]);
            open.recounted = false;
        }
        heads[b].advance(spec, records, &mut sources[b])?;
        if challenger != EMPTY {
            if heads[b].live && beats(&heads, b, challenger) {
                continue;
            }
            challenger = EMPTY;
        }
        tree.replay(b, &mut |a, b| beats(&heads, a, b));
        if tree.winner == b {
            challenger = tree.challenger(b, |a, b| beats(&heads, a, b));
        }
    }
    open.write(&mut out, &mut prefix)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use crate::fs::MemFs;
    use crate::{run_command, Registry};
    use std::sync::Arc;

    fn sort(args: &[&str], input: &str) -> String {
        let mut argv = vec!["sort"];
        argv.extend(args);
        let fs = Arc::new(MemFs::new());
        fs.add("s1", b"a\nc\ne\n".to_vec());
        fs.add("s2", b"b\nd\nf\n".to_vec());
        let out = run_command(&Registry::standard(), fs, &argv, input.as_bytes()).expect("run");
        String::from_utf8(out.stdout).expect("utf8")
    }

    #[test]
    fn lexicographic() {
        assert_eq!(sort(&[], "b\na\nc\n"), "a\nb\nc\n");
    }

    #[test]
    fn numeric() {
        assert_eq!(sort(&["-n"], "10\n9\n-2\n"), "-2\n9\n10\n");
    }

    #[test]
    fn reverse_numeric() {
        // The NOAA max-temperature idiom: sort -rn | head -n 1.
        assert_eq!(sort(&["-rn"], "0450\n0300\n0500\n"), "0500\n0450\n0300\n");
    }

    #[test]
    fn unique() {
        assert_eq!(sort(&["-u"], "b\na\nb\na\n"), "a\nb\n");
    }

    #[test]
    fn key_sort() {
        assert_eq!(
            sort(&["-k", "2", "-n"], "x 10\ny 2\nz 33\n"),
            "y 2\nx 10\nz 33\n"
        );
    }

    #[test]
    fn key_sort_with_separator() {
        assert_eq!(sort(&["-t", ":", "-k", "2"], "a:z\nb:y\n"), "b:y\na:z\n");
    }

    #[test]
    fn merge_presorted_files() {
        assert_eq!(sort(&["-m", "s1", "s2"], ""), "a\nb\nc\nd\ne\nf\n");
    }

    #[test]
    fn merge_breaks_key_ties_by_whole_line() {
        let fs = Arc::new(MemFs::new());
        fs.add("m1", b"1 second\n".to_vec());
        fs.add("m2", b"1 first\n".to_vec());
        let out = run_command(
            &Registry::standard(),
            fs,
            &["sort", "-m", "-n", "-k", "1", "m1", "m2"],
            b"",
        )
        .expect("run");
        // With equal numeric keys, last-resort comparison orders
        // "1 first" < "1 second" whichever input they came from.
        assert_eq!(out.stdout, b"1 first\n1 second\n");
    }

    #[test]
    fn numeric_ties_fall_to_the_whole_line() {
        // KNOWN_DIVERGENCES §1: GNU breaks `-n` ties by byte order,
        // and `-r` reverses that last resort too.
        assert_eq!(sort(&["-n"], "1 b\n1 a\n"), "1 a\n1 b\n");
        assert_eq!(sort(&["-rn"], "1 a\n1 b\n2 x\n"), "2 x\n1 b\n1 a\n");
        assert_eq!(sort(&["-n"], "he\nyou\n0 a\n"), "0 a\nhe\nyou\n");
    }

    #[test]
    fn unique_keeps_the_first_line_of_a_key_group() {
        // GNU disables the last resort under `-u`.
        assert_eq!(sort(&["-u", "-k1,1"], "a z\na b\n"), "a z\n");
        assert_eq!(sort(&["-k2,2n", "-u"], "b 1\na 1\n"), "b 1\n");
        assert_eq!(sort(&["-nu"], "1 b\n01 a\n0\n"), "0\n1 b\n");
        assert_eq!(
            sort(&["-u", "-k1,1", "--parallel=2"], "a z\nb y\na b\nb c\n"),
            "a z\nb y\n"
        );
    }

    #[test]
    fn inputs_concatenate_with_missing_newlines_restored() {
        let fs = Arc::new(MemFs::new());
        fs.add("u1", b"d\nb".to_vec());
        fs.add("u2", b"".to_vec());
        fs.add("u3", b"c\n\na".to_vec());
        let out = run_command(
            &Registry::standard(),
            fs,
            &["sort", "u1", "-", "u2", "u3"],
            b"e",
        )
        .expect("run");
        assert_eq!(out.stdout, b"\na\nb\nc\nd\ne\n");
    }

    #[test]
    fn output_crosses_gather_chunks_intact() {
        // ~0.9 MiB of output: several full gather chunks, and one
        // line longer than a chunk in the middle.
        let long = "m".repeat(300 * 1024);
        let mut lines: Vec<String> = (0..60_000)
            .map(|i| format!("{:08}", i * 7919 % 60_000))
            .collect();
        lines.push(long);
        let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
        lines.sort();
        let expected: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert_eq!(sort(&[], &input), expected);
        assert_eq!(sort(&["--parallel=3"], &input), expected);
    }

    #[test]
    fn parallel_matches_sequential() {
        let input: String = (0..500).map(|i| format!("{}\n", (i * 37) % 101)).collect();
        let seq = sort(&["-n"], &input);
        let par = sort(&["-n", "--parallel=4"], &input);
        assert_eq!(seq, par);
    }

    #[test]
    fn sort_empty_input() {
        assert_eq!(sort(&[], ""), "");
    }

    #[test]
    fn sort_stability_equal_lines() {
        assert_eq!(sort(&[], "same\nsame\n"), "same\nsame\n");
    }

    #[test]
    fn bad_key_is_usage_error() {
        let out = run_command(
            &Registry::standard(),
            Arc::new(MemFs::new()),
            &["sort", "-k", "x"],
            b"",
        )
        .expect("run");
        assert_eq!(out.status, 2);
    }
}
