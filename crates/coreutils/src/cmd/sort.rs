//! `sort` — sort or merge lines.
//!
//! Supports `-n`, `-r`, `-u`, `-k POS1[,POS2]`, `-t SEP`, `-m`
//! (merge pre-sorted inputs — the aggregation phase PaSh uses, spelled
//! `sort -m` on GNU systems, §5.2), and `--parallel=N` (an internal
//! threaded sort used as the §6.5 baseline).
//!
//! Every input is appended to one buffer and the sort moves an index
//! into it; output is gathered into large writes. There is one order
//! ([`SortSpec::compare_prepared`]) and two ways to reach it. A keyless
//! spec (plain, `-r`, `-n`, `-rn`, with or without `-u`) sorts by the
//! bytes: 16-byte `Entry`s keyed by the number's order-preserving
//! code, then by 8-byte big-endian chunks of the line, each tied group
//! re-keyed at the next chunk (`sort_by_chunks`). Specs with `-k`
//! keys, and arenas of 4 GiB or more, sort `(key, line)` pairs under
//! the comparator. `sort -m`, `--parallel` and the runtime's
//! `pash-agg-sort` share one streaming k-way [`merge`] under the
//! comparator, which borrows each input's window of whole lines and
//! gallops through the runs one input wins; its counted mode
//! ([`Records::Counted`], `pash-agg-sort-c`) merges per-worker
//! `sort | uniq -c` outputs by their text and adds the counts of equal
//! texts.

use std::io::{self, BufWriter, Read, Write};

use pash_regex::memmem::{memchr, memrchr};

use crate::args::{of, scan};
use crate::bytemask::count_byte;
use crate::lines::{add_counts, buffer_lines, parse_count_line, push_count};
use crate::sortkeys::{Keyed, Prepared, SortSpec};
use crate::{open_or_report, CmdIo, Command, ExitStatus};

/// The `sort` command (class P: map = sort, aggregate = merge).
pub struct Sort;

/// Parsed invocation.
pub struct SortArgs<'a> {
    /// Ordering specification.
    pub spec: SortSpec,
    /// `-m`: inputs are pre-sorted, merge only.
    pub merge: bool,
    /// `--parallel=N` thread count (1 = sequential).
    pub parallel: usize,
    /// Input files (`-` is stdin).
    pub files: Vec<&'a str>,
}

/// Parses sort arguments (shared with the runtime merge aggregator)
/// with the commands' one option scanner: `-n -r -u -m -k POS -t SEP`
/// and `--parallel=N`; any other option is an error.
pub fn parse_args(args: &[String]) -> Result<SortArgs<'_>, String> {
    let mut spec = SortSpec::default();
    let mut merge = false;
    let mut parallel = 1;
    let operands = scan(args, of("sort"), |name, value| {
        match name {
            "n" => spec.numeric = true,
            "r" => spec.reverse = true,
            "u" => spec.unique = true,
            "m" => merge = true,
            "k" => spec
                .keys
                .push(SortSpec::parse_key(value).ok_or(format!("bad key `{value}`"))?),
            "t" => spec.separator = value.as_bytes().first().copied(),
            _ => {
                parallel = value
                    .parse()
                    .map_err(|_| format!("bad --parallel '{value}'"))?
            }
        }
        Ok(())
    })?;
    Ok(SortArgs {
        spec,
        merge,
        parallel,
        files: operands.inputs(),
    })
}

impl Command for Sort {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let parsed = match parse_args(args) {
            Ok(p) => p,
            Err(e) => return crate::usage_error(io, "sort", &e),
        };
        let spec = &parsed.spec;
        let Some((arena, ends)) = read_inputs(io, &parsed.files)? else {
            return Ok(2);
        };
        if parsed.merge {
            let mut start = 0;
            let runs = ends.iter().map(|&end| {
                let run = &arena[start..end];
                start = end;
                run
            });
            merge(spec, Records::Lines, runs.collect(), io.stdout)?;
        } else if let Some(index) = Entry::index(spec, &arena) {
            // `-u` drops a line equal to the one kept before it: as a
            // number under `-n`, byte for byte otherwise.
            let repeats = |a: Entry, b: Entry| {
                if spec.numeric {
                    a.key == b.key
                } else {
                    a.line(&arena) == b.line(&arena)
                }
            };
            sort_lines(
                &parsed,
                &arena,
                io.stdout,
                index,
                |part| sort_index(spec, &arena, part),
                |e| e.line(&arena),
                repeats,
            )?;
        } else {
            let index = buffer_lines(&arena).map(|line| (spec.prepare(line), line));
            sort_lines(
                &parsed,
                &arena,
                io.stdout,
                index.collect::<Vec<Keyed<'_>>>(),
                |part| part.sort_by(|a, b| spec.compare_prepared(*a, *b)),
                |e| e.1,
                |a, b| spec.equal_prepared(a, b),
            )?;
        }
        Ok(0)
    }
}

/// Appends every input to one buffer, restoring a missing final
/// newline per file, and returns it with each file's end offset.
/// `None` when a file cannot be opened: GNU's message is on stderr,
/// and nothing is sorted.
fn read_inputs(io: &mut CmdIo<'_>, files: &[&str]) -> io::Result<Option<(Vec<u8>, Vec<usize>)>> {
    let mut arena = Vec::new();
    let mut ends = Vec::with_capacity(files.len());
    for f in files {
        let before = arena.len();
        let Some(mut r) = open_or_report(&io.fs, "sort", f, io.stdin, io.stderr)? else {
            return Ok(None);
        };
        r.read_to_end(&mut arena)?;
        if arena.len() > before && arena.last() != Some(&b'\n') {
            arena.push(b'\n');
        }
        ends.push(arena.len());
    }
    Ok(Some((arena, ends)))
}

/// Most threads `--parallel=N` is honoured with (a failed spawn would
/// abort the sort).
const MAX_THREADS: usize = 64;

/// Sorts an `index` of the lines of `arena` with `sort` and writes the
/// lines out in that order, `-u` dropping each that `repeats` the line
/// kept before it. With `--parallel=N` the index is sorted in that
/// many chunks on scoped threads, and the chunks are gathered into runs
/// and merged — GNU `sort --parallel` for the §6.5 microbenchmark.
fn sort_lines<'a, E: Copy + Send>(
    SortArgs { spec, parallel, .. }: &SortArgs<'_>,
    arena: &[u8],
    out: &mut dyn Write,
    mut index: Vec<E>,
    sort: impl Fn(&mut [E]) + Sync,
    line: impl Fn(E) -> &'a [u8],
    repeats: impl Fn(E, E) -> bool,
) -> io::Result<()> {
    let chunk = index
        .len()
        .div_ceil((*parallel).clamp(1, MAX_THREADS))
        .max(1);
    if chunk < index.len() {
        let sort = &sort;
        std::thread::scope(|scope| {
            for part in index.chunks_mut(chunk) {
                scope.spawn(move || sort(part));
            }
        });
        let runs: Vec<Vec<u8>> = index
            .chunks(chunk)
            .map(|c| {
                c.iter()
                    .flat_map(|&e| [line(e), b"\n"])
                    .collect::<Vec<_>>()
                    .concat()
            })
            .collect();
        let runs = runs.iter().map(Vec::as_slice).collect();
        return merge(spec, Records::Lines, runs, out);
    }
    sort(&mut index);
    let mut out = BufWriter::with_capacity(arena.len().min(CHUNK), out);
    let mut last = None;
    for cur in index {
        if spec.unique {
            if last.is_some_and(|prev| repeats(prev, cur)) {
                continue;
            }
            last = Some(cur);
        }
        out.write_all(line(cur))?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// One line of the arena in the keyless sort's index: where it is, and
/// the key the current pass sorts it by — sixteen bytes, the size of a
/// slice.
#[derive(Clone, Copy)]
struct Entry {
    key: u64,
    start: u32,
    len: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 16);

impl Entry {
    /// The index of every line of `arena` for a keyless `spec`; `None`
    /// for what stays on the comparator — a spec with `-k` keys, or an
    /// arena the `u32` offsets cannot address (4 GiB or more).
    fn index(spec: &SortSpec, arena: &[u8]) -> Option<Vec<Entry>> {
        if !spec.keys.is_empty() || u32::try_from(arena.len()).is_err() {
            return None;
        }
        let mut index = Vec::with_capacity(count_byte(b'\n', arena));
        let mut start = 0;
        index.extend(buffer_lines(arena).map(|line| {
            // Both fit: neither passes the arena's length, checked above.
            let entry = Entry {
                key: 0,
                start: start as u32,
                len: line.len() as u32,
            };
            start += line.len() + 1;
            entry
        }));
        Some(index)
    }

    #[inline]
    fn line(self, arena: &[u8]) -> &[u8] {
        &arena[self.start as usize..][..self.len as usize]
    }
}

/// Puts `index` in a keyless spec's output order: the order
/// [`SortSpec::compare_prepared`] gives, written front to back.
///
/// `-n` sorts by the number's code first, then orders each run of
/// equal numbers by its bytes (GNU's last resort) — unless `-u` makes
/// the run one group, whose first input line a stable sort keeps in
/// front (`-rn -u` sorts by the complemented code for that reason).
/// Without `-u`, `-r` is the sorted index back to front: entries that
/// tie there are identical lines.
///
/// Input that is already in order is left as it is: the byte sort
/// runs only on a run (or, keyless, an index) that is out of order.
/// Sorting `-n` by the code and then the line's offset keeps each
/// run of equal numbers in input order, which is byte order when the
/// input came from a sort (`sort | uniq -c | sort -n`).
fn sort_index(spec: &SortSpec, arena: &[u8], index: &mut [Entry]) {
    let in_order = |run: &[Entry]| run.is_sorted_by(|a, b| a.line(arena) <= b.line(arena));
    if spec.numeric {
        let flip = if spec.reverse && spec.unique { !0 } else { 0 };
        for e in index.iter_mut() {
            e.key = spec.prepare(e.line(arena)).numeric_code() ^ flip;
        }
        if spec.unique {
            index.sort_by_key(|e| e.key);
            return;
        }
        index.sort_unstable_by_key(|e| (e.key, e.start));
        for run in index.chunk_by_mut(|a, b| a.key == b.key) {
            if !in_order(run) {
                sort_by_chunks(arena, run, 0);
            }
        }
    } else if !in_order(index) {
        sort_by_chunks(arena, index, 0);
    }
    if spec.reverse {
        index.reverse();
    }
}

/// How many bytes of shared prefix the chunk passes look through
/// before a still-tied run is finished by comparison: it bounds the
/// recursion, so the stack does not grow with line length.
const MAX_DEPTH: usize = 64;

/// Runs shorter than this are finished by comparison at once.
const SMALL_RUN: usize = 16;

/// Sorts `run`, whose lines share their first `depth` bytes, into
/// byte order: one unstable sort by the big-endian 8 bytes at `depth`
/// (zero-padded) and by how many bytes are left, capped at 9, then the
/// same one chunk deeper for each group still tied — those lines
/// agree on the whole chunk and all go on past it. The cap orders a
/// line that ends inside the chunk, or whose chunk ends in padding
/// NULs, before the lines it is a prefix of, exactly as `memcmp` does.
fn sort_by_chunks(arena: &[u8], run: &mut [Entry], depth: usize) {
    if run.len() < SMALL_RUN || depth >= MAX_DEPTH {
        run.sort_unstable_by(|a, b| a.line(arena)[depth..].cmp(&b.line(arena)[depth..]));
        return;
    }
    for e in run.iter_mut() {
        e.key = chunk_at(&e.line(arena)[depth..]);
    }
    let left = |e: &Entry| (e.len as usize - depth).min(9);
    run.sort_unstable_by_key(|e| (e.key, left(e)));
    for tied in run.chunk_by_mut(|a, b| a.key == b.key && left(a) == 9 && left(b) == 9) {
        if tied.len() > 1 {
            sort_by_chunks(arena, tied, depth + 8);
        }
    }
}

/// The first 8 bytes of `rest` as a big-endian `u64`, zero-padded.
#[inline]
fn chunk_at(rest: &[u8]) -> u64 {
    match rest.first_chunk::<8>() {
        Some(chunk) => u64::from_be_bytes(*chunk),
        None => {
            let mut chunk = [0; 8];
            chunk[..rest.len()].copy_from_slice(rest);
            u64::from_be_bytes(chunk)
        }
    }
}

/// Output leaves through a `BufWriter` of this many bytes — two plain
/// copies per line (`lines::write_line`'s stack assembly would double
/// them) and one `write_all` per chunk, keeping the per-line cost off
/// the `dyn Write`.
const CHUNK: usize = 256 * 1024;

/// One pre-sorted input of a [`merge`]: a window onto the whole lines
/// it has buffered, which the merge borrows and consumes from the
/// front. Every line in a window ends in a newline.
pub trait MergeInput {
    /// Makes sure the window holds a whole line unless the input is
    /// done, refilling only when it holds none.
    fn fill(&mut self) -> io::Result<()>;
    /// The buffered whole lines not yet consumed; empty after
    /// [`fill`](MergeInput::fill) only at the end of the input.
    fn window(&self) -> &[u8];
    /// Drops the window's first `n` bytes, a whole number of lines.
    fn consume(&mut self, n: usize);
}

/// An input already in memory, ending in a newline, is its own window.
impl MergeInput for &[u8] {
    fn fill(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn window(&self) -> &[u8] {
        self
    }

    fn consume(&mut self, n: usize) {
        *self = &self[n..];
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

/// The record a line starts with: its `len` bytes with the newline (0:
/// none), where its compared text starts, its count and the text's key.
/// It borrows nothing; [`Head::keyed`] takes the line back.
#[derive(Clone, Copy, Default)]
struct Head {
    len: usize,
    text: usize,
    count: u64,
    key: Prepared,
}

impl Head {
    /// Parses and keys the first line of `line`.
    fn of(spec: &SortSpec, records: Records, line: &[u8]) -> io::Result<Head> {
        let Some(end) = memchr(b'\n', line) else {
            return Ok(Head::default());
        };
        let (count, text) = match records {
            Records::Lines => (0, &line[..end]),
            Records::Counted => parse_count_line(&line[..end])?,
        };
        Ok(Head {
            len: end + 1,
            text: end - text.len(),
            count,
            key: spec.prepare(text),
        })
    }

    fn live(&self) -> bool {
        self.len > 0
    }

    /// The compared text of `line`, the one this was parsed from.
    fn keyed<'a>(&self, line: &'a [u8]) -> Keyed<'a> {
        (self.key, &line[self.text..self.len - 1])
    }
}

/// The open group of a folding [`merge`]: a copy of the record the
/// next compare-equal winners fold into, written when a different one
/// arrives. It leaves as it came unless a fold changed its count.
#[derive(Default)]
struct Group {
    line: Vec<u8>,
    head: Head,
    recounted: bool,
}

impl Group {
    /// Folds `next`, parsed from `line`, in when it compares equal
    /// (under `-u` the group keeps its first line, counted records add
    /// up); otherwise writes the group and opens `next`'s.
    fn take(
        &mut self,
        spec: &SortSpec,
        records: Records,
        next: Head,
        line: &[u8],
        out: &mut impl Write,
        prefix: &mut Vec<u8>,
    ) -> io::Result<()> {
        let equal = self.head.live() && {
            let (open, next_key) = (self.head.keyed(&self.line), next.keyed(line));
            // Without `-u`, or with only the whole line for a key,
            // texts compare equal when they are byte-identical: the
            // lengths settle most pairs without a byte compare.
            if spec.unique && !spec.whole_line() {
                spec.compare_prepared(open, next_key).is_eq()
            } else {
                open.1 == next_key.1
            }
        };
        if !equal {
            self.write(out, prefix)?;
            self.line.clear();
            self.line.extend_from_slice(&line[..next.len]);
            (self.head, self.recounted) = (next, false);
        } else if records == Records::Counted {
            self.head.count = add_counts(self.head.count, next.count)?;
            self.recounted = true;
        }
        Ok(())
    }

    fn write(&self, out: &mut impl Write, prefix: &mut Vec<u8>) -> io::Result<()> {
        if !self.recounted {
            return out.write_all(&self.line);
        }
        prefix.clear();
        push_count(prefix, self.head.count);
        out.write_all(prefix)?;
        out.write_all(&self.line[self.head.text..])
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

/// How many times running one input must win before the merge
/// gallops through its window (TimSort's `MIN_GALLOP`): below it,
/// inputs that interleave pay one counter per line and no probes.
const MIN_GALLOP: usize = 7;

/// Streaming, stable k-way merge of pre-sorted inputs under the
/// sequential comparator, driven by a [`LoserTree`]: `sort -m`, the
/// merge phase of `--parallel`, and the runtime's `pash-agg-sort`.
///
/// Lines are written from the inputs' windows. Once one input has won
/// [`MIN_GALLOP`] times running, the merge gallops: it probes that
/// window at doubling byte offsets, each probe at the start of the
/// line it lands in, then binary-searches for the last line that still
/// beats the best of the other heads, and writes all of them at once.
///
/// Consecutive winners that compare equal fold into one record when
/// there is a fold to apply: `-u` keeps the first line of each group,
/// [`Records::Counted`] adds the counts of equal texts (without `-u`
/// equal means byte-identical, so this is `uniq -c` of the merged
/// lines). Such a merge takes its winners one at a time and does not
/// gallop.
pub fn merge<S: MergeInput>(
    spec: &SortSpec,
    records: Records,
    mut inputs: Vec<S>,
    out: &mut dyn Write,
) -> io::Result<()> {
    let mut heads = Vec::with_capacity(inputs.len());
    for input in inputs.iter_mut() {
        input.fill()?;
        heads.push(Head::of(spec, records, input.window())?);
    }
    // Does the record `x` of stream `a` come before stream `b`'s head?
    // Exhausted streams lose; compare-equal records break toward the
    // lower id (stability).
    let precedes = |heads: &[Head], inputs: &[S], x: Keyed<'_>, a: usize, b: usize| {
        !heads[b].live()
            || spec
                .compare_prepared(x, heads[b].keyed(inputs[b].window()))
                .then(a.cmp(&b))
                .is_lt()
    };
    let beats = |heads: &[Head], inputs: &[S], a: usize, b: usize| {
        heads[a].live() && precedes(heads, inputs, heads[a].keyed(inputs[a].window()), a, b)
    };
    let mut tree = LoserTree::build(heads.len(), |a, b| beats(&heads, &inputs, a, b));
    // Equal records may also straddle input boundaries.
    let folds = spec.unique || records == Records::Counted;
    let mut open = Group::default();
    let mut prefix = Vec::new();
    let mut out = BufWriter::with_capacity(CHUNK, out);
    let (mut last, mut streak) = (EMPTY, 0);
    while tree.winner != EMPTY && heads[tree.winner].live() {
        let b = tree.winner;
        streak = if b == last { streak + 1 } else { 1 };
        last = b;
        let window = inputs[b].window();
        // The window's first `end` bytes beat every other head.
        let mut end = heads[b].len;
        if folds {
            open.take(spec, records, heads[b], window, &mut out, &mut prefix)?;
        } else {
            if streak >= MIN_GALLOP {
                let c = tree.challenger(b, |a, b| beats(&heads, &inputs, a, b));
                // `hi` starts a line that does not beat `c`, or ends
                // the window; `step` doubles until a probe loses.
                let (mut hi, mut step, mut galloping) = (window.len(), end, true);
                while end < hi {
                    let probe = if galloping {
                        (end + step).min(hi) - 1
                    } else {
                        end + (hi - end) / 2
                    };
                    let start = memrchr(b'\n', &window[end..probe]).map_or(end, |i| end + i + 1);
                    let line = &window[start..];
                    let head = Head::of(spec, records, line)?;
                    if c == EMPTY || precedes(&heads, &inputs, head.keyed(line), b, c) {
                        end = start + head.len;
                        step *= 2;
                    } else {
                        hi = start;
                        galloping = false;
                    }
                }
            }
            out.write_all(&window[..end])?;
        }
        inputs[b].consume(end);
        inputs[b].fill()?;
        heads[b] = Head::of(spec, records, inputs[b].window())?;
        tree.replay(b, &mut |a, b| beats(&heads, &inputs, a, b));
    }
    open.write(&mut out, &mut prefix)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::{sort_index, Entry};
    use crate::fs::MemFs;
    use crate::sortkeys::SortSpec;
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
    fn runs_already_in_order_come_out_the_same() {
        // A `uniq -c` stream: equal counts arrive in byte order, and
        // are left in it; a run out of order is still byte-sorted.
        let counted = "      2 b\n      1 a\n      2 c\n      1 b\n      1 c\n";
        assert_eq!(
            sort(&["-n"], counted),
            "      1 a\n      1 b\n      1 c\n      2 b\n      2 c\n"
        );
        assert_eq!(
            sort(&["-rn"], counted),
            "      2 c\n      2 b\n      1 c\n      1 b\n      1 a\n"
        );
        assert_eq!(sort(&["-n"], "3 z\n3 y\n3 x\n"), "3 x\n3 y\n3 z\n");
        // Keyless: sorted input as it is, unsorted input sorted.
        let lines: String = (0..40).map(|i| format!("line {i:03}\n")).collect();
        assert_eq!(sort(&[], &lines), lines);
        let mut reversed: Vec<&str> = lines.lines().rev().collect();
        reversed.push("");
        assert_eq!(sort(&[], &reversed.join("\n")), lines);
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
    fn stack_use_does_not_grow_with_line_length() {
        // 64 lines behind one 1 MiB prefix: a chunk pass per 8 bytes
        // would nest 2^17 deep.
        const PREFIX: usize = 1 << 20;
        let tails: Vec<String> = (0..64).map(|i| format!("{:02}", i * 37 % 64)).collect();
        let mut arena = Vec::with_capacity(64 * (PREFIX + 3));
        for tail in &tails {
            arena.resize(arena.len() + PREFIX, b'p');
            arena.extend_from_slice(tail.as_bytes());
            arena.push(b'\n');
        }
        let sorted = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                let spec = SortSpec::default();
                let mut index = Entry::index(&spec, &arena).expect("keyless, under 4 GiB");
                sort_index(&spec, &arena, &mut index);
                let tail =
                    |e: &Entry| String::from_utf8_lossy(&e.line(&arena)[PREFIX..]).into_owned();
                index.iter().map(tail).collect::<Vec<_>>()
            })
            .expect("spawn")
            .join()
            .expect("the sort fits a 256 KiB stack");
        let mut expected = tails;
        expected.sort();
        assert_eq!(sorted, expected);
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

    fn run(argv: &[&str], input: &[u8]) -> crate::Captured {
        let fs = Arc::new(MemFs::new());
        fs.add("-n", b"b\na\n".to_vec());
        run_command(&Registry::standard(), fs, argv, input).expect("run")
    }

    #[test]
    fn unknown_options_are_usage_errors_naming_the_option() {
        for (flag, named) in [
            ("-f", "'f'"),
            ("-s", "'s'"),
            ("-b", "'b'"),
            ("-c", "'c'"),
            ("-nf", "'f'"),
            ("-o", "'o'"),
            ("--reverse", "'--reverse'"),
        ] {
            let out = run(&["sort", flag], b"b\nA\n");
            assert_eq!(out.status, 2, "{flag}");
            assert!(out.stdout.is_empty(), "{flag}");
            let err = String::from_utf8(out.stderr).expect("utf8");
            assert!(
                err.starts_with("sort: ") && err.contains(named),
                "{flag}: {err}"
            );
        }
    }

    #[test]
    fn a_lone_dash_is_stdin() {
        let out = run(&["sort", "-r", "-"], b"a\nc\nb\n");
        assert_eq!((out.status, &out.stdout[..]), (0, &b"c\nb\na\n"[..]));
    }

    #[test]
    fn words_after_double_dash_are_operands() {
        // `-n` here is the file of that name, not the flag.
        let out = run(&["sort", "-r", "--", "-n"], b"");
        assert_eq!((out.status, &out.stdout[..]), (0, &b"b\na\n"[..]));
    }

    #[test]
    fn key_and_separator_options_cluster() {
        assert_eq!(sort(&["-rk2"], "a 1\nb 2\n"), "b 2\na 1\n");
        assert_eq!(sort(&["-nt:", "-k2"], "x:10\ny:9\n"), "y:9\nx:10\n");
        let out = run(&["sort", "-nk"], b"");
        assert_eq!(out.status, 2);
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
