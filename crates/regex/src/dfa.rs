//! A lazy DFA over the Thompson NFA, with a bounded state cache.
//!
//! This is the fast general-purpose tier of the matcher: instead of
//! simulating every live NFA thread per byte (the Pike VM), states —
//! priority-ordered sets of NFA program counters — are determinized
//! *on demand* and memoized, so steady-state matching is one table
//! lookup per byte. Determinization is capped: when the cache fills it
//! is cleared and rebuilt, and a search that keeps thrashing gives up
//! ([`GaveUp`]) so the caller can fall back to the Pike VM. That keeps
//! the engine's linear-time guarantee intact on adversarial patterns —
//! the DFA never does more than `O(len)` transition steps, and state
//! construction work is bounded by the cache budget.
//!
//! # The table
//!
//! A [`Cache`] holds **one flat transition table**: a row per state,
//! a column per byte class (plus one end-of-input column when the
//! pattern contains `$`). A state's id is the offset of its row — ids
//! are premultiplied by the stride — so a step is
//! `table[id + class[byte]]`. Everything the scan loops must notice
//! is a tag bit in the *id itself*: a transition not determinized yet
//! ([`TAG_UNKNOWN`]), the dead state ([`TAG_DEAD`]), a state in which
//! a match ends ([`TAG_MATCH`]). The steady state is therefore one
//! class lookup, one table load and one compare (`id >= TAGGED`) per
//! byte; determinization, cache clears and giving up all sit behind
//! that compare.
//!
//! Three scans share the table: forward ([`Dfa::find_fwd`]: `is_match`
//! and the end of a `find`), reverse ([`Dfa::find_rev`]: the start of
//! a `find`) and the line scan ([`Dfa::find_line`]: `grep`'s walk over
//! a block of whole lines, restarting at each `\n`).
//!
//! Two configurations are used by [`crate::Matcher`]:
//!
//! * **forward, leftmost** (`longest = false`): the program is the
//!   pattern wrapped in an implicit non-greedy `.*?` prefix, so the
//!   unanchored seeding the Pike VM performs per position is part of
//!   the automaton. State construction cuts every thread below a
//!   `Match` (leftmost-first semantics), which also silences the
//!   seeding loop once a match exists — exactly mirroring the VM's
//!   "once matched, only extend" rule. Scanning to the dead state and
//!   reporting the *last* match position yields the same end offset
//!   the Pike VM reports. (A pattern that begins with `^` is compiled
//!   without the prefix: it can only match at offset 0, and without
//!   the seeding loop its automaton dies at the first byte that rules
//!   a match out.)
//! * **reverse, longest** (`longest = true`): the program is the
//!   reversed pattern, run backwards from the match end with no
//!   cutoff; the furthest (smallest) match position is the leftmost
//!   match start.
//!
//! Word-boundary assertions would make state identity depend on
//! haystack context; patterns containing them are rejected at
//! construction ([`Dfa::new`] returns `None`) and stay on the Pike VM.

use std::collections::HashMap;

use crate::compile::{Inst, Program};
use crate::hir::Assertion;
use crate::literal::Prefilter;
use crate::memmem::memchr;
use crate::Stats;

/// Tag: a match ends in this state. The low bits still name its row.
const TAG_MATCH: u32 = 1 << 31;
/// Tag: the dead state — no live threads, no future match. It has no
/// row; nothing is ever looked up from it.
const TAG_DEAD: u32 = 1 << 30;
/// Tag: a transition not yet determinized.
const TAG_UNKNOWN: u32 = 1 << 29;
/// Every id at or above this carries a tag; below it, an id is a plain
/// row offset and the scan loops just follow it.
const TAGGED: u32 = TAG_UNKNOWN;
/// The row-offset bits of an id.
const ID_MASK: u32 = TAGGED - 1;

const DEAD: u32 = TAG_DEAD;
const UNKNOWN: u32 = TAG_UNKNOWN;

/// Cache clears tolerated across a [`Cache`]'s lifetime before the
/// DFA declares itself unprofitable and permanently gives up.
const MAX_CLEARS: u32 = 16;

/// The search exceeded its cache budget; fall back to the Pike VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaveUp;

/// An immutable determinizer for one compiled program.
#[derive(Debug)]
pub struct Dfa {
    prog: Program,
    /// Byte → equivalence class; bytes the program never distinguishes
    /// share a table column.
    byte2class: [u8; 256],
    class_count: usize,
    /// Row width: one column per class, plus the end-of-input column
    /// when the program contains `$`.
    stride: usize,
    /// Cache capacity, sized so `states × stride` stays bounded.
    max_states: usize,
    /// Longest-match mode: no priority cutoff at `Match` (used by the
    /// reverse scan, which needs the furthest match, not the first).
    longest: bool,
    /// Whether the program contains `Assert(End)` at all; when not,
    /// the end-of-input closure can never add a match and is skipped.
    has_eoi: bool,
}

/// The mutable side of a lazy DFA: the transition table and the
/// interned states behind it.
///
/// Owned by the caller (one per [`crate::Matcher`]) so a compiled
/// [`Dfa`] stays shareable while each user pays for its own cache.
/// Empty until first used, then grown one row per state built.
pub struct Cache {
    /// `table[id + class]` = successor id, tagged; see the module doc.
    table: Vec<u32>,
    /// Each row's priority-ordered NFA pcs (`Class`, `Match`, or
    /// pending `Assert(End)` instructions), by row index. Only state
    /// construction reads them.
    states: Vec<Box<[u32]>>,
    ids: HashMap<Box<[u32]>, u32>,
    /// Start states: `[mid-text, text-start]` closure variants.
    starts: [u32; 2],
    /// Whether the empty haystack matches through a `$` — the one
    /// end-of-input closure that also sits at the text start, so it
    /// cannot share the per-state column.
    empty_eoi: Option<bool>,
    built: u64,
    clears: u32,
    poisoned: bool,
    /// Scratch for closure computation (generation-stamped visited
    /// set, reused across calls).
    stamp: Vec<u32>,
    gen: u32,
}

impl Cache {
    /// Creates an empty cache; states materialize on first use.
    pub fn new() -> Cache {
        Cache {
            table: Vec::new(),
            states: Vec::new(),
            ids: HashMap::new(),
            starts: [UNKNOWN; 2],
            empty_eoi: None,
            built: 0,
            clears: 0,
            poisoned: false,
            stamp: Vec::new(),
            gen: 0,
        }
    }

    /// States determinized over this cache's life (clears included).
    pub fn states_built(&self) -> u64 {
        self.built
    }

    /// Times the cache filled up and was cleared.
    pub fn clears(&self) -> u32 {
        self.clears
    }

    fn reset(&mut self) {
        self.table.clear();
        self.states.clear();
        self.ids.clear();
        self.starts = [UNKNOWN; 2];
    }
}

impl Default for Cache {
    fn default() -> Self {
        Self::new()
    }
}

/// Zero-width context at a haystack position.
#[derive(Clone, Copy)]
struct Ctx {
    at_start: bool,
    at_eoi: bool,
}

/// Mid-text: neither `^` nor `$` holds.
const MID: Ctx = Ctx {
    at_start: false,
    at_eoi: false,
};

impl Dfa {
    /// Builds a determinizer for `prog`, or `None` when the program
    /// contains context-dependent assertions (word boundaries) that a
    /// position-keyed DFA cannot express.
    pub fn new(prog: Program, longest: bool) -> Option<Dfa> {
        if prog.insts.iter().any(|i| {
            matches!(
                i,
                Inst::Assert(Assertion::WordBoundary) | Inst::Assert(Assertion::NotWordBoundary)
            )
        }) {
            return None;
        }
        let (byte2class, class_count) = byte_classes(&prog);
        let has_eoi = prog
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Assert(Assertion::End)));
        let stride = class_count + usize::from(has_eoi);
        // Bound total transition-table memory to ~1M entries.
        let max_states = ((1usize << 20) / stride).clamp(256, 8192);
        Some(Dfa {
            prog,
            byte2class,
            class_count,
            stride,
            max_states,
            longest,
            has_eoi,
        })
    }

    /// Forward scan over `hay[start..]`.
    ///
    /// Returns the **last** position at which a match ends (the Pike
    /// VM's leftmost end offset, given the compiled-in `.*?` prefix),
    /// or the **first** when `earliest` (enough for `is_match`).
    pub fn find_fwd(
        &self,
        cache: &mut Cache,
        hay: &[u8],
        start: usize,
        earliest: bool,
    ) -> Result<Option<usize>, GaveUp> {
        if cache.poisoned {
            return Err(GaveUp);
        }
        let mut sid = self.start_state(cache, start == 0)?;
        let mut last = None;
        if sid >= TAGGED {
            if sid & TAG_DEAD != 0 {
                return Ok(None);
            }
            if earliest {
                return Ok(Some(start));
            }
            last = Some(start);
            sid &= ID_MASK;
        }
        let mut i = start;
        while i < hay.len() {
            let b = hay[i];
            i += 1;
            let mut next = cache.table[sid as usize + self.byte2class[b as usize] as usize];
            if next >= TAGGED {
                if next == UNKNOWN {
                    next = self.build_edge(cache, sid, b)?;
                }
                if next & TAG_DEAD != 0 {
                    return Ok(last);
                }
                if next & TAG_MATCH != 0 {
                    if earliest {
                        return Ok(Some(i));
                    }
                    last = Some(i);
                }
                next &= ID_MASK;
            }
            sid = next;
        }
        if self.eoi_matches(cache, sid, hay.is_empty()) {
            last = Some(hay.len());
        }
        Ok(last)
    }

    /// Reverse scan over `hay[lo..end]`, feeding bytes right to left.
    ///
    /// Returns the smallest position `s ≥ lo` such that `hay[s..end]`
    /// matches the (reversed) program — the leftmost start of a match
    /// known to end at `end`.
    pub fn find_rev(
        &self,
        cache: &mut Cache,
        hay: &[u8],
        lo: usize,
        end: usize,
    ) -> Result<Option<usize>, GaveUp> {
        if cache.poisoned {
            return Err(GaveUp);
        }
        let mut sid = self.start_state(cache, end == hay.len())?;
        let mut last = None;
        if sid >= TAGGED {
            if sid & TAG_DEAD != 0 {
                return Ok(None);
            }
            last = Some(end);
            sid &= ID_MASK;
        }
        let mut i = end;
        while i > lo {
            i -= 1;
            let b = hay[i];
            let mut next = cache.table[sid as usize + self.byte2class[b as usize] as usize];
            if next >= TAGGED {
                if next == UNKNOWN {
                    next = self.build_edge(cache, sid, b)?;
                }
                if next & TAG_DEAD != 0 {
                    return Ok(last);
                }
                if next & TAG_MATCH != 0 {
                    last = Some(i);
                }
                next &= ID_MASK;
            }
            sid = next;
        }
        // End of the reverse stream: pending `Assert(End)` pcs here are
        // the original pattern's `^`, which holds only at offset 0.
        if lo == 0 && self.eoi_matches(cache, sid, false) {
            last = Some(0);
        }
        Ok(last)
    }

    /// Line scan: finds the first line of `block` at or after `from`
    /// (a line start) that the pattern matches, as `(start, end)` with
    /// the terminator excluded. Each line is its own haystack: the
    /// automaton restarts from the text-start state after every `\n`,
    /// `$` is evaluated before it, and a `\n` is never fed to the
    /// table. A line is left at its first match state, or at the dead
    /// state, and the rest of it skipped with `memchr`.
    ///
    /// `filter`, when given, is a literal every match contains or a
    /// set of literals one of which starts every match: it is
    /// consulted at line starts only, to jump over lines that cannot
    /// match. Under a set, the line's scan starts at the hit, in the
    /// mid-text start state, since no match starts before it.
    /// `stats` counts the lines walked (`dfa_lines`) and the set's
    /// searches (`set_searches`).
    ///
    /// On giving up, the error carries the start of the line the scan
    /// was in: nothing from there on has been answered.
    pub fn find_line(
        &self,
        cache: &mut Cache,
        filter: Option<&Prefilter>,
        block: &[u8],
        from: usize,
        stats: &mut Stats,
    ) -> Result<Option<(usize, usize)>, usize> {
        if cache.poisoned {
            return Err(from);
        }
        let n = block.len();
        let mut line = from;
        while line < n {
            let mut i = line;
            if let Some(f) = filter {
                let Some((start, hit)) = crate::next_candidate(f, block, line, stats) else {
                    return Ok(None);
                };
                line = start;
                i = if matches!(f, Prefilter::Set(_)) {
                    hit
                } else {
                    start
                };
            }
            // Re-read per line: a cache clear renames the start state.
            let start = self.start_state(cache, i == line).map_err(|_| line)?;
            let matched = if start >= TAGGED {
                // The empty prefix of every line decides it.
                start & TAG_MATCH != 0
            } else {
                let mut sid = start;
                loop {
                    if i == n || block[i] == b'\n' {
                        break self.eoi_matches(cache, sid, i == line);
                    }
                    let b = block[i];
                    i += 1;
                    let mut next = cache.table[sid as usize + self.byte2class[b as usize] as usize];
                    if next >= TAGGED {
                        if next == UNKNOWN {
                            next = self.build_edge(cache, sid, b).map_err(|_| line)?;
                        }
                        if next >= TAGGED {
                            break next & TAG_MATCH != 0;
                        }
                    }
                    sid = next;
                }
            };
            let end = memchr(b'\n', &block[i..]).map_or(n, |k| i + k);
            stats.dfa_lines += 1;
            if matched {
                return Ok(Some((line, end)));
            }
            line = end + 1;
        }
        Ok(None)
    }

    /// The start state's id (tagged like any other).
    fn start_state(&self, cache: &mut Cache, text_start: bool) -> Result<u32, GaveUp> {
        let slot = usize::from(text_start);
        if cache.starts[slot] != UNKNOWN {
            return Ok(cache.starts[slot]);
        }
        let ctx = Ctx {
            at_start: text_start,
            at_eoi: false,
        };
        let (pcs, is_match) = self.closure_list(cache, &[0], None, ctx);
        let id = self.intern(cache, pcs, is_match)?;
        cache.starts[slot] = id;
        Ok(id)
    }

    /// Determinizes `δ(sid, byte)` and memoizes it in the table.
    ///
    /// After a cache clear the previous `sid` is gone; the freshly
    /// interned successor id returned here is always valid, so the
    /// scan loop can continue — only the memoized edge is lost.
    #[cold]
    fn build_edge(&self, cache: &mut Cache, sid: u32, byte: u8) -> Result<u32, GaveUp> {
        let src = cache.states[sid as usize / self.stride].clone();
        let (pcs, is_match) = self.closure_list(cache, &src, Some(byte), MID);
        let clears_before = cache.clears;
        let id = self.intern(cache, pcs, is_match)?;
        // Store the edge unless interning cleared the cache (in which
        // case `sid` no longer names a live row).
        if cache.clears == clears_before {
            cache.table[sid as usize + self.byte2class[byte as usize] as usize] = id;
        }
        Ok(id)
    }

    /// Does the state at row offset `sid` yield a match at
    /// end-of-input (pending `$` pcs)? Memoized in the state's
    /// end-of-input column.
    #[inline]
    fn eoi_matches(&self, cache: &mut Cache, sid: u32, empty_text: bool) -> bool {
        if !self.has_eoi {
            return false;
        }
        if empty_text {
            // Only ever asked of the text-start start state, so the
            // answer belongs to the pattern, not to a row.
            return match cache.empty_eoi {
                Some(m) => m,
                None => {
                    let m = self.eoi_closure(cache, sid, true);
                    cache.empty_eoi = Some(m);
                    m
                }
            };
        }
        let slot = sid as usize + self.class_count;
        if cache.table[slot] == UNKNOWN {
            let m = self.eoi_closure(cache, sid, false);
            cache.table[slot] = if m { TAG_MATCH } else { DEAD };
        }
        cache.table[slot] == TAG_MATCH
    }

    #[cold]
    fn eoi_closure(&self, cache: &mut Cache, sid: u32, at_start: bool) -> bool {
        let ctx = Ctx {
            at_start,
            at_eoi: true,
        };
        let src = cache.states[sid as usize / self.stride].clone();
        self.closure_list(cache, &src, None, ctx).1
    }

    /// Builds the priority-ordered successor pc list of `src`.
    ///
    /// With `byte = Some(b)`, each `Class` pc consumes `b` first; with
    /// `None`, `src` pcs enter the closure directly (start state and
    /// EOI evaluation). Pending `Assert(End)` pcs are kept in the list
    /// mid-scan and only followed when `ctx.at_eoi`.
    fn closure_list(
        &self,
        cache: &mut Cache,
        src: &[u32],
        byte: Option<u8>,
        ctx: Ctx,
    ) -> (Vec<u32>, bool) {
        if cache.stamp.len() < self.prog.insts.len() {
            cache.stamp.resize(self.prog.insts.len(), 0);
        }
        cache.gen = cache.gen.wrapping_add(1);
        if cache.gen == 0 {
            cache.stamp.fill(0);
            cache.gen = 1;
        }
        let mut cl = Closure {
            prog: &self.prog,
            stamp: &mut cache.stamp,
            gen: cache.gen,
            list: Vec::with_capacity(src.len() + 4),
            matched: false,
            cutoff: !self.longest,
            ctx,
        };
        for &pc in src {
            if cl.matched && cl.cutoff {
                break;
            }
            match (&self.prog.insts[pc as usize], byte) {
                (Inst::Class(c), Some(b)) => {
                    if c.contains(b) {
                        cl.add(pc + 1);
                    }
                }
                // A byte follows, so `$` fails and `Match` stays a
                // record of the past, contributing no successor — but
                // in leftmost mode it still cuts lower-priority pcs.
                (Inst::Assert(Assertion::End), Some(_)) => {}
                (Inst::Match, Some(_)) => {
                    if cl.cutoff {
                        break;
                    }
                }
                // Direct (non-consuming) closure entry.
                (_, None) => cl.add(pc),
                _ => unreachable!("state holds only Class/Match/Assert(End) pcs"),
            }
        }
        (cl.list, cl.matched)
    }

    /// Returns the id of the state with these pcs, appending a row of
    /// unknown transitions to the table when it is new. An empty pc
    /// list is the dead state.
    fn intern(&self, cache: &mut Cache, pcs: Vec<u32>, is_match: bool) -> Result<u32, GaveUp> {
        if pcs.is_empty() {
            return Ok(DEAD);
        }
        if let Some(&id) = cache.ids.get(pcs.as_slice()) {
            return Ok(id);
        }
        if cache.states.len() >= self.max_states {
            cache.clears += 1;
            if cache.clears >= MAX_CLEARS {
                cache.poisoned = true;
                return Err(GaveUp);
            }
            cache.reset();
        }
        let row = cache.table.len();
        cache.table.resize(row + self.stride, UNKNOWN);
        let id = row as u32 | if is_match { TAG_MATCH } else { 0 };
        let key: Box<[u32]> = pcs.into_boxed_slice();
        cache.states.push(key.clone());
        cache.ids.insert(key, id);
        cache.built += 1;
        Ok(id)
    }
}

/// Recursive epsilon-closure builder with priority order, generation
/// stamps for dedup, and leftmost cutoff.
struct Closure<'a> {
    prog: &'a Program,
    stamp: &'a mut [u32],
    gen: u32,
    list: Vec<u32>,
    matched: bool,
    cutoff: bool,
    ctx: Ctx,
}

impl Closure<'_> {
    fn add(&mut self, pc: u32) {
        if self.matched && self.cutoff {
            return;
        }
        let i = pc as usize;
        if self.stamp[i] == self.gen {
            return;
        }
        self.stamp[i] = self.gen;
        match &self.prog.insts[i] {
            Inst::Jmp(t) => self.add(*t as u32),
            Inst::Split(a, b) => {
                self.add(*a as u32);
                self.add(*b as u32);
            }
            Inst::Save(_) => self.add(pc + 1),
            Inst::Assert(Assertion::Start) => {
                if self.ctx.at_start {
                    self.add(pc + 1);
                }
            }
            Inst::Assert(Assertion::End) => {
                if self.ctx.at_eoi {
                    self.add(pc + 1);
                } else {
                    // Keep as a pending pc: it may pass at EOI.
                    self.list.push(pc);
                }
            }
            Inst::Assert(_) => unreachable!("word boundaries rejected by Dfa::new"),
            Inst::Class(_) => self.list.push(pc),
            Inst::Match => {
                self.list.push(pc);
                self.matched = true;
            }
        }
    }
}

/// Computes byte equivalence classes: two bytes land in the same class
/// iff no character class in the program separates them.
fn byte_classes(prog: &Program) -> ([u8; 256], usize) {
    let mut boundary = [false; 257];
    boundary[0] = true;
    for inst in &prog.insts {
        if let Inst::Class(c) = inst {
            for &(lo, hi) in c.ranges() {
                boundary[lo as usize] = true;
                boundary[hi as usize + 1] = true;
            }
        }
    }
    // At most 255 boundaries past byte 0, so class ids fit a `u8`.
    let mut map = [0u8; 256];
    let mut id: u8 = 0;
    for b in 0..256 {
        if boundary[b] && b > 0 {
            id += 1;
        }
        map[b] = id;
    }
    (map, id as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::hir::Hir;
    use crate::parser::parse;
    use crate::Syntax;

    /// Compiles `pat` wrapped in the implicit `.*?` prefix (forward
    /// search form).
    fn fwd(pat: &str) -> Dfa {
        let hir = parse(pat, Syntax::Ere).expect("parse");
        let wrapped = Hir::Concat(vec![
            Hir::Repeat {
                inner: Box::new(Hir::Class(crate::hir::ClassSet::any())),
                min: 0,
                max: None,
                greedy: false,
            },
            hir,
        ]);
        Dfa::new(compile(&wrapped).expect("compile"), false).expect("dfa")
    }

    fn rev(pat: &str) -> Dfa {
        let hir = parse(pat, Syntax::Ere).expect("parse").reversed();
        Dfa::new(compile(&hir).expect("compile"), true).expect("dfa")
    }

    fn find(pat: &str, hay: &str) -> Option<(usize, usize)> {
        let f = fwd(pat);
        let r = rev(pat);
        let mut fc = Cache::new();
        let mut rc = Cache::new();
        let end = f
            .find_fwd(&mut fc, hay.as_bytes(), 0, false)
            .expect("fwd")?;
        let start = r
            .find_rev(&mut rc, hay.as_bytes(), 0, end)
            .expect("rev")
            .expect("a match end implies a start");
        Some((start, end))
    }

    /// The Pike VM's answer, for parity checks.
    fn pike(pat: &str, hay: &str) -> Option<(usize, usize)> {
        let prog = compile(&parse(pat, Syntax::Ere).expect("parse")).expect("compile");
        let vm = crate::pikevm::PikeVm::new(&prog);
        vm.find_at(hay.as_bytes(), 0)
            .map(|s| (s[0].expect("start"), s[1].expect("end")))
    }

    #[test]
    fn parity_on_basic_patterns() {
        let cases = [
            ("bc", "abcd"),
            ("a+", "baaac"),
            ("a*", "aaab"),
            ("x*", "yyy"),
            ("ab|a", "ab"),
            ("a|ab", "ab"),
            ("a|ba", "ba"),
            ("a*b|a", "aab"),
            ("a*b|a", "aaxb"),
            ("(a|b)+c", "xxabbacyy"),
            ("a{2,3}", "aaaa"),
            ("x", ""),
            ("x*", ""),
        ];
        for (pat, hay) in cases {
            assert_eq!(find(pat, hay), pike(pat, hay), "pattern `{pat}` on `{hay}`");
        }
    }

    #[test]
    fn parity_with_anchors() {
        let cases = [
            ("^ab", "abab"),
            ("ab$", "abab"),
            ("^ab$", "ab"),
            ("^b", "ab"),
            ("a$", "aba"),
            ("^", "xy"),
            ("$", "xy"),
            ("^$", ""),
            ("^$", "x"),
            ("(a$|b)c", "bc"),
            ("a$b", "ab"),
        ];
        for (pat, hay) in cases {
            assert_eq!(find(pat, hay), pike(pat, hay), "pattern `{pat}` on `{hay}`");
        }
    }

    #[test]
    fn earliest_mode_short_circuits() {
        let f = fwd("b");
        let mut c = Cache::new();
        assert_eq!(
            f.find_fwd(&mut c, b"aaabaaa", 0, true).expect("fwd"),
            Some(4)
        );
        assert_eq!(f.find_fwd(&mut c, b"aaaa", 0, true).expect("fwd"), None);
    }

    #[test]
    fn find_from_offset() {
        let f = fwd("a");
        let r = rev("a");
        let mut fc = Cache::new();
        let mut rc = Cache::new();
        let end = f
            .find_fwd(&mut fc, b"aba", 1, false)
            .expect("fwd")
            .expect("match");
        assert_eq!(end, 3);
        assert_eq!(r.find_rev(&mut rc, b"aba", 1, end).expect("rev"), Some(2));
    }

    #[test]
    fn anchored_pattern_from_offset_fails() {
        let f = fwd("^a");
        let mut c = Cache::new();
        assert_eq!(f.find_fwd(&mut c, b"aaa", 1, false).expect("fwd"), None);
    }

    #[test]
    fn word_boundary_rejected() {
        let hir = parse(r"\bcat\b", Syntax::Ere).expect("parse");
        assert!(Dfa::new(compile(&hir).expect("compile"), false).is_none());
    }

    #[test]
    fn adversarial_pattern_stays_cheap() {
        // (a|a)* explodes a backtracker; the DFA needs O(1) states.
        let f = fwd("(a|a)*b");
        let mut c = Cache::new();
        let hay = vec![b'a'; 4096];
        assert_eq!(f.find_fwd(&mut c, &hay, 0, false).expect("fwd"), None);
        assert!(c.states.len() < 16, "state blowup: {}", c.states.len());
    }

    /// Every table entry is a tag, or the premultiplied offset of a
    /// live row with at most the match tag on it.
    fn assert_table_is_well_formed(d: &Dfa, c: &Cache) {
        assert_eq!(c.table.len(), c.states.len() * d.stride);
        for (slot, &e) in c.table.iter().enumerate() {
            if e == UNKNOWN || e == DEAD {
                continue;
            }
            if d.has_eoi && slot % d.stride == d.class_count {
                assert_eq!(e, TAG_MATCH, "end-of-input column holds flags only");
                continue;
            }
            assert_eq!(e & (TAG_DEAD | TAG_UNKNOWN), 0, "entry {e:#x}");
            let row = (e & ID_MASK) as usize;
            assert_eq!(row % d.stride, 0, "id {e:#x} is not a row offset");
            assert!(row < c.table.len(), "id {e:#x} names no row");
            let is_match = c.states[row / d.stride]
                .iter()
                .any(|&pc| matches!(d.prog.insts[pc as usize], Inst::Match));
            assert_eq!(e & TAG_MATCH != 0, is_match, "match tag of {e:#x}");
        }
    }

    #[test]
    fn ids_are_tagged_row_offsets() {
        let f = fwd("ab|c$");
        let mut c = Cache::new();
        // Nothing is allocated before the first search.
        assert!(c.table.is_empty() && c.states.is_empty());
        for hay in ["xxabxx", "c", "xcx", "", "abab"] {
            f.find_fwd(&mut c, hay.as_bytes(), 0, false).expect("fwd");
        }
        assert_table_is_well_formed(&f, &c);
        // One row per state built, and no more.
        assert_eq!(c.states.len() as u64, c.states_built());
        // The start state is a plain offset, the state after `ab`
        // carries the match tag, and both are recognisable as such
        // without touching the table.
        let start = f.start_state(&mut c, true).expect("start");
        assert!(start < TAGGED);
        let class = |b: u8| f.byte2class[b as usize] as usize;
        let after_a = c.table[start as usize + class(b'a')];
        assert!(after_a < TAGGED);
        let after_ab = c.table[after_a as usize + class(b'b')];
        assert!(after_ab >= TAGGED && after_ab & TAG_MATCH != 0);
    }

    #[test]
    fn anchored_program_reaches_the_dead_state() {
        // Compiled without the `.*?` prefix, as `Regex` does for a
        // pattern that begins with `^`: the first byte decides.
        let hir = parse("^[a-m]", Syntax::Ere).expect("parse");
        let f = Dfa::new(compile(&hir).expect("compile"), false).expect("dfa");
        let mut c = Cache::new();
        assert_eq!(f.find_fwd(&mut c, b"zebra", 0, true).expect("fwd"), None);
        assert_eq!(f.find_fwd(&mut c, b"apple", 0, true).expect("fwd"), Some(1));
        let start = f.start_state(&mut c, true).expect("start");
        assert_eq!(
            c.table[start as usize + f.byte2class[b'z' as usize] as usize],
            DEAD
        );
        // Mid-text, `^` cannot hold: the start state itself is dead.
        assert_eq!(f.start_state(&mut c, false).expect("start"), DEAD);
        assert_eq!(f.find_fwd(&mut c, b"apple", 1, true).expect("fwd"), None);
        assert_table_is_well_formed(&f, &c);
    }

    #[test]
    fn ids_survive_a_cache_clear() {
        // A budget of four states under a pattern that needs more: the
        // cache is cleared again and again in the middle of scans, and
        // every id handed back across a clear must name a row of the
        // *new* table.
        let pat = "(ab|cd|ef|gh){1,8}x$";
        let mut f = fwd(pat);
        f.max_states = 4;
        let mut c = Cache::new();
        let hay = b"abcdefghabcdefghx".repeat(2);
        let got = f.find_fwd(&mut c, &hay, 0, false).expect("fwd");
        assert!(c.clears() >= 2, "clears {}", c.clears());
        assert_table_is_well_formed(&f, &c);
        assert!(c.states.len() <= 4);
        let prog = compile(&parse(pat, Syntax::Ere).expect("parse")).expect("compile");
        let vm = crate::pikevm::PikeVm::new(&prog);
        let want = vm.find_at(&hay, 0).map(|s| s[1].expect("end"));
        assert_eq!(got, want);
        // The line scan restarts from the start state at every line:
        // it must pick up the renamed start state after a clear.
        let mut c = Cache::new();
        let block = b"abx\ncdcd\nefghx\n\nghabcdx\nx\n";
        let mut stats = Stats::default();
        let mut found = Vec::new();
        let mut at = 0;
        while let Some((s, e)) = f
            .find_line(&mut c, None, block, at, &mut stats)
            .expect("within MAX_CLEARS")
        {
            found.push(&block[s..e]);
            at = e + 1;
        }
        assert_eq!(found, [&b"abx"[..], b"efghx", b"ghabcdx"]);
        assert!(c.clears() >= 2, "clears {}", c.clears());
        assert_eq!(stats.dfa_lines, 6);
        assert_table_is_well_formed(&f, &c);
    }

    #[test]
    fn thrashing_cache_gives_up_for_good() {
        let mut f = fwd("(ab|cd|ef|gh){1,8}x");
        f.max_states = 2;
        let mut c = Cache::new();
        let block = b"abcdefgh\n".repeat(40);
        let mut stats = Stats::default();
        // The error names the line the scan was in.
        let resume = f
            .find_line(&mut c, None, &block, 0, &mut stats)
            .expect_err("gives up");
        assert_eq!(resume % 9, 0);
        assert_eq!(stats.dfa_lines as usize, resume / 9);
        assert_eq!(c.clears(), MAX_CLEARS);
        assert_eq!(f.find_fwd(&mut c, b"abx", 0, true), Err(GaveUp));
        assert_eq!(f.find_line(&mut c, None, &block, 18, &mut stats), Err(18));
    }

    #[test]
    fn cache_clear_keeps_answers_correct() {
        // A pattern with many distinct states: alternation of counted
        // runs. Force a tiny cache by searching many distinct inputs.
        let f = fwd("(ab|cd|ef|gh){1,8}x");
        let mut c = Cache::new();
        let hay = b"abcdefghabcdefghx".repeat(4);
        let got = f.find_fwd(&mut c, &hay, 0, false).expect("fwd");
        let prog =
            compile(&parse("(ab|cd|ef|gh){1,8}x", Syntax::Ere).expect("parse")).expect("compile");
        let vm = crate::pikevm::PikeVm::new(&prog);
        let want = vm.find_at(&hay, 0).map(|s| s[1].expect("end"));
        assert_eq!(got, want);
    }

    #[test]
    fn byte_class_compression() {
        let prog = compile(&parse("[a-z]+", Syntax::Ere).expect("parse")).expect("compile");
        let (map, count) = byte_classes(&prog);
        // [0, 'a'..'z', rest] plus boundaries → a handful of classes.
        assert!(count <= 4, "count {count}");
        assert_eq!(map[b'a' as usize], map[b'm' as usize]);
        assert_ne!(map[b'a' as usize], map[b'A' as usize]);
    }
}
