//! A small linear-time regular-expression engine for the PaSh
//! reproduction.
//!
//! Supports POSIX extended (ERE) and basic (BRE) syntaxes over bytes,
//! with ASCII case folding, POSIX named classes, anchors, word
//! boundaries, bounded repetition, and capture groups.
//!
//! Matching is **tiered** (see [`Matcher`]): literal extraction over
//! the parsed pattern picks the cheapest engine that can answer —
//!
//! 1. an exact-literal pattern is pure substring search
//!    ([`memmem`], word-at-a-time);
//! 2. a general pattern with a required literal gets a prefilter that
//!    rejects haystacks (and bounds match starts) at `memchr` speed;
//! 3. a general pattern whose matches all start with one of at most
//!    eight literals of two bytes or more, and that has no required
//!    literal of two bytes, gets a *literal set* instead: a packed
//!    SIMD scan ([`teddy`]) for the first place any of them starts;
//! 4. surviving candidates run through a lazy DFA ([`dfa`]) — one
//!    flat transition table, one load and one compare per byte, states
//!    determinized on demand under a bounded cache;
//! 5. the Pike VM ([`pikevm`]) remains the capture engine and the
//!    fallback when the DFA cache thrashes or the pattern uses
//!    word-boundary assertions.
//!
//! Line-oriented callers (`grep`) do not restart the engine per line:
//! [`Matcher::find_line`] walks a block of whole lines through the
//! same tiers in one call, and a two-byte literal or a literal set
//! lets it pass over every line without a candidate untouched.
//!
//! Every tier is `O(haystack)` — backtracking blow-ups cannot occur,
//! which is what the paper's "complex NFA regex" grep benchmark
//! exercises. Unsupported (by design, to stay linear): backreferences.
//!
//! # Examples
//!
//! ```
//! use pash_regex::{Regex, Syntax};
//!
//! let re = Regex::new("(ab|a)+c", Syntax::Ere).unwrap();
//! assert!(re.is_match(b"xxabacyy"));
//! assert_eq!(re.find(b"xxabacyy"), Some((2, 6)));
//!
//! // Hot paths hold a Matcher: same answers, persistent DFA cache.
//! let mut m = re.matcher();
//! assert!(m.is_match(b"xxabacyy"));
//! ```

pub mod compile;
pub mod dfa;
pub mod hir;
pub mod literal;
pub mod memmem;
pub mod parser;
pub mod pikevm;
pub mod teddy;

use std::sync::Arc;

use compile::Program;
use hir::Hir;
use literal::{Literals, Prefilter};
use memmem::{memchr, memrchr};
use pikevm::PikeVm;

/// Pattern syntax selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Syntax {
    /// POSIX extended regular expressions (`grep -E`, `sed -E`).
    Ere,
    /// POSIX basic regular expressions (`grep`, `sed` default).
    Bre,
}

/// A regex construction or execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "regex error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// The per-pattern match strategy, chosen once at compile time.
#[derive(Debug)]
enum Plan {
    /// The pattern matches exactly one byte string: substring search
    /// (or prefix/suffix compare under anchors), no automaton.
    Literal {
        finder: memmem::Finder,
        anchored_start: bool,
        anchored_end: bool,
    },
    /// General pattern: optional literal prefilter, lazy DFA when the
    /// pattern admits one, Pike VM otherwise and as fallback.
    General {
        prefilter: Option<Prefilter>,
        /// Maximum offset from the match start at which the prefilter
        /// literal's guaranteed occurrence can begin: a hit at `h`
        /// proves no match starts before `h - max_start`, so the scan
        /// starts there instead of rescanning from the beginning. A
        /// required prefix and a literal set are `Some(0)`; `None` =
        /// containment only.
        prefilter_max_start: Option<usize>,
    },
}

/// Everything immutable shared by [`Regex`], its clones, and all
/// [`Matcher`]s derived from it.
#[derive(Debug)]
struct Inner {
    /// The capture-carrying NFA program (Pike VM tier).
    prog: Program,
    plan: Plan,
    /// Forward DFA over the `.*?`-wrapped pattern (leftmost ends).
    fwd: Option<dfa::Dfa>,
    /// Reverse DFA over the reversed pattern (match starts).
    rev: Option<dfa::Dfa>,
    /// What a block scan searches for before it looks at a line: the
    /// literal tier's needle, or a general prefilter that passes
    /// [`Prefilter::is_line_filter`].
    line_filter: Option<Prefilter>,
}

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    inner: Arc<Inner>,
    pattern: String,
}

impl Regex {
    /// Compiles a pattern under the given syntax.
    pub fn new(pattern: &str, syntax: Syntax) -> Result<Regex, Error> {
        Self::with_flags(pattern, syntax, false)
    }

    /// Compiles a pattern with optional ASCII case-insensitivity.
    pub fn with_flags(
        pattern: &str,
        syntax: Syntax,
        case_insensitive: bool,
    ) -> Result<Regex, Error> {
        let mut hir = parser::parse(pattern, syntax)?;
        // Literal extraction sees the *unfolded* parse: folding turns
        // every letter into a two-branch class, which would discard
        // the literals that make `grep -i` prefilterable. The
        // extracted literals are lowercased and matched caselessly
        // instead.
        let lits = if case_insensitive {
            literal::analyze_caseless(&hir)
        } else {
            literal::analyze(&hir)
        };
        if case_insensitive {
            fold_hir(&mut hir);
        }
        let prog = compile::compile(&hir)?;
        let plan = Self::pick_plan(&lits);
        let (fwd, rev) = match plan {
            // The literal tier never needs an automaton for spans.
            Plan::Literal { .. } => (None, None),
            Plan::General { .. } => build_dfas(&hir, lits.anchored_start),
        };
        let line_filter = match &plan {
            Plan::Literal { finder, .. } => {
                (!finder.needle().is_empty()).then(|| Prefilter::Literal(finder.clone()))
            }
            Plan::General { prefilter, .. } => prefilter.clone().filter(Prefilter::is_line_filter),
        };
        Ok(Regex {
            inner: Arc::new(Inner {
                prog,
                plan,
                fwd,
                rev,
                line_filter,
            }),
            pattern: pattern.to_string(),
        })
    }

    fn pick_plan(lits: &Literals) -> Plan {
        if let Some(exact) = &lits.exact {
            let finder = if lits.caseless {
                memmem::Finder::new_caseless(exact)
            } else {
                memmem::Finder::new(exact)
            };
            return Plan::Literal {
                finder,
                anchored_start: lits.anchored_start,
                anchored_end: lits.anchored_end,
            };
        }
        match literal::prefilter(lits) {
            Some((pf, max_start)) => Plan::General {
                prefilter: Some(pf),
                prefilter_max_start: max_start,
            },
            None => Plan::General {
                prefilter: None,
                prefilter_max_start: None,
            },
        }
    }

    /// Returns the original pattern string.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// The number of capture groups, the whole match not counted.
    pub fn groups(&self) -> usize {
        self.inner.prog.groups - 1
    }

    /// Creates a [`Matcher`] for this pattern.
    ///
    /// The matcher owns the mutable lazy-DFA caches, so a hot loop
    /// (one `is_match` per line) amortizes determinization across
    /// calls. The convenience methods below build a fresh matcher per
    /// call — same answers, cold cache.
    pub fn matcher(&self) -> Matcher {
        Matcher {
            inner: Arc::clone(&self.inner),
            fwd_cache: dfa::Cache::new(),
            rev_cache: dfa::Cache::new(),
            stats: Stats::default(),
        }
    }

    /// Tests whether the pattern matches anywhere in the haystack.
    pub fn is_match(&self, hay: &[u8]) -> bool {
        self.matcher().is_match(hay)
    }

    /// Finds the leftmost match and returns its `(start, end)` offsets.
    pub fn find(&self, hay: &[u8]) -> Option<(usize, usize)> {
        self.matcher().find_at(hay, 0)
    }

    /// Finds the leftmost match at or after `start`.
    pub fn find_at(&self, hay: &[u8], start: usize) -> Option<(usize, usize)> {
        self.matcher().find_at(hay, start)
    }

    /// Finds the leftmost match and returns all capture-group spans.
    ///
    /// Index 0 is the whole match; groups that did not participate are
    /// `None`.
    pub fn captures(&self, hay: &[u8]) -> Option<Vec<Option<(usize, usize)>>> {
        self.matcher().captures_at(hay, 0)
    }

    /// Like [`Regex::captures`] starting at an offset.
    pub fn captures_at(&self, hay: &[u8], start: usize) -> Option<Vec<Option<(usize, usize)>>> {
        self.matcher().captures_at(hay, start)
    }

    /// Iterates over non-overlapping matches.
    pub fn find_iter<'h>(&self, hay: &'h [u8]) -> Matches<'h> {
        Matches {
            matcher: self.matcher(),
            hay,
            at: 0,
            done: false,
        }
    }
}

/// Builds the forward (`.*?`-wrapped, leftmost) and reverse
/// (reversed pattern, longest) lazy DFAs, when the pattern admits
/// them (no word boundaries, program within size bounds).
///
/// A pattern that begins with `^` matches at offset 0 or nowhere, so
/// its forward DFA is compiled without the seeding prefix: instead of
/// idling in the `.*?` loop to the end of a haystack that has already
/// failed, it reaches the dead state and the scan stops.
fn build_dfas(hir: &Hir, anchored_start: bool) -> (Option<dfa::Dfa>, Option<dfa::Dfa>) {
    let wrapped = if anchored_start {
        hir.clone()
    } else {
        Hir::Concat(vec![
            Hir::Repeat {
                inner: Box::new(Hir::Class(hir::ClassSet::any())),
                min: 0,
                max: None,
                greedy: false,
            },
            hir.clone(),
        ])
    };
    let fwd = compile::compile(&wrapped)
        .ok()
        .and_then(|p| dfa::Dfa::new(p, false));
    let rev = compile::compile(&hir.reversed())
        .ok()
        .and_then(|p| dfa::Dfa::new(p, true));
    // `find` needs both directions; degrade in lockstep so the tier
    // choice is all-or-nothing.
    match (fwd, rev) {
        (Some(f), Some(r)) => (Some(f), Some(r)),
        _ => (None, None),
    }
}

/// What a [`Matcher`] has done since it was created: how large its
/// automata grew and which engine answered. A pattern that silently
/// falls off the DFA tier shows up here as give-ups and Pike VM runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// DFA states determinized, forward and reverse, clears included.
    pub dfa_states: u64,
    /// Times a DFA cache filled up and was cleared.
    pub cache_clears: u64,
    /// Searches a DFA abandoned (cache thrashing) and the Pike VM
    /// redid.
    pub give_ups: u64,
    /// Haystacks (lines, under [`Matcher::find_line`]) the DFA tier
    /// answered.
    pub dfa_lines: u64,
    /// Pike VM runs: fallbacks, word-boundary patterns, captures.
    pub pike_lines: u64,
    /// Searches a literal set ran. Each passes over every line up to
    /// the next one a literal of the set starts in, or to the end,
    /// with no engine run on the lines passed.
    pub set_searches: u64,
}

/// The tiered match engine for one pattern; see [`Regex::matcher`].
///
/// Methods take `&mut self` because the lazy-DFA caches fill in as
/// haystack bytes are seen. Answers are byte-identical to the Pike
/// VM's (the differential suite in `tests/` asserts this).
pub struct Matcher {
    inner: Arc<Inner>,
    fwd_cache: dfa::Cache,
    rev_cache: dfa::Cache,
    /// The counters no cache keeps (`give_ups`, `*_lines`).
    stats: Stats,
}

impl Matcher {
    /// Tests whether the pattern matches anywhere in the haystack.
    pub fn is_match(&mut self, hay: &[u8]) -> bool {
        self.is_match_at(hay, 0)
    }

    /// Like [`Matcher::is_match`] starting at an offset.
    pub fn is_match_at(&mut self, hay: &[u8], start: usize) -> bool {
        if start > hay.len() {
            return false;
        }
        match &self.inner.plan {
            Plan::Literal { .. } => self.literal_find(hay, start).is_some(),
            Plan::General { .. } => {
                let start = match self.prefilter_start(hay, start) {
                    Some(s) => s,
                    None => return false,
                };
                if let Some(fwd) = &self.inner.fwd {
                    match fwd.find_fwd(&mut self.fwd_cache, hay, start, true) {
                        Ok(r) => {
                            self.stats.dfa_lines += 1;
                            return r.is_some();
                        }
                        Err(dfa::GaveUp) => self.stats.give_ups += 1,
                    }
                }
                self.pike_slots(hay, start).is_some()
            }
        }
    }

    /// Finds the leftmost match and returns its `(start, end)` offsets.
    pub fn find(&mut self, hay: &[u8]) -> Option<(usize, usize)> {
        self.find_at(hay, 0)
    }

    /// Finds the leftmost match at or after `start`.
    pub fn find_at(&mut self, hay: &[u8], start: usize) -> Option<(usize, usize)> {
        if start > hay.len() {
            return None;
        }
        match &self.inner.plan {
            Plan::Literal { .. } => self.literal_find(hay, start),
            Plan::General { .. } => {
                let start = self.prefilter_start(hay, start)?;
                match self.dfa_find(hay, start) {
                    Some(span) => span,
                    None => self.pike_find(hay, start),
                }
            }
        }
    }

    /// Finds the leftmost match and returns all capture-group spans
    /// (index 0 is the whole match).
    pub fn captures_at(&mut self, hay: &[u8], start: usize) -> Option<Vec<Option<(usize, usize)>>> {
        let mut caps = Vec::new();
        self.captures_into(hay, start, &mut caps).then_some(caps)
    }

    /// [`Matcher::captures_at`] into a caller-owned vector, so a loop
    /// over lines reuses one allocation. Returns whether there was a
    /// match; `caps` is meaningful only then.
    ///
    /// Captures always run on the Pike VM — the only tier that tracks
    /// slots — but only after a cheaper tier has found the match: a
    /// haystack with none never reaches the VM, and the VM starts at
    /// the match's first byte.
    pub fn captures_into(
        &mut self,
        hay: &[u8],
        start: usize,
        caps: &mut Vec<Option<(usize, usize)>>,
    ) -> bool {
        if start > hay.len() {
            return false;
        }
        let start = match &self.inner.plan {
            Plan::Literal { .. } => self.literal_find(hay, start).map(|(s, _)| s),
            Plan::General { .. } => self.prefilter_start(hay, start).and_then(|start| {
                match self.dfa_find(hay, start) {
                    Some(span) => span.map(|(s, _)| s),
                    // No DFA answer: the VM searches from here itself.
                    None => Some(start),
                }
            }),
        };
        let Some(start) = start else {
            return false;
        };
        let Some(slots) = self.pike_slots(hay, start) else {
            return false;
        };
        caps.clear();
        caps.extend(slots.chunks_exact(2).map(|se| match (se[0], se[1]) {
            (Some(s), Some(e)) => Some((s, e)),
            _ => None,
        }));
        true
    }

    /// Finds the first line of `block` at or after `from` that the
    /// pattern matches, as `(start, end)` with the line terminator
    /// excluded; `None` when no line from `from` on matches.
    ///
    /// `block` is a run of lines, each ending in `\n` except possibly
    /// the last; `from` is the start of one of them (or `block.len()`).
    /// Every line is matched as its own haystack — `^` and `$` hold at
    /// its boundaries — with the same answer [`Matcher::is_match`]
    /// gives for it, but without restarting the engine per line: the
    /// lazy DFA runs across the block and restarts from its cached
    /// line-start state at each `\n`, leaves a line at its first match
    /// state, and consults the line filter (a required literal of two
    /// bytes or more, or a literal set) only at line starts: the lines
    /// before its next hit are passed over without a DFA step, and
    /// under a set the DFA starts at the hit itself. The lines in
    /// `from..start` are thereby known not to match, so a caller gets
    /// matched lines and the gaps between them by calling again from
    /// `end + 1`.
    ///
    /// Patterns the DFA refuses (word boundaries) or gives up on are
    /// finished inside the same call, line by line on the Pike VM.
    pub fn find_line(&mut self, block: &[u8], from: usize) -> Option<(usize, usize)> {
        let mut from = from;
        let inner = &*self.inner;
        if let (Plan::General { .. }, Some(fwd)) = (&inner.plan, &inner.fwd) {
            let filter = inner.line_filter.as_ref();
            match fwd.find_line(&mut self.fwd_cache, filter, block, from, &mut self.stats) {
                Ok(found) => return found,
                Err(resume) => {
                    self.stats.give_ups += 1;
                    from = resume;
                }
            }
        }
        // Literal tier, or no DFA: candidate lines by the filter,
        // each verified on its own.
        let inner = Arc::clone(&self.inner);
        let mut line = from;
        while line < block.len() {
            let mut probe = line;
            if let Some(f) = &inner.line_filter {
                (line, probe) = next_candidate(f, block, line, &mut self.stats)?;
            }
            let end = memchr(b'\n', &block[probe..]).map_or(block.len(), |k| probe + k);
            if self.is_match(&block[line..end]) {
                return Some((line, end));
            }
            line = end + 1;
        }
        None
    }

    /// Counters for this matcher's life so far; see [`Stats`].
    pub fn stats(&self) -> Stats {
        Stats {
            dfa_states: self.fwd_cache.states_built() + self.rev_cache.states_built(),
            cache_clears: u64::from(self.fwd_cache.clears() + self.rev_cache.clears()),
            ..self.stats
        }
    }

    /// Applies the prefilter at `start`: `None` means no match exists
    /// anywhere at-or-after `start`; otherwise the (possibly advanced)
    /// scan start.
    fn prefilter_start(&mut self, hay: &[u8], start: usize) -> Option<usize> {
        match &self.inner.plan {
            Plan::General {
                prefilter: Some(pf),
                prefilter_max_start,
            } => {
                if matches!(pf, Prefilter::Set(_)) {
                    self.stats.set_searches += 1;
                }
                let hit = start + pf.find(&hay[start..])?;
                // The literal's guaranteed occurrence starts at most
                // `max_start` bytes into its match, and the leftmost
                // occurrence at-or-after `start` is at `hit`, so no
                // match starts before `hit - max_start`. The scan
                // proceeds forward from there — one pass even for
                // inner literals (when the bound exists).
                match prefilter_max_start {
                    Some(b) => Some(hit.saturating_sub(*b).max(start)),
                    None => Some(start),
                }
            }
            _ => Some(start),
        }
    }

    /// Exact-literal search honoring anchors.
    fn literal_find(&self, hay: &[u8], start: usize) -> Option<(usize, usize)> {
        let Plan::Literal {
            finder,
            anchored_start,
            anchored_end,
        } = &self.inner.plan
        else {
            unreachable!("literal_find called on general plan");
        };
        let n = finder.needle().len();
        match (anchored_start, anchored_end) {
            (true, true) => (start == 0 && finder.matches(hay)).then_some((0, n)),
            (true, false) => {
                (start == 0 && hay.len() >= n && finder.matches(&hay[..n])).then_some((0, n))
            }
            (false, true) => (hay.len() >= n + start && finder.matches(&hay[hay.len() - n..]))
                .then(|| (hay.len() - n, hay.len())),
            (false, false) => finder
                .find(&hay[start..])
                .map(|off| (start + off, start + off + n)),
        }
    }

    /// The DFA tier's leftmost match at or after `start`: forward scan
    /// for the end, reverse scan for the start. The outer `None` means
    /// the DFAs cannot say (absent, or gave up) and the Pike VM must.
    fn dfa_find(&mut self, hay: &[u8], start: usize) -> Option<Option<(usize, usize)>> {
        let (Some(fwd), Some(rev)) = (&self.inner.fwd, &self.inner.rev) else {
            return None;
        };
        let end = match fwd.find_fwd(&mut self.fwd_cache, hay, start, false) {
            Ok(None) => {
                self.stats.dfa_lines += 1;
                return Some(None);
            }
            Ok(Some(end)) => end,
            Err(dfa::GaveUp) => {
                self.stats.give_ups += 1;
                return None;
            }
        };
        match rev.find_rev(&mut self.rev_cache, hay, start, end) {
            Ok(Some(s)) => {
                self.stats.dfa_lines += 1;
                Some(Some((s, end)))
            }
            // A match end always has a start; were the two automata
            // ever to disagree, the VM arbitrates.
            Ok(None) => None,
            Err(dfa::GaveUp) => {
                self.stats.give_ups += 1;
                None
            }
        }
    }

    /// Runs the Pike VM from `start`, returning raw capture slots.
    fn pike_slots(&mut self, hay: &[u8], start: usize) -> Option<Vec<Option<usize>>> {
        self.stats.pike_lines += 1;
        PikeVm::new(&self.inner.prog).find_at(hay, start)
    }

    /// The Pike VM's leftmost match at or after `start`.
    fn pike_find(&mut self, hay: &[u8], start: usize) -> Option<(usize, usize)> {
        self.pike_slots(hay, start)
            .and_then(|s| match (s[0], s[1]) {
                (Some(a), Some(b)) => Some((a, b)),
                _ => None,
            })
    }
}

/// The next line of `block`, from the line start `line` on, in which
/// `filter` finds a candidate, as `(line start, hit)`; `None` when no
/// line from `line` on holds one. A literal set's search is counted
/// in `stats`.
pub(crate) fn next_candidate(
    filter: &Prefilter,
    block: &[u8],
    line: usize,
    stats: &mut Stats,
) -> Option<(usize, usize)> {
    let rest = &block[line..];
    let hit = match filter {
        Prefilter::Literal(f) => f.find(rest)?,
        Prefilter::Set(t) => {
            stats.set_searches += 1;
            t.find(rest)?
        }
    };
    let start = memrchr(b'\n', &rest[..hit]).map_or(0, |k| k + 1);
    Some((line + start, line + hit))
}

fn fold_hir(hir: &mut hir::Hir) {
    match hir {
        hir::Hir::Class(c) => c.case_fold(),
        hir::Hir::Concat(v) | hir::Hir::Alt(v) => v.iter_mut().for_each(fold_hir),
        hir::Hir::Repeat { inner, .. } => fold_hir(inner),
        hir::Hir::Group { inner, .. } => fold_hir(inner),
        hir::Hir::Empty | hir::Hir::Assert(_) => {}
    }
}

/// Iterator over non-overlapping matches; see [`Regex::find_iter`].
pub struct Matches<'h> {
    matcher: Matcher,
    hay: &'h [u8],
    at: usize,
    done: bool,
}

impl Iterator for Matches<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.done {
            return None;
        }
        let (s, e) = self.matcher.find_at(self.hay, self.at)?;
        if e == s {
            // Empty match: advance one byte to guarantee progress.
            self.at = e + 1;
            if self.at > self.hay.len() {
                self.done = true;
            }
        } else {
            self.at = e;
        }
        Some((s, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive() {
        let re = Regex::with_flags("abc", Syntax::Ere, true).expect("compile");
        assert!(re.is_match(b"xAbCx"));
        let re = Regex::with_flags("[a-z]+", Syntax::Ere, true).expect("compile");
        assert_eq!(re.find(b"HELLO"), Some((0, 5)));
    }

    #[test]
    fn case_insensitive_keeps_literal_tier() {
        let re = Regex::with_flags("abc", Syntax::Ere, true).expect("compile");
        assert!(matches!(re.inner.plan, Plan::Literal { .. }));
        assert_eq!(re.find(b"xxABCyy"), Some((2, 5)));
        assert_eq!(re.find(b"xxAbCyy"), Some((2, 5)));
        assert_eq!(re.find(b"xxAbXyy"), None);
        let re = Regex::with_flags("^Foo$", Syntax::Ere, true).expect("compile");
        assert!(re.is_match(b"FOO"));
        assert!(re.is_match(b"foo"));
        assert!(!re.is_match(b"fooo"));
    }

    #[test]
    fn case_insensitive_keeps_prefilter() {
        // The point of the caseless literal path: `grep -i` patterns
        // still prune non-candidate haystacks at memchr speed.
        let re = Regex::with_flags("foo[0-9]+bar", Syntax::Ere, true).expect("compile");
        let pf = re.inner.line_filter.as_ref().expect("prefilter");
        assert_eq!(pf.find(b"nothing here"), None);
        assert!(pf.find(b"xx FOO1BAR yy").is_some());
        assert_eq!(re.find(b"xx FoO42bAr yy"), Some((3, 11)));
    }

    #[test]
    fn find_iter_nonoverlapping() {
        let re = Regex::new("ab", Syntax::Ere).expect("compile");
        let v: Vec<_> = re.find_iter(b"abxabab").collect();
        assert_eq!(v, vec![(0, 2), (3, 5), (5, 7)]);
    }

    #[test]
    fn find_iter_empty_matches_progress() {
        let re = Regex::new("x*", Syntax::Ere).expect("compile");
        let v: Vec<_> = re.find_iter(b"ab").collect();
        // One empty match per position, all making progress.
        assert!(v.len() <= 3);
        assert!(v.iter().all(|&(s, e)| s == e));
    }

    #[test]
    fn bre_vs_ere_plus() {
        let bre = Regex::new("a+", Syntax::Bre).expect("compile");
        assert!(bre.is_match(b"a+"));
        assert!(!bre.is_match(b"aa"));
        let ere = Regex::new("a+", Syntax::Ere).expect("compile");
        assert!(ere.is_match(b"aa"));
    }

    #[test]
    fn bre_escaped_group() {
        let re = Regex::new(r"\(ab\)*c", Syntax::Bre).expect("compile");
        assert_eq!(re.find(b"xababc"), Some((1, 6)));
    }

    #[test]
    fn captures_api() {
        let re = Regex::new("(a)(b)?", Syntax::Ere).expect("compile");
        let caps = re.captures(b"a").expect("match");
        assert_eq!(caps[0], Some((0, 1)));
        assert_eq!(caps[1], Some((0, 1)));
        assert_eq!(caps[2], None);
    }

    #[test]
    fn display_error() {
        let err = Regex::new("(", Syntax::Ere).unwrap_err();
        assert!(err.to_string().contains("regex error"));
    }

    #[test]
    fn dollar_mid_pattern() {
        let re = Regex::new("a$", Syntax::Ere).expect("compile");
        assert!(re.is_match(b"ba"));
        assert!(!re.is_match(b"ab"));
    }

    #[test]
    fn complex_nfa_pattern() {
        // The shape of PaSh's "expensive grep" benchmark pattern.
        let re = Regex::new("(a|b|c|d|e)+(f|g|h)*(ij|kl)+m", Syntax::Ere).expect("compile");
        assert!(re.is_match(b"xxabcdefghijklmyy"));
        assert!(!re.is_match(b"xxabcdefgh"));
    }

    #[test]
    fn literal_tier_selected_for_plain_strings() {
        let re = Regex::new("foobar", Syntax::Ere).expect("compile");
        assert!(matches!(re.inner.plan, Plan::Literal { .. }));
        assert_eq!(re.find(b"xx foobar yy"), Some((3, 9)));
        assert_eq!(re.find(b"xx foobaz yy"), None);
    }

    #[test]
    fn literal_tier_with_anchors() {
        let re = Regex::new("^foo", Syntax::Ere).expect("compile");
        assert_eq!(re.find(b"foox"), Some((0, 3)));
        assert_eq!(re.find(b"xfoo"), None);
        assert_eq!(re.find_at(b"foox", 1), None);
        let re = Regex::new("foo$", Syntax::Ere).expect("compile");
        assert_eq!(re.find(b"xfoo"), Some((1, 4)));
        assert_eq!(re.find(b"foox"), None);
        let re = Regex::new("^foo$", Syntax::Ere).expect("compile");
        assert!(re.is_match(b"foo"));
        assert!(!re.is_match(b"foon"));
    }

    #[test]
    fn literal_tier_captures_through_groups() {
        // `(ab)c` is exact "abc" but still has a capture group.
        let re = Regex::new("(ab)c", Syntax::Ere).expect("compile");
        assert!(matches!(re.inner.plan, Plan::Literal { .. }));
        let caps = re.captures(b"xabcy").expect("match");
        assert_eq!(caps[0], Some((1, 4)));
        assert_eq!(caps[1], Some((1, 3)));
    }

    #[test]
    fn general_tier_uses_dfa() {
        let re = Regex::new("foo[0-9]+", Syntax::Ere).expect("compile");
        assert!(re.inner.fwd.is_some() && re.inner.rev.is_some());
        assert_eq!(re.find(b"xx foo42 yy"), Some((3, 8)));
        assert!(!re.is_match(b"xx foo yy"));
    }

    #[test]
    fn word_boundary_pattern_stays_on_pikevm() {
        let re = Regex::new(r"\bcat\b", Syntax::Ere).expect("compile");
        assert!(re.inner.fwd.is_none());
        assert_eq!(re.find(b"a cat sat"), Some((2, 5)));
        assert!(!re.is_match(b"concatenate"));
    }

    #[test]
    fn matcher_reuse_across_haystacks() {
        let re = Regex::new("(a|b)+c[0-9]", Syntax::Ere).expect("compile");
        let mut m = re.matcher();
        for _ in 0..3 {
            assert!(m.is_match(b"zz abbac7 zz"));
            assert!(!m.is_match(b"zz abbac zz"));
            assert_eq!(m.find(b"xac3"), Some((1, 4)));
        }
    }

    #[test]
    fn inner_literal_bound_is_one_pass() {
        // "ERROR" can start at most one byte into a match, so a
        // prefilter hit bounds the scan start instead of forcing a
        // rescan from the haystack beginning.
        let re = Regex::new("[0-9]ERROR", Syntax::Ere).expect("compile");
        assert!(matches!(
            re.inner.plan,
            Plan::General {
                prefilter_max_start: Some(1),
                ..
            }
        ));
        let mut hay = vec![b'x'; 1 << 16];
        hay.extend_from_slice(b"7ERROR tail");
        assert!(re.is_match(&hay));
        assert_eq!(re.find(&hay), Some((1 << 16, (1 << 16) + 6)));
        assert!(!re.is_match(b"xERROR only"));
    }

    #[test]
    fn inner_literal_bound_keeps_later_matches() {
        // The first literal occurrence is not part of a match; the
        // bounded scan must still reach the later one.
        let re = Regex::new("[0-9]ERROR", Syntax::Ere).expect("compile");
        let hay = b"xERROR noise 5ERROR end";
        assert_eq!(re.find(hay), Some((13, 19)));
        assert_eq!(re.find_at(hay, 2), Some((13, 19)));
        let caps = re.captures(hay).expect("match");
        assert_eq!(caps[0], Some((13, 19)));
    }

    #[test]
    fn unbounded_inner_literal_keeps_containment_only() {
        let re = Regex::new("x+needle", Syntax::Ere).expect("compile");
        assert!(matches!(
            re.inner.plan,
            Plan::General {
                prefilter_max_start: None,
                ..
            }
        ));
        assert_eq!(re.find(b"aaxxxneedle"), Some((2, 11)));
        assert!(!re.is_match(b"no nee dle"));
    }

    #[test]
    fn line_filter_is_a_multi_byte_literal_or_a_set() {
        let re = Regex::new("foo[0-9]+bar", Syntax::Ere).expect("compile");
        let pf = re.inner.line_filter.as_ref().expect("prefilter");
        assert_eq!(pf.find(b"nothing here"), None);
        assert!(pf.find(b"xx foo1bar").is_some());
        for pat in ["[ab]+", "x[0-9]+", "(a|b)[a-z]+ (of|the)", "^$"] {
            let re = Regex::new(pat, Syntax::Ere).expect("compile");
            assert!(re.inner.line_filter.is_none(), "`{pat}`");
        }
        let re = Regex::new("(river|signal) [a-z]+ (of|the)", Syntax::Ere).expect("compile");
        let pf = re.inner.line_filter.as_ref().expect("set");
        assert!(matches!(pf, Prefilter::Set(_)));
        assert_eq!(pf.find(b"a river of\nthe signal"), Some(2));
        // An exact one-byte pattern is still a substring search.
        let re = Regex::new("x", Syntax::Ere).expect("compile");
        assert!(matches!(re.inner.plan, Plan::Literal { .. }));
        assert!(re.inner.line_filter.is_some());
    }

    #[test]
    fn a_set_skips_lines_without_a_dfa_step() {
        let re = Regex::new("(river|signal) [a-z]+ (of|the)", Syntax::Ere).expect("compile");
        let mut m = re.matcher();
        let block = b"no\nthe river runs of\nnone here\na signal lost\nsignal fires the\nlast";
        assert_eq!(matched_lines(&mut m, block), vec![(3, 20), (45, 61)]);
        let s = m.stats();
        // `a signal lost` is a candidate the DFA rejects; the three
        // lines that hold none cost no DFA step. One search per
        // candidate, and a last one that finds nothing.
        assert_eq!((s.dfa_lines, s.set_searches), (3, 4));
        assert!(!m.is_match(b"nothing"));
        assert!(m.is_match(b"signal the of"));
        assert_eq!(m.stats().set_searches, 6);
    }

    /// Every `(start, end)` `find_line` yields over `block`.
    fn matched_lines(m: &mut Matcher, block: &[u8]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut at = 0;
        while let Some((s, e)) = m.find_line(block, at) {
            out.push((s, e));
            at = e + 1;
        }
        out
    }

    #[test]
    fn find_line_walks_a_block_on_every_tier() {
        let block = b"a cat sat
concatenate

cat
the cat";
        for (pat, want) in [
            // Literal tier.
            ("cat", vec![(0, 9), (10, 21), (23, 26), (27, 34)]),
            ("^cat$", vec![(23, 26)]),
            ("^$", vec![(22, 22)]),
            // DFA tier, with and without a required literal.
            ("c[a-z]t", vec![(0, 9), (10, 21), (23, 26), (27, 34)]),
            ("cat[a-z]+", vec![(10, 21)]),
            ("^[a-c]", vec![(0, 9), (10, 21), (23, 26)]),
            ("t$", vec![(0, 9), (23, 26), (27, 34)]),
            ("^ *$", vec![(22, 22)]),
            ("x*", vec![(0, 9), (10, 21), (22, 22), (23, 26), (27, 34)]),
            // Pike VM tier.
            (r"\bcat\b", vec![(0, 9), (23, 26), (27, 34)]),
        ] {
            let re = Regex::new(pat, Syntax::Ere).expect("compile");
            let mut m = re.matcher();
            assert_eq!(matched_lines(&mut m, block), want, "`{pat}`");
            // From a later line start.
            assert_eq!(
                m.find_line(block, 23),
                want.iter().copied().find(|&(s, _)| s >= 23),
                "`{pat}` from 23"
            );
            assert_eq!(m.find_line(block, block.len()), None);
        }
    }

    #[test]
    fn find_line_does_not_feed_newlines_to_the_automaton() {
        // `[^a]` would match the terminator; a line is its own haystack.
        let re = Regex::new("b[^a]c", Syntax::Ere).expect("compile");
        let mut m = re.matcher();
        assert_eq!(matched_lines(&mut m, b"xb\ncx\nbxc\n"), vec![(6, 9)]);
    }

    #[test]
    fn stats_tell_the_tiers_apart() {
        let re = Regex::new("c[a-z]t", Syntax::Ere).expect("compile");
        let mut m = re.matcher();
        assert_eq!(m.stats(), Stats::default());
        matched_lines(&mut m, b"cat\ndog\ncut\n");
        let s = m.stats();
        assert_eq!((s.dfa_lines, s.pike_lines, s.give_ups), (3, 0, 0));
        assert!(s.dfa_states > 0 && s.cache_clears == 0);
        let re = Regex::new(r"\bcat\b", Syntax::Ere).expect("compile");
        let mut m = re.matcher();
        matched_lines(&mut m, b"cat\ndog\ncut\n");
        let s = m.stats();
        assert_eq!((s.dfa_lines, s.dfa_states), (0, 0));
        assert!(s.pike_lines > 0);
    }

    #[test]
    fn captures_start_at_the_found_match() {
        let re = Regex::new("([a-z]+)ing", Syntax::Ere).expect("compile");
        let mut m = re.matcher();
        let mut caps = Vec::new();
        assert!(!m.captures_into(b"no such suffix here", 0, &mut caps));
        // The DFA tier rejected the line: the VM never ran.
        assert_eq!(m.stats().pike_lines, 0);
        assert!(m.captures_into(b"the running dog", 0, &mut caps));
        assert_eq!(caps, vec![Some((4, 11)), Some((4, 8))]);
        assert_eq!(m.stats().pike_lines, 1);
        assert!(m.captures_into(b"sing and ring", 4, &mut caps));
        assert_eq!(caps, vec![Some((9, 13)), Some((9, 10))]);
    }
}
