//! Literal extraction: what byte strings must appear in every match?
//!
//! The tiered matcher leans on two facts that a pass over the [`Hir`]
//! can prove before any matching happens:
//!
//! * **exact** — the whole pattern matches exactly one byte string
//!   (`grep -F`, `sed 's/foo/bar/'`): matching is pure substring
//!   search, no automaton at all;
//! * **required** — some byte string occurs in every match: its
//!   absence from a haystack rejects the haystack outright, and a
//!   [`crate::memmem::Finder`] scan for it runs at word-at-a-time
//!   speed. When the literal is a required *prefix*, a hit also
//!   pinpoints the earliest possible match start;
//! * **prefix set** — every match starts with one of a few byte
//!   strings (`(river|mountain) [a-z]+`, which has no required literal
//!   of two bytes): a [`crate::teddy::Teddy`] scan finds the first
//!   place any of them starts, and no match starts before it.
//!
//! The analysis is conservative: when in doubt it reports less (a
//! shorter prefix, no required literal, no set), never more.

use crate::hir::{Assertion, Hir};
use crate::memmem::Finder;
use crate::teddy::{self, Teddy};

/// Longest literal worth carrying around; longer runs are truncated
/// (a truncated prefix/required literal is still sound).
const MAX_LIT: usize = 64;

/// Most literals a prefix set holds: one per bucket of the searcher.
const MAX_SET: usize = teddy::MAX_LITERALS;

/// A byte run contained in every match, with a bound on where inside
/// the match it can begin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequiredLit {
    /// The run's bytes.
    pub bytes: Vec<u8>,
    /// Maximum offset from the match start at which the guaranteed
    /// occurrence of this run can begin; `None` when an unbounded
    /// element (a `*`/`+` repeat) precedes it. A prefilter hit at
    /// haystack position `h` therefore proves no match starts before
    /// `h - max_start` — the one-pass bound the DFA scan uses. A
    /// required prefix has `max_start == Some(0)`.
    pub max_start: Option<usize>,
}

/// The literal facts extracted from one pattern.
#[derive(Debug, Clone)]
pub struct Literals {
    /// When the pattern matches exactly one byte string, that string.
    pub exact: Option<Vec<u8>>,
    /// Every match must start at haystack offset 0 (`^…`).
    pub anchored_start: bool,
    /// Every match must end at the haystack end (`…$`).
    pub anchored_end: bool,
    /// Every match starts with these bytes (possibly empty).
    pub prefix: Vec<u8>,
    /// Maximal byte runs contained in every match.
    pub required: Vec<RequiredLit>,
    /// When proven: at most [`teddy::MAX_LITERALS`] byte strings, one
    /// of which starts every match. Sorted, and none is a prefix of
    /// another.
    pub prefix_set: Option<Vec<Vec<u8>>>,
    /// Literals are ASCII case-insensitive (stored lowercased): every
    /// match contains some case-variant of each required run.
    pub caseless: bool,
}

/// Per-subexpression facts, composed bottom-up.
struct Lits {
    /// The subexpression matches exactly this one string.
    exact: Option<Vec<u8>>,
    /// Every match of the subexpression starts with these bytes.
    prefix: Vec<u8>,
    /// Byte runs contained in every match of the subexpression, with
    /// start offsets relative to the subexpression's own match start.
    required: Vec<RequiredLit>,
}

impl Lits {
    fn opaque() -> Lits {
        Lits {
            exact: None,
            prefix: Vec::new(),
            required: Vec::new(),
        }
    }

    fn exact(bytes: Vec<u8>) -> Lits {
        Lits {
            prefix: bytes.clone(),
            exact: Some(bytes),
            required: Vec::new(),
        }
    }
}

/// Maximum number of bytes a match of `hir` can span; `None` when
/// unbounded. Used to bound where a required run can start inside a
/// match — conservative in the same direction as the rest of the
/// analysis (overestimating is sound, underestimating is not).
fn max_len(hir: &Hir) -> Option<usize> {
    match hir {
        Hir::Empty | Hir::Assert(_) => Some(0),
        Hir::Class(_) => Some(1),
        Hir::Group { inner, .. } => max_len(inner),
        Hir::Concat(parts) => parts
            .iter()
            .try_fold(0usize, |acc, p| Some(acc.saturating_add(max_len(p)?))),
        Hir::Alt(parts) => parts
            .iter()
            .try_fold(0usize, |acc, p| Some(acc.max(max_len(p)?))),
        Hir::Repeat { inner, max, .. } => {
            let m = (*max)? as usize;
            Some(max_len(inner)?.saturating_mul(m))
        }
    }
}

/// Analyzes a case-sensitive pattern.
pub fn analyze(hir: &Hir) -> Literals {
    analyze_with(hir, false)
}

/// Analyzes a pattern that will be matched ASCII case-insensitively.
///
/// Pass the **unfolded** parse: folding rewrites every letter into a
/// two-branch class, which destroys the literal structure this pass
/// extracts. The returned literals are lowercased and flagged
/// `caseless`, so downstream prefilters compare case-insensitively —
/// this is what keeps a prefilter on `grep -i` patterns.
pub fn analyze_caseless(hir: &Hir) -> Literals {
    analyze_with(hir, true)
}

fn analyze_with(hir: &Hir, caseless: bool) -> Literals {
    let (anchored_start, anchored_end, body) = strip_anchors(hir);
    let body = body.as_ref().unwrap_or(&Hir::Empty);
    let mut l = lits(body);
    let prefix_set = starts(body)
        .map(|seq| {
            let mut set: Vec<Vec<u8>> = seq.into_iter().map(|(bytes, _)| bytes).collect();
            if caseless {
                set.iter_mut().for_each(|b| b.make_ascii_lowercase());
            }
            set.sort();
            set.dedup();
            // Sorted, a literal follows the shorter ones it starts with:
            // those already cover every haystack position it would find.
            let mut kept: Vec<Vec<u8>> = Vec::new();
            for b in set {
                if !kept.iter().any(|k| b.starts_with(k)) {
                    kept.push(b);
                }
            }
            kept
        })
        // The empty string starts everything: no set.
        .filter(|set| !set.iter().any(Vec::is_empty));
    if caseless {
        if let Some(e) = l.exact.as_mut() {
            e.make_ascii_lowercase();
        }
        l.prefix.make_ascii_lowercase();
        for r in l.required.iter_mut() {
            r.bytes.make_ascii_lowercase();
        }
    }
    let mut required = l.required;
    if !l.prefix.is_empty() {
        required.push(RequiredLit {
            bytes: l.prefix.clone(),
            max_start: Some(0),
        });
    }
    required.retain(|r| !r.bytes.is_empty());
    // Duplicate byte runs keep the tighter bound: both bounds are
    // true statements about every match, so the minimum is sound.
    required.sort_by(|a, b| {
        a.bytes
            .cmp(&b.bytes)
            .then_with(|| bound_rank(a.max_start).cmp(&bound_rank(b.max_start)))
    });
    required.dedup_by(|a, b| a.bytes == b.bytes);
    Literals {
        exact: l.exact,
        anchored_start,
        anchored_end,
        prefix: l.prefix,
        required,
        prefix_set,
        caseless,
    }
}

/// Splits top-level `^`/`$` anchors off a pattern, returning the
/// remaining body (None when the body is empty).
fn strip_anchors(hir: &Hir) -> (bool, bool, Option<Hir>) {
    match hir {
        Hir::Assert(Assertion::Start) => (true, false, None),
        Hir::Assert(Assertion::End) => (false, true, None),
        Hir::Concat(v) => {
            let mut start = false;
            let mut end = false;
            let mut parts: &[Hir] = v;
            if let Some(Hir::Assert(Assertion::Start)) = parts.first() {
                start = true;
                parts = &parts[1..];
            }
            if let Some(Hir::Assert(Assertion::End)) = parts.last() {
                end = true;
                parts = &parts[..parts.len() - 1];
            }
            (start, end, Some(Hir::concat(parts.to_vec())))
        }
        other => (false, false, Some(other.clone())),
    }
}

fn lits(hir: &Hir) -> Lits {
    match hir {
        Hir::Empty => Lits::exact(Vec::new()),
        // A standalone assertion matches the empty string only under a
        // context condition no literal can express: opaque. (Inside a
        // concatenation it is skipped instead — see `concat_lits` —
        // so `\bfoo\b` still yields the run "foo".)
        Hir::Assert(_) => Lits::opaque(),
        Hir::Class(c) => match c.ranges() {
            [(lo, hi)] if lo == hi => Lits::exact(vec![*lo]),
            _ => Lits::opaque(),
        },
        Hir::Group { inner, .. } => lits(inner),
        Hir::Concat(parts) => concat_lits(parts),
        Hir::Alt(parts) => {
            // Conservative: only the common prefix of all branches
            // survives (no exactness, no inner requirements).
            let mut prefix: Option<Vec<u8>> = None;
            for p in parts {
                let l = lits(p);
                let b = l.exact.unwrap_or(l.prefix);
                prefix = Some(match prefix {
                    None => b,
                    Some(acc) => common_prefix(&acc, &b),
                });
            }
            Lits {
                exact: None,
                prefix: prefix.unwrap_or_default(),
                required: Vec::new(),
            }
        }
        Hir::Repeat {
            inner, min, max, ..
        } => {
            let l = lits(inner);
            match (&l.exact, max) {
                // Fixed count of an exact string is itself exact.
                (Some(e), Some(m)) if *min == *m => {
                    let total = e.len().saturating_mul(*min as usize);
                    if total <= MAX_LIT {
                        Lits::exact(e.iter().cloned().cycle().take(total).collect())
                    } else {
                        Lits {
                            exact: None,
                            prefix: e.iter().cloned().cycle().take(MAX_LIT).collect(),
                            required: Vec::new(),
                        }
                    }
                }
                // At least `min` copies: the first `min` are mandatory
                // and contiguous.
                (Some(e), _) if *min >= 1 => {
                    let total = (e.len().saturating_mul(*min as usize)).min(MAX_LIT);
                    Lits {
                        exact: None,
                        prefix: e.iter().cloned().cycle().take(total).collect(),
                        required: Vec::new(),
                    }
                }
                (None, _) if *min >= 1 => Lits {
                    exact: None,
                    prefix: l.prefix,
                    required: l.required,
                },
                // `min == 0`: may match empty, proves nothing.
                _ => Lits::opaque(),
            }
        }
    }
}

/// Folds a concatenation left to right, growing the prefix while all
/// elements are exact and collecting maximal required runs.
///
/// Alongside each run it tracks `max_start`: the most bytes any match
/// can consume before the run begins, accumulated from [`max_len`] of
/// the elements crossed so far. The bound goes to `None` (unbounded)
/// once a `*`/`+` repeat is crossed and stays there.
fn concat_lits(parts: &[Hir]) -> Lits {
    let mut exact: Option<Vec<u8>> = Some(Vec::new());
    let mut prefix = Vec::new();
    let mut prefix_open = true;
    let mut run: Vec<u8> = Vec::new();
    let mut runs: Vec<RequiredLit> = Vec::new();
    // Max bytes a match can consume before the current element, and
    // its value at the moment the current run began.
    let mut pos: Option<usize> = Some(0);
    let mut run_start: Option<usize> = Some(0);
    for p in parts {
        if matches!(p, Hir::Assert(_)) {
            // Zero-width: contributes no bytes and does not break the
            // current run, but its context condition voids exactness
            // (`\bcat\b` is not the same pattern as `cat`).
            exact = None;
            continue;
        }
        let l = lits(p);
        match l.exact {
            Some(e) => {
                if run.is_empty() {
                    run_start = pos;
                }
                run.extend_from_slice(&e);
                run.truncate(MAX_LIT);
                if prefix_open {
                    prefix.extend_from_slice(&e);
                    prefix.truncate(MAX_LIT);
                }
                if let Some(acc) = exact.as_mut() {
                    // Exactness is not capped: a long `grep -F`
                    // pattern is still a pure substring search.
                    acc.extend_from_slice(&e);
                }
                pos = pos.map(|x| x.saturating_add(e.len()));
            }
            None => {
                // The element's own prefix extends the current run
                // (those bytes still appear contiguously here), then
                // the run breaks.
                if run.is_empty() {
                    run_start = pos;
                }
                run.extend_from_slice(&l.prefix);
                run.truncate(MAX_LIT);
                if prefix_open {
                    prefix.extend_from_slice(&l.prefix);
                    prefix.truncate(MAX_LIT);
                    prefix_open = false;
                }
                if !run.is_empty() {
                    runs.push(RequiredLit {
                        bytes: std::mem::take(&mut run),
                        max_start: run_start,
                    });
                }
                // Inner required runs shift by the width consumed
                // before this element begins.
                for mut r in l.required {
                    r.max_start = match (pos, r.max_start) {
                        (Some(p0), Some(b)) => Some(p0.saturating_add(b)),
                        _ => None,
                    };
                    runs.push(r);
                }
                exact = None;
                pos = match (pos, max_len(p)) {
                    (Some(p0), Some(m)) => Some(p0.saturating_add(m)),
                    _ => None,
                };
            }
        }
    }
    if !run.is_empty() {
        runs.push(RequiredLit {
            bytes: run,
            max_start: run_start,
        });
    }
    Lits {
        exact,
        prefix,
        required: runs,
    }
}

/// A finite set of literals that start every match of a
/// subexpression. A `true` literal is *complete*: it may be the whole
/// match, so what follows the subexpression extends it. A `false` one
/// is only a prefix of the matches that start with it.
type Seq = Vec<(Vec<u8>, bool)>;

/// The literals every match of `hir` starts with, at most [`MAX_SET`]
/// of them; `None` when no such set is proven (a wide class, a
/// subexpression with too many alternatives).
fn starts(hir: &Hir) -> Option<Seq> {
    match hir {
        // Zero-width: an assertion only removes matches, and what is
        // left of them starts as the rest of the pattern does.
        Hir::Empty | Hir::Assert(_) => Some(vec![(Vec::new(), true)]),
        Hir::Class(c) => {
            let width: usize = c
                .ranges()
                .iter()
                .map(|&(lo, hi)| usize::from(hi - lo) + 1)
                .sum();
            (width <= MAX_SET).then(|| {
                c.ranges()
                    .iter()
                    .flat_map(|&(lo, hi)| lo..=hi)
                    .map(|b| (vec![b], true))
                    .collect()
            })
        }
        Hir::Group { inner, .. } => starts(inner),
        Hir::Alt(parts) => {
            let mut seq = Seq::new();
            for p in parts {
                seq.extend(starts(p)?);
                seq.sort();
                seq.dedup();
                if seq.len() > MAX_SET {
                    return None;
                }
            }
            Some(seq)
        }
        Hir::Concat(parts) => {
            let mut seq: Seq = vec![(Vec::new(), true)];
            for p in parts {
                if !seq.iter().any(|&(_, complete)| complete) {
                    break;
                }
                let Some(next) = starts(p) else {
                    close(&mut seq);
                    break;
                };
                let mut grown = Seq::new();
                for (lit, complete) in &seq {
                    if !complete {
                        grown.push((lit.clone(), false));
                        continue;
                    }
                    for (tail, tail_complete) in &next {
                        let mut joined = lit.clone();
                        joined.extend_from_slice(tail);
                        let complete = *tail_complete && joined.len() <= MAX_LIT;
                        joined.truncate(MAX_LIT);
                        grown.push((joined, complete));
                    }
                }
                grown.sort();
                grown.dedup();
                if grown.len() > MAX_SET {
                    // Too many to keep extending: what is known so far
                    // still starts every match.
                    close(&mut seq);
                    break;
                }
                seq = grown;
            }
            Some(seq)
        }
        Hir::Repeat {
            inner, min, max, ..
        } => {
            let mut seq = starts(inner)?;
            // One copy at most: the inner set, as complete as it is.
            // More: a first copy starts the match, but what follows
            // is another copy, not the rest of the pattern.
            if *max != Some(1) {
                close(&mut seq);
            }
            if *min == 0 {
                seq.push((Vec::new(), true));
                seq.sort();
                seq.dedup();
            }
            (seq.len() <= MAX_SET).then_some(seq)
        }
    }
}

/// Marks every literal of `seq` a prefix only.
fn close(seq: &mut Seq) {
    seq.iter_mut().for_each(|(_, complete)| *complete = false);
}

/// Orders bounds for "prefer the tighter": `None` (unbounded) last.
fn bound_rank(b: Option<usize>) -> usize {
    b.unwrap_or(usize::MAX)
}

fn common_prefix(a: &[u8], b: &[u8]) -> Vec<u8> {
    a.iter()
        .zip(b)
        .take_while(|(x, y)| x == y)
        .map(|(x, _)| *x)
        .collect()
}

/// A search that finds where a match could be, or proves there is none.
#[derive(Debug, Clone)]
pub enum Prefilter {
    /// One literal every match contains.
    Literal(Finder),
    /// A set of literals, one of which starts every match.
    Set(Teddy),
}

impl Prefilter {
    /// The first position in `hay` where the literal (or one of the
    /// set) occurs.
    #[inline]
    pub fn find(&self, hay: &[u8]) -> Option<usize> {
        match self {
            Prefilter::Literal(f) => f.find(hay),
            Prefilter::Set(t) => t.find(hay),
        }
    }

    /// Whether a block of lines is worth searching with it before any
    /// automaton runs: a single byte common enough to sit in a
    /// pattern's own context (the space in `(a|b) [a-z]+ (c|d)`) is
    /// in every line, and finding it there, then the line around it,
    /// costs three scans per line for nothing. A set holds no literal
    /// shorter than two bytes.
    pub fn is_line_filter(&self) -> bool {
        match self {
            Prefilter::Literal(f) => f.needle().len() >= 2,
            Prefilter::Set(_) => true,
        }
    }
}

/// Builds the candidate filter for a general pattern, with its
/// `max_start` bound: a hit at haystack position `h` proves no match
/// starts before `h - max_start` (`None` = the hit only proves
/// containment).
///
/// In order of preference:
///
/// 1. the longest required literal of two bytes or more (ties broken
///    toward the tightest bound — a required prefix has bound 0), as
///    a [`Finder`];
/// 2. the prefix set, as a [`Teddy`] (bound 0), when it holds no
///    literal shorter than [`teddy::MIN_LEN`];
/// 3. a one-byte required literal, as plain `memchr`: rejecting a
///    whole haystack that lacks the byte is what `regexbench`'s
///    `adversarial` row (`(a|a)*(a|aa)*b` over lines of `a`) runs on —
///    4.5× slower without it. It is no *line* filter, though (see
///    [`Prefilter::is_line_filter`]).
pub fn prefilter(lit: &Literals) -> Option<(Prefilter, Option<usize>)> {
    let best = lit
        .required
        .iter()
        .max_by_key(|r| (r.bytes.len(), std::cmp::Reverse(bound_rank(r.max_start))));
    let literal = |r: &RequiredLit| {
        let finder = if lit.caseless {
            Finder::new_caseless(&r.bytes)
        } else {
            Finder::new(&r.bytes)
        };
        Some((Prefilter::Literal(finder), r.max_start))
    };
    if let Some(r) = best.filter(|r| r.bytes.len() >= 2) {
        return literal(r);
    }
    if let Some(set) = lit
        .prefix_set
        .as_deref()
        .and_then(|set| Teddy::new(set, lit.caseless))
    {
        return Some((Prefilter::Set(set), Some(0)));
    }
    literal(best?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::Syntax;

    fn an(pat: &str) -> Literals {
        analyze(&parse(pat, Syntax::Ere).expect("parse"))
    }

    /// The one literal a prefilter searches for.
    fn needle(pf: &Prefilter) -> &[u8] {
        match pf {
            Prefilter::Literal(f) => f.needle(),
            Prefilter::Set(t) => panic!("a set: {:?}", t.literals()),
        }
    }

    fn set(pat: &str) -> Option<Vec<String>> {
        an(pat).prefix_set.map(|set| {
            set.iter()
                .map(|l| String::from_utf8_lossy(l).into_owned())
                .collect()
        })
    }

    #[test]
    fn prefix_sets_of_alternations() {
        assert_eq!(
            set("(river|mountain|signal|compiler) [a-z]+ (of|the|and)").unwrap(),
            ["compiler ", "mountain ", "river ", "signal "]
        );
        assert_eq!(set("cat|dog").unwrap(), ["cat", "dog"]);
        // Shared prefixes: the shorter literal covers the longer.
        assert_eq!(set("ab|abc|abd").unwrap(), ["ab"]);
        assert_eq!(set("(ab|abc)x").unwrap(), ["abcx", "abx"]);
        // Anchors and optional pieces.
        assert_eq!(set("^(ab|cd)e").unwrap(), ["abe", "cde"]);
        assert_eq!(set("(ab)?cd").unwrap(), ["abcd", "cd"]);
        assert_eq!(set("[xy]z+").unwrap(), ["xz", "yz"]);
        // A repeat's first copy starts the match, but is not all of it.
        assert_eq!(set("(ab|cd)+e").unwrap(), ["ab", "cd"]);
        assert_eq!(set("x*yz").unwrap(), ["x", "yz"]);
        // Too many or unknown alternatives: no set.
        assert_eq!(set("a|b|c|d|e|f|g|h|i"), None);
        assert_eq!(set("[a-z]+ing"), None);
        assert_eq!(set("(a|b|c)(d|e|f)").unwrap(), ["a", "b", "c"]);
    }

    #[test]
    fn sets_become_prefilters_only_without_a_long_required_literal() {
        let (pf, bound) = prefilter(&an("(river|signal) [a-z]+ (of|the)")).expect("set");
        assert!(matches!(pf, Prefilter::Set(_)));
        assert_eq!(bound, Some(0));
        assert_eq!(pf.find(b"the signal of"), Some(4));
        // A required run of two bytes or more still wins.
        let (pf, _) = prefilter(&an("(ab|cd)xyz")).expect("literal");
        assert_eq!(needle(&pf), b"xyz");
        // A one-byte literal in the set: the one-byte required literal.
        let (pf, _) = prefilter(&an("(a|bc)*d")).expect("literal");
        assert_eq!(needle(&pf), b"d");
        // Caseless sets are lowercased and find every case.
        let hir = parse("(River|SIGNAL)[0-9]", Syntax::Ere).expect("parse");
        let (pf, _) = prefilter(&analyze_caseless(&hir)).expect("set");
        assert_eq!(pf.find(b"a SiGnal 1"), Some(2));
    }

    #[test]
    fn exact_plain_literal() {
        let l = an("foobar");
        assert_eq!(l.exact.as_deref(), Some(&b"foobar"[..]));
        assert!(!l.anchored_start && !l.anchored_end);
    }

    #[test]
    fn exact_with_anchors() {
        let l = an("^foo$");
        assert_eq!(l.exact.as_deref(), Some(&b"foo"[..]));
        assert!(l.anchored_start && l.anchored_end);
        let l = an("^$");
        assert_eq!(l.exact.as_deref(), Some(&b""[..]));
        assert!(l.anchored_start && l.anchored_end);
    }

    #[test]
    fn exact_through_groups_and_counted_repeats() {
        assert_eq!(an("(ab)c").exact.as_deref(), Some(&b"abc"[..]));
        assert_eq!(an("a{3}b").exact.as_deref(), Some(&b"aaab"[..]));
    }

    #[test]
    fn prefix_stops_at_first_variable_element() {
        let l = an("foo[0-9]+bar");
        assert_eq!(l.exact, None);
        assert_eq!(l.prefix, b"foo");
        // "foo" and "bar" are both required runs. "foo" is the
        // prefix (bound 0); "bar" sits past an unbounded repeat.
        assert!(l
            .required
            .iter()
            .any(|r| r.bytes == b"foo" && r.max_start == Some(0)));
        assert!(l
            .required
            .iter()
            .any(|r| r.bytes == b"bar" && r.max_start.is_none()));
    }

    #[test]
    fn plus_repeat_contributes_mandatory_copy() {
        let l = an("(ab)+x");
        assert_eq!(l.prefix, b"ab");
        let l = an("x(ab){2,}");
        assert!(l.required.iter().any(|r| r.bytes == b"xabab"));
    }

    #[test]
    fn star_breaks_runs() {
        let l = an("foo(xy)*bar");
        assert_eq!(l.prefix, b"foo");
        assert!(l.required.iter().any(|r| r.bytes == b"bar"));
        assert!(!l
            .required
            .iter()
            .any(|r| r.bytes.windows(2).any(|w| w == b"ob")));
    }

    #[test]
    fn alternation_common_prefix() {
        let l = an("abx|aby");
        assert_eq!(l.prefix, b"ab");
        assert_eq!(l.exact, None);
        let l = an("cat|dog");
        assert!(l.prefix.is_empty());
        assert!(l.required.is_empty());
    }

    #[test]
    fn word_boundaries_do_not_break_runs() {
        let l = an(r"\bcat\b");
        assert!(l.required.iter().any(|r| r.bytes == b"cat"));
        assert_eq!(l.prefix, b"cat");
    }

    #[test]
    fn class_heavy_pattern_has_no_literals() {
        let l = an("[a-z]+[0-9]*");
        assert!(l.required.is_empty());
        assert!(l.prefix.is_empty());
        assert_eq!(l.exact, None);
    }

    #[test]
    fn prefilter_picks_longest_run() {
        let l = an("ab[0-9]+longneedle");
        let (pf, max_start) = prefilter(&l).expect("prefilter");
        assert_eq!(needle(&pf), b"longneedle");
        // The needle follows an unbounded repeat: containment only.
        assert_eq!(max_start, None);
        let hay = b"xx ab42longneedle yy";
        assert!(pf.find(hay).is_some());
        assert_eq!(pf.find(b"ab42 but not the rest"), None);
    }

    #[test]
    fn prefilter_prefers_prefix_on_tie() {
        let l = an("foo[0-9]+bar");
        // "foo" and "bar" tie at 3 bytes; the prefix wins (tighter
        // bound) so hits pin the match start.
        let (pf, max_start) = prefilter(&l).expect("prefilter");
        assert_eq!(max_start, Some(0));
        assert_eq!(pf.find(b"xfoo1bar"), Some(1));
    }

    #[test]
    fn single_byte_prefilter_is_memchr() {
        let l = an("x[0-9]*");
        let (pf, max_start) = prefilter(&l).expect("prefilter");
        assert_eq!(needle(&pf), b"x");
        assert_eq!(max_start, Some(0));
        assert_eq!(pf.find(b"aaxbb"), Some(2));
        // A one-letter caseless literal probes both cases.
        let hir = parse("x[0-9]*", Syntax::Ere).expect("parse");
        let (pf, _) = prefilter(&analyze_caseless(&hir)).expect("prefilter");
        assert_eq!(pf.find(b"aaXbb"), Some(2));
    }

    #[test]
    fn no_prefilter_for_wide_classes() {
        assert!(prefilter(&an("[a-z][0-9]")).is_none());
        // Narrow ones spell out a set.
        let (pf, _) = prefilter(&an("[ab][cd]")).expect("set");
        assert_eq!(pf.find(b"xxbd"), Some(2));
    }

    #[test]
    fn caseless_analysis_keeps_alpha_literals() {
        // The folded HIR turns letters into two-branch classes, so
        // folding *before* analysis would lose these literals; the
        // caseless analysis runs on the unfolded parse instead.
        let hir = parse("abc[0-9]+TAIL", Syntax::Ere).expect("parse");
        let l = analyze_caseless(&hir);
        assert!(l.caseless);
        assert_eq!(l.prefix, b"abc");
        assert!(l.required.iter().any(|r| r.bytes == b"tail"));
        let (pf, _) = prefilter(&l).expect("prefilter");
        assert_eq!(needle(&pf), b"tail");
        assert!(pf.find(b"xx TaIl yy").is_some());
        assert_eq!(pf.find(b"nothing of note"), None);
    }

    #[test]
    fn caseless_exact_pattern_stays_exact() {
        let hir = parse("FooBar", Syntax::Ere).expect("parse");
        let l = analyze_caseless(&hir);
        assert_eq!(l.exact.as_deref(), Some(&b"foobar"[..]));
    }

    #[test]
    fn bounded_repeat_cap_truncates_but_stays_sound() {
        let l = an("a{200}");
        assert_eq!(l.exact, None);
        assert_eq!(l.prefix.len(), MAX_LIT);
        assert!(l.prefix.iter().all(|&b| b == b'a'));
    }

    #[test]
    fn inner_literal_bound_counts_class_widths() {
        // One class byte before the run: it starts at offset ≤ 1.
        let l = an("[0-9]ERROR");
        let r = l.required.iter().find(|r| r.bytes == b"ERROR").unwrap();
        assert_eq!(r.max_start, Some(1));
        // Two dots: offset ≤ 2.
        let l = an("..fatal");
        let r = l.required.iter().find(|r| r.bytes == b"fatal").unwrap();
        assert_eq!(r.max_start, Some(2));
    }

    #[test]
    fn inner_literal_bound_counts_bounded_repeats() {
        let l = an("[0-9]{0,3}ERROR");
        let r = l.required.iter().find(|r| r.bytes == b"ERROR").unwrap();
        assert_eq!(r.max_start, Some(3));
        // An alternation contributes its longest branch.
        let l = an("(cat|zebra)=[0-9]+tail");
        let r = l.required.iter().find(|r| r.bytes == b"tail").unwrap();
        assert_eq!(r.max_start, None);
        let r = l.required.iter().find(|r| r.bytes == b"=").unwrap();
        assert_eq!(r.max_start, Some(5));
    }

    #[test]
    fn unbounded_repeat_voids_the_bound() {
        let l = an("x*fatal");
        let r = l.required.iter().find(|r| r.bytes == b"fatal").unwrap();
        assert_eq!(r.max_start, None);
    }

    #[test]
    fn prefilter_reports_inner_bound() {
        let l = an("[0-9][0-9]needle");
        let (pf, max_start) = prefilter(&l).expect("prefilter");
        assert_eq!(needle(&pf), b"needle");
        assert_eq!(max_start, Some(2));
    }
}
