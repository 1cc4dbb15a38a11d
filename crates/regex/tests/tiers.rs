//! Differential tests: the tiered matcher (literal / prefilter + lazy
//! DFA) must agree **byte-for-byte** with the Pike VM on `is_match`
//! and `find` for every pattern it accepts.
//!
//! The Pike VM is the semantic reference: it is the oldest, simplest
//! engine in the crate and the capture/fallback tier, so any
//! divergence is a bug in a faster tier. Patterns and haystacks are
//! generated from seeds (the proptest shim samples deterministically),
//! plus a fixed regression list covering the classic trouble spots:
//! empty matches, anchors, and word boundaries.
//!
//! The second half holds the line scan (`Matcher::find_line`, what
//! `grep` runs on) to the same reference: over blocks of lines handed
//! out by `for_each_block` in arbitrary pieces, the set of lines it
//! reports must be the set the Pike VM matches one line at a time —
//! also while the DFA cache is being cleared under it, and after the
//! DFA has given up.
//!
//! The third holds the literal-set tier (alternations of words,
//! searched with a packed SIMD scan) to it as well, and its SIMD
//! searches to its scalar one.

use std::io::{self, BufRead, Read};

use proptest::prelude::*;

use pash_coreutils::lines::for_each_block;
use pash_regex::compile::compile;
use pash_regex::hir::Hir;
use pash_regex::literal::{self, Prefilter};
use pash_regex::parser::parse;
use pash_regex::pikevm::PikeVm;
use pash_regex::teddy::Isa;
use pash_regex::{Regex, Syntax};

/// The Pike VM's answer, straight from the reference engine with no
/// tier selection in the way.
fn pike_find(pat: &str, hay: &[u8], start: usize) -> Option<(usize, usize)> {
    let prog = compile(&parse(pat, Syntax::Ere).expect("parse")).expect("compile");
    let vm = PikeVm::new(&prog);
    if start > hay.len() {
        return None;
    }
    vm.find_at(hay, start).and_then(|s| match (s[0], s[1]) {
        (Some(a), Some(b)) => Some((a, b)),
        _ => None,
    })
}

/// Asserts tier parity for one pattern over a batch of haystacks,
/// reusing one matcher so DFA caches stay warm across calls (the
/// production usage pattern).
fn assert_parity(pat: &str, hays: &[Vec<u8>]) {
    let re = match Regex::new(pat, Syntax::Ere) {
        Ok(re) => re,
        // Generated patterns may be rejected (e.g. oversized
        // intervals); rejection is not a parity question.
        Err(_) => return,
    };
    let mut m = re.matcher();
    for hay in hays {
        let want = pike_find(pat, hay, 0);
        let got = m.find(hay);
        assert_eq!(
            got,
            want,
            "find mismatch: pattern `{pat}` on {:?}",
            String::from_utf8_lossy(hay)
        );
        assert_eq!(
            m.is_match(hay),
            want.is_some(),
            "is_match mismatch: pattern `{pat}` on {:?}",
            String::from_utf8_lossy(hay)
        );
        // Offset searches exercise the `^`-context and prefilter
        // advance paths.
        for start in [1usize, hay.len() / 2] {
            if start <= hay.len() {
                assert_eq!(
                    m.find_at(hay, start),
                    pike_find(pat, hay, start),
                    "find_at({start}) mismatch: pattern `{pat}` on {:?}",
                    String::from_utf8_lossy(hay)
                );
            }
        }
    }
}

/// SplitMix64, for deterministic structure generation from a seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Emits a random ERE over a small alphabet. Depth-bounded so the
/// patterns stay readable in failure output.
fn gen_pattern(g: &mut Gen, depth: u32) -> String {
    let atom = |g: &mut Gen| -> String {
        match g.below(10) {
            0 => "a".to_string(),
            1 => "b".to_string(),
            2 => "c".to_string(),
            3 => "x".to_string(),
            4 => ".".to_string(),
            5 => "[ab]".to_string(),
            6 => "[^a]".to_string(),
            7 => "[a-c]".to_string(),
            8 => "yz".to_string(),
            _ => "q".to_string(),
        }
    };
    if depth == 0 {
        return atom(g);
    }
    match g.below(12) {
        0..=3 => atom(g),
        4 => format!("{}{}", gen_pattern(g, depth - 1), gen_pattern(g, depth - 1)),
        5 => format!(
            "{}|{}",
            gen_pattern(g, depth - 1),
            gen_pattern(g, depth - 1)
        ),
        6 => format!("({})", gen_pattern(g, depth - 1)),
        7 => format!("({})*", gen_pattern(g, depth - 1)),
        8 => format!("({})+", gen_pattern(g, depth - 1)),
        9 => format!("({})?", gen_pattern(g, depth - 1)),
        10 => format!(
            "({}){{{},{}}}",
            gen_pattern(g, depth - 1),
            g.below(3),
            g.below(3) + 2
        ),
        _ => format!("{}{}", atom(g), atom(g)),
    }
}

/// Emits a haystack biased toward the pattern alphabet so matches are
/// actually exercised (uniform bytes almost never match).
fn gen_hay(g: &mut Gen, max_len: usize) -> Vec<u8> {
    let len = g.below(max_len as u64 + 1) as usize;
    (0..len)
        .map(|_| {
            let choices = b"aabbccxyzq .\n";
            choices[g.below(choices.len() as u64) as usize]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn prop_random_patterns_agree_with_pikevm(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let pat = gen_pattern(&mut g, 3);
        let hays: Vec<Vec<u8>> = (0..8).map(|_| gen_hay(&mut g, 40)).collect();
        assert_parity(&pat, &hays);
    }

    #[test]
    fn prop_anchored_variants_agree(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let body = gen_pattern(&mut g, 2);
        let hays: Vec<Vec<u8>> = (0..6).map(|_| gen_hay(&mut g, 24)).collect();
        assert_parity(&format!("^{body}"), &hays);
        assert_parity(&format!("{body}$"), &hays);
        assert_parity(&format!("^{body}$"), &hays);
    }

    #[test]
    fn prop_literal_bearing_patterns_agree(seed in 0u64..u64::MAX) {
        // Force a required literal so the prefilter + advance path is
        // the one under test.
        let mut g = Gen(seed);
        let body = gen_pattern(&mut g, 2);
        let hays: Vec<Vec<u8>> = (0..6).map(|_| gen_hay(&mut g, 32)).collect();
        assert_parity(&format!("yz{body}"), &hays);
        assert_parity(&format!("{body}yz"), &hays);
    }

    #[test]
    fn prop_find_iter_spans_agree(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let pat = gen_pattern(&mut g, 2);
        let re = match Regex::new(&pat, Syntax::Ere) {
            Ok(re) => re,
            Err(_) => return,
        };
        let hay = gen_hay(&mut g, 40);
        // Reference: iterate with the Pike VM using the same
        // empty-match advance rule as Matches.
        let mut want = Vec::new();
        let mut at = 0usize;
        while let Some((s, e)) = pike_find(&pat, &hay, at) {
            want.push((s, e));
            at = if e == s { e + 1 } else { e };
            if at > hay.len() {
                break;
            }
        }
        let got: Vec<(usize, usize)> = re.find_iter(&hay).collect();
        prop_assert_eq!(got, want, "pattern `{}`", pat);
    }
}

#[test]
fn regression_empty_matches() {
    let hays: Vec<Vec<u8>> = vec![
        b"".to_vec(),
        b"a".to_vec(),
        b"ab".to_vec(),
        b"xxx".to_vec(),
        b"\n".to_vec(),
    ];
    for pat in ["x*", "a*", "(a*)*", "(a|)", "()*", "a?", "(a?)?b?"] {
        assert_parity(pat, &hays);
    }
}

#[test]
fn regression_anchors() {
    let hays: Vec<Vec<u8>> = vec![
        b"".to_vec(),
        b"a".to_vec(),
        b"ab".to_vec(),
        b"ba".to_vec(),
        b"aba".to_vec(),
        b"xaby".to_vec(),
    ];
    for pat in [
        "^", "$", "^$", "^a", "a$", "^a$", "^ab$", "a$|b", "(a$|b)a", "^(a|b)*$", "b^a", "a$b",
        "^^a", "a$$",
    ] {
        assert_parity(pat, &hays);
    }
}

#[test]
fn regression_word_boundaries() {
    let hays: Vec<Vec<u8>> = vec![
        b"cat".to_vec(),
        b"a cat sat".to_vec(),
        b"concatenate".to_vec(),
        b"cat!".to_vec(),
        b"!cat".to_vec(),
        b"".to_vec(),
        b"c a t".to_vec(),
    ];
    for pat in [
        r"\bcat\b",
        r"\bcat",
        r"cat\b",
        r"\b",
        r"\B",
        r"\Bcat",
        r"a\b.",
        r"\b(cat|sat)\b",
    ] {
        assert_parity(pat, &hays);
    }
}

#[test]
fn regression_leftmost_priority() {
    let hays: Vec<Vec<u8>> = vec![
        b"ab".to_vec(),
        b"ba".to_vec(),
        b"aab".to_vec(),
        b"aaxb".to_vec(),
        b"abab".to_vec(),
    ];
    for pat in [
        "ab|a",
        "a|ab",
        "a|ba",
        "a*b|a",
        "(a|ab)(b|)",
        "a+|b+",
        "(ab)+|(ba)+",
    ] {
        assert_parity(pat, &hays);
    }
}

#[test]
fn regression_adversarial_patterns_stay_linear() {
    // Classic backtracking killers: the tiered engine (and the Pike
    // VM) must answer these in linear time — a blow-up here hangs the
    // test run, which is the assertion.
    let aaa = vec![b'a'; 2048];
    for pat in ["(a|a)*b", "(a*)*b", "(a+)+b", "(a|aa)+b"] {
        assert_parity(pat, std::slice::from_ref(&aaa));
    }
}

#[test]
fn regression_case_insensitive_parity() {
    let re = Regex::with_flags("abc[0-9]", Syntax::Ere, true).expect("compile");
    let mut m = re.matcher();
    assert_eq!(m.find(b"xxABC5yy"), Some((2, 6)));
    assert_eq!(m.find(b"xxAbC5yy"), Some((2, 6)));
    assert!(!m.is_match(b"xxABCyy"));
}

#[test]
fn regression_bre_patterns() {
    for (pat, hay, want) in [
        // GNU BRE `\+` is the one-or-more extension.
        (r"a\+", &b"aaa"[..], Some((0, 3))),
        (r"\(ab\)*c", b"xababc", Some((1, 6))),
        ("a*", b"baa", Some((0, 0))),
        (r"x\|y", b"zy", Some((1, 2))),
    ] {
        let re = Regex::new(pat, Syntax::Bre).expect("compile");
        assert_eq!(re.find(hay), want, "BRE `{pat}`");
    }
}

/// ASCII case folding of a parse, as `Regex::with_flags` applies it.
fn fold(hir: &mut Hir) {
    match hir {
        Hir::Class(c) => c.case_fold(),
        Hir::Concat(v) | Hir::Alt(v) => v.iter_mut().for_each(fold),
        Hir::Repeat { inner, .. } | Hir::Group { inner, .. } => fold(inner),
        Hir::Empty | Hir::Assert(_) => {}
    }
}

/// The lines of `input` the Pike VM matches, each on its own.
fn pike_lines(pat: &str, syntax: Syntax, caseless: bool, input: &[u8]) -> Vec<Vec<u8>> {
    let mut hir = parse(pat, syntax).expect("parse");
    if caseless {
        fold(&mut hir);
    }
    let prog = compile(&hir).expect("compile");
    let vm = PikeVm::new(&prog);
    let mut lines: Vec<&[u8]> = input.split(|&b| b == b'\n').collect();
    if lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    lines
        .into_iter()
        .filter(|l| vm.find_at(l, 0).is_some())
        .map(<[u8]>::to_vec)
        .collect()
}

/// A reader that hands out its data in chunks of the given sizes
/// (cycled), like a pipe delivering whatever has arrived.
struct Chunked<'a> {
    data: &'a [u8],
    pos: usize,
    end: usize,
    sizes: &'a [usize],
    fetched: usize,
}

impl BufRead for Chunked<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.end && self.pos < self.data.len() {
            let size = self.sizes[self.fetched % self.sizes.len()].max(1);
            self.fetched += 1;
            self.end = (self.pos + size).min(self.data.len());
        }
        Ok(&self.data[self.pos..self.end])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let chunk = self.fill_buf()?;
        let n = chunk.len().min(out.len());
        out[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// The lines `find_line` reports over `input`, delivered block by
/// block through `for_each_block` from a reader chunked by `sizes`.
/// Also checks the contract on every span: line-aligned, in order,
/// terminator excluded.
fn scanned_lines(m: &mut pash_regex::Matcher, input: &[u8], sizes: &[usize]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut reader = Chunked {
        data: input,
        pos: 0,
        end: 0,
        sizes,
        fetched: 0,
    };
    for_each_block(&mut reader, |block| {
        let mut at = 0;
        while let Some((s, e)) = m.find_line(block, at) {
            assert!(at <= s && s <= e && e <= block.len(), "span out of order");
            assert!(s == 0 || block[s - 1] == b'\n', "span not at a line start");
            assert!(
                e == block.len() || block[e] == b'\n',
                "span not at a line end"
            );
            assert!(!block[s..e].contains(&b'\n'), "span holds a terminator");
            out.push(block[s..e].to_vec());
            at = e + 1;
        }
        Ok(true)
    })
    .expect("in-memory reader");
    out
}

fn assert_block_parity(pat: &str, syntax: Syntax, caseless: bool, input: &[u8], sizes: &[usize]) {
    let re = match Regex::with_flags(pat, syntax, caseless) {
        Ok(re) => re,
        Err(_) => return,
    };
    let want = pike_lines(pat, syntax, caseless, input);
    let mut m = re.matcher();
    // Twice through one matcher: the second pass runs on a warm cache.
    for pass in 0..2 {
        let got = scanned_lines(&mut m, input, sizes);
        assert!(
            got == want,
            "pass {pass}: `{pat}` ({syntax:?}, caseless {caseless}), chunks {sizes:?}, \
             on {:?}\n got {:?}\nwant {:?}",
            String::from_utf8_lossy(input),
            got.iter()
                .map(|l| String::from_utf8_lossy(l))
                .collect::<Vec<_>>(),
            want.iter()
                .map(|l| String::from_utf8_lossy(l))
                .collect::<Vec<_>>(),
        );
    }
}

/// Patterns for the line scan: generated EREs bare and under anchors,
/// the shapes `grep` meets (`^$`, `a*`, alternations of words, a
/// required literal of one and of several bytes), and BRE spellings.
fn gen_line_pattern(g: &mut Gen) -> (String, Syntax) {
    const ERE: [&str; 14] = [
        "^$",
        "a*",
        "^",
        "$",
        "^a*$",
        "(ab|bc|ca|yz) [a-c]+ (a|b)",
        "^[a-b]",
        "yz$",
        "[^a]c",
        "yz[a-c]*q",
        "q.*yz",
        "x+yz|^b",
        "(a|b)*c$|^q",
        "$^",
    ];
    const BRE: [&str; 6] = [
        r"a\|yz",
        r"\(ab\)*c",
        r"a\+b",
        "a*",
        "^[^a]*$",
        r"^\(a\|b\)c",
    ];
    match g.below(8) {
        0..=2 => (
            ERE[g.below(ERE.len() as u64) as usize].to_string(),
            Syntax::Ere,
        ),
        3 => (
            BRE[g.below(BRE.len() as u64) as usize].to_string(),
            Syntax::Bre,
        ),
        4 => (format!("^{}", gen_pattern(g, 2)), Syntax::Ere),
        5 => (format!("{}$", gen_pattern(g, 2)), Syntax::Ere),
        _ => (gen_pattern(g, 3), Syntax::Ere),
    }
}

/// A block of lines over the pattern alphabet: empty lines, upper
/// case, NUL and 0xff, now and then a line longer than any chunk, and
/// half the time no final newline.
fn gen_block(g: &mut Gen) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..g.below(24) {
        let len = match g.below(10) {
            0 | 1 => 0,
            2 => 80 + g.below(120),
            _ => 1 + g.below(12),
        };
        for _ in 0..len {
            let choices = b"aabbccxyzqABYZ .\x00\xff";
            out.push(choices[g.below(choices.len() as u64) as usize]);
        }
        out.push(b'\n');
    }
    if g.below(2) == 0 {
        out.pop();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn prop_line_scan_agrees_with_per_line_pikevm(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let (pat, syntax) = gen_line_pattern(&mut g);
        let caseless = g.below(4) == 0;
        let sizes: Vec<usize> = (0..1 + g.below(4)).map(|_| 1 + g.below(64) as usize).collect();
        for _ in 0..3 {
            assert_block_parity(&pat, syntax, caseless, &gen_block(&mut g), &sizes);
        }
    }
}

#[test]
fn regression_line_scan_boundaries() {
    let sizes = [3usize, 1, 7];
    for input in [
        &b""[..],
        b"\n",
        b"\n\n\n",
        b"a",
        b"a\n",
        b"\na",
        b"ab\n\nba\nyz",
        b"b\nab\naab\n",
    ] {
        for pat in [
            "^$", "a*", "^", "$", "$^", "a", "^a", "a$", "^a$", "[^a]", "b|^$", "(a|b)$", "yz",
        ] {
            assert_block_parity(pat, Syntax::Ere, false, input, &sizes);
        }
    }
}

/// Lines of `a`/`b` noise: with the pattern below, every 14-byte
/// window is its own DFA state, far more than the cache holds.
fn thrash_input(lines: usize) -> Vec<u8> {
    let mut g = Gen(0x5eed);
    let mut out = Vec::new();
    for _ in 0..lines {
        for _ in 0..64 {
            out.push(b"ab"[g.below(2) as usize]);
        }
        out.push(b'\n');
    }
    out
}

const THRASH_PATTERN: &str = "a[ab]{13}$";

#[test]
fn line_scan_survives_cache_clears_mid_block() {
    // Enough distinct states to clear the cache a few times, not
    // enough for the DFA to declare itself unprofitable.
    let input = thrash_input(600);
    let re = Regex::new(THRASH_PATTERN, Syntax::Ere).expect("compile");
    let mut m = re.matcher();
    let got = scanned_lines(&mut m, &input, &[1 << 20]);
    assert_eq!(got, pike_lines(THRASH_PATTERN, Syntax::Ere, false, &input));
    let stats = m.stats();
    assert!(stats.cache_clears >= 1, "no clear: {stats:?}");
    assert_eq!((stats.give_ups, stats.pike_lines), (0, 0), "{stats:?}");
    assert_eq!(stats.dfa_lines, 600);
}

#[test]
fn line_scan_falls_back_to_pikevm_when_the_dfa_gives_up() {
    let input = thrash_input(4000);
    let re = Regex::new(THRASH_PATTERN, Syntax::Ere).expect("compile");
    let mut m = re.matcher();
    let got = scanned_lines(&mut m, &input, &[1 << 20]);
    assert_eq!(got, pike_lines(THRASH_PATTERN, Syntax::Ere, false, &input));
    let stats = m.stats();
    assert!(stats.give_ups >= 1 && stats.pike_lines >= 1, "{stats:?}");
    // Every line was answered exactly once, by one engine or the other
    // (the line the DFA abandoned is the VM's).
    assert_eq!(stats.dfa_lines + stats.pike_lines, 4000, "{stats:?}");
    // And the matcher stays usable, on the VM.
    let hay = format!("xxa{}", "b".repeat(13));
    assert!(m.is_match(hay.as_bytes()));
    assert_eq!(m.find(hay.as_bytes()), Some((2, 16)));
}

// The literal-set tier: patterns whose matches all start with one of
// a few literals (an alternation of words), over blocks laid out so
// the literals sit across every 16- and 32-byte lane boundary and at
// line ends.

/// Words the set patterns alternate: shared prefixes (`ri`, `riv`,
/// `river`), literals of two bytes, and enough of them for sets past
/// the searcher's eight.
const SET_WORDS: [&str; 14] = [
    "river", "riv", "ri", "mountain", "sig", "signal", "of", "the", "and", "compiler", "zq", "qz",
    "ab", "ba",
];

/// A pattern over 2 to 11 of [`SET_WORDS`], in one of the shapes the
/// set tier meets, and whether to match it caselessly. Caseless
/// patterns spell some words in upper case.
fn gen_set_pattern(g: &mut Gen) -> (String, Syntax, bool) {
    let caseless = g.below(4) == 0;
    let count = 2 + g.below(10) as usize;
    let words: Vec<String> = (0..count)
        .map(|_| {
            let w = SET_WORDS[g.below(SET_WORDS.len() as u64) as usize];
            if caseless && g.below(2) == 0 {
                w.to_ascii_uppercase()
            } else {
                w.to_string()
            }
        })
        .collect();
    let alt = words.join("|");
    let (pat, syntax) = match g.below(6) {
        0 => (format!("({alt})"), Syntax::Ere),
        1 => (format!("({alt}) [a-z]+ (of|the|and)"), Syntax::Ere),
        2 => (format!("^({alt})[a-z]*"), Syntax::Ere),
        3 => (words.join(r"\|"), Syntax::Bre),
        4 => (format!("({alt})(s|ing)?$"), Syntax::Ere),
        _ => (format!("x?({alt})[ .]"), Syntax::Ere),
    };
    (pat, syntax, caseless)
}

/// A block of lines for the set patterns: each line is filler of a
/// length that walks through every lane offset, words (mostly from
/// [`SET_WORDS`]), sometimes in upper case; some lines are empty, some
/// exactly one word, and half the blocks lack a final newline.
fn gen_set_block(g: &mut Gen) -> Vec<u8> {
    let mut out = Vec::new();
    let lines = 1 + g.below(40);
    for _ in 0..lines {
        match g.below(8) {
            0 => {}
            1 => out
                .extend_from_slice(SET_WORDS[g.below(SET_WORDS.len() as u64) as usize].as_bytes()),
            _ => {
                for _ in 0..g.below(40) {
                    out.push(b"xyz ."[g.below(5) as usize]);
                }
                for _ in 0..1 + g.below(3) {
                    let w = SET_WORDS[g.below(SET_WORDS.len() as u64) as usize];
                    if g.below(6) == 0 {
                        out.extend_from_slice(w.to_ascii_uppercase().as_bytes());
                    } else {
                        out.extend_from_slice(w.as_bytes());
                    }
                    out.push(b" ."[g.below(2) as usize]);
                }
                out.pop();
            }
        }
        out.push(b'\n');
    }
    if g.below(2) == 0 {
        out.pop();
    }
    out
}

/// The set tier against the Pike VM on one pattern and block: the
/// lines `find_line` reports over the whole block and in chunks, and
/// `is_match` line by line. A set over eight literals must leave the
/// plan as it was (no set search counted), and when the set
/// is the prefilter, the SIMD and scalar searches must agree at every
/// line start. Failures print the pattern and the block.
fn assert_set_parity(pat: &str, syntax: Syntax, caseless: bool, input: &[u8]) {
    let ctx = || {
        format!(
            "`{pat}` ({syntax:?}, caseless {caseless}) on {:?}",
            String::from_utf8_lossy(input)
        )
    };
    let re = Regex::with_flags(pat, syntax, caseless).expect("set pattern compiles");
    let want = pike_lines(pat, syntax, caseless, input);
    let mut m = re.matcher();
    let got = scanned_lines(&mut m, input, &[1 << 20]);
    assert!(got == want, "whole block: {}", ctx());
    let lines: Vec<&[u8]> = input.split(|&b| b == b'\n').collect();
    let mut per_line = re.matcher();
    let matched: Vec<Vec<u8>> = lines
        .iter()
        .filter(|l| per_line.is_match(l))
        .map(|l| l.to_vec())
        .collect();
    // `split` yields an empty piece after a final newline; it matches
    // only if an empty line would, and then the VM's list lacks it.
    let want_per_line: Vec<Vec<u8>> = {
        let mut w = want.clone();
        if input.last() == Some(&b'\n') && per_line.is_match(b"") {
            w.push(Vec::new());
        }
        w
    };
    assert!(matched == want_per_line, "is_match per line: {}", ctx());
    assert_block_parity(pat, syntax, caseless, input, &[7, 16, 33]);

    let hir = parse(pat, syntax).expect("parse");
    let lits = if caseless {
        literal::analyze_caseless(&hir)
    } else {
        literal::analyze(&hir)
    };
    match literal::prefilter(&lits) {
        Some((Prefilter::Set(set), _)) => {
            for (at, _) in std::iter::once((0, &0u8))
                .chain(input.iter().enumerate().filter(|(_, &b)| b == b'\n'))
            {
                let rest = &input[at..];
                let scalar = set.find_with(Isa::Scalar, rest);
                for isa in Isa::available() {
                    assert_eq!(
                        set.find_with(isa, rest),
                        scalar,
                        "{isa:?} vs scalar from {at}: {}",
                        ctx()
                    );
                }
            }
        }
        _ => assert_eq!(m.stats().set_searches, 0, "no set, yet: {}", ctx()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn prop_set_tier_agrees_with_the_pikevm(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let (pat, syntax, caseless) = gen_set_pattern(&mut g);
        for _ in 0..3 {
            assert_set_parity(&pat, syntax, caseless, &gen_set_block(&mut g));
        }
    }
}

#[test]
fn set_tier_regressions() {
    let block =
        b"river\nthe river of\n\nxxxxxxxxxxxxxriver \nxxxxxxxxxxxxxxxxxxxxxxxxxxxxxsignal of\nsig\
nal\nab\nRiVeR x\nmountain";
    for (pat, syntax, caseless, set) in [
        ("(river|signal) [a-z]+", Syntax::Ere, false, true),
        (
            "river|signal|mountain|compiler|of|the|and|ab",
            Syntax::Ere,
            false,
            true,
        ),
        // Nine alternatives: no set, the plan of before.
        (
            "river|signal|mountain|compiler|of|the|and|ab|ba",
            Syntax::Ere,
            false,
            false,
        ),
        // One alternative under two bytes: no set.
        ("(river|a)[a-z]", Syntax::Ere, false, false),
        // Shared prefixes: `ri` covers `riv` and `river`.
        ("(ri|riv|river|ab)", Syntax::Ere, false, true),
        ("^(river|the)", Syntax::Ere, false, true),
        (r"river\|signal", Syntax::Bre, false, true),
        ("(river|signal)[ .]x", Syntax::Ere, true, true),
        ("(river|mountain)$", Syntax::Ere, false, true),
    ] {
        assert_set_parity(pat, syntax, caseless, block);
        let re = Regex::with_flags(pat, syntax, caseless).expect("compile");
        let mut m = re.matcher();
        scanned_lines(&mut m, block, &[1 << 20]);
        assert_eq!(m.stats().set_searches > 0, set, "`{pat}`: {:?}", m.stats());
    }
}
