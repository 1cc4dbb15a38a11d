//! Regex-engine microbenchmarks: the tiered matcher against the
//! Pike-VM-only baseline, measured **in the same run** on the same
//! corpora.
//!
//! The paper's regex-bound stages (`grep`/`sed` over oneliners,
//! unix50, and the "complex NFA regex" benchmark) spend their time in
//! exactly four pattern shapes, so that is the series:
//!
//! | series        | pattern shape              | expected winner      |
//! |---------------|----------------------------|----------------------|
//! | `fixed`       | plain literal (`grep -F`)  | memmem tier, ≫10×    |
//! | `prefix`      | literal-prefix ERE         | prefilter + DFA, ≫10×|
//! | `class_heavy` | classes only, no literal   | lazy DFA             |
//! | `adversarial` | NFA blow-up shape          | lazy DFA, stays linear|
//!
//! Those four are timed as a per-line `is_match` sweep — one engine
//! restart per line, what `sed` addresses and the benchmark harness's
//! regex probe do. `grep` does not work that way: it hands the matcher
//! whole blocks (`Matcher::find_line`), so three **line-mode** series
//! take that path, over the benchmark's lower-cased text and the
//! shapes of its `regex-filter` pipeline:
//!
//! | series                | pattern                                  |
//! |-----------------------|------------------------------------------|
//! | `alternation_context` | `(w|x|y|z) [a-z]+ (of|the|and)`: no literal of two bytes, but every match starts with one of four (`w `, …): the literal set skips the lines holding none, the DFA walks the rest |
//! | `anchored_class`      | `^[a-m]` (`grep -v`): decided at a line's first byte |
//! | `suffix_anchor`       | `ing$`: a literal to skip by, `$` at the line end |
//!
//! Either way the Pike VM sweeps line by line, and the two engines'
//! match counts are asserted equal before anything is timed — a
//! benchmark that measures a wrong answer is worse than no benchmark.
//! Each tiered sweep also reports its matcher's [`Stats`], and the
//! suite asserts that no case fell off its tier onto the Pike VM.

use std::time::{Duration, Instant};

use pash_coreutils::lines::for_each_block;
use pash_regex::compile::compile;
use pash_regex::parser::parse;
use pash_regex::pikevm::PikeVm;
use pash_regex::{Regex, Stats, Syntax};

use crate::dataplane::{measure, Sample};

/// One benchmark case: a pattern and the corpus it scans.
pub struct Case {
    /// Series name (`fixed`, `prefix`, …).
    pub name: &'static str,
    /// The ERE under test.
    pub pattern: &'static str,
    /// Haystack bytes, newline-delimited lines.
    pub corpus: Vec<u8>,
    /// Sweep with the block line scan (`grep`'s path) instead of one
    /// `is_match` per line.
    pub line_mode: bool,
}

impl Case {
    /// The corpus's lines, counted by their `\n` bytes.
    pub fn lines(&self) -> u64 {
        self.corpus.iter().filter(|&&b| b == b'\n').count() as u64
    }
}

/// Builds the standard cases at roughly `bytes` of corpus each: the
/// four per-line series, then the three line-mode ones.
pub fn standard_cases(bytes: usize) -> Vec<Case> {
    // Literal-bearing cases: mostly-missing needle, a few real hits
    // spliced in so the verify path is exercised too.
    let mut text = pash_workloads::text_corpus(97, bytes);
    let hit_every = (bytes / 8).max(512);
    let mut at = hit_every;
    while at < text.len() {
        // Splice at a line boundary to keep lines realistic.
        if let Some(nl) = text[at..].iter().position(|&b| b == b'\n') {
            let pos = at + nl + 1;
            let hit = b"wombat1729 spliced hit line\n";
            text.splice(pos..pos, hit.iter().copied());
            at = pos + hit.len() + hit_every;
        } else {
            break;
        }
    }
    // Adversarial corpus: long runs of `a` — the worst case for the
    // `(a|a)*`-shaped pattern below, which blows up a backtracker.
    let mut adversarial = Vec::with_capacity(bytes + 64);
    while adversarial.len() < bytes {
        adversarial.extend(std::iter::repeat_n(b'a', 199));
        adversarial.push(b'\n');
    }
    // What the benchmark's `grep`s read: the text, lower-cased.
    let lower = pash_workloads::text_corpus(98, bytes).to_ascii_lowercase();
    let case = |name, pattern, corpus: &Vec<u8>, line_mode| Case {
        name,
        pattern,
        corpus: corpus.clone(),
        line_mode,
    };
    vec![
        case("fixed", "wombat1729", &text, false),
        case("prefix", "wombat[0-9]+", &text, false),
        case("class_heavy", "[a-z]+[0-9][0-9a-z]*", &text, false),
        case("adversarial", "(a|a)*(a|aa)*b", &adversarial, false),
        case(
            "alternation_context",
            "(river|mountain|signal|compiler) [a-z]+ (of|the|and)",
            &lower,
            true,
        ),
        case("anchored_class", "^[a-m]", &lower, true),
        case("suffix_anchor", "ing$", &lower, true),
    ]
}

/// Counts matching lines with the tiered matcher — one `is_match` per
/// line, or in `line_mode` the block scan over the blocks `grep` would
/// be handed. Returns the wall time; the count and the matcher's
/// counters leave through the out-params.
fn sweep_tiered(case: &Case, re: &Regex, count: &mut usize, stats: &mut Stats) -> Duration {
    let mut m = re.matcher();
    let start = Instant::now();
    let mut n = 0usize;
    if case.line_mode {
        for_each_block(&mut &case.corpus[..], |block| {
            let mut at = 0;
            while let Some((_, end)) = m.find_line(block, at) {
                n += 1;
                at = end + 1;
            }
            Ok(true)
        })
        .expect("in-memory reader");
    } else {
        for line in case.corpus.split_inclusive(|&b| b == b'\n') {
            let line = line.strip_suffix(b"\n").unwrap_or(line);
            if m.is_match(line) {
                n += 1;
            }
        }
    }
    let took = start.elapsed();
    *count = n;
    *stats = m.stats();
    took
}

/// The same sweep on the Pike VM alone — the pre-tiering engine, and
/// still the capture/fallback tier.
fn sweep_pikevm(pattern: &str, corpus: &[u8], count: &mut usize) -> Duration {
    let prog = compile(&parse(pattern, Syntax::Ere).expect("parse")).expect("compile");
    let vm = PikeVm::new(&prog);
    let start = Instant::now();
    let mut n = 0usize;
    for line in corpus.split_inclusive(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\n").unwrap_or(line);
        if vm.find_at(line, 0).is_some() {
            n += 1;
        }
    }
    *count = n;
    start.elapsed()
}

/// What one suite run measured.
pub struct Suite {
    /// `regex_{case}_tiered` / `regex_{case}_pikevm`, interleaved.
    pub samples: Vec<Sample>,
    /// Per case, its lines and the tiered matcher's counters after one
    /// sweep.
    pub stats: Vec<(&'static str, u64, Stats)>,
}

/// Runs every case through both engines, after asserting that they
/// agree on every corpus and that the tiered sweep never reached the
/// Pike VM: a pattern silently falling to the 10 MB/s tier would
/// otherwise only show as a slow row.
pub fn run_suite(bytes: usize, runs: usize) -> Suite {
    let mut suite = Suite {
        samples: Vec::new(),
        stats: Vec::new(),
    };
    for case in standard_cases(bytes) {
        let re = Regex::new(case.pattern, Syntax::Ere).expect("pattern compiles");
        let mut tiered_count = 0usize;
        let mut pike_count = 0usize;
        let mut stats = Stats::default();
        sweep_tiered(&case, &re, &mut tiered_count, &mut stats);
        sweep_pikevm(case.pattern, &case.corpus, &mut pike_count);
        assert_eq!(
            tiered_count, pike_count,
            "engines disagree on `{}`",
            case.pattern
        );
        assert_eq!(
            (stats.give_ups, stats.pike_lines),
            (0, 0),
            "`{}` fell back to the Pike VM: {stats:?}",
            case.pattern
        );
        suite.stats.push((case.name, case.lines(), stats));
        let len = case.corpus.len();
        suite.samples.push(measure(
            &format!("regex_{}_tiered", case.name),
            len,
            runs,
            || sweep_tiered(&case, &re, &mut tiered_count, &mut stats),
        ));
        suite.samples.push(measure(
            &format!("regex_{}_pikevm", case.name),
            len,
            runs,
            || sweep_pikevm(case.pattern, &case.corpus, &mut pike_count),
        ));
    }
    suite
}

/// One case's line count and counters as a JSON object.
pub fn stats_json(lines: u64, s: &Stats) -> String {
    format!(
        "{{\"lines\":{lines},\"dfa_states\":{},\"cache_clears\":{},\"give_ups\":{},\"dfa_lines\":{},\"pike_lines\":{},\"set_searches\":{}}}",
        s.dfa_states, s.cache_clears, s.give_ups, s.dfa_lines, s.pike_lines, s.set_searches
    )
}

/// Per-case speedup of the tiered engine over the Pike VM, derived
/// from a suite's samples: `[(case, ×factor)]`.
pub fn speedups(samples: &[Sample]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for s in samples {
        if let Some(case) = s.name.strip_suffix("_tiered") {
            let base = samples.iter().find(|b| b.name == format!("{case}_pikevm"));
            if let Some(base) = base {
                let ratio = s.throughput() / base.throughput().max(1e-9);
                out.push((
                    case.strip_prefix("regex_").unwrap_or(case).to_string(),
                    ratio,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_at_tiny_size() {
        let suite = run_suite(8 * 1024, 1);
        assert_eq!(suite.samples.len(), 14);
        for s in &suite.samples {
            assert!(s.throughput() > 0.0, "{} has zero throughput", s.name);
            assert!(s.to_json().contains(&s.name));
        }
        let sp = speedups(&suite.samples);
        assert_eq!(sp.len(), 7);
        assert!(sp.iter().any(|(n, _)| n == "fixed"));
        assert!(sp.iter().any(|(n, _)| n == "alternation_context"));
        // `fixed` and `suffix_anchor` are literal-tier patterns and
        // `adversarial`'s lines all lack its required `b`: no
        // automaton is ever built for them. The rest ran on the DFA.
        for (name, lines, stats) in &suite.stats {
            let literal = ["fixed", "adversarial", "suffix_anchor"].contains(name);
            assert_eq!(stats.dfa_states == 0, literal, "{name}: {stats:?}");
            assert!(stats_json(*lines, stats).contains("\"give_ups\":0"));
        }
    }

    #[test]
    fn line_mode_cases_have_hits_and_misses() {
        for case in standard_cases(64 * 1024).iter().filter(|c| c.line_mode) {
            let re = Regex::new(case.pattern, Syntax::Ere).expect("compile");
            let (mut n, mut stats) = (0usize, Stats::default());
            sweep_tiered(case, &re, &mut n, &mut stats);
            let lines = case.corpus.split(|&b| b == b'\n').count() - 1;
            assert!(n > 0 && n < lines, "{}: {n} of {lines} lines", case.name);
        }
    }

    #[test]
    fn alternation_context_runs_on_the_literal_set() {
        let case = &standard_cases(256 * 1024)[4];
        assert_eq!(case.name, "alternation_context");
        let re = Regex::new(case.pattern, Syntax::Ere).expect("compile");
        let (mut n, mut stats) = (0usize, Stats::default());
        sweep_tiered(case, &re, &mut n, &mut stats);
        // The set ran, and the DFA walked only the lines it flagged.
        let lines = case.lines();
        assert!(stats.set_searches > 0, "{stats:?}");
        assert!(stats.dfa_lines * 4 <= lines, "{stats:?} of {lines} lines");
    }

    #[test]
    fn cases_have_some_hits_for_literal_patterns() {
        // The spliced hit lines keep the verify path honest.
        let cases = standard_cases(64 * 1024);
        let fixed = &cases[0];
        let re = Regex::new(fixed.pattern, Syntax::Ere).expect("compile");
        let (mut n, mut stats) = (0usize, Stats::default());
        sweep_tiered(fixed, &re, &mut n, &mut stats);
        assert!(n > 0, "no hit lines spliced into the corpus");
        // But the corpus is still overwhelmingly non-matching.
        let lines = fixed.corpus.split(|&b| b == b'\n').count();
        assert!(n * 4 < lines);
    }

    #[test]
    fn adversarial_case_is_linear_for_both_engines() {
        // Doubling the corpus should roughly double the work, never
        // square it; generous factor to stay robust under CI noise.
        let c1 = &standard_cases(16 * 1024)[3];
        let c2 = &standard_cases(64 * 1024)[3];
        let re = Regex::new(c1.pattern, Syntax::Ere).expect("compile");
        let (mut n, mut stats) = (0usize, Stats::default());
        let t1 = sweep_tiered(c1, &re, &mut n, &mut stats).max(Duration::from_micros(50));
        let t2 = sweep_tiered(c2, &re, &mut n, &mut stats);
        let factor = t2.as_secs_f64() / t1.as_secs_f64();
        assert!(
            factor < 64.0,
            "4x corpus took {factor:.1}x the time — super-linear blow-up"
        );
    }
}
