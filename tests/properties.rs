//! Property-based end-to-end tests: the laws of §4.2 hold against the
//! *real* command implementations.
//!
//! * the stateless law `f(x·x') = f(x)·f(x')` for every S-annotated
//!   command, at random split points;
//! * the map/aggregate law `f(x·x') = agg(m(x)·m(x'))` for every
//!   P-annotated command with an aggregator;
//! * whole-pipeline equivalence: random pipelines of annotated
//!   commands produce identical sequential and parallel output;
//! * balance: on a line-length-skewed corpus, byte-range segments and
//!   `r_split` hand every output close to the same number of bytes,
//!   and the general split does not.

use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use pash::core::annot::stdlib::AnnotationLibrary;
use pash::core::classes::ParClass;
use pash::core::compile::PashConfig;
use pash::coreutils::fs::{Fs, MemFs};
use pash::coreutils::run_command;
use pash::runtime::exec::{run_script, ExecConfig};
use pash::runtime::fileseg::read_segment;
use pash::runtime::split::{split_general, split_round_robin, MIN_ADAPTIVE_BLOCK};
use pash::workloads::skewed_corpus;
use pash_bench::fixtures::registry;

/// Random line-oriented inputs: words, numbers, punctuation, repeats.
fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            "[a-z]{1,8}",
            "[A-Z][a-z]{0,6}",
            "[0-9]{1,4}",
            Just("same".to_string()),
            Just("".to_string()),
        ],
        0..40,
    )
    .prop_map(|lines| {
        let mut out = Vec::new();
        for l in lines {
            out.extend_from_slice(l.as_bytes());
            out.push(b'\n');
        }
        out
    })
}

/// Splits at a line boundary closest to `frac` of the way in.
fn split_at_line(data: &[u8], frac: f64) -> (Vec<u8>, Vec<u8>) {
    let target = (data.len() as f64 * frac) as usize;
    let cut = data[..target.min(data.len())]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap_or(0);
    (data[..cut].to_vec(), data[cut..].to_vec())
}

fn run(argv: &[&str], input: &[u8]) -> Vec<u8> {
    run_command(registry(), Arc::new(MemFs::new()), argv, input)
        .expect("command runs")
        .stdout
}

/// Stateless commands under test (each an S-annotated invocation).
const STATELESS: &[&[&str]] = &[
    &["tr", "A-Z", "a-z"],
    &["grep", "a"],
    &["grep", "-v", "e"],
    &["cut", "-d", " ", "-f", "1"],
    &["sed", "s/a/X/g"],
    &["rev"],
    &["word-stem"],
    &["fold", "-w", "7"],
];

/// P-commands with their aggregators: `(map argv, agg argv)`.
fn pure_pairs() -> Vec<(Vec<String>, Vec<String>)> {
    let cases: Vec<Vec<&str>> = vec![
        vec!["sort"],
        vec!["sort", "-rn"],
        vec!["sort", "-u"],
        vec!["sort", "-k", "2", "-n"],
        vec!["uniq"],
        vec!["uniq", "-c"],
        vec!["wc", "-lw"],
        vec!["grep", "-c", "a"],
        vec!["head", "-n", "5"],
        vec!["tac"],
    ];
    cases
        .into_iter()
        .map(|argv| {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            let agg = pash::core::annot::stdlib::aggregator_for(&argv)
                .unwrap_or_else(|| panic!("no aggregator for {argv:?}"));
            (argv, agg)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stateless_law(input in arb_input(), frac in 0.0f64..1.0) {
        let (x, y) = split_at_line(&input, frac);
        for argv in STATELESS {
            // sort of: f(x·y) == f(x)·f(y).
            let whole = run(argv, &input);
            let mut parts = run(argv, &x);
            parts.extend(run(argv, &y));
            prop_assert_eq!(
                &whole,
                &parts,
                "stateless law violated for {:?}",
                argv
            );
        }
    }

    #[test]
    fn map_aggregate_law(input in arb_input(), frac in 0.0f64..1.0) {
        // uniq's chunks must themselves be uniq-able: pre-sort.
        let sorted = run(&["sort"], &input);
        let (x, y) = split_at_line(&sorted, frac);
        for (map_argv, agg_argv) in pure_pairs() {
            let map_ref: Vec<&str> = map_argv.iter().map(|s| s.as_str()).collect();
            let whole = run(&map_ref, &sorted);
            let part_a = run(&map_ref, &x);
            let part_b = run(&map_ref, &y);
            let mut out = Vec::new();
            let inputs: Vec<pash::runtime::agg::AggInput> = vec![
                Box::new(std::io::Cursor::new(part_a)),
                Box::new(std::io::Cursor::new(part_b)),
            ];
            pash::runtime::agg::run_aggregator(
                &agg_argv,
                inputs,
                &mut out,
                registry(),
                Arc::new(MemFs::new()),
            )
            .expect("aggregator runs");
            prop_assert_eq!(
                &whole,
                &out,
                "map/aggregate law violated for {:?} via {:?}",
                map_argv,
                agg_argv
            );
        }
    }

    #[test]
    fn random_pipelines_parallel_equals_sequential(
        input in arb_input(),
        stages in proptest::collection::vec(0usize..7, 1..4),
        width in 2usize..6,
    ) {
        // A pool of composable stages; any chain of them is a valid
        // pipeline over text.
        const POOL: &[&str] = &[
            "tr A-Z a-z",
            "grep a",
            "sort",
            "uniq -c",
            "sed 's/e/E/'",
            "sort -rn",
            "rev",
        ];
        let mut script = String::from("cat in.txt");
        for s in &stages {
            script.push_str(" | ");
            script.push_str(POOL[*s]);
        }
        script.push_str(" > out.txt");
        let run_width = |w: usize| {
            let fs = Arc::new(MemFs::new());
            fs.add("in.txt", input.clone());
            run_script(
                &script,
                &PashConfig { width: w, ..Default::default() },
                registry(),
                fs.clone(),
                Vec::new(),
                &ExecConfig::default(),
            )
            .expect("run");
            fs.read("out.txt").expect("output")
        };
        prop_assert_eq!(run_width(1), run_width(width), "script: {}", script);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn squeeze_is_stateless_on_alpha_leading_lines(
        lines in proptest::collection::vec("[a-z][a-z ,.]{0,12}", 1..30),
        frac in 0.0f64..1.0,
    ) {
        // `tr -cs A-Za-z '\n'` squeezes runs *across* line boundaries,
        // so the paper's S classification (§3.1) is sound only when no
        // chunk starts inside a squeezed run — i.e. when every line
        // starts with an alphabetic character. Nothing guarantees that
        // of an input, so the classifier keeps this `tr` sequential;
        // this property pins where the law does hold.
        let input: Vec<u8> = lines
            .iter()
            .flat_map(|l| {
                let mut v = l.as_bytes().to_vec();
                v.push(b'\n');
                v
            })
            .collect();
        let (x, y) = split_at_line(&input, frac);
        let argv = &["tr", "-cs", "A-Za-z", "\\n"];
        let whole = run(argv, &input);
        let mut parts = run(argv, &x);
        parts.extend(run(argv, &y));
        prop_assert_eq!(whole, parts);
    }
}

#[test]
fn squeeze_boundary_counterexample() {
    // The flip side, found by property testing this reproduction: a
    // blank line at a chunk boundary breaks the stateless law for
    // `tr -s`. The paper's annotation (class S) is unsound for such
    // inputs, so the classifier keeps a squeeze that can span a line
    // end sequential.
    let input = b"a\n\nb\n".to_vec();
    let argv = &["tr", "-cs", "A-Za-z", "\\n"];
    let whole = run(argv, &input);
    let (x, y) = split_at_line(&input, 0.5);
    let mut parts = run(argv, &x);
    parts.extend(run(argv, &y));
    assert_ne!(whole, parts, "expected the documented boundary effect");
    let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
    let class = AnnotationLibrary::standard()
        .classify(&argv)
        .expect("tr is annotated")
        .class;
    assert_eq!(class, ParClass::NonParallelizable);
}

#[test]
fn non_parallelizable_law_counterexample() {
    // Sanity check that the laws are not vacuous: sha1sum genuinely
    // violates the stateless law (which is why it is class N).
    let input = b"hello\nworld\n".to_vec();
    let (x, y) = split_at_line(&input, 0.5);
    let whole = run(&["sha1sum"], &input);
    let mut parts = run(&["sha1sum"], &x);
    parts.extend(run(&["sha1sum"], &y));
    assert_ne!(whole, parts);
}

/// Counts the bytes written to it.
struct Count(Arc<AtomicUsize>);

impl Write for Count {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.fetch_add(buf.len(), Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Bytes per output of a splitter run over `input` into `k` outputs.
fn bytes_per_output(
    k: usize,
    input: &[u8],
    split: impl FnOnce(&mut dyn io::BufRead, &mut [Box<dyn Write + Send>]) -> io::Result<()>,
) -> Vec<usize> {
    let counts: Vec<Arc<AtomicUsize>> = (0..k).map(|_| Arc::default()).collect();
    let mut outs: Vec<Box<dyn Write + Send>> = counts
        .iter()
        .map(|c| Box::new(Count(c.clone())) as Box<dyn Write + Send>)
        .collect();
    split(&mut io::Cursor::new(input), &mut outs).expect("split");
    counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

/// The largest output over the mean: 1.0 is a perfect balance.
fn max_over_mean(bytes: &[usize]) -> f64 {
    let mean = bytes.iter().sum::<usize>() as f64 / bytes.len() as f64;
    *bytes.iter().max().expect("outputs") as f64 / mean
}

#[test]
fn segments_and_r_split_balance_a_skewed_corpus() {
    // Balance by bytes, no clock. The size floor: `r_split` deals
    // blocks of at least `MIN_ADAPTIVE_BLOCK` bytes, so below
    // k × MIN_ADAPTIVE_BLOCK it cannot feed every output at all (at
    // 64 KiB it feeds 3 of 8); both sizes here are well above it.
    let k = 8;
    for size in [1 << 20, 8 << 20] {
        assert!(size >= 4 * k * MIN_ADAPTIVE_BLOCK);
        let corpus = skewed_corpus(97, size);
        let fs = MemFs::new();
        fs.add("in.txt", corpus.clone());
        let fs: Arc<dyn Fs> = Arc::new(fs);
        let segments: Vec<usize> = (0..k)
            .map(|part| read_segment(&fs, "in.txt", part, k).expect("segment").len())
            .collect();
        let general = bytes_per_output(k, &corpus, |r, o| split_general(r, o));
        let framed = bytes_per_output(k, &corpus, |r, o| split_round_robin(r, o, true));
        let raw = bytes_per_output(k, &corpus, |r, o| split_round_robin(r, o, false));
        let [segments, general, framed, raw] =
            [&segments, &general, &framed, &raw].map(|b| max_over_mean(b));
        eprintln!(
            "{size} bytes, k = {k}, max/mean: segments {segments:.3}, general {general:.3}, \
             r_split framed {framed:.3}, raw {raw:.3}"
        );
        assert!(segments <= 1.05, "segments {segments:.3}");
        for (name, rr) in [("framed", framed), ("raw", raw)] {
            assert!(rr <= 1.2, "{size}: {name} r_split {rr:.3}");
            assert!(
                rr < general,
                "{size}: {name} r_split {rr:.3} vs general {general:.3}"
            );
        }
    }
}
