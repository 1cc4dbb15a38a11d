//! The arena `sort` kernel against a straightforward reference, and
//! the merge law of `sort -m`.
//!
//! The reference is the shape the kernel replaced — one owned
//! `Vec<u8>` per line, `sort_by` on the raw-line comparator, a
//! `key_equal` dedup — so it shares the comparator with the kernel and
//! nothing else: input concatenation, the line index, prepared keys,
//! the bare-slice index of whole-line specs, the gathered output and
//! the `-u` filter are all on the kernel's side only.

use std::sync::Arc;

use pash_coreutils::cmd::sort::parse_args;
use pash_coreutils::fs::MemFs;
use pash_coreutils::sortkeys::SortSpec;
use pash_coreutils::{run_command, Registry};
use proptest::prelude::*;

/// The flag matrix of ISSUE 13.
const FLAGS: [&[&str]; 10] = [
    &[],
    &["-n"],
    &["-r"],
    &["-rn"],
    &["-u"],
    &["-nu"],
    &["-k2"],
    &["-k2,2n"],
    &["-t:", "-k2"],
    &["-k1,1", "-u"],
];

/// Few symbols, so keys collide, fields go missing and numbers tie.
const ALPHABET: &[u8] = b" \t:0019-.ab\x00\xff";

fn line() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0usize..ALPHABET.len(), 0..7)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// The bytes of one input: lines, the last one terminated or not.
fn input() -> impl Strategy<Value = Vec<u8>> {
    (proptest::collection::vec(line(), 0..14), 0u8..2).prop_map(|(lines, terminated)| {
        let mut bytes = lines.join(&b'\n');
        if terminated == 1 && !lines.is_empty() {
            bytes.push(b'\n');
        }
        bytes
    })
}

fn spec_of(flags: &[&str]) -> SortSpec {
    let args: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
    parse_args(&args).expect("flags parse").spec
}

/// The lines of one input the way every line tool sees them: a final
/// unterminated line counts, nothing follows a final newline.
fn lines_of(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut lines: Vec<Vec<u8>> = bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
    if lines.last().is_some_and(Vec::is_empty) {
        lines.pop();
    }
    lines
}

/// The reference sort, before `-u` drops anything.
fn reference_sorted(spec: &SortSpec, inputs: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut lines: Vec<Vec<u8>> = inputs.iter().flat_map(|i| lines_of(i)).collect();
    lines.sort_by(|a, b| spec.compare(a, b));
    lines
}

/// The reference output: under `-u` the first line of each key group.
fn reference_output(spec: &SortSpec, mut sorted: Vec<Vec<u8>>) -> Vec<u8> {
    if spec.unique {
        sorted.dedup_by(|later, first| spec.key_equal(first, later));
    }
    sorted
        .into_iter()
        .flat_map(|l| [l, b"\n".to_vec()].concat())
        .collect()
}

/// Runs `sort FLAGS… OPERANDS…`, operand `i` holding `inputs[i]`; the
/// operand at `stdin_at` (if any) is `-`.
fn run_sort(flags: &[&str], extra: &[&str], inputs: &[Vec<u8>], stdin_at: usize) -> Vec<u8> {
    let fs = Arc::new(MemFs::new());
    let names: Vec<String> = (0..inputs.len()).map(|i| format!("f{i}")).collect();
    let mut argv = vec!["sort"];
    argv.extend(flags);
    argv.extend(extra);
    for (i, name) in names.iter().enumerate() {
        if i == stdin_at {
            argv.push("-");
        } else {
            fs.add(name.as_str(), inputs[i].clone());
            argv.push(name);
        }
    }
    let stdin = inputs.get(stdin_at).map_or(&[][..], Vec::as_slice);
    let out = run_command(&Registry::standard(), fs, &argv, stdin).expect("sort runs");
    assert_eq!(out.status, 0);
    out.stdout
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // (a) The kernel's bytes are the reference's, on several inputs
    // (files and stdin mixed, any of them unterminated or empty), for
    // every flag set, sequentially and chunked over threads.
    #[test]
    fn prop_arena_sort_equals_reference(
        inputs in proptest::collection::vec(input(), 1..4),
        stdin_at in 0usize..4,
        threads in 1usize..4,
    ) {
        for flags in FLAGS {
            let spec = spec_of(flags);
            let expected = reference_output(&spec, reference_sorted(&spec, &inputs));
            prop_assert_eq!(
                &run_sort(flags, &[], &inputs, stdin_at), &expected,
                "sort {:?} over {:?}", flags, inputs
            );
            let parallel = format!("--parallel={threads}");
            prop_assert_eq!(
                &run_sort(flags, &[&parallel], &inputs, stdin_at), &expected,
                "sort {:?} {} over {:?}", flags, parallel, inputs
            );
        }
    }

    // (b) Merge law: sorted lines cut into k contiguous runs — some
    // empty, `-u` duplicates straddling the cuts — merge back into
    // the sequential output.
    #[test]
    fn prop_sort_merge_reassembles_contiguous_runs(
        inputs in proptest::collection::vec(input(), 1..3),
        cuts in proptest::collection::vec(0.0f64..1.0, 0..8),
        stdin_at in 0usize..12,
    ) {
        for flags in FLAGS {
            let spec = spec_of(flags);
            let sorted = reference_sorted(&spec, &inputs);
            let mut at: Vec<usize> =
                cuts.iter().map(|c| (c * (sorted.len() + 1) as f64) as usize).collect();
            at.sort_unstable();
            at.push(sorted.len());
            let mut runs = Vec::new();
            let mut start = 0;
            for end in at {
                runs.push(sorted[start..end].iter().flat_map(|l| [l, &b"\n"[..]].concat()).collect());
                start = end;
            }
            prop_assert_eq!(
                run_sort(flags, &["-m"], &runs, stdin_at),
                reference_output(&spec, sorted),
                "sort -m {:?} over {:?}", flags, runs
            );
        }
    }
}
