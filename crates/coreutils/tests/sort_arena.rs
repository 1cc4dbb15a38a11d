//! The arena `sort` kernel against a straightforward reference, and
//! the merge law of `sort -m`.
//!
//! The reference is one owned `Vec<u8>` per line, `sort_by` on the
//! raw-line comparator and a `key_equal` dedup, so it shares nothing
//! with the kernel but the order it defines: input concatenation, the
//! line index, prepared keys, the byte-chunk sort of keyless specs and
//! its numeric codes, the gathered output and the `-u` filter are all
//! on the kernel's side only. This property is what holds the chunk
//! kernel to `compare_prepared`, the order the merge still uses.

use std::sync::Arc;

use pash_coreutils::cmd::sort::parse_args;
use pash_coreutils::fs::MemFs;
use pash_coreutils::sortkeys::SortSpec;
use pash_coreutils::{run_command, Registry};
use proptest::prelude::*;

/// Every keyless spec the byte kernel serves, and the keyed ones the
/// comparator does.
const FLAGS: [&[&str]; 12] = [
    &[],
    &["-n"],
    &["-r"],
    &["-rn"],
    &["-u"],
    &["-nu"],
    &["-ru"],
    &["-rnu"],
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

/// Numbers whose codes must order as the comparator orders them:
/// zeros spelled four ways (`+0` reads as 0, as in GNU), bare
/// fractions, integers past an `f64`'s exact range, leading blanks.
const NUMBERS: [&[u8]; 12] = [
    b"-0",
    b"0",
    b"+0",
    b"00",
    b".5",
    b"1.",
    b"12345678901234567890",
    b"12345678901234567891",
    b"-98765432109876543210",
    b" 7",
    b"\t-3",
    b"  0042",
];

/// A line of the long strategy: up to 40 bytes over the alphabet, or
/// a number with a short tail.
fn long_line() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(0usize..ALPHABET.len(), 0..41)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect::<Vec<u8>>()),
        (
            0usize..NUMBERS.len(),
            proptest::collection::vec(0usize..ALPHABET.len(), 0..4)
        )
            .prop_map(|(n, tail)| {
                let mut line = NUMBERS[n].to_vec();
                line.extend(tail.into_iter().map(|i| ALPHABET[i]));
                line
            }),
    ]
}

/// Inputs that reach past the kernel's first 8-byte chunk: 17–600
/// lines, a random subset behind one shared prefix of 7, 8, 9, 16 or
/// 17 bytes (some behind it twice or four times, deeper than the
/// kernel re-keys), and lines that are proper prefixes of others or
/// differ from them only by trailing NULs — cut into 1–3 inputs.
fn long_inputs() -> impl Strategy<Value = Vec<Vec<u8>>> {
    const PREFIX_LENS: [usize; 5] = [7, 8, 9, 16, 17];
    (
        proptest::collection::vec((long_line(), 0u8..10), 17..601),
        proptest::collection::vec(0usize..ALPHABET.len(), 17),
        0usize..PREFIX_LENS.len(),
        proptest::collection::vec(0.0f64..1.0, 0..3),
    )
        .prop_map(|(drawn, prefix, prefix_len, cuts)| {
            let prefix: Vec<u8> = prefix[..PREFIX_LENS[prefix_len]]
                .iter()
                .map(|&i| ALPHABET[i])
                .collect();
            let mut lines = Vec::new();
            for (body, shape) in drawn {
                let shared = |times: usize| [prefix.repeat(times), body.clone()].concat();
                match shape {
                    0 | 1 => lines.push(shared(1)),
                    2 => lines.push(shared(2)),
                    3 => lines.push(shared(4)),
                    4 => {
                        let line = shared(1);
                        lines.push(line[..line.len() * 2 / 3].to_vec());
                        lines.push(line);
                    }
                    5 => {
                        let nuls = 1 + body.len() % 9;
                        lines.push([&body[..], &vec![0; nuls]].concat());
                        lines.push(body);
                    }
                    _ => lines.push(body),
                }
            }
            let mut at: Vec<usize> = cuts
                .iter()
                .map(|c| (c * lines.len() as f64) as usize)
                .collect();
            at.sort_unstable();
            at.push(lines.len());
            let mut start = 0;
            at.into_iter()
                .map(|end| {
                    let input = lines[start..end]
                        .iter()
                        .flat_map(|l| [&l[..], b"\n"].concat())
                        .collect();
                    start = end;
                    input
                })
                .collect()
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
    // every flag set, sequentially and chunked over threads: a few
    // short lines, or hundreds that cross the kernel's 8-byte chunks
    // (chunked over three threads).
    #[test]
    fn prop_arena_sort_equals_reference(
        case in prop_oneof![
            (proptest::collection::vec(input(), 1..4), 1usize..4),
            (long_inputs(), Just(3usize)),
        ],
        stdin_at in 0usize..4,
    ) {
        let (inputs, threads) = case;
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
