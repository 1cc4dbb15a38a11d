//! Our `sort` against the host's, byte for byte, under `LC_ALL=C`.
//!
//! The proptests in `crates/coreutils/tests/sort_arena.rs` share the
//! comparator with the kernel they check; this oracle shares nothing.
//! It pins the two orderings ISSUE 13 fixed — `-n`/`-rn` ties fall to
//! the whole line (KNOWN_DIVERGENCES §1) and `-u` keeps the first
//! input line of a key group — and the flag matrix around them.
//!
//! The last test holds the parallel plan of `sort | uniq -c` — the
//! fold commuted below the merge, counts added in the merge — to the
//! host's shell the same way, and `sort -n`, `sort -rn` and `sort -u`
//! tails at widths 2 and 4 over more than 1 MiB, so every merge input
//! refills its 64 KiB window in the middle of a run.
//!
//! The keyless flag set (`{}`, `-r`, `-u`, `-ru`, `-n`, `-rn`, `-nu`,
//! `-rnu`) — everything the byte-chunk kernel serves — also runs over
//! a 20 000-line corpus whose lines cross its 8-byte chunks, sorted
//! whole and merged from host-sorted runs.
//!
//! Inputs stay inside the semantics both sides share: in the `-k`
//! corpus fields are separated by exactly one blank and no line starts
//! with one (GNU counts leading blanks into a `-k` field unless `-b` is
//! given, ours never does), and no two numbers differ only past an
//! `f64`'s precision (GNU compares the digits, ours the parsed value).

use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;

use pash::coreutils::fs::MemFs;
use pash::coreutils::{run_command, Registry};

const HOST_SORT: &str = "/usr/bin/sort";

/// Whether the host has a `sort` to compare with; without one each
/// test prints a notice and passes vacuously.
fn host_available() -> bool {
    Path::new(HOST_SORT).exists()
}

/// `sort ARGS… OPERANDS…` on the host: operands are files in a fresh
/// directory, `-` is `stdin`.
fn host_sort(case: &str, args: &[&str], files: &[(&str, &[u8])], stdin: &[u8]) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("pash-sort-host-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (name, data) in files {
        std::fs::write(dir.join(name), data).expect("write input");
    }
    let mut child = Command::new(HOST_SORT)
        .args(args)
        .current_dir(&dir)
        .env("LC_ALL", "C")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn host sort");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin)
        .expect("feed host sort");
    let out = child.wait_with_output().expect("host sort exits");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "host sort {args:?} failed");
    out.stdout
}

fn our_sort(args: &[&str], files: &[(&str, &[u8])], stdin: &[u8]) -> Vec<u8> {
    let fs = Arc::new(MemFs::new());
    for (name, data) in files {
        fs.add(*name, data.to_vec());
    }
    let argv: Vec<&str> = std::iter::once("sort")
        .chain(args.iter().copied())
        .collect();
    let out = run_command(&Registry::standard(), fs, &argv, stdin).expect("our sort runs");
    assert_eq!(out.status, 0, "our sort {args:?} failed");
    out.stdout
}

fn assert_matches_host(case: &str, args: &[&str], files: &[(&str, &[u8])], stdin: &[u8]) {
    let ours = our_sort(args, files, stdin);
    let host = host_sort(case, args, files, stdin);
    assert_eq!(
        String::from_utf8_lossy(&ours),
        String::from_utf8_lossy(&host),
        "{case}: sort {args:?} differs from {HOST_SORT}"
    );
    assert_eq!(ours, host, "{case}: sort {args:?} differs in raw bytes");
}

/// Seeded lines of one to three single-blank-separated fields drawn
/// from a small vocabulary, so keys collide, numbers tie (`1`, `01`,
/// `1.0`), fields go missing, and bytes above ASCII and NUL appear;
/// `sep` joins the fields.
fn corpus(seed: u64, lines: usize, sep: &str) -> Vec<u8> {
    const WORDS: [&[u8]; 22] = [
        b"a", b"b", b"ab", b"B", b"the", b"1", b"01", b"1.0", b"2", b"10", b"9", b"-3", b"-03",
        b"0.5", b".5", b"1e3", b"x\xffy", b"x\x00y", b"zz", b"0", b"+5", b"+0",
    ];
    let mut next = lcg(seed);
    let mut out = Vec::new();
    for _ in 0..lines {
        // One line in sixteen is empty.
        if next(16) != 0 {
            for field in 0..1 + next(3) {
                if field > 0 {
                    out.extend_from_slice(sep.as_bytes());
                }
                out.extend_from_slice(WORDS[next(WORDS.len() as u64) as usize]);
            }
        }
        out.push(b'\n');
    }
    out
}

/// A seeded generator of numbers below `n`.
fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move |n| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    }
}

/// Seeded lines that reach past the sort kernel's first 8-byte chunk:
/// bodies of up to 40 bytes over blanks, digits, `-`, `.`, NUL and
/// `0xff`, or a number (zero spelled four ways, bare fractions, one
/// 20-digit integer of each sign, leading blanks) and a short tail; a
/// quarter behind one shared prefix of 7, 8, 9, 16 or 17 bytes, some of
/// those behind it two or four times; and lines that are proper
/// prefixes of others or differ from them only by trailing NULs.
fn chunked_corpus(seed: u64, lines: usize) -> Vec<u8> {
    const ALPHABET: &[u8] = b" \t:0019-.ab\x00\xff";
    const NUMBERS: [&[u8]; 11] = [
        b"-0",
        b"0",
        b"+0",
        b"00",
        b".5",
        b"1.",
        b"12345678901234567890",
        b"-98765432109876543210",
        b" 7",
        b"\t-3",
        b"  0042",
    ];
    let mut next = lcg(seed);
    let mut draw = |len: u64| -> Vec<u8> {
        (0..len)
            .map(|_| ALPHABET[next(ALPHABET.len() as u64) as usize])
            .collect()
    };
    let prefix = draw([7, 8, 9, 16, 17][seed as usize % 5]);
    let mut next = lcg(seed + 1);
    let mut out: Vec<Vec<u8>> = Vec::new();
    while out.len() < lines {
        // A number's tail starts with a blank, so its digits end
        // where the number's do.
        let (mut body, len) = match next(4) {
            0 => {
                let number = NUMBERS[next(NUMBERS.len() as u64) as usize];
                ([number, b" "].concat(), number.len() + 1 + next(4) as usize)
            }
            _ => (Vec::new(), next(41) as usize),
        };
        while body.len() < len {
            body.push(ALPHABET[next(ALPHABET.len() as u64) as usize]);
        }
        let shared = |times: usize| [prefix.repeat(times), body.clone()].concat();
        match next(10) {
            0 | 1 => out.push(shared(1)),
            2 => out.push(shared(2)),
            3 => out.push(shared(4)),
            4 => {
                let line = shared(1);
                out.push(line[..line.len() * 2 / 3].to_vec());
                out.push(line);
            }
            5 => {
                let nuls = 1 + next(9) as usize;
                out.push([&body[..], &vec![0; nuls]].concat());
                out.push(body);
            }
            _ => out.push(body),
        }
    }
    out.iter().flat_map(|l| [&l[..], b"\n"].concat()).collect()
}

/// Every keyless spec: the byte-chunk kernel's whole domain.
const KEYLESS: [&[&str]; 8] = [
    &[],
    &["-r"],
    &["-u"],
    &["-ru"],
    &["-n"],
    &["-rn"],
    &["-nu"],
    &["-rnu"],
];

#[test]
fn keyless_specs_match_the_host_across_chunks() {
    if !host_available() {
        eprintln!("skipping: the host has no {HOST_SORT}");
        return;
    }
    let corpus = chunked_corpus(3, 20_000);
    for (i, flags) in KEYLESS.iter().enumerate() {
        assert_matches_host(&format!("chunked-{i}"), flags, &[], &corpus);
    }
}

#[test]
fn flag_matrix_matches_the_host() {
    if !host_available() {
        eprintln!("skipping: the host has no {HOST_SORT}");
        return;
    }
    let blank = corpus(1, 400, " ");
    let colon = corpus(2, 400, ":");
    let mut unterminated = corpus(3, 60, " ");
    unterminated.extend_from_slice(b"last line");
    let cases: [&[&str]; 10] = [
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
    for (i, flags) in cases.iter().enumerate() {
        let data = if flags.contains(&"-t:") {
            &colon
        } else {
            &blank
        };
        assert_matches_host(&format!("stdin-{i}"), flags, &[], data);
        // Several operands: a file, stdin in the middle, an
        // unterminated file, an empty one.
        let mut args = flags.to_vec();
        args.extend(["one.txt", "-", "cut.txt", "none.txt"]);
        let files: [(&str, &[u8]); 3] = [
            ("one.txt", data),
            ("cut.txt", &unterminated),
            ("none.txt", b""),
        ];
        assert_matches_host(&format!("files-{i}"), &args, &files, b"from stdin\n0 x");
    }
}

#[test]
fn numeric_ties_and_unique_groups_match_the_host() {
    if !host_available() {
        eprintln!("skipping: the host has no {HOST_SORT}");
        return;
    }
    // The `uniq -c | sort -rn` idiom of the §1 suite scripts: equal
    // counts must come out in the host's (reversed byte) order.
    let counts = b"     36 that\n     36 are\n      7 zebra\n     36 the\n      7 apple\n";
    let cases: [(&[&str], &[u8]); 9] = [
        (&["-n"], b"1 b\n1 a\n"),
        (&["-rn"], b"1 a\n1 b\n2 x\n"),
        (&["-rn"], counts),
        (&["-n"], counts),
        // Non-numeric keys all tie at 0 (unix50/20).
        (&["-n"], b"you\nhe\n0\nthey\n-1\n"),
        (&["-u", "-k1,1"], b"a z\na b\n"),
        (&["-k2,2n", "-u"], b"b 1\na 1\n"),
        (&["-nu"], b"1 b\n01 a\n1.0 c\n0\n"),
        (&["-ru"], b"b\na\nb\nc\na\n"),
    ];
    for (i, (flags, input)) in cases.iter().enumerate() {
        assert_matches_host(&format!("case-{i}"), flags, &[], input);
    }
}

#[test]
fn merge_of_host_sorted_runs_matches_the_host() {
    if !host_available() {
        eprintln!("skipping: the host has no {HOST_SORT}");
        return;
    }
    // Runs sorted by the host, merged by both: `sort -m` must agree
    // on tie order across runs too.
    let cases: [&[&str]; 5] = [&[], &["-n"], &["-rn"], &["-u"], &["-k2,2n", "-u"]];
    for (i, flags) in cases.iter().enumerate() {
        let runs: Vec<Vec<u8>> = (0..3)
            .map(|r| {
                host_sort(
                    &format!("run-{i}-{r}"),
                    flags,
                    &[],
                    &corpus(10 + r, 120, " "),
                )
            })
            .collect();
        let files: Vec<(&str, &[u8])> = ["r0", "r1", "r2"]
            .into_iter()
            .zip(runs.iter().map(Vec::as_slice))
            .collect();
        let mut args = vec!["-m"];
        args.extend(flags.iter());
        args.extend(["r0", "r1", "r2"]);
        assert_matches_host(&format!("merge-{i}"), &args, &files, b"");
    }
    // The chunked corpus cut into three runs, each sorted by the host:
    // our merge of them must be the host's, and so the sort of the
    // whole above.
    let corpus = chunked_corpus(3, 20_000);
    let cuts = [0, corpus.len() / 3, 2 * corpus.len() / 3, corpus.len()].map(|at| {
        at + corpus[at..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(0, |n| n + 1)
    });
    for (i, flags) in KEYLESS.iter().enumerate() {
        let runs: Vec<Vec<u8>> = (0..3)
            .map(|r| {
                let part = &corpus[cuts[r].min(corpus.len())..cuts[r + 1].min(corpus.len())];
                host_sort(&format!("chunked-run-{i}-{r}"), flags, &[], part)
            })
            .collect();
        let files: Vec<(&str, &[u8])> = ["r0", "r1", "r2"]
            .into_iter()
            .zip(runs.iter().map(Vec::as_slice))
            .collect();
        let mut args = vec!["-m"];
        args.extend(flags.iter());
        args.extend(["r0", "r1", "r2"]);
        assert_matches_host(&format!("chunked-merge-{i}"), &args, &files, b"");
    }
}

#[test]
fn folded_sort_uniq_pipelines_match_the_host_shell() {
    use pash::core::compile::PashConfig;
    use pash::{run, BackendOutput, RunEnv};

    if !host_available() || !Path::new("/bin/sh").exists() {
        eprintln!("skipping: the host has no {HOST_SORT} or no /bin/sh");
        return;
    }
    // Colliding keys, numeric ties between different lines (`1`,
    // `01`, `1.0`), empty lines; more than one pipe buffer, so the
    // width-4 region runs a thread per node.
    let small = corpus(7, 30_000, " ");
    // Over 1 MiB of lines drawn from 20 000 texts, so counts repeat:
    // each merge input crosses several 64 KiB scanner windows in the
    // middle of a run.
    const TAILS: [&str; 4] = ["river", "a", "signal of the", "compiler"];
    let mut next = lcg(11);
    let large: Vec<u8> = (0..80_000)
        .flat_map(|_| format!("t{:05} {}\n", next(20_000), TAILS[next(4) as usize]).into_bytes())
        .collect();
    assert!(large.len() >= 1 << 20, "{} bytes", large.len());
    let mut cases = vec![
        (&small, 4, "sort -n | uniq -c"),
        (&small, 4, "sort | uniq -c | sort -n"),
    ];
    for width in [2, 4] {
        for script in [
            "sort | uniq -c | sort -n",
            "sort | uniq -c | sort -rn",
            "sort -u",
        ] {
            cases.push((&large, width, script));
        }
    }
    for (input, width, script) in cases {
        let compiled = pash::compile(script, &PashConfig::best(width)).expect("compile");
        if script.contains("uniq -c") {
            assert_eq!(compiled.stats.nodes.commuted, 1, "`{script}`");
        }
        let env = RunEnv {
            stdin: input.clone(),
            ..Default::default()
        };
        let ours = match run(script, &PashConfig::best(width), "threads", &env) {
            Ok(BackendOutput::Execution(o)) => o,
            other => panic!("threads produced {other:?} for `{script}`"),
        };
        assert_eq!(ours.status, 0, "`{script}`");
        let mut child = Command::new("/bin/sh")
            .args(["-c", script])
            .env("LC_ALL", "C")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn host sh");
        let mut stdin = child.stdin.take().expect("piped stdin");
        let host = std::thread::scope(|scope| {
            scope.spawn(|| stdin.write_all(input).map(|()| drop(stdin)));
            child.wait_with_output().expect("host sh exits")
        });
        assert!(host.status.success(), "host `{script}` failed");
        assert!(
            ours.stdout == host.stdout,
            "`{script}` at width {width} differs from the host shell"
        );
    }
}
