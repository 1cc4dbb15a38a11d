//! Our `cut`, `tr`, `uniq`, `wc`, `head`, `tail`, `tac`, `nl`, `rev`,
//! `fold`, `cat -n`, `paste`, `grep` and `sed` against the host's, byte
//! for byte and exit status for exit status, under `LC_ALL=C`.
//!
//! The proptests in `crates/coreutils/tests/block_kernels.rs` compare
//! the block kernels with references written from the same reading of
//! the manual; this oracle shares nothing with them. The flag matrix
//! is theirs, over a seeded corpus large enough to cross several
//! blocks of the reader, once on stdin and once as a file operand.
//!
//! Inputs stay inside the semantics both sides share: `wc -w` sees no
//! bytes outside printable ASCII and blanks (GNU skips unprintable
//! bytes when it looks for words), `uniq -d -u` is not combined
//! (GNU prints nothing, ours lets `-d` win), `grep` sees no NUL (GNU
//! would call the input binary and print a notice instead), `rev` no
//! NUL (the host's stops the line there), and `fold` no tab (GNU
//! advances a tab to the next tab stop, ours counts bytes). Where our
//! `sed` lacks an address form, it refuses the script.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pash::coreutils::fs::MemFs;
use pash::coreutils::{run_command, Registry};

/// The host's `util`, if it has one.
fn host_path(util: &str) -> Option<PathBuf> {
    ["/usr/bin", "/bin"]
        .iter()
        .map(|dir| PathBuf::from(dir).join(util))
        .find(|p| p.exists())
}

/// `util ARGS…` on the host, `input` both piped to its stdin (a pipe,
/// as in a pipeline: `wc` sizes its columns from a regular file's
/// length) and present as `in.txt` in a fresh working directory.
fn host_run(case: &str, util: &PathBuf, args: &[&str], input: &[u8]) -> (Vec<u8>, i32) {
    // Two tests of one utility run concurrently: a sequence number
    // keeps their directories apart.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pash-kernels-host-{}-{case}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("in.txt"), input).expect("write input");
    let mut child = Command::new(util)
        .args(args)
        .current_dir(&dir)
        .env("LC_ALL", "C")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn host utility");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let out = std::thread::scope(|s| {
        // Fed from a second thread: the utility may fill its stdout
        // pipe long before it has read all of its stdin. One that
        // reads `in.txt` instead closes the pipe early; that is fine.
        s.spawn(move || {
            let _ = stdin.write_all(input);
        });
        child.wait_with_output().expect("host utility exits")
    });
    let _ = std::fs::remove_dir_all(&dir);
    let status = out.status.code().expect("host utility was not signalled");
    (out.stdout, status)
}

fn our_run(util: &str, args: &[&str], input: &[u8]) -> (Vec<u8>, i32) {
    let fs = Arc::new(MemFs::new());
    fs.add("in.txt", input.to_vec());
    let argv: Vec<&str> = std::iter::once(util).chain(args.iter().copied()).collect();
    let out = run_command(&Registry::standard(), fs, &argv, input).expect("our command runs");
    (out.stdout, out.status)
}

/// Compares `util ARGS…` on stdin and `util ARGS… in.txt` with the
/// host; returns false (after a notice) when the host lacks `util`.
fn assert_matches_host(util: &str, cases: &[&[&str]], inputs: &[&[u8]], as_operand: bool) -> bool {
    let Some(path) = host_path(util) else {
        eprintln!("skipping: the host has no `{util}`");
        return false;
    };
    for (c, args) in cases.iter().enumerate() {
        for (i, input) in inputs.iter().enumerate() {
            let mut forms = vec![args.to_vec()];
            if as_operand {
                forms.push(args.iter().copied().chain(["in.txt"]).collect());
            }
            for args in forms {
                let case = format!("{util}-{c}-{i}-{}", args.len());
                let (ours, our_status) = our_run(util, &args, input);
                let (host, host_status) = host_run(&case, &path, &args, input);
                assert_eq!(
                    String::from_utf8_lossy(&ours),
                    String::from_utf8_lossy(&host),
                    "{util} {args:?} on input {i} differs from {path:?}"
                );
                assert_eq!(ours, host, "{util} {args:?} on input {i}: raw bytes");
                assert_eq!(
                    our_status, host_status,
                    "{util} {args:?} on input {i}: exit status"
                );
            }
        }
    }
    true
}

/// Seeded lines of zero to nine blank-separated words from a small
/// vocabulary: repeated lines (so `uniq` has groups, some differing
/// only in case), doubled blanks, commas and tabs, lines without any
/// delimiter, empty lines, and — with `binary` — NUL and 0xff.
fn corpus(seed: u64, lines: usize, binary: bool) -> Vec<u8> {
    const WORDS: [&[u8]; 16] = [
        b"the",
        b"The",
        b"river",
        b"a",
        b"A",
        b"data,",
        b"flow.",
        b"x",
        b"",
        b"signal",
        b"and,the",
        b"tab\there",
        b"Zebra",
        b"42",
        b"x\xffy",
        b"x\x00y",
    ];
    let vocabulary = if binary { WORDS.len() } else { WORDS.len() - 2 } as u64;
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    let mut out = Vec::new();
    let mut line: Vec<u8> = Vec::new();
    for _ in 0..lines {
        // One line in three repeats the one before it, half of those
        // in another case.
        match next(6) {
            0 => {}
            1 => line.make_ascii_uppercase(),
            _ => {
                line.clear();
                for word in 0..next(10) {
                    if word > 0 {
                        line.push(b' ');
                    }
                    line.extend_from_slice(WORDS[next(vocabulary) as usize]);
                }
            }
        }
        out.extend_from_slice(&line);
        out.push(b'\n');
    }
    out
}

/// The inputs every utility sees: several reader blocks of text, a
/// short input whose last line is unterminated, and nothing at all.
fn inputs(binary: bool) -> Vec<Vec<u8>> {
    let mut unterminated = corpus(7, 40, binary);
    unterminated.extend_from_slice(b"last line, no newline");
    vec![corpus(1, 12_000, binary), unterminated, Vec::new()]
}

#[test]
fn cut_matches_the_host() {
    let cases: [&[&str]; 12] = [
        &["-d", " ", "-f", "1"],
        &["-d", " ", "-f", "1-4"],
        &["-d", " ", "-f", "2-"],
        &["-d", " ", "-f", "-2"],
        &["-d", " ", "-f", "3,1"],
        &["-d", " ", "-f", "2-4,3-6,1"],
        &["-d", " ", "-f", "4-,2", "-s"],
        &["-d", ",", "-f", "2", "-s"],
        &["-f", "2"],
        &["-c", "1-4"],
        &["-c", "3,1,7-"],
        &["-c", "2-4,3-6,12"],
    ];
    let inputs = inputs(true);
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("cut", &cases, &inputs, true);
}

#[test]
fn tr_matches_the_host() {
    let cases: [&[&str]; 10] = [
        &["A-Z", "a-z"],
        &["a-z", "A-Z"],
        &["abc,", "x"],
        &["-d", ",."],
        &["-s", " "],
        &["-s", "a-z", "A-Z"],
        &["-ds", ".", " ,"],
        &["-cs", "A-Za-z", "\\n"],
        &["-cd", "a-z\\n"],
        &["[:upper:]", "[:lower:]"],
    ];
    let inputs = inputs(true);
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("tr", &cases, &inputs, false);
}

/// `\NNN` is one to three octal digits: `\001` is byte 1 (not NUL and
/// the digits `0` and `1`), `\40` a space, `\0` NUL.
#[test]
fn tr_octal_escapes_match_the_host() {
    let cases: [&[&str]; 3] = [&["-d", "\\001"], &["\\40", "_"], &["-d", "\\0"]];
    let mut inputs = inputs(true);
    inputs.push(b"a\x01b01\n\x00 \x01\x00 10 \x0101\x01\n".repeat(500));
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("tr", &cases, &inputs, false);
}

#[test]
fn uniq_matches_the_host() {
    let cases: [&[&str]; 8] = [
        &[],
        &["-c"],
        &["-d"],
        &["-u"],
        &["-i"],
        &["-c", "-i"],
        &["-c", "-d"],
        &["-i", "-u"],
    ];
    let inputs = inputs(true);
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("uniq", &cases, &inputs, true);
}

#[test]
fn wc_matches_the_host_on_stdin() {
    // The file-operand form is left out for several counts: GNU sizes
    // those columns from the file's length, ours are seven wide.
    let cases: [&[&str]; 6] = [&["-l"], &["-w"], &["-c"], &["-lw"], &["-lc"], &[]];
    let inputs = inputs(false);
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    if assert_matches_host("wc", &cases, &inputs, false) {
        // A lone count of one operand is bare too (KNOWN_DIVERGENCES §2).
        assert_matches_host("wc", &[&["-l"], &["-c"]], &inputs, true);
    }
}

#[test]
fn head_matches_the_host() {
    let cases: [&[&str]; 6] = [
        &[],
        &["-n", "1"],
        &["-n", "45"],
        &["-n", "99999999999"],
        &["-n", "0"],
        &["-c", "100"],
    ];
    let inputs = inputs(true);
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("head", &cases, &inputs, true);
}

#[test]
fn tail_matches_the_host() {
    let cases: [&[&str]; 7] = [
        &[],
        &["-n", "1"],
        &["-n", "45"],
        &["-n", "99999999999"],
        &["-n", "0"],
        &["-n", "+2"],
        &["-n", "+11990"],
    ];
    let inputs = inputs(true);
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("tail", &cases, &inputs, true);
}

/// Records go out in reverse as they came in: an unterminated last
/// line leads, with no newline added.
#[test]
fn tac_matches_the_host() {
    let inputs = inputs(true);
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("tac", &[&[]], &inputs, true);
}

/// A blank line is padded as the host pads it: number width plus
/// separator.
#[test]
fn nl_matches_the_host() {
    let inputs = inputs(true);
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("nl", &[&[]], &inputs, true);
}

/// An unterminated last line stays so.
#[test]
fn rev_matches_the_host() {
    let inputs = inputs(false);
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("rev", &[&[]], &inputs, true);
}

/// An unterminated last line stays so, however it is cut.
#[test]
fn fold_matches_the_host() {
    let cases: [&[&str]; 3] = [&[], &["-w", "3"], &["-w", "21"]];
    let inputs: Vec<Vec<u8>> = inputs(true)
        .into_iter()
        .map(|input| {
            input
                .iter()
                .map(|&b| if b == b'\t' { b' ' } else { b })
                .collect()
        })
        .collect();
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("fold", &cases, &inputs, true);
}

/// `cat -n` numbers an unterminated last line and adds no newline.
#[test]
fn cat_matches_the_host() {
    let inputs = inputs(true);
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("cat", &[&[], &["-n"]], &inputs, true);
}

/// Side by side, each `-` takes the next line of the one stdin; the
/// operand form puts `in.txt` beside them.
#[test]
fn paste_matches_the_host() {
    let cases: [&[&str]; 4] = [
        &["-", "-"],
        &["-d", ":", "-", "-", "-"],
        &["-"],
        &["-s", "-"],
    ];
    let inputs = inputs(true);
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("paste", &cases, &inputs, true);
}

#[test]
fn grep_matches_the_host() {
    const FLAGS: [&[&str]; 11] = [
        &[],
        &["-v"],
        &["-c"],
        &["-n"],
        &["-m", "3"],
        &["-i"],
        &["-w"],
        &["-F"],
        &["-vc"],
        &["-vn"],
        &["-cm", "2"],
    ];
    // The benchmark's pattern first (`regex-filter`'s `grep -E`, on
    // the literal-set tier); then an anchored class, a suffix, the
    // empty line, a pattern that matches every line, a literal, a
    // four-way alternation, and two more set patterns: anchored, and
    // with two-byte alternatives.
    const PATTERNS: [&str; 9] = [
        "(river|mountain|signal|compiler) [a-z]+ (of|the|and)",
        "^[a-m]",
        "ing$",
        "^$",
        "a*",
        "river",
        "river|signal|zebra|flow",
        "^(the|and) [a-z]+",
        "(of|to|in)[a-z]* (the|a)$",
    ];
    let mut cases: Vec<Vec<&str>> = Vec::new();
    for flags in FLAGS {
        for pattern in PATTERNS {
            let mut args = flags.to_vec();
            // `-F` takes the pattern as it stands; everything else
            // reads it as an ERE.
            if !flags.contains(&"-F") {
                args.push("-E");
            }
            // GNU `-w` retries shorter matches inside a line when an
            // empty one is not word-bounded; ours asks `\b(a*)\b` of
            // the line. They agree wherever the pattern cannot match
            // the empty string.
            if flags.contains(&"-w") && ["^$", "a*"].contains(&pattern) {
                continue;
            }
            args.push(pattern);
            cases.push(args);
        }
    }
    let cases: Vec<&[&str]> = cases.iter().map(Vec::as_slice).collect();
    let mut inputs = inputs(false);
    // Lines in the benchmark's shape, so its pattern has matches.
    inputs.push(pash::workloads::text_corpus(5, 300_000).to_ascii_lowercase());
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("grep", &cases, &inputs, true);
}

#[test]
fn sed_substitution_matches_the_host() {
    let cases: [&[&str]; 12] = [
        &["-E", "s/([a-z]+)ing/\\1ed/g"],
        &["-E", "s/([a-z]+)ing/\\1ed/"],
        &["-E", "s/(r)(i)ver/\\2\\1&/g"],
        &["-E", "s/ing/ED/g"],
        &["-E", "s/a*/<&>/g"],
        &["-E", "s/(a|b)*/[&]/g"],
        &["-E", "s/^/> /"],
        &["-E", "s/ *$//"],
        &["s/\\([a-z]*\\) \\([a-z]*\\)/\\2 \\1/"],
        &["s/the/THE/g"],
        &["s/x*$/!/"],
        &["-n", "s/signal/SIGNAL/p"],
    ];
    let mut inputs = inputs(true);
    inputs.push(pash::workloads::text_corpus(6, 200_000).to_ascii_lowercase());
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("sed", &cases, &inputs, true);
}

/// Line addresses, deletion, printing twice and quitting: an
/// unterminated last line is written without a newline, and a
/// newline goes before anything written after it.
#[test]
fn sed_lines_match_the_host() {
    let cases: [&[&str]; 8] = [
        &["p"],
        &["-n", "41p"],
        &["-n", "2p"],
        &["1d"],
        &["-n", "/the/p"],
        &["/the/d"],
        &["-e", "s/a/b/", "-e", "p"],
        &["41q"],
    ];
    let inputs = inputs(true);
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("sed", &cases, &inputs, true);
}

/// What our `sed` cannot do as GNU does, it refuses: a usage error,
/// status 2, and not one byte on stdout. The last-line address `$`
/// needs a line of lookahead the stream loop does not keep.
#[test]
fn sed_refuses_the_addresses_it_lacks() {
    let cases: [&[&str]; 6] = [
        &["$d"],
        &["-n", "$p"],
        &["$s/a/b/"],
        &["$="],
        &["1~2d"],
        &["/the/,$d"],
    ];
    for input in inputs(false) {
        for args in cases {
            let (stdout, status) = our_run("sed", args, &input);
            assert_eq!(status, 2, "sed {args:?}");
            assert!(stdout.is_empty(), "sed {args:?} wrote {stdout:?}");
        }
    }
}
