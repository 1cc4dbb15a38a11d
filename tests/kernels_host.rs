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
//! NUL (the host's stops the line there). Where our `sed` lacks an
//! address form, it refuses the script.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pash::core::compile::PashConfig;
use pash::coreutils::fs::MemFs;
use pash::coreutils::{run_command, Registry};
use pash::{run, BackendOutput, ProcSettings, RunEnv};
use pash_bench::fixtures::runtime_binaries;

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
    let cases: [&[&str]; 16] = [
        &["-d", " ", "-f", "1"],
        &["-d", " ", "-f", "1-4"],
        &["-d", " ", "-f", "2-"],
        &["-d", " ", "-f", "-2"],
        &["-d", " ", "-f", "2,4-"],
        &["-d", " ", "-f", "-3"],
        &["-d", " ", "-f", "2,4-", "-s"],
        &["-d", " ", "-f", "-3", "-s"],
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
    // Translation by range map (`A-Z a-z`) and by table; the
    // compaction loop (`-s a-z A-Z`, every `-ds`, `-cd`); and from
    // `-d ,.` on the position masks, for deletion by at most four
    // bytes and squeezing by one (`-cs A-Za-z '\n'` after a table
    // map, `-s ' ' _` after a range map).
    // Then the sets as GNU reads them: its twelve classes, `[=c=]`,
    // `\v`, `[:]` as three bytes, a complement mapped in byte order;
    // and what it refuses with status 1: a reversed range, a class
    // other than `[:upper:]`/`[:lower:]` in SET2, a misaligned one.
    let cases: [&[&str]; 27] = [
        &["A-Z", "a-z"],
        &["a-z", "A-Z"],
        &["abc,", "x"],
        &["-s", "a-z", "A-Z"],
        &["-ds", ".", " ,"],
        &["-cd", "a-z\\n"],
        &["[:upper:]", "[:lower:]"],
        &["-ds", "a-z", " "],
        &["A-Za-z", "a-zA-Z"],
        &["-s", "ea ,"],
        &["-d", ",."],
        &["-s", " "],
        &["-cs", "A-Za-z", "\\n"],
        &["-s", " ", "_"],
        &["-d", "\\000\\377"],
        &["-d", "\\n,.e"],
        &["-s", "[:cntrl:]"],
        &["-d", "[:xdigit:]"],
        &["-d", "[:graph:]"],
        &["-d", "[:print:]"],
        &["-d", "[=a=]"],
        &["\\v", "V"],
        &["[:]", "xyz"],
        &["-c", "abc", "xy"],
        &["-d", "c-a"],
        &["a", "[:digit:]"],
        &["[:alpha:]1", "x[:upper:]"],
    ];
    let mut inputs = inputs(true);
    inputs.push(b"a=b [:] x\x0by\tz\x01 ~\x7f Ab9F\n".repeat(20));
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

/// An unterminated last line stays so, however it is cut. Columns
/// are counted as GNU counts them: a tab runs to the next multiple of
/// 8, a backspace goes back one, a carriage return to column 0; and
/// width 0 is refused.
#[test]
fn fold_matches_the_host() {
    let cases: [&[&str]; 5] = [&[], &["-w", "3"], &["-w", "21"], &["-w", "9"], &["-w", "0"]];
    let mut inputs = inputs(true);
    inputs.push(b"a\tb\n\tx\n1234567\t\tz\nab\x08\x08cd\rxyz\x08\x08\x08\x08w\n\t\t\t".repeat(30));
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
/// operand form puts `in.txt` beside them. A `-d` list is literal
/// bytes, where `\0` is an empty delimiter.
#[test]
fn paste_matches_the_host() {
    let cases: [&[&str]; 9] = [
        &["-", "-"],
        &["-d", ":", "-", "-", "-"],
        &["-"],
        &["-s", "-"],
        &["-s", "-d", "a-c", "-"],
        &["-s", "-d", "\\0", "-"],
        &["-s", "-d", "[:digit:]", "-"],
        &["-s", "-d", "[:]", "-"],
        &["-d", "\\0\\t\\a\\1", "-", "-", "-"],
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
/// newline goes before anything written after it. A script is read in
/// one pass over its bytes: a `;` inside a body is the body's, a
/// non-ASCII byte stays itself, a `y` list is literal, `\/` in an
/// address is a slash, and a range that ends before it starts is its
/// first line.
#[test]
fn sed_lines_match_the_host() {
    let cases: [&[&str]; 17] = [
        &["p"],
        &["-n", "41p"],
        &["-n", "2p"],
        &["1d"],
        &["-n", "/the/p"],
        &["/the/d"],
        &["-e", "s/a/b/", "-e", "p"],
        &["41q"],
        // Once `-e` is given, every operand is a file: this one does
        // not exist, which is status 2 after the others ran.
        &["s/a/b/", "-e", "p"],
        &["1s/a;b/X/"],
        &["1y/a;/b:/"],
        &["s/\u{e9}/E/"],
        &["y/a-c/x-z/"],
        &["y/[:]/(;)/"],
        &["/a\\/b/d"],
        &["3,1d"],
        &["s/a/\\t[&]/g;y/\\t/T/"],
    ];
    let mut inputs = inputs(true);
    inputs.push(
        "a;b\na;\ncaf\u{e9}\nb-\na:b\na/b\nc\n"
            .repeat(3)
            .into_bytes(),
    );
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("sed", &cases, &inputs, true);
}

/// What our `sed` cannot do as GNU does, it refuses: a usage error,
/// status 1 as GNU's, and not one byte on stdout. The last-line address `$`
/// needs a line of lookahead the stream loop does not keep; the `s`
/// flags but `g` and `p` are not implemented.
#[test]
fn sed_refuses_the_addresses_it_lacks() {
    let cases: [&[&str]; 9] = [
        &["$d"],
        &["-n", "$p"],
        &["$s/a/b/"],
        &["$="],
        &["1~2d"],
        &["/the/,$d"],
        &["s/a/b/2"],
        &["s/x/y/I"],
        &["s/a/b/w f"],
    ];
    assert_refused("sed", &cases);
}

/// `tr`'s twin of the above: the repeats `[c*]` and `[c*n]`.
#[test]
fn tr_refuses_the_repeats_it_lacks() {
    assert_refused("tr", &[&["abc", "[x*]"], &["a-c", "[x*2]y"]]);
}

/// Each argv of `util` exits 1 on every input and writes nothing.
fn assert_refused(util: &str, cases: &[&[&str]]) {
    for input in inputs(false) {
        for args in cases {
            let (stdout, status) = our_run(util, args, &input);
            assert_eq!(status, 1, "{util} {args:?}");
            assert!(stdout.is_empty(), "{util} {args:?} wrote {stdout:?}");
        }
    }
}

/// One option scanner reads every command's argv as GNU getopt does:
/// clusters (`-cd`, `-sf2`), a value in the rest of its word or the
/// next, `--`, options after operands, and an unknown option or a
/// missing value as a usage error with GNU's status (a count that
/// does not parse, and a `grep` pattern that does not compile, too).
/// Every `-e` pattern of a `grep` selects, and an empty `paste -d` list
/// joins with nothing. The input is sorted, so `comm` has no order to
/// complain of and `uniq` has groups; one copy of it ends in an
/// unterminated line.
#[test]
fn argv_forms_match_the_host() {
    const ARGVS: [&[&str]; 48] = [
        &["uniq", "-cd"],
        &["uniq", "-dc"],
        &["uniq", "--"],
        &["uniq", "-c", "--"],
        &["cut", "-sd", " ", "-f1"],
        &["cut", "-d", " ", "-sf2"],
        &["cut", "-sf1", "-d", " "],
        &["cut", "-f"],
        &["cut"],
        &["cut", "-f1", "--"],
        &["tr", "a"],
        &["tr"],
        &["tr", "-cd"],
        &["tr", "--", "a", "b"],
        &["head", "-n", "x"],
        &["head", "-c", "x"],
        &["tail", "-n", "x"],
        &["tail", "-n"],
        &["tail", "-2"],
        &["head", "--", "-"],
        &["head", "-n1", "--", "-"],
        &["sed"],
        &["sed", "-n"],
        &["sed", "-ne", "2p"],
        &["sed", "-nE", "-e", "2p"],
        &["sed", "-En", "2p"],
        &["sed", "2y/abc/xyz/"],
        &["grep", "-e", "b", "--"],
        &["grep", "-ie", "B"],
        &["grep", "-ce", "b"],
        &["rev", "--"],
        &["wc", "-l", "--"],
        &["grep", "-e", "a", "-e", "x"],
        &["grep", "-c", "-e", "a", "-e", "x"],
        &["grep", "-F", "-e", "a", "-e", "x"],
        &["grep", "-i", "-e", "A", "-e", "x"],
        &["paste", "-sd,", "-"],
        &["paste", "-s", "-d", "", "-"],
        &["cat", "-nu"],
        &["cat", "-un"],
        &["comm", "-1", "-2", "--", "in.txt", "-"],
        &["tr", "-s", "[:]", "x"],
        &["tr", "-d", "a-"],
        &["paste", "-s", "-d", "x\\", "-"],
        &["sed", "s/a/\\1/"],
        &["sed", "s/\\(/x/"],
        &["grep", "a\\("],
        &["grep", "-E", "a("],
    ];
    let mut sorted: Vec<&[u8]> = Vec::new();
    let text = corpus(3, 2_000, false);
    sorted.extend(text.split_inclusive(|&b| b == b'\n'));
    sorted.sort_unstable();
    let sorted = sorted.concat();
    let unterminated = [&sorted[..], b"zz, no newline"].concat();
    let inputs: [&[u8]; 3] = [&sorted, &unterminated, b""];
    for argv in ARGVS {
        assert_matches_host(argv[0], &[&argv[1..]], &inputs, false);
    }
}

/// The compiler reads an argv through the kernels' scan, so what it
/// classifies, splits and aggregates is what the command runs: each
/// argv behind `cat in.txt |`, compiled at widths 1, 2 and 4 and run on
/// `threads` and on `processes`, prints the host shell's bytes with
/// its status. A value in a cluster (`-rk 2`), a value that reads like
/// a file (`-t a`) and a second script (`-e 1d`) reach the aggregator
/// and the classifier as they reach the command; an addressed `y`
/// stays on one copy, and an argv the command refuses once scanned
/// (`-n x`, two lists, a class SET2 may not hold) runs once, with the
/// host's status; `tr`'s `[:]` is three bytes on every copy, and a
/// `grep` pattern that does not compile exits 2 on every copy.
#[test]
fn compiled_argvs_match_the_host_shell() {
    const ARGVS: [&str; 29] = [
        "sort -rk 2",
        "sort -nt a -k 2",
        "sed -Ee s/a/b/ -e 1d",
        "grep -e a -e x",
        "uniq -c",
        "sed 1y/abc/xyz/",
        "head -n x",
        "cut -f1 -c1",
        "tr -s '[:]' x",
        "tr a '[:digit:]'",
        "sed '1s/a;b/X/'",
        "paste -s -d 'a-c'",
        "sed '1y/a;/b:/'",
        "sed 's/\u{e9}/E/'",
        "sed 'y/a-c/x-z/'",
        "sed 'y/[:]/(;)/'",
        "sed '/a\\/b/d'",
        "tr -d '[:xdigit:]'",
        "tr -d '[:graph:]'",
        "tr -d '[:print:]'",
        "tr -d '[=a=]'",
        "tr '\\v' V",
        "tr '[:]' xyz",
        "tr -d c-a",
        "tr '[:alpha:]1' 'x[:upper:]'",
        "paste -s -d '\\0'",
        "paste -s -d '[:digit:]'",
        "paste -s -d '[:]'",
        "grep 'a\\('",
    ];
    let (Some(bins), Some(sh)) = (runtime_binaries(), host_path("sh")) else {
        eprintln!("skipping: no multicall binaries or no host /bin/sh");
        return;
    };
    let input = corpus(11, 4_000, false);
    for (i, argv) in ARGVS.iter().enumerate() {
        let script = format!("cat in.txt | {argv}");
        let case = format!("compiled-{i}");
        let (host, host_status) = host_run(&case, &sh, &["-c", &script], &input);
        for backend in ["threads", "processes"] {
            for width in [1, 2, 4] {
                let env = RunEnv {
                    proc: ProcSettings {
                        pashc: Some(bins.0.clone()),
                        pash_rt: Some(bins.1.clone()),
                        ..Default::default()
                    },
                    ..Default::default()
                };
                env.fs.add("in.txt", input.clone());
                let cfg = PashConfig {
                    width,
                    ..Default::default()
                };
                let out = match run(&script, &cfg, backend, &env) {
                    Ok(BackendOutput::Execution(out)) => out,
                    other => panic!("`{script}` on {backend} at width {width}: {other:?}"),
                };
                assert_eq!(
                    String::from_utf8_lossy(&out.stdout),
                    String::from_utf8_lossy(&host),
                    "`{script}` on {backend} at width {width} differs from the host"
                );
                assert_eq!(
                    out.status, host_status,
                    "`{script}` on {backend} at width {width}: exit status"
                );
            }
        }
    }
}
