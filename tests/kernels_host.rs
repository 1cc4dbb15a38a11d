//! Our `cut`, `tr`, `uniq`, `wc`, `head`, `tail`, `tac`, `nl`, `rev`,
//! `fold`, `cat -n`, `paste`, `grep`, `sed` and `tee` against the
//! host's, byte for byte and exit status for exit status, under
//! `LC_ALL=C`.
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

use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pash::core::compile::PashConfig;
use pash::coreutils::fs::{Fs, MemFs, RealFs};
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
    host_run_in(case, util, args, &[("in.txt", input)], input)
}

/// `util ARGS…` on the host in a fresh working directory that holds
/// `files`, `stdin` piped to it.
fn host_run_in(
    case: &str,
    util: &PathBuf,
    args: &[&str],
    files: &[(&str, &[u8])],
    stdin: &[u8],
) -> (Vec<u8>, i32) {
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
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("write input");
    }
    let mut child = Command::new(util)
        .args(args)
        .current_dir(&dir)
        .env("LC_ALL", "C")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn host utility");
    let child_stdin = child.stdin.take().expect("piped stdin");
    let out = std::thread::scope(|s| {
        // Fed from a second thread: the utility may fill its stdout
        // pipe long before it has read all of its stdin. One that
        // reads `in.txt` instead closes the pipe early; that is fine.
        let (mut pipe, bytes) = (child_stdin, stdin);
        s.spawn(move || {
            let _ = pipe.write_all(bytes);
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
    // Once on stdin (seven columns wide for several counts) and once
    // naming `in.txt` (as wide as the file's length, GNU's rule).
    let cases: [&[&str]; 6] = [&["-l"], &["-w"], &["-c"], &["-lw"], &["-lc"], &[]];
    let inputs = inputs(false);
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_matches_host("wc", &cases, &inputs, true);
}

/// `wc` over several operands names each and sizes its columns from
/// the summed lengths of the named files, at least seven wide when one
/// of them is stdin, and a lone count of a lone file is bare: GNU's
/// `compute_number_width`, with the files in a directory of their own.
#[test]
fn wc_names_and_sizes_several_operands_as_the_host_does() {
    let Some(host) = host_path("wc") else {
        eprintln!("skipping: the host has no `wc`");
        return;
    };
    let big = "x\n".repeat(2000).into_bytes();
    let files: [(&str, &[u8]); 4] = [
        ("in.txt", b"one two\nthree\n"),
        ("in2.txt", b"x\n"),
        ("big", &big),
        ("small", b"1\n2\n"),
    ];
    let argvs: [&[&str]; 6] = [
        &["in.txt"],
        &["-l", "in.txt"],
        &["-l", "in.txt", "in2.txt"],
        &["-lw", "big", "small"],
        &["-c", "-", "small"],
        &["big", "in2.txt", "small"],
    ];
    let fs = Arc::new(MemFs::new());
    for (name, bytes) in files {
        fs.add(name, bytes.to_vec());
    }
    for (i, args) in argvs.iter().enumerate() {
        let argv: Vec<&str> = std::iter::once("wc").chain(args.iter().copied()).collect();
        let ours = run_command(&Registry::standard(), fs.clone(), &argv, b"a b\n").expect("runs");
        let theirs = host_run_in(&format!("wc-operands-{i}"), &host, args, &files, b"a b\n");
        assert_eq!(
            String::from_utf8_lossy(&ours.stdout),
            String::from_utf8_lossy(&theirs.0),
            "wc {args:?}"
        );
        assert_eq!(ours.status, theirs.1, "wc {args:?}: exit status");
    }
}

/// A file `tee` cannot create is reported and left out; stdin still
/// reaches stdout and the other files, and the status is 1, as GNU's.
/// (Over a real directory: an in-memory one has no directories to
/// miss.)
#[test]
fn tee_goes_on_past_a_file_it_cannot_create() {
    let Some(host) = host_path("tee") else {
        eprintln!("skipping: the host has no `tee`");
        return;
    };
    let dir = |who: &str| {
        let d = std::env::temp_dir().join(format!("pash-tee-{}-{who}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    };
    let (ours_dir, host_dir) = (dir("ours"), dir("host"));
    let fs = Arc::new(RealFs::new(ours_dir.clone()));
    let argv = ["tee", "nodir/x", "ok.txt"];
    let ours = run_command(&Registry::standard(), fs, &argv, b"hi\n").expect("runs");
    let mut child = Command::new(&host)
        .args(&argv[1..])
        .current_dir(&host_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn host tee");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(b"hi\n").expect("feed host tee");
    drop(stdin);
    let theirs = child.wait_with_output().expect("host tee exits");
    assert_eq!(ours.stdout, theirs.stdout);
    assert_eq!(Some(ours.status), theirs.status.code());
    assert_eq!(
        String::from_utf8_lossy(&ours.stderr),
        "tee: nodir/x: No such file or directory\n"
    );
    for d in [&ours_dir, &host_dir] {
        assert_eq!(std::fs::read(d.join("ok.txt")).expect("ok.txt"), b"hi\n");
        assert!(!d.join("nodir").exists());
        let _ = std::fs::remove_dir_all(d);
    }
}

/// An operand that cannot be opened is reported on stderr in GNU's
/// words and skipped: the command goes on to the next and exits 1
/// (`grep` 2), with the stdout the host prints; `sort` reads every
/// input before it writes, so it prints nothing and exits 2. Over a
/// real directory, whose message is the system's, and over a `MemFs`,
/// whose message must be the same.
#[test]
fn a_missing_operand_is_reported_and_skipped() {
    let rows: [&[&str]; 8] = [
        &["cat", "nope", "t1"],
        &["wc", "-l", "t1", "nope"],
        &["nl", "nope", "t1"],
        &["cut", "-c1", "nope", "t1"],
        &["sha1sum", "nope", "t1"],
        &["grep", "-h", "1", "nope", "t1"],
        &["head", "-n", "1", "nope"],
        &["sort", "nope", "t1"],
    ];
    let files: [(&str, &[u8]); 1] = [("t1", b"1 one\n2 two\n")];
    let dir = std::env::temp_dir().join(format!("pash-missing-operand-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join(files[0].0), files[0].1).expect("write t1");
    let real: Arc<dyn Fs> = Arc::new(RealFs::new(dir.clone()));
    let mem = MemFs::new();
    mem.add(files[0].0, files[0].1.to_vec());
    let mem: Arc<dyn Fs> = Arc::new(mem);
    for (i, argv) in rows.iter().enumerate() {
        let Some(host) = host_path(argv[0]) else {
            eprintln!("skipping: the host has no `{}`", argv[0]);
            continue;
        };
        let theirs = host_run_in(&format!("missing-{i}"), &host, &argv[1..], &files, b"");
        let said = match argv[0] {
            "head" => "head: cannot open 'nope' for reading: No such file or directory\n",
            "sort" => "sort: cannot read: nope: No such file or directory\n",
            name => &format!("{name}: nope: No such file or directory\n"),
        };
        for fs in [&real, &mem] {
            let ours = run_command(&Registry::standard(), fs.clone(), argv, b"").expect("runs");
            assert_eq!(
                String::from_utf8_lossy(&ours.stdout),
                String::from_utf8_lossy(&theirs.0),
                "{argv:?}"
            );
            assert_eq!(ours.status, theirs.1, "{argv:?}: exit status");
            assert_eq!(String::from_utf8_lossy(&ours.stderr), said, "{argv:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
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

/// `script` compiled at widths 1, 2 and 4 and run on `threads` and on
/// `processes`, `files` in its directory and `stdin` on its stdin,
/// prints `host`'s bytes with its status.
fn assert_compiled_matches(
    script: &str,
    files: &[(&str, &[u8])],
    stdin: &[u8],
    host: &(Vec<u8>, i32),
    bins: &(PathBuf, PathBuf),
) {
    for backend in ["threads", "processes"] {
        for width in [1, 2, 4] {
            let env = RunEnv {
                stdin: stdin.to_vec(),
                proc: ProcSettings {
                    pashc: Some(bins.0.clone()),
                    pash_rt: Some(bins.1.clone()),
                    ..Default::default()
                },
                ..Default::default()
            };
            for (name, bytes) in files {
                env.fs.add(*name, bytes.to_vec());
            }
            let cfg = PashConfig {
                width,
                ..Default::default()
            };
            let out = match run(script, &cfg, backend, &env) {
                Ok(BackendOutput::Execution(out)) => out,
                other => panic!("`{script}` on {backend} at width {width}: {other:?}"),
            };
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&host.0),
                "`{script}` on {backend} at width {width} differs from the host"
            );
            assert_eq!(
                out.status, host.1,
                "`{script}` on {backend} at width {width}: exit status"
            );
        }
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
/// `grep` pattern that does not compile exits 2 on every copy. A word
/// is a word whatever it holds: the last pattern once spelt the
/// compiler's in-band stream marker, and its input holds it. A `head`
/// or `tail` that names its file is split over the file, and the
/// aggregator re-applied to the parts reads the parts, not the file;
/// `sha1sum in.txt` prints the file's own name at every width.
#[test]
fn compiled_argvs_match_the_host_shell() {
    const ARGVS: [&str; 30] = [
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
        "grep '\u{1}PASH_STREAM0\u{1}'",
    ];
    let (Some(bins), Some(sh)) = (runtime_binaries(), host_path("sh")) else {
        eprintln!("skipping: no multicall binaries or no host /bin/sh");
        return;
    };
    let input = corpus(11, 4_000, false);
    let marked = [&input[..], b"a \x01PASH_STREAM0\x01 b\n"].concat();
    for (i, argv) in ARGVS.iter().enumerate() {
        let input = if argv.contains('\u{1}') {
            &marked
        } else {
            &input
        };
        let script = format!("cat in.txt | {argv}");
        let case = format!("compiled-{i}");
        let host = host_run(&case, &sh, &["-c", &script], input);
        assert_compiled_matches(&script, &[("in.txt", input)], &[], &host, &bins);
    }
    for (i, script) in ["head -n 1 in.txt", "tail -n 1 in.txt", "sha1sum in.txt"]
        .iter()
        .enumerate()
    {
        let case = format!("compiled-file-{i}");
        let files: [(&str, &[u8]); 1] = [("in.txt", &input)];
        let host = host_run_in(&case, &sh, &["-c", script], &files, b"");
        assert_compiled_matches(script, &files, &[], &host, &bins);
    }
}

/// A streamed `-` reads the script's stdin wherever it stands: in
/// `comm f -` fed on stdin the file is named and stdin is the second
/// operand, on every backend and at every width, as in the host shell.
#[test]
fn a_streamed_dash_after_a_file_reads_stdin() {
    let (Some(bins), Some(sh)) = (runtime_binaries(), host_path("sh")) else {
        eprintln!("skipping: no multicall binaries or no host /bin/sh");
        return;
    };
    // Two sorted, overlapping sets of distinct lines.
    let mut lines: Vec<&[u8]> = Vec::new();
    let text = corpus(5, 3_000, false);
    lines.extend(text.split_inclusive(|&b| b == b'\n'));
    lines.sort_unstable();
    lines.dedup();
    let pick = |keep: fn(usize) -> bool| -> Vec<u8> {
        let kept = lines.iter().enumerate().filter(|&(i, _)| keep(i));
        kept.flat_map(|(_, l)| l.iter().copied()).collect()
    };
    let file = pick(|i| i % 3 != 0);
    let stdin = pick(|i| i % 2 != 0);
    for script in ["comm f -", "comm -12 f -"] {
        let files: [(&str, &[u8]); 1] = [("f", &file)];
        let host = host_run_in("comm-stdin", &sh, &["-c", script], &files, &stdin);
        assert!(!host.0.is_empty(), "`{script}` prints something");
        assert_compiled_matches(script, &files, &stdin, &host, &bins);
    }
}

/// `sh -c script` on the host in a fresh working directory of its own
/// holding `files`: its stdout, its status and the bytes it left in
/// `file`.
fn host_leaves(script: &str, files: &[(&str, &[u8])], file: &str) -> (Vec<u8>, i32, Vec<u8>) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pash-kernels-leaves-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("write input");
    }
    let out = Command::new("/bin/sh")
        .args(["-c", script])
        .current_dir(&dir)
        .env("LC_ALL", "C")
        .stdin(Stdio::null())
        .output()
        .expect("run the host shell");
    let left = std::fs::read(dir.join(file)).expect("the file is there");
    let _ = std::fs::remove_dir_all(&dir);
    (out.stdout, out.status.code().expect("not signalled"), left)
}

/// `script` compiled at each of `widths` on `threads` and `processes`
/// (each over its own copy of `files`) leaves the host's stdout,
/// status and `file`.
fn assert_leaves_as_the_host(script: &str, files: &[(&str, &[u8])], file: &str, widths: &[usize]) {
    let Some(bins) = runtime_binaries().filter(|_| host_path("sh").is_some()) else {
        eprintln!("skipping: no multicall binaries or no host /bin/sh");
        return;
    };
    let host = host_leaves(script, files, file);
    for backend in ["threads", "processes"] {
        for &width in widths {
            let env = RunEnv {
                proc: ProcSettings {
                    pashc: Some(bins.0.clone()),
                    pash_rt: Some(bins.1.clone()),
                    ..Default::default()
                },
                ..Default::default()
            };
            for (name, bytes) in files {
                env.fs.add(*name, bytes.to_vec());
            }
            let cfg = PashConfig {
                width,
                ..Default::default()
            };
            let out = match run(script, &cfg, backend, &env) {
                Ok(BackendOutput::Execution(out)) => out,
                other => panic!("`{script}` on {backend} at width {width}: {other:?}"),
            };
            let left = env.fs.read(file).expect("the file is there");
            assert_eq!(
                (out.stdout, out.status, left),
                host.clone(),
                "`{script}` on {backend} at width {width}"
            );
        }
    }
}

/// An output file is emptied when its command opens it, before the
/// command reads: `sort u > u` leaves `u` empty, on the host and over
/// the `MemFs` the `threads` backend runs on, whose `create` used to
/// empty a file only once its writer was done. (At width 1: wider, the
/// copies read `u` before the merge behind them opens it.)
#[test]
fn an_output_file_is_emptied_when_it_is_opened() {
    let fs = MemFs::new();
    fs.add("u", b"b\na\n".to_vec());
    let fs: Arc<dyn Fs> = Arc::new(fs);
    let w = fs.create("u").expect("create");
    let mut r = fs.open("u").expect("open");
    let mut seen = Vec::new();
    r.read_to_end(&mut seen).expect("read");
    assert!(seen.is_empty(), "emptied by `create`, not by the drop");
    drop(w);
    let files: [(&str, &[u8]); 1] = [("u", b"b\na\n")];
    assert_eq!(host_leaves("sort u > u", &files, "u").2, b"");
    assert_leaves_as_the_host("sort u > u", &files, "u", &[1]);
}

/// `uniq IN OUT` writes OUT, as GNU's does, and prints nothing: the
/// second operand is no input. The host runs in a directory of its own.
#[test]
fn uniq_writes_its_output_operand_as_the_host_does() {
    let files: [(&str, &[u8]); 1] = [("uin", b"a\na\nb\nb\na\n")];
    assert_leaves_as_the_host("uniq uin uout", &files, "uout", &[1, 2]);
    assert_leaves_as_the_host("uniq -c uin uout", &files, "uout", &[1, 2]);
}
