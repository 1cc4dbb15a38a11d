//! `sed` — a stream-editor subset.
//!
//! Supported script forms (enough for every script in the paper's
//! evaluation):
//! * `s/RE/REPL/[g]` with an arbitrary delimiter (`s;^;prefix;` as in
//!   Fig. 1) and `\1…\9`/`&` in the replacement;
//! * `y/SET1/SET2/` transliteration;
//! * `[addr]d` deletion and `[addr]p` printing (with `-n`);
//! * `q` quit;
//! * addresses: line numbers and `/RE/`.
//!
//! Flags: `-n` (suppress auto-print), `-e SCRIPT` (multiple), `-E`
//! or `-r` (ERE). A script outside this subset — the last-line
//! address `$` among it, which needs a line of lookahead — is a usage
//! error (status 1, as GNU's), never a run with other bytes than
//! GNU's.
//! An unterminated last line is written unterminated, as GNU writes
//! it: what follows it starts with the missing newline, and `q` adds
//! it.

use std::io;

use pash_regex::{Matcher, Regex, Syntax};

use crate::args::scanned;
use crate::lines::{for_each_record, write_record};
use crate::{open_input, usage_error, CmdIo, Command, ExitStatus};

/// The `sed` command.
///
/// `s///` without addresses is stateless; line-number addresses and
/// `q` make invocations order-sensitive, which the annotation stdlib
/// classifies conservatively (class N).
pub struct Sed;

#[derive(Debug, Clone)]
enum Address {
    Line(u64),
    /// `N,M` inclusive line range.
    Range(u64, u64),
    Pattern(String),
}

#[derive(Debug, Clone)]
enum Instruction {
    Subst {
        addr: Option<Address>,
        re: String,
        repl: String,
        global: bool,
        print: bool,
    },
    Translit {
        addr: Option<Address>,
        from: Vec<u8>,
        to: Vec<u8>,
    },
    Delete(Option<Address>),
    Print(Option<Address>),
    Quit(Option<Address>),
}

impl Command for Sed {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let mut quiet = false;
        let mut ere = false;
        let mut scripts: Vec<&str> = Vec::new();
        let mut operands = scanned!(io, args, "sed", |name, value| {
            match name {
                "n" => quiet = true,
                "e" => scripts.push(value),
                _ => ere = true,
            }
            Ok(())
        });
        // Once any `-e` is given, every operand is a file, as in GNU.
        if scripts.is_empty() {
            match operands.shift() {
                Some(script) => scripts.push(script),
                None => return usage_error(io, "sed", "missing script"),
            }
        }
        let syntax = if ere { Syntax::Ere } else { Syntax::Bre };
        let mut instructions = Vec::new();
        for s in &scripts {
            for part in split_script(s) {
                match parse_instruction(&part) {
                    Some(inst) => instructions.push(inst),
                    None => return usage_error(io, "sed", &format!("invalid script `{part}`")),
                }
            }
        }
        // Pre-compile matchers (tiered engines with per-instruction
        // DFA caches that persist across the whole stream).
        let mut compiled: Vec<Option<Matcher>> = Vec::new();
        let mut addr_res: Vec<Option<Matcher>> = Vec::new();
        // Whether each substitution's replacement references capture
        // groups (`\1`…`\9`): only those pay for slot tracking; plain
        // replacements run on the find tier.
        let mut wants_caps: Vec<bool> = Vec::new();
        for inst in &instructions {
            let (re, addr, caps) = match inst {
                Instruction::Subst { re, addr, repl, .. } => {
                    (Some(re.as_str()), addr.as_ref(), repl_uses_groups(repl))
                }
                Instruction::Delete(a)
                | Instruction::Print(a)
                | Instruction::Quit(a)
                | Instruction::Translit { addr: a, .. } => (None, a.as_ref(), false),
            };
            compiled.push(match re {
                Some(r) => Some(compile(r, syntax)?),
                None => None,
            });
            addr_res.push(match addr {
                Some(Address::Pattern(p)) => Some(compile(p, syntax)?),
                _ => None,
            });
            wants_caps.push(caps);
        }
        let files = operands.inputs();

        let mut line_no: u64 = 0;
        let mut quit = false;
        // The pattern space is the line as the reader holds it until an
        // instruction changes it; only then does it live in `space`.
        // An untouched line is written from the borrowed block.
        let mut space: Vec<u8> = Vec::new();
        let mut scratch: Vec<u8> = Vec::new();
        let mut caps: Vec<Option<(usize, usize)>> = Vec::new();
        let mut missing_newline = false;
        let mut status = 0;
        for f in files {
            if quit {
                break;
            }
            // An operand that cannot be read is reported and skipped;
            // the rest still run, and the status says one failed.
            let mut r = match open_input(&io.fs, f, io.stdin) {
                Ok(r) => r,
                Err(e) => {
                    writeln!(io.stderr, "sed: can't read {f}: {e}")?;
                    status = 2;
                    continue;
                }
            };
            for_each_record(&mut r, |line, terminated| {
                line_no += 1;
                let mut changed = false;
                let mut deleted = false;
                let mut extra_prints = 0usize;
                for (i, inst) in instructions.iter().enumerate() {
                    let pattern_space: &[u8] = if changed { &space } else { line };
                    match inst {
                        Instruction::Subst {
                            addr,
                            repl,
                            global,
                            print,
                            ..
                        } => {
                            if addr_hits(addr, line_no, &mut addr_res[i], pattern_space) {
                                let m = compiled[i].as_mut().expect("subst has regex");
                                let caps = wants_caps[i].then_some(&mut caps);
                                if substitute(m, pattern_space, repl, *global, caps, &mut scratch) {
                                    std::mem::swap(&mut space, &mut scratch);
                                    changed = true;
                                    if *print {
                                        extra_prints += 1;
                                    }
                                }
                            }
                        }
                        Instruction::Translit { addr, from, to } => {
                            if !addr_hits(addr, line_no, &mut addr_res[i], pattern_space) {
                                continue;
                            }
                            if !changed {
                                space.clear();
                                space.extend_from_slice(line);
                                changed = true;
                            }
                            for b in space.iter_mut() {
                                if let Some(pos) = from.iter().position(|x| x == b) {
                                    *b = *to.get(pos).copied().as_ref().unwrap_or(b);
                                }
                            }
                        }
                        Instruction::Delete(addr) => {
                            if addr_hits(addr, line_no, &mut addr_res[i], pattern_space) {
                                deleted = true;
                                break;
                            }
                        }
                        Instruction::Print(addr) => {
                            if addr_hits(addr, line_no, &mut addr_res[i], pattern_space) {
                                extra_prints += 1;
                            }
                        }
                        Instruction::Quit(addr) => {
                            if addr_hits(addr, line_no, &mut addr_res[i], pattern_space) {
                                quit = true;
                                break;
                            }
                        }
                    }
                }
                let terminated = terminated || quit;
                if !deleted {
                    let pattern_space: &[u8] = if changed { &space } else { line };
                    for _ in 0..extra_prints + usize::from(!quiet) {
                        if missing_newline {
                            io.stdout.write_all(b"\n")?;
                        }
                        write_record(io.stdout, pattern_space, terminated)?;
                        missing_newline = !terminated;
                    }
                }
                if quit && missing_newline {
                    io.stdout.write_all(b"\n")?;
                }
                Ok(!quit)
            })?;
        }
        Ok(status)
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

fn compile(re: &str, syntax: Syntax) -> io::Result<Matcher> {
    Regex::new(re, syntax)
        .map(|r| r.matcher())
        .map_err(|e| invalid(e.to_string()))
}

/// Does an address select the current line?
fn addr_hits(
    addr: &Option<Address>,
    line_no: u64,
    m: &mut Option<Matcher>,
    pattern_space: &[u8],
) -> bool {
    match addr {
        None => true,
        Some(Address::Line(n)) => line_no == *n,
        Some(Address::Range(a, b)) => line_no >= *a && line_no <= *b,
        Some(Address::Pattern(_)) => m
            .as_mut()
            .map(|re| re.is_match(pattern_space))
            .unwrap_or(false),
    }
}

/// Does a replacement string reference capture groups (`\1`…`\9`)?
///
/// `&` only needs the whole-match span, which the find tier already
/// produces; numbered groups force the Pike VM's slot tracking. The
/// walk is escape-aware, mirroring `apply_replacement`: in `\\1` the
/// digit is literal text, not a group reference.
fn repl_uses_groups(repl: &str) -> bool {
    let b = repl.as_bytes();
    let mut i = 0;
    while i + 1 < b.len() {
        if b[i] == b'\\' {
            if b[i + 1].is_ascii_digit() && b[i + 1] != b'0' {
                return true;
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    false
}

/// Whether `script` rewrites each line on its own, as this `sed`
/// parses it: every instruction an unaddressed `s` or `y`. Such a
/// script may run on every part of a split input.
pub fn rewrites_each_line(script: &str) -> bool {
    split_script(script).iter().all(|part| {
        matches!(
            parse_instruction(part),
            Some(Instruction::Subst { addr: None, .. } | Instruction::Translit { addr: None, .. })
        )
    })
}

/// Splits a script on `;` at top level (not inside s/// bodies).
fn split_script(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut cur = String::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if (c == 's' || c == 'y') && i + 1 < bytes.len() && cur.trim().is_empty() {
            // Consume the whole s/// or y/// with its delimiter.
            let delim = bytes[i + 1];
            let mut sections = 0;
            let mut j = i + 2;
            cur.push(c);
            cur.push(delim as char);
            while j < bytes.len() && sections < 2 {
                if bytes[j] == b'\\' && j + 1 < bytes.len() {
                    cur.push('\\');
                    cur.push(bytes[j + 1] as char);
                    j += 2;
                    continue;
                }
                if bytes[j] == delim {
                    sections += 1;
                }
                cur.push(bytes[j] as char);
                j += 1;
            }
            // Trailing flags.
            while j < bytes.len() && bytes[j] != b';' {
                cur.push(bytes[j] as char);
                j += 1;
            }
            i = j;
            continue;
        }
        if c == ';' {
            if !cur.trim().is_empty() {
                out.push(cur.trim().to_string());
            }
            cur.clear();
        } else {
            cur.push(c);
        }
        i += 1;
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

fn parse_address(s: &str) -> (Option<Address>, &str) {
    let bytes = s.as_bytes();
    if bytes.is_empty() {
        return (None, s);
    }
    if bytes[0].is_ascii_digit() {
        let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        let n: u64 = s[..end].parse().unwrap_or(0);
        // Range form `N,M`.
        if s[end..].starts_with(',') {
            let rest = &s[end + 1..];
            let end2 = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            if end2 > 0 {
                let m: u64 = rest[..end2].parse().unwrap_or(n);
                return (Some(Address::Range(n, m)), &rest[end2..]);
            }
        }
        return (Some(Address::Line(n)), &s[end..]);
    }
    if bytes[0] == b'/' {
        if let Some(close) = s[1..].find('/') {
            return (
                Some(Address::Pattern(s[1..1 + close].to_string())),
                &s[close + 2..],
            );
        }
    }
    (None, s)
}

fn parse_instruction(s: &str) -> Option<Instruction> {
    let (addr, rest) = parse_address(s);
    let bytes = rest.as_bytes();
    match bytes.first()? {
        b's' => {
            let delim = *bytes.get(1)?;
            let mut parts = vec![String::new()];
            let mut i = 2;
            while i < bytes.len() && parts.len() <= 2 {
                if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    if bytes[i + 1] == delim {
                        parts.last_mut()?.push(delim as char);
                    } else {
                        parts.last_mut()?.push('\\');
                        parts.last_mut()?.push(bytes[i + 1] as char);
                    }
                    i += 2;
                    continue;
                }
                if bytes[i] == delim {
                    parts.push(String::new());
                } else {
                    parts.last_mut()?.push(bytes[i] as char);
                }
                i += 1;
            }
            if parts.len() != 3 {
                return None;
            }
            // Everything after the closing delimiter is flags.
            if i < bytes.len() {
                let tail: String = rest[i..].to_string();
                parts[2].push_str(&tail);
            }
            let flags = &parts[2];
            Some(Instruction::Subst {
                addr,
                re: parts[0].clone(),
                repl: parts[1].clone(),
                global: flags.contains('g'),
                print: flags.contains('p'),
            })
        }
        b'y' => {
            let delim = *bytes.get(1)? as char;
            let body: Vec<&str> = rest.get(2..)?.split(delim).collect();
            if body.len() < 2 {
                return None;
            }
            let from = crate::cmd::tr::expand_set(body[0]);
            let to = crate::cmd::tr::expand_set(body[1]);
            if from.len() != to.len() {
                return None;
            }
            Some(Instruction::Translit { addr, from, to })
        }
        b'd' if rest.len() == 1 => Some(Instruction::Delete(addr)),
        b'p' if rest.len() == 1 => Some(Instruction::Print(addr)),
        b'q' if rest.len() == 1 => Some(Instruction::Quit(addr)),
        _ => None,
    }
}

/// Applies a substitution: when the pattern matches, builds the new
/// line in `out` and returns true; a line it does not match is left
/// alone (nothing is copied).
///
/// `caps` is the capture buffer when the replacement references
/// `\1`…`\9`; only then does the loop run the capture engine (which a
/// line without a match never reaches) — otherwise each match is
/// located by the much faster find tier and `&`/literal replacements
/// are spliced from the whole-match span alone.
fn substitute(
    re: &mut Matcher,
    line: &[u8],
    repl: &str,
    global: bool,
    mut caps: Option<&mut Vec<Option<(usize, usize)>>>,
    out: &mut Vec<u8>,
) -> bool {
    out.clear();
    let mut at = 0usize;
    let mut matched = false;
    // Where the previous non-empty match ended: an empty match is not
    // allowed right there (`s/b*/x/g` on `abc` is `xaxcx`, not `xaxxcx`).
    let mut prev_end = None;
    while at <= line.len() {
        let whole;
        let groups: &[Option<(usize, usize)>] = match caps.as_deref_mut() {
            Some(caps) => {
                if !re.captures_into(line, at, caps) {
                    break;
                }
                caps
            }
            None => match re.find_at(line, at) {
                Some(span) => {
                    whole = [Some(span)];
                    &whole
                }
                None => break,
            },
        };
        let (s, e) = groups[0].expect("group 0 present");
        out.extend_from_slice(&line[at..s]);
        if e > s || prev_end != Some(s) {
            apply_replacement(repl, line, groups, out);
            matched = true;
        }
        if e == s {
            // Empty match: copy one byte to make progress.
            if s < line.len() {
                out.push(line[s]);
            }
            at = s + 1;
        } else {
            at = e;
            prev_end = Some(e);
        }
        if !global {
            break;
        }
    }
    if matched && at < line.len() {
        out.extend_from_slice(&line[at..]);
    }
    matched
}

fn apply_replacement(repl: &str, line: &[u8], caps: &[Option<(usize, usize)>], out: &mut Vec<u8>) {
    let bytes = repl.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if i + 1 < bytes.len() => {
                let c = bytes[i + 1];
                if c.is_ascii_digit() {
                    let g = (c - b'0') as usize;
                    if let Some(Some((s, e))) = caps.get(g) {
                        out.extend_from_slice(&line[*s..*e]);
                    }
                } else if c == b'n' {
                    out.push(b'\n');
                } else {
                    out.push(c);
                }
                i += 2;
            }
            b'&' => {
                if let Some(Some((s, e))) = caps.first() {
                    out.extend_from_slice(&line[*s..*e]);
                }
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::fs::MemFs;
    use crate::{run_command, Registry};
    use std::sync::Arc;

    fn sed(args: &[&str], input: &str) -> String {
        let mut argv = vec!["sed"];
        argv.extend(args);
        let out = run_command(
            &Registry::standard(),
            Arc::new(MemFs::new()),
            &argv,
            input.as_bytes(),
        )
        .expect("run");
        String::from_utf8(out.stdout).expect("utf8")
    }

    #[test]
    fn an_unterminated_last_line_stays_so() {
        assert_eq!(sed(&["s/a/b/"], "ab\ncad"), "bb\ncbd");
        assert_eq!(sed(&["-n", "2p"], "ab\ncad"), "cad");
        assert_eq!(sed(&["1d"], "ab\ncad"), "cad");
        // Printed twice, it gets the newline between the copies only.
        assert_eq!(sed(&["p"], "a"), "a\na");
        // `q` ends the output with one, and runs nothing after it.
        assert_eq!(sed(&["q"], "a"), "a\n");
        assert_eq!(sed(&["-n", "p;q"], "a"), "a\n");
        assert_eq!(sed(&["-e", "q", "-e", "d"], "a\nb\n"), "a\n");
    }

    #[test]
    fn a_missing_newline_is_written_before_the_next_operand() {
        let fs = Arc::new(MemFs::new());
        fs.add("f1", b"a".to_vec());
        fs.add("f2", b"b\nc".to_vec());
        let out =
            run_command(&Registry::standard(), fs, &["sed", "p", "f1", "f2"], b"").expect("run");
        assert_eq!(out.stdout, b"a\na\nb\nb\nc\nc");
    }

    #[test]
    fn substitute_first() {
        assert_eq!(sed(&["s/a/X/"], "banana\n"), "bXnana\n");
    }

    #[test]
    fn substitute_global() {
        assert_eq!(sed(&["s/a/X/g"], "banana\n"), "bXnXnX\n");
    }

    #[test]
    fn alternate_delimiter_prefix_insert() {
        // The Fig. 1 idiom: sed "s;^;URL/;".
        assert_eq!(
            sed(&["s;^;ftp://host/2015/;"], "file1.gz\n"),
            "ftp://host/2015/file1.gz\n"
        );
    }

    #[test]
    fn prefix_text_insert() {
        assert_eq!(
            sed(&["s/^/Maximum temperature for 2015 is: /"], "0450\n"),
            "Maximum temperature for 2015 is: 0450\n"
        );
    }

    #[test]
    fn ampersand_in_replacement() {
        assert_eq!(sed(&["s/b/[&]/"], "abc\n"), "a[b]c\n");
    }

    #[test]
    fn backreference_in_replacement() {
        assert_eq!(sed(&[r"s/\(a*\)b/<\1>/"], "aaab\n"), "<aaa>\n");
    }

    #[test]
    fn delete_by_pattern() {
        assert_eq!(sed(&["/^#/d"], "#c\nkeep\n#d\n"), "keep\n");
    }

    #[test]
    fn delete_by_line_number() {
        assert_eq!(sed(&["2d"], "a\nb\nc\n"), "a\nc\n");
    }

    #[test]
    fn quiet_print() {
        assert_eq!(sed(&["-n", "/b/p"], "a\nb\nc\n"), "b\n");
    }

    #[test]
    fn print_duplicates_without_quiet() {
        assert_eq!(sed(&["/b/p"], "a\nb\n"), "a\nb\nb\n");
    }

    #[test]
    fn range_address_print() {
        assert_eq!(sed(&["-n", "1,2p"], "a\nb\nc\n"), "a\nb\n");
    }

    #[test]
    fn range_address_delete() {
        assert_eq!(sed(&["2,3d"], "a\nb\nc\nd\n"), "a\nd\n");
    }

    #[test]
    fn quit_by_line() {
        assert_eq!(sed(&["2q"], "a\nb\nc\n"), "a\nb\n");
    }

    #[test]
    fn transliterate() {
        assert_eq!(sed(&["y/abc/xyz/"], "aabbcc\n"), "xxyyzz\n");
    }

    #[test]
    fn multiple_expressions() {
        assert_eq!(sed(&["-e", "s/a/1/", "-e", "s/b/2/"], "ab\n"), "12\n");
    }

    #[test]
    fn semicolon_separated_script() {
        assert_eq!(sed(&["s/a/1/;s/b/2/"], "ab\n"), "12\n");
    }

    #[test]
    fn ere_mode() {
        assert_eq!(sed(&["-E", "s/(a|b)+/X/"], "aababc\n"), "Xc\n");
    }

    #[test]
    fn addressed_substitution() {
        assert_eq!(sed(&["2s/a/X/"], "a\na\n"), "a\nX\n");
    }

    #[test]
    fn empty_match_after_a_match_is_skipped() {
        assert_eq!(sed(&["s/b*/x/g"], "abc\n"), "xaxcx\n");
        assert_eq!(sed(&["-E", "s/(a|b)*/<&>/g"], "as a\n"), "<a>s<> <a>\n");
    }

    #[test]
    fn no_match_leaves_line() {
        assert_eq!(sed(&["s/zzz/x/"], "abc\n"), "abc\n");
    }

    #[test]
    fn escaped_backslash_before_digit_is_literal() {
        // `\\1` in the replacement is a literal backslash then `1`,
        // not a group reference (and must not force the capture tier).
        assert_eq!(sed(&[r"s/b/\\1/"], "abc\n"), "a\\1c\n");
        assert!(!super::repl_uses_groups(r"\\1"));
        assert!(super::repl_uses_groups(r"<\1>"));
        assert!(super::repl_uses_groups(r"\\\2"));
        assert!(!super::repl_uses_groups(r"\n&\\"));
    }
}
