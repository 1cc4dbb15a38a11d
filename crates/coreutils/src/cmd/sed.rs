//! `sed` — a stream-editor subset, its script read in one pass over
//! the bytes: instructions apart by `;` or a newline, each an optional
//! address and a command, blanks around the address and after the
//! command. Enough for every script in the paper's evaluation:
//! * addresses: a line `N`, a range `N,M` (line `N` alone when `M` is
//!   not past it, as in GNU), and `/RE/`, where `\/` is a slash;
//! * `s/RE/REPL/FLAGS`, any ASCII delimiter but `\` and a newline
//!   (`s;^;prefix;` as in Fig. 1), which stands for itself escaped.
//!   In REPL `&` and `\0` are the match, `\1`…`\9` its groups, `\\ \a
//!   \f \n \r \t \v` the escapes `tr` reads, and any other escaped
//!   byte but a letter or digit is itself. FLAGS: `g` and `p`, once;
//! * `y/SET1/SET2/`: literal lists of one length, REPL's escapes read
//!   (`&` and the groups refused);
//! * `d`, `p`, and `q` (on no address or one line);
//! * options `-n`, `-e SCRIPT` (multiple), `-E` or `-r` (ERE).
//!
//! Every other form is a usage error (status 1, as GNU's), never a run
//! with other bytes than GNU's: the last-line address `$` (it needs a
//! line of lookahead), line 0, `first~step`, a range to or from a
//! pattern, `\cREc`, address flags, `!`, an empty RE or one the regex
//! engine refuses (a back-reference among it), the `s` flags `N`, `i`,
//! `I`, `m`, `M`, `e` and `w FILE`, a group RE lacks, any other
//! escaped letter or digit in REPL or `y` (`\L`, `\U`, `\x41`, …), `q
//! EXIT`, comments, braces and every other command.
//!
//! An unterminated last line is written unterminated, as GNU writes
//! it: what follows it starts with the missing newline, and `q` adds
//! it.

use std::io;

use pash_regex::{Matcher, Regex, Syntax};

use crate::args::{escape, scanned, Reading};
use crate::lines::{for_each_record, write_record};
use crate::{open_input, usage_error, CmdIo, Command, ExitStatus};

/// The `sed` command.
///
/// `s///` without addresses is stateless; line-number addresses and
/// `q` make invocations order-sensitive, which the annotation stdlib
/// classifies conservatively (class N).
pub struct Sed;

enum Address {
    Line(u64),
    /// `N,M`: line `N`, and the lines after it up to `M`.
    Range(u64, u64),
    Pattern(String),
}

/// A piece of a replacement: bytes, or the span of a group (0 for the
/// whole match).
enum Piece {
    Text(Vec<u8>),
    Group(usize),
}

enum Op {
    /// `top`: the highest group `repl` names.
    Subst {
        re: String,
        repl: Vec<Piece>,
        top: usize,
        global: bool,
        print: bool,
    },
    /// `y`: each byte's image.
    Translit(Box<[u8; 256]>),
    Delete,
    Print,
    Quit,
}

struct Instruction {
    addr: Option<Address>,
    op: Op,
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
            match parse(s) {
                Ok(parsed) => instructions.extend(parsed),
                Err(e) => return usage_error(io, "sed", &e),
            }
        }
        // Pre-compile matchers (tiered engines with per-instruction
        // DFA caches that persist across the whole stream): each
        // instruction's pattern and address.
        let mut matchers: Vec<(Option<Matcher>, Option<Matcher>)> = Vec::new();
        let pattern = |re: &str| Regex::new(re, syntax).map_err(|e| e.to_string());
        for inst in &instructions {
            let re = match &inst.op {
                Op::Subst { re, top, .. } => match pattern(re) {
                    Ok(regex) if *top <= regex.groups() => Ok(Some(regex.matcher())),
                    Ok(_) => Err(format!("invalid reference \\{top} on `s' command's RHS")),
                    Err(e) => Err(e),
                },
                _ => Ok(None),
            };
            let addr = match &inst.addr {
                Some(Address::Pattern(p)) => pattern(p).map(|regex| Some(regex.matcher())),
                _ => Ok(None),
            };
            match (re, addr) {
                (Ok(re), Ok(addr)) => matchers.push((re, addr)),
                (Err(e), _) | (_, Err(e)) => return usage_error(io, "sed", &e),
            }
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
                for (inst, (re, addr_re)) in instructions.iter().zip(&mut matchers) {
                    let pattern_space: &[u8] = if changed { &space } else { line };
                    if !addr_hits(&inst.addr, line_no, addr_re, pattern_space) {
                        continue;
                    }
                    match &inst.op {
                        Op::Subst {
                            repl,
                            top,
                            global,
                            print,
                            ..
                        } => {
                            let m = re.as_mut().expect("subst has regex");
                            // Only a replacement that names a group pays
                            // for slot tracking; `&` and text run on the
                            // find tier.
                            let caps = (*top > 0).then_some(&mut caps);
                            if substitute(m, pattern_space, repl, *global, caps, &mut scratch) {
                                std::mem::swap(&mut space, &mut scratch);
                                changed = true;
                                extra_prints += usize::from(*print);
                            }
                        }
                        Op::Translit(table) => {
                            if !changed {
                                space.clear();
                                space.extend_from_slice(line);
                                changed = true;
                            }
                            for b in space.iter_mut() {
                                *b = table[*b as usize];
                            }
                        }
                        Op::Delete => {
                            deleted = true;
                            break;
                        }
                        Op::Print => extra_prints += 1,
                        Op::Quit => {
                            quit = true;
                            break;
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
        Some(Address::Range(a, b)) => line_no == *a || (line_no > *a && line_no <= *b),
        Some(Address::Pattern(_)) => m.as_mut().is_some_and(|re| re.is_match(pattern_space)),
    }
}

/// Whether `sed`, read as `r`, rewrites each line on its own: no `-n`,
/// and every instruction of its scripts (its `-e`s, or else its first
/// operand) an unaddressed `s` or `y`, as this `sed` reads them. Such
/// a `sed` may run on every part of a split input.
pub fn rewrites_each_line(r: &Reading) -> bool {
    let mut scripts: Vec<&str> = r.values("e").collect();
    if scripts.is_empty() {
        scripts.extend(r.operands.0.first().map(|&(_, script)| script));
    }
    let per_line = |inst: &Instruction| {
        inst.addr.is_none() && matches!(inst.op, Op::Subst { .. } | Op::Translit(_))
    };
    !r.has("n")
        && scripts
            .into_iter()
            .all(|s| parse(s).is_ok_and(|is| is.iter().all(per_line)))
}

/// Reads a script into its instructions, in one pass over its bytes;
/// a form this `sed` lacks is an error.
fn parse(script: &str) -> Result<Vec<Instruction>, String> {
    let mut c = Cursor {
        s: script.as_bytes(),
        at: 0,
    };
    let mut out = Vec::new();
    loop {
        c.skip(b" \t\n;");
        if c.peek().is_none() {
            return Ok(out);
        }
        let addr = c.address()?;
        c.skip(b" \t");
        let op = match c.next() {
            Some(b's') => {
                let (delim, [re, repl]) = c.bodies()?;
                let (re, (repl, top)) = (regex(re, delim)?, replacement(repl, delim)?);
                let (mut global, mut print) = (false, false);
                loop {
                    c.skip(b" \t");
                    match c.peek() {
                        Some(b'g') if !global => global = true,
                        Some(b'p') if !print => print = true,
                        _ => break,
                    }
                    c.at += 1;
                }
                Op::Subst {
                    re,
                    repl,
                    top,
                    global,
                    print,
                }
            }
            Some(b'y') => {
                let (delim, [from, to]) = c.bodies()?;
                let (from, to) = (list(from, delim)?, list(to, delim)?);
                if from.len() != to.len() {
                    return Err("strings for `y' command are different lengths".into());
                }
                let mut table = Box::new(std::array::from_fn(|b| b as u8));
                for (&f, &t) in from.iter().zip(&to) {
                    table[f as usize] = t;
                }
                Op::Translit(table)
            }
            Some(b'd') => Op::Delete,
            Some(b'p') => Op::Print,
            Some(b'q') if !matches!(addr, Some(Address::Range(..))) => Op::Quit,
            _ => return Err(format!("unknown command or form: `{script}`")),
        };
        c.skip(b" \t");
        if !matches!(c.peek(), None | Some(b';' | b'\n')) {
            return Err(format!("extra characters after command: `{script}`"));
        }
        out.push(Instruction { addr, op });
    }
}

/// A place in a script's bytes.
struct Cursor<'a> {
    s: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.at).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        self.at += 1;
        b
    }

    /// Moves past any of `bytes`.
    fn skip(&mut self, bytes: &[u8]) {
        while self.peek().is_some_and(|b| bytes.contains(&b)) {
            self.at += 1;
        }
    }

    /// A line number, if one starts here; 0 is an error.
    fn line(&mut self) -> Result<Option<u64>, String> {
        let start = self.at;
        self.skip(b"0123456789");
        let digits = std::str::from_utf8(&self.s[start..self.at]).unwrap_or_default();
        match digits.parse() {
            _ if digits.is_empty() => Ok(None),
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(format!("invalid line address {digits}")),
        }
    }

    fn address(&mut self) -> Result<Option<Address>, String> {
        if self.peek() == Some(b'/') {
            let (_, [re]) = self.bodies()?;
            return Ok(Some(Address::Pattern(regex(re, b'/')?)));
        }
        let Some(first) = self.line()? else {
            return Ok(None);
        };
        self.skip(b" \t");
        if self.peek() != Some(b',') {
            return Ok(Some(Address::Line(first)));
        }
        self.at += 1;
        self.skip(b" \t");
        match self.line()? {
            Some(last) => Ok(Some(Address::Range(first, last))),
            None => Err("unexpected `,'".into()),
        }
    }

    /// A delimiter (an ASCII byte but a backslash or a newline) and the
    /// `N` bodies it ends, escapes left in.
    fn bodies<const N: usize>(&mut self) -> Result<(u8, [&'a [u8]; N]), String> {
        let delim = self
            .next()
            .filter(|&d| d.is_ascii() && d != b'\\' && d != b'\n');
        let delim = delim.ok_or("an unusable delimiter")?;
        let mut bodies = [&self.s[..0]; N];
        for body in &mut bodies {
            let start = self.at;
            loop {
                match self.peek() {
                    None | Some(b'\n') => return Err("an unterminated body".into()),
                    Some(b) if b == delim => break,
                    Some(b) => self.at += 1 + usize::from(b == b'\\'),
                }
            }
            *body = &self.s[start..self.at];
            self.at += 1;
        }
        Ok((delim, bodies))
    }
}

/// A pattern's body as the regex engine reads it: an escaped delimiter
/// stands for itself; every other escape is the engine's.
fn regex(raw: &[u8], delim: u8) -> Result<String, String> {
    let mut out = Vec::with_capacity(raw.len());
    let mut i = 0;
    while let Some(&b) = raw.get(i) {
        let len = if b == b'\\' { 2 } else { 1 };
        let piece = raw.get(i..i + len).unwrap_or(&raw[i..]);
        out.extend_from_slice(
            piece
                .strip_prefix(b"\\")
                .filter(|e| *e == [delim])
                .unwrap_or(piece),
        );
        i += len;
    }
    match String::from_utf8(out) {
        Ok(re) if !re.is_empty() => Ok(re),
        _ => Err("no previous regular expression".into()),
    }
}

/// A `y` list: a replacement's bytes; `&` and `\0`…`\9` are refused.
fn list(raw: &[u8], delim: u8) -> Result<Vec<u8>, String> {
    let mut out = Vec::with_capacity(raw.len());
    for piece in replacement(raw, delim)?.0 {
        match piece {
            Piece::Text(text) => out.extend(text),
            Piece::Group(_) => return Err("`&' or a group in `y'".into()),
        }
    }
    Ok(out)
}

/// A replacement's pieces, where `&` and `\0`…`\9` are groups, and the
/// highest group it names. An escaped delimiter, or byte but a letter
/// or digit, is itself; of the letters only [`escape`]'s but `\b`.
fn replacement(raw: &[u8], delim: u8) -> Result<(Vec<Piece>, usize), String> {
    let (mut pieces, mut text, mut top) = (Vec::new(), Vec::new(), 0);
    let mut bytes = raw.iter().copied();
    while let Some(b) = bytes.next() {
        let escaped = if b == b'\\' { bytes.next() } else { None };
        let group = match (b, escaped) {
            (b'&', _) => 0,
            (_, Some(c @ b'0'..=b'9')) => usize::from(c - b'0'),
            (_, Some(c)) if c == delim => {
                text.push(c);
                continue;
            }
            (_, Some(c)) if !c.is_ascii_alphanumeric() || b"afnrtv".contains(&c) => {
                text.push(escape(&[c]).map_or(c, |(e, _)| e));
                continue;
            }
            (b'\\', _) => return Err("an escape `s' or `y' does not take".into()),
            _ => {
                text.push(b);
                continue;
            }
        };
        top = top.max(group);
        pieces.push(Piece::Text(std::mem::take(&mut text)));
        pieces.push(Piece::Group(group));
    }
    pieces.push(Piece::Text(text));
    Ok((pieces, top))
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
    repl: &[Piece],
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
            for piece in repl {
                match piece {
                    Piece::Text(text) => out.extend_from_slice(text),
                    Piece::Group(g) => {
                        if let Some(Some((s, e))) = groups.get(*g) {
                            out.extend_from_slice(&line[*s..*e]);
                        }
                    }
                }
            }
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
    }

    #[test]
    fn a_script_is_read_in_one_pass() {
        assert_eq!(sed(&["1s/a;b/X/;y/x/y/"], "a;bx\nx\n"), "Xy\ny\n");
        assert_eq!(sed(&[" 1 , 2 d ; p"], "a\nb\nc\n"), "c\nc\n");
        assert_eq!(sed(&["3,1d"], "a\nb\nc\nd\n"), "a\nb\nd\n");
        assert_eq!(sed(&["s,a\\,b,\\,\\n,g p"], "a,b\n"), ",\n\n,\n\n");
        assert_eq!(sed(&["y/\\/\\t\\\\/|T-/"], "a/\tb\\\n"), "a|Tb-\n");
        assert_eq!(sed(&["y/aa/bc/"], "a\n"), "c\n");
        assert_eq!(sed(&["s/\\(b\\)/\\0\\1\\&/"], "abc\n"), "abb&c\n");
    }

    #[test]
    fn what_sed_lacks_is_refused() {
        let parses = |script: &str| super::parse(script).is_ok();
        for script in [
            "$d",
            "0p",
            "1~2d",
            "1,/x/d",
            "/x/,2d",
            "/x/Id",
            "\\,x,d",
            "1!d",
            "//d",
            "s//x/",
            "s/a/b/gg",
            "s/a/b/w f",
            "s/a/\\U&/",
            "y/a/\\x41/",
            "y/ab/c/",
            "y/a/b/g",
            "1,2q",
            "q5",
            "d p",
            "{p}",
            "#n",
            "s/a\nb/c/",
            "s\\a\\b\\",
            "s/a/b",
        ] {
            assert!(!parses(script), "{script}");
        }
        let out = run_command(
            &Registry::standard(),
            Arc::new(MemFs::new()),
            &["sed", "s/a/\\1/"],
            b"a\n",
        )
        .expect("run");
        assert_eq!((out.status, out.stdout.len()), (1, 0));
    }
}
