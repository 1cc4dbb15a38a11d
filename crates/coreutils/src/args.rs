//! The one reading of an argv, shared by the commands and the
//! compiler: GNU getopt's, by the rules the crate docs give, against
//! each command's entry in [`GRAMMARS`]. Every command that takes
//! options keeps only a `match` on their names; the compiler's
//! annotation classifier, aggregator picker and cost model [`read`]
//! the same words the same way. Names, values and operands are
//! borrowed from the argv.

/// How a command's argv is read.
#[derive(Debug)]
pub struct Grammar {
    /// The command's name.
    pub name: &'static str,
    /// getopt's optstring: the option letters, each followed by `:`
    /// when it takes a value, after a `+` when the first operand ends
    /// the options.
    pub spec: &'static str,
    /// The long options, each name followed by `=` when it takes a
    /// value (`--name=value`, in one word).
    pub long: &'static [&'static str],
}

const fn g(name: &'static str, spec: &'static str, long: &'static [&'static str]) -> Grammar {
    Grammar { name, spec, long }
}

/// The grammar of every command that scans its argv. `echo`, `seq`,
/// `true`, `false`, `fetch`, `html-to-text` and `word-stem` read no
/// options and are not listed.
pub const GRAMMARS: &[Grammar] = &[
    g("cat", "nu", &[]),
    g("tac", "", &[]),
    g("tr", "cCds", &[]),
    g("cut", "f:c:d:s", &[]),
    g("grep", "EFhivcnwm:e:", &[]),
    g("sed", "nEre:", &[]),
    g("sort", "nrumk:t:", &["parallel="]),
    g("uniq", "cdui", &[]),
    g("wc", "lwcm", &[]),
    g("head", "n:c:", &[]),
    g("tail", "n:", &[]),
    g("comm", "123", &[]),
    g("rev", "", &[]),
    g("paste", "sd:", &[]),
    g("fold", "w:", &[]),
    g("tee", "", &[]),
    g("nl", "", &[]),
    g("xargs", "+n:", &[]),
    g("sha1sum", "", &[]),
    g("diff", "", &[]),
    g("unrle", "", &[]),
    g("bigrams-aux", "", &["marked"]),
    g("awk-reorder", "", &[]),
];

/// The grammar of the command `name`, when it scans its argv.
pub fn grammar(name: &str) -> Option<&'static Grammar> {
    GRAMMARS.iter().find(|g| g.name == name)
}

/// The grammar of a command this crate scans with it.
pub(crate) fn of(name: &str) -> &'static Grammar {
    grammar(name).expect("every scanning command is in GRAMMARS")
}

/// The operands of an invocation, in order, each with its position in
/// the argv.
#[derive(Debug, Default)]
pub struct Operands<'a>(pub Vec<(usize, &'a str)>);

impl<'a> Operands<'a> {
    /// Takes the first operand off: `grep`'s pattern, `sed`'s script.
    pub fn shift(&mut self) -> Option<&'a str> {
        (!self.0.is_empty()).then(|| self.0.remove(0).1)
    }

    /// The operands' words.
    pub fn words(self) -> Vec<&'a str> {
        self.0.into_iter().map(|(_, word)| word).collect()
    }

    /// The input operands: `-` (stdin) when there is none.
    pub fn inputs(self) -> Vec<&'a str> {
        if self.0.is_empty() {
            vec!["-"]
        } else {
            self.words()
        }
    }
}

/// Scans `args` (the argv without the command name) against `grammar`.
/// Each option goes to `each` in argv order by its name, with its
/// value (`""` for a flag); an error `each` returns ends the scan.
pub fn scan<'a>(
    args: &'a [String],
    grammar: &Grammar,
    mut each: impl FnMut(&'a str, &'a str) -> Result<(), String>,
) -> Result<Operands<'a>, String> {
    scan_at(args, grammar, |_, name, value| each(name, value))
}

/// [`scan`]s a command's argv (`$args`) against its grammar, by its
/// name, and takes the operands; on an error the enclosing `run`
/// returns the command's [`usage_error`](crate::usage_error).
macro_rules! scanned {
    ($io:expr, $args:expr, $name:literal, $each:expr) => {
        match $crate::args::scan($args, $crate::args::of($name), $each) {
            Ok(operands) => operands,
            Err(e) => return $crate::usage_error($io, $name, &e),
        }
    };
}
pub(crate) use scanned;

/// An argv as its command reads it.
#[derive(Debug)]
pub struct Reading<'a> {
    /// The options in argv order: the position of the word that names
    /// each, its name, and its value (`""` for a flag).
    pub options: Vec<(usize, &'a str, &'a str)>,
    /// The operands.
    pub operands: Operands<'a>,
}

impl<'a> Reading<'a> {
    /// Whether the option `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.options.iter().any(|&(_, n, _)| n == name)
    }

    /// The values given to the option `name`, in argv order.
    pub fn values<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.options
            .iter()
            .filter(move |&&(_, n, _)| n == name)
            .map(|&(_, _, value)| value)
    }
}

/// [`scan`]s `args` against `grammar` and keeps what it read. What its
/// command refuses once scanned, before it reads any input, is refused
/// too, with the command's error: the counts of `head`, `tail`, `fold`,
/// `xargs` and `grep -m`, `cut`'s list and delimiter, `tr`'s sets,
/// `paste`'s list, `sort`'s keys. A regular expression or a `sed`
/// script is not compiled here.
pub fn read<'a>(args: &'a [String], grammar: &Grammar) -> Result<Reading<'a>, String> {
    let mut options = Vec::new();
    let operands = scan_at(args, grammar, |at, name, value| {
        options.push((at, name, value));
        Ok(())
    })?;
    let reading = Reading { options, operands };
    check(grammar.name, args, &reading)?;
    Ok(reading)
}

/// The checks [`read`] makes after the scan, each the command's own.
fn check(name: &str, args: &[String], r: &Reading) -> Result<(), String> {
    use crate::cmd::{cut, grep, headtail, misc, sort, tr, xargs};
    for &(_, option, value) in &r.options {
        match (name, option) {
            ("head" | "tail", _) => headtail::option_count(name, option, value).map(|_| ()),
            ("fold", _) => misc::columns(value).map(|_| ()),
            ("xargs", _) => xargs::per_call_of(value).map(|_| ()),
            ("grep", "m") => grep::max_count(value).map(|_| ()),
            ("cut", "d") => cut::delimiter(value).map(|_| ()),
            ("paste", _) => misc::delimiters(value).map(|_| ()),
            _ => Ok(()),
        }?;
    }
    match name {
        "cut" => {
            let mut lists = r.values("f").chain(r.values("c"));
            let list = lists.next();
            if lists.next().is_some() {
                return Err(cut::ONE_LIST.into());
            }
            cut::ranges(list).map(|_| ()).map_err(String::from)
        }
        "tr" => {
            let sets: Vec<&str> = r.operands.0.iter().map(|&(_, set)| set).collect();
            let complement = r.has("c") || r.has("C");
            tr::read_sets(&sets, complement, r.has("d"), r.has("s")).map(|_| ())
        }
        "sort" => sort::parse_args(args).map(|_| ()),
        _ => Ok(()),
    }
}

/// The byte a backslash escape stands for, as `tr` reads it (the other
/// operand readers take some of these): `\\ \a \b \f \n \r \t \v`, and
/// `\NNN`, one to three octal digits, as many as keep the value within
/// 0377 (`\400` is `\40` and `0`). `rest` follows the backslash; returns
/// the byte and the length of the escape in `rest`, `None` for none.
pub(crate) fn escape(rest: &[u8]) -> Option<(u8, usize)> {
    // Each escaping letter, then the byte it stands for.
    const LETTERS: &[u8; 16] = b"\\\\a\x07b\x08f\x0cn\nr\rt\tv\x0b";
    let &first = rest.first()?;
    if let Some(pair) = LETTERS.chunks(2).find(|pair| pair[0] == first) {
        return Some((pair[1], 1));
    }
    let (mut value, mut used) = (0u32, 0);
    while let Some(&d @ b'0'..=b'7') = rest.get(used).filter(|_| used < 3) {
        match value * 8 + u32::from(d - b'0') {
            next @ 0..=0o377 => value = next,
            _ => break,
        }
        used += 1;
    }
    (used > 0).then_some((value as u8, used))
}

/// The obsolete count word that `head -N` and `tail -N`/`tail +N` start
/// with, as GNU reads it: only as the first word, and for `tail` only
/// when at most one operand follows it (`--` before that allowed). It
/// is `-n`'s value: `N` for `head -N` and `tail -N`, `+N` for `tail +N`.
fn leading_count<'a>(name: &str, args: &'a [String]) -> Option<&'a str> {
    let first = args.first()?;
    let (value, digits) = match name {
        "head" => {
            let digits = first.strip_prefix('-')?;
            (digits, digits)
        }
        "tail" => {
            let alone = match args {
                [_] => true,
                [_, next] => next == "-" || next == "--" || !next.starts_with('-'),
                [_, next, _] => next == "--",
                _ => false,
            };
            match (alone, first.strip_prefix('-')) {
                (false, _) => return None,
                (true, Some(digits)) => (digits, digits),
                (true, None) => (first.as_str(), first.strip_prefix('+')?),
            }
        }
        _ => return None,
    };
    (!digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())).then_some(value)
}

/// The scan proper: as [`scan`], and `each` also gets the position of
/// the word that names the option.
fn scan_at<'a>(
    args: &'a [String],
    grammar: &Grammar,
    mut each: impl FnMut(usize, &'a str, &'a str) -> Result<(), String>,
) -> Result<Operands<'a>, String> {
    let (in_order, spec) = match grammar.spec.strip_prefix('+') {
        Some(spec) => (true, spec),
        None => (false, grammar.spec),
    };
    let mut operands = Vec::new();
    let mut words = args.iter().map(String::as_str).enumerate();
    if let Some(count) = leading_count(grammar.name, args) {
        words.next();
        each(0, "n", count)?;
    }
    while let Some((at, word)) = words.next() {
        if word == "--" {
            operands.extend(words);
            break;
        }
        if let Some(body) = word.strip_prefix("--") {
            let (name, value) = match body.split_once('=') {
                Some((name, value)) if grammar.long.contains(&&body[..=name.len()]) => {
                    (name, value)
                }
                None if grammar.long.contains(&body) => (body, ""),
                _ => return Err(format!("unrecognized option '{word}'")),
            };
            each(at, name, value)?;
            continue;
        }
        let Some(cluster) = word.strip_prefix('-').filter(|c| !c.is_empty()) else {
            operands.push((at, word));
            if in_order {
                operands.extend(words);
                break;
            }
            continue;
        };
        for (i, c) in cluster.char_indices() {
            let (name, rest) = cluster[i..].split_at(c.len_utf8());
            let takes_value = match spec.find(c).filter(|_| c != ':') {
                Some(pos) => spec[pos + c.len_utf8()..].starts_with(':'),
                None => return Err(format!("invalid option -- '{c}'")),
            };
            if !takes_value {
                each(at, name, "")?;
                continue;
            }
            let value = match rest {
                "" => {
                    words
                        .next()
                        .ok_or_else(|| format!("option requires an argument -- '{c}'"))?
                        .1
                }
                attached => attached,
            };
            each(at, name, value)?;
            break;
        }
    }
    Ok(Operands(operands))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The options as `name=value` words, and the operands.
    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn read_as(
        args: &[&str],
        spec: &'static str,
        long: &'static [&'static str],
    ) -> Result<(Vec<String>, Vec<String>), String> {
        let args = strings(args);
        let grammar = Grammar {
            name: "test",
            spec,
            long,
        };
        let mut opts = Vec::new();
        let operands = scan(&args, &grammar, |name, value| {
            opts.push(format!("{name}={value}"));
            Ok(())
        })?;
        let operands = operands.words().iter().map(|s| s.to_string()).collect();
        Ok((opts, operands))
    }

    fn ok(args: &[&str], spec: &'static str) -> (Vec<String>, Vec<String>) {
        read_as(args, spec, &[]).expect("scans")
    }

    #[test]
    fn short_options_cluster_and_take_values_attached_or_next() {
        assert_eq!(ok(&["-cd", "f"], "cdu").0, ["c=", "d="]);
        assert_eq!(ok(&["-sf2"], "sf:d:").0, ["s=", "f=2"]);
        assert_eq!(ok(&["-sd", " ", "-f1"], "sf:d:").0, ["s=", "d= ", "f=1"]);
        // The next word is the value whatever it holds.
        assert_eq!(ok(&["-e", "-x", "in"], "e:").0, ["e=-x"]);
        assert_eq!(ok(&["-e", "--"], "e:").0, ["e=--"]);
    }

    #[test]
    fn double_dash_ends_the_options_and_dash_is_an_operand() {
        assert_eq!(
            ok(&["-n", "--", "-c", "--"], "nc"),
            (vec!["n=".into()], vec!["-c".into(), "--".into()])
        );
        assert_eq!(ok(&["-", "-n", "-"], "n").1, ["-", "-"]);
    }

    #[test]
    fn options_may_follow_operands_unless_the_spec_says_in_order() {
        assert_eq!(
            ok(&["in", "-f1"], "f:"),
            (vec!["f=1".into()], vec!["in".into()])
        );
        let (opts, operands) = ok(&["-n1", "wc", "-l"], "+n:");
        assert_eq!(
            (opts, operands),
            (vec!["n=1".into()], vec!["wc".into(), "-l".into()])
        );
    }

    #[test]
    fn unknown_options_and_missing_values_are_errors() {
        assert_eq!(
            read_as(&["-cZ"], "c", &[]),
            Err("invalid option -- 'Z'".into())
        );
        assert_eq!(
            read_as(&["-:"], "f:", &[]),
            Err("invalid option -- ':'".into())
        );
        assert_eq!(
            read_as(&["-f"], "f:", &[]),
            Err("option requires an argument -- 'f'".into())
        );
        assert_eq!(
            read_as(&["--reverse"], "r", &[]),
            Err("unrecognized option '--reverse'".into())
        );
    }

    #[test]
    fn long_options_by_their_full_name() {
        const LONG: &[&str] = &["parallel=", "marked"];
        assert_eq!(
            read_as(&["--parallel=2"], "", LONG).expect("scans").0,
            ["parallel=2"]
        );
        assert_eq!(
            read_as(&["--marked"], "", LONG).expect("scans").0,
            ["marked="]
        );
        assert!(read_as(&["--par=2"], "", LONG).is_err());
        assert!(read_as(&["--parallel", "3"], "", LONG).is_err());
        assert!(read_as(&["--marked=1"], "", LONG).is_err());
    }

    #[test]
    fn errors_from_the_command_end_the_scan() {
        let args: Vec<String> = ["-n", "x", "-q"].iter().map(|s| s.to_string()).collect();
        let err = scan(&args, of("head"), |_, value| {
            Err(format!("invalid number '{value}'"))
        });
        assert_eq!(err.err(), Some("invalid number 'x'".to_string()));
    }

    #[test]
    fn inputs_default_to_stdin() {
        assert_eq!(Operands(vec![]).inputs(), ["-"]);
        let mut operands = Operands(vec![(0, "pat"), (2, "f")]);
        assert_eq!(operands.shift(), Some("pat"));
        assert_eq!(operands.inputs(), ["f"]);
        assert_eq!(Operands(vec![]).shift(), None);
    }

    #[test]
    fn a_reading_keeps_positions() {
        let args = strings(&["-rk", "2", "f", "--parallel=2", "--", "-n"]);
        let r = read(&args, of("sort")).expect("reads");
        assert_eq!(
            r.options,
            [(0, "r", ""), (0, "k", "2"), (3, "parallel", "2")]
        );
        assert_eq!(r.operands.0, [(2, "f"), (5, "-n")]);
        assert!(r.has("k") && !r.has("n"));
        assert_eq!(r.values("k").collect::<Vec<_>>(), ["2"]);
    }

    #[test]
    fn head_and_tail_read_an_obsolete_leading_count() {
        let count = |name: &str, words: &[&str]| {
            let args = strings(words);
            let r = read(&args, of(name)).expect("reads");
            let operands: Vec<(usize, String)> = r
                .operands
                .0
                .iter()
                .map(|&(at, w)| (at, w.to_string()))
                .collect();
            (
                r.values("n").map(str::to_string).collect::<Vec<_>>(),
                operands,
            )
        };
        assert_eq!(
            count("head", &["-5", "f"]),
            (vec!["5".into()], vec![(1, "f".into())])
        );
        assert_eq!(
            count("tail", &["+2", "f"]),
            (vec!["+2".into()], vec![(1, "f".into())])
        );
        assert_eq!(count("tail", &["-3"]), (vec!["3".into()], vec![]));
        // Only as the first word; `tail` with at most one file after it.
        assert!(read(&strings(&["f", "-5"]), of("head")).is_err());
        assert_eq!(
            count("tail", &["+2", "f", "g"]),
            (
                vec![],
                vec![(0, "+2".into()), (1, "f".into()), (2, "g".into())]
            )
        );
        assert!(grammar("head").is_some() && grammar("echo").is_none());
    }

    /// Every string of `alphabet`'s bytes up to four long.
    fn strings_over(alphabet: &[u8]) -> Vec<String> {
        let mut all = vec![String::new()];
        let mut last = all.clone();
        for _ in 0..4 {
            last = last
                .iter()
                .flat_map(|s| alphabet.iter().map(move |&b| format!("{s}{}", b as char)))
                .collect();
            all.extend_from_slice(&last);
        }
        all
    }

    #[test]
    fn operand_readers_are_total() {
        use crate::cmd::{misc, tr};
        use crate::{fs::MemFs, run_command, Registry};
        for s in strings_over(b"[:]=*-\\az07n") {
            for sets in [[s.as_str(), "xy"], ["az", s.as_str()]] {
                for (c, d, q) in [
                    (false, false, false),
                    (true, false, true),
                    (false, true, true),
                ] {
                    let _ = tr::read_sets(&sets, c, d, q);
                }
            }
            let _ = misc::delimiters(&s);
        }
        let registry = Registry::standard();
        for s in strings_over(b"sy/;\\1,adpqg") {
            let fs = std::sync::Arc::new(MemFs::new());
            run_command(&registry, fs, &["sed", &s], b"a\n1,d\n").expect("sed runs");
        }
    }
}
