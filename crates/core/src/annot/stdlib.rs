//! The annotation standard library (§3.2): records for POSIX/GNU
//! commands plus the paper's benchmark-specific commands, and the
//! aggregator registry for class-P commands.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::annot::{lang, AnnotationRecord, Classification};
use crate::classes::ParClass;

/// The annotation records, in the Appendix-A description language.
///
/// Six of the benchmark commands are not POSIX/GNU (`fetch`, `unrle`,
/// `html-to-text`, `word-stem`, `bigrams-aux`, and `pash-parallel`'s
/// inner stage); per §6's highlights, each needs exactly one record
/// here — that is the entire "annotation effort" of the evaluation.
const STDLIB_RECORDS: &str = r#"
# --- POSIX / GNU Coreutils ------------------------------------------
cat {
    | -n => (P, [args[0:]], [stdout])
    | _ => (S, [args[0:]], [stdout])
}
tac { | _ => (P, [args[0:]], [stdout]) }
tr { | _ => (S, [stdin], [stdout]) }
cut takes -d -f -c {
    | _ => (S, [args[0:]], [stdout])
}
grep takes -e -m {
    | -e /\ (-n \/ -m) => (N, [args[0:]], [stdout])
    | -e /\ -c => (P, [args[0:]], [stdout])
    | -e => (S, [args[0:]], [stdout])
    | -n \/ -m => (N, [args[1:]], [stdout])
    | -c => (P, [args[1:]], [stdout])
    | _ => (S, [args[1:]], [stdout])
}
sort takes -k -t {
    | _ => (P, [args[0:]], [stdout])
}
uniq {
    | -d \/ -u => (N, [args[0:]], [stdout])
    | _ => (P, [args[0:]], [stdout])
}
wc { | _ => (P, [args[0:]], [stdout]) }
head takes -n -c { | _ => (P, [args[0:]], [stdout]) }
tail takes -n { | _ => (P, [args[0:]], [stdout]) }
comm {
    | -1 /\ -3 => (S, [args[1]], [stdout])
    | -2 /\ -3 => (S, [args[0]], [stdout])
    | _ => (P, [args[0], args[1]], [stdout])
}
rev { | _ => (S, [args[0:]], [stdout]) }
fold takes -w { | _ => (S, [args[0:]], [stdout]) }
nl { | _ => (P, [args[0:]], [stdout]) }
paste takes -d { | _ => (N, [args[0:]], [stdout]) }
sha1sum { | _ => (N, [args[0:]], [stdout]) }
diff { | _ => (N, [args[0], args[1]], [stdout]) }
seq { | _ => (E, [], [stdout]) }
echo { | _ => (E, [], [stdout]) }
tee { | _ => (E, [stdin], [stdout]) }
xargs takes -n { | _ => (S, [stdin], [stdout]) }
sed takes -e { | _ => (S, [args[1:]], [stdout]) }

# --- Benchmark commands annotated per §6.4 ---------------------------
fetch { | _ => (S, [stdin], [stdout]) }
unrle { | _ => (S, [args[0:]], [stdout]) }
html-to-text { | _ => (S, [stdin], [stdout]) }
word-stem { | _ => (S, [stdin], [stdout]) }
bigrams-aux { | _ => (P, [stdin], [stdout]) }
"#;

/// A library of annotation records with PaSh's refinement rules.
#[derive(Clone)]
pub struct AnnotationLibrary {
    records: HashMap<String, AnnotationRecord>,
}

impl AnnotationLibrary {
    /// Builds the standard library.
    pub fn standard() -> &'static AnnotationLibrary {
        static LIB: OnceLock<AnnotationLibrary> = OnceLock::new();
        LIB.get_or_init(|| {
            let records =
                lang::parse_records(STDLIB_RECORDS).expect("stdlib annotations are well-formed");
            let mut map = HashMap::new();
            for r in records {
                map.insert(r.name.clone(), r);
            }
            AnnotationLibrary { records: map }
        })
    }

    /// Builds an empty library (for tests / custom sets).
    pub fn empty() -> AnnotationLibrary {
        AnnotationLibrary {
            records: HashMap::new(),
        }
    }

    /// Adds or replaces a record (the "light-touch" extension path).
    pub fn register(&mut self, record: AnnotationRecord) {
        self.records.insert(record.name.clone(), record);
    }

    /// Adds a record from DSL source.
    pub fn register_source(&mut self, src: &str) -> Result<(), crate::Error> {
        self.register(lang::parse_record(src)?);
        Ok(())
    }

    /// Removes a record (used to model unannotated commands).
    pub fn remove(&mut self, name: &str) {
        self.records.remove(name);
    }

    /// True when a record exists for `name`.
    pub fn knows(&self, name: &str) -> bool {
        self.records.contains_key(name)
    }

    /// Number of records in the library.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the library holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Classifies an invocation `argv` (name + args).
    ///
    /// Returns `None` for unknown commands or unmatched clauses: the
    /// conservative default (the front-end will not parallelize).
    pub fn classify(&self, argv: &[String]) -> Option<Classification> {
        let (name, args) = argv.split_first()?;
        // Refinements that need to look *inside* arguments; the DSL
        // only sees option occurrence (see module docs).
        if name == "xargs" {
            let mut c = self.classify_xargs(args)?;
            c.stream_argv.insert(0, name.clone());
            return Some(c);
        }
        let record = self.records.get(name)?;
        // `tail +N` (historic form): `+N` is an option, not a file.
        let is_plus = |a: &String| {
            a.len() > 1 && a.starts_with('+') && a[1..].chars().all(|c| c.is_ascii_digit())
        };
        let rewritten: Vec<String>;
        let args = if name == "tail" && args.iter().any(is_plus) {
            rewritten = args
                .iter()
                .map(|a| {
                    if is_plus(a) {
                        format!("-n{a}")
                    } else {
                        a.clone()
                    }
                })
                .collect();
            &rewritten[..]
        } else {
            args
        };
        let mut c = record.classify(args)?;
        if name == "sed" {
            c.class = c.class.join(sed_script_class(args));
        }
        if name == "tr" {
            c.class = c.class.join(tr_class(args));
        }
        if name == "tail" && args.iter().any(|a| a.starts_with("-n+") || a == "+") {
            // `tail +N` drops a global prefix: not decomposable as a
            // uniform map (only the first chunk is affected).
            c.class = c.class.join(ParClass::NonParallelizable);
        }
        c.stream_argv.insert(0, name.clone());
        Some(c)
    }

    /// `xargs -n 1 CMD…` is as parallelizable as `CMD` itself (§2's
    /// `xargs -n 1 curl` and Fig. 3).
    fn classify_xargs(&self, args: &[String]) -> Option<Classification> {
        let record = self.records.get("xargs")?;
        let base = record.classify(args)?;
        // Find the inner command (first non-option arg, skipping -n's
        // value).
        let mut inner_start = None;
        let mut i = 0;
        while i < args.len() {
            if args[i] == "-n" {
                i += 2;
                continue;
            }
            if args[i].starts_with('-') && args[i].len() > 1 {
                i += 1;
                continue;
            }
            inner_start = Some(i);
            break;
        }
        let class = match inner_start {
            None => ParClass::Stateless, // Default `echo`.
            // Argument-echoing commands are per-token maps under
            // xargs, even though they are class E standalone (they
            // consume no stream input on their own).
            Some(s) if args[s] == "echo" || args[s] == "printf" => ParClass::Stateless,
            Some(s) => {
                let inner_class = self
                    .classify(&args[s..])
                    .map(|c| c.class)
                    .unwrap_or(ParClass::SideEffectful);
                // The inner command runs per input *token*; stateless
                // and even side-effect-free pure commands applied per
                // token keep xargs a per-line map. Anything worse
                // poisons the construct.
                if inner_class <= ParClass::Pure {
                    ParClass::Stateless
                } else {
                    inner_class
                }
            }
        };
        Some(Classification { class, ..base })
    }
}

/// Conservative class contribution of a sed script.
///
/// Plain `s///` and `y///` are per-line rewrites (class S); anything
/// with addresses, `d`, `p`, or `q` is order-sensitive and forces
/// class N.
fn sed_script_class(args: &[String]) -> ParClass {
    let mut scripts: Vec<&String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-e" => {
                if let Some(s) = it.next() {
                    scripts.push(s);
                }
            }
            "-n" => return ParClass::NonParallelizable,
            "-E" | "-r" => {}
            s if s.starts_with('-') => {}
            _ => {
                scripts.push(a);
                break; // Remaining args are files.
            }
        }
    }
    for s in scripts {
        let t = s.trim_start();
        let per_line = t.starts_with("s") || t.starts_with("y");
        if !per_line {
            return ParClass::NonParallelizable;
        }
        // Multiple `;`-chained commands: all must be s/y.
        for part in split_top_level(t) {
            let p = part.trim_start();
            if !(p.is_empty() || p.starts_with('s') || p.starts_with('y')) {
                return ParClass::NonParallelizable;
            }
        }
    }
    ParClass::Stateless
}

/// Class contribution of `tr`'s flags and sets.
///
/// `tr` maps bytes one at a time (class S), but a squeeze (`-s`) folds
/// a run of repeated bytes *across* a line end when the squeezed bytes
/// can include `\n`: a segment that starts inside such a run keeps a
/// byte the whole input drops. So `-s` forces class N when it comes
/// with a complement (`-c`, `-C`), whose set almost always holds `\n`,
/// or when any set operand can hold `\n` (see [`tr_set_holds_newline`]).
fn tr_class(args: &[String]) -> ParClass {
    let mut squeeze = false;
    let mut complement = false;
    let mut sets = Vec::new();
    for a in args {
        match a.strip_prefix('-') {
            Some(flags) if !flags.is_empty() && flags.chars().all(|c| "cCdst".contains(c)) => {
                squeeze |= flags.contains('s');
                complement |= flags.contains(['c', 'C']);
            }
            _ if a == "--squeeze-repeats" => squeeze = true,
            _ if a == "--complement" => complement = true,
            _ => sets.push(a),
        }
    }
    if squeeze && (complement || sets.iter().any(|s| tr_set_holds_newline(s))) {
        ParClass::NonParallelizable
    } else {
        ParClass::Stateless
    }
}

/// Whether a `tr` set operand can hold byte 0x0A: literally, as an
/// escape (`\n`, `\012`), inside a range (`\001-\177`) or through a
/// class (`[:space:]`, `[:cntrl:]`).
fn tr_set_holds_newline(set: &str) -> bool {
    if set.contains("[:space:]") || set.contains("[:cntrl:]") {
        return true;
    }
    // Decode escapes first, remembering which bytes were escaped: only
    // a bare `-` between two bytes makes a range.
    let bytes = set.as_bytes();
    let mut decoded: Vec<(u8, bool)> = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let (b, used) = tr_unescape(bytes, i);
        decoded.push((b, used > 1));
        i += used;
    }
    decoded.iter().enumerate().any(|(j, &(b, _))| {
        b == b'\n'
            || matches!(decoded.get(j + 1..j + 3), Some(&[(b'-', false), (hi, _)])
                if (b..=hi).contains(&b'\n'))
    })
}

/// Decodes the `tr` set byte at `i`: a backslash escape (`\NNN` is
/// one to three octal digits, as many as stay within 0377) or the byte
/// itself. Returns the byte and how many input bytes it used.
fn tr_unescape(bytes: &[u8], i: usize) -> (u8, usize) {
    if bytes[i] != b'\\' || i + 1 >= bytes.len() {
        return (bytes[i], 1);
    }
    let mut value = 0u32;
    let mut digits = 0;
    while let Some(&d @ b'0'..=b'7') = bytes.get(i + 1 + digits) {
        let next = value * 8 + u32::from(d - b'0');
        if digits == 3 || next > 0o377 {
            break;
        }
        value = next;
        digits += 1;
    }
    if digits > 0 {
        return (value as u8, 1 + digits);
    }
    let b = match bytes[i + 1] {
        b'a' => 0x07,
        b'b' => 0x08,
        b'f' => 0x0C,
        b'n' => b'\n',
        b'r' => b'\r',
        b't' => b'\t',
        b'v' => 0x0B,
        other => other,
    };
    (b, 2)
}

/// Splits a sed script on `;` outside of s-expression bodies (an
/// approximation sufficient for classification).
fn split_top_level(s: &str) -> Vec<String> {
    let bytes = s.as_bytes();
    if bytes.len() >= 2 && (bytes[0] == b's' || bytes[0] == b'y') {
        let delim = bytes[1];
        // Count delimiters; after the third, `;` separates commands.
        let mut seen = 0;
        let mut i = 2;
        while i < bytes.len() && seen < 2 {
            if bytes[i] == b'\\' {
                i += 2;
                continue;
            }
            if bytes[i] == delim {
                seen += 1;
            }
            i += 1;
        }
        // Skip flags.
        while i < bytes.len() && bytes[i] != b';' {
            i += 1;
        }
        if i < bytes.len() {
            let mut rest = split_top_level(&s[i + 1..]);
            rest.insert(0, s[..i].to_string());
            return rest;
        }
        return vec![s.to_string()];
    }
    s.split(';').map(|p| p.to_string()).collect()
}

/// Maps a class-P invocation to its aggregator argv (§5.2).
///
/// The names refer to runtime commands implemented in `pash-runtime`
/// (its registry extends the coreutils registry with them). Returns
/// `None` when no aggregator is known — the node then stays
/// sequential.
pub fn aggregator_for(argv: &[String]) -> Option<Vec<String>> {
    let (name, args) = argv.split_first()?;
    let flags: Vec<&String> = args.iter().filter(|a| a.starts_with('-')).collect();
    match name.as_str() {
        // sort: merge phase of merge-sort, same ordering flags
        // ("on GNU systems … `sort -m`", §5.2).
        "sort" => {
            let mut agg = vec!["pash-agg-sort".to_string()];
            let mut it = args.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "-k" | "-t" => {
                        agg.push(a.clone());
                        if let Some(v) = it.next() {
                            agg.push(v.clone());
                        }
                    }
                    s if s.starts_with("--parallel") => {}
                    s if s.starts_with('-') => agg.push(a.clone()),
                    // File arguments are not part of the aggregator.
                    _ => {}
                }
            }
            Some(agg)
        }
        // uniq / uniq -c: boundary-condition combiners. They compare
        // bytes, so `-i` has none (and neither fold may move below a
        // sort's merge: case-equal lines are not adjacent there).
        "uniq" => {
            if flags.iter().any(|f| f.contains(['d', 'u', 'i'])) {
                None
            } else if flags.iter().any(|f| f.contains('c')) {
                Some(vec!["pash-agg-uniq-c".to_string()])
            } else {
                Some(vec!["pash-agg-uniq".to_string()])
            }
        }
        // wc: adds per-part count vectors, any flag subset.
        "wc" => {
            let mut agg = vec!["pash-agg-wc".to_string()];
            agg.extend(flags.iter().map(|f| f.to_string()));
            Some(agg)
        }
        // grep -c: sum of partial counts.
        "grep" => {
            if flags
                .iter()
                .any(|f| !f.starts_with("--") && f.contains('c'))
            {
                Some(vec!["pash-agg-sum".to_string()])
            } else {
                None
            }
        }
        // tac: consume stream descriptors in reverse order.
        "tac" => Some(vec!["pash-agg-tac".to_string()]),
        // head/tail: re-apply over the concatenation.
        "head" | "tail" => {
            if args
                .iter()
                .any(|a| a.starts_with('+') || a.starts_with("-n+"))
            {
                None
            } else {
                Some(argv.to_vec())
            }
        }
        // The Bi-grams-opt custom aggregator (§6.1).
        "bigrams-aux" => Some(vec!["pash-agg-bigram".to_string()]),
        // cat -n and nl would need renumbering; not provided.
        _ => None,
    }
}

/// Maps a class-P invocation to a distinct *map* command for its
/// parallel copies, when the plain command does not serve (§3.2,
/// Custom Aggregators). Returns `None` when copies run the original.
pub fn map_for(argv: &[String]) -> Option<Vec<String>> {
    match argv.first().map(|s| s.as_str()) {
        // The map role emits boundary markers the aggregator consumes;
        // sequential runs must not see them.
        Some("bigrams-aux") => Some(vec!["bigrams-aux".to_string(), "--marked".to_string()]),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annot::InputSlot;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn class_of(parts: &[&str]) -> Option<ParClass> {
        AnnotationLibrary::standard()
            .classify(&argv(parts))
            .map(|c| c.class)
    }

    #[test]
    fn stdlib_parses_and_is_populated() {
        let lib = AnnotationLibrary::standard();
        assert!(lib.len() >= 25);
        assert!(lib.knows("comm"));
        assert!(lib.knows("bigrams-aux"));
    }

    #[test]
    fn flags_refine_classes() {
        // cat defaults to S; -n moves it to P (§3.2).
        assert_eq!(class_of(&["cat", "f"]), Some(ParClass::Stateless));
        assert_eq!(class_of(&["cat", "-n", "f"]), Some(ParClass::Pure));
    }

    #[test]
    fn grep_count_is_pure() {
        assert_eq!(class_of(&["grep", "x"]), Some(ParClass::Stateless));
        assert_eq!(class_of(&["grep", "-c", "x"]), Some(ParClass::Pure));
        assert_eq!(class_of(&["grep", "-iv", "999"]), Some(ParClass::Stateless));
    }

    #[test]
    fn grep_line_numbers_and_caps_stay_sequential() {
        // Line numbers restart in every segment, and `-m N` caps each
        // segment (and each partial count) on its own.
        let n = Some(ParClass::NonParallelizable);
        assert_eq!(class_of(&["grep", "-n", "x"]), n);
        assert_eq!(class_of(&["grep", "-m", "3", "x"]), n);
        assert_eq!(class_of(&["grep", "-m3", "x"]), n);
        assert_eq!(class_of(&["grep", "-vn", "x"]), n);
        assert_eq!(class_of(&["grep", "-cm", "3", "x"]), n);
        assert_eq!(class_of(&["grep", "-c", "-m", "3", "x"]), n);
        assert_eq!(class_of(&["grep", "-n", "-e", "x"]), n);
        // `3` is `-m`'s count, not the pattern: `x` is, and `f` is the
        // one file read.
        let c = AnnotationLibrary::standard()
            .classify(&argv(&["grep", "-cm", "3", "x", "f"]))
            .expect("classified");
        assert_eq!(c.inputs, vec![InputSlot::File("f".to_string())]);
    }

    #[test]
    fn tr_squeeze_across_a_line_end_stays_sequential() {
        // A squeezed run that can hold `\n` spans segment boundaries.
        let n = Some(ParClass::NonParallelizable);
        assert_eq!(class_of(&["tr", "-cs", "A-Za-z", "\\n"]), n);
        assert_eq!(class_of(&["tr", "-s", "-c", "a-z", "x"]), n);
        assert_eq!(class_of(&["tr", "-Cs", "a-z", "x"]), n);
        assert_eq!(class_of(&["tr", "-sc", "[A-Z][a-z]", "[\\012*]"]), n);
        assert_eq!(class_of(&["tr", "-s", "\\n"]), n);
        assert_eq!(class_of(&["tr", "-s", "\\012"]), n);
        assert_eq!(class_of(&["tr", "-s", "x\n"]), n);
        assert_eq!(class_of(&["tr", "-s", "[:space:]"]), n);
        assert_eq!(class_of(&["tr", "-s", "[:cntrl:]"]), n);
        assert_eq!(class_of(&["tr", "-s", "\\001-\\177"]), n);
        assert_eq!(class_of(&["tr", "-s", "\\t-\\r"]), n);
        assert_eq!(class_of(&["tr", "-s", "x", "\\n"]), n);
        assert_eq!(class_of(&["tr", "-ds", ",", "\\n"]), n);
        // No squeeze, or a squeeze that cannot reach a line end.
        let s = Some(ParClass::Stateless);
        assert_eq!(class_of(&["tr", "-s", " "]), s);
        assert_eq!(class_of(&["tr", "-s", "a-z", "A-Z"]), s);
        assert_eq!(class_of(&["tr", "-s", "\\-", "x"]), s);
        assert_eq!(class_of(&["tr", "-s", "\\013-\\177"]), s);
        assert_eq!(class_of(&["tr", "-s", "[:blank:]"]), s);
        assert_eq!(class_of(&["tr", "-cd", "a-z\\n"]), s);
        assert_eq!(class_of(&["tr", "-c", "A-Za-z", "\\n"]), s);
        assert_eq!(class_of(&["tr", "-d", ",."]), s);
        assert_eq!(class_of(&["tr", "A-Z", "a-z"]), s);
    }

    #[test]
    fn comm_flag_dependent() {
        assert_eq!(
            class_of(&["comm", "-13", "d", "-"]),
            Some(ParClass::Stateless)
        );
        assert_eq!(class_of(&["comm", "a", "b"]), Some(ParClass::Pure));
    }

    #[test]
    fn sed_script_refinement() {
        assert_eq!(class_of(&["sed", "s/a/b/"]), Some(ParClass::Stateless));
        assert_eq!(class_of(&["sed", "s;^;prefix;"]), Some(ParClass::Stateless));
        assert_eq!(class_of(&["sed", "2d"]), Some(ParClass::NonParallelizable));
        assert_eq!(
            class_of(&["sed", "-n", "/x/p"]),
            Some(ParClass::NonParallelizable)
        );
        assert_eq!(
            class_of(&["sed", "s/a/b/;3q"]),
            Some(ParClass::NonParallelizable)
        );
    }

    #[test]
    fn xargs_inherits_inner_class() {
        assert_eq!(
            class_of(&["xargs", "-n", "1", "fetch"]),
            Some(ParClass::Stateless)
        );
        assert_eq!(
            class_of(&["xargs", "-n", "1", "sha1sum"]),
            Some(ParClass::NonParallelizable)
        );
        assert_eq!(class_of(&["xargs", "echo"]), Some(ParClass::Stateless));
    }

    #[test]
    fn tail_plus_is_not_parallelizable() {
        assert_eq!(class_of(&["tail", "-n", "5"]), Some(ParClass::Pure));
        assert_eq!(class_of(&["tail", "+2"]), Some(ParClass::NonParallelizable));
    }

    #[test]
    fn uniq_d_u_not_parallelizable() {
        assert_eq!(class_of(&["uniq"]), Some(ParClass::Pure));
        assert_eq!(class_of(&["uniq", "-c"]), Some(ParClass::Pure));
        assert_eq!(class_of(&["uniq", "-d"]), Some(ParClass::NonParallelizable));
    }

    #[test]
    fn unknown_command_is_none() {
        assert_eq!(class_of(&["kubectl", "get", "pods"]), None);
    }

    #[test]
    fn aggregators_for_pure_commands() {
        assert_eq!(
            aggregator_for(&argv(&["sort", "-rn"])),
            Some(argv(&["pash-agg-sort", "-rn"]))
        );
        assert_eq!(
            aggregator_for(&argv(&["sort", "-k", "2", "-n"])),
            Some(argv(&["pash-agg-sort", "-k", "2", "-n"]))
        );
        assert_eq!(
            aggregator_for(&argv(&["uniq", "-c"])),
            Some(argv(&["pash-agg-uniq-c"]))
        );
        assert_eq!(
            aggregator_for(&argv(&["uniq"])),
            Some(argv(&["pash-agg-uniq"]))
        );
        assert_eq!(
            aggregator_for(&argv(&["wc", "-lw"])),
            Some(argv(&["pash-agg-wc", "-lw"]))
        );
        assert_eq!(
            aggregator_for(&argv(&["grep", "-c", "x"])),
            Some(argv(&["pash-agg-sum"]))
        );
        assert_eq!(
            aggregator_for(&argv(&["head", "-n", "1"])),
            Some(argv(&["head", "-n", "1"]))
        );
        assert_eq!(aggregator_for(&argv(&["tail", "+2"])), None);
        assert_eq!(aggregator_for(&argv(&["uniq", "-d"])), None);
        assert_eq!(aggregator_for(&argv(&["uniq", "-ci"])), None);
        assert_eq!(aggregator_for(&argv(&["paste", "a", "b"])), None);
    }

    #[test]
    fn custom_record_registration() {
        let mut lib = AnnotationLibrary::empty();
        lib.register_source("mycmd { | _ => (S, [stdin], [stdout]) }")
            .expect("register");
        assert_eq!(
            lib.classify(&argv(&["mycmd"])).map(|c| c.class),
            Some(ParClass::Stateless)
        );
    }

    #[test]
    fn fetch_under_xargs_matches_fig3() {
        // Fig. 3 parallelizes `xargs -n1 curl -s`; ours is `fetch`.
        let c = AnnotationLibrary::standard()
            .classify(&argv(&["xargs", "-n", "1", "fetch"]))
            .expect("classify");
        assert_eq!(c.class, ParClass::Stateless);
        assert_eq!(c.inputs, vec![crate::annot::InputSlot::Stdin]);
    }
}
