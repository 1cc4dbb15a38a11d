//! The annotation standard library (§3.2): records for POSIX/GNU
//! commands plus the paper's benchmark-specific commands, and the
//! aggregators and map commands of class-P commands, built from the
//! one reading of the invocation that classifies it.

use std::collections::HashMap;
use std::sync::OnceLock;

use pash_coreutils::args::Reading;
use pash_coreutils::cmd::sed::rewrites_each_line;
use pash_coreutils::cmd::tr::squeezes_across_lines;

use crate::annot::{copy_argv, lang, read, AnnotationRecord, Classification};
use crate::classes::ParClass;
use crate::dfg::{AggKind, Aggregator};
use crate::plan::Arg;

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
cut {
    | _ => (S, [args[0:]], [stdout])
}
grep {
    | -e /\ (-n \/ -m) => (N, [args[0:]], [stdout])
    | -e /\ -c => (P, [args[0:]], [stdout])
    | -e => (S, [args[0:]], [stdout])
    | -n \/ -m => (N, [args[1:]], [stdout])
    | -c => (P, [args[1:]], [stdout])
    | _ => (S, [args[1:]], [stdout])
}
sort {
    | _ => (P, [args[0:]], [stdout])
}
uniq {
    | -d \/ -u => (N, [args[0]], [stdout])
    | _ => (P, [args[0]], [stdout])
}
wc { | _ => (P, [args[0:]], [stdout]) }
head { | _ => (P, [args[0:]], [stdout]) }
tail { | _ => (P, [args[0:]], [stdout]) }
comm {
    | -1 /\ -3 => (S, [args[1]], [stdout])
    | -2 /\ -3 => (S, [args[0]], [stdout])
    | _ => (P, [args[0], args[1]], [stdout])
}
rev { | _ => (S, [args[0:]], [stdout]) }
fold { | _ => (S, [args[0:]], [stdout]) }
nl { | _ => (P, [args[0:]], [stdout]) }
paste { | _ => (N, [args[0:]], [stdout]) }
sha1sum { | _ => (N, [args[0:]], [stdout]) }
diff { | _ => (N, [args[0], args[1]], [stdout]) }
seq { | _ => (E, [], [stdout]) }
echo { | _ => (E, [], [stdout]) }
tee { | _ => (E, [stdin], [stdout]) }
xargs { | _ => (S, [stdin], [stdout]) }
sed {
    | -e => (S, [args[0:]], [stdout])
    | _ => (S, [args[1:]], [stdout])
}

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

    /// Classifies an invocation `argv` (name + args), read as the
    /// command reads it: the one reading of a command line during
    /// compilation. A class-P invocation also gets its aggregator and
    /// its copies' map command from that reading.
    ///
    /// Returns `None` for unknown commands, arguments the command
    /// would refuse, or unmatched clauses: the conservative default
    /// (the front-end will not parallelize).
    pub fn classify(&self, argv: &[String]) -> Option<Classification> {
        let (name, args) = argv.split_first()?;
        let record = self.records.get(name)?;
        let r = read(name, args)?;
        let mut c = record.classify_read(args, &r)?;
        // Refinements that need to look *inside* arguments; the DSL
        // only sees option occurrence (see module docs).
        c.class = match name.as_str() {
            "xargs" => self.xargs_class(args, &r),
            // An unaddressed `s` or `y` rewrites each line (class S),
            // a `tr` each byte, unless it squeezes across line ends.
            "sed" if !rewrites_each_line(&r) => c.class.join(ParClass::NonParallelizable),
            "tr" if squeezes_across_lines(&r) => c.class.join(ParClass::NonParallelizable),
            // `uniq IN OUT` writes OUT, once: it runs as written.
            "uniq" if r.operands.0.len() > 1 => c.class.join(ParClass::NonParallelizable),
            // `tail +N` drops a global prefix: not decomposable as a
            // uniform map (only the first chunk is affected).
            "tail" if r.values("n").any(|n| n.starts_with('+')) => {
                c.class.join(ParClass::NonParallelizable)
            }
            _ => c.class,
        };
        if name == "tail" {
            // An obsolete `tail +N` (the count is its own word) runs as
            // `tail -n+N`, the form every `tail` reads.
            for &(at, _, count) in r.options.iter().filter(|o| args[o.0] == o.2) {
                c.argv[at] = Arg::Lit(format!("-n{count}"));
            }
        }
        c.argv.insert(0, Arg::Lit(name.clone()));
        c.map = copy_argv(&c.argv, &c.inputs);
        if c.class == ParClass::Pure {
            c.agg = aggregator(argv, &r);
            if name == "bigrams-aux" {
                // The map role emits boundary markers the aggregator
                // consumes; sequential runs must not see them.
                c.map = vec![name.clone(), "--marked".to_string()];
            }
        }
        Some(c)
    }

    /// `xargs -n 1 CMD…` is as parallelizable as `CMD` itself (§2's
    /// `xargs -n 1 curl` and Fig. 3). Its first operand starts the
    /// inner command.
    fn xargs_class(&self, args: &[String], r: &Reading) -> ParClass {
        match r.operands.0.first() {
            None => ParClass::Stateless, // Default `echo`.
            // Argument-echoing commands are per-token maps under
            // xargs, even though they are class E standalone (they
            // consume no stream input on their own).
            Some(&(_, "echo" | "printf")) => ParClass::Stateless,
            Some(&(at, _)) => {
                let inner_class = self
                    .classify(&args[at..])
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
        }
    }
}

/// The aggregator of a class-P invocation `argv` (§5.2), from the
/// reading `r` of its arguments.
///
/// The names refer to runtime commands implemented in `pash-runtime`
/// (its registry extends the coreutils registry with them). Returns
/// `None` when no aggregator is known — the node then stays
/// sequential.
fn aggregator(argv: &[String], r: &Reading) -> Option<Aggregator> {
    let (name, args) = argv.split_first()?;
    // `agg` and the invocation's words but its operands and the
    // options named `drop`, verbatim: the aggregator orders or counts
    // as the command does.
    let verbatim = |agg: &str, drop: &str| -> Vec<String> {
        let kept = args.iter().enumerate().filter(|&(at, _)| {
            !r.operands.0.iter().any(|&(i, _)| i == at)
                && !r.options.iter().any(|&(i, n, _)| i == at && n == drop)
        });
        std::iter::once(agg.to_string())
            .chain(kept.map(|(_, word)| word.clone()))
            .collect()
    };
    let one = |agg: &str| vec![agg.to_string()];
    let (argv, kind) = match name.as_str() {
        // sort: merge phase of merge-sort, same ordering flags
        // ("on GNU systems … `sort -m`", §5.2).
        "sort" => {
            let argv = verbatim("pash-agg-sort", "parallel");
            let only_r = argv[1..].iter().all(|w| w == "-r");
            (
                argv,
                AggKind::Merge {
                    unique: r.has("u"),
                    only_r,
                },
            )
        }
        // uniq / uniq -c: boundary-condition combiners. They compare
        // bytes, so `-i` has none (and neither fold may move below a
        // sort's merge: case-equal lines are not adjacent there).
        "uniq" if r.has("d") || r.has("u") || r.has("i") => return None,
        "uniq" if r.has("c") => (one("pash-agg-uniq-c"), AggKind::Fold { counted: true }),
        "uniq" => (one("pash-agg-uniq"), AggKind::Fold { counted: false }),
        // wc: adds per-part count vectors, any flag subset.
        "wc" => (verbatim("pash-agg-wc", ""), AggKind::Sum),
        // grep -c: sum of partial counts.
        "grep" if r.has("c") => (one("pash-agg-sum"), AggKind::Sum),
        // tac: consume stream descriptors in reverse order.
        "tac" => (one("pash-agg-tac"), AggKind::Plain),
        // head/tail: re-apply over the concatenation — of its inputs,
        // not of the invocation's files. Over two files or more the
        // command takes lines from each file, which nothing re-applied
        // over their concatenation gives back.
        "head" | "tail" if r.operands.0.len() > 1 => return None,
        "head" | "tail" if !r.values("n").any(|n| n.starts_with('+')) => {
            (verbatim(name, ""), AggKind::Plain)
        }
        // The Bi-grams-opt custom aggregator (§6.1): it consumes the
        // marked output of its map command.
        "bigrams-aux" => (one("pash-agg-bigram"), AggKind::Flat),
        // cat -n and nl would need renumbering; not provided.
        _ => return None,
    };
    Some(Aggregator { argv, kind })
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
        // `[:]` is three bytes, as GNU reads it (once a panic in the
        // reader). Sets the command refuses leave it unclassified: a
        // repeat, a reversed range, a class SET2 may not hold.
        assert_eq!(class_of(&["tr", "-s", "[:]", "x"]), s);
        for sets in [["[A-Z]", "[\\012*]"], ["c-a", "x"], ["a", "[:digit:]"]] {
            assert_eq!(class_of(&["tr", "-s", sets[0], sets[1]]), None, "{sets:?}");
        }
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
    fn every_sed_script_counts() {
        let n = Some(ParClass::NonParallelizable);
        assert_eq!(class_of(&["sed", "-Ee", "s/a/b/", "-e", "1d"]), n);
        assert_eq!(class_of(&["sed", "-ne", "s/a/b/p"]), n);
        // An addressed `y` rewrites only the lines it selects.
        assert_eq!(class_of(&["sed", "1y/a/b/"]), n);
        assert_eq!(class_of(&["sed", "y/a/b/"]), Some(ParClass::Stateless));
        assert_eq!(
            class_of(&["sed", "-Ee", "s/a/b/", "-e", "y/a/b/"]),
            Some(ParClass::Stateless)
        );
        // With `-e`, every operand is an input.
        let c = AnnotationLibrary::standard()
            .classify(&argv(&["sed", "-e", "s/a/b/", "f"]))
            .expect("classified");
        assert_eq!(c.inputs, vec![InputSlot::File("f".to_string())]);
    }

    #[test]
    fn an_argv_the_command_refuses_is_not_classified() {
        assert_eq!(class_of(&["grep", "-q", "a1"]), None);
        assert_eq!(class_of(&["sort", "-k"]), None);
        assert_eq!(class_of(&["xargs", "-n"]), None);
        // So is a value or operand count it refuses once scanned.
        assert_eq!(class_of(&["head", "-n", "x"]), None);
        assert_eq!(class_of(&["fold", "-w", "x"]), None);
        assert_eq!(class_of(&["xargs", "-n", "0", "echo"]), None);
        assert_eq!(class_of(&["cut", "-f1", "-c1"]), None);
        assert_eq!(class_of(&["tr", "a"]), None);
        assert_eq!(class_of(&["sort", "-k", "x"]), None);
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
        // The first operand starts the inner command, options and all.
        assert_eq!(
            class_of(&["xargs", "-n1", "sed", "-n", "p"]),
            Some(ParClass::NonParallelizable)
        );
    }

    #[test]
    fn tail_plus_is_not_parallelizable() {
        assert_eq!(class_of(&["tail", "-n", "5"]), Some(ParClass::Pure));
        assert_eq!(class_of(&["tail", "+2"]), Some(ParClass::NonParallelizable));
        assert_eq!(
            class_of(&["tail", "-n+2"]),
            Some(ParClass::NonParallelizable)
        );
        assert_eq!(class_of(&["tail", "-3"]), Some(ParClass::Pure));
        let c = AnnotationLibrary::standard()
            .classify(&argv(&["tail", "+2", "f"]))
            .expect("classified");
        let mut words: Vec<Arg> = argv(&["tail", "-n+2"]).into_iter().map(Arg::Lit).collect();
        words.push(Arg::Stream(0));
        assert_eq!(c.argv, words);
        assert_eq!(c.map, argv(&["tail", "-n+2", "-"]));
    }

    #[test]
    fn uniq_d_u_not_parallelizable() {
        assert_eq!(class_of(&["uniq"]), Some(ParClass::Pure));
        assert_eq!(class_of(&["uniq", "-c"]), Some(ParClass::Pure));
        assert_eq!(class_of(&["uniq", "-d"]), Some(ParClass::NonParallelizable));
    }

    #[test]
    fn uniq_streams_its_input_and_runs_whole_when_it_names_an_output() {
        let c = AnnotationLibrary::standard()
            .classify(&argv(&["uniq", "in.txt", "out.txt"]))
            .expect("classified");
        assert_eq!(c.class, ParClass::NonParallelizable);
        assert_eq!(c.inputs, [InputSlot::File("in.txt".to_string())]);
        assert_eq!(c.static_files, ["out.txt"]);
        assert_eq!(class_of(&["uniq", "in.txt"]), Some(ParClass::Pure));
    }

    #[test]
    fn unknown_command_is_none() {
        assert_eq!(class_of(&["kubectl", "get", "pods"]), None);
    }

    /// The aggregator argv classification gives `parts`.
    fn agg_argv(parts: &[&str]) -> Option<Vec<String>> {
        let c = AnnotationLibrary::standard().classify(&argv(parts))?;
        c.agg.map(|a| a.argv)
    }

    #[test]
    fn aggregators_for_pure_commands() {
        assert_eq!(
            agg_argv(&["sort", "-rn"]),
            Some(argv(&["pash-agg-sort", "-rn"]))
        );
        assert_eq!(
            agg_argv(&["sort", "-k", "2", "-n"]),
            Some(argv(&["pash-agg-sort", "-k", "2", "-n"]))
        );
        assert_eq!(agg_argv(&["uniq", "-c"]), Some(argv(&["pash-agg-uniq-c"])));
        assert_eq!(agg_argv(&["uniq"]), Some(argv(&["pash-agg-uniq"])));
        assert_eq!(
            agg_argv(&["wc", "-lw"]),
            Some(argv(&["pash-agg-wc", "-lw"]))
        );
        assert_eq!(
            agg_argv(&["grep", "-c", "x"]),
            Some(argv(&["pash-agg-sum"]))
        );
        assert_eq!(
            agg_argv(&["head", "-n", "1"]),
            Some(argv(&["head", "-n", "1"]))
        );
        // The re-applied `head`/`tail` reads its inputs: the file
        // operands stay with the invocation.
        assert_eq!(
            agg_argv(&["head", "-n", "1", "in.txt"]),
            Some(argv(&["head", "-n", "1"]))
        );
        assert_eq!(
            agg_argv(&["tail", "in.txt", "-n", "2"]),
            Some(argv(&["tail", "-n", "2"]))
        );
        assert_eq!(agg_argv(&["head", "-n", "1", "a", "b"]), None);
        // Option words verbatim, values in clusters too; operands and
        // `--parallel` dropped.
        assert_eq!(
            agg_argv(&["sort", "-rk", "2", "f"]),
            Some(argv(&["pash-agg-sort", "-rk", "2"]))
        );
        assert_eq!(
            agg_argv(&["sort", "-nt", "a", "--parallel=2", "-k", "2"]),
            Some(argv(&["pash-agg-sort", "-nt", "a", "-k", "2"]))
        );
        assert_eq!(
            agg_argv(&["grep", "-e", "c", "x"]),
            None,
            "`c` is -e's pattern, not -c"
        );
        assert_eq!(agg_argv(&["tail", "+2"]), None);
        assert_eq!(agg_argv(&["tail", "-n", "+2"]), None);
        assert_eq!(agg_argv(&["uniq", "-d"]), None);
        assert_eq!(agg_argv(&["uniq", "-ci"]), None);
        assert_eq!(agg_argv(&["paste", "a", "b"]), None);
    }

    #[test]
    fn aggregators_say_what_the_transformations_need() {
        let kind = |parts: &[&str]| {
            let c = AnnotationLibrary::standard().classify(&argv(parts));
            c.and_then(|c| c.agg).map(|a| a.kind)
        };
        let merge = |unique, only_r| Some(AggKind::Merge { unique, only_r });
        assert_eq!(kind(&["sort"]), merge(false, true));
        assert_eq!(kind(&["sort", "-r", "-r", "f"]), merge(false, true));
        assert_eq!(kind(&["sort", "-r", "--parallel=2"]), merge(false, true));
        assert_eq!(kind(&["sort", "-rr"]), merge(false, false));
        assert_eq!(kind(&["sort", "-r", "--", "f"]), merge(false, false));
        assert_eq!(kind(&["sort", "-nu"]), merge(true, false));
        // `-t -u` is a separator, not `-u`.
        assert_eq!(kind(&["sort", "-t", "-u"]), merge(false, false));
        assert_eq!(kind(&["uniq", "-c"]), Some(AggKind::Fold { counted: true }));
        assert_eq!(kind(&["uniq"]), Some(AggKind::Fold { counted: false }));
        assert_eq!(kind(&["wc", "-l"]), Some(AggKind::Sum));
        assert_eq!(kind(&["grep", "-c", "x"]), Some(AggKind::Sum));
        assert_eq!(kind(&["tac"]), Some(AggKind::Plain));
        assert_eq!(kind(&["bigrams-aux"]), Some(AggKind::Flat));
        // Only class-P commands get one, and the map command with it.
        assert_eq!(kind(&["grep", "x"]), None);
        let c = AnnotationLibrary::standard()
            .classify(&argv(&["bigrams-aux"]))
            .expect("classified");
        assert_eq!(c.map, argv(&["bigrams-aux", "--marked"]));
        let c = AnnotationLibrary::standard()
            .classify(&argv(&["grep", "x", "f1", "f2"]))
            .expect("classified");
        assert_eq!(c.map, argv(&["grep", "x", "-"]));
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
