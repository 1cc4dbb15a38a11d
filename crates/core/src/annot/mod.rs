//! Extensibility annotations (§3.2, Appendix A).
//!
//! An [`AnnotationRecord`] describes a command's parallelizability as a
//! list of clauses, each guarded by a predicate over the command's
//! options. Evaluating a record against a concrete invocation yields a
//! [`Classification`]: the class, the ordered streamed inputs, the
//! static ("configuration") inputs, the output, and the command line
//! typed: each streamed file operand is [`Arg::Stream`]`(k)` (the k-th
//! input, named in place, so the command still sees the file's own
//! name); every other word, a streamed `-` among them, is an
//! [`Arg::Lit`], whatever it holds.
//!
//! A record says nothing of how its command reads an argv: the
//! invocation is [`read`] as the command reads it, through the
//! kernels' one scan (`pash_coreutils::args`) and the command's entry
//! in their grammar table, so predicates see options by name and
//! value, and `args[i]` is the i-th operand. An argv its command
//! refuses before reading input (an unknown option, a missing value, a
//! count or list it cannot read: `args::read`) is not classified, so
//! it runs once and its usage error prints once.
//!
//! One extension over the paper's grammar: aggregator selection is
//! code, not annotation syntax, mirroring the paper's "PaSh defines
//! aggregators for many POSIX and GNU commands" (§3.2, Custom
//! Aggregators). [`stdlib::AnnotationLibrary::classify`] builds the
//! aggregator ([`Aggregator`]) and the copies' map command from the
//! same one reading of the invocation, and hands both to the DFG.

pub mod lang;
pub mod stdlib;

use pash_coreutils::args::{self, Grammar, Operands, Reading};

use crate::classes::ParClass;
use crate::dfg::Aggregator;
use crate::plan::Arg;

/// A parsed annotation record for one command.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationRecord {
    /// Command name.
    pub name: String,
    /// Guarded clauses, evaluated in order.
    pub clauses: Vec<Clause>,
}

/// One `| pred => assignment` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    /// Guard over the option multiset.
    pub pred: Pred,
    /// The resulting assignment.
    pub assign: Assignment,
}

/// Option predicates.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `otherwise` / `_` — always true.
    Otherwise,
    /// An option is present (e.g. `-1`).
    Option(String),
    /// `value -d = ","` — option present with this value.
    Value(String, String),
    /// Negation.
    Not(Box<Pred>),
    /// Conjunction (`and`, `/\`).
    And(Box<Pred>, Box<Pred>),
    /// Disjunction (`or`, `\/`).
    Or(Box<Pred>, Box<Pred>),
}

/// The right-hand side of a clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Parallelizability class.
    pub class: ParClass,
    /// Streamed inputs, in consumption order.
    pub inputs: Vec<IoSpec>,
    /// Outputs, as declared (the DFG takes a command's stdout).
    pub outputs: Vec<OutSpec>,
}

/// Input selectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoSpec {
    /// Standard input.
    Stdin,
    /// The i-th operand (0-based).
    Arg(usize),
    /// A slice of the operands.
    ArgRange(Option<usize>, Option<usize>),
}

/// Output selectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutSpec {
    /// Standard output.
    Stdout,
    /// The i-th operand names the output file.
    Arg(usize),
}

/// A resolved input slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputSlot {
    /// The command reads standard input at this position.
    Stdin,
    /// The command reads this file at this position.
    File(String),
}

/// The result of classifying a concrete invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    /// Parallelizability class of this invocation.
    pub class: ParClass,
    /// Streamed inputs in consumption order.
    pub inputs: Vec<InputSlot>,
    /// Static configuration inputs (file arguments *not* streamed;
    /// replicated to every parallel copy, §3.2's `comm -13` example).
    pub static_files: Vec<String>,
    /// The argv with its streamed file operands typed: each becomes
    /// [`Arg::Stream`] of its input, which a backend writes as the
    /// file's path, so `wc -l t1 t2` still names `t1` and `t2`. A
    /// streamed `-` stays the literal `-`.
    pub argv: Vec<Arg>,
    /// The argv each parallel copy runs, which reads its one source on
    /// stdin: [`Classification::argv`] with its first streamed file
    /// operand as `-` (unless an input already is stdin) and the other
    /// streamed operands dropped — or the command's own map command.
    pub map: Vec<String>,
    /// How parallel copies recombine: set by the library for a
    /// class-P invocation whose aggregator it knows.
    pub agg: Option<Aggregator>,
}

/// How an invocation of a command the kernels do not scan (a record
/// registered for it) is read: every option letter a flag. Such an
/// invocation with options is classified only when its clause streams
/// no operand.
const FLAGS_ONLY: Grammar = Grammar {
    name: "",
    spec: "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
    long: &[],
};

/// Reads an invocation's arguments (without the command name) as the
/// command `name` reads them: through the kernels' scan and `name`'s
/// grammar. `None` when the scan refuses them.
pub(crate) fn read<'a>(name: &str, args: &'a [String]) -> Option<Reading<'a>> {
    args::read(args, args::grammar(name).unwrap_or(&FLAGS_ONLY)).ok()
}

impl AnnotationRecord {
    /// Evaluates the record against an invocation's arguments
    /// (excluding the command name).
    ///
    /// The returned `argv` and `map` also exclude the name; library-
    /// level classification prepends it. Returns `None` when the
    /// command would refuse the arguments or no clause matches
    /// (callers treat the command conservatively).
    pub fn classify(&self, args: &[String]) -> Option<Classification> {
        self.classify_read(args, &read(&self.name, args)?)
    }

    /// [`AnnotationRecord::classify`] of arguments already read.
    pub(crate) fn classify_read(&self, args: &[String], r: &Reading) -> Option<Classification> {
        let clause = self.clauses.iter().find(|c| eval_pred(&c.pred, r))?;
        // Without a grammar an option's value cannot be told from an
        // operand, so an invocation with options streams no operand.
        let streams_operands = clause.assign.inputs.iter().any(|i| *i != IoSpec::Stdin);
        if streams_operands && !r.options.is_empty() && args::grammar(&self.name).is_none() {
            return None;
        }
        Some(resolve(&clause.assign, args, &r.operands))
    }
}

/// A predicate's option as the scan names it: `-n` is `n`, `--marked`
/// is `marked`.
fn option_name(option: &str) -> &str {
    option
        .strip_prefix("--")
        .or_else(|| option.strip_prefix('-'))
        .unwrap_or(option)
}

fn eval_pred(p: &Pred, r: &Reading) -> bool {
    match p {
        Pred::Otherwise => true,
        Pred::Option(o) => r.has(option_name(o)),
        Pred::Value(o, v) => r.values(option_name(o)).any(|x| x == v),
        Pred::Not(inner) => !eval_pred(inner, r),
        Pred::And(a, b) => eval_pred(a, r) && eval_pred(b, r),
        Pred::Or(a, b) => eval_pred(a, r) || eval_pred(b, r),
    }
}

fn resolve(assign: &Assignment, args: &[String], operands: &Operands) -> Classification {
    let operands = &operands.0;
    // Resolve streamed inputs and remember which argv positions they
    // occupy (`None` for slots without an operand, i.e. the `stdin`
    // keyword).
    let mut slots: Vec<(InputSlot, Option<usize>)> = Vec::new();
    for spec in &assign.inputs {
        let streamed = match spec {
            IoSpec::Stdin => {
                slots.push((InputSlot::Stdin, None));
                continue;
            }
            IoSpec::Arg(i) => operands.get(*i..=*i),
            IoSpec::ArgRange(lo, hi) => {
                let hi = hi.unwrap_or(operands.len()).min(operands.len());
                operands.get(lo.unwrap_or(0)..hi)
            }
        };
        let streamed = streamed.unwrap_or_default().iter();
        slots.extend(streamed.map(|&(at, word)| (slot_for(word), Some(at))));
    }
    // A command with no named inputs reads stdin.
    if slots.is_empty() {
        slots.push((InputSlot::Stdin, None));
    }
    // Static configuration files: operands not streamed, that look
    // like readable inputs, are left in argv (each copy re-reads
    // them). We only *report* them for the DFG's bookkeeping.
    let static_files: Vec<String> = operands
        .iter()
        .filter(|(at, _)| !slots.iter().any(|s| s.1 == Some(*at)))
        .map(|(_, word)| word.to_string())
        .collect();
    // Every streamed file operand is named in place; a streamed `-`
    // is already the word that reads stdin.
    let mut argv: Vec<Arg> = args.iter().cloned().map(Arg::Lit).collect();
    for (k, (slot, pos)) in slots.iter().enumerate() {
        if let (InputSlot::File(_), Some(p)) = (slot, *pos) {
            argv[p] = Arg::Stream(k);
        }
    }
    let inputs: Vec<InputSlot> = slots.into_iter().map(|s| s.0).collect();
    let map = copy_argv(&argv, &inputs);
    Classification {
        class: assign.class,
        inputs,
        static_files,
        argv,
        map,
        agg: None,
    }
}

/// What a parallel copy of `argv` runs, reading its one source on
/// stdin: the first input's operand (`Arg::Stream(0)`) becomes `-`
/// unless some input already reads stdin, and the other streamed
/// operands are dropped.
pub(crate) fn copy_argv(argv: &[Arg], inputs: &[InputSlot]) -> Vec<String> {
    let first_on_stdin = !inputs.contains(&InputSlot::Stdin);
    argv.iter()
        .filter_map(|a| match a {
            Arg::Lit(w) => Some(w.clone()),
            Arg::Stream(0) if first_on_stdin => Some("-".to_string()),
            Arg::Stream(_) => None,
        })
        .collect()
}

fn slot_for(v: &str) -> InputSlot {
    if v == "-" {
        InputSlot::Stdin
    } else {
        InputSlot::File(v.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm_record() -> AnnotationRecord {
        lang::parse_record(
            r#"comm {
                | -1 /\ -3 => (S, [args[1]], [stdout])
                | -2 /\ -3 => (S, [args[0]], [stdout])
                | otherwise => (P, [args[0], args[1]], [stdout])
            }"#,
        )
        .expect("parse comm record")
    }

    fn classify(rec: &AnnotationRecord, args: &[&str]) -> Classification {
        rec.classify(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .expect("classify")
    }

    /// Literal words, typed.
    fn words(ws: &[&str]) -> Vec<Arg> {
        ws.iter().map(|w| Arg::Lit(w.to_string())).collect()
    }

    #[test]
    fn comm_paper_example_first_clause() {
        let rec = comm_record();
        let c = classify(&rec, &["-13", "dict.txt", "-"]);
        assert_eq!(c.class, ParClass::Stateless);
        assert_eq!(c.inputs, vec![InputSlot::Stdin]);
        assert_eq!(c.static_files, vec!["dict.txt".to_string()]);
        // argv keeps the static file and the streamed `-` operand.
        assert_eq!(c.argv, words(&["-13", "dict.txt", "-"]));
    }

    #[test]
    fn comm_general_clause_is_pure() {
        let rec = comm_record();
        let c = classify(&rec, &["f1", "f2"]);
        assert_eq!(c.class, ParClass::Pure);
        assert_eq!(
            c.inputs,
            vec![InputSlot::File("f1".into()), InputSlot::File("f2".into())]
        );
        assert!(c.static_files.is_empty());
        // Both operands are named in place; a copy reads the first on
        // stdin.
        assert_eq!(c.argv, vec![Arg::Stream(0), Arg::Stream(1)]);
        assert_eq!(c.map, vec!["-"]);
    }

    #[test]
    fn a_streamed_dash_reads_stdin_wherever_it_stands() {
        let rec = comm_record();
        let c = classify(&rec, &["f", "-"]);
        assert_eq!(
            c.inputs,
            vec![InputSlot::File("f".into()), InputSlot::Stdin]
        );
        assert_eq!(c.argv, vec![Arg::Stream(0), Arg::Lit("-".into())]);
        let c = classify(&rec, &["-12", "f", "-"]);
        assert_eq!(
            c.argv,
            vec![Arg::Lit("-12".into()), Arg::Stream(0), Arg::Lit("-".into())]
        );
        // A literal word is never a stream, whatever it holds.
        let rec = lang::parse_record("grep { | _ => (S, [args[1:]], [stdout]) }").expect("parse");
        let c = classify(&rec, &["\u{1}PASH_STREAM0\u{1}"]);
        assert_eq!(c.argv, words(&["\u{1}PASH_STREAM0\u{1}"]));
        assert_eq!(c.inputs, vec![InputSlot::Stdin]);
    }

    #[test]
    fn combined_flags_match_separated_predicates() {
        let rec = comm_record();
        let a = classify(&rec, &["-13", "d", "w"]);
        let b = classify(&rec, &["-1", "-3", "d", "w"]);
        assert_eq!(a.class, b.class);
    }

    #[test]
    fn no_args_defaults_to_stdin() {
        let rec =
            lang::parse_record("tr { | otherwise => (S, [stdin], [stdout]) }").expect("parse");
        let c = classify(&rec, &["a-z", "A-Z"]);
        assert_eq!(c.inputs, vec![InputSlot::Stdin]);
        // tr's sets stay in argv.
        assert_eq!(c.argv, words(&["a-z", "A-Z"]));
    }

    #[test]
    fn arg_range_collects_files() {
        let rec =
            lang::parse_record("grep { | otherwise => (S, [args[1:]], [stdout]) }").expect("parse");
        let c = classify(&rec, &["-v", "pat", "f1", "f2"]);
        assert_eq!(
            c.inputs,
            vec![InputSlot::File("f1".into()), InputSlot::File("f2".into())]
        );
        // Both streamed operands are named; a copy reads the first as
        // `-` and drops the second.
        let mut argv = words(&["-v", "pat"]);
        argv.extend([Arg::Stream(0), Arg::Stream(1)]);
        assert_eq!(c.argv, argv);
        assert_eq!(c.map, vec!["-v", "pat", "-"]);
    }

    #[test]
    fn option_values_are_read_as_the_command_reads_them() {
        let rec =
            lang::parse_record("head { | otherwise => (P, [args[0:]], [stdout]) }").expect("parse");
        let c = classify(&rec, &["-n", "1"]);
        // `1` is -n's value, not a file.
        assert_eq!(c.inputs, vec![InputSlot::Stdin]);
        assert_eq!(c.argv, words(&["-n", "1"]));
        // So is the obsolete leading count, and a value in a cluster.
        let c = classify(&rec, &["-5", "f"]);
        assert_eq!(c.inputs, vec![InputSlot::File("f".into())]);
        assert_eq!(c.argv, vec![Arg::Lit("-5".into()), Arg::Stream(0)]);
        let rec = lang::parse_record("sort { | _ => (P, [args[0:]], [stdout]) }").expect("parse");
        let c = classify(&rec, &["-rk", "2", "f"]);
        assert_eq!(c.inputs, vec![InputSlot::File("f".into())]);
        let mut argv = words(&["-rk", "2"]);
        argv.push(Arg::Stream(0));
        assert_eq!(c.argv, argv);
        assert_eq!(c.map, vec!["-rk", "2", "-"]);
    }

    #[test]
    fn an_argv_the_command_refuses_is_not_classified() {
        let rec = lang::parse_record("grep { | _ => (S, [args[1:]], [stdout]) }").expect("parse");
        assert!(rec.classify(&["-q".into(), "a1".into()]).is_none());
        assert!(rec.classify(&["-e".into()]).is_none());
        // So is a count or list it cannot read.
        let rec = lang::parse_record("head { | _ => (P, [args[0:]], [stdout]) }").expect("parse");
        assert!(rec.classify(&["-n".into(), "x".into()]).is_none());
        let rec = lang::parse_record("cut { | _ => (S, [args[0:]], [stdout]) }").expect("parse");
        assert!(rec.classify(&["-f1".into(), "-c1".into()]).is_none());
        // A command the kernels lack reads every letter as a flag, and
        // with options it streams no operand: `val` may be a value.
        let rec = lang::parse_record(
            "mycmd { | -q => (S, [stdin], [stdout]) | _ => (S, [args[0:]], [stdout]) }",
        )
        .expect("parse");
        assert_eq!(classify(&rec, &["-qz"]).inputs, vec![InputSlot::Stdin]);
        assert!(rec
            .classify(&["-x".into(), "val".into(), "f".into()])
            .is_none());
        let c = classify(&rec, &["f"]);
        assert_eq!(c.inputs, vec![InputSlot::File("f".into())]);
        assert!(rec.classify(&["--long".into()]).is_none());
    }

    #[test]
    fn double_dash_ends_the_options() {
        let rec = lang::parse_record(
            "cat { | -n => (P, [args[0:]], [stdout]) | _ => (S, [args[0:]], [stdout]) }",
        )
        .expect("parse");
        // `-n` after `--` is a file, not the flag.
        let c = classify(&rec, &["--", "-n"]);
        assert_eq!(c.class, ParClass::Stateless);
        assert_eq!(c.inputs, vec![InputSlot::File("-n".into())]);
        assert_eq!(c.argv, vec![Arg::Lit("--".into()), Arg::Stream(0)]);
        assert_eq!(c.map, vec!["--", "-"]);
        let c = classify(&rec, &["-n", "--", "-", "f"]);
        assert_eq!(c.class, ParClass::Pure);
        assert_eq!(
            c.inputs,
            vec![InputSlot::Stdin, InputSlot::File("f".into())]
        );
    }

    #[test]
    fn value_predicate() {
        let rec = lang::parse_record(
            r#"cut { | value -d = "," => (S, [stdin], [stdout]) | otherwise => (N, [stdin], [stdout]) }"#,
        )
        .expect("parse");
        let c = classify(&rec, &["-d", ",", "-f1"]);
        assert_eq!(c.class, ParClass::Stateless);
        let c = classify(&rec, &["-sd,", "-f1"]);
        assert_eq!(c.class, ParClass::Stateless);
        let c = classify(&rec, &["-d", ";", "-f1"]);
        assert_eq!(c.class, ParClass::NonParallelizable);
    }

    #[test]
    fn not_and_or_predicates() {
        let rec = lang::parse_record(
            "x { | not -a and ( -b or -c ) => (S, [stdin], [stdout]) | otherwise => (E, [stdin], [stdout]) }",
        )
        .expect("parse");
        assert_eq!(classify(&rec, &["-b"]).class, ParClass::Stateless);
        assert_eq!(classify(&rec, &["-a", "-b"]).class, ParClass::SideEffectful);
        assert_eq!(classify(&rec, &[]).class, ParClass::SideEffectful);
    }

    #[test]
    fn no_matching_clause_returns_none() {
        let rec = lang::parse_record("x { | -z => (S, [stdin], [stdout]) }").expect("parse");
        assert!(rec.classify(&[]).is_none());
    }
}
