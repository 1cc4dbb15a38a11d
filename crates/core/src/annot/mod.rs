//! Extensibility annotations (§3.2, Appendix A).
//!
//! An [`AnnotationRecord`] describes a command's parallelizability as a
//! list of clauses, each guarded by a predicate over the command's
//! options. Evaluating a record against a concrete invocation yields a
//! [`Classification`]: the class, the ordered streamed inputs, the
//! static ("configuration") inputs, and the output.
//!
//! Two extensions over the paper's grammar:
//! * `takes -x -y` declares options that consume a following value, so
//!   that `head -n 1` does not mistake `1` for a file;
//! * aggregator selection is code, not annotation syntax, mirroring
//!   the paper's "PaSh defines aggregators for many POSIX and GNU
//!   commands" (§3.2, Custom Aggregators).

pub mod lang;
pub mod stdlib;

use crate::classes::ParClass;

/// A parsed annotation record for one command.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationRecord {
    /// Command name.
    pub name: String,
    /// Options that consume a following argument.
    pub takes_value: Vec<String>,
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
    /// Outputs (only the first is used by the DFG).
    pub outputs: Vec<OutSpec>,
}

/// Input selectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoSpec {
    /// Standard input.
    Stdin,
    /// The i-th non-option argument (0-based).
    Arg(usize),
    /// A slice of the non-option arguments.
    ArgRange(Option<usize>, Option<usize>),
}

/// Output selectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutSpec {
    /// Standard output.
    Stdout,
    /// The i-th non-option argument names the output file.
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
    /// The argv with streamed file arguments replaced: the first
    /// streamed positional becomes `-` (read from stdin), later ones
    /// become stream markers (see [`stream_marker`]). This preserves
    /// positional arity — `comm -23 t1 t2` must still see two
    /// operands after t1 is rerouted through a pipe.
    pub stream_argv: Vec<String>,
    /// Whether output goes to stdout (always true in the benchmarks).
    pub output_stdout: bool,
}

/// Placeholder in `stream_argv` for the k-th streamed input.
///
/// Markers never appear in emitted scripts or executed argv: the
/// back-end replaces them with FIFO/file names and the executor with
/// virtual stream paths; parallel copies strip them (each copy reads
/// its single source on stdin).
pub fn stream_marker(k: usize) -> String {
    format!("\u{1}PASH_STREAM{k}\u{1}")
}

/// Recognizes a stream marker, returning its input index.
pub fn parse_stream_marker(s: &str) -> Option<usize> {
    let inner = s.strip_prefix('\u{1}')?.strip_suffix('\u{1}')?;
    inner.strip_prefix("PASH_STREAM")?.parse().ok()
}

impl AnnotationRecord {
    /// Evaluates the record against an invocation's arguments
    /// (excluding the command name).
    ///
    /// The returned `stream_argv` also excludes the name; library-
    /// level classification prepends it. Returns `None` when no
    /// clause matches (callers treat the command conservatively).
    pub fn classify(&self, args: &[String]) -> Option<Classification> {
        let (options, positional, pos_indices) = split_options(args, &self.takes_value);
        for clause in &self.clauses {
            if eval_pred(&clause.pred, &options, args) {
                return Some(resolve(
                    self,
                    &clause.assign,
                    args,
                    &positional,
                    &pos_indices,
                ));
            }
        }
        None
    }
}

/// Splits args into options and positional (non-option) arguments.
/// Every word after `--` is positional, as the commands read it.
///
/// Returns `(option tokens incl. expanded singles, positional values,
/// positional indices into args)`.
fn split_options(
    args: &[String],
    takes_value: &[String],
) -> (Vec<String>, Vec<String>, Vec<usize>) {
    let mut options = Vec::new();
    let mut positional = Vec::new();
    let mut pos_indices = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--" {
            positional.extend_from_slice(&args[i + 1..]);
            pos_indices.extend(i + 1..args.len());
            break;
        }
        if a != "-" && a.starts_with('-') && a.len() > 1 {
            options.push(a.clone());
            // Expand combined single-letter flags: `-rn` ⇒ `-r`, `-n`.
            if !a.starts_with("--")
                && a.len() > 2
                && a[1..].chars().all(|c| c.is_ascii_alphanumeric())
            {
                for c in a[1..].chars() {
                    options.push(format!("-{c}"));
                }
            }
            // The option a following value belongs to: this one, or the
            // last flag of a cluster (`-cm 3`).
            let taker = options.last().expect("an option was just pushed");
            if takes_value.contains(taker) && i + 1 < args.len() {
                // The following token is this option's value.
                let value = format!("{taker}={}", args[i + 1]);
                options.push(value);
                i += 1;
            }
        } else {
            positional.push(a.clone());
            pos_indices.push(i);
        }
        i += 1;
    }
    (options, positional, pos_indices)
}

fn eval_pred(p: &Pred, options: &[String], _args: &[String]) -> bool {
    match p {
        Pred::Otherwise => true,
        Pred::Option(o) => options.iter().any(|x| x == o),
        Pred::Value(o, v) => options.iter().any(|x| x == &format!("{o}={v}")),
        Pred::Not(inner) => !eval_pred(inner, options, _args),
        Pred::And(a, b) => eval_pred(a, options, _args) && eval_pred(b, options, _args),
        Pred::Or(a, b) => eval_pred(a, options, _args) || eval_pred(b, options, _args),
    }
}

fn resolve(
    record: &AnnotationRecord,
    assign: &Assignment,
    args: &[String],
    positional: &[String],
    pos_indices: &[usize],
) -> Classification {
    let _ = record;
    // Resolve streamed inputs and remember which positional indices
    // they occupy (`None` for slots without a positional, i.e. the
    // `stdin` keyword).
    let mut inputs = Vec::new();
    let mut slot_positions: Vec<Option<usize>> = Vec::new();
    for spec in &assign.inputs {
        match spec {
            IoSpec::Stdin => {
                inputs.push(InputSlot::Stdin);
                slot_positions.push(None);
            }
            IoSpec::Arg(i) => {
                if let Some(v) = positional.get(*i) {
                    slot_positions.push(Some(pos_indices[*i]));
                    inputs.push(slot_for(v));
                }
            }
            IoSpec::ArgRange(lo, hi) => {
                let lo = lo.unwrap_or(0);
                let hi = hi.unwrap_or(positional.len()).min(positional.len());
                for i in lo..hi {
                    slot_positions.push(Some(pos_indices[i]));
                    inputs.push(slot_for(&positional[i]));
                }
            }
        }
    }
    // A command with no named inputs reads stdin.
    if inputs.is_empty() {
        inputs.push(InputSlot::Stdin);
        slot_positions.push(None);
    }
    // Static configuration files: positional args not streamed, that
    // look like readable inputs, are left in argv (each copy re-reads
    // them). We only *report* them for the DFG's bookkeeping.
    let streamed_positions: Vec<usize> = slot_positions.iter().flatten().copied().collect();
    let static_files: Vec<String> = positional
        .iter()
        .zip(pos_indices)
        .filter(|(_, idx)| !streamed_positions.contains(idx))
        .map(|(v, _)| v.clone())
        .collect();
    // argv for execution: the first streamed slot routes via stdin
    // (its positional, if any, becomes `-`); later streamed
    // positionals become markers.
    let mut stream_argv: Vec<String> = args.to_vec();
    for (k, pos) in slot_positions.iter().enumerate() {
        if let Some(p) = pos {
            stream_argv[*p] = if k == 0 {
                "-".to_string()
            } else {
                stream_marker(k)
            };
        }
    }
    Classification {
        class: assign.class,
        inputs,
        static_files,
        stream_argv,
        output_stdout: assign
            .outputs
            .first()
            .map(|o| *o == OutSpec::Stdout)
            .unwrap_or(true),
    }
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

    #[test]
    fn comm_paper_example_first_clause() {
        let rec = comm_record();
        let c = classify(&rec, &["-13", "dict.txt", "-"]);
        assert_eq!(c.class, ParClass::Stateless);
        assert_eq!(c.inputs, vec![InputSlot::Stdin]);
        assert_eq!(c.static_files, vec!["dict.txt".to_string()]);
        // argv keeps the static file and the streamed `-` operand.
        assert_eq!(c.stream_argv, vec!["-13", "dict.txt", "-"]);
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
        assert_eq!(c.stream_argv, vec!["a-z", "A-Z"]);
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
        // First streamed positional becomes `-`, the second a marker.
        assert_eq!(
            c.stream_argv,
            vec![
                "-v".to_string(),
                "pat".to_string(),
                "-".to_string(),
                stream_marker(1)
            ]
        );
    }

    #[test]
    fn takes_value_protects_option_arguments() {
        let rec =
            lang::parse_record("head takes -n -c { | otherwise => (P, [args[0:]], [stdout]) }")
                .expect("parse");
        let c = classify(&rec, &["-n", "1"]);
        // `1` is -n's value, not a file.
        assert_eq!(c.inputs, vec![InputSlot::Stdin]);
        assert_eq!(c.stream_argv, vec!["-n", "1"]);
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
        assert_eq!(c.stream_argv, vec!["--", "-"]);
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
            r#"x takes -d { | value -d = "," => (S, [stdin], [stdout]) | otherwise => (N, [stdin], [stdout]) }"#,
        )
        .expect("parse");
        let c = classify(&rec, &["-d", ","]);
        assert_eq!(c.class, ParClass::Stateless);
        let c = classify(&rec, &["-d", ";"]);
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
