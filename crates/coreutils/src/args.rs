//! The commands' one option scanner: GNU getopt's reading of an argv,
//! by the rules the crate docs give. Every command that takes options
//! keeps only a `match` on their names; names, values and operands are
//! borrowed from the argv.

/// The operands of an invocation, in order.
pub(crate) struct Operands<'a>(pub(crate) Vec<&'a str>);

impl<'a> Operands<'a> {
    /// Takes the first operand off: `grep`'s pattern, `sed`'s script.
    pub(crate) fn shift(&mut self) -> Option<&'a str> {
        (!self.0.is_empty()).then(|| self.0.remove(0))
    }

    /// The input operands: `-` (stdin) when there is none.
    pub(crate) fn inputs(self) -> Vec<&'a str> {
        if self.0.is_empty() {
            vec!["-"]
        } else {
            self.0
        }
    }
}

/// Scans `args` (the argv without the command name) against `spec`,
/// getopt's optstring: the option letters, each followed by `:` when
/// it takes a value, after a `+` when the first operand ends the
/// options; and against the long options `long`, each name followed by
/// `=` when it takes a value (`--name=value`, in one word). Each
/// option goes to `each` in argv order by its name, with its value
/// (`""` for a flag); an error `each` returns ends the scan.
pub(crate) fn scan<'a>(
    args: &'a [String],
    spec: &str,
    long: &[&str],
    mut each: impl FnMut(&'a str, &'a str) -> Result<(), String>,
) -> Result<Operands<'a>, String> {
    let (in_order, spec) = match spec.strip_prefix('+') {
        Some(spec) => (true, spec),
        None => (false, spec),
    };
    let mut operands = Vec::new();
    let mut words = args.iter().map(String::as_str);
    while let Some(word) = words.next() {
        if word == "--" {
            operands.extend(words);
            break;
        }
        if let Some(body) = word.strip_prefix("--") {
            let (name, value) = match body.split_once('=') {
                Some((name, value)) if long.contains(&&body[..=name.len()]) => (name, value),
                None if long.contains(&body) => (body, ""),
                _ => return Err(format!("unrecognized option '{word}'")),
            };
            each(name, value)?;
            continue;
        }
        let Some(cluster) = word.strip_prefix('-').filter(|c| !c.is_empty()) else {
            operands.push(word);
            if in_order {
                operands.extend(words);
                break;
            }
            continue;
        };
        for (i, c) in cluster.char_indices() {
            let (name, rest) = cluster[i..].split_at(c.len_utf8());
            let takes_value = match spec.find(c).filter(|_| c != ':') {
                Some(at) => spec[at + c.len_utf8()..].starts_with(':'),
                None => return Err(format!("invalid option -- '{c}'")),
            };
            if !takes_value {
                each(name, "")?;
                continue;
            }
            let value = match rest {
                "" => words
                    .next()
                    .ok_or_else(|| format!("option requires an argument -- '{c}'"))?,
                attached => attached,
            };
            each(name, value)?;
            break;
        }
    }
    Ok(Operands(operands))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The options as `name=value` words, and the operands.
    fn read(
        args: &[&str],
        spec: &str,
        long: &[&str],
    ) -> Result<(Vec<String>, Vec<String>), String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut opts = Vec::new();
        let operands = scan(&args, spec, long, |name, value| {
            opts.push(format!("{name}={value}"));
            Ok(())
        })?;
        let operands = operands.0.iter().map(|s| s.to_string()).collect();
        Ok((opts, operands))
    }

    fn ok(args: &[&str], spec: &str) -> (Vec<String>, Vec<String>) {
        read(args, spec, &[]).expect("scans")
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
            read(&["-cZ"], "c", &[]),
            Err("invalid option -- 'Z'".into())
        );
        assert_eq!(
            read(&["-:"], "f:", &[]),
            Err("invalid option -- ':'".into())
        );
        assert_eq!(
            read(&["-f"], "f:", &[]),
            Err("option requires an argument -- 'f'".into())
        );
        assert_eq!(
            read(&["--reverse"], "r", &[]),
            Err("unrecognized option '--reverse'".into())
        );
    }

    #[test]
    fn long_options_by_their_full_name() {
        let long = ["parallel=", "marked"];
        assert_eq!(
            read(&["--parallel=2"], "", &long).expect("scans").0,
            ["parallel=2"]
        );
        assert_eq!(
            read(&["--marked"], "", &long).expect("scans").0,
            ["marked="]
        );
        assert!(read(&["--par=2"], "", &long).is_err());
        assert!(read(&["--parallel", "3"], "", &long).is_err());
        assert!(read(&["--marked=1"], "", &long).is_err());
    }

    #[test]
    fn errors_from_the_command_end_the_scan() {
        let args: Vec<String> = ["-n", "x", "-q"].iter().map(|s| s.to_string()).collect();
        let err = scan(&args, "n:", &[], |_, value| {
            Err(format!("invalid number '{value}'"))
        });
        assert_eq!(err.err(), Some("invalid number 'x'".to_string()));
    }

    #[test]
    fn inputs_default_to_stdin() {
        assert_eq!(Operands(vec![]).inputs(), ["-"]);
        let mut operands = Operands(vec!["pat", "f"]);
        assert_eq!(operands.shift(), Some("pat"));
        assert_eq!(operands.inputs(), ["f"]);
        assert_eq!(Operands(vec![]).shift(), None);
    }
}
