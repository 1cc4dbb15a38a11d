//! The metric names the benchmark defines (later issues refer to them
//! verbatim) with their units, read from `BENCHMARK.json`: the one
//! list. A name is end-to-end or per-layer by the section it is in.

use std::sync::OnceLock;

const SPEC: &str = include_str!("../../BENCHMARK.json");

/// The name lists of `BENCHMARK.json`, in file order.
pub struct Names {
    pub workloads: Vec<&'static str>,
    /// End-to-end metrics with their units: what a user of the system
    /// sees. Measured with tracing off; every workload reports all.
    pub end_to_end: Vec<(&'static str, &'static str)>,
    /// Per-layer metrics with their units, from the traced run.
    pub per_layer: Vec<(&'static str, &'static str)>,
}

pub fn names() -> &'static Names {
    static NAMES: OnceLock<Names> = OnceLock::new();
    NAMES.get_or_init(|| {
        let tokens = tokens(SPEC);
        let named = |section: &str| -> Vec<(&'static str, &'static str)> {
            objects(&tokens, section)
                .into_iter()
                .map(|o| (field(&o, "name"), field(&o, "unit")))
                .collect()
        };
        Names {
            workloads: named("workloads").into_iter().map(|(n, _)| n).collect(),
            end_to_end: named("end_to_end"),
            per_layer: named("per_layer"),
        }
    })
}

/// The unit of a defined metric. Panics on a name the benchmark does
/// not define: reporting one would break `BENCHMARK.json`.
pub fn unit_of(name: &str) -> &'static str {
    let names = names();
    names
        .end_to_end
        .iter()
        .chain(&names.per_layer)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("`{name}` is not a defined metric"))
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Token {
    Str(&'static str),
    Punct(u8),
}

/// Strings and structural characters of a JSON text; numbers and
/// literals are dropped (no caller needs them). The strings read here
/// hold no escapes the caller would have to decode.
fn tokens(text: &'static str) -> Vec<Token> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let start = i + 1;
                i = start;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                out.push(Token::Str(&text[start..i]));
            }
            c @ (b'{' | b'}' | b'[' | b']' | b':') => out.push(Token::Punct(c)),
            _ => {}
        }
        i += 1;
    }
    out
}

/// The objects of the array under key `section`, each as its string
/// valued fields.
fn objects(tokens: &[Token], section: &str) -> Vec<Vec<(&'static str, &'static str)>> {
    let at = tokens
        .windows(3)
        .position(|w| {
            matches!(w, [Token::Str(key), Token::Punct(b':'), Token::Punct(b'[')] if *key == section)
        })
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` array"));
    let body = &tokens[at + 3..];
    let mut all: Vec<Vec<(&'static str, &'static str)>> = Vec::new();
    for (i, token) in body.iter().enumerate() {
        match token {
            Token::Punct(b']') => break,
            Token::Punct(b'{') => all.push(Vec::new()),
            Token::Punct(b':') => {
                if let (Some(Token::Str(key)), Some(Token::Str(value))) =
                    (i.checked_sub(1).and_then(|k| body.get(k)), body.get(i + 1))
                {
                    all.last_mut()
                        .expect("a field is inside an object")
                        .push((key, value));
                }
            }
            _ => {}
        }
    }
    all
}

fn field(object: &[(&'static str, &'static str)], key: &str) -> &'static str {
    object
        .iter()
        .find(|(k, _)| *k == key)
        .map_or("", |(_, value)| *value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_names_are_well_formed() {
        let names = names();
        assert_eq!(names.workloads.len(), 4);
        // What `e2e::measure` reports, in its order.
        let end_to_end: Vec<&str> = names.end_to_end.iter().map(|(n, _)| *n).collect();
        assert_eq!(end_to_end, ["setup_s", "par_s", "rps"]);
        assert!(names.per_layer.len() >= 60, "per-layer list was read");
        let mut seen = BTreeSet::new();
        let metrics = names.end_to_end.iter().chain(&names.per_layer);
        for name in metrics.clone().map(|(n, _)| n).chain(&names.workloads) {
            assert!(seen.insert(*name), "{name} is used twice");
            assert!(!name.is_empty() && name.len() <= 64, "length of `{name}`");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} has a character outside [A-Za-z0-9_.-]"
            );
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        }
        for (name, unit) in metrics {
            assert!(!unit.is_empty() && unit.len() <= 16, "unit of {name}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit `{unit}` of {name}"
            );
        }
    }

    #[test]
    fn tokens_skip_numbers_and_keep_strings_whole() {
        let t = tokens(r#"{"a": [{"name": "x]y", "bound": 0.1}], "b": "c"}"#);
        assert_eq!(
            objects(&t, "a"),
            vec![vec![("name", "x]y")]],
            "a bracket inside a string is not structure"
        );
    }
}
