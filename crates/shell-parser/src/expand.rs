//! Static word expansion.
//!
//! PaSh's front-end is conservative: a program fragment is only
//! parallelized when the compiler can determine the *runtime* value of
//! the words involved. This module implements that decision procedure:
//! given a static environment (variables whose values are known at
//! compile time), a word either expands to concrete fields or is
//! reported as [`WordExpansion::Dynamic`], in which case the region
//! containing it is left untouched.
//!
//! As an extension (used by the paper's running example,
//! `{2015..2020}`), fully-literal words undergo bash-style brace
//! expansion.

use std::collections::HashMap;

use crate::word::{Word, WordPart};

/// Variables with compile-time-known values.
#[derive(Debug, Clone, Default)]
pub struct StaticEnv {
    map: HashMap<String, String>,
}

impl StaticEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a variable.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.map.insert(name.into(), value.into());
    }

    /// Looks up a variable.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.map.get(name).map(|s| s.as_str())
    }

    /// Removes a variable (e.g. after a dynamic reassignment).
    pub fn unset(&mut self, name: &str) {
        self.map.remove(name);
    }

    /// All bindings in name order (deterministic — cache keys and
    /// plan dumps depend on it).
    pub fn sorted_vars(&self) -> Vec<(&str, &str)> {
        let mut vars: Vec<(&str, &str)> = self
            .map
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        vars.sort_unstable();
        vars
    }
}

impl<K: Into<String>, V: Into<String>> FromIterator<(K, V)> for StaticEnv {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut env = StaticEnv::new();
        for (k, v) in iter {
            env.set(k, v);
        }
        env
    }
}

/// Result of statically expanding one word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WordExpansion {
    /// The word expands to these fields (after field splitting and
    /// brace expansion).
    Fields(Vec<String>),
    /// The word's value cannot be determined at compile time.
    Dynamic,
}

/// Expands a word with field splitting (as in command arguments).
pub fn expand_word(w: &Word, env: &StaticEnv) -> WordExpansion {
    // Brace expansion first, on fully-literal words only (quoted braces
    // must not expand).
    if let [WordPart::Literal(s)] = w.parts.as_slice() {
        if s.contains('{') {
            let expanded = brace_expand(s);
            if expanded.len() > 1 {
                return WordExpansion::Fields(expanded);
            }
        }
    }
    // Accumulate fields: unquoted parameter values are field-split.
    let mut fields: Vec<String> = Vec::new();
    let mut current = String::new();
    let mut started = false;
    for p in &w.parts {
        match p {
            WordPart::Literal(s) | WordPart::SingleQuoted(s) => {
                current.push_str(s);
                started = true;
            }
            WordPart::DoubleQuoted(inner) => {
                for ip in inner {
                    match ip {
                        WordPart::Literal(s) | WordPart::SingleQuoted(s) => current.push_str(s),
                        WordPart::Param(pe) if pe.op.is_none() => match env.get(&pe.name) {
                            Some(v) => current.push_str(v),
                            None => return WordExpansion::Dynamic,
                        },
                        _ => return WordExpansion::Dynamic,
                    }
                }
                started = true;
            }
            WordPart::Param(pe) if pe.op.is_none() => match env.get(&pe.name) {
                Some(v) => {
                    // Field splitting on whitespace.
                    let mut it = v.split([' ', '\t', '\n']).filter(|s| !s.is_empty());
                    match it.next() {
                        None => {
                            // Empty value: field may vanish entirely.
                        }
                        Some(first) => {
                            current.push_str(first);
                            started = true;
                            for part in it {
                                fields.push(std::mem::take(&mut current));
                                current.push_str(part);
                            }
                        }
                    }
                }
                None => return WordExpansion::Dynamic,
            },
            WordPart::Param(_) | WordPart::CommandSubst(_) | WordPart::Arith(_) => {
                return WordExpansion::Dynamic
            }
        }
    }
    if started || !current.is_empty() {
        fields.push(current);
    }
    WordExpansion::Fields(fields)
}

/// Expands a word without field splitting (assignment values,
/// redirection targets).
pub fn expand_word_single(w: &Word, env: &StaticEnv) -> Option<String> {
    let mut out = String::new();
    for p in &w.parts {
        match p {
            WordPart::Literal(s) | WordPart::SingleQuoted(s) => out.push_str(s),
            WordPart::DoubleQuoted(inner) => {
                for ip in inner {
                    match ip {
                        WordPart::Literal(s) | WordPart::SingleQuoted(s) => out.push_str(s),
                        WordPart::Param(pe) if pe.op.is_none() => out.push_str(env.get(&pe.name)?),
                        _ => return None,
                    }
                }
            }
            WordPart::Param(pe) if pe.op.is_none() => out.push_str(env.get(&pe.name)?),
            _ => return None,
        }
    }
    Some(out)
}

/// Bash-style brace expansion over a literal string.
///
/// Supports comma lists `{a,b,c}` and integer ranges `{1..5}`, applied
/// left-to-right and recursively. Returns the input unchanged (as a
/// single field) when no expansion applies.
pub fn brace_expand(s: &str) -> Vec<String> {
    // Find the first balanced `{…}` containing `,` or `..`.
    let bytes = s.as_bytes();
    let mut open = None;
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'{' => {
                if depth == 0 {
                    open = Some(i);
                }
                depth += 1;
            }
            b'}' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    let start = open.expect("matched open");
                    let inner = &s[start + 1..i];
                    if let Some(alternatives) = brace_alternatives(inner) {
                        let prefix = &s[..start];
                        let suffix = &s[i + 1..];
                        let mut out = Vec::new();
                        for alt in alternatives {
                            let combined = format!("{prefix}{alt}{suffix}");
                            out.extend(brace_expand(&combined));
                        }
                        return out;
                    }
                    open = None;
                }
            }
            _ => {}
        }
    }
    vec![s.to_string()]
}

/// Splits brace-interior into alternatives, or `None` if not expandable.
fn brace_alternatives(inner: &str) -> Option<Vec<String>> {
    // Integer range `m..n`.
    if let Some((a, b)) = inner.split_once("..") {
        if let (Ok(m), Ok(n)) = (a.parse::<i64>(), b.parse::<i64>()) {
            let width = if a.starts_with('0') && a.len() > 1 {
                a.len()
            } else {
                0
            };
            let mut out = Vec::new();
            let step: i64 = if m <= n { 1 } else { -1 };
            let mut v = m;
            loop {
                out.push(if width > 0 {
                    format!("{v:0width$}")
                } else {
                    v.to_string()
                });
                if v == n {
                    break;
                }
                v += step;
            }
            return Some(out);
        }
        return None;
    }
    // Comma list at depth 0.
    if !inner.contains(',') {
        return None;
    }
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in inner.chars() {
        match c {
            '{' => {
                depth += 1;
                cur.push(c);
            }
            '}' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 => out.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    out.push(cur);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::{ParamExp, Word, WordPart};

    fn env() -> StaticEnv {
        [("x", "hello"), ("base", "/data"), ("multi", "a b  c")]
            .into_iter()
            .collect()
    }

    #[test]
    fn literal_word() {
        let w = Word::literal("abc");
        assert_eq!(
            expand_word(&w, &env()),
            WordExpansion::Fields(vec!["abc".into()])
        );
    }

    #[test]
    fn known_param_substitutes() {
        let w = Word::param("x");
        assert_eq!(
            expand_word(&w, &env()),
            WordExpansion::Fields(vec!["hello".into()])
        );
    }

    #[test]
    fn unknown_param_is_dynamic() {
        let w = Word::param("nope");
        assert_eq!(expand_word(&w, &env()), WordExpansion::Dynamic);
    }

    #[test]
    fn unquoted_param_field_splits() {
        let w = Word::param("multi");
        assert_eq!(
            expand_word(&w, &env()),
            WordExpansion::Fields(vec!["a".into(), "b".into(), "c".into()])
        );
    }

    #[test]
    fn quoted_param_does_not_split() {
        let w = Word {
            parts: vec![WordPart::DoubleQuoted(vec![WordPart::Param(ParamExp {
                name: "multi".into(),
                op: None,
            })])],
        };
        assert_eq!(
            expand_word(&w, &env()),
            WordExpansion::Fields(vec!["a b  c".into()])
        );
    }

    #[test]
    fn concatenation_of_parts() {
        let w = Word {
            parts: vec![
                WordPart::Param(ParamExp {
                    name: "base".into(),
                    op: None,
                }),
                WordPart::Literal("/2015".into()),
            ],
        };
        assert_eq!(
            expand_word(&w, &env()),
            WordExpansion::Fields(vec!["/data/2015".into()])
        );
    }

    #[test]
    fn command_subst_is_dynamic() {
        let w = Word {
            parts: vec![WordPart::CommandSubst("ls".into())],
        };
        assert_eq!(expand_word(&w, &env()), WordExpansion::Dynamic);
    }

    #[test]
    fn param_with_op_is_dynamic() {
        let w = Word {
            parts: vec![WordPart::Param(ParamExp {
                name: "x".into(),
                op: Some(":-y".into()),
            })],
        };
        assert_eq!(expand_word(&w, &env()), WordExpansion::Dynamic);
    }

    #[test]
    fn brace_range() {
        assert_eq!(
            brace_expand("{2015..2018}"),
            vec!["2015", "2016", "2017", "2018"]
        );
        assert_eq!(brace_expand("{3..1}"), vec!["3", "2", "1"]);
    }

    #[test]
    fn brace_list_with_affixes() {
        assert_eq!(brace_expand("f{a,b}.txt"), vec!["fa.txt", "fb.txt"]);
    }

    #[test]
    fn brace_nested() {
        assert_eq!(brace_expand("{a,b{1,2}}"), vec!["a", "b1", "b2"]);
    }

    #[test]
    fn brace_zero_padded() {
        assert_eq!(brace_expand("{08..10}"), vec!["08", "09", "10"]);
    }

    #[test]
    fn brace_no_expansion() {
        assert_eq!(brace_expand("{abc}"), vec!["{abc}"]);
        assert_eq!(brace_expand("plain"), vec!["plain"]);
    }

    #[test]
    fn brace_in_word_expansion() {
        let w = Word::literal("{1..3}");
        assert_eq!(
            expand_word(&w, &StaticEnv::new()),
            WordExpansion::Fields(vec!["1".into(), "2".into(), "3".into()])
        );
    }

    #[test]
    fn expand_single_no_split() {
        let w = Word::param("multi");
        assert_eq!(expand_word_single(&w, &env()).as_deref(), Some("a b  c"));
    }

    #[test]
    fn empty_unquoted_param_vanishes() {
        let mut e = StaticEnv::new();
        e.set("empty", "");
        let w = Word::param("empty");
        assert_eq!(expand_word(&w, &e), WordExpansion::Fields(vec![]));
    }
}
