//! Parser for the annotation description language (Appendix A).
//!
//! ```text
//! <command>      ::= <name> '{' <pred-list> '}'
//! <pred-list>    ::= '|' <predicate> <pred-list>
//!                  | '|' 'otherwise' '=>' <assignment>
//! <predicate>    ::= <option-pred> '=>' <assignment>
//! <option-pred>  ::= <option>
//!                  | 'value' <option> '=' <string>
//!                  | 'not' <option-pred>
//!                  | <option-pred> 'or' <option-pred>
//!                  | <option-pred> 'and' <option-pred>
//!                  | '(' <option-pred> ')'
//! <assignment>   ::= '(' <category> ',' '[' <inputs> ']' ',' '[' <outputs> ']' ')'
//! <input>        ::= 'stdin' | 'args[' i ']' | 'args[' i? ':' j? ']'
//! <output>       ::= 'stdout' | 'args[' i ']'
//! ```
//!
//! `/\` and `\/` are accepted for `and` / `or`, `_` for `otherwise`
//! (as in the paper's `comm` example). Which options take a value is
//! not annotation syntax: the command's own argv grammar says (see the
//! [`crate::annot`] docs).

use crate::annot::{AnnotationRecord, Assignment, Clause, IoSpec, OutSpec, Pred};
use crate::classes::ParClass;
use crate::Error;

/// Parses a single annotation record.
pub fn parse_record(src: &str) -> Result<AnnotationRecord, Error> {
    let mut records = parse_records(src)?;
    match records.len() {
        1 => Ok(records.pop().expect("length checked")),
        n => Err(Error::annotation(format!("expected 1 record, found {n}"))),
    }
}

/// Parses a `<command-list>`: one or more records.
pub fn parse_records(src: &str) -> Result<Vec<AnnotationRecord>, Error> {
    let tokens = tokenize(src)?;
    let mut p = P { tokens, pos: 0 };
    let mut out = Vec::new();
    while !p.at_end() {
        out.push(p.record()?);
    }
    Ok(out)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Name(String),
    Str(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Pipe,
    Arrow,
    Eq,
    And,
    Or,
}

fn tokenize(src: &str) -> Result<Vec<Tok>, Error> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '#' => {
                // Comment to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '{' => {
                out.push(Tok::LBrace);
                i += 1;
            }
            '}' => {
                out.push(Tok::RBrace);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            '[' => {
                out.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                out.push(Tok::RBracket);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            ':' => {
                out.push(Tok::Colon);
                i += 1;
            }
            '|' => {
                out.push(Tok::Pipe);
                i += 1;
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(Error::annotation("unterminated string"));
                }
                out.push(Tok::Str(src[start..j].to_string()));
                i = j + 1;
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Tok::Arrow);
                    i += 2;
                } else {
                    out.push(Tok::Eq);
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'\\') => {
                out.push(Tok::And);
                i += 2;
            }
            '\\' if bytes.get(i + 1) == Some(&b'/') => {
                out.push(Tok::Or);
                i += 2;
            }
            _ => {
                // A name: runs to whitespace or a special character.
                let start = i;
                while i < bytes.len()
                    && !" \t\n\r{}()[],:|\"=".contains(bytes[i] as char)
                    && (bytes[i] != b'/' || bytes.get(i + 1) != Some(&b'\\'))
                    && (bytes[i] != b'\\' || bytes.get(i + 1) != Some(&b'/'))
                {
                    i += 1;
                }
                let word = &src[start..i];
                match word {
                    "and" => out.push(Tok::And),
                    "or" => out.push(Tok::Or),
                    _ => out.push(Tok::Name(word.to_string())),
                }
            }
        }
    }
    Ok(out)
}

struct P {
    tokens: Vec<Tok>,
    pos: usize,
}

impl P {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok, Error> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| Error::annotation("unexpected end of record"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, t: Tok) -> Result<(), Error> {
        let got = self.next()?;
        if got == t {
            Ok(())
        } else {
            Err(Error::annotation(format!("expected {t:?}, found {got:?}")))
        }
    }

    fn name(&mut self) -> Result<String, Error> {
        match self.next()? {
            Tok::Name(n) => Ok(n),
            other => Err(Error::annotation(format!("expected name, found {other:?}"))),
        }
    }

    fn record(&mut self) -> Result<AnnotationRecord, Error> {
        let name = self.name()?;
        self.expect(Tok::LBrace)?;
        let mut clauses = Vec::new();
        while self.peek() == Some(&Tok::Pipe) {
            self.next()?;
            let pred = if matches!(self.peek(), Some(Tok::Name(n)) if n == "otherwise" || n == "_")
            {
                self.next()?;
                Pred::Otherwise
            } else {
                self.pred_or()?
            };
            self.expect(Tok::Arrow)?;
            let assign = self.assignment()?;
            clauses.push(Clause { pred, assign });
        }
        self.expect(Tok::RBrace)?;
        if clauses.is_empty() {
            return Err(Error::annotation(format!("record `{name}` has no clauses")));
        }
        Ok(AnnotationRecord { name, clauses })
    }

    fn pred_or(&mut self) -> Result<Pred, Error> {
        let mut left = self.pred_and()?;
        while self.peek() == Some(&Tok::Or) {
            self.next()?;
            let right = self.pred_and()?;
            left = Pred::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn pred_and(&mut self) -> Result<Pred, Error> {
        let mut left = self.pred_atom()?;
        while self.peek() == Some(&Tok::And) {
            self.next()?;
            let right = self.pred_atom()?;
            left = Pred::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn pred_atom(&mut self) -> Result<Pred, Error> {
        match self.next()? {
            Tok::LParen => {
                let p = self.pred_or()?;
                self.expect(Tok::RParen)?;
                Ok(p)
            }
            Tok::Name(n) if n == "not" || n == "!" => Ok(Pred::Not(Box::new(self.pred_atom()?))),
            Tok::Name(n) if n == "value" => {
                let opt = self.name()?;
                self.expect(Tok::Eq)?;
                let v = match self.next()? {
                    Tok::Str(s) => s,
                    Tok::Name(s) => s,
                    other => {
                        return Err(Error::annotation(format!(
                            "expected value string, found {other:?}"
                        )))
                    }
                };
                Ok(Pred::Value(opt, v))
            }
            Tok::Name(n) if n.starts_with('-') => Ok(Pred::Option(n)),
            other => Err(Error::annotation(format!(
                "expected option predicate, found {other:?}"
            ))),
        }
    }

    fn assignment(&mut self) -> Result<Assignment, Error> {
        self.expect(Tok::LParen)?;
        let cat = self.name()?;
        let class = ParClass::from_keyword(&cat)
            .ok_or_else(|| Error::annotation(format!("unknown category `{cat}`")))?;
        self.expect(Tok::Comma)?;
        self.expect(Tok::LBracket)?;
        let mut inputs = Vec::new();
        while self.peek() != Some(&Tok::RBracket) {
            inputs.push(self.io_spec()?);
            if self.peek() == Some(&Tok::Comma) {
                self.next()?;
            }
        }
        self.expect(Tok::RBracket)?;
        self.expect(Tok::Comma)?;
        self.expect(Tok::LBracket)?;
        let mut outputs = Vec::new();
        while self.peek() != Some(&Tok::RBracket) {
            match self.io_spec()? {
                IoSpec::Stdin => {
                    return Err(Error::annotation("stdin cannot be an output"));
                }
                IoSpec::Arg(i) if i == usize::MAX => outputs.push(OutSpec::Stdout),
                IoSpec::Arg(i) => outputs.push(OutSpec::Arg(i)),
                IoSpec::ArgRange(..) => {
                    return Err(Error::annotation("ranges not allowed in outputs"));
                }
            }
            if self.peek() == Some(&Tok::Comma) {
                self.next()?;
            }
        }
        self.expect(Tok::RBracket)?;
        self.expect(Tok::RParen)?;
        Ok(Assignment {
            class,
            inputs,
            outputs,
        })
    }

    /// Parses `stdin`, `stdout`, `args[i]`, or `args[i:j]`.
    fn io_spec(&mut self) -> Result<IoSpec, Error> {
        let n = self.name()?;
        match n.as_str() {
            "stdin" => Ok(IoSpec::Stdin),
            "stdout" => {
                // Encoded as Arg(usize::MAX) sentinel? No: handled by
                // the caller via OutSpec; reaching here means `stdout`
                // appeared in an output list. Use a dedicated spec.
                Ok(IoSpec::Arg(usize::MAX))
            }
            "args" | "arg" => {
                self.expect(Tok::LBracket)?;
                let lo = match self.peek() {
                    Some(Tok::Name(d)) if d.chars().all(|c| c.is_ascii_digit()) => {
                        let v = d.parse().map_err(|_| Error::annotation("bad index"))?;
                        self.next()?;
                        Some(v)
                    }
                    _ => None,
                };
                if self.peek() == Some(&Tok::Colon) {
                    self.next()?;
                    let hi = match self.peek() {
                        Some(Tok::Name(d)) if d.chars().all(|c| c.is_ascii_digit()) => {
                            let v = d.parse().map_err(|_| Error::annotation("bad index"))?;
                            self.next()?;
                            Some(v)
                        }
                        _ => None,
                    };
                    self.expect(Tok::RBracket)?;
                    Ok(IoSpec::ArgRange(lo, hi))
                } else {
                    self.expect(Tok::RBracket)?;
                    let i = lo.ok_or_else(|| Error::annotation("args[] needs an index"))?;
                    Ok(IoSpec::Arg(i))
                }
            }
            other => Err(Error::annotation(format!("unknown io spec `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_comm_example() {
        let rec = parse_record(
            r#"comm {
                | -1 /\ -3 => (S, [args[1]], [stdout])
                | -2 /\ -3 => (S, [args[0]], [stdout])
                | _ => (P, [args[0], args[1]], [stdout])
            }"#,
        )
        .expect("parse");
        assert_eq!(rec.name, "comm");
        assert_eq!(rec.clauses.len(), 3);
        assert!(matches!(rec.clauses[0].pred, Pred::And(..)));
        assert_eq!(rec.clauses[2].pred, Pred::Otherwise);
        assert_eq!(rec.clauses[2].assign.class, ParClass::Pure);
    }

    #[test]
    fn parses_keyword_operators() {
        let rec = parse_record(
            "x { | -a and -b or not -c => (S, [stdin], [stdout]) | _ => (E, [stdin], [stdout]) }",
        )
        .expect("parse");
        // `or` binds looser than `and`.
        match &rec.clauses[0].pred {
            Pred::Or(l, _) => assert!(matches!(**l, Pred::And(..))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_arg_ranges() {
        let rec = parse_record("x { | _ => (S, [args[1:]], [stdout]) }").expect("parse");
        assert_eq!(
            rec.clauses[0].assign.inputs,
            vec![IoSpec::ArgRange(Some(1), None)]
        );
        let rec = parse_record("x { | _ => (S, [args[:2]], [stdout]) }").expect("parse");
        assert_eq!(
            rec.clauses[0].assign.inputs,
            vec![IoSpec::ArgRange(None, Some(2))]
        );
    }

    #[test]
    fn takes_is_no_keyword() {
        // Option values come from the command's grammar, not the record.
        assert!(parse_record("head takes -n -c { | _ => (P, [args[0:]], [stdout]) }").is_err());
    }

    #[test]
    fn parses_multiple_records() {
        let recs = parse_records(
            "a { | _ => (S, [stdin], [stdout]) }\n# comment\nb { | _ => (P, [stdin], [stdout]) }",
        )
        .expect("parse");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].name, "b");
    }

    #[test]
    fn value_predicate_with_string() {
        let rec = parse_record(
            r#"x { | value -d = ";" => (S, [stdin], [stdout]) | _ => (N, [stdin], [stdout]) }"#,
        )
        .expect("parse");
        assert_eq!(rec.clauses[0].pred, Pred::Value("-d".into(), ";".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_record("x { }").is_err());
        assert!(parse_record("x { | -a (S, [stdin], [stdout]) }").is_err());
        assert!(parse_record("x").is_err());
        assert!(parse_record("x { | _ => (Q, [stdin], [stdout]) }").is_err());
    }

    #[test]
    fn output_to_arg() {
        let rec = parse_record("x { | _ => (P, [stdin], [args[0]]) }").expect("parse");
        assert_eq!(rec.clauses[0].assign.outputs, vec![OutSpec::Arg(0)]);
    }
}
