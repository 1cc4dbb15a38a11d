//! POSIX shell lexer.
//!
//! Token recognition follows POSIX.1-2017 §2.3, including maximal-munch
//! operators, quoting (`\`, `'…'`, `"…"`), comments, line
//! continuations, and here-document body collection.

use std::collections::VecDeque;

use crate::word::{ParamExp, Word, WordPart};
use crate::Error;

/// Shell operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `|`
    Pipe,
    /// `&`
    Amp,
    /// `;`
    Semi,
    /// `&&`
    AndIf,
    /// `||`
    OrIf,
    /// `;;`
    DSemi,
    /// `<`
    Less,
    /// `>`
    Great,
    /// `>>`
    DGreat,
    /// `<<`
    DLess,
    /// `<<-`
    DLessDash,
    /// `<&`
    LessAnd,
    /// `>&`
    GreatAnd,
    /// `<>`
    LessGreat,
    /// `>|`
    Clobber,
    /// `(`
    LParen,
    /// `)`
    RParen,
}

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// A (possibly multi-part) word.
    Word(Word),
    /// An operator.
    Op(Op),
    /// A digit string immediately preceding `<` or `>` (e.g. `2>`).
    IoNumber(u32),
    /// A newline (command terminator).
    Newline,
    /// End of input.
    Eof,
}

/// The lexer over a source string.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    /// Here-docs announced on the current line: `(delimiter, strip_tabs)`.
    pending_heredocs: Vec<(String, bool)>,
    /// Bodies collected at the most recent newline, in announcement order.
    heredoc_bodies: VecDeque<String>,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            pending_heredocs: Vec::new(),
            heredoc_bodies: VecDeque::new(),
        }
    }

    /// Registers a here-doc whose body should be collected at the next
    /// newline. Called by the parser when it sees `<<`/`<<-` + delimiter.
    pub fn register_heredoc(&mut self, delimiter: String, strip_tabs: bool) {
        self.pending_heredocs.push((delimiter, strip_tabs));
    }

    /// Takes the next collected here-doc body, in announcement order.
    pub fn take_heredoc_body(&mut self) -> Option<String> {
        self.heredoc_bodies.pop_front()
    }

    /// Current byte offset (for error reporting).
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    /// Skips blanks and line continuations; returns at a token start.
    fn skip_blanks(&mut self) {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') => {
                    self.pos += 1;
                }
                Some(b'\\') if self.peek2() == Some(b'\n') => {
                    self.pos += 2;
                }
                _ => break,
            }
        }
    }

    /// Produces the next token.
    pub fn next_token(&mut self) -> Result<Token, Error> {
        self.skip_blanks();
        let b = match self.peek() {
            Some(b) => b,
            None => return Ok(Token::Eof),
        };
        // Comment: runs to end of line.
        if b == b'#' {
            while let Some(c) = self.peek() {
                if c == b'\n' {
                    break;
                }
                self.pos += 1;
            }
            return self.next_token();
        }
        if b == b'\n' {
            self.pos += 1;
            self.collect_heredocs()?;
            return Ok(Token::Newline);
        }
        if let Some(op) = self.try_operator() {
            return Ok(Token::Op(op));
        }
        // IO number: digits directly followed by `<` or `>`.
        if b.is_ascii_digit() {
            let start = self.pos;
            let mut i = self.pos;
            while i < self.src.len() && self.src[i].is_ascii_digit() {
                i += 1;
            }
            if matches!(self.src.get(i), Some(b'<') | Some(b'>')) {
                let n: u32 = std::str::from_utf8(&self.src[start..i])
                    .expect("digits are UTF-8")
                    .parse()
                    .map_err(|_| Error::new("io number out of range", start))?;
                self.pos = i;
                return Ok(Token::IoNumber(n));
            }
        }
        let w = self.lex_word()?;
        Ok(Token::Word(w))
    }

    /// Maximal-munch operator recognition.
    fn try_operator(&mut self) -> Option<Op> {
        let b = self.peek()?;
        let (op, len) = match b {
            b'|' => {
                if self.peek2() == Some(b'|') {
                    (Op::OrIf, 2)
                } else {
                    (Op::Pipe, 1)
                }
            }
            b'&' => {
                if self.peek2() == Some(b'&') {
                    (Op::AndIf, 2)
                } else {
                    (Op::Amp, 1)
                }
            }
            b';' => {
                if self.peek2() == Some(b';') {
                    (Op::DSemi, 2)
                } else {
                    (Op::Semi, 1)
                }
            }
            b'<' => match self.peek2() {
                Some(b'<') => {
                    if self.src.get(self.pos + 2) == Some(&b'-') {
                        (Op::DLessDash, 3)
                    } else {
                        (Op::DLess, 2)
                    }
                }
                Some(b'&') => (Op::LessAnd, 2),
                Some(b'>') => (Op::LessGreat, 2),
                _ => (Op::Less, 1),
            },
            b'>' => match self.peek2() {
                Some(b'>') => (Op::DGreat, 2),
                Some(b'&') => (Op::GreatAnd, 2),
                Some(b'|') => (Op::Clobber, 2),
                _ => (Op::Great, 1),
            },
            b'(' => (Op::LParen, 1),
            b')' => (Op::RParen, 1),
            _ => return None,
        };
        self.pos += len;
        Some(op)
    }

    /// Lexes one word (sequence of parts up to a metacharacter).
    fn lex_word(&mut self) -> Result<Word, Error> {
        let mut parts: Vec<WordPart> = Vec::new();
        let mut lit = String::new();
        macro_rules! flush {
            () => {
                if !lit.is_empty() {
                    parts.push(WordPart::Literal(std::mem::take(&mut lit)));
                }
            };
        }
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\n' | b'|' | b'&' | b';' | b'<' | b'>' | b'(' | b')' => break,
                b'\'' => {
                    self.pos += 1;
                    let s = self.read_until_unescaped(b'\'', false)?;
                    flush!();
                    parts.push(WordPart::SingleQuoted(s));
                }
                b'"' => {
                    self.pos += 1;
                    flush!();
                    let inner = self.lex_double_quoted()?;
                    parts.push(WordPart::DoubleQuoted(inner));
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bump() {
                        Some(b'\n') => {} // Line continuation.
                        Some(c) => lit.push(c as char),
                        None => lit.push('\\'),
                    }
                }
                b'$' => {
                    flush!();
                    parts.push(self.lex_dollar()?);
                }
                b'`' => {
                    self.pos += 1;
                    let s = self.read_until_unescaped(b'`', true)?;
                    flush!();
                    parts.push(WordPart::CommandSubst(s));
                }
                _ => {
                    lit.push(b as char);
                    self.pos += 1;
                }
            }
        }
        if !lit.is_empty() {
            parts.push(WordPart::Literal(lit));
        }
        if parts.is_empty() {
            return Err(Error::new("empty word", self.pos));
        }
        Ok(Word { parts })
    }

    /// Reads the interior of a double-quoted string.
    fn lex_double_quoted(&mut self) -> Result<Vec<WordPart>, Error> {
        let mut parts: Vec<WordPart> = Vec::new();
        let mut lit = String::new();
        loop {
            let b = match self.bump() {
                Some(b) => b,
                None => return Err(Error::new("unterminated double quote", self.pos)),
            };
            match b {
                b'"' => break,
                b'\\' => match self.bump() {
                    // Only these are special after backslash in quotes.
                    Some(c @ (b'$' | b'`' | b'"' | b'\\')) => lit.push(c as char),
                    Some(b'\n') => {}
                    Some(c) => {
                        lit.push('\\');
                        lit.push(c as char);
                    }
                    None => return Err(Error::new("unterminated double quote", self.pos)),
                },
                b'$' => {
                    // `bump` consumed the `$`; rewind so lex_dollar sees it.
                    self.pos -= 1;
                    if !lit.is_empty() {
                        parts.push(WordPart::Literal(std::mem::take(&mut lit)));
                    }
                    parts.push(self.lex_dollar()?);
                }
                b'`' => {
                    let s = self.read_until_unescaped(b'`', true)?;
                    if !lit.is_empty() {
                        parts.push(WordPart::Literal(std::mem::take(&mut lit)));
                    }
                    parts.push(WordPart::CommandSubst(s));
                }
                _ => lit.push(b as char),
            }
        }
        if !lit.is_empty() {
            parts.push(WordPart::Literal(lit));
        }
        Ok(parts)
    }

    /// Lexes a `$…` expansion. The `$` has *not* been consumed.
    fn lex_dollar(&mut self) -> Result<WordPart, Error> {
        debug_assert_eq!(self.peek(), Some(b'$'));
        self.pos += 1;
        match self.peek() {
            Some(b'(') => {
                if self.peek2() == Some(b'(') {
                    // Arithmetic $((…)).
                    self.pos += 2;
                    let s = self.read_balanced_double_paren()?;
                    Ok(WordPart::Arith(s))
                } else {
                    self.pos += 1;
                    let s = self.read_balanced(b'(', b')')?;
                    Ok(WordPart::CommandSubst(s))
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let raw = self.read_balanced(b'{', b'}')?;
                Ok(parse_braced_param(&raw, self.pos)?)
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self
                    .peek()
                    .map(|c| c.is_ascii_alphanumeric() || c == b'_')
                    .unwrap_or(false)
                {
                    self.pos += 1;
                }
                let name = std::str::from_utf8(&self.src[start..self.pos])
                    .expect("identifier bytes")
                    .to_string();
                Ok(WordPart::Param(ParamExp { name, op: None }))
            }
            Some(c) if c.is_ascii_digit() => {
                self.pos += 1;
                Ok(WordPart::Param(ParamExp {
                    name: (c as char).to_string(),
                    op: None,
                }))
            }
            Some(c @ (b'@' | b'*' | b'#' | b'?' | b'-' | b'$' | b'!')) => {
                self.pos += 1;
                Ok(WordPart::Param(ParamExp {
                    name: (c as char).to_string(),
                    op: None,
                }))
            }
            // Bare `$` is a literal dollar sign.
            _ => Ok(WordPart::Literal("$".to_string())),
        }
    }

    /// Reads raw text until the closing delimiter, honouring nesting.
    fn read_balanced(&mut self, open: u8, close: u8) -> Result<String, Error> {
        let start = self.pos;
        let mut depth = 1usize;
        let mut in_single = false;
        let mut in_double = false;
        while let Some(b) = self.bump() {
            match b {
                b'\\' if !in_single => {
                    self.pos += 1;
                }
                b'\'' if !in_double => in_single = !in_single,
                b'"' if !in_single => in_double = !in_double,
                _ if in_single || in_double => {}
                b if b == open => depth += 1,
                b if b == close => {
                    depth -= 1;
                    if depth == 0 {
                        let s = std::str::from_utf8(&self.src[start..self.pos - 1])
                            .map_err(|_| Error::new("non-UTF8 input", start))?;
                        return Ok(s.to_string());
                    }
                }
                _ => {}
            }
        }
        Err(Error::new("unterminated substitution", start))
    }

    /// Reads up to the closing `))` of an arithmetic expansion.
    fn read_balanced_double_paren(&mut self) -> Result<String, Error> {
        let start = self.pos;
        let mut depth = 0usize;
        while let Some(b) = self.bump() {
            match b {
                b'(' => depth += 1,
                b')' => {
                    if depth == 0 {
                        if self.peek() == Some(b')') {
                            self.pos += 1;
                            let s = std::str::from_utf8(&self.src[start..self.pos - 2])
                                .map_err(|_| Error::new("non-UTF8 input", start))?;
                            return Ok(s.to_string());
                        }
                        return Err(Error::new("expected `))`", self.pos));
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        Err(Error::new("unterminated arithmetic expansion", start))
    }

    /// Reads raw text until an unescaped `delim`.
    fn read_until_unescaped(&mut self, delim: u8, allow_escape: bool) -> Result<String, Error> {
        let start = self.pos;
        let mut out = String::new();
        while let Some(b) = self.bump() {
            if b == delim {
                return Ok(out);
            }
            if b == b'\\' && allow_escape {
                if let Some(c) = self.bump() {
                    if c != delim && c != b'\\' {
                        out.push('\\');
                    }
                    out.push(c as char);
                    continue;
                }
            }
            out.push(b as char);
        }
        Err(Error::new(
            format!("unterminated `{}` quote", delim as char),
            start,
        ))
    }

    /// After a newline, reads bodies for all pending here-docs.
    fn collect_heredocs(&mut self) -> Result<(), Error> {
        let pending = std::mem::take(&mut self.pending_heredocs);
        for (delim, strip) in pending {
            let mut body = String::new();
            loop {
                if self.pos >= self.src.len() {
                    return Err(Error::new(
                        format!("here-document `{delim}` not terminated"),
                        self.pos,
                    ));
                }
                // Read one raw line.
                let line_start = self.pos;
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
                let mut line = std::str::from_utf8(&self.src[line_start..self.pos])
                    .map_err(|_| Error::new("non-UTF8 input", line_start))?;
                if self.pos < self.src.len() {
                    self.pos += 1; // Consume the newline.
                }
                if strip {
                    line = line.trim_start_matches('\t');
                }
                if line == delim {
                    break;
                }
                body.push_str(line);
                body.push('\n');
            }
            self.heredoc_bodies.push_back(body);
        }
        Ok(())
    }
}

/// Parses the interior of `${…}` into name + optional op.
fn parse_braced_param(raw: &str, at: usize) -> Result<WordPart, Error> {
    if raw.is_empty() {
        return Err(Error::new("empty parameter expansion", at));
    }
    let bytes = raw.as_bytes();
    // `${#name}` — length-of.
    if bytes[0] == b'#' && raw.len() > 1 {
        return Ok(WordPart::Param(ParamExp {
            name: raw[1..].to_string(),
            op: Some("#".to_string()),
        }));
    }
    let mut i = 0;
    if bytes[0].is_ascii_digit() || "@*#?-$!".contains(bytes[0] as char) {
        i = 1;
    } else {
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
    }
    if i == 0 {
        return Err(Error::new("invalid parameter name", at));
    }
    let name = raw[..i].to_string();
    let op = if i < raw.len() {
        Some(raw[i..].to_string())
    } else {
        None
    };
    Ok(WordPart::Param(ParamExp { name, op }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        let mut l = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = l.next_token().expect("lex");
            let eof = t == Token::Eof;
            out.push(t);
            if eof {
                break;
            }
        }
        out
    }

    fn word_str(t: &Token) -> String {
        match t {
            Token::Word(w) => w.as_static_str().unwrap_or_default(),
            other => panic!("not a word: {other:?}"),
        }
    }

    #[test]
    fn simple_words_and_pipe() {
        let t = toks("cat f | grep x");
        assert_eq!(t.len(), 6);
        assert_eq!(word_str(&t[0]), "cat");
        assert_eq!(t[2], Token::Op(Op::Pipe));
        assert_eq!(word_str(&t[4]), "x");
    }

    #[test]
    fn operators_maximal_munch() {
        let t = toks("a && b || c ; d ;; e & f");
        assert_eq!(t[1], Token::Op(Op::AndIf));
        assert_eq!(t[3], Token::Op(Op::OrIf));
        assert_eq!(t[5], Token::Op(Op::Semi));
        assert_eq!(t[7], Token::Op(Op::DSemi));
        assert_eq!(t[9], Token::Op(Op::Amp));
    }

    #[test]
    fn redirection_operators() {
        let t = toks("a > f >> g < h 2> e <& 3 >| c <> b");
        assert_eq!(t[1], Token::Op(Op::Great));
        assert_eq!(t[3], Token::Op(Op::DGreat));
        assert_eq!(t[5], Token::Op(Op::Less));
        assert_eq!(t[7], Token::IoNumber(2));
        assert_eq!(t[8], Token::Op(Op::Great));
        assert_eq!(t[10], Token::Op(Op::LessAnd));
        assert_eq!(t[12], Token::Op(Op::Clobber));
        assert_eq!(t[14], Token::Op(Op::LessGreat));
    }

    #[test]
    fn io_number_requires_adjacency() {
        // `2 >` is a word then an operator, not an IoNumber.
        let t = toks("echo 2 > f");
        assert_eq!(word_str(&t[1]), "2");
        assert_eq!(t[2], Token::Op(Op::Great));
    }

    #[test]
    fn quoting_single_double() {
        let t = toks(r#"echo 'a b' "c d" e\ f"#);
        assert_eq!(word_str(&t[1]), "a b");
        assert_eq!(word_str(&t[2]), "c d");
        assert_eq!(word_str(&t[3]), "e f");
    }

    #[test]
    fn comments_skipped() {
        let t = toks("echo a # trailing words | ;\necho b");
        // echo a NL echo b EOF.
        assert_eq!(t.len(), 6);
        assert_eq!(t[2], Token::Newline);
    }

    #[test]
    fn param_expansions() {
        let t = toks("echo $x ${y:-def} $1 $@ $?");
        match &t[1] {
            Token::Word(w) => match &w.parts[0] {
                WordPart::Param(p) => assert_eq!(p.name, "x"),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        match &t[2] {
            Token::Word(w) => match &w.parts[0] {
                WordPart::Param(p) => {
                    assert_eq!(p.name, "y");
                    assert_eq!(p.op.as_deref(), Some(":-def"));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn command_substitution_nested() {
        let t = toks("echo $(cat $(ls))");
        match &t[1] {
            Token::Word(w) => match &w.parts[0] {
                WordPart::CommandSubst(s) => assert_eq!(s, "cat $(ls)"),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn backtick_substitution() {
        let t = toks("echo `ls -l`");
        match &t[1] {
            Token::Word(w) => match &w.parts[0] {
                WordPart::CommandSubst(s) => assert_eq!(s, "ls -l"),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arithmetic_expansion() {
        let t = toks("echo $((1 + (2*3)))");
        match &t[1] {
            Token::Word(w) => match &w.parts[0] {
                WordPart::Arith(s) => assert_eq!(s, "1 + (2*3)"),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dollar_inside_double_quotes() {
        let t = toks(r#"echo "pre $x post""#);
        match &t[1] {
            Token::Word(w) => match &w.parts[0] {
                WordPart::DoubleQuoted(inner) => {
                    assert_eq!(inner.len(), 3);
                    assert!(matches!(inner[1], WordPart::Param(_)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn line_continuation() {
        let t = toks("echo a\\\nb");
        assert_eq!(word_str(&t[1]), "ab");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn heredoc_collection() {
        let mut l = Lexer::new("cat <<EOF\nline1\nline2\nEOF\necho done\n");
        // cat.
        assert!(matches!(l.next_token().expect("lex"), Token::Word(_)));
        assert_eq!(l.next_token().expect("lex"), Token::Op(Op::DLess));
        // Delimiter word.
        let d = l.next_token().expect("lex");
        assert_eq!(word_str(&d), "EOF");
        l.register_heredoc("EOF".into(), false);
        assert_eq!(l.next_token().expect("lex"), Token::Newline);
        assert_eq!(l.take_heredoc_body().as_deref(), Some("line1\nline2\n"));
        assert_eq!(word_str(&l.next_token().expect("lex")), "echo");
    }

    #[test]
    fn heredoc_dash_strips_tabs() {
        let mut l = Lexer::new("cat <<-EOF\n\tindented\n\tEOF\n");
        l.next_token().expect("lex");
        assert_eq!(l.next_token().expect("lex"), Token::Op(Op::DLessDash));
        l.next_token().expect("lex");
        l.register_heredoc("EOF".into(), true);
        assert_eq!(l.next_token().expect("lex"), Token::Newline);
        assert_eq!(l.take_heredoc_body().as_deref(), Some("indented\n"));
    }

    #[test]
    fn unterminated_quote_is_error() {
        let mut l = Lexer::new("echo 'abc");
        l.next_token().expect("lex");
        assert!(l.next_token().is_err());
    }

    #[test]
    fn special_params() {
        for (src, name) in [("$#", "#"), ("$$", "$"), ("$!", "!"), ("$*", "*")] {
            let t = toks(&format!("echo {src}"));
            match &t[1] {
                Token::Word(w) => match &w.parts[0] {
                    WordPart::Param(p) => assert_eq!(p.name, name),
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn bare_dollar_is_literal() {
        let t = toks("echo a$ b");
        assert_eq!(word_str(&t[1]), "a$");
    }

    #[test]
    fn parens_are_operators() {
        let t = toks("(a)");
        assert_eq!(t[0], Token::Op(Op::LParen));
        assert_eq!(t[2], Token::Op(Op::RParen));
    }
}
