//! Recursive-descent parser for the POSIX shell grammar (§2.10).

use crate::ast::{
    AndOr, AndOrOp, Assignment, CaseArm, Command, CompleteCommand, CompoundCommand, Pipeline,
    Program, RedirOp, Redirect, Separator, SimpleCommand,
};
use crate::lexer::{Lexer, Op, Token};
use crate::word::{Word, WordPart};
use crate::Error;

/// Parses a shell script into a [`Program`].
///
/// # Examples
///
/// ```
/// let prog = pash_parser::parse("cat f | grep x > out").unwrap();
/// assert_eq!(prog.commands.len(), 1);
/// ```
pub fn parse(src: &str) -> Result<Program, Error> {
    let mut p = Parser::new(src);
    let prog = p.parse_program()?;
    Ok(prog)
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    lookahead: Option<Token>,
    /// Here-doc bodies drained from the lexer, in source order.
    bodies: Vec<String>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            lexer: Lexer::new(src),
            lookahead: None,
            bodies: Vec::new(),
        }
    }

    fn peek(&mut self) -> Result<&Token, Error> {
        if self.lookahead.is_none() {
            self.lookahead = Some(self.lexer.next_token()?);
            self.drain_bodies();
        }
        Ok(self.lookahead.as_ref().expect("just filled"))
    }

    fn next(&mut self) -> Result<Token, Error> {
        let t = match self.lookahead.take() {
            Some(t) => t,
            None => {
                let t = self.lexer.next_token()?;
                self.drain_bodies();
                t
            }
        };
        Ok(t)
    }

    fn drain_bodies(&mut self) {
        while let Some(b) = self.lexer.take_heredoc_body() {
            self.bodies.push(b);
        }
    }

    /// True when the lookahead is the reserved word `w` (unquoted).
    fn at_reserved(&mut self, w: &str) -> bool {
        matches!(self.peek(), Ok(Token::Word(word)) if is_literal(word, w))
    }

    fn eat_reserved(&mut self, w: &str) -> Result<bool, Error> {
        if self.at_reserved(w) {
            self.next()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect_reserved(&mut self, w: &str) -> Result<(), Error> {
        if self.eat_reserved(w)? {
            Ok(())
        } else {
            Err(Error::new(
                format!("expected `{w}`, found {:?}", self.peek()?),
                self.lexer.offset(),
            ))
        }
    }

    fn eat_op(&mut self, op: Op) -> Result<bool, Error> {
        if matches!(self.peek()?, Token::Op(o) if *o == op) {
            self.next()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect_op(&mut self, op: Op) -> Result<(), Error> {
        if self.eat_op(op)? {
            Ok(())
        } else {
            Err(Error::new(
                format!("expected `{op:?}`, found {:?}", self.peek()?),
                self.lexer.offset(),
            ))
        }
    }

    /// Skips zero or more newlines.
    fn linebreak(&mut self) -> Result<(), Error> {
        while matches!(self.peek()?, Token::Newline) {
            self.next()?;
        }
        Ok(())
    }

    fn parse_program(&mut self) -> Result<Program, Error> {
        let mut prog = Program::default();
        self.linebreak()?;
        while !matches!(self.peek()?, Token::Eof) {
            let cc = self.parse_complete_command()?;
            prog.commands.push(cc);
            self.linebreak()?;
        }
        // Fill here-doc bodies in global source order.
        let bodies = std::mem::take(&mut self.bodies);
        let mut queue = bodies.into_iter();
        for cc in &mut prog.commands {
            fill_cc(cc, &mut queue)?;
        }
        Ok(prog)
    }

    /// Parses one complete command (a `;`/`&`-separated list).
    fn parse_complete_command(&mut self) -> Result<CompleteCommand, Error> {
        let mut items = Vec::new();
        loop {
            let ao = self.parse_and_or()?;
            let sep = match self.peek()? {
                Token::Op(Op::Amp) => {
                    self.next()?;
                    Separator::Async
                }
                Token::Op(Op::Semi) => {
                    self.next()?;
                    Separator::Seq
                }
                _ => Separator::Seq,
            };
            items.push((ao, sep));
            match self.peek()? {
                Token::Newline | Token::Eof => break,
                Token::Op(Op::RParen) | Token::Op(Op::DSemi) => break,
                Token::Word(w)
                    if ["then", "do", "done", "fi", "else", "elif", "esac", "}"]
                        .iter()
                        .any(|k| is_literal(w, k)) =>
                {
                    break
                }
                _ => {}
            }
        }
        Ok(CompleteCommand { items })
    }

    fn parse_and_or(&mut self) -> Result<AndOr, Error> {
        let first = self.parse_pipeline()?;
        let mut rest = Vec::new();
        loop {
            let op = match self.peek()? {
                Token::Op(Op::AndIf) => AndOrOp::AndIf,
                Token::Op(Op::OrIf) => AndOrOp::OrIf,
                _ => break,
            };
            self.next()?;
            self.linebreak()?;
            rest.push((op, self.parse_pipeline()?));
        }
        Ok(AndOr { first, rest })
    }

    fn parse_pipeline(&mut self) -> Result<Pipeline, Error> {
        let bang = self.eat_reserved("!")?;
        let mut commands = vec![self.parse_command()?];
        while self.eat_op(Op::Pipe)? {
            self.linebreak()?;
            commands.push(self.parse_command()?);
        }
        Ok(Pipeline { bang, commands })
    }

    fn parse_command(&mut self) -> Result<Command, Error> {
        // Compound commands and reserved words first.
        if matches!(self.peek()?, Token::Op(Op::LParen)) {
            self.next()?;
            let body =
                self.parse_compound_list(|p| matches!(p.peek(), Ok(Token::Op(Op::RParen))))?;
            self.expect_op(Op::RParen)?;
            let redirects = self.parse_redirect_list()?;
            return Ok(Command::Compound(
                CompoundCommand::Subshell(body),
                redirects,
            ));
        }
        if self.at_reserved("{") {
            self.next()?;
            let body = self.parse_compound_list(|p| p.at_reserved("}"))?;
            self.expect_reserved("}")?;
            let redirects = self.parse_redirect_list()?;
            return Ok(Command::Compound(
                CompoundCommand::BraceGroup(body),
                redirects,
            ));
        }
        if self.at_reserved("if") {
            return self.parse_if();
        }
        if self.at_reserved("for") {
            return self.parse_for();
        }
        if self.at_reserved("while") {
            return self.parse_while_until(true);
        }
        if self.at_reserved("until") {
            return self.parse_while_until(false);
        }
        if self.at_reserved("case") {
            return self.parse_case();
        }
        self.parse_simple_or_function()
    }

    /// Parses a list of complete commands until `stop` matches.
    fn parse_compound_list(
        &mut self,
        stop: impl Fn(&mut Self) -> bool,
    ) -> Result<Vec<CompleteCommand>, Error> {
        let mut out = Vec::new();
        self.linebreak()?;
        while !stop(self) && !matches!(self.peek()?, Token::Eof) {
            out.push(self.parse_complete_command()?);
            self.linebreak()?;
        }
        Ok(out)
    }

    fn parse_if(&mut self) -> Result<Command, Error> {
        self.expect_reserved("if")?;
        let mut branches = Vec::new();
        let cond = self.parse_compound_list(|p| p.at_reserved("then"))?;
        self.expect_reserved("then")?;
        let body = self.parse_compound_list(|p| {
            p.at_reserved("fi") || p.at_reserved("else") || p.at_reserved("elif")
        })?;
        branches.push((cond, body));
        let mut else_body = None;
        loop {
            if self.eat_reserved("elif")? {
                let cond = self.parse_compound_list(|p| p.at_reserved("then"))?;
                self.expect_reserved("then")?;
                let body = self.parse_compound_list(|p| {
                    p.at_reserved("fi") || p.at_reserved("else") || p.at_reserved("elif")
                })?;
                branches.push((cond, body));
            } else if self.eat_reserved("else")? {
                else_body = Some(self.parse_compound_list(|p| p.at_reserved("fi"))?);
            } else {
                break;
            }
        }
        self.expect_reserved("fi")?;
        let redirects = self.parse_redirect_list()?;
        Ok(Command::Compound(
            CompoundCommand::If {
                branches,
                else_body,
            },
            redirects,
        ))
    }

    fn parse_for(&mut self) -> Result<Command, Error> {
        self.expect_reserved("for")?;
        let var = match self.next()? {
            Token::Word(w) => w
                .as_static_str()
                .ok_or_else(|| Error::new("dynamic for-loop variable", self.lexer.offset()))?,
            other => {
                return Err(Error::new(
                    format!("expected for-loop variable, found {other:?}"),
                    self.lexer.offset(),
                ))
            }
        };
        self.linebreak()?;
        let words = if self.eat_reserved("in")? {
            let mut ws = Vec::new();
            while let Token::Word(_) = self.peek()? {
                if let Token::Word(w) = self.next()? {
                    ws.push(w);
                }
            }
            // Consume the separator (`;` or newline).
            if !self.eat_op(Op::Semi)? {
                self.linebreak()?;
            }
            Some(ws)
        } else {
            let _ = self.eat_op(Op::Semi)?;
            None
        };
        self.linebreak()?;
        self.expect_reserved("do")?;
        let body = self.parse_compound_list(|p| p.at_reserved("done"))?;
        self.expect_reserved("done")?;
        let redirects = self.parse_redirect_list()?;
        Ok(Command::Compound(
            CompoundCommand::For { var, words, body },
            redirects,
        ))
    }

    fn parse_while_until(&mut self, is_while: bool) -> Result<Command, Error> {
        self.expect_reserved(if is_while { "while" } else { "until" })?;
        let cond = self.parse_compound_list(|p| p.at_reserved("do"))?;
        self.expect_reserved("do")?;
        let body = self.parse_compound_list(|p| p.at_reserved("done"))?;
        self.expect_reserved("done")?;
        let redirects = self.parse_redirect_list()?;
        let cc = if is_while {
            CompoundCommand::While { cond, body }
        } else {
            CompoundCommand::Until { cond, body }
        };
        Ok(Command::Compound(cc, redirects))
    }

    fn parse_case(&mut self) -> Result<Command, Error> {
        self.expect_reserved("case")?;
        let word = match self.next()? {
            Token::Word(w) => w,
            other => {
                return Err(Error::new(
                    format!("expected case subject, found {other:?}"),
                    self.lexer.offset(),
                ))
            }
        };
        self.linebreak()?;
        self.expect_reserved("in")?;
        self.linebreak()?;
        let mut arms = Vec::new();
        while !self.at_reserved("esac") {
            let _ = self.eat_op(Op::LParen)?;
            let mut patterns = Vec::new();
            loop {
                match self.next()? {
                    Token::Word(w) => patterns.push(w),
                    other => {
                        return Err(Error::new(
                            format!("expected case pattern, found {other:?}"),
                            self.lexer.offset(),
                        ))
                    }
                }
                if !self.eat_op(Op::Pipe)? {
                    break;
                }
            }
            self.expect_op(Op::RParen)?;
            let body = self.parse_compound_list(|p| {
                p.at_reserved("esac") || matches!(p.peek(), Ok(Token::Op(Op::DSemi)))
            })?;
            let _ = self.eat_op(Op::DSemi)?;
            self.linebreak()?;
            arms.push(CaseArm { patterns, body });
        }
        self.expect_reserved("esac")?;
        let redirects = self.parse_redirect_list()?;
        Ok(Command::Compound(
            CompoundCommand::Case { word, arms },
            redirects,
        ))
    }

    fn parse_simple_or_function(&mut self) -> Result<Command, Error> {
        let mut cmd = SimpleCommand::default();
        // Prefix: assignments and redirections.
        loop {
            if let Some(r) = self.try_parse_redirect()? {
                cmd.redirects.push(r);
                continue;
            }
            if let Token::Word(w) = self.peek()? {
                if let Some((name, value)) = split_assignment(w) {
                    self.next()?;
                    cmd.assignments.push(Assignment { name, value });
                    continue;
                }
            }
            break;
        }
        // Command word; check for function definition `name()`.
        if let Token::Word(_) = self.peek()? {
            let w = match self.next()? {
                Token::Word(w) => w,
                _ => unreachable!("peeked a word"),
            };
            if cmd.assignments.is_empty()
                && cmd.redirects.is_empty()
                && matches!(self.peek()?, Token::Op(Op::LParen))
            {
                if let Some(name) = w.as_static_str() {
                    if is_name(&name) {
                        self.next()?; // `(`
                        self.expect_op(Op::RParen)?;
                        self.linebreak()?;
                        let body = self.parse_command()?;
                        return Ok(Command::FunctionDef {
                            name,
                            body: Box::new(body),
                        });
                    }
                }
            }
            cmd.words.push(w);
        }
        // Suffix: words and redirections.
        loop {
            if let Some(r) = self.try_parse_redirect()? {
                cmd.redirects.push(r);
                continue;
            }
            match self.peek()? {
                Token::Word(_) => {
                    if let Token::Word(w) = self.next()? {
                        cmd.words.push(w);
                    }
                }
                _ => break,
            }
        }
        if cmd.words.is_empty() && cmd.assignments.is_empty() && cmd.redirects.is_empty() {
            return Err(Error::new(
                format!("expected a command, found {:?}", self.peek()?),
                self.lexer.offset(),
            ));
        }
        Ok(Command::Simple(cmd))
    }

    fn parse_redirect_list(&mut self) -> Result<Vec<Redirect>, Error> {
        let mut out = Vec::new();
        while let Some(r) = self.try_parse_redirect()? {
            out.push(r);
        }
        Ok(out)
    }

    /// Parses one redirection if the lookahead starts one.
    fn try_parse_redirect(&mut self) -> Result<Option<Redirect>, Error> {
        let fd = match self.peek()? {
            Token::IoNumber(n) => {
                let n = *n;
                self.next()?;
                Some(n)
            }
            _ => None,
        };
        let op = match self.peek()? {
            Token::Op(Op::Less) => RedirOp::Read,
            Token::Op(Op::Great) => RedirOp::Write,
            Token::Op(Op::DGreat) => RedirOp::Append,
            Token::Op(Op::DLess) => RedirOp::Heredoc,
            Token::Op(Op::DLessDash) => RedirOp::HeredocDash,
            Token::Op(Op::LessAnd) => RedirOp::DupRead,
            Token::Op(Op::GreatAnd) => RedirOp::DupWrite,
            Token::Op(Op::LessGreat) => RedirOp::ReadWrite,
            Token::Op(Op::Clobber) => RedirOp::Clobber,
            _ => {
                if let Some(n) = fd {
                    return Err(Error::new(
                        format!("io number {n} not followed by redirection"),
                        self.lexer.offset(),
                    ));
                }
                return Ok(None);
            }
        };
        self.next()?;
        let target = match self.next()? {
            Token::Word(w) => w,
            other => {
                return Err(Error::new(
                    format!("expected redirection target, found {other:?}"),
                    self.lexer.offset(),
                ))
            }
        };
        if matches!(op, RedirOp::Heredoc | RedirOp::HeredocDash) {
            let delim = target.as_static_str().ok_or_else(|| {
                Error::new("here-doc delimiter must be static", self.lexer.offset())
            })?;
            self.lexer
                .register_heredoc(delim, op == RedirOp::HeredocDash);
        }
        Ok(Some(Redirect {
            fd,
            op,
            target,
            heredoc: None,
        }))
    }
}

/// True if `w` is exactly the unquoted literal `s`.
fn is_literal(w: &Word, s: &str) -> bool {
    matches!(w.parts.as_slice(), [WordPart::Literal(l)] if l == s)
}

/// True for a valid shell identifier.
fn is_name(s: &str) -> bool {
    !s.is_empty()
        && !s.starts_with(|c: char| c.is_ascii_digit())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Splits `NAME=value…` into an assignment if the word qualifies.
fn split_assignment(w: &Word) -> Option<(String, Word)> {
    let first = w.parts.first()?;
    let lit = match first {
        WordPart::Literal(s) => s,
        _ => return None,
    };
    let eq = lit.find('=')?;
    let name = &lit[..eq];
    if !is_name(name) {
        return None;
    }
    let mut value_parts = Vec::new();
    let rest = &lit[eq + 1..];
    if !rest.is_empty() {
        value_parts.push(WordPart::Literal(rest.to_string()));
    }
    value_parts.extend(w.parts[1..].iter().cloned());
    Some((name.to_string(), Word { parts: value_parts }))
}

/// Fills here-doc bodies into a complete command, in source order.
fn fill_cc(
    cc: &mut CompleteCommand,
    queue: &mut impl Iterator<Item = String>,
) -> Result<(), Error> {
    for (ao, _) in &mut cc.items {
        fill_pipeline(&mut ao.first, queue)?;
        for (_, p) in &mut ao.rest {
            fill_pipeline(p, queue)?;
        }
    }
    Ok(())
}

fn fill_pipeline(p: &mut Pipeline, queue: &mut impl Iterator<Item = String>) -> Result<(), Error> {
    for c in &mut p.commands {
        fill_command(c, queue)?;
    }
    Ok(())
}

fn fill_command(c: &mut Command, queue: &mut impl Iterator<Item = String>) -> Result<(), Error> {
    match c {
        Command::Simple(sc) => fill_redirects(&mut sc.redirects, queue),
        Command::FunctionDef { body, .. } => fill_command(body, queue),
        Command::Compound(cc, redirects) => {
            match cc {
                CompoundCommand::BraceGroup(body) | CompoundCommand::Subshell(body) => {
                    for item in body.iter_mut() {
                        fill_cc(item, queue)?;
                    }
                }
                CompoundCommand::For { body, .. } => {
                    for item in body.iter_mut() {
                        fill_cc(item, queue)?;
                    }
                }
                CompoundCommand::Case { arms, .. } => {
                    for arm in arms {
                        for item in arm.body.iter_mut() {
                            fill_cc(item, queue)?;
                        }
                    }
                }
                CompoundCommand::If {
                    branches,
                    else_body,
                } => {
                    for (cond, body) in branches {
                        for item in cond.iter_mut() {
                            fill_cc(item, queue)?;
                        }
                        for item in body.iter_mut() {
                            fill_cc(item, queue)?;
                        }
                    }
                    if let Some(eb) = else_body {
                        for item in eb.iter_mut() {
                            fill_cc(item, queue)?;
                        }
                    }
                }
                CompoundCommand::While { cond, body } | CompoundCommand::Until { cond, body } => {
                    for item in cond.iter_mut() {
                        fill_cc(item, queue)?;
                    }
                    for item in body.iter_mut() {
                        fill_cc(item, queue)?;
                    }
                }
            }
            fill_redirects(redirects, queue)
        }
    }
}

fn fill_redirects(
    rs: &mut [Redirect],
    queue: &mut impl Iterator<Item = String>,
) -> Result<(), Error> {
    for r in rs {
        if matches!(r.op, RedirOp::Heredoc | RedirOp::HeredocDash) && r.heredoc.is_none() {
            r.heredoc = Some(queue.next().ok_or_else(|| {
                Error::new("here-document body missing (unterminated script?)", 0)
            })?);
        }
    }
    Ok(())
}
