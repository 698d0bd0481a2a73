//! Lexer and recursive-descent parser for crowd-Datalog.
//!
//! The grammar (see the crate docs for examples):
//!
//! ```text
//! program    := item*
//! item       := crowd_decl | clause
//! crowd_decl := "@crowd" IDENT "/" INT "."
//! clause     := head ( ":-" body )? "."
//! head       := IDENT "(" headterm ( "," headterm )* ")"
//! headterm   := term | ("count"|"sum"|"min"|"max") "<" VARIABLE ">"
//! body       := literal ( "," literal )*
//! literal    := "not" atom | atom | term cmp term
//! cmp        := "=" | "!=" | "<" | "<=" | ">" | ">="
//! atom       := IDENT "(" term ( "," term )* ")"
//! term       := VARIABLE | "_" | INT | STRING
//! ```
//!
//! Identifiers starting lowercase are predicates; starting uppercase are
//! variables. `%` begins a line comment. Errors carry line/column.

use crowdkit_core::error::{CrowdError, Result};

use crate::ast::{AggFunc, AggSlot, Atom, Clause, CmpOp, Const, Literal, Program, Rule, Term};

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String), // lowercase-initial identifier
    Var(String),   // uppercase-initial identifier
    Int(i64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Dot,
    ColonDash,
    At,
    Slash,
    Underscore,
    Cmp(CmpOp),
    Not,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> CrowdError {
        CrowdError::parse(self.line, self.col, msg)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if c & 0xC0 != 0x80 {
            // A UTF-8 continuation byte does not start a character.
            self.col += 1;
        }
        Some(c)
    }

    /// Consumes bytes while `keep` holds and returns them as a slice of
    /// the source. Every caller stops on an ASCII byte or at the end, so
    /// the slice ends on a character boundary.
    fn eat_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&keep) {
            self.bump();
        }
        &self.src[start..self.pos]
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'%') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn lex(mut self) -> Result<Vec<Spanned>> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else { break };
            let tok = match c {
                b'(' => {
                    self.bump();
                    Tok::LParen
                }
                b')' => {
                    self.bump();
                    Tok::RParen
                }
                b',' => {
                    self.bump();
                    Tok::Comma
                }
                b'.' => {
                    self.bump();
                    Tok::Dot
                }
                b'@' => {
                    self.bump();
                    Tok::At
                }
                b'/' => {
                    self.bump();
                    Tok::Slash
                }
                b'_' => {
                    self.bump();
                    // A bare underscore is the wildcard; `_foo` is invalid.
                    if matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
                        return Err(self.err("identifiers may not start with '_'"));
                    }
                    Tok::Underscore
                }
                b':' => {
                    self.bump();
                    if self.peek() == Some(b'-') {
                        self.bump();
                        Tok::ColonDash
                    } else {
                        return Err(self.err("expected ':-'"));
                    }
                }
                b'=' => {
                    self.bump();
                    Tok::Cmp(CmpOp::Eq)
                }
                b'!' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Cmp(CmpOp::Ne)
                    } else {
                        return Err(self.err("expected '!='"));
                    }
                }
                b'<' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Cmp(CmpOp::Le)
                    } else {
                        Tok::Cmp(CmpOp::Lt)
                    }
                }
                b'>' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Cmp(CmpOp::Ge)
                    } else {
                        Tok::Cmp(CmpOp::Gt)
                    }
                }
                b'"' => {
                    self.bump();
                    let mut s = String::new();
                    loop {
                        s.push_str(self.eat_while(|c| c != b'"' && c != b'\\'));
                        match self.bump() {
                            Some(b'"') => break,
                            Some(b'\\') => match self.bump() {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'n') => s.push('\n'),
                                _ => return Err(self.err("invalid escape in string")),
                            },
                            _ => return Err(self.err("unterminated string literal")),
                        }
                    }
                    Tok::Str(s)
                }
                c if c.is_ascii_digit() || c == b'-' => {
                    let start = self.pos;
                    if c == b'-' {
                        self.bump();
                        if !matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                            return Err(self.err("expected digits after '-'"));
                        }
                    }
                    self.eat_while(|d| d.is_ascii_digit());
                    let s = &self.src[start..self.pos];
                    let v: i64 = s
                        .parse()
                        .map_err(|_| self.err(format!("integer out of range: {s}")))?;
                    Tok::Int(v)
                }
                c if c.is_ascii_alphabetic() => {
                    let s = self.eat_while(|d| d.is_ascii_alphanumeric() || d == b'_');
                    if s == "not" {
                        Tok::Not
                    } else if c.is_ascii_uppercase() {
                        Tok::Var(s.to_owned())
                    } else {
                        Tok::Ident(s.to_owned())
                    }
                }
                _ => {
                    // Every arm above stops on a character boundary.
                    let ch = self.src[self.pos..]
                        .chars()
                        .next()
                        .unwrap_or(char::REPLACEMENT_CHARACTER);
                    return Err(self.err(format!("unexpected character '{ch}'")));
                }
            };
            out.push(Spanned { tok, line, col });
        }
        Ok(out)
    }
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn err_at(&self, msg: impl Into<String>) -> CrowdError {
        match self.toks.get(self.pos) {
            Some(s) => CrowdError::parse(s.line, s.col, msg),
            None => {
                let (l, c) = self.toks.last().map(|s| (s.line, s.col)).unwrap_or((1, 1));
                CrowdError::parse(l, c, format!("{} (at end of input)", msg.into()))
            }
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<()> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err_at(format!("expected {what}")))
        }
    }

    fn program(&mut self) -> Result<Program> {
        let mut clauses = Vec::new();
        while self.peek().is_some() {
            if self.peek() == Some(&Tok::At) {
                clauses.push(self.crowd_decl()?);
            } else {
                clauses.push(Clause::Rule(self.clause()?));
            }
        }
        Ok(Program { clauses })
    }

    fn crowd_decl(&mut self) -> Result<Clause> {
        self.expect(&Tok::At, "'@'")?;
        match self.bump() {
            Some(Tok::Ident(kw)) if kw == "crowd" => {}
            _ => return Err(self.err_at("expected 'crowd' after '@'")),
        }
        let predicate = match self.bump() {
            Some(Tok::Ident(name)) => name,
            _ => return Err(self.err_at("expected predicate name in @crowd declaration")),
        };
        self.expect(&Tok::Slash, "'/'")?;
        let arity = match self.bump() {
            Some(Tok::Int(n)) if n > 0 => n as usize,
            _ => return Err(self.err_at("expected positive arity after '/'")),
        };
        self.expect(&Tok::Dot, "'.'")?;
        Ok(Clause::CrowdDecl { predicate, arity })
    }

    fn clause(&mut self) -> Result<Rule> {
        let (head, aggregates) = self.head_atom()?;
        let mut body = Vec::new();
        if self.peek() == Some(&Tok::ColonDash) {
            self.pos += 1;
            loop {
                body.push(self.literal()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::Dot, "'.' at end of clause")?;
        if !aggregates.is_empty() && body.is_empty() {
            return Err(self.err_at("aggregate heads require a rule body"));
        }
        Ok(Rule {
            head,
            body,
            aggregates,
        })
    }

    /// Parses a head atom, which may contain aggregate slots like
    /// `count<Y>`; aggregated positions become wildcard placeholders.
    fn head_atom(&mut self) -> Result<(Atom, Vec<AggSlot>)> {
        let name = match self.bump() {
            Some(Tok::Ident(name)) => name,
            _ => return Err(self.err_at("expected predicate name")),
        };
        self.expect(&Tok::LParen, "'('")?;
        let mut args = Vec::new();
        let mut aggregates = Vec::new();
        loop {
            // Aggregate slot: IDENT '<' VAR '>' with a known function name.
            let agg_func = match (self.peek(), self.toks.get(self.pos + 1).map(|s| &s.tok)) {
                (Some(Tok::Ident(name)), Some(Tok::Cmp(CmpOp::Lt))) => Some(name.clone()),
                _ => None,
            };
            if let Some(func) = agg_func {
                let func = match func.as_str() {
                    "count" => Some(AggFunc::Count),
                    "sum" => Some(AggFunc::Sum),
                    "min" => Some(AggFunc::Min),
                    "max" => Some(AggFunc::Max),
                    _ => None,
                };
                if let Some(func) = func {
                    self.pos += 2; // IDENT '<'
                    let var = match self.bump() {
                        Some(Tok::Var(v)) => v,
                        _ => return Err(self.err_at("expected a variable inside the aggregate")),
                    };
                    match self.bump() {
                        Some(Tok::Cmp(CmpOp::Gt)) => {}
                        _ => return Err(self.err_at("expected '>' closing the aggregate")),
                    }
                    aggregates.push(AggSlot {
                        pos: args.len(),
                        func,
                        var,
                    });
                    args.push(Term::Wildcard);
                    match self.bump() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::RParen) => break,
                        _ => return Err(self.err_at("expected ',' or ')' in argument list")),
                    }
                }
            }
            args.push(self.term()?);
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                _ => return Err(self.err_at("expected ',' or ')' in argument list")),
            }
        }
        Ok((Atom::new(name, args), aggregates))
    }

    fn literal(&mut self) -> Result<Literal> {
        if self.peek() == Some(&Tok::Not) {
            self.pos += 1;
            return Ok(Literal::Neg(self.atom()?));
        }
        // Lookahead: `IDENT (` is an atom; otherwise parse a comparison.
        if matches!(self.peek(), Some(Tok::Ident(_)))
            && matches!(
                self.toks.get(self.pos + 1).map(|s| &s.tok),
                Some(Tok::LParen)
            )
        {
            return Ok(Literal::Pos(self.atom()?));
        }
        let left = self.term()?;
        let op = match self.bump() {
            Some(Tok::Cmp(op)) => op,
            _ => return Err(self.err_at("expected comparison operator")),
        };
        let right = self.term()?;
        Ok(Literal::Cmp(left, op, right))
    }

    fn atom(&mut self) -> Result<Atom> {
        let name = match self.bump() {
            Some(Tok::Ident(name)) => name,
            _ => return Err(self.err_at("expected predicate name")),
        };
        self.expect(&Tok::LParen, "'('")?;
        let mut args = Vec::new();
        loop {
            args.push(self.term()?);
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                _ => return Err(self.err_at("expected ',' or ')' in argument list")),
            }
        }
        Ok(Atom::new(name, args))
    }

    fn term(&mut self) -> Result<Term> {
        match self.bump() {
            Some(Tok::Var(v)) => Ok(Term::Var(v)),
            Some(Tok::Int(i)) => Ok(Term::Const(Const::Int(i))),
            Some(Tok::Str(s)) => Ok(Term::Const(Const::Str(s))),
            Some(Tok::Underscore) => Ok(Term::Wildcard),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err_at("expected a term (variable, constant, or '_')"))
            }
        }
    }
}

/// Parses a crowd-Datalog program.
pub fn parse_program(src: &str) -> Result<Program> {
    let toks = Lexer::new(src).lex()?;
    let mut p = Parser { toks, pos: 0 };
    p.program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_facts_rules_and_decls() {
        let src = r#"
            % genealogy
            parent("alice", "bob").
            parent("bob", "carol").
            ancestor(X, Y) :- parent(X, Y).
            ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
            @crowd city_of/2.
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.rules().count(), 4);
        assert_eq!(p.crowd_predicates(), vec![("city_of", 2)]);
        let first = p.rules().next().unwrap();
        assert!(first.is_fact());
        assert_eq!(first.head.predicate, "parent");
    }

    #[test]
    fn parses_negation_comparisons_and_wildcards() {
        let src = r#"
            adult(X) :- person(X, Age), Age >= 18.
            childless(X) :- person(X, _), not parent(X, _).
            different(X, Y) :- p(X), p(Y), X != Y.
        "#;
        let p = parse_program(src).unwrap();
        let rules: Vec<&Rule> = p.rules().collect();
        assert!(matches!(rules[0].body[1], Literal::Cmp(_, CmpOp::Ge, _)));
        assert!(matches!(rules[1].body[1], Literal::Neg(_)));
        assert!(matches!(
            rules[1].body[0].clone(),
            Literal::Pos(a) if a.args[1] == Term::Wildcard
        ));
    }

    #[test]
    fn parses_integers_including_negative() {
        let p = parse_program(r#"score("x", -5). score("y", 10)."#).unwrap();
        let rules: Vec<&Rule> = p.rules().collect();
        assert_eq!(rules[0].head.args[1], Term::int(-5));
        assert_eq!(rules[1].head.args[1], Term::int(10));
    }

    #[test]
    fn string_escapes_round_trip() {
        let p = parse_program(r#"quote("say \"hi\"\n")."#).unwrap();
        let r = p.rules().next().unwrap();
        assert_eq!(r.head.args[0], Term::str("say \"hi\"\n"));
    }

    #[test]
    fn pretty_print_reparses_identically() {
        let src = r#"
            parent("alice", "bob").
            ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z), X != Z.
            @crowd rating/2.
            good(R) :- restaurant(R), rating(R, S), S >= 4.
            lonely(X) :- node(X), not edge(X, _).
        "#;
        let p1 = parse_program(src).unwrap();
        let printed = p1.to_string();
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p1, p2, "pretty-printed program must reparse to itself");
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_program("p(X) :- q(X)").unwrap_err();
        match err {
            CrowdError::Parse { line, message, .. } => {
                assert_eq!(line, 1);
                assert!(message.contains("'.'"), "message: {message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_tokens() {
        assert!(parse_program("p(#).").is_err());
        assert!(parse_program("p(_x).").is_err());
        assert!(parse_program("@crowd p/0.").is_err());
        assert!(parse_program(r#"p("unterminated)."#).is_err());
        assert!(parse_program("p(X) : q(X).").is_err());
        match parse_program("p(ç).").unwrap_err() {
            CrowdError::Parse {
                column, message, ..
            } => {
                assert_eq!(column, 3);
                assert_eq!(message, "unexpected character 'ç'");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn comments_are_ignored() {
        let p = parse_program("% nothing here\np(\"a\"). % trailing\n").unwrap();
        assert_eq!(p.rules().count(), 1);
    }
}
