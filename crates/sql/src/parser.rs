//! Recursive-descent parser for CrowdSQL.
//!
//! ```text
//! stmt      := create | insert | select | "EXPLAIN" select
//! create    := "CREATE" "CROWD"? "TABLE" IDENT "(" coldecl ("," coldecl)* ")"
//! coldecl   := IDENT ("CROWD"? ("INT"|"TEXT") | "CROWD")
//! insert    := "INSERT" "INTO" IDENT "VALUES" row ("," row)*
//! row       := "(" literal ("," literal)* ")"
//! select    := "SELECT" proj "FROM" IDENT ("," IDENT)?
//!              ("WHERE" pred ("AND" pred)*)?
//!              ("ORDER" "BY" order)? ("LIMIT" INT)?
//! proj      := "*" | colref ("," colref)*
//! pred      := "CROWDEQUAL" "(" expr "," expr ")" | expr cmp expr
//! order     := "CROWDORDER" "(" colref ")" | colref ("ASC"|"DESC")?
//! expr      := colref | literal
//! colref    := IDENT ("." IDENT)?
//! literal   := INT | STRING | "NULL"
//! ```

use crowdkit_core::error::{CrowdError, Result};

use crate::ast::{
    ColumnDecl, ColumnRef, CompareOp, Expr, OrderBy, Predicate, Select, Span, Statement,
};
use crate::lexer::{lex_spanned, Keyword, SpannedToken, Token};
use crate::value::Value;

struct Parser<'a> {
    toks: Vec<SpannedToken<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Source position of the token at `pos`, or just past the last token
    /// when the stream is exhausted.
    fn span_here(&self) -> Span {
        match self.toks.get(self.pos) {
            Some(t) => Span::at(t.line, t.col),
            None => match self.toks.last() {
                Some(t) => Span::at(t.line, t.col + 1),
                None => Span::at(1, 1),
            },
        }
    }

    fn err(&self, msg: impl Into<String>) -> CrowdError {
        let span = self.span_here();
        CrowdError::parse(span.line, span.col, msg)
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token<'_>) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token<'_>, what: &str) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        self.eat(&Token::Keyword(kw))
    }

    fn expect_kw(&mut self, kw: Keyword, what: &str) -> Result<()> {
        self.expect(&Token::Keyword(kw), what)
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        Ok(self.ident_spanned(what)?.0)
    }

    fn ident_spanned(&mut self, what: &str) -> Result<(String, Span)> {
        let span = self.span_here();
        match self.bump() {
            Some(Token::Ident(s)) => Ok((s.to_owned(), span)),
            _ => Err(CrowdError::parse(
                span.line,
                span.col,
                format!("expected {what}"),
            )),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        let stmt = if self.eat_kw(Keyword::Explain) {
            Statement::Explain(self.select()?)
        } else if self.eat_kw(Keyword::Create) {
            self.create()?
        } else if self.eat_kw(Keyword::Insert) {
            self.insert()?
        } else if matches!(self.peek(), Some(Token::Keyword(Keyword::Select))) {
            Statement::Select(self.select()?)
        } else {
            return Err(self.err("expected CREATE, INSERT, SELECT, or EXPLAIN"));
        };
        self.eat(&Token::Semi);
        if self.peek().is_some() {
            return Err(self.err("trailing tokens after statement"));
        }
        Ok(stmt)
    }

    fn create(&mut self) -> Result<Statement> {
        let crowd = self.eat_kw(Keyword::Crowd);
        self.expect_kw(Keyword::Table, "TABLE")?;
        let name = self.ident("table name")?;
        self.expect(&Token::LParen, "'('")?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident("column name")?;
            let col_crowd = self.eat_kw(Keyword::Crowd);
            let is_int = if self.eat_kw(Keyword::Int) {
                true
            } else if self.eat_kw(Keyword::Text) {
                false
            } else {
                return Err(self.err("expected column type (INT or TEXT)"));
            };
            columns.push(ColumnDecl {
                name: col_name,
                is_int,
                crowd: col_crowd || crowd,
            });
            match self.bump() {
                Some(Token::Comma) => continue,
                Some(Token::RParen) => break,
                _ => return Err(self.err("expected ',' or ')' in column list")),
            }
        }
        if columns.is_empty() {
            return Err(self.err("table needs at least one column"));
        }
        Ok(Statement::CreateTable {
            name,
            columns,
            crowd,
        })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Into, "INTO")?;
        let table = self.ident("table name")?;
        self.expect_kw(Keyword::Values, "VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen, "'('")?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                match self.bump() {
                    Some(Token::Comma) => continue,
                    Some(Token::RParen) => break,
                    _ => return Err(self.err("expected ',' or ')' in VALUES row")),
                }
            }
            rows.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw(Keyword::Select, "SELECT")?;
        let mut count = false;
        let projection = if self.eat_kw(Keyword::Count) {
            self.expect(&Token::LParen, "'('")?;
            self.expect(&Token::Star, "'*'")?;
            self.expect(&Token::RParen, "')'")?;
            count = true;
            Vec::new()
        } else if self.eat(&Token::Star) {
            Vec::new()
        } else {
            let mut cols = vec![self.column_ref()?];
            while self.eat(&Token::Comma) {
                cols.push(self.column_ref()?);
            }
            cols
        };
        self.expect_kw(Keyword::From, "FROM")?;
        let (first_table, first_span) = self.ident_spanned("table name")?;
        let mut from = vec![first_table];
        let mut from_spans = vec![first_span];
        if self.eat(&Token::Comma) {
            let (second_table, second_span) = self.ident_spanned("table name")?;
            from.push(second_table);
            from_spans.push(second_span);
        }

        let mut predicates = Vec::new();
        if self.eat_kw(Keyword::Where) {
            predicates.push(self.predicate()?);
            while self.eat_kw(Keyword::And) {
                predicates.push(self.predicate()?);
            }
        }

        let mut order_by = None;
        if self.eat_kw(Keyword::Order) {
            self.expect_kw(Keyword::By, "BY")?;
            if self.eat_kw(Keyword::Crowdorder) {
                self.expect(&Token::LParen, "'('")?;
                let column = self.column_ref()?;
                self.expect(&Token::RParen, "')'")?;
                order_by = Some(OrderBy::Crowd { column });
            } else {
                let column = self.column_ref()?;
                let asc = if self.eat_kw(Keyword::Desc) {
                    false
                } else {
                    self.eat_kw(Keyword::Asc);
                    true
                };
                order_by = Some(OrderBy::Machine { column, asc });
            }
        }

        let mut limit = None;
        if self.eat_kw(Keyword::Limit) {
            let span = self.span_here();
            match self.bump() {
                Some(Token::Int(n)) if n >= 0 => limit = Some(n as usize),
                _ => {
                    return Err(CrowdError::parse(
                        span.line,
                        span.col,
                        "expected non-negative integer after LIMIT",
                    ))
                }
            }
        }

        if count && (order_by.is_some() || limit.is_some()) {
            return Err(self.err("COUNT(*) cannot be combined with ORDER BY or LIMIT"));
        }
        Ok(Select {
            projection,
            count,
            from,
            from_spans,
            predicates,
            order_by,
            limit,
        })
    }

    fn predicate(&mut self) -> Result<Predicate> {
        if self.eat_kw(Keyword::Crowdequal) {
            self.expect(&Token::LParen, "'('")?;
            let left = self.expr()?;
            self.expect(&Token::Comma, "','")?;
            let right = self.expr()?;
            self.expect(&Token::RParen, "')'")?;
            return Ok(Predicate::CrowdEqual { left, right });
        }
        let left = self.expr()?;
        let op_span = self.span_here();
        let op = match self.bump() {
            Some(Token::Eq) => CompareOp::Eq,
            Some(Token::Ne) => CompareOp::Ne,
            Some(Token::Lt) => CompareOp::Lt,
            Some(Token::Le) => CompareOp::Le,
            Some(Token::Gt) => CompareOp::Gt,
            Some(Token::Ge) => CompareOp::Ge,
            _ => {
                return Err(CrowdError::parse(
                    op_span.line,
                    op_span.col,
                    "expected comparison operator",
                ))
            }
        };
        let right = self.expr()?;
        Ok(Predicate::Compare { left, op, right })
    }

    fn expr(&mut self) -> Result<Expr> {
        match self.peek() {
            Some(Token::Ident(_)) => Ok(Expr::Column(self.column_ref()?)),
            _ => Ok(Expr::Literal(self.literal()?)),
        }
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let (first, span) = self.ident_spanned("column name")?;
        if self.eat(&Token::Dot) {
            let col = self.ident("column name after '.'")?;
            Ok(ColumnRef::qualified(first, col).with_span(span))
        } else {
            Ok(ColumnRef::bare(first).with_span(span))
        }
    }

    fn literal(&mut self) -> Result<Value> {
        let span = self.span_here();
        match self.bump() {
            Some(Token::Int(i)) => Ok(Value::Int(i)),
            Some(Token::Str(s)) => Ok(Value::Text(s.into_owned())),
            Some(Token::Keyword(Keyword::Null)) => Ok(Value::Null),
            _ => Err(CrowdError::parse(
                span.line,
                span.col,
                "expected a literal (integer, string, or NULL)",
            )),
        }
    }
}

/// Parses a single CrowdSQL statement.
pub fn parse_statement(src: &str) -> Result<Statement> {
    let toks = lex_spanned(src)?;
    let mut p = Parser { toks, pos: 0 };
    p.statement()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_with_crowd_column() {
        let s = parse_statement("CREATE TABLE products (id INT, name TEXT, category CROWD TEXT)")
            .unwrap();
        match s {
            Statement::CreateTable {
                name,
                columns,
                crowd,
            } => {
                assert_eq!(name, "products");
                assert!(!crowd);
                assert_eq!(columns.len(), 3);
                assert!(!columns[0].crowd && columns[0].is_int);
                assert!(columns[2].crowd && !columns[2].is_int);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn crowd_table_marks_all_columns() {
        let s = parse_statement("CREATE CROWD TABLE profs (name TEXT, email TEXT)").unwrap();
        match s {
            Statement::CreateTable { columns, crowd, .. } => {
                assert!(crowd);
                assert!(columns.iter().all(|c| c.crowd));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_multi_row_insert_with_null() {
        let s = parse_statement("INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', 'x')").unwrap();
        match s {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][2], Value::Null);
                assert_eq!(rows[1][1], Value::text("b"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_full_select() {
        let s = parse_statement(
            "SELECT t.name, score FROM t WHERE score >= 4 AND name != 'x' \
             ORDER BY score DESC LIMIT 10",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.projection.len(), 2);
                assert_eq!(sel.from, vec!["t"]);
                assert_eq!(sel.predicates.len(), 2);
                assert_eq!(sel.limit, Some(10));
                assert!(matches!(
                    sel.order_by,
                    Some(OrderBy::Machine { asc: false, .. })
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_crowd_constructs() {
        let s = parse_statement(
            "SELECT * FROM a, b WHERE CROWDEQUAL(a.name, b.name) \
             ORDER BY CROWDORDER(a.photo) LIMIT 3",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert!(sel.projection.is_empty());
                assert_eq!(sel.from.len(), 2);
                assert!(matches!(sel.predicates[0], Predicate::CrowdEqual { .. }));
                assert!(matches!(sel.order_by, Some(OrderBy::Crowd { .. })));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_explain() {
        let s = parse_statement("EXPLAIN SELECT * FROM t").unwrap();
        assert!(matches!(s, Statement::Explain(_)));
    }

    #[test]
    fn rejects_malformed_statements() {
        for bad in [
            "SELECT FROM t",
            "SELECT * FROM",
            "CREATE TABLE t ()",
            "INSERT INTO t VALUES 1, 2",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t LIMIT 'x'",
            "DROP TABLE t",
            "SELECT * FROM t; SELECT * FROM u",
        ] {
            assert!(parse_statement(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn three_way_join_rejected_for_now() {
        // The dialect supports at most two tables in FROM.
        assert!(parse_statement("SELECT * FROM a, b, c").is_err());
    }

    #[test]
    fn parse_errors_carry_source_positions() {
        // "WHERE" at the end of line 1 with nothing after it: the error
        // points one past the last token.
        let err = parse_statement("SELECT * FROM t WHERE").unwrap_err();
        match err {
            CrowdError::Parse { line, column, .. } => {
                assert_eq!(line, 1);
                assert_eq!(column, 18, "just past the last token");
            }
            other => panic!("unexpected {other:?}"),
        }
        // A bad token on line 2 reports line 2 and its real column.
        let err = parse_statement("SELECT * FROM t\nLIMIT 'x'").unwrap_err();
        match err {
            CrowdError::Parse { line, column, .. } => {
                assert_eq!(line, 2);
                assert_eq!(column, 7, "the string literal after LIMIT");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn column_refs_carry_spans() {
        let s = parse_statement("SELECT name FROM t WHERE t.score >= 4").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.projection[0].span, Span::at(1, 8));
                match &sel.predicates[0] {
                    Predicate::Compare { left, .. } => {
                        assert_eq!(left.span(), Some(Span::at(1, 26)));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
