//! SQL lexer.
//!
//! Case-insensitive keywords, `'single quoted'` UTF-8 strings with `''`
//! escape, integers with an optional `-` sign, identifiers (optionally
//! qualified as `table.column` — the dot is its own token), and the
//! operator set of the CrowdSQL dialect. `--` begins a line comment.
//!
//! Identifiers and string literals are slices of the source; only a
//! string with a doubled quote is copied to unescape it.
//!
//! Every token carries its 1-based source position ([`SpannedToken`]) so
//! the parser and binder can produce diagnostics that point at the
//! offending text; columns count characters. [`lex`] strips the spans for
//! callers that only need the token stream.

use std::borrow::Cow;

use crowdkit_core::error::{CrowdError, Result};

/// A lexed token, borrowing the source text `'a`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// Keyword (matched in any letter case).
    Keyword(Keyword),
    /// Identifier (original case preserved; matching is case-sensitive for
    /// data, case-insensitive for keywords).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// String literal (unescaped).
    Str(Cow<'a, str>),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `;`
    Semi,
}

/// A token together with the 1-based line/column where it starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedToken<'a> {
    /// The token itself.
    pub tok: Token<'a>,
    /// 1-based line of the token's first character.
    pub line: usize,
    /// 1-based column of the token's first character.
    pub col: usize,
}

/// Recognized keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Keyword {
    Select,
    From,
    Where,
    And,
    Order,
    By,
    Asc,
    Desc,
    Limit,
    Create,
    Table,
    Crowd,
    Insert,
    Into,
    Values,
    Int,
    Text,
    Null,
    Crowdequal,
    Crowdorder,
    Explain,
    Count,
}

impl Keyword {
    /// The keyword `word` spells, in any letter case.
    fn from_word(word: &str) -> Option<Self> {
        // The longest keyword, CROWDEQUAL, has ten letters.
        let mut buf = [0u8; 10];
        let upper = buf.get_mut(..word.len())?;
        upper.copy_from_slice(word.as_bytes());
        upper.make_ascii_uppercase();
        Some(match &*upper {
            b"SELECT" => Keyword::Select,
            b"FROM" => Keyword::From,
            b"WHERE" => Keyword::Where,
            b"AND" => Keyword::And,
            b"ORDER" => Keyword::Order,
            b"BY" => Keyword::By,
            b"ASC" => Keyword::Asc,
            b"DESC" => Keyword::Desc,
            b"LIMIT" => Keyword::Limit,
            b"CREATE" => Keyword::Create,
            b"TABLE" => Keyword::Table,
            b"CROWD" => Keyword::Crowd,
            b"INSERT" => Keyword::Insert,
            b"INTO" => Keyword::Into,
            b"VALUES" => Keyword::Values,
            b"INT" | b"INTEGER" => Keyword::Int,
            b"TEXT" | b"VARCHAR" | b"STRING" => Keyword::Text,
            b"NULL" => Keyword::Null,
            b"CROWDEQUAL" => Keyword::Crowdequal,
            b"CROWDORDER" => Keyword::Crowdorder,
            b"EXPLAIN" => Keyword::Explain,
            b"COUNT" => Keyword::Count,
            _ => return None,
        })
    }
}

/// Tokenizes SQL text, keeping each token's source position.
pub fn lex_spanned(src: &str) -> Result<Vec<SpannedToken<'_>>> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let mut line = 1usize;
    let mut col = 1usize;
    let mut out: Vec<SpannedToken<'_>> = Vec::new();

    macro_rules! bump {
        () => {{
            let c = bytes[pos];
            pos += 1;
            if c == b'\n' {
                line += 1;
                col = 1;
            } else if c & 0xC0 != 0x80 {
                // A UTF-8 continuation byte does not start a character.
                col += 1;
            }
            c
        }};
    }

    while pos < bytes.len() {
        let c = bytes[pos];
        // Position of the token that starts here (whitespace/comment arms
        // never push, so recording unconditionally is harmless).
        let (tline, tcol) = (line, col);
        macro_rules! push {
            ($tok:expr) => {
                out.push(SpannedToken {
                    tok: $tok,
                    line: tline,
                    col: tcol,
                })
            };
        }
        match c {
            c if c.is_ascii_whitespace() => {
                bump!();
            }
            b'-' if bytes.get(pos + 1) == Some(&b'-') => {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    bump!();
                }
            }
            b'(' => {
                bump!();
                push!(Token::LParen);
            }
            b')' => {
                bump!();
                push!(Token::RParen);
            }
            b',' => {
                bump!();
                push!(Token::Comma);
            }
            b'.' => {
                bump!();
                push!(Token::Dot);
            }
            b'*' => {
                bump!();
                push!(Token::Star);
            }
            b';' => {
                bump!();
                push!(Token::Semi);
            }
            b'=' => {
                bump!();
                push!(Token::Eq);
            }
            b'!' => {
                bump!();
                if pos < bytes.len() && bytes[pos] == b'=' {
                    bump!();
                    push!(Token::Ne);
                } else {
                    return Err(CrowdError::parse(line, col, "expected '!='"));
                }
            }
            b'<' => {
                bump!();
                match bytes.get(pos) {
                    Some(b'=') => {
                        bump!();
                        push!(Token::Le);
                    }
                    Some(b'>') => {
                        bump!();
                        push!(Token::Ne);
                    }
                    _ => push!(Token::Lt),
                }
            }
            b'>' => {
                bump!();
                if bytes.get(pos) == Some(&b'=') {
                    bump!();
                    push!(Token::Ge);
                } else {
                    push!(Token::Gt);
                }
            }
            b'\'' => {
                bump!();
                let start = pos;
                let mut escaped = false;
                loop {
                    match bytes.get(pos) {
                        None => {
                            return Err(CrowdError::parse(line, col, "unterminated string literal"))
                        }
                        Some(b'\'') if bytes.get(pos + 1) == Some(&b'\'') => {
                            bump!();
                            bump!();
                            escaped = true;
                        }
                        Some(b'\'') => break,
                        Some(_) => {
                            bump!();
                        }
                    }
                }
                let raw = &src[start..pos];
                bump!(); // the closing quote
                push!(Token::Str(if escaped {
                    Cow::Owned(raw.replace("''", "'"))
                } else {
                    Cow::Borrowed(raw)
                }));
            }
            c if c.is_ascii_digit()
                || (c == b'-' && bytes.get(pos + 1).is_some_and(u8::is_ascii_digit)) =>
            {
                let start = pos;
                bump!(); // a digit or the sign
                while pos < bytes.len() && bytes[pos].is_ascii_digit() {
                    bump!();
                }
                let s = &src[start..pos];
                let v: i64 = s
                    .parse()
                    .map_err(|_| CrowdError::parse(line, col, format!("integer overflow: {s}")))?;
                push!(Token::Int(v));
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    bump!();
                }
                let word = &src[start..pos];
                push!(Keyword::from_word(word).map_or(Token::Ident(word), Token::Keyword));
            }
            _ => {
                // Every arm above stops on a character boundary.
                let ch = src[pos..]
                    .chars()
                    .next()
                    .unwrap_or(char::REPLACEMENT_CHARACTER);
                return Err(CrowdError::parse(
                    line,
                    col,
                    format!("unexpected character '{ch}'"),
                ));
            }
        }
    }
    Ok(out)
}

/// Tokenizes SQL text, discarding source positions.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>> {
    Ok(lex_spanned(src)?.into_iter().map(|s| s.tok).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_a_select() {
        let toks = lex("SELECT name FROM t WHERE id >= 3;").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword(Keyword::Select),
                Token::Ident("name"),
                Token::Keyword(Keyword::From),
                Token::Ident("t"),
                Token::Keyword(Keyword::Where),
                Token::Ident("id"),
                Token::Ge,
                Token::Int(3),
                Token::Semi,
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let toks = lex("select Select SELECT").unwrap();
        assert!(toks.iter().all(|t| *t == Token::Keyword(Keyword::Select)));
    }

    #[test]
    fn strings_unescape_doubled_quotes() {
        let toks = lex("'it''s fine' 'héllo wörld'").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Str("it's fine".into()),
                Token::Str("héllo wörld".into())
            ]
        );
        // Only the escaped literal is copied.
        assert!(matches!(&toks[0], Token::Str(Cow::Owned(_))));
        assert!(matches!(&toks[1], Token::Str(Cow::Borrowed(_))));
    }

    #[test]
    fn a_sign_directly_before_digits_is_part_of_the_integer() {
        assert_eq!(
            lex("a < -1, -9223372036854775808").unwrap(),
            vec![
                Token::Ident("a"),
                Token::Lt,
                Token::Int(-1),
                Token::Comma,
                Token::Int(i64::MIN),
            ]
        );
        assert!(lex("- 1").is_err(), "a lone '-' is no token");
        assert!(lex("-9223372036854775809").is_err());
    }

    #[test]
    fn ne_has_two_spellings() {
        assert_eq!(lex("<>").unwrap(), vec![Token::Ne]);
        assert_eq!(lex("!=").unwrap(), vec![Token::Ne]);
    }

    #[test]
    fn comments_skipped() {
        let toks = lex("SELECT -- the projection\n1").unwrap();
        assert_eq!(toks, vec![Token::Keyword(Keyword::Select), Token::Int(1)]);
    }

    #[test]
    fn qualified_names_tokenize_with_dot() {
        let toks = lex("a.b").unwrap();
        assert_eq!(toks, vec![Token::Ident("a"), Token::Dot, Token::Ident("b")]);
    }

    #[test]
    fn crowd_keywords() {
        let toks = lex("CROWDEQUAL CROWDORDER CROWD").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword(Keyword::Crowdequal),
                Token::Keyword(Keyword::Crowdorder),
                Token::Keyword(Keyword::Crowd),
            ]
        );
    }

    #[test]
    fn spans_point_at_token_starts() {
        let toks = lex_spanned("SELECT name\n  FROM t").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1), "SELECT");
        assert_eq!((toks[1].line, toks[1].col), (1, 8), "name");
        assert_eq!((toks[2].line, toks[2].col), (2, 3), "FROM");
        assert_eq!((toks[3].line, toks[3].col), (2, 8), "t");
        // Columns count characters, not bytes.
        let toks = lex_spanned("'né' x").unwrap();
        assert_eq!(toks[1].col, 6, "x");
    }

    #[test]
    fn errors_on_bad_chars_and_unterminated_strings() {
        assert!(lex("#").is_err());
        assert!(lex("'open").is_err());
        assert!(lex("!x").is_err());
        match lex("a ç").unwrap_err() {
            CrowdError::Parse {
                line,
                column,
                message,
            } => {
                assert_eq!((line, column), (1, 3));
                assert_eq!(message, "unexpected character 'ç'");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
