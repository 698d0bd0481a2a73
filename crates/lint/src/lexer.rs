//! A minimal Rust lexer: just enough structure for rule matching.
//!
//! The scanner does not parse Rust; it tokenizes it. Strings (cooked, raw,
//! byte), char literals, lifetimes, and comments (line and nested block)
//! are recognized so that rule patterns never match inside them, and
//! comments are kept on the side because suppressions and `// SAFETY:`
//! justifications live there. Everything else becomes a flat token stream
//! of identifiers, numeric literals, and single punctuation characters
//! with line numbers.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Numeric literal (kept verbatim; `contains('.')` detects floats).
    Num(String),
    /// A single punctuation character. Multi-character operators appear
    /// as adjacent tokens (`+=` is `Punct('+')` then `Punct('=')`).
    Punct(char),
}

/// A token plus its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// A comment, kept separate from the token stream.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment body (without the `//` / `/*` markers).
    pub text: String,
    /// True when code precedes the comment on the same line.
    pub trailing: bool,
}

/// Lexer output: the token stream and the comment list.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-trivia tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes `source`. Unterminated constructs are tolerated (the rest of
/// the file is consumed as the open construct) — a linter must never
/// panic on weird input.
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut last_tok_line: u32 = 0;

    macro_rules! bump_lines {
        ($c:expr) => {
            if $c == '\n' {
                line += 1;
            }
        };
    }

    while i < chars.len() {
        let c = chars[i];
        // Whitespace.
        if c.is_whitespace() {
            bump_lines!(c);
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < chars.len() {
            if chars[i + 1] == '/' {
                let start_line = line;
                let mut text = String::new();
                i += 2;
                while i < chars.len() && chars[i] != '\n' {
                    text.push(chars[i]);
                    i += 1;
                }
                out.comments.push(Comment {
                    line: start_line,
                    text,
                    trailing: last_tok_line == start_line,
                });
                continue;
            }
            if chars[i + 1] == '*' {
                let start_line = line;
                let mut text = String::new();
                let mut depth = 1usize;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                        text.push_str("/*");
                        continue;
                    }
                    if chars[i] == '*' && i + 1 < chars.len() && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                        if depth > 0 {
                            text.push_str("*/");
                        }
                        continue;
                    }
                    bump_lines!(chars[i]);
                    text.push(chars[i]);
                    i += 1;
                }
                out.comments.push(Comment {
                    line: start_line,
                    text,
                    trailing: last_tok_line == start_line,
                });
                continue;
            }
        }
        // Cooked string literal.
        if c == '"' {
            i += 1;
            while i < chars.len() {
                match chars[i] {
                    '\\' => i += 2,
                    '"' => {
                        i += 1;
                        break;
                    }
                    ch => {
                        bump_lines!(ch);
                        i += 1;
                    }
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let next = chars.get(i + 1).copied();
            let after = chars.get(i + 2).copied();
            let is_char_lit = match next {
                Some('\\') => true,
                Some(n) if n != '\'' => after == Some('\''),
                _ => false,
            };
            if is_char_lit {
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => i += 2,
                        '\'' => {
                            i += 1;
                            break;
                        }
                        ch => {
                            bump_lines!(ch);
                            i += 1;
                        }
                    }
                }
            } else {
                // Lifetime: consume the quote and the label; emit nothing
                // (`&'a HashMap` then lexes as `& HashMap`, which is what
                // the type patterns want).
                i += 1;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    i += 1;
                }
            }
            continue;
        }
        // Identifier — with raw/byte string lookahead.
        if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_continue(chars[i]) {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            let next = chars.get(i).copied();
            // Raw identifier: `r#fn`, `r#type` — a `#` immediately followed
            // by an identifier start. Must be discriminated from raw
            // strings (`r#"…"#`) before the raw-string lookahead, or the
            // escaped keyword would re-lex as the bare keyword and confuse
            // the structural pass (`let r#fn = 1` is not a function item).
            if word == "r"
                && next == Some('#')
                && chars.get(i + 1).copied().is_some_and(is_ident_start)
            {
                i += 1; // the `#`
                let id_start = i;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    i += 1;
                }
                let ident: String = chars[id_start..i].iter().collect();
                out.tokens.push(Token {
                    tok: Tok::Ident(format!("r#{ident}")),
                    line,
                });
                last_tok_line = line;
                continue;
            }
            let raw_string = (word == "r" || word == "br") && matches!(next, Some('"') | Some('#'));
            let byte_string = word == "b" && matches!(next, Some('"') | Some('\''));
            if raw_string {
                // r"..." / r#"..."# / br##"..."## — count the hashes,
                // then scan for `"` followed by that many hashes.
                let mut hashes = 0usize;
                while chars.get(i) == Some(&'#') {
                    hashes += 1;
                    i += 1;
                }
                if chars.get(i) == Some(&'"') {
                    i += 1;
                    'raw: while i < chars.len() {
                        if chars[i] == '"' {
                            let mut k = 0usize;
                            while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == hashes {
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        bump_lines!(chars[i]);
                        i += 1;
                    }
                }
                continue;
            }
            if byte_string {
                let quote = match next {
                    Some(q) => q,
                    None => continue,
                };
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => i += 2,
                        ch if ch == quote => {
                            i += 1;
                            break;
                        }
                        ch => {
                            bump_lines!(ch);
                            i += 1;
                        }
                    }
                }
                continue;
            }
            out.tokens.push(Token {
                tok: Tok::Ident(word),
                line,
            });
            last_tok_line = line;
            continue;
        }
        // Numeric literal.
        if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() && (is_ident_continue(chars[i])) {
                i += 1;
            }
            // Fractional part: a dot followed by a digit (not `..`).
            if chars.get(i) == Some(&'.') && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                i += 1;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    i += 1;
                }
            }
            // Exponent sign: `1e-5`.
            if matches!(chars.get(i), Some('+') | Some('-'))
                && chars[start..i]
                    .last()
                    .is_some_and(|l| *l == 'e' || *l == 'E')
            {
                i += 1;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
            }
            out.tokens.push(Token {
                tok: Tok::Num(chars[start..i].iter().collect()),
                line,
            });
            last_tok_line = line;
            continue;
        }
        // Everything else: single punctuation char.
        out.tokens.push(Token {
            tok: Tok::Punct(c),
            line,
        });
        last_tok_line = line;
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_not_tokens() {
        let src = r##"
            let x = "unwrap() inside a string";
            // unwrap() inside a comment
            /* block /* nested */ unwrap() */
            let r = r#"raw unwrap()"#;
            let b = b"bytes unwrap()";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_owned()));
        assert_eq!(lex(src).comments.len(), 2);
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(m: &'a str) { let c = '\\''; let d = 'x'; }";
        let ids = idents(src);
        assert_eq!(ids, vec!["fn", "f", "m", "str", "let", "c", "let", "d"]);
        // Lifetime label leaks as no token; `&'a str` keeps the `&`.
        let toks = lex("&'a HashMap").tokens;
        assert_eq!(toks[0].tok, Tok::Punct('&'));
        assert_eq!(toks[1].tok, Tok::Ident("HashMap".into()));
    }

    #[test]
    fn float_literals_keep_their_dot() {
        let toks = lex("let x = 0.5 + 1e-3; for i in 0..10 {}").tokens;
        let nums: Vec<String> = toks
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Num(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["0.5", "1e-3", "0", "10"]);
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings_or_keywords() {
        // `r#fn` / `r#type` are identifiers, not raw-string openers; the
        // old lexer dropped the `r#` and re-lexed the bare keyword, which
        // made the structural pass see a phantom `fn` item.
        let ids = idents("let r#fn = 1; let r#type = r#fn + 1;");
        assert_eq!(ids, vec!["let", "r#fn", "let", "r#type", "r#fn"]);
        assert!(!ids.contains(&"fn".to_owned()));
        // Raw strings still lex as trivia, including just after a raw ident.
        let src = "let r#match = r#\"fn unwrap()\"#;";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "r#match"]);
        // And a raw ident used as a call keeps its `(` adjacency.
        let toks = lex("r#match(x)").tokens;
        assert_eq!(toks[0].tok, Tok::Ident("r#match".into()));
        assert_eq!(toks[1].tok, Tok::Punct('('));
    }

    #[test]
    fn trailing_comment_flag() {
        let lx = lex("let x = 1; // trailing\n// standalone\n");
        assert!(lx.comments[0].trailing);
        assert!(!lx.comments[1].trailing);
    }

    #[test]
    fn line_numbers_advance_through_all_trivia() {
        let lx = lex("a\n\"x\ny\"\n/* c\nc */\nb");
        assert_eq!(lx.tokens[0].line, 1);
        assert_eq!(lx.tokens[1].line, 6);
    }
}
