//! Structural analysis over the token stream: brace matching, test-scope
//! marking, and function spans.
//!
//! The rules need three pieces of structure a flat token stream does not
//! give them: which `}` closes which `{`, which tokens live inside
//! `#[cfg(test)]` items or `mod tests` blocks (so shipped-code rules can
//! skip them), and where function bodies begin and end (DET001 reasons
//! about co-occurrence *within one function*).

use crate::lexer::{Lexed, Tok, Token};

/// Token-level structure for one file.
pub struct Analysis {
    /// `brace_match[i] = Some(j)` when token `i` is a `{` closed by token
    /// `j` (and symmetrically for the `}`).
    pub brace_match: Vec<Option<usize>>,
    /// True for tokens inside `#[cfg(test)]`/`#[test]` items or
    /// `mod tests { … }` blocks.
    pub is_test: Vec<bool>,
    /// Every `fn` item with a body, in source order.
    pub fns: Vec<FnSpan>,
}

/// One function item: its body's token range and source lines.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Token index of the `fn` keyword.
    pub kw: usize,
    /// Token index of the body's `{`.
    pub body_open: usize,
    /// Token index of the body's `}`.
    pub body_close: usize,
    /// Line of the `fn` keyword.
    pub start_line: u32,
    /// True when the whole item is test-scoped.
    pub is_test: bool,
}

fn ident_is(tok: &Token, s: &str) -> bool {
    matches!(&tok.tok, Tok::Ident(w) if w == s)
}

fn punct_is(tok: &Token, c: char) -> bool {
    matches!(&tok.tok, Tok::Punct(p) if *p == c)
}

/// Builds the brace-match table with a simple stack. Unbalanced files
/// leave unmatched entries as `None`.
fn match_braces(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut out = vec![None; tokens.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if punct_is(t, '{') {
            stack.push(i);
        } else if punct_is(t, '}') {
            if let Some(open) = stack.pop() {
                out[open] = Some(i);
                out[i] = Some(open);
            }
        }
    }
    out
}

/// Marks tokens covered by `#[cfg(test)]` / `#[test]` items and
/// `mod tests { … }` blocks.
fn mark_tests(tokens: &[Token], brace_match: &[Option<usize>]) -> Vec<bool> {
    let mut is_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        // `#[...]` attribute: scan its bracket contents.
        if punct_is(&tokens[i], '#') && i + 1 < tokens.len() && punct_is(&tokens[i + 1], '[') {
            let attr_start = i;
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut body: Vec<&Tok> = Vec::new();
            while j < tokens.len() {
                if punct_is(&tokens[j], '[') {
                    depth += 1;
                } else if punct_is(&tokens[j], ']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else {
                    body.push(&tokens[j].tok);
                }
                j += 1;
            }
            let test_attr = match body.first() {
                Some(Tok::Ident(w)) if w == "test" => true,
                Some(Tok::Ident(w)) if w == "cfg" => body
                    .iter()
                    .any(|t| matches!(t, Tok::Ident(w) if w == "test")),
                _ => false,
            };
            if test_attr {
                // The attribute governs the next item: everything up to
                // the end of the next top-level brace block, or up to a
                // `;` if none opens first.
                let mut k = j + 1;
                let mut end = tokens.len().saturating_sub(1);
                while k < tokens.len() {
                    if punct_is(&tokens[k], '{') {
                        end = brace_match[k].unwrap_or(end);
                        break;
                    }
                    if punct_is(&tokens[k], ';') {
                        end = k;
                        break;
                    }
                    k += 1;
                }
                for flag in is_test
                    .iter_mut()
                    .take(end.min(tokens.len() - 1) + 1)
                    .skip(attr_start)
                {
                    *flag = true;
                }
                i = j + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        // `mod tests { … }` with no attribute (the conventional form is
        // attributed, but belt and braces).
        if ident_is(&tokens[i], "mod")
            && i + 2 < tokens.len()
            && ident_is(&tokens[i + 1], "tests")
            && punct_is(&tokens[i + 2], '{')
        {
            if let Some(close) = brace_match[i + 2] {
                for flag in is_test.iter_mut().take(close + 1).skip(i) {
                    *flag = true;
                }
            }
            i += 3;
            continue;
        }
        i += 1;
    }
    is_test
}

/// Finds every `fn` with a body: from the keyword, the first `{` at
/// paren-depth zero opens the body (a `;` first means a bodyless trait
/// method declaration).
fn find_fns(tokens: &[Token], brace_match: &[Option<usize>], is_test: &[bool]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !ident_is(t, "fn") {
            continue;
        }
        let mut paren = 0i32;
        let mut j = i + 1;
        while j < tokens.len() {
            match &tokens[j].tok {
                Tok::Punct('(') => paren += 1,
                Tok::Punct(')') => paren -= 1,
                Tok::Punct(';') if paren == 0 => break,
                Tok::Punct('{') if paren == 0 => {
                    if let Some(close) = brace_match[j] {
                        fns.push(FnSpan {
                            kw: i,
                            body_open: j,
                            body_close: close,
                            start_line: t.line,
                            is_test: is_test[i],
                        });
                    }
                    break;
                }
                _ => {}
            }
            j += 1;
        }
    }
    fns
}

/// Runs the full structural pass.
pub fn analyze(lexed: &Lexed) -> Analysis {
    let brace_match = match_braces(&lexed.tokens);
    let is_test = mark_tests(&lexed.tokens, &brace_match);
    let fns = find_fns(&lexed.tokens, &brace_match, &is_test);
    Analysis {
        brace_match,
        is_test,
        fns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_scopes_the_next_item() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn live2() {}";
        let lx = lex(src);
        let a = analyze(&lx);
        let unwrap_idx = lx
            .tokens
            .iter()
            .position(|t| matches!(&t.tok, Tok::Ident(w) if w == "unwrap"))
            .expect("unwrap token present");
        assert!(a.is_test[unwrap_idx]);
        let live2 = lx
            .tokens
            .iter()
            .position(|t| matches!(&t.tok, Tok::Ident(w) if w == "live2"))
            .expect("live2 token present");
        assert!(!a.is_test[live2]);
    }

    #[test]
    fn cfg_test_use_statement_does_not_swallow_the_file() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}";
        let lx = lex(src);
        let a = analyze(&lx);
        let live = lx
            .tokens
            .iter()
            .position(|t| matches!(&t.tok, Tok::Ident(w) if w == "live"))
            .expect("live token present");
        assert!(!a.is_test[live]);
    }

    #[test]
    fn fn_spans_cover_bodies_not_signatures_with_semicolons() {
        let src = "trait T { fn decl(&self); }\nfn real() -> u32 { 7 }";
        let a = analyze(&lex(src));
        assert_eq!(a.fns.len(), 1);
        assert_eq!(a.fns[0].start_line, 2);
    }

    #[test]
    fn test_attribute_marks_single_fn() {
        let src = "#[test]\nfn check() { assert!(true); }\nfn live() {}";
        let lx = lex(src);
        let a = analyze(&lx);
        assert!(a.fns[0].is_test);
        assert!(!a.fns[1].is_test);
    }
}
