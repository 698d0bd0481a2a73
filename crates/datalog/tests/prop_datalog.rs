//! Property-based tests for the crowd-Datalog layer: parser and engine
//! totality on random and mutated programs, AST pretty-print → reparse
//! round-trips, and semantic invariants of evaluation.

use crowdkit_datalog::ast::{Atom, Clause, CmpOp, Const, Literal, Program, Rule, Term};
use crowdkit_datalog::{parse_program, Engine, EngineConfig, NullResolver, TableResolver};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// AST generators
// ---------------------------------------------------------------------------

fn const_strategy() -> impl Strategy<Value = Const> {
    prop_oneof![
        (-1000i64..1000).prop_map(Const::Int),
        // Non-ASCII letters too: strings are UTF-8 slices of the source.
        "[a-zà-öø-ÿα-ω][a-zà-öø-ÿα-ω0-9 _]{0,8}".prop_map(Const::Str),
        // Strings that exercise escaping.
        Just(Const::Str("say \"hi\"".into())),
        Just(Const::Str("back\\slash".into())),
    ]
}

fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        "[A-Z][a-z0-9]{0,4}".prop_map(Term::Var),
        const_strategy().prop_map(Term::Const),
        Just(Term::Wildcard),
    ]
}

fn atom_strategy() -> impl Strategy<Value = Atom> {
    (
        "[a-mo-z][a-z0-9_]{0,6}", // avoid the keyword "not"
        prop::collection::vec(term_strategy(), 1..4),
    )
        .prop_map(|(name, args)| Atom::new(name, args))
}

fn ground_atom_strategy() -> impl Strategy<Value = Atom> {
    (
        "[a-mo-z][a-z0-9_]{0,6}",
        prop::collection::vec(const_strategy().prop_map(Term::Const), 1..4),
    )
        .prop_map(|(name, args)| Atom::new(name, args))
}

fn literal_strategy() -> impl Strategy<Value = Literal> {
    prop_oneof![
        atom_strategy().prop_map(Literal::Pos),
        atom_strategy().prop_map(Literal::Neg),
        (term_strategy(), term_strategy()).prop_map(|(l, r)| { Literal::Cmp(l, CmpOp::Ne, r) }),
    ]
}

fn clause_strategy() -> impl Strategy<Value = Clause> {
    prop_oneof![
        // Ground fact.
        ground_atom_strategy().prop_map(|head| Clause::Rule(Rule {
            head,
            body: vec![],
            aggregates: vec![]
        })),
        // Rule with a body.
        (
            atom_strategy(),
            prop::collection::vec(literal_strategy(), 1..4)
        )
            .prop_map(|(head, body)| Clause::Rule(Rule {
                head,
                body,
                aggregates: vec![]
            })),
        // Crowd declaration.
        ("[a-mo-z][a-z0-9_]{0,6}", 1usize..4)
            .prop_map(|(predicate, arity)| Clause::CrowdDecl { predicate, arity }),
    ]
}

// ---------------------------------------------------------------------------
// Token-level mutants of real programs
// ---------------------------------------------------------------------------

/// Programs this crate's tests already run: the seeds of the mutants.
const SEEDS: &[&str] = &[
    r#"parent("alice", "bob"). parent("bob", "carol").
       ancestor(X, Y) :- parent(X, Y).
       ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
       @crowd city_of/2."#,
    r#"adult(X) :- person(X, Age), Age >= 18.
       childless(X) :- person(X, _), not parent(X, _).
       different(X, Y) :- p(X), p(Y), X != Y."#,
    r#"restaurant("joes"). restaurant("moes").
       @crowd city_of/2.
       in_tokyo(R) :- restaurant(R), city_of(R, C), C = "tokyo"."#,
    r#"start("n0").
       @crowd next/2.
       reach(X) :- start(X).
       reach(Y) :- reach(X), next(X, Y)."#,
    r#"r("a"). r("b").
       @crowd v/2.
       out1(X, V) :- r(X), v(X, V).
       out2(X, V) :- r(X), v(X, V), V != "none"."#,
    r#"r("a").
       @crowd v/2.
       v("a", "known").
       out(X, V) :- r(X), v(X, V)."#,
    r#"person("ada"). person("bob").
       @crowd hometown/2.
       located(P, C) :- person(P), hometown(P, C).
       in_paris(P) :- located(P, C), C = "paris".
       not_in_paris(P) :- person(P), not in_paris(P)."#,
    r#"score("t1", 10). score("t1", 30). score("t2", 5).
       stats(T, sum<S>, min<S>, max<S>) :- score(T, S)."#,
    r#"edge("a", "b"). edge("a", "c"). edge("b", "c").
       degree(X, count<Y>) :- edge(X, Y).
       hub(X) :- degree(X, D), D >= 2."#,
    r#"item("x"). item("y").
       @crowd rating/2.
       rated(I, R) :- item(I), rating(I, R).
       n_rated(count<I>) :- rated(I, _)."#,
];

/// Tokens a mutant may insert besides the seeds' own: unbalanced quotes,
/// parentheses and angle brackets, a comment marker, and out-of-range
/// numbers.
const EXTRA_TOKENS: &[&str] = &[
    "\"",
    "(",
    ")",
    "<",
    ">",
    "%",
    "@crowd",
    "/",
    "0",
    "-1",
    "99999999999999999999",
];

/// Splits `src` into token texts: quoted strings, word runs, runs of
/// operator characters, and single other characters.
fn tokens(src: &str) -> Vec<&str> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let start = i;
        i += 1;
        if c.is_ascii_whitespace() {
            continue;
        }
        let run = |i: &mut usize, pred: fn(u8) -> bool| {
            while *i < bytes.len() && pred(bytes[*i]) {
                *i += 1;
            }
        };
        if c == b'"' {
            run(&mut i, |b| b != b'"');
            i = (i + 1).min(bytes.len());
        } else if c.is_ascii_alphanumeric() || c == b'_' || c == b'@' {
            run(&mut i, |b| b.is_ascii_alphanumeric() || b == b'_');
        } else if b":-<>=!".contains(&c) {
            run(&mut i, |b| b":-<>=!".contains(&b));
        }
        out.push(&src[start..i]);
    }
    out
}

/// A seed program after `edits` token-level mutations, each
/// `(op, position, token)`: delete, insert, replace or truncate.
fn mutate(seed: &str, edits: &[(u8, usize, usize)]) -> String {
    let vocab: Vec<&str> = SEEDS
        .iter()
        .flat_map(|s| tokens(s))
        .chain(EXTRA_TOKENS.iter().copied())
        .collect();
    let mut toks = tokens(seed);
    for &(op, pos, tok) in edits {
        let at = pos % (toks.len() + 1);
        let word = vocab[tok % vocab.len()];
        match op {
            0 if at < toks.len() => {
                toks.remove(at);
            }
            1 => toks.insert(at, word),
            2 if at < toks.len() => toks[at] = word,
            3 => toks.truncate(at),
            _ => {}
        }
    }
    toks.join(" ")
}

fn program_mutant() -> impl Strategy<Value = String> {
    (
        0..SEEDS.len(),
        prop::collection::vec((0u8..4, 0usize..128, 0usize..1024), 1..4),
    )
        .prop_map(|(seed, edits)| mutate(SEEDS[seed], &edits))
}

/// Crowd tuples for the seeds' `@crowd` predicates.
fn resolver() -> TableResolver {
    let s = |v: &str| Const::Str(v.into());
    let mut r = TableResolver::new();
    r.insert("city_of", vec![s("joes"), s("tokyo")]);
    r.insert("next", vec![s("n0"), s("n1")]);
    r.insert("v", vec![s("a"), s("crowdval")]);
    r.insert("hometown", vec![s("ada"), s("paris")]);
    r.insert("rating", vec![s("x"), Const::Int(4)]);
    r
}

#[test]
fn mutation_keeps_seeds_and_edits_tokens() {
    let seed = r#"p(X, "a b") :- q(X), X != 1."#;
    assert_eq!(
        tokens(seed),
        ["p", "(", "X", ",", "\"a b\"", ")", ":-", "q", "(", "X", ")", ",", "X", "!=", "1", "."]
    );
    assert_eq!(
        parse_program(&mutate(seed, &[])).unwrap(),
        parse_program(seed).unwrap()
    );
    assert_eq!(mutate("p(1).", &[(0, 1, 0)]), "p 1 ) .");
    assert_eq!(mutate("p(1).", &[(3, 2, 0)]), "p (");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The parser and engine never panic (errors are Results), on arbitrary
    /// input or on token-level mutants of real programs, which get past
    /// the first few tokens. Programs that parse are validated by
    /// `Engine::new`, and those that validate run against a table resolver.
    #[test]
    fn parser_total_on_arbitrary_input(src in ".{0,200}", mutant in program_mutant()) {
        for text in [&src, &mutant] {
            let Ok(program) = parse_program(text) else { continue };
            let Ok(engine) = Engine::new(program) else { continue };
            let engine = engine.with_config(EngineConfig {
                max_fetches: 16,
                max_iterations: 64,
                semi_naive: true,
            });
            let _ = engine.run(&mut resolver());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The pretty-printer's output always reparses to the same AST.
    /// (Programs need not be *valid* — safety is the engine's concern, not
    /// the parser's.)
    #[test]
    fn pretty_print_reparses(clauses in prop::collection::vec(clause_strategy(), 0..8)) {
        let program = Program { clauses };
        let printed = program.to_string();
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse:\n{printed}\nerror: {e}"));
        prop_assert_eq!(program, reparsed);
    }

    /// Adding facts to a negation-free program never removes derived
    /// tuples (monotonicity of positive Datalog).
    #[test]
    fn positive_programs_are_monotone(
        edges in prop::collection::vec((0u8..6, 0u8..6), 1..12),
        extra in (0u8..6, 0u8..6),
    ) {
        let base_src = {
            let mut s = String::new();
            for (a, b) in &edges {
                s.push_str(&format!("edge({a}, {b}).\n"));
            }
            s.push_str("path(X, Y) :- edge(X, Y).\n");
            s.push_str("path(X, Z) :- edge(X, Y), path(Y, Z).\n");
            s
        };
        let bigger_src = format!("{base_src}edge({}, {}).\n", extra.0, extra.1);

        let run = |src: &str| {
            let engine = Engine::new(parse_program(src).unwrap()).unwrap();
            let (db, _) = engine.run(&mut NullResolver).unwrap();
            db.relation("path")
        };
        let small = run(&base_src);
        let big = run(&bigger_src);
        for tuple in &small {
            prop_assert!(
                big.contains(tuple),
                "tuple {tuple:?} lost after adding a fact"
            );
        }
    }

    /// Evaluation is deterministic: same program → same database.
    #[test]
    fn evaluation_is_deterministic(
        edges in prop::collection::vec((0u8..5, 0u8..5), 1..10)
    ) {
        let mut src = String::new();
        for (a, b) in &edges {
            src.push_str(&format!("e({a}, {b}).\n"));
        }
        src.push_str("r(X, Y) :- e(X, Y).\nr(X, Z) :- e(X, Y), r(Y, Z).\n");
        src.push_str("loner(X) :- e(X, _), not r(X, X).\n");
        let run = || {
            let engine = Engine::new(parse_program(&src).unwrap()).unwrap();
            let (db, _) = engine.run(&mut NullResolver).unwrap();
            (db.relation("r"), db.relation("loner"))
        };
        prop_assert_eq!(run(), run());
    }


    /// Transitive closure contains exactly the reachable pairs (checked
    /// against a BFS reference).
    #[test]
    fn closure_matches_bfs_reference(
        edges in prop::collection::vec((0u8..5, 0u8..5), 0..12)
    ) {
        let mut src = String::new();
        for (a, b) in &edges {
            src.push_str(&format!("edge({a}, {b}).\n"));
        }
        src.push_str("path(X, Y) :- edge(X, Y).\n");
        src.push_str("path(X, Z) :- edge(X, Y), path(Y, Z).\n");
        let engine = Engine::new(parse_program(&src).unwrap()).unwrap();
        let (db, _) = engine.run(&mut NullResolver).unwrap();

        // BFS reference.
        let mut reach = std::collections::HashSet::new();
        for start in 0u8..5 {
            let mut frontier = vec![start];
            let mut seen = std::collections::HashSet::new();
            while let Some(cur) = frontier.pop() {
                for &(a, b) in &edges {
                    if a == cur && seen.insert(b) {
                        reach.insert((start, b));
                        frontier.push(b);
                    }
                }
            }
        }
        let derived: std::collections::HashSet<(u8, u8)> = db
            .relation("path")
            .into_iter()
            .map(|row| match (&row[0], &row[1]) {
                (Const::Int(a), Const::Int(b)) => (*a as u8, *b as u8),
                _ => unreachable!(),
            })
            .collect();
        prop_assert_eq!(derived, reach);
    }

    /// Semi-naive and naive evaluation compute identical databases.
    #[test]
    fn semi_naive_matches_naive(
        edges in prop::collection::vec((0u8..6, 0u8..6), 0..14)
    ) {
        let mut src = String::new();
        for (a, b) in &edges {
            src.push_str(&format!("e({a}, {b}).\n"));
        }
        src.push_str("r(X, Y) :- e(X, Y).\nr(X, Z) :- e(X, Y), r(Y, Z).\n");
        src.push_str("self_loop(X) :- r(X, X).\n");
        src.push_str("acyclic(X) :- e(X, _), not self_loop(X).\n");
        let program = parse_program(&src).unwrap();
        let run = |semi_naive: bool| {
            let engine = Engine::new(program.clone()).unwrap().with_config(EngineConfig {
                semi_naive,
                ..EngineConfig::default()
            });
            let (db, _) = engine.run(&mut NullResolver).unwrap();
            (db.relation("r"), db.relation("self_loop"), db.relation("acyclic"))
        };
        prop_assert_eq!(run(true), run(false));
    }
}
