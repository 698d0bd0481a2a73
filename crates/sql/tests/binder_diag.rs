//! Binder diagnostics: name and type errors surface as `CrowdError::Bind`
//! with the line/column of the offending token — never as a panic.

use crowdkit_core::error::CrowdError;
use crowdkit_sql::Session;

fn session() -> Session {
    let s = Session::new();
    s.execute_ddl("CREATE TABLE products (id INT, name TEXT, category CROWD TEXT)")
        .unwrap();
    s.execute_ddl("CREATE TABLE brands (bid INT, name TEXT)")
        .unwrap();
    s.execute_ddl("INSERT INTO products VALUES (1, 'p', NULL)")
        .unwrap();
    s
}

/// Runs EXPLAIN and returns the Bind diagnostic it must produce.
fn bind_err(s: &Session, sql: &str) -> (usize, usize, String) {
    match s.explain(sql, true) {
        Err(CrowdError::Bind {
            line,
            column,
            message,
        }) => (line, column, message),
        other => panic!("expected a Bind error for {sql:?}, got {other:?}"),
    }
}

#[test]
fn unknown_column_reports_its_position() {
    let s = session();
    let (line, column, message) = bind_err(&s, "SELECT nme FROM products");
    assert_eq!((line, column), (1, 8));
    assert!(message.contains("unknown column `nme`"), "{message}");
}

#[test]
fn unknown_table_reports_its_position() {
    let s = session();
    let (line, column, message) = bind_err(&s, "SELECT id FROM producs");
    assert_eq!((line, column), (1, 16));
    assert!(message.contains("producs"), "{message}");
}

#[test]
fn unknown_qualified_column_names_the_table() {
    let s = session();
    let (_, _, message) = bind_err(&s, "SELECT products.nope FROM products");
    assert!(
        message.contains("table `products` has no column `nope`"),
        "{message}"
    );
}

#[test]
fn qualifier_not_in_from_clause_is_reported() {
    let s = session();
    let (_, _, message) = bind_err(&s, "SELECT brands.name FROM products");
    assert!(
        message.contains("table `brands` is not in the FROM clause"),
        "{message}"
    );
}

#[test]
fn ambiguous_column_asks_for_qualification() {
    let s = session();
    let (line, column, message) = bind_err(&s, "SELECT name FROM products, brands");
    assert_eq!((line, column), (1, 8));
    assert!(message.contains("ambiguous column `name`"), "{message}");
    assert!(message.contains("qualify"), "{message}");
}

#[test]
fn type_mismatch_reports_both_types() {
    let s = session();
    let (_, _, message) = bind_err(&s, "SELECT id FROM products WHERE id = 'x'");
    assert!(message.contains("type mismatch"), "{message}");
    assert!(
        message.contains("INT") && message.contains("TEXT"),
        "{message}"
    );
}

#[test]
fn errors_on_later_lines_carry_the_right_line_number() {
    let s = session();
    let (line, _, message) = bind_err(&s, "SELECT id\nFROM products\nWHERE nope = 1");
    assert_eq!(line, 3);
    assert!(message.contains("nope"), "{message}");
}

#[test]
fn bind_errors_never_panic_across_statement_shapes() {
    let s = session();
    // A sweep of malformed-but-parseable queries: every one must return
    // an error (Bind or otherwise), never panic.
    for sql in [
        "SELECT missing FROM products",
        "SELECT id FROM missing",
        "SELECT products.missing FROM products",
        "SELECT brands.bid FROM products",
        "SELECT name FROM products, brands",
        "SELECT id FROM products WHERE name = 3",
        "SELECT id FROM products WHERE id = name",
        "SELECT id FROM products ORDER BY missing",
        "SELECT id FROM products WHERE CROWDEQUAL(id, missing)",
        "SELECT COUNT(*) FROM products WHERE missing = 1",
    ] {
        assert!(s.explain(sql, true).is_err(), "{sql} should fail to bind");
        assert!(s.explain(sql, false).is_err());
        assert!(s.query_machine(sql).is_err());
    }
}
