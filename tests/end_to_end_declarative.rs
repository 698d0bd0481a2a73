//! Integration: the declarative layers (CrowdSQL + crowd-Datalog) running
//! against the simulated platform.

use crowdkit::core::answer::AnswerValue;
use crowdkit::core::task::{Task, TaskKind};
use crowdkit::datalog::{parse_program, Const, Engine, OracleResolver};
use crowdkit::sim::population::PopulationBuilder;
use crowdkit::sim::SimulatedCrowd;
use crowdkit::sql::exec::SimTaskFactory;
use crowdkit::sql::{QueryOpts, Session, Value};

fn products_session(n: i64) -> Session {
    let s = Session::new();
    s.execute_ddl("CREATE TABLE products (id INT, name TEXT, category CROWD TEXT)")
        .unwrap();
    for i in 0..n {
        s.execute_ddl(&format!("INSERT INTO products VALUES ({i}, 'p{i}', NULL)"))
            .unwrap();
    }
    s
}

fn factory() -> impl crowdkit::sql::TaskFactory {
    SimTaskFactory {
        fill_truth: |_: &str, row: &[Value], _: &str| match row[0] {
            Value::Int(i) if i % 3 == 0 => "phone".to_owned(),
            _ => "other".to_owned(),
        },
        equal_truth: |l: &Value, r: &Value| l.display_raw().eq_ignore_ascii_case(&r.display_raw()),
        left_wins_truth: |l: &Value, r: &Value| l.display_raw() > r.display_raw(),
    }
}

#[test]
fn crowdsql_query_with_noisy_crowd_still_answers_correctly() {
    let s = products_session(9);
    let pop = PopulationBuilder::new().reliable(60, 0.85, 0.95).build(31);
    let crowd = SimulatedCrowd::new(pop, 31);
    let mut f = factory();
    let (rows, stats) = s
        .query_crowd(
            "SELECT name FROM products WHERE category = 'phone'",
            &crowd,
            &mut f,
            &QueryOpts::new().votes(5),
        )
        .unwrap();
    let names: Vec<String> = rows.iter().map(|r| r[0].display_raw()).collect();
    assert_eq!(
        names,
        vec!["p0", "p3", "p6"],
        "ids divisible by 3 are phones"
    );
    assert!(stats.questions > 0);
}

#[test]
fn crowdsql_optimizer_saves_questions_on_selective_queries() {
    let sql = "SELECT category FROM products WHERE id >= 8";
    let run = |optimized: bool| -> u64 {
        let s = products_session(10);
        let pop = PopulationBuilder::new().reliable(60, 0.95, 1.0).build(7);
        let crowd = SimulatedCrowd::new(pop, 7);
        let mut f = factory();
        let opts = QueryOpts::new().votes(3).optimize(optimized);
        let (_, stats) = s.query_crowd(sql, &crowd, &mut f, &opts).unwrap();
        stats.questions
    };
    let opt = run(true);
    let naive = run(false);
    assert!(
        opt * 3 <= naive,
        "optimized ({opt}) should be ≤ a third of naive ({naive}) at 20% selectivity"
    );
}

#[test]
fn crowdsql_crowdorder_limit_returns_the_best_row() {
    let s = Session::new();
    s.execute_ddl("CREATE TABLE t (name TEXT)").unwrap();
    for n in ["delta", "alpha", "omega", "kappa", "sigma"] {
        s.execute_ddl(&format!("INSERT INTO t VALUES ('{n}')"))
            .unwrap();
    }
    let pop = PopulationBuilder::new().reliable(60, 0.95, 1.0).build(3);
    let crowd = SimulatedCrowd::new(pop, 3);
    let mut f = factory();
    let (rows, _) = s
        .query_crowd(
            "SELECT name FROM t ORDER BY CROWDORDER(name) LIMIT 1",
            &crowd,
            &mut f,
            &QueryOpts::new().votes(3),
        )
        .unwrap();
    assert_eq!(rows, vec![vec![Value::text("sigma")]], "lexicographic max");
}

#[test]
fn datalog_program_with_simulated_crowd_and_negation() {
    let program = parse_program(
        r#"
        person("ada"). person("bob"). person("cyd").
        @crowd hometown/2.
        located(P, C) :- person(P), hometown(P, C).
        in_paris(P) :- located(P, C), C = "paris".
        not_in_paris(P) :- person(P), not in_paris(P).
    "#,
    )
    .unwrap();
    let engine = Engine::new(program).unwrap();

    let pop = PopulationBuilder::new().reliable(40, 0.9, 0.99).build(5);
    let crowd = SimulatedCrowd::new(pop, 5);
    let mut resolver = OracleResolver::new(&crowd, 5, |id, _pred, bound, _free| {
        let who = bound[0].1.display_raw();
        let truth = if who == "ada" || who == "cyd" {
            "paris"
        } else {
            "berlin"
        };
        Task::new(id, TaskKind::OpenText, format!("hometown of {who}?"))
            .with_truth(AnswerValue::Text(truth.into()))
    });
    let (db, stats) = engine.run(&mut resolver).unwrap();

    let in_paris = db.relation("in_paris");
    assert_eq!(
        in_paris,
        vec![
            vec![Const::Str("ada".into())],
            vec![Const::Str("cyd".into())]
        ]
    );
    let not_in_paris = db.relation("not_in_paris");
    assert_eq!(not_in_paris, vec![vec![Const::Str("bob".into())]]);
    assert_eq!(stats.fetches, 3, "one fetch per person");
    assert_eq!(stats.questions_asked, 15, "5 votes per fetch");
}

#[test]
fn datalog_and_sql_agree_on_the_same_crowd_facts() {
    // The same ground truth served through both declarative layers must
    // produce the same answer set.
    let truth_category = |i: i64| if i % 2 == 0 { "phone" } else { "other" };

    // SQL side.
    let s = Session::new();
    s.execute_ddl("CREATE TABLE items (id INT, category CROWD TEXT)")
        .unwrap();
    for i in 0..6 {
        s.execute_ddl(&format!("INSERT INTO items VALUES ({i}, NULL)"))
            .unwrap();
    }
    let pop = PopulationBuilder::new().reliable(40, 0.95, 1.0).build(1);
    let crowd = SimulatedCrowd::new(pop, 1);
    let mut f = SimTaskFactory {
        fill_truth: move |_: &str, row: &[Value], _: &str| match row[0] {
            Value::Int(i) => truth_category(i).to_owned(),
            _ => unreachable!(),
        },
        equal_truth: |_: &Value, _: &Value| false,
        left_wins_truth: |_: &Value, _: &Value| false,
    };
    let (rows, _) = s
        .query_crowd(
            "SELECT id FROM items WHERE category = 'phone'",
            &crowd,
            &mut f,
            &QueryOpts::new().votes(3),
        )
        .unwrap();
    let sql_ids: Vec<i64> = rows
        .iter()
        .map(|r| match r[0] {
            Value::Int(i) => i,
            _ => unreachable!(),
        })
        .collect();

    // Datalog side.
    let program = parse_program(
        r#"
        item(0). item(1). item(2). item(3). item(4). item(5).
        @crowd category/2.
        phone(I) :- item(I), category(I, C), C = "phone".
    "#,
    )
    .unwrap();
    let engine = Engine::new(program).unwrap();
    let pop = PopulationBuilder::new().reliable(40, 0.95, 1.0).build(2);
    let crowd2 = SimulatedCrowd::new(pop, 2);
    let mut resolver = OracleResolver::new(&crowd2, 3, move |id, _pred, bound, _free| {
        let i = match bound[0].1 {
            Const::Int(i) => i,
            _ => unreachable!(),
        };
        Task::new(id, TaskKind::OpenText, format!("category of {i}?"))
            .with_truth(AnswerValue::Text(truth_category(i).into()))
    });
    let (db, _) = engine.run(&mut resolver).unwrap();
    let datalog_ids: Vec<i64> = db
        .relation("phone")
        .into_iter()
        .map(|row| match row[0] {
            Const::Int(i) => i,
            _ => unreachable!(),
        })
        .collect();

    let mut sql_sorted = sql_ids;
    sql_sorted.sort_unstable();
    assert_eq!(sql_sorted, datalog_ids);
    assert_eq!(sql_sorted, vec![0, 2, 4]);
}
