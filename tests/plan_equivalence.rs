//! Optimizer soundness: for every fixture query, the optimized and the
//! naive plan return byte-identical result sets — at any platform thread
//! count and batch size — and the cost model never predicts the optimized
//! plan to spend more than the canonical one. Batch 0 executes exactly as
//! batch 1 does.

use crowdkit::sim::population::PopulationBuilder;
use crowdkit::sim::{PlatformBuilder, SimulatedCrowd};
use crowdkit::sql::exec::SimTaskFactory;
use crowdkit::sql::{QueryOpts, QueryStats, Session, Value};

const SEED: u64 = 73;

/// Every CrowdSQL shape: machine-only, selective fill, crowd filter,
/// crowd join, full crowd sort, top-k, COUNT(*), hash join.
const FIXTURE_QUERIES: &[&str] = &[
    "SELECT name FROM products WHERE id >= 3 ORDER BY id DESC",
    "SELECT category FROM products WHERE id >= 6",
    "SELECT name FROM products WHERE category = 'phone'",
    "SELECT name FROM products WHERE category = 'phone' AND id >= 4",
    "SELECT products.name, brands.bname FROM products, brands \
     WHERE CROWDEQUAL(products.name, brands.bname)",
    "SELECT name FROM products ORDER BY CROWDORDER(name)",
    "SELECT name FROM products ORDER BY CROWDORDER(name) LIMIT 2",
    "SELECT COUNT(*) FROM products WHERE category = 'phone'",
    "SELECT COUNT(*) FROM products WHERE id >= 2",
    "SELECT oid, bname FROM orders, brands WHERE cust = bname ORDER BY oid ASC",
];

fn session() -> Session {
    let s = Session::new();
    s.execute_ddl("CREATE TABLE products (id INT, name TEXT, category CROWD TEXT)")
        .unwrap();
    for i in 0..8 {
        s.execute_ddl(&format!("INSERT INTO products VALUES ({i}, 'p{i}', NULL)"))
            .unwrap();
    }
    s.execute_ddl("CREATE TABLE brands (bname TEXT)").unwrap();
    for b in ["p1", "p4", "zzz"] {
        s.execute_ddl(&format!("INSERT INTO brands VALUES ('{b}')"))
            .unwrap();
    }
    s.execute_ddl("CREATE TABLE orders (oid INT, cust TEXT)")
        .unwrap();
    s.execute_ddl("INSERT INTO orders VALUES (1, 'p1'), (2, 'zzz'), (3, NULL)")
        .unwrap();
    s
}

fn factory() -> impl crowdkit::sql::TaskFactory {
    SimTaskFactory {
        fill_truth: |_: &str, row: &[Value], _: &str| match row[0] {
            Value::Int(i) if i % 2 == 0 => "phone".to_owned(),
            _ => "other".to_owned(),
        },
        equal_truth: |l: &Value, r: &Value| l.display_raw().eq_ignore_ascii_case(&r.display_raw()),
        left_wins_truth: |l: &Value, r: &Value| l.display_raw() > r.display_raw(),
    }
}

fn crowd(threads: usize) -> SimulatedCrowd {
    // Perfect accuracy, so answers (and therefore result sets) are a
    // pure function of the query plan's question sequence.
    let pop = PopulationBuilder::new().reliable(60, 1.0, 1.0).build(SEED);
    PlatformBuilder::new(pop)
        .seed(SEED)
        .threads(threads)
        .build()
}

fn run(sql: &str, opts: &QueryOpts, threads: usize) -> (Vec<Vec<Value>>, QueryStats) {
    let s = session();
    let oracle = crowd(threads);
    let mut f = factory();
    s.query_crowd(sql, &oracle, &mut f, opts)
        .unwrap_or_else(|e| panic!("{sql} failed: {e}"))
}

#[test]
fn optimized_and_naive_plans_agree_on_every_fixture_query() {
    for sql in FIXTURE_QUERIES {
        let (naive_rows, naive) = run(sql, &QueryOpts::naive().votes(3), 1);
        for threads in [1, 4] {
            let mut actual = Vec::new();
            for batch in [0, 1, 4] {
                let opts = QueryOpts::new().votes(3).batch(batch);
                let (opt_rows, opt) = run(sql, &opts, threads);
                assert_eq!(
                    naive_rows, opt_rows,
                    "{sql} (threads={threads}, batch={batch}): result sets must be byte-identical"
                );
                assert!(
                    opt.predicted_spend <= naive.predicted_spend + 1e-9,
                    "{sql}: predicted optimized spend {} exceeds naive {}",
                    opt.predicted_spend,
                    naive.predicted_spend
                );
                actual.push((opt_rows, opt.questions, opt.rounds, opt.spend));
            }
            // Batch 0 is batch 1: one request per platform round-trip.
            assert_eq!(
                actual[0], actual[1],
                "{sql} (threads={threads}): batch 0 and batch 1 must execute identically"
            );
        }
    }
}

#[test]
fn results_are_identical_across_thread_counts() {
    for sql in FIXTURE_QUERIES {
        let (rows_1, stats_1) = run(sql, &QueryOpts::new().votes(3), 1);
        let (rows_4, stats_4) = run(sql, &QueryOpts::new().votes(3), 4);
        assert_eq!(rows_1, rows_4, "{sql}: thread count changed the result");
        assert_eq!(
            stats_1.questions, stats_4.questions,
            "{sql}: thread count changed the question count"
        );
    }
}

#[test]
fn explain_prediction_matches_query_prediction() {
    // The spend EXPLAIN promises is the spend query_crowd reports as its
    // prediction (same catalog, same opts).
    let sql = "SELECT category FROM products WHERE id >= 6";
    let s = session();
    let report = s.explain(sql, true).unwrap();
    let oracle = crowd(1);
    let mut f = factory();
    let (_, stats) = s
        .query_crowd(sql, &oracle, &mut f, &QueryOpts::new())
        .unwrap();
    assert!(
        (report.predicted.spend - stats.predicted_spend).abs() < 1e-9,
        "explain predicted {}, query predicted {}",
        report.predicted.spend,
        stats.predicted_spend
    );
}
