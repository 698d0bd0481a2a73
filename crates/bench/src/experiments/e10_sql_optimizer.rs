// crowdkit-lint: allow-file(PANIC001) — experiment harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
//! E10 — CrowdSQL optimizer: predicted vs actual cost, naive vs optimized.
//!
//! Emulates the CrowdDB ('11) plan-cost comparisons, now as a real
//! optimizer ablation: each query runs twice — once on the canonical
//! (naive) plan and once through the rewriter + cost model — against a
//! perfectly accurate simulated crowd, so the two plans must return
//! byte-identical result sets. For both variants the table reports the
//! cost model's *predicted* spend and round-trips next to the metered
//! *actuals*, which is the honest test of a cost-based optimizer: it has
//! to win in reality, not just in its own estimates.

use crowdkit_obs as obs;
use crowdkit_sim::population::PopulationBuilder;
use crowdkit_sim::SimulatedCrowd;
use crowdkit_sql::exec::SimTaskFactory;
use crowdkit_sql::{QueryOpts, QueryStats, Session, Value};

use crate::table::Table;

const SEED: u64 = 101;
const VOTES: u32 = 3;
/// Crowd questions per simulated round-trip for the optimized plans.
const BATCH: usize = 8;

fn products_session(n: i64) -> Session {
    let s = Session::new();
    s.execute_ddl("CREATE TABLE products (id INT, name TEXT, category CROWD TEXT)")
        .unwrap();
    for i in 0..n {
        s.execute_ddl(&format!("INSERT INTO products VALUES ({i}, 'p{i}', NULL)"))
            .unwrap();
    }
    s.execute_ddl("CREATE TABLE brands (bname TEXT)").unwrap();
    for b in ["p1", "p4", "p9", "zzz"] {
        s.execute_ddl(&format!("INSERT INTO brands VALUES ('{b}')"))
            .unwrap();
    }
    s
}

fn factory() -> impl crowdkit_sql::TaskFactory {
    SimTaskFactory {
        fill_truth: |_: &str, row: &[Value], _: &str| match row[0] {
            Value::Int(i) if i % 4 == 0 => "phone".to_owned(),
            _ => "other".to_owned(),
        },
        equal_truth: |l: &Value, r: &Value| l.display_raw().eq_ignore_ascii_case(&r.display_raw()),
        left_wins_truth: |l: &Value, r: &Value| l.display_raw() > r.display_raw(),
    }
}

/// Runs `sql` on a fresh session against a fresh, perfectly accurate
/// crowd, so naive and optimized runs are comparable and must agree.
fn run_query(sql: &str, opts: &QueryOpts) -> (Vec<Vec<Value>>, QueryStats) {
    let s = products_session(20);
    let pop = PopulationBuilder::new().reliable(80, 1.0, 1.0).build(SEED);
    let crowd = SimulatedCrowd::new(pop, SEED);
    let mut f = factory();
    s.query_crowd(sql, &crowd, &mut f, opts)
        .expect("query succeeds")
}

const QUERIES: &[(&str, &str)] = &[
    (
        "Q1 selective fill",
        "SELECT category FROM products WHERE id >= 16",
    ),
    (
        "Q2 crowd join",
        "SELECT products.name FROM products, brands \
         WHERE CROWDEQUAL(products.name, brands.bname) AND products.id < 5",
    ),
    (
        "Q3 crowd top-2",
        "SELECT name FROM products ORDER BY CROWDORDER(name) LIMIT 2",
    ),
];

fn naive_opts() -> QueryOpts {
    QueryOpts::naive().votes(VOTES)
}

fn optimized_opts() -> QueryOpts {
    QueryOpts::new().votes(VOTES).batch(BATCH)
}

/// Runs E10.
pub fn run() -> Vec<Table> {
    let mut spend = Table::new(
        "E10a: CrowdSQL spend, predicted vs actual (20 rows, 3 votes)",
        &[
            "query",
            "naive pred",
            "naive actual",
            "opt pred",
            "opt actual",
            "saving",
        ],
    );
    let mut rounds = Table::new(
        "E10b: CrowdSQL round-trips (latency proxy), predicted vs actual",
        &[
            "query",
            "naive pred",
            "naive actual",
            "opt pred",
            "opt actual",
        ],
    );
    for (name, sql) in QUERIES {
        let (naive_rows, naive) = run_query(sql, &naive_opts());
        let (opt_rows, opt) = run_query(sql, &optimized_opts());
        assert_eq!(
            naive_rows, opt_rows,
            "{name}: optimization must not change results"
        );
        assert!(
            opt.spend < naive.spend,
            "{name}: optimized actual spend ({}) must beat naive ({})",
            opt.spend,
            naive.spend
        );
        if naive.questions > 0 {
            obs::quality(
                "question_saving",
                (naive.questions - opt.questions) as f64 / naive.questions as f64,
            );
        }
        obs::quality("spend_pred_naive", naive.predicted_spend);
        obs::quality("spend_actual_naive", naive.spend);
        obs::quality("spend_pred_opt", opt.predicted_spend);
        obs::quality("spend_actual_opt", opt.spend);
        obs::quality("rounds_pred_naive", naive.predicted_rounds);
        obs::quality("rounds_actual_naive", naive.rounds as f64);
        obs::quality("rounds_pred_opt", opt.predicted_rounds);
        obs::quality("rounds_actual_opt", opt.rounds as f64);
        let saving = format!("{:.0}%", 100.0 * (naive.spend - opt.spend) / naive.spend);
        spend.row(vec![
            name.to_string(),
            format!("{:.0}", naive.predicted_spend),
            format!("{:.0}", naive.spend),
            format!("{:.0}", opt.predicted_spend),
            format!("{:.0}", opt.spend),
            saving,
        ]);
        rounds.row(vec![
            name.to_string(),
            format!("{:.0}", naive.predicted_rounds),
            naive.rounds.to_string(),
            format!("{:.0}", opt.predicted_rounds),
            opt.rounds.to_string(),
        ]);
    }
    vec![spend, rounds]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_shape_optimizer_strictly_cheaper_and_result_preserving() {
        for (name, sql) in QUERIES {
            let (naive_rows, naive) = run_query(sql, &naive_opts());
            let (opt_rows, opt) = run_query(sql, &optimized_opts());
            assert_eq!(naive_rows, opt_rows, "{name}: results must match");
            assert!(
                opt.spend < naive.spend,
                "{name}: optimized spend ({}) must beat naive ({})",
                opt.spend,
                naive.spend
            );
            assert!(
                opt.questions < naive.questions,
                "{name}: optimized ({}) must beat naive ({})",
                opt.questions,
                naive.questions
            );
        }
    }

    #[test]
    fn e10_shape_predictions_bound_reality_for_perfect_crowds() {
        // With a perfectly accurate crowd and unit prices, the cost
        // model's spend prediction is exact for fill-only plans and an
        // upper bound when verdict caching kicks in.
        for (name, sql) in QUERIES {
            for opts in [naive_opts(), optimized_opts()] {
                let (_, stats) = run_query(sql, &opts);
                assert!(
                    stats.spend <= stats.predicted_spend + 1e-9,
                    "{name}: actual spend {} exceeds predicted {}",
                    stats.spend,
                    stats.predicted_spend
                );
            }
        }
    }

    #[test]
    fn e10_shape_selective_fill_saving_tracks_selectivity() {
        // 4 of 20 rows survive `id >= 16` → ~80 % saving on fills.
        let (_, naive) = run_query(QUERIES[0].1, &naive_opts());
        let (_, opt) = run_query(QUERIES[0].1, &optimized_opts());
        assert!(
            opt.questions * 4 <= naive.questions,
            "Q1: optimized ({}) should be ≤ naive/4 ({})",
            opt.questions,
            naive.questions
        );
    }

    #[test]
    fn e10_shape_batching_cuts_round_trips() {
        // The optimized plan batches 8 questions per round-trip; the
        // naive plan asks cell by cell.
        let (_, naive) = run_query(QUERIES[0].1, &naive_opts());
        let (_, opt) = run_query(QUERIES[0].1, &optimized_opts());
        assert!(
            opt.rounds < naive.rounds,
            "Q1: optimized rounds ({}) should beat naive ({})",
            opt.rounds,
            naive.rounds
        );
    }
}
