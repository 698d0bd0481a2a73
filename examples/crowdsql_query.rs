//! CrowdSQL walkthrough: CROWD columns, CROWDEQUAL joins, CROWDORDER with
//! LIMIT, and the naive-vs-optimized plan cost gap.
//!
//! ```sh
//! cargo run --example crowdsql_query
//! ```

use crowdkit::sim::population::PopulationBuilder;
use crowdkit::sim::SimulatedCrowd;
use crowdkit::sql::exec::SimTaskFactory;
use crowdkit::sql::{QueryOpts, Session, Value};

fn main() {
    let seed = 5;
    let session = Session::new();
    session
        .execute_ddl("CREATE TABLE products (id INT, name TEXT, category CROWD TEXT)")
        .unwrap();
    for i in 0..12 {
        session
            .execute_ddl(&format!(
                "INSERT INTO products VALUES ({i}, 'product{i}', NULL)"
            ))
            .unwrap();
    }

    let sql = "SELECT name FROM products WHERE category = 'phone' AND id >= 6";

    println!("query:\n  {sql}\n");
    let naive_plan = session.explain(sql, false).unwrap();
    let opt_plan = session.explain(sql, true).unwrap();
    println!("naive plan:\n{}", indent(&naive_plan.to_string()));
    println!(
        "optimized plan (rewrites: {}):\n{}",
        opt_plan.rewrites.join(", "),
        indent(&opt_plan.to_string())
    );
    println!(
        "predicted spend: naive {:.0}, optimized {:.0}\n",
        naive_plan.predicted.spend, opt_plan.predicted.spend
    );

    // Ground truth for the simulation: even ids are phones.
    let mut factory = SimTaskFactory {
        fill_truth: |_: &str, row: &[Value], _: &str| match row[0] {
            Value::Int(i) if i % 2 == 0 => "phone".to_owned(),
            _ => "laptop".to_owned(),
        },
        equal_truth: |l: &Value, r: &Value| l.display_raw().eq_ignore_ascii_case(&r.display_raw()),
        left_wins_truth: |l: &Value, r: &Value| l.display_raw() > r.display_raw(),
    };

    for (label, optimized) in [("naive", false), ("optimized", true)] {
        // Fresh session per run so write-back caching doesn't mask costs.
        let s = Session::new();
        s.execute_ddl("CREATE TABLE products (id INT, name TEXT, category CROWD TEXT)")
            .unwrap();
        for i in 0..12 {
            s.execute_ddl(&format!(
                "INSERT INTO products VALUES ({i}, 'product{i}', NULL)"
            ))
            .unwrap();
        }
        let pop = PopulationBuilder::new().reliable(40, 0.9, 0.99).build(seed);
        let crowd = SimulatedCrowd::new(pop, seed);
        let opts = QueryOpts::new().votes(3).optimize(optimized);
        let (rows, stats) = s.query_crowd(sql, &crowd, &mut factory, &opts).unwrap();
        println!(
            "{label:>9}: {} rows, {} crowd questions ({} cells filled, {:.0} spent over {} rounds)",
            rows.len(),
            stats.questions,
            stats.cells_filled,
            stats.spend,
            stats.rounds
        );
        if optimized {
            let names: Vec<String> = rows.iter().map(|r| r[0].display_raw()).collect();
            println!("           rows: {names:?}");
        }
    }

    println!("\nthe optimizer ran the machine predicate (id >= 6) before buying");
    println!("crowd answers, so only surviving rows paid for category fills.");
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("  {l}\n")).collect()
}
