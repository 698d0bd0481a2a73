//! Open-world data acquisition: populating a `CREATE CROWD TABLE` from
//! nothing, CrowdDB-style, by composing the collect and fill operators
//! with CrowdSQL.
//!
//! The database starts empty. The crowd (1) enumerates the entities that
//! exist, with Chao92 estimating how many are still unseen, and (2) fills
//! each acquired row's attributes; the result is then queryable like any
//! other table.
//!
//! ```sh
//! cargo run --release --example open_world
//! ```

use crowdkit::core::ids::TaskId;
use crowdkit::ops::collect::{chao92, crowd_collect};
use crowdkit::sim::dataset::CollectionPool;
use crowdkit::sim::population::PopulationBuilder;
use crowdkit::sim::SimulatedCrowd;
use crowdkit::sql::exec::SimTaskFactory;
use crowdkit::sql::{QueryOpts, Session, Value};

fn main() {
    let seed = 29;
    // The latent open world: 25 restaurants the database knows nothing of.
    let pool = CollectionPool::generate(25, seed);

    // Phase 1 — enumerate: buy collection answers until Good–Turing
    // coverage says the unseen tail is small.
    let pop = PopulationBuilder::new()
        .reliable(300, 0.85, 0.97)
        .build(seed);
    let crowd = SimulatedCrowd::new(pop, seed);
    let out =
        crowd_collect(&crowd, &pool.task(TaskId::new(0)), 0.97, 300).expect("enumeration succeeds");
    println!(
        "enumeration: {} answers → {} distinct entities (chao92 estimates {:.1}, truth {})",
        out.questions_asked,
        out.counts.distinct(),
        chao92(&out.counts),
        pool.richness()
    );

    // Phase 2 — acquire into a crowd table and fill its crowd column.
    let session = Session::new();
    session
        .execute_ddl("CREATE TABLE restaurants (name TEXT, city CROWD TEXT)")
        .unwrap();
    let mut names: Vec<String> = out.counts.items().map(|(n, _)| n.to_owned()).collect();
    names.sort();
    for name in &names {
        session
            .execute_ddl(&format!("INSERT INTO restaurants VALUES ('{name}', NULL)"))
            .unwrap();
    }

    // Ground truth for fills: city derived from the species index.
    let mut factory = SimTaskFactory {
        fill_truth: |_: &str, row: &[Value], _: &str| {
            let name = row[0].display_raw();
            let idx: usize = name.trim_start_matches("species-").parse().unwrap_or(0);
            if idx.is_multiple_of(2) {
                "tokyo"
            } else {
                "osaka"
            }
            .to_owned()
        },
        equal_truth: |l: &Value, r: &Value| l == r,
        left_wins_truth: |l: &Value, r: &Value| l.display_raw() > r.display_raw(),
    };
    let pop = PopulationBuilder::new()
        .reliable(200, 0.9, 0.99)
        .build(seed);
    let crowd = SimulatedCrowd::new(pop, seed);
    let (rows, stats) = session
        .query_crowd(
            "SELECT COUNT(*) FROM restaurants WHERE city = 'tokyo'",
            &crowd,
            &mut factory,
            &QueryOpts::new().votes(3),
        )
        .unwrap();
    println!(
        "fill + query: {} crowd questions filled {} cells; {} of {} acquired restaurants are in tokyo",
        stats.questions,
        stats.cells_filled,
        rows[0][0].display_raw(),
        names.len()
    );

    // Phase 3 — the purchased cells persist: a second query is free.
    let (rows, stats) = session
        .query_crowd(
            "SELECT name FROM restaurants WHERE city = 'osaka' ORDER BY name ASC LIMIT 3",
            &crowd,
            &mut factory,
            &QueryOpts::new().votes(3),
        )
        .unwrap();
    let osaka: Vec<String> = rows.iter().map(|r| r[0].display_raw()).collect();
    println!(
        "follow-up query cost {} questions (write-back cache); first osaka rows: {osaka:?}",
        stats.questions
    );
}
