//! Crowd-Datalog walkthrough: a Deco-style program whose `@crowd`
//! predicate is fetched on demand from a simulated crowd, with recursion
//! and negation in the same program.
//!
//! ```sh
//! cargo run --example datalog_crowd
//! ```

use crowdkit::core::answer::AnswerValue;
use crowdkit::core::task::{Task, TaskKind};
use crowdkit::datalog::{parse_program, Const, Engine, OracleResolver};
use crowdkit::sim::population::PopulationBuilder;
use crowdkit::sim::SimulatedCrowd;

fn main() {
    let seed = 9;
    let program = parse_program(
        r#"
        % machine-known facts
        restaurant("sushi_dai").   restaurant("ichiran").
        restaurant("le_bernardin"). restaurant("noma").

        % the crowd knows where restaurants are
        @crowd city_of/2.

        located(R, C) :- restaurant(R), city_of(R, C).
        in_tokyo(R)   :- located(R, C), C = "tokyo".
        elsewhere(R)  :- restaurant(R), not in_tokyo(R).

        % stratified aggregation over crowd-fetched tuples
        per_city(C, count<R>) :- located(R, C).
    "#,
    )
    .expect("program parses");

    let engine = Engine::new(program).expect("program validates");

    // Ground truth the simulated workers draw from.
    let city = |r: &str| -> &str {
        match r {
            "sushi_dai" | "ichiran" => "tokyo",
            "le_bernardin" => "new york",
            _ => "copenhagen",
        }
    };

    let pop = PopulationBuilder::new()
        .reliable(30, 0.85, 0.98)
        .build(seed);
    let crowd = SimulatedCrowd::new(pop, seed);
    let mut resolver = OracleResolver::new(&crowd, 5, |id, pred, bound, _free| {
        // Render the fetch as an open-text task with latent truth attached.
        let restaurant = bound
            .first()
            .map(|(_, c)| c.display_raw())
            .unwrap_or_default();
        Task::new(
            id,
            TaskKind::OpenText,
            format!("{pred}: city of {restaurant}?"),
        )
        .with_truth(AnswerValue::Text(city(&restaurant).to_owned()))
    });

    let (db, stats) = engine.run(&mut resolver).expect("evaluation succeeds");

    println!("fetches issued      : {}", stats.fetches);
    println!("crowd tuples learned: {}", stats.crowd_tuples);
    println!("questions purchased : {}", stats.questions_asked);
    println!();
    let names = |pred: &str| -> Vec<String> {
        db.relation(pred)
            .into_iter()
            .map(|row| {
                row.iter()
                    .map(Const::display_raw)
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .collect()
    };
    println!("located   : {:?}", names("located"));
    println!("in_tokyo  : {:?}", names("in_tokyo"));
    println!("elsewhere : {:?}", names("elsewhere"));
    println!("per_city  : {:?}", names("per_city"));

    println!("\neach restaurant cost one fetch (5 votes, plurality-reconciled);");
    println!("the fetch cache means no binding is ever bought twice.");
}
