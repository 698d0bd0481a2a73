// crowdkit-lint: allow-file(PANIC001) — experiment harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
//! E7 — Open-world enumeration with species estimation.
//!
//! Emulates the CrowdDB open-world / Trushkowsky et al. Chao92 figures:
//! the species accumulation curve (distinct items vs answers bought) with
//! the Chao92 richness estimate tracking the true pool size. Expected
//! shape: distinct grows with diminishing returns; Chao92 approaches the
//! truth from the observed count; Good–Turing coverage rises toward 1.

use crowdkit_core::ids::TaskId;
use crowdkit_obs as obs;
use crowdkit_ops::collect::crowd_collect;
use crowdkit_sim::dataset::CollectionPool;
use crowdkit_sim::population::PopulationBuilder;
use crowdkit_sim::SimulatedCrowd;

use crate::table::{f3, Table};

const RICHNESS: usize = 50;
const SEED: u64 = 71;

/// Runs E7.
pub fn run() -> Vec<Table> {
    let pool = CollectionPool::generate(RICHNESS, SEED);
    let task = pool.task(TaskId::new(0));
    let pop = PopulationBuilder::new()
        .reliable(600, 0.8, 0.95)
        .build(SEED);
    let crowd = SimulatedCrowd::new(pop, SEED);
    let out = crowd_collect(&crowd, &task, 2.0, 400).expect("collection succeeds");

    let mut t = Table::new(
        format!("E7: species accumulation (true richness {RICHNESS})"),
        &["answers", "distinct", "chao92", "coverage"],
    );
    for &checkpoint in &[10usize, 25, 50, 100, 200, 400] {
        if let Some(p) = out.curve.get(checkpoint.saturating_sub(1)) {
            t.row(vec![
                p.answers.to_string(),
                p.distinct.to_string(),
                f3(p.chao92_estimate),
                f3(p.coverage),
            ]);
        }
    }
    if let Some(last) = out.curve.last() {
        obs::quality("species_coverage", last.coverage);
        obs::quality(
            "chao92_rel_error",
            (last.chao92_estimate - RICHNESS as f64).abs() / RICHNESS as f64,
        );
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_shape_distinct_grows_and_chao_tracks_truth() {
        let tables = run();
        let rows = &tables[0].rows;
        assert!(rows.len() >= 4);
        let distinct: Vec<usize> = rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(
            distinct.windows(2).all(|w| w[1] >= w[0]),
            "accumulation is monotone: {distinct:?}"
        );
        let final_chao: f64 = rows.last().unwrap()[2].parse().unwrap();
        let final_distinct: f64 = rows.last().unwrap()[1].parse().unwrap();
        assert!(final_chao >= final_distinct);
        assert!(
            (final_chao - RICHNESS as f64).abs() < 20.0,
            "chao92 {final_chao} should approach {RICHNESS}"
        );
        let coverage: Vec<f64> = rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(coverage.last().unwrap() > &0.8);
    }
}
