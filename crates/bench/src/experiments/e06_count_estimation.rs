// crowdkit-lint: allow-file(PANIC001) — experiment harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
//! E6 — Sampling-based crowd COUNT.
//!
//! Emulates the sampling-for-aggregation figures: relative error and
//! confidence-interval width of the estimated count as the sample
//! fraction grows. Expected shape: error and CI width fall roughly as
//! `1/√m`; the finite-population correction collapses the interval as the
//! sample approaches the population.

use crowdkit_core::metrics::relative_error;
use crowdkit_obs as obs;
use crowdkit_ops::agg::estimate_count;
use crowdkit_sim::dataset::CountingDataset;
use crowdkit_sim::population::PopulationBuilder;
use crowdkit_sim::SimulatedCrowd;

use crate::table::{f3, Table};

const POPULATION: usize = 4000;
const PREVALENCE: f64 = 0.3;
const SEEDS: [u64; 5] = [61, 62, 63, 64, 65];

fn at_fraction(fraction: f64) -> (f64, f64, f64) {
    let mut rel = 0.0;
    let mut width = 0.0;
    let mut covered = 0.0;
    for &seed in &SEEDS {
        let data = CountingDataset::generate(POPULATION, PREVALENCE, seed);
        let truth = data.true_count() as f64;
        let pop = PopulationBuilder::new()
            .reliable(POPULATION, 0.92, 0.99)
            .build(seed);
        let crowd = SimulatedCrowd::new(pop, seed);
        let m = ((POPULATION as f64) * fraction).round() as usize;
        let est =
            estimate_count(&crowd, &data.tasks, m, 3, 1.96, seed).expect("estimation succeeds");
        rel += relative_error(est.estimate, truth);
        width += (est.ci_high - est.ci_low) / POPULATION as f64;
        if est.ci_low <= truth && truth <= est.ci_high {
            covered += 1.0;
        }
    }
    let n = SEEDS.len() as f64;
    (rel / n, width / n, covered / n)
}

/// Runs E6.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "E6: crowd COUNT by sampling (population {POPULATION}, prevalence {PREVALENCE}, 3 votes/item, mean of {} seeds)",
            SEEDS.len()
        ),
        &["sample fraction", "relative error", "CI width / N", "CI coverage"],
    );
    for fraction in [0.01, 0.05, 0.1, 0.25, 1.0] {
        let (rel, width, cov) = at_fraction(fraction);
        obs::quality("count_rel_error", rel);
        obs::quality("ci_coverage", cov);
        t.row(vec![format!("{fraction}"), f3(rel), f3(width), f3(cov)]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_shape_error_falls_with_sample_size() {
        let (rel_small, width_small, _) = at_fraction(0.02);
        let (rel_big, width_big, _) = at_fraction(0.5);
        assert!(rel_big < rel_small, "rel err {rel_small:.3} → {rel_big:.3}");
        assert!(
            width_big < width_small,
            "CI width {width_small:.3} → {width_big:.3}"
        );
    }

    #[test]
    fn e6_full_census_is_near_exact() {
        let (rel, width, _) = at_fraction(1.0);
        assert!(rel < 0.05, "census relative error {rel}");
        assert!(width < 0.01, "census CI width {width}");
    }
}
