// crowdkit-lint: allow-file(PANIC001) — experiment harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
//! E17 — Worker supply: churned availability and completion time.
//!
//! The latency axis is not just service time: on real platforms workers
//! come and go, and a batch stalls whenever nobody eligible is online.
//! This experiment sweeps the workers' duty cycle (fraction of time
//! online) and measures wall-clock completion of a fixed labeling batch.
//! Expected shape: completion time is flat while supply is plentiful and
//! blows up as the duty cycle starves the pool; a bigger pool buys back
//! most of the loss (supply redundancy as latency control).

use crowdkit_core::traits::CrowdOracle;
use crowdkit_obs as obs;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::latency::LatencyModel;
use crowdkit_sim::platform::Churn;
use crowdkit_sim::population::PopulationBuilder;
use crowdkit_sim::PlatformBuilder;

use crate::table::{f3, Table};

const N_TASKS: usize = 150;
const K: usize = 3;
const SEEDS: [u64; 3] = [171, 172, 173];

/// Wall-clock seconds to buy K answers for every task.
fn completion_time(duty: f64, pool: usize, seed: u64) -> f64 {
    let population = PopulationBuilder::new()
        .reliable(pool, 0.85, 0.95)
        .build(seed);
    let mut builder = PlatformBuilder::new(population)
        .latency(LatencyModel::Exponential { mean: 15.0 })
        .seed(seed);
    if duty < 1.0 {
        builder = builder.churn(Churn {
            duty_cycle: duty,
            period: 1_800.0,
        });
    }
    let crowd = builder.build();
    let data = LabelingDataset::binary(N_TASKS, seed);
    for task in &data.tasks {
        crowd.ask_many(task, K).expect("collection succeeds");
    }
    crowd.now()
}

fn mean_time(duty: f64, pool: usize) -> f64 {
    SEEDS
        .iter()
        .map(|&s| completion_time(duty, pool, s))
        .sum::<f64>()
        / SEEDS.len() as f64
}

/// Runs E17.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "E17: completion time vs worker duty cycle ({N_TASKS} tasks × {K} answers, 15 s mean service, mean of {} seeds)",
            SEEDS.len()
        ),
        &["duty cycle", "pool 10 (s)", "pool 40 (s)"],
    );
    for duty in [1.0, 0.5, 0.2, 0.05] {
        let small = mean_time(duty, 10);
        let large = mean_time(duty, 40);
        obs::quality("completion_time_s", small);
        obs::quality("completion_time_s", large);
        t.row(vec![format!("{duty}"), f3(small), f3(large)]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e17_shape_scarce_supply_slows_completion() {
        let always_on = mean_time(1.0, 10);
        let scarce = mean_time(0.05, 10);
        assert!(
            scarce > always_on * 1.5,
            "5% duty ({scarce:.0}s) should be much slower than always-on ({always_on:.0}s)"
        );
    }

    #[test]
    fn e17_shape_bigger_pools_absorb_churn() {
        let small = mean_time(0.05, 10);
        let large = mean_time(0.05, 40);
        assert!(
            large < small,
            "a 40-worker pool ({large:.0}s) should beat 10 workers ({small:.0}s) at 5% duty"
        );
    }
}
