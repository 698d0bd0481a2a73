//! E9 — Latency control: rounds and straggler mitigation.
//!
//! Emulates the latency-control figures (retainer pools, round
//! organization): wall-clock completion time of a task batch as round size
//! and straggler policy vary under heavy-tailed human latencies. Expected
//! shape: bigger rounds exploit pool parallelism; re-issue cuts the tail
//! at a small extra-answer cost; dropping stragglers is fastest but loses
//! answers.

use crowdkit_obs as obs;
use crowdkit_sim::latency::{LatencyModel, RoundSimulator, StragglerPolicy};

use crate::table::{f3, Table};

const TASKS: usize = 200;
const K: usize = 3;
const POOL: usize = 60;
const SEEDS: u64 = 10;

fn simulate(round_size: usize, policy: StragglerPolicy) -> (f64, f64, f64) {
    let sim = RoundSimulator {
        latency: LatencyModel::human_default(),
        pool: POOL,
        round_size,
        policy,
    };
    let mut time = 0.0;
    let mut bought = 0.0;
    let mut dropped = 0.0;
    for seed in 0..SEEDS {
        let out = sim.run(TASKS, K, seed);
        time += out.total_time;
        bought += out.answers_bought as f64;
        dropped += out.answers_dropped as f64;
    }
    let n = SEEDS as f64;
    (time / n, bought / n, dropped / n)
}

/// Runs E9.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "E9: completion time vs round size and straggler policy ({TASKS} tasks × {K} answers, pool {POOL}, lognormal latencies, mean of {SEEDS} seeds)"
        ),
        &["round size", "policy", "time (s)", "answers bought", "dropped"],
    );
    for &rs in &[20usize, 60, 200] {
        for (name, policy) in [
            ("wait", StragglerPolicy::Wait),
            ("reissue@0.8", StragglerPolicy::Reissue { quantile: 0.8 }),
            ("drop@0.9", StragglerPolicy::Drop { quantile: 0.9 }),
        ] {
            let (time, bought, dropped) = simulate(rs, policy);
            obs::quality("completion_time_s", time);
            obs::quality("dropped_share", dropped / bought.max(1.0));
            t.row(vec![
                rs.to_string(),
                name.into(),
                f3(time),
                f3(bought),
                f3(dropped),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_shape_reissue_beats_wait_and_drop_is_fastest() {
        let (wait, wait_bought, _) = simulate(60, StragglerPolicy::Wait);
        let (reissue, reissue_bought, _) = simulate(60, StragglerPolicy::Reissue { quantile: 0.8 });
        let (drop, _, dropped) = simulate(60, StragglerPolicy::Drop { quantile: 0.9 });
        assert!(reissue < wait, "re-issue {reissue:.0}s < wait {wait:.0}s");
        assert!(drop < wait, "drop {drop:.0}s < wait {wait:.0}s");
        assert!(
            reissue_bought > wait_bought,
            "re-issue buys extra answers: {reissue_bought} vs {wait_bought}"
        );
        assert!(dropped > 0.0, "drop policy loses answers");
    }

    #[test]
    fn e9_shape_bigger_rounds_are_faster_with_a_wide_pool() {
        let (small, _, _) = simulate(20, StragglerPolicy::Wait);
        let (big, _, _) = simulate(200, StragglerPolicy::Wait);
        assert!(
            big < small,
            "round 200 ({big:.0}s) < round 20 ({small:.0}s)"
        );
    }
}
