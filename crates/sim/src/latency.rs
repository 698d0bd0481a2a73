//! Latency models and the round/straggler simulator.
//!
//! Latency control is the tutorial's third axis: crowd answers arrive in
//! minutes, not microseconds, and published systems fight it with round
//! organization, straggler re-issue, and retainer pools. This module
//! provides:
//!
//! * [`LatencyModel`] — per-answer service-time distributions.
//! * [`RoundSimulator`] — a discrete-event simulation of batched rounds
//!   with configurable straggler mitigation, which experiment E9 sweeps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::worker::gaussian;

/// Distribution of the time a worker takes to return one answer, seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Every answer takes exactly `secs` seconds (useful for tests).
    Constant {
        /// The fixed service time.
        secs: f64,
    },
    /// Exponential with the given mean — memoryless worker arrival.
    Exponential {
        /// Mean service time in seconds.
        mean: f64,
    },
    /// Log-normal: the empirical shape of human task latencies, with a long
    /// right tail of stragglers. `mu`/`sigma` are the parameters of the
    /// underlying normal.
    LogNormal {
        /// Location parameter of the underlying normal.
        mu: f64,
        /// Scale parameter of the underlying normal (σ > 0).
        sigma: f64,
    },
}

impl LatencyModel {
    /// The canonical "human micro-task" model: median ≈ 30 s with a heavy
    /// tail (lognormal μ=ln 30, σ=0.9).
    pub fn human_default() -> Self {
        LatencyModel::LogNormal {
            mu: 30.0f64.ln(),
            sigma: 0.9,
        }
    }

    /// Draws one service time.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match self {
            LatencyModel::Constant { secs } => *secs,
            LatencyModel::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -mean * u.ln()
            }
            LatencyModel::LogNormal { mu, sigma } => (mu + sigma * gaussian(rng)).exp(),
        }
    }

    /// The distribution's mean (exact, not sampled).
    pub fn mean(&self) -> f64 {
        match self {
            LatencyModel::Constant { secs } => *secs,
            LatencyModel::Exponential { mean } => *mean,
            LatencyModel::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
        }
    }
}

/// What to do about stragglers (answers still outstanding when most of a
/// round is done).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StragglerPolicy {
    /// Wait for every assignment to return.
    Wait,
    /// When `quantile` of the round's answers have returned, re-issue each
    /// outstanding assignment to a fresh worker and take whichever copy
    /// finishes first.
    Reissue {
        /// Completion quantile that triggers re-issue, e.g. `0.8`.
        quantile: f64,
    },
    /// Accept the round once `quantile` of answers returned, dropping
    /// stragglers entirely (the task gets fewer answers).
    Drop {
        /// Completion quantile that ends the round.
        quantile: f64,
    },
}

/// The outcome of simulating one batch of tasks through rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// Total wall-clock seconds until the batch finished.
    pub total_time: f64,
    /// Number of rounds executed.
    pub rounds: usize,
    /// Total answers purchased, including duplicate re-issues.
    pub answers_bought: usize,
    /// Answers that were dropped (only under [`StragglerPolicy::Drop`]).
    pub answers_dropped: usize,
}

/// Simulates collecting `k` answers for each of `n_tasks` through rounds of
/// size `round_size` over a pool of `pool` parallel workers.
///
/// In each round, up to `round_size` task-assignments are issued; each
/// occupies a worker slot for a sampled service time. The round ends per
/// the straggler policy, and the next round starts. Wall-clock time is the
/// sum of round durations (rounds are sequential; assignments within a
/// round run in parallel subject to the worker-pool width).
#[derive(Debug, Clone)]
pub struct RoundSimulator {
    /// Latency distribution for a single answer.
    pub latency: LatencyModel,
    /// Concurrent worker slots available.
    pub pool: usize,
    /// Assignments issued per round.
    pub round_size: usize,
    /// Straggler handling.
    pub policy: StragglerPolicy,
}

impl RoundSimulator {
    /// Runs the simulation for `n_tasks` tasks × `k` answers each.
    ///
    /// # Panics
    /// Panics if `pool == 0` or `round_size == 0`.
    pub fn run(&self, n_tasks: usize, k: usize, seed: u64) -> RoundOutcome {
        assert!(self.pool > 0, "worker pool must be non-empty");
        assert!(self.round_size > 0, "round size must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let total_assignments = n_tasks * k;
        let mut remaining = total_assignments;
        let mut total_time = 0.0;
        let mut rounds = 0;
        let mut bought = 0;
        let mut dropped = 0;

        while remaining > 0 {
            rounds += 1;
            let batch = remaining.min(self.round_size);
            // Sample a service time per assignment; the round's parallel
            // makespan is computed by greedy multiprocessor scheduling over
            // `pool` slots (LPT is unnecessary: arrival order is arbitrary).
            let mut times: Vec<f64> = (0..batch).map(|_| self.latency.sample(&mut rng)).collect();
            bought += batch;

            let (round_time, finished) = match self.policy {
                StragglerPolicy::Wait => (makespan(&times, self.pool), batch),
                StragglerPolicy::Reissue { quantile } => {
                    let q = quantile.clamp(0.0, 1.0);
                    let cutoff_idx = ((batch as f64 * q).ceil() as usize).clamp(1, batch);
                    let mut sorted = times.clone();
                    sorted.sort_by(|a, b| a.total_cmp(b));
                    let cutoff = sorted[cutoff_idx - 1];
                    // Re-issue every assignment slower than the cutoff; the
                    // effective time of a re-issued assignment is
                    // cutoff + min(fresh draw, remaining original time).
                    let mut extra = 0usize;
                    for t in times.iter_mut() {
                        if *t > cutoff {
                            extra += 1;
                            let fresh = self.latency.sample(&mut rng);
                            *t = cutoff + fresh.min(*t - cutoff);
                        }
                    }
                    bought += extra;
                    (makespan(&times, self.pool), batch)
                }
                StragglerPolicy::Drop { quantile } => {
                    let q = quantile.clamp(0.0, 1.0);
                    let keep = ((batch as f64 * q).ceil() as usize).clamp(1, batch);
                    times.sort_by(|a, b| a.total_cmp(b));
                    dropped += batch - keep;
                    (makespan(&times[..keep], self.pool), batch)
                }
            };

            total_time += round_time;
            remaining -= finished;
        }

        RoundOutcome {
            total_time,
            rounds,
            answers_bought: bought,
            answers_dropped: dropped,
        }
    }
}

/// Parallel makespan of jobs with the given durations over `slots`
/// identical machines, list-scheduled in input order.
fn makespan(durations: &[f64], slots: usize) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    let mut finish = vec![0.0f64; slots.min(durations.len())];
    for &d in durations {
        // Assign to the machine that frees up first.
        let (idx, _) = finish
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("at least one slot"); // crowdkit-lint: allow(PANIC001) — durations checked non-empty above and the pool width is asserted > 0
        finish[idx] += d;
    }
    finish.iter().cloned().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_model_is_exact() {
        let m = LatencyModel::Constant { secs: 7.0 };
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(m.sample(&mut rng), 7.0);
        assert_eq!(m.mean(), 7.0);
    }

    #[test]
    fn exponential_mean_matches() {
        let m = LatencyModel::Exponential { mean: 10.0 };
        let mut rng = StdRng::seed_from_u64(0);
        let n = 50_000;
        let avg: f64 = (0..n).map(|_| m.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((avg - 10.0).abs() < 0.3, "empirical mean {avg}");
    }

    #[test]
    fn lognormal_is_positive_and_heavy_tailed() {
        let m = LatencyModel::human_default();
        let mut rng = StdRng::seed_from_u64(0);
        let xs: Vec<f64> = (0..20_000).map(|_| m.sample(&mut rng)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[xs.len() / 2];
        assert!(mean > median, "heavy tail: mean {mean} > median {median}");
        assert!((median - 30.0).abs() < 3.0, "median {median} ≈ 30");
    }

    #[test]
    fn makespan_respects_parallelism() {
        // 4 unit jobs on 2 machines → 2.0; on 4 machines → 1.0.
        assert_eq!(makespan(&[1.0, 1.0, 1.0, 1.0], 2), 2.0);
        assert_eq!(makespan(&[1.0, 1.0, 1.0, 1.0], 4), 1.0);
        assert_eq!(makespan(&[], 3), 0.0);
        // One long job dominates.
        assert_eq!(makespan(&[5.0, 1.0, 1.0], 3), 5.0);
    }

    #[test]
    fn wait_policy_buys_exactly_n_times_k() {
        let sim = RoundSimulator {
            latency: LatencyModel::Constant { secs: 1.0 },
            pool: 10,
            round_size: 10,
            policy: StragglerPolicy::Wait,
        };
        let out = sim.run(10, 3, 0);
        assert_eq!(out.answers_bought, 30);
        assert_eq!(out.answers_dropped, 0);
        assert_eq!(out.rounds, 3);
        assert_eq!(out.total_time, 3.0);
    }

    #[test]
    fn reissue_reduces_makespan_under_heavy_tail() {
        let base = RoundSimulator {
            latency: LatencyModel::human_default(),
            pool: 50,
            round_size: 50,
            policy: StragglerPolicy::Wait,
        };
        let mitigated = RoundSimulator {
            policy: StragglerPolicy::Reissue { quantile: 0.8 },
            ..base.clone()
        };
        // Average over seeds to avoid flaky single draws.
        let avg = |s: &RoundSimulator| -> f64 {
            (0..20)
                .map(|seed| s.run(100, 3, seed).total_time)
                .sum::<f64>()
                / 20.0
        };
        let t_wait = avg(&base);
        let t_reissue = avg(&mitigated);
        assert!(
            t_reissue < t_wait,
            "re-issue ({t_reissue:.1}s) should beat waiting ({t_wait:.1}s)"
        );
    }

    #[test]
    fn reissue_buys_extra_answers() {
        let sim = RoundSimulator {
            latency: LatencyModel::human_default(),
            pool: 50,
            round_size: 50,
            policy: StragglerPolicy::Reissue { quantile: 0.8 },
        };
        let out = sim.run(100, 3, 1);
        assert!(out.answers_bought > 300, "bought {}", out.answers_bought);
    }

    #[test]
    fn drop_policy_records_dropped_answers() {
        let sim = RoundSimulator {
            latency: LatencyModel::human_default(),
            pool: 50,
            round_size: 100,
            policy: StragglerPolicy::Drop { quantile: 0.9 },
        };
        let out = sim.run(100, 3, 1);
        assert!(out.answers_dropped > 0);
        assert_eq!(out.answers_bought, 300);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let sim = RoundSimulator {
            latency: LatencyModel::human_default(),
            pool: 20,
            round_size: 40,
            policy: StragglerPolicy::Reissue { quantile: 0.75 },
        };
        assert_eq!(sim.run(50, 2, 9), sim.run(50, 2, 9));
    }

    #[test]
    fn smaller_rounds_cost_more_wall_clock() {
        // With a fixed pool, many small sequential rounds waste parallelism.
        let mk = |round_size| RoundSimulator {
            latency: LatencyModel::Exponential { mean: 10.0 },
            pool: 50,
            round_size,
            policy: StragglerPolicy::Wait,
        };
        let avg = |s: &RoundSimulator| -> f64 {
            (0..10)
                .map(|seed| s.run(100, 3, seed).total_time)
                .sum::<f64>()
                / 10.0
        };
        let small = avg(&mk(10));
        let large = avg(&mk(100));
        assert!(
            small > large,
            "round=10 ({small:.0}s) vs round=100 ({large:.0}s)"
        );
    }
}
