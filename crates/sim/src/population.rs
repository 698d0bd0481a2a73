//! Worker population construction.
//!
//! Experiments describe crowds as *mixes*: "70 % reliable workers with
//! accuracy ~0.85, 20 % sloppy (~0.6), 10 % spammers". The
//! [`PopulationBuilder`] turns such a description into a concrete
//! [`Population`] of [`WorkerProfile`]s with deterministic ids and sampled
//! parameters.

use crowdkit_core::ids::WorkerId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::worker::{WorkerModel, WorkerProfile};

/// A recipe for one slice of the population.
#[derive(Debug, Clone)]
pub enum Archetype {
    /// One-coin workers with accuracy drawn uniformly from the range.
    Reliable {
        /// Inclusive accuracy range to draw from.
        accuracy: (f64, f64),
    },
    /// GLAD workers with ability drawn uniformly from the range.
    Skilled {
        /// Inclusive ability range to draw from.
        ability: (f64, f64),
    },
    /// Uniform-random spammers.
    Spammer,
    /// Deliberately wrong workers with malice drawn from the range.
    Adversarial {
        /// Inclusive malice range to draw from.
        malice: (f64, f64),
    },
    /// Numeric estimators with bias and noise drawn from the ranges.
    Numeric {
        /// Inclusive multiplicative-bias range.
        bias: (f64, f64),
        /// Inclusive noise-fraction range.
        noise: (f64, f64),
    },
    /// Dawid–Skene workers: diagonal drawn from the accuracy range, the
    /// remaining mass spread uniformly off-diagonal. `k` is the label-space
    /// size the matrix is built for.
    Confusion {
        /// Inclusive per-class accuracy (diagonal) range.
        accuracy: (f64, f64),
        /// Label-space size.
        k: usize,
    },
}

impl Archetype {
    fn instantiate(&self, rng: &mut StdRng) -> WorkerModel {
        let draw = |rng: &mut StdRng, (lo, hi): (f64, f64)| -> f64 {
            if (hi - lo).abs() < f64::EPSILON {
                lo
            } else {
                rng.gen_range(lo.min(hi)..=lo.max(hi))
            }
        };
        match self {
            Archetype::Reliable { accuracy } => WorkerModel::Reliable {
                accuracy: draw(rng, *accuracy),
            },
            Archetype::Skilled { ability } => WorkerModel::Ability {
                ability: draw(rng, *ability),
            },
            Archetype::Spammer => WorkerModel::Spammer,
            Archetype::Adversarial { malice } => WorkerModel::Adversarial {
                malice: draw(rng, *malice),
            },
            Archetype::Numeric { bias, noise } => WorkerModel::Numeric {
                bias: draw(rng, *bias),
                noise: draw(rng, *noise),
            },
            Archetype::Confusion { accuracy, k } => {
                let k = (*k).max(2);
                let mut matrix = vec![vec![0.0; k]; k];
                for (t, row) in matrix.iter_mut().enumerate() {
                    let diag = draw(rng, *accuracy).clamp(0.0, 1.0);
                    let off = (1.0 - diag) / (k - 1) as f64;
                    for (l, cell) in row.iter_mut().enumerate() {
                        *cell = if l == t { diag } else { off };
                    }
                }
                WorkerModel::Confusion { matrix }
            }
        }
    }
}

/// A concrete set of workers.
#[derive(Debug, Clone)]
pub struct Population {
    workers: Vec<WorkerProfile>,
}

impl Population {
    /// Wraps explicit profiles. Worker ids must be unique within a pool:
    /// the platform keys reservations by population index and maps
    /// excluded ids to indices. [`PopulationBuilder`] and the platform's
    /// qualification filter, which keeps a subset of a built pool, both
    /// guarantee it.
    pub fn from_profiles(workers: Vec<WorkerProfile>) -> Self {
        Self { workers }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True if no workers exist.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// All profiles.
    pub fn workers(&self) -> &[WorkerProfile] {
        &self.workers
    }

    /// Profile by dense index.
    pub fn get(&self, i: usize) -> &WorkerProfile {
        &self.workers[i]
    }

    /// Profile by worker id, if present.
    pub fn by_id(&self, id: WorkerId) -> Option<&WorkerProfile> {
        self.workers.iter().find(|w| w.id == id)
    }

    /// Ground-truth scalar quality per worker (aligned with
    /// [`Population::workers`]); used to evaluate worker-quality estimation.
    pub fn true_qualities(&self) -> Vec<f64> {
        self.workers
            .iter()
            .map(|w| w.model.true_quality())
            .collect()
    }
}

/// Builds a [`Population`] from archetype slices.
#[derive(Debug, Clone, Default)]
pub struct PopulationBuilder {
    slices: Vec<(usize, Archetype)>,
}

impl PopulationBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `count` workers of the given archetype.
    pub fn add(mut self, count: usize, archetype: Archetype) -> Self {
        self.slices.push((count, archetype));
        self
    }

    /// Shorthand: `count` one-coin workers with accuracy in `[lo, hi]`.
    pub fn reliable(self, count: usize, lo: f64, hi: f64) -> Self {
        self.add(count, Archetype::Reliable { accuracy: (lo, hi) })
    }

    /// Shorthand: `count` spammers.
    pub fn spammers(self, count: usize) -> Self {
        self.add(count, Archetype::Spammer)
    }

    /// Instantiates all workers with ids `0..n`, deterministically for the
    /// given seed.
    ///
    /// # Panics
    /// Panics if no workers were requested.
    pub fn build(self, seed: u64) -> Population {
        assert!(
            self.slices.iter().map(|(c, _)| *c).sum::<usize>() > 0,
            "population must contain at least one worker"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut workers = Vec::new();
        let mut next_id = 0u64;
        for (count, archetype) in &self.slices {
            for _ in 0..*count {
                let model = archetype.instantiate(&mut rng);
                workers.push(WorkerProfile::new(WorkerId::new(next_id), model));
                next_id += 1;
            }
        }
        Population { workers }
    }
}

/// The three canonical population mixes used across the experiment suite
/// (E1, E8): a mostly-reliable crowd, a mixed crowd, and a heavily spammed
/// crowd.
pub mod mixes {
    use super::*;

    /// 90 % reliable (0.75–0.95), 10 % spammers.
    pub fn reliable(n: usize, seed: u64) -> Population {
        let spam = n / 10;
        PopulationBuilder::new()
            .reliable(n - spam, 0.75, 0.95)
            .spammers(spam)
            .build(seed)
    }

    /// 50 % reliable (0.7–0.9), 30 % sloppy (0.55–0.7), 20 % spammers.
    pub fn mixed(n: usize, seed: u64) -> Population {
        let spam = n * 2 / 10;
        let sloppy = n * 3 / 10;
        PopulationBuilder::new()
            .reliable(n - spam - sloppy, 0.7, 0.9)
            .reliable(sloppy, 0.55, 0.7)
            .spammers(spam)
            .build(seed)
    }

    /// 40 % reliable (0.7–0.9), 40 % spammers, 20 % adversarial.
    pub fn spam_heavy(n: usize, seed: u64) -> Population {
        let spam = n * 4 / 10;
        let adv = n * 2 / 10;
        PopulationBuilder::new()
            .reliable(n - spam - adv, 0.7, 0.9)
            .spammers(spam)
            .add(adv, Archetype::Adversarial { malice: (0.6, 0.9) })
            .build(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids() {
        let p = PopulationBuilder::new()
            .reliable(3, 0.8, 0.8)
            .spammers(2)
            .build(1);
        assert_eq!(p.len(), 5);
        let ids: Vec<u64> = p.workers().iter().map(|w| w.id.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(p.by_id(WorkerId::new(4)).is_some());
        assert!(p.by_id(WorkerId::new(5)).is_none());
    }

    #[test]
    fn builder_is_deterministic_per_seed() {
        let a = PopulationBuilder::new().reliable(10, 0.6, 0.9).build(7);
        let b = PopulationBuilder::new().reliable(10, 0.6, 0.9).build(7);
        let c = PopulationBuilder::new().reliable(10, 0.6, 0.9).build(8);
        assert_eq!(a.true_qualities(), b.true_qualities());
        assert_ne!(a.true_qualities(), c.true_qualities());
    }

    #[test]
    fn accuracy_draws_stay_in_range() {
        let p = PopulationBuilder::new().reliable(100, 0.6, 0.9).build(3);
        for q in p.true_qualities() {
            assert!((0.6..=0.9).contains(&q), "quality {q} outside range");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_population_panics() {
        let _ = PopulationBuilder::new().build(0);
    }

    #[test]
    fn confusion_archetype_builds_stochastic_rows() {
        let p = PopulationBuilder::new()
            .add(
                5,
                Archetype::Confusion {
                    accuracy: (0.7, 0.9),
                    k: 4,
                },
            )
            .build(11);
        for w in p.workers() {
            if let WorkerModel::Confusion { matrix } = &w.model {
                assert_eq!(matrix.len(), 4);
                for row in matrix {
                    let sum: f64 = row.iter().sum();
                    assert!((sum - 1.0).abs() < 1e-9, "row sums to {sum}");
                }
            } else {
                panic!("expected confusion model");
            }
        }
    }

    #[test]
    fn canonical_mixes_have_requested_sizes() {
        assert_eq!(mixes::reliable(50, 1).len(), 50);
        assert_eq!(mixes::mixed(50, 1).len(), 50);
        assert_eq!(mixes::spam_heavy(50, 1).len(), 50);
    }

    #[test]
    fn spam_heavy_mix_has_lower_mean_quality_than_reliable() {
        let q1 = mixes::reliable(100, 1).true_qualities();
        let q2 = mixes::spam_heavy(100, 1).true_qualities();
        let m1: f64 = q1.iter().sum::<f64>() / q1.len() as f64;
        let m2: f64 = q2.iter().sum::<f64>() / q2.len() as f64;
        assert!(m1 > m2 + 0.1, "reliable {m1} vs spam-heavy {m2}");
    }
}
