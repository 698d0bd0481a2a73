//! Worker answer-generation models.
//!
//! Each [`WorkerProfile`] pairs a [`WorkerModel`] with an id and generates
//! answers for tasks whose latent ground truth is attached to the task
//! (see `crowdkit_core::task` docs). The models are the ones the
//! truth-inference literature assumes:
//!
//! * [`WorkerModel::Reliable`] — the one-coin model: correct with a fixed
//!   probability `p`, otherwise a uniformly random wrong label.
//! * [`WorkerModel::Confusion`] — the Dawid–Skene model: a full
//!   per-worker confusion matrix.
//! * [`WorkerModel::Ability`] — the GLAD model: probability of a correct
//!   answer is `σ(ability · inverse_difficulty)`.
//! * [`WorkerModel::Spammer`] — answers uniformly at random, ignoring the
//!   task (label spammers are the dominant noise source on real platforms).
//! * [`WorkerModel::Adversarial`] — deliberately answers incorrectly with
//!   probability `p`.
//! * [`WorkerModel::Numeric`] — unbiased/biased Gaussian noise around the
//!   true value, for numeric estimation tasks.

use crowdkit_core::answer::AnswerValue;
use crowdkit_core::ids::WorkerId;
use crowdkit_core::task::{Task, TaskKind};
use rand::Rng;

/// The statistical behaviour of one worker.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerModel {
    /// One-coin worker: answers correctly with probability `accuracy`,
    /// otherwise picks uniformly among the wrong options.
    Reliable {
        /// Probability of a correct answer, in `[0, 1]`.
        accuracy: f64,
    },
    /// Dawid–Skene worker: `matrix[t][l]` is the probability of answering
    /// `l` when the true label is `t`. Rows must sum to 1.
    Confusion {
        /// Row-stochastic confusion matrix, `k × k`.
        matrix: Vec<Vec<f64>>,
    },
    /// GLAD worker: correct with probability
    /// `1 / (1 + exp(-ability · β(task)))` where
    /// `β(task) = exp(2 · (0.5 − difficulty))` is the task's inverse
    /// difficulty (β ≈ 2.7 for trivially easy tasks, ≈ 0.37 for very hard
    /// ones). Wrong answers are uniform among the wrong options.
    Ability {
        /// Worker ability; positive = better than chance on easy tasks,
        /// near zero = coin flips, negative = systematically wrong.
        ability: f64,
    },
    /// Spammer: uniform over all options regardless of truth.
    Spammer,
    /// Adversarial worker: answers *incorrectly* with probability
    /// `malice`, otherwise correctly.
    Adversarial {
        /// Probability of a deliberately wrong answer.
        malice: f64,
    },
    /// Numeric estimator: returns `truth · (1 + bias) + N(0, noise·range)`
    /// clamped to the task range. For non-numeric tasks falls back to
    /// one-coin behaviour with accuracy 0.8.
    Numeric {
        /// Multiplicative bias (0 = unbiased, 0.1 = overestimates by 10 %).
        bias: f64,
        /// Noise as a fraction of the task's value range.
        noise: f64,
    },
}

impl WorkerModel {
    /// The worker's marginal probability of answering a *binary* task of
    /// average difficulty correctly — the scalar "true quality" used when
    /// evaluating worker-quality estimation (experiment E2).
    pub fn true_quality(&self) -> f64 {
        match self {
            WorkerModel::Reliable { accuracy } => *accuracy,
            WorkerModel::Confusion { matrix } => {
                // Average of the diagonal: the expected accuracy under a
                // uniform prior over true labels.
                let k = matrix.len().max(1);
                matrix
                    .iter()
                    .enumerate()
                    .map(|(i, row)| row.get(i).copied().unwrap_or(0.0))
                    .sum::<f64>()
                    / k as f64
            }
            WorkerModel::Ability { ability } => sigmoid(*ability),
            WorkerModel::Spammer => 0.5,
            WorkerModel::Adversarial { malice } => 1.0 - malice,
            WorkerModel::Numeric { .. } => 0.8,
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Inverse difficulty β for the GLAD model; see [`WorkerModel::Ability`].
fn inverse_difficulty(difficulty: f64) -> f64 {
    (2.0 * (0.5 - difficulty)).exp()
}

/// A worker: an id plus a behaviour model.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerProfile {
    /// The worker's id on the platform.
    pub id: WorkerId,
    /// How the worker answers.
    pub model: WorkerModel,
}

impl WorkerProfile {
    /// Creates a profile.
    pub fn new(id: WorkerId, model: WorkerModel) -> Self {
        Self { id, model }
    }

    /// Generates this worker's answer value for `task`.
    ///
    /// Tasks must carry their latent ground truth; the simulator cannot
    /// fabricate plausible noise around an unknown truth.
    ///
    /// # Panics
    /// Panics if the task has no ground truth, or the truth's type does not
    /// match the task kind (both indicate test/dataset construction bugs).
    pub fn answer<R: Rng>(&self, task: &Task, rng: &mut R) -> AnswerValue {
        let truth = task
            .truth
            .as_ref()
            .expect("simulated workers require tasks with ground truth"); // crowdkit-lint: allow(PANIC001) — documented contract: simulated tasks always carry ground truth
        match (&task.kind, truth) {
            (TaskKind::SingleChoice { labels }, AnswerValue::Choice(t)) => AnswerValue::Choice(
                self.answer_choice(*t, labels.len() as u32, task.difficulty, rng),
            ),
            (TaskKind::Pairwise { .. }, AnswerValue::Prefer(p)) => {
                // A pairwise comparison is a 2-option choice; reuse the
                // categorical machinery with truth index 0 = keep, 1 = flip.
                let keep = self.answer_choice(0, 2, task.difficulty, rng) == 0;
                AnswerValue::Prefer(if keep { *p } else { p.flip() })
            }
            (TaskKind::Numeric { min, max }, AnswerValue::Number(v)) => {
                AnswerValue::Number(self.answer_numeric(*v, *min, *max, rng))
            }
            (TaskKind::OpenText, AnswerValue::Text(t))
            | (TaskKind::Fill { .. }, AnswerValue::Text(t)) => {
                AnswerValue::Text(self.answer_text(t, task.difficulty, rng))
            }
            (TaskKind::Collection, AnswerValue::Items(pool)) => {
                AnswerValue::Items(self.answer_collection(pool, rng))
            }
            // crowdkit-lint: allow(PANIC001) — documented contract: a kind/truth mismatch is a dataset construction bug
            (kind, truth) => panic!(
                "task kind {} has incompatible ground truth {truth:?}",
                kind.name()
            ),
        }
    }

    /// Categorical answer: returns a label index in `0..k` given the true
    /// label `t`.
    fn answer_choice<R: Rng>(&self, t: u32, k: u32, difficulty: f64, rng: &mut R) -> u32 {
        debug_assert!(k >= 2, "choice tasks need at least 2 options");
        match &self.model {
            WorkerModel::Reliable { accuracy } => coin_answer(t, k, *accuracy, rng),
            WorkerModel::Confusion { matrix } => {
                let row = &matrix[t as usize];
                sample_categorical(row, rng) as u32
            }
            WorkerModel::Ability { ability } => {
                let p = sigmoid(ability * inverse_difficulty(difficulty));
                coin_answer(t, k, p, rng)
            }
            WorkerModel::Spammer => rng.gen_range(0..k),
            WorkerModel::Adversarial { malice } => {
                if rng.gen_bool(malice.clamp(0.0, 1.0)) {
                    wrong_label(t, k, rng)
                } else {
                    t
                }
            }
            WorkerModel::Numeric { .. } => coin_answer(t, k, 0.8, rng),
        }
    }

    fn answer_numeric<R: Rng>(&self, truth: f64, min: f64, max: f64, rng: &mut R) -> f64 {
        let range = (max - min).max(f64::EPSILON);
        let v = match &self.model {
            WorkerModel::Numeric { bias, noise } => {
                truth * (1.0 + bias) + gaussian(rng) * noise * range
            }
            WorkerModel::Spammer => min + rng.gen::<f64>() * range,
            WorkerModel::Adversarial { malice } => {
                // Pull the estimate toward the wrong end of the range.
                let wrong_end = if truth - min > max - truth { min } else { max };
                truth + (wrong_end - truth) * malice + gaussian(rng) * 0.02 * range
            }
            // Reliability p shrinks the noise: perfect workers (p=1) are
            // exact; coin-flippers (p=0.5) wander across half the range.
            WorkerModel::Reliable { accuracy } => truth + gaussian(rng) * (1.0 - accuracy) * range,
            WorkerModel::Ability { ability } => {
                let p = sigmoid(*ability);
                truth + gaussian(rng) * (1.0 - p) * range
            }
            WorkerModel::Confusion { .. } => truth + gaussian(rng) * 0.05 * range,
        };
        v.clamp(min, max)
    }

    fn answer_text<R: Rng>(&self, truth: &str, difficulty: f64, rng: &mut R) -> String {
        let p_correct = match &self.model {
            WorkerModel::Reliable { accuracy } => *accuracy,
            WorkerModel::Ability { ability } => sigmoid(ability * inverse_difficulty(difficulty)),
            WorkerModel::Spammer => 0.0,
            WorkerModel::Adversarial { malice } => 1.0 - malice,
            _ => 0.8,
        };
        if rng.gen_bool(p_correct.clamp(0.0, 1.0)) {
            truth.to_owned()
        } else {
            corrupt_text(truth, rng)
        }
    }

    /// Contributes up to 5 items sampled (without replacement per answer)
    /// from the latent pool with a head-heavy (Zipf-like) distribution —
    /// modelling that workers name common items first.
    fn answer_collection<R: Rng>(&self, pool: &[String], rng: &mut R) -> Vec<String> {
        if pool.is_empty() {
            return Vec::new();
        }
        let batch = rng.gen_range(1..=5usize.min(pool.len()));
        let skew = match &self.model {
            // Spammers contribute noise items not in the pool at all.
            WorkerModel::Spammer => {
                return (0..batch)
                    .map(|i| format!("junk-{}", rng.gen_range(0..1000) + i))
                    .collect();
            }
            WorkerModel::Reliable { accuracy } => 2.0 - accuracy, // better workers dig deeper
            _ => 1.5,
        };
        let mut chosen = Vec::with_capacity(batch);
        let mut guard = 0;
        while chosen.len() < batch && guard < 100 {
            guard += 1;
            let idx = zipf_index(pool.len(), skew, rng);
            let item = &pool[idx];
            if !chosen.contains(item) {
                chosen.push(item.clone());
            }
        }
        chosen
    }
}

/// One-coin categorical answer: true label with probability `p`, otherwise
/// uniform among the `k − 1` wrong labels.
fn coin_answer<R: Rng>(t: u32, k: u32, p: f64, rng: &mut R) -> u32 {
    if rng.gen_bool(p.clamp(0.0, 1.0)) {
        t
    } else {
        wrong_label(t, k, rng)
    }
}

/// A uniformly random label different from `t`.
fn wrong_label<R: Rng>(t: u32, k: u32, rng: &mut R) -> u32 {
    let w = rng.gen_range(0..k - 1);
    if w >= t {
        w + 1
    } else {
        w
    }
}

/// Samples an index from an (unnormalized) discrete distribution.
fn sample_categorical<R: Rng>(weights: &[f64], rng: &mut R) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "confusion-matrix row must have positive mass");
    let mut x = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Standard normal via Box–Muller (the `rand` crate alone ships no normal
/// distribution; `rand_distr` is outside the sanctioned dependency set).
pub(crate) fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples an index in `0..n` with probability ∝ `1 / (i+1)^s`.
pub(crate) fn zipf_index<R: Rng>(n: usize, s: f64, rng: &mut R) -> usize {
    debug_assert!(n > 0);
    // For the small n used in collection pools a linear scan is fine.
    let total: f64 = (1..=n).map(|i| (i as f64).powf(-s)).sum();
    let mut x = rng.gen::<f64>() * total;
    for i in 1..=n {
        x -= (i as f64).powf(-s);
        if x <= 0.0 {
            return i - 1;
        }
    }
    n - 1
}

/// Introduces a small typo into `text`: swap, drop, or duplicate one
/// character (or append one for empty/1-char strings). Used for open-text
/// noise and entity-resolution dataset generation.
pub(crate) fn corrupt_text<R: Rng>(text: &str, rng: &mut R) -> String {
    let chars: Vec<char> = text.chars().collect();
    if chars.len() < 2 {
        return format!("{text}x");
    }
    let i = rng.gen_range(0..chars.len() - 1);
    let mut out = chars.clone();
    match rng.gen_range(0..3u8) {
        0 => out.swap(i, i + 1),
        1 => {
            out.remove(i);
        }
        _ => out.insert(i, chars[i]),
    }
    let s: String = out.into_iter().collect();
    if s == text {
        format!("{s}x")
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::answer::Preference;
    use crowdkit_core::ids::{ItemId, TaskId};
    use crowdkit_core::task::Task;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn binary_task(truth: u32) -> Task {
        Task::binary(TaskId::new(0), "q").with_truth(AnswerValue::Choice(truth))
    }

    /// Empirical accuracy of a profile over n trials of a binary task.
    fn empirical_accuracy(model: WorkerModel, truth: u32, difficulty: f64, n: usize) -> f64 {
        let profile = WorkerProfile::new(WorkerId::new(0), model);
        let task = binary_task(truth).with_difficulty(difficulty);
        let mut r = rng();
        let mut correct = 0;
        for _ in 0..n {
            if profile.answer(&task, &mut r) == AnswerValue::Choice(truth) {
                correct += 1;
            }
        }
        correct as f64 / n as f64
    }

    #[test]
    fn reliable_worker_matches_nominal_accuracy() {
        let acc = empirical_accuracy(WorkerModel::Reliable { accuracy: 0.8 }, 1, 0.5, 20_000);
        assert!((acc - 0.8).abs() < 0.02, "empirical {acc} vs nominal 0.8");
    }

    #[test]
    fn spammer_is_at_chance() {
        let acc = empirical_accuracy(WorkerModel::Spammer, 0, 0.5, 20_000);
        assert!((acc - 0.5).abs() < 0.02, "empirical {acc} vs chance 0.5");
    }

    #[test]
    fn adversarial_worker_is_below_chance() {
        let acc = empirical_accuracy(WorkerModel::Adversarial { malice: 0.9 }, 1, 0.5, 20_000);
        assert!((acc - 0.1).abs() < 0.02, "empirical {acc} vs nominal 0.1");
    }

    #[test]
    fn ability_worker_degrades_with_difficulty() {
        let easy = empirical_accuracy(WorkerModel::Ability { ability: 2.0 }, 1, 0.1, 20_000);
        let hard = empirical_accuracy(WorkerModel::Ability { ability: 2.0 }, 1, 0.9, 20_000);
        assert!(
            easy > hard + 0.1,
            "easy tasks ({easy}) should be answered much better than hard ones ({hard})"
        );
    }

    #[test]
    fn confusion_matrix_worker_follows_rows() {
        // Worker always says label 1 whatever the truth.
        let model = WorkerModel::Confusion {
            matrix: vec![vec![0.0, 1.0], vec![0.0, 1.0]],
        };
        let profile = WorkerProfile::new(WorkerId::new(0), model);
        let mut r = rng();
        for truth in 0..2u32 {
            let task = binary_task(truth);
            for _ in 0..100 {
                assert_eq!(profile.answer(&task, &mut r), AnswerValue::Choice(1));
            }
        }
    }

    #[test]
    fn numeric_worker_stays_in_range_and_near_truth() {
        let profile = WorkerProfile::new(
            WorkerId::new(0),
            WorkerModel::Numeric {
                bias: 0.0,
                noise: 0.05,
            },
        );
        let task = Task::new(
            TaskId::new(0),
            TaskKind::Numeric {
                min: 0.0,
                max: 100.0,
            },
            "how many",
        )
        .with_truth(AnswerValue::Number(40.0));
        let mut r = rng();
        let mut sum = 0.0;
        for _ in 0..5_000 {
            let v = profile.answer(&task, &mut r).as_number().unwrap();
            assert!((0.0..=100.0).contains(&v));
            sum += v;
        }
        let mean = sum / 5_000.0;
        assert!(
            (mean - 40.0).abs() < 1.0,
            "unbiased worker mean {mean} ≈ 40"
        );
    }

    #[test]
    fn pairwise_answers_flip_with_error() {
        let profile = WorkerProfile::new(WorkerId::new(0), WorkerModel::Reliable { accuracy: 1.0 });
        let task = Task::pairwise(TaskId::new(0), ItemId::new(0), ItemId::new(1))
            .with_truth(AnswerValue::Prefer(Preference::Left));
        let mut r = rng();
        assert_eq!(
            profile.answer(&task, &mut r),
            AnswerValue::Prefer(Preference::Left)
        );
        let bad = WorkerProfile::new(WorkerId::new(1), WorkerModel::Adversarial { malice: 1.0 });
        assert_eq!(
            bad.answer(&task, &mut r),
            AnswerValue::Prefer(Preference::Right)
        );
    }

    #[test]
    fn text_worker_corrupts_when_wrong() {
        let profile = WorkerProfile::new(WorkerId::new(0), WorkerModel::Reliable { accuracy: 0.0 });
        let task = Task::new(TaskId::new(0), TaskKind::OpenText, "capital of France?")
            .with_truth(AnswerValue::Text("Paris".into()));
        let mut r = rng();
        let v = profile.answer(&task, &mut r);
        let text = v.as_text().unwrap();
        assert_ne!(text, "Paris", "always-wrong worker must not return truth");
    }

    #[test]
    fn collection_worker_draws_from_pool() {
        let pool: Vec<String> = (0..20).map(|i| format!("item{i}")).collect();
        let profile = WorkerProfile::new(WorkerId::new(0), WorkerModel::Reliable { accuracy: 0.9 });
        let task = Task::new(TaskId::new(0), TaskKind::Collection, "name items")
            .with_truth(AnswerValue::Items(pool.clone()));
        let mut r = rng();
        for _ in 0..50 {
            let items = profile.answer(&task, &mut r);
            let items = items.as_items().unwrap();
            assert!(!items.is_empty() && items.len() <= 5);
            for it in items {
                assert!(pool.contains(it));
            }
        }
    }

    #[test]
    fn spammer_collection_answers_are_junk() {
        let pool: Vec<String> = (0..5).map(|i| format!("item{i}")).collect();
        let profile = WorkerProfile::new(WorkerId::new(0), WorkerModel::Spammer);
        let task = Task::new(TaskId::new(0), TaskKind::Collection, "name items")
            .with_truth(AnswerValue::Items(pool.clone()));
        let mut r = rng();
        let items = profile.answer(&task, &mut r);
        for it in items.as_items().unwrap() {
            assert!(!pool.contains(it));
        }
    }

    #[test]
    fn true_quality_reflects_models() {
        assert_eq!(WorkerModel::Reliable { accuracy: 0.7 }.true_quality(), 0.7);
        assert_eq!(WorkerModel::Spammer.true_quality(), 0.5);
        assert!((WorkerModel::Adversarial { malice: 0.8 }.true_quality() - 0.2).abs() < 1e-12);
        let cm = WorkerModel::Confusion {
            matrix: vec![vec![0.9, 0.1], vec![0.3, 0.7]],
        };
        assert!((cm.true_quality() - 0.8).abs() < 1e-12);
        assert!(WorkerModel::Ability { ability: 2.0 }.true_quality() > 0.8);
    }

    #[test]
    fn gaussian_has_roughly_standard_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..50_000).map(|_| gaussian(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn zipf_is_head_heavy() {
        let mut r = rng();
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[zipf_index(10, 1.5, &mut r)] += 1;
        }
        assert!(
            counts[0] > counts[9] * 3,
            "head {} tail {}",
            counts[0],
            counts[9]
        );
    }

    #[test]
    fn corrupt_text_always_differs() {
        let mut r = rng();
        for s in ["Paris", "ab", "a", ""] {
            for _ in 0..50 {
                assert_ne!(corrupt_text(s, &mut r), s);
            }
        }
    }
}
