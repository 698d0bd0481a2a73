//! Synthetic ground-truth dataset generators.
//!
//! Published crowdsourcing evaluations use proprietary datasets (product
//! pairs, image labels, tweet collections). These generators are the
//! substitution: they produce datasets with *controlled* ground truth and
//! the same statistical knobs the published results depend on — label
//! skew, task difficulty spread, entity-cluster sizes with typo noise,
//! latent total orders, and Zipf-distributed open worlds.

use crowdkit_core::answer::{AnswerValue, Preference};
use crowdkit_core::ids::{IdGen, ItemId, TaskId};
use crowdkit_core::label::LabelSpace;
use crowdkit_core::task::{Task, TaskKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::worker::corrupt_text;

// ---------------------------------------------------------------------------
// Labeling datasets (experiments E1, E2, E5, E8)
// ---------------------------------------------------------------------------

/// A batch of classification tasks with known truth.
#[derive(Debug, Clone)]
pub struct LabelingDataset {
    /// The tasks, with ground truth attached.
    pub tasks: Vec<Task>,
    /// The true label per task (aligned with `tasks`).
    pub truths: Vec<u32>,
    /// The shared label space.
    pub labels: LabelSpace,
}

impl LabelingDataset {
    /// Generates `n` single-choice tasks over `k` labels.
    ///
    /// * True labels are drawn from a categorical distribution with the
    ///   first label carrying `skew` of the mass and the rest uniform
    ///   (`skew = 1/k` → uniform labels).
    /// * Difficulties are drawn uniformly from `difficulty`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `k < 2`.
    pub fn generate(n: usize, k: usize, skew: f64, difficulty: (f64, f64), seed: u64) -> Self {
        assert!(n > 0, "need at least one task");
        assert!(k >= 2, "need at least two labels");
        let mut rng = StdRng::seed_from_u64(seed);
        let labels = LabelSpace::anonymous(k);
        let mut ids = IdGen::new();
        let mut tasks = Vec::with_capacity(n);
        let mut truths = Vec::with_capacity(n);
        let rest = ((1.0 - skew) / (k - 1) as f64).max(0.0);
        for i in 0..n {
            let u: f64 = rng.gen();
            let truth = if u < skew {
                0u32
            } else {
                let mut x = u - skew;
                let mut lbl = 1u32;
                while lbl < (k - 1) as u32 && x >= rest {
                    x -= rest;
                    lbl += 1;
                }
                lbl
            };
            let (dlo, dhi) = difficulty;
            let d = if (dhi - dlo).abs() < f64::EPSILON {
                dlo
            } else {
                rng.gen_range(dlo.min(dhi)..=dlo.max(dhi))
            };
            let task = Task::new(
                ids.next_task(),
                TaskKind::SingleChoice {
                    labels: labels.clone(),
                },
                format!("classify item #{i}"),
            )
            .with_difficulty(d)
            .with_truth(AnswerValue::Choice(truth));
            tasks.push(task);
            truths.push(truth);
        }
        Self {
            tasks,
            truths,
            labels,
        }
    }

    /// Uniform-label binary dataset with mid-range difficulty — the default
    /// workload of the truth-inference experiments.
    pub fn binary(n: usize, seed: u64) -> Self {
        Self::generate(n, 2, 0.5, (0.3, 0.7), seed)
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if the dataset has no tasks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Entity-resolution datasets (experiments E3, E12)
// ---------------------------------------------------------------------------

/// One record in an entity-resolution dataset: a dirty textual description
/// of some underlying entity.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityRecord {
    /// The record's id.
    pub id: ItemId,
    /// The latent entity this record refers to (ground truth).
    pub entity: usize,
    /// The record's dirty text.
    pub text: String,
}

/// A dataset of records referring to duplicated entities.
#[derive(Debug, Clone)]
pub struct EntityDataset {
    /// All records.
    pub records: Vec<EntityRecord>,
    /// Number of distinct latent entities.
    pub num_entities: usize,
}

impl EntityDataset {
    /// Generates records over `num_entities` entities; each entity gets
    /// `1..=max_dups` records. Each record is the entity's canonical name
    /// with `typos` independent corruption passes applied.
    ///
    /// Canonical names are multi-token ("brand-{e} model-{e} v{e%7}") so
    /// token-based blocking behaves like it does on product data.
    ///
    /// # Panics
    /// Panics if `num_entities == 0` or `max_dups == 0`.
    pub fn generate(num_entities: usize, max_dups: usize, typos: usize, seed: u64) -> Self {
        assert!(num_entities > 0, "need at least one entity");
        assert!(max_dups > 0, "need at least one record per entity");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids = IdGen::new();
        let mut records = Vec::new();
        for e in 0..num_entities {
            let canonical = format!("brand{} model{} v{}", e % 17, e, e % 7);
            let dups = rng.gen_range(1..=max_dups);
            for _ in 0..dups {
                let mut text = canonical.clone();
                for _ in 0..typos {
                    if rng.gen_bool(0.5) {
                        text = corrupt_text(&text, &mut rng);
                    }
                }
                records.push(EntityRecord {
                    id: ids.next_item(),
                    entity: e,
                    text,
                });
            }
        }
        Self {
            records,
            num_entities,
        }
    }

    /// Ground-truth cluster id per record, aligned with `records`.
    pub fn truth_clusters(&self) -> Vec<usize> {
        self.records.iter().map(|r| r.entity).collect()
    }

    /// Whether two record indices refer to the same entity.
    pub fn same_entity(&self, a: usize, b: usize) -> bool {
        self.records[a].entity == self.records[b].entity
    }
}

// ---------------------------------------------------------------------------
// Ranking datasets (experiment E4)
// ---------------------------------------------------------------------------

/// Items with a latent total order, for sort/top-k experiments.
#[derive(Debug, Clone)]
pub struct RankingDataset {
    /// Item ids `0..n`.
    pub items: Vec<ItemId>,
    /// Latent score per item (higher = ranks higher); aligned with `items`.
    pub scores: Vec<f64>,
}

impl RankingDataset {
    /// Generates `n` items with distinct latent scores drawn uniformly from
    /// `(0, 1)` (ties broken by construction: scores are strictly ordered
    /// after adding a small per-index offset).
    ///
    /// # Panics
    /// Panics if `n < 2`.
    pub fn generate(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "ranking needs at least two items");
        let mut rng = StdRng::seed_from_u64(seed);
        let items: Vec<ItemId> = (0..n as u64).map(ItemId::new).collect();
        let scores: Vec<f64> = (0..n)
            .map(|i| rng.gen::<f64>() + i as f64 * 1e-12)
            .collect();
        Self { items, scores }
    }

    /// Builds the pairwise comparison task between items at indices `a` and
    /// `b`, with ground truth derived from the latent scores and difficulty
    /// derived from the score gap (close scores = hard comparisons).
    pub fn comparison_task(&self, task_id: TaskId, a: usize, b: usize) -> Task {
        let truth = if self.scores[a] > self.scores[b] {
            Preference::Left
        } else {
            Preference::Right
        };
        let gap = (self.scores[a] - self.scores[b]).abs();
        // Gap 0 → difficulty 0.95 (near coin-flip); gap 1 → difficulty 0.05.
        let difficulty = (0.95 - 0.9 * gap.min(1.0)).clamp(0.0, 1.0);
        Task::pairwise(task_id, self.items[a], self.items[b])
            .with_difficulty(difficulty)
            .with_truth(AnswerValue::Prefer(truth))
    }

    /// The true ranking as positions: `position[i]` = rank of item `i`
    /// (0 = best).
    pub fn true_positions(&self) -> Vec<usize> {
        let n = self.items.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&x, &y| self.scores[y].total_cmp(&self.scores[x]));
        let mut pos = vec![0usize; n];
        for (rank, &item) in order.iter().enumerate() {
            pos[item] = rank;
        }
        pos
    }

    /// Index of the true maximum item.
    pub fn true_max(&self) -> usize {
        self.scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty by construction") // crowdkit-lint: allow(PANIC001) — constructor asserts n >= 2, so scores is never empty
    }
}

// ---------------------------------------------------------------------------
// Open-world collection pools (experiment E7)
// ---------------------------------------------------------------------------

/// A latent open world of distinct items for enumeration experiments.
#[derive(Debug, Clone)]
pub struct CollectionPool {
    /// The full latent pool (the "species" in species-estimation terms).
    pub items: Vec<String>,
}

impl CollectionPool {
    /// Generates a pool of `n` distinct items.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn generate(n: usize, _seed: u64) -> Self {
        assert!(n > 0, "pool must be non-empty");
        Self {
            items: (0..n).map(|i| format!("species-{i:04}")).collect(),
        }
    }

    /// The collection task whose latent truth is this pool. Workers sample
    /// head-heavily from the pool (see `WorkerProfile::answer`), so rare
    /// items take many answers to surface — exactly the regime species
    /// estimators are built for.
    pub fn task(&self, id: TaskId) -> Task {
        Task::new(id, TaskKind::Collection, "enumerate the items")
            .with_truth(AnswerValue::Items(self.items.clone()))
    }

    /// True species richness.
    pub fn richness(&self) -> usize {
        self.items.len()
    }
}

// ---------------------------------------------------------------------------
// Numeric estimation datasets (experiment E6)
// ---------------------------------------------------------------------------

/// A population of binary ground-truth facts for sampling-based COUNT
/// estimation ("how many of these 10 000 photos contain a dog?").
#[derive(Debug, Clone)]
pub struct CountingDataset {
    /// Per-item boolean ground truth.
    pub flags: Vec<bool>,
    /// Tasks asking the crowd to verify individual items (binary label:
    /// 1 = positive).
    pub tasks: Vec<Task>,
}

impl CountingDataset {
    /// Generates `n` items, each positive with probability `prevalence`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `prevalence` is outside `[0, 1]`.
    pub fn generate(n: usize, prevalence: f64, seed: u64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!(
            (0.0..=1.0).contains(&prevalence),
            "prevalence must be a probability"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids = IdGen::new();
        let mut flags = Vec::with_capacity(n);
        let mut tasks = Vec::with_capacity(n);
        for i in 0..n {
            let positive = rng.gen_bool(prevalence);
            flags.push(positive);
            tasks.push(
                Task::binary(ids.next_task(), format!("does item #{i} qualify?"))
                    .with_truth(AnswerValue::Choice(positive as u32)),
            );
        }
        Self { flags, tasks }
    }

    /// The true count of positive items.
    pub fn true_count(&self) -> usize {
        self.flags.iter().filter(|&&f| f).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeling_dataset_has_valid_truths_and_difficulties() {
        let d = LabelingDataset::generate(200, 4, 0.25, (0.2, 0.8), 1);
        assert_eq!(d.len(), 200);
        for (task, &truth) in d.tasks.iter().zip(&d.truths) {
            assert!(truth < 4);
            assert!((0.2..=0.8).contains(&task.difficulty));
            assert_eq!(task.truth, Some(AnswerValue::Choice(truth)));
        }
    }

    #[test]
    fn labeling_skew_shifts_mass_to_first_label() {
        let d = LabelingDataset::generate(5_000, 3, 0.8, (0.5, 0.5), 2);
        let zero = d.truths.iter().filter(|&&t| t == 0).count() as f64 / 5_000.0;
        assert!((zero - 0.8).abs() < 0.03, "label-0 share {zero}");
    }

    #[test]
    fn labeling_dataset_deterministic_per_seed() {
        let a = LabelingDataset::binary(100, 9);
        let b = LabelingDataset::binary(100, 9);
        assert_eq!(a.truths, b.truths);
    }

    #[test]
    fn entity_dataset_clusters_and_noise() {
        let d = EntityDataset::generate(50, 4, 2, 3);
        assert!(d.records.len() >= 50);
        assert_eq!(d.num_entities, 50);
        // Ids are dense and unique.
        for (i, r) in d.records.iter().enumerate() {
            assert_eq!(r.id.index(), i);
        }
        // Every entity referenced at least once.
        let mut seen = [false; 50];
        for r in &d.records {
            seen[r.entity] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(d.truth_clusters().len(), d.records.len());
    }

    #[test]
    fn entity_same_entity_agrees_with_truth() {
        let d = EntityDataset::generate(10, 3, 1, 4);
        for i in 0..d.records.len() {
            for j in 0..d.records.len() {
                assert_eq!(
                    d.same_entity(i, j),
                    d.records[i].entity == d.records[j].entity
                );
            }
        }
    }

    #[test]
    fn ranking_dataset_positions_invert_scores() {
        let d = RankingDataset::generate(20, 5);
        let pos = d.true_positions();
        // The best item has position 0 and the max score.
        let best = pos.iter().position(|&p| p == 0).unwrap();
        assert_eq!(best, d.true_max());
        // Positions are a permutation.
        let mut sorted = pos.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn comparison_task_truth_and_difficulty() {
        let d = RankingDataset {
            items: vec![ItemId::new(0), ItemId::new(1)],
            scores: vec![0.9, 0.1],
        };
        let t = d.comparison_task(TaskId::new(0), 0, 1);
        assert_eq!(t.truth, Some(AnswerValue::Prefer(Preference::Left)));
        // Gap 0.8 → difficulty 0.95 − 0.72 = 0.23.
        assert!((t.difficulty - 0.23).abs() < 1e-9);
        let t2 = d.comparison_task(TaskId::new(1), 1, 0);
        assert_eq!(t2.truth, Some(AnswerValue::Prefer(Preference::Right)));
    }

    #[test]
    fn collection_pool_task_carries_full_pool() {
        let p = CollectionPool::generate(30, 0);
        assert_eq!(p.richness(), 30);
        let t = p.task(TaskId::new(0));
        assert_eq!(t.truth.as_ref().unwrap().as_items().unwrap().len(), 30);
    }

    #[test]
    fn counting_dataset_prevalence_matches() {
        let d = CountingDataset::generate(10_000, 0.3, 7);
        let frac = d.true_count() as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02, "prevalence {frac}");
        // Tasks' truths agree with flags.
        for (task, &flag) in d.tasks.iter().zip(&d.flags) {
            assert_eq!(task.truth, Some(AnswerValue::Choice(flag as u32)));
        }
    }
}
