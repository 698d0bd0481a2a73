//! Crowd verification of candidate pairs with transitivity deduction.

use std::collections::HashSet;

use crowdkit_core::ask::AskRequest;
use crowdkit_core::error::Result;
use crowdkit_core::ids::{IdGen, TaskId};
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::blocking::CandidatePair;
use super::cluster::ConstraintClustering;
use crate::reconcile::yes_majority;

/// In what order candidate pairs are put to the crowd. Order is the lever
/// of experiment E12: similarity-descending order front-loads likely
/// matches, which creates clusters early and lets transitivity answer the
/// rest for free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AskOrder {
    /// As produced by blocking (descending similarity).
    SimilarityDesc,
    /// Uniformly shuffled with the given seed.
    Random(u64),
    /// Exactly the order given in the input slice.
    Input,
}

/// Configuration of a crowd join run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinConfig {
    /// Crowd votes purchased per asked pair; the pair verdict is the
    /// majority (ties → non-match, the conservative call).
    pub votes_per_pair: u32,
    /// Whether to deduce answers via transitivity instead of asking.
    pub use_transitivity: bool,
    /// Ask order.
    pub order: AskOrder,
}

impl Default for JoinConfig {
    fn default() -> Self {
        Self {
            votes_per_pair: 3,
            use_transitivity: true,
            order: AskOrder::SimilarityDesc,
        }
    }
}

/// The outcome of a crowd join.
#[derive(Debug, Clone)]
pub struct JoinOutcome {
    /// Cluster label per record (dense, deterministic).
    pub clusters: Vec<usize>,
    /// Pairs actually put to the crowd.
    pub pairs_asked: usize,
    /// Pairs answered "same" by positive transitivity (never asked).
    pub deduced_same: usize,
    /// Pairs answered "different" by negative transitivity (never asked).
    pub deduced_different: usize,
    /// Crowd answers purchased in total.
    pub questions_asked: usize,
    /// Pairs whose crowd verdict contradicted an existing constraint and
    /// was discarded (noisy-crowd bookkeeping).
    pub contradictions: usize,
    /// Pairs put to the crowd that no worker was left to answer. They
    /// stay undecided: neither asked nor deduced, and no verdict of theirs
    /// reaches the clustering.
    pub pairs_without_worker: usize,
}

/// Resolves entities among `n_records` records by crowd-verifying
/// `candidates`.
///
/// Verification is batched in *waves*: each wave takes, in ask order, every
/// pair that is not yet deducible and whose two current clusters are
/// untouched by earlier pairs of the same wave, and submits them as one
/// platform batch. Cluster-disjointness makes the wave's verdicts mutually
/// independent, so batching preserves the exact transitivity-deduction
/// semantics of asking one pair at a time — while independent pairs
/// overlap in crowd latency. (With transitivity off, all pairs form one
/// wave.)
///
/// `make_task` builds the binary verification task for a record pair
/// (label 1 = "same entity"); in simulation it attaches the latent truth,
/// against a live platform it would render the two records side by side.
pub fn crowd_join<O, F>(
    oracle: &O,
    n_records: usize,
    candidates: &[CandidatePair],
    mut make_task: F,
    config: &JoinConfig,
) -> Result<JoinOutcome>
where
    O: CrowdOracle + ?Sized,
    F: FnMut(TaskId, usize, usize) -> Task,
{
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    match config.order {
        AskOrder::SimilarityDesc => {
            order.sort_by(|&x, &y| {
                candidates[y]
                    .similarity
                    .total_cmp(&candidates[x].similarity)
                    .then_with(|| {
                        (candidates[x].a, candidates[x].b).cmp(&(candidates[y].a, candidates[y].b))
                    })
            });
        }
        AskOrder::Random(seed) => {
            order.shuffle(&mut StdRng::seed_from_u64(seed));
        }
        AskOrder::Input => {}
    }

    let mut clustering = ConstraintClustering::new(n_records);
    let mut ids = IdGen::new();
    let mut pairs_asked = 0usize;
    let mut deduced_same = 0usize;
    let mut deduced_different = 0usize;
    let mut questions = 0usize;
    let mut contradictions = 0usize;
    let mut pairs_without_worker = 0usize;

    let mut pending = order;
    'waves: while !pending.is_empty() {
        // Select the next wave: skip deducible pairs, defer pairs whose
        // clusters were already touched this wave (their answer could
        // become deducible from a verdict in flight).
        let mut wave: Vec<usize> = Vec::new();
        let mut touched: HashSet<usize> = HashSet::new();
        let mut deferred: Vec<usize> = Vec::new();
        for &idx in &pending {
            let CandidatePair { a, b, .. } = candidates[idx];
            if config.use_transitivity {
                if clustering.known_same(a, b) {
                    deduced_same += 1;
                    continue;
                }
                if clustering.known_different(a, b) {
                    deduced_different += 1;
                    continue;
                }
                let (ra, rb) = (clustering.find(a), clustering.find(b));
                if touched.contains(&ra) || touched.contains(&rb) {
                    deferred.push(idx);
                    continue;
                }
                touched.insert(ra);
                touched.insert(rb);
            }
            wave.push(idx);
        }
        if wave.is_empty() {
            break;
        }

        let tasks: Vec<Task> = wave
            .iter()
            .map(|&idx| {
                let CandidatePair { a, b, .. } = candidates[idx];
                make_task(ids.next_task(), a, b)
            })
            .collect();
        let reqs: Vec<AskRequest<'_>> = tasks
            .iter()
            .map(|t| AskRequest::new(t).with_redundancy(config.votes_per_pair.max(1) as usize))
            .collect();
        let outcomes = oracle.ask_batch(&reqs)?;

        for (&idx, out) in wave.iter().zip(&outcomes) {
            out.check()?;
            if out.answers.is_empty() {
                if out.stopped_by_budget() {
                    // Nothing bought for this pair: the budget is dead; stop.
                    break 'waves;
                }
                // No worker left for this pair: it stays undecided.
                pairs_without_worker += 1;
                continue;
            }
            questions += out.answers.len();
            pairs_asked += 1;

            let CandidatePair { a, b, .. } = candidates[idx];
            let applied = if yes_majority(&out.answers) {
                clustering.record_same(a, b)
            } else {
                clustering.record_different(a, b)
            };
            if !applied {
                contradictions += 1;
            }
        }
        pending = deferred;
    }

    Ok(JoinOutcome {
        clusters: clustering.labels(),
        pairs_asked,
        deduced_same,
        deduced_different,
        questions_asked: questions,
        contradictions,
        pairs_without_worker,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::answer::{Answer, AnswerValue};
    use crowdkit_core::budget::Budget;
    use crowdkit_core::error::CrowdError;
    use crowdkit_core::ids::WorkerId;
    use std::cell::{Cell, RefCell};

    /// Oracle answering each pair task with its attached truth.
    struct TruthfulOracle {
        budget: RefCell<Budget>,
        next_worker: Cell<u64>,
        delivered: Cell<u64>,
    }

    impl TruthfulOracle {
        fn new(limit: f64) -> Self {
            Self {
                budget: RefCell::new(Budget::new(limit)),
                next_worker: Cell::new(0),
                delivered: Cell::new(0),
            }
        }
    }

    impl CrowdOracle for TruthfulOracle {
        fn ask_one(&self, task: &Task) -> Result<Answer> {
            self.budget.borrow_mut().debit(1.0)?;
            self.delivered.set(self.delivered.get() + 1);
            let w = WorkerId::new(self.next_worker.get());
            self.next_worker.set(self.next_worker.get() + 1);
            Ok(Answer::bare(task.id, w, task.truth.clone().unwrap()))
        }
        fn remaining_budget(&self) -> Option<f64> {
            Some(self.budget.borrow().remaining())
        }
        fn answers_delivered(&self) -> u64 {
            self.delivered.get()
        }
    }

    /// Ground truth: records 0,1,2 are entity X; records 3,4 are entity Y.
    fn entity_of(r: usize) -> usize {
        if r <= 2 {
            0
        } else {
            1
        }
    }

    fn make_task_factory() -> impl FnMut(TaskId, usize, usize) -> Task {
        |id, a, b| {
            Task::binary(id, format!("same? {a} vs {b}"))
                .with_truth(AnswerValue::Choice((entity_of(a) == entity_of(b)) as u32))
        }
    }

    fn pairs(all: &[(usize, usize)]) -> Vec<CandidatePair> {
        all.iter()
            .map(|&(a, b)| CandidatePair {
                a,
                b,
                similarity: 0.5,
            })
            .collect()
    }

    /// All 10 pairs over 5 records, in an order that lets transitivity
    /// shine when enabled.
    fn all_pairs() -> Vec<CandidatePair> {
        let mut v = Vec::new();
        for a in 0..5 {
            for b in (a + 1)..5 {
                v.push(CandidatePair {
                    a,
                    b,
                    similarity: if entity_of(a) == entity_of(b) {
                        0.9
                    } else {
                        0.1
                    },
                });
            }
        }
        v
    }

    #[test]
    fn clusters_match_ground_truth_with_truthful_crowd() {
        let oracle = TruthfulOracle::new(1e9);
        let out = crowd_join(
            &oracle,
            5,
            &all_pairs(),
            make_task_factory(),
            &JoinConfig::default(),
        )
        .unwrap();
        assert_eq!(out.clusters[0], out.clusters[1]);
        assert_eq!(out.clusters[1], out.clusters[2]);
        assert_eq!(out.clusters[3], out.clusters[4]);
        assert_ne!(out.clusters[0], out.clusters[3]);
        assert_eq!(out.contradictions, 0);
    }

    #[test]
    fn transitivity_reduces_pairs_asked() {
        let run = |use_transitivity: bool| -> JoinOutcome {
            let oracle = TruthfulOracle::new(1e9);
            crowd_join(
                &oracle,
                5,
                &all_pairs(),
                make_task_factory(),
                &JoinConfig {
                    use_transitivity,
                    votes_per_pair: 1,
                    order: AskOrder::SimilarityDesc,
                },
            )
            .unwrap()
        };
        let with = run(true);
        let without = run(false);
        assert_eq!(without.pairs_asked, 10);
        assert!(
            with.pairs_asked < without.pairs_asked,
            "transitivity asked {} vs {}",
            with.pairs_asked,
            without.pairs_asked
        );
        assert!(with.deduced_same + with.deduced_different > 0);
        // Same clustering either way.
        assert_eq!(with.clusters, without.clusters);
    }

    #[test]
    fn similarity_order_maximizes_deductions_on_this_instance() {
        // With similarity-desc order, the 4 intra-entity pairs (sim 0.9)
        // come first: 0-1, 0-2 asked, 1-2 deduced, 3-4 asked. Then one
        // cross pair fixes cluster-vs-cluster, and the remaining 5 cross
        // pairs are all deduced negative.
        let oracle = TruthfulOracle::new(1e9);
        let out = crowd_join(
            &oracle,
            5,
            &all_pairs(),
            make_task_factory(),
            &JoinConfig {
                votes_per_pair: 1,
                use_transitivity: true,
                order: AskOrder::SimilarityDesc,
            },
        )
        .unwrap();
        assert_eq!(out.pairs_asked, 4, "3 must-links + 1 cross ask");
        assert_eq!(out.deduced_same, 1);
        assert_eq!(out.deduced_different, 5);
    }

    #[test]
    fn votes_per_pair_multiplies_cost() {
        let oracle = TruthfulOracle::new(1e9);
        let out = crowd_join(
            &oracle,
            5,
            &pairs(&[(0, 1), (3, 4)]),
            make_task_factory(),
            &JoinConfig {
                votes_per_pair: 5,
                use_transitivity: true,
                order: AskOrder::Input,
            },
        )
        .unwrap();
        assert_eq!(out.pairs_asked, 2);
        assert_eq!(out.questions_asked, 10);
    }

    #[test]
    fn budget_exhaustion_stops_gracefully() {
        let oracle = TruthfulOracle::new(3.0);
        let out = crowd_join(
            &oracle,
            5,
            &all_pairs(),
            make_task_factory(),
            &JoinConfig {
                votes_per_pair: 1,
                use_transitivity: true,
                order: AskOrder::SimilarityDesc,
            },
        )
        .unwrap();
        assert_eq!(out.questions_asked, 3);
        // Clustering is whatever was learned so far — still a valid labeling.
        assert_eq!(out.clusters.len(), 5);
    }

    #[test]
    fn a_pair_without_workers_keeps_the_verdicts_bought_for_the_rest() {
        /// Answers "same" to every pair, except that no worker is left
        /// for task 0.
        struct NoWorkerForFirst(Cell<u64>);
        impl CrowdOracle for NoWorkerForFirst {
            fn ask_one(&self, task: &Task) -> Result<Answer> {
                if task.id == TaskId::new(0) {
                    return Err(CrowdError::NoWorkerAvailable);
                }
                let n = self.0.get();
                self.0.set(n + 1);
                Ok(Answer::bare(
                    task.id,
                    WorkerId::new(n),
                    AnswerValue::Choice(1),
                ))
            }
            fn remaining_budget(&self) -> Option<f64> {
                None
            }
            fn answers_delivered(&self) -> u64 {
                self.0.get()
            }
        }
        let oracle = NoWorkerForFirst(Cell::new(0));
        let out = crowd_join(
            &oracle,
            4,
            &pairs(&[(0, 1), (2, 3)]),
            |id, a, b| Task::binary(id, format!("same? {a} vs {b}")),
            &JoinConfig {
                order: AskOrder::Input,
                ..JoinConfig::default()
            },
        )
        .unwrap();
        assert_eq!(oracle.answers_delivered(), 3);
        assert_eq!(out.questions_asked, 3, "every bought verdict is counted");
        assert_eq!(out.pairs_asked, 1);
        assert_eq!(out.pairs_without_worker, 1, "the starved pair is counted");
        assert_eq!(
            out.clusters[2], out.clusters[3],
            "the bought verdict is applied"
        );
        assert_ne!(out.clusters[0], out.clusters[1]);
    }

    #[test]
    fn lying_crowd_on_one_pair_yields_contradiction_bookkeeping() {
        // Oracle answers truth except for pair (0,2), where it lies "no".
        struct LyingOracle {
            n: Cell<u64>,
        }
        impl CrowdOracle for LyingOracle {
            fn ask_one(&self, task: &Task) -> Result<Answer> {
                let n = self.n.get() + 1;
                self.n.set(n);
                let lie = task.prompt.contains("0 vs 2");
                let truth = task.truth.clone().unwrap();
                let value = if lie { AnswerValue::Choice(0) } else { truth };
                Ok(Answer::bare(task.id, WorkerId::new(n), value))
            }
            fn remaining_budget(&self) -> Option<f64> {
                None
            }
            fn answers_delivered(&self) -> u64 {
                self.n.get()
            }
        }
        // Input order chosen so 0-1 and 1-2 merge first; the lying answer
        // on 0-2 then contradicts positive transitivity. Transitivity off
        // so the pair actually gets asked.
        let cand = pairs(&[(0, 1), (1, 2), (0, 2)]);
        let oracle = LyingOracle { n: Cell::new(0) };
        let out = crowd_join(
            &oracle,
            3,
            &cand,
            make_task_factory(),
            &JoinConfig {
                votes_per_pair: 1,
                use_transitivity: false,
                order: AskOrder::Input,
            },
        )
        .unwrap();
        assert_eq!(out.contradictions, 1);
        // The cluster stays merged (first verdicts win).
        assert_eq!(out.clusters[0], out.clusters[2]);
    }

    #[test]
    fn propagates_non_resource_errors() {
        struct BrokenOracle;
        impl CrowdOracle for BrokenOracle {
            fn ask_one(&self, _: &Task) -> Result<Answer> {
                Err(CrowdError::Execution("wire fault".into()))
            }
            fn remaining_budget(&self) -> Option<f64> {
                None
            }
            fn answers_delivered(&self) -> u64 {
                0
            }
        }
        let oracle = BrokenOracle;
        let err = crowd_join(
            &oracle,
            3,
            &pairs(&[(0, 1)]),
            make_task_factory(),
            &JoinConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CrowdError::Execution(_)));
    }
}
