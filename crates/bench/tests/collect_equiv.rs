//! `label_tasks_adaptive` and `crowd_filter` collect through
//! `run_assignment` under `UntilStopped`. The loop
//! `label_tasks_adaptive` ran before that is kept verbatim below as the
//! reference, and the property pins `run_assignment` to it on random inputs:
//! the same answers from the same workers in the same order, the same
//! votes, the same platform spend, clock and delivery count, and the same
//! error when one side fails. Small pools run out of workers and small
//! budgets die mid-wave, so the exhaustion paths are covered too.
//!
//! Two behaviours differ from the reference on purpose and are pinned
//! here on their own: a rule that stops at zero answers buys nothing (the
//! reference asked every task once before it consulted the rule), and a
//! task set that is not single-choice over one label space is rejected
//! before anything is bought.

use crowdkit_core::budget::Budget;
use crowdkit_core::error::CrowdError;
use crowdkit_core::ids::TaskId;
use crowdkit_core::label::LabelSpace;
use crowdkit_core::task::{Task, TaskKind};
use crowdkit_core::traits::{CrowdOracle, StoppingRule};
use crowdkit_ops::filter::{crowd_filter, FilterDecision};
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::population::mixes;
use crowdkit_sim::{PlatformBuilder, SimulatedCrowd};
use crowdkit_truth::pipeline::{label_tasks, label_tasks_adaptive, PipelineOutcome};
use crowdkit_truth::sequential::{FixedK, MajorityMargin, Sprt};
use crowdkit_truth::MajorityVote;
use proptest::prelude::*;

/// The collection loop of `label_tasks_adaptive` before it moved onto
/// `run_assignment`, kept verbatim (modulo returning the votes beside
/// the outcome, and being a test function) — do not "simplify" this
/// module.
mod reference {
    use crowdkit_core::ask::AskRequest;
    use crowdkit_core::error::Result;
    use crowdkit_core::response::ResponseMatrix;
    use crowdkit_core::task::Task;
    use crowdkit_core::traits::{CrowdOracle, StoppingRule};

    /// What the loop bought: the matrix, the per-task votes in input
    /// order, and the answer count.
    pub struct Collected {
        pub matrix: ResponseMatrix,
        pub votes: Vec<Vec<u32>>,
        pub bought: usize,
    }

    pub fn collect<O, R>(
        oracle: &O,
        tasks: &[Task],
        rule: &R,
        max_answers: u32,
    ) -> Result<Collected>
    where
        O: CrowdOracle + ?Sized,
        R: StoppingRule + ?Sized,
    {
        let num_labels = tasks.iter().filter_map(Task::num_labels).max().unwrap_or(2);
        let mut matrix = ResponseMatrix::new(num_labels);
        let mut votes: Vec<Vec<u32>> = tasks.iter().map(|_| vec![0u32; num_labels]).collect();
        let mut open: Vec<usize> = (0..tasks.len()).collect();
        let mut bought = 0usize;

        while !open.is_empty() {
            let reqs: Vec<AskRequest<'_>> =
                open.iter().map(|&ti| AskRequest::new(&tasks[ti])).collect();
            let outcomes = oracle.ask_batch(&reqs)?;
            let mut still_open = Vec::with_capacity(open.len());
            let mut exhausted = false;
            for (&ti, out) in open.iter().zip(&outcomes) {
                // Budget or pool died somewhere in this wave: keep what was
                // bought, stop collecting entirely afterwards.
                out.check()?;
                exhausted |= out.stopped_by_exhaustion();
                for answer in &out.answers {
                    if let Some(label) = answer.value.as_choice() {
                        matrix.push(answer.task, answer.worker, label)?;
                        votes[ti][label as usize] += 1;
                        bought += 1;
                    }
                }
                if !rule.should_stop(&votes[ti], max_answers) {
                    still_open.push(ti);
                }
            }
            if exhausted {
                break;
            }
            open = still_open;
        }

        Ok(Collected {
            matrix,
            votes,
            bought,
        })
    }
}

/// The rules the property draws from.
#[derive(Debug, Clone, Copy)]
enum Rule {
    Fixed(FixedK),
    Margin(MajorityMargin),
    Sprt(Sprt),
}

impl Rule {
    fn get(&self) -> &dyn StoppingRule {
        match self {
            Rule::Fixed(r) => r,
            Rule::Margin(r) => r,
            Rule::Sprt(r) => r,
        }
    }
}

fn rule() -> impl Strategy<Value = Rule> {
    prop_oneof![
        (1u32..=6).prop_map(|k| Rule::Fixed(FixedK { k })),
        (1u32..=3).prop_map(|margin| Rule::Margin(MajorityMargin { margin })),
        Just(Rule::Sprt(Sprt::default())),
    ]
}

/// One random collection: the tasks and how to build a fresh platform.
#[derive(Debug, Clone)]
struct Case {
    n: usize,
    k: usize,
    workers: usize,
    budget: usize,
    seed: u64,
}

impl Case {
    fn tasks(&self) -> Vec<Task> {
        LabelingDataset::generate(self.n, self.k, 1.0 / self.k as f64, (0.2, 0.8), self.seed).tasks
    }

    /// A fresh platform; every side of a comparison gets its own.
    fn crowd(&self) -> SimulatedCrowd {
        PlatformBuilder::new(mixes::mixed(self.workers, self.seed))
            .seed(self.seed)
            .budget(Budget::new(self.budget as f64))
            .build()
    }
}

/// A random case, its rule and its per-task cap. The budget is drawn as
/// a share of `n · max`, from nothing to enough for every answer.
fn case() -> impl Strategy<Value = (Case, Rule, u32)> {
    (
        1usize..=40,
        2usize..=3,
        3usize..=60,
        1u32..=9,
        0usize..=1000,
        0u64..1 << 32,
        rule(),
    )
        .prop_map(|(n, k, workers, max, share, seed, rule)| {
            let case = Case {
                n,
                k,
                workers,
                budget: n * max as usize * share / 1000,
                seed,
            };
            (case, rule, max)
        })
}

/// What a platform did, bit for bit: answers delivered, spend and clock.
fn platform_state(crowd: &SimulatedCrowd) -> (u64, u64, u64) {
    (
        crowd.answers_delivered(),
        crowd.budget().spent().to_bits(),
        crowd.now().to_bits(),
    )
}

/// A matrix's observations as `(task, worker, label)` raw ids, in order.
fn observations(m: &crowdkit_core::response::ResponseMatrix) -> Vec<(u64, u64, u32)> {
    m.observations()
        .iter()
        .map(|o| (m.task_id(o.task).0, m.worker_id(o.worker).0, o.label))
        .collect()
}

/// The per-task votes an outcome's matrix holds, in input order.
fn votes(out: &PipelineOutcome, tasks: &[Task], k: usize) -> Vec<Vec<u32>> {
    let counts = out.matrix.vote_counts();
    tasks
        .iter()
        .map(|t| match out.matrix.task_index(t.id) {
            Some(i) => counts[i].clone(),
            None => vec![0; k],
        })
        .collect()
}

/// The reference votes mapped to filter decisions the way the filter's
/// own loop did: no answers is undecided, a tie does not keep.
fn decisions(votes: &[Vec<u32>]) -> Vec<Option<FilterDecision>> {
    votes
        .iter()
        .map(|v| {
            let (no, yes) = (v[0], v[1]);
            (no + yes > 0).then_some(FilterDecision {
                keep: yes > no,
                no_votes: no,
                yes_votes: yes,
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn label_tasks_adaptive_collects_what_the_old_loop_did((case, rule, max) in case()) {
        let tasks = case.tasks();
        let rule = rule.get();

        let ref_crowd = case.crowd();
        let expected = reference::collect(&ref_crowd, &tasks, rule, max);
        let ref_platform = platform_state(&ref_crowd);

        let crowd = case.crowd();
        let got = label_tasks_adaptive(&crowd, &tasks, rule, max, &MajorityVote);
        prop_assert_eq!(platform_state(&crowd), ref_platform);

        let expected = expected.and_then(|c| {
            // The inference the old function ran after its loop.
            use crowdkit_core::traits::TruthInferencer;
            MajorityVote.infer(&c.matrix).map(|inference| (c, inference))
        });
        match (got, expected) {
            (Ok(out), Ok((c, inference))) => {
                prop_assert_eq!(observations(&out.matrix), observations(&c.matrix));
                prop_assert_eq!(votes(&out, &tasks, case.k), c.votes);
                prop_assert_eq!(out.answers_bought, c.bought);
                prop_assert_eq!(out.inference, inference);
            }
            (Err(got), Err(want)) => prop_assert_eq!(got, want),
            (got, want) => prop_assert!(
                false,
                "one side failed: got {:?}, reference {:?}",
                got.err(),
                want.err()
            ),
        }

        if case.k == 2 {
            let crowd = case.crowd();
            let filtered = crowd_filter(&crowd, &tasks, rule, max);
            prop_assert_eq!(platform_state(&crowd), ref_platform);
            let ref_crowd = case.crowd();
            let c = reference::collect(&ref_crowd, &tasks, rule, max)
                .expect("a binary simulated collection does not fail");
            let filtered = filtered.expect("a binary simulated filter does not fail");
            prop_assert_eq!(filtered.decisions, decisions(&c.votes));
            prop_assert_eq!(filtered.questions_asked, c.bought);
        }
    }

    /// A rule that stops at zero answers, or a zero cap, buys nothing:
    /// the rule is consulted before the first wave too.
    #[test]
    fn a_rule_that_stops_at_zero_answers_buys_nothing(
        (case, _, max) in case(),
        which in 0usize..3,
    ) {
        let tasks = case.tasks();
        let (rule, max): (&dyn StoppingRule, u32) = match which {
            0 => (&FixedK { k: 0 }, max),
            1 => (&MajorityMargin { margin: 0 }, max),
            _ => (&FixedK { k: 3 }, 0),
        };
        let crowd = case.crowd();
        let err = label_tasks_adaptive(&crowd, &tasks, rule, max, &MajorityVote).unwrap_err();
        prop_assert!(matches!(err, CrowdError::EmptyInput(_)), "{}", err);
        prop_assert_eq!(crowd.answers_delivered(), 0);
        if case.k == 2 {
            let out = crowd_filter(&crowd, &tasks, rule, max).unwrap();
            prop_assert_eq!(out.questions_asked, 0);
            prop_assert!(out.decisions.iter().all(Option::is_none));
            prop_assert_eq!(crowd.answers_delivered(), 0);
        }
    }
}

/// `label_tasks` on `tasks`, which must fail before anything is bought.
fn assert_rejected_before_buying(tasks: &[Task], offender: &str) {
    let crowd = PlatformBuilder::new(mixes::mixed(50, 1))
        .seed(1)
        .budget(Budget::new(1000.0))
        .build();
    let err = label_tasks(&crowd, tasks, 3, &MajorityVote).unwrap_err();
    assert!(
        matches!(&err, CrowdError::DimensionMismatch(msg) if msg.contains(offender)),
        "{err}"
    );
    assert_eq!(crowd.answers_delivered(), 0);
    assert_eq!(crowd.budget().spent(), 0.0);
}

#[test]
fn label_tasks_rejects_a_numeric_task_before_buying_anything() {
    // Before collection moved onto `run_assignment`, this set was answered `Ok`
    // with 3 answers counted while the platform delivered and charged 53:
    // the numeric task's answers were paid for but never counted against
    // its cap, so it drained the 50-worker pool.
    let numeric = Task::new(
        TaskId::new(1),
        TaskKind::Numeric {
            min: 0.0,
            max: 10.0,
        },
        "how many?",
    );
    let tasks = vec![Task::binary(TaskId::new(0), "yes or no?"), numeric];
    assert_rejected_before_buying(&tasks, "task t1 is numeric");
}

#[test]
fn label_tasks_rejects_mixed_label_spaces_before_buying_anything() {
    let three = Task::new(
        TaskId::new(1),
        TaskKind::SingleChoice {
            labels: LabelSpace::anonymous(3),
        },
        "which one?",
    );
    let tasks = vec![Task::binary(TaskId::new(0), "yes or no?"), three];
    assert_rejected_before_buying(&tasks, "task t1 has 3 labels");
}
