//! Crowd categorization into a taxonomy.
//!
//! Placing items into a category tree ("electronics → phones → android")
//! is harder than flat labeling because the label space is structured:
//! workers may agree on the coarse branch while disagreeing on the leaf.
//! Hierarchy-aware aggregation credits a vote for a leaf to *every
//! ancestor* on its path and returns the deepest node whose support clears
//! a threshold — so coarse consensus survives fine disagreement instead of
//! being split by it.

use crowdkit_core::ask::AskRequest;
use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::ids::{IdGen, TaskId};
use crowdkit_core::label::LabelSpace;
use crowdkit_core::task::{Task, TaskKind};
use crowdkit_core::traits::CrowdOracle;

/// A category tree. Node 0 is the root.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    names: Vec<String>,
    parent: Vec<Option<usize>>,
}

impl Taxonomy {
    /// Creates a taxonomy with the given root name.
    pub fn new(root: impl Into<String>) -> Self {
        Self {
            names: vec![root.into()],
            parent: vec![None],
        }
    }

    /// Adds a child of `parent` and returns its node id.
    ///
    /// # Panics
    /// Panics if `parent` is not an existing node.
    pub fn add_child(&mut self, parent: usize, name: impl Into<String>) -> usize {
        assert!(parent < self.names.len(), "unknown parent node {parent}");
        let id = self.names.len();
        self.names.push(name.into());
        self.parent.push(Some(parent));
        id
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Never empty (the root always exists).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Name of a node.
    pub fn name(&self, node: usize) -> &str {
        &self.names[node]
    }

    /// Parent of a node (`None` for the root).
    pub fn parent(&self, node: usize) -> Option<usize> {
        self.parent[node]
    }

    /// Nodes on the path from the root to `node`, inclusive.
    pub fn path(&self, node: usize) -> Vec<usize> {
        let mut p = Vec::new();
        let mut cur = Some(node);
        while let Some(n) = cur {
            p.push(n);
            cur = self.parent[n];
        }
        p.reverse();
        p
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, node: usize) -> usize {
        self.path(node).len() - 1
    }

    /// Leaf nodes (no children), in id order.
    pub fn leaves(&self) -> Vec<usize> {
        let mut has_child = vec![false; self.len()];
        for p in self.parent.iter().flatten() {
            has_child[*p] = true;
        }
        (0..self.len()).filter(|&n| !has_child[n]).collect()
    }

    /// The label space of the leaves, for building crowd tasks.
    pub fn leaf_label_space(&self) -> LabelSpace {
        LabelSpace::new(self.leaves().iter().map(|&n| self.names[n].clone()))
    }
}

/// The categorization verdict for one item.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryDecision {
    /// The chosen node (deepest with sufficient support).
    pub node: usize,
    /// Support of that node (fraction of votes whose path includes it).
    pub support: f64,
    /// Votes received.
    pub votes: u32,
}

/// Categorizes one item: buys `k` leaf-choice votes and returns the
/// deepest taxonomy node whose path-support is at least `threshold`.
///
/// The task presented to workers is a single choice over the taxonomy's
/// leaves; `make_task` builds it (attaching latent truth in simulation).
/// The root always has support 1.0, so a decision always exists when at
/// least one vote arrives.
pub fn crowd_categorize<O, F>(
    oracle: &O,
    taxonomy: &Taxonomy,
    k: u32,
    threshold: f64,
    mut make_task: F,
) -> Result<CategoryDecision>
where
    O: CrowdOracle + ?Sized,
    F: FnMut(TaskId, &LabelSpace) -> Task,
{
    let leaves = taxonomy.leaves();
    let space = taxonomy.leaf_label_space();
    let mut ids = IdGen::new();
    let task = make_task(ids.next_task(), &space);
    if !matches!(&task.kind, TaskKind::SingleChoice { labels } if labels.len() == leaves.len()) {
        return Err(CrowdError::Unsupported(
            "categorize tasks must be single-choice over the taxonomy's leaves",
        ));
    }

    let mut node_votes = vec![0u32; taxonomy.len()];
    let mut total = 0u32;
    let out = oracle.ask(&AskRequest::new(&task).with_redundancy(k.max(1) as usize))?;
    out.check()?;
    for a in &out.answers {
        if let Some(choice) = a.value.as_choice() {
            let leaf = leaves[choice as usize];
            for n in taxonomy.path(leaf) {
                node_votes[n] += 1;
            }
            total += 1;
        }
    }
    if total == 0 {
        return Err(CrowdError::EmptyInput("no categorization votes received"));
    }

    // Deepest node clearing the threshold; ties at equal depth go to the
    // higher-support node, then the smaller id.
    let mut best = 0usize; // root: support 1.0 by construction
    for n in 1..taxonomy.len() {
        let support = node_votes[n] as f64 / total as f64;
        if support + 1e-12 < threshold {
            continue;
        }
        let (bd, bs) = (taxonomy.depth(best), node_votes[best]);
        let (nd, ns) = (taxonomy.depth(n), node_votes[n]);
        if nd > bd || (nd == bd && ns > bs) {
            best = n;
        }
    }

    Ok(CategoryDecision {
        node: best,
        support: node_votes[best] as f64 / total as f64,
        votes: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::answer::{Answer, AnswerValue};
    use crowdkit_core::ids::WorkerId;

    /// electronics(0) → phones(1) → { android(2), ios(3) }; laptops(4).
    fn taxonomy() -> Taxonomy {
        let mut t = Taxonomy::new("electronics");
        let phones = t.add_child(0, "phones");
        t.add_child(phones, "android");
        t.add_child(phones, "ios");
        t.add_child(0, "laptops");
        t
    }

    #[test]
    fn structure_queries_work() {
        let t = taxonomy();
        assert_eq!(t.len(), 5);
        assert_eq!(t.leaves(), vec![2, 3, 4]);
        assert_eq!(t.path(2), vec![0, 1, 2]);
        assert_eq!(t.depth(2), 2);
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.leaf_label_space().len(), 3);
        assert_eq!(t.name(4), "laptops");
    }

    /// Oracle voting a scripted sequence of leaf-space label indices.
    struct VoteOracle {
        votes: Vec<u32>,
        i: std::cell::Cell<usize>,
    }

    impl VoteOracle {
        fn new(votes: Vec<u32>) -> Self {
            Self {
                votes,
                i: std::cell::Cell::new(0),
            }
        }
    }

    impl CrowdOracle for VoteOracle {
        fn ask_one(&self, task: &Task) -> Result<Answer> {
            let i = self.i.get();
            if i >= self.votes.len() {
                return Err(CrowdError::BudgetExhausted {
                    requested: 1.0,
                    remaining: 0.0,
                });
            }
            let v = self.votes[i];
            self.i.set(i + 1);
            Ok(Answer::bare(
                task.id,
                WorkerId::new((i + 1) as u64),
                AnswerValue::Choice(v),
            ))
        }
        fn remaining_budget(&self) -> Option<f64> {
            Some((self.votes.len() - self.i.get()) as f64)
        }
        fn answers_delivered(&self) -> u64 {
            self.i.get() as u64
        }
    }

    fn leaf_task(id: TaskId, space: &LabelSpace) -> Task {
        Task::new(
            id,
            TaskKind::SingleChoice {
                labels: space.clone(),
            },
            "categorize this product",
        )
    }

    #[test]
    fn unanimous_leaf_vote_picks_the_leaf() {
        // Leaf space order: [android(2), ios(3), laptops(4)].
        let oracle = VoteOracle::new(vec![0, 0, 0]);
        let d = crowd_categorize(&oracle, &taxonomy(), 3, 0.6, leaf_task).unwrap();
        assert_eq!(d.node, 2, "android leaf");
        assert_eq!(d.support, 1.0);
    }

    #[test]
    fn split_leaves_fall_back_to_their_common_parent() {
        // 2 votes android, 2 votes ios: neither leaf clears 0.6, but
        // "phones" has support 1.0.
        let oracle = VoteOracle::new(vec![0, 1, 0, 1]);
        let d = crowd_categorize(&oracle, &taxonomy(), 4, 0.6, leaf_task).unwrap();
        assert_eq!(d.node, 1, "phones");
        assert_eq!(d.support, 1.0);
    }

    #[test]
    fn cross_branch_disagreement_falls_to_root() {
        // 1 android, 1 ios, 2 laptops: laptops has 0.5 < 0.6; phones 0.5;
        // root 1.0.
        let oracle = VoteOracle::new(vec![0, 1, 2, 2]);
        let d = crowd_categorize(&oracle, &taxonomy(), 4, 0.6, leaf_task).unwrap();
        assert_eq!(d.node, 0, "root");
    }

    #[test]
    fn lower_threshold_commits_deeper() {
        // 1 android, 2 laptops: with threshold 0.6 laptops (2/3 ≈ 0.67)
        // wins; with threshold 0.7 nothing below the root clears.
        let votes = vec![0, 2, 2];
        let oracle = VoteOracle::new(votes.clone());
        let d = crowd_categorize(&oracle, &taxonomy(), 3, 0.6, leaf_task).unwrap();
        assert_eq!(d.node, 4, "laptops clears a 0.6 threshold with 2/3");
        let oracle = VoteOracle::new(votes);
        let d = crowd_categorize(&oracle, &taxonomy(), 3, 0.7, leaf_task).unwrap();
        assert_eq!(d.node, 0, "higher threshold falls back to the root");
    }

    #[test]
    fn partial_votes_still_decide() {
        let oracle = VoteOracle::new(vec![0, 0]);
        // Asks for 5 votes but only 2 exist.
        let d = crowd_categorize(&oracle, &taxonomy(), 5, 0.6, leaf_task).unwrap();
        assert_eq!(d.votes, 2);
        assert_eq!(d.node, 2);
    }

    #[test]
    fn no_votes_is_an_error() {
        let oracle = VoteOracle::new(vec![]);
        assert!(crowd_categorize(&oracle, &taxonomy(), 3, 0.6, leaf_task).is_err());
    }

    #[test]
    fn wrong_task_shape_is_rejected() {
        let oracle = VoteOracle::new(vec![0]);
        let err = crowd_categorize(&oracle, &taxonomy(), 1, 0.6, |id, _| {
            Task::binary(id, "yes/no?")
        })
        .unwrap_err();
        assert!(matches!(err, CrowdError::Unsupported(_)));
    }
}
