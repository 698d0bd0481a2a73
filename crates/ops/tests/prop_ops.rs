//! Property-based tests for operator invariants: constraint clustering is
//! checked against a naive reference implementation, blocking against the
//! quadratic scan, and the species estimators against their bounds.

use std::collections::HashSet;

use crowdkit_ops::collect::{chao1, chao92, good_turing_coverage, ItemCounts};
use crowdkit_ops::join::blocking::{all_pairs_count, candidate_pairs, jaccard, tokenize};
use crowdkit_ops::join::ConstraintClustering;
use crowdkit_ops::sort::rankers::{borda, bradley_terry, copeland, elo};
use crowdkit_ops::sort::{sample_pairs, ComparisonGraph};
use proptest::prelude::*;

/// Naive reference for must-link/cannot-link closure: explicit transitive
/// closure of "same" plus propagation of "different" across clusters.
#[derive(Debug, Clone)]
struct NaiveClustering {
    n: usize,
    same: Vec<(usize, usize)>,
    diff: Vec<(usize, usize)>,
}

impl NaiveClustering {
    fn new(n: usize) -> Self {
        Self {
            n,
            same: Vec::new(),
            diff: Vec::new(),
        }
    }

    fn cluster_of(&self, x: usize) -> HashSet<usize> {
        // BFS over "same" edges.
        let mut seen: HashSet<usize> = [x].into();
        let mut queue = vec![x];
        while let Some(cur) = queue.pop() {
            for &(a, b) in &self.same {
                for (u, v) in [(a, b), (b, a)] {
                    if u == cur && seen.insert(v) {
                        queue.push(v);
                    }
                }
            }
        }
        seen
    }

    fn known_same(&self, a: usize, b: usize) -> bool {
        self.cluster_of(a).contains(&b)
    }

    fn known_different(&self, a: usize, b: usize) -> bool {
        let ca = self.cluster_of(a);
        let cb = self.cluster_of(b);
        self.diff.iter().any(|&(x, y)| {
            (ca.contains(&x) && cb.contains(&y)) || (ca.contains(&y) && cb.contains(&x))
        })
    }

    fn record_same(&mut self, a: usize, b: usize) -> bool {
        if self.known_different(a, b) {
            return false;
        }
        self.same.push((a, b));
        true
    }

    fn record_different(&mut self, a: usize, b: usize) -> bool {
        if self.known_same(a, b) {
            return false;
        }
        self.diff.push((a, b));
        true
    }

    fn labels(&self) -> Vec<usize> {
        let mut labels = vec![usize::MAX; self.n];
        let mut next = 0;
        for i in 0..self.n {
            if labels[i] != usize::MAX {
                continue;
            }
            for j in self.cluster_of(i) {
                labels[j] = next;
            }
            next += 1;
        }
        labels
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn constraint_clustering_matches_naive_reference(
        ops in prop::collection::vec((0usize..8, 0usize..8, prop::bool::ANY), 0..40)
    ) {
        let n = 8;
        let mut fast = ConstraintClustering::new(n);
        let mut naive = NaiveClustering::new(n);
        for (a, b, same) in ops {
            if a == b {
                continue;
            }
            let (fa, na) = if same {
                (fast.record_same(a, b), naive.record_same(a, b))
            } else {
                (fast.record_different(a, b), naive.record_different(a, b))
            };
            prop_assert_eq!(fa, na, "accept/reject disagreement on ({}, {}, same={})", a, b, same);
        }
        for a in 0..n {
            for b in 0..n {
                if a == b { continue; }
                prop_assert_eq!(
                    fast.known_same(a, b),
                    naive.known_same(a, b),
                    "known_same({},{}) disagrees", a, b
                );
                prop_assert_eq!(
                    fast.known_different(a, b),
                    naive.known_different(a, b),
                    "known_different({},{}) disagrees", a, b
                );
            }
        }
        // Cluster labelings induce the same partition.
        let fl = fast.labels();
        let nl = naive.labels();
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(fl[a] == fl[b], nl[a] == nl[b]);
            }
        }
    }

    #[test]
    fn blocking_matches_quadratic_reference(
        texts in prop::collection::vec("[a-d]{1,3}( [a-d]{1,3}){0,2}", 2..12),
        threshold in 0.05f64..1.0,
    ) {
        let pairs = candidate_pairs(&texts, threshold);
        // Reference: quadratic scan.
        let sets: Vec<_> = texts.iter().map(|t| tokenize(t)).collect();
        let mut expected = HashSet::new();
        for a in 0..texts.len() {
            for b in (a + 1)..texts.len() {
                let sim = jaccard(&sets[a], &sets[b]);
                if sim >= threshold && sim > 0.0 {
                    expected.insert((a, b));
                }
            }
        }
        let got: HashSet<(usize, usize)> = pairs.iter().map(|p| (p.a, p.b)).collect();
        prop_assert_eq!(got, expected);
        // Sorted descending by similarity.
        prop_assert!(pairs.windows(2).all(|w| w[0].similarity >= w[1].similarity));
    }

    #[test]
    fn sample_pairs_is_a_subset_of_the_pair_space(
        n in 2usize..20,
        budget in 0usize..100,
        seed in 0u64..50,
    ) {
        let pairs = sample_pairs(n, budget, seed);
        prop_assert!(pairs.len() <= budget.min(all_pairs_count(n)));
        let mut seen = HashSet::new();
        for (a, b) in pairs {
            prop_assert!(a < b && b < n);
            prop_assert!(seen.insert((a, b)));
        }
    }

    #[test]
    fn rankers_always_return_finite_scores(
        results in prop::collection::vec((0usize..6, 0usize..6), 1..60)
    ) {
        let mut g = ComparisonGraph::new(6);
        for (w, l) in results {
            if w != l {
                g.record(w, l);
            }
        }
        for scores in [borda(&g), copeland(&g), elo(&g, 32.0, 2), bradley_terry(&g, 50, 1e-8)] {
            prop_assert_eq!(scores.len(), 6);
            prop_assert!(scores.iter().all(|s| s.is_finite()), "scores {:?}", scores);
        }
    }

    #[test]
    fn species_estimators_respect_bounds(
        contributions in prop::collection::vec(0usize..30, 1..300)
    ) {
        let mut counts = ItemCounts::new();
        for c in &contributions {
            counts.record(&format!("item{c}"));
        }
        let observed = counts.distinct() as f64;
        let c1 = chao1(&counts);
        let c92 = chao92(&counts);
        let cov = good_turing_coverage(&counts);
        prop_assert!(c1 >= observed, "chao1 {c1} < observed {observed}");
        prop_assert!(c92 >= observed - 1e-9, "chao92 {c92} < observed {observed}");
        prop_assert!((0.0..=1.0).contains(&cov));
        prop_assert!(c1.is_finite() && c92.is_finite());
    }
}
