//! Evaluation metrics used by the experiment harness and tests.
//!
//! Everything here is a pure function over slices; no allocation beyond what
//! the result requires. Metrics follow the standard definitions used in the
//! crowdsourcing evaluation literature: label accuracy and F1 for
//! classification/filtering, pairwise cluster F1 for entity resolution,
//! Kendall tau and NDCG for ranking, MAE/RMSE and relative error for numeric
//! estimation, and entropy/JS divergence for uncertainty-driven task
//! assignment.

use std::collections::BTreeMap;

/// Fraction of positions where `predicted[i] == truth[i]`.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn accuracy<T: PartialEq>(predicted: &[T], truth: &[T]) -> f64 {
    assert_eq!(predicted.len(), truth.len(), "length mismatch");
    assert!(
        !predicted.is_empty(),
        "accuracy of empty slices is undefined"
    );
    let correct = predicted.iter().zip(truth).filter(|(p, t)| p == t).count();
    correct as f64 / predicted.len() as f64
}

/// Binary precision / recall / F1 with respect to a designated positive
/// label.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// False negatives.
    pub fn_: u64,
    /// True negatives.
    pub tn: u64,
}

impl PrecisionRecall {
    /// Computes the confusion counts of `predicted` vs `truth`, treating
    /// `positive` as the positive class.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn from_labels<T: PartialEq>(predicted: &[T], truth: &[T], positive: &T) -> Self {
        assert_eq!(predicted.len(), truth.len(), "length mismatch");
        let mut c = PrecisionRecall {
            tp: 0,
            fp: 0,
            fn_: 0,
            tn: 0,
        };
        for (p, t) in predicted.iter().zip(truth) {
            match (p == positive, t == positive) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, true) => c.fn_ += 1,
                (false, false) => c.tn += 1,
            }
        }
        c
    }

    /// Precision = TP / (TP + FP); 0 when the denominator is 0.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Recall = TP / (TP + FN); 0 when the denominator is 0.
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// F1 = harmonic mean of precision and recall; 0 when both are 0.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Mean absolute error between two numeric series.
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn mae(predicted: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(predicted.len(), truth.len(), "length mismatch");
    assert!(!predicted.is_empty(), "mae of empty slices is undefined");
    predicted
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / predicted.len() as f64
}

/// Root mean squared error between two numeric series.
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn rmse(predicted: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(predicted.len(), truth.len(), "length mismatch");
    assert!(!predicted.is_empty(), "rmse of empty slices is undefined");
    let mse = predicted
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / predicted.len() as f64;
    mse.sqrt()
}

/// Relative error `|estimate - truth| / |truth|`; `truth` must be non-zero.
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    assert!(truth != 0.0, "relative error undefined for zero truth");
    (estimate - truth).abs() / truth.abs()
}

/// Kendall rank correlation coefficient (tau-a) between two rankings.
///
/// `ranking_a[i]` and `ranking_b[i]` are the *positions* (or scores) of item
/// `i` under the two orders; higher means ranked higher. Returns a value in
/// `[-1, 1]`: 1 for identical orderings, -1 for reversed.
///
/// Ties contribute zero to the numerator (tau-a convention). O(n²), which is
/// fine for the ranking experiments (n ≤ a few hundred).
///
/// # Panics
/// Panics on length mismatch or fewer than 2 items.
pub fn kendall_tau(ranking_a: &[f64], ranking_b: &[f64]) -> f64 {
    assert_eq!(ranking_a.len(), ranking_b.len(), "length mismatch");
    let n = ranking_a.len();
    assert!(n >= 2, "kendall tau needs at least two items");
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = ranking_a[i] - ranking_a[j];
            let db = ranking_b[i] - ranking_b[j];
            let s = da * db;
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

/// Normalized discounted cumulative gain at `k` for a predicted ordering.
///
/// `predicted_order` lists item indices best-first; `relevance[i]` is the
/// true relevance of item `i` (higher = better). Returns `NDCG@k ∈ [0, 1]`.
///
/// # Panics
/// Panics if `k == 0`, or any index in `predicted_order` is out of range.
pub fn ndcg_at_k(predicted_order: &[usize], relevance: &[f64], k: usize) -> f64 {
    assert!(k > 0, "ndcg@0 is undefined");
    let k = k.min(predicted_order.len());
    let dcg: f64 = predicted_order[..k]
        .iter()
        .enumerate()
        .map(|(rank, &item)| relevance[item] / ((rank + 2) as f64).log2())
        .sum();
    let mut ideal: Vec<f64> = relevance.to_vec();
    ideal.sort_by(|a, b| b.total_cmp(a));
    let idcg: f64 = ideal
        .iter()
        .take(k)
        .enumerate()
        .map(|(rank, rel)| rel / ((rank + 2) as f64).log2())
        .sum();
    if idcg == 0.0 {
        0.0
    } else {
        dcg / idcg
    }
}

/// Pairwise precision/recall/F1 of a clustering against ground truth —
/// the standard entity-resolution metric: a pair of items counts as positive
/// if both clusterings place the two items in the same cluster.
///
/// `predicted[i]` and `truth[i]` are cluster ids of item `i` (any hashable
/// type).
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn pairwise_cluster_f1<A, B>(predicted: &[A], truth: &[B]) -> PrecisionRecall
where
    A: PartialEq,
    B: PartialEq,
{
    assert_eq!(predicted.len(), truth.len(), "length mismatch");
    assert!(
        !predicted.is_empty(),
        "cluster F1 of empty input is undefined"
    );
    let n = predicted.len();
    let mut c = PrecisionRecall {
        tp: 0,
        fp: 0,
        fn_: 0,
        tn: 0,
    };
    for i in 0..n {
        for j in (i + 1)..n {
            let same_pred = predicted[i] == predicted[j];
            let same_true = truth[i] == truth[j];
            match (same_pred, same_true) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, true) => c.fn_ += 1,
                (false, false) => c.tn += 1,
            }
        }
    }
    c
}

/// Shannon entropy (nats) of a discrete distribution. Zero-probability
/// entries contribute zero. Input need not be normalized; it is normalized
/// internally.
///
/// # Panics
/// Panics if the distribution is empty, has negative entries, or sums to 0.
pub fn entropy(dist: &[f64]) -> f64 {
    assert!(
        !dist.is_empty(),
        "entropy of empty distribution is undefined"
    );
    let sum: f64 = dist.iter().sum();
    assert!(
        sum > 0.0 && dist.iter().all(|&p| p >= 0.0),
        "distribution must be non-negative with positive mass"
    );
    -dist
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| {
            let q = p / sum;
            q * q.ln()
        })
        .sum::<f64>()
}

/// Jensen–Shannon divergence (nats) between two distributions of equal
/// length. Symmetric, bounded by `ln 2`.
///
/// # Panics
/// Panics on length mismatch or invalid distributions.
pub fn js_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "length mismatch");
    let sp: f64 = p.iter().sum();
    let sq: f64 = q.iter().sum();
    assert!(sp > 0.0 && sq > 0.0, "distributions need positive mass");
    let kl = |a: &[f64], sa: f64, b: &[f64], sb: f64| -> f64 {
        a.iter()
            .zip(b)
            .filter(|(&x, _)| x > 0.0)
            .map(|(&x, &y)| {
                let px = x / sa;
                let my = 0.5 * (x / sa + y / sb);
                px * (px / my).ln()
            })
            .sum::<f64>()
    };
    0.5 * kl(p, sp, q, sq) + 0.5 * kl(q, sq, p, sp)
}

/// Majority element of a slice with deterministic tie-breaking (smallest
/// value wins among the most frequent). Returns `None` for empty input.
pub fn majority<T: Eq + Ord + Clone>(values: &[T]) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    let mut counts: BTreeMap<&T, usize> = BTreeMap::new();
    for v in values {
        *counts.entry(v).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then_with(|| vb.cmp(va)))
        .map(|(v, _)| v.clone())
}

/// Mean of a non-empty slice.
///
/// # Panics
/// Panics on empty input.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice is undefined");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n-1 denominator) of a slice with ≥ 2 entries.
///
/// # Panics
/// Panics with fewer than two values.
pub fn std_dev(xs: &[f64]) -> f64 {
    assert!(xs.len() >= 2, "std dev needs at least two values");
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Median of a slice (average of middle two for even lengths).
///
/// # Panics
/// Panics on empty input. NaN entries sort to a deterministic position
/// under IEEE total order rather than panicking.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty slice is undefined");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 4]), 2.0 / 3.0);
        assert_eq!(accuracy(&["a"], &["a"]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_rejects_mismatched_lengths() {
        let _ = accuracy(&[1], &[1, 2]);
    }

    #[test]
    fn precision_recall_f1_textbook_example() {
        // pred:  + + - -   truth: + - + -
        let pr = PrecisionRecall::from_labels(&[1, 1, 0, 0], &[1, 0, 1, 0], &1);
        assert_eq!((pr.tp, pr.fp, pr.fn_, pr.tn), (1, 1, 1, 1));
        assert_eq!(pr.precision(), 0.5);
        assert_eq!(pr.recall(), 0.5);
        assert_eq!(pr.f1(), 0.5);
    }

    #[test]
    fn f1_zero_when_no_positives_predicted_or_present() {
        let pr = PrecisionRecall::from_labels(&[0, 0], &[0, 0], &1);
        assert_eq!(pr.precision(), 0.0);
        assert_eq!(pr.recall(), 0.0);
        assert_eq!(pr.f1(), 0.0);
    }

    #[test]
    fn mae_rmse_basic() {
        let p = [1.0, 2.0, 3.0];
        let t = [1.0, 4.0, 3.0];
        assert!((mae(&p, &t) - 2.0 / 3.0).abs() < 1e-12);
        assert!((rmse(&p, &t) - (4.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn relative_error_scales_by_truth() {
        assert!((relative_error(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(90.0, 100.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn kendall_tau_extremes_and_middle() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let rev = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(kendall_tau(&a, &a), 1.0);
        assert_eq!(kendall_tau(&a, &rev), -1.0);
        // One swapped adjacent pair out of 6 pairs: 5 concordant,
        // 1 discordant → (5-1)/6.
        let b = [1.0, 2.0, 4.0, 3.0];
        assert!((kendall_tau(&a, &b) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_tau_ties_shrink_magnitude() {
        let a = [1.0, 2.0, 3.0];
        let tied = [1.0, 1.0, 2.0];
        let tau = kendall_tau(&a, &tied);
        assert!(tau > 0.0 && tau < 1.0);
    }

    #[test]
    fn ndcg_perfect_and_reversed() {
        let rel = [3.0, 2.0, 1.0];
        assert!((ndcg_at_k(&[0, 1, 2], &rel, 3) - 1.0).abs() < 1e-12);
        let rev = ndcg_at_k(&[2, 1, 0], &rel, 3);
        assert!(rev < 1.0 && rev > 0.0);
    }

    #[test]
    fn cluster_f1_perfect_and_split() {
        // Two clusters {0,1}, {2,3}.
        let truth = [0, 0, 1, 1];
        let perfect = pairwise_cluster_f1(&[5, 5, 9, 9], &truth);
        assert_eq!(perfect.f1(), 1.0);
        // Splitting one cluster loses recall but keeps precision.
        let split = pairwise_cluster_f1(&[5, 6, 9, 9], &truth);
        assert_eq!(split.precision(), 1.0);
        assert!(split.recall() < 1.0);
    }

    #[test]
    fn entropy_uniform_is_ln_k_and_point_mass_zero() {
        assert!((entropy(&[0.5, 0.5]) - (2.0f64).ln()).abs() < 1e-12);
        assert_eq!(entropy(&[1.0, 0.0]), 0.0);
        // Unnormalized input is normalized.
        assert!((entropy(&[2.0, 2.0]) - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn js_divergence_symmetric_and_bounded() {
        let p = [0.9, 0.1];
        let q = [0.1, 0.9];
        let d1 = js_divergence(&p, &q);
        let d2 = js_divergence(&q, &p);
        assert!((d1 - d2).abs() < 1e-12);
        assert!(d1 > 0.0 && d1 <= (2.0f64).ln() + 1e-12);
        assert!(js_divergence(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn majority_breaks_ties_deterministically() {
        assert_eq!(majority(&[1, 2, 2, 3]), Some(2));
        assert_eq!(majority(&[2, 1]), Some(1), "tie → smallest value");
        assert_eq!(majority::<u32>(&[]), None);
    }

    #[test]
    fn summary_stats() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((std_dev(&[2.0, 4.0]) - (2.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}

/// Cohen's kappa: chance-corrected agreement between two raters who each
/// labelled the same items. 1 = perfect agreement, 0 = chance-level,
/// negative = worse than chance. The classic inter-annotator quality
/// metric of crowdsourcing quality control.
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn cohens_kappa(rater_a: &[u32], rater_b: &[u32]) -> f64 {
    assert_eq!(rater_a.len(), rater_b.len(), "length mismatch");
    assert!(!rater_a.is_empty(), "kappa of empty ratings is undefined");
    let n = rater_a.len() as f64;
    let k = rater_a
        .iter()
        .chain(rater_b)
        .copied()
        .max()
        .expect("non-empty") as usize // crowdkit-lint: allow(PANIC001) — rater_a asserted non-empty above, so the chain has a max
        + 1;
    let observed = rater_a.iter().zip(rater_b).filter(|(a, b)| a == b).count() as f64 / n;
    let mut pa = vec![0.0f64; k];
    let mut pb = vec![0.0f64; k];
    for (&a, &b) in rater_a.iter().zip(rater_b) {
        pa[a as usize] += 1.0 / n;
        pb[b as usize] += 1.0 / n;
    }
    let expected: f64 = pa.iter().zip(&pb).map(|(x, y)| x * y).sum();
    if (1.0 - expected).abs() < 1e-12 {
        // Both raters constant and identical: define as perfect agreement.
        if observed >= 1.0 {
            1.0
        } else {
            0.0
        }
    } else {
        (observed - expected) / (1.0 - expected)
    }
}

/// Fleiss' kappa: chance-corrected agreement for many raters, given the
/// per-item label counts `counts[item][label]`. Every item must have the
/// same number of ratings `r ≥ 2`.
///
/// # Panics
/// Panics on empty input, ragged rows, or items with fewer than 2 ratings.
pub fn fleiss_kappa(counts: &[Vec<u32>]) -> f64 {
    assert!(!counts.is_empty(), "fleiss kappa needs at least one item");
    let k = counts[0].len();
    let r: u32 = counts[0].iter().sum();
    assert!(r >= 2, "fleiss kappa needs at least two ratings per item");
    let n = counts.len() as f64;
    let rf = r as f64;
    let mut p_item_sum = 0.0;
    let mut label_share = vec![0.0f64; k];
    for row in counts {
        assert_eq!(row.len(), k, "ragged label counts");
        assert_eq!(
            row.iter().sum::<u32>(),
            r,
            "items must have equal rating counts"
        );
        let agree: f64 = row.iter().map(|&c| (c as f64) * (c as f64 - 1.0)).sum();
        p_item_sum += agree / (rf * (rf - 1.0));
        for (l, &c) in row.iter().enumerate() {
            label_share[l] += c as f64 / (n * rf);
        }
    }
    let p_bar = p_item_sum / n;
    let p_e: f64 = label_share.iter().map(|p| p * p).sum();
    if (1.0 - p_e).abs() < 1e-12 {
        if p_bar >= 1.0 {
            1.0
        } else {
            0.0
        }
    } else {
        (p_bar - p_e) / (1.0 - p_e)
    }
}

#[cfg(test)]
mod kappa_tests {
    use super::*;

    #[test]
    fn cohens_kappa_extremes() {
        assert_eq!(cohens_kappa(&[0, 1, 0, 1], &[0, 1, 0, 1]), 1.0);
        // Systematic disagreement on a balanced binary task → −1.
        let k = cohens_kappa(&[0, 1, 0, 1], &[1, 0, 1, 0]);
        assert!((k + 1.0).abs() < 1e-12, "kappa {k}");
    }

    #[test]
    fn cohens_kappa_textbook_value() {
        // Classic 2x2 example: observed 0.7, expected 0.5 → kappa 0.4.
        // Raters: A says 0 half the time, B says 0 half the time, they
        // agree on 7 of 10 items.
        let a = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1];
        let b = [0, 0, 0, 0, 1, 0, 1, 1, 1, 1];
        let k = cohens_kappa(&a, &b);
        assert!((k - 0.6).abs() < 1e-9, "kappa {k}");
    }

    #[test]
    fn cohens_kappa_chance_is_zero() {
        // Rater B constant: agreement is exactly chance.
        let a = [0, 1, 0, 1];
        let b = [0, 0, 0, 0];
        let k = cohens_kappa(&a, &b);
        assert!(k.abs() < 1e-12, "kappa {k}");
    }

    #[test]
    fn cohens_kappa_constant_identical_raters() {
        assert_eq!(cohens_kappa(&[1, 1, 1], &[1, 1, 1]), 1.0);
    }

    #[test]
    fn fleiss_kappa_perfect_and_split() {
        // 3 raters, unanimous on every item.
        let unanimous = vec![vec![3, 0], vec![0, 3], vec![3, 0]];
        assert!((fleiss_kappa(&unanimous) - 1.0).abs() < 1e-12);
        // Maximal per-item disagreement with 4 raters.
        let split = vec![vec![2, 2], vec![2, 2]];
        assert!(fleiss_kappa(&split) < 0.0);
    }

    #[test]
    fn fleiss_kappa_is_bounded_above_by_one() {
        let counts = vec![vec![4, 1], vec![3, 2], vec![0, 5], vec![5, 0]];
        let k = fleiss_kappa(&counts);
        assert!(k <= 1.0 && k > -1.0, "kappa {k}");
    }

    #[test]
    #[should_panic(expected = "equal rating counts")]
    fn fleiss_kappa_rejects_unequal_rating_counts() {
        let _ = fleiss_kappa(&[vec![3, 0], vec![1, 1]]);
    }
}
