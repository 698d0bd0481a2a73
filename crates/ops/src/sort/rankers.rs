//! Rank aggregation over a [`ComparisonGraph`].
//!
//! Four estimators spanning the cost/quality space the crowdsourced-sort
//! literature sweeps:
//!
//! * [`borda`] — win-rate scoring; cheapest, needs dense coverage.
//! * [`copeland`] — majority-duel scoring; robust to per-pair noise.
//! * [`elo`] — online rating updates; order-dependent but strong at low
//!   comparison budgets.
//! * [`bradley_terry`] — maximum-likelihood strengths via the classic MM
//!   (minorization–maximization) iteration; the statistically efficient
//!   choice when comparisons are repeated.

use super::ComparisonGraph;

/// Borda-style scores: each item's total wins divided by total comparisons
/// it appeared in (0.5 for items never compared, keeping them mid-pack
/// rather than artificially last).
pub fn borda(graph: &ComparisonGraph) -> Vec<f64> {
    let n = graph.len();
    let mut wins = vec![0.0f64; n];
    let mut games = vec![0.0f64; n];
    for ((a, b), (wa, wb)) in graph.iter() {
        wins[a] += wa as f64;
        wins[b] += wb as f64;
        games[a] += (wa + wb) as f64;
        games[b] += (wa + wb) as f64;
    }
    (0..n)
        .map(|i| {
            if games[i] > 0.0 {
                wins[i] / games[i]
            } else {
                0.5
            }
        })
        .collect()
}

/// Copeland scores: for each pair with comparisons, the item winning the
/// majority gets +1, the loser −1 (0 each on a tie). Normalized by the
/// number of opponents faced.
pub fn copeland(graph: &ComparisonGraph) -> Vec<f64> {
    let n = graph.len();
    let mut score = vec![0.0f64; n];
    let mut faced = vec![0.0f64; n];
    for ((a, b), (wa, wb)) in graph.iter() {
        faced[a] += 1.0;
        faced[b] += 1.0;
        if wa > wb {
            score[a] += 1.0;
            score[b] -= 1.0;
        } else if wb > wa {
            score[b] += 1.0;
            score[a] -= 1.0;
        }
    }
    (0..n)
        .map(|i| {
            if faced[i] > 0.0 {
                score[i] / faced[i]
            } else {
                0.0
            }
        })
        .collect()
}

/// Elo ratings: replays every recorded comparison as a match, for
/// `epochs` passes over the (deterministically ordered) match list.
///
/// `k_factor` is the usual Elo step size (32 is the chess default; smaller
/// is smoother). Returned ratings are centred on 0.
pub fn elo(graph: &ComparisonGraph, k_factor: f64, epochs: usize) -> Vec<f64> {
    let n = graph.len();
    let mut rating = vec![0.0f64; n];
    // Expand the tally into individual matches in deterministic order.
    let mut matches: Vec<(usize, usize)> = Vec::new(); // (winner, loser)
    for ((a, b), (wa, wb)) in graph.iter() {
        for _ in 0..wa {
            matches.push((a, b));
        }
        for _ in 0..wb {
            matches.push((b, a));
        }
    }
    for _ in 0..epochs.max(1) {
        for &(w, l) in &matches {
            let expect_w = 1.0 / (1.0 + 10f64.powf((rating[l] - rating[w]) / 400.0));
            rating[w] += k_factor * (1.0 - expect_w);
            rating[l] -= k_factor * (1.0 - expect_w);
        }
    }
    rating
}

/// Bradley–Terry maximum-likelihood strengths via the MM algorithm
/// (Hunter, 2004): iterate
/// `p_i ← W_i / Σ_j n_ij / (p_i + p_j)` then renormalize, where `W_i` is
/// item `i`'s total wins and `n_ij` the comparisons between `i` and `j`.
///
/// Returns log-strengths (so downstream ordering code treats them like any
/// other score). Items with no comparisons keep strength 1 (log 0).
/// A small smoothing win is added per pair to keep strengths finite when
/// an item never wins.
pub fn bradley_terry(graph: &ComparisonGraph, max_iters: usize, tol: f64) -> Vec<f64> {
    let n = graph.len();
    let smoothing = 0.1;
    let mut wins = vec![0.0f64; n];
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new(); // (a, b, n_ab)
    for ((a, b), (wa, wb)) in graph.iter() {
        wins[a] += wa as f64 + smoothing;
        wins[b] += wb as f64 + smoothing;
        pairs.push((a, b, (wa + wb) as f64 + 2.0 * smoothing));
    }

    let mut p = vec![1.0f64; n];
    for _ in 0..max_iters.max(1) {
        let mut denom = vec![0.0f64; n];
        for &(a, b, nab) in &pairs {
            let d = nab / (p[a] + p[b]);
            denom[a] += d;
            denom[b] += d;
        }
        let mut next = p.clone();
        let mut moved = 0.0f64;
        for i in 0..n {
            if denom[i] > 0.0 {
                next[i] = wins[i] / denom[i];
            }
        }
        // Normalize the geometric mean to 1 for identifiability.
        let log_mean = next.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / n as f64;
        for x in &mut next {
            *x = (x.max(1e-12).ln() - log_mean).exp();
        }
        for i in 0..n {
            moved = moved.max((next[i] - p[i]).abs());
        }
        p = next;
        if moved < tol {
            break;
        }
    }
    p.iter().map(|x| x.max(1e-12).ln()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::order_by_scores;

    /// Graph where item order 0 > 1 > 2 is unanimous (3 votes per pair).
    fn clean_graph() -> ComparisonGraph {
        let mut g = ComparisonGraph::new(3);
        for _ in 0..3 {
            g.record(0, 1);
            g.record(0, 2);
            g.record(1, 2);
        }
        g
    }

    #[test]
    fn all_rankers_recover_a_clean_total_order() {
        let g = clean_graph();
        for scores in [
            borda(&g),
            copeland(&g),
            elo(&g, 32.0, 3),
            bradley_terry(&g, 100, 1e-9),
        ] {
            assert_eq!(order_by_scores(&scores), vec![0, 1, 2], "scores {scores:?}");
        }
    }

    #[test]
    fn borda_is_win_fraction() {
        let g = clean_graph();
        let s = borda(&g);
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!((s[1] - 0.5).abs() < 1e-12);
        assert!((s[2] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn uncompared_items_sit_mid_pack_for_borda() {
        let mut g = ComparisonGraph::new(3);
        g.record(0, 1); // item 2 never compared
        let s = borda(&g);
        assert_eq!(s[2], 0.5);
        assert!(s[0] > s[2] && s[2] > s[1]);
    }

    #[test]
    fn copeland_tolerates_minority_noise() {
        // 0 beats 1 in 2 of 3 votes; Copeland gives the duel to 0 outright.
        let mut g = ComparisonGraph::new(2);
        g.record(0, 1);
        g.record(0, 1);
        g.record(1, 0);
        let s = copeland(&g);
        assert_eq!(s, vec![1.0, -1.0]);
    }

    #[test]
    fn copeland_tie_scores_zero() {
        let mut g = ComparisonGraph::new(2);
        g.record(0, 1);
        g.record(1, 0);
        assert_eq!(copeland(&g), vec![0.0, 0.0]);
    }

    #[test]
    fn elo_winner_gains_rating() {
        let mut g = ComparisonGraph::new(2);
        g.record(1, 0);
        let r = elo(&g, 32.0, 1);
        assert!(r[1] > 0.0 && r[0] < 0.0);
        assert!((r[0] + r[1]).abs() < 1e-9, "zero-sum updates");
    }

    #[test]
    fn bradley_terry_strengths_reflect_win_probability() {
        // 0 beats 1 in 9 of 10 comparisons → strength gap matches ~9:1 odds.
        let mut g = ComparisonGraph::new(2);
        for _ in 0..9 {
            g.record(0, 1);
        }
        g.record(1, 0);
        let log_p = bradley_terry(&g, 200, 1e-10);
        let odds = (log_p[0] - log_p[1]).exp();
        // Smoothing shades the raw 9:1 ratio slightly toward 1.
        assert!(odds > 5.0 && odds < 10.0, "odds {odds}");
    }

    #[test]
    fn bradley_terry_handles_shutouts_via_smoothing() {
        let mut g = ComparisonGraph::new(2);
        for _ in 0..5 {
            g.record(0, 1);
        }
        let log_p = bradley_terry(&g, 200, 1e-10);
        assert!(log_p.iter().all(|x| x.is_finite()));
        assert!(log_p[0] > log_p[1]);
    }

    #[test]
    fn rankers_are_deterministic() {
        let g = clean_graph();
        assert_eq!(elo(&g, 32.0, 2), elo(&g, 32.0, 2));
        assert_eq!(bradley_terry(&g, 50, 1e-8), bradley_terry(&g, 50, 1e-8));
    }
}
