//! E14 — HIT batching for crowd joins (CrowdER cluster-based vs
//! pair-based).
//!
//! Emulates CrowdER's batching comparison: number of HITs needed to cover
//! all candidate pairs as the HIT size grows, for pair-based packing vs
//! greedy cluster-based grouping. Both schemes are compared at equal
//! display capacity (a HIT showing `h` records can display `h·(h−1)/2`
//! pairs). Expected shape: cluster-based needs fewer HITs, and the gap
//! widens with HIT size because candidate pairs cluster around duplicate
//! entities.

use crowdkit_obs as obs;
use crowdkit_ops::join::{candidate_pairs, cluster_based_hits, hits_cover_all, pair_based_hits};
use crowdkit_sim::dataset::EntityDataset;

use crate::table::Table;

const SEED: u64 = 141;

fn counts_for(h: usize) -> (usize, usize, usize) {
    let data = EntityDataset::generate(120, 5, 1, SEED);
    let texts: Vec<String> = data.records.iter().map(|r| r.text.clone()).collect();
    let cands = candidate_pairs(&texts, 0.35);
    let capacity = (h / 2).max(1);
    let pairwise = pair_based_hits(&cands, capacity);
    let cluster = cluster_based_hits(&cands, h);
    debug_assert!(hits_cover_all(&cands, &cluster));
    (cands.len(), pairwise.len(), cluster.len())
}

/// Runs E14.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E14: HITs to cover all candidate pairs (120 entities, ≤5 dups, equal records shown per HIT)",
        &["HIT size h", "candidate pairs", "pair-based HITs", "cluster-based HITs"],
    );
    for h in [2usize, 4, 6, 10] {
        let (pairs, pairwise, cluster) = counts_for(h);
        if pairwise > 0 {
            obs::quality(
                "hit_reduction",
                (pairwise as f64 - cluster as f64) / pairwise as f64,
            );
        }
        t.row(vec![
            h.to_string(),
            pairs.to_string(),
            pairwise.to_string(),
            cluster.to_string(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_shape_cluster_batching_wins_at_larger_hits() {
        let (_, pairwise2, cluster2) = counts_for(2);
        // At h = 2 both schemes are one pair per HIT.
        assert_eq!(pairwise2, cluster2);
        let (_, pairwise6, cluster6) = counts_for(6);
        assert!(
            cluster6 <= pairwise6,
            "cluster-based ({cluster6}) must not exceed pair-based ({pairwise6}) at h=6"
        );
        let (_, _, cluster10) = counts_for(10);
        assert!(cluster10 <= cluster6, "bigger HITs need no more groups");
    }

    #[test]
    fn e14_coverage_holds_at_every_size() {
        let data = EntityDataset::generate(40, 4, 1, 7);
        let texts: Vec<String> = data.records.iter().map(|r| r.text.clone()).collect();
        let cands = candidate_pairs(&texts, 0.3);
        for h in [2usize, 3, 5, 8] {
            let hits = cluster_based_hits(&cands, h);
            assert!(hits_cover_all(&cands, &hits), "coverage broken at h={h}");
        }
    }
}
