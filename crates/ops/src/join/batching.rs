//! HIT batching for crowd joins (CrowdER-style).
//!
//! Showing workers one pair per HIT wastes money: a HIT that displays `h`
//! records lets one worker judge all `h·(h−1)/2` pairs among them at once.
//! CrowdER (Wang et al., 2012) contrasts two batching schemes:
//!
//! * **Pair-based** — pack `b` candidate pairs per HIT; cost is
//!   `⌈|pairs| / b⌉` HITs.
//! * **Cluster-based** — choose *record groups* of size ≤ `h` such that
//!   every candidate pair appears together in some group. Because
//!   candidate pairs cluster around duplicate entities, a good grouping
//!   covers many pairs per HIT; finding the minimum grouping is NP-hard
//!   and CrowdER uses a greedy heuristic, reproduced here.
//!
//! Experiment E13 sweeps both against the HIT size.

use std::collections::{HashMap, HashSet};

use super::blocking::CandidatePair;

/// One cluster-based HIT: a group of records shown together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordHit {
    /// The records shown in this HIT (sorted, deduplicated).
    pub records: Vec<usize>,
}

impl RecordHit {
    /// The unordered record pairs this HIT lets a worker judge.
    pub fn covered_pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, &a) in self.records.iter().enumerate() {
            for &b in &self.records[i + 1..] {
                out.push((a.min(b), a.max(b)));
            }
        }
        out
    }
}

/// Packs candidate pairs into HITs of `pairs_per_hit` pairs each, in the
/// given order. Returns the chunks.
///
/// # Panics
/// Panics if `pairs_per_hit == 0`.
pub fn pair_based_hits(pairs: &[CandidatePair], pairs_per_hit: usize) -> Vec<Vec<(usize, usize)>> {
    assert!(pairs_per_hit > 0, "HITs must hold at least one pair");
    pairs
        .chunks(pairs_per_hit)
        .map(|chunk| chunk.iter().map(|p| (p.a, p.b)).collect())
        .collect()
}

/// Greedy cluster-based HIT generation: repeatedly grow a record group of
/// size ≤ `records_per_hit`, always adding the record that covers the most
/// still-uncovered candidate pairs with the group (ties → smallest id),
/// until every candidate pair is covered by some HIT.
///
/// # Panics
/// Panics if `records_per_hit < 2` (a group of one covers nothing).
pub fn cluster_based_hits(pairs: &[CandidatePair], records_per_hit: usize) -> Vec<RecordHit> {
    assert!(
        records_per_hit >= 2,
        "groups must hold at least two records"
    );
    // Adjacency over candidate pairs. Hash-ordered containers are safe
    // here: every greedy selection below (seed, best addition, reseed) is
    // resolved by a total order — (gain, smallest id) — so enumeration
    // order cannot reach the output (determinism contract, DET001).
    let mut adjacency: HashMap<usize, HashSet<usize>> = HashMap::new();
    let mut uncovered: HashSet<(usize, usize)> = HashSet::new();
    for p in pairs {
        let key = (p.a.min(p.b), p.a.max(p.b));
        if uncovered.insert(key) {
            adjacency.entry(key.0).or_default().insert(key.1);
            adjacency.entry(key.1).or_default().insert(key.0);
        }
    }

    let uncovered_degree = |r: usize,
                            uncovered: &HashSet<(usize, usize)>,
                            adjacency: &HashMap<usize, HashSet<usize>>|
     -> usize {
        adjacency
            .get(&r)
            .map(|ns| {
                ns.iter()
                    .filter(|&&n| uncovered.contains(&(r.min(n), r.max(n))))
                    .count()
            })
            .unwrap_or(0)
    };

    let mut hits = Vec::new();
    while !uncovered.is_empty() {
        // Seed: the record touching the most uncovered pairs.
        let &seed = adjacency
            .keys()
            .max_by_key(|&&r| {
                (
                    uncovered_degree(r, &uncovered, &adjacency),
                    std::cmp::Reverse(r),
                )
            })
            .expect("uncovered pairs imply records"); // crowdkit-lint: allow(PANIC001) — adjacency indexes every record of every uncovered pair, so it is non-empty here
        let mut group: Vec<usize> = vec![seed];
        let mut group_set: HashSet<usize> = [seed].into();

        while group.len() < records_per_hit {
            // Candidate additions: neighbours of the group.
            let mut best: Option<(usize, usize)> = None; // (gain, record)
            let mut seen: HashSet<usize> = HashSet::new();
            for &g in &group {
                if let Some(ns) = adjacency.get(&g) {
                    for &n in ns {
                        if group_set.contains(&n) || !seen.insert(n) {
                            continue;
                        }
                        let gain = group
                            .iter()
                            .filter(|&&m| uncovered.contains(&(n.min(m), n.max(m))))
                            .count();
                        if gain > 0 {
                            let better = match best {
                                None => true,
                                Some((bg, br)) => gain > bg || (gain == bg && n < br),
                            };
                            if better {
                                best = Some((gain, n));
                            }
                        }
                    }
                }
            }
            match best {
                Some((_, r)) => {
                    group.push(r);
                    group_set.insert(r);
                }
                None => {
                    // No neighbour adds coverage: if space remains (at
                    // least 2 slots), pack another cluster into the same
                    // HIT by reseeding from the remaining uncovered pairs
                    // (CrowdER packs multiple small clusters per HIT).
                    if group.len() + 2 > records_per_hit {
                        break;
                    }
                    let reseed = adjacency
                        .keys()
                        .filter(|r| !group_set.contains(r))
                        .map(|&r| (uncovered_degree(r, &uncovered, &adjacency), r))
                        .filter(|&(d, _)| d > 0)
                        .max_by_key(|&(d, r)| (d, std::cmp::Reverse(r)));
                    match reseed {
                        Some((_, r)) => {
                            group.push(r);
                            group_set.insert(r);
                        }
                        None => break,
                    }
                }
            }
        }

        group.sort_unstable();
        // Mark everything inside the group covered.
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                uncovered.remove(&(a.min(b), a.max(b)));
            }
        }
        hits.push(RecordHit { records: group });
    }
    hits
}

/// True if every candidate pair appears together in at least one HIT.
pub fn hits_cover_all(pairs: &[CandidatePair], hits: &[RecordHit]) -> bool {
    let mut covered: HashSet<(usize, usize)> = HashSet::new();
    for h in hits {
        covered.extend(h.covered_pairs());
    }
    pairs
        .iter()
        .all(|p| covered.contains(&(p.a.min(p.b), p.a.max(p.b))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(ps: &[(usize, usize)]) -> Vec<CandidatePair> {
        ps.iter()
            .map(|&(a, b)| CandidatePair {
                a,
                b,
                similarity: 0.5,
            })
            .collect()
    }

    #[test]
    fn pair_based_chunks_exactly() {
        let ps = pairs(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let hits = pair_based_hits(&ps, 2);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0], vec![(0, 1), (1, 2)]);
        assert_eq!(hits[2], vec![(4, 5)]);
    }

    #[test]
    #[should_panic(expected = "at least one pair")]
    fn pair_based_rejects_zero() {
        let _ = pair_based_hits(&[], 0);
    }

    #[test]
    fn cluster_based_covers_everything() {
        // A 4-clique of candidates (records 0-3 all pairwise similar) plus
        // an isolated pair (7, 8).
        let mut ps = Vec::new();
        for a in 0..4usize {
            for b in (a + 1)..4 {
                ps.push((a, b));
            }
        }
        ps.push((7, 8));
        let cands = pairs(&ps);
        let hits = cluster_based_hits(&cands, 4);
        assert!(hits_cover_all(&cands, &hits));
        // The clique fits in one HIT of 4 records; the pair takes another.
        assert_eq!(hits.len(), 2, "hits: {hits:?}");
    }

    #[test]
    fn cluster_based_beats_pair_based_on_cliquey_data() {
        // Candidates around duplicate groups: three 4-cliques.
        let mut ps = Vec::new();
        for g in 0..3usize {
            let base = g * 4;
            for a in 0..4 {
                for b in (a + 1)..4 {
                    ps.push((base + a, base + b));
                }
            }
        }
        let cands = pairs(&ps); // 18 pairs
        let cluster = cluster_based_hits(&cands, 4);
        // Pair-based with the same *display capacity*: a 4-record HIT shows
        // 6 pairs, so compare against 6 pairs/HIT.
        let pairwise = pair_based_hits(&cands, 6);
        assert!(hits_cover_all(&cands, &cluster));
        assert!(cluster.len() <= pairwise.len());
        assert_eq!(cluster.len(), 3, "one HIT per clique");
    }

    #[test]
    fn cluster_based_respects_group_size() {
        let mut ps = Vec::new();
        for a in 0..10usize {
            for b in (a + 1)..10 {
                ps.push((a, b));
            }
        }
        let cands = pairs(&ps);
        let hits = cluster_based_hits(&cands, 3);
        assert!(hits.iter().all(|h| h.records.len() <= 3));
        assert!(hits_cover_all(&cands, &hits));
    }

    #[test]
    fn cluster_based_handles_chains() {
        // A path graph: 0-1-2-3-4. Groups of 3 cover two path edges each;
        // non-candidate pairs inside a group are harmless.
        let cands = pairs(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let hits = cluster_based_hits(&cands, 3);
        assert!(hits_cover_all(&cands, &hits));
        assert!(hits.len() <= 3);
    }

    #[test]
    fn empty_input_produces_no_hits() {
        assert!(cluster_based_hits(&[], 4).is_empty());
        assert!(pair_based_hits(&[], 5).is_empty());
        assert!(hits_cover_all(&[], &[]));
    }

    #[test]
    #[should_panic(expected = "at least two records")]
    fn cluster_based_rejects_tiny_groups() {
        let _ = cluster_based_hits(&[], 1);
    }

    #[test]
    fn covered_pairs_enumerates_the_group() {
        let h = RecordHit {
            records: vec![1, 4, 7],
        };
        assert_eq!(h.covered_pairs(), vec![(1, 4), (1, 7), (4, 7)]);
    }

    #[test]
    fn duplicate_candidate_pairs_are_deduplicated() {
        let cands = pairs(&[(0, 1), (1, 0), (0, 1)]);
        let hits = cluster_based_hits(&cands, 2);
        assert_eq!(hits.len(), 1);
        assert!(hits_cover_all(&cands, &hits));
    }
}
