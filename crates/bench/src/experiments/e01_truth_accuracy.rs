// crowdkit-lint: allow-file(PANIC001) — experiment harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
//! E1 — Truth-inference accuracy vs redundancy across crowd mixes.
//!
//! Emulates the comparison tables of the truth-inference literature
//! (Dawid–Skene '79 evaluations, ZenCrowd '12, GLAD '09): label accuracy
//! of each algorithm as the per-task redundancy `k` grows, for three
//! worker-population mixes. Expected shape: the EM family matches MV on
//! reliable crowds and pulls ahead as spam grows; everyone improves with
//! `k`.

use crowdkit_core::metrics::accuracy;
use crowdkit_core::traits::TruthInferencer;
use crowdkit_obs as obs;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::population::{mixes, Population};
use crowdkit_sim::SimulatedCrowd;
use crowdkit_truth::{pipeline::label_tasks, DawidSkene, Glad, Kos, MajorityVote, OneCoinEm};

use crate::table::{pct, Table};

const N_TASKS: usize = 300;
const POP: usize = 50;
const SEEDS: [u64; 3] = [1, 2, 3];

fn algorithms() -> Vec<Box<dyn TruthInferencer>> {
    vec![
        Box::new(MajorityVote),
        Box::new(OneCoinEm::default()),
        Box::new(DawidSkene::default()),
        Box::new(Glad::default()),
        Box::new(Kos::default()),
    ]
}

fn mix_table(name: &str, make_pop: fn(usize, u64) -> Population) -> Table {
    let ks = [1usize, 3, 5, 7, 9];
    let mut t = Table::new(
        format!(
            "E1: label accuracy, {name} crowd ({N_TASKS} binary tasks, mean of {} seeds)",
            SEEDS.len()
        ),
        &["algorithm", "k=1", "k=3", "k=5", "k=7", "k=9"],
    );
    for algo in algorithms() {
        let mut cells = vec![algo.name().to_owned()];
        for &k in &ks {
            let mut acc = 0.0;
            for &seed in &SEEDS {
                let data = LabelingDataset::binary(N_TASKS, seed);
                let crowd = SimulatedCrowd::new(make_pop(POP, seed), seed);
                let out = label_tasks(&crowd, &data.tasks, k, algo.as_ref())
                    .expect("collection succeeds");
                let predicted: Vec<u32> = data
                    .tasks
                    .iter()
                    .map(|task| out.label_for(task).expect("labelled"))
                    .collect();
                acc += accuracy(&predicted, &data.truths);
            }
            obs::quality("accuracy", acc / SEEDS.len() as f64);
            cells.push(pct(acc / SEEDS.len() as f64));
        }
        t.row(cells);
    }
    t
}

/// Runs E1.
pub fn run() -> Vec<Table> {
    vec![
        mix_table("reliable", mixes::reliable),
        mix_table("mixed", mixes::mixed),
        mix_table("spam-heavy", mixes::spam_heavy),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_shape_em_beats_mv_under_spam_at_k5() {
        // Smoke the experiment at reduced size via the real code path.
        let tables = run();
        assert_eq!(tables.len(), 3);
        let spam = &tables[2];
        // Row 0 = mv, row 2 = ds; column 3 = k=5.
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let mv_k5 = parse(&spam.rows[0][3]);
        let ds_k5 = parse(&spam.rows[2][3]);
        assert!(
            ds_k5 > mv_k5,
            "DS ({ds_k5}) must beat MV ({mv_k5}) on the spam-heavy mix"
        );
    }
}
