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

/// Builds a crowd of `n` workers from a seed.
type MakePop = fn(usize, u64) -> Population;

fn algorithms() -> Vec<Box<dyn TruthInferencer>> {
    vec![
        Box::new(MajorityVote),
        Box::new(OneCoinEm::default()),
        Box::new(DawidSkene::default()),
        Box::new(Glad::default()),
        Box::new(Kos::default()),
    ]
}

/// Mean accuracy over [`SEEDS`] of `algo` on `k` answers a task from the
/// crowd `make_pop` builds.
fn mean_accuracy(algo: &dyn TruthInferencer, make_pop: MakePop, k: usize) -> f64 {
    let mut acc = 0.0;
    for &seed in &SEEDS {
        let data = LabelingDataset::binary(N_TASKS, seed);
        let crowd = SimulatedCrowd::new(make_pop(POP, seed), seed);
        let out = label_tasks(&crowd, &data.tasks, k, algo).expect("collection succeeds");
        let predicted: Vec<u32> = data
            .tasks
            .iter()
            .map(|task| out.label_for(task).expect("labelled"))
            .collect();
        acc += accuracy(&predicted, &data.truths);
    }
    acc / SEEDS.len() as f64
}

fn mix_table(name: &str, make_pop: MakePop) -> Table {
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
            let acc = mean_accuracy(algo.as_ref(), make_pop, k);
            obs::quality("accuracy", acc);
            cells.push(pct(acc));
        }
        t.row(cells);
    }
    t
}

/// The three crowd mixes, in table order.
const MIXES: [(&str, MakePop); 3] = [
    ("reliable", mixes::reliable),
    ("mixed", mixes::mixed),
    ("spam-heavy", mixes::spam_heavy),
];

/// Runs E1.
pub fn run() -> Vec<Table> {
    MIXES
        .iter()
        .map(|&(name, make_pop)| mix_table(name, make_pop))
        .collect()
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

    #[test]
    fn e1_shape_ds_and_kos_keep_up_with_mv_at_k1() {
        // One answer a task: nothing to learn a worker from, so the vote
        // is the best anyone can do. DS's diagonal prior and KOS's vote
        // fallback must stay within 2 points of it on every crowd.
        for (name, make_pop) in MIXES {
            let mv = mean_accuracy(&MajorityVote, make_pop, 1);
            let algos: [&dyn TruthInferencer; 2] = [&DawidSkene::default(), &Kos::default()];
            for algo in algos {
                let acc = mean_accuracy(algo, make_pop, 1);
                assert!(
                    acc >= mv - 0.02,
                    "{} reads {:.1} % against MV's {:.1} % at k=1 on the {name} crowd",
                    algo.name(),
                    100.0 * acc,
                    100.0 * mv
                );
            }
        }
    }
}
