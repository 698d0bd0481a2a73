//! Pins the platform's answer streams. Seeded batched and single-answer
//! runs on a plain, a churned and a qualification-filtered pool, with
//! worker exclusions, are digested over every answer's (task, worker,
//! value, `submitted_at`), every shortfall, and the final clock and spend.
//! A change to worker choice, answer generation, latency draws or the
//! clock fails here, not only as shifted experiment numerics.
//!
//! Every run is driven twice, its single answers once through `ask_one`
//! and once through a one-answer `ask`: both must give the same pinned
//! digest, because `ask_one` is a batch of one.

use crowdkit_core::answer::Answer;
use crowdkit_core::ask::AskRequest;
use crowdkit_core::budget::Budget;
use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::ids::WorkerId;
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::latency::LatencyModel;
use crowdkit_sim::population::mixes;
use crowdkit_sim::{Churn, PlatformBuilder, Qualification, SimulatedCrowd};

/// FNV-1a over everything the platform hands back.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Everything one [`drive`] observes.
struct Tally {
    digest: Digest,
    /// Workers each task holds so far, in delivery order.
    held: Vec<Vec<WorkerId>>,
    /// Upper bound on one service time.
    max_service: f64,
    /// Answers served later than `max_service` after their ask started:
    /// nobody eligible was online, so the pick waited for an arrival.
    waits: usize,
}

impl Tally {
    fn answer(&mut self, a: &Answer, started: f64) {
        self.digest.u64(a.task.raw());
        self.digest.u64(a.worker.raw());
        self.digest.bytes(format!("{:?}", a.value).as_bytes());
        self.digest.u64(a.submitted_at.to_bits());
        self.held[a.task.raw() as usize].push(a.worker);
        self.waits += usize::from(a.submitted_at > started + self.max_service);
    }

    fn batch(&mut self, crowd: &SimulatedCrowd, reqs: &[AskRequest<'_>]) {
        let epoch = crowd.now();
        for out in crowd.ask_batch(reqs).expect("batch") {
            out.answers.iter().for_each(|a| self.answer(a, epoch));
            self.digest.bytes(format!("{:?}", out.shortfall).as_bytes());
        }
    }
}

/// How step 2 of [`drive`] buys one answer.
type AskOne = fn(&SimulatedCrowd, &Task) -> Result<Answer>;

fn via_ask_one(crowd: &SimulatedCrowd, task: &Task) -> Result<Answer> {
    crowd.ask_one(task)
}

/// One answer through [`CrowdOracle::ask`], or its shortfall as the error.
fn via_ask(crowd: &SimulatedCrowd, task: &Task) -> Result<Answer> {
    let mut out = crowd.ask(&AskRequest::new(task))?;
    match out.answers.pop() {
        Some(a) => Ok(a),
        None => Err(out.shortfall.unwrap_or(CrowdError::NoWorkerAvailable)),
    }
}

/// A fixed mix of batched and single asks over 60 binary tasks:
///
/// 1. a batch of 3 answers for the first 40 tasks, where every fifth
///    request excludes two pool workers, an id outside the pool, a raw id
///    the pool may or may not hold, and a duplicate;
/// 2. one answer, through `one`, on each of tasks 30–59, a third of them
///    already reserved by the batch;
/// 3. a batch of 2 more answers for all 60, where every third request
///    excludes workers the task already holds (from step 1 or 2, one of
///    them twice), a pool worker and an id outside the pool.
///
/// Returns the tally: the digest also covers the final clock and spend.
fn drive(crowd: &SimulatedCrowd, seed: u64, max_service: f64, one: AskOne) -> Tally {
    let tasks = LabelingDataset::binary(60, seed).tasks;
    let ids: Vec<WorkerId> = crowd.population().workers().iter().map(|w| w.id).collect();
    let mut tally = Tally {
        digest: Digest::new(),
        held: vec![Vec::new(); tasks.len()],
        max_service,
        waits: 0,
    };

    let first: Vec<AskRequest<'_>> = tasks[..40]
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let req = AskRequest::new(t).with_redundancy(3);
            if i % 5 != 0 {
                return req;
            }
            let own = ids[i % ids.len()];
            req.without_workers([
                own,
                ids[(i * 7 + 3) % ids.len()],
                WorkerId::new(1_000_000),
                WorkerId::new(i as u64),
                own,
            ])
        })
        .collect();
    tally.batch(crowd, &first);

    for t in &tasks[30..] {
        let before = crowd.now();
        match one(crowd, t) {
            Ok(a) => tally.answer(&a, before),
            Err(e) => tally.digest.bytes(format!("{e:?}").as_bytes()),
        }
    }

    let second: Vec<AskRequest<'_>> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let req = AskRequest::new(t).with_redundancy(2);
            match (tally.held[i].first(), tally.held[i].last()) {
                (Some(&first), Some(&last)) if i % 3 == 0 => req.without_workers([
                    last,
                    ids[(i * 11 + 5) % ids.len()],
                    first,
                    WorkerId::new(2_000_000),
                    last,
                ]),
                _ => req,
            }
        })
        .collect();
    tally.batch(crowd, &second);

    tally.digest.u64(crowd.now().to_bits());
    tally.digest.u64(crowd.budget().spent().to_bits());
    tally
}

/// Drives a fresh platform from `build` through `ask_one` and through a
/// one-answer `ask`, asserts both give `want`, and returns the first run.
fn pinned(build: impl Fn() -> SimulatedCrowd, seed: u64, max_service: f64, want: u64) -> Tally {
    let run = drive(&build(), seed, max_service, via_ask_one);
    let via_ask = drive(&build(), seed, max_service, via_ask);
    assert_eq!(run.digest.0, want, "ask_one digest {:#X}", run.digest.0);
    assert_eq!(via_ask.digest.0, want, "ask digest {:#X}", via_ask.digest.0);
    run
}

#[test]
fn plain_pool_streams_are_pinned() {
    let build = || {
        PlatformBuilder::new(mixes::mixed(50, 3))
            .latency(LatencyModel::human_default())
            .seed(11)
            .threads(2)
            .build()
    };
    pinned(build, 11, f64::INFINITY, 0xAFF9_070B_B0D4_DB92);
}

#[test]
fn churned_pool_streams_are_pinned() {
    // 30 workers online 5% of the time: most epochs find one or two
    // eligible workers online, and some find none, so picks also wait for
    // the earliest arrival. A constant service time makes those waits
    // visible from outside: only a wait serves an answer later than one
    // service time after its ask started.
    let build = || {
        PlatformBuilder::new(mixes::mixed(30, 4))
            .churn(Churn {
                duty_cycle: 0.05,
                period: 600.0,
            })
            .latency(LatencyModel::Constant { secs: 30.0 })
            .seed(12)
            .threads(2)
            .build()
    };
    let run = pinned(build, 12, 30.0, 0x9932_B903_CD79_A755);
    assert!(run.waits > 0, "no pick waited for an arrival");
}

#[test]
fn qualified_pool_streams_are_pinned() {
    // Screening leaves a pool whose worker ids are not dense; the budget
    // covers screening (60 × 6) and part of the asks, so the run ends in
    // budget shortfalls.
    let build = || {
        PlatformBuilder::new(mixes::spam_heavy(60, 5))
            .qualification(Qualification {
                questions: 6,
                pass_fraction: 0.7,
                difficulty: 0.2,
            })
            .churn(Churn {
                duty_cycle: 0.5,
                period: 600.0,
            })
            .budget(Budget::new(560.0))
            .latency(LatencyModel::human_default())
            .seed(13)
            .threads(2)
            .build()
    };
    let ids: Vec<u64> = build()
        .population()
        .workers()
        .iter()
        .map(|w| w.id.raw())
        .collect();
    assert!(
        ids.iter().enumerate().any(|(i, &id)| id != i as u64),
        "screening must leave a pool with gaps in its ids: {ids:?}"
    );
    pinned(build, 13, f64::INFINITY, 0xD120_12BC_36EE_A9C8);
}
