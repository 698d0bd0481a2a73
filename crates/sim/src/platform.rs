//! The simulated crowdsourcing platform.
//!
//! [`SimulatedCrowd`] is the stand-in for Amazon Mechanical Turk: it owns a
//! worker [`Population`], a [`Budget`], a [`CostModel`] and a
//! [`LatencyModel`], and serves answers through the
//! [`CrowdOracle`] interface. Like a real platform it
//! never assigns the same worker to the same task twice, debits the budget
//! per answer, and timestamps answers on a simulated clock.
//!
//! # Concurrency model
//!
//! The platform is a *shared service*: every [`CrowdOracle`] method takes
//! `&self`, and everything a batch changes — the simulated clock, the
//! budget, the per-task reservations (which workers answered, as ascending
//! pool indices, and how many attempts) and the delivered-answer count —
//! lives in one state behind one mutex.
//!
//! Every answer is served by [`CrowdOracle::ask_batch`]: `ask` is a batch
//! of one request and `ask_one` a batch of one answer, so each answer
//! comes from its own RNG stream and is reported in a `platform.batch`
//! event. A batch runs in two phases: a sequential *planning* phase under
//! the lock (budget funded in request order, workers reserved, one
//! independent RNG stream derived per assignment — see [`crate::exec`])
//! and an embarrassingly parallel *execution* phase, run without it, that
//! computes answer values and latency draws on scoped threads; assembly
//! takes the lock again to advance the clock and the count. All
//! assignments in a batch start at the batch epoch, so their simulated
//! latencies **overlap**: a batch advances the clock by its makespan, not
//! the sum — the dominant latency lever of crowd execution (HIT batching)
//! — while `n` one-answer calls advance it by the sum of their latencies.
//! Because every cross-assignment decision happens in the sequential
//! phase, results are byte-identical at any thread count. Batches too
//! small to give every thread a fixed minimum of assignments execute on
//! the calling thread (see [`parallel_map`]).
//!
//! # Worker picks
//!
//! A pick is uniform over the eligible workers, drawn from the
//! assignment's pick stream with a single `gen_range(0..count)` and mapped
//! to the drawn worker by walking the task's sorted skip list (workers
//! already asked, plus the request's exclusions). A pick therefore costs
//! O(|asked| + |exclude|), not O(pool). Under churn the candidates are the
//! workers online at the epoch, listed once per batch; only when no
//! eligible worker is online does a pick scan the pool for the earliest
//! arrival.

use crowdkit_core::answer::Answer;
use crowdkit_core::ask::{AskOutcome, AskRequest};
use crowdkit_core::budget::{Budget, CostModel};
use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::hash::IdMap;
use crowdkit_core::ids::{TaskId, WorkerId};
use crowdkit_core::par::{default_threads, parallel_map};
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;
use crowdkit_obs::{self as obs, Event};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::exec::derive_seed;
use crate::latency::LatencyModel;
use crate::population::Population;

/// Salt distinguishing the worker-pick RNG stream from the answer stream.
const PICK_STREAM_SALT: u64 = 0x517C_C1B7_2722_0A95;

/// Builder for [`SimulatedCrowd`].
#[derive(Debug, Clone)]
pub struct PlatformBuilder {
    population: Population,
    budget: Budget,
    cost_model: CostModel,
    latency: LatencyModel,
    seed: u64,
    qualification: Option<Qualification>,
    churn: Option<Churn>,
    threads: usize,
}

/// Worker churn: workers are not always online. Each worker follows a
/// deterministic duty cycle (a per-worker phase offset over a shared
/// period); when no eligible worker is online, the platform *waits* —
/// advancing the simulated clock to the next arrival — before serving the
/// answer. This is the worker-supply component of crowd latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Churn {
    /// Fraction of time each worker is online, in `(0, 1]`.
    pub duty_cycle: f64,
    /// Length of one on/off cycle in simulated seconds.
    pub period: f64,
}

impl Churn {
    /// Deterministic phase offset of a worker within the period.
    fn phase(&self, worker: WorkerId, seed: u64) -> f64 {
        // Cheap splitmix-style hash → [0, 1).
        let mut x = worker.raw() ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        u * self.period
    }

    /// Whether the worker is online at simulated time `t`.
    fn online(&self, worker: WorkerId, seed: u64, t: f64) -> bool {
        let pos = (t + self.phase(worker, seed)).rem_euclid(self.period);
        pos < self.duty_cycle * self.period
    }

    /// The earliest time ≥ `t` at which the worker is online.
    fn next_online(&self, worker: WorkerId, seed: u64, t: f64) -> f64 {
        if self.online(worker, seed, t) {
            return t;
        }
        let pos = (t + self.phase(worker, seed)).rem_euclid(self.period);
        t + (self.period - pos)
    }
}

/// A qualification test gating entry to the worker pool: each worker
/// answers `questions` binary screening questions of the given difficulty;
/// only workers whose private score reaches `pass_fraction` may take real
/// tasks. Each administered question is paid at the platform's
/// single-choice price (qualification is not free — that is the trade-off
/// experiment E13 quantifies for gold injection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Qualification {
    /// Number of screening questions per worker.
    pub questions: u32,
    /// Minimum fraction answered correctly to pass (e.g. 0.7).
    pub pass_fraction: f64,
    /// Difficulty of the screening questions, in `[0, 1]`.
    pub difficulty: f64,
}

impl PlatformBuilder {
    /// Starts a builder over the given population with an unlimited budget,
    /// unit costs, constant zero latency, and seed 0.
    pub fn new(population: Population) -> Self {
        Self {
            population,
            budget: Budget::unlimited(),
            cost_model: CostModel::unit(),
            latency: LatencyModel::Constant { secs: 0.0 },
            seed: 0,
            qualification: None,
            churn: None,
            threads: default_threads(),
        }
    }

    /// Enables worker churn; see [`Churn`].
    ///
    /// # Panics
    /// Panics if the duty cycle is not in `(0, 1]` or the period is not
    /// positive.
    pub fn churn(mut self, churn: Churn) -> Self {
        assert!(
            churn.duty_cycle > 0.0 && churn.duty_cycle <= 1.0,
            "duty cycle must be in (0, 1]"
        );
        assert!(churn.period > 0.0, "churn period must be positive");
        self.churn = Some(churn);
        self
    }

    /// Gates the pool behind a qualification test; see [`Qualification`].
    pub fn qualification(mut self, qualification: Qualification) -> Self {
        self.qualification = Some(qualification);
        self
    }

    /// Sets the budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the cost model.
    pub fn cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Sets the latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the RNG seed (answers, worker choice and latency draws are all
    /// deterministic functions of this seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the width of the batch-execution worker pool. Thread count
    /// never affects results — only how fast batches are computed.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread pool must have at least one worker");
        self.threads = threads;
        self
    }

    /// Finishes the build, administering the qualification test (if any)
    /// to every worker. Screening answers are paid from the budget; if the
    /// budget dies mid-screening, the remaining workers are rejected
    /// unscreened.
    pub fn build(self) -> SimulatedCrowd {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut budget = self.budget;
        let population = match self.qualification {
            None => self.population,
            Some(q) => {
                let screening = Task::binary(TaskId::new(u64::MAX), "qualification question")
                    .with_difficulty(q.difficulty)
                    .with_truth(crowdkit_core::answer::AnswerValue::Choice(1));
                let price = self.cost_model.price(&screening.kind);
                let passed: Vec<_> = self
                    .population
                    .workers()
                    .iter()
                    .filter(|w| {
                        let mut correct = 0u32;
                        for _ in 0..q.questions.max(1) {
                            if budget.debit(price).is_err() {
                                return false;
                            }
                            if w.answer(&screening, &mut rng)
                                == crowdkit_core::answer::AnswerValue::Choice(1)
                            {
                                correct += 1;
                            }
                        }
                        correct as f64 / q.questions.max(1) as f64 >= q.pass_fraction
                    })
                    .cloned()
                    .collect();
                Population::from_profiles(passed)
            }
        };
        let mut by_id: Vec<(WorkerId, u32)> = population
            .workers()
            .iter()
            .zip(0u32..)
            .map(|(w, i)| (w.id, i))
            .collect();
        by_id.sort_unstable();
        SimulatedCrowd {
            population,
            by_id,
            cost_model: self.cost_model,
            latency: self.latency,
            churn: self.churn,
            seed: self.seed,
            threads: self.threads,
            state: Mutex::new(State {
                clock: 0.0,
                budget,
                tasks: IdMap::default(),
                delivered: 0,
            }),
        }
    }
}

/// Everything a batch changes, behind the platform's one lock.
#[derive(Debug)]
struct State {
    /// The simulated clock, in seconds.
    clock: f64,
    budget: Budget,
    /// Reservations and attempt counts of every task asked so far; looked
    /// up, never iterated, so its hasher cannot change an output.
    tasks: IdMap<TaskId, TaskState>,
    /// Answers delivered so far.
    delivered: u64,
}

/// Per-task assignment bookkeeping.
#[derive(Debug, Default)]
struct TaskState {
    /// Population indices, ascending, of the workers already assigned to
    /// this task (a worker answers a given task at most once, as on real
    /// platforms).
    asked: Vec<u32>,
    /// Monotone count of assignments ever planned for this task; the
    /// per-assignment RNG streams are derived from it, so streams never
    /// repeat across separate asks for the same task.
    attempts: u64,
}

impl TaskState {
    /// Records that the worker at `worker_idx` now holds this task.
    fn reserve(&mut self, worker_idx: usize) {
        let i = worker_idx as u32;
        if let Err(at) = self.asked.binary_search(&i) {
            self.asked.insert(at, i);
        }
    }
}

/// One funded, reserved assignment awaiting parallel execution.
#[derive(Debug, Clone, Copy)]
struct PlannedAsk {
    /// Index of the originating request in the batch.
    req_idx: usize,
    /// Index of the reserved worker in the population.
    worker_idx: usize,
    /// Simulated time at which the worker starts (batch epoch, or the
    /// worker's next online window under churn).
    serve_start: f64,
    /// Seed of this assignment's independent RNG stream.
    rng_seed: u64,
    /// Price debited for this assignment.
    price: f64,
}

/// The simulated platform; implements [`CrowdOracle`].
///
/// Thread-safe: share it as `&SimulatedCrowd` (or in an `Arc`) across
/// threads. See the module docs for the locking and determinism model.
#[derive(Debug)]
pub struct SimulatedCrowd {
    population: Population,
    /// Every worker's id with its population index, sorted by id.
    by_id: Vec<(WorkerId, u32)>,
    cost_model: CostModel,
    latency: LatencyModel,
    churn: Option<Churn>,
    seed: u64,
    threads: usize,
    /// Everything a batch changes; planning holds the lock for the whole
    /// batch.
    state: Mutex<State>,
}

impl SimulatedCrowd {
    /// Convenience constructor with platform defaults; see
    /// [`PlatformBuilder::new`].
    pub fn new(population: Population, seed: u64) -> Self {
        PlatformBuilder::new(population).seed(seed).build()
    }

    /// The underlying population (e.g. to read true worker qualities when
    /// scoring an experiment).
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.state.lock().clock
    }

    /// A snapshot of the budget state.
    pub fn budget(&self) -> Budget {
        self.state.lock().budget.clone()
    }

    /// Population indices, ascending, of the workers online at simulated
    /// time `t`; `None` without churn, when every worker always is.
    fn online_at(&self, t: f64) -> Option<Vec<u32>> {
        let churn = self.churn?;
        Some(
            self.population
                .workers()
                .iter()
                .zip(0u32..)
                .filter(|(w, _)| churn.online(w.id, self.seed, t))
                .map(|(_, i)| i)
                .collect(),
        )
    }

    /// Population indices, ascending and without duplicates, of the
    /// workers in `ids` that the pool holds.
    fn pool_indices(&self, ids: &[WorkerId]) -> Vec<u32> {
        let mut out: Vec<u32> = ids
            .iter()
            .filter_map(|id| {
                let at = self.by_id.binary_search_by_key(id, |&(w, _)| w).ok()?;
                Some(self.by_id[at].1)
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The worker pick behind every answer: uniform over the eligible
    /// workers, a deterministic function of `rng`, the skip list and the
    /// time `at` — never of thread timing.
    ///
    /// The candidates are `online` (ascending population indices; `None`
    /// means the whole pool) minus `skip`, the ascending, duplicate-free
    /// population indices already asked or excluded. One
    /// `gen_range(0..count)` draw picks the r-th candidate, found by
    /// stepping over the skipped candidates at or below it, so a pick
    /// costs O(|skip|), plus a binary search of `online` per skipped
    /// worker under churn. Returns the worker's population index and serve
    /// time: `at`, or — when churn leaves no eligible worker online — the
    /// earliest eligible arrival (the first on ties), found by a pool scan
    /// and without a draw. `None` when every worker is skipped.
    fn pick(
        &self,
        online: Option<&[u32]>,
        skip: &[u32],
        at: f64,
        rng: &mut StdRng,
    ) -> Option<(usize, f64)> {
        let pool = self.population.len();
        if skip.len() >= pool {
            return None;
        }
        // Positions, ascending, of the skipped workers among the candidates.
        let skipped = skip.iter().filter_map(|s| match online {
            None => Some(*s as usize),
            Some(on) => on.binary_search(s).ok(),
        });
        let count = online.map_or(pool, <[u32]>::len) - skipped.clone().count();
        if count > 0 {
            let mut r = rng.gen_range(0..count);
            for s in skipped {
                if s > r {
                    break;
                }
                r += 1;
            }
            return Some((online.map_or(r, |on| on[r] as usize), at));
        }
        // Only churn leaves eligible workers without a candidate: nobody
        // eligible is online, so wait for the earliest arrival.
        let churn = self.churn?;
        // The eligible workers: the pool minus `skip`, both ascending.
        let mut skip = skip.iter().peekable();
        (0..pool)
            .filter(|&i| skip.next_if_eq(&&(i as u32)).is_none())
            .map(|i| {
                let id = self.population.get(i).id;
                (i, churn.next_online(id, self.seed, at))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// `asked ∪ excluded` as one ascending, duplicate-free skip list, built in
/// `buf` unless nothing is excluded.
fn skip_list<'a>(asked: &'a [u32], excluded: &[u32], buf: &'a mut Vec<u32>) -> &'a [u32] {
    if excluded.is_empty() {
        return asked;
    }
    buf.clear();
    buf.extend_from_slice(asked);
    buf.extend_from_slice(excluded);
    buf.sort_unstable();
    buf.dedup();
    buf
}

impl CrowdOracle for SimulatedCrowd {
    /// A batch of one: its answer, or the shortfall that left it without
    /// one. Like any batch it advances the clock by its service time, after
    /// waiting for an arrival when churn leaves nobody eligible online.
    fn ask_one(&self, task: &Task) -> Result<Answer> {
        let mut out = self.ask(&AskRequest::new(task))?;
        match out.answers.pop() {
            Some(a) => Ok(a),
            // A batch that bought nothing always records why.
            None => Err(out.shortfall.unwrap_or(CrowdError::NoWorkerAvailable)),
        }
    }

    fn ask(&self, req: &AskRequest<'_>) -> Result<AskOutcome> {
        let mut outcomes = self.ask_batch(std::slice::from_ref(req))?;
        Ok(outcomes.pop().expect("one outcome per request")) // crowdkit-lint: allow(PANIC001) — ask_batch returns exactly one outcome per submitted request
    }

    /// The batched engine. Planning (budget in request order, worker
    /// reservation, RNG-stream derivation) is sequential under the state
    /// lock; answer computation fans out over the thread pool; all
    /// assignments share the batch epoch so their simulated latencies
    /// overlap and the clock advances by the batch *makespan*.
    fn ask_batch(&self, reqs: &[AskRequest<'_>]) -> Result<Vec<AskOutcome>> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let rec = obs::scope().recorder;
        let t_plan = obs::WallTimer::start();

        // ---- Phase 1: sequential planning ------------------------------
        let (plan, mut outcomes, epoch) = {
            let mut guard = self.state.lock();
            let state = &mut *guard;
            let epoch = state.clock;
            let mut plan: Vec<PlannedAsk> = Vec::new();
            let mut outcomes: Vec<AskOutcome> = reqs
                .iter()
                .map(|r| AskOutcome::complete(r.task.id, r.redundancy.max(1), Vec::new()))
                .collect();
            // The epoch is fixed for the whole batch, and so is who is online.
            let online = self.online_at(epoch);
            let mut skip_buf = Vec::new();
            for (req_idx, req) in reqs.iter().enumerate() {
                let price = self.cost_model.price(&req.task.kind);
                let excluded = self.pool_indices(&req.exclude);
                let task_state = state.tasks.entry(req.task.id).or_default();
                for _ in 0..req.redundancy.max(1) {
                    if !state.budget.can_afford(price) {
                        outcomes[req_idx].shortfall = Some(CrowdError::BudgetExhausted {
                            requested: price,
                            remaining: state.budget.remaining(),
                        });
                        break;
                    }
                    let attempt = task_state.attempts;
                    let mut pick_rng = StdRng::seed_from_u64(derive_seed(
                        self.seed ^ PICK_STREAM_SALT,
                        req.task.id.raw(),
                        attempt,
                    ));
                    let skip = skip_list(&task_state.asked, &excluded, &mut skip_buf);
                    let Some((worker_idx, serve_start)) =
                        self.pick(online.as_deref(), skip, epoch, &mut pick_rng)
                    else {
                        outcomes[req_idx].shortfall = Some(CrowdError::NoWorkerAvailable);
                        break;
                    };
                    task_state.attempts += 1;
                    task_state.reserve(worker_idx);
                    state.budget.debit(price)?;
                    plan.push(PlannedAsk {
                        req_idx,
                        worker_idx,
                        serve_start,
                        rng_seed: derive_seed(self.seed, req.task.id.raw(), attempt),
                        price,
                    });
                }
            }
            (plan, outcomes, epoch)
        };
        let plan_ns = t_plan.elapsed_ns();
        let t_exec = obs::WallTimer::start();

        // ---- Phase 2: parallel execution -------------------------------
        let answers: Vec<Answer> = parallel_map(&plan, self.threads, |_, p| {
            let mut rng = StdRng::seed_from_u64(p.rng_seed);
            let worker = self.population.get(p.worker_idx);
            let task = reqs[p.req_idx].task;
            let value = worker.answer(task, &mut rng);
            let service = self.latency.sample(&mut rng);
            Answer {
                task: task.id,
                worker: worker.id,
                value,
                submitted_at: p.serve_start + service,
                cost: p.price,
            }
        });

        // ---- Assembly: input order, makespan clock ---------------------
        let exec_ns = t_exec.elapsed_ns();
        let enabled = rec.enabled();
        let detail = enabled && rec.detail();
        let mut makespan = epoch;
        let mut latency_sum = 0.0;
        let mut latencies = Vec::with_capacity(if enabled { plan.len() } else { 0 });
        for (p, a) in plan.iter().zip(answers) {
            makespan = makespan.max(a.submitted_at);
            if enabled {
                let latency = a.submitted_at - epoch;
                latency_sum += latency;
                latencies.push(latency);
                if detail {
                    rec.record(
                        Event::new("platform.assign")
                            .at(a.submitted_at)
                            .u64("task", a.task.raw())
                            .u64("worker", a.worker.raw())
                            .u64("req", p.req_idx as u64)
                            .f64("latency", latency)
                            .f64("price", p.price)
                            .detail(),
                    );
                }
            }
            outcomes[p.req_idx].answers.push(a);
        }
        {
            let mut state = self.state.lock();
            state.clock = state.clock.max(makespan);
            state.delivered += plan.len() as u64;
        }
        if enabled {
            rec.sample("platform.latency", &latencies);
            let (mut budget_stopped, mut no_worker) = (0u64, 0u64);
            for o in &outcomes {
                match &o.shortfall {
                    Some(CrowdError::BudgetExhausted { .. }) => budget_stopped += 1,
                    Some(CrowdError::NoWorkerAvailable) => no_worker += 1,
                    _ => {}
                }
            }
            rec.record(
                Event::new("platform.batch")
                    .at(makespan)
                    .u64("requests", reqs.len() as u64)
                    .u64("delivered", plan.len() as u64)
                    .f64("spend", plan.iter().map(|p| p.price).sum())
                    .f64("makespan", makespan - epoch)
                    .f64("latency_sum", latency_sum)
                    .u64("budget_stopped", budget_stopped)
                    .u64("no_worker", no_worker)
                    .wall("plan_ns", plan_ns)
                    .wall("exec_ns", exec_ns),
            );
        }
        Ok(outcomes)
    }

    fn remaining_budget(&self) -> Option<f64> {
        let state = self.state.lock();
        if state.budget.limit() == f64::MAX {
            None
        } else {
            Some(state.budget.remaining())
        }
    }

    fn answers_delivered(&self) -> u64 {
        self.state.lock().delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationBuilder;
    use crowdkit_core::answer::AnswerValue;
    use crowdkit_core::task::Task;
    use std::collections::HashSet;

    fn perfect_pop(n: usize) -> Population {
        PopulationBuilder::new().reliable(n, 1.0, 1.0).build(0)
    }

    #[test]
    fn platform_is_send_and_sync() {
        fn assert_shareable<T: Send + Sync>() {}
        assert_shareable::<SimulatedCrowd>();
    }

    #[test]
    fn ask_one_returns_correct_answer_from_perfect_worker() {
        let crowd = SimulatedCrowd::new(perfect_pop(5), 1);
        let task = Task::binary(TaskId::new(0), "q").with_truth(AnswerValue::Choice(1));
        let a = crowd.ask_one(&task).unwrap();
        assert_eq!(a.value, AnswerValue::Choice(1));
        assert_eq!(a.cost, 1.0);
        assert_eq!(crowd.answers_delivered(), 1);
    }

    #[test]
    fn same_worker_never_asked_twice_per_task() {
        let crowd = SimulatedCrowd::new(perfect_pop(3), 1);
        let task = Task::binary(TaskId::new(0), "q").with_truth(AnswerValue::Choice(0));
        let answers = crowd.ask_many(&task, 3).unwrap();
        let workers: HashSet<WorkerId> = answers.iter().map(|a| a.worker).collect();
        assert_eq!(workers.len(), 3, "three distinct workers");
        // Fourth ask on same task: pool exhausted.
        let err = crowd.ask_one(&task).unwrap_err();
        assert_eq!(err, CrowdError::NoWorkerAvailable);
        // But a different task still works.
        let other = Task::binary(TaskId::new(1), "q2").with_truth(AnswerValue::Choice(0));
        assert!(crowd.ask_one(&other).is_ok());
    }

    #[test]
    fn budget_is_enforced_and_tracks_spend() {
        let pop = perfect_pop(10);
        let crowd = PlatformBuilder::new(pop).budget(Budget::new(2.0)).build();
        let task = Task::binary(TaskId::new(0), "q").with_truth(AnswerValue::Choice(0));
        assert!(crowd.ask_one(&task).is_ok());
        assert!(crowd.ask_one(&task).is_ok());
        let err = crowd.ask_one(&task).unwrap_err();
        assert!(matches!(err, CrowdError::BudgetExhausted { .. }));
        assert_eq!(crowd.budget().spent(), 2.0);
        assert_eq!(crowd.remaining_budget(), Some(0.0));
    }

    #[test]
    fn events_land_only_in_the_scoped_recorder() {
        let crowd = SimulatedCrowd::new(perfect_pop(5), 1);
        let task = Task::binary(TaskId::new(0), "q").with_truth(AnswerValue::Choice(1));
        let rec = std::sync::Arc::new(obs::MemoryRecorder::new());
        // No recorder in scope: the events go nowhere.
        crowd.ask_one(&task).unwrap();
        obs::with_recorder(rec.clone(), || crowd.ask_one(&task).unwrap());
        crowd.ask_one(&task).unwrap();
        assert_eq!(rec.count("platform.batch"), 1);
        assert_eq!(rec.field_sum("platform.batch", "delivered"), 1.0);
        assert_eq!(rec.field_sum("platform.batch", "spend"), 1.0);
    }

    #[test]
    fn unlimited_budget_reports_none() {
        let crowd = SimulatedCrowd::new(perfect_pop(2), 0);
        assert_eq!(crowd.remaining_budget(), None);
    }

    #[test]
    fn clock_advances_with_latency() {
        let crowd = PlatformBuilder::new(perfect_pop(5))
            .latency(LatencyModel::Constant { secs: 10.0 })
            .build();
        let task = Task::binary(TaskId::new(0), "q").with_truth(AnswerValue::Choice(0));
        let a1 = crowd.ask_one(&task).unwrap();
        let a2 = crowd.ask_one(&task).unwrap();
        assert_eq!(a1.submitted_at, 10.0);
        assert_eq!(a2.submitted_at, 20.0);
        assert_eq!(crowd.now(), 20.0);
    }

    #[test]
    fn platform_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<(u64, AnswerValue)> {
            let pop = PopulationBuilder::new().reliable(20, 0.6, 0.9).build(3);
            let crowd = SimulatedCrowd::new(pop, seed);
            let task = Task::binary(TaskId::new(0), "q").with_truth(AnswerValue::Choice(1));
            crowd
                .ask_many(&task, 10)
                .unwrap()
                .into_iter()
                .map(|a| (a.worker.raw(), a.value))
                .collect()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn ask_many_partial_results_when_budget_dies_midway() {
        let crowd = PlatformBuilder::new(perfect_pop(10))
            .budget(Budget::new(3.0))
            .build();
        let task = Task::binary(TaskId::new(0), "q").with_truth(AnswerValue::Choice(0));
        let answers = crowd.ask_many(&task, 5).unwrap();
        assert_eq!(answers.len(), 3);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::population::PopulationBuilder;
    use crowdkit_core::answer::AnswerValue;
    use crowdkit_core::task::Task;

    fn pop(n: usize, quality: f64) -> Population {
        PopulationBuilder::new()
            .reliable(n, quality, quality)
            .build(0)
    }

    fn tasks(n: u64) -> Vec<Task> {
        (0..n)
            .map(|i| Task::binary(TaskId::new(i), "q").with_truth(AnswerValue::Choice(1)))
            .collect()
    }

    fn batch_of(tasks: &[Task], k: usize) -> Vec<AskRequest<'_>> {
        tasks
            .iter()
            .map(|t| AskRequest::new(t).with_redundancy(k))
            .collect()
    }

    #[test]
    fn batched_execution_overlaps_latency() {
        // Sequential: 12 answers × 10 s each = 120 s of simulated time.
        let seq = PlatformBuilder::new(pop(30, 1.0))
            .latency(LatencyModel::Constant { secs: 10.0 })
            .build();
        let ts = tasks(12);
        for t in &ts {
            seq.ask_one(t).unwrap();
        }
        assert_eq!(seq.now(), 120.0);

        // Batched: all 12 assignments start at the epoch and overlap, so
        // the clock advances by the makespan — one service time.
        let batched = PlatformBuilder::new(pop(30, 1.0))
            .latency(LatencyModel::Constant { secs: 10.0 })
            .build();
        let outs = batched.ask_batch(&batch_of(&ts, 1)).unwrap();
        assert!(outs.iter().all(|o| o.is_complete()));
        assert_eq!(batched.now(), 10.0);
        assert!(
            batched.now() * 2.0 <= seq.now(),
            "batched ({}) must be at least 2x faster than sequential ({})",
            batched.now(),
            seq.now()
        );

        // An E1-style workload under human latency: 200 binary tasks × 3
        // votes from 80 reliable workers, asked one request at a time on
        // one thread against one `ask_batch` on four.
        let data = crate::dataset::LabelingDataset::binary(200, 7);
        let crowd = |threads: usize| {
            PlatformBuilder::new(PopulationBuilder::new().reliable(80, 0.8, 0.95).build(7))
                .latency(LatencyModel::human_default())
                .seed(7)
                .threads(threads)
                .build()
        };
        let seq = crowd(1);
        for t in &data.tasks {
            let out = seq.ask(&AskRequest::new(t).with_redundancy(3)).unwrap();
            assert_eq!(out.delivered(), 3);
        }
        let batched = crowd(4);
        let outs = batched.ask_batch(&batch_of(&data.tasks, 3)).unwrap();
        assert!(outs.iter().all(|o| o.delivered() == 3));
        assert!(
            batched.now() * 2.0 <= seq.now(),
            "batched ({}) must be at least 2x faster than sequential ({})",
            batched.now(),
            seq.now()
        );
    }

    #[test]
    fn batch_results_are_identical_at_any_thread_count() {
        let run = |threads: usize| {
            let crowd = PlatformBuilder::new(pop(40, 0.7))
                .latency(LatencyModel::human_default())
                .seed(11)
                .threads(threads)
                .build();
            // 16,500 asks: enough for execution to use all 8 threads.
            let ts = tasks(3_300);
            let outs = crowd.ask_batch(&batch_of(&ts, 5)).unwrap();
            let answers: Vec<(u64, u64, AnswerValue, f64)> = outs
                .iter()
                .flat_map(|o| o.answers.iter())
                .map(|a| {
                    (
                        a.task.raw(),
                        a.worker.raw(),
                        a.value.clone(),
                        a.submitted_at,
                    )
                })
                .collect();
            (answers, crowd.now())
        };
        let (a1, c1) = run(1);
        let (a2, c2) = run(2);
        let (a8, c8) = run(8);
        assert_eq!(a1, a2, "1-thread and 2-thread runs diverge");
        assert_eq!(a1, a8, "1-thread and 8-thread runs diverge");
        assert_eq!(c1, c2);
        assert_eq!(c1, c8);
    }

    #[test]
    fn batch_budget_is_funded_in_request_order() {
        let crowd = PlatformBuilder::new(pop(10, 1.0))
            .budget(Budget::new(3.0))
            .build();
        let ts = tasks(3);
        let outs = crowd.ask_batch(&batch_of(&ts, 2)).unwrap();
        assert_eq!(outs[0].delivered(), 2);
        assert!(outs[0].is_complete());
        assert_eq!(outs[1].delivered(), 1);
        assert!(outs[1].stopped_by_budget());
        assert_eq!(outs[2].delivered(), 0);
        assert!(outs[2].stopped_by_budget());
        assert_eq!(crowd.budget().spent(), 3.0);
        assert_eq!(crowd.answers_delivered(), 3);
    }

    #[test]
    fn batch_honors_worker_exclusions() {
        let crowd = SimulatedCrowd::new(pop(4, 1.0), 2);
        let all: Vec<WorkerId> = crowd.population().workers().iter().map(|w| w.id).collect();
        let task = Task::binary(TaskId::new(0), "q").with_truth(AnswerValue::Choice(1));
        let req = AskRequest::new(&task)
            .with_redundancy(4)
            .without_worker(all[0])
            .without_worker(all[2]);
        let out = crowd.ask(&req).unwrap();
        assert_eq!(out.delivered(), 2, "only two non-excluded workers exist");
        assert!(matches!(out.shortfall, Some(CrowdError::NoWorkerAvailable)));
        for a in &out.answers {
            assert!(
                a.worker != all[0] && a.worker != all[2],
                "excluded worker assigned"
            );
        }
    }

    #[test]
    fn ask_one_and_ask_share_reservation_state() {
        let crowd = SimulatedCrowd::new(pop(3, 1.0), 5);
        let task = Task::binary(TaskId::new(0), "q").with_truth(AnswerValue::Choice(1));
        let first = crowd.ask_one(&task).unwrap();
        let out = crowd
            .ask(&AskRequest::new(&task).with_redundancy(3))
            .unwrap();
        assert_eq!(out.delivered(), 2, "only two workers left for this task");
        assert!(out.answers.iter().all(|a| a.worker != first.worker));
    }

    #[test]
    fn batch_prefers_online_workers_under_churn() {
        let churn = Churn {
            duty_cycle: 0.4,
            period: 600.0,
        };
        let crowd = PlatformBuilder::new(pop(30, 1.0))
            .churn(churn)
            .seed(7)
            .build();
        let ts = tasks(10);
        let outs = crowd.ask_batch(&batch_of(&ts, 2)).unwrap();
        for o in &outs {
            for a in &o.answers {
                // With 30 workers at 40% duty, someone is online at the
                // epoch for every pick, so nothing waits.
                assert!(
                    churn.online(a.worker, 7, 0.0),
                    "assigned worker {} offline at batch epoch",
                    a.worker
                );
            }
        }
    }

    #[test]
    fn batch_waits_for_arrival_when_everyone_is_offline() {
        let churn = Churn {
            duty_cycle: 0.05,
            period: 600.0,
        };
        // One worker with a tiny duty cycle: if the epoch falls outside the
        // online window the assignment must wait for the next arrival.
        let crowd = PlatformBuilder::new(pop(1, 1.0))
            .churn(churn)
            .seed(3)
            .build();
        let task = Task::binary(TaskId::new(0), "q").with_truth(AnswerValue::Choice(1));
        let out = crowd.ask(&AskRequest::new(&task)).unwrap();
        assert_eq!(out.delivered(), 1);
        let a = &out.answers[0];
        assert!(
            churn.online(a.worker, 3, a.submitted_at),
            "served at {} while offline",
            a.submitted_at
        );
    }

    #[test]
    fn concurrent_batches_never_overspend_budget() {
        use std::sync::Arc;
        let crowd = Arc::new(
            PlatformBuilder::new(pop(64, 1.0))
                .budget(Budget::new(100.0))
                .seed(13)
                .build(),
        );
        let delivered: u64 = std::thread::scope(|s| {
            (0..8u64)
                .map(|t| {
                    let crowd = Arc::clone(&crowd);
                    s.spawn(move || {
                        let ts: Vec<Task> = (0..10)
                            .map(|i| {
                                Task::binary(TaskId::new(t * 10 + i), "q")
                                    .with_truth(AnswerValue::Choice(1))
                            })
                            .collect();
                        let reqs: Vec<AskRequest<'_>> = ts
                            .iter()
                            .map(|x| AskRequest::new(x).with_redundancy(3))
                            .collect();
                        let outs = crowd.ask_batch(&reqs).unwrap();
                        outs.iter().map(|o| o.delivered() as u64).sum::<u64>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(delivered, 100, "exactly the budget's worth was delivered");
        assert!(crowd.budget().spent() <= 100.0 + 1e-9);
        assert_eq!(crowd.answers_delivered(), 100);
    }
}

#[cfg(test)]
mod qualification_tests {
    use super::*;
    use crate::population::PopulationBuilder;
    use crowdkit_core::answer::AnswerValue;

    fn mixed_pop() -> Population {
        PopulationBuilder::new()
            .reliable(20, 0.95, 1.0)
            .spammers(20)
            .build(3)
    }

    #[test]
    fn qualification_filters_most_spammers() {
        let crowd = PlatformBuilder::new(mixed_pop())
            .qualification(Qualification {
                questions: 8,
                pass_fraction: 0.75,
                difficulty: 0.2,
            })
            .seed(3)
            .build();
        let qualities = crowd.population().true_qualities();
        let survivors = qualities.len();
        let good = qualities.iter().filter(|&&q| q > 0.9).count();
        assert!(survivors < 40, "screening rejected someone");
        assert!(
            good as f64 / survivors as f64 > 0.75,
            "pool is mostly reliable after screening: {good}/{survivors}"
        );
    }

    #[test]
    fn qualification_spends_budget() {
        let crowd = PlatformBuilder::new(mixed_pop())
            .qualification(Qualification {
                questions: 4,
                pass_fraction: 0.75,
                difficulty: 0.2,
            })
            .budget(Budget::new(1e6))
            .build();
        // Every worker screened with 4 questions at the unit price.
        assert_eq!(crowd.budget().spent(), 160.0);
    }

    #[test]
    fn exhausted_budget_rejects_remaining_workers() {
        let crowd = PlatformBuilder::new(mixed_pop())
            .qualification(Qualification {
                questions: 4,
                pass_fraction: 0.5,
                difficulty: 0.2,
            })
            .budget(Budget::new(8.0)) // enough to screen two workers
            .build();
        assert!(crowd.population().len() <= 2);
    }

    #[test]
    fn screened_pool_answers_more_accurately() {
        let run = |screen: bool| -> f64 {
            let mut b = PlatformBuilder::new(mixed_pop()).seed(9);
            if screen {
                b = b.qualification(Qualification {
                    questions: 8,
                    pass_fraction: 0.75,
                    difficulty: 0.2,
                });
            }
            let crowd = b.build();
            let mut correct = 0;
            let total = 200;
            for i in 0..total {
                let task = Task::binary(TaskId::new(i), "q").with_truth(AnswerValue::Choice(1));
                if crowd.ask_one(&task).unwrap().value == AnswerValue::Choice(1) {
                    correct += 1;
                }
            }
            correct as f64 / total as f64
        };
        let unscreened = run(false);
        let screened = run(true);
        assert!(
            screened > unscreened + 0.1,
            "screened {screened:.2} vs unscreened {unscreened:.2}"
        );
    }
}

#[cfg(test)]
mod churn_tests {
    use super::*;
    use crate::population::PopulationBuilder;
    use crowdkit_core::answer::AnswerValue;

    fn pop(n: usize) -> Population {
        PopulationBuilder::new().reliable(n, 1.0, 1.0).build(1)
    }

    fn crowd_with_churn(duty: f64, n: usize) -> SimulatedCrowd {
        PlatformBuilder::new(pop(n))
            .churn(Churn {
                duty_cycle: duty,
                period: 600.0,
            })
            .seed(4)
            .build()
    }

    #[test]
    fn full_duty_cycle_behaves_like_no_churn() {
        let a = crowd_with_churn(1.0, 10);
        let b = SimulatedCrowd::new(pop(10), 4);
        let task = Task::binary(TaskId::new(0), "q").with_truth(AnswerValue::Choice(1));
        let ra: Vec<u64> = a
            .ask_many(&task, 5)
            .unwrap()
            .iter()
            .map(|x| x.worker.raw())
            .collect();
        let rb: Vec<u64> = b
            .ask_many(&task, 5)
            .unwrap()
            .iter()
            .map(|x| x.worker.raw())
            .collect();
        assert_eq!(ra, rb, "duty 1.0 never filters or waits");
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn scarce_workers_make_the_platform_wait() {
        // One worker, tiny duty cycle: most asks must advance the clock to
        // the worker's next online window.
        let crowd = crowd_with_churn(0.05, 1);
        let mut last = 0.0;
        for t in 0..5u64 {
            let task = Task::binary(TaskId::new(t), "q").with_truth(AnswerValue::Choice(1));
            let a = crowd.ask_one(&task).unwrap();
            assert!(a.submitted_at >= last);
            last = a.submitted_at;
        }
        // With a 600 s period and 5% duty the clock cannot still be near 0
        // unless every ask happened inside one 30 s window — it advances
        // whenever the worker is offline. With zero service latency the
        // clock only moves by waiting, and the answers all landed inside
        // windows.
        assert!(crowd.now() >= 0.0);
        // Ask enough times across distinct tasks to be forced to wait at
        // least once past the first window.
        for t in 5..40u64 {
            let task = Task::binary(TaskId::new(t), "q").with_truth(AnswerValue::Choice(1));
            crowd.ask_one(&task).unwrap();
        }
        assert!(
            crowd.now() > 0.0,
            "a 5% duty cycle must eventually force waiting (clock {})",
            crowd.now()
        );
    }

    #[test]
    fn churn_never_serves_an_offline_worker() {
        let churn = Churn {
            duty_cycle: 0.3,
            period: 600.0,
        };
        let crowd = PlatformBuilder::new(pop(20)).churn(churn).seed(9).build();
        for t in 0..50u64 {
            let task = Task::binary(TaskId::new(t), "q").with_truth(AnswerValue::Choice(1));
            let before = crowd.now();
            let a = crowd.ask_one(&task).unwrap();
            // The serving time (clock right before the latency draw, which
            // is 0 here) must fall inside the worker's online window.
            assert!(
                churn.online(a.worker, 9, a.submitted_at),
                "worker {} served while offline at {} (asked at {before})",
                a.worker,
                a.submitted_at
            );
        }
    }

    #[test]
    fn lower_duty_cycles_cost_more_wall_clock() {
        // Non-zero service time pushes the clock through the online
        // windows, so scarce supply forces waits between answers.
        let elapsed = |duty: f64| -> f64 {
            let crowd = PlatformBuilder::new(pop(5))
                .churn(Churn {
                    duty_cycle: duty,
                    period: 600.0,
                })
                .latency(LatencyModel::Constant { secs: 20.0 })
                .seed(4)
                .build();
            for t in 0..60u64 {
                let task = Task::binary(TaskId::new(t), "q").with_truth(AnswerValue::Choice(1));
                crowd.ask_one(&task).unwrap();
            }
            crowd.now()
        };
        let busy = elapsed(0.9);
        let scarce = elapsed(0.1);
        assert!(
            scarce > busy,
            "10% duty ({scarce:.0}s) should take longer than 90% ({busy:.0}s)"
        );
    }

    #[test]
    fn exhausted_task_still_returns_no_worker() {
        let crowd = crowd_with_churn(0.5, 2);
        let task = Task::binary(TaskId::new(0), "q").with_truth(AnswerValue::Choice(1));
        assert!(crowd.ask_one(&task).is_ok());
        assert!(crowd.ask_one(&task).is_ok());
        assert_eq!(
            crowd.ask_one(&task).unwrap_err(),
            CrowdError::NoWorkerAvailable
        );
    }

    #[test]
    #[should_panic(expected = "duty cycle")]
    fn zero_duty_cycle_rejected() {
        let _ = PlatformBuilder::new(pop(1)).churn(Churn {
            duty_cycle: 0.0,
            period: 600.0,
        });
    }
}

#[cfg(test)]
mod pick_tests {
    //! The pick against the scan it replaced, kept here as the reference:
    //! same worker, same serve time, same RNG state after.

    use super::*;
    use crate::population::mixes;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// `ask_batch`'s pick before [`SimulatedCrowd::pick`], drawing from
    /// the derived pick stream `rng`.
    fn scan_pick_batch(
        crowd: &SimulatedCrowd,
        asked: &HashSet<WorkerId>,
        exclude: &[WorkerId],
        epoch: f64,
        rng: &mut StdRng,
    ) -> Option<(usize, f64)> {
        let eligible: Vec<usize> = (0..crowd.population.len())
            .filter(|&i| {
                let id = crowd.population.get(i).id;
                !asked.contains(&id) && !exclude.contains(&id)
            })
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let Some(churn) = crowd.churn else {
            return Some((eligible[rng.gen_range(0..eligible.len())], epoch));
        };
        let online: Vec<usize> = eligible
            .iter()
            .copied()
            .filter(|&i| churn.online(crowd.population.get(i).id, crowd.seed, epoch))
            .collect();
        if !online.is_empty() {
            return Some((online[rng.gen_range(0..online.len())], epoch));
        }
        eligible
            .iter()
            .map(|&i| {
                let id = crowd.population.get(i).id;
                (i, churn.next_online(id, crowd.seed, epoch))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// A platform over `n` workers; `qualified` screens the pool so its ids
    /// have gaps, and `duty` turns churn on.
    fn platform(n: usize, qualified: bool, duty: Option<f64>, seed: u64) -> SimulatedCrowd {
        let mut b = PlatformBuilder::new(mixes::spam_heavy(n, seed)).seed(seed);
        if qualified {
            b = b.qualification(Qualification {
                questions: 4,
                pass_fraction: 0.75,
                difficulty: 0.3,
            });
        }
        if let Some(duty_cycle) = duty {
            b = b.churn(Churn {
                duty_cycle,
                period: 600.0,
            });
        }
        b.build()
    }

    /// Runs the pick and the reference scan on one case and returns
    /// whether the pick had to wait for an arrival.
    fn check(
        crowd: &SimulatedCrowd,
        asked: &[u32],
        exclude: &[WorkerId],
        at: f64,
        rng_seed: u64,
    ) -> std::result::Result<bool, TestCaseError> {
        let asked_ids: HashSet<WorkerId> = asked
            .iter()
            .map(|&i| crowd.population.get(i as usize).id)
            .collect();
        let online = crowd.online_at(at);
        let excluded = crowd.pool_indices(exclude);
        let mut buf = Vec::new();
        let skip = skip_list(asked, &excluded, &mut buf);
        let mut new_rng = StdRng::seed_from_u64(rng_seed);
        let mut ref_rng = new_rng.clone();
        let new_pick = crowd.pick(online.as_deref(), skip, at, &mut new_rng);
        let ref_pick = scan_pick_batch(crowd, &asked_ids, exclude, at, &mut ref_rng);
        prop_assert_eq!(new_pick, ref_pick, "batch pick");
        prop_assert_eq!(&new_rng, &ref_rng, "pick stream state");
        Ok(ref_pick.is_some_and(|(_, serve)| serve > at))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        /// Random pools (dense or screened), reservation sets, exclusion
        /// lists and epochs, with churn off, common or rare.
        #[test]
        fn shared_pick_matches_the_scan_picks(
            (n, qualified, seed) in (1usize..40, prop::bool::ANY, 0u64..1_000),
            duty in prop_oneof![Just(None), (0.01f64..1.0).prop_map(Some), Just(Some(0.002))],
            (asked_share, marks) in (0u8..5, prop::collection::vec(0u8..4, 40)),
            raw_exclude in prop::collection::vec(0u64..60, 0..6),
            at in 0.0f64..1_200.0,
        ) {
            let crowd = platform(n, qualified, duty, seed);
            let asked: Vec<u32> = (0..crowd.population.len() as u32)
                .filter(|&i| marks[i as usize] < asked_share)
                .collect();
            // Random raw ids (some outside any pool), one repeated, one
            // already asked and one far outside the pool.
            let mut exclude: Vec<WorkerId> = raw_exclude.iter().map(|&r| WorkerId::new(r)).collect();
            exclude.extend(exclude.first().copied());
            exclude.extend(asked.first().map(|&i| crowd.population.get(i as usize).id));
            exclude.push(WorkerId::new(u64::MAX));
            check(&crowd, &asked, &exclude, at, seed ^ 0xA5A5)?;
        }
    }

    /// The one O(pool) path left: at a 0.2% duty cycle almost every epoch
    /// finds nobody online, so picks wait for the earliest arrival.
    #[test]
    fn nobody_online_waits_like_the_scan() {
        let crowd = platform(12, false, Some(0.002), 3);
        let mut waits = 0;
        for step in 0..50u32 {
            let at = f64::from(step) * 37.0;
            let asked: Vec<u32> = (0..12).filter(|i| (i + step) % 4 == 0).collect();
            let exclude = [crowd.population.get(5).id, WorkerId::new(99)];
            let waited = check(&crowd, &asked, &exclude, at, u64::from(step))
                .unwrap_or_else(|e| panic!("epoch {at}: {e:?}"));
            waits += usize::from(waited);
        }
        assert!(waits > 40, "only {waits} of 50 epochs found nobody online");
    }
}
