//! The three workloads: their seeded inputs, one job of each, and the
//! correctness checks every job passes.
//!
//! A run's inputs are a pure function of its seed. Input `j` takes its own
//! seed from `(seed, j)`, and each input draws its streams from that. A job
//! builds fresh platforms from its input and calls only the public APIs
//! of each layer, through a [`TracedOracle`] and [`Tracer`] spans.
//!
//! * `bulk_label` — large batches through `label_tasks`, then MV, sparse
//!   DS and sparse GLAD. The matrix with its CSR index (2.3 MiB) and GLAD's
//!   EM state (1.6 MiB more) exceed a core's 2 MiB L2. Stresses platform
//!   execution and the truth layer.
//! * `adaptive_label` — `run_assignment` with `EntropyGreedy` over a large
//!   churned pool, then dense DS and MV. A job allocates about 0.6 MiB at
//!   its peak, inside L2.
//!   Stresses assignment (an O(n²) scan per wave) and platform planning
//!   (every pick scans the churned pool).
//! * `crowd_query` — CrowdSQL DDL, fill, filter, a cached re-read, a
//!   `CROWDEQUAL` join and a top-k; one crowd-Datalog program; direct
//!   filter, join and top-k operators. Stresses SQL, Datalog and ops, and
//!   the platform's fixed cost per call over hundreds of small rounds.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crowdkit_assign::{policy::EntropyGreedy, run_assignment};
use crowdkit_core::answer::AnswerValue;
use crowdkit_core::budget::Budget;
use crowdkit_core::error::{CrowdError, Result as CrowdResult};
use crowdkit_core::ids::TaskId;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::task::{Task, TaskKind};
use crowdkit_core::traits::{CrowdOracle, InferenceResult, TruthInferencer};
use crowdkit_datalog::{parse_program, Const, Engine, OracleResolver};
use crowdkit_obs::{self as obs, MemoryRecorder};
use crowdkit_ops::filter::crowd_filter;
use crowdkit_ops::join::{candidate_pairs, crowd_join, JoinConfig};
use crowdkit_ops::sort::tournament::crowd_top_k;
use crowdkit_sim::dataset::{EntityDataset, LabelingDataset, RankingDataset};
use crowdkit_sim::latency::LatencyModel;
use crowdkit_sim::population::mixes;
use crowdkit_sim::{Churn, PlatformBuilder, Population, PopulationBuilder, SimulatedCrowd};
use crowdkit_sql::exec::SimTaskFactory;
use crowdkit_sql::{QueryOpts, Session, TaskFactory, Value};
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::glad::GladConfig;
use crowdkit_truth::pipeline::label_tasks;
use crowdkit_truth::{DawidSkene, FreezeConfig, Glad, MajorityMargin, MajorityVote};

use crate::stats::{draw, Digest};
use crate::trace::{TracedOracle, Tracer};

/// Every platform charges the unit price for every task kind.
pub const PRICE: f64 = 1.0;

const BULK_TASKS: usize = 10_000;
const BULK_VOTES: usize = 5;
const BULK_POOL: usize = 200;
/// Freeze tolerance of the sparse DS and GLAD runs.
const FREEZE_EPS: f64 = 1e-3;
/// Relative tolerance on the Datalog platform's clock between repeats: the
/// same service times, added up in another order.
pub const REORDER_TOL: f64 = 1e-9;

const ADAPTIVE_TASKS: usize = 400;
const ADAPTIVE_POOL: usize = 3_000;
const ADAPTIVE_ANSWERS_PER_TASK: usize = 4;
const ADAPTIVE_CAP: u32 = 9;
const CHURN: Churn = Churn {
    duty_cycle: 0.5,
    period: 600.0,
};

const PRODUCTS: usize = 300;
const BRANDS: usize = 20;
const CATEGORIES: [&str; 4] = ["phone", "laptop", "tablet", "camera"];
const VOTES: u32 = 3;
const BATCH: usize = 8;
const QUERY_POOL: usize = 200;
/// Generous: the query workload measures operators, not budget stops.
const QUERY_BUDGET: f64 = 1e6;
/// `SELECT … WHERE id >= FILL_FROM` fills the last rows.
const FILL_FROM: usize = 280;
const FILTER_BELOW: usize = 60;
const JOIN_BELOW: usize = 10;
const TOPK_BELOW: usize = 64;
const TOP_K: usize = 5;
const DATALOG_ITEMS: usize = 40;
const DATALOG_FROM: usize = 20;
const OPS_FILTER_ITEMS: usize = 60;
const OPS_FILTER_MAX: u32 = 5;
const OPS_ENTITIES: usize = 30;
const OPS_BLOCKING: f64 = 0.3;
const OPS_RANKED: usize = 32;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bulk labelling: platform execution and truth inference.
    BulkLabel,
    /// Adaptive assignment under churn: assignment and platform planning.
    AdaptiveLabel,
    /// Declarative queries and direct operators: SQL, Datalog and ops.
    CrowdQuery,
}

/// Every workload, in report order.
pub const ALL: [Workload; 3] = [
    Workload::BulkLabel,
    Workload::AdaptiveLabel,
    Workload::CrowdQuery,
];

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkLabel => "bulk_label",
            Workload::AdaptiveLabel => "adaptive_label",
            Workload::CrowdQuery => "crowd_query",
        }
    }

    /// The workload with this name.
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct inputs per run; the timed loop cycles through them, and the
    /// deterministic metrics are totals over one pass.
    pub fn distinct_jobs(self) -> usize {
        match self {
            Workload::BulkLabel => 24,
            Workload::AdaptiveLabel => 48,
            Workload::CrowdQuery => 32,
        }
    }

    /// Lowest accuracy a single job may reach. Each floor sits well below
    /// the worst job seen over many seeds, so it holds on any seed.
    pub fn accuracy_floor(self) -> f64 {
        match self {
            Workload::BulkLabel => 0.75,
            Workload::AdaptiveLabel => 0.60,
            Workload::CrowdQuery => 0.85,
        }
    }

    /// Generates every input of a run from `seed`.
    pub fn setup(self, seed: u64) -> Inputs {
        let seeds = (0..self.distinct_jobs() as u64).map(|j| draw(seed, 0xB0B, j));
        match self {
            Workload::BulkLabel => Inputs::Bulk(
                seeds
                    .map(|s| LabelInput::generate(s, BULK_TASKS, BULK_POOL))
                    .collect(),
            ),
            Workload::AdaptiveLabel => Inputs::Adaptive(
                seeds
                    .map(|s| LabelInput::generate(s, ADAPTIVE_TASKS, ADAPTIVE_POOL))
                    .collect(),
            ),
            Workload::CrowdQuery => Inputs::Query(seeds.map(QueryInput::generate).collect()),
        }
    }
}

/// What a job runs with besides its input.
pub struct JobCtx<'a> {
    /// Width of the platform pool and the EM kernels.
    pub threads: usize,
    /// Span sink; disabled in untraced jobs.
    pub tracer: &'a Tracer,
    /// Recorder active only while GLAD runs, which keeps its E/M split
    /// apart from DS's in `truth.iter` events. `None` leaves the default.
    pub glad_rec: Option<Arc<MemoryRecorder>>,
}

/// What one job produced, reduced to what the checks and metrics need.
#[derive(Debug, Clone, Default)]
pub struct JobOutput {
    /// Digest of every output: labels, posterior bits, rows, spend, and
    /// every clock but the Datalog platform's.
    pub digest: u64,
    /// Simulated spend across the job's platforms.
    pub spend: f64,
    /// Answers the job's platforms delivered.
    pub answers: u64,
    /// Sum of the job's platform budgets.
    pub budget: f64,
    /// Sum of the job's platform clocks at the end, in simulated seconds,
    /// over the platforms that add up service times in a fixed order.
    pub clock_s: f64,
    /// The Datalog platform's clock at the end, in simulated seconds.
    /// `Engine::run` fetches in hash order, so this clock adds up the same
    /// service times in an order that changes between repeats; it is left
    /// out of the digest and compared within [`REORDER_TOL`].
    pub datalog_clock_s: f64,
    /// Decisions that match ground truth.
    pub correct: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Tasks left without a label.
    pub unlabeled: u64,
}

impl JobOutput {
    /// Share of decisions that match ground truth.
    pub fn accuracy(&self) -> f64 {
        self.correct as f64 / self.decisions.max(1) as f64
    }

    /// Sum of every platform clock at the end of the job.
    pub fn sim_latency_s(&self) -> f64 {
        self.clock_s + self.datalog_clock_s
    }

    /// Whether `repeat`, another run of the same input, produced the same
    /// output: the same digest, and a Datalog clock within [`REORDER_TOL`].
    pub fn same_as(&self, repeat: &JobOutput) -> Result<(), String> {
        if self.digest != repeat.digest {
            return Err(format!(
                "digest {:016x}, not {:016x}",
                repeat.digest, self.digest
            ));
        }
        let (a, b) = (self.datalog_clock_s, repeat.datalog_clock_s);
        if (a - b).abs() > REORDER_TOL * a.abs().max(b.abs()) {
            return Err(format!("Datalog clock {b} s, not {a} s"));
        }
        Ok(())
    }

    /// The per-job correctness checks.
    pub fn check(&self, workload: Workload) -> Result<(), String> {
        let paid = self.answers as f64 * PRICE;
        if (self.spend - paid).abs() > 1e-6 {
            return Err(format!(
                "spend {} != answers {} x price",
                self.spend, self.answers
            ));
        }
        if self.spend > self.budget + 1e-9 {
            return Err(format!(
                "spend {} exceeds budget {}",
                self.spend, self.budget
            ));
        }
        if self.unlabeled > 0 {
            return Err(format!("{} tasks got no label", self.unlabeled));
        }
        if self.accuracy() < workload.accuracy_floor() {
            return Err(format!(
                "accuracy {:.4} below the floor {}",
                self.accuracy(),
                workload.accuracy_floor()
            ));
        }
        Ok(())
    }

    /// Adds a platform's spend, budget and answers.
    fn pay(&mut self, crowd: &SimulatedCrowd) {
        let budget = crowd.budget();
        self.spend += budget.spent();
        self.budget += budget.limit();
        self.answers += crowd.answers_delivered();
    }

    /// Adds a platform's spend, budget, answers and clock.
    fn settle(&mut self, crowd: &SimulatedCrowd) {
        self.pay(crowd);
        self.clock_s += crowd.now();
    }

    fn decide(&mut self, correct: bool) {
        self.decisions += 1;
        self.correct += u64::from(correct);
    }

    /// Scores one inference result against the dataset's truths.
    fn score(
        &mut self,
        m: &ResponseMatrix,
        data: &LabelingDataset,
        r: &InferenceResult,
        d: &mut Digest,
    ) {
        for (task, &truth) in data.tasks.iter().zip(&data.truths) {
            match m.task_index(task.id) {
                Some(t) => {
                    d.u64(u64::from(r.labels[t]));
                    self.decide(r.labels[t] == truth);
                }
                None => self.unlabeled += 1,
            }
        }
        for p in r.posteriors.iter().flatten() {
            d.f64(*p);
        }
    }

    fn seal(mut self, mut d: Digest) -> Self {
        self.digest = d.f64(self.spend).f64(self.clock_s).value();
        self
    }
}

/// A run's inputs.
pub enum Inputs {
    /// `bulk_label` inputs.
    Bulk(Vec<LabelInput>),
    /// `adaptive_label` inputs.
    Adaptive(Vec<LabelInput>),
    /// `crowd_query` inputs.
    Query(Vec<QueryInput>),
}

impl Inputs {
    /// Number of distinct inputs.
    pub fn len(&self) -> usize {
        match self {
            Inputs::Bulk(v) | Inputs::Adaptive(v) => v.len(),
            Inputs::Query(v) => v.len(),
        }
    }

    /// Digest of every generated input.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        match self {
            Inputs::Bulk(v) | Inputs::Adaptive(v) => v.iter().for_each(|i| i.digest(&mut d)),
            Inputs::Query(v) => v.iter().for_each(|i| i.digest(&mut d)),
        }
        d.value()
    }

    /// Runs job `i`, on input `i` modulo the number of inputs.
    pub fn run_job(&self, i: usize, ctx: &JobCtx<'_>) -> Result<JobOutput, String> {
        match self {
            Inputs::Bulk(v) => bulk_job(&v[i % v.len()], ctx),
            Inputs::Adaptive(v) => adaptive_job(&v[i % v.len()], ctx),
            Inputs::Query(v) => query_job(&v[i % v.len()], ctx),
        }
    }
}

fn fail(e: CrowdError) -> String {
    e.to_string()
}

fn platform(
    crowd: &Population,
    seed: u64,
    threads: usize,
    budget: f64,
    churn: Option<Churn>,
) -> SimulatedCrowd {
    let mut b = PlatformBuilder::new(crowd.clone())
        .seed(seed)
        .threads(threads)
        .latency(LatencyModel::human_default())
        .budget(Budget::new(budget));
    if let Some(churn) = churn {
        b = b.churn(churn);
    }
    b.build()
}

/// The first `task_csr()` + `worker_csr()` on a collected matrix, in its
/// own span, so inference spans do not absorb the index build.
fn build_csr(tracer: &Tracer, m: &ResponseMatrix) {
    tracer.span("core.csr", || {
        std::hint::black_box(m.task_csr());
        std::hint::black_box(m.worker_csr());
    });
}

fn infer(
    ctx: &JobCtx<'_>,
    span: &'static str,
    iters: &'static str,
    algo: &dyn TruthInferencer,
    m: &ResponseMatrix,
) -> Result<InferenceResult, String> {
    let r = ctx.tracer.span(span, || algo.infer(m)).map_err(fail)?;
    ctx.tracer.add(iters, r.iterations as f64);
    Ok(r)
}

/// The inferencer handed to `label_tasks`: builds the CSR index, then runs
/// majority vote, each in its own span.
struct CsrThenMv<'a> {
    tracer: &'a Tracer,
}

impl TruthInferencer for CsrThenMv<'_> {
    fn name(&self) -> &'static str {
        MajorityVote.name()
    }

    fn infer(&self, m: &ResponseMatrix) -> CrowdResult<InferenceResult> {
        build_csr(self.tracer, m);
        let r = self.tracer.span("truth.mv", || MajorityVote.infer(m))?;
        self.tracer.add("truth.mv.iters", r.iterations as f64);
        Ok(r)
    }
}

/// Input of one labelling job.
pub struct LabelInput {
    seed: u64,
    data: LabelingDataset,
    crowd: Population,
}

impl LabelInput {
    fn generate(seed: u64, tasks: usize, pool: usize) -> Self {
        Self {
            seed,
            data: LabelingDataset::binary(tasks, draw(seed, 1, 0)),
            crowd: mixes::mixed(pool, draw(seed, 2, 0)),
        }
    }

    fn digest(&self, d: &mut Digest) {
        d.u64(self.seed);
        for (t, &truth) in self.data.tasks.iter().zip(&self.data.truths) {
            d.u64(t.id.raw()).u64(u64::from(truth)).f64(t.difficulty);
        }
        for q in self.crowd.true_qualities() {
            d.f64(q);
        }
    }
}

fn bulk_job(input: &LabelInput, ctx: &JobCtx<'_>) -> Result<JobOutput, String> {
    let data = &input.data;
    let budget = (data.tasks.len() * BULK_VOTES) as f64 * PRICE;
    let crowd = platform(&input.crowd, input.seed, ctx.threads, budget, None);
    let oracle = TracedOracle::new(&crowd, ctx.tracer);
    let mv = CsrThenMv { tracer: ctx.tracer };
    let collected = ctx
        .tracer
        .span("collect", || {
            label_tasks(&oracle, &data.tasks, BULK_VOTES, &mv)
        })
        .map_err(fail)?;
    let m = &collected.matrix;
    let sparse = FreezeConfig::sparse(FREEZE_EPS);
    let ds = DawidSkene::with_config(
        EmConfig::default()
            .with_threads(ctx.threads)
            .with_freeze(sparse),
    );
    let ds = infer(ctx, "truth.ds", "truth.ds.iters", &ds, m)?;
    let glad = Glad::with_config(
        GladConfig::default()
            .with_threads(ctx.threads)
            .with_freeze(sparse),
    );
    let run_glad = || infer(ctx, "truth.glad", "truth.glad.iters", &glad, m);
    let glad = match &ctx.glad_rec {
        Some(rec) => obs::with_recorder(rec.clone(), run_glad)?,
        None => run_glad()?,
    };

    let mut out = JobOutput::default();
    out.settle(&crowd);
    let mut d = Digest::default();
    for r in [&collected.inference, &ds, &glad] {
        out.score(m, data, r, &mut d);
    }
    Ok(out.seal(d))
}

fn adaptive_job(input: &LabelInput, ctx: &JobCtx<'_>) -> Result<JobOutput, String> {
    let data = &input.data;
    let questions = data.tasks.len() * ADAPTIVE_ANSWERS_PER_TASK;
    let budget = questions as f64 * PRICE;
    let crowd = platform(&input.crowd, input.seed, ctx.threads, budget, Some(CHURN));
    let oracle = TracedOracle::new(&crowd, ctx.tracer);
    let assigned = ctx
        .tracer
        .span("assign", || {
            run_assignment(
                &oracle,
                &data.tasks,
                &mut EntropyGreedy,
                questions,
                ADAPTIVE_CAP,
            )
        })
        .map_err(fail)?;
    ctx.tracer
        .add("assign.questions", assigned.questions_asked as f64);
    let m = &assigned.matrix;
    build_csr(ctx.tracer, m);
    let ds = DawidSkene::with_config(EmConfig::default().with_threads(ctx.threads));
    let ds = infer(ctx, "truth.ds", "truth.ds.iters", &ds, m)?;
    let mv = infer(ctx, "truth.mv", "truth.mv.iters", &MajorityVote, m)?;

    let mut out = JobOutput::default();
    out.settle(&crowd);
    let mut d = Digest::default();
    for r in [&ds, &mv] {
        out.score(m, data, r, &mut d);
    }
    Ok(out.seal(d))
}

/// Input of one `crowd_query` job: tables, their latent truth, SQL text,
/// a Datalog program, operator datasets and the crowd.
pub struct QueryInput {
    seed: u64,
    names: Vec<String>,
    categories: Vec<&'static str>,
    brands: Vec<String>,
    /// Latent rank score per product name: the truth behind `CROWDORDER`.
    scores: BTreeMap<String, u64>,
    ddl: Vec<String>,
    fill_sql: String,
    filter_sql: String,
    join_sql: String,
    topk_sql: String,
    program: String,
    filter: LabelingDataset,
    entities: EntityDataset,
    entity_texts: Vec<String>,
    ranking: RankingDataset,
    crowd: Population,
}

impl QueryInput {
    fn generate(seed: u64) -> Self {
        let names: Vec<String> = (0..PRODUCTS as u64)
            .map(|i| format!("prod{i}-{:03x}", draw(seed, 3, i) % 4096))
            .collect();
        let categories: Vec<&'static str> = (0..PRODUCTS as u64)
            .map(|i| CATEGORIES[(draw(seed, 4, i) % CATEGORIES.len() as u64) as usize])
            .collect();
        let scores = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), draw(seed, 5, i as u64)))
            .collect();
        // Even brands spell a joinable product's name in upper case; odd
        // brands match nothing.
        let brands: Vec<String> = (0..BRANDS as u64)
            .map(|b| {
                let x = draw(seed, 6, b);
                if b % 2 == 0 {
                    names[(x % JOIN_BELOW as u64) as usize].to_uppercase()
                } else {
                    format!("brand{b}-{:03x}", x % 4096)
                }
            })
            .collect();

        let mut ddl =
            vec!["CREATE TABLE products (id INT, name TEXT, category CROWD TEXT)".to_owned()];
        ddl.extend(
            names
                .iter()
                .enumerate()
                .map(|(i, n)| format!("INSERT INTO products VALUES ({i}, '{n}', NULL)")),
        );
        ddl.push("CREATE TABLE brands (bname TEXT)".to_owned());
        ddl.extend(
            brands
                .iter()
                .map(|b| format!("INSERT INTO brands VALUES ('{b}')")),
        );

        let mut program = String::new();
        for i in 0..DATALOG_ITEMS {
            program.push_str(&format!("item({i}).\n"));
        }
        program.push_str(&format!(
            "@crowd category/2.\n\
             phone(I) :- item(I), I >= {DATALOG_FROM}, category(I, C), C = \"phone\".\n\
             other(I) :- item(I), I >= {DATALOG_FROM}, category(I, C), C != \"phone\".\n"
        ));

        let entities = EntityDataset::generate(OPS_ENTITIES, 3, 1, draw(seed, 8, 0));
        let entity_texts = entities.records.iter().map(|r| r.text.clone()).collect();
        Self {
            seed,
            fill_sql: format!("SELECT id, category FROM products WHERE id >= {FILL_FROM}"),
            filter_sql: format!("SELECT id FROM products WHERE id < {FILTER_BELOW} AND category = 'phone'"),
            join_sql: format!(
                "SELECT products.id, brands.bname FROM products, brands \
                 WHERE CROWDEQUAL(products.name, brands.bname) AND products.id < {JOIN_BELOW}"
            ),
            topk_sql: format!(
                "SELECT name FROM products WHERE id < {TOPK_BELOW} ORDER BY CROWDORDER(name) LIMIT {TOP_K}"
            ),
            names,
            categories,
            brands,
            scores,
            ddl,
            program,
            filter: LabelingDataset::binary(OPS_FILTER_ITEMS, draw(seed, 7, 0)),
            entities,
            entity_texts,
            ranking: RankingDataset::generate(OPS_RANKED, draw(seed, 9, 0)),
            crowd: PopulationBuilder::new()
                .reliable(QUERY_POOL, 0.8, 0.95)
                .build(draw(seed, 2, 0)),
        }
    }

    fn digest(&self, d: &mut Digest) {
        d.u64(self.seed);
        for s in self.ddl.iter().chain([
            &self.fill_sql,
            &self.filter_sql,
            &self.join_sql,
            &self.topk_sql,
            &self.program,
        ]) {
            d.str(s);
        }
        for c in &self.categories {
            d.str(c);
        }
        for (n, s) in &self.scores {
            d.str(n).u64(*s);
        }
        for t in &self.filter.truths {
            d.u64(u64::from(*t));
        }
        for t in &self.entity_texts {
            d.str(t);
        }
        for s in &self.ranking.scores {
            d.f64(*s);
        }
        for q in self.crowd.true_qualities() {
            d.f64(q);
        }
    }

    fn category(&self, id: i64) -> &'static str {
        usize::try_from(id)
            .ok()
            .and_then(|i| self.categories.get(i))
            .copied()
            .unwrap_or("unknown")
    }

    fn score(&self, name: &Value) -> u64 {
        self.scores.get(&name.display_raw()).copied().unwrap_or(0)
    }
}

fn int_at(row: &[Value], i: usize) -> Option<i64> {
    match row.get(i) {
        Some(Value::Int(v)) => Some(*v),
        _ => None,
    }
}

/// NULL `category` cells among the first `rows` products.
fn null_cells(session: &Session, rows: usize) -> Result<u64, String> {
    let catalog = session.catalog();
    let table = catalog.table("products").map_err(fail)?;
    let col = table
        .column_index("category")
        .ok_or("products has no category column")?;
    let rows = catalog.rows("products").map_err(fail)?.iter().take(rows);
    Ok(rows.filter(|r| r.get(col) == Some(&Value::Null)).count() as u64)
}

/// Runs one SQL statement in its span; folds its rows into the digest.
#[allow(clippy::too_many_arguments)]
fn sql_query(
    ctx: &JobCtx<'_>,
    span: &'static str,
    session: &Session,
    oracle: &dyn CrowdOracle,
    factory: &mut dyn TaskFactory,
    opts: &QueryOpts,
    sql: &str,
    d: &mut Digest,
) -> Result<(Vec<Vec<Value>>, u64), String> {
    if ctx.tracer.enabled() {
        ctx.tracer
            .span("sql.plan", || session.explain_with(sql, true, opts))
            .map_err(fail)?;
    }
    let (rows, stats) = ctx
        .tracer
        .span(span, || session.query_crowd(sql, oracle, factory, opts))
        .map_err(fail)?;
    ctx.tracer.add("sql.questions", stats.questions as f64);
    ctx.tracer.add("sql.rounds", stats.rounds as f64);
    ctx.tracer.add("sql.spend", stats.spend);
    ctx.tracer.add("sql.predicted_spend", stats.predicted_spend);
    for v in rows.iter().flatten() {
        d.str(&v.display_raw());
    }
    Ok((rows, stats.questions))
}

fn query_job(input: &QueryInput, ctx: &JobCtx<'_>) -> Result<JobOutput, String> {
    let mut out = JobOutput::default();
    let mut d = Digest::default();
    sql_part(input, ctx, &mut out, &mut d)?;
    datalog_part(input, ctx, &mut out, &mut d)?;
    ops_part(input, ctx, &mut out, &mut d)?;
    Ok(out.seal(d))
}

fn sql_part(
    input: &QueryInput,
    ctx: &JobCtx<'_>,
    out: &mut JobOutput,
    d: &mut Digest,
) -> Result<(), String> {
    let crowd = platform(
        &input.crowd,
        draw(input.seed, 10, 0),
        ctx.threads,
        QUERY_BUDGET,
        None,
    );
    let oracle = TracedOracle::new(&crowd, ctx.tracer);
    let session = Session::new();
    ctx.tracer
        .span("sql.ddl", || {
            input.ddl.iter().try_for_each(|s| session.execute_ddl(s))
        })
        .map_err(fail)?;
    let opts = QueryOpts::new().votes(VOTES).batch(BATCH);
    let mut factory = SimTaskFactory {
        fill_truth: |_: &str, row: &[Value], _: &str| {
            input.category(int_at(row, 0).unwrap_or(-1)).to_owned()
        },
        equal_truth: |l: &Value, r: &Value| l.display_raw().eq_ignore_ascii_case(&r.display_raw()),
        left_wins_truth: |l: &Value, r: &Value| input.score(l) > input.score(r),
    };
    let mut query = |span, sql: &str, d: &mut Digest| {
        sql_query(ctx, span, &session, &oracle, &mut factory, &opts, sql, d)
    };

    let (filled, _) = query("sql.fill", &input.fill_sql, d)?;
    for id in FILL_FROM..PRODUCTS {
        let got = filled.iter().find(|r| int_at(r, 0) == Some(id as i64));
        out.decide(
            got.and_then(|r| r.get(1))
                .map(Value::display_raw)
                .as_deref()
                == Some(input.categories[id]),
        );
    }

    let (kept, _) = query("sql.filter", &input.filter_sql, d)?;
    let kept_ids: BTreeSet<i64> = kept.iter().filter_map(|r| int_at(r, 0)).collect();
    for id in 0..FILTER_BELOW {
        out.decide(kept_ids.contains(&(id as i64)) == (input.categories[id] == "phone"));
    }
    // Tied answers leave a cell NULL; re-reading asks again for those only.
    let unresolved = null_cells(&session, FILTER_BELOW)?;
    let (cached, questions) = query("sql.cached", &input.filter_sql, d)?;
    if questions != u64::from(VOTES) * unresolved {
        return Err(format!(
            "re-reading filled cells asked {questions} questions for {unresolved} NULL cells"
        ));
    }
    if !kept.iter().all(|r| cached.contains(r)) {
        return Err("re-reading filled cells lost rows".to_owned());
    }

    let (joined, _) = query("sql.join", &input.join_sql, d)?;
    let pairs: BTreeSet<(i64, String)> = joined
        .iter()
        .filter_map(|r| Some((int_at(r, 0)?, r.get(1)?.display_raw())))
        .collect();
    for (id, name) in input.names.iter().enumerate().take(JOIN_BELOW) {
        for b in &input.brands {
            out.decide(pairs.contains(&(id as i64, b.clone())) == name.eq_ignore_ascii_case(b));
        }
    }

    let (top, _) = query("sql.topk", &input.topk_sql, d)?;
    let mut ranked: Vec<&String> = input.names.iter().take(TOPK_BELOW).collect();
    ranked.sort_by_key(|n| std::cmp::Reverse(input.scores.get(*n).copied().unwrap_or(0)));
    for i in 0..TOP_K {
        let name = top.get(i).and_then(|r| r.first()).map(Value::display_raw);
        out.decide(name.is_some_and(|n| ranked[..TOP_K].iter().any(|t| **t == n)));
    }
    out.settle(&crowd);
    Ok(())
}

fn datalog_part(
    input: &QueryInput,
    ctx: &JobCtx<'_>,
    out: &mut JobOutput,
    d: &mut Digest,
) -> Result<(), String> {
    let crowd = platform(
        &input.crowd,
        draw(input.seed, 11, 0),
        ctx.threads,
        QUERY_BUDGET,
        None,
    );
    let oracle = TracedOracle::new(&crowd, ctx.tracer);
    let (db, stats) = ctx
        .tracer
        .span("datalog", || {
            let engine = Engine::new(parse_program(&input.program)?)?;
            // The engine enumerates bindings in hash order, so the
            // resolver's sequential ids would differ between repeats; an id
            // derived from the binding keeps every answer reproducible.
            let mut resolver = OracleResolver::new(&oracle, VOTES, |_id, _pred, bound, _free| {
                let item = match bound.first() {
                    Some((_, Const::Int(i))) => *i,
                    _ => -1,
                };
                Task::new(
                    TaskId::new(u64::try_from(item).unwrap_or(u64::MAX)),
                    TaskKind::OpenText,
                    "category of an item?",
                )
                .with_truth(AnswerValue::Text(input.category(item).to_owned()))
            });
            engine.run(&mut resolver)
        })
        .map_err(fail)?;
    ctx.tracer.add("datalog.fetches", stats.fetches as f64);
    ctx.tracer
        .add("datalog.cache_hits", stats.fetch_cache_hits as f64);
    let phones: BTreeSet<i64> = db
        .relation("phone")
        .iter()
        .filter_map(|r| match r.first() {
            Some(Const::Int(i)) => Some(*i),
            _ => None,
        })
        .collect();
    for rel in ["phone", "other"] {
        for c in db.relation(rel).iter().flatten() {
            d.str(&c.to_string());
        }
    }
    for i in DATALOG_FROM..DATALOG_ITEMS {
        out.decide(phones.contains(&(i as i64)) == (input.categories[i] == "phone"));
    }
    out.pay(&crowd);
    out.datalog_clock_s += crowd.now();
    Ok(())
}

fn ops_part(
    input: &QueryInput,
    ctx: &JobCtx<'_>,
    out: &mut JobOutput,
    d: &mut Digest,
) -> Result<(), String> {
    let crowd = platform(
        &input.crowd,
        draw(input.seed, 12, 0),
        ctx.threads,
        QUERY_BUDGET,
        None,
    );
    let oracle = TracedOracle::new(&crowd, ctx.tracer);

    let rule = MajorityMargin { margin: 2 };
    let filtered = ctx
        .tracer
        .span("ops.filter", || {
            crowd_filter(&oracle, &input.filter.tasks, &rule, OPS_FILTER_MAX)
        })
        .map_err(fail)?;
    for (decision, &truth) in filtered.decisions.iter().zip(&input.filter.truths) {
        let keep = decision.map(|x| x.keep);
        d.u64(keep.map_or(2, u64::from));
        out.decide(keep == Some(truth == 1));
    }

    let ents = &input.entities;
    let (candidates, joined) = ctx
        .tracer
        .span("ops.join", || {
            let candidates = candidate_pairs(&input.entity_texts, OPS_BLOCKING);
            let same = |id, a, b| {
                Task::binary(id, "same entity?")
                    .with_truth(AnswerValue::Choice(u32::from(ents.same_entity(a, b))))
            };
            crowd_join(
                &oracle,
                ents.records.len(),
                &candidates,
                same,
                &JoinConfig::default(),
            )
            .map(|joined| (candidates, joined))
        })
        .map_err(fail)?;
    for c in &candidates {
        let together = joined.clusters[c.a] == joined.clusters[c.b];
        out.decide(together == ents.same_entity(c.a, c.b));
    }
    for c in &joined.clusters {
        d.u64(*c as u64);
    }

    let ranking = &input.ranking;
    let top = ctx
        .tracer
        .span("ops.topk", || {
            crowd_top_k(&oracle, ranking.items.len(), TOP_K, VOTES, |id, a, b| {
                ranking.comparison_task(id, a, b)
            })
        })
        .map_err(fail)?;
    let positions = ranking.true_positions();
    for &w in &top.winners {
        d.u64(w as u64);
        out.decide(positions[w] < TOP_K);
    }
    out.decisions += (TOP_K - top.winners.len()) as u64;
    out.settle(&crowd);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        for w in ALL {
            let a = w.setup(11).digest();
            assert_eq!(
                a,
                w.setup(11).digest(),
                "{}: same seed, same inputs",
                w.name()
            );
            assert_ne!(
                a,
                w.setup(12).digest(),
                "{}: new seed, new inputs",
                w.name()
            );
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
