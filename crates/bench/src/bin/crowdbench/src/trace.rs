//! In-memory spans around each layer call, and the traced oracle.
//!
//! A span records its name, start, end, parent and job. Spans are opened
//! only from the benchmark's own code, around the public calls into each
//! layer, so tracing changes nothing inside the library. A layer's self
//! time is its span's duration minus the durations of its direct child
//! spans; children of one span are sequential, so they never overlap.
//!
//! A disabled [`Tracer`] costs one branch per call, which is why the
//! untraced runs use the same code path as the traced ones.

use std::cell::{Cell, Ref, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crowdkit_core::answer::Answer;
use crowdkit_core::ask::{AskOutcome, AskRequest};
use crowdkit_core::error::Result;
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;
use crowdkit_obs::wall_ns;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, such as `sim` or `truth.glad`.
    pub name: &'static str,
    /// Job that opened the span.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Wall-clock start, in ns since the process's first clock read.
    pub start_ns: u64,
    /// Wall-clock end, in the same clock.
    pub end_ns: u64,
}

impl Span {
    /// Span length in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans and per-layer counters for one run.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    job: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    counters: RefCell<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only forwards calls.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            ..Self::default()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Tags later spans with `job`.
    pub fn set_job(&self, job: u64) {
        self.job.set(job);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                job: self.job.get(),
                parent: self.open.borrow().last().copied(),
                start_ns: wall_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = wall_ns();
        out
    }

    /// Adds `v` to the named counter.
    pub fn add(&self, counter: &'static str, v: f64) {
        if self.on {
            *self.counters.borrow_mut().entry(counter).or_insert(0.0) += v;
        }
    }

    /// All closed spans, in opening order.
    pub fn spans(&self) -> Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// The named counter's total (0 when never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.borrow().get(name).copied().unwrap_or(0.0)
    }

    /// The spans as JSON lines, each with its self time.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans();
        let mut out = String::new();
        for (s, self_ns) in spans.iter().zip(self_times(&spans)) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.job, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// A [`CrowdOracle`] that forwards every call unchanged and records a
/// `sim` span, the answers delivered and the shortfalls around it.
pub struct TracedOracle<'a, O: ?Sized> {
    inner: &'a O,
    tracer: &'a Tracer,
}

impl<'a, O: CrowdOracle + ?Sized> TracedOracle<'a, O> {
    /// Wraps `inner`.
    pub fn new(inner: &'a O, tracer: &'a Tracer) -> Self {
        Self { inner, tracer }
    }

    fn note(&self, outcomes: &[AskOutcome]) {
        for o in outcomes {
            self.tracer.add("sim.answers", o.answers.len() as f64);
            if o.shortfall.is_some() {
                self.tracer.add("sim.shortfalls", 1.0);
            }
        }
    }
}

impl<O: CrowdOracle + ?Sized> CrowdOracle for TracedOracle<'_, O> {
    fn ask_one(&self, task: &Task) -> Result<Answer> {
        self.tracer.span("sim", || {
            let out = self.inner.ask_one(task);
            match &out {
                Ok(_) => self.tracer.add("sim.answers", 1.0),
                Err(_) => self.tracer.add("sim.shortfalls", 1.0),
            }
            out
        })
    }

    fn ask(&self, req: &AskRequest<'_>) -> Result<AskOutcome> {
        self.tracer.span("sim", || {
            let out = self.inner.ask(req);
            if let Ok(o) = &out {
                self.note(std::slice::from_ref(o));
            }
            out
        })
    }

    fn ask_batch(&self, reqs: &[AskRequest<'_>]) -> Result<Vec<AskOutcome>> {
        self.tracer.span("sim", || {
            let out = self.inner.ask_batch(reqs);
            if let Ok(o) = &out {
                self.note(o);
            }
            out
        })
    }

    fn remaining_budget(&self) -> Option<f64> {
        self.inner.remaining_budget()
    }

    fn answers_delivered(&self) -> u64 {
        self.inner.answers_delivered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::answer::AnswerValue;
    use crowdkit_core::budget::Budget;
    use crowdkit_core::ids::TaskId;
    use crowdkit_sim::latency::LatencyModel;
    use crowdkit_sim::{PlatformBuilder, PopulationBuilder, SimulatedCrowd};

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            job: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // job [0, 100) ⊃ collect [10, 80) ⊃ sim [20, 50)
        let spans = [
            span("job", None, 0, 100),
            span("collect", Some(0), 10, 80),
            span("sim", Some(1), 20, 50),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 30]);
    }

    #[test]
    fn self_time_subtracts_every_sibling() {
        // assign [0, 100) with three sequential sim children.
        let spans = [
            span("assign", None, 0, 100),
            span("sim", Some(0), 5, 25),
            span("sim", Some(0), 30, 40),
            span("sim", Some(0), 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30]);
    }

    #[test]
    fn tracer_records_parents_and_counters_only_when_on() {
        let t = Tracer::new(true);
        t.set_job(7);
        t.span("outer", || t.span("inner", || t.add("n", 2.0)));
        let spans = t.spans().clone();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].job),
            ("inner", Some(0), 7)
        );
        assert_eq!(t.counter("n"), 2.0);
        assert_eq!(t.to_jsonl().lines().count(), 2);

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", || 5), 5);
        off.add("n", 1.0);
        assert!(off.spans().is_empty());
        assert_eq!(off.counter("n"), 0.0);
    }

    fn platform() -> SimulatedCrowd {
        PlatformBuilder::new(PopulationBuilder::new().reliable(12, 0.6, 0.9).build(3))
            .latency(LatencyModel::human_default())
            .budget(Budget::new(40.0))
            .seed(9)
            .build()
    }

    /// Every entry point, including a budget shortfall, through `oracle`.
    fn drive(oracle: &dyn CrowdOracle) -> (Vec<Answer>, Option<f64>, u64) {
        let tasks: Vec<Task> = (0..6)
            .map(|i| Task::binary(TaskId::new(i), "q").with_truth(AnswerValue::Choice(1)))
            .collect();
        let mut answers = vec![oracle.ask_one(&tasks[0]).expect("budget left")];
        answers.extend(
            oracle
                .ask(&AskRequest::new(&tasks[1]).with_redundancy(3))
                .expect("ask")
                .answers,
        );
        answers.extend(oracle.ask_many(&tasks[2], 4).expect("ask_many"));
        let reqs: Vec<AskRequest<'_>> = tasks
            .iter()
            .map(|t| AskRequest::new(t).with_redundancy(7))
            .collect();
        for o in oracle.ask_batch(&reqs).expect("batch") {
            answers.extend(o.answers);
        }
        (
            answers,
            oracle.remaining_budget(),
            oracle.answers_delivered(),
        )
    }

    #[test]
    fn wrapped_oracle_gives_the_bare_oracle_answers_and_clock() {
        let bare = platform();
        let expect = drive(&bare);

        let inner = platform();
        let tracer = Tracer::new(true);
        let got = drive(&TracedOracle::new(&inner, &tracer));
        assert_eq!(got, expect);
        assert_eq!(inner.now().to_bits(), bare.now().to_bits());
        assert_eq!(inner.budget().spent(), 40.0, "the batch ran the budget dry");
        assert_eq!(tracer.spans().len(), 4, "one sim span per call");
        assert_eq!(tracer.counter("sim.answers"), 40.0);
        assert!(tracer.counter("sim.shortfalls") > 0.0);
    }
}
