//! Replay: reconstructing span trees and attributing cost from a stream.
//!
//! The merged run log is flat — one event per line — but it has structure:
//! `exp.begin`/`exp.end` bracket each experiment, `truth.iter` events
//! accumulate under the `truth.run` that closes them, platform batches
//! carry `plan_ns`/`exec_ns` phase timings, SQL and Datalog operators tag
//! their events with node/predicate labels. [`replay`] folds the flat
//! stream back into per-experiment [`Frame`] trees, attributing:
//!
//! * **simulated cost** — questions (crowd answers delivered), currency
//!   spend, budget stops and simulated makespan, taken from the
//!   deterministic fields;
//! * **wall time** — cumulative vs. self nanoseconds per frame, taken from
//!   the `*_ns` wall fields *when the stream was captured with wall data*
//!   (deterministic streams attribute by event count instead).
//!
//! [`Replay::folded`] renders the tree as collapsed stacks
//! (`frame;frame;frame weight`), the interchange format standard
//! flamegraph tooling consumes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crowdkit_obs::StreamHeader;

use crate::stream::{LoadedStream, OwnedEvent};

/// One node of the reconstructed span tree, aggregated over every event
/// that mapped to it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Frame {
    /// Frame label (`"truth:ds"`, `"platform.batch"`, `"sql:CrowdFilter"`).
    pub name: String,
    /// Events attributed to this frame itself (children counted in the
    /// children).
    pub events: u64,
    /// Crowd answers delivered while this frame ran.
    pub questions: u64,
    /// Currency spent while this frame ran.
    pub spend: f64,
    /// Simulated seconds of makespan attributed to this frame.
    pub makespan: f64,
    /// Cumulative wall nanoseconds (this frame plus its children).
    pub wall_ns: u64,
    /// Child frames, in name order.
    pub children: Vec<Frame>,
}

impl Frame {
    /// Wall nanoseconds spent in this frame excluding its children —
    /// cumulative minus the children's cumulative time.
    pub fn self_wall_ns(&self) -> u64 {
        let children: u64 = self.children.iter().map(|c| c.wall_ns).sum();
        self.wall_ns.saturating_sub(children)
    }

    /// Cumulative event count (this frame plus its children).
    pub fn total_events(&self) -> u64 {
        self.events + self.children.iter().map(Frame::total_events).sum::<u64>()
    }
}

/// The reconstructed span of one experiment (or of the whole stream when
/// no `exp.begin` markers are present).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentSpan {
    /// Experiment id (`"e1"`), or `"(run)"` for unmarked streams.
    pub id: String,
    /// Total events observed inside the span, markers included.
    pub events: u64,
    /// Crowd answers delivered (from `platform.batch`).
    pub questions: u64,
    /// Currency spent.
    pub spend: f64,
    /// Simulated makespan, seconds (sum over platform batches).
    pub makespan: f64,
    /// Batches stopped early by budget exhaustion.
    pub budget_stops: u64,
    /// Cumulative wall nanoseconds attributed across frames.
    pub wall_ns: u64,
    /// `(metric, mean)` pairs from `exp.quality` events, in metric order.
    pub quality: Vec<(String, f64)>,
    /// Top-level frames, in name order.
    pub frames: Vec<Frame>,
}

/// The replayed view of one stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// The stream's header, when it had one.
    pub header: Option<StreamHeader>,
    /// Per-experiment spans, in stream order.
    pub experiments: Vec<ExperimentSpan>,
    /// Total events in the stream.
    pub total_events: u64,
    /// Whether the stream carried wall-clock data (decides the default
    /// folded-stack weight).
    pub has_wall: bool,
}

/// Aggregation state for one experiment while scanning its events.
#[derive(Default)]
struct SpanBuilder {
    id: String,
    events: u64,
    questions: u64,
    spend: f64,
    makespan: f64,
    budget_stops: u64,
    // Path → frame aggregates. Depth is at most 2 (frame, child).
    frames: BTreeMap<Vec<String>, Frame>,
    // metric → (sum, count) for exp.quality means.
    quality: BTreeMap<String, (f64, u64)>,
}

impl SpanBuilder {
    fn new(id: String) -> Self {
        Self {
            id,
            ..Self::default()
        }
    }

    fn frame(&mut self, path: &[&str]) -> &mut Frame {
        let key: Vec<String> = path.iter().map(|s| (*s).to_owned()).collect();
        self.frames.entry(key).or_insert_with(|| Frame {
            name: path.last().map_or(String::new(), |s| (*s).to_owned()),
            ..Frame::default()
        })
    }

    /// Routes one event into the span's aggregates.
    fn observe(&mut self, e: &OwnedEvent) {
        self.events += 1;
        match e.key.as_str() {
            "platform.batch" => {
                let delivered = e.field_u64("delivered").unwrap_or(0);
                let spend = e.field_f64("spend").unwrap_or(0.0);
                let makespan = e.field_f64("makespan").unwrap_or(0.0);
                self.questions += delivered;
                self.spend += spend;
                self.makespan += makespan;
                self.budget_stops += e.field_u64("budget_stopped").unwrap_or(0);
                let plan = e.wall_field("plan_ns").unwrap_or(0);
                let exec = e.wall_field("exec_ns").unwrap_or(0);
                let f = self.frame(&["platform.batch"]);
                f.events += 1;
                f.questions += delivered;
                f.spend += spend;
                f.makespan += makespan;
                f.wall_ns += plan + exec;
                if plan > 0 {
                    self.frame(&["platform.batch", "plan"]).wall_ns += plan;
                }
                if exec > 0 {
                    self.frame(&["platform.batch", "exec"]).wall_ns += exec;
                }
            }
            "platform.assign" => {
                // Per-assignment detail inside a batch's execution phase.
                self.frame(&["platform.batch", "assign"]).events += 1;
            }
            "truth.iter" => {
                let algo = e.field_str("algo").unwrap_or("?").to_owned();
                let name = format!("truth:{algo}");
                let m = e.wall_field("m_ns").unwrap_or(0);
                let em = e.wall_field("e_ns").unwrap_or(0);
                self.frame(&[&name]).events += 1;
                if m > 0 {
                    self.frame(&[&name, "m_step"]).wall_ns += m;
                }
                if em > 0 {
                    self.frame(&[&name, "e_step"]).wall_ns += em;
                }
            }
            "truth.freeze" => {
                // Sparse-EM worklist transitions: counted as children of
                // the algorithm's frame so replay shows how much of a run
                // had freezing activity (the events themselves carry the
                // per-iteration active-set size).
                let algo = e.field_str("algo").unwrap_or("?").to_owned();
                let name = format!("truth:{algo}");
                self.frame(&[&name, "freeze"]).events += 1;
            }
            "truth.run" => {
                let algo = e.field_str("algo").unwrap_or("?").to_owned();
                let name = format!("truth:{algo}");
                let run_ns = e.wall_field("run_ns").unwrap_or(0);
                let f = self.frame(&[&name]);
                f.events += 1;
                // run_ns is the whole inference run: the frame's cumulative
                // time, of which the m/e child frames are the kernel part.
                f.wall_ns += run_ns;
            }
            "assign.wave" => {
                let f = self.frame(&["assign"]);
                f.events += 1;
                f.questions += e.field_u64("delivered").unwrap_or(0);
            }
            "assign.run" => {
                self.frame(&["assign"]).events += 1;
            }
            "sql.node" => {
                let node = e.field_str("node").unwrap_or("?").to_owned();
                let name = format!("sql:{node}");
                let f = self.frame(&["sql", &name]);
                f.events += 1;
                f.questions += e.field_u64("questions").unwrap_or(0);
            }
            "sql.query" => {
                let f = self.frame(&["sql"]);
                f.events += 1;
                f.questions += e.field_u64("questions").unwrap_or(0);
            }
            "datalog.fetch" => {
                let predicate = e.field_str("predicate").unwrap_or("?").to_owned();
                let name = format!("datalog:{predicate}");
                let f = self.frame(&["datalog", &name]);
                f.events += 1;
                f.questions += e.field_u64("answers").unwrap_or(0);
            }
            "exp.quality" => {
                if let (Some(metric), Some(value)) = (e.field_str("metric"), e.field_f64("value")) {
                    let slot = self.quality.entry(metric.to_owned()).or_insert((0.0, 0));
                    slot.0 += value;
                    slot.1 += 1;
                }
            }
            // exp.begin / exp.end markers and unknown keys: counted in
            // `events` only.
            _ => {}
        }
    }

    fn finish(self) -> ExperimentSpan {
        // Assemble the path-keyed aggregates into a tree. Paths are depth
        // ≤ 2 and BTreeMap order guarantees a parent sorts before its
        // children, so one pass suffices.
        let mut frames: Vec<Frame> = Vec::new();
        for (path, frame) in self.frames {
            match path.len() {
                1 => frames.push(frame),
                _ => {
                    let parent_name = &path[0];
                    if frames.last().map(|f| &f.name) != Some(parent_name) {
                        // Child without an explicit parent aggregate (e.g.
                        // a wall-only phase): synthesize the parent.
                        frames.push(Frame {
                            name: parent_name.clone(),
                            ..Frame::default()
                        });
                    }
                    // A parent's cumulative wall must cover its children;
                    // wall-only children (plan/exec, m/e) otherwise exceed
                    // a parent that never saw a wall field.
                    if let Some(parent) = frames.last_mut() {
                        parent.children.push(frame);
                        let child_wall: u64 = parent.children.iter().map(|c| c.wall_ns).sum();
                        parent.wall_ns = parent.wall_ns.max(child_wall);
                    }
                }
            }
        }
        let wall_ns = frames.iter().map(|f| f.wall_ns).sum();
        let quality = self
            .quality
            .into_iter()
            .map(|(metric, (sum, n))| (metric, if n == 0 { 0.0 } else { sum / n as f64 }))
            .collect();
        ExperimentSpan {
            id: self.id,
            events: self.events,
            questions: self.questions,
            spend: self.spend,
            makespan: self.makespan,
            budget_stops: self.budget_stops,
            wall_ns,
            quality,
            frames,
        }
    }
}

/// Replays a loaded stream into per-experiment span trees.
pub fn replay(stream: &LoadedStream) -> Replay {
    let mut experiments = Vec::new();
    let mut current: Option<SpanBuilder> = None;
    let mut unmarked: Option<SpanBuilder> = None;
    for e in &stream.events {
        match e.key.as_str() {
            "exp.begin" => {
                if let Some(span) = current.take() {
                    experiments.push(span.finish());
                }
                let id = e.field_str("id").unwrap_or("(unnamed)").to_owned();
                let mut span = SpanBuilder::new(id);
                span.observe(e);
                current = Some(span);
            }
            "exp.end" => {
                if let Some(mut span) = current.take() {
                    span.observe(e);
                    experiments.push(span.finish());
                }
            }
            _ => match &mut current {
                Some(span) => span.observe(e),
                None => unmarked
                    .get_or_insert_with(|| SpanBuilder::new("(run)".to_owned()))
                    .observe(e),
            },
        }
    }
    if let Some(span) = current {
        experiments.push(span.finish());
    }
    if let Some(span) = unmarked {
        experiments.push(span.finish());
    }
    Replay {
        header: stream.header.clone(),
        experiments,
        total_events: stream.events.len() as u64,
        has_wall: stream.has_wall_data(),
    }
}

impl Replay {
    /// Renders the span trees as collapsed stacks, one `path weight` line
    /// per frame — the format `flamegraph.pl` and compatible tools read.
    ///
    /// Weights are *self* weights (tools sum children into parents): wall
    /// nanoseconds when the stream carried wall data, otherwise event
    /// counts, so deterministic streams still produce a meaningful
    /// profile. Zero-weight frames are omitted.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for exp in &self.experiments {
            let attributed: u64 = exp.frames.iter().map(Frame::total_events).sum();
            let self_weight = if self.has_wall {
                0
            } else {
                exp.events.saturating_sub(attributed)
            };
            if self_weight > 0 {
                let _ = writeln!(out, "run;{} {self_weight}", exp.id);
            }
            for frame in &exp.frames {
                self.fold_frame(&mut out, &format!("run;{}", exp.id), frame);
            }
        }
        out
    }

    fn fold_frame(&self, out: &mut String, prefix: &str, frame: &Frame) {
        let path = format!("{prefix};{}", frame.name);
        let self_weight = if self.has_wall {
            frame.self_wall_ns()
        } else {
            frame.events
        };
        if self_weight > 0 {
            let _ = writeln!(out, "{path} {self_weight}");
        }
        for child in &frame.children {
            self.fold_frame(out, &path, child);
        }
    }

    /// Renders a human-oriented replay report: stream metadata, one row
    /// per experiment, and a per-frame attribution table (self vs.
    /// cumulative wall time, questions, spend).
    pub fn render(&self) -> String {
        let mut out = String::new();
        match &self.header {
            Some(h) => {
                let _ = writeln!(
                    out,
                    "stream: schema {} · git {} · seed {} · threads {} · workload {}",
                    h.schema, h.git_rev, h.seed, h.threads, h.workload
                );
            }
            None => {
                let _ = writeln!(out, "stream: (no header)");
            }
        }
        let _ = writeln!(
            out,
            "{} events · {} experiment span(s) · wall data: {}",
            self.total_events,
            self.experiments.len(),
            if self.has_wall { "yes" } else { "no" }
        );
        for exp in &self.experiments {
            let _ = writeln!(
                out,
                "\n[{}] events {} · questions {} · spend {:.2} · makespan {:.2}s · wall {:.3}ms",
                exp.id,
                exp.events,
                exp.questions,
                exp.spend,
                exp.makespan,
                exp.wall_ns as f64 / 1e6,
            );
            if !exp.quality.is_empty() {
                let rendered: Vec<String> = exp
                    .quality
                    .iter()
                    .map(|(m, v)| format!("{m}={v:.4}"))
                    .collect();
                let _ = writeln!(out, "  quality: {}", rendered.join(" "));
            }
            for frame in &exp.frames {
                render_frame(&mut out, frame, 1);
            }
        }
        out
    }
}

fn render_frame(out: &mut String, frame: &Frame, depth: usize) {
    let indent = "  ".repeat(depth);
    let _ = write!(out, "{indent}{:<24}", frame.name);
    let _ = write!(
        out,
        " events {:<7} self {:>10}ns cum {:>10}ns",
        frame.total_events(),
        frame.self_wall_ns(),
        frame.wall_ns
    );
    if frame.questions > 0 {
        let _ = write!(out, " questions {}", frame.questions);
    }
    if frame.spend > 0.0 {
        let _ = write!(out, " spend {:.2}", frame.spend);
    }
    out.push('\n');
    for child in &frame.children {
        render_frame(out, child, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::parse_stream;

    fn marked_stream() -> LoadedStream {
        parse_stream(concat!(
            "{\"key\":\"exp.begin\",\"id\":\"e1\"}\n",
            "{\"key\":\"platform.batch\",\"sim\":30,\"requests\":10,\"delivered\":10,",
            "\"spend\":1.5,\"makespan\":30,\"latency_sum\":120,\"budget_stopped\":1,",
            "\"no_worker\":0,\"plan_ns\":100,\"exec_ns\":400}\n",
            "{\"key\":\"truth.iter\",\"algo\":\"ds\",\"iter\":0,\"delta\":0.5,",
            "\"m_ns\":120,\"e_ns\":80}\n",
            "{\"key\":\"truth.iter\",\"algo\":\"ds\",\"iter\":1,\"delta\":0.1,",
            "\"m_ns\":100,\"e_ns\":60}\n",
            "{\"key\":\"truth.run\",\"algo\":\"ds\",\"tasks\":10,\"workers\":5,",
            "\"observations\":30,\"iters\":2,\"converged\":1,\"run_ns\":600}\n",
            "{\"key\":\"exp.quality\",\"metric\":\"accuracy\",\"value\":0.5}\n",
            "{\"key\":\"exp.quality\",\"metric\":\"accuracy\",\"value\":1.0}\n",
            "{\"key\":\"exp.end\",\"id\":\"e1\"}\n",
            "{\"key\":\"exp.begin\",\"id\":\"e2\"}\n",
            "{\"key\":\"sql.node\",\"node\":\"CrowdFilter\",\"rows_in\":8,\"rows_out\":4,",
            "\"questions\":16}\n",
            "{\"key\":\"sql.query\",\"optimized\":1,\"questions\":16,\"cells_filled\":0,",
            "\"equal_checks\":0,\"comparisons\":0,\"rows_out\":4}\n",
            "{\"key\":\"exp.end\",\"id\":\"e2\"}\n",
        ))
        .unwrap()
    }

    #[test]
    fn spans_follow_experiment_markers() {
        let r = replay(&marked_stream());
        assert_eq!(r.experiments.len(), 2);
        let e1 = &r.experiments[0];
        assert_eq!(e1.id, "e1");
        assert_eq!(e1.events, 8);
        assert_eq!(e1.questions, 10);
        assert_eq!(e1.spend, 1.5);
        assert_eq!(e1.makespan, 30.0);
        assert_eq!(e1.budget_stops, 1);
        assert_eq!(e1.quality, vec![("accuracy".to_owned(), 0.75)]);
        let e2 = &r.experiments[1];
        assert_eq!(e2.id, "e2");
        assert_eq!(e2.questions, 0, "sql questions inform frames, not totals");
    }

    #[test]
    fn truth_frames_attribute_self_vs_cumulative_wall() {
        let r = replay(&marked_stream());
        let e1 = &r.experiments[0];
        let truth = e1
            .frames
            .iter()
            .find(|f| f.name == "truth:ds")
            .expect("truth frame");
        assert_eq!(truth.wall_ns, 600, "cumulative = run_ns");
        // children: e_step 140, m_step 220 → self = 600 - 360.
        assert_eq!(truth.self_wall_ns(), 240);
        assert_eq!(truth.children.len(), 2);
        assert_eq!(truth.total_events(), 3);
        let batch = e1
            .frames
            .iter()
            .find(|f| f.name == "platform.batch")
            .expect("batch frame");
        assert_eq!(batch.wall_ns, 500);
        assert_eq!(batch.self_wall_ns(), 0);
    }

    #[test]
    fn folded_output_is_valid_collapsed_stacks() {
        let r = replay(&marked_stream());
        let folded = r.folded();
        assert!(folded.contains("run;e1;truth:ds "));
        assert!(folded.contains("run;e1;truth:ds;m_step 220"));
        assert!(folded.contains("run;e1;truth:ds;e_step 140"));
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("stack SPACE weight");
            assert!(!stack.is_empty() && stack.split(';').all(|f| !f.is_empty()));
            assert!(weight.parse::<u64>().expect("numeric weight") > 0);
        }
    }

    #[test]
    fn freeze_events_attribute_under_the_algorithm_frame() {
        let s = parse_stream(concat!(
            "{\"key\":\"truth.freeze\",\"algo\":\"ds\",\"iter\":3,\"froze\":90,",
            "\"active\":10,\"frozen_total\":90}\n",
            "{\"key\":\"truth.freeze\",\"algo\":\"ds\",\"iter\":6,\"froze\":2,",
            "\"active\":8,\"frozen_total\":92}\n",
            "{\"key\":\"truth.run\",\"algo\":\"ds\",\"tasks\":100,\"workers\":5,",
            "\"observations\":500,\"iters\":8,\"converged\":1}\n",
        ))
        .unwrap();
        let r = replay(&s);
        let truth = r.experiments[0]
            .frames
            .iter()
            .find(|f| f.name == "truth:ds")
            .expect("truth frame");
        let child_names: Vec<&str> = truth.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(child_names, ["freeze"]);
        assert_eq!(truth.children[0].events, 2);
        assert_eq!(truth.total_events(), 3);
    }

    #[test]
    fn unmarked_streams_form_one_run_span() {
        let s = parse_stream(
            "{\"key\":\"truth.run\",\"algo\":\"mv\",\"tasks\":3,\"workers\":2,\
\"observations\":6,\"iters\":0,\"converged\":1}\n",
        )
        .unwrap();
        let r = replay(&s);
        assert_eq!(r.experiments.len(), 1);
        assert_eq!(r.experiments[0].id, "(run)");
        assert!(!r.has_wall);
        // Event-count weights for deterministic streams.
        assert_eq!(r.folded(), "run;(run);truth:mv 1\n");
    }

    #[test]
    fn render_mentions_header_and_frames() {
        let r = replay(&marked_stream());
        let text = r.render();
        assert!(text.contains("(no header)"));
        assert!(text.contains("[e1]"));
        assert!(text.contains("truth:ds"));
        assert!(text.contains("quality: accuracy=0.7500"));
    }
}
