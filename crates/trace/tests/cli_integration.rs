//! End-to-end checks of the `crowdtrace` binary against streams produced
//! by the real instrumented kernels.
//!
//! Fixtures are generated at runtime into a per-test temp directory (the
//! workspace gitignores `*.jsonl`, so nothing here relies on committed
//! stream files): a simulated-crowd batch run plus a Dawid–Skene
//! inference run, recorded under a versioned stream header exactly the
//! way `experiments -- all --log` records them.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crowdkit_core::traits::CrowdOracle;
use crowdkit_obs as obs;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::latency::LatencyModel;
use crowdkit_sim::population::PopulationBuilder;
use crowdkit_sim::PlatformBuilder;
use crowdkit_trace::diff::first_divergence;
use crowdkit_trace::replay::replay;
use crowdkit_trace::stream::parse_stream;
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::{pipeline::label_tasks, DawidSkene};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// A unique, freshly created scratch directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "crowdtrace-it-{}-{}-{}",
        std::process::id(),
        tag,
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// What one recorded run did, by its own count.
struct RunCounts {
    /// The crowd's `answers_delivered()` after the run.
    answers_delivered: u64,
    /// Dawid–Skene's iterations, from its `InferenceResult`.
    ds_iterations: usize,
}

/// Records one instrumented run — a batched crowd purchase followed by
/// Dawid–Skene inference — as a headered JSONL stream.
fn record_run(seed: u64, threads: usize, include_wall: bool) -> Vec<u8> {
    record_run_counted(seed, threads, include_wall).0
}

/// [`record_run`], also returning the run's own counts.
fn record_run_counted(seed: u64, threads: usize, include_wall: bool) -> (Vec<u8>, RunCounts) {
    let rec = Arc::new(obs::JsonlRecorder::in_memory().with_wall(include_wall));
    rec.write_header(&obs::StreamHeader::new(
        "test-rev",
        seed,
        threads as u32,
        "it:batch+ds",
    ));
    let counts = obs::with_recorder(rec.clone(), || {
        obs::record(obs::Event::new("exp.begin").str("id", "it"));
        let pop = PopulationBuilder::new().reliable(30, 0.7, 0.95).build(seed);
        let crowd = PlatformBuilder::new(pop)
            .latency(LatencyModel::human_default())
            .seed(seed)
            .threads(threads)
            .build();
        let tasks = LabelingDataset::binary(40, seed).tasks;
        let ds = DawidSkene::with_config(EmConfig {
            threads,
            ..EmConfig::default()
        });
        let outcome = label_tasks(&crowd, &tasks, 3, &ds).expect("pipeline succeeds");
        obs::record(obs::Event::new("exp.end").str("id", "it"));
        RunCounts {
            answers_delivered: crowd.answers_delivered(),
            ds_iterations: outcome.inference.iterations,
        }
    });
    (rec.take_bytes(), counts)
}

fn write_stream(dir: &std::path::Path, name: &str, bytes: &[u8]) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("write stream fixture");
    path
}

fn crowdtrace(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_crowdtrace"))
        .args(args)
        .output()
        .expect("spawn crowdtrace")
}

#[test]
fn diff_localizes_the_first_divergent_event_between_seeds() {
    let dir = scratch_dir("seed-diff");
    let a = write_stream(&dir, "a.jsonl", &record_run(1, 2, false));
    let b = write_stream(&dir, "b.jsonl", &record_run(2, 2, false));

    // Library-level: the divergence names a line and a key in each stream.
    let sa = parse_stream(&std::fs::read_to_string(&a).unwrap()).unwrap();
    let sb = parse_stream(&std::fs::read_to_string(&b).unwrap()).unwrap();
    let d = first_divergence(&sa, &sb).expect("different seeds must diverge");
    assert!(d.line_a >= 2, "events start after the header line");
    assert!(!d.key_a.is_empty());
    assert!(!d.detail.is_empty());

    // CLI-level: exit 1, report mentions the same line and key.
    let out = crowdtrace(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "divergent streams exit 1");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("first divergent event"), "got:\n{text}");
    assert!(
        text.contains(&format!("line {}", d.line_a)),
        "report must carry the line number, got:\n{text}"
    );
    assert!(text.contains(&d.key_a), "report must carry the key");
}

#[test]
fn same_seed_streams_are_byte_identical_across_thread_counts() {
    let dir = scratch_dir("thread-inv");
    let one = record_run(7, 1, false);
    for threads in [2usize, 8] {
        let other = record_run(7, threads, false);
        // Bodies are byte-identical; only the header's threads field may
        // differ. Compare everything after the first newline.
        let body = |b: &[u8]| {
            let split = b.iter().position(|&c| c == b'\n').unwrap() + 1;
            b[split..].to_vec()
        };
        assert_eq!(
            body(&one),
            body(&other),
            "event bytes diverged at {threads} threads"
        );
    }
    let a = write_stream(&dir, "t1.jsonl", &one);
    let b = write_stream(&dir, "t8.jsonl", &record_run(7, 8, false));
    let out = crowdtrace(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        out.status.code(),
        Some(0),
        "same-seed different-thread-count streams must compare identical, got:\n{text}"
    );
    assert!(text.contains("identical"), "got:\n{text}");
}

#[test]
fn wall_data_never_affects_the_diff_verdict() {
    let dir = scratch_dir("wall-inv");
    let a = write_stream(&dir, "wall.jsonl", &record_run(7, 2, true));
    let b = write_stream(&dir, "nowall.jsonl", &record_run(7, 2, false));
    let out = crowdtrace(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "wall fields are excluded from divergence comparison"
    );
}

#[test]
fn diff_exit_two_on_metric_threshold_breach() {
    let dir = scratch_dir("breach");
    // Different seeds move spend/quality; a zero tolerance on spend must
    // escalate any divergence with a spend delta to exit 2.
    let a = write_stream(&dir, "a.jsonl", &record_run(1, 2, false));
    let b = write_stream(&dir, "b.jsonl", &record_run(2, 2, false));
    let out = crowdtrace(&[
        "diff",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--spend-tol",
        "0.0000001",
        "--quality-tol",
        "0.0000001",
    ]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if text.contains("BREACH") {
        assert_eq!(
            out.status.code(),
            Some(2),
            "breach must exit 2, got:\n{text}"
        );
    } else {
        // Seeds happened to land on identical aggregates — still divergent.
        assert_eq!(out.status.code(), Some(1), "got:\n{text}");
    }
}

#[test]
fn replay_emits_a_valid_collapsed_stack_profile_for_truth_inference() {
    let dir = scratch_dir("folded");
    let stream = write_stream(&dir, "run.jsonl", &record_run(3, 2, true));
    let folded_path = dir.join("run.folded");
    let out = crowdtrace(&[
        "replay",
        stream.to_str().unwrap(),
        "--folded",
        folded_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(report.contains("truth:ds"), "got:\n{report}");

    let folded = std::fs::read_to_string(&folded_path).expect("folded file written");
    assert!(!folded.is_empty());
    let mut saw_truth_frame = false;
    for line in folded.lines() {
        // Collapsed-stack grammar: `frame(;frame)* <positive integer>`.
        let (stack, weight) = line.rsplit_once(' ').expect("stack and weight");
        assert!(!stack.is_empty() && !stack.starts_with(';') && !stack.ends_with(';'));
        assert!(!stack.contains(";;"), "empty frame in {line:?}");
        let w: u64 = weight.parse().expect("integer weight");
        assert!(w > 0, "zero-weight stacks must be omitted: {line:?}");
        if stack.contains("truth:ds") {
            saw_truth_frame = true;
        }
    }
    assert!(saw_truth_frame, "profile must attribute truth inference");
}

#[test]
fn replay_attributes_questions_and_spend_per_experiment() {
    let stream = record_run(5, 2, false);
    let parsed = parse_stream(std::str::from_utf8(&stream).unwrap()).unwrap();
    let rep = replay(&parsed);
    assert_eq!(rep.experiments.len(), 1);
    let e = &rep.experiments[0];
    assert_eq!(e.id, "it");
    assert_eq!(e.questions, 40 * 3, "3 votes on each of 40 tasks");
    assert!(e.spend > 0.0);
}

/// The event count and `name=total` pairs `crowdtrace top` printed on
/// the row labelled `label`.
fn top_row(text: &str, label: &str) -> (u64, Vec<(String, String)>) {
    let rest = text
        .lines()
        .find_map(|l| {
            l.trim_start()
                .strip_prefix(label)
                .filter(|r| r.starts_with(' '))
        })
        .unwrap_or_else(|| panic!("no `{label}` row in:\n{text}"));
    let mut tokens = rest.split_whitespace();
    let events = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .expect("event count");
    let pairs = tokens
        .filter_map(|t| t.split_once('='))
        .map(|(n, v)| (n.to_owned(), v.to_owned()))
        .collect();
    (events, pairs)
}

fn total<'a>(pairs: &'a [(String, String)], name: &str) -> &'a str {
    pairs
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("no `{name}` total in {pairs:?}"))
}

#[test]
fn top_totals_match_the_runs_own_counts() {
    let dir = scratch_dir("top");
    let (bytes, counts) = record_run_counted(3, 2, false);
    let path = write_stream(&dir, "run.jsonl", &bytes);
    let out = crowdtrace(&["top", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();

    // Every answer went through ask_batch, one platform.batch per wave.
    let (_, batch) = top_row(&text, "platform.batch");
    assert_eq!(
        total(&batch, "delivered"),
        counts.answers_delivered.to_string(),
        "{text}"
    );
    assert_eq!(counts.answers_delivered, 40 * 3);
    let (runs, ds) = top_row(&text, "truth.run [ds]");
    assert_eq!(runs, 1);
    assert_eq!(
        total(&ds, "iters"),
        counts.ds_iterations.to_string(),
        "{text}"
    );
    let (iters, _) = top_row(&text, "truth.iter [ds]");
    assert_eq!(iters, counts.ds_iterations as u64);
    assert!(
        !text.contains("p50="),
        "a --log capture keeps no wall data:\n{text}"
    );

    // With wall data kept, the phase timings show as quantiles.
    let walled = write_stream(&dir, "wall.jsonl", &record_run(3, 2, true));
    let out = crowdtrace(&["top", walled.to_str().unwrap()]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("plan_ns p50="), "{text}");
    assert_eq!(
        top_row(&text, "platform.batch").1,
        batch,
        "same totals either way"
    );
}

#[test]
fn malformed_streams_fail_with_line_numbers() {
    let dir = scratch_dir("malformed");
    let good = record_run(1, 1, false);
    let mut text = String::from_utf8(good).unwrap();
    text.push_str("{\"key\":\"truth.run\",\"algo\":\"ds\",\"iters\":}\n");
    let broken_line = text.lines().count();
    let path = write_stream(&dir, "broken.jsonl", text.as_bytes());
    let out = crowdtrace(&["replay", path.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(65),
        "malformed input is a data error"
    );
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        err.contains(&format!("line {broken_line}")),
        "error must carry the line number, got: {err}"
    );
}
