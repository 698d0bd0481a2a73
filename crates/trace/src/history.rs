//! Bench history and the perf-regression gate.
//!
//! `bench_truth` and `bench_scale` measure per-algorithm ns/iter and write
//! `BENCH_truth.json` / `BENCH_scale.json`; this module gives those
//! snapshots a trajectory. [`regress`] compares the current snapshot
//! against a rolling baseline (the per-algorithm median of the last *N*
//! comparable entries) so a perf regression fails CI the same way a lint
//! finding does, and only then does `crowdtrace regress` call
//! [`append_history`] to add the run to `BENCH_HISTORY.jsonl`, keyed by
//! git revision, bench family, and thread count — a sample never sits in
//! its own baseline, and a regressed one never enters later baselines.
//!
//! Entries from different thread counts or bench families are never
//! compared: a timing taken at 8 threads says nothing about a 1-thread
//! baseline, and a `scale` macrobench number says nothing about a `truth`
//! microbench baseline even for the same algorithm name. History lines
//! written before the `bench` field existed parse as family `"truth"`,
//! which is what they measured.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::json::{self, write_json_string, Json};
use crate::stream::StreamError;

/// Bench family recorded when a history line predates the `bench` field —
/// everything written back then came from `bench_truth`.
pub const DEFAULT_BENCH: &str = "truth";

/// One algorithm's measurement within a bench run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoTiming {
    /// Median wall nanoseconds per full `infer` call.
    pub ns_per_iter: u64,
    /// Process peak RSS in bytes observed after this algorithm ran
    /// (`VmHWM`, so monotone across a run), when the bench records it.
    pub peak_rss: Option<u64>,
}

impl AlgoTiming {
    /// A timing with no memory measurement (the `bench_truth` shape).
    pub const fn ns(ns_per_iter: u64) -> Self {
        Self {
            ns_per_iter,
            peak_rss: None,
        }
    }
}

/// One bench run: where it came from and what it measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    /// Short git revision of the measured checkout.
    pub git_rev: String,
    /// Worker-thread count the kernels ran with.
    pub threads: u64,
    /// Bench family the numbers belong to (`"truth"`, `"scale"`, …).
    /// Regression baselines never cross families.
    pub bench: String,
    /// Per-algorithm measurements, in algorithm order.
    pub algorithms: Vec<(String, AlgoTiming)>,
}

impl BenchEntry {
    /// ns/iter for one algorithm, if measured.
    pub fn ns(&self, algo: &str) -> Option<u64> {
        self.algorithms
            .iter()
            .find(|(a, _)| a == algo)
            .map(|(_, t)| t.ns_per_iter)
    }

    /// Renders the entry as one JSONL history line. Algorithms without a
    /// memory measurement serialize as a bare integer — the exact shape
    /// pre-`bench`-field lines used, so old and new lines interleave in
    /// one file.
    pub fn to_jsonl_line(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"git_rev\":");
        write_json_string(&self.git_rev, &mut out);
        let _ = write!(out, ",\"threads\":{},\"bench\":", self.threads);
        write_json_string(&self.bench, &mut out);
        out.push_str(",\"algorithms\":{");
        for (i, (algo, t)) in self.algorithms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(algo, &mut out);
            match t.peak_rss {
                None => {
                    let _ = write!(out, ":{}", t.ns_per_iter);
                }
                Some(rss) => {
                    let _ = write!(
                        out,
                        ":{{\"ns_per_iter\":{},\"peak_rss\":{rss}}}",
                        t.ns_per_iter
                    );
                }
            }
        }
        out.push_str("}}");
        out
    }
}

/// Parses one algorithm value from a history line or snapshot: either a
/// bare ns integer or a `{"ns_per_iter": N, "peak_rss": M}` object.
fn parse_algo_timing(v: &Json) -> Option<AlgoTiming> {
    if let Some(ns) = v.as_u64() {
        return Some(AlgoTiming::ns(ns));
    }
    let ns = v.get("ns_per_iter").and_then(Json::as_u64)?;
    Some(AlgoTiming {
        ns_per_iter: ns,
        peak_rss: v.get("peak_rss").and_then(Json::as_u64),
    })
}

/// Parses a bench snapshot (`BENCH_truth.json` / `BENCH_scale.json`:
/// `algorithms.{name}.ns_per_iter` with optional `peak_rss`, top-level
/// `threads`, `git_rev`, and optional `bench` family).
pub fn parse_bench_snapshot(text: &str) -> Result<BenchEntry, StreamError> {
    let err = |message: String| StreamError { line: 1, message };
    let v = json::parse(text).map_err(|e| err(format!("invalid BENCH json ({e})")))?;
    let git_rev = v
        .get("git_rev")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_owned();
    let threads = v.get("threads").and_then(Json::as_u64).unwrap_or(0);
    let bench = v
        .get("bench")
        .and_then(Json::as_str)
        .unwrap_or(DEFAULT_BENCH)
        .to_owned();
    let algos = match v.get("algorithms") {
        Some(Json::Object(members)) => members,
        _ => return Err(err("snapshot missing `algorithms` object".into())),
    };
    let mut algorithms = Vec::with_capacity(algos.len());
    for (name, entry) in algos {
        let timing = parse_algo_timing(entry)
            .ok_or_else(|| err(format!("algorithm `{name}` missing numeric `ns_per_iter`")))?;
        algorithms.push((name.clone(), timing));
    }
    if algorithms.is_empty() {
        return Err(err("snapshot has no algorithms".into()));
    }
    Ok(BenchEntry {
        git_rev,
        threads,
        bench,
        algorithms,
    })
}

/// Parses a `BENCH_HISTORY.jsonl` file (one [`BenchEntry`] line per run).
/// Errors carry the offending 1-based line number.
pub fn parse_history(text: &str) -> Result<Vec<BenchEntry>, StreamError> {
    let mut entries = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = (i + 1) as u32;
        if raw.trim().is_empty() {
            continue;
        }
        let err = |message: String| StreamError { line, message };
        let v = json::parse(raw).map_err(|e| err(format!("invalid JSON ({e})")))?;
        let git_rev = v
            .get("git_rev")
            .and_then(Json::as_str)
            .ok_or_else(|| err("history entry missing string `git_rev`".into()))?
            .to_owned();
        let threads = v
            .get("threads")
            .and_then(Json::as_u64)
            .ok_or_else(|| err("history entry missing numeric `threads`".into()))?;
        let bench = v
            .get("bench")
            .and_then(Json::as_str)
            .unwrap_or(DEFAULT_BENCH)
            .to_owned();
        let algorithms = match v.get("algorithms") {
            Some(Json::Object(members)) => {
                let mut out = Vec::with_capacity(members.len());
                for (name, value) in members {
                    let timing = parse_algo_timing(value).ok_or_else(|| {
                        err(format!("algorithm `{name}` has a non-integer timing"))
                    })?;
                    out.push((name.clone(), timing));
                }
                out
            }
            _ => return Err(err("history entry missing `algorithms` object".into())),
        };
        entries.push(BenchEntry {
            git_rev,
            threads,
            bench,
            algorithms,
        });
    }
    Ok(entries)
}

/// Appends one entry to the history file, creating it if needed.
pub fn append_history(path: impl AsRef<Path>, entry: &BenchEntry) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut line = entry.to_jsonl_line();
    line.push('\n');
    file.write_all(line.as_bytes())
}

/// Renders a history listing: one row per entry, newest last, optionally
/// filtered to one bench family and limited to the last `last` matching
/// entries. `last = None` means no limit.
pub fn render_history_listing(
    entries: &[BenchEntry],
    bench: Option<&str>,
    last: Option<usize>,
) -> String {
    let matching: Vec<&BenchEntry> = entries
        .iter()
        .filter(|e| bench.is_none_or(|b| e.bench == b))
        .collect();
    let shown = match last {
        Some(n) if matching.len() > n => &matching[matching.len() - n..],
        _ => &matching[..],
    };
    let mut out = String::new();
    let scope = bench.map_or(String::new(), |b| format!(" (bench {b})"));
    let _ = writeln!(
        out,
        "{} of {} history entr{}{scope}",
        shown.len(),
        matching.len(),
        if matching.len() == 1 { "y" } else { "ies" },
    );
    let _ = writeln!(
        out,
        "{:<10} {:<8} {:>8}  algorithms (ns/iter)",
        "git_rev", "bench", "threads"
    );
    for e in shown {
        let algos = e
            .algorithms
            .iter()
            .map(|(a, t)| match t.peak_rss {
                Some(rss) => format!("{a}={} rss={rss}", t.ns_per_iter),
                None => format!("{a}={}", t.ns_per_iter),
            })
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            out,
            "{:<10} {:<8} {:>8}  {algos}",
            e.git_rev, e.bench, e.threads
        );
    }
    out
}

/// One algorithm's verdict in a regression check.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressRow {
    /// Algorithm name.
    pub algo: String,
    /// Rolling-baseline ns/iter (median of the window), when any
    /// comparable history exists.
    pub baseline_ns: Option<u64>,
    /// Current ns/iter.
    pub current_ns: u64,
    /// `current / baseline` (1.0 when no baseline).
    pub ratio: f64,
    /// Whether this algorithm breached the threshold.
    pub breach: bool,
}

/// The outcome of a regression check.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "inspect `breached` (and exit nonzero) or the gate is decorative"]
pub struct RegressReport {
    /// Per-algorithm verdicts, in current-snapshot order.
    pub rows: Vec<RegressRow>,
    /// How many comparable history entries fed the baseline.
    pub window_used: usize,
    /// True when any algorithm regressed beyond the threshold.
    pub breached: bool,
}

impl RegressReport {
    /// Renders the verdict table.
    pub fn render(&self, threshold: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf regression gate: threshold +{:.0}% over the median of {} baseline entr{}",
            threshold * 100.0,
            self.window_used,
            if self.window_used == 1 { "y" } else { "ies" }
        );
        let _ = writeln!(
            out,
            "{:<8} {:>14} {:>14} {:>8}  verdict",
            "algo", "baseline ns", "current ns", "ratio"
        );
        for r in &self.rows {
            let baseline = r.baseline_ns.map_or("(none)".to_owned(), |b| b.to_string());
            let _ = writeln!(
                out,
                "{:<8} {:>14} {:>14} {:>8.3}  {}",
                r.algo,
                baseline,
                r.current_ns,
                r.ratio,
                if r.breach { "REGRESSION" } else { "ok" }
            );
        }
        out
    }
}

/// Median of a non-empty slice (lower middle for even lengths, which
/// biases the baseline slightly fast — the stricter direction).
fn median(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    values[(values.len() - 1) / 2]
}

/// Compares `current` against the rolling baseline built from the last
/// `window` history entries with the same bench family and thread count.
/// An algorithm breaches when `current > baseline * (1 + threshold)`;
/// algorithms with no comparable history pass (there is nothing to
/// regress from). `window_used == 0` tells a caller that nothing at all
/// was gated.
pub fn regress(
    history: &[BenchEntry],
    current: &BenchEntry,
    window: usize,
    threshold: f64,
) -> RegressReport {
    let comparable: Vec<&BenchEntry> = history
        .iter()
        .filter(|e| e.threads == current.threads && e.bench == current.bench)
        .collect();
    let tail: &[&BenchEntry] = if comparable.len() > window {
        &comparable[comparable.len() - window..]
    } else {
        &comparable
    };
    let mut rows = Vec::with_capacity(current.algorithms.len());
    let mut breached = false;
    for (algo, timing) in &current.algorithms {
        let current_ns = timing.ns_per_iter;
        let mut samples: Vec<u64> = tail.iter().filter_map(|e| e.ns(algo)).collect();
        let (baseline_ns, ratio, breach) = if samples.is_empty() {
            (None, 1.0, false)
        } else {
            let baseline = median(&mut samples);
            let ratio = if baseline == 0 {
                1.0
            } else {
                current_ns as f64 / baseline as f64
            };
            (
                Some(baseline),
                ratio,
                baseline > 0 && ratio > 1.0 + threshold,
            )
        };
        breached |= breach;
        rows.push(RegressRow {
            algo: algo.clone(),
            baseline_ns,
            current_ns,
            ratio,
            breach,
        });
    }
    RegressReport {
        rows,
        window_used: tail.len(),
        breached,
    }
}

/// The short git revision of the working tree, or `"unknown"` outside a
/// checkout — recorded in headers and history entries so archived
/// artifacts say what they measured.
pub fn git_short_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rev: &str, threads: u64, ns: &[(&str, u64)]) -> BenchEntry {
        BenchEntry {
            git_rev: rev.to_owned(),
            threads,
            bench: DEFAULT_BENCH.to_owned(),
            algorithms: ns
                .iter()
                .map(|(a, n)| ((*a).to_owned(), AlgoTiming::ns(*n)))
                .collect(),
        }
    }

    #[test]
    fn snapshot_parses_the_bench_truth_format() {
        let text = "{\n  \"workload\": {\"n_tasks\": 1000, \"redundancy\": 5, \
\"observations\": 5000},\n  \"threads\": 8,\n  \"git_rev\": \"abc1234\",\n  \
\"algorithms\": {\n    \"mv\": {\"ns_per_iter\": 1000},\n    \
\"ds\": {\"ns_per_iter\": 2000}\n  }\n}\n";
        let e = parse_bench_snapshot(text).unwrap();
        assert_eq!(e.git_rev, "abc1234");
        assert_eq!(e.threads, 8);
        assert_eq!(e.bench, DEFAULT_BENCH, "missing `bench` defaults to truth");
        assert_eq!(e.ns("mv"), Some(1000));
        assert_eq!(e.ns("ds"), Some(2000));
        assert_eq!(e.ns("missing"), None);
    }

    #[test]
    fn history_roundtrips_through_jsonl() {
        let e = entry("abc", 4, &[("mv", 123), ("ds", 456)]);
        let line = e.to_jsonl_line();
        assert_eq!(
            line,
            "{\"git_rev\":\"abc\",\"threads\":4,\"bench\":\"truth\",\
\"algorithms\":{\"mv\":123,\"ds\":456}}"
        );
        let parsed = parse_history(&format!("{line}\n{line}\n")).unwrap();
        assert_eq!(parsed, vec![e.clone(), e]);
    }

    #[test]
    fn history_lines_without_bench_field_parse_as_truth() {
        let legacy = "{\"git_rev\":\"abc\",\"threads\":4,\"algorithms\":{\"mv\":123}}";
        let parsed = parse_history(legacy).unwrap();
        assert_eq!(parsed[0].bench, DEFAULT_BENCH);
        assert_eq!(parsed[0].ns("mv"), Some(123));
    }

    #[test]
    fn peak_rss_roundtrips_through_object_form() {
        let mut e = entry("abc", 8, &[("ds", 10)]);
        e.bench = "scale".to_owned();
        e.algorithms.push((
            "glad".to_owned(),
            AlgoTiming {
                ns_per_iter: 999,
                peak_rss: Some(4096),
            },
        ));
        let line = e.to_jsonl_line();
        assert_eq!(
            line,
            "{\"git_rev\":\"abc\",\"threads\":8,\"bench\":\"scale\",\"algorithms\":\
{\"ds\":10,\"glad\":{\"ns_per_iter\":999,\"peak_rss\":4096}}}"
        );
        let parsed = parse_history(&line).unwrap();
        assert_eq!(parsed, vec![e]);
    }

    #[test]
    fn null_peak_rss_parses_as_missing() {
        // bench_scale emits `"peak_rss": null` when /proc/self/status has
        // no readable VmHWM; both snapshot and history readers must treat
        // that as "not measured", not an error.
        let snap = "{\"git_rev\":\"abc\",\"threads\":8,\"bench\":\"scale\",\"algorithms\":\
{\"ds\":{\"ns_per_iter\":999,\"peak_rss\":null}}}";
        let e = parse_bench_snapshot(snap).unwrap();
        assert_eq!(
            e.algorithms[0].1,
            AlgoTiming {
                ns_per_iter: 999,
                peak_rss: None
            }
        );
        let h = parse_history(snap).unwrap();
        assert_eq!(h[0].algorithms[0].1.peak_rss, None);
    }

    #[test]
    fn listing_filters_by_bench_and_limits_to_last() {
        let mut scale = entry("s1", 8, &[("ds", 10)]);
        scale.bench = "scale".to_owned();
        scale.algorithms[0].1.peak_rss = Some(2048);
        let history = vec![
            entry("t1", 4, &[("ds", 100)]),
            entry("t2", 4, &[("ds", 200)]),
            scale,
            entry("t3", 4, &[("ds", 300)]),
        ];
        let all = render_history_listing(&history, None, None);
        assert!(all.contains("4 of 4"));
        assert!(all.contains("rss=2048"));

        let truth_only = render_history_listing(&history, Some("truth"), None);
        assert!(truth_only.contains("3 of 3"));
        assert!(!truth_only.contains("s1"));

        let last_two = render_history_listing(&history, Some("truth"), Some(2));
        assert!(last_two.contains("2 of 3"));
        assert!(!last_two.contains("t1"), "oldest entry must be dropped");
        assert!(last_two.contains("t2") && last_two.contains("t3"));

        let none = render_history_listing(&history, Some("nope"), None);
        assert!(none.contains("0 of 0"));
    }

    #[test]
    fn regress_never_compares_across_bench_families() {
        let mut scale = entry("old", 4, &[("ds", 10)]);
        scale.bench = "scale".to_owned();
        let history = vec![scale, entry("r0", 4, &[("ds", 1000)])];
        // A truth-family current at 4 threads only sees the truth entry.
        let rep = regress(&history, &entry("cur", 4, &[("ds", 1100)]), 5, 0.25);
        assert_eq!(rep.window_used, 1);
        assert_eq!(rep.rows[0].baseline_ns, Some(1000));
        assert!(
            !rep.breached,
            "10ns scale entry must not poison the baseline"
        );
    }

    #[test]
    fn history_errors_carry_line_numbers() {
        let good = entry("a", 1, &[("mv", 1)]).to_jsonl_line();
        let e = parse_history(&format!("{good}\n{{\"threads\":1}}\n")).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("git_rev"));
    }

    #[test]
    fn regress_passes_within_threshold_and_fails_beyond() {
        let history: Vec<BenchEntry> = (0..5)
            .map(|i| entry(&format!("r{i}"), 4, &[("ds", 1000 + i), ("mv", 100)]))
            .collect();
        let ok = regress(
            &history,
            &entry("cur", 4, &[("ds", 1100), ("mv", 100)]),
            5,
            0.25,
        );
        assert!(!ok.breached);
        assert_eq!(ok.window_used, 5);

        let bad = regress(
            &history,
            &entry("cur", 4, &[("ds", 1600), ("mv", 100)]),
            5,
            0.25,
        );
        assert!(bad.breached);
        let ds = bad.rows.iter().find(|r| r.algo == "ds").unwrap();
        assert!(ds.breach);
        assert_eq!(ds.baseline_ns, Some(1002));
        assert!(bad.render(0.25).contains("REGRESSION"));
        let mv = bad.rows.iter().find(|r| r.algo == "mv").unwrap();
        assert!(!mv.breach);
    }

    #[test]
    fn regress_ignores_other_thread_counts_and_respects_the_window() {
        let mut history = vec![entry("old", 1, &[("ds", 10)])];
        for i in 0..10 {
            history.push(entry(&format!("r{i}"), 4, &[("ds", 1000 + 100 * i)]));
        }
        // Window 3 → baseline is the median of the last three 4-thread
        // entries (1700, 1800, 1900) = 1800; the 1-thread entry and older
        // 4-thread entries are ignored.
        let rep = regress(&history, &entry("cur", 4, &[("ds", 2000)]), 3, 0.25);
        assert_eq!(rep.rows[0].baseline_ns, Some(1800));
        assert_eq!(rep.window_used, 3);
        assert!(!rep.breached);
    }

    #[test]
    fn no_comparable_history_passes() {
        let rep = regress(&[], &entry("cur", 4, &[("ds", 1000)]), 5, 0.25);
        assert!(!rep.breached);
        assert_eq!(rep.rows[0].baseline_ns, None);
        assert!(rep.render(0.25).contains("(none)"));
    }
}
