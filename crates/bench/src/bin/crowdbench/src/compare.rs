//! `crowdbench compare <setA/> <setB/>`: repeated runs side by side.
//!
//! Reads every `*.result.json` that `--out` wrote into each directory and
//! prints, per workload, each side's checks and each end-to-end metric's
//! median and quartiles. A workload is failing when any run of B failed
//! its checks, or when B's failed jobs are a larger share of its attempted
//! ones than A's.
//!
//! `spend`, `accuracy` and `sim_latency_s` are pure functions of the seed,
//! so they are compared seed by seed: B must match A on every seed both
//! sides ran (within [`REORDER_TOL`], the float-sum reordering the Datalog
//! clock allows). A change cannot buy speed by changing answers.
//!
//! The other metrics are timed and take their bounds from `BENCHMARK.json`.
//! A pair is "unresolved", not "same", when either side's quartile spread,
//! as a share of its median, exceeds the bound, unless every run of B
//! reads better than every run of A.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crowdkit_trace::json::{parse, Json};

use crate::stats::{median, quartiles, sorted};
use crate::workloads::REORDER_TOL;

/// End-to-end metrics that are a pure function of the seed.
const PINNED: [&str; 3] = ["spend", "accuracy", "sim_latency_s"];

/// One end-to-end metric's bound, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// One result file: a run's checks and metrics.
#[derive(Debug, Clone)]
struct RunFile {
    workload: String,
    seed: u64,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let bench = read_json(path)?;
    let Some(Json::Array(metrics)) = bench.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Bound {
                    name: name.to_owned(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("{}: malformed end_to_end entry", path.display())),
            }
        })
        .collect()
}

fn read_run(path: &Path) -> Result<RunFile, String> {
    let result = read_json(path)?;
    let field = |key: &str| {
        result
            .get(key)
            .ok_or_else(|| format!("{}: no {key}", path.display()))
    };
    let whole = |key: &str| {
        field(key)?
            .as_u64()
            .ok_or_else(|| format!("{}: {key} is not a whole number", path.display()))
    };
    let Json::Object(metrics) = field("metrics")? else {
        return Err(format!("{}: metrics is not an object", path.display()));
    };
    Ok(RunFile {
        workload: field("workload")?
            .as_str()
            .ok_or_else(|| format!("{}: workload is not a string", path.display()))?
            .to_owned(),
        seed: whole("seed")?,
        correct: matches!(field("correct")?, Json::Bool(true)),
        attempted: whole("attempted")?,
        failed: whole("failed")?,
        metrics: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

fn load(dir: &Path) -> Result<Vec<RunFile>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().ends_with(".result.json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no *.result.json files", dir.display()));
    }
    paths.iter().map(|p| read_run(p)).collect()
}

/// The runs of workload `w`.
fn of<'a>(set: &'a [RunFile], w: &str) -> Vec<&'a RunFile> {
    set.iter().filter(|r| r.workload == w).collect()
}

/// `metric`'s values over `runs`.
fn values(runs: &[&RunFile], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Median and quartiles of one side.
struct Side {
    median: f64,
    q1: f64,
    q3: f64,
    min: f64,
    max: f64,
}

impl Side {
    fn of(values: &[f64]) -> Option<Self> {
        let v = sorted(values);
        let (q1, q3) = quartiles(&v)?;
        Some(Self {
            median: median(&v)?,
            q1,
            q3,
            min: *v.first()?,
            max: *v.last()?,
        })
    }

    /// Quartile spread as a share of the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// The verdict on one timed metric and workload.
fn verdict(a: &Side, b: &Side, bound: &Bound) -> &'static str {
    let worse = if bound.lower_is_better {
        (b.median - a.median) / a.median.abs().max(f64::MIN_POSITIVE)
    } else {
        (a.median - b.median) / a.median.abs().max(f64::MIN_POSITIVE)
    };
    let b_always_better = if bound.lower_is_better {
        b.max < a.min
    } else {
        b.min > a.max
    };
    if a.spread() > bound.bound || b.spread() > bound.bound {
        if b_always_better {
            "better"
        } else {
            "unresolved"
        }
    } else if worse > bound.bound {
        "WORSE"
    } else if worse < -bound.bound {
        "better"
    } else {
        "same"
    }
}

/// The verdict on a metric that is a pure function of the seed: B must
/// match A on every seed both sides ran.
fn pinned_verdict(a: &[&RunFile], b: &[&RunFile], metric: &str) -> &'static str {
    let by_seed = |runs: &[&RunFile]| -> BTreeMap<u64, f64> {
        runs.iter()
            .filter_map(|r| Some((r.seed, *r.metrics.get(metric)?)))
            .collect()
    };
    let b = by_seed(b);
    let pairs: Vec<(f64, f64)> = by_seed(a)
        .into_iter()
        .filter_map(|(seed, x)| Some((x, *b.get(&seed)?)))
        .collect();
    if pairs.is_empty() {
        "unpaired"
    } else if pairs
        .iter()
        .all(|(x, y)| (x - y).abs() <= REORDER_TOL * x.abs().max(y.abs()))
    {
        "same"
    } else {
        "CHANGED"
    }
}

/// The verdict on one workload's checks: B fails when any of its runs
/// failed, or when it failed a larger share of its jobs than A.
fn checks_verdict(a: &[&RunFile], b: &[&RunFile]) -> &'static str {
    let fail_rate = |runs: &[&RunFile]| {
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        failed as f64 / attempted.max(1) as f64
    };
    if b.iter().any(|r| !r.correct) || fail_rate(b) > fail_rate(a) {
        "FAILING"
    } else {
        "ok"
    }
}

/// Correct runs and failed jobs of one side, for the checks row.
fn checks_summary(runs: &[&RunFile]) -> String {
    let correct = runs.iter().filter(|r| r.correct).count();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    format!("{correct}/{} ok, {failed}/{attempted} failed", runs.len())
}

/// Runs the subcommand on its arguments.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut dirs = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benchmark" => bench = PathBuf::from(it.next().ok_or("--benchmark needs a path")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    let [a_dir, b_dir] = dirs.as_slice() else {
        return Err("compare needs two result directories".to_owned());
    };
    let bounds = read_bounds(&bench)?;
    let (a, b) = (load(a_dir)?, load(b_dir)?);
    let workloads: BTreeSet<&str> = a.iter().chain(&b).map(|r| r.workload.as_str()).collect();

    println!(
        "{:<15} {:<14} {:>29} {:>29} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut clean = true;
    for w in workloads {
        let (ra, rb) = (of(&a, w), of(&b, w));
        let v = checks_verdict(&ra, &rb);
        clean &= v == "ok";
        println!(
            "{w:<15} {:<14} {:>29} {:>29} {:>8} {:>6}  {v}",
            "checks",
            checks_summary(&ra),
            checks_summary(&rb),
            "",
            ""
        );
        for bound in &bounds {
            let pinned = PINNED.contains(&bound.name.as_str());
            let (Some(sa), Some(sb)) = (
                Side::of(&values(&ra, &bound.name)),
                Side::of(&values(&rb, &bound.name)),
            ) else {
                println!("{w:<15} {:<14} missing on one side", bound.name);
                clean = false;
                continue;
            };
            let v = if pinned {
                pinned_verdict(&ra, &rb, &bound.name)
            } else {
                verdict(&sa, &sb, bound)
            };
            clean &= matches!(v, "same" | "better");
            let change = (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE);
            let limit = if pinned {
                "seed".to_owned()
            } else {
                format!("{:.1}%", 100.0 * bound.bound)
            };
            println!(
                "{w:<15} {:<14} {:>11.5} [{:>7.5}, {:>7.5}] {:>11.5} [{:>7.5}, {:>7.5}] {:>+7.2}% {limit:>6}  {v}",
                bound.name,
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                100.0 * change,
            );
        }
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, b: f64) -> Bound {
        Bound {
            name: "m".to_owned(),
            lower_is_better: lower,
            bound: b,
        }
    }

    fn side(values: &[f64]) -> Side {
        Side::of(values).expect("non-empty")
    }

    #[test]
    fn verdicts_apply_bound_direction_and_spread() {
        let a = side(&[10.0, 10.1, 9.9, 10.0]);
        assert_eq!(
            verdict(&a, &side(&[10.0, 10.05, 9.95, 10.0]), &bound(true, 0.1)),
            "same"
        );
        assert_eq!(
            verdict(&a, &side(&[12.0, 12.1, 11.9, 12.0]), &bound(true, 0.1)),
            "WORSE"
        );
        assert_eq!(
            verdict(&a, &side(&[12.0, 12.1, 11.9, 12.0]), &bound(false, 0.1)),
            "better"
        );
        // A spread wider than the bound is unresolved, not unchanged...
        let noisy = side(&[8.0, 12.0, 9.0, 11.0]);
        assert_eq!(verdict(&a, &noisy, &bound(true, 0.1)), "unresolved");
        // ...unless every run of B beats every run of A.
        let fast_noisy = side(&[5.0, 7.0, 5.5, 6.5]);
        assert_eq!(verdict(&a, &fast_noisy, &bound(true, 0.1)), "better");

        // Timings inside the bounds do not hide failed checks.
        let good = [run(1, true, 100, 0, 0.9), run(2, true, 100, 0, 0.9)];
        let broken = [run(1, false, 100, 3, 0.9), run(2, true, 100, 0, 0.9)];
        let flaky = [run(1, true, 100, 0, 0.9), run(2, true, 101, 1, 0.9)];
        assert_eq!(checks_verdict(&refs(&good), &refs(&good)), "ok");
        assert_eq!(checks_verdict(&refs(&good), &refs(&broken)), "FAILING");
        assert_eq!(checks_verdict(&refs(&good), &refs(&flaky)), "FAILING");
        assert_eq!(checks_verdict(&refs(&flaky), &refs(&good)), "ok");
    }

    fn run(seed: u64, correct: bool, attempted: u64, failed: u64, accuracy: f64) -> RunFile {
        RunFile {
            workload: "w".to_owned(),
            seed,
            correct,
            attempted,
            failed,
            metrics: [("accuracy".to_owned(), accuracy)].into_iter().collect(),
        }
    }

    fn refs(runs: &[RunFile]) -> Vec<&RunFile> {
        runs.iter().collect()
    }

    #[test]
    fn pinned_metrics_must_match_seed_by_seed() {
        let a = [run(1, true, 1, 0, 0.90), run(2, true, 1, 0, 0.80)];
        let same = [run(2, true, 1, 0, 0.80), run(1, true, 1, 0, 0.90)];
        assert_eq!(pinned_verdict(&refs(&a), &refs(&same), "accuracy"), "same");
        // A 0.5% drop on one seed moves the median by less than any bound
        // a spread over ten seeds allows, but it changes that seed's value.
        let lower = [run(1, true, 1, 0, 0.8955), run(2, true, 1, 0, 0.80)];
        assert_eq!(
            pinned_verdict(&refs(&a), &refs(&lower), "accuracy"),
            "CHANGED"
        );
        // Float sums in another order stay the same.
        let reordered = [run(1, true, 1, 0, 0.90 * (1.0 + 1e-15))];
        assert_eq!(
            pinned_verdict(&refs(&a), &refs(&reordered), "accuracy"),
            "same"
        );
        let elsewhere = [run(3, true, 1, 0, 0.90)];
        assert_eq!(
            pinned_verdict(&refs(&a), &refs(&elsewhere), "accuracy"),
            "unpaired"
        );
    }
}
