#!/usr/bin/env bash
# Local CI: build, test, lint, trace, perf floors. Run from the
# repository root. Kept artifacts (gitignored, archive from CI if wanted):
#   RUNREPORT.json      per-experiment cost/latency/quality telemetry
#   RUNLOG.jsonl        headered deterministic event stream of the suite
#   LINT.json           workspace static-analysis findings
set -euo pipefail

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# Formatting is enforced crate by crate as crates become rustfmt-clean.
cargo fmt -p crowdkit -p crowdkit-assign -p crowdkit-bench -p crowdkit-core -p crowdkit-datalog -p crowdkit-lint -p crowdkit-obs -p crowdkit-ops -p crowdkit-sim -p crowdkit-sql -p crowdkit-trace -p crowdkit-truth --check

# The benchmark (crates/bench/src/bin/crowdbench, see BENCHMARK.json) is a
# package of its own outside the workspace, so `--workspace` misses it:
# run its unit tests, then its correctness gate (one job per workload at
# 1 and 2 threads and traced, seed purity, per-job checks) at three seeds.
cargo test --release --offline --manifest-path crates/bench/src/bin/crowdbench/Cargo.toml
for seed in 1 7 13; do
    cargo run --release --quiet --offline --manifest-path crates/bench/src/bin/crowdbench/Cargo.toml -- check --seed "$seed"
done

# Workspace static analysis: per-file determinism & safety rules (DET/
# PANIC/SAFETY/DOC) plus the interprocedural passes (taint chains, CONC
# lock rules) behind the ratcheted baseline. Exits nonzero on any NEW
# finding, any stale baseline entry, or any stale suppression; LINT.json
# is the machine-readable report. The scan doubles as the linter's
# self-benchmark: a full-workspace symbol-table + call-graph + taint +
# lock-model pass must stay under 10 seconds.
LINT_T0=$(date +%s%N)
cargo run --release -p crowdkit-lint -- --json LINT.json --baseline LINT_BASELINE.json --audit-suppressions > /dev/null
LINT_T1=$(date +%s%N)
LINT_MS=$(( (LINT_T1 - LINT_T0) / 1000000 ))
echo "crowdkit-lint full-workspace scan: ${LINT_MS} ms"
test "$LINT_MS" -lt 10000 || { echo "lint self-benchmark: scan took ${LINT_MS} ms (>= 10s gate)"; exit 1; }

# Burn-down ratchet: the acknowledged-debt counter may only decrease.
# LINT.json records the baselined count of this scan; the committed
# baseline's burn_down must equal it (no silent re-growth), and both must
# agree with the entry list (validated again here, independent of the
# tool).
python3 - <<'EOF'
import json
lint = json.load(open("LINT.json"))
base = json.load(open("LINT_BASELINE.json"))
assert base["burn_down"] == len(base["entries"]), \
    f"burn_down {base['burn_down']} != {len(base['entries'])} entries"
assert lint["baselined"] == base["burn_down"], \
    f"scan matched {lint['baselined']} baselined finding(s) but burn_down says {base['burn_down']}"
for e in base["entries"]:
    assert len(e.get("reason", "").strip()) >= 3, f"baseline entry {e['fingerprint']} has no reason"
print(f"lint burn-down: {base['burn_down']} acknowledged finding(s), all matched and reasoned")
EOF

RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Optimizer ablation gate: run E10 instrumented and assert the optimized
# plans' actual crowd spend beats the naive plans' by a fixed margin
# (mean over the fixture queries, optimized × 1.2 ≤ naive).
cargo run --release -p crowdkit-bench --bin experiments -- e10 --report > /dev/null
python3 - <<'EOF'
import json
r = json.load(open("RUNREPORT.json"))
q = next(x for x in r["runs"] if x["id"] == "e10")["quality"]
naive, opt = q["spend_actual_naive"], q["spend_actual_opt"]
assert opt * 1.2 <= naive, f"optimizer margin gate: optimized {opt} * 1.2 > naive {naive}"
assert q["spend_pred_naive"] > 0 and q["spend_pred_opt"] > 0, "predictions missing from RUNREPORT"
print(f"e10 optimizer gate: optimized {opt:.0f} vs naive {naive:.0f} actual spend — ok")
EOF

# Full experiment suite with telemetry: RUNREPORT.json + the headered
# deterministic event log, then replay and rollup smoke-checks over that
# log (`top` must fold the suite's platform.batch events into a row of
# totals). The `truth.run` rows are printed, so the log shows each
# inferencer's runs, iterations and convergence over the suite.
cargo run --release -p crowdkit-bench --bin experiments -- all --report --log RUNLOG.jsonl > /dev/null
# The report's one grouped read is each experiment's per-metric quality
# means (every experiment calls obs::quality), so none may be empty, and
# the suite must have bought answers.
python3 - <<'EOF'
import json
r = json.load(open("RUNREPORT.json"))
assert r["runs"] and len(r["runs"]) == r["experiments"], \
    f"RUNREPORT lists {len(r['runs'])} runs for {r['experiments']} experiments"
empty = [x["id"] for x in r["runs"] if not x["quality"]]
assert not empty, f"experiments without quality means: {empty}"
assert r["total_questions"] > 0 and r["total_spend"] > 0, \
    f"suite bought {r['total_questions']} answers for {r['total_spend']}"
print(f"RUNREPORT: {len(r['runs'])} experiments, each with quality means; "
      f"{r['total_questions']} questions, {r['total_spend']:.2f} spent")
EOF
cargo run --release -p crowdkit-trace --bin crowdtrace -- replay RUNLOG.jsonl > /dev/null
cargo run --release -p crowdkit-trace --bin crowdtrace -- top RUNLOG.jsonl > TOP.txt
grep -qE '^  platform\.batch +[0-9]+  requests=[0-9]+  delivered=[0-9]+' TOP.txt
grep -E '^  truth\.run ' TOP.txt
rm -f TOP.txt

# Decision-provenance smoke-check: the suite log must explain a known
# task end to end (votes, margin, worker weights, flip timeline) and the
# audit rollup must surface contested tasks, worker influence and
# spend-per-correct-label. Output goes through files, not pipes — the
# CLI streams with print! and an early-exiting grep would SIGPIPE it.
cargo run --release -p crowdkit-trace --bin crowdtrace -- why 7 RUNLOG.jsonl --exp e13 --algo ds > WHY.txt
grep -q 'margin' WHY.txt
grep -q 'votes:' WHY.txt
grep -q 'weight' WHY.txt
grep -q 'flips:' WHY.txt
cargo run --release -p crowdkit-trace --bin crowdtrace -- audit RUNLOG.jsonl > AUDIT.txt
grep -q 'contested tasks' AUDIT.txt
grep -q 'most influential workers' AUDIT.txt
grep -q 'spend/correct' AUDIT.txt
rm -f WHY.txt AUDIT.txt

# Telemetry overhead gate: the full telemetry scope (an aggregating
# recorder and provenance) must keep the instrumented hot paths within 13%
# of the null scope (asserted inside the bench binary).
cargo bench -p crowdkit-bench --bench telemetry_overhead

# Million-scale macrobench, smoke tier (10k tasks / 1k workers / 100k
# responses): times each sparse incremental EM kernel (ds/zc/glad)
# against its dense twin in interleaved samples, and exits nonzero when a
# sparse arm's median speedup falls under its floor. The floors are
# ratios measured within one run, so the check needs no stored baseline.
cargo run --release -p crowdkit-bench --bin bench_scale -- smoke
