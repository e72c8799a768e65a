#!/usr/bin/env bash
# Bench trajectory gate: rerun every micro-bench suite and diff the
# fresh `results/BENCH_<suite>.json` reports against the committed
# baselines in `results/baselines/`.
#
#   ci/bench_diff.sh              # report only
#   ci/bench_diff.sh --fail-over 25   # exit 1 on any >25% regression
#
# Knobs pass through to the harness: WASLA_BENCH_SAMPLES,
# WASLA_BENCH_TARGET_MS (lower both for a quick smoke run) and
# WASLA_THREADS. Refresh the baselines after an intentional perf
# change with:
#
#   cp results/BENCH_*.json results/baselines/
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== rerun micro-bench suites (offline) =="
cargo bench --offline

echo
echo "== diff against results/baselines/ =="
cargo run --release --offline --bin repro -- bench-diff "$@"

echo
echo "== eval-engine speedup gate (solver_step sweep) =="
# The incremental evaluation engine (DESIGN.md §10) must keep one
# production solver step — the smoothed score then its analytic
# gradient, at a point the engine has not committed — at least 5x
# faster than the from-scratch ScratchEval oracle on the N=128, M=16
# configuration. Reads the freshly written solver report; the harness
# emits "id" then "median_ns" lines per bench, so a small awk state
# machine pairs them up. The optional third argument reads another
# report directory (the committed baselines).
median_of() {
    awk -v want="\"$1\"" '
        /"id":/       { id = $2; sub(/,$/, "", id) }
        /"median_ns":/ && id == want { v = $2; sub(/,$/, "", v); print v; exit }
    ' "${3:-results}/BENCH_${2:-solver}.json"
}
engine_ns=$(median_of "solver_step_engine/n128_m16")
scratch_ns=$(median_of "solver_step_scratch/n128_m16")
if [ -z "$engine_ns" ] || [ -z "$scratch_ns" ]; then
    echo "error: solver_step sweep missing from results/BENCH_solver.json" >&2
    echo "(expected solver_step_engine/n128_m16 and solver_step_scratch/n128_m16)" >&2
    exit 1
fi
ratio=$(awk -v s="$scratch_ns" -v e="$engine_ns" 'BEGIN { printf "%.1f", s / e }')
echo "solver_step n128_m16: scratch ${scratch_ns} ns / engine ${engine_ns} ns = ${ratio}x"
if awk -v s="$scratch_ns" -v e="$engine_ns" 'BEGIN { exit !(s / e >= 5.0) }'; then
    echo "speedup gate passed (>= 5x)"
else
    echo "error: eval-engine speedup ${ratio}x is below the 5x gate" >&2
    exit 1
fi

echo
echo "== analytic-gradient speedup gate (gradient sweep) =="
# The engine's analytic gradient (DESIGN.md §15) must stay at least 5x
# cheaper than the same chain rule computed from scratch by the
# ScratchEval oracle, on the same N=128, M=16 configuration the engine
# gate uses. Both numbers come from the same fresh run of the gradient
# suite, so machine drift cancels out.
analytic_ns=$(median_of "gradient_analytic/n128_m16" gradient)
oracle_ns=$(median_of "gradient_analytic_scratch/n128_m16" gradient)
if [ -z "$analytic_ns" ] || [ -z "$oracle_ns" ]; then
    echo "error: gradient sweep missing from results/BENCH_gradient.json" >&2
    echo "(expected gradient_analytic/n128_m16 and gradient_analytic_scratch/n128_m16)" >&2
    exit 1
fi
ratio=$(awk -v o="$oracle_ns" -v a="$analytic_ns" 'BEGIN { printf "%.1f", o / a }')
echo "gradient n128_m16: scratch ${oracle_ns} ns / engine ${analytic_ns} ns = ${ratio}x"
if awk -v o="$oracle_ns" -v a="$analytic_ns" 'BEGIN { exit !(o / a >= 5.0) }'; then
    echo "analytic-gradient gate passed (>= 5x)"
else
    echo "error: analytic gradient speedup ${ratio}x is below the 5x gate" >&2
    exit 1
fi

echo
echo "== complete-solve gate (gradient_solve vs its committed baseline) =="
# A complete default solve of the N=128, M=16 sweep problem must not
# fall behind its own committed baseline by more than 1.5x. This one
# compares against a stored number rather than an in-run oracle, so
# the slack absorbs machine drift; refresh the baseline after an
# intentional change.
solve_ns=$(median_of "gradient_solve/analytic_n128_m16" gradient)
solve_base_ns=$(median_of "gradient_solve/analytic_n128_m16" gradient results/baselines)
if [ -z "$solve_ns" ] || [ -z "$solve_base_ns" ]; then
    echo "error: gradient_solve/analytic_n128_m16 missing from the gradient report or its baseline" >&2
    exit 1
fi
ratio=$(awk -v c="$solve_ns" -v b="$solve_base_ns" 'BEGIN { printf "%.2f", c / b }')
echo "solve n128_m16: current ${solve_ns} ns / baseline ${solve_base_ns} ns = ${ratio}x"
if awk -v c="$solve_ns" -v b="$solve_base_ns" 'BEGIN { exit !(c <= 1.5 * b) }'; then
    echo "complete-solve gate passed (<= 1.5x baseline)"
else
    echo "error: the complete solve is ${ratio}x its committed baseline (gate: 1.5x)" >&2
    exit 1
fi

echo
echo "== streamed-ingest gate (op-log chunked reader) =="
# Streaming an op-log through the chunked reader (DESIGN.md §12) must
# not lose to materializing the trace first: same fit, strictly less
# copying. Compared at a single thread so pool overhead cancels out;
# 1.25x of slack absorbs wall-clock noise.
streamed_ns=$(median_of "oplog_ingest_streamed/threads1" ingest)
materialized_ns=$(median_of "oplog_ingest_materialized/threads1" ingest)
if [ -z "$streamed_ns" ] || [ -z "$materialized_ns" ]; then
    echo "error: ingest sweep missing from results/BENCH_ingest.json" >&2
    echo "(expected oplog_ingest_streamed/threads1 and oplog_ingest_materialized/threads1)" >&2
    exit 1
fi
ratio=$(awk -v m="$materialized_ns" -v s="$streamed_ns" 'BEGIN { printf "%.2f", s / m }')
echo "oplog ingest threads1: streamed ${streamed_ns} ns / materialized ${materialized_ns} ns = ${ratio}x"
if awk -v m="$materialized_ns" -v s="$streamed_ns" 'BEGIN { exit !(s <= 1.25 * m) }'; then
    echo "ingest gate passed (streamed <= 1.25x materialized)"
else
    echo "error: streamed ingestion is ${ratio}x the materialized path (gate: 1.25x)" >&2
    exit 1
fi

echo
echo "== objective-trait overhead gate (penalty objectives vs minmax) =="
# The pluggable-objective refactor (DESIGN.md §13) routes the solver's
# hot loop through LayoutObjective weights. One production solver step
# under every penalty objective must stay within 1.05x of the same
# step under the default minmax objective. In-run comparison, so
# machine drift cancels out.
for size in n32_m4 n128_m4; do
    minmax_ns=$(median_of "objective_gradient/minmax_${size}" objectives)
    if [ -z "$minmax_ns" ]; then
        echo "error: objective_gradient/minmax_${size} missing from results/BENCH_objectives.json" >&2
        exit 1
    fi
    for kind in provision-cost wear-blend; do
        penalty_ns=$(median_of "objective_gradient/${kind}_${size}" objectives)
        if [ -z "$penalty_ns" ]; then
            echo "error: objective_gradient/${kind}_${size} missing from results/BENCH_objectives.json" >&2
            exit 1
        fi
        ratio=$(awk -v b="$minmax_ns" -v p="$penalty_ns" 'BEGIN { printf "%.3f", p / b }')
        echo "objective_gradient ${size}: ${kind} ${penalty_ns} ns / minmax ${minmax_ns} ns = ${ratio}x"
        if awk -v b="$minmax_ns" -v p="$penalty_ns" 'BEGIN { exit !(p <= 1.05 * b) }'; then
            echo "objective gate passed (${kind} <= 1.05x minmax)"
        else
            echo "error: ${kind} is ${ratio}x the minmax solver step (gate: 1.05x)" >&2
            exit 1
        fi
    done
done

echo
echo "== daemon tick-cost gate (no-drift tick vs full re-solve) =="
# The control loop's economics (DESIGN.md §14): a quiet tick is one
# EvalEngine pass over the deployed layout, a drifted tick pays for a
# warm-started solve. The cheap path must stay >= 50x cheaper than the
# full re-solve or the daemon's "probe every tick, solve rarely"
# design stops paying for itself. In-run comparison, so machine drift
# cancels out.
tick_ns=$(median_of "daemon/no_drift_tick" daemon)
resolve_ns=$(median_of "daemon/full_resolve" daemon)
if [ -z "$tick_ns" ] || [ -z "$resolve_ns" ]; then
    echo "error: daemon sweep missing from results/BENCH_daemon.json" >&2
    echo "(expected daemon/no_drift_tick and daemon/full_resolve)" >&2
    exit 1
fi
ratio=$(awk -v r="$resolve_ns" -v t="$tick_ns" 'BEGIN { printf "%.1f", r / t }')
echo "daemon: full_resolve ${resolve_ns} ns / no_drift_tick ${tick_ns} ns = ${ratio}x"
if awk -v r="$resolve_ns" -v t="$tick_ns" 'BEGIN { exit !(r / t >= 50.0) }'; then
    echo "daemon gate passed (no-drift tick >= 50x cheaper than re-solve)"
else
    echo "error: no-drift tick is only ${ratio}x cheaper than a full re-solve (gate: 50x)" >&2
    exit 1
fi

echo
echo "== stress admission-control gate (rejected tick vs served tick) =="
# Load shedding only defends the service if rejecting a request is
# nearly free: a shed slot must skip calibration, the trace run, and
# the solve entirely. The rejected tick must stay >= 50x cheaper than
# the served tick or admission control has become its own overload
# source. In-run comparison, so machine drift cancels out.
served_ns=$(median_of "stress/tick_served_b8" stress)
rejected_ns=$(median_of "stress/tick_rejected_b8" stress)
if [ -z "$served_ns" ] || [ -z "$rejected_ns" ]; then
    echo "error: stress sweep missing from results/BENCH_stress.json" >&2
    echo "(expected stress/tick_served_b8 and stress/tick_rejected_b8)" >&2
    exit 1
fi
ratio=$(awk -v s="$served_ns" -v r="$rejected_ns" 'BEGIN { printf "%.1f", s / r }')
echo "stress: tick_served ${served_ns} ns / tick_rejected ${rejected_ns} ns = ${ratio}x"
if awk -v s="$served_ns" -v r="$rejected_ns" 'BEGIN { exit !(s / r >= 50.0) }'; then
    echo "stress gate passed (rejection >= 50x cheaper than service)"
else
    echo "error: rejecting a request is only ${ratio}x cheaper than serving it (gate: 50x)" >&2
    exit 1
fi
