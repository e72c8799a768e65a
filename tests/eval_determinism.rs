//! Engine-swap determinism: `solve_nlp` outcomes are byte-identical
//! to the oracle solve over the from-scratch `ScratchEval` evaluator
//! (`common::oracle_solve`), at any `WASLA_THREADS` setting.
//!
//! This is the eval module's contract (DESIGN.md §10): both
//! evaluators fold contention through the same canonical pairwise
//! kernel, so swapping the evaluation machinery may change wall-clock
//! and work counters, never results. Work counters
//! (`NlpOutcome::stats`) are excluded from the comparison on purpose —
//! they are the one field that legitimately differs.
//!
//! The production report is also pinned to a fixed hash, so the
//! engines cannot drift together unnoticed.
//!
//! The whole check lives in ONE test function: it mutates the
//! `WASLA_THREADS` environment variable, which is only safe while no
//! other test in the same binary runs concurrently.

mod common;

use common::{oracle_multistart, oracle_solve, OracleGrad};
use std::sync::Arc;
use wasla::core::{
    initial_layout, solve_multistart, solve_nlp, Layout, LayoutProblem, NlpOutcome, SolveMethod,
    SolverOptions,
};
use wasla::model::CostModel;
use wasla::simlib::hash::Fnv64;
use wasla::storage::IoKind;
use wasla::workload::{ObjectKind, WorkloadSet, WorkloadSpec};

/// Contention-sensitive analytic model: cheap, deterministic, and
/// enough structure that the solver meaningfully moves mass around.
struct ContentionModel;
impl CostModel for ContentionModel {
    fn request_cost(&self, _: IoKind, _: f64, run: f64, chi: f64) -> f64 {
        0.004 / run.max(1.0) + 0.003 * chi + 0.004
    }
}

fn problem(n: usize, m: usize) -> LayoutProblem {
    let spec = |i: usize| WorkloadSpec {
        read_size: 65536.0,
        write_size: 8192.0,
        read_rate: 20.0 + 5.0 * (i as f64),
        write_rate: 2.0,
        run_count: if i % 2 == 0 { 32.0 } else { 4.0 },
        overlaps: (0..n).map(|k| if k == i { 0.0 } else { 0.6 }).collect(),
    };
    LayoutProblem {
        workloads: WorkloadSet {
            names: (0..n).map(|i| format!("o{i}")).collect(),
            sizes: vec![1 << 28; n],
            specs: (0..n).map(spec).collect(),
        },
        kinds: vec![ObjectKind::Table; n],
        capacities: vec![2 << 30; m],
        target_names: (0..m).map(|j| format!("t{j}")).collect(),
        models: (0..m).map(|_| Arc::new(ContentionModel) as _).collect(),
        stripe_size: 1024.0 * 1024.0,
        constraints: vec![],
    }
}

/// The deterministic part of an outcome, as bytes (stats excluded).
fn outcome_bytes(out: &NlpOutcome) -> String {
    format!(
        "layout={:?}\nutilizations={:?}\nmax={:?}\nscore={:?}\nconverged={:?}\n",
        out.layout, out.utilizations, out.max_utilization, out.score, out.converged
    )
}

/// `solve_multistart` reuses pooled `EvalEngine`s across starts; a
/// pooled engine must be indistinguishable from a freshly built one.
/// Compare against the pre-pooling semantics: one `solve_nlp` (fresh
/// engine) per start, winner picked by score in index order.
fn multistart_pool_matches_fresh_engines() {
    let p = problem(6, 3);
    let init = initial_layout(&p).expect("ample capacity");
    let see = Layout::see(6, 3);
    let blend = |lambda: f64| {
        Layout::from_rows(
            (0..6)
                .map(|i| {
                    (0..3)
                        .map(|j| lambda * init.get(i, j) + (1.0 - lambda) * see.get(i, j))
                        .collect()
                })
                .collect(),
        )
    };
    // Four starts so a single worker reuses one engine repeatedly.
    let starts = vec![init.clone(), see.clone(), blend(0.25), blend(0.75)];
    let opts = SolverOptions::default();
    let pooled = solve_multistart(&p, &starts, &opts).expect("starts supplied");
    let fresh = starts
        .iter()
        .map(|s| solve_nlp(&p, s, &opts))
        .reduce(|best, out| if out.score < best.score { out } else { best })
        .expect("at least one start");
    assert_eq!(
        outcome_bytes(&pooled),
        outcome_bytes(&fresh),
        "pooled multistart engines changed solve outcomes"
    );
}

/// Single and multistart outcomes under both search engines, solved
/// by the production engine path (`oracle: false`) or the scratch
/// oracle (`oracle: true`).
fn solve_report(oracle: bool) -> String {
    let mut report = String::new();
    for (method, tag) in [
        (SolveMethod::ProjectedGradient, "pg"),
        (SolveMethod::Anneal, "anneal"),
    ] {
        let p = problem(6, 3);
        let init = initial_layout(&p).expect("ample capacity");
        let opts = SolverOptions {
            method,
            ..SolverOptions::default()
        };
        let starts = [init.clone(), Layout::see(6, 3)];
        let (single, multi) = if oracle {
            (
                oracle_solve(&p, &init, &opts, OracleGrad::Analytic),
                oracle_multistart(&p, &starts, &opts, OracleGrad::Analytic),
            )
        } else {
            (
                solve_nlp(&p, &init, &opts),
                solve_multistart(&p, &starts, &opts).expect("starts supplied"),
            )
        };
        report.push_str(&format!("[{tag}] {}", outcome_bytes(&single)));
        report.push_str(&format!("[{tag}/multi] {}", outcome_bytes(&multi)));
    }
    report
}

/// FNV-1a hash of the production `solve_report`. It moves with any
/// change to either engine's arithmetic — projected gradient or
/// annealing, single start or multistart — and no perfbench workload
/// runs the annealer, so this is its bit-identity guard. Re-pin it
/// only for a deliberate, documented re-baseline.
const PINNED_SOLVE_REPORT_HASH: u64 = 0x7a64_5143_d195_8f52;

fn report_hash(report: &str) -> u64 {
    Fnv64::new().write_str(report).finish()
}

fn at_threads(t: usize) -> (String, String) {
    std::env::set_var("WASLA_THREADS", t.to_string());
    let out = (solve_report(false), solve_report(true));
    multistart_pool_matches_fresh_engines();
    std::env::remove_var("WASLA_THREADS");
    out
}

#[test]
fn engine_and_scratch_paths_are_byte_identical() {
    let (engine_1, scratch_1) = at_threads(1);
    assert_eq!(
        engine_1, scratch_1,
        "engine swap changed solve outcomes at WASLA_THREADS=1"
    );
    let (engine_8, scratch_8) = at_threads(8);
    assert_eq!(
        engine_8, scratch_8,
        "engine swap changed solve outcomes at WASLA_THREADS=8"
    );
    assert_eq!(engine_1, engine_8, "engine path depends on WASLA_THREADS");
    assert_eq!(
        report_hash(&engine_1),
        PINNED_SOLVE_REPORT_HASH,
        "solve outcomes moved off the pinned report:\n{engine_1}"
    );
}
