//! Analytic-gradient equivalence contract (DESIGN.md §15).
//!
//! The solver differentiates analytically (`EvalEngine::grad_at`);
//! finite differences survive only as the test-side oracle
//! (`ScratchEval::fd_grad_at`, and the oracle solve in
//! `common`). This suite pins the contract between them:
//!
//! * **O(h) agreement** — on random calibrated-table problems and on
//!   both paper catalogs, the structured-FD gradient converges to the
//!   analytic gradient as the step shrinks (the analytic value is the
//!   limit the FD scheme approximates, so the minimum error over a
//!   shrinking-h ladder must be small at generic interior points);
//! * **solution-quality parity** — production multistart solves land
//!   within 0.1% of the FD-driven oracle multistart objective;
//! * **zero probes** — a production solve performs no objective probes
//!   at all (`fd_partials`, `column_probes`, `grad_fd_probes` all
//!   zero; `grad_analytic_passes` positive), which is the entire
//!   point of the optimisation, asserted on counters rather than
//!   inferred from wall-clock;
//! * **FD-oracle stability** — repeated FD oracle solves reproduce
//!   themselves byte for byte, so the oracle itself has not drifted.
//!
//! Tolerance notes: FD checks use random *interior* points (simplex-
//! normalized, generically off every grid knot and layout-model branch
//! boundary). Exactly on kinks the two schemes legitimately disagree —
//! analytic pins a one-sided subgradient, FD averages the two cells —
//! which is why knot behaviour is pinned by unit tests in
//! `wasla-model` instead of here.

mod common;

use common::{oracle_multistart, oracle_solve, OracleGrad, FD_STEP};
use std::sync::{Arc, OnceLock};
use wasla::core::{
    initial_layout, solve_multistart, solve_nlp, EvalEngine, Layout, LayoutProblem, NlpOutcome,
    ScratchEval, SolverOptions,
};
use wasla::model::{calibrate_device, CalibrationGrid, CostModel, TableModel};
use wasla::pipeline::{AdviseConfig, Scenario};
use wasla::simlib::fault;
use wasla::simlib::proptest::prelude::*;
use wasla::simlib::SimRng;
use wasla::storage::{DeviceSpec, DiskParams};
use wasla::workload::{ObjectKind, SqlWorkload, WorkloadSet, WorkloadSpec};

/// One calibrated (grid-backed, clamping) disk table shared by every
/// random problem — calibration is deterministic, so sharing is safe,
/// and clamped tables are exactly what production problems
/// differentiate through.
fn disk_table() -> Arc<TableModel> {
    static TABLE: OnceLock<Arc<TableModel>> = OnceLock::new();
    TABLE
        .get_or_init(|| {
            Arc::new(calibrate_device(
                &DeviceSpec::Disk(DiskParams::scsi_15k(18 << 30)),
                &CalibrationGrid::coarse(),
                7,
            ))
        })
        .clone()
}

/// A random layout problem over the shared calibrated table. Rates,
/// sizes, and run counts are drawn off every calibration knot so FD
/// checks sit at generic points.
fn random_problem(n: usize, m: usize, seed: u64) -> LayoutProblem {
    let mut rng = SimRng::new(seed);
    let specs: Vec<WorkloadSpec> = (0..n)
        .map(|i| WorkloadSpec {
            read_size: rng.uniform_range(10_000.0, 120_000.0),
            write_size: rng.uniform_range(9_000.0, 20_000.0),
            read_rate: rng.uniform_range(5.0, 40.0),
            write_rate: rng.uniform_range(0.5, 5.0),
            run_count: rng.uniform_range(2.3, 40.0),
            overlaps: (0..n)
                .map(|k| {
                    if k == i {
                        0.0
                    } else {
                        rng.uniform_range(0.0, 1.0)
                    }
                })
                .collect(),
        })
        .collect();
    LayoutProblem {
        workloads: WorkloadSet {
            names: (0..n).map(|i| format!("o{i}")).collect(),
            sizes: vec![1 << 28; n],
            specs,
        },
        kinds: vec![ObjectKind::Table; n],
        capacities: vec![4 << 30; m],
        target_names: (0..m).map(|j| format!("t{j}")).collect(),
        models: (0..m).map(|_| disk_table() as Arc<dyn CostModel>).collect(),
        stripe_size: 256.0 * 1024.0,
        constraints: vec![],
    }
}

/// A random interior simplex point (each row normalized to sum 1).
fn random_point(n: usize, m: usize, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::new(seed);
    let mut x = vec![0.0; n * m];
    for row in x.chunks_mut(m) {
        let mut s = 0.0;
        for v in row.iter_mut() {
            *v = rng.uniform_range(0.05, 1.0);
            s += *v;
        }
        for v in row.iter_mut() {
            *v /= s;
        }
    }
    x
}

/// Asserts the shrinking-h contract at one point of one problem:
/// for every coordinate, the best scratch-FD approximation across the
/// ladder must approach the engine's analytic partial. Returns the
/// worst relative error for diagnostics.
fn assert_fd_converges_to_analytic(problem: &LayoutProblem, x: &[f64], label: &str) -> f64 {
    let (n, m) = (problem.n(), problem.m());
    let temp = 0.05;
    let mut engine = EvalEngine::new(problem);
    let mut analytic = vec![0.0; n * m];
    engine.grad_at(x, temp, &mut analytic);
    let mut scratch = ScratchEval::new(problem);
    let ladder = [1e-3, 1e-4, 1e-5, 1e-6];
    let mut fds: Vec<Vec<f64>> = Vec::new();
    for &h in &ladder {
        let mut g = vec![0.0; n * m];
        scratch.fd_grad_at(x, temp, h, &mut g);
        fds.push(g);
    }
    let mut worst = 0.0f64;
    for c in 0..n * m {
        let a = analytic[c];
        let best = fds
            .iter()
            .map(|g| (g[c] - a).abs())
            .fold(f64::INFINITY, f64::min);
        let rel = best / (1.0 + a.abs());
        worst = worst.max(rel);
        assert!(
            rel < 1e-4,
            "{label}: coordinate {c}: analytic {a} vs best-FD error {best} (rel {rel})"
        );
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// FD converges to the analytic gradient on random calibrated
    /// problems at random interior points.
    #[test]
    fn fd_converges_on_random_problems(seed in 0u64..10_000, n in 3usize..8, m in 2usize..5) {
        let problem = random_problem(n, m, seed);
        let x = random_point(n, m, seed.wrapping_mul(0x9e37_79b9) + 1);
        assert_fd_converges_to_analytic(&problem, &x, "random");
    }

    /// Production multistart solves (analytic gradient) reach an
    /// objective within 0.1% of the FD-driven oracle multistart —
    /// retiring FD from the hot path must not cost solution quality. Self-skips
    /// under an active fault plan: solver-budget faults can truncate
    /// the two descents at different points, so strict parity is a
    /// fault-free claim (the convergence and counter tests above and
    /// below stay relational and ride the matrix in full).
    #[test]
    fn analytic_solution_quality_matches_fd(seed in 0u64..1_000) {
        if fault::plan().is_some() {
            return Ok(());
        }
        let problem = random_problem(6, 3, seed);
        let init = initial_layout(&problem).expect("ample capacity");
        let starts = [init, Layout::see(6, 3)];
        let opts = SolverOptions::default();
        let analytic = solve_multistart(&problem, &starts, &opts).expect("starts supplied");
        let fd = oracle_multistart(&problem, &starts, &opts, OracleGrad::Fd(FD_STEP));
        prop_assert!(
            analytic.score <= fd.score * 1.001 + 1e-12,
            "analytic {} vs fd {}",
            analytic.score,
            fd.score
        );
    }
}

/// The paper catalogs: gradients agree through the full pipeline's
/// calibrated RAID/SSD target models, not just the synthetic table.
#[test]
fn fd_converges_on_paper_catalogs() {
    let olap_config = AdviseConfig::fast();
    let mut oltp_config = AdviseConfig::fast();
    oltp_config.trace_run.max_time = Some(60.0);
    let cases = [
        (
            "tpch-like",
            Scenario::homogeneous_disks(4, 0.01),
            vec![SqlWorkload::olap1_21(3)],
            olap_config,
        ),
        (
            "tpcc-like",
            Scenario::oltp_disks(0.01),
            vec![SqlWorkload::oltp()],
            oltp_config,
        ),
    ];
    for (name, scenario, workloads, config) in cases {
        let outcome = wasla::pipeline::advise(&scenario, &workloads, &config).expect("advise");
        let problem = &outcome.problem;
        let (n, m) = (problem.n(), problem.m());
        for point_seed in [3u64, 17] {
            let x = random_point(n, m, point_seed);
            assert_fd_converges_to_analytic(problem, &x, name);
        }
    }
}

/// The deterministic part of an outcome, as bytes (stats excluded).
fn outcome_bytes(out: &NlpOutcome) -> String {
    format!(
        "layout={:?}\nutilizations={:?}\nmax={:?}\nscore={:?}\nconverged={:?}\n",
        out.layout, out.utilizations, out.max_utilization, out.score, out.converged
    )
}

/// A production solve spends zero probes on gradients; an FD oracle
/// solve spends nothing on analytic passes. The counters are the proof
/// that the hot path actually changed, independent of wall-clock.
#[test]
fn analytic_solve_spends_zero_probes() {
    let problem = random_problem(6, 3, 42);
    let init = initial_layout(&problem).expect("ample capacity");
    let opts = SolverOptions::default();
    let analytic = solve_nlp(&problem, &init, &opts);
    assert_eq!(analytic.stats.fd_partials, 0, "FD partials");
    assert_eq!(analytic.stats.column_probes, 0, "column probes");
    assert_eq!(analytic.stats.grad_fd_probes, 0, "FD probes");
    assert!(
        analytic.stats.grad_analytic_passes > 0,
        "no analytic passes recorded"
    );
    let fd = oracle_solve(&problem, &init, &opts, OracleGrad::Fd(FD_STEP));
    assert_eq!(fd.stats.grad_analytic_passes, 0);
    assert!(fd.stats.grad_fd_probes > 0, "FD oracle solve probes");
    assert_eq!(
        fd.stats.grad_fd_probes,
        2 * fd.stats.fd_partials,
        "every FD partial is exactly two probes"
    );
}

/// The FD oracle itself must not have drifted: repeated FD oracle
/// solves reproduce themselves exactly — the same contract
/// `tests/eval_determinism.rs` pins for the production path.
#[test]
fn fd_oracle_solve_is_reproducible() {
    let problem = random_problem(6, 3, 7);
    let init = initial_layout(&problem).expect("ample capacity");
    let solve = || {
        oracle_solve(
            &problem,
            &init,
            &SolverOptions::default(),
            OracleGrad::Fd(FD_STEP),
        )
    };
    assert_eq!(
        outcome_bytes(&solve()),
        outcome_bytes(&solve()),
        "FD oracle solve is not reproducible"
    );
}
