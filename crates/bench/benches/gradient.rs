//! Gradient micro-benchmarks (DESIGN.md §15).
//!
//! Three ways to compute the solver's LSE gradient on the same
//! block-sparse problems as the `solver` suite's `solver_step` sweep:
//!
//! * `gradient_analytic` — one `EvalEngine::grad_at` pass at the
//!   committed point (chain rule through `cost_with_grad`, zero
//!   objective probes);
//! * `gradient_analytic_scratch` — the same analytic pass from scratch
//!   (`ScratchEval::grad_at`, the dense oracle);
//! * `gradient_fd_scratch` — from-scratch finite differences
//!   (`ScratchEval::fd_grad_at`, the FD oracle).
//!
//! `ci/bench_diff.sh` gates `gradient_analytic` at ≥ 5× faster than
//! `gradient_analytic_scratch` on the gradient-heavy N=128, M=16
//! point. The `gradient_solve` group times complete `solve_nlp` runs,
//! gated against their committed baseline.

use std::hint::black_box;
use std::sync::Arc;
use wasla::core::{
    initial_layout, solve_nlp, EvalEngine, LayoutProblem, ScratchEval, SolverOptions,
};
use wasla::model::{CostGrad, CostModel};
use wasla::storage::IoKind;
use wasla::workload::{ObjectKind, WorkloadSet, WorkloadSpec};
use wasla_bench::harness::Harness;

/// The `solver` suite's sweep model, plus an exact `cost_with_grad`:
/// contention-sensitive and cheap, so the benchmark measures the
/// gradient machinery (and the probe counts it saves) rather than
/// model arithmetic. Without the override the default FD fallback
/// would charge the analytic path six probes per cell and bury the
/// effect being measured.
struct SweepModel;

impl SweepModel {
    fn base(kind: IoKind) -> f64 {
        match kind {
            IoKind::Read => 0.004,
            IoKind::Write => 0.003,
        }
    }
}

impl CostModel for SweepModel {
    fn request_cost(&self, kind: IoKind, size: f64, run: f64, chi: f64) -> f64 {
        Self::base(kind) / run.max(1.0) + 0.002 * chi + size / 60e6 + 0.0002
    }

    fn cost_with_grad(&self, kind: IoKind, size: f64, run: f64, chi: f64) -> CostGrad {
        let base = Self::base(kind);
        CostGrad {
            value: self.request_cost(kind, size, run, chi),
            d_size: 1.0 / 60e6,
            // The run clamp pins the subgradient at the kink: open on
            // the differentiable side only (strictly above 1.0).
            d_run: if run > 1.0 { -base / (run * run) } else { 0.0 },
            d_contention: 0.002,
        }
    }
}

/// Block-sparse overlap structure, identical to the `solver` suite:
/// objects contend only within groups of 8, so cross-workload
/// contention terms are sparse the way traced catalogs are.
fn sweep_problem(n: usize, m: usize) -> LayoutProblem {
    const GROUP: usize = 8;
    let specs = (0..n)
        .map(|i| WorkloadSpec {
            read_size: 65536.0,
            write_size: 8192.0,
            read_rate: 20.0 + i as f64,
            write_rate: 2.0,
            run_count: 1.0 + (i % 7) as f64 * 9.0,
            overlaps: (0..n)
                .map(|k| {
                    if i != k && i / GROUP == k / GROUP {
                        0.5
                    } else {
                        0.0
                    }
                })
                .collect(),
        })
        .collect();
    LayoutProblem {
        workloads: WorkloadSet {
            names: (0..n).map(|i| format!("o{i}")).collect(),
            sizes: (0..n).map(|i| 1000 + 37 * i as u64).collect(),
            specs,
        },
        kinds: vec![ObjectKind::Table; n],
        capacities: vec![1 << 24; m],
        target_names: (0..m).map(|j| format!("t{j}")).collect(),
        models: (0..m).map(|_| Arc::new(SweepModel) as _).collect(),
        stripe_size: 1024.0 * 1024.0,
        constraints: vec![],
    }
}

const SWEEP_SIZES: [(usize, usize); 6] = [(8, 4), (8, 16), (32, 4), (32, 16), (128, 4), (128, 16)];
const SWEEP_TEMP: f64 = 0.05;
const SWEEP_FD: f64 = 1e-4;

/// One full objective gradient per iteration, three ways. Each bench
/// attaches the `EvalStats` delta of one instrumented call, so the
/// report shows where the work goes: zero `grad_fd_probes` on the
/// analytic passes against thousands on the FD oracle.
fn bench_gradient_sweep(c: &mut Harness) {
    {
        let mut group = c.benchmark_group("gradient_analytic");
        for (n, m) in SWEEP_SIZES {
            let problem = sweep_problem(n, m);
            let x = vec![1.0 / m as f64; n * m];
            let mut engine = EvalEngine::new(&problem);
            engine.set_point(&x);
            let mut g = vec![0.0; n * m];
            let before = engine.stats;
            engine.grad_at(&x, SWEEP_TEMP, &mut g);
            let per_call = engine.stats.since(&before);
            group.bench_function(format!("n{n}_m{m}"), |b| {
                for (name, value) in per_call.entries() {
                    b.counter(name, value as f64);
                }
                b.iter(|| {
                    engine.grad_at(black_box(&x), SWEEP_TEMP, &mut g);
                    black_box(g[0])
                })
            });
        }
        group.finish();
    }
    {
        let mut group = c.benchmark_group("gradient_analytic_scratch");
        for (n, m) in SWEEP_SIZES {
            let problem = sweep_problem(n, m);
            let x = vec![1.0 / m as f64; n * m];
            let mut scratch = ScratchEval::new(&problem);
            let mut g = vec![0.0; n * m];
            let before = scratch.stats;
            scratch.grad_at(&x, SWEEP_TEMP, &mut g);
            let per_call = scratch.stats.since(&before);
            group.bench_function(format!("n{n}_m{m}"), |b| {
                for (name, value) in per_call.entries() {
                    b.counter(name, value as f64);
                }
                b.iter(|| {
                    scratch.grad_at(black_box(&x), SWEEP_TEMP, &mut g);
                    black_box(g[0])
                })
            });
        }
        group.finish();
    }
    {
        let mut group = c.benchmark_group("gradient_fd_scratch");
        for (n, m) in SWEEP_SIZES {
            let problem = sweep_problem(n, m);
            let x = vec![1.0 / m as f64; n * m];
            let mut scratch = ScratchEval::new(&problem);
            let mut g = vec![0.0; n * m];
            let before = scratch.stats;
            scratch.fd_grad_at(&x, SWEEP_TEMP, SWEEP_FD, &mut g);
            let per_call = scratch.stats.since(&before);
            group.bench_function(format!("n{n}_m{m}"), |b| {
                for (name, value) in per_call.entries() {
                    b.counter(name, value as f64);
                }
                b.iter(|| {
                    scratch.fd_grad_at(black_box(&x), SWEEP_TEMP, SWEEP_FD, &mut g);
                    black_box(g[0])
                })
            });
        }
        group.finish();
    }
}

/// End-to-end: a complete default solve on the small and the
/// mid-size sweep problem. `ci/bench_diff.sh` gates the mid-size solve
/// against its committed baseline.
fn bench_solve_paths(c: &mut Harness) {
    let mut group = c.benchmark_group("gradient_solve");
    for (n, m) in [(32usize, 4usize), (128, 16)] {
        let problem = sweep_problem(n, m);
        let init = initial_layout(&problem).expect("sweep problem has ample capacity");
        let opts = SolverOptions::default();
        let stats = solve_nlp(&problem, &init, &opts).stats;
        group.bench_function(format!("analytic_n{n}_m{m}"), |b| {
            for (name, value) in stats.entries() {
                b.counter(name, value as f64);
            }
            b.iter(|| black_box(solve_nlp(&problem, &init, &opts).score))
        });
    }
    group.finish();
}

wasla_bench::bench_main!("gradient", bench_gradient_sweep, bench_solve_paths);
