//! Micro-benchmarks for the NLP toolkit.

use std::hint::black_box;
use std::sync::Arc;
use wasla::core::{EvalEngine, LayoutProblem, ScratchEval};
use wasla::model::CostModel;
use wasla::simlib::SimRng;
use wasla::solver::{anneal, lse_max, minimize, project_simplex, AnnealOptions, PgOptions};
use wasla::storage::IoKind;
use wasla::workload::{ObjectKind, WorkloadSet, WorkloadSpec};
use wasla_bench::harness::{BatchSize, Harness};

fn bench_simplex_projection(c: &mut Harness) {
    let mut group = c.benchmark_group("simplex_projection");
    for m in [4usize, 10, 40] {
        let mut rng = SimRng::new(7);
        let base: Vec<f64> = (0..m).map(|_| rng.uniform_range(-1.0, 2.0)).collect();
        group.bench_function(format!("m{m}"), |b| {
            b.iter_batched(
                || base.clone(),
                |mut row| {
                    project_simplex(&mut row);
                    black_box(row)
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_lse(c: &mut Harness) {
    let values: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin().abs()).collect();
    c.bench_function("lse_max_40", |b| {
        b.iter(|| black_box(lse_max(black_box(&values), 0.05)))
    });
}

fn bench_projected_gradient(c: &mut Harness) {
    // A simplex-constrained quadratic comparable to one solver stage of
    // a small layout problem.
    let n = 20;
    let target: Vec<f64> = (0..n).map(|i| ((i * 7) % n) as f64 / n as f64).collect();
    let f = move |x: &[f64]| -> f64 { x.iter().zip(&target).map(|(a, b)| (a - b) * (a - b)).sum() };
    let target2: Vec<f64> = (0..n).map(|i| ((i * 7) % n) as f64 / n as f64).collect();
    let grad = move |x: &[f64], g: &mut [f64]| {
        for i in 0..x.len() {
            g[i] = 2.0 * (x[i] - target2[i]);
        }
    };
    let x0 = vec![1.0 / n as f64; n];
    c.bench_function("pg_quadratic_n20", |b| {
        b.iter(|| {
            black_box(minimize(
                &f,
                &grad,
                |x: &mut [f64]| project_simplex(x),
                black_box(&x0),
                &PgOptions::default(),
            ))
        })
    });
}

fn bench_anneal(c: &mut Harness) {
    let f = |x: &[f64]| {
        x.iter()
            .enumerate()
            .map(|(i, v)| v * (i as f64))
            .sum::<f64>()
    };
    let x0 = vec![0.25; 4];
    let opts = AnnealOptions {
        steps: 1_000,
        ..AnnealOptions::default()
    };
    c.bench_function("anneal_1000_steps", |b| {
        b.iter(|| {
            black_box(anneal(
                f,
                |x: &mut [f64]| project_simplex(x),
                black_box(&x0),
                &opts,
            ))
        })
    });
}

/// Analytic cost model for the gradient sweep: contention-sensitive
/// and cheap, so the benchmark measures evaluation machinery rather
/// than model arithmetic.
struct SweepModel;
impl CostModel for SweepModel {
    fn request_cost(&self, kind: IoKind, size: f64, run: f64, chi: f64) -> f64 {
        let base = match kind {
            IoKind::Read => 0.004,
            IoKind::Write => 0.003,
        };
        base / run.max(1.0) + 0.002 * chi + size / 60e6 + 0.0002
    }
}

/// Block-sparse overlap structure: objects contend only within groups
/// of 8, so cross-workload contention terms are sparse the way traced
/// catalogs are.
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

/// Two distinct random interior simplex points. Alternating between
/// them makes every timed step land on a point the engine has not
/// committed — the access pattern of a line search, not of a re-query
/// at a cached point.
fn step_points(n: usize, m: usize) -> [Vec<f64>; 2] {
    let mut rng = SimRng::new(0x5eed);
    [(); 2].map(|_| {
        let mut x = vec![0.0; n * m];
        for row in x.chunks_mut(m) {
            for v in row.iter_mut() {
                *v = rng.uniform_range(0.05, 1.0);
            }
            let total: f64 = row.iter().sum();
            for v in row.iter_mut() {
                *v /= total;
            }
        }
        x
    })
}

/// N×M scaling sweep over one production solver step — the smoothed
/// score followed by its analytic gradient (`lse_score` then
/// `grad_at`) at a fresh point — on the incremental `EvalEngine` and
/// on the from-scratch `ScratchEval` oracle, with `EvalStats` work
/// counters from one instrumented step attached to each result.
fn bench_solver_step_sweep(c: &mut Harness) {
    {
        let mut group = c.benchmark_group("solver_step_engine");
        for (n, m) in SWEEP_SIZES {
            let problem = sweep_problem(n, m);
            let points = step_points(n, m);
            let mut engine = EvalEngine::new(&problem);
            let mut g = vec![0.0; n * m];
            let before = engine.stats;
            engine.lse_score(&points[0], SWEEP_TEMP);
            engine.grad_at(&points[0], SWEEP_TEMP, &mut g);
            let per_step = engine.stats.since(&before);
            let mut k = 0usize;
            group.bench_function(format!("n{n}_m{m}"), |b| {
                for (name, value) in per_step.entries() {
                    b.counter(name, value as f64);
                }
                b.iter(|| {
                    k += 1;
                    let x = black_box(&points[k % 2]);
                    let f = engine.lse_score(x, SWEEP_TEMP);
                    engine.grad_at(x, SWEEP_TEMP, &mut g);
                    black_box(f + g[0])
                })
            });
        }
        group.finish();
    }
    {
        let mut group = c.benchmark_group("solver_step_scratch");
        for (n, m) in SWEEP_SIZES {
            let problem = sweep_problem(n, m);
            let points = step_points(n, m);
            let mut scratch = ScratchEval::new(&problem);
            let mut g = vec![0.0; n * m];
            let before = scratch.stats;
            scratch.lse_score(&points[0], SWEEP_TEMP);
            scratch.grad_at(&points[0], SWEEP_TEMP, &mut g);
            let per_step = scratch.stats.since(&before);
            let mut k = 0usize;
            group.bench_function(format!("n{n}_m{m}"), |b| {
                for (name, value) in per_step.entries() {
                    b.counter(name, value as f64);
                }
                b.iter(|| {
                    k += 1;
                    let x = black_box(&points[k % 2]);
                    let f = scratch.lse_score(x, SWEEP_TEMP);
                    scratch.grad_at(x, SWEEP_TEMP, &mut g);
                    black_box(f + g[0])
                })
            });
        }
        group.finish();
    }
}

wasla_bench::bench_main!(
    "solver",
    bench_simplex_projection,
    bench_lse,
    bench_projected_gradient,
    bench_anneal,
    bench_solver_step_sweep
);
