//! Micro-benchmarks for the pluggable layout objective.
//!
//! The solver's hot loop scores through `LayoutObjective` weights.
//! Every run times one production solver step under each objective on
//! the same problems, interleaved step by step within each sample, and
//! reports each penalty objective's time over `minmax` as a counter
//! (median over samples). `ci/bench_diff.sh` gates those ratios at
//! ≤ 1.05×: machine drift and neighbour noise hit both sides of every
//! ratio alike.

use std::hint::black_box;
use std::sync::Arc;
use wasla::core::{
    initial_layout, solve_nlp, EvalEngine, LayoutProblem, ObjectiveKind, SolverOptions,
};
use wasla::model::CostModel;
use wasla::simlib::SimRng;
use wasla::storage::{IoKind, Tier};
use wasla::workload::{ObjectKind, WorkloadSet, WorkloadSpec};
use wasla_bench::harness::Harness;

/// Analytic, contention-sensitive cost model carrying an explicit
/// tier, so the tier-weighted objectives see heterogeneous weights
/// while the arithmetic stays cheap enough to measure the evaluation
/// machinery rather than the model.
struct TieredSweepModel(Tier);
impl CostModel for TieredSweepModel {
    fn request_cost(&self, kind: IoKind, size: f64, run: f64, chi: f64) -> f64 {
        let base = match kind {
            IoKind::Read => 0.004,
            IoKind::Write => 0.003,
        };
        base / run.max(1.0) + 0.002 * chi + size / 60e6 + 0.0002
    }

    fn tier(&self) -> Tier {
        self.0.clone()
    }
}

/// Block-sparse overlap structure (groups of 8) on alternating
/// HDD/SSD targets — the same shape as the solver suite's sweep, with
/// tiers added so provision-cost and wear-blend weights differ per
/// target.
fn tiered_problem(n: usize, m: usize) -> LayoutProblem {
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
        models: (0..m)
            .map(|j| {
                let tier = if j % 2 == 0 { Tier::hdd() } else { Tier::ssd() };
                Arc::new(TieredSweepModel(tier)) as _
            })
            .collect(),
        stripe_size: 1024.0 * 1024.0,
        constraints: vec![],
    }
}

const SIZES: [(usize, usize); 2] = [(32, 4), (128, 4)];
const TEMP: f64 = 0.05;

/// Two distinct random interior simplex points; alternating between
/// them makes every timed step land on an uncommitted point.
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

/// The solver's hot loop under every objective, same problem, same
/// samples: one production step (`lse_score` then the analytic
/// `grad_at`) at a fresh point per objective, interleaved. The counter
/// `<penalty>_over_minmax` on `objective_gradient/interleaved_*` is
/// the ≤ 1.05× objective gate.
fn bench_objective_gradient(c: &mut Harness) {
    let mut group = c.benchmark_group("objective_gradient");
    for (n, m) in SIZES {
        let problem = tiered_problem(n, m);
        let points = &step_points(n, m);
        let mut steps: Vec<_> = ObjectiveKind::ALL
            .into_iter()
            .map(|kind| {
                let mut engine = EvalEngine::with_objective(&problem, kind);
                let mut g = vec![0.0; n * m];
                let mut k = 0usize;
                move || {
                    k += 1;
                    let x = black_box(&points[k % 2]);
                    let f = engine.lse_score(x, TEMP);
                    engine.grad_at(x, TEMP, &mut g);
                    black_box(f + g[0]);
                }
            })
            .collect();
        group.bench_function(format!("interleaved_n{n}_m{m}"), |b| {
            let mut fs: Vec<&mut dyn FnMut()> =
                steps.iter_mut().map(|f| f as &mut dyn FnMut()).collect();
            let ratios = b.iter_interleaved(&mut fs);
            for (kind, ratio) in ObjectiveKind::ALL.into_iter().zip(ratios).skip(1) {
                b.counter(format!("{}_over_minmax", kind.name()), ratio);
            }
        });
    }
    group.finish();
}

/// Full NLP solves from the rate-greedy start under each objective —
/// the end-to-end cost an advisor run pays for picking a non-default
/// objective.
fn bench_objective_solve(c: &mut Harness) {
    let (n, m) = (32, 4);
    let problem = tiered_problem(n, m);
    let init = initial_layout(&problem).expect("initial layout");
    let mut group = c.benchmark_group("objective_solve");
    for kind in ObjectiveKind::ALL {
        let opts = SolverOptions {
            objective: kind,
            ..SolverOptions::default()
        };
        group.bench_function(format!("{}_n{n}_m{m}", kind.name()), |b| {
            b.iter(|| black_box(solve_nlp(&problem, black_box(&init), &opts)))
        });
    }
    group.finish();
}

wasla_bench::bench_main!(
    "objectives",
    bench_objective_gradient,
    bench_objective_solve
);
