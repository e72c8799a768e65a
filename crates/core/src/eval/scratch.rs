//! The from-scratch evaluation oracle with hoisted scratch buffers.
//!
//! [`ScratchEval`] runs the algorithm the solver used before the
//! engine existed — rebuild the [`Layout`], recompute every `µⱼ`
//! through [`UtilizationEstimator`], finite-difference each coordinate
//! with two full single-target evaluations — but with the per-call
//! allocations (`Layout::from_flat`, the `utilizations` Vec, the
//! softmax scratch) hoisted into a reusable workspace. No production
//! path calls it: it is the dense equivalence oracle that tests and
//! benches hold the incremental engine against. Both fold contention
//! through [`crate::eval::kernel`], so their values and analytic
//! gradients are bit-identical and the difference benchmarked is
//! purely the incremental bookkeeping.

use crate::estimator::UtilizationEstimator;
use crate::eval::grad::{self, CrossAdjacency};
use crate::eval::objective::ObjectiveKind;
use crate::eval::stats::EvalStats;
use crate::problem::{Layout, LayoutProblem};
use wasla_solver::{lse_max, softmax_weights};

/// From-scratch evaluator with reusable buffers.
pub struct ScratchEval<'a> {
    problem: &'a LayoutProblem,
    est: UtilizationEstimator<'a>,
    n: usize,
    m: usize,
    layout: Layout,
    mus: Vec<f64>,
    smax: Vec<f64>,
    /// The objective's per-target penalty weights (1.0 under the
    /// default `MinMax` objective).
    obj_w: Vec<f64>,
    /// Scratch for the weighted utilization vector `wⱼ·µⱼ`.
    wmus: Vec<f64>,
    /// Sparse transposed overlap rows for the analytic cross terms
    /// (same shape `EvalEngine` iterates).
    cross: CrossAdjacency,
    /// Scratch per-object own-term derivatives for one column.
    grad_du: Vec<f64>,
    /// Scratch per-object contention sensitivities for one column.
    grad_cs: Vec<f64>,
    /// Work counters (cumulative). Probe-level counters stay zero on
    /// this path — it has no cache to reuse.
    pub stats: EvalStats,
}

impl<'a> ScratchEval<'a> {
    /// Builds the workspace for one problem under the default min-max
    /// objective.
    pub fn new(problem: &'a LayoutProblem) -> Self {
        Self::with_objective(problem, ObjectiveKind::MinMax)
    }

    /// Builds the workspace scoring for `objective`.
    pub fn with_objective(problem: &'a LayoutProblem, objective: ObjectiveKind) -> Self {
        let n = problem.n();
        let m = problem.m();
        ScratchEval {
            problem,
            est: UtilizationEstimator::new(problem),
            n,
            m,
            layout: Layout::from_rows(vec![vec![0.0; m]; n]),
            mus: vec![0.0; m],
            smax: Vec::with_capacity(m),
            obj_w: objective.weights(problem),
            wmus: vec![0.0; m],
            cross: CrossAdjacency::build(&problem.workloads.specs),
            grad_du: vec![0.0; n],
            grad_cs: vec![0.0; n],
            stats: EvalStats::default(),
        }
    }

    // hot-closure-begin: these run inside solver objective/gradient
    // closures and must not allocate (ci/check.sh greps this region
    // for allocation idioms).

    /// Loads a flat point into the reusable layout.
    fn load(&mut self, x: &[f64]) {
        self.stats.full_rebuilds += 1;
        for i in 0..self.n {
            for j in 0..self.m {
                self.layout.set(i, j, x[i * self.m + j]);
            }
        }
    }

    /// Recomputes every `µⱼ` from scratch at the loaded point.
    fn refresh_mus(&mut self) {
        for j in 0..self.m {
            self.mus[j] = self.est.target_utilization(&self.layout, j);
        }
    }

    /// Fills the weighted-utilization scratch from the current `µ`s.
    fn refill_wmus(&mut self) {
        for j in 0..self.m {
            self.wmus[j] = self.obj_w[j] * self.mus[j];
        }
    }

    /// The smoothed score `lse_max(w·µ(x), temp)`.
    pub fn lse_score(&mut self, x: &[f64], temp: f64) -> f64 {
        self.stats.objective_evals += 1;
        self.load(x);
        self.refresh_mus();
        self.refill_wmus();
        lse_max(&self.wmus, temp)
    }

    /// The raw score `max_j wⱼ·µⱼ(x)`.
    pub fn score_at(&mut self, x: &[f64]) -> f64 {
        self.stats.objective_evals += 1;
        self.load(x);
        self.refresh_mus();
        self.mus
            .iter()
            .zip(&self.obj_w)
            .fold(0.0, |acc, (&mu, &w)| acc.max(w * mu))
    }

    /// The structured finite-difference gradient of the smoothed
    /// score — the FD oracle for [`ScratchEval::grad_at`]. Each partial
    /// pays two full single-target evaluations, weighted by the softmax
    /// over the weighted `µ`s and by its target's weight.
    pub fn fd_grad_at(&mut self, x: &[f64], temp: f64, fd: f64, g: &mut [f64]) {
        self.stats.gradient_evals += 1;
        self.load(x);
        self.refresh_mus();
        self.refill_wmus();
        softmax_weights(&self.wmus, temp, &mut self.smax);
        for i in 0..self.n {
            for j in 0..self.m {
                let orig = self.layout.get(i, j);
                let up_step = fd;
                let dn_step = fd.min(orig);
                self.stats.fd_partials += 1;
                self.stats.grad_fd_probes += 2;
                self.layout.set(i, j, orig + up_step);
                let up = self.est.target_utilization(&self.layout, j);
                self.layout.set(i, j, orig - dn_step);
                let dn = self.est.target_utilization(&self.layout, j);
                self.layout.set(i, j, orig);
                g[i * self.m + j] = self.smax[j] * self.obj_w[j] * (up - dn) / (up_step + dn_step);
            }
        }
    }

    /// The analytic gradient of the smoothed score at `x`, computed
    /// from scratch: reload the layout, recompute every `µⱼ` and
    /// competing sum through the canonical kernel, then apply the same
    /// per-cell chain rule as `EvalEngine::grad_at` — identical
    /// [`grad::cell_grad`] inputs and identical [`CrossAdjacency`]
    /// accumulation order, hence bit-identical output.
    pub fn grad_at(&mut self, x: &[f64], temp: f64, g: &mut [f64]) {
        self.stats.gradient_evals += 1;
        self.stats.grad_analytic_passes += 1;
        self.load(x);
        self.refresh_mus();
        self.refill_wmus();
        softmax_weights(&self.wmus, temp, &mut self.smax);
        let (n, m) = (self.n, self.m);
        for j in 0..m {
            let sw_j = self.smax[j] * self.obj_w[j];
            for k in 0..n {
                let f = self.layout.get(k, j);
                let competing = self.est.competing(&self.layout, k, j);
                let cg = grad::cell_grad(
                    &*self.problem.models[j],
                    &self.problem.workloads.specs[k],
                    f,
                    competing,
                    self.problem.stripe_size,
                    &mut self.stats,
                );
                self.grad_du[k] = cg.du_own;
                self.grad_cs[k] = cg.csens;
            }
            for i in 0..n {
                let mut cross = 0.0;
                for &(k, rw) in self.cross.row(i) {
                    cross += self.grad_cs[k as usize] * rw;
                }
                g[i * m + j] = sw_j * (self.grad_du[i] + cross);
            }
        }
    }

    // hot-closure-end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::engine::EvalEngine;
    use std::sync::Arc;
    use wasla_model::CostModel;
    use wasla_storage::IoKind;
    use wasla_workload::{ObjectKind, WorkloadSet, WorkloadSpec};

    struct ToyModel;
    impl CostModel for ToyModel {
        fn request_cost(&self, _: IoKind, size: f64, run: f64, chi: f64) -> f64 {
            0.01 / run.max(1.0) + 0.002 * chi + size / 1e8
        }
    }

    fn problem(n: usize, m: usize) -> LayoutProblem {
        let spec = |i: usize| WorkloadSpec {
            read_size: 65536.0,
            write_size: 8192.0,
            read_rate: 10.0 + i as f64,
            write_rate: 1.0,
            run_count: 8.0,
            overlaps: (0..n)
                .map(|k| {
                    if k == i {
                        0.0
                    } else {
                        0.4 + 0.1 * ((i * k) % 4) as f64
                    }
                })
                .collect(),
        };
        LayoutProblem {
            workloads: WorkloadSet {
                names: (0..n).map(|i| format!("o{i}")).collect(),
                sizes: (0..n).map(|i| 1000 + 10 * i as u64).collect(),
                specs: (0..n).map(spec).collect(),
            },
            kinds: vec![ObjectKind::Table; n],
            capacities: vec![1 << 20; m],
            target_names: (0..m).map(|j| format!("t{j}")).collect(),
            models: (0..m).map(|_| Arc::new(ToyModel) as _).collect(),
            stripe_size: 1024.0 * 1024.0,
            constraints: vec![],
        }
    }

    fn flat(n: usize, m: usize, seed: u64) -> Vec<f64> {
        let mut rng = wasla_simlib::SimRng::new(seed);
        let mut x = vec![0.0; n * m];
        for row in x.chunks_mut(m) {
            let mut s = 0.0;
            for v in row.iter_mut() {
                *v = rng.uniform_range(0.0, 1.0);
                s += *v;
            }
            for v in row.iter_mut() {
                *v /= s;
            }
        }
        x
    }

    #[test]
    fn scratch_objective_and_gradient_match_engine_bitwise() {
        let p = problem(6, 4);
        let x = flat(6, 4, 77);
        let mut scratch = ScratchEval::new(&p);
        let mut engine = EvalEngine::new(&p);
        let temp = 0.05;
        assert_eq!(
            scratch.lse_score(&x, temp).to_bits(),
            engine.lse_score(&x, temp).to_bits()
        );
        assert_eq!(
            scratch.score_at(&x).to_bits(),
            engine.score_at(&x).to_bits()
        );
        let mut ga = vec![0.0; 24];
        let mut gb = vec![0.0; 24];
        scratch.grad_at(&x, temp, &mut ga);
        engine.grad_at(&x, temp, &mut gb);
        for (a, b) in ga.iter().zip(&gb) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn analytic_gradient_matches_engine_bitwise_and_probes_nothing() {
        for (n, m, seed) in [(6usize, 4usize, 77u64), (9, 3, 5), (5, 5, 1234)] {
            let p = problem(n, m);
            let x = flat(n, m, seed);
            let mut scratch = ScratchEval::new(&p);
            let mut engine = EvalEngine::new(&p);
            let temp = 0.05;
            let mut ga = vec![0.0; n * m];
            let mut gb = vec![0.0; n * m];
            scratch.grad_at(&x, temp, &mut ga);
            engine.grad_at(&x, temp, &mut gb);
            for (c, (a, b)) in ga.iter().zip(&gb).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "n={n} m={m} seed={seed} cell {c}: scratch {a} engine {b}"
                );
            }
            // The analytic pass must not have spent any probes on
            // either path.
            for s in [&scratch.stats, &engine.stats] {
                assert_eq!(s.fd_partials, 0);
                assert_eq!(s.column_probes, 0);
                assert_eq!(s.grad_fd_probes, 0);
                assert_eq!(s.grad_analytic_passes, 1);
                assert_eq!(s.gradient_evals, 1);
            }
        }
    }

    #[test]
    fn analytic_gradient_handles_sparse_and_gated_layouts() {
        // Rows with zero cells (gated), a fully-empty column, and a
        // saturated cell — the subgradient pins must agree bitwise
        // across paths on kinks too.
        let p = problem(4, 3);
        let x = vec![
            1.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, //
            0.5, 0.5, 0.0, //
            0.0, 0.0, 1.0,
        ];
        let mut scratch = ScratchEval::new(&p);
        let mut engine = EvalEngine::new(&p);
        let mut ga = vec![0.0; 12];
        let mut gb = vec![0.0; 12];
        scratch.grad_at(&x, 0.05, &mut ga);
        engine.grad_at(&x, 0.05, &mut gb);
        for (a, b) in ga.iter().zip(&gb) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(ga.iter().all(|v| v.is_finite()));
    }
}
