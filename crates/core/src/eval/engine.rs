//! The incremental evaluation engine.
//!
//! [`EvalEngine`] holds one *committed point* `x` (the flat layout
//! vector) together with every derived quantity the NLP objective
//! needs, and keeps all of it consistent under single-coordinate
//! commits:
//!
//! * `w[i][j]` — the Figure 7 layout-model memo
//!   `apply(specᵢ, xᵢⱼ)`, keyed by the committed fraction;
//! * one competing-rate tree per `(i, j)` — the canonical pairwise sum
//!   of `(Rᵢₖ)·f_kj` over `k ≠ i` (see [`crate::eval::kernel`]), whose
//!   root is the numerator of `χᵢⱼ`;
//! * `µ[i][j]` and the per-target folds `µⱼ`;
//! * capacity column sums `Σᵢ sᵢ·xᵢⱼ` for the AugLag constraints.
//!
//! A *probe* asks for `µⱼ` with `xᵢⱼ := v` without committing: only
//! the trees of column `j` whose leaf `i` actually changes (bitwise)
//! are walked root-ward, and every other `µₖⱼ` cell is served from
//! cache — exact, because identical inputs into deterministic cost
//! models yield identical outputs. That makes a probe
//! O(N + d·(log N + model)) where `d` is object `i`'s overlap degree,
//! instead of the O(N²) of a from-scratch single-target evaluation;
//! the regularizer's and the migration planner's row probes ride on it.
//!
//! Memory: the trees take `N·M · 2·P` f64s (`P = N` rounded up to a
//! power of two) — about 4 MiB at N=128, M=16 — the price of exact
//! O(log N) leaf replacement.

use crate::eval::grad::{self, CrossAdjacency};
use crate::eval::objective::ObjectiveKind;
use crate::eval::stats::EvalStats;
use crate::layout_model::{self, PerTargetWorkload};
use crate::problem::{Layout, LayoutProblem, EPS};
use wasla_solver::{lse_max, softmax_weights};
use wasla_storage::IoKind;

/// When the committed point and an incoming point differ in more than
/// this fraction of coordinates, a full rebuild is cheaper than
/// per-coordinate commits (a rebuild costs 2·N·M model calls; a
/// coordinate commit re-derives up to 2·N of them).
const REBUILD_FRACTION: f64 = 0.25;

/// Incremental evaluator for one [`LayoutProblem`].
pub struct EvalEngine<'a> {
    problem: &'a LayoutProblem,
    n: usize,
    m: usize,
    /// Leaf slots per competing-sum tree: `n` rounded up to a power of
    /// two (the fixed reduction shape of `kernel::pairwise_sum`).
    p: usize,
    stripe: f64,
    /// Rate-weighted overlap rows `Rᵢₖ = rateₖ·Oᵢ[k]`, row-major n×n
    /// (layout-independent).
    rw_overlap: Vec<f64>,
    /// Object sizes, pre-cast to f64.
    sizes: Vec<f64>,
    /// The committed point, row-major n×m.
    x: Vec<f64>,
    /// Layout-model memos for the committed fractions, row-major n×m.
    w: Vec<PerTargetWorkload>,
    /// Heap-layout competing-sum trees: tree `(i, j)` occupies
    /// `[(j*n + i)*2p, (j*n + i + 1)*2p)`; node 1 is the root, leaves
    /// sit at `p..p+n`, and leaf `i` (the self slot) plus the padding
    /// leaves stay `+0.0`.
    trees: Vec<f64>,
    /// Committed `µᵢⱼ` cells, row-major n×m.
    mu: Vec<f64>,
    /// Committed per-target utilizations `µⱼ` (left fold of `mu` in
    /// object order — same fold as `UtilizationEstimator`).
    mu_col: Vec<f64>,
    /// Committed capacity column sums `Σᵢ sᵢ·xᵢⱼ`.
    cap_used: Vec<f64>,
    /// Softmax scratch for the analytic gradient.
    smax: Vec<f64>,
    /// Scratch flat point for [`EvalEngine::set_layout`].
    xbuf: Vec<f64>,
    /// The objective this engine scores for.
    objective: ObjectiveKind,
    /// The objective's per-target penalty weights (layout-independent;
    /// exactly 1.0 under the default `MinMax` objective).
    obj_w: Vec<f64>,
    /// Scratch column for the weighted utilization vector `wⱼ·µⱼ`.
    wcol: Vec<f64>,
    /// Sparse transposed overlap rows for the analytic cross terms
    /// (layout-independent; shared shape with `ScratchEval`).
    cross: CrossAdjacency,
    /// Scratch per-object own-term derivatives for one column.
    grad_du: Vec<f64>,
    /// Scratch per-object contention sensitivities for one column.
    grad_cs: Vec<f64>,
    /// Work counters (cumulative).
    pub stats: EvalStats,
}

impl<'a> EvalEngine<'a> {
    /// Builds the engine for the default min-max objective and commits
    /// the all-zero layout.
    pub fn new(problem: &'a LayoutProblem) -> Self {
        Self::with_objective(problem, ObjectiveKind::MinMax)
    }

    /// Builds the engine scoring for `objective` and commits the
    /// all-zero layout. The utilization caches are objective-agnostic;
    /// only the `score*` family applies the penalty weights.
    pub fn with_objective(problem: &'a LayoutProblem, objective: ObjectiveKind) -> Self {
        let n = problem.n();
        let m = problem.m();
        let p = n.next_power_of_two().max(1);
        let specs = &problem.workloads.specs;
        let rates: Vec<f64> = specs.iter().map(|s| s.total_rate()).collect();
        let mut rw_overlap = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                rw_overlap[i * n + k] = rates[k] * specs[i].overlaps[k];
            }
        }
        let zero_w: Vec<PerTargetWorkload> = (0..n)
            .flat_map(|i| {
                (0..m).map(move |_| layout_model::apply(&specs[i], 0.0, problem.stripe_size))
            })
            .collect();
        let mut engine = EvalEngine {
            problem,
            n,
            m,
            p,
            stripe: problem.stripe_size,
            rw_overlap,
            sizes: problem.workloads.sizes.iter().map(|&s| s as f64).collect(),
            x: vec![0.0; n * m],
            w: zero_w,
            trees: vec![0.0; m * n * 2 * p],
            mu: vec![0.0; n * m],
            mu_col: vec![0.0; m],
            cap_used: vec![0.0; m],
            smax: Vec::with_capacity(m),
            xbuf: vec![0.0; n * m],
            objective,
            obj_w: objective.weights(problem),
            wcol: vec![0.0; m],
            cross: CrossAdjacency::build(specs),
            grad_du: vec![0.0; n],
            grad_cs: vec![0.0; n],
            stats: EvalStats::default(),
        };
        // The zero layout's caches are all zeros already, except the
        // workload memos (set above) — but run one rebuild so the
        // counters and invariants start from a committed state.
        let zeros = vec![0.0; n * m];
        engine.rebuild(&zeros);
        engine.stats = EvalStats::default();
        engine
    }

    /// Number of objects.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of targets.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The objective this engine scores for.
    pub fn objective(&self) -> ObjectiveKind {
        self.objective
    }

    /// The objective's per-target penalty weights.
    pub fn objective_weights(&self) -> &[f64] {
        &self.obj_w
    }

    // hot-closure-begin: everything below runs inside solver
    // objective/gradient closures and must not allocate (ci/check.sh
    // greps this region for allocation idioms).

    /// Recomputes every cache from scratch at `x`. Summation shapes
    /// match the canonical kernel exactly.
    fn rebuild(&mut self, x: &[f64]) {
        self.stats.full_rebuilds += 1;
        let (n, m, p) = (self.n, self.m, self.p);
        self.x.copy_from_slice(x);
        let specs = &self.problem.workloads.specs;
        for i in 0..n {
            for j in 0..m {
                self.w[i * m + j] = layout_model::apply(&specs[i], x[i * m + j], self.stripe);
            }
        }
        for j in 0..m {
            for i in 0..n {
                let base = (j * n + i) * 2 * p;
                for l in 0..p {
                    self.trees[base + p + l] = if l >= n || l == i {
                        0.0
                    } else {
                        let f = x[l * m + j];
                        if f <= EPS {
                            0.0
                        } else {
                            self.rw_overlap[i * n + l] * f
                        }
                    };
                }
                for v in (1..p).rev() {
                    self.trees[base + v] = self.trees[base + 2 * v] + self.trees[base + 2 * v + 1];
                }
            }
        }
        for i in 0..n {
            for j in 0..m {
                self.mu[i * m + j] = self.mu_committed(i, j);
            }
        }
        for j in 0..m {
            self.refold_column(j);
        }
    }

    /// `µᵢⱼ` from the committed fraction, memo, and tree root.
    fn mu_committed(&mut self, i: usize, j: usize) -> f64 {
        let f = self.x[i * self.m + j];
        let w = self.w[i * self.m + j];
        let competing = self.trees[(j * self.n + i) * 2 * self.p + 1];
        self.mu_value(j, f, &w, competing)
    }

    /// Eq. 1 for one cell given its fraction, layout-model memo, and
    /// competing-rate sum. Gate order matches
    /// `UtilizationEstimator::object_target_utilization` exactly.
    fn mu_value(&mut self, j: usize, f: f64, w: &PerTargetWorkload, competing: f64) -> f64 {
        if f <= EPS {
            return 0.0;
        }
        let own = w.total_rate();
        if own <= 0.0 {
            return 0.0;
        }
        let chi = competing / own;
        self.stats.cost_model_calls += 2;
        let model = &self.problem.models[j];
        w.read_rate * model.request_cost(IoKind::Read, w.read_size, w.run_count, chi)
            + w.write_rate * model.request_cost(IoKind::Write, w.write_size, w.run_count, chi)
    }

    /// Recomputes `µⱼ` and the capacity column sum of target `j` as
    /// fresh object-order left folds (the estimator's association).
    fn refold_column(&mut self, j: usize) {
        let mut mu_sum = 0.0;
        let mut used = 0.0;
        for i in 0..self.n {
            mu_sum += self.mu[i * self.m + j];
            used += self.sizes[i] * self.x[i * self.m + j];
        }
        self.mu_col[j] = mu_sum;
        self.cap_used[j] = used;
    }

    /// Commits `x` as the current point. Bit-unchanged coordinates
    /// cost nothing; a handful of changes commit incrementally; a
    /// mostly-new point triggers a full rebuild.
    pub fn set_point(&mut self, x: &[f64]) {
        debug_assert_eq!(x.len(), self.n * self.m);
        let mut changed = 0usize;
        for (a, b) in x.iter().zip(&self.x) {
            if a.to_bits() != b.to_bits() {
                changed += 1;
            }
        }
        if changed == 0 {
            return;
        }
        if (changed as f64) > REBUILD_FRACTION * (self.n * self.m) as f64 {
            self.rebuild(x);
            return;
        }
        for c in 0..x.len() {
            if x[c].to_bits() != self.x[c].to_bits() {
                self.commit_coord(c / self.m, c % self.m, x[c]);
            }
        }
    }

    /// Commits a single coordinate `xᵢⱼ := v`, updating leaf `i` of
    /// every tree in column `j`, the affected `µ` cells, and the
    /// column folds. The resulting caches are bitwise identical to a
    /// full rebuild at the new point (caches are pure functions of the
    /// committed point; see DESIGN.md §10).
    fn commit_coord(&mut self, i: usize, j: usize, v: f64) {
        self.stats.coord_commits += 1;
        let (n, m, p) = (self.n, self.m, self.p);
        self.w[i * m + j] = layout_model::apply(&self.problem.workloads.specs[i], v, self.stripe);
        self.x[i * m + j] = v;
        for k in 0..n {
            if k == i {
                continue;
            }
            let base = (j * n + k) * 2 * p;
            let leaf = if v <= EPS {
                0.0
            } else {
                self.rw_overlap[k * n + i] * v
            };
            if leaf.to_bits() == self.trees[base + p + i].to_bits() {
                self.stats.mu_reuses += 1;
                continue; // χₖⱼ unchanged → µₖⱼ unchanged
            }
            let mut node = p + i;
            self.trees[base + node] = leaf;
            while node > 1 {
                let parent = node / 2;
                self.trees[base + parent] =
                    self.trees[base + 2 * parent] + self.trees[base + 2 * parent + 1];
                self.stats.term_updates += 1;
                node = parent;
            }
            self.mu[k * m + j] = self.mu_committed(k, j);
        }
        // Object i's own cell: its tree excludes leaf i, so the cached
        // root is still exact; only the memo and fraction changed.
        self.mu[i * m + j] = self.mu_committed(i, j);
        self.refold_column(j);
    }

    /// `µⱼ` with `xᵢⱼ := v`, *without* committing. O(N) scan over
    /// cached cells, plus an O(log N) root-path refold and two model
    /// calls per tree whose leaf actually changes.
    pub fn probe_coord(&mut self, i: usize, j: usize, v: f64) -> f64 {
        self.stats.column_probes += 1;
        let (n, m, p) = (self.n, self.m, self.p);
        if v.to_bits() == self.x[i * m + j].to_bits() {
            return self.mu_col[j];
        }
        let mut sum = 0.0;
        for k in 0..n {
            let mu_kj = if k == i {
                // Own cell under the perturbed fraction: the tree
                // `(i, j)` has no leaf i, so its cached root is the
                // competing sum of the perturbed layout too.
                if v <= EPS {
                    0.0
                } else {
                    let w = layout_model::apply(&self.problem.workloads.specs[i], v, self.stripe);
                    let competing = self.trees[(j * n + i) * 2 * p + 1];
                    self.mu_value(j, v, &w, competing)
                }
            } else {
                let f_kj = self.x[k * m + j];
                let w = self.w[k * m + j];
                if f_kj <= EPS || w.total_rate() <= 0.0 {
                    self.stats.mu_reuses += 1;
                    self.mu[k * m + j] // gated: 0.0 regardless of χ
                } else {
                    let base = (j * n + k) * 2 * p;
                    let leaf = if v <= EPS {
                        0.0
                    } else {
                        self.rw_overlap[k * n + i] * v
                    };
                    if leaf.to_bits() == self.trees[base + p + i].to_bits() {
                        self.stats.mu_reuses += 1;
                        self.mu[k * m + j]
                    } else {
                        // Refold the root along leaf i's path, keeping
                        // every sibling in its original operand slot.
                        let mut node = p + i;
                        let mut val = leaf;
                        while node > 1 {
                            let sib = self.trees[base + (node ^ 1)];
                            val = if node & 1 == 0 { val + sib } else { sib + val };
                            self.stats.term_updates += 1;
                            node /= 2;
                        }
                        self.mu_value(j, f_kj, &w, val)
                    }
                }
            };
            sum += mu_kj;
        }
        sum
    }

    /// Per-target utilizations with row `i` replaced by `row`,
    /// without committing. Exact only when the candidate layout
    /// differs from the committed point in row `i` alone.
    pub fn probe_row(&mut self, i: usize, row: &[f64], out: &mut [f64]) {
        for j in 0..self.m {
            out[j] = if row[j].to_bits() == self.x[i * self.m + j].to_bits() {
                self.mu_col[j]
            } else {
                self.probe_coord(i, j, row[j])
            };
        }
    }

    /// Commits a whole row (bit-changed coordinates only).
    pub fn commit_row(&mut self, i: usize, row: &[f64]) {
        for j in 0..self.m {
            if row[j].to_bits() != self.x[i * self.m + j].to_bits() {
                self.commit_coord(i, j, row[j]);
            }
        }
    }

    /// The utilization vector at the committed point.
    pub fn committed_utilizations(&self) -> &[f64] {
        &self.mu_col
    }

    /// Total load `Σⱼ µᵢⱼ` of object `i` at the committed point (the
    /// regularizer's ordering key, §4.3).
    pub fn object_load(&self, i: usize) -> f64 {
        (0..self.m).map(|j| self.mu[i * self.m + j]).sum()
    }

    /// Commits `x` and returns the cached capacity column sum
    /// `Σᵢ sᵢ·xᵢⱼ` — the AugLag constraint evaluations ride on this
    /// instead of refolding per call.
    pub fn capacity_used(&mut self, x: &[f64], j: usize) -> f64 {
        self.set_point(x);
        self.cap_used[j]
    }

    // --- objective-weighted scoring -------------------------------
    //
    // Every score scales µⱼ by the objective's penalty weight wⱼ. The
    // weights are layout-independent, so every probe/commit law above
    // carries over; under the default MinMax objective wⱼ = 1.0 and
    // `x * 1.0` is bitwise `x`, so a score is bit-identical to the
    // unweighted max utilization.

    /// Fills the weighted-utilization scratch from the committed
    /// columns.
    fn refill_wcol(&mut self) {
        for j in 0..self.m {
            self.wcol[j] = self.obj_w[j] * self.mu_col[j];
        }
    }

    /// Commits `x` and returns the smoothed score
    /// `lse_max(w·µ, temp)`.
    pub fn lse_score(&mut self, x: &[f64], temp: f64) -> f64 {
        self.set_point(x);
        self.stats.objective_evals += 1;
        self.refill_wcol();
        lse_max(&self.wcol, temp)
    }

    /// Commits `x` and returns the raw score `max_j wⱼ·µⱼ`.
    pub fn score_at(&mut self, x: &[f64]) -> f64 {
        self.set_point(x);
        self.stats.objective_evals += 1;
        self.committed_score()
    }

    /// `max_j wⱼ·µⱼ` at the committed point.
    pub fn committed_score(&self) -> f64 {
        self.mu_col
            .iter()
            .zip(&self.obj_w)
            .fold(0.0, |acc, (&mu, &w)| acc.max(w * mu))
    }

    /// The analytic gradient of the smoothed score at `x`: exact
    /// partials of `lse_max(w·µ, temp)` by the chain rule through the
    /// cost model's per-cell slopes ([`grad::cell_grad`]) — zero
    /// objective probes, O(N·M + nnz(overlap)·M) work. Matches the
    /// from-scratch `ScratchEval::grad_at` bit-for-bit: both read the
    /// canonical competing sums and accumulate cross terms through the
    /// same [`CrossAdjacency`] rows. See DESIGN.md §15.
    pub fn grad_at(&mut self, x: &[f64], temp: f64, g: &mut [f64]) {
        self.set_point(x);
        self.stats.gradient_evals += 1;
        self.stats.grad_analytic_passes += 1;
        self.refill_wcol();
        softmax_weights(&self.wcol, temp, &mut self.smax);
        let (n, m, p) = (self.n, self.m, self.p);
        for j in 0..m {
            let sw_j = self.smax[j] * self.obj_w[j];
            for k in 0..n {
                let f = self.x[k * m + j];
                let competing = self.trees[(j * n + k) * 2 * p + 1];
                let cg = grad::cell_grad(
                    &*self.problem.models[j],
                    &self.problem.workloads.specs[k],
                    f,
                    competing,
                    self.stripe,
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

    /// `max_j wⱼ·µⱼ` with row `i` replaced by `row`, without
    /// committing (the regularizer's candidate score).
    pub fn probe_row_score(&mut self, i: usize, row: &[f64]) -> f64 {
        let mut best = 0.0f64;
        for j in 0..self.m {
            let mu_j = if row[j].to_bits() == self.x[i * self.m + j].to_bits() {
                self.mu_col[j]
            } else {
                self.probe_coord(i, j, row[j])
            };
            best = best.max(self.obj_w[j] * mu_j);
        }
        best
    }

    // hot-closure-end

    /// Commits a [`Layout`] (convenience for the regularizer).
    pub fn set_layout(&mut self, layout: &Layout) {
        let mut xb = std::mem::take(&mut self.xbuf);
        for i in 0..self.n {
            for j in 0..self.m {
                xb[i * self.m + j] = layout.get(i, j);
            }
        }
        self.set_point(&xb);
        self.xbuf = xb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::UtilizationEstimator;
    use crate::eval::objective::max_of;
    use std::sync::Arc;
    use wasla_model::CostModel;
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
                        0.3 + 0.1 * ((i + k) % 3) as f64
                    }
                })
                .collect(),
        };
        LayoutProblem {
            workloads: WorkloadSet {
                names: (0..n).map(|i| format!("o{i}")).collect(),
                sizes: (0..n).map(|i| 1000 + 100 * i as u64).collect(),
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
    fn committed_state_matches_estimator() {
        let p = problem(5, 3);
        let est = UtilizationEstimator::new(&p);
        let x = flat(5, 3, 11);
        let mut engine = EvalEngine::new(&p);
        engine.set_point(&x);
        let layout = Layout::from_flat(&x, 5, 3);
        let want = est.utilizations(&layout);
        for (a, b) in engine.committed_utilizations().iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            max_of(engine.committed_utilizations()).to_bits(),
            est.max_utilization(&layout).to_bits()
        );
        for i in 0..5 {
            assert_eq!(
                engine.object_load(i).to_bits(),
                est.object_load(&layout, i).to_bits()
            );
        }
    }

    #[test]
    fn incremental_commit_equals_rebuild() {
        let p = problem(6, 4);
        let mut a = EvalEngine::new(&p);
        let mut b = EvalEngine::new(&p);
        let x0 = flat(6, 4, 3);
        a.set_point(&x0);
        b.set_point(&x0);
        // Perturb one coordinate: `a` commits incrementally, `b` is
        // forced through a rebuild.
        let mut x1 = x0.clone();
        x1[7] = 0.42;
        a.set_point(&x1);
        b.rebuild(&x1);
        for (u, v) in a.mu.iter().zip(&b.mu) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        for (u, v) in a.mu_col.iter().zip(&b.mu_col) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        for (u, v) in a.trees.iter().zip(&b.trees) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        assert!(a.stats.coord_commits >= 1);
    }

    #[test]
    fn probe_matches_estimator_on_modified_layout() {
        let p = problem(5, 3);
        let est = UtilizationEstimator::new(&p);
        let x = flat(5, 3, 29);
        let mut engine = EvalEngine::new(&p);
        engine.set_point(&x);
        for (i, j, v) in [(0, 0, 0.9), (2, 1, 0.0), (4, 2, 1e-9), (3, 0, 0.33)] {
            let got = engine.probe_coord(i, j, v);
            let mut xm = x.clone();
            xm[i * 3 + j] = v;
            let lm = Layout::from_flat(&xm, 5, 3);
            let want = est.target_utilization(&lm, j);
            assert_eq!(got.to_bits(), want.to_bits(), "probe ({i},{j})={v}");
        }
        // Probing must not have disturbed the committed state.
        let layout = Layout::from_flat(&x, 5, 3);
        for (a, b) in engine
            .committed_utilizations()
            .iter()
            .zip(&est.utilizations(&layout))
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn probe_row_matches_estimator() {
        let p = problem(4, 3);
        let est = UtilizationEstimator::new(&p);
        let x = flat(4, 3, 5);
        let mut engine = EvalEngine::new(&p);
        engine.set_point(&x);
        let row = [0.2, 0.0, 0.8];
        let mut out = [0.0; 3];
        engine.probe_row(1, &row, &mut out);
        let mut xm = x.clone();
        xm[3..6].copy_from_slice(&row);
        let lm = Layout::from_flat(&xm, 4, 3);
        for (j, v) in out.iter().enumerate() {
            assert_eq!(v.to_bits(), est.target_utilization(&lm, j).to_bits());
        }
        assert_eq!(
            engine.probe_row_score(1, &row).to_bits(),
            est.max_utilization(&lm).to_bits()
        );
    }

    #[test]
    fn capacity_column_sum_matches_direct_fold() {
        let p = problem(4, 3);
        let x = flat(4, 3, 17);
        let mut engine = EvalEngine::new(&p);
        for j in 0..3 {
            let want: f64 = (0..4)
                .map(|i| p.workloads.sizes[i] as f64 * x[i * 3 + j])
                .sum();
            assert_eq!(engine.capacity_used(&x, j).to_bits(), want.to_bits());
        }
    }
}
