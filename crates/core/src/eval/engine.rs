//! The incremental evaluation engine.
//!
//! [`EvalEngine`] holds one *committed point* `x` (the flat layout
//! vector) together with every derived quantity the NLP objective
//! needs, and keeps all of it consistent under single-coordinate
//! commits:
//!
//! * `w[i][j]` — the Figure 7 layout-model memo
//!   `apply(specᵢ, xᵢⱼ)`, keyed by the committed fraction;
//! * `comp[i][j]` — the competing-rate sum `Σ_{k≠i} Rᵢₖ·f_kj`, the
//!   numerator of `χᵢⱼ`, folded by
//!   [`sparse_pairwise_sum`](crate::eval::kernel::sparse_pairwise_sum)
//!   over object `i`'s live forward-adjacency leaves — the same bits
//!   as the canonical pairwise kernel over all `P` slots, in
//!   O(deg(i)) instead of O(P);
//! * `µ[i][j]` and the per-target folds `µⱼ`;
//! * capacity column sums `Σᵢ sᵢ·xᵢⱼ` for the AugLag constraints;
//! * per column, the sorted list of live objects (`xᵢⱼ > EPS`).
//!
//! A commit `xᵢⱼ := v` refolds `comp[k][j]` only for the objects `k`
//! that overlap object `i` (the rows of [`CrossAdjacency`]) and only
//! where the leaf's bits actually change; the changes of one column
//! are committed together, so each such sum is refolded once. A *probe* asks for `µⱼ`
//! with `xᵢⱼ := v` without committing: it folds `µ` over the column's
//! live objects plus `i` in object order, refolding the competing sum
//! of each live neighbour of `i` with leaf `i` substituted, and serves
//! every other cell from cache — exact, because gated cells are
//! exactly `0.0` in the fold and identical inputs into deterministic
//! cost models yield identical outputs. That makes a probe
//! O(live + Σ deg) with no dependence on N. A small per-column memo,
//! keyed by the probed row and the value's bits and cleared whenever
//! the column commits, answers the regularizer's repeated candidate
//! values without refolding.
//!
//! Memory: O(N·M + nnz(overlap)) — no state scales with `N²·M`.

use crate::eval::grad::{self, CrossAdjacency};
use crate::eval::kernel::sparse_pairwise_sum;
use crate::eval::objective::ObjectiveKind;
use crate::eval::stats::EvalStats;
use crate::layout_model::{self, PerTargetWorkload};
use crate::problem::{Layout, LayoutProblem, EPS};
use std::ops::Range;
use wasla_model::CostModel;
use wasla_solver::{lse_max, softmax_weights};
use wasla_storage::IoKind;

/// When the committed point and an incoming point differ in more than
/// this fraction of coordinates, a full rebuild is cheaper than
/// per-coordinate commits (a rebuild costs 2·N·M model calls; a
/// coordinate commit re-derives up to 2·N of them).
const REBUILD_FRACTION: f64 = 0.25;

/// Upper bound on the probe-memo entries kept per column.
const MEMO_SLOTS_MAX: usize = 64;

/// `pending` flag: the object's cell is in `queued`.
const QUEUED: u8 = 1;
/// `pending` flag: the object's competing sum must be refolded.
const STALE: u8 = 2;

/// Incremental evaluator for one [`LayoutProblem`].
pub struct EvalEngine<'a> {
    problem: &'a LayoutProblem,
    n: usize,
    m: usize,
    stripe: f64,
    /// Object sizes, pre-cast to f64.
    sizes: Vec<f64>,
    /// The committed point, row-major n×m.
    x: Vec<f64>,
    /// Layout-model memos for the committed fractions, row-major n×m.
    w: Vec<PerTargetWorkload>,
    /// Committed competing-rate sums, row-major n×m: cell `(i, j)` is
    /// the canonical pairwise sum of the gated leaves `Rᵢₖ·f_kj`.
    comp: Vec<f64>,
    /// Committed `µᵢⱼ` cells, row-major n×m.
    mu: Vec<f64>,
    /// Committed per-target utilizations `µⱼ` (left fold of `mu` in
    /// object order — same fold as `UtilizationEstimator`).
    mu_col: Vec<f64>,
    /// Committed capacity column sums `Σᵢ sᵢ·xᵢⱼ`.
    cap_used: Vec<f64>,
    /// Per column, the objects whose committed fraction passes the
    /// `EPS` gate, ascending (capacity `n`, so re-listing never
    /// allocates).
    live: Vec<Vec<u32>>,
    /// Per column, memoized probe results `(value bits, µⱼ)` for the
    /// row in `memo_row`; emptied when the column commits.
    memo: Vec<Vec<(u64, f64)>>,
    /// Per column, the row the memo entries belong to.
    memo_row: Vec<usize>,
    /// Entries kept per column memo; further results are not stored.
    memo_slots: usize,
    /// Cells of the column being committed that need re-deriving, in
    /// queue order (capacity `n`).
    queued: Vec<u32>,
    /// Per object, the `QUEUED`/`STALE` flags of that commit.
    pending: Vec<u8>,
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
    /// Forward overlap rows `(k, Rᵢₖ = rateₖ·Oᵢ[k])`: the leaves of each
    /// competing sum (layout-independent).
    fwd: CrossAdjacency,
    /// Transposed overlap rows `(k, R_ki)`: the competing sums a change
    /// of `xᵢⱼ` reaches, and the analytic cross terms
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
        let specs = &problem.workloads.specs;
        let zero_w: Vec<PerTargetWorkload> = (0..n)
            .flat_map(|i| {
                (0..m).map(move |_| layout_model::apply(&specs[i], 0.0, problem.stripe_size))
            })
            .collect();
        // The regularizer's spread candidates put at most m + 1 distinct
        // fractions (0 and 1/k, k ≤ m) into one cell of the probed row.
        let memo_slots = (m + 2).min(MEMO_SLOTS_MAX);
        let mut engine = EvalEngine {
            problem,
            n,
            m,
            stripe: problem.stripe_size,
            sizes: problem.workloads.sizes.iter().map(|&s| s as f64).collect(),
            x: vec![0.0; n * m],
            w: zero_w,
            comp: vec![0.0; n * m],
            mu: vec![0.0; n * m],
            mu_col: vec![0.0; m],
            cap_used: vec![0.0; m],
            live: (0..m).map(|_| Vec::with_capacity(n)).collect(),
            memo: (0..m).map(|_| Vec::with_capacity(memo_slots)).collect(),
            memo_row: vec![usize::MAX; m],
            memo_slots,
            queued: Vec::with_capacity(n),
            pending: vec![0; n],
            smax: Vec::with_capacity(m),
            xbuf: vec![0.0; n * m],
            objective,
            obj_w: objective.weights(problem),
            wcol: vec![0.0; m],
            fwd: CrossAdjacency::forward(specs),
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

    // hot-closure-begin: everything below runs inside solver
    // objective/gradient closures and must not allocate (ci/check.sh
    // greps this region for allocation idioms).

    /// Recomputes every cache from scratch at `x`: O(nnz·M) leaf reads
    /// plus 2·N·M model calls.
    fn rebuild(&mut self, x: &[f64]) {
        self.stats.full_rebuilds += 1;
        let (n, m) = (self.n, self.m);
        self.x.copy_from_slice(x);
        let specs = &self.problem.workloads.specs;
        for i in 0..n {
            for j in 0..m {
                self.w[i * m + j] = layout_model::apply(&specs[i], x[i * m + j], self.stripe);
            }
        }
        for i in 0..n {
            let row = self.fwd.row(i);
            for j in 0..m {
                self.comp[i * m + j] = competing(row, &self.x, m, j, usize::MAX, 0.0);
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

    /// `µᵢⱼ` from the committed fraction, memo, and competing sum.
    fn mu_committed(&mut self, i: usize, j: usize) -> f64 {
        let c = i * self.m + j;
        mu_value(
            &*self.problem.models[j],
            &mut self.stats,
            self.x[c],
            &self.w[c],
            self.comp[c],
        )
    }

    /// Recomputes `µⱼ` and the capacity column sum of target `j` as
    /// fresh object-order left folds (the estimator's association),
    /// re-lists the column's live objects and drops its probe memo.
    /// The capacity sum stays dense: fractions in `(0, EPS]` are gated
    /// out of `µ` but still occupy space.
    fn refold_column(&mut self, j: usize) {
        let mut mu_sum = 0.0;
        let mut used = 0.0;
        let live = &mut self.live[j];
        live.clear();
        for i in 0..self.n {
            let f = self.x[i * self.m + j];
            mu_sum += self.mu[i * self.m + j];
            used += self.sizes[i] * f;
            if is_live(f) {
                live.push(i as u32);
            }
        }
        self.mu_col[j] = mu_sum;
        self.cap_used[j] = used;
        self.memo[j].clear();
    }

    /// Commits `x` as the current point. Bit-unchanged coordinates
    /// cost nothing; a handful of changes commit incrementally, column
    /// by column; a mostly-new point triggers a full rebuild.
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
        let m = self.m;
        for j in 0..m {
            self.commit_column(j, 0..self.n, |i| x[i * m + j]);
        }
    }

    /// Commits `xᵢⱼ := new(i)` for every bit-changed coordinate of
    /// column `j` with `i` in `rows`. Each competing sum one of them
    /// feeds is refolded once, however many of its leaves changed,
    /// and only if some leaf changed bits; then the `µ` cells of the
    /// changed and refolded objects are re-derived, and the column
    /// folds, live list and memo refreshed. The resulting caches are
    /// bitwise identical to a full rebuild at the new point (caches
    /// are pure functions of the committed point; see DESIGN.md §10).
    fn commit_column(&mut self, j: usize, rows: Range<usize>, new: impl Fn(usize) -> f64) {
        let m = self.m;
        for i in rows {
            let c = i * m + j;
            let (old, v) = (self.x[c], new(i));
            if v.to_bits() == old.to_bits() {
                continue;
            }
            self.stats.coord_commits += 1;
            self.w[c] = layout_model::apply(&self.problem.workloads.specs[i], v, self.stripe);
            self.x[c] = v;
            // Object i's own competing sum has no leaf i; only its
            // layout-model memo and fraction changed.
            queue(&mut self.queued, &mut self.pending, i, QUEUED);
            for &(k, r) in self.cross.row(i) {
                if leaf(r, old).to_bits() == leaf(r, v).to_bits() {
                    self.stats.mu_reuses += 1; // χₖⱼ unchanged by this leaf
                } else {
                    queue(
                        &mut self.queued,
                        &mut self.pending,
                        k as usize,
                        QUEUED | STALE,
                    );
                }
            }
        }
        if self.queued.is_empty() {
            return;
        }
        let model = &*self.problem.models[j];
        for q in 0..self.queued.len() {
            let k = self.queued[q] as usize;
            let c = k * m + j;
            if self.pending[k] & STALE != 0 {
                self.stats.term_updates += 1;
                self.comp[c] = competing(self.fwd.row(k), &self.x, m, j, usize::MAX, 0.0);
            }
            self.pending[k] = 0;
            self.mu[c] = mu_value(model, &mut self.stats, self.x[c], &self.w[c], self.comp[c]);
        }
        self.queued.clear();
        self.refold_column(j);
    }

    /// `µⱼ` with `xᵢⱼ := v`, *without* committing. Served from the
    /// column's memo when row `i` was already probed at `v`; otherwise
    /// O(live + Σ deg) (see [`EvalEngine::probe_column`]).
    pub fn probe_coord(&mut self, i: usize, j: usize, v: f64) -> f64 {
        self.stats.column_probes += 1;
        if v.to_bits() == self.x[i * self.m + j].to_bits() {
            return self.mu_col[j];
        }
        let bits = v.to_bits();
        if self.memo_row[j] == i {
            if let Some(&(_, mu)) = self.memo[j].iter().find(|e| e.0 == bits) {
                return mu;
            }
        } else {
            self.memo[j].clear();
            self.memo_row[j] = i;
        }
        let mu = self.probe_column(i, j, v);
        if self.memo[j].len() < self.memo_slots {
            self.memo[j].push((bits, mu));
        }
        mu
    }

    /// The uncached probe: a left fold of `µ` over the column's live
    /// objects with object `i`'s cell replaced, in object order. Gated
    /// cells are exactly `0.0` in the dense fold, so skipping them
    /// keeps the bits. A live neighbour `k` of `i` whose leaf `i`
    /// changes bits gets its competing sum refolded with `v`
    /// substituted (O(deg k)) and two model calls; every other live
    /// cell is read from cache.
    fn probe_column(&mut self, i: usize, j: usize, v: f64) -> f64 {
        let m = self.m;
        let old = self.x[i * m + j];
        let model = &*self.problem.models[j];
        // Own cell under the perturbed fraction: `comp[i][j]` has no
        // leaf i, so it is the competing sum of the perturbed layout
        // too.
        let own = if v <= EPS {
            0.0
        } else {
            let w = layout_model::apply(&self.problem.workloads.specs[i], v, self.stripe);
            mu_value(model, &mut self.stats, v, &w, self.comp[i * m + j])
        };
        let mut own_pending = is_live(v);
        let adj = self.cross.row(i);
        let mut a = 0;
        let mut sum = 0.0;
        for &k in &self.live[j] {
            if k as usize == i {
                continue;
            }
            if own_pending && k as usize > i {
                sum += own;
                own_pending = false;
            }
            while a < adj.len() && adj[a].0 < k {
                a += 1;
            }
            let c = k as usize * m + j;
            let touched = a < adj.len()
                && adj[a].0 == k
                && self.w[c].total_rate() > 0.0
                && leaf(adj[a].1, old).to_bits() != leaf(adj[a].1, v).to_bits();
            sum += if touched {
                self.stats.term_updates += 1;
                let comp = competing(self.fwd.row(k as usize), &self.x, m, j, i, v);
                mu_value(model, &mut self.stats, self.x[c], &self.w[c], comp)
            } else {
                self.stats.mu_reuses += 1;
                self.mu[c]
            };
        }
        if own_pending {
            sum += own;
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
        for (j, &v) in row.iter().enumerate() {
            self.commit_column(j, i..i + 1, |_| v);
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
        let (n, m) = (self.n, self.m);
        for j in 0..m {
            let sw_j = self.smax[j] * self.obj_w[j];
            for k in 0..n {
                let cg = grad::cell_grad(
                    &*self.problem.models[j],
                    &self.problem.workloads.specs[k],
                    self.x[k * m + j],
                    self.comp[k * m + j],
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

/// Whether a fraction passes the Figure 7 gate: the negation of the
/// `f ≤ EPS` gate, so a NaN fraction stays in the fold exactly as in
/// the dense kernel.
#[inline]
fn is_live(f: f64) -> bool {
    f > EPS || f.is_nan()
}

/// The competing-sum leaf `Rₖᵢ·f` of a fraction `f` (`+0.0` when
/// gated).
#[inline]
fn leaf(r: f64, f: f64) -> f64 {
    if f <= EPS {
        0.0
    } else {
        r * f
    }
}

// hot-closure-begin: the per-cell kernels of every commit and probe.

/// Queues object `k`'s cell of the column being committed for a `µ`
/// re-derivation (`flags` holds `QUEUED`, plus `STALE` if its competing
/// sum must be refolded too).
#[inline]
fn queue(queued: &mut Vec<u32>, pending: &mut [u8], k: usize, flags: u8) {
    if pending[k] & QUEUED == 0 {
        queued.push(k as u32);
    }
    pending[k] |= flags;
}

/// The competing-rate sum of one object in column `j`: the sparse
/// canonical fold of its forward row's live leaves `Rₖₗ·f_lj`, with
/// object `sub`'s fraction read as `v` instead of the committed one
/// (`sub = usize::MAX` substitutes nothing).
#[inline]
fn competing(row: &[(u32, f64)], x: &[f64], m: usize, j: usize, sub: usize, v: f64) -> f64 {
    sparse_pairwise_sum(row.iter().filter_map(|&(l, r)| {
        let l = l as usize;
        let f = if l == sub { v } else { x[l * m + j] };
        is_live(f).then_some((l, r * f))
    }))
}

/// Eq. 1 for one cell given its fraction, layout-model memo, and
/// competing-rate sum. Gate order matches
/// `UtilizationEstimator::object_target_utilization` exactly.
fn mu_value(
    model: &dyn CostModel,
    stats: &mut EvalStats,
    f: f64,
    w: &PerTargetWorkload,
    competing: f64,
) -> f64 {
    if f <= EPS {
        return 0.0;
    }
    let own = w.total_rate();
    if own <= 0.0 {
        return 0.0;
    }
    let chi = competing / own;
    stats.cost_model_calls += 2;
    w.read_rate * model.request_cost(IoKind::Read, w.read_size, w.run_count, chi)
        + w.write_rate * model.request_cost(IoKind::Write, w.write_size, w.run_count, chi)
}

// hot-closure-end

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

    /// `problem(n, m)` with asymmetric overlaps (`Oᵢ[k] ≠ Oₖ[i]`, some
    /// one-sided zeros) and a zero-rate object, so the forward and
    /// transposed adjacencies differ in shape.
    fn asymmetric_problem(n: usize, m: usize) -> LayoutProblem {
        let mut p = problem(n, m);
        for (i, spec) in p.workloads.specs.iter_mut().enumerate() {
            for (k, o) in spec.overlaps.iter_mut().enumerate() {
                *o = if k == i || (i + 2 * k) % 5 == 0 {
                    0.0
                } else {
                    0.1 + 0.07 * ((3 * i + k) % 7) as f64
                };
            }
        }
        let idle = &mut p.workloads.specs[n / 2];
        idle.read_rate = 0.0;
        idle.write_rate = 0.0;
        p
    }

    fn assert_same_caches(a: &EvalEngine, b: &EvalEngine) {
        for (u, v) in a.comp.iter().zip(&b.comp) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        for (u, v) in a.mu.iter().zip(&b.mu) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        for (u, v) in a.mu_col.iter().zip(&b.mu_col) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        assert_eq!(a.live, b.live);
    }

    #[test]
    fn incremental_commit_equals_rebuild() {
        for (p, n, m) in [(problem(6, 4), 6, 4), (asymmetric_problem(7, 3), 7, 3)] {
            let mut a = EvalEngine::new(&p);
            let mut b = EvalEngine::new(&p);
            let mut x = flat(n, m, 3);
            a.set_point(&x);
            b.set_point(&x);
            let before = a.stats;
            // Perturb single coordinates, gating some out and back in:
            // `a` commits incrementally, `b` is forced through a rebuild.
            for (c, v) in [
                (7, 0.42),
                (2, 0.0),
                (m + 1, 1e-12),
                (2, 0.7),
                (n * m - 1, 0.0),
            ] {
                x[c] = v;
                a.set_point(&x);
                b.rebuild(&x);
                assert_same_caches(&a, &b);
            }
            // Several coordinates of one column in one commit.
            for (i, v) in [(0, 0.3), (1, 0.0), (4, 0.9)] {
                x[i * m + 1] = v;
            }
            a.set_point(&x);
            b.rebuild(&x);
            assert_same_caches(&a, &b);
            let d = a.stats.since(&before);
            assert_eq!((d.coord_commits, d.full_rebuilds), (8, 0));
        }
    }

    #[test]
    fn competing_sums_match_estimator_on_asymmetric_overlaps() {
        let p = asymmetric_problem(7, 3);
        let est = UtilizationEstimator::new(&p);
        let mut x = flat(7, 3, 41);
        x[4] = 0.0;
        let layout = Layout::from_flat(&x, 7, 3);
        let mut engine = EvalEngine::new(&p);
        engine.set_point(&x);
        for i in 0..7 {
            for j in 0..3 {
                assert_eq!(
                    engine.comp[i * 3 + j].to_bits(),
                    est.competing(&layout, i, j).to_bits(),
                    "competing sum ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn memoized_probe_repeats_bits_until_the_column_commits() {
        let p = asymmetric_problem(6, 3);
        let est = UtilizationEstimator::new(&p);
        let mut x = flat(6, 3, 13);
        let mut engine = EvalEngine::new(&p);
        engine.set_point(&x);
        let first = engine.probe_coord(1, 2, 0.5);
        let calls = engine.stats.cost_model_calls;
        assert_eq!(engine.probe_coord(1, 2, 0.5).to_bits(), first.to_bits());
        assert_eq!(engine.stats.cost_model_calls, calls, "memo hit is free");
        // Committing another row of the column invalidates the memo.
        x[4 * 3 + 2] = 0.9;
        engine.set_point(&x);
        let got = engine.probe_coord(1, 2, 0.5);
        let mut xm = x.clone();
        xm[3 + 2] = 0.5;
        let want = est.target_utilization(&Layout::from_flat(&xm, 6, 3), 2);
        assert_eq!(got.to_bits(), want.to_bits());
        assert!(engine.stats.cost_model_calls > calls);
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
