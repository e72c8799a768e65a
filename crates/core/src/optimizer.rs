//! The NLP solve step (paper §4.1).
//!
//! The layout problem — minimize `max_j µⱼ(L)` subject to integrity and
//! capacity constraints — is a non-convex NLP whose objective calls
//! black-box cost models. The paper hands it to MINOS; we solve it with
//! projected-gradient descent:
//!
//! * each object's row lives on a probability simplex → exact
//!   projection handles the integrity constraint (pinned/forbidden
//!   targets are folded into the projection);
//! * the coupling capacity constraints go through an augmented-
//!   Lagrangian outer loop;
//! * the `max` is smoothed by log-sum-exp with an annealed temperature;
//! * gradients are exact: where MINOS differences its black-box
//!   objectives numerically, the [`EvalEngine`] differentiates the
//!   cost models analytically in one pass (DESIGN.md §15).
//!
//! A simulated-annealing alternative (`SolveMethod::Anneal`) is kept
//! for ablation, mirroring the paper's §7 remark that a DAD-style
//! randomized search could replace the NLP solver.

use crate::eval::{max_of, EvalEngine, EvalStats, ObjectiveKind};
use crate::problem::{AdminConstraint, Layout, LayoutProblem};
use std::cell::RefCell;
use std::sync::Mutex;
use wasla_simlib::par;
use wasla_solver::{
    project_simplex, AnnealOptions, AnnealSolver, AugLagOptions, Constraint, MultistartError,
    ObjectiveFn, ObjectiveGradFn, PgOptions, ProjectedGradientSolver, SolveSpec, Solver,
};

/// Which search engine drives the solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveMethod {
    /// Projected gradient + augmented Lagrangian + LSE smoothing.
    ProjectedGradient,
    /// Randomized local search (ablation baseline).
    Anneal,
}

impl SolveMethod {
    /// The engine's stable name (matches
    /// [`wasla_solver::solver_by_name`] and CLI/config strings).
    pub fn name(self) -> &'static str {
        match self {
            SolveMethod::ProjectedGradient => "pg",
            SolveMethod::Anneal => "anneal",
        }
    }

    /// Parses an engine name; `None` for unknown names.
    pub fn from_name(name: &str) -> Option<SolveMethod> {
        match name {
            "pg" | "projected-gradient" => Some(SolveMethod::ProjectedGradient),
            "anneal" => Some(SolveMethod::Anneal),
            _ => None,
        }
    }
}

/// Options for [`solve_nlp`].
#[derive(Clone, Debug)]
pub struct SolverOptions {
    /// Search engine.
    pub method: SolveMethod,
    /// LSE temperatures relative to the current max utilization,
    /// annealed in order.
    pub temperatures: Vec<f64>,
    /// Inner projected-gradient options.
    pub pg: PgOptions,
    /// Augmented-Lagrangian options (capacity constraints).
    pub auglag: AugLagOptions,
    /// Annealing options (when `method` is `Anneal`).
    pub anneal: AnnealOptions,
    /// The layout objective scored by the solve. The default
    /// `MinMax` is the paper's objective and routes through weights
    /// of exactly 1.0, bit-identical to the unweighted path.
    pub objective: ObjectiveKind,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            method: SolveMethod::ProjectedGradient,
            temperatures: vec![0.25, 0.08, 0.02],
            pg: PgOptions {
                max_iters: 60,
                tol: 1e-5,
                ..PgOptions::default()
            },
            auglag: AugLagOptions {
                outer_iters: 4,
                ..AugLagOptions::default()
            },
            anneal: AnnealOptions {
                steps: 20_000,
                sigma: 0.2,
                ..AnnealOptions::default()
            },
            objective: ObjectiveKind::MinMax,
        }
    }
}

/// Result of the NLP solve.
#[derive(Clone, Debug)]
pub struct NlpOutcome {
    /// The (generally non-regular) optimized layout.
    pub layout: Layout,
    /// Predicted per-target utilizations under that layout.
    pub utilizations: Vec<f64>,
    /// The raw maximum utilization `max_j µⱼ` (reported regardless of
    /// objective).
    pub max_utilization: f64,
    /// The objective score `max_j wⱼ·µⱼ` — what the solve minimized
    /// and what multistart winners are picked by. Bitwise equal to
    /// `max_utilization` under the default `MinMax` objective.
    pub score: f64,
    /// Whether the final stage converged.
    pub converged: bool,
    /// Work counters of the engine that drove the solve (objective
    /// evals, analytic gradient passes, cost-model lookups, …).
    pub stats: EvalStats,
}

/// Builds the feasible-set projection for a problem: per-row simplex
/// projection with pinned rows fixed and forbidden entries zeroed.
pub fn make_projection(problem: &LayoutProblem) -> impl Fn(&mut [f64]) + '_ {
    let n = problem.n();
    let m = problem.m();
    // Precompute per-object pin target and forbidden mask.
    let mut pinned: Vec<Option<usize>> = vec![None; n];
    let mut forbidden = vec![vec![false; m]; n];
    for c in &problem.constraints {
        match *c {
            AdminConstraint::PinTo { object, target } => pinned[object] = Some(target),
            AdminConstraint::Forbid { object, target } => forbidden[object][target] = true,
        }
    }
    move |x: &mut [f64]| {
        for i in 0..n {
            let row = &mut x[i * m..(i + 1) * m];
            if let Some(t) = pinned[i] {
                row.fill(0.0);
                row[t] = 1.0;
                continue;
            }
            let banned = &forbidden[i];
            if banned.iter().any(|&b| b) {
                // Project the allowed coordinates only.
                let allowed_at = || (0..m).filter(|&j| !banned[j]);
                let mut allowed: Vec<f64> = allowed_at().map(|j| row[j]).collect();
                project_simplex(&mut allowed);
                row.fill(0.0);
                for (j, v) in allowed_at().zip(allowed) {
                    row[j] = v;
                }
            } else {
                project_simplex(row);
            }
        }
    }
}

/// Penalty weight on squared capacity violation for engines that fold
/// constraints into the objective (the annealing ablation).
const CAPACITY_PENALTY_WEIGHT: f64 = 10.0;

impl SolverOptions {
    /// Materializes the search engine this configuration selects, as a
    /// [`Solver`] trait object the stage layer can drive.
    pub fn build_solver(&self) -> Box<dyn Solver> {
        match self.method {
            SolveMethod::ProjectedGradient => {
                let mut auglag = self.auglag.clone();
                auglag.inner = self.pg.clone();
                Box::new(ProjectedGradientSolver { auglag })
            }
            SolveMethod::Anneal => Box::new(AnnealSolver {
                opts: self.anneal.clone(),
                penalty_weight: CAPACITY_PENALTY_WEIGHT,
            }),
        }
    }
}

/// Solves the layout NLP from one initial layout, routing through the
/// engine `opts.method` selects.
pub fn solve_nlp(problem: &LayoutProblem, initial: &Layout, opts: &SolverOptions) -> NlpOutcome {
    solve_with(problem, initial, opts, opts.build_solver().as_ref())
}

/// Drives one [`Solver`] engine over the layout NLP: builds the
/// feasible-set projection and capacity constraints, then either runs
/// the LSE temperature schedule (engines that follow gradients and
/// want the `max` smoothed) or hands the engine the raw min-max
/// objective (randomized search). One [`EvalEngine`] backs the
/// objective, the analytic gradient and the capacity constraints (via
/// cached column sums).
pub fn solve_with(
    problem: &LayoutProblem,
    initial: &Layout,
    opts: &SolverOptions,
    solver: &dyn Solver,
) -> NlpOutcome {
    let engine = RefCell::new(EvalEngine::with_objective(problem, opts.objective));
    solve_with_engine_in(problem, initial, opts, solver, &engine)
}

/// The solve body over a caller-supplied engine, so multistart
/// can reuse one workspace across solves. The engine's caches are
/// pure functions of its committed point (see
/// `incremental_commit_equals_rebuild`), so starting from whatever
/// point a previous solve left committed is bit-equivalent to a fresh
/// build. The engine must have been built for `opts.objective`.
fn solve_with_engine_in<'p>(
    problem: &'p LayoutProblem,
    initial: &Layout,
    opts: &SolverOptions,
    solver: &dyn Solver,
    engine: &RefCell<EvalEngine<'p>>,
) -> NlpOutcome {
    debug_assert_eq!(engine.borrow().objective(), opts.objective);
    let project = make_projection(problem);
    let constraints = engine_capacity_constraints(problem, engine);
    let mut x = initial.to_flat();
    project(&mut x);

    if solver.wants_smoothing() {
        let mut converged = false;
        for &rel_temp in &opts.temperatures {
            let current_max = engine.borrow_mut().score_at(&x).max(1e-9);
            let temp = rel_temp * current_max;
            // hot-closure-begin: solver objective/gradient closures —
            // all scratch lives in the engine workspace. The gradient
            // is one exact chain-rule pass over the cached state.
            let f: ObjectiveFn<'_> = Box::new(|xv: &[f64]| engine.borrow_mut().lse_score(xv, temp));
            let grad: ObjectiveGradFn<'_> =
                Box::new(|xv: &[f64], g: &mut [f64]| engine.borrow_mut().grad_at(xv, temp, g));
            // hot-closure-end
            let spec = SolveSpec {
                objective: f,
                gradient: Some(grad),
                constraints: &constraints,
                project: &project,
                x0: &x,
            };
            let result = solver.minimize(&spec);
            drop(spec);
            x = result.x;
            converged = result.converged;
        }
        finish_engine(problem, engine, x, converged)
    } else {
        // hot-closure-begin: raw min-max score for randomized
        // search — same engine workspace, no allocations per call.
        let f: ObjectiveFn<'_> = Box::new(|xv: &[f64]| engine.borrow_mut().score_at(xv));
        // hot-closure-end
        let spec = SolveSpec {
            objective: f,
            gradient: None,
            constraints: &constraints,
            project: &project,
            x0: &x,
        };
        let result = solver.minimize(&spec);
        drop(spec);
        finish_engine(problem, engine, result.x, result.converged)
    }
}

/// Solves from several initial layouts and keeps the best (the
/// Figure 4 `repeat?` loop; extra starts are how domain experts inject
/// candidate layouts, §4.1), or [`MultistartError::NoStarts`] when no
/// starting layout was supplied.
///
/// The starts are independent, so they run concurrently on the
/// [`par`] pool; the winner is picked in start-index order (earliest
/// of equally-good outcomes), so the result is identical to the serial
/// loop at any `WASLA_THREADS` setting.
///
/// The solves draw from a shared pool of [`EvalEngine`] workspaces instead of building a fresh engine per
/// start: at most `min(starts, threads)` engines are ever built, and
/// each is re-pointed per start. Engine caches are pure functions of
/// the committed point, so reuse is bit-equivalent to rebuilding
/// (asserted in `tests/eval_determinism.rs`).
pub fn solve_multistart(
    problem: &LayoutProblem,
    starts: &[Layout],
    opts: &SolverOptions,
) -> Result<NlpOutcome, MultistartError> {
    let pool: Mutex<Vec<EvalEngine<'_>>> = Mutex::new(Vec::new());
    let outcomes = par::par_map(starts, |s| {
        // A poisoned pool only means another start panicked mid-solve;
        // parked engines are re-pointed before use, so recover the
        // guard rather than propagating the panic.
        let mut engine = pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_else(|| EvalEngine::with_objective(problem, opts.objective));
        // Counters restart per solve; the outcome reports this start's
        // work, not the pool's cumulative total.
        engine.stats = EvalStats::default();
        let cell = RefCell::new(engine);
        let outcome = solve_with_engine_in(problem, s, opts, opts.build_solver().as_ref(), &cell);
        pool.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(cell.into_inner());
        outcome
    });
    let mut best: Option<NlpOutcome> = None;
    for outcome in outcomes {
        let better = match &best {
            None => true,
            Some(b) => outcome.score < b.score,
        };
        if better {
            best = Some(outcome);
        }
    }
    best.ok_or(MultistartError::NoStarts)
}

/// Capacity constraints over the engine's cached column sums: each
/// evaluation is a bitwise diff against the committed point (a no-op
/// when unchanged) plus one cached read, instead of an O(N) refold.
fn engine_capacity_constraints<'e, 'p: 'e>(
    problem: &'p LayoutProblem,
    engine: &'e RefCell<EvalEngine<'p>>,
) -> Vec<Constraint<'e>> {
    let n = problem.n();
    let m = problem.m();
    (0..m)
        .map(|j| {
            let sizes = &problem.workloads.sizes;
            let cap = problem.capacities[j] as f64;
            Constraint {
                g: Box::new(move |x: &[f64]| engine.borrow_mut().capacity_used(x, j) / cap - 1.0),
                grad: Box::new(move |_x: &[f64], g: &mut [f64]| {
                    g.fill(0.0);
                    for i in 0..n {
                        g[i * m + j] = sizes[i] as f64 / cap;
                    }
                }),
            }
        })
        .collect()
}

fn finish_engine(
    problem: &LayoutProblem,
    engine: &RefCell<EvalEngine<'_>>,
    x: Vec<f64>,
    converged: bool,
) -> NlpOutcome {
    let mut e = engine.borrow_mut();
    e.set_point(&x);
    let utilizations = e.committed_utilizations().to_vec();
    let max_utilization = max_of(e.committed_utilizations());
    let score = e.committed_score();
    NlpOutcome {
        layout: Layout::from_flat(&x, problem.n(), problem.m()),
        utilizations,
        max_utilization,
        score,
        converged,
        stats: e.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::UtilizationEstimator;
    use crate::initial::initial_layout;
    use std::sync::Arc;
    use wasla_model::CostModel;
    use wasla_storage::IoKind;
    use wasla_workload::{ObjectKind, WorkloadSet, WorkloadSpec};

    /// Cost model where contention is expensive: isolating overlapping
    /// objects is clearly optimal.
    struct ContentionModel;
    impl CostModel for ContentionModel {
        fn request_cost(&self, _: IoKind, _: f64, run: f64, chi: f64) -> f64 {
            0.005 / run.max(1.0) + 0.004 * chi + 0.005
        }
    }

    fn two_hot_objects(m: usize) -> LayoutProblem {
        // Two equally hot, fully-overlapping sequential objects.
        let spec = |other: usize| WorkloadSpec {
            read_size: 131072.0,
            write_size: 8192.0,
            read_rate: 50.0,
            write_rate: 0.0,
            run_count: 64.0,
            overlaps: {
                let mut o = vec![0.0; 2];
                o[other] = 1.0;
                o
            },
        };
        LayoutProblem {
            workloads: WorkloadSet {
                names: vec!["A".into(), "B".into()],
                sizes: vec![1 << 30, 1 << 30],
                specs: vec![spec(1), spec(0)],
            },
            kinds: vec![ObjectKind::Table; 2],
            capacities: vec![4 << 30; m],
            target_names: (0..m).map(|j| format!("t{j}")).collect(),
            models: (0..m).map(|_| Arc::new(ContentionModel) as _).collect(),
            stripe_size: 1024.0 * 1024.0,
            constraints: vec![],
        }
    }

    #[test]
    fn solver_separates_interfering_objects() {
        let p = two_hot_objects(2);
        let est = UtilizationEstimator::new(&p);
        let see = Layout::see(2, 2);
        let see_util = est.max_utilization(&see);
        let init = initial_layout(&p).unwrap();
        let out = solve_nlp(&p, &init, &SolverOptions::default());
        assert!(
            out.max_utilization < see_util,
            "solver {:.4} vs SEE {:.4}",
            out.max_utilization,
            see_util
        );
        // The optimum separates A and B entirely.
        let overlap: f64 = (0..2)
            .map(|j| out.layout.get(0, j).min(out.layout.get(1, j)))
            .sum();
        assert!(overlap < 0.1, "layout {:?}", out.layout.rows());
    }

    #[test]
    fn projection_enforces_constraints() {
        let mut p = two_hot_objects(3);
        p.constraints = vec![
            AdminConstraint::PinTo {
                object: 0,
                target: 2,
            },
            AdminConstraint::Forbid {
                object: 1,
                target: 0,
            },
        ];
        let project = make_projection(&p);
        let mut x = vec![0.4, 0.3, 0.3, 0.6, 0.2, 0.2];
        project(&mut x);
        assert_eq!(&x[0..3], &[0.0, 0.0, 1.0]);
        assert_eq!(x[3], 0.0);
        assert!((x[4] + x[5] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn solve_respects_admin_constraints() {
        let mut p = two_hot_objects(2);
        p.constraints = vec![AdminConstraint::PinTo {
            object: 0,
            target: 1,
        }];
        let init = initial_layout(&p).unwrap();
        let out = solve_nlp(&p, &init, &SolverOptions::default());
        assert!(p.satisfies_constraints(&out.layout));
        assert!(out.layout.get(0, 1) > 0.999);
    }

    #[test]
    fn capacity_constraint_respected() {
        let mut p = two_hot_objects(2);
        // Target 0 can hold only one object.
        p.capacities = vec![1 << 30, 4 << 30];
        let init = initial_layout(&p).unwrap();
        let out = solve_nlp(&p, &init, &SolverOptions::default());
        assert!(
            out.layout
                .satisfies_capacity(&p.workloads.sizes, &p.capacities),
            "layout {:?}",
            out.layout.rows()
        );
    }

    #[test]
    fn anneal_method_also_separates() {
        let p = two_hot_objects(2);
        let init = initial_layout(&p).unwrap();
        let opts = SolverOptions {
            method: SolveMethod::Anneal,
            ..SolverOptions::default()
        };
        let out = solve_nlp(&p, &init, &opts);
        let est = UtilizationEstimator::new(&p);
        assert!(out.max_utilization <= est.max_utilization(&Layout::see(2, 2)) + 1e-9);
    }

    #[test]
    fn multistart_no_worse_than_single() {
        let p = two_hot_objects(2);
        let init = initial_layout(&p).unwrap();
        let opts = SolverOptions::default();
        let single = solve_nlp(&p, &init, &opts);
        let multi = solve_multistart(&p, &[init, Layout::see(2, 2)], &opts).unwrap();
        assert!(multi.max_utilization <= single.max_utilization + 1e-9);
    }
}
