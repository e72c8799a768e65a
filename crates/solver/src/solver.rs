//! The unified solver interface.
//!
//! The toolkit grew one entry point per search engine — [`crate::pg`]
//! behind [`crate::auglag::minimize_constrained`] for the NLP path,
//! [`crate::anneal`] for the randomized ablation — and callers
//! hard-coded which one they invoked. The staged advisor pipeline wants
//! to select engines by *name* (CLI flags, experiment configs, the
//! stage layer's solve step), so this module folds them behind one
//! object-safe [`Solver`] trait over a shared problem description,
//! [`SolveSpec`]: objective, optional gradient, inequality constraints,
//! and the feasible-set projection (per-row simplex projection from
//! [`crate::simplex`] in the layout advisor's case).
//!
//! Engine-specific needs stay inside the engines: the projected-
//! gradient solver runs constraints through the augmented-Lagrangian
//! loop, while the annealer folds them into a quadratic penalty; the
//! driver only asks [`Solver::wants_smoothing`] whether to hand over a
//! smoothed objective (gradient methods) or the raw one (randomized
//! search).

use crate::anneal::{anneal, AnnealOptions};
use crate::auglag::{minimize_constrained, AugLagOptions, Constraint};
use crate::pg::{fd_gradient, PgResult};
use std::cell::RefCell;

/// A boxed objective oracle.
pub type ObjectiveFn<'a> = Box<dyn Fn(&[f64]) -> f64 + 'a>;
/// A boxed gradient oracle (writes ∇f(x) into its second argument).
pub type ObjectiveGradFn<'a> = Box<dyn Fn(&[f64], &mut [f64]) + 'a>;

/// One minimization problem, engine-agnostic: minimize `objective`
/// over the set defined by `project`, subject to `constraints` ≤ 0,
/// starting from `x0`.
pub struct SolveSpec<'a> {
    /// The objective to minimize.
    pub objective: ObjectiveFn<'a>,
    /// Gradient of the objective; engines that need one fall back to
    /// central differences when absent.
    pub gradient: Option<ObjectiveGradFn<'a>>,
    /// Inequality constraints `g(x) ≤ 0` that cannot be folded into
    /// the projection (the layout problem's coupling capacities).
    pub constraints: &'a [Constraint<'a>],
    /// In-place projection onto the feasible set.
    pub project: &'a dyn Fn(&mut [f64]),
    /// Starting point (projected first if infeasible).
    pub x0: &'a [f64],
}

/// A search engine that can drive one [`SolveSpec`] to a (local)
/// minimum. Object-safe so call sites select engines by name at
/// runtime.
pub trait Solver {
    /// Stable engine name (`"pg"`, `"anneal"`); the string call sites
    /// and configs select by.
    fn name(&self) -> &'static str;

    /// True when the engine follows gradients and therefore wants the
    /// driver to smooth non-differentiable objectives (the advisor's
    /// LSE-of-max with annealed temperatures); false for engines that
    /// only sample the objective and should see it raw.
    fn wants_smoothing(&self) -> bool;

    /// Minimizes the spec's objective; returns the final feasible
    /// iterate and objective value.
    fn minimize(&self, spec: &SolveSpec<'_>) -> PgResult;
}

/// Central-difference step of the projected-gradient engine's fallback
/// gradient, for specs that supply none.
const FALLBACK_FD_STEP: f64 = 1e-6;

/// Projected gradient + augmented Lagrangian (the paper's MINOS
/// stand-in): gradients from the spec, or central differences when the
/// caller supplies none.
#[derive(Clone, Debug, Default)]
pub struct ProjectedGradientSolver {
    /// Outer-loop options; the inner [`crate::pg::PgOptions`] ride in
    /// `auglag.inner`.
    pub auglag: AugLagOptions,
}

impl Solver for ProjectedGradientSolver {
    fn name(&self) -> &'static str {
        "pg"
    }

    fn wants_smoothing(&self) -> bool {
        true
    }

    fn minimize(&self, spec: &SolveSpec<'_>) -> PgResult {
        let f = |x: &[f64]| (spec.objective)(x);
        match &spec.gradient {
            Some(g) => minimize_constrained(
                f,
                |x: &[f64], out: &mut [f64]| g(x, out),
                spec.constraints,
                spec.project,
                spec.x0,
                &self.auglag,
            ),
            None => {
                // Hoisted perturbation buffer, so per-gradient calls
                // allocate nothing.
                let scratch = RefCell::new(vec![0.0; spec.x0.len()]);
                minimize_constrained(
                    f,
                    |x: &[f64], out: &mut [f64]| {
                        fd_gradient(f, x, FALLBACK_FD_STEP, &mut scratch.borrow_mut(), out)
                    },
                    spec.constraints,
                    spec.project,
                    spec.x0,
                    &self.auglag,
                )
            }
        }
    }
}

/// Simulated annealing (the DAD-style randomized search the paper's §7
/// names as the NLP solver's natural alternative). Constraints become
/// a quadratic penalty `w · max(0, g(x))²` added to the objective.
#[derive(Clone, Debug)]
pub struct AnnealSolver {
    /// Cooling-schedule options.
    pub opts: AnnealOptions,
    /// Penalty weight `w` on squared constraint violation.
    pub penalty_weight: f64,
}

impl Default for AnnealSolver {
    fn default() -> Self {
        AnnealSolver {
            opts: AnnealOptions::default(),
            penalty_weight: 10.0,
        }
    }
}

impl Solver for AnnealSolver {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn wants_smoothing(&self) -> bool {
        false
    }

    fn minimize(&self, spec: &SolveSpec<'_>) -> PgResult {
        let w = self.penalty_weight;
        let f = |x: &[f64]| {
            let mut v = (spec.objective)(x);
            for c in spec.constraints {
                let over = (c.g)(x).max(0.0);
                v += w * over * over;
            }
            v
        };
        anneal(f, spec.project, spec.x0, &self.opts)
    }
}

/// The names [`solver_by_name`] accepts, in preference order.
pub const SOLVER_NAMES: &[&str] = &["pg", "anneal"];

/// Builds the named engine with default options, or `None` for an
/// unknown name. Call sites that tune options construct
/// [`ProjectedGradientSolver`] / [`AnnealSolver`] directly.
pub fn solver_by_name(name: &str) -> Option<Box<dyn Solver>> {
    match name {
        "pg" | "projected-gradient" => Some(Box::new(ProjectedGradientSolver::default())),
        "anneal" => Some(Box::new(AnnealSolver::default())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::project_simplex;

    fn spec_for<'a>(
        objective: ObjectiveFn<'a>,
        constraints: &'a [Constraint<'a>],
        project: &'a dyn Fn(&mut [f64]),
        x0: &'a [f64],
    ) -> SolveSpec<'a> {
        SolveSpec {
            objective,
            gradient: None,
            constraints,
            project,
            x0,
        }
    }

    #[test]
    fn both_engines_solve_the_simplex_lp() {
        // min c·x on the simplex → the vertex of the smallest coefficient.
        let c = [3.0, 0.5, 2.0];
        let project = |x: &mut [f64]| project_simplex(x);
        for solver in [
            Box::new(ProjectedGradientSolver::default()) as Box<dyn Solver>,
            Box::new(AnnealSolver::default()),
        ] {
            let f: ObjectiveFn<'_> =
                Box::new(move |x: &[f64]| x.iter().zip(&c).map(|(a, b)| a * b).sum::<f64>());
            let r = solver.minimize(&spec_for(f, &[], &project, &[1.0 / 3.0; 3]));
            assert!(r.value < 0.7, "{} value {}", solver.name(), r.value);
            assert!(r.x[1] > 0.9, "{} x {:?}", solver.name(), r.x);
        }
    }

    #[test]
    fn pg_engine_honors_constraints() {
        // min (x0-1)^2 on the simplex s.t. x0 ≤ 0.4 → x0 = 0.4.
        let project = |x: &mut [f64]| project_simplex(x);
        let cons = [Constraint {
            g: Box::new(|x: &[f64]| x[0] - 0.4),
            grad: Box::new(|_x: &[f64], g: &mut [f64]| {
                g[0] = 1.0;
                g[1] = 0.0;
            }),
        }];
        let f: ObjectiveFn<'_> = Box::new(|x: &[f64]| (x[0] - 1.0).powi(2));
        let r =
            ProjectedGradientSolver::default().minimize(&spec_for(f, &cons, &project, &[0.9, 0.1]));
        assert!((r.x[0] - 0.4).abs() < 5e-3, "x0 = {}", r.x[0]);
    }

    #[test]
    fn anneal_engine_penalizes_violation() {
        // Pull toward x0 = 1 with x0 ≤ 0.4 as a penalty: the annealer
        // must settle near the constraint boundary, not the pull.
        let project = |x: &mut [f64]| project_simplex(x);
        let cons = [Constraint {
            g: Box::new(|x: &[f64]| x[0] - 0.4),
            grad: Box::new(|_x: &[f64], g: &mut [f64]| {
                g[0] = 1.0;
                g[1] = 0.0;
            }),
        }];
        let f: ObjectiveFn<'_> = Box::new(|x: &[f64]| (x[0] - 1.0).powi(2));
        let solver = AnnealSolver {
            penalty_weight: 100.0,
            ..AnnealSolver::default()
        };
        let r = solver.minimize(&spec_for(f, &cons, &project, &[0.5, 0.5]));
        assert!(r.x[0] < 0.55, "x0 = {}", r.x[0]);
    }

    #[test]
    fn selection_by_name() {
        assert_eq!(solver_by_name("pg").unwrap().name(), "pg");
        assert_eq!(solver_by_name("anneal").unwrap().name(), "anneal");
        assert!(solver_by_name("minos").is_none());
        for name in SOLVER_NAMES {
            assert_eq!(solver_by_name(name).unwrap().name(), *name);
        }
    }
}
