//! The oracle solve: the layout NLP driven over the dense
//! [`ScratchEval`] evaluator instead of the production `EvalEngine`.
//!
//! Same projection, same capacity constraints, same temperature
//! schedule and the same engine calls (`minimize_constrained` for
//! projected gradient, `anneal` over the `penalized` score) as
//! `solve_nlp`; only the evaluation machinery differs. Because both
//! evaluators fold contention through the canonical kernel, an
//! analytic oracle solve is byte-identical to the production solve,
//! and an FD oracle solve is the finite-difference reference the
//! analytic gradient is held to.

// Each test binary uses a different subset of these helpers.
#![allow(dead_code)]

use std::cell::RefCell;
use wasla::core::optimizer::{make_projection, penalized};
use wasla::core::{
    max_of, weighted_max, Layout, LayoutProblem, NlpOutcome, ScratchEval, SolveMethod,
    SolverOptions, UtilizationEstimator,
};
use wasla::solver::{anneal, minimize_constrained, AugLagOptions, Constraint};

/// How the oracle solve differentiates the smoothed objective.
#[derive(Clone, Copy, Debug)]
pub enum OracleGrad {
    /// `ScratchEval::grad_at`, the dense analytic chain rule.
    Analytic,
    /// `ScratchEval::fd_grad_at` with this FD step.
    Fd(f64),
}

/// The FD step the solver used before it differentiated analytically.
pub const FD_STEP: f64 = 1e-4;

/// Solves the layout NLP from one initial layout over [`ScratchEval`].
pub fn oracle_solve(
    problem: &LayoutProblem,
    initial: &Layout,
    opts: &SolverOptions,
    grad: OracleGrad,
) -> NlpOutcome {
    let scratch = &RefCell::new(ScratchEval::with_objective(problem, opts.objective));
    let project = make_projection(problem);
    let constraints = capacity_constraints(problem);
    let mut x = initial.to_flat();
    project(&mut x);
    let mut converged = false;
    match opts.method {
        SolveMethod::ProjectedGradient => {
            let auglag = AugLagOptions {
                inner: opts.pg.clone(),
                ..opts.auglag.clone()
            };
            for &rel_temp in &opts.temperatures {
                let temp = rel_temp * scratch.borrow_mut().score_at(&x).max(1e-9);
                let f = |xv: &[f64]| scratch.borrow_mut().lse_score(xv, temp);
                let gradient = |xv: &[f64], g: &mut [f64]| match grad {
                    OracleGrad::Analytic => scratch.borrow_mut().grad_at(xv, temp, g),
                    OracleGrad::Fd(h) => scratch.borrow_mut().fd_grad_at(xv, temp, h, g),
                };
                let result = minimize_constrained(f, gradient, &constraints, &project, &x, &auglag);
                x = result.x;
                converged = result.converged;
            }
        }
        SolveMethod::Anneal => {
            let f = |xv: &[f64]| {
                let score = scratch.borrow_mut().score_at(xv);
                penalized(score, &constraints, xv)
            };
            let result = anneal(f, &project, &x, &opts.anneal);
            x = result.x;
            converged = result.converged;
        }
    }
    let layout = Layout::from_flat(&x, problem.n(), problem.m());
    let utilizations = UtilizationEstimator::new(problem).utilizations(&layout);
    let stats = scratch.borrow().stats;
    NlpOutcome {
        max_utilization: max_of(&utilizations),
        score: weighted_max(&utilizations, &opts.objective.weights(problem)),
        layout,
        utilizations,
        converged,
        stats,
    }
}

/// [`oracle_solve`] from every start, keeping the earliest of the
/// best-scoring outcomes — the winner rule of `solve_multistart`.
pub fn oracle_multistart(
    problem: &LayoutProblem,
    starts: &[Layout],
    opts: &SolverOptions,
    grad: OracleGrad,
) -> NlpOutcome {
    starts
        .iter()
        .map(|s| oracle_solve(problem, s, opts, grad))
        .reduce(|best, out| if out.score < best.score { out } else { best })
        .expect("at least one start")
}

/// The capacity constraints `Σᵢ sᵢ·xᵢⱼ / capⱼ − 1 ≤ 0`, folded from
/// scratch on every call.
fn capacity_constraints(problem: &LayoutProblem) -> Vec<Constraint<'_>> {
    let (n, m) = (problem.n(), problem.m());
    let sizes = &problem.workloads.sizes;
    (0..m)
        .map(|j| {
            let cap = problem.capacities[j] as f64;
            Constraint {
                g: Box::new(move |x: &[f64]| {
                    let used: f64 = (0..n).map(|i| sizes[i] as f64 * x[i * m + j]).sum();
                    used / cap - 1.0
                }),
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
