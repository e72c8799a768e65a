//! Non-linear programming toolkit for the layout advisor.
//!
//! The paper formulates layout as a non-convex NLP and feeds it to a
//! generic solver (AMPL + MINOS, §4.1). This crate is our from-scratch
//! equivalent, shaped to the layout problem's structure while staying
//! generic:
//!
//! * [`simplex`] — exact Euclidean projection onto the probability
//!   simplex (the integrity constraint makes each object's layout row
//!   a point on a simplex);
//! * [`smoothing`] — log-sum-exp smoothing of the non-differentiable
//!   `max` objective, with softmax weights for gradients;
//! * [`pg`] — projected-gradient descent with Armijo backtracking and
//!   finite-difference gradients for black-box objectives (MINOS also
//!   differences external functions);
//! * [`auglag`] — an augmented-Lagrangian outer loop for the coupling
//!   capacity constraints;
//! * [`mod@anneal`] — a randomized local-search solver in the spirit of the
//!   Disk Array Designer's search (paper §7 suggests it as the obvious
//!   alternative to an NLP solver), used for ablations;
//! * [`mod@multistart`] — repeat optimization from several initial layouts
//!   and keep the best (the paper's Figure 4 `repeat?` loop);
//! * [`mod@solver`] — the unified [`Solver`] trait folding the engines
//!   behind one object-safe interface selected by name, so multistart
//!   and the advisor's stage layer pick engines at runtime.

pub mod anneal;
pub mod auglag;
pub mod multistart;
pub mod pg;
pub mod simplex;
pub mod smoothing;
pub mod solver;

pub use anneal::{anneal, AnnealOptions};
pub use auglag::{minimize_constrained, AugLagOptions, Constraint};
pub use multistart::{multistart, MultistartError};
pub use pg::{fd_gradient, minimize, PgOptions, PgResult};
pub use simplex::{project_scaled_simplex, project_simplex};
pub use smoothing::{lse_max, softmax_weights};
pub use solver::{
    solver_by_name, AnnealSolver, ObjectiveFn, ObjectiveGradFn, ProjectedGradientSolver, SolveSpec,
    Solver, SOLVER_NAMES,
};
