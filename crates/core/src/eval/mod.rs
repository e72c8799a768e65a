//! The incremental utilization-evaluation engine.
//!
//! Every objective call of the layout NLP (paper §4.1) needs the
//! per-target utilizations `µⱼ(L)` of Eq. 1, each of which hides an
//! O(N) contention scan per `µᵢⱼ` cell (Eq. 2) — O(N²·M) per full
//! evaluation. This module makes re-evaluation *incremental* and
//! differentiation exact:
//!
//! * [`kernel`] pins the one canonical summation shape (a fixed-shape
//!   pairwise reduction) that both the from-scratch and the
//!   incremental paths share, so their results are **bit-identical**
//!   by construction, not by tolerance;
//! * [`EvalEngine`] caches per-solve invariants (rate-weighted overlap
//!   rows `Rᵢₖ = rateₖ·Oᵢ[k]`, layout-model memos, competing-rate
//!   trees, capacity column sums) and updates them per changed
//!   coordinate, making a single-coordinate probe `Lᵢⱼ := v` an O(N)
//!   walk instead of an O(N²) re-evaluation; it is the one evaluator
//!   every production path (solver, regularizer, migration planner)
//!   runs on;
//! * [`grad`] holds the analytic chain rule (`EvalEngine::grad_at`,
//!   DESIGN.md §15) that replaced finite differences in the solver;
//! * [`ScratchEval`] is the from-scratch dense oracle with hoisted
//!   scratch buffers, plus the structured finite-difference gradient.
//!   No production path calls it: tests and benches hold the engine
//!   and the analytic gradient against it;
//! * [`EvalStats`] counts the work actually done (objective evals,
//!   analytic passes, FD partials, cost-model lookups, reused `µᵢⱼ`
//!   cells) so tests and benches can assert work claims instead of
//!   trusting wall-clock.
//! * [`objective`] hosts the pluggable [`LayoutObjective`] penalty
//!   transforms (`score = max_j wⱼ·µⱼ`); both evaluators score
//!   through them, and the default [`MinMaxUtilization`] weights are
//!   exactly 1.0, so the default score is bit-identical to the raw
//!   max utilization.
//!
//! See DESIGN.md §10 for the delta-update math and the argument for
//! why the summation order is pinned, and §13 for the objective-trait
//! contract.

pub mod engine;
pub mod grad;
pub mod kernel;
pub mod objective;
pub mod scratch;
pub mod stats;

pub use engine::EvalEngine;
pub use grad::{cell_grad, CellGrad, CrossAdjacency};
pub use kernel::{pairwise_sum, RateTransform};
pub use objective::{
    max_of, weighted_max, LayoutObjective, MinMaxUtilization, ObjectiveKind, ProvisioningCost,
    WearBlend,
};
pub use scratch::ScratchEval;
pub use stats::EvalStats;
