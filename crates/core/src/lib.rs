//! WASLA core: the workload-aware storage layout advisor.
//!
//! This crate implements the primary contribution of *"Workload-Aware
//! Storage Layout for Database Systems"* (SIGMOD 2010): given `N`
//! database objects with Rome-style I/O workload descriptions and `M`
//! storage targets with performance models, recommend a layout matrix
//! `L` minimizing the maximum predicted target utilization, subject to
//! capacity and integrity constraints.
//!
//! Pipeline (paper Figure 4):
//!
//! 1. [`initial::initial_layout`] — rate-greedy valid starting point
//!    (§4.2; SEE is avoided as a start because it is a local minimum);
//! 2. [`optimizer::solve_nlp`] — the NLP solve (§4.1), with
//!    multi-start support for expert-supplied layouts;
//! 3. [`regularize::regularize`] — optional post-processing into a
//!    *regular* layout for even-striping mechanisms (§4.3);
//! 4. [`advisor::recommend`] — the façade running all stages and
//!    reporting predicted utilizations and timings.
//!
//! Under the hood: [`layout_model`] implements the Figure 7 LVM
//! transformation `Wᵢ → Wᵢⱼ`; [`estimator`] computes contention factors
//! (Eq. 2) and utilizations (Eq. 1) against pluggable
//! [`wasla_model::CostModel`]s.
//!
//! For evaluation, [`baselines`] provides the administrator heuristics
//! the paper compares against (SEE, isolate-tables,
//! isolate-tables-and-indexes, all-on-SSD) and [`autoadmin`]
//! reimplements the Microsoft AutoAdmin two-step graph layout tool
//! (§6.6). [`dynamic`] and [`configurator`] implement the paper's §8
//! future-work directions (FlexVol-style incremental re-advising and
//! storage-configuration recommendation).

pub mod advisor;
pub mod autoadmin;
pub mod baselines;
pub mod configurator;
pub mod dynamic;
pub mod estimator;
pub mod eval;
pub mod initial;
pub mod layout_model;
pub mod optimizer;
pub mod problem;
pub mod regularize;
pub mod report;
pub mod stage;

pub use advisor::{
    recommend, regularize_stage, solve_stage, AdvisorError, AdvisorOptions, Recommendation,
    SolveOutcome, SolveQuality, StageReport, Timings,
};
pub use autoadmin::{autoadmin_layout, AutoAdminOptions};
pub use estimator::UtilizationEstimator;
pub use eval::{
    max_of, weighted_max, EvalEngine, EvalStats, LayoutObjective, ObjectiveKind, ScratchEval,
};
pub use initial::{initial_layout, InitialLayoutError};
pub use optimizer::{
    solve_multistart, solve_nlp, solve_with, NlpOutcome, SolveMethod, SolverOptions,
};
pub use problem::{AdminConstraint, Layout, LayoutProblem};
pub use regularize::{regularize, regularize_with, RegularizeError};
pub use stage::{CacheStats, Stage, StageCache, STAGE_NAMES};
