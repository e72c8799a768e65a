//! The advise pipeline composed from its public stages, with a span
//! around each call — the traced counterpart of
//! `AdvisorSession::advise`.
//!
//! The composition mirrors `AdvisorSession::advise` without an active
//! fault plan (the benchmark clears `WASLA_FAULTS`), so its outputs are
//! byte-identical to the production call; every traced pass checks
//! that against the untraced pass's digests.

use crate::tracer::Tracer;
use wasla::core::{Recommendation, Stage};
use wasla::exec::{DeviceEvent, RunReport};
use wasla::model::{CalibrationGrid, TargetCostModel};
use wasla::pipeline::{assemble_problem, AdviseConfig, AdviseOutcome, DegradedNote, Scenario};
use wasla::stages::{RegularizeInput, RegularizeStage, SolveStage, TraceInput, TraceStage};
use wasla::storage::{TargetConfig, Trace};
use wasla::workload::{SqlWorkload, WorkloadSet};
use wasla::{AdvisorSession, WaslaError};

/// Span names whose durations the per-layer metrics read.
pub const TRACE_RUN: &str = "TraceStage::run";
pub const FIT_MISS: &str = "FitStage::run";
pub const FIT_HIT: &str = "AdvisorSession::fit (hit)";
pub const CALIBRATE_MISS: &str = "CalibrateStage::run";
pub const CALIBRATE_HIT: &str = "AdvisorSession::models_for (hit)";
pub const SOLVE: &str = "SolveStage::run";
pub const REGULARIZE: &str = "RegularizeStage::run";
pub const VALIDATE: &str = "pipeline::run_with_layout";

/// Work counted at the stage boundaries of traced requests.
#[derive(Default)]
pub struct Counts {
    /// Simulated storage requests of each trace run.
    pub sim_requests: Vec<f64>,
    /// Trace records fitted on fit-cache misses.
    pub fit_records: u64,
    /// Calibration-cache misses.
    pub calibrations: u64,
    /// `SolveOutcome` initial-layout and NLP times, in ms.
    pub initial_ms: Vec<f64>,
    pub nlp_ms: Vec<f64>,
}

/// Target cost models through the session's calibration cache; the
/// span is named after what ran (a calibration or a cache hit).
pub fn models(
    session: &mut AdvisorSession,
    targets: &[TargetConfig],
    grid: &CalibrationGrid,
    seed: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<Vec<TargetCostModel>, WaslaError> {
    let before = session.stats().calibration.misses;
    let span = tracer.begin("model", CALIBRATE_MISS);
    let models = session.models_for(targets, grid, seed);
    let misses = session.stats().calibration.misses - before;
    tracer.end_as(
        span,
        if misses > 0 {
            CALIBRATE_MISS
        } else {
            CALIBRATE_HIT
        },
    );
    counts.calibrations += misses;
    models
}

/// A fitted workload set through the session's fit cache.
pub fn fit(
    session: &mut AdvisorSession,
    trace: &Trace,
    scenario: &Scenario,
    config: &AdviseConfig,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<WorkloadSet, WaslaError> {
    let before = session.stats().fit.misses;
    let span = tracer.begin("trace", FIT_MISS);
    let fitted = session.fit(
        trace,
        &scenario.catalog.names(),
        &scenario.catalog.sizes(),
        &config.fit,
        config.advisor.solver.objective,
    );
    let missed = session.stats().fit.misses > before;
    tracer.end_as(span, if missed { FIT_MISS } else { FIT_HIT });
    if missed {
        counts.fit_records += trace.len() as u64;
    }
    fitted
}

/// Solve then regularize, each in its own span.
pub fn solve(
    problem: &wasla::core::LayoutProblem,
    config: &AdviseConfig,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<Recommendation, WaslaError> {
    let span = tracer.begin("core", SOLVE);
    let solved = SolveStage {
        options: &config.advisor,
    }
    .run(problem);
    tracer.end(span);
    let solved = solved?;
    counts.initial_ms.push(solved.initial_s * 1000.0);
    counts.nlp_ms.push(solved.solver_s * 1000.0);
    let span = tracer.begin("core", REGULARIZE);
    let recommendation = RegularizeStage {
        options: &config.advisor,
    }
    .run(&RegularizeInput { problem, solved });
    tracer.end(span);
    recommendation
}

/// The SEE trace run and the fit of its trace: the fitted workloads,
/// the baseline run report (which holds the trace), and notes for any
/// device faults the run observed.
pub fn fitted(
    session: &mut AdvisorSession,
    scenario: &Scenario,
    workloads: &[SqlWorkload],
    config: &AdviseConfig,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<(WorkloadSet, RunReport, Vec<DegradedNote>), WaslaError> {
    let span = tracer.begin("exec", TRACE_RUN);
    let traced = TraceStage {
        settings: &config.trace_run,
    }
    .run(&TraceInput {
        scenario,
        workloads,
    });
    tracer.end(span);
    let traced = traced?;
    counts
        .sim_requests
        .push(traced.report.storage_requests as f64);
    let degraded: Vec<DegradedNote> = traced
        .device_events
        .iter()
        .map(|event| {
            let target = scenario.targets[event.target()].name.clone();
            match event {
                DeviceEvent::Degraded { factor, .. } => DegradedNote::DeviceDegraded {
                    target,
                    factor: *factor,
                },
                DeviceEvent::Failed { .. } => DegradedNote::DeviceFailed { target },
            }
        })
        .collect();
    let trace = traced
        .report
        .trace
        .as_ref()
        .ok_or_else(|| WaslaError::Internal("trace stage returned no trace".to_string()))?;
    let fitted = fit(session, trace, scenario, config, tracer, counts)?;
    Ok((fitted, traced.report, degraded))
}

/// trace → fit → calibrate → solve → regularize, as
/// `AdvisorSession::advise` runs it.
pub fn advise(
    session: &mut AdvisorSession,
    scenario: &Scenario,
    workloads: &[SqlWorkload],
    config: &AdviseConfig,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<AdviseOutcome, WaslaError> {
    let (fitted, baseline_run, mut degraded) =
        self::fitted(session, scenario, workloads, config, tracer, counts)?;
    let models = models(
        session,
        &scenario.targets,
        &config.grid,
        scenario.seed,
        tracer,
        counts,
    )?;
    let problem = assemble_problem(scenario, fitted.clone(), models, config.constraints.clone());
    let recommendation = solve(&problem, config, tracer, counts)?;
    if recommendation.quality.degraded() {
        degraded.push(DegradedNote::SolverDegraded {
            quality: recommendation.quality,
        });
    }
    Ok(AdviseOutcome {
        baseline_run,
        fitted,
        problem,
        recommendation,
        degraded,
    })
}

/// Predicted max target utilization of the layout the recommendation
/// asks to implement.
pub fn final_max_util(rec: &Recommendation) -> f64 {
    let stage = if rec.fell_back_to_see {
        rec.stage("see")
    } else {
        rec.stages.last()
    };
    stage.map_or(0.0, |s| s.max_utilization)
}

/// The model's predicted speedup of the recommendation over SEE.
pub fn predicted_speedup(rec: &Recommendation) -> f64 {
    rec.stage("see").map_or(0.0, |s| s.max_utilization) / final_max_util(rec)
}

/// Final max utilization over the solver layout's: what
/// regularization (and the SEE fallback) cost or gained.
pub fn regularize_gap(rec: &Recommendation) -> f64 {
    final_max_util(rec) / rec.stage("solver").map_or(f64::NAN, |s| s.max_utilization)
}
