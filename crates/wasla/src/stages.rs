//! Concrete pipeline stages and the session's cache keys.
//!
//! The facade's advise pipeline is trace → fit → calibrate → solve →
//! regularize. Trace, solve and regularize are [`Stage`]s — thin typed
//! wrappers over the layer that does the work, with errors lifted into
//! [`WaslaError`] — so a caller can compose and time the pipeline one
//! stage at a time. Fit and calibrate run inside
//! [`AdvisorSession`](crate::session::AdvisorSession), which memoizes
//! their outputs under content-hash keys:
//!
//! * `calibration_key` — `(DeviceSpec JSON, CalibrationGrid JSON,
//!   seed)`: a calibration table is a pure function of the device, the
//!   grid, and the measurement seed.
//! * `fit_key` — `(trace content hash, FitConfig fields, object
//!   names, object sizes, objective id)`: a fitted workload set is a
//!   pure function of the trace and the object inventory; the
//!   objective id partitions the cache per layout objective so a warm
//!   session answering for one objective never serves another (warm ≡
//!   cold holds per objective).
//!
//! Both keys are FNV-1a over canonical JSON and raw fields, and they
//! are what persisted caches are stored under: changing the hashed
//! bytes turns every cache written before into misses.
//!
//! Trace, solve and regularize are not cached: the trace stage runs a
//! simulation whose cost *is* the measurement, and the solve chain is
//! re-run per request (its inputs embed freshly fitted workloads and
//! per-request seeds).

use crate::error::WaslaError;
use crate::pipeline::{self, RunSettings, Scenario};
use wasla_core::{
    AdvisorError, AdvisorOptions, Layout, LayoutProblem, ObjectiveKind, Recommendation,
    SolveOutcome, Stage,
};
use wasla_exec::RunOutcome;
use wasla_model::CalibrationGrid;
use wasla_simlib::hash::{hash_json, Fnv64};
use wasla_storage::DeviceSpec;
use wasla_trace::FitConfig;
use wasla_workload::SqlWorkload;

/// The calibration cache key for one device type.
pub(crate) fn calibration_key(spec: &DeviceSpec, grid: &CalibrationGrid, seed: u64) -> u64 {
    Fnv64::new()
        .write_u64(hash_json(spec))
        .write_u64(hash_json(grid))
        .write_u64(seed)
        .finish()
}

/// The fit cache key for a trace known by its content hash.
///
/// This is the single key scheme for every path into the fit cache:
/// materialized traces (keyed by
/// [`Trace::content_hash`](wasla_storage::Trace::content_hash)),
/// streamed op-log ingestion (keyed by
/// [`wasla_trace::oplog::OpLog::trace_content_hash`]), and
/// fault-damaged salvage (keyed by the *damaged* trace hash). Sharing
/// the scheme is what makes a fit cached from one representation serve
/// the others. The fit itself is objective-independent, but the
/// objective id participates so each objective's warm path replays
/// exactly the entries its own cold path wrote.
pub(crate) fn fit_key(
    trace_hash: u64,
    names: &[String],
    sizes: &[u64],
    config: &FitConfig,
    objective: ObjectiveKind,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(trace_hash)
        .write_f64(config.window_s)
        .write_u64(config.gap_tolerance)
        .write_u64(names.len() as u64);
    for name in names {
        h.write_str(name);
    }
    for &size in sizes {
        h.write_u64(size);
    }
    h.write_str(objective.name());
    h.finish()
}

/// Input to [`TraceStage`]: the scenario and workload mix to trace.
pub struct TraceInput<'a> {
    /// The catalog/targets/scale under test.
    pub scenario: &'a Scenario,
    /// The SQL workloads to run.
    pub workloads: &'a [SqlWorkload],
}

/// Run the workload under the SEE baseline layout with
/// trace capture on, producing the baseline [`RunOutcome`]: the run
/// report (which carries the block trace) plus any device-fault events
/// the run observed.
pub struct TraceStage<'a> {
    /// Settings for the trace-collection run; `capture_trace` is
    /// forced on.
    pub settings: &'a RunSettings,
}

impl<'a> Stage for TraceStage<'a> {
    type Input = TraceInput<'a>;
    type Output = RunOutcome;
    type Error = WaslaError;

    fn run(&self, input: &TraceInput<'a>) -> Result<RunOutcome, WaslaError> {
        let n = input.scenario.catalog.len();
        let m = input.scenario.targets.len();
        // Reject degenerate scenarios before handing them to the
        // execution engine, which assumes a populated inventory.
        if n == 0 {
            return Err(AdvisorError::InvalidProblem(
                "catalog is empty: nothing to trace or lay out".to_string(),
            )
            .into());
        }
        if m == 0 {
            return Err(AdvisorError::InvalidProblem(
                "scenario has no storage targets".to_string(),
            )
            .into());
        }
        let see = Layout::see(n, m);
        let mut settings = self.settings.clone();
        settings.capture_trace = true;
        let outcome =
            pipeline::run_layout_observed(input.scenario, input.workloads, see.rows(), &settings)?;
        if outcome.report.trace.is_none() {
            return Err(WaslaError::Internal(
                "trace capture was requested but the run produced no trace".to_string(),
            ));
        }
        Ok(outcome)
    }
}

/// The multi-start NLP solve over the assembled problem.
pub struct SolveStage<'a> {
    /// Advisor options (solver settings, starts, seed).
    pub options: &'a AdvisorOptions,
}

impl<'a> Stage for SolveStage<'a> {
    type Input = LayoutProblem;
    type Output = SolveOutcome;
    type Error = WaslaError;

    fn run(&self, input: &LayoutProblem) -> Result<SolveOutcome, WaslaError> {
        wasla_core::solve_stage(input, self.options).map_err(WaslaError::from)
    }
}

/// Input to [`RegularizeStage`]: the problem and the solve stage's
/// outcome.
pub struct RegularizeInput<'a> {
    /// The layout problem the solve ran over.
    pub problem: &'a LayoutProblem,
    /// The solve stage's outcome.
    pub solved: SolveOutcome,
}

/// Regularize the solver layout (when requested), apply the
/// SEE sanity fallback, and assemble the final [`Recommendation`].
pub struct RegularizeStage<'a> {
    /// Advisor options (regularization flag).
    pub options: &'a AdvisorOptions,
}

impl<'a> Stage for RegularizeStage<'a> {
    type Input = RegularizeInput<'a>;
    type Output = Recommendation;
    type Error = WaslaError;

    fn run(&self, input: &RegularizeInput<'a>) -> Result<Recommendation, WaslaError> {
        wasla_core::regularize_stage(input.problem, self.options, input.solved.clone())
            .map_err(WaslaError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasla_simlib::SimTime;
    use wasla_storage::{BlockTraceRecord, DiskParams, IoKind, SsdParams, Trace};

    fn one_record_trace(offset: u64) -> Trace {
        let mut trace = Trace::new();
        trace.push(BlockTraceRecord {
            time: SimTime::from_secs(0.5),
            stream: 0,
            kind: IoKind::Read,
            offset,
            len: 8192,
        });
        trace
    }

    #[test]
    fn calibrate_cache_key_separates_spec_grid_and_seed() {
        let grid_a = CalibrationGrid::coarse();
        let grid_b = CalibrationGrid::default();
        let disk = DeviceSpec::Disk(DiskParams::scsi_15k(1 << 30));
        let ssd = DeviceSpec::Ssd(SsdParams::sata_gen1(1 << 30));
        let base = calibration_key(&disk, &grid_a, 7);
        assert_eq!(
            base,
            calibration_key(&disk, &grid_a, 7),
            "key must be stable"
        );
        assert_ne!(
            base,
            calibration_key(&disk, &grid_b, 7),
            "grid must be in the key"
        );
        assert_ne!(
            base,
            calibration_key(&ssd, &grid_a, 7),
            "spec must be in the key"
        );
        assert_ne!(
            base,
            calibration_key(&disk, &grid_a, 8),
            "seed must be in the key"
        );
    }

    #[test]
    fn fit_cache_key_tracks_trace_and_inventory() {
        let trace_a = one_record_trace(0);
        let trace_b = one_record_trace(8192);
        let config = FitConfig::default();
        let names = ["obj".to_string()];
        let key = |trace: &Trace, sizes: &[u64], objective: ObjectiveKind| {
            fit_key(trace.content_hash(), &names, sizes, &config, objective)
        };
        let minmax = ObjectiveKind::MinMax;
        let base = key(&trace_a, &[1 << 20], minmax);
        assert_eq!(base, key(&trace_a, &[1 << 20], minmax));
        assert_ne!(
            base,
            key(&trace_b, &[1 << 20], minmax),
            "trace must be in the key"
        );
        assert_ne!(
            base,
            key(&trace_a, &[2 << 20], minmax),
            "inventory must be in the key"
        );
        // The objective id partitions the cache: each objective's warm
        // path only ever sees entries its own cold path wrote.
        for objective in [ObjectiveKind::ProvisioningCost, ObjectiveKind::WearBlend] {
            assert_ne!(
                base,
                key(&trace_a, &[1 << 20], objective),
                "objective {} must be in the key",
                objective.name()
            );
        }
    }

    #[test]
    fn cache_keys_are_pinned_so_persisted_caches_keep_hitting() {
        // Caches persisted by `Service::persist` are looked up by these
        // keys; a change to the hashed bytes silently turns every
        // existing cache directory cold.
        let disk = DeviceSpec::Disk(DiskParams::scsi_15k(1 << 30));
        assert_eq!(
            calibration_key(&disk, &CalibrationGrid::coarse(), 7),
            3761347789911185639
        );
        let names = ["obj".to_string()];
        assert_eq!(
            fit_key(
                one_record_trace(0).content_hash(),
                &names,
                &[1 << 20],
                &FitConfig::default(),
                ObjectiveKind::MinMax,
            ),
            6531777407352739861
        );
    }
}
