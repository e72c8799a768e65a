//! Sessioned advising: memoized stages and the batch service loop.
//!
//! [`AdvisorSession`] runs the staged pipeline (see
//! [`stages`](crate::stages)) while memoizing the outputs of the pure
//! stages in [`StageCache`]s:
//!
//! * calibration tables, keyed by `(DeviceSpec, CalibrationGrid,
//!   seed)` content hash — the dominant cost of a cold advise;
//! * fitted workload sets, keyed by `(trace content hash, fit config,
//!   object inventory)`.
//!
//! A warm session advising over a scenario whose device types it has
//! already calibrated skips recalibration entirely and produces a
//! recommendation byte-identical to the cold path (cached stage
//! outputs are bit-identical to freshly computed ones; only wall-clock
//! timings differ).
//!
//! [`Service`] fans a batch of advise requests across the
//! deterministic [`par`] pool: distinct calibrations are prewarmed
//! serially first (so each calibration's grid map runs outside the
//! batch fan-out; the fitter's and multistart's maps still nest inside
//! it), then requests run concurrently, each borrowing the session
//! read-only and writing what it computes into its own delta cache.
//! The deltas merge back in request order — so batch results are
//! bit-identical at any `WASLA_THREADS` setting, and a tick costs the
//! same however many fits the session has accumulated.

use crate::error::WaslaError;
use crate::persist;
use crate::pipeline::{assemble_problem, AdviseConfig, AdviseOutcome, DegradedNote, Scenario};
use crate::stages::{
    calibration_key, fit_key, RegularizeInput, RegularizeStage, SolveStage, TraceInput, TraceStage,
};
use std::path::PathBuf;
use wasla_core::{
    CacheStats, LayoutProblem, ObjectiveKind, Recommendation, SolveQuality, Stage, StageCache,
};
use wasla_exec::DeviceEvent;
use wasla_model::{
    calibrate_device, calibration_fault, CalibrationGrid, TableModel, TargetCostModel,
};
use wasla_simlib::fault::{self, SolverBudget};
use wasla_simlib::par;
use wasla_storage::{TargetConfig, Trace};
use wasla_trace::oplog::OpLog;
use wasla_trace::{fit_records, FitConfig, FitError, FitRecord, SalvageReport};
use wasla_workload::{DeadlineClass, SqlWorkload, WorkloadSet};

/// Hit/miss counters for a session's stage caches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Calibration-table cache counters.
    pub calibration: CacheStats,
    /// Workload-fit cache counters.
    pub fit: CacheStats,
}

/// A stateful advisor: the staged pipeline plus memoized outputs of
/// the cacheable stages.
#[derive(Clone, Debug, Default)]
pub struct AdvisorSession {
    calibrations: StageCache<TableModel>,
    fits: StageCache<WorkloadSet>,
}

impl AdvisorSession {
    /// A fresh session with empty caches.
    pub fn new() -> Self {
        AdvisorSession::default()
    }

    /// Cache hit/miss counters so far.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            calibration: self.calibrations.stats(),
            fit: self.fits.stats(),
        }
    }

    /// Number of calibration tables held.
    pub fn calibrations_cached(&self) -> usize {
        self.calibrations.len()
    }

    /// Number of fitted workload sets held.
    pub fn fits_cached(&self) -> usize {
        self.fits.len()
    }

    /// The stage caches, borrowed (the persistence layer serializes
    /// them without draining the session).
    pub(crate) fn caches(&self) -> (&StageCache<TableModel>, &StageCache<WorkloadSet>) {
        (&self.calibrations, &self.fits)
    }

    /// Rebuilds a session around restored caches (counters start at
    /// zero: restored entries are warm data that has served nothing).
    pub(crate) fn from_caches(
        calibrations: StageCache<TableModel>,
        fits: StageCache<WorkloadSet>,
    ) -> Self {
        AdvisorSession { calibrations, fits }
    }

    /// The session as a request with no shared layer sees it: every
    /// lookup and insert goes straight to this session's caches.
    fn own(&mut self) -> Layered<'_> {
        Layered {
            shared: None,
            delta: self,
        }
    }

    /// The calibration table for one target's member device,
    /// computing and caching it on a miss.
    fn calibration(
        &mut self,
        config: &TargetConfig,
        grid: &CalibrationGrid,
        seed: u64,
    ) -> Result<&TableModel, WaslaError> {
        let spec = TargetCostModel::member_spec(config)?;
        Ok(self
            .calibrations
            .get_or_insert_with(calibration_key(spec, grid, seed), || {
                calibrate_device(spec, grid, seed)
            }))
    }

    /// Target cost models for a scenario's targets, assembling each
    /// around a (possibly cached) member calibration table.
    pub fn models_for(
        &mut self,
        targets: &[TargetConfig],
        grid: &CalibrationGrid,
        seed: u64,
    ) -> Result<Vec<TargetCostModel>, WaslaError> {
        self.own().models_for(targets, grid, seed)
    }

    /// Fitted workload descriptions for a trace, reusing the cache
    /// when the same trace and inventory were fitted before (under the
    /// same layout objective — the objective id partitions the cache).
    /// Under an active trace fault the trace is salvaged exactly as
    /// [`advise`](AdvisorSession::advise) salvages it, so both return
    /// the same workloads for the same trace.
    pub fn fit(
        &mut self,
        trace: &Trace,
        names: &[String],
        sizes: &[u64],
        config: &FitConfig,
        objective: ObjectiveKind,
    ) -> Result<WorkloadSet, WaslaError> {
        let (fitted, _salvage) = self.own().fit_ingest(
            trace.records(),
            trace.content_hash(),
            |keep| trace.content_hash_damaged(keep),
            names,
            sizes,
            config,
            objective,
        )?;
        Ok(fitted)
    }

    /// Fitted workload descriptions from a captured op-log, folded
    /// straight from its records without materializing the equivalent
    /// [`Trace`]. The result is cached under
    /// [`OpLog::trace_content_hash`] — the same key the trace path
    /// uses — so a fit computed from a trace run serves a later op-log
    /// ingest of the same I/O and vice versa.
    ///
    /// Under an active trace fault the log's tail is salvaged exactly
    /// like [`advise`](AdvisorSession::advise) salvages a damaged live
    /// trace; the returned report is `Some` when records were dropped.
    pub fn ingest_oplog(
        &mut self,
        log: &OpLog,
        names: &[String],
        sizes: &[u64],
        config: &FitConfig,
        objective: ObjectiveKind,
    ) -> Result<(WorkloadSet, Option<SalvageReport>), WaslaError> {
        self.own().fit_ingest(
            log.records(),
            log.trace_content_hash(),
            |keep| log.trace_content_hash_damaged(keep),
            names,
            sizes,
            config,
            objective,
        )
    }

    /// The advise pipeline fed from a captured op-log instead of a
    /// fresh trace-collection run: streamed ingest → calibrate →
    /// solve → regularize. No simulation runs; the log stands in for
    /// the operational system's observed I/O.
    pub fn advise_from_oplog(
        &mut self,
        log: &OpLog,
        scenario: &Scenario,
        config: &AdviseConfig,
    ) -> Result<OpLogAdvice, WaslaError> {
        let (fitted, salvage) = self.ingest_oplog(
            log,
            &scenario.catalog.names(),
            &scenario.catalog.sizes(),
            &config.fit,
            config.advisor.solver.objective,
        )?;
        let mut degraded = Vec::new();
        let (problem, recommendation) =
            self.own()
                .advise_fitted(scenario, &fitted, salvage, config, &mut degraded)?;
        Ok(OpLogAdvice {
            fitted,
            problem,
            recommendation,
            degraded,
        })
    }

    /// The full staged pipeline — trace → fit → calibrate → solve →
    /// regularize — with the pure stages served from this session's
    /// caches.
    pub fn advise(
        &mut self,
        scenario: &Scenario,
        workloads: &[SqlWorkload],
        config: &AdviseConfig,
    ) -> Result<AdviseOutcome, WaslaError> {
        self.own().advise(scenario, workloads, config)
    }

    /// Folds one request's delta (a session that started empty and
    /// holds only what that request computed) into this session: its
    /// counters add up, and its new entries land first-write-wins in
    /// merge order.
    fn absorb(&mut self, delta: AdvisorSession) {
        self.calibrations.absorb(delta.calibrations);
        self.fits.absorb(delta.fits);
    }
}

/// The session caches one request sees: an optional read-only
/// `shared` layer (the service's session during a batch fan-out) over
/// the writable `delta`, which counts the request's hits and misses
/// and holds what it computed. A hit in `shared` counts on `delta`, so
/// the delta's counters are exactly what a private copy of the shared
/// session would have counted. Direct session calls have no shared
/// layer and write into the session itself.
struct Layered<'s> {
    shared: Option<&'s AdvisorSession>,
    delta: &'s mut AdvisorSession,
}

impl Layered<'_> {
    /// The calibration table for one target's member device,
    /// computing it on a cache miss.
    fn member_table(
        &mut self,
        config: &TargetConfig,
        grid: &CalibrationGrid,
        seed: u64,
    ) -> Result<TableModel, WaslaError> {
        if let Some(shared) = self.shared {
            let spec = TargetCostModel::member_spec(config)?;
            if let Some(table) = shared.calibrations.peek(calibration_key(spec, grid, seed)) {
                self.delta.calibrations.record_hit();
                return Ok(table.clone());
            }
        }
        Ok(self.delta.calibration(config, grid, seed)?.clone())
    }

    /// Target cost models for a scenario's targets.
    fn models_for(
        &mut self,
        targets: &[TargetConfig],
        grid: &CalibrationGrid,
        seed: u64,
    ) -> Result<Vec<TargetCostModel>, WaslaError> {
        targets
            .iter()
            .map(|config| {
                let member = self.member_table(config, grid, seed)?;
                TargetCostModel::with_member(config, member).map_err(WaslaError::from)
            })
            .collect()
    }

    /// The keyed fit behind every ingest path: the cache entry for
    /// `key`, or a fresh fit of `records` stored under it.
    fn fit_keyed<R: FitRecord>(
        &mut self,
        key: u64,
        records: &[R],
        names: &[String],
        sizes: &[u64],
        config: &FitConfig,
    ) -> Result<WorkloadSet, WaslaError> {
        if let Some(cached) = self.shared.and_then(|shared| shared.fits.peek(key)) {
            self.delta.fits.record_hit();
            return Ok(cached.clone());
        }
        if let Some(cached) = self.delta.fits.get(key) {
            return Ok(cached.clone());
        }
        let fitted = fit_records(records, names, sizes, config)?;
        self.delta.fits.insert(key, fitted.clone());
        Ok(fitted)
    }

    /// The salvage rule shared by the trace and op-log paths. Without a
    /// trace fault, `records` is fitted whole under `hash`. Under one,
    /// the stream is cut at the damage point
    /// ([`FaultPlan::trace_keep`](fault::FaultPlan::trace_keep)) and
    /// the kept prefix is fitted — as strictly as a clean stream —
    /// under `damaged_hash(keep)`, so warm and cold sessions agree byte
    /// for byte and a salvage cached from either representation serves
    /// both. A cut that keeps nothing of a non-empty stream leaves no
    /// signal to salvage, so the torn first record's
    /// `StreamOutOfRange` propagates. The report is `Some` when records
    /// were dropped.
    #[allow(clippy::too_many_arguments)]
    fn fit_ingest<R: FitRecord>(
        &mut self,
        records: &[R],
        hash: u64,
        damaged_hash: impl FnOnce(usize) -> u64,
        names: &[String],
        sizes: &[u64],
        config: &FitConfig,
        objective: ObjectiveKind,
    ) -> Result<(WorkloadSet, Option<SalvageReport>), WaslaError> {
        let key = |hash| fit_key(hash, names, sizes, config, objective);
        let Some(keep) = fault::plan().and_then(|p| p.trace_keep(hash, records.len())) else {
            return Ok((
                self.fit_keyed(key(hash), records, names, sizes, config)?,
                None,
            ));
        };
        if keep == 0 && !records.is_empty() {
            return Err(FitError::StreamOutOfRange {
                stream: u32::MAX,
                objects: names.len(),
            }
            .into());
        }
        let damaged = key(damaged_hash(keep));
        let fitted = self.fit_keyed(damaged, &records[..keep], names, sizes, config)?;
        let salvage = SalvageReport {
            kept: keep,
            dropped: records.len() - keep,
        };
        Ok((fitted, salvage.degraded().then_some(salvage)))
    }

    /// The tail both advise paths share once the workloads are fitted:
    /// note a salvage, calibrate (noting degraded calibrations),
    /// assemble the problem, solve and regularize.
    fn advise_fitted(
        &mut self,
        scenario: &Scenario,
        fitted: &WorkloadSet,
        salvage: Option<SalvageReport>,
        config: &AdviseConfig,
        degraded: &mut Vec<DegradedNote>,
    ) -> Result<(LayoutProblem, Recommendation), WaslaError> {
        if let Some(s) = salvage {
            degraded.push(DegradedNote::TraceSalvaged {
                kept: s.kept,
                dropped: s.dropped,
            });
        }
        let models = self.models_for(&scenario.targets, &config.grid, scenario.seed)?;
        // Calibration faults are applied inside `calibrate_device`;
        // re-query the plan here to note which targets got a degraded
        // model (the cached table carries the degradation with it).
        for target in &scenario.targets {
            let spec = TargetCostModel::member_spec(target)?;
            if let Some(f) = calibration_fault(spec, scenario.seed) {
                degraded.push(DegradedNote::CalibrationDegraded {
                    device: target.name.clone(),
                    factor: f.latency_factor(),
                });
            }
        }
        let problem =
            assemble_problem(scenario, fitted.clone(), models, config.constraints.clone());
        let solve = SolveStage {
            options: &config.advisor,
        };
        let solved = solve.run(&problem)?;
        let finish = RegularizeStage {
            options: &config.advisor,
        };
        let recommendation = finish.run(&RegularizeInput {
            problem: &problem,
            solved,
        })?;
        if recommendation.quality.degraded() {
            degraded.push(DegradedNote::SolverDegraded {
                quality: recommendation.quality,
            });
        }
        Ok((problem, recommendation))
    }

    /// The full staged pipeline — trace → fit → calibrate → solve →
    /// regularize — with the pure stages served from the layered
    /// caches.
    fn advise(
        &mut self,
        scenario: &Scenario,
        workloads: &[SqlWorkload],
        config: &AdviseConfig,
    ) -> Result<AdviseOutcome, WaslaError> {
        let mut degraded: Vec<DegradedNote> = Vec::new();
        let trace_stage = TraceStage {
            settings: &config.trace_run,
        };
        let trace_outcome = trace_stage.run(&TraceInput {
            scenario,
            workloads,
        })?;
        for event in &trace_outcome.device_events {
            let target = scenario.targets[event.target()].name.clone();
            degraded.push(match event {
                DeviceEvent::Degraded { factor, .. } => DegradedNote::DeviceDegraded {
                    target,
                    factor: *factor,
                },
                DeviceEvent::Failed { .. } => DegradedNote::DeviceFailed { target },
            });
        }
        let baseline_run = trace_outcome.report;
        let trace = baseline_run.trace.as_ref().ok_or_else(|| {
            WaslaError::Internal("trace stage returned a report without a trace".to_string())
        })?;
        let (fitted, salvage) = self.fit_ingest(
            trace.records(),
            trace.content_hash(),
            |keep| trace.content_hash_damaged(keep),
            &scenario.catalog.names(),
            &scenario.catalog.sizes(),
            &config.fit,
            config.advisor.solver.objective,
        )?;
        let (problem, recommendation) =
            self.advise_fitted(scenario, &fitted, salvage, config, &mut degraded)?;
        Ok(AdviseOutcome {
            baseline_run,
            fitted,
            problem,
            recommendation,
            degraded,
        })
    }
}

/// What [`AdvisorSession::advise_from_oplog`] produced. Unlike
/// [`AdviseOutcome`] there is no baseline run report: the op-log *is*
/// the baseline observation.
pub struct OpLogAdvice {
    /// The fitted per-object workload descriptions.
    pub fitted: WorkloadSet,
    /// The assembled layout problem (with calibrated models).
    pub problem: LayoutProblem,
    /// The advisor's recommendation.
    pub recommendation: Recommendation,
    /// Degradations the pipeline worked around (empty on a clean run).
    pub degraded: Vec<DegradedNote>,
}

/// One request in a [`Service::advise_batch_with`] call.
#[derive(Clone)]
pub struct AdviseRequest {
    /// The scenario to advise.
    pub scenario: Scenario,
    /// The SQL workloads to trace and fit.
    pub workloads: Vec<SqlWorkload>,
    /// Pipeline configuration.
    pub config: AdviseConfig,
    /// Seed for the advisor's randomized starts. `None` derives a
    /// per-request seed from the service's base seed and the request
    /// index ([`par::task_seed`]), keeping batch results independent
    /// of thread count and batch composition order.
    pub seed: Option<u64>,
    /// The tenant's deadline class. `None` behaves like
    /// [`DeadlineClass::Standard`] for admission priority but imposes
    /// no solve-budget deadline at all (the historical behavior).
    pub deadline: Option<DeadlineClass>,
}

impl AdviseRequest {
    /// A request with the default (index-derived) seed and no
    /// deadline.
    pub fn new(scenario: Scenario, workloads: Vec<SqlWorkload>, config: AdviseConfig) -> Self {
        AdviseRequest {
            scenario,
            workloads,
            config,
            seed: None,
            deadline: None,
        }
    }

    /// The same request under a deadline class.
    pub fn with_deadline(mut self, deadline: DeadlineClass) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Admission, deadline, and retry policy for one
/// [`Service::advise_batch_with`] call.
///
/// The default policy reproduces the historical single-entry batch
/// behavior byte-for-byte: unbounded admission, no brownout, and the
/// original retry budget of two attempts (one retry), deterministic by
/// request index.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchPolicy {
    /// Hard admission bound: requests whose admission position is at
    /// or past this capacity are rejected with
    /// [`WaslaError::Overloaded`] before any pipeline work runs.
    /// `None` admits everything.
    pub queue_capacity: Option<usize>,
    /// Soft admission bound (brownout): admitted requests at or past
    /// this position run at the cheapest solve rung (rate-greedy) and
    /// carry a [`DegradedNote::Shed`] instead of being rejected.
    /// `None` browns nothing out.
    pub brownout_threshold: Option<usize>,
    /// Total attempts per request under an active fault plan (the
    /// first try plus retries). The default of 2 is the historical
    /// single-retry budget. Values are clamped to at least 1.
    pub max_attempts: u32,
    /// Base virtual backoff (in abstract slots) before the first
    /// retry; doubles per attempt. Backoff is *virtual*: simulators
    /// model time rather than waiting on it, so the schedule is
    /// recorded in the decision log instead of slept.
    pub backoff_base: u64,
    /// Cap on the exponential backoff slot count.
    pub backoff_cap: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            queue_capacity: None,
            brownout_threshold: None,
            max_attempts: 2,
            backoff_base: 1,
            backoff_cap: 8,
        }
    }
}

impl BatchPolicy {
    /// The deterministic virtual backoff taken after failed `attempt`
    /// (0-based): exponential in the attempt index, capped, plus
    /// bounded jitter derived from the request key via
    /// [`par::task_seed`] — so retry schedules are reproducible at any
    /// `WASLA_THREADS` and under any batch composition.
    pub fn backoff_slots(&self, request_key: u64, attempt: u32) -> u64 {
        let slot = self
            .backoff_base
            .saturating_mul(1u64 << attempt.min(16))
            .clamp(1, self.backoff_cap.max(1));
        slot + par::task_seed(request_key, attempt as u64 + 1) % slot
    }
}

/// The solve budget a deadline class grants on a given attempt. Each
/// consumed retry spends deadline in backoff, so the solve budget
/// tightens one rung per attempt — the request degrades through the
/// anytime chain (full → budgeted → PG-only → rate-greedy) instead of
/// failing. `Batch` has no deadline: full quality at any attempt.
fn deadline_budget(class: DeadlineClass, attempt: u32) -> Option<SolverBudget> {
    let base_rung = match class {
        DeadlineClass::Batch => return None,
        DeadlineClass::Standard => 0,
        DeadlineClass::Interactive => 1,
    };
    match base_rung + attempt.min(8) {
        0 => None,
        1 => Some(SolverBudget::Tight),
        2 => Some(SolverBudget::PgOnly),
        _ => Some(SolverBudget::GreedyOnly),
    }
}

/// Admission order of a batch: deadline priority first (interactive
/// before standard before batch; requests without a class rank as
/// standard), request index as the tie-break. A pure function of the
/// request list, so positions are identical at any thread count.
fn admission_order(requests: &[AdviseRequest]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| {
        (
            requests[i]
                .deadline
                .map_or(DeadlineClass::Standard.priority(), |c| c.priority()),
            i,
        )
    });
    order
}

/// How one batch slot ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotDisposition {
    /// Admitted and advised at full quality with no degradations.
    Ok,
    /// Admitted and advised, but with typed degradation notes.
    Degraded,
    /// Admitted but ended in a typed error.
    Failed,
    /// Rejected by admission control ([`WaslaError::Overloaded`]).
    Rejected,
}

impl SlotDisposition {
    /// Stable lower-case label for the decision log.
    pub fn label(self) -> &'static str {
        match self {
            SlotDisposition::Ok => "ok",
            SlotDisposition::Degraded => "degraded",
            SlotDisposition::Failed => "failed",
            SlotDisposition::Rejected => "rejected",
        }
    }
}

/// The per-request decision record of one batch: admission outcome,
/// retry/backoff schedule, and final disposition. Every field is a
/// deterministic function of (requests, policy, fault plan), so the
/// rendered log is byte-identical at any `WASLA_THREADS`.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotDecision {
    /// Request index in the batch.
    pub index: usize,
    /// The request's deadline class (`None` ranks as standard).
    pub class: Option<DeadlineClass>,
    /// Position in the admission order.
    pub position: usize,
    /// False when admission control rejected the request outright.
    pub admitted: bool,
    /// True when the request was browned out (cheapest-rung solve).
    pub shed: bool,
    /// Attempts used (faulted tries plus the one that ran; equals the
    /// policy budget when every attempt faulted).
    pub attempts: u32,
    /// Virtual backoff slots taken after each faulted attempt.
    pub backoff: Vec<u64>,
    /// Solve quality of the successful outcome, if any.
    pub quality: Option<SolveQuality>,
    /// How the slot ended.
    pub disposition: SlotDisposition,
}

/// Everything [`Service::advise_batch_with`] produced: the per-request
/// outcomes plus the decision log.
pub struct BatchReport {
    /// Per-request results, in request order.
    pub outcomes: Vec<Result<AdviseOutcome, WaslaError>>,
    /// Per-request decisions, in request order.
    pub decisions: Vec<SlotDecision>,
}

impl BatchReport {
    /// Renders the decision log in a stable line-per-slot text form
    /// (the `WASLA_THREADS` 1-vs-8 byte-compare target in CI).
    pub fn render_decisions(&self) -> String {
        render_decisions(&self.decisions)
    }
}

/// Renders slot decisions one line per slot, stable across runs.
pub fn render_decisions(decisions: &[SlotDecision]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in decisions {
        let backoff: Vec<String> = d.backoff.iter().map(|b| b.to_string()).collect();
        let quality = match d.quality {
            Some(q) => format!("{q:?}"),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "slot={} class={} pos={} admitted={} shed={} attempts={} backoff=[{}] quality={} disposition={}",
            d.index,
            d.class.map_or("default", |c| c.label()),
            d.position,
            if d.admitted { "yes" } else { "no" },
            if d.shed { "yes" } else { "no" },
            d.attempts,
            backoff.join(","),
            quality,
            d.disposition.label(),
        );
    }
    out
}

/// A long-lived advising service: one shared [`AdvisorSession`] plus a
/// deterministic batch loop, optionally backed by a crash-safe cache
/// directory.
pub struct Service {
    session: AdvisorSession,
    base_seed: u64,
    cache_dir: Option<PathBuf>,
}

impl Service {
    /// A service with empty caches and the given base seed for
    /// per-request seed derivation.
    pub fn new(base_seed: u64) -> Self {
        Service {
            session: AdvisorSession::new(),
            base_seed,
            cache_dir: None,
        }
    }

    /// Opens a service backed by a persisted cache directory: stage
    /// caches saved by a previous [`persist`](Service::persist) are
    /// restored, so a restarted service starts warm and reproduces
    /// warm results byte-for-byte. Missing files mean a cold start;
    /// corrupt or version-skewed files are quarantined (renamed to
    /// `<file>.quarantined`, reported as a
    /// [`DegradedNote::CacheQuarantined`]) and the cache rebuilds
    /// transparently — never a panic, never a poisoned session.
    pub fn open(
        base_seed: u64,
        cache_dir: impl Into<PathBuf>,
    ) -> Result<(Service, Vec<DegradedNote>), WaslaError> {
        let cache_dir = cache_dir.into();
        let (session, notes) = persist::load_session(&cache_dir)?;
        Ok((
            Service {
                session,
                base_seed,
                cache_dir: Some(cache_dir),
            },
            notes,
        ))
    }

    /// Writes the session caches to the cache directory (versioned,
    /// checksummed, atomic rename-on-write). A no-op for services
    /// without a cache directory.
    pub fn persist(&self) -> Result<(), WaslaError> {
        match &self.cache_dir {
            Some(dir) => persist::save_session(dir, &self.session),
            None => Ok(()),
        }
    }

    /// The shared session (cache statistics, warm state).
    pub fn session(&self) -> &AdvisorSession {
        &self.session
    }

    /// Mutable access to the shared session, for direct stage work —
    /// op-log ingestion and replay advising run against the same
    /// caches [`advise_batch_with`](Service::advise_batch_with) warms and
    /// [`persist`](Service::persist) saves.
    pub fn session_mut(&mut self) -> &mut AdvisorSession {
        &mut self.session
    }

    /// The cache directory this service persists to, if any. The
    /// daemon loop stores its controller checkpoint alongside the
    /// stage caches.
    pub(crate) fn cache_dir(&self) -> Option<&std::path::Path> {
        self.cache_dir.as_deref()
    }

    /// Advises every request under an admission/deadline/retry
    /// policy, fanning across the [`par`] pool, and returns the
    /// decision log alongside the outcomes.
    ///
    /// Distinct member calibrations are prewarmed serially first (each
    /// is internally parallel). In the fan-out every request borrows
    /// the warm session read-only and writes what it computes, hits and
    /// misses included, into its own delta; the deltas merge back into
    /// the session in request order. No request copies the session, so
    /// a tick costs O(batch) however many fits the service holds.
    /// Results are bit-identical at any `WASLA_THREADS` setting, and a
    /// warm service returns byte-identical recommendations to a cold
    /// one (only wall-clock timings differ).
    ///
    /// Every request resolves to exactly one of: an [`AdviseOutcome`]
    /// (possibly with typed [`DegradedNote`]s), or a typed
    /// [`WaslaError`] ([`WaslaError::Overloaded`] for rejected
    /// requests, [`WaslaError::Fault`] for persistent injected
    /// faults) — never a panic. Admission positions, shed/brownout
    /// assignments, retry counts, and backoff schedules are pure
    /// functions of `(requests, policy, fault plan)`, so the whole
    /// report is byte-identical at any `WASLA_THREADS`.
    pub fn advise_batch_with(
        &mut self,
        requests: &[AdviseRequest],
        policy: &BatchPolicy,
    ) -> BatchReport {
        let n = requests.len();
        let order = admission_order(requests);
        let mut position = vec![0usize; n];
        for (pos, &i) in order.iter().enumerate() {
            position[i] = pos;
        }
        let admitted: Vec<bool> = (0..n)
            .map(|i| policy.queue_capacity.is_none_or(|c| position[i] < c))
            .collect();
        let shed: Vec<bool> = (0..n)
            .map(|i| admitted[i] && policy.brownout_threshold.is_some_and(|t| position[i] >= t))
            .collect();

        // Prewarm: every distinct (device, grid, seed) calibration the
        // admitted requests will need, serially at this level (each
        // calibration is internally parallel). Rejected requests never
        // touch the pipeline, so they warm nothing. Modeling errors
        // are left for the per-request run to report.
        for (i, request) in requests.iter().enumerate() {
            if !admitted[i] {
                continue;
            }
            for target in &request.scenario.targets {
                let _ =
                    self.session
                        .calibration(target, &request.config.grid, request.scenario.seed);
            }
        }

        let base_seed = self.base_seed;
        let attempts_budget = policy.max_attempts.max(1);
        let plan = fault::plan();
        let shared = &self.session;
        let indices: Vec<usize> = (0..n).collect();
        type SlotRun = (
            Result<AdviseOutcome, WaslaError>,
            SlotDecision,
            Option<AdvisorSession>,
        );
        let runs: Vec<SlotRun> = par::par_map(&indices, |&i| {
            let request = &requests[i];
            let mut decision = SlotDecision {
                index: i,
                class: request.deadline,
                position: position[i],
                admitted: admitted[i],
                shed: shed[i],
                attempts: 0,
                backoff: Vec::new(),
                quality: None,
                disposition: SlotDisposition::Rejected,
            };
            if !admitted[i] {
                // Typed load shedding: rejected before any work ran.
                let err = WaslaError::Overloaded {
                    position: position[i],
                    capacity: policy.queue_capacity.unwrap_or(0),
                };
                return (Err(err), decision, None);
            }
            let mut delta = AdvisorSession::new();
            let mut layered = Layered {
                shared: Some(shared),
                delta: &mut delta,
            };
            let seed = request
                .seed
                .unwrap_or_else(|| par::task_seed(base_seed, i as u64));
            // Bounded deterministic retry with virtual backoff: an
            // injected request fault consumes an attempt and records
            // its backoff slots; attempts roll independently per
            // (request index, attempt), so a transient fault succeeds
            // on retry and a persistent one surfaces as a typed
            // per-request error — the rest of the batch is unaffected.
            // Under a deadline class, each consumed attempt tightens
            // the solve budget one rung (backoff spends deadline).
            let request_key = fault::request_key(base_seed, i as u64);
            let mut outcome = None;
            for attempt in 0..attempts_budget {
                if plan.is_some_and(|p| p.request_fault(request_key, attempt)) {
                    decision
                        .backoff
                        .push(policy.backoff_slots(request_key, attempt));
                    continue;
                }
                decision.attempts = attempt + 1;
                let mut config = request.config.clone();
                config.advisor.seed = seed;
                let budget = if shed[i] {
                    // Brownout: cheapest rung, unconditionally.
                    Some(SolverBudget::GreedyOnly)
                } else {
                    request.deadline.and_then(|c| deadline_budget(c, attempt))
                };
                config.advisor.solve_budget = config.advisor.solve_budget.max(budget);
                outcome = Some(layered.advise(&request.scenario, &request.workloads, &config));
                break;
            }
            let outcome = outcome.unwrap_or_else(|| {
                decision.attempts = attempts_budget;
                Err(WaslaError::Fault {
                    attempts: attempts_budget,
                    detail: "injected request fault".to_string(),
                })
            });
            let outcome = outcome.map(|mut o| {
                if shed[i] {
                    o.degraded.push(DegradedNote::Shed {
                        position: position[i],
                        threshold: policy.brownout_threshold.unwrap_or(0),
                    });
                }
                o
            });
            decision.quality = outcome.as_ref().ok().map(|o| o.recommendation.quality);
            decision.disposition = match &outcome {
                Ok(o) if o.is_degraded() => SlotDisposition::Degraded,
                Ok(_) => SlotDisposition::Ok,
                Err(_) => SlotDisposition::Failed,
            };
            (outcome, decision, Some(delta))
        });

        let mut outcomes = Vec::with_capacity(runs.len());
        let mut decisions = Vec::with_capacity(runs.len());
        for (outcome, decision, delta) in runs {
            if let Some(delta) = delta {
                self.session.absorb(delta);
            }
            outcomes.push(outcome);
            decisions.push(decision);
        }
        BatchReport {
            outcomes,
            decisions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Scenario;

    #[test]
    fn warm_session_skips_recalibration_and_matches_cold() {
        let scenario = Scenario::homogeneous_disks(4, 0.01);
        let workloads = [SqlWorkload::olap1_21(3)];
        let config = AdviseConfig::fast();

        let mut session = AdvisorSession::new();
        let cold = session.advise(&scenario, &workloads, &config).unwrap();
        let after_cold = session.stats();
        // Four identical disks: one calibration, one fit, all misses.
        assert_eq!(after_cold.calibration.misses, 1);
        assert_eq!(after_cold.calibration.hits, 3);
        assert_eq!(session.calibrations_cached(), 1);

        let warm = session.advise(&scenario, &workloads, &config).unwrap();
        let after_warm = session.stats();
        assert_eq!(after_warm.calibration.misses, 1, "no recalibration");
        assert_eq!(after_warm.fit.misses, 1, "fit reused");

        // Same pipeline, same seeds → byte-identical recommendation
        // (timings excluded: they are wall-clock).
        assert_eq!(
            cold.recommendation.solver_layout,
            warm.recommendation.solver_layout
        );
        assert_eq!(
            cold.recommendation.regular_layout,
            warm.recommendation.regular_layout
        );
        assert_eq!(cold.recommendation.converged, warm.recommendation.converged);
        assert_eq!(
            cold.recommendation.fell_back_to_see,
            warm.recommendation.fell_back_to_see
        );
    }

    #[test]
    fn session_matches_cold_pipeline_advise() {
        let scenario = Scenario::homogeneous_disks(4, 0.01);
        let workloads = [SqlWorkload::olap1_21(3)];
        let config = AdviseConfig::fast();
        let via_pipeline = crate::pipeline::advise(&scenario, &workloads, &config).unwrap();
        let mut session = AdvisorSession::new();
        let via_session = session.advise(&scenario, &workloads, &config).unwrap();
        assert_eq!(
            via_pipeline.recommendation.solver_layout,
            via_session.recommendation.solver_layout
        );
        assert_eq!(
            via_pipeline.recommendation.regular_layout,
            via_session.recommendation.regular_layout
        );
    }
}
