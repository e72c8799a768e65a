//! Streaming op-log ingestion, end to end: capture equivalence, fit
//! cache sharing across representations, and replay-validation
//! determinism.
//!
//! This suite runs inside the `ci/check.sh` fault matrix, so every
//! assertion is an equality or determinism claim that holds under any
//! active fault plan — faults change *results*, deterministically, and
//! the salvage path is keyed exactly like the clean path. Only the
//! salvage tests set the fault-seed environment variable, each for the
//! span of a call and restoring the outer value; every test holds one
//! lock, so no test observes another's plan.

use std::sync::{Mutex, MutexGuard};
use wasla::core::ObjectiveKind;
use wasla::pipeline::{AdviseConfig, RunSettings, Scenario};
use wasla::replay::{capture_oplog, replay_validate, CaptureOutcome};
use wasla::session::AdvisorSession;
use wasla::simlib::fault::{self, FaultPlan};
use wasla::simlib::{json, SimTime};
use wasla::storage::{BlockTraceRecord, IoKind};
use wasla::trace::oplog::{OpLog, OpRecord};
use wasla::trace::{FitConfig, FitError, FitRecord, SalvageReport};
use wasla::workload::{SqlWorkload, WorkloadSet};
use wasla::WaslaError;

#[path = "../crates/trace/tests/reference/mod.rs"]
mod reference;

/// Serializes the suite: the salvage tests set the fault-seed variable
/// that every other test observes through `fault::plan()`.
static PLAN: Mutex<()> = Mutex::new(());

fn plan_lock() -> MutexGuard<'static, ()> {
    PLAN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` with the fault seed set to `seed` (`None`: faults off),
/// then restores the outer value — the suite also runs inside the CI
/// fault matrix. Callers hold [`plan_lock`].
fn with_fault_seed<T>(seed: Option<u64>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            match &self.0 {
                Some(outer) => std::env::set_var(fault::ENV_VAR, outer),
                None => std::env::remove_var(fault::ENV_VAR),
            }
        }
    }
    let _restore = Restore(std::env::var(fault::ENV_VAR).ok());
    match seed {
        Some(seed) => std::env::set_var(fault::ENV_VAR, seed.to_string()),
        None => std::env::remove_var(fault::ENV_VAR),
    }
    f()
}

fn scenario() -> Scenario {
    Scenario::homogeneous_disks(4, 0.01)
}

fn capture(settings: &RunSettings) -> CaptureOutcome {
    capture_oplog(&scenario(), &[SqlWorkload::olap1_21(3)], settings)
        .expect("capture must survive fault injection")
}

/// The op-log is the trace plus timing: materializing the captured log
/// reproduces the block trace the same run records, bit for bit.
#[test]
fn captured_log_materializes_to_the_captured_trace() {
    let _lock = plan_lock();
    let settings = RunSettings {
        capture_trace: true,
        ..RunSettings::default()
    };
    let c = capture(&settings);
    let trace = c.report.trace.as_ref().expect("trace captured alongside");
    assert_eq!(c.log.len(), trace.len(), "same request stream");
    assert_eq!(
        c.log.trace_content_hash(),
        trace.content_hash(),
        "log-derived hash must equal the materialized trace hash"
    );
    assert_eq!(c.log.to_trace().records(), trace.records());
}

/// One cache entry serves every representation of the same I/O: a
/// streamed ingest warms the fit cache for the materialized path and
/// for later re-ingests (including the salvage path under a fault
/// plan, which is keyed by the damaged content hash).
#[test]
fn session_shares_fit_cache_across_representations() {
    let _lock = plan_lock();
    let c = capture(&RunSettings::default());
    let s = scenario();
    let names = s.catalog.names();
    let sizes = s.catalog.sizes();
    let config = FitConfig::default();

    let mut session = AdvisorSession::new();
    let (first, first_salvage) = session
        .ingest_oplog(&c.log, &names, &sizes, &config, ObjectiveKind::MinMax)
        .expect("ingest");
    assert_eq!(session.stats().fit.misses, 1);

    // Re-ingesting the same log is a pure cache hit with an identical
    // answer — also under a fault plan, where the salvage short-cut
    // answers from the damaged-hash key without rebuilding the trace.
    let (again, again_salvage) = session
        .ingest_oplog(&c.log, &names, &sizes, &config, ObjectiveKind::MinMax)
        .expect("re-ingest");
    assert_eq!(json::to_string(&first), json::to_string(&again));
    assert_eq!(
        first_salvage.map(|s| (s.kept, s.dropped)),
        again_salvage.map(|s| (s.kept, s.dropped))
    );
    let stats = session.stats();
    assert_eq!(stats.fit.misses, 1, "re-ingest must not recompute");
    assert!(stats.fit.hits >= 1);

    // On a clean plan the materialized trace path lands on the very
    // same cache entry the streamed path filled.
    let clean = fault::plan()
        .and_then(|p| p.trace_fault(c.log.trace_content_hash()))
        .is_none();
    if clean {
        assert!(first_salvage.is_none(), "clean ingest must not salvage");
        let materialized = session
            .fit(
                &c.log.to_trace(),
                &names,
                &sizes,
                &config,
                ObjectiveKind::MinMax,
            )
            .expect("materialized fit");
        assert_eq!(json::to_string(&first), json::to_string(&materialized));
        assert_eq!(
            session.stats().fit.misses,
            1,
            "materialized fit must hit the streamed entry"
        );
    } else {
        let salvage = first_salvage.expect("fault plan must damage the log");
        assert!(salvage.kept > 0, "engine-produced prefix salvages");
        assert!(salvage.dropped > 0, "damage drops the tail");
    }
}

/// The replay-validation loop is complete (every captured op is issued
/// and, absent faults, completed) and deterministic: two sessions over
/// the same log render byte-identical reports.
#[test]
fn replay_validation_is_complete_and_deterministic() {
    let _lock = plan_lock();
    let c = capture(&RunSettings::default());
    let s = scenario();
    let config = AdviseConfig::fast();

    let mut session = AdvisorSession::new();
    let v = replay_validate(&mut session, &c.log, &s, &config).expect("validate");
    assert_eq!(v.baseline.observed.issued, c.log.len() as u64);
    assert!(v.baseline.observed.completed <= v.baseline.observed.issued);
    if fault::plan().is_none() {
        assert_eq!(v.baseline.observed.completed, v.baseline.observed.issued);
        assert_eq!(v.advised.observed.completed, v.advised.observed.issued);
    }
    assert!(v.baseline.observed.makespan.is_finite());
    assert!(v.predicted_advised_makespan.is_finite());
    assert!(v.baseline.predicted_max() >= 0.0);

    let mut fresh = AdvisorSession::new();
    let w = replay_validate(&mut fresh, &c.log, &s, &config).expect("revalidate");
    assert_eq!(
        wasla::replay::render_validation(&v, &s),
        wasla::replay::render_validation(&w, &s),
        "same log, same scenario, same config → byte-identical report"
    );
}

/// A `len`-record log over three objects; `bad` names a record whose
/// stream id is out of the catalog's range.
fn synth_log(len: u64, bad: Option<(u64, u32)>) -> OpLog {
    let mut log = OpLog::new();
    for k in 0..len {
        let stream = match bad {
            Some((at, stream)) if at == k => stream,
            _ => (k % 3) as u32,
        };
        let issue = SimTime::from_secs(k as f64 * 0.37);
        log.push(OpRecord {
            kind: if k % 4 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            },
            stream,
            offset: if k % 5 == 0 { k * 97_777 } else { k * 8192 },
            len: 8192,
            issue,
            complete: issue + SimTime::from_secs(0.001),
        });
    }
    log
}

fn catalog() -> (Vec<String>, Vec<u64>) {
    (
        vec!["a".into(), "b".into(), "c".into()],
        vec![1u64 << 30; 3],
    )
}

/// The first fault seed whose plan satisfies `want`.
fn find_seed(want: impl Fn(&FaultPlan) -> bool) -> u64 {
    (1u64..50_000)
        .find(|&s| FaultPlan::from_seed(s).is_some_and(|p| want(&p)))
        .expect("no exhibit seed found in range")
}

/// Where `plan` cuts `log`, if it faults it.
fn cut(plan: &FaultPlan, log: &OpLog) -> Option<usize> {
    plan.trace_keep(log.trace_content_hash(), log.len())
}

fn ingest(
    session: &mut AdvisorSession,
    log: &OpLog,
) -> Result<(WorkloadSet, Option<SalvageReport>), WaslaError> {
    let (names, sizes) = catalog();
    session.ingest_oplog(
        log,
        &names,
        &sizes,
        &FitConfig::default(),
        ObjectiveKind::MinMax,
    )
}

/// The independent reference fit of a record slice.
fn reference_fit(records: &[OpRecord]) -> String {
    let (names, sizes) = catalog();
    let config = FitConfig::default();
    let blocks: Vec<BlockTraceRecord> = records.iter().map(FitRecord::block).collect();
    json::to_string(&reference::reference_fit(
        &blocks,
        &names,
        &sizes,
        config.window_s,
        config.gap_tolerance,
    ))
}

/// Regression: an op-log with an out-of-range stream id inside the
/// prefix a trace fault keeps used to salvage differently cold
/// (cut at the bad record) and warm (cut at the damage point). The
/// kept prefix is now fitted as strictly as a clean log, so cold, warm
/// and fault-free ingests all report the same typed error.
#[test]
fn malformed_log_salvage_is_as_strict_as_the_clean_path() {
    let _lock = plan_lock();
    let log = synth_log(100, Some((10, 99)));
    let seed = find_seed(|p| p.trace_fault(log.trace_content_hash()).is_some());
    let mut session = AdvisorSession::new();
    let (cold, warm) = with_fault_seed(Some(seed), || {
        (ingest(&mut session, &log), ingest(&mut session, &log))
    });
    let clean = with_fault_seed(None, || ingest(&mut AdvisorSession::new(), &log));
    let want = WaslaError::Fit(FitError::StreamOutOfRange {
        stream: 99,
        objects: 3,
    });
    for (path, got) in [("cold", cold), ("warm", warm), ("fault-free", clean)] {
        assert_eq!(got.err(), Some(want.clone()), "{path} ingest");
    }
}

/// A salvaged ingest is exactly the fit of the clean prefix before the
/// damage point, cold and warm, with the cut reported.
#[test]
fn salvaged_ingest_fits_exactly_the_clean_prefix() {
    let _lock = plan_lock();
    let log = synth_log(40, None);
    let seed = find_seed(|p| cut(p, &log).is_some_and(|keep| keep > 0));
    let keep = FaultPlan::from_seed(seed)
        .and_then(|p| cut(&p, &log))
        .expect("the seed cuts the log");
    let mut session = AdvisorSession::new();
    let (cold, warm) = with_fault_seed(Some(seed), || {
        (
            ingest(&mut session, &log).expect("cold salvage"),
            ingest(&mut session, &log).expect("warm salvage"),
        )
    });
    let report = SalvageReport {
        kept: keep,
        dropped: 40 - keep,
    };
    let prefix = reference_fit(&log.records()[..keep]);
    for (path, (set, salvage)) in [("cold", cold), ("warm", warm)] {
        assert_eq!(salvage, Some(report), "{path} report");
        assert_eq!(json::to_string(&set), prefix, "{path} fit");
    }
    assert_eq!(session.stats().fit.misses, 1, "the warm salvage is a hit");
}

/// A log no trace fault touches is fitted whole, with no salvage
/// report — with faults off and under a plan that spares it.
#[test]
fn clean_ingest_reports_no_salvage() {
    let _lock = plan_lock();
    let log = synth_log(40, None);
    let spared = find_seed(|p| cut(p, &log).is_none());
    let whole = reference_fit(log.records());
    for seed in [None, Some(spared)] {
        let (set, salvage) = with_fault_seed(seed, || ingest(&mut AdvisorSession::new(), &log))
            .expect("clean ingest");
        assert_eq!(salvage, None, "seed {seed:?}");
        assert_eq!(json::to_string(&set), whole, "seed {seed:?}");
    }
}

/// A cut that keeps nothing of a non-empty log leaves no signal to
/// salvage: the torn first record's typed error propagates. An empty
/// log has nothing to tear and fits idle.
#[test]
fn salvage_that_keeps_nothing_is_a_typed_error() {
    let _lock = plan_lock();
    let log = synth_log(1, None);
    let seed = find_seed(|p| cut(p, &log) == Some(0));
    let err = with_fault_seed(Some(seed), || ingest(&mut AdvisorSession::new(), &log));
    assert_eq!(
        err.err(),
        Some(WaslaError::Fit(FitError::StreamOutOfRange {
            stream: u32::MAX,
            objects: 3,
        }))
    );

    let empty = OpLog::new();
    let seed = find_seed(|p| cut(p, &empty).is_some());
    let (set, salvage) = with_fault_seed(Some(seed), || ingest(&mut AdvisorSession::new(), &empty))
        .expect("an empty log fits");
    assert_eq!(salvage, None);
    assert!(set.specs.iter().all(|s| s.total_rate() == 0.0));
}
