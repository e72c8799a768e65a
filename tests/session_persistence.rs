//! Crash-safe session persistence, end to end: a [`Service`] opened on
//! a cache directory restarts warm and reproduces warm results
//! byte-for-byte; a corrupted snapshot is quarantined and rebuilt
//! transparently — including the op-log salvage path under a fault
//! plan, whose damaged-hash cache key must serve warm restarts without
//! re-reading the damaged records. One test function: it owns a fixed
//! scratch directory and the fault-seed environment variable.

use std::path::PathBuf;
use wasla::core::ObjectiveKind;
use wasla::persist;
use wasla::pipeline::{AdviseConfig, Scenario};
use wasla::session::{AdviseRequest, BatchPolicy, Service};
use wasla::simlib::fault::{self, FaultPlan};
use wasla::simlib::{json, SimTime};
use wasla::storage::IoKind;
use wasla::trace::oplog::{OpLog, OpRecord};
use wasla::trace::FitConfig;
use wasla::workload::SqlWorkload;
use wasla::DegradedNote;

fn requests() -> Vec<AdviseRequest> {
    vec![
        AdviseRequest::new(
            Scenario::homogeneous_disks(4, 0.01),
            vec![SqlWorkload::olap1_21(3)],
            AdviseConfig::fast(),
        ),
        AdviseRequest::new(
            Scenario::homogeneous_disks(4, 0.01),
            vec![SqlWorkload::olap8_63(5)],
            AdviseConfig::fast(),
        ),
    ]
}

/// Layouts from a batch run, unwrapped (no faults are active here).
fn layouts(service: &mut Service) -> Vec<(Vec<Vec<f64>>, Vec<Vec<f64>>)> {
    service
        .advise_batch_with(&requests(), &BatchPolicy::default())
        .outcomes
        .into_iter()
        .map(|outcome| {
            let outcome = outcome.expect("advise succeeds");
            (
                outcome.recommendation.solver_layout.rows().to_vec(),
                outcome.recommendation.final_layout().rows().to_vec(),
            )
        })
        .collect()
}

#[test]
fn service_restarts_warm_and_survives_cache_corruption() {
    std::env::remove_var(fault::ENV_VAR);
    let dir = PathBuf::from(std::env::temp_dir())
        .join(format!("wasla-session-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold start: nothing on disk, no notes, empty caches.
    let (mut cold, notes) = Service::open(0xBA7C4, &dir).expect("cold open");
    assert!(notes.is_empty(), "cold open must be silent: {notes:?}");
    assert_eq!(cold.session().calibrations_cached(), 0);
    let cold_layouts = layouts(&mut cold);
    cold.persist().expect("persist after cold batch");
    assert!(dir.join(persist::CALIBRATIONS_FILE).exists());
    assert!(dir.join(persist::FITS_FILE).exists());

    // Restart: caches restored, zero recomputation, byte-identical
    // results.
    let (mut warm, notes) = Service::open(0xBA7C4, &dir).expect("warm open");
    assert!(notes.is_empty(), "warm open must be silent: {notes:?}");
    assert_eq!(warm.session().calibrations_cached(), 1);
    assert!(warm.session().fits_cached() >= 1);
    let warm_layouts = layouts(&mut warm);
    assert_eq!(cold_layouts, warm_layouts, "warm must equal cold");
    let stats = warm.session().stats();
    assert_eq!(stats.calibration.misses, 0, "restored tables must serve");
    assert_eq!(stats.fit.misses, 0, "restored fits must serve");

    // Corrupt one snapshot: the open quarantines it, reports a typed
    // note, and the rebuilt service still reproduces the cold results.
    std::fs::write(dir.join(persist::CALIBRATIONS_FILE), "{torn write").unwrap();
    let (mut rebuilt, notes) = Service::open(0xBA7C4, &dir).expect("open past corruption");
    assert_eq!(notes.len(), 1, "expected one quarantine note: {notes:?}");
    assert!(
        matches!(&notes[0], DegradedNote::CacheQuarantined { path }
            if path.ends_with("calibrations.json.quarantined")),
        "got {:?}",
        notes[0]
    );
    assert!(dir.join("calibrations.json.quarantined").exists());
    assert_eq!(rebuilt.session().calibrations_cached(), 0, "rebuilt cold");
    assert!(rebuilt.session().fits_cached() >= 1, "fits were undamaged");
    let rebuilt_layouts = layouts(&mut rebuilt);
    assert_eq!(cold_layouts, rebuilt_layouts, "rebuild must equal cold");

    // And persisting again heals the directory for the next restart.
    rebuilt.persist().expect("persist after rebuild");
    let (healed, notes) = Service::open(0xBA7C4, &dir).expect("healed open");
    assert!(notes.is_empty(), "healed open must be silent: {notes:?}");
    assert_eq!(healed.session().calibrations_cached(), 1);
    drop(healed);

    // Op-log salvage, warm ≡ cold: under a fault plan that damages
    // this log, a cold ingest salvages and caches the fit under the
    // *damaged* content hash; a warm restart must serve the same
    // salvage from the restored cache with zero fit misses — i.e.
    // without rebuilding the damaged records at all.
    let log = synth_oplog();
    let names: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
    let sizes = vec![1u64 << 30; 3];
    let fit_config = FitConfig::default();
    let seed = (1u64..50_000)
        .find(|&s| {
            FaultPlan::from_seed(s)
                .map(|p| p.trace_fault(log.trace_content_hash()).is_some())
                .unwrap_or(false)
        })
        .expect("no exhibit seed damages this log");
    std::env::set_var(fault::ENV_VAR, seed.to_string());

    let (mut cold, _) = Service::open(0xBA7C4, &dir).expect("open for salvage phase");
    let (cold_set, cold_salvage) = cold
        .session_mut()
        .ingest_oplog(&log, &names, &sizes, &fit_config, ObjectiveKind::MinMax)
        .expect("salvaged ingest");
    let cold_salvage = cold_salvage.expect("the fault plan must damage the log");
    assert!(cold_salvage.kept > 0 && cold_salvage.dropped > 0);
    assert_eq!(
        cold.session().stats().fit.misses,
        1,
        "cold salvage fits once"
    );
    cold.persist().expect("persist the salvaged fit");

    let (mut warm, _) = Service::open(0xBA7C4, &dir).expect("warm salvage open");
    let (warm_set, warm_salvage) = warm
        .session_mut()
        .ingest_oplog(&log, &names, &sizes, &fit_config, ObjectiveKind::MinMax)
        .expect("warm salvaged ingest");
    let warm_salvage = warm_salvage.expect("same plan, same damage");
    assert_eq!(
        warm.session().stats().fit.misses,
        0,
        "warm salvage must serve from the damaged-hash cache entry"
    );
    assert_eq!(
        json::to_string(&cold_set),
        json::to_string(&warm_set),
        "warm salvage must equal cold byte-for-byte"
    );
    assert_eq!(
        (cold_salvage.kept, cold_salvage.dropped),
        (warm_salvage.kept, warm_salvage.dropped)
    );

    std::env::remove_var(fault::ENV_VAR);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A small deterministic op-log over three objects: enough records for
/// a meaningful salvage boundary, cheap enough to fit twice per run.
fn synth_oplog() -> OpLog {
    let mut log = OpLog::new();
    for k in 0..60u64 {
        let t = k as f64 * 0.05;
        log.push(OpRecord {
            kind: if k % 4 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            },
            stream: (k % 3) as u32,
            offset: (k / 3) * 131_072,
            len: 131_072,
            issue: SimTime::from_secs(t),
            complete: SimTime::from_secs(t + 0.004),
        });
    }
    log
}
