//! Batch-service determinism: `Service::advise_batch_with` produces
//! byte-identical reports at any `WASLA_THREADS` setting, and a warm
//! service (caches populated by a previous batch) matches a cold one.
//!
//! This is the sessioned pipeline's contract (DESIGN.md §Staged
//! advisor pipeline): cached stage outputs are bit-identical to
//! freshly computed ones, and per-request seeds derive from the
//! request *index*, not from scheduling order. Wall-clock timings are
//! excluded on purpose.
//!
//! The same contract extends to an explicit non-default
//! `BatchPolicy`: admission rejections, brownout sheds, and deadline
//! budgets land on the same slots at any thread count, warm or cold,
//! including through a persist/reopen cycle.
//!
//! The merge of per-request cache deltas depends only on request
//! order: a batch that holds one tenant twice leaves the same counters
//! and persists the same bytes at any thread count, pinned to a fixed
//! hash.
//!
//! The whole check lives in ONE test function: it mutates the
//! `WASLA_THREADS` environment variable, which is only safe while no
//! other test in the same binary runs concurrently.

use wasla::persist;
use wasla::pipeline::{AdviseConfig, AdviseOutcome, Scenario};
use wasla::simlib::fault::{self, FaultPlan};
use wasla::simlib::hash::Fnv64;
use wasla::stress;
use wasla::workload::{SqlWorkload, SynthSpec};
use wasla::{AdviseRequest, BatchPolicy, Service, WaslaError};

fn requests() -> Vec<AdviseRequest> {
    let scenario = Scenario::homogeneous_disks(4, 0.01);
    let config = AdviseConfig::fast();
    vec![
        AdviseRequest::new(
            scenario.clone(),
            vec![SqlWorkload::olap1_21(3)],
            config.clone(),
        ),
        AdviseRequest::new(scenario, vec![SqlWorkload::olap8_63(5)], config),
    ]
}

/// Everything deterministic about a batch, as bytes.
fn report(outcomes: &[Result<AdviseOutcome, WaslaError>]) -> String {
    let mut out = String::new();
    for outcome in outcomes {
        match outcome {
            Ok(outcome) => {
                let rec = &outcome.recommendation;
                out.push_str(&format!(
                    "solver={:?}\nregular={:?}\nstages={:?}\nconverged={:?} fell_back={:?}\n",
                    rec.solver_layout,
                    rec.regular_layout,
                    rec.stages,
                    rec.converged,
                    rec.fell_back_to_see
                ));
            }
            // Fault-injected request errors are part of the batch's
            // deterministic surface too.
            Err(e) => out.push_str(&format!("error={e}\n")),
        }
    }
    out
}

/// One cold and one warm batch at the given thread count.
fn cold_and_warm_at(threads: usize) -> (String, String) {
    std::env::set_var("WASLA_THREADS", threads.to_string());
    let mut service = Service::new(0xBA7C4);
    let cold = report(
        &service
            .advise_batch_with(&requests(), &BatchPolicy::default())
            .outcomes,
    );
    assert!(
        service.session().calibrations_cached() >= 1,
        "batch should have populated the calibration cache"
    );
    let misses_after_cold = service.session().stats().calibration.misses;
    let warm = report(
        &service
            .advise_batch_with(&requests(), &BatchPolicy::default())
            .outcomes,
    );
    assert_eq!(
        service.session().stats().calibration.misses,
        misses_after_cold,
        "warm batch must not recalibrate"
    );
    std::env::remove_var("WASLA_THREADS");
    (cold, warm)
}

#[test]
fn batches_are_identical_at_any_thread_count_and_temperature() {
    std::env::remove_var(fault::ENV_VAR);
    let (cold_1, warm_1) = cold_and_warm_at(1);
    let (cold_8, warm_8) = cold_and_warm_at(8);
    assert_eq!(cold_1, cold_8, "batch results depend on WASLA_THREADS");
    assert_eq!(cold_1, warm_1, "warm session diverged from cold");
    assert_eq!(warm_1, warm_8, "warm batch depends on WASLA_THREADS");

    // Fault-injected batches hold the same contract: pick a plan that
    // persistently faults exactly one of the two request slots (both
    // retry attempts consumed). That slot must come back as the same
    // typed error at any thread count, warm or cold, while the other
    // slot still produces its recommendation.
    let persistent = |p: &FaultPlan, i: u64| {
        let key = fault::request_key(0xBA7C4, i);
        p.request_fault(key, 0) && p.request_fault(key, 1)
    };
    let seed = (1u64..50_000)
        .find(|&s| {
            FaultPlan::from_seed(s)
                .map(|p| (0..2).filter(|&i| persistent(&p, i)).count() == 1)
                .unwrap_or(false)
        })
        .expect("no persistent-request-fault seed found in range");
    std::env::set_var(fault::ENV_VAR, seed.to_string());
    let (fault_cold_1, fault_warm_1) = cold_and_warm_at(1);
    let (fault_cold_8, fault_warm_8) = cold_and_warm_at(8);
    std::env::remove_var(fault::ENV_VAR);
    assert!(
        fault_cold_1.contains("injected request fault"),
        "seed {seed}: the faulted slot should surface its error:\n{fault_cold_1}"
    );
    assert!(
        fault_cold_1.contains("solver="),
        "seed {seed}: the healthy slot should still succeed:\n{fault_cold_1}"
    );
    assert_eq!(
        fault_cold_1, fault_cold_8,
        "faulted batch depends on WASLA_THREADS"
    );
    assert_eq!(
        fault_cold_1, fault_warm_1,
        "faulted warm diverged from cold"
    );
    assert_eq!(
        fault_warm_1, fault_warm_8,
        "faulted warm depends on WASLA_THREADS"
    );

    // Stress-policy case: admission control, brownout shedding, and
    // deadline budgets produce the same slot-for-slot decision log at
    // any thread count, and a service restarted through persist()
    // re-derives it byte-for-byte.
    let spec = SynthSpec {
        tenants: 6,
        ..SynthSpec::default()
    };
    let policy = BatchPolicy {
        queue_capacity: Some(5),
        brownout_threshold: Some(3),
        max_attempts: 2,
        ..BatchPolicy::default()
    };
    let targets = stress::fleet(&spec);
    let stress_requests: Vec<AdviseRequest> = (0..spec.tenants as u64)
        .map(|i| stress::tenant_request(&spec, &targets, i))
        .collect();
    let policy_report = |service: &mut Service| {
        let report = service.advise_batch_with(&stress_requests, &policy);
        let mut out = report.render_decisions();
        for outcome in &report.outcomes {
            match outcome {
                Ok(o) => out.push_str(&format!("quality={:?}\n", o.recommendation.quality)),
                Err(e) => out.push_str(&format!("error={e}\n")),
            }
        }
        out
    };
    let policy_report_at = |threads: usize| {
        std::env::set_var("WASLA_THREADS", threads.to_string());
        let out = policy_report(&mut Service::new(0xBA7C4));
        std::env::remove_var("WASLA_THREADS");
        out
    };
    let stress_1 = policy_report_at(1);
    let stress_8 = policy_report_at(8);
    assert_eq!(
        stress_1, stress_8,
        "policy decisions depend on WASLA_THREADS"
    );
    assert!(
        stress_1.contains("disposition=rejected") && stress_1.contains("shed=yes"),
        "the policy case should exercise rejection and brownout:\n{stress_1}"
    );

    // Warm ≡ cold through persist: run once cold against a cache dir,
    // persist, reopen, and demand the identical decision log.
    let dir = std::path::PathBuf::from(std::env::temp_dir())
        .join(format!("wasla-batch-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut cold, _) = Service::open(0xBA7C4, &dir).expect("cold open");
    let stress_cold = policy_report(&mut cold);
    cold.persist().expect("persist after cold stress batch");
    let (mut warm, notes) = Service::open(0xBA7C4, &dir).expect("warm open");
    assert!(notes.is_empty(), "warm open must be silent: {notes:?}");
    let stress_warm = policy_report(&mut warm);
    assert_eq!(
        stress_cold, stress_warm,
        "warm stress batch diverged from cold"
    );
    assert_eq!(
        stress_cold, stress_1,
        "persisted path diverged from in-memory"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // The delta merge depends only on request order. Five synth
    // tenants with tenant 1 repeated at the end: both copies of the
    // repeat run against the same shared session, so both miss and
    // compute the same fit, and only the first lands in the cache. A
    // warm repeat of the batch then hits the shared session on every
    // lookup, and each hit counts once.
    let merge_spec = SynthSpec {
        tenants: 5,
        ..SynthSpec::default()
    };
    let merge_targets = stress::fleet(&merge_spec);
    let mut merge_requests: Vec<AdviseRequest> = (0..merge_spec.tenants as u64)
        .map(|i| stress::tenant_request(&merge_spec, &merge_targets, i))
        .collect();
    merge_requests.push(merge_requests[1].clone());
    let merged_at = |threads: usize| {
        std::env::set_var("WASLA_THREADS", threads.to_string());
        let dir = std::env::temp_dir().join(format!(
            "wasla-batch-merge-{}-t{threads}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut service, _) = Service::open(0xBA7C4, &dir).expect("open merge cache dir");
        service.advise_batch_with(&merge_requests, &BatchPolicy::default());
        let cold = service.session().stats();
        service.advise_batch_with(&merge_requests, &BatchPolicy::default());
        service.persist().expect("persist merged session");
        std::env::remove_var("WASLA_THREADS");
        let mut hash = Fnv64::new();
        for file in [persist::CALIBRATIONS_FILE, persist::FITS_FILE] {
            hash.write_bytes(&std::fs::read(dir.join(file)).expect("read persisted cache"));
        }
        let _ = std::fs::remove_dir_all(&dir);
        (
            [cold, service.session().stats()],
            service.session().fits_cached(),
            hash.finish(),
        )
    };
    let (stats_1, fits_1, persisted_1) = merged_at(1);
    let (stats_8, fits_8, persisted_8) = merged_at(8);
    assert_eq!(stats_1, stats_8, "merged counters depend on WASLA_THREADS");
    assert_eq!(fits_1, fits_8, "merged fit count depends on WASLA_THREADS");
    assert_eq!(
        persisted_1, persisted_8,
        "persisted caches depend on WASLA_THREADS"
    );
    assert_eq!(
        fits_1, 5,
        "the repeated tenant leaves exactly one fit entry"
    );
    let counts = stats_1.map(|s| {
        [
            s.calibration.misses,
            s.calibration.hits,
            s.fit.misses,
            s.fit.hits,
        ]
    });
    assert_eq!(
        counts,
        [[1, 95, 6, 0], [1, 191, 6, 6]],
        "cold then warm [calibration misses, hits, fit misses, hits]: \
         both copies of the repeated tenant miss, and every warm lookup hits"
    );
    assert_eq!(
        persisted_1, 0x6c00_76f5_9c43_9659,
        "persisted cache bytes moved: {persisted_1:#018x}"
    );
}
