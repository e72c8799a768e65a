//! Fault-injection end-to-end: under an active fault plan every
//! consumer degrades gracefully — `advise` always returns a feasible
//! layout plus typed [`DegradedNote`]s, never a panic and never a
//! silent wrong answer.
//!
//! Exhibit seeds are *searched* through [`FaultPlan::from_seed`]
//! against the exact content keys the pipeline will use, instead of
//! hard-coding magic numbers that would rot if the mixing constants
//! changed. The whole check lives in ONE test function because it
//! mutates the fault-seed environment variable.

use wasla::model::TargetCostModel;
use wasla::pipeline::{self, AdviseConfig, AdviseOutcome, DegradedNote, Scenario};
use wasla::session::AdvisorSession;
use wasla::simlib::fault::{self, FaultPlan};
use wasla::simlib::hash::hash_json;
use wasla::workload::SqlWorkload;

fn scenario() -> Scenario {
    Scenario::homogeneous_disks(4, 0.01)
}

fn advise() -> AdviseOutcome {
    pipeline::advise(
        &scenario(),
        &[SqlWorkload::olap1_21(3)],
        &AdviseConfig::fast(),
    )
    .expect("advise must survive fault injection")
}

/// The layout must stay feasible no matter what was injected.
fn assert_feasible(outcome: &AdviseOutcome) {
    let layout = outcome.recommendation.final_layout();
    assert!(layout.is_valid(
        &outcome.problem.workloads.sizes,
        &outcome.problem.capacities
    ));
}

/// Finds a fault seed satisfying `want` among small candidates.
fn find_seed(want: impl Fn(&FaultPlan) -> bool) -> u64 {
    (1u64..50_000)
        .find(|&s| FaultPlan::from_seed(s).map(|p| want(&p)).unwrap_or(false))
        .expect("no exhibit seed found in range")
}

#[test]
fn every_fault_kind_degrades_gracefully() {
    std::env::remove_var(fault::ENV_VAR);

    // Clean baseline: no plan, no degradation notes, full quality.
    let clean = advise();
    assert!(
        !clean.is_degraded(),
        "unexpected notes: {:?}",
        clean.degraded
    );
    assert!(!clean.recommendation.quality.degraded());
    assert_feasible(&clean);

    // Content keys the pipeline will use for this scenario/config:
    // the clean trace's hash (trace faults), the replay device keys
    // (trace-run seed 7, targets 0..4), the calibration key for the
    // one device type (scenario seed 42), and the solver key (the
    // default advisor seed).
    let trace_hash = clean
        .baseline_run
        .trace
        .as_ref()
        .expect("trace captured")
        .content_hash();
    let device_keys: Vec<u64> = (0..4).map(|t| fault::device_key(7, t)).collect();
    let spec_hash = hash_json(
        TargetCostModel::member_spec(&scenario().targets[0]).expect("homogeneous target"),
    );
    let calibration_key = fault::calibration_key(42, spec_hash);
    let solver_key = AdviseConfig::fast().advisor.seed;

    let quiet_devices = |p: &FaultPlan| device_keys.iter().all(|&k| p.device_fault(k).is_none());

    // 1. Trace fault, in isolation: the trace hash only matches the
    //    searched key if replay devices stay healthy, so require that.
    let seed = find_seed(|p| p.trace_fault(trace_hash).is_some() && quiet_devices(p));
    std::env::set_var(fault::ENV_VAR, seed.to_string());
    let outcome = advise();
    assert!(
        outcome.degraded.iter().any(|n| matches!(
            n,
            DegradedNote::TraceSalvaged { kept, dropped } if *kept > 0 && *dropped > 0
        )),
        "seed {seed}: expected a trace-salvage note, got {:?}",
        outcome.degraded
    );
    assert_feasible(&outcome);
    // The public fit salvages the damaged trace exactly as advise
    // does, so both return the same workloads for the same trace.
    let config = AdviseConfig::fast();
    let refit = AdvisorSession::new()
        .fit(
            outcome.baseline_run.trace.as_ref().expect("trace captured"),
            &scenario().catalog.names(),
            &scenario().catalog.sizes(),
            &config.fit,
            config.advisor.solver.objective,
        )
        .expect("salvaged fit");
    assert_eq!(
        refit, outcome.fitted,
        "seed {seed}: fit and advise disagree"
    );

    // 2. Device fault during replay: the run must finish, emit a
    //    device note, and still produce a feasible recommendation.
    let seed = find_seed(|p| device_keys.iter().any(|&k| p.device_fault(k).is_some()));
    std::env::set_var(fault::ENV_VAR, seed.to_string());
    let outcome = advise();
    assert!(
        outcome.degraded.iter().any(|n| matches!(
            n,
            DegradedNote::DeviceDegraded { .. } | DegradedNote::DeviceFailed { .. }
        )),
        "seed {seed}: expected a device note, got {:?}",
        outcome.degraded
    );
    assert_feasible(&outcome);

    // 3. Calibration fault: the device model degrades, the pipeline
    //    notes it per affected target (all four share the device type).
    let seed = find_seed(|p| p.device_fault(calibration_key).is_some());
    std::env::set_var(fault::ENV_VAR, seed.to_string());
    let outcome = advise();
    let calibration_notes = outcome
        .degraded
        .iter()
        .filter(|n| matches!(n, DegradedNote::CalibrationDegraded { .. }))
        .count();
    assert_eq!(
        calibration_notes, 4,
        "seed {seed}: all four targets share the degraded device type, got {:?}",
        outcome.degraded
    );
    assert_feasible(&outcome);

    // 4. Solver-budget exhaustion: the advisor falls down the anytime
    //    chain but still recommends a feasible layout, flagged.
    let seed = find_seed(|p| p.solver_budget(solver_key).is_some());
    std::env::set_var(fault::ENV_VAR, seed.to_string());
    let outcome = advise();
    assert!(
        outcome.recommendation.quality.degraded(),
        "seed {seed}: solve quality should be flagged"
    );
    assert!(
        outcome
            .degraded
            .iter()
            .any(|n| matches!(n, DegradedNote::SolverDegraded { .. })),
        "seed {seed}: expected a solver note, got {:?}",
        outcome.degraded
    );
    assert_feasible(&outcome);

    // 5. Determinism under faults: the same seed reproduces the same
    //    notes and the same layout, bit for bit.
    let again = advise();
    assert_eq!(outcome.degraded, again.degraded);
    assert_eq!(
        outcome.recommendation.solver_layout,
        again.recommendation.solver_layout
    );

    std::env::remove_var(fault::ENV_VAR);
}
