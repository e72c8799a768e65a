//! Benchmarks for the sessioned advise pipeline: what does a warm
//! [`AdvisorSession`] actually buy over a cold one?
//!
//! The session memoizes calibration tables and workload fits (see
//! DESIGN.md §Staged advisor pipeline). On a scenario whose device
//! types are already calibrated, a warm advise skips the dominant
//! cost of the cold path entirely, so `advise_warm` should beat
//! `advise_cold` by well over 2×; the cold/warm pair here makes that
//! claim a measured number in `results/BENCH_pipeline.json`.

use std::hint::black_box;
use wasla::model::CalibrationGrid;
use wasla::pipeline::{AdviseConfig, Scenario};
use wasla::workload::SqlWorkload;
use wasla::{AdviseRequest, AdvisorSession, BatchPolicy, Service};
use wasla_bench::harness::Harness;

/// Small scenario, cheap solver, high-fidelity calibration grid:
/// calibration dominates the cold path, which is exactly the regime a
/// long-lived advising service lives in (measure devices carefully
/// once, then advise many scenarios against the cached tables).
fn config() -> AdviseConfig {
    let mut config = AdviseConfig::fast();
    config.grid = CalibrationGrid {
        samples: 640,
        warmup: 48,
        ..CalibrationGrid::default()
    };
    config
}

fn scenario() -> Scenario {
    Scenario::homogeneous_disks(4, 0.01)
}

fn workloads() -> [SqlWorkload; 1] {
    [SqlWorkload::olap1_21(3)]
}

fn bench_cold_advise(c: &mut Harness) {
    let scenario = scenario();
    let workloads = workloads();
    let config = config();
    c.bench_function("advise_cold_n4", |b| {
        b.iter(|| {
            let mut session = AdvisorSession::new();
            black_box(
                session
                    .advise(&scenario, &workloads, &config)
                    .expect("cold advise succeeds"),
            )
        })
    });
}

fn bench_warm_advise(c: &mut Harness) {
    let scenario = scenario();
    let workloads = workloads();
    let config = config();
    let mut session = AdvisorSession::new();
    session
        .advise(&scenario, &workloads, &config)
        .expect("prewarm advise succeeds");
    c.bench_function("advise_warm_n4", |b| {
        b.iter(|| {
            black_box(
                session
                    .advise(&scenario, &workloads, &config)
                    .expect("warm advise succeeds"),
            )
        })
    });
}

fn bench_warm_batch(c: &mut Harness) {
    let requests: Vec<AdviseRequest> = vec![
        AdviseRequest::new(scenario(), vec![SqlWorkload::olap1_21(3)], config()),
        AdviseRequest::new(scenario(), vec![SqlWorkload::olap8_63(5)], config()),
    ];
    let mut service = Service::new(0xBE7C4);
    let policy = BatchPolicy::default();
    for outcome in service.advise_batch_with(&requests, &policy).outcomes {
        outcome.expect("prewarm batch succeeds");
    }
    c.bench_function("advise_batch_warm_2req", |b| {
        b.iter(|| {
            for outcome in black_box(service.advise_batch_with(&requests, &policy).outcomes) {
                outcome.expect("warm batch succeeds");
            }
        })
    });
}

wasla_bench::bench_main!(
    "pipeline",
    bench_cold_advise,
    bench_warm_advise,
    bench_warm_batch
);
