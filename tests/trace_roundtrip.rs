//! Trace-fitting round trips: workloads with known parameters, pushed
//! through the simulator and the Rubicon-style fitter, must come back
//! with approximately those parameters — and byte for byte what the
//! independent reference fitter (a serial per-object test oracle)
//! derives from the same records.

use wasla::exec::{see_rows, Engine, Placement, RunConfig};
use wasla::pipeline::{RunSettings, Scenario, LVM_STRIPE};
use wasla::replay::capture_oplog;
use wasla::simlib::{json, SimTime};
use wasla::storage::{BlockTraceRecord, IoKind, Trace};
use wasla::trace::oplog::{fit_oplog_streamed, OpLog};
use wasla::trace::{fit_workloads, FitConfig, FitRecord};
use wasla::workload::{SqlWorkload, WorkloadSet};

#[path = "../crates/trace/tests/reference/mod.rs"]
mod reference;

/// Byte-compares a default-config production fit of `records` with
/// the reference oracle's.
fn assert_matches_reference(set: &WorkloadSet, records: &[BlockTraceRecord]) {
    let config = FitConfig::default();
    let reference = reference::reference_fit(
        records,
        &set.names,
        &set.sizes,
        config.window_s,
        config.gap_tolerance,
    );
    assert_eq!(
        json::to_string(set),
        json::to_string(&reference),
        "production fit diverges from the reference oracle"
    );
}

/// Synthetic trace with exactly known parameters.
#[test]
fn synthetic_parameters_recovered() {
    let mut trace = Trace::new();
    // Object 0: 20 req/s of 64 KiB reads in runs of 8 for 100 s.
    // Object 1: 5 req/s of 8 KiB writes, fully random, active only in
    // the first half.
    let mut off0 = 0u64;
    for k in 0..2000u64 {
        let t = k as f64 * 0.05;
        if k % 8 == 0 {
            off0 = (k * 37_000_001) % (1 << 30);
        }
        trace.push(BlockTraceRecord {
            time: SimTime::from_secs(t),
            stream: 0,
            kind: IoKind::Read,
            offset: off0,
            len: 65536,
        });
        off0 += 65536;
        if t < 50.0 && k % 4 == 0 {
            trace.push(BlockTraceRecord {
                time: SimTime::from_secs(t),
                stream: 1,
                kind: IoKind::Write,
                offset: (k * 97_000_003) % (1 << 30),
                len: 8192,
            });
        }
    }
    let names = vec!["seq".to_string(), "rand".to_string()];
    let sizes = vec![2u64 << 30, 2 << 30];
    let set = fit_workloads(&trace, &names, &sizes, &FitConfig::default()).expect("fit succeeds");
    set.validate().unwrap();
    assert_matches_reference(&set, trace.records());

    let seq = &set.specs[0];
    assert!((seq.read_rate - 20.0).abs() < 0.5, "rate {}", seq.read_rate);
    assert_eq!(seq.read_size, 65536.0);
    assert!((seq.run_count - 8.0).abs() < 0.5, "run {}", seq.run_count);
    assert_eq!(seq.write_rate, 0.0);

    let rand = &set.specs[1];
    assert!(rand.write_rate > 0.0);
    assert_eq!(rand.write_size, 8192.0);
    assert!(rand.run_count < 1.5, "run {}", rand.run_count);

    // Overlap: object 1 is always co-active with 0; object 0 only half
    // the time.
    assert!(rand.overlaps[0] > 0.9, "O[rand][seq] {}", rand.overlaps[0]);
    assert!(
        (seq.overlaps[1] - 0.5).abs() < 0.1,
        "O[seq][rand] {}",
        seq.overlaps[1]
    );
}

/// Full loop through the engine: the fitted rates must account for all
/// physical requests the engine reports.
#[test]
fn engine_trace_accounts_for_all_physical_requests() {
    let scale = 0.01;
    let scenario = Scenario::homogeneous_disks(4, scale);
    let workloads = [SqlWorkload::olap1_21(3)];
    let rows = see_rows(scenario.catalog.len(), 4);
    let placement = Placement::build(
        &rows,
        &scenario.catalog.sizes(),
        &scenario.capacities(),
        LVM_STRIPE,
    )
    .unwrap();
    let mut storage = scenario.storage();
    let report = Engine::new(
        &scenario.catalog,
        &workloads,
        &placement,
        &mut storage,
        RunConfig {
            scale,
            pool_bytes: scenario.pool_bytes,
            capture_trace: true,
            ..RunConfig::default()
        },
    )
    .run()
    .expect("engine run succeeds");
    let trace = report.trace.as_ref().expect("trace requested");
    let physical: u64 = report
        .objects
        .iter()
        .map(|o| o.physical_reads + o.physical_writes)
        .sum();
    assert_eq!(trace.len() as u64, physical);

    // Fit and cross-check per-object request counts against the
    // engine's own accounting.
    let fitted = fit_workloads(
        trace,
        &scenario.catalog.names(),
        &scenario.catalog.sizes(),
        &FitConfig::default(),
    )
    .expect("fit succeeds");
    assert_matches_reference(&fitted, trace.records());
    let span = trace.span().as_secs();
    for (i, spec) in fitted.specs.iter().enumerate() {
        let fitted_count = (spec.read_rate + spec.write_rate) * span;
        let actual = report.objects[i].physical() as f64;
        if actual > 100.0 {
            let rel = (fitted_count - actual).abs() / actual;
            assert!(
                rel < 0.05,
                "object {i}: fitted {fitted_count:.0} vs actual {actual}"
            );
        }
    }
}

/// Concurrency lowers fitted run counts and raises overlaps — the
/// OLAP1 vs OLAP8 distinction the paper's §6.2 relies on.
#[test]
fn concurrency_changes_fitted_parameters() {
    let scale = 0.015;
    let fit = |workload: SqlWorkload| {
        let scenario = Scenario::homogeneous_disks(4, scale);
        let workloads = [workload];
        let rows = see_rows(scenario.catalog.len(), 4);
        let placement = Placement::build(
            &rows,
            &scenario.catalog.sizes(),
            &scenario.capacities(),
            LVM_STRIPE,
        )
        .unwrap();
        let mut storage = scenario.storage();
        let report = Engine::new(
            &scenario.catalog,
            &workloads,
            &placement,
            &mut storage,
            RunConfig {
                scale,
                pool_bytes: scenario.pool_bytes,
                capture_trace: true,
                ..RunConfig::default()
            },
        )
        .run()
        .expect("engine run succeeds");
        let trace = report.trace.expect("trace requested");
        fit_workloads(
            &trace,
            &scenario.catalog.names(),
            &scenario.catalog.sizes(),
            &FitConfig::default(),
        )
        .expect("fit succeeds")
    };
    let w1 = fit(SqlWorkload::olap1_63(5));
    let w8 = fit(SqlWorkload::olap8_63(5));
    let li = w1.names.iter().position(|n| n == "LINEITEM").unwrap();
    let or = w1.names.iter().position(|n| n == "ORDERS").unwrap();
    assert!(
        w8.specs[li].run_count < w1.specs[li].run_count,
        "c8 run {} vs c1 run {}",
        w8.specs[li].run_count,
        w1.specs[li].run_count
    );
    assert!(w8.specs[li].overlaps[or] >= w1.specs[li].overlaps[or] * 0.9);
}

/// The op-log fit the CLI runs (`wasla-advisor capture --scenario tpch
/// --scale 0.01`, then `fit --oplog`) equals the reference oracle byte
/// for byte on the same captured log. `ci/check.sh` runs this by name
/// next to its CLI byte-compare across pool widths.
#[test]
fn captured_tpch_log_fit_matches_reference_oracle() {
    let scenario = Scenario::homogeneous_disks(4, 0.01);
    let captured = capture_oplog(
        &scenario,
        &[SqlWorkload::olap1_21(3)],
        &RunSettings::default(),
    )
    .expect("capture succeeds");
    let log = OpLog::parse_tsv(&captured.log.to_tsv()).expect("the captured log parses");
    assert!(log.len() > 1000, "a realistic log: {} records", log.len());
    let names = scenario.catalog.names();
    let sizes = scenario.catalog.sizes();
    let fitted =
        fit_oplog_streamed(&log, &names, &sizes, &FitConfig::default()).expect("fit succeeds");
    let records: Vec<BlockTraceRecord> = log.records().iter().map(FitRecord::block).collect();
    assert_matches_reference(&fitted, &records);
}
