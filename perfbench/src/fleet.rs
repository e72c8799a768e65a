//! `fleet_stress`: synthetic tenants fed through
//! `Service::advise_batch_with` in batches of 64, one tick after
//! another, under the default `BatchPolicy`.
//!
//! Every tenant is distinct, so fits always miss and the service's fit
//! cache grows for the whole run, while the one device type on the
//! shared fleet is calibrated once in set-up. A request is one tick.
//!
//! A run is `TICKS_PER_SECOND` ticks per requested second, about the
//! tick rate of a two-core machine over such a run.
//!
//! The traced pass follows every `REPLAY_EVERY`-th timed tick, off the
//! clock, with two replays of the same tick from a snapshot of the
//! session taken just before it: the batch again at one thread (for the
//! batch efficiency, and to check the outputs are byte-identical at both
//! widths), and the tick's requests one by one through the composed
//! stages, which splits a tenant's advise by layer. The split cannot be
//! taken inside the batch call itself.

use crate::compose::{self, Counts};
use crate::report::{check_layout, hash_layout, median, Pass, MIB};
use crate::tracer::Tracer;
use crate::{nominal_rounds, run_rounds, timed_setup, Args, Outcome, GENERATE};
use std::collections::BTreeMap;
use std::time::Instant;
use wasla::core::dynamic::migration_bytes;
use wasla::core::Layout;
use wasla::pipeline::AdviseConfig;
use wasla::simlib::fault::SolverBudget;
use wasla::simlib::hash::Fnv64;
use wasla::simlib::par::task_seed;
use wasla::storage::TargetConfig;
use wasla::workload::{DeadlineClass, SynthSpec};
use wasla::{
    stress, AdviseRequest, AdvisorSession, BatchPolicy, BatchReport, Service, SlotDisposition,
};

const BATCH: usize = 64;
const SETUP_REPEATS: usize = 9;
const TICKS_PER_SECOND: f64 = 1.6;
const REPLAY_EVERY: usize = 4;
const SERVICE_SEED: u64 = 0x5EED_F1EE;

struct Setup {
    spec: SynthSpec,
    targets: Vec<TargetConfig>,
    /// Every tenant of the run, tick after tick.
    tenants: Vec<AdviseRequest>,
    session: AdvisorSession,
}

fn setup(
    seed: u64,
    ticks: usize,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<Setup, String> {
    let spec = SynthSpec {
        tenants: ticks * BATCH,
        seed: task_seed(seed, 0),
        ..SynthSpec::default()
    };
    spec.validate()?;
    let (targets, tenants) = tracer.leaf("workload", GENERATE, || {
        let targets = stress::fleet(&spec);
        let tenants: Vec<AdviseRequest> = (0..spec.tenants)
            .map(|i| stress::tenant_request(&spec, &targets, i as u64))
            .collect();
        (targets, tenants)
    });
    let mut session = AdvisorSession::new();
    let grid = AdviseConfig::fast().grid;
    compose::models(&mut session, &targets, &grid, spec.seed, tracer, counts)
        .map_err(|e| format!("set-up calibration failed: {e}"))?;
    Ok(Setup {
        spec,
        targets,
        tenants,
        session,
    })
}

/// Digest of a tick's deterministic outputs: the decision log and each
/// slot's layouts, or its error.
fn digest(report: &BatchReport) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&report.render_decisions());
    for outcome in &report.outcomes {
        match outcome {
            Ok(o) => {
                hash_layout(&mut h, o.recommendation.final_layout());
                hash_layout(&mut h, &o.recommendation.solver_layout);
                h.write_u64(o.degraded.len() as u64);
            }
            Err(e) => {
                h.write_str(&e.to_string());
            }
        }
    }
    h.finish()
}

/// Checks a tick and folds its slots into the pass.
fn record_tick(p: &mut Pass, tick: usize, requests: &[AdviseRequest], report: &BatchReport) {
    let n = requests.len();
    p.attempted += n as u64;
    if report.decisions.len() != n || report.outcomes.len() != n {
        p.fail(format!(
            "tick {tick}: {n} slots but {} decisions and {} outcomes",
            report.decisions.len(),
            report.outcomes.len()
        ));
        return;
    }
    for (i, (decision, outcome)) in report.decisions.iter().zip(&report.outcomes).enumerate() {
        let disposition_matches = match outcome {
            Ok(o) if o.is_degraded() => decision.disposition == SlotDisposition::Degraded,
            Ok(_) => decision.disposition == SlotDisposition::Ok,
            Err(_) => matches!(
                decision.disposition,
                SlotDisposition::Failed | SlotDisposition::Rejected
            ),
        };
        if decision.index != i || !disposition_matches {
            p.fail(format!(
                "tick {tick} slot {i}: the disposition does not match the outcome"
            ));
            continue;
        }
        let o = match outcome {
            Ok(o) => o,
            Err(e) => {
                p.fail(format!("tick {tick} slot {i}: {e}"));
                continue;
            }
        };
        let rec = &o.recommendation;
        let sizes = &o.problem.workloads.sizes;
        let caps = &o.problem.capacities;
        let regular = requests[i].config.advisor.regularize;
        if let Err(e) = check_layout("final layout", rec.final_layout(), sizes, caps, regular)
            .and_then(|()| check_layout("solver layout", &rec.solver_layout, sizes, caps, false))
        {
            p.fail(format!("tick {tick} slot {i}: {e}"));
            continue;
        }
        p.completed += 1;
        p.units += 1.0;
        if o.is_degraded() {
            p.degraded += 1;
        }
        p.max_utils.push(compose::final_max_util(rec));
        p.speedups.push(compose::predicted_speedup(rec));
        let see = Layout::see(o.problem.n(), o.problem.m());
        p.moved_mib
            .push(migration_bytes(&see, rec.final_layout(), sizes) as f64 / MIB);
    }
}

/// Traced-pass extras.
#[derive(Default)]
struct Extras {
    counts: Counts,
    efficiency: Vec<f64>,
    gaps: Vec<f64>,
    replayed: u64,
    replay_mismatches: u64,
    /// The service's cache counters over the pass: (hits, lookups).
    calib: (u64, u64),
    fit: (u64, u64),
}

/// The batch's per-slot solve settings under the default policy on a
/// first attempt: the index-derived seed, and the deadline budget
/// (interactive requests solve under the tight budget).
fn slot_config(request: &AdviseRequest, slot: usize) -> AdviseConfig {
    let mut config = request.config.clone();
    config.advisor.seed = task_seed(SERVICE_SEED, slot as u64);
    if request.deadline == Some(DeadlineClass::Interactive) && config.advisor.solve_budget.is_none()
    {
        config.advisor.solve_budget = Some(SolverBudget::Tight);
    }
    config
}

/// Replays one tick off the clock: the batch at one thread, then each
/// request through the composed stages.
#[allow(clippy::too_many_arguments)]
fn replay(
    p: &mut Pass,
    tick: usize,
    requests: &[AdviseRequest],
    before: &AdvisorSession,
    report: &BatchReport,
    tick_ms: f64,
    width: usize,
    tracer: &mut Tracer,
    extras: &mut Extras,
) {
    let mut serial = Service::new(SERVICE_SEED);
    *serial.session_mut() = before.clone();
    std::env::set_var("WASLA_THREADS", "1");
    let t0 = Instant::now();
    let one = serial.advise_batch_with(requests, &BatchPolicy::default());
    let one_ms = t0.elapsed().as_secs_f64() * 1000.0;
    std::env::set_var("WASLA_THREADS", width.to_string());
    extras.efficiency.push(one_ms / (width as f64 * tick_ms));
    if digest(&one) != digest(report) {
        p.fail(format!(
            "tick {tick}: outputs differ between 1 thread and {width}"
        ));
    }

    let mut session = before.clone();
    for (slot, request) in requests.iter().enumerate() {
        let config = slot_config(request, slot);
        tracer.set_request(Some((tick * BATCH + slot) as u64));
        let span = tracer.begin("wasla", "AdvisorSession::advise (composed stages)");
        let out = compose::advise(
            &mut session,
            &request.scenario,
            &request.workloads,
            &config,
            tracer,
            &mut extras.counts,
        );
        tracer.end(span);
        tracer.set_request(None);
        extras.replayed += 1;
        let same = match (&out, &report.outcomes[slot]) {
            (Ok(a), Ok(b)) => {
                extras.gaps.push(compose::regularize_gap(&a.recommendation));
                a.recommendation.final_layout() == b.recommendation.final_layout()
            }
            _ => false,
        };
        if !same {
            extras.replay_mismatches += 1;
        }
    }
}

fn pass(
    setup: &Setup,
    seconds: f64,
    width: usize,
    tracer: &mut Tracer,
    extras: &mut Extras,
) -> Pass {
    let mut p = Pass::default();
    let mut service = Service::new(SERVICE_SEED);
    *service.session_mut() = setup.session.clone();
    let policy = BatchPolicy::default();
    let ticks: Vec<&[AdviseRequest]> = setup.tenants.chunks(BATCH).collect();
    run_rounds(ticks.len(), seconds, |tick| {
        let requests = ticks[tick];
        let replayed = tracer.on() && tick % REPLAY_EVERY == 0;
        let before = replayed.then(|| service.session().clone());
        tracer.set_request(Some(tick as u64));
        let span = tracer.begin("wasla.batch", "Service::advise_batch_with");
        let t0 = Instant::now();
        let report = service.advise_batch_with(requests, &policy);
        let tick_ms = t0.elapsed().as_secs_f64() * 1000.0;
        tracer.end(span);
        tracer.set_request(None);
        p.latencies_ms.push(tick_ms);
        p.digests.push(digest(&report));
        record_tick(&mut p, tick, requests, &report);
        if let Some(before) = before {
            replay(
                &mut p, tick, requests, &before, &report, tick_ms, width, tracer, extras,
            );
        }
    });
    let base = setup.session.stats();
    let s = service.session().stats();
    let calib = s.calibration.since(&base.calibration);
    let fit = s.fit.since(&base.fit);
    extras.calib = (calib.hits, calib.lookups());
    extras.fit = (fit.hits, fit.lookups());
    p
}

/// Mean of the last quarter of tick times over the mean of the first.
fn tick_drift(ticks: &[f64]) -> f64 {
    let q = (ticks.len() / 4).max(1);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    mean(&ticks[ticks.len() - q..]) / mean(&ticks[..q])
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let width = wasla::simlib::par::threads();
    let ticks = nominal_rounds(args.seconds, 1.0 / TICKS_PER_SECOND, 1);
    let mut setup_counts = Counts::default();
    let (setup, setup_s) = timed_setup(SETUP_REPEATS, tracer, |t| {
        setup(args.seed, ticks, t, &mut setup_counts)
    })?;
    let mut counters = Extras::default();
    let untraced = pass(
        &setup,
        args.seconds,
        width,
        &mut Tracer::new(false),
        &mut counters,
    );
    let mut layers = BTreeMap::new();
    let mut counts = Counts::default();
    let mut replayed = 0.0;
    let mut mismatches = 0.0;
    let traced = if args.trace {
        let mut extras = Extras {
            counts: setup_counts,
            ..Extras::default()
        };
        let traced = pass(&setup, args.seconds, width, tracer, &mut extras);
        layers.insert("wasla.batch_tick_ms", median(&traced.latencies_ms));
        layers.insert("wasla.batch_efficiency", median(&extras.efficiency));
        layers.insert("wasla.tick_drift", tick_drift(&untraced.latencies_ms));
        layers.insert("core.regularize_gap", crate::report::geomean(&extras.gaps));
        let ratio = |(hits, lookups): (u64, u64)| hits as f64 / lookups.max(1) as f64;
        layers.insert("wasla.calib_hit_ratio", ratio(counters.calib));
        layers.insert("wasla.fit_hit_ratio", ratio(counters.fit));
        counts = extras.counts;
        replayed = extras.replayed as f64;
        mismatches = extras.replay_mismatches as f64;
        Some(traced)
    } else {
        None
    };
    Ok(Outcome {
        setup_s,
        untraced,
        traced,
        layers,
        counts,
        self_time_requests: replayed,
        cross_check: Vec::new(),
        inputs: vec![
            ("ticks", ticks as f64),
            ("tenants_per_tick", BATCH as f64),
            ("fleet_targets_m", setup.targets.len() as f64),
            ("objects_per_tenant_min", setup.spec.objects_min as f64),
            ("objects_per_tenant_max", setup.spec.objects_max as f64),
            ("replayed_tenants", replayed),
            ("replay_mismatches", mismatches),
        ],
        notes: vec![
            ("request", "one tick: a batch of 64 tenant advises; a run is 1.6 ticks per requested second"),
            ("throughput_per_s", "tenants advised per second of tick time"),
            ("validated_speedup", "predicted: SEE max utilization / recommended max utilization (no simulation on this workload)"),
            ("moved_mib", "MiB moved from SEE to the recommended layout, per tenant"),
            ("self_ms", "per tenant, from the serial replay through the composed stages"),
            ("wasla.tick_drift", "from the untraced pass's ticks"),
            ("ok_share", "1 - failed_share, over tenant slots"),
            ("clean_share", "1 - degraded_share, over tenant slots"),
        ],
    })
}
