//! `drift_daemon`: `Service::run_loop` over drifting op-log streams.
//!
//! Set-up generates, for each catalog (TPC-H-like, N = 20; consolidation,
//! N = 40) and drift shape (rate ramp, hotspot rotation, object growth),
//! fourteen streams of 16 two-second panes at rates from half to
//! twice the base rate, and warms the daemon service's device
//! calibrations. The daemon runs on the coarse grid of `serve --coarse`:
//! with the full grid one stream's re-plans take seconds, too few
//! requests per run for a steady median.
//!
//! A round is the six (catalog, shape) pairs once each in a seeded
//! order; a run is whole cycles of fourteen rounds, in which every pair runs
//! every variant once. A request is one `run_loop` over one stream with
//! a cold controller. The per-tick migration budget is a 32nd of the
//! catalog, tight enough that moves get deferred.

use crate::compose::{self, Counts};
use crate::report::{check_layout, mean, median, Pass, MIB};
use crate::tracer::Tracer;
use crate::{nominal_rounds, permutation, run_rounds, timed_setup, Args, Outcome, GENERATE};
use std::collections::BTreeMap;
use std::time::Instant;
use wasla::daemon::DaemonConfig;
use wasla::pipeline::{AdviseConfig, Scenario};
use wasla::simlib::hash::Fnv64;
use wasla::simlib::rng::SimRng;
use wasla::simlib::time::SimTime;
use wasla::storage::IoKind;
use wasla::trace::oplog::{windowed_workloads, OpLog, OpRecord, WindowPlan};
use wasla::{DaemonReport, Service};

const SCALE: f64 = 0.02;
const SETUP_REPEATS: usize = 15;
const PANE_S: f64 = 2.0;
const PANES: f64 = 16.0;
/// Streams generated per (catalog, shape).
const VARIANTS: usize = 14;
/// Nominal wall time of one round (six streams) at one thread.
const ROUND_S: f64 = 1.6;
const SERVICE_SEED: u64 = 0xD81F7;

#[derive(Clone, Copy)]
enum Shape {
    RateRamp,
    HotspotRotation,
    ObjectGrowth,
}

const SHAPES: [Shape; 3] = [Shape::RateRamp, Shape::HotspotRotation, Shape::ObjectGrowth];

/// One stream, drawn from its variant: the objects' ranking (which are
/// popular, hot or growing), the object each operation goes to, and
/// where it lands (the random 8 KiB write of every fifth operation, and
/// where each object's sequential read scan starts); `intensity` scales
/// its rate. The streams are a fixed set, like `large_solve`'s menu, and
/// the run's seed orders them: the daemon's re-plans turn on utilization
/// thresholds, so re-drawing any operation flips re-plans and swung the
/// run's median by a quarter from seed to seed.
///
/// * rate ramp: fixed skewed popularity, total rate 4× over the stream;
/// * hotspot rotation: three in four operations hit one hot object,
///   which moves every six panes; the rate ramps 4× over the first
///   quarter, which moves the layout off SEE so later moves matter;
/// * object growth: one object's rate grows from a tenth of the rest's
///   to eight times it, over a span growing from a fifth of the object
///   to all of it.
fn stream(shape: Shape, sizes: &[u64], variant: u64, intensity: f64) -> OpLog {
    let n = sizes.len();
    let mut rng = SimRng::new(variant);
    let order = permutation(&mut rng, n);
    let total_s = PANE_S * PANES;
    let mut cursor: Vec<u64> = sizes.iter().map(|&size| rng.below(size.max(1))).collect();
    let mut log = OpLog::new();
    let mut t = 0.0f64;
    let mut k = 0u64;
    while t < total_s {
        let f = t / total_s;
        let (object, span_frac, dt) = match shape {
            Shape::RateRamp => {
                // Popularity ∝ 1/(rank+1) over the variant's ranking.
                let weights: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
                let mut draw = rng.uniform() * weights;
                let mut rank = 0;
                while rank + 1 < n && draw >= 1.0 / (rank + 1) as f64 {
                    draw -= 1.0 / (rank + 1) as f64;
                    rank += 1;
                }
                (order[rank], 1.0, 0.020 / (1.0 + 3.0 * f))
            }
            Shape::HotspotRotation => {
                let hot = order[(t / (6.0 * PANE_S)) as usize % n];
                let object = if rng.chance(0.75) { hot } else { rng.index(n) };
                (object, 1.0, 0.010 / (0.25 + 0.75 * (4.0 * f).min(1.0)))
            }
            Shape::ObjectGrowth => {
                let grow = 0.1 + 7.9 * f;
                let object = if rng.chance(grow / (1.0 + grow)) {
                    order[0]
                } else {
                    rng.index(n)
                };
                (object, 0.2 + 0.8 * f, 0.020 / (1.0 + grow))
            }
        };
        let span = ((sizes[object] as f64 * span_frac) as u64).max(1 << 20);
        let (kind, offset, len) = if k.is_multiple_of(5) {
            (IoKind::Write, (rng.below(span) / 8192) * 8192, 8192)
        } else {
            let at = cursor[object] % span;
            cursor[object] = at + 131072;
            (IoKind::Read, at, 131072)
        };
        log.push(OpRecord {
            kind,
            stream: object as u32,
            offset: offset.min(sizes[object].saturating_sub(len)),
            len,
            issue: SimTime::from_secs(t),
            complete: SimTime::from_secs(t + 0.004),
        });
        t += dt / intensity;
        k += 1;
    }
    log
}

/// Rate scale of a variant, log-spaced from 1/2 to 2: the variants of a
/// (catalog, shape) pair then cost anywhere across a 4× range, so
/// request latencies spread out instead of forming one cluster per pair
/// and the median does not fall in a gap between clusters.
fn intensity(variant: usize) -> f64 {
    2f64.powf(2.0 * variant as f64 / (VARIANTS - 1) as f64 - 1.0)
}

struct Catalog {
    scenario: Scenario,
    daemon: DaemonConfig,
    /// `streams[shape * VARIANTS + variant]`.
    streams: Vec<OpLog>,
}

struct Setup {
    catalogs: Vec<Catalog>,
    service: Service,
    config: AdviseConfig,
    seed: u64,
}

fn setup(seed: u64, tracer: &mut Tracer, counts: &mut Counts) -> Result<Setup, String> {
    let config = AdviseConfig::fast();
    let mut service = Service::new(SERVICE_SEED);
    let mut catalogs = Vec::new();
    for (c, scenario) in [
        Scenario::homogeneous_disks(4, SCALE),
        Scenario::consolidation(SCALE),
    ]
    .into_iter()
    .enumerate()
    {
        let sizes = scenario.catalog.sizes();
        let streams = tracer.leaf("workload", GENERATE, || {
            (0..SHAPES.len() * VARIANTS)
                .map(|i| {
                    let s = SHAPES[i / VARIANTS];
                    let variant = (c * 100 + i) as u64;
                    let rate = intensity(i % VARIANTS);
                    stream(s, &sizes, variant, rate)
                })
                .collect::<Vec<_>>()
        });
        let budget = (sizes.iter().sum::<u64>() / 32).max(1 << 20);
        let daemon = DaemonConfig {
            window: WindowPlan {
                pane_s: PANE_S,
                panes_per_window: 2,
            },
            budget_bytes_per_tick: budget,
            ..DaemonConfig::default()
        };
        compose::models(
            service.session_mut(),
            &scenario.targets,
            &config.grid,
            scenario.seed,
            tracer,
            counts,
        )
        .map_err(|e| format!("set-up calibration failed: {e}"))?;
        catalogs.push(Catalog {
            scenario,
            daemon,
            streams,
        });
    }
    Ok(Setup {
        catalogs,
        service,
        config,
        seed,
    })
}

fn digest(report: &DaemonReport) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&report.render_decisions())
        .write_str(&report.render_state());
    h.finish()
}

/// Checks one daemon run against the output contract.
fn check(
    report: &DaemonReport,
    log: &OpLog,
    catalog: &Catalog,
    regular: bool,
) -> Result<(), String> {
    let last = log.records().last().ok_or("empty stream")?;
    let panes = (last.issue.as_secs() / catalog.daemon.window.pane_s) as u64 + 1;
    if report.decisions.len() as u64 != panes
        || report
            .decisions
            .iter()
            .enumerate()
            .any(|(i, d)| d.tick != i as u64)
    {
        return Err(format!(
            "{} decisions for a stream of {panes} panes",
            report.decisions.len()
        ));
    }
    let budget = catalog.daemon.budget_bytes_per_tick;
    let mut admitted = 0u64;
    for (i, d) in report.decisions.iter().enumerate() {
        admitted += d.admitted_bytes;
        if admitted > budget.saturating_mul(i as u64 + 1) {
            return Err(format!(
                "tick {}: cumulative voluntary bytes {admitted} exceed the granted budget",
                d.tick
            ));
        }
    }
    let s = &catalog.scenario;
    check_layout(
        "deployed layout",
        &report.state.deployed,
        &s.catalog.sizes(),
        &s.capacities(),
        regular,
    )
}

#[derive(Default)]
struct Extras {
    window_ms: Vec<f64>,
    core_ms: Vec<f64>,
    replans: Vec<f64>,
    records: Vec<f64>,
    /// Calibration-cache (hits, lookups) over the pass.
    calib: (u64, u64),
}

fn pass(
    setup: &Setup,
    rounds: usize,
    seconds: f64,
    tracer: &mut Tracer,
    extras: &mut Extras,
) -> Pass {
    let mut p = Pass::default();
    let mut service = Service::new(SERVICE_SEED);
    *service.session_mut() = setup.service.session().clone();
    let mut rng = SimRng::new(setup.seed);
    let config = &setup.config;
    let mut seen: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    run_rounds(rounds, seconds, |round| {
        for pick in permutation(&mut rng, setup.catalogs.len() * SHAPES.len()) {
            let catalog = &setup.catalogs[pick / SHAPES.len()];
            // Over a cycle of VARIANTS rounds every pair runs every
            // variant once, with the intensities mixed within a round.
            let which = (pick % SHAPES.len()) * VARIANTS + (round + 3 * pick) % VARIANTS;
            let log = &catalog.streams[which];
            let index = p.attempted;
            tracer.set_request(Some(index));
            let span = tracer.begin("wasla", "Service::run_loop");
            let t0 = Instant::now();
            let result = service.run_loop(log, &catalog.scenario, config, &catalog.daemon);
            let run_ms = t0.elapsed().as_secs_f64() * 1000.0;
            tracer.end(span);
            p.latencies_ms.push(run_ms);
            if tracer.on() {
                // The window fit runs inside run_loop; this separate call
                // measures it, and the rest of run_loop is the core's
                // drift scoring and re-plans.
                let span = tracer.begin("trace", "oplog::windowed_workloads");
                let t0 = Instant::now();
                let windows = windowed_workloads(
                    log,
                    &catalog.scenario.catalog.names(),
                    &catalog.scenario.catalog.sizes(),
                    &config.fit,
                    &catalog.daemon.window,
                );
                let window_ms = t0.elapsed().as_secs_f64() * 1000.0;
                tracer.end(span);
                if windows.is_ok() {
                    extras.window_ms.push(window_ms);
                    extras.core_ms.push(run_ms - window_ms);
                }
            }
            tracer.set_request(None);
            p.attempted += 1;
            let report = match result {
                Ok(r) => r,
                Err(e) => {
                    p.digests.push(0);
                    p.fail(format!("stream {index}: run_loop failed: {e}"));
                    continue;
                }
            };
            let d = digest(&report);
            p.digests.push(d);
            let checked = check(&report, log, catalog, config.advisor.regularize).and_then(|()| {
                match seen.insert((pick, which), d) {
                    Some(first) if first != d => {
                        Err("a repeated stream produced different decisions".to_string())
                    }
                    _ => Ok(()),
                }
            });
            if let Err(e) = checked {
                p.fail(format!("stream {index}: {e}"));
                continue;
            }
            p.completed += 1;
            if !report.degraded.is_empty() {
                p.degraded += 1;
            }
            extras.records.push(log.len() as f64);
            extras
                .replans
                .push(report.decisions.iter().filter(|d| d.resolved).count() as f64);
            for d in &report.decisions {
                p.units += 1.0;
                p.max_utils.push(d.new_max_utilization);
                p.speedups
                    .push(d.current_max_utilization / d.new_max_utilization);
                p.moved_mib
                    .push((d.admitted_bytes + d.forced_bytes) as f64 / MIB);
            }
        }
    });
    let c = service
        .session()
        .stats()
        .calibration
        .since(&setup.service.session().stats().calibration);
    extras.calib = (c.hits, c.lookups());
    p
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut counts = Counts::default();
    let (setup, setup_s) =
        timed_setup(SETUP_REPEATS, tracer, |t| setup(args.seed, t, &mut counts))?;
    let mut shape = Extras::default();
    let rounds = nominal_rounds(args.seconds, ROUND_S, VARIANTS);
    let untraced = pass(
        &setup,
        rounds,
        args.seconds,
        &mut Tracer::new(false),
        &mut shape,
    );
    let mut layers = BTreeMap::new();
    let mut requests = 0.0;
    let traced = if args.trace {
        let mut extras = Extras::default();
        let traced = pass(&setup, rounds, args.seconds, tracer, &mut extras);
        layers.insert("wasla.daemon_run_ms", median(&traced.latencies_ms));
        layers.insert("trace.window_fit_ms", median(&extras.window_ms));
        layers.insert("core.daemon_ms", median(&extras.core_ms));
        layers.insert("core.replans", mean(&extras.replans));
        let (hits, lookups) = extras.calib;
        layers.insert("wasla.calib_hit_ratio", hits as f64 / lookups.max(1) as f64);
        requests = traced.latencies_ms.len() as f64;
        Some(traced)
    } else {
        None
    };
    let max_n = setup
        .catalogs
        .iter()
        .map(|c| c.scenario.catalog.len())
        .max()
        .unwrap_or(0);
    let max_m = setup
        .catalogs
        .iter()
        .map(|c| c.scenario.targets.len())
        .max()
        .unwrap_or(0);
    Ok(Outcome {
        setup_s,
        untraced,
        traced,
        layers,
        counts,
        self_time_requests: requests,
        cross_check: Vec::new(),
        inputs: vec![
            ("scale", SCALE),
            ("rounds", rounds as f64),
            (
                "streams",
                (setup.catalogs.len() * SHAPES.len() * VARIANTS) as f64,
            ),
            ("panes_per_stream", PANES),
            ("max_objects_n", max_n as f64),
            ("max_targets_m", max_m as f64),
            ("oplog_records_per_stream", median(&shape.records)),
        ],
        notes: vec![
            (
                "request",
                "one Service::run_loop over one stream, cold controller",
            ),
            (
                "throughput_per_s",
                "daemon ticks per second of run_loop time",
            ),
            ("max_util", "per tick, after the tick's moves"),
            (
                "validated_speedup",
                "predicted: per tick, max utilization before / after the tick's moves",
            ),
            ("moved_mib", "MiB migrated per tick, forced moves included"),
            (
                "core.daemon_ms",
                "remainder: run_loop minus a separate windowed_workloads call on the same stream",
            ),
            (
                "wasla.self_ms",
                "includes the core's drift scoring and re-plans, which only run inside run_loop",
            ),
            ("ok_share", "1 - failed_share, over streams"),
            ("clean_share", "1 - degraded_share, over streams"),
        ],
    })
}
