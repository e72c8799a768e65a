//! `paper_advise`: the paper's own traffic — advise requests over the
//! §6 scenarios, each recommendation validated on the simulator.
//!
//! A round is the six scenarios once each, in a seeded order. Each
//! request's SQL workload seed comes from a small skewed pool (weights
//! 4:2:1:1), so repeats hit the fit cache. One request in eight goes to
//! a fresh `AdvisorSession` (the one-shot CLI path, with cold
//! calibration); the rest go to one long-lived session, whose device
//! calibrations set-up has already warmed. Seeds and cold requests are
//! dealt from a deck per scenario, so every eight rounds ask for the same
//! mix. After each request its
//! recommendation is re-run on the simulator under the recommended
//! layout, outside the timed request; the run is deterministic, so it
//! is made once per distinct recommendation and later repeats are
//! checked to reproduce that recommendation exactly.

use crate::compose::{self, Counts};
use crate::report::{check_layout, hash_layout, Pass, MIB};
use crate::tracer::Tracer;
use crate::{nominal_rounds, permutation, run_rounds, timed_setup, Args, Outcome, GENERATE};
use std::collections::BTreeMap;
use std::time::Instant;
use wasla::core::dynamic::migration_bytes;
use wasla::core::Layout;
use wasla::pipeline::{self, AdviseConfig, AdviseOutcome, RunSettings, Scenario, SSD_BYTES};
use wasla::session::SessionStats;
use wasla::simlib::hash::Fnv64;
use wasla::simlib::par::task_seed;
use wasla::simlib::rng::SimRng;
use wasla::workload::SqlWorkload;
use wasla::{AdvisorSession, WaslaError};

/// Fraction of the paper's database size. At 0.02 a warm consolidation
/// advise takes a few hundred ms and a warm TPC-H advise a few tens.
const SCALE: f64 = 0.02;
const SETUP_REPEATS: usize = 9;
/// Pool indices of one scenario's requests over a cycle of eight
/// rounds: the four pooled workload seeds weighted 4:2:1:1. One of the
/// eight requests, drawn by the seed, runs on a fresh session.
const DECK: [usize; 8] = [0, 0, 0, 0, 1, 1, 2, 3];
/// Nominal wall time of one round (six advises and their validation).
const ROUND_S: f64 = 0.85;

#[derive(Clone, Copy)]
enum Mix {
    Olap1_63,
    Olap8_63,
    Consolidation,
}

struct Case {
    scenario: Scenario,
    mix: Mix,
}

/// Cases on the 4-disk TPC-H point, the scenario of `BENCH_pipeline`'s
/// `advise_warm_n4`.
const TPCH_4DISK: [usize; 2] = [0, 1];

impl Case {
    fn workloads(&self, seed: u64) -> Vec<SqlWorkload> {
        match self.mix {
            Mix::Olap1_63 => vec![SqlWorkload::olap1_63(seed)],
            Mix::Olap8_63 => vec![SqlWorkload::olap8_63(seed)],
            Mix::Consolidation => vec![
                SqlWorkload::olap1_21(seed),
                SqlWorkload::oltp().with_prefix("C_"),
            ],
        }
    }
}

struct Setup {
    cases: Vec<Case>,
    pool: [u64; 4],
    /// The long-lived session, its device calibrations warm.
    session: AdvisorSession,
    config: AdviseConfig,
    seed: u64,
}

fn setup(seed: u64, tracer: &mut Tracer, counts: &mut Counts) -> Result<Setup, String> {
    let config = AdviseConfig::full();
    let cases = tracer.leaf("workload", GENERATE, || {
        vec![
            Case {
                scenario: Scenario::homogeneous_disks(4, SCALE),
                mix: Mix::Olap1_63,
            },
            Case {
                scenario: Scenario::homogeneous_disks(4, SCALE),
                mix: Mix::Olap8_63,
            },
            Case {
                scenario: Scenario::config_3_1(SCALE),
                mix: Mix::Olap8_63,
            },
            Case {
                scenario: Scenario::config_2_1_1(SCALE),
                mix: Mix::Olap8_63,
            },
            Case {
                scenario: Scenario::disks_plus_ssd(SCALE, SSD_BYTES),
                mix: Mix::Olap8_63,
            },
            Case {
                scenario: Scenario::consolidation(SCALE),
                mix: Mix::Consolidation,
            },
        ]
    });
    let pool = [0, 1, 2, 3].map(|k| task_seed(seed, k) % 1_000_000);
    let mut session = AdvisorSession::new();
    for case in &cases {
        let s = &case.scenario;
        compose::models(
            &mut session,
            &s.targets,
            &config.grid,
            s.seed,
            tracer,
            counts,
        )
        .map_err(|e| format!("set-up calibration failed: {e}"))?;
    }
    Ok(Setup {
        cases,
        pool,
        session,
        config,
        seed,
    })
}

/// The seeded request sequence: each round is every scenario once, in a
/// seeded order; over each cycle of eight rounds every scenario runs the
/// deck in a seeded order, one of the eight on a fresh session.
struct Requests {
    rng: SimRng,
    pool: [u64; 4],
    /// Per scenario, this cycle's deck order and cold slot.
    decks: Vec<(Vec<usize>, usize)>,
}

impl Requests {
    /// (scenario, workload seed, cold) for each request of round `r`.
    fn round(&mut self, r: usize, cases: usize) -> Vec<(usize, u64, bool)> {
        let slot = r % DECK.len();
        if slot == 0 {
            let rng = &mut self.rng;
            self.decks = (0..cases)
                .map(|_| {
                    let order = permutation(rng, DECK.len());
                    (order, rng.index(DECK.len()))
                })
                .collect();
        }
        permutation(&mut self.rng, cases)
            .into_iter()
            .map(|case| {
                let (order, cold) = &self.decks[case];
                (case, self.pool[DECK[order[slot]]], slot == *cold)
            })
            .collect()
    }
}

fn digest(outcome: &AdviseOutcome) -> u64 {
    let rec = &outcome.recommendation;
    let mut h = Fnv64::new();
    hash_layout(&mut h, rec.final_layout());
    hash_layout(&mut h, &rec.solver_layout);
    h.write_str(&format!("{:?}", rec.quality))
        .write_u64(u64::from(rec.fell_back_to_see))
        .write_u64(outcome.degraded.len() as u64)
        .write_u64(outcome.baseline_run.storage_requests)
        .write_f64(outcome.baseline_run.elapsed.as_secs());
    h.finish()
}

/// What one distinct recommendation validated to.
struct Validated {
    digest: u64,
    speedup: f64,
}

/// Traced-pass extras the per-layer metrics need.
#[derive(Default)]
struct Extras {
    counts: Counts,
    calib: (u64, u64),
    fit: (u64, u64),
    gaps: Vec<f64>,
    /// Simulated storage requests of each request's trace run.
    sim_requests: Vec<f64>,
    /// Warm advise latencies on the 4-disk TPC-H point.
    tpch_4disk_warm_ms: Vec<f64>,
}

/// Adds a session's cache counters since `base` to the pass's totals.
fn add_stats(extras: &mut Extras, session: &AdvisorSession, base: &SessionStats) {
    let s = session.stats();
    let calib = s.calibration.since(&base.calibration);
    let fit = s.fit.since(&base.fit);
    extras.calib.0 += calib.hits;
    extras.calib.1 += calib.lookups();
    extras.fit.0 += fit.hits;
    extras.fit.1 += fit.lookups();
}

fn pass(
    setup: &Setup,
    rounds: usize,
    seconds: f64,
    tracer: &mut Tracer,
    extras: &mut Extras,
) -> Pass {
    let mut p = Pass::default();
    let mut session = setup.session.clone();
    let mut requests = Requests {
        rng: SimRng::new(setup.seed),
        pool: setup.pool,
        decks: Vec::new(),
    };
    let mut validated: BTreeMap<(usize, u64), Validated> = BTreeMap::new();
    let config = &setup.config;
    let mut index = 0usize;
    run_rounds(rounds, seconds, |r| {
        for (case_idx, wseed, cold) in requests.round(r, setup.cases.len()) {
            let case = &setup.cases[case_idx];
            let workloads = case.workloads(wseed);
            let mut fresh = AdvisorSession::new();
            let target = if cold { &mut fresh } else { &mut session };
            tracer.set_request(Some(index as u64));
            let t0 = Instant::now();
            let result: Result<AdviseOutcome, WaslaError> = if tracer.on() {
                let span = tracer.begin("wasla", "AdvisorSession::advise (composed stages)");
                let out = compose::advise(
                    target,
                    &case.scenario,
                    &workloads,
                    config,
                    tracer,
                    &mut extras.counts,
                );
                tracer.end(span);
                out
            } else {
                target.advise(&case.scenario, &workloads, config)
            };
            let ms = t0.elapsed().as_secs_f64() * 1000.0;
            p.latencies_ms.push(ms);
            if !cold && TPCH_4DISK.contains(&case_idx) {
                extras.tpch_4disk_warm_ms.push(ms);
            }
            tracer.set_request(None);
            if cold {
                add_stats(extras, &fresh, &SessionStats::default());
            }
            index += 1;
            p.attempted += 1;
            let outcome = match result {
                Ok(o) => o,
                Err(e) => {
                    p.digests.push(0);
                    p.fail(format!("request {}: advise failed: {e}", index - 1));
                    continue;
                }
            };
            p.completed += 1;
            p.units += 1.0;
            if !outcome.degraded.is_empty() {
                p.degraded += 1;
            }
            extras
                .sim_requests
                .push(outcome.baseline_run.storage_requests as f64);
            let d = digest(&outcome);
            p.digests.push(d);
            match check(
                &outcome,
                config,
                &case.scenario,
                &workloads,
                &mut validated,
                (case_idx, wseed),
                d,
                tracer,
            ) {
                Ok(speedup) => p.speedups.push(speedup),
                Err(e) => {
                    p.fail(format!("request {}: {e}", index - 1));
                    continue;
                }
            }
            let rec = &outcome.recommendation;
            p.max_utils.push(compose::final_max_util(rec));
            let see = Layout::see(outcome.problem.n(), outcome.problem.m());
            let moved = migration_bytes(&see, rec.final_layout(), &outcome.problem.workloads.sizes);
            p.moved_mib.push(moved as f64 / MIB);
            extras.gaps.push(compose::regularize_gap(rec));
        }
    });
    add_stats(extras, &session, &setup.session.stats());
    p
}

/// Checks one outcome and returns its validated speedup over SEE.
#[allow(clippy::too_many_arguments)]
fn check(
    outcome: &AdviseOutcome,
    config: &AdviseConfig,
    scenario: &Scenario,
    workloads: &[SqlWorkload],
    validated: &mut BTreeMap<(usize, u64), Validated>,
    key: (usize, u64),
    digest: u64,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let rec = &outcome.recommendation;
    let sizes = &outcome.problem.workloads.sizes;
    let caps = &outcome.problem.capacities;
    check_layout(
        "final layout",
        rec.final_layout(),
        sizes,
        caps,
        config.advisor.regularize,
    )?;
    check_layout("solver layout", &rec.solver_layout, sizes, caps, false)?;
    if let Some(v) = validated.get(&key) {
        if v.digest != digest {
            return Err("a repeated request produced a different recommendation".to_string());
        }
        return Ok(v.speedup);
    }
    let span = tracer.begin("exec", compose::VALIDATE);
    let settings = RunSettings {
        capture_trace: false,
        ..config.trace_run.clone()
    };
    let run = pipeline::run_with_layout(scenario, workloads, rec.final_layout(), &settings);
    tracer.end(span);
    let run = run.map_err(|e| format!("validation run failed: {e}"))?;
    let elapsed = run.elapsed.as_secs();
    if elapsed.is_nan()
        || elapsed <= 0.0
        || run.queries_completed != outcome.baseline_run.queries_completed
    {
        return Err("the validation run did not complete the workload".to_string());
    }
    let speedup = outcome.baseline_run.elapsed.as_secs() / elapsed;
    validated.insert(key, Validated { digest, speedup });
    Ok(speedup)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut setup_counts = Counts::default();
    let (setup, setup_s) = timed_setup(SETUP_REPEATS, tracer, |t| {
        setup(args.seed, t, &mut setup_counts)
    })?;
    let mut ignored = Extras::default();
    let rounds = nominal_rounds(args.seconds, ROUND_S, DECK.len());
    let untraced = pass(
        &setup,
        rounds,
        args.seconds,
        &mut Tracer::new(false),
        &mut ignored,
    );
    let mut layers = BTreeMap::new();
    let mut counts = Counts::default();
    let mut traced_requests = 0.0;
    let traced = if args.trace {
        let mut extras = Extras {
            counts: setup_counts,
            ..Extras::default()
        };
        let traced = pass(&setup, rounds, args.seconds, tracer, &mut extras);
        let ratio = |(hits, lookups): (u64, u64)| hits as f64 / lookups.max(1) as f64;
        layers.insert("wasla.calib_hit_ratio", ratio(extras.calib));
        layers.insert("wasla.fit_hit_ratio", ratio(extras.fit));
        layers.insert("core.regularize_gap", crate::report::geomean(&extras.gaps));
        counts = extras.counts;
        traced_requests = traced.latencies_ms.len() as f64;
        Some(traced)
    } else {
        None
    };
    let max_n = setup
        .cases
        .iter()
        .map(|c| c.scenario.catalog.len())
        .max()
        .unwrap_or(0);
    let max_m = setup
        .cases
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
        cross_check: vec![(
            "tpch_4disk_warm_p50_ms",
            crate::report::median(&ignored.tpch_4disk_warm_ms),
        )],
        self_time_requests: traced_requests,
        inputs: vec![
            ("scale", SCALE),
            ("rounds", rounds as f64),
            ("scenarios", setup.cases.len() as f64),
            ("max_objects_n", max_n as f64),
            ("max_targets_m", max_m as f64),
            (
                "sim_requests_per_advise",
                crate::report::median(&ignored.sim_requests),
            ),
        ],
        notes: vec![
            (
                "request",
                "one advise (trace, fit, calibrate, solve, regularize)",
            ),
            (
                "validated_speedup",
                "simulated SEE time / simulated time under the recommended layout",
            ),
            (
                "moved_mib",
                "MiB moved from SEE to the recommended layout, per advise",
            ),
            ("ok_share", "1 - failed_share"),
            ("clean_share", "1 - degraded_share"),
        ],
    })
}
