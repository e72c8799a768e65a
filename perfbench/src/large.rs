//! `large_solve`: `core::recommend` (solve + regularize) on Fig. 19-style
//! problems.
//!
//! Set-up fits the consolidation workload (TPC-H + TPC-C, N = 40) under
//! two SQL workload seeds, calibrates the disk model, and replicates the
//! two descriptions to N ∈ {120, 160} on M ∈ {10, 16} disks: a fixed
//! menu of eight problems, like Fig. 19's. A round is the four (N, M)
//! points once each in a seeded order, alternating the descriptions, so
//! every two rounds ask for each problem once. No simulation runs on the
//! request path, so the evaluator and the solver do nearly all the work.
//! A run is an even number of rounds, so it asks for every problem
//! equally often.

use crate::compose::{self, Counts};
use crate::report::{check_layout, hash_layout, Pass, MIB};
use crate::tracer::Tracer;
use crate::{nominal_rounds, permutation, run_rounds, timed_setup, Args, Outcome, GENERATE};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use wasla::core::dynamic::migration_bytes;
use wasla::core::{recommend, Layout, LayoutProblem, Recommendation};
use wasla::model::CostModel;
use wasla::pipeline::{AdviseConfig, Scenario, DISK_BYTES, LVM_STRIPE};
use wasla::simlib::hash::Fnv64;
use wasla::simlib::rng::SimRng;
use wasla::storage::{DeviceSpec, DiskParams, TargetConfig};
use wasla::workload::{replicate_problem, ObjectKind, SqlWorkload};
use wasla::AdvisorSession;

const SCALE: f64 = 0.02;
const SETUP_REPEATS: usize = 3;
/// SQL workload seeds of the consolidation descriptions on the menu.
const DESCRIPTION_SEEDS: [u64; 2] = [3, 5];
/// (replication factor, disks): N = 40 × factor.
const MENU: [(usize, usize); 4] = [(3, 10), (3, 16), (4, 10), (4, 16)];
/// Nominal wall time of one round on a two-core machine.
const ROUND_S: f64 = 3.6;

struct Setup {
    /// `problems[d * MENU.len() + k]`: description `d` at menu point `k`.
    problems: Vec<LayoutProblem>,
    config: AdviseConfig,
    seed: u64,
}

fn setup(seed: u64, tracer: &mut Tracer, counts: &mut Counts) -> Result<Setup, String> {
    let config = AdviseConfig::full();
    let scenario = Scenario::consolidation(SCALE);
    let mut session = AdvisorSession::new();
    let mut descriptions = Vec::with_capacity(DESCRIPTION_SEEDS.len());
    for wseed in DESCRIPTION_SEEDS {
        let workloads = [
            SqlWorkload::olap1_21(wseed),
            SqlWorkload::oltp().with_prefix("C_"),
        ];
        let (fitted, _, _) =
            compose::fitted(&mut session, &scenario, &workloads, &config, tracer, counts)
                .map_err(|e| format!("set-up fit failed: {e}"))?;
        descriptions.push(fitted);
    }
    let disk = DeviceSpec::Disk(DiskParams::scsi_15k((DISK_BYTES * SCALE) as u64));
    let max_m = MENU.iter().map(|&(_, m)| m).max().unwrap_or(1);
    let targets: Vec<TargetConfig> = (0..max_m)
        .map(|j| TargetConfig::single(format!("disk{j}"), disk.clone()))
        .collect();
    let models: Vec<Arc<dyn CostModel>> = compose::models(
        &mut session,
        &targets,
        &config.grid,
        scenario.seed,
        tracer,
        counts,
    )
    .map_err(|e| format!("set-up calibration failed: {e}"))?
    .into_iter()
    .map(|m| Arc::new(m) as Arc<dyn CostModel>)
    .collect();
    let kinds: Vec<ObjectKind> = scenario.catalog.objects().iter().map(|o| o.kind).collect();
    let problems = tracer.leaf("workload", GENERATE, || {
        descriptions
            .iter()
            .flat_map(|desc| {
                MENU.iter().map(|&(k, m)| LayoutProblem {
                    kinds: (0..k).flat_map(|_| kinds.iter().copied()).collect(),
                    capacities: targets[..m].iter().map(|t| t.capacity()).collect(),
                    target_names: targets[..m].iter().map(|t| t.name.clone()).collect(),
                    models: models[..m].to_vec(),
                    workloads: replicate_problem(desc, k),
                    stripe_size: LVM_STRIPE as f64,
                    constraints: Vec::new(),
                })
            })
            .collect::<Vec<_>>()
    });
    Ok(Setup {
        problems,
        config,
        seed,
    })
}

fn digest(rec: &Recommendation) -> u64 {
    let mut h = Fnv64::new();
    hash_layout(&mut h, rec.final_layout());
    hash_layout(&mut h, &rec.solver_layout);
    h.write_str(&format!("{:?}", rec.quality))
        .write_u64(u64::from(rec.fell_back_to_see));
    h.finish()
}

fn pass(
    setup: &Setup,
    rounds: usize,
    seconds: f64,
    tracer: &mut Tracer,
    counts: &mut Counts,
    gaps: &mut Vec<f64>,
) -> Pass {
    let mut p = Pass::default();
    let mut rng = SimRng::new(setup.seed);
    let options = &setup.config.advisor;
    let mut seen: BTreeMap<usize, u64> = BTreeMap::new();
    run_rounds(rounds, seconds, |round| {
        for point in permutation(&mut rng, MENU.len()) {
            let which = (round + point) % DESCRIPTION_SEEDS.len() * MENU.len() + point;
            let problem = &setup.problems[which];
            let index = p.attempted;
            tracer.set_request(Some(index));
            let t0 = Instant::now();
            let result = if tracer.on() {
                let span = tracer.begin("core", "core::recommend (composed stages)");
                let out = compose::solve(problem, &setup.config, tracer, counts);
                tracer.end(span);
                out.map_err(|e| e.to_string())
            } else {
                recommend(problem, options).map_err(|e| e.to_string())
            };
            p.latencies_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
            tracer.set_request(None);
            p.attempted += 1;
            let rec = match result {
                Ok(rec) => rec,
                Err(e) => {
                    p.digests.push(0);
                    p.fail(format!("request {index}: recommend failed: {e}"));
                    continue;
                }
            };
            let d = digest(&rec);
            p.digests.push(d);
            let sizes = &problem.workloads.sizes;
            let caps = &problem.capacities;
            let checked = check_layout(
                "final layout",
                rec.final_layout(),
                sizes,
                caps,
                options.regularize,
            )
            .and_then(|()| check_layout("solver layout", &rec.solver_layout, sizes, caps, false))
            .and_then(|()| match seen.insert(which, d) {
                Some(first) if first != d => {
                    Err("a repeated problem produced a different recommendation".to_string())
                }
                _ => Ok(()),
            });
            if let Err(e) = checked {
                p.fail(format!("request {index}: {e}"));
                continue;
            }
            p.completed += 1;
            p.units += 1.0;
            if rec.quality.degraded() {
                p.degraded += 1;
            }
            // The solver layout, not the recommendation: on these
            // overloaded problems the regularized layout rates worse than
            // SEE and the advisor recommends SEE, which would hide any
            // change in what the solver finds.
            let util = |stage: &str| rec.stage(stage).map_or(0.0, |s| s.max_utilization);
            p.max_utils.push(util("solver"));
            p.speedups.push(util("see") / util("solver"));
            let see = Layout::see(problem.n(), problem.m());
            p.moved_mib
                .push(migration_bytes(&see, &rec.solver_layout, sizes) as f64 / MIB);
            gaps.push(compose::regularize_gap(&rec));
        }
    });
    p
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut counts = Counts::default();
    let (setup, setup_s) =
        timed_setup(SETUP_REPEATS, tracer, |t| setup(args.seed, t, &mut counts))?;
    let rounds = nominal_rounds(args.seconds, ROUND_S, DESCRIPTION_SEEDS.len());
    let untraced = pass(
        &setup,
        rounds,
        args.seconds,
        &mut Tracer::new(false),
        &mut Counts::default(),
        &mut Vec::new(),
    );
    let mut layers = BTreeMap::new();
    let mut requests = 0.0;
    let traced = if args.trace {
        let mut gaps = Vec::new();
        let traced = pass(&setup, rounds, args.seconds, tracer, &mut counts, &mut gaps);
        layers.insert("core.regularize_gap", crate::report::geomean(&gaps));
        requests = traced.latencies_ms.len() as f64;
        Some(traced)
    } else {
        None
    };
    let max_n = setup.problems.iter().map(|p| p.n()).max().unwrap_or(0);
    let max_m = setup.problems.iter().map(|p| p.m()).max().unwrap_or(0);
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
            ("problems", setup.problems.len() as f64),
            ("max_objects_n", max_n as f64),
            ("max_targets_m", max_m as f64),
        ],
        notes: vec![
            ("request", "one core::recommend (solve + regularize)"),
            ("max_util", "of the solver layout: the regularized layout loses to SEE on these problems, so the advisor recommends SEE"),
            ("validated_speedup", "predicted: SEE max utilization / solver-layout max utilization (no simulation on this workload)"),
            ("moved_mib", "MiB moved from SEE to the solver layout, per recommend"),
            ("exec, trace and model spans", "set-up only: fitting and calibrating the descriptions"),
            ("ok_share", "1 - failed_share"),
            ("clean_share", "1 - degraded_share"),
        ],
    })
}
