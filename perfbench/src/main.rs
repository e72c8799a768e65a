//! End-to-end benchmark of the WASLA advisor.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client drives one workload through the public API
//! for `--seconds` of wall time, checks every output, and prints the
//! result as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the same pass untraced and then
//! traced, and reports the per-layer metrics. See `perfbench/README.md`.

mod compose;
mod drift;
mod fleet;
mod large;
mod paper;
mod report;
mod tracer;

use compose::Counts;
use report::{geomean, mean, median, tail, Pass};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use tracer::Tracer;

/// Span name of seeded input generation.
pub const GENERATE: &str = "generate inputs";

/// The per-layer metrics every traced run prints, with their units.
/// A metric whose layer the workload never calls reads 0 and is listed
/// under `not_applicable` in the run's shape line.
const PER_LAYER: &[(&str, &str)] = &[
    ("exec.trace_run_ms", "ms"),
    ("exec.sim_requests", "count"),
    ("exec.sim_requests_per_s", "1/s"),
    ("exec.validate_run_ms", "ms"),
    ("trace.fit_ms", "ms"),
    ("trace.fit_records_per_s", "1/s"),
    ("trace.window_fit_ms", "ms"),
    ("model.calibrate_ms", "ms"),
    ("model.calibrations", "count"),
    ("wasla.calib_hit_ratio", "ratio"),
    ("wasla.fit_hit_ratio", "ratio"),
    ("wasla.batch_tick_ms", "ms"),
    ("wasla.batch_efficiency", "ratio"),
    ("wasla.tick_drift", "ratio"),
    ("wasla.daemon_run_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.initial_ms", "ms"),
    ("core.nlp_ms", "ms"),
    ("core.regularize_ms", "ms"),
    ("core.regularize_gap", "ratio"),
    ("core.daemon_ms", "ms"),
    ("core.replans", "count"),
    ("workload.generate_ms", "ms"),
    ("exec.self_ms", "ms"),
    ("trace.self_ms", "ms"),
    ("model.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("wasla.self_ms", "ms"),
    ("workload.self_ms", "ms"),
    ("tracing.overhead_ms", "ms"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run hands back.
pub struct Outcome {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    pub untraced: Pass,
    pub traced: Option<Pass>,
    /// Per-layer metrics only the workload knows how to measure.
    pub layers: BTreeMap<&'static str, f64>,
    /// Work counted at stage boundaries (traced run).
    pub counts: Counts,
    /// The number of requests whose spans the per-layer self times are
    /// averaged over.
    pub self_time_requests: f64,
    /// Input sizes, for the shape line.
    pub inputs: Vec<(&'static str, f64)>,
    /// Figures to hold against other measurements (see README.md).
    pub cross_check: Vec<(&'static str, f64)>,
    /// How particular metrics are derived on this workload.
    pub notes: Vec<(&'static str, &'static str)>,
}

/// Runs `setup` `repeats` times and keeps the last result, with the
/// wall time of every repetition: set-up is short next to the timed
/// pass, so its median over several repetitions is what is reported.
pub fn timed_setup<S>(
    repeats: usize,
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        last = Some(setup(tracer)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.ok_or("no set-up ran")?, times))
}

/// A pass stops early once it has run this many times its nominal
/// length, so a pathologically slow build still ends in time.
pub const OVERRUN_CAP: f64 = 3.0;

/// The number of rounds of nominal length `round_s` (on a two-core
/// machine) that fill `seconds`, in whole cycles of `cycle` rounds.
///
/// A pass is a fixed amount of work rather than a fixed time: every run
/// of a seed then asks for the same requests, so its figures differ from
/// another run's only by timing, its digest covers every output, and a
/// cache that grows with every request reaches the same size on a fast
/// and on a slow commit.
pub fn nominal_rounds(seconds: f64, round_s: f64, cycle: usize) -> usize {
    cycle * ((seconds / (round_s * cycle as f64)).round() as usize).max(1)
}

/// Runs `rounds` rounds, stopping early only past the overrun cap.
pub fn run_rounds(rounds: usize, seconds: f64, mut round: impl FnMut(usize)) {
    let t0 = Instant::now();
    for r in 0..rounds {
        if r > 0 && t0.elapsed().as_secs_f64() > OVERRUN_CAP * seconds {
            break;
        }
        round(r);
    }
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(rng: &mut wasla::simlib::rng::SimRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.index(i + 1));
    }
    order
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(outcome: &Outcome, pass: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    let completed = pass.completed.max(1) as f64;
    vec![
        ("setup_s", median(&outcome.setup_s), "s"),
        ("request_p50_ms", median(&pass.latencies_ms), "ms"),
        ("request_tail_ms", tail(&pass.latencies_ms).0, "ms"),
        ("throughput_per_s", pass.units / pass.busy_s(), "1/s"),
        (
            "ok_share",
            1.0 - pass.failed as f64 / pass.attempted.max(1) as f64,
            "ratio",
        ),
        (
            "clean_share",
            1.0 - pass.degraded as f64 / completed,
            "ratio",
        ),
        ("max_util", geomean(&pass.max_utils), "ratio"),
        ("validated_speedup", geomean(&pass.speedups), "ratio"),
        ("moved_mib", mean(&pass.moved_mib), "MiB"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// Per-layer metrics read from the traced run's spans and counts; a
/// metric with no span or count behind it is left out.
fn per_layer(outcome: &Outcome, tracer: &Tracer) -> BTreeMap<&'static str, f64> {
    let c = &outcome.counts;
    let some_median = |v: &[f64]| (!v.is_empty()).then(|| median(v));
    let med = |name: &str| some_median(&tracer.durations_ms(name));
    let per_s = |count: f64, name: &str| {
        let ms: f64 = tracer.durations_ms(name).iter().sum();
        (ms > 0.0).then(|| count / (ms / 1000.0))
    };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let measured = [
        ("exec.trace_run_ms", med(compose::TRACE_RUN)),
        ("exec.sim_requests", some_median(&c.sim_requests)),
        (
            "exec.sim_requests_per_s",
            per_s(c.sim_requests.iter().sum(), compose::TRACE_RUN),
        ),
        ("exec.validate_run_ms", med(compose::VALIDATE)),
        ("trace.fit_ms", med(compose::FIT_MISS)),
        (
            "trace.fit_records_per_s",
            per_s(c.fit_records as f64, compose::FIT_MISS),
        ),
        ("model.calibrate_ms", med(compose::CALIBRATE_MISS)),
        ("model.calibrations", Some(c.calibrations as f64)),
        ("core.solve_ms", med(compose::SOLVE)),
        ("core.initial_ms", some_median(&c.initial_ms)),
        ("core.nlp_ms", some_median(&c.nlp_ms)),
        ("core.regularize_ms", med(compose::REGULARIZE)),
        ("workload.generate_ms", med(GENERATE)),
    ];
    for (name, value) in measured {
        if let Some(v) = value {
            m.insert(name, v);
        }
    }
    if let Some(traced) = &outcome.traced {
        let requests = outcome.self_time_requests.max(1.0);
        for (layer, ms) in tracer.self_ms_by_request_layer() {
            let key = match layer {
                "exec" => "exec.self_ms",
                "trace" => "trace.self_ms",
                "model" => "model.self_ms",
                "core" => "core.self_ms",
                "wasla" => "wasla.self_ms",
                "workload" => "workload.self_ms",
                _ => continue,
            };
            m.insert(key, ms / requests);
        }
        let common = traced
            .latencies_ms
            .len()
            .min(outcome.untraced.latencies_ms.len());
        m.insert(
            "tracing.overhead_ms",
            median(&traced.latencies_ms[..common])
                - median(&outcome.untraced.latencies_ms[..common]),
        );
    }
    m.extend(outcome.layers.iter().map(|(k, v)| (*k, *v)));
    m
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_numbers(items: &[(&str, f64)]) -> String {
    let body: Vec<String> = items
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_string_list(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("[{}]", quoted.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <paper_advise|fleet_stress|large_solve|drift_daemon> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // The composed (traced) pipeline mirrors the fault-free production
    // path, and the workloads are chosen so that no operation fails.
    std::env::remove_var(wasla::simlib::fault::ENV_VAR);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // `paper_advise` and `drift_daemon` run their pool at one thread:
    // their requests are made of many millisecond-scale `par` calls, whose
    // thread start-ups on a two-vCPU machine made medians swing about
    // twice as much from run to run as at one thread, for no gain on
    // `paper_advise` (47 ms against 48 ms). `fleet_stress` and
    // `large_solve` use every core and carry the `par` fan-out.
    let pool_width = match args.workload.as_str() {
        "paper_advise" | "drift_daemon" => 1,
        _ => nproc,
    };
    std::env::set_var("WASLA_THREADS", pool_width.to_string());

    let mut tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "paper_advise" => paper::run(&args, &mut tracer),
        "fleet_stress" => fleet::run(&args, &mut tracer),
        "large_solve" => large::run(&args, &mut tracer),
        "drift_daemon" => drift::run(&args, &mut tracer),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };

    let pass = &outcome.untraced;
    let mut attempted = pass.attempted;
    let mut failed = pass.failed;
    let mut problems = pass.problems.clone();
    let mut digests_agree = true;
    if let Some(traced) = &outcome.traced {
        attempted += traced.attempted;
        failed += traced.failed;
        problems.extend(traced.problems.iter().cloned());
        let common = traced.digests.len().min(pass.digests.len());
        let mismatched = (0..common)
            .filter(|&i| traced.digests[i] != pass.digests[i])
            .count() as u64;
        if mismatched > 0 || traced.digest() != pass.digest() {
            digests_agree = false;
            failed += mismatched;
            problems.push(format!(
                "{mismatched} traced request(s) produced outputs that differ from the untraced pass"
            ));
        }
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }

    let e2e = end_to_end(&outcome, pass);
    let (tail_ms, tail_pct) = tail(&pass.latencies_ms);
    let mut shape = String::new();
    let _ = write!(
        shape,
        "{{\"shape\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {:?}, \"trace\": {}, \"pool_width\": {pool_width}, \"nproc\": {nproc}, \"setup_repeats\": {}, \"samples\": {}, \"tail_percentile\": {tail_pct:?}, \"tail_ms\": {tail_ms:?}, \"digest\": \"{:016x}\", \"inputs\": ",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.setup_s.len(),
        pass.latencies_ms.len(),
        pass.digest(),
    );
    let _ = write!(
        shape,
        "{}, \"cross_check\": {}, \"notes\": {{",
        json_numbers(&outcome.inputs),
        json_numbers(&outcome.cross_check)
    );
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    shape.push_str(&notes.join(", "));
    let _ = write!(shape, "}}, \"problems\": {}", json_string_list(&problems));

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let traced = outcome
            .traced
            .as_ref()
            .expect("a traced run has a traced pass");
        let measured = per_layer(&outcome, &tracer);
        let mut not_applicable = Vec::new();
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = measured.get(name).copied().filter(|v| v.is_finite());
                if value.is_none() {
                    not_applicable.push(name.to_string());
                }
                (name, value.unwrap_or(0.0), unit)
            })
            .collect();
        let traced_e2e = end_to_end(&outcome, traced);
        let _ = write!(
            shape,
            ", \"not_applicable\": {}, \"traced_end_to_end\": {}, \"untraced_end_to_end\": {}, \"traced_digest\": \"{:016x}\", \"digests_agree\": {digests_agree}, \"traced_samples\": {}",
            json_string_list(&not_applicable),
            json_metrics(&traced_e2e),
            json_metrics(&e2e),
            traced.digest(),
            traced.latencies_ms.len(),
        );
        let path = std::path::Path::new(".bench_out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => {
                let _ = write!(shape, ", \"spans\": \"{}\"", path.display());
            }
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        metrics
    } else {
        e2e
    };
    shape.push_str("}}");
    println!("{shape}");

    let correct = failed == 0
        && digests_agree
        && metrics.iter().all(|(_, v, _)| v.is_finite())
        && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
