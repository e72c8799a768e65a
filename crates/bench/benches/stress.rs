//! Fleet-scale stress benchmarks: synthetic tenant generation
//! throughput, the cost of one warm advise tick (on a fresh service
//! and on one that has already advised 2,048 other tenants), and the
//! price of an admission rejection.
//!
//! Two ratios are gated in `ci/bench_diff.sh`. The rejected-vs-served
//! ratio: admission control must stay nearly free (a shed request does
//! no calibration, no trace run, no solve), which is what makes
//! load-shedding a defense rather than another source of load. The
//! history-vs-fresh ratio: a tick must cost the same however many fits
//! the service has cached, or a long-lived service slows down as it
//! serves.

use std::hint::black_box;
use wasla::stress::{self, StressOptions};
use wasla::workload::synth::{self, SynthSpec};
use wasla::{BatchPolicy, Service};
use wasla_bench::harness::{Harness, Throughput};

const TICK: usize = 8;

/// Other tenants a long-lived service advises before the history tick.
const HISTORY: u64 = 2048;

fn tick_requests(spec: &SynthSpec) -> Vec<wasla::AdviseRequest> {
    let targets = stress::fleet(spec);
    (0..TICK as u64)
        .map(|i| stress::tenant_request(spec, &targets, i))
        .collect()
}

fn bench_generate(c: &mut Harness) {
    let spec = SynthSpec {
        tenants: 256,
        ..SynthSpec::default()
    };
    let mut group = c.benchmark_group("stress");
    group.throughput(Throughput::Elements(spec.tenants as u64));
    group.bench_function("generate_256", |b| {
        b.iter(|| black_box(synth::generate(black_box(&spec)).expect("valid spec")))
    });
    group.finish();
}

fn bench_served_tick(c: &mut Harness) {
    let opts = StressOptions::default();
    let requests = tick_requests(&opts.spec);
    let mut service = Service::new(opts.service_seed);
    // Warm the calibration and fit caches once; the steady-state tick
    // is the quantity a capacity planner budgets against.
    service.advise_batch_with(&requests, &opts.policy);
    let mut group = c.benchmark_group("stress");
    group.throughput(Throughput::Elements(TICK as u64));
    group.bench_function("tick_served_b8", |b| {
        b.iter(|| black_box(service.advise_batch_with(&requests, &opts.policy)))
    });
    group.finish();
}

fn bench_served_tick_after_history(c: &mut Harness) {
    let opts = StressOptions::default();
    let requests = tick_requests(&opts.spec);
    let targets = stress::fleet(&opts.spec);
    let history: Vec<wasla::AdviseRequest> = (TICK as u64..TICK as u64 + HISTORY)
        .map(|i| stress::tenant_request(&opts.spec, &targets, i))
        .collect();
    let mut service = Service::new(opts.service_seed);
    // One-time setup: the session accumulates one fit per other
    // tenant, as it does over a long stress run. Then the same warm
    // tick as `tick_served_b8`.
    for batch in history.chunks(64) {
        service.advise_batch_with(batch, &opts.policy);
    }
    service.advise_batch_with(&requests, &opts.policy);
    let mut group = c.benchmark_group("stress");
    group.throughput(Throughput::Elements(TICK as u64));
    group.bench_function("tick_served_b8_h2048", |b| {
        b.iter(|| black_box(service.advise_batch_with(&requests, &opts.policy)))
    });
    group.finish();
}

fn bench_rejected_tick(c: &mut Harness) {
    let opts = StressOptions::default();
    let requests = tick_requests(&opts.spec);
    let policy = BatchPolicy {
        queue_capacity: Some(0),
        ..BatchPolicy::default()
    };
    let mut service = Service::new(opts.service_seed);
    let mut group = c.benchmark_group("stress");
    group.throughput(Throughput::Elements(TICK as u64));
    group.bench_function("tick_rejected_b8", |b| {
        b.iter(|| black_box(service.advise_batch_with(&requests, &policy)))
    });
    group.finish();
}

wasla_bench::bench_main!(
    "stress",
    bench_generate,
    bench_served_tick,
    bench_served_tick_after_history,
    bench_rejected_tick
);
