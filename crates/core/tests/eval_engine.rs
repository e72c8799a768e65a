//! Property tests for the incremental evaluation engine: incremental
//! updates must be **bit-identical** to the from-scratch
//! `UtilizationEstimator` across random perturbation sequences (the
//! ISSUE's hard requirement — exact `f64` equality, not tolerances).

use std::sync::Arc;
use wasla_core::{
    max_of, weighted_max, EvalEngine, Layout, LayoutProblem, ObjectiveKind, ScratchEval,
    UtilizationEstimator,
};
use wasla_model::CostModel;
use wasla_simlib::proptest::prelude::*;
use wasla_storage::{IoKind, Tier};
use wasla_workload::{ObjectKind, WorkloadSet, WorkloadSpec};

struct TestModel;
impl CostModel for TestModel {
    fn request_cost(&self, kind: IoKind, size: f64, run: f64, chi: f64) -> f64 {
        let base = match kind {
            IoKind::Read => 0.004,
            IoKind::Write => 0.003,
        };
        base / run.max(1.0) + 0.002 * chi + size / 60e6 + 0.0002
    }
}

/// The same analytics as [`TestModel`], but carrying an explicit tier
/// so the tier-weighted objectives get heterogeneous weights.
struct TieredTestModel(Tier);
impl CostModel for TieredTestModel {
    fn request_cost(&self, kind: IoKind, size: f64, run: f64, chi: f64) -> f64 {
        TestModel.request_cost(kind, size, run, chi)
    }

    fn tier(&self) -> Tier {
        self.0.clone()
    }
}

fn build_problem(n: usize, m: usize, rates: &[f64], overlaps: &[f64]) -> LayoutProblem {
    let specs = (0..n)
        .map(|i| WorkloadSpec {
            read_size: 65536.0,
            write_size: 8192.0,
            read_rate: rates[i],
            write_rate: rates[i] * 0.1,
            run_count: 1.0 + (i % 7) as f64 * 9.0,
            overlaps: (0..n)
                .map(|k| if i == k { 0.0 } else { overlaps[i * n + k] })
                .collect(),
        })
        .collect();
    LayoutProblem {
        workloads: WorkloadSet {
            names: (0..n).map(|i| format!("o{i}")).collect(),
            sizes: (0..n).map(|i| 1000 + 37 * i as u64).collect(),
            specs,
        },
        kinds: vec![ObjectKind::Table; n],
        capacities: vec![1 << 24; m],
        target_names: (0..m).map(|j| format!("t{j}")).collect(),
        // Alternate HDD/SSD tiers so the tier-weighted objectives
        // (provision-cost, wear-blend) see genuinely distinct
        // per-target weights; the default MinMax path ignores them.
        models: (0..m)
            .map(|j| {
                let tier = if j % 2 == 0 { Tier::hdd() } else { Tier::ssd() };
                Arc::new(TieredTestModel(tier)) as _
            })
            .collect(),
        stripe_size: 1024.0 * 1024.0,
        constraints: vec![],
    }
}

fn problem_strategy() -> Strategy<LayoutProblem> {
    (2usize..9, 2usize..5)
        .prop_flat_map(|(n, m)| {
            (
                proptest::collection::vec(0.0f64..150.0, n),
                proptest::collection::vec(0.0f64..1.0, n * n),
                Just((n, m)),
            )
        })
        .prop_map(|(rates, overlaps, (n, m))| build_problem(n, m, &rates, &overlaps))
}

fn normalized_x(n: usize, m: usize, noise: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; n * m];
    for i in 0..n {
        let row = &mut x[i * m..(i + 1) * m];
        let mut total = 0.0;
        for (j, v) in row.iter_mut().enumerate() {
            *v = noise[(i * m + j) % noise.len()];
            total += *v;
        }
        for v in row.iter_mut() {
            *v /= total;
        }
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random single-coordinate perturbation sequences: after every
    /// incremental commit, the engine's committed utilizations, max,
    /// and object loads equal a from-scratch estimator evaluation of
    /// the same point, bit for bit.
    #[test]
    fn incremental_commits_match_estimator_exactly(
        problem in problem_strategy(),
        noise in proptest::collection::vec(0.005f64..1.0, 64),
        perturbations in proptest::collection::vec((0usize..64, 0.0f64..1.1), 1..24),
    ) {
        let n = problem.n();
        let m = problem.m();
        let est = UtilizationEstimator::new(&problem);
        let mut engine = EvalEngine::new(&problem);
        let mut x = normalized_x(n, m, &noise);
        engine.set_point(&x);
        for &(raw_c, v) in &perturbations {
            let c = raw_c % (n * m);
            x[c] = v;
            engine.set_point(&x);
            let layout = Layout::from_flat(&x, n, m);
            let want = est.utilizations(&layout);
            let got = engine.committed_utilizations();
            for (a, b) in got.iter().zip(&want) {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "utilization mismatch: {} vs {}", a, b);
            }
            prop_assert_eq!(
                max_of(engine.committed_utilizations()).to_bits(),
                est.max_utilization(&layout).to_bits()
            );
            for i in 0..n {
                prop_assert_eq!(
                    engine.object_load(i).to_bits(),
                    est.object_load(&layout, i).to_bits()
                );
            }
        }
    }

    /// Non-committing probes answer "µⱼ with Lᵢⱼ := v" exactly as a
    /// from-scratch estimator evaluates the modified layout, and leave
    /// the committed state untouched.
    #[test]
    fn probes_match_estimator_exactly(
        problem in problem_strategy(),
        noise in proptest::collection::vec(0.005f64..1.0, 64),
        probes in proptest::collection::vec((0usize..64, 0usize..8, 0.0f64..1.1), 1..16),
    ) {
        let n = problem.n();
        let m = problem.m();
        let est = UtilizationEstimator::new(&problem);
        let mut engine = EvalEngine::new(&problem);
        let x = normalized_x(n, m, &noise);
        engine.set_point(&x);
        for &(raw_i, raw_j, v) in &probes {
            let (i, j) = (raw_i % n, raw_j % m);
            let got = engine.probe_coord(i, j, v);
            let mut xm = x.clone();
            xm[i * m + j] = v;
            let want = est.target_utilization(&Layout::from_flat(&xm, n, m), j);
            prop_assert_eq!(got.to_bits(), want.to_bits(),
                "probe ({},{})={} mismatch: {} vs {}", i, j, v, got, want);
        }
        // Probing never disturbs the committed point.
        let layout = Layout::from_flat(&x, n, m);
        for (a, b) in engine.committed_utilizations().iter().zip(&est.utilizations(&layout)) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// For every objective, the incremental engine and the
    /// from-scratch evaluator agree bit-for-bit on the weighted score,
    /// its LSE smoothing, and the analytic LSE gradient — and the
    /// score is exactly `weighted_max` over the estimator's
    /// utilizations.
    #[test]
    fn weighted_scores_match_scratch_for_all_objectives(
        problem in problem_strategy(),
        noise in proptest::collection::vec(0.005f64..1.0, 64),
        perturbations in proptest::collection::vec((0usize..64, 0.0f64..1.1), 1..8),
    ) {
        let n = problem.n();
        let m = problem.m();
        let est = UtilizationEstimator::new(&problem);
        for kind in ObjectiveKind::ALL {
            let weights = kind.weights(&problem);
            let mut engine = EvalEngine::with_objective(&problem, kind);
            let mut scratch = ScratchEval::with_objective(&problem, kind);
            let mut x = normalized_x(n, m, &noise);
            for &(raw_c, v) in &perturbations {
                let c = raw_c % (n * m);
                x[c] = v;
                let layout = Layout::from_flat(&x, n, m);
                let want = weighted_max(&est.utilizations(&layout), &weights);
                prop_assert_eq!(engine.score_at(&x).to_bits(), want.to_bits(),
                    "engine score mismatch under {}", kind.name());
                prop_assert_eq!(scratch.score_at(&x).to_bits(), want.to_bits(),
                    "scratch score mismatch under {}", kind.name());
                prop_assert_eq!(
                    engine.lse_score(&x, 0.05).to_bits(),
                    scratch.lse_score(&x, 0.05).to_bits(),
                    "lse score mismatch under {}", kind.name());
                let mut ge = vec![0.0; n * m];
                let mut gs = vec![0.0; n * m];
                engine.grad_at(&x, 0.05, &mut ge);
                scratch.grad_at(&x, 0.05, &mut gs);
                for (a, b) in ge.iter().zip(&gs) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(),
                        "lse gradient mismatch under {}: {} vs {}", kind.name(), a, b);
                }
            }
        }
    }
}

/// On an overlap-sparse problem a single-coordinate probe must cost
/// O(degree), not O(N): the `EvalStats` counters prove each probe
/// touches only the cells whose competing sums actually change. Every
/// coordinate is probed up and down, the access pattern of a
/// structured finite-difference gradient.
#[test]
fn stats_confirm_sparse_partials_are_cheap() {
    const N: usize = 64;
    const M: usize = 4;
    const GROUP: usize = 8;
    let rates: Vec<f64> = (0..N).map(|i| 20.0 + i as f64).collect();
    let mut overlaps = vec![0.0; N * N];
    for i in 0..N {
        for k in 0..N {
            if i != k && i / GROUP == k / GROUP {
                overlaps[i * N + k] = 0.5;
            }
        }
    }
    let problem = build_problem(N, M, &rates, &overlaps);
    let mut engine = EvalEngine::new(&problem);
    let x = vec![1.0 / M as f64; N * M];
    engine.set_point(&x);

    let before = engine.stats;
    for i in 0..N {
        for j in 0..M {
            let orig = x[i * M + j];
            engine.probe_coord(i, j, orig + 1e-4);
            engine.probe_coord(i, j, orig - 1e-4);
        }
    }
    let d = engine.stats.since(&before);

    assert_eq!(d.column_probes, (2 * N * M) as u64);
    // Each probe re-derives at most the perturbed object's own cell
    // plus its GROUP-1 overlap partners: ≤ 2·GROUP model calls per
    // probe, independent of N.
    assert!(
        d.cost_model_calls <= d.column_probes * 2 * GROUP as u64,
        "cost_model_calls {} exceeds sparse bound {}",
        d.cost_model_calls,
        d.column_probes * 2 * GROUP as u64
    );
    // The other N-GROUP cells per probe are served from cache.
    assert!(
        d.mu_reuses >= d.column_probes * (N - GROUP) as u64,
        "mu_reuses {} below expected {}",
        d.mu_reuses,
        d.column_probes * (N - GROUP) as u64
    );
    // No full rebuilds and no commits: probes never commit.
    assert_eq!(d.full_rebuilds, 0);
    assert_eq!(d.coord_commits, 0);
}
