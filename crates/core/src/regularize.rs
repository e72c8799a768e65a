//! Regularization of solver layouts (paper §4.3).
//!
//! Systems whose layout mechanism only supports even striping need
//! *regular* layouts. Rather than turning the continuous NLP into a
//! combinatorial one (up to `O(2^{MN})` layouts), the paper
//! post-processes: objects are regularized one at a time in decreasing
//! order of the total load `Σⱼ µᵢⱼ` they impose, so imbalances
//! introduced early can be corrected by later objects.
//!
//! For each object two candidate classes are generated (2M candidates):
//!
//! 1. **Consistent** — even spreads over the top-k targets of the
//!    solver's row, in decreasing-fraction order (ties broken by target
//!    id): the example row (47%, 35%, 18%) yields (100,0,0),
//!    (50,50,0), (33,33,33).
//! 2. **Balancing** — even spreads over the k least-loaded targets
//!    under the current layout (with the object itself removed), which
//!    tend to correct imbalances left by earlier regularizations.
//!
//! Candidates violating capacity or admin constraints are dropped; the
//! survivor minimizing `max_j µⱼ` wins. If every candidate for some
//! object is invalid the algorithm fails — the paper notes manual
//! intervention is then required, which we surface as a typed error.

use crate::eval::{EvalEngine, ObjectiveKind};
use crate::problem::{AdminConstraint, Layout, LayoutProblem, EPS};

/// Regularization failure (paper §4.3's "manual intervention" case).
#[derive(Clone, Debug, PartialEq)]
pub enum RegularizeError {
    /// All 2M candidates for this object violate capacity or admin
    /// constraints.
    DeadEnd {
        /// The object that could not be regularized.
        object: usize,
    },
}

impl std::fmt::Display for RegularizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegularizeError::DeadEnd { object } => write!(
                f,
                "no regular candidate for object {object} satisfies the constraints"
            ),
        }
    }
}

impl std::error::Error for RegularizeError {}

/// Refinement passes after the greedy sweep. Each pass re-places every
/// object against the then-current layout, recovering balance the
/// one-shot greedy order could not; the loop stops early at a fixed
/// point.
const REFINE_PASSES: usize = 3;

/// Regularizes a solver layout under the default min-max objective.
pub fn regularize(problem: &LayoutProblem, solver: &Layout) -> Result<Layout, RegularizeError> {
    regularize_with(problem, solver, ObjectiveKind::MinMax)
}

/// Regularizes a solver layout, scoring candidates by `objective`.
///
/// Candidate scoring runs over an incremental [`EvalEngine`] kept
/// committed at the evolving layout: each candidate row is a
/// [`EvalEngine::probe_row_score`] (only the targets the row actually
/// changes are re-evaluated) and the winner is committed row-wise —
/// bit-identical, under the default objective, to the former
/// write-score-restore loop over `UtilizationEstimator`, minus the
/// O(N·M) re-evaluation per candidate.
pub fn regularize_with(
    problem: &LayoutProblem,
    solver: &Layout,
    objective: ObjectiveKind,
) -> Result<Layout, RegularizeError> {
    let n = problem.n();
    let mut engine = EvalEngine::with_objective(problem, objective);
    engine.set_layout(solver);

    // Decreasing total-load order (§4.3).
    let mut order: Vec<usize> = (0..n).collect();
    let loads: Vec<f64> = (0..n).map(|i| engine.object_load(i)).collect();
    order.sort_by(|&a, &b| {
        loads[b]
            .partial_cmp(&loads[a])
            .expect("loads finite")
            .then(a.cmp(&b))
    });

    let mut current = solver.clone();
    for &i in &order {
        place_best(problem, &mut engine, solver, &mut current, i)?;
    }
    // Refinement: greedy one-shot placement can strand load imbalances;
    // re-placing objects against the finished layout corrects them
    // while keeping every row regular.
    let mut best_score = engine.committed_score();
    for _ in 0..REFINE_PASSES {
        for &i in &order {
            place_best(problem, &mut engine, solver, &mut current, i)?;
        }
        let now_score = engine.committed_score();
        if now_score >= best_score - 1e-12 {
            break;
        }
        best_score = now_score;
    }
    debug_assert!(current.is_regular());
    Ok(current)
}

/// Re-places object `i` with its best valid regular candidate. The
/// engine must be committed at `current` on entry and is again on
/// exit.
fn place_best(
    problem: &LayoutProblem,
    engine: &mut EvalEngine<'_>,
    solver: &Layout,
    current: &mut Layout,
    i: usize,
) -> Result<(), RegularizeError> {
    let m = problem.m();
    let pinned = problem.constraints.iter().find_map(|c| match *c {
        AdminConstraint::PinTo { object, target } if object == i => Some(target),
        _ => None,
    });
    let forbidden: Vec<bool> = (0..m)
        .map(|j| {
            problem.constraints.iter().any(|c| {
                matches!(*c, AdminConstraint::Forbid { object, target }
                    if object == i && target == j)
            })
        })
        .collect();

    // Per-target usage without object i, for the capacity check and
    // capacity-adaptive candidate generation.
    let sizes = &problem.workloads.sizes;
    let mut used_without: Vec<f64> = vec![0.0; m];
    for (k, row) in current.rows().iter().enumerate() {
        if k == i {
            continue;
        }
        for (j, &f) in row.iter().enumerate() {
            used_without[j] += f * sizes[k] as f64;
        }
    }
    let remaining: Vec<f64> = (0..m)
        .map(|j| problem.capacities[j] as f64 * (1.0 + EPS) - used_without[j])
        .collect();

    let candidates = if let Some(t) = pinned {
        let mut row = vec![0.0; m];
        row[t] = 1.0;
        vec![row]
    } else {
        let mut cands = consistent_candidates(solver.row(i), &forbidden, &remaining, sizes[i], m);
        cands.extend(balancing_candidates(
            engine, i, &forbidden, &remaining, sizes[i], m,
        ));
        cands
    };

    let mut best: Option<(f64, Vec<f64>)> = None;
    for cand in candidates {
        // A candidate is acceptable if it does not push any target over
        // capacity *beyond what the other objects already use*: targets
        // overfilled by not-yet-regularized fractional rows must not
        // block this object's placement elsewhere.
        let ok = (0..m).all(|j| {
            let add = cand[j] * sizes[i] as f64;
            add <= 0.0 || used_without[j] + add <= problem.capacities[j] as f64 * (1.0 + EPS)
        });
        if !ok {
            continue;
        }
        let score = engine.probe_row_score(i, &cand);
        if best.as_ref().map_or(true, |(s, _)| score < *s) {
            best = Some((score, cand));
        }
    }
    match best {
        Some((_, row)) => {
            engine.commit_row(i, &row);
            *current.row_mut(i) = row;
            Ok(())
        }
        None => Err(RegularizeError::DeadEnd { object: i }),
    }
}

/// Class-1 candidates: even spreads over the top-k *allowed* targets
/// of the solver row, ordered by decreasing fraction (ties by target
/// id).
fn consistent_candidates(
    row: &[f64],
    forbidden: &[bool],
    remaining: &[f64],
    size: u64,
    m: usize,
) -> Vec<Vec<f64>> {
    let mut order: Vec<usize> = (0..m).filter(|&j| !forbidden[j]).collect();
    order.sort_by(|&a, &b| {
        row[b]
            .partial_cmp(&row[a])
            .expect("fractions finite")
            .then(a.cmp(&b))
    });
    spread_candidates(&order, remaining, size, m)
}

/// Class-2 candidates: even spreads over the k least-loaded allowed
/// targets under the engine's committed layout with object `i`
/// removed (a zero-row probe — nothing is committed).
fn balancing_candidates(
    engine: &mut EvalEngine<'_>,
    i: usize,
    forbidden: &[bool],
    remaining: &[f64],
    size: u64,
    m: usize,
) -> Vec<Vec<f64>> {
    let zero_row = vec![0.0; m];
    let mut loads = vec![0.0; m];
    engine.probe_row(i, &zero_row, &mut loads);
    let mut order: Vec<usize> = (0..m).filter(|&j| !forbidden[j]).collect();
    order.sort_by(|&a, &b| {
        loads[a]
            .partial_cmp(&loads[b])
            .expect("loads finite")
            .then(a.cmp(&b))
    });
    spread_candidates(&order, remaining, size, m)
}

/// Builds the k-target even spreads for k = 1..len over a target order.
///
/// Capacity-adaptive: a target without room for `size / k` bytes is
/// skipped for that k (the next target in the order takes its slot), so
/// a small hot device (e.g. a nearly-full SSD) narrows the spread
/// instead of invalidating it — the paper's plain filter would discard
/// the whole candidate.
fn spread_candidates(order: &[usize], remaining: &[f64], size: u64, m: usize) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    let max_k = order.len();
    for k in 1..=max_k {
        let share = size as f64 / k as f64;
        let chosen: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&j| remaining[j] >= share)
            .take(k)
            .collect();
        if chosen.len() < k {
            continue; // not enough roomy targets for this k
        }
        let mut row = vec![0.0; m];
        for &j in &chosen {
            row[j] = 1.0 / k as f64;
        }
        out.push(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wasla_model::CostModel;
    use wasla_storage::IoKind;
    use wasla_workload::{ObjectKind, WorkloadSet, WorkloadSpec};

    struct Flat;
    impl CostModel for Flat {
        fn request_cost(&self, _: IoKind, _: f64, _: f64, chi: f64) -> f64 {
            0.01 + 0.002 * chi
        }
    }

    fn problem(n: usize, m: usize, sizes: Vec<u64>, caps: Vec<u64>) -> LayoutProblem {
        LayoutProblem {
            workloads: WorkloadSet {
                names: (0..n).map(|i| format!("o{i}")).collect(),
                sizes,
                specs: (0..n)
                    .map(|_| WorkloadSpec {
                        read_size: 8192.0,
                        write_size: 8192.0,
                        read_rate: 10.0,
                        write_rate: 0.0,
                        run_count: 1.0,
                        overlaps: vec![0.5; n],
                    })
                    .collect(),
            },
            kinds: vec![ObjectKind::Table; n],
            capacities: caps,
            target_names: (0..m).map(|j| format!("t{j}")).collect(),
            models: (0..m).map(|_| Arc::new(Flat) as _).collect(),
            stripe_size: 1024.0 * 1024.0,
            constraints: vec![],
        }
    }

    #[test]
    fn consistent_candidates_match_paper_example() {
        // Solver row (47%, 35%, 18%) → (100,0,0), (50,50,0),
        // (33,33,33) in that target order.
        let cands = consistent_candidates(&[0.47, 0.35, 0.18], &[false; 3], &[1e12; 3], 100, 3);
        assert_eq!(cands.len(), 3);
        assert_eq!(cands[0], vec![1.0, 0.0, 0.0]);
        assert_eq!(cands[1], vec![0.5, 0.5, 0.0]);
        for v in &cands[2] {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ties_broken_by_target_id() {
        let cands = consistent_candidates(&[0.5, 0.5, 0.0], &[false; 3], &[1e12; 3], 100, 3);
        assert_eq!(cands[0], vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn regularized_layout_is_regular_and_valid() {
        let p = problem(3, 3, vec![100; 3], vec![1000; 3]);
        let solver = Layout::from_rows(vec![
            vec![0.47, 0.35, 0.18],
            vec![0.1, 0.2, 0.7],
            vec![0.33, 0.33, 0.34],
        ]);
        let reg = regularize(&p, &solver).unwrap();
        assert!(reg.is_regular());
        assert!(reg.is_valid(&p.workloads.sizes, &p.capacities));
    }

    #[test]
    fn already_regular_stays_close() {
        let p = problem(2, 2, vec![100; 2], vec![1000; 2]);
        let solver = Layout::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        let reg = regularize(&p, &solver).unwrap();
        // The isolated layout is optimal here (overlap 0.5, contention
        // costs); regularization must not disturb it.
        assert_eq!(reg.rows()[0], vec![1.0, 0.0]);
        assert_eq!(reg.rows()[1], vec![0.0, 1.0]);
    }

    #[test]
    fn tight_capacity_forces_dead_end() {
        // Objects of 100 bytes but targets of 10: nothing fits.
        let p = problem(1, 2, vec![100], vec![10, 10]);
        let solver = Layout::from_rows(vec![vec![0.5, 0.5]]);
        let err = regularize(&p, &solver).unwrap_err();
        assert_eq!(err, RegularizeError::DeadEnd { object: 0 });
    }

    #[test]
    fn pinned_object_stays_pinned() {
        let mut p = problem(2, 3, vec![100; 2], vec![1000; 3]);
        p.constraints = vec![AdminConstraint::PinTo {
            object: 0,
            target: 2,
        }];
        let solver = Layout::from_rows(vec![vec![0.0, 0.0, 1.0], vec![0.4, 0.4, 0.2]]);
        let reg = regularize(&p, &solver).unwrap();
        assert!(reg.get(0, 2) > 0.999);
        assert!(reg.is_regular());
    }

    #[test]
    fn forbidden_targets_avoided() {
        let mut p = problem(2, 2, vec![100; 2], vec![1000; 2]);
        p.constraints = vec![AdminConstraint::Forbid {
            object: 1,
            target: 0,
        }];
        let solver = Layout::from_rows(vec![vec![0.6, 0.4], vec![0.6, 0.4]]);
        let reg = regularize(&p, &solver).unwrap();
        assert!(reg.get(1, 0) < EPS);
        assert!(reg.is_regular());
    }

    #[test]
    fn balancing_candidates_prefer_idle_targets() {
        // Object 0 already loads target 0 heavily; balancing candidates
        // for object 1 must lead with target 1.
        let p = problem(2, 2, vec![100; 2], vec![1000; 2]);
        let current = Layout::from_rows(vec![vec![1.0, 0.0], vec![0.5, 0.5]]);
        let mut engine = EvalEngine::new(&p);
        engine.set_layout(&current);
        let cands = balancing_candidates(&mut engine, 1, &[false; 2], &[1e12; 2], 100, 2);
        assert_eq!(cands[0], vec![0.0, 1.0]);
    }
}
