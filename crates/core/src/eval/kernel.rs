//! The shared contention-summation kernel.
//!
//! Floating-point addition is not associative, so an engine that
//! updates a cached competing-rate sum `Cᵢⱼ = Σ_{k≠i} Rᵢₖ·f_kj` with
//! `C += delta` tricks can never be *exactly* equal to a from-scratch
//! re-evaluation. Instead of chasing tolerances, this module pins one
//! canonical association for the sum — a **fixed-shape pairwise
//! reduction** over `P = n.next_power_of_two()` slots, shaped as a
//! complete binary tree — and both paths commit to it:
//!
//! * the from-scratch path ([`pairwise_sum`], used by
//!   `UtilizationEstimator::contention`) folds the tree recursively
//!   over all `P` slots;
//! * the incremental path (`EvalEngine`) folds only the *live* leaves
//!   with [`sparse_pairwise_sum`], in O(live) instead of O(P).
//!
//! The two agree bit for bit. Slots that are gated off (`k == i`,
//! `f_kj ≤ EPS`, zero overlap) or padding (`k ≥ n`) contribute `+0.0`,
//! so a subtree without a live leaf sums to `+0.0`, and every live
//! term is a product of non-negative factors, for which
//! `x + 0.0 == 0.0 + x == x` bitwise. Dropping the dead subtrees
//! therefore leaves exactly the additions between live subtrees, each
//! still `left + right` at the node where the two meet.

use crate::problem::EPS;

/// Pairwise (balanced-binary-tree) sum of `term(0) … term(n-1)`.
///
/// The reduction shape is fixed by `n` alone: terms are padded with
/// `+0.0` up to the next power of two and combined as a complete
/// binary tree, left operand first. This is THE canonical association
/// for competing-rate sums; [`sparse_pairwise_sum`] reproduces it
/// from the live terms alone.
pub fn pairwise_sum(n: usize, term: &mut dyn FnMut(usize) -> f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    fold_range(0, n.next_power_of_two(), n, term)
}

fn fold_range(lo: usize, width: usize, n: usize, term: &mut dyn FnMut(usize) -> f64) -> f64 {
    if lo >= n {
        return 0.0; // padding subtree: all +0.0
    }
    if width == 1 {
        return term(lo);
    }
    let half = width / 2;
    fold_range(lo, half, n, term) + fold_range(lo + half, half, n, term)
}

/// [`pairwise_sum`] over only the live terms: `leaves` yields
/// `(slot, term)` pairs in strictly increasing slot order, and every
/// slot it skips is taken to hold `+0.0`. For non-negative terms the
/// result is bitwise equal to `pairwise_sum` over the zero-filled
/// slots, whatever `n` the slots belong to.
///
/// Two consecutive live slots `a < b` meet at tree level
/// `⌊log₂(a ⊕ b)⌋`. The fold keeps a fixed stack of partial sums, each
/// tagged with the level at which it joins the entry below it; before
/// pushing slot `b`, it folds `below + top` while the top's level is
/// under that of `(a, b)`, then collapses the stack at the end. Levels
/// on the stack strictly decrease upwards, so 65 slots suffice for any
/// `usize` index and nothing allocates.
pub fn sparse_pairwise_sum(leaves: impl IntoIterator<Item = (usize, f64)>) -> f64 {
    let mut vals = [0.0f64; 65];
    let mut levels = [0u32; 65];
    let mut top = 0usize;
    let mut prev = 0usize;
    for (k, v) in leaves {
        let level = if top == 0 {
            0
        } else {
            usize::BITS - 1 - (prev ^ k).leading_zeros()
        };
        while top > 1 && levels[top - 1] < level {
            top -= 1;
            vals[top - 1] += vals[top];
        }
        vals[top] = v;
        levels[top] = level;
        top += 1;
        prev = k;
    }
    while top > 1 {
        top -= 1;
        vals[top - 1] += vals[top];
    }
    if top == 0 {
        0.0
    } else {
        vals[0]
    }
}

/// How workload request rates enter the competing sum of Eq. 2.
///
/// This is the rate-transform parameter that unifies the estimator's
/// former `contention` / `contention_with_duty` twins: both are the
/// same gated sum, differing only in how a workload's average rate is
/// turned into an effective rate.
#[derive(Clone, Copy, Debug)]
pub enum RateTransform<'a> {
    /// Average request rates, as the paper's Eq. 2 (advisor default).
    Average,
    /// Busy-period rates: each workload's average rate is divided by
    /// its duty cycle (fraction of time active), pricing interference
    /// at the intensity it actually occurs (`ablation-contention`).
    BusyPeriod(&'a [f64]),
}

impl RateTransform<'_> {
    /// The effective rate of workload `k` given its average rate.
    #[inline]
    pub fn effective_rate(&self, avg_rate: f64, k: usize) -> f64 {
        match self {
            RateTransform::Average => avg_rate,
            RateTransform::BusyPeriod(duty) => avg_rate / duty[k].max(1e-6),
        }
    }

    /// The denominator-side effective rate of the observing object.
    #[inline]
    pub fn own_rate(&self, own_rate: f64, i: usize) -> f64 {
        match self {
            RateTransform::Average => own_rate,
            RateTransform::BusyPeriod(duty) => own_rate / duty[i].max(1e-6),
        }
    }
}

/// The contention factor `χᵢⱼ` (Eq. 2) for object `i` on a target,
/// over the canonical pairwise association.
///
/// `fractions(k)` is `L_kj`; `rates(k)` is workload `k`'s average
/// total rate; `overlaps(k)` is `Oᵢ[k]`. Terms are associated as
/// `(rateₖ·Oᵢ[k])·f_kj` — the rate-weighted overlap row `Rᵢₖ` times
/// the fraction — which is exactly the product `EvalEngine` forms from
/// its precomputed `Rᵢₖ` invariant.
pub fn contention(
    n: usize,
    i: usize,
    own_rate: f64,
    transform: RateTransform<'_>,
    rates: &dyn Fn(usize) -> f64,
    fractions: &dyn Fn(usize) -> f64,
    overlaps: &dyn Fn(usize) -> f64,
) -> f64 {
    if own_rate <= 0.0 {
        return 0.0;
    }
    let own = transform.own_rate(own_rate, i);
    competing_sum(n, i, transform, rates, fractions, overlaps) / own
}

/// The numerator of `χᵢⱼ` alone — the gated competing-rate sum over
/// the canonical pairwise association. This is exactly the value
/// `EvalEngine` caches in its competing-sum cell `(i, j)`; the
/// analytic gradient path reads it directly (the from-scratch side
/// recomputes it here) so both sides differentiate through
/// bit-identical contention.
pub fn competing_sum(
    n: usize,
    i: usize,
    transform: RateTransform<'_>,
    rates: &dyn Fn(usize) -> f64,
    fractions: &dyn Fn(usize) -> f64,
    overlaps: &dyn Fn(usize) -> f64,
) -> f64 {
    let mut term = |k: usize| {
        if k == i {
            return 0.0;
        }
        let f = fractions(k);
        if f <= EPS {
            return 0.0; // O_ij[k] gate (Figure 7)
        }
        (transform.effective_rate(rates(k), k) * overlaps(k)) * f
    };
    pairwise_sum(n, &mut term)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton_sums() {
        assert_eq!(pairwise_sum(0, &mut |_| 1.0), 0.0);
        assert_eq!(pairwise_sum(1, &mut |_| 2.5), 2.5);
    }

    #[test]
    fn matches_tree_shape_for_non_power_of_two() {
        // n = 5 → P = 8: ((t0+t1)+(t2+t3)) + ((t4+0)+0).
        let t = [1e16, 1.0, -1e16, 1.0, 3.0];
        let got = pairwise_sum(5, &mut |k| t[k]);
        let want = ((t[0] + t[1]) + (t[2] + t[3])) + (t[4] + 0.0);
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn padding_is_exact_for_nonnegative_terms() {
        // Appending gated zero terms must not change the bits.
        let t = [0.1, 0.2, 0.3];
        let padded = pairwise_sum(4, &mut |k| if k < 3 { t[k] } else { 0.0 });
        let plain = pairwise_sum(3, &mut |k| t[k]);
        assert_eq!(padded.to_bits(), plain.to_bits());
    }

    #[test]
    fn sparse_sum_keeps_the_tree_shape() {
        assert_eq!(sparse_pairwise_sum([]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sparse_pairwise_sum([(6, 2.5)]), 2.5);
        // Live slots 0, 2, 3, 4 of n = 5 (slot 1 gated):
        // ((t0 + 0) + (t2 + t3)) + t4.
        let t = [1e16, 0.0, 1.0, 1.0, 3.0];
        let sparse = sparse_pairwise_sum([0, 2, 3, 4].map(|k| (k, t[k])));
        let dense = pairwise_sum(5, &mut |k| t[k]);
        assert_eq!(sparse.to_bits(), dense.to_bits());
        assert_eq!(sparse.to_bits(), (t[0] + (t[2] + t[3]) + t[4]).to_bits());
    }

    #[test]
    fn contention_gates_and_normalizes() {
        let rates = [10.0, 20.0, 30.0];
        let fracs = [1.0, 1.0, 0.0];
        let ov = [0.0, 1.0, 1.0];
        // k=0 is self, k=2 gated by fraction: only k=1 contributes.
        let chi = contention(
            3,
            0,
            10.0,
            RateTransform::Average,
            &|k| rates[k],
            &|k| fracs[k],
            &|k| ov[k],
        );
        assert_eq!(chi, 2.0);
        assert_eq!(
            contention(
                3,
                0,
                0.0,
                RateTransform::Average,
                &|k| rates[k],
                &|k| fracs[k],
                &|k| ov[k],
            ),
            0.0
        );
    }

    #[test]
    fn busy_period_transform_scales_both_sides() {
        let rates = [10.0, 20.0];
        let fracs = [1.0, 1.0];
        let ov = [0.0, 1.0];
        let duty = [0.5, 0.25];
        let chi = contention(
            2,
            0,
            10.0,
            RateTransform::BusyPeriod(&duty),
            &|k| rates[k],
            &|k| fracs[k],
            &|k| ov[k],
        );
        // Competing 20/0.25 = 80; own 10/0.5 = 20 → χ = 4.
        assert!((chi - 4.0).abs() < 1e-12);
    }
}
