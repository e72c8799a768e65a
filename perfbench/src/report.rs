//! What one timed pass measured, and the statistics the result line
//! reports from it.

use wasla::core::Layout;
use wasla::simlib::hash::Fnv64;

/// The outcome of one closed-loop timed pass over a workload.
#[derive(Default)]
pub struct Pass {
    /// Wall time of each request, in request order.
    pub latencies_ms: Vec<f64>,
    /// Units of work the requests completed (advises, tenants,
    /// recommends or daemon ticks).
    pub units: f64,
    /// Operations attempted and failed (an error, a rejection or a
    /// failed output check).
    pub attempted: u64,
    pub failed: u64,
    /// Completed operations, and those carrying degradation notes.
    pub completed: u64,
    pub degraded: u64,
    /// Predicted max target utilization of each final layout.
    pub max_utils: Vec<f64>,
    /// Speedup of each recommendation over SEE.
    pub speedups: Vec<f64>,
    /// MiB migrated per unit of work.
    pub moved_mib: Vec<f64>,
    /// Digest of each request's deterministic outputs, in order.
    pub digests: Vec<u64>,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Pass {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// Digest over every request's outputs: a pass is a fixed set of
    /// requests, so it repeats exactly run to run.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for d in &self.digests {
            h.write_u64(*d);
        }
        h.finish()
    }

    pub fn busy_s(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / 1000.0
    }
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples above it: the
/// value with exactly ten larger samples, and the percentile that value
/// sits at. With ten samples or fewer this is the maximum.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of the positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Checks one layout against the output contract: rows sum to one,
/// the layout fits capacity, and it is regular when regularization was
/// requested. Returns the first violation.
pub fn check_layout(
    what: &str,
    layout: &Layout,
    sizes: &[u64],
    capacities: &[u64],
    regular: bool,
) -> Result<(), String> {
    if !layout.satisfies_integrity() {
        return Err(format!("{what}: a layout row does not sum to 1"));
    }
    if !layout.satisfies_capacity(sizes, capacities) {
        return Err(format!("{what}: the layout exceeds a target's capacity"));
    }
    if regular && !layout.is_regular() {
        return Err(format!(
            "{what}: regularization was requested but the layout is not regular"
        ));
    }
    Ok(())
}

/// Absorbs a layout's exact values into a digest.
pub fn hash_layout(h: &mut Fnv64, layout: &Layout) {
    for row in layout.rows() {
        for &v in row {
            h.write_f64(v);
        }
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;
