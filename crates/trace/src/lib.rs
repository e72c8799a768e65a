//! Rubicon-style trace analysis (paper §5.1).
//!
//! The paper obtains workload descriptions by tracing the operational
//! database's block I/O, isolating each object's requests, and fitting
//! the Rome workload parameters to the observed characteristics using
//! HP's Rubicon tool. This crate is that fitting step for our
//! simulator's traces:
//!
//! * request **rates** — per-object reads/writes divided by the trace
//!   span;
//! * request **sizes** — per-object mean request lengths;
//! * **run count** — the mean number of back-to-back sequential
//!   requests between non-sequential jumps, detected from object
//!   offsets;
//! * **overlap matrix** — time is cut into windows; `Oᵢ[j]` is the
//!   fraction of windows in which `i` is active where `j` is also
//!   active.
//!
//! One fitter turns records into specs: [`ChunkStats`], a per-object
//! fold whose partials over adjacent record ranges merge exactly. Every
//! entry point is an adapter over it — [`fit_workloads`] over a
//! materialized [`Trace`], [`fit_records`] over any record slice (such
//! as the kept prefix of a damaged trace), and
//! [`oplog::fit_oplog_streamed`] / [`oplog::windowed_workloads`] over
//! op-logs. Fixed-size record chunks ([`oplog::DEFAULT_CHUNK`]) fold
//! over [`wasla_simlib::par`] and merge in order, so the fitted set is
//! bit-identical at any `WASLA_THREADS` setting.

use wasla_simlib::par;
use wasla_simlib::SimTime;
use wasla_storage::{BlockTraceRecord, IoKind, Trace};
use wasla_workload::{WorkloadSet, WorkloadSpec};

pub mod oplog;

/// Failure modes of trace fitting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FitError {
    /// The object catalog is inconsistent: `names` and `sizes` disagree
    /// on the object count.
    ShapeMismatch {
        /// Number of object names supplied.
        names: usize,
        /// Number of object sizes supplied.
        sizes: usize,
    },
    /// A trace record names a stream outside the object catalog.
    StreamOutOfRange {
        /// The offending stream id.
        stream: u32,
        /// Number of objects in the catalog.
        objects: usize,
    },
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::ShapeMismatch { names, sizes } => write!(
                f,
                "object catalog mismatch: {names} names but {sizes} sizes"
            ),
            FitError::StreamOutOfRange { stream, objects } => write!(
                f,
                "trace stream {stream} out of range for {objects} objects"
            ),
        }
    }
}

impl std::error::Error for FitError {}

/// Tunables for parameter fitting.
#[derive(Clone, Debug)]
pub struct FitConfig {
    /// Width of the co-activity windows used for the overlap matrix,
    /// in seconds.
    pub window_s: f64,
    /// Maximum forward byte gap for a request to continue a sequential
    /// run (readahead absorbs small skips).
    pub gap_tolerance: u64,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            window_s: 5.0,
            gap_tolerance: 256 * 1024,
        }
    }
}

/// A record the fitter can fold: block-trace records and op-log
/// records both reduce to the submission-time block view.
pub trait FitRecord: Sync {
    /// The block-trace view of this record.
    fn block(&self) -> BlockTraceRecord;
}

impl FitRecord for BlockTraceRecord {
    fn block(&self) -> BlockTraceRecord {
        *self
    }
}

/// Per-object fold state over one contiguous record range.
#[derive(Clone, Debug, Default)]
struct Accum {
    reads: u64,
    writes: u64,
    read_bytes: u64,
    write_bytes: u64,
    runs: u64,
    /// `(offset, len)` of the object's first record in the range, so a
    /// merge can tell whether the range boundary split a sequential run.
    first: Option<(u64, u64)>,
    next_expected: Option<u64>,
    windows: Vec<u32>,
}

impl Accum {
    fn requests(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Does a request at `offset` of `len` bytes continue the sequential
/// run whose next expected offset is `next`? Readahead absorbs forward
/// skips up to the gap tolerance.
fn continues(next: Option<u64>, offset: u64, len: u64, config: &FitConfig) -> bool {
    next.is_some_and(|next| {
        offset >= next.saturating_sub(len) && offset <= next + config.gap_tolerance
    })
}

/// Mergeable per-object fitting statistics over one contiguous record
/// range — the only code that turns records into [`WorkloadSpec`]s.
///
/// Per object it holds the request/byte counters, the sequential-run
/// count, the trailing `next_expected` offset, the range's first
/// request shape and the deduplicated activity-window list; per range,
/// the first and last record times. Merging two adjacent partials is
/// exact:
///
/// * counters add;
/// * the later range's run count is decremented iff its first request
///   continues the earlier range's trailing run;
/// * window lists concatenate with one boundary dedup;
/// * `next_expected` and the span endpoints carry over.
///
/// Every operation is integer arithmetic (or an f64 carried verbatim),
/// so the merged state equals observing both ranges serially *bitwise*,
/// and the fitted set does not depend on where the chunk boundaries
/// fall.
#[derive(Clone, Debug)]
pub struct ChunkStats {
    accums: Vec<Accum>,
    first_time: Option<SimTime>,
    last_time: Option<SimTime>,
}

impl ChunkStats {
    /// Empty statistics for `n_objects` objects.
    pub fn new(n_objects: usize) -> Self {
        ChunkStats {
            accums: vec![Accum::default(); n_objects],
            first_time: None,
            last_time: None,
        }
    }

    /// Folds one record into the statistics. Records must arrive in
    /// time order. Fails on a stream id outside the catalog.
    pub fn observe(&mut self, rec: &BlockTraceRecord, config: &FitConfig) -> Result<(), FitError> {
        let objects = self.accums.len();
        let a = self
            .accums
            .get_mut(rec.stream as usize)
            .ok_or(FitError::StreamOutOfRange {
                stream: rec.stream,
                objects,
            })?;
        a.first.get_or_insert((rec.offset, rec.len));
        match rec.kind {
            IoKind::Read => {
                a.reads += 1;
                a.read_bytes += rec.len;
            }
            IoKind::Write => {
                a.writes += 1;
                a.write_bytes += rec.len;
            }
        }
        if !continues(a.next_expected, rec.offset, rec.len, config) {
            a.runs += 1;
        }
        a.next_expected = Some(rec.offset + rec.len);
        let w = (rec.time.as_secs() / config.window_s) as u32;
        if a.windows.last() != Some(&w) {
            a.windows.push(w);
        }
        self.first_time.get_or_insert(rec.time);
        self.last_time = Some(rec.time);
        Ok(())
    }

    /// Serially folds `records` into fresh statistics for `n_objects`
    /// objects.
    fn of<R: FitRecord>(
        records: &[R],
        n_objects: usize,
        config: &FitConfig,
    ) -> Result<Self, FitError> {
        let mut stats = ChunkStats::new(n_objects);
        for rec in records {
            stats.observe(&rec.block(), config)?;
        }
        Ok(stats)
    }

    /// Merges the statistics of the *immediately following* record
    /// range into `self`. Exact: the result equals observing both
    /// ranges serially.
    pub fn merge(&mut self, later: &ChunkStats, config: &FitConfig) {
        for (a, b) in self.accums.iter_mut().zip(&later.accums) {
            if b.requests() == 0 {
                continue;
            }
            if a.requests() == 0 {
                *a = b.clone();
                continue;
            }
            // The later range counted its first request as a run start
            // (its local `next_expected` was None). Undo that iff the
            // request actually continues our trailing run.
            let joined = b
                .first
                .is_some_and(|(offset, len)| continues(a.next_expected, offset, len, config));
            a.reads += b.reads;
            a.writes += b.writes;
            a.read_bytes += b.read_bytes;
            a.write_bytes += b.write_bytes;
            a.runs += b.runs - u64::from(joined);
            a.next_expected = b.next_expected;
            let skip_dup = a.windows.last() == b.windows.first();
            a.windows
                .extend(b.windows.iter().skip(usize::from(skip_dup)).copied());
        }
        if self.first_time.is_none() {
            self.first_time = later.first_time;
        }
        if later.last_time.is_some() {
            self.last_time = later.last_time;
        }
    }

    /// Builds the fitted workload set from the accumulated statistics.
    /// Spec construction fans over [`par`]; objects with no observed
    /// requests get an idle spec.
    pub fn finish(&self, names: &[String], sizes: &[u64]) -> Result<WorkloadSet, FitError> {
        if names.len() != sizes.len() || names.len() != self.accums.len() {
            return Err(FitError::ShapeMismatch {
                names: names.len(),
                sizes: sizes.len(),
            });
        }
        let span = match (self.first_time, self.last_time) {
            (Some(f), Some(l)) => (l - f).as_secs(),
            _ => 0.0,
        }
        .max(1e-9);
        let object_ids: Vec<usize> = (0..self.accums.len()).collect();
        let specs = par::par_map(&object_ids, |&i| build_spec(&self.accums, i, span));
        Ok(WorkloadSet {
            names: names.to_vec(),
            sizes: sizes.to_vec(),
            specs,
        })
    }
}

/// The fold behind every fitting entry point: fixed-size chunks of
/// `records` ([`oplog::DEFAULT_CHUNK`]) are observed in parallel and
/// merged in order. Chunk boundaries depend only on the record count,
/// never on the thread count, and the first out-of-range stream id in
/// record order fails the fold.
fn fold<R: FitRecord>(
    records: &[R],
    n_objects: usize,
    config: &FitConfig,
) -> Result<ChunkStats, FitError> {
    let chunks: Vec<&[R]> = records.chunks(oplog::DEFAULT_CHUNK).collect();
    let mut partials =
        par::par_map(&chunks, |chunk| ChunkStats::of(chunk, n_objects, config)).into_iter();
    let mut merged = match partials.next() {
        Some(first) => first?,
        None => ChunkStats::new(n_objects),
    };
    for partial in partials {
        merged.merge(&partial?, config);
    }
    Ok(merged)
}

/// Rejects an object catalog whose names and sizes disagree on the
/// object count.
fn check_shape(names: &[String], sizes: &[u64]) -> Result<(), FitError> {
    if names.len() != sizes.len() {
        return Err(FitError::ShapeMismatch {
            names: names.len(),
            sizes: sizes.len(),
        });
    }
    Ok(())
}

/// Fits Rome workload descriptions from records in time order.
///
/// `names` and `sizes` describe the objects; the records' stream ids
/// index into them. Objects with no requests get an idle spec. Rates
/// are normalized over the records' own span (first to last), so
/// fitting a prefix is exactly fitting the shorter trace.
pub fn fit_records<R: FitRecord>(
    records: &[R],
    names: &[String],
    sizes: &[u64],
    config: &FitConfig,
) -> Result<WorkloadSet, FitError> {
    check_shape(names, sizes)?;
    fold(records, names.len(), config)?.finish(names, sizes)
}

/// Fits Rome workload descriptions from a block trace: [`fit_records`]
/// over the trace's records.
pub fn fit_workloads(
    trace: &Trace,
    names: &[String],
    sizes: &[u64],
    config: &FitConfig,
) -> Result<WorkloadSet, FitError> {
    fit_records(trace.records(), names, sizes, config)
}

/// What a salvaging ingest kept: how much of a damaged record stream
/// was fitted and how much was discarded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Records in the valid prefix that was fitted.
    pub kept: usize,
    /// Damaged-tail records that were discarded.
    pub dropped: usize,
}

impl SalvageReport {
    /// True when anything was discarded.
    pub fn degraded(&self) -> bool {
        self.dropped > 0
    }
}

fn build_spec(accums: &[Accum], i: usize, span: f64) -> WorkloadSpec {
    let n = accums.len();
    let a = &accums[i];
    if a.requests() == 0 {
        return WorkloadSpec::idle(n);
    }
    let read_size = if a.reads > 0 {
        a.read_bytes as f64 / a.reads as f64
    } else {
        8192.0
    };
    let write_size = if a.writes > 0 {
        a.write_bytes as f64 / a.writes as f64
    } else {
        8192.0
    };
    let run_count = if a.runs > 0 {
        (a.requests() as f64 / a.runs as f64).max(1.0)
    } else {
        1.0
    };
    let mut overlaps = vec![0.0; n];
    for (j, b) in accums.iter().enumerate() {
        if i == j || a.windows.is_empty() {
            continue;
        }
        overlaps[j] = intersect_sorted(&a.windows, &b.windows) as f64 / a.windows.len() as f64;
    }
    WorkloadSpec {
        read_size,
        write_size,
        read_rate: a.reads as f64 / span,
        write_rate: a.writes as f64 / span,
        run_count,
        overlaps,
    }
}

/// Fits per-object duty cycles: the fraction of the trace span during
/// which each object was active (had at least one request in the
/// window). Rome's full workload language models ON/OFF burstiness;
/// the duty cycle is its first moment, and dividing average rates by
/// it recovers busy-period rates (used by the busy-rate contention
/// variant in `wasla-core`).
pub fn fit_duty_cycles(
    trace: &Trace,
    n_objects: usize,
    window_s: f64,
) -> Result<Vec<f64>, FitError> {
    let span = trace.span().as_secs().max(window_s);
    let total_windows = (span / window_s).ceil().max(1.0);
    let mut last_window: Vec<Option<u32>> = vec![None; n_objects];
    let mut active = vec![0u32; n_objects];
    for rec in trace.records() {
        let i = rec.stream as usize;
        if i >= n_objects {
            return Err(FitError::StreamOutOfRange {
                stream: rec.stream,
                objects: n_objects,
            });
        }
        let w = (rec.time.as_secs() / window_s) as u32;
        if last_window[i] != Some(w) {
            last_window[i] = Some(w);
            active[i] += 1;
        }
    }
    Ok(active
        .into_iter()
        .map(|a| {
            (a as f64 / total_windows)
                .clamp(0.0, 1.0)
                .max(if a > 0 { 1e-6 } else { 0.0 })
        })
        .collect())
}

/// Size of the intersection of two sorted, deduplicated slices.
fn intersect_sorted(a: &[u32], b: &[u32]) -> usize {
    let mut count = 0;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use wasla_simlib::SimTime;

    fn rec(t: f64, stream: u32, kind: IoKind, offset: u64, len: u64) -> BlockTraceRecord {
        BlockTraceRecord {
            time: SimTime::from_secs(t),
            stream,
            kind,
            offset,
            len,
        }
    }

    fn two_obj_names() -> (Vec<String>, Vec<u64>) {
        (vec!["A".into(), "B".into()], vec![1 << 30, 1 << 30])
    }

    #[test]
    fn rates_and_sizes_fit() {
        let mut trace = Trace::new();
        // Object 0: 10 reads of 8 KiB over 10 seconds.
        for k in 0..10 {
            trace.push(rec(k as f64, 0, IoKind::Read, k * 1_000_000, 8192));
        }
        // Span is 9 s (first to last record).
        let (names, sizes) = two_obj_names();
        let set = fit_workloads(&trace, &names, &sizes, &FitConfig::default()).unwrap();
        let s = &set.specs[0];
        assert!((s.read_rate - 10.0 / 9.0).abs() < 1e-9);
        assert_eq!(s.read_size, 8192.0);
        assert_eq!(s.write_rate, 0.0);
        // Idle object gets the idle spec.
        assert_eq!(set.specs[1].total_rate(), 0.0);
        set.validate().unwrap();
    }

    #[test]
    fn sequential_run_detection() {
        let mut trace = Trace::new();
        // Two runs of 5 sequential requests each, separated by a jump.
        let mut off = 0u64;
        for k in 0..10u64 {
            if k == 5 {
                off = 500_000_000;
            }
            trace.push(rec(k as f64 * 0.01, 0, IoKind::Read, off, 65536));
            off += 65536;
        }
        let (names, sizes) = two_obj_names();
        let set = fit_workloads(&trace, &names, &sizes, &FitConfig::default()).unwrap();
        assert!((set.specs[0].run_count - 5.0).abs() < 1e-9);
    }

    #[test]
    fn random_workload_run_count_one() {
        let mut trace = Trace::new();
        for k in 0..20u64 {
            trace.push(rec(
                k as f64 * 0.01,
                0,
                IoKind::Read,
                (k * 97_777_777) % (1 << 29),
                8192,
            ));
        }
        let (names, sizes) = two_obj_names();
        let set = fit_workloads(&trace, &names, &sizes, &FitConfig::default()).unwrap();
        assert!(
            set.specs[0].run_count < 1.5,
            "run {}",
            set.specs[0].run_count
        );
    }

    #[test]
    fn overlap_matrix_reflects_co_activity() {
        let config = FitConfig {
            window_s: 1.0,
            ..FitConfig::default()
        };
        let mut trace = Trace::new();
        // Object 0 active in seconds 0-9; object 1 active only 0-4.
        // Mid-window timestamps avoid float truncation at boundaries.
        for k in 0..10u64 {
            trace.push(rec(k as f64 + 0.4, 0, IoKind::Read, k * 8192, 8192));
            if k < 5 {
                trace.push(rec(k as f64 + 0.5, 1, IoKind::Read, k * 8192, 8192));
            }
        }
        let (names, sizes) = two_obj_names();
        let set = fit_workloads(&trace, &names, &sizes, &config).unwrap();
        // O_0[1] = 5/10; O_1[0] = 5/5.
        assert!((set.specs[0].overlaps[1] - 0.5).abs() < 1e-9);
        assert!((set.specs[1].overlaps[0] - 1.0).abs() < 1e-9);
        assert_eq!(set.specs[0].overlaps[0], 0.0);
    }

    #[test]
    fn mixed_read_write_sizes() {
        let mut trace = Trace::new();
        trace.push(rec(0.0, 0, IoKind::Read, 0, 4096));
        trace.push(rec(1.0, 0, IoKind::Write, 1 << 20, 16384));
        trace.push(rec(2.0, 0, IoKind::Write, 2 << 20, 16384));
        let (names, sizes) = two_obj_names();
        let set = fit_workloads(&trace, &names, &sizes, &FitConfig::default()).unwrap();
        let s = &set.specs[0];
        assert_eq!(s.read_size, 4096.0);
        assert_eq!(s.write_size, 16384.0);
        assert!((s.write_rate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_all_idle() {
        let trace = Trace::new();
        let (names, sizes) = two_obj_names();
        let set = fit_workloads(&trace, &names, &sizes, &FitConfig::default()).unwrap();
        assert!(set.specs.iter().all(|s| s.total_rate() == 0.0));
        set.validate().unwrap();
    }

    #[test]
    fn duty_cycles_measure_active_fractions() {
        let mut trace = Trace::new();
        // Object 0 active in every second 0..10; object 1 only 0..5;
        // object 2 never.
        for k in 0..10u64 {
            trace.push(rec(k as f64 + 0.4, 0, IoKind::Read, k * 8192, 8192));
            if k < 5 {
                trace.push(rec(k as f64 + 0.5, 1, IoKind::Read, k * 8192, 8192));
            }
        }
        let duty = fit_duty_cycles(&trace, 3, 1.0).unwrap();
        assert!(duty[0] > 0.9, "duty0 {}", duty[0]);
        assert!((duty[1] - 0.5).abs() < 0.1, "duty1 {}", duty[1]);
        assert_eq!(duty[2], 0.0);
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let trace = Trace::new();
        let err = fit_workloads(
            &trace,
            &["a".into(), "b".into()],
            &[1 << 30],
            &FitConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, FitError::ShapeMismatch { names: 2, sizes: 1 });
        assert!(err.to_string().contains("2 names but 1 sizes"));
    }

    #[test]
    fn out_of_range_stream_is_a_typed_error() {
        let mut trace = Trace::new();
        trace.push(rec(0.0, 7, IoKind::Read, 0, 8192));
        let (names, sizes) = two_obj_names();
        let err = fit_workloads(&trace, &names, &sizes, &FitConfig::default()).unwrap_err();
        assert_eq!(
            err,
            FitError::StreamOutOfRange {
                stream: 7,
                objects: 2
            }
        );
        let err2 = fit_duty_cycles(&trace, 2, 1.0).unwrap_err();
        assert_eq!(err, err2);
    }

    #[test]
    fn parallel_fit_matches_serial() {
        // Many interleaved streams over several fold chunks: the
        // chunked parallel fit must reproduce the independent serial
        // per-object reference fitter bit for bit.
        let mut trace = Trace::new();
        for k in 0..(2 * oplog::DEFAULT_CHUNK as u64 + 400) {
            trace.push(rec(
                k as f64 * 0.05,
                (k % 2) as u32,
                if k % 3 == 0 {
                    IoKind::Write
                } else {
                    IoKind::Read
                },
                if k % 7 == 0 {
                    (k * 123_457) % (1 << 28)
                } else {
                    k * 16384
                },
                4096 + (k % 4) * 4096,
            ));
        }
        let (names, sizes) = two_obj_names();
        let config = FitConfig::default();
        let fitted = fit_workloads(&trace, &names, &sizes, &config).unwrap();
        let reference = reference::reference_fit(
            trace.records(),
            &names,
            &sizes,
            config.window_s,
            config.gap_tolerance,
        );
        use wasla_simlib::json::to_string;
        assert_eq!(to_string(&fitted), to_string(&reference));
        fitted.validate().unwrap();
    }

    #[test]
    fn intersect_sorted_basics() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[3, 4, 5]), 2);
        assert_eq!(intersect_sorted(&[], &[1]), 0);
        assert_eq!(intersect_sorted(&[2], &[2]), 1);
        assert_eq!(intersect_sorted(&[1, 2], &[3, 4]), 0);
    }
}
