//! Streaming op-log capture/replay ingestion.
//!
//! The advisor is driven entirely by traces, but a production-length
//! capture should not have to be materialized as a [`Trace`] before it
//! is fitted. This module adds a compact line-oriented *op-log* format,
//! a chunked reader, and op-log adapters over the crate's one fitter
//! (the mergeable [`ChunkStats`] fold): [`fit_oplog_streamed`] fits a
//! whole log and [`windowed_workloads`] fits pane-aligned sliding
//! windows of it. Both fold the log's own records, never a materialized
//! copy, and come out bit-identical at any `WASLA_THREADS` setting.
//!
//! # Record format (TSV, one op per line)
//!
//! ```text
//! #wasla-oplog v1
//! R<TAB>stream<TAB>offset<TAB>len<TAB>issue<TAB>complete
//! W<TAB>stream<TAB>offset<TAB>len<TAB>issue<TAB>complete
//! ```
//!
//! `R`/`W` is the op direction, `stream` the object id, `offset`/`len`
//! the object-relative byte range, and `issue`/`complete` the
//! submission and completion timestamps in seconds. Timestamps are
//! serialized with [`json::format_f64`] (shortest round-trip decimal),
//! so write → read → write is byte-identical. Records appear in issue
//! order; `complete ≥ issue` per record.

use crate::{check_shape, fit_records, ChunkStats, FitConfig, FitError, FitRecord};
use wasla_simlib::impl_json_struct;
use wasla_simlib::json;
use wasla_simlib::par;
use wasla_simlib::SimTime;
use wasla_storage::trace::content_hash;
use wasla_storage::{BlockTraceRecord, IoKind, Trace};
use wasla_workload::WorkloadSet;

/// First line of every op-log file.
pub const FORMAT_HEADER: &str = "#wasla-oplog v1";

/// Records per chunk for the chunked reader and the fitter's fold.
/// Chunk boundaries depend only on this constant — never on the thread
/// count — so the streamed result is reproducible at any
/// `WASLA_THREADS`.
pub const DEFAULT_CHUNK: usize = 4096;

/// Longest well-formed line (a full record is ≈100 bytes); anything
/// longer is corruption and is rejected before field parsing.
pub const MAX_LINE_BYTES: usize = 160;

/// One captured operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpRecord {
    /// Read or write.
    pub kind: IoKind,
    /// Stream (database object) identifier.
    pub stream: u32,
    /// Offset within the object, in bytes.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Submission time.
    pub issue: SimTime,
    /// Completion time (≥ `issue`).
    pub complete: SimTime,
}

impl FitRecord for OpRecord {
    /// The trace-record view of this op (the fit consumes submission
    /// times only).
    fn block(&self) -> BlockTraceRecord {
        BlockTraceRecord {
            time: self.issue,
            stream: self.stream,
            kind: self.kind,
            offset: self.offset,
            len: self.len,
        }
    }
}

/// A captured op-log: records in issue order.
#[derive(Clone, Debug, Default)]
pub struct OpLog {
    records: Vec<OpRecord>,
}

/// Typed op-log reader failures. Line numbers are 1-based and count
/// the header line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpLogError {
    /// The file does not start with [`FORMAT_HEADER`].
    MissingHeader,
    /// A record line has the wrong number of tab-separated fields.
    Truncated {
        /// Offending line.
        line: usize,
        /// Fields found (6 expected).
        fields: usize,
    },
    /// A field failed to parse (or holds a non-finite/negative time).
    BadField {
        /// Offending line.
        line: usize,
        /// Name of the field that failed.
        field: &'static str,
    },
    /// The op column is neither `R` nor `W`.
    UnknownOp {
        /// Offending line.
        line: usize,
    },
    /// Issue times went backwards, or a completion precedes its issue.
    NonMonotone {
        /// Offending line.
        line: usize,
    },
    /// A line exceeds [`MAX_LINE_BYTES`].
    Overlong {
        /// Offending line.
        line: usize,
        /// Observed byte length.
        len: usize,
    },
}

impl std::fmt::Display for OpLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpLogError::MissingHeader => {
                write!(f, "op-log missing `{FORMAT_HEADER}` header")
            }
            OpLogError::Truncated { line, fields } => {
                write!(f, "op-log line {line}: {fields} fields, expected 6")
            }
            OpLogError::BadField { line, field } => {
                write!(f, "op-log line {line}: unparsable {field} field")
            }
            OpLogError::UnknownOp { line } => {
                write!(f, "op-log line {line}: op is neither R nor W")
            }
            OpLogError::NonMonotone { line } => {
                write!(f, "op-log line {line}: timestamps go backwards")
            }
            OpLogError::Overlong { line, len } => {
                write!(
                    f,
                    "op-log line {line}: {len} bytes exceeds the {MAX_LINE_BYTES}-byte limit"
                )
            }
        }
    }
}

impl std::error::Error for OpLogError {}

/// What the lossy reader salvaged from a damaged op-log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpLogSalvage {
    /// Records in the valid prefix that was kept.
    pub kept: usize,
    /// Record lines discarded from the first damaged line onward.
    pub dropped: usize,
    /// The error that ended the valid prefix (None when clean).
    pub first_error: Option<OpLogError>,
}

impl OpLogSalvage {
    /// True when anything was discarded.
    pub fn degraded(&self) -> bool {
        self.dropped > 0
    }
}

impl OpLog {
    /// An empty log.
    pub fn new() -> Self {
        OpLog {
            records: Vec::new(),
        }
    }

    /// Appends a record. Records must be appended in non-decreasing
    /// issue order (the capture hook guarantees this).
    pub fn push(&mut self, rec: OpRecord) {
        debug_assert!(
            self.records.last().map_or(true, |l| l.issue <= rec.issue),
            "op-log records out of issue order"
        );
        self.records.push(rec);
    }

    /// Stamps the completion time of record `idx` (no-op if out of
    /// range — the capture hook owns the indices).
    pub fn set_complete(&mut self, idx: usize, t: SimTime) {
        if let Some(rec) = self.records.get_mut(idx) {
            rec.complete = t;
        }
    }

    /// All records in issue order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes the log to the TSV format. Reading the output back
    /// with [`OpLog::parse_tsv`] and re-serializing is byte-identical.
    pub fn to_tsv(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 48 + FORMAT_HEADER.len() + 1);
        out.push_str(FORMAT_HEADER);
        out.push('\n');
        for rec in &self.records {
            out.push(match rec.kind {
                IoKind::Read => 'R',
                IoKind::Write => 'W',
            });
            out.push('\t');
            out.push_str(&rec.stream.to_string());
            out.push('\t');
            out.push_str(&rec.offset.to_string());
            out.push('\t');
            out.push_str(&rec.len.to_string());
            out.push('\t');
            out.push_str(&json::format_f64(rec.issue.as_secs()));
            out.push('\t');
            out.push_str(&json::format_f64(rec.complete.as_secs()));
            out.push('\n');
        }
        out
    }

    /// Materializes the trace-equivalent of this log (issue times
    /// become trace timestamps).
    pub fn to_trace(&self) -> Trace {
        let mut trace = Trace::new();
        for rec in &self.records {
            trace.push(rec.block());
        }
        trace
    }

    /// Content hash of [`OpLog::to_trace`]'s result, computed without
    /// materializing the trace. Byte-for-byte the same key
    /// [`Trace::content_hash`] would produce, so a fit cached from a
    /// materialized trace serves the streamed path and vice versa.
    pub fn trace_content_hash(&self) -> u64 {
        self.trace_content_hash_damaged(self.records.len())
    }

    /// [`OpLog::trace_content_hash`] with every record past the first
    /// `keep` rewritten to stream `u32::MAX` — byte-for-byte what
    /// [`Trace::content_hash_damaged`] produces on the materialized
    /// trace, so a salvage cached from either representation serves
    /// both.
    pub fn trace_content_hash_damaged(&self, keep: usize) -> u64 {
        content_hash(self.records.iter().map(FitRecord::block), keep)
    }

    /// Issue-time span from first to last record.
    pub fn span(&self) -> SimTime {
        match (self.records.first(), self.records.last()) {
            (Some(f), Some(l)) => l.issue - f.issue,
            _ => SimTime::ZERO,
        }
    }

    /// Strict chunked reader: parses a TSV op-log, fanning record
    /// chunks over [`par`]. Chunk boundaries are fixed by
    /// [`DEFAULT_CHUNK`], so the result (and any error) is independent
    /// of the thread count.
    pub fn parse_tsv(text: &str) -> Result<OpLog, OpLogError> {
        let (log, salvage) = Self::parse_tsv_lossy(text)?;
        match salvage.first_error {
            Some(err) => Err(err),
            None => Ok(log),
        }
    }

    /// Lossy chunked reader: salvages the longest valid record prefix
    /// of a damaged op-log and reports what was dropped and why.
    ///
    /// A clean log parses fully with a zero-drop salvage. A log whose
    /// *first* record line is already damaged (or whose header is
    /// missing) has no salvageable prefix, so the typed error
    /// propagates.
    pub fn parse_tsv_lossy(text: &str) -> Result<(OpLog, OpLogSalvage), OpLogError> {
        let mut lines = text.lines();
        match lines.next() {
            Some(header) if header == FORMAT_HEADER => {}
            _ => return Err(OpLogError::MissingHeader),
        }
        let body: Vec<&str> = lines.collect();

        // Fan fixed-size line chunks over the pool. Each chunk parses
        // up to its first bad line; reassembly below stitches prefixes
        // back together in order.
        let chunks: Vec<(usize, &[&str])> = body
            .chunks(DEFAULT_CHUNK)
            .enumerate()
            .map(|(c, chunk)| (c * DEFAULT_CHUNK, chunk))
            .collect();
        let parsed: Vec<(Vec<OpRecord>, Option<OpLogError>)> =
            par::par_map(&chunks, |&(base, chunk)| parse_chunk(base, chunk));

        let mut log = OpLog::new();
        let mut first_error = None;
        'outer: for (records, err) in parsed {
            for rec in records {
                // Cross-chunk (and cross-record) monotonicity: issue
                // times never go backwards. Intra-record ordering was
                // already checked during field parsing.
                if log.records.last().map_or(false, |l| rec.issue < l.issue) {
                    first_error = Some(OpLogError::NonMonotone {
                        // +2: 1-based lines and the header line.
                        line: log.records.len() + 2,
                    });
                    break 'outer;
                }
                log.records.push(rec);
            }
            if let Some(err) = err {
                first_error = Some(err);
                break;
            }
        }

        let kept = log.records.len();
        if kept == 0 {
            if let Some(err) = first_error {
                // No salvageable prefix: keep the typed error strict.
                return Err(err);
            }
        }
        Ok((
            log,
            OpLogSalvage {
                kept,
                dropped: body.len() - kept,
                first_error,
            },
        ))
    }
}

/// Parses one chunk of record lines, stopping at the first malformed
/// line. `base` is the chunk's 0-based offset into the record body.
fn parse_chunk(base: usize, chunk: &[&str]) -> (Vec<OpRecord>, Option<OpLogError>) {
    let mut records = Vec::with_capacity(chunk.len());
    let mut prev_issue: Option<SimTime> = None;
    for (k, raw) in chunk.iter().enumerate() {
        // 1-based line number counting the header line.
        let line = base + k + 2;
        match parse_line(line, raw) {
            Ok(rec) => {
                if prev_issue.map_or(false, |p| rec.issue < p) {
                    return (records, Some(OpLogError::NonMonotone { line }));
                }
                prev_issue = Some(rec.issue);
                records.push(rec);
            }
            Err(err) => return (records, Some(err)),
        }
    }
    (records, None)
}

fn parse_line(line: usize, raw: &str) -> Result<OpRecord, OpLogError> {
    if raw.len() > MAX_LINE_BYTES {
        return Err(OpLogError::Overlong {
            line,
            len: raw.len(),
        });
    }
    let mut fields = [""; 6];
    let mut count = 0;
    for part in raw.split('\t') {
        if count < 6 {
            fields[count] = part;
        }
        count += 1;
    }
    if count != 6 {
        return Err(OpLogError::Truncated {
            line,
            fields: count,
        });
    }
    let kind = match fields[0] {
        "R" => IoKind::Read,
        "W" => IoKind::Write,
        _ => return Err(OpLogError::UnknownOp { line }),
    };
    let stream: u32 = fields[1].parse().map_err(|_| OpLogError::BadField {
        line,
        field: "stream",
    })?;
    let offset: u64 = fields[2].parse().map_err(|_| OpLogError::BadField {
        line,
        field: "offset",
    })?;
    let len: u64 = fields[3]
        .parse()
        .map_err(|_| OpLogError::BadField { line, field: "len" })?;
    let issue = parse_time(line, "issue", fields[4])?;
    let complete = parse_time(line, "complete", fields[5])?;
    if complete < issue {
        return Err(OpLogError::NonMonotone { line });
    }
    Ok(OpRecord {
        kind,
        stream,
        offset,
        len,
        issue,
        complete,
    })
}

fn parse_time(line: usize, field: &'static str, raw: &str) -> Result<SimTime, OpLogError> {
    let secs: f64 = raw
        .parse()
        .map_err(|_| OpLogError::BadField { line, field })?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(OpLogError::BadField { line, field });
    }
    Ok(SimTime::from_secs(secs))
}

/// Streamed ingest: fits Rome workload descriptions directly from an
/// op-log, folding its records in fixed [`DEFAULT_CHUNK`]-record chunks
/// without materializing the equivalent [`Trace`]. The same fold as
/// [`crate::fit_workloads`], so the fit equals fitting
/// [`OpLog::to_trace`] byte for byte, at any `WASLA_THREADS` setting.
pub fn fit_oplog_streamed(
    log: &OpLog,
    names: &[String],
    sizes: &[u64],
    config: &FitConfig,
) -> Result<WorkloadSet, FitError> {
    fit_records(log.records(), names, sizes, config)
}

/// Sliding-window configuration for control-loop ingestion: the
/// stream is cut into fixed *panes* of `pane_s` seconds, and every
/// pane boundary (a controller tick) sees the statistics of the last
/// `panes_per_window` panes merged into one window.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowPlan {
    /// Pane length in seconds — the controller's tick period.
    pub pane_s: f64,
    /// Panes per sliding window (≥ 1). One pane means tumbling
    /// windows; more smooths the snapshot over recent history.
    pub panes_per_window: usize,
}

impl_json_struct!(WindowPlan {
    pane_s,
    panes_per_window
});

impl Default for WindowPlan {
    fn default() -> Self {
        WindowPlan {
            pane_s: 10.0,
            panes_per_window: 3,
        }
    }
}

/// One per-tick workload snapshot produced by [`windowed_workloads`].
#[derive(Clone, Debug)]
pub struct WindowSnapshot {
    /// The tick index — the window's last pane.
    pub tick: u64,
    /// Window start (inclusive; clamped to the stream origin).
    pub start: SimTime,
    /// Window end (exclusive): `(tick + 1) · pane_s`.
    pub end: SimTime,
    /// Records observed inside the window.
    pub records: u64,
    /// The fitted per-object workload descriptions for the window.
    /// Rates are normalized over the window's *observed* span (first
    /// to last record), exactly like the batch fit; objects silent in
    /// the window come back as idle specs.
    pub workloads: WorkloadSet,
}

/// Slices an op-log into pane-aligned sliding windows and fits a
/// [`WorkloadSet`] snapshot per tick: [`windowed_records`] over the
/// log's records.
pub fn windowed_workloads(
    log: &OpLog,
    names: &[String],
    sizes: &[u64],
    config: &FitConfig,
    plan: &WindowPlan,
) -> Result<Vec<WindowSnapshot>, FitError> {
    windowed_records(log.records(), names, sizes, config, plan)
}

/// Slices op records (in issue order) into pane-aligned sliding windows
/// and fits a [`WorkloadSet`] snapshot per tick with the crate's
/// [`ChunkStats`] fold: each pane is folded once (panes fan over
/// [`par`]), and a tick's window is the in-order merge of its panes —
/// identical to observing the window's records serially.
///
/// Determinism contract: pane boundaries depend only on record issue
/// times and `plan.pane_s` — never on the thread count or on how the
/// stream was chunked on arrival — so the snapshot sequence is
/// byte-identical at any `WASLA_THREADS` setting.
pub fn windowed_records(
    records: &[OpRecord],
    names: &[String],
    sizes: &[u64],
    config: &FitConfig,
    plan: &WindowPlan,
) -> Result<Vec<WindowSnapshot>, FitError> {
    check_shape(names, sizes)?;
    if records.is_empty() {
        return Ok(Vec::new());
    }
    let n = names.len();
    let pane_s = plan.pane_s.max(1e-9);
    let width = plan.panes_per_window.max(1) as u64;
    let pane_of = |t: SimTime| (t.as_secs() / pane_s) as u64;
    let last_pane = pane_of(records[records.len() - 1].issue);

    // Contiguous record range per pane (records arrive in issue order).
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(last_pane as usize + 1);
    let mut cursor = 0usize;
    for pane in 0..=last_pane {
        let start = cursor;
        while cursor < records.len() && pane_of(records[cursor].issue) == pane {
            cursor += 1;
        }
        ranges.push((start, cursor));
    }

    let panes = par::par_map(&ranges, |&(start, end)| {
        ChunkStats::of(&records[start..end], n, config)
    });
    let mut pane_stats = Vec::with_capacity(panes.len());
    for pane in panes {
        pane_stats.push(pane?);
    }

    let mut snapshots = Vec::with_capacity(pane_stats.len());
    for tick in 0..=last_pane {
        let first_pane = (tick + 1).saturating_sub(width);
        let mut merged = ChunkStats::new(n);
        let mut in_window = 0u64;
        for pane in first_pane..=tick {
            merged.merge(&pane_stats[pane as usize], config);
            let (start, end) = ranges[pane as usize];
            in_window += (end - start) as u64;
        }
        snapshots.push(WindowSnapshot {
            tick,
            start: SimTime::from_secs(first_pane as f64 * pane_s),
            end: SimTime::from_secs((tick + 1) as f64 * pane_s),
            records: in_window,
            workloads: merged.finish(names, sizes)?,
        });
    }
    Ok(snapshots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_fit;
    use wasla_simlib::json::to_string;

    fn rec(t: f64, stream: u32, kind: IoKind, offset: u64, len: u64) -> OpRecord {
        OpRecord {
            kind,
            stream,
            offset,
            len,
            issue: SimTime::from_secs(t),
            complete: SimTime::from_secs(t + 0.002),
        }
    }

    fn sample_log(n: u64) -> OpLog {
        let mut log = OpLog::new();
        for k in 0..n {
            let stream = (k % 3) as u32;
            let kind = if k % 5 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            };
            // Stream 0 is sequential; the others jump around.
            let offset = if stream == 0 {
                k * 65536
            } else {
                (k * 97_777_777) % (1 << 29)
            };
            log.push(rec(
                k as f64 * 0.013,
                stream,
                kind,
                offset,
                8192 + (k % 3) * 4096,
            ));
        }
        log
    }

    fn catalog() -> (Vec<String>, Vec<u64>) {
        (
            vec!["A".into(), "B".into(), "C".into()],
            vec![1 << 30, 1 << 30, 1 << 30],
        )
    }

    #[test]
    fn tsv_round_trip_is_byte_identical() {
        let log = sample_log(200);
        let tsv = log.to_tsv();
        let back = OpLog::parse_tsv(&tsv).unwrap();
        assert_eq!(back.records(), log.records());
        assert_eq!(
            back.to_tsv(),
            tsv,
            "write -> read -> write must be identity"
        );
    }

    #[test]
    fn empty_log_round_trips() {
        let log = OpLog::new();
        let tsv = log.to_tsv();
        assert_eq!(tsv, format!("{FORMAT_HEADER}\n"));
        let back = OpLog::parse_tsv(&tsv).unwrap();
        assert!(back.is_empty());
    }

    /// The independent reference fit of a log's records.
    fn reference(log: &OpLog, names: &[String], sizes: &[u64], config: &FitConfig) -> WorkloadSet {
        let records: Vec<BlockTraceRecord> = log.records().iter().map(FitRecord::block).collect();
        reference_fit(
            &records,
            names,
            sizes,
            config.window_s,
            config.gap_tolerance,
        )
    }

    /// Folds `log` in `chunk`-record ranges through
    /// `ChunkStats::observe`/`merge`, the way the fitter does at its
    /// fixed chunk size.
    fn fold_at(
        log: &OpLog,
        chunk: usize,
        names: &[String],
        sizes: &[u64],
        config: &FitConfig,
    ) -> WorkloadSet {
        let mut merged = ChunkStats::new(names.len());
        for part in log.records().chunks(chunk) {
            let mut stats = ChunkStats::new(names.len());
            for rec in part {
                stats.observe(&rec.block(), config).unwrap();
            }
            merged.merge(&stats, config);
        }
        merged.finish(names, sizes).unwrap()
    }

    #[test]
    fn streamed_fit_matches_materialized_at_many_chunk_sizes() {
        let log = sample_log(500);
        let (names, sizes) = catalog();
        let config = FitConfig::default();
        let expected = to_string(&reference(&log, &names, &sizes, &config));
        let streamed = fit_oplog_streamed(&log, &names, &sizes, &config).unwrap();
        assert_eq!(to_string(&streamed), expected);
        for chunk in [1, 2, 3, 7, 64, 499, 500, 5000] {
            let folded = fold_at(&log, chunk, &names, &sizes, &config);
            assert_eq!(to_string(&folded), expected, "chunk={chunk}");
        }
    }

    #[test]
    fn streamed_fit_of_empty_log_matches_materialized() {
        let log = OpLog::new();
        let (names, sizes) = catalog();
        let config = FitConfig::default();
        let streamed = fit_oplog_streamed(&log, &names, &sizes, &config).unwrap();
        let reference = reference(&log, &names, &sizes, &config);
        assert_eq!(to_string(&streamed), to_string(&reference));
    }

    #[test]
    fn merge_preserves_runs_split_across_chunks() {
        // One long sequential run split across a chunk boundary must
        // still count as a single run.
        let mut log = OpLog::new();
        for k in 0..10u64 {
            log.push(rec(k as f64 * 0.01, 0, IoKind::Read, k * 65536, 65536));
        }
        let (names, sizes) = catalog();
        let config = FitConfig::default();
        let reference = reference(&log, &names, &sizes, &config);
        assert!((reference.specs[0].run_count - 10.0).abs() < 1e-9);
        for chunk in [1, 3, 5] {
            let set = fold_at(&log, chunk, &names, &sizes, &config);
            assert_eq!(to_string(&set), to_string(&reference), "chunk={chunk}");
        }
    }

    #[test]
    fn trace_content_hash_matches_materialized_trace() {
        let log = sample_log(120);
        assert_eq!(log.trace_content_hash(), log.to_trace().content_hash());
        assert_eq!(
            OpLog::new().trace_content_hash(),
            Trace::new().content_hash()
        );
    }

    #[test]
    fn damaged_trace_content_hash_matches_materialized_damage() {
        let log = sample_log(40);
        for keep in [0, 17, 40] {
            assert_eq!(
                log.trace_content_hash_damaged(keep),
                log.to_trace().content_hash_damaged(keep),
                "keep={keep}"
            );
        }
        assert_eq!(log.trace_content_hash_damaged(40), log.trace_content_hash());
        assert_ne!(log.trace_content_hash_damaged(17), log.trace_content_hash());
    }

    #[test]
    fn streamed_fit_reports_stream_out_of_range() {
        // Bad stream ids in two different fold chunks: the first one in
        // record order is the error, whichever chunk finishes first.
        let mut log = sample_log(DEFAULT_CHUNK as u64 + 5);
        log.push(rec(1e6, 99, IoKind::Read, 0, 8192));
        for k in 0..DEFAULT_CHUNK as u64 {
            log.push(rec(1e6 + k as f64, (k % 3) as u32, IoKind::Read, 0, 8192));
        }
        log.push(rec(2e6, 77, IoKind::Read, 0, 8192));
        let (names, sizes) = catalog();
        let err = fit_oplog_streamed(&log, &names, &sizes, &FitConfig::default()).unwrap_err();
        assert_eq!(
            err,
            FitError::StreamOutOfRange {
                stream: 99,
                objects: 3
            }
        );
    }

    #[test]
    fn missing_header_is_typed() {
        assert_eq!(
            OpLog::parse_tsv("R\t0\t0\t8192\t0\t0.1\n").unwrap_err(),
            OpLogError::MissingHeader
        );
        assert_eq!(OpLog::parse_tsv("").unwrap_err(), OpLogError::MissingHeader);
    }

    #[test]
    fn malformed_lines_are_typed() {
        let cases: Vec<(String, OpLogError)> = vec![
            (
                format!("{FORMAT_HEADER}\nR\t0\t0\t8192\t0\n"),
                OpLogError::Truncated { line: 2, fields: 5 },
            ),
            (
                format!("{FORMAT_HEADER}\nX\t0\t0\t8192\t0\t0.1\n"),
                OpLogError::UnknownOp { line: 2 },
            ),
            (
                format!("{FORMAT_HEADER}\nR\t-1\t0\t8192\t0\t0.1\n"),
                OpLogError::BadField {
                    line: 2,
                    field: "stream",
                },
            ),
            (
                format!("{FORMAT_HEADER}\nR\t0\t0\t8192\tnan\t0.1\n"),
                OpLogError::BadField {
                    line: 2,
                    field: "issue",
                },
            ),
            (
                format!("{FORMAT_HEADER}\nR\t0\t0\t8192\t5\t1\n"),
                OpLogError::NonMonotone { line: 2 },
            ),
            (
                format!("{FORMAT_HEADER}\nR\t0\t{}\t8192\t0\t0.1\n", "9".repeat(200)),
                OpLogError::Overlong { line: 2, len: 215 },
            ),
        ];
        for (text, want) in cases {
            assert_eq!(OpLog::parse_tsv(&text).unwrap_err(), want, "text={text:?}");
        }
    }

    #[test]
    fn lossy_parse_salvages_valid_prefix() {
        let log = sample_log(20);
        let mut tsv = log.to_tsv();
        tsv.push_str("garbage line\n");
        tsv.push_str("R\t0\t0\t8192\t99\t99.1\n");
        let (salvaged, salvage) = OpLog::parse_tsv_lossy(&tsv).unwrap();
        assert_eq!(salvaged.records(), log.records());
        assert_eq!(salvage.kept, 20);
        assert_eq!(salvage.dropped, 2);
        assert!(salvage.degraded());
        assert_eq!(
            salvage.first_error,
            Some(OpLogError::Truncated {
                line: 22,
                fields: 1
            })
        );
    }

    #[test]
    fn lossy_parse_with_no_valid_prefix_keeps_the_typed_error() {
        let text = format!("{FORMAT_HEADER}\nnot a record\nR\t0\t0\t8192\t0\t0.1\n");
        let err = OpLog::parse_tsv_lossy(&text).unwrap_err();
        assert_eq!(err, OpLogError::Truncated { line: 2, fields: 1 });
    }

    #[test]
    fn lossy_parse_truncates_at_cross_chunk_time_regression() {
        let mut log = sample_log(5);
        log.records.push(rec(0.001, 0, IoKind::Read, 0, 8192)); // goes backwards
        let mut tsv = String::new();
        tsv.push_str(FORMAT_HEADER);
        tsv.push('\n');
        for r in log.records() {
            let mut one = OpLog::new();
            one.records.push(*r);
            tsv.push_str(one.to_tsv().lines().nth(1).unwrap());
            tsv.push('\n');
        }
        let (salvaged, salvage) = OpLog::parse_tsv_lossy(&tsv).unwrap();
        assert_eq!(salvaged.len(), 5);
        assert_eq!(
            salvage.first_error,
            Some(OpLogError::NonMonotone { line: 7 })
        );
    }

    #[test]
    fn windows_match_serial_observation() {
        let (names, sizes) = catalog();
        let log = sample_log(400);
        let config = FitConfig::default();
        let plan = WindowPlan {
            pane_s: 0.7,
            panes_per_window: 3,
        };
        let snapshots = windowed_workloads(&log, &names, &sizes, &config, &plan).unwrap();
        assert!(!snapshots.is_empty());
        for snap in &snapshots {
            // Reference: fit exactly the window's records, serially.
            let mut window = OpLog::new();
            for rec in log.records() {
                if rec.issue >= snap.start && rec.issue < snap.end {
                    window.push(*rec);
                }
            }
            assert_eq!(snap.records, window.len() as u64, "tick {}", snap.tick);
            let expected = reference(&window, &names, &sizes, &config);
            assert_eq!(
                to_string(&snap.workloads),
                to_string(&expected),
                "tick {} window diverges from the serial pass",
                snap.tick
            );
        }
        // The last tick covers the last record's pane.
        let last = log.records().last().unwrap().issue.as_secs();
        assert_eq!(snapshots.last().unwrap().tick, (last / plan.pane_s) as u64);
    }

    #[test]
    fn empty_panes_yield_idle_snapshots() {
        let (names, sizes) = catalog();
        let mut log = OpLog::new();
        log.push(rec(0.1, 0, IoKind::Read, 0, 8192));
        log.push(rec(5.1, 1, IoKind::Read, 65536, 8192));
        let plan = WindowPlan {
            pane_s: 1.0,
            panes_per_window: 1,
        };
        let snapshots =
            windowed_workloads(&log, &names, &sizes, &FitConfig::default(), &plan).unwrap();
        assert_eq!(snapshots.len(), 6, "one snapshot per pane, gaps included");
        for snap in &snapshots[1..5] {
            assert_eq!(snap.records, 0);
            let idle = snap
                .workloads
                .specs
                .iter()
                .all(|s| s.read_rate == 0.0 && s.write_rate == 0.0);
            assert!(idle, "tick {} must be idle", snap.tick);
        }
        assert_eq!(snapshots[0].records, 1);
        assert_eq!(snapshots[5].records, 1);
    }

    #[test]
    fn windows_slide_over_at_most_the_configured_panes() {
        let (names, sizes) = catalog();
        let log = sample_log(300);
        let plan = WindowPlan {
            pane_s: 0.5,
            panes_per_window: 4,
        };
        let snapshots =
            windowed_workloads(&log, &names, &sizes, &FitConfig::default(), &plan).unwrap();
        for snap in &snapshots {
            let spanned = (snap.end - snap.start).as_secs();
            assert!(
                spanned <= plan.pane_s * plan.panes_per_window as f64 + 1e-9,
                "tick {} window too wide: {spanned}",
                snap.tick
            );
            let start_pane = (snap.tick + 1).saturating_sub(plan.panes_per_window as u64);
            assert_eq!(snap.start.as_secs(), start_pane as f64 * plan.pane_s);
        }
    }

    #[test]
    fn empty_log_has_no_windows() {
        let (names, sizes) = catalog();
        let snapshots = windowed_workloads(
            &OpLog::new(),
            &names,
            &sizes,
            &FitConfig::default(),
            &WindowPlan::default(),
        )
        .unwrap();
        assert!(snapshots.is_empty());
    }
}
