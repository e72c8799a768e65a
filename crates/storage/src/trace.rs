//! Block I/O trace records.
//!
//! The paper's pipeline obtains workload descriptions by tracing the
//! operational database's I/O and fitting Rome parameters with the
//! Rubicon tool (§5.1). Our simulator emits the same kind of trace:
//! one record per object-level request with a timestamp, the object
//! (stream), the object-relative offset, length, and direction. The
//! `wasla-trace` crate implements the fitting.

use crate::request::IoKind;
use wasla_simlib::impl_json_struct;
use wasla_simlib::SimTime;

/// One traced block request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockTraceRecord {
    /// Submission time.
    pub time: SimTime,
    /// Stream (database object) identifier.
    pub stream: u32,
    /// Read or write.
    pub kind: IoKind,
    /// Offset *within the object* in bytes.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// The content hash of a record stream whose records past the first
/// `keep` have their stream id replaced by `u32::MAX` (the damage
/// fault injection produces); `keep == len` hashes the stream as is.
/// Every trace and op-log cache key goes through this one loop, so a
/// key computed from either representation of the same I/O agrees.
/// Hashes the raw fields directly (not a JSON rendering) so keying a
/// session cache stays cheap next to the fitting work it guards.
pub fn content_hash<I>(records: I, keep: usize) -> u64
where
    I: ExactSizeIterator<Item = BlockTraceRecord>,
{
    let mut h = wasla_simlib::hash::Fnv64::new();
    h.write_u64(records.len() as u64);
    for (i, r) in records.enumerate() {
        let stream = if i < keep { r.stream } else { u32::MAX };
        h.write_f64(r.time.as_secs());
        h.write_u64(stream as u64);
        h.write_u64(match r.kind {
            IoKind::Read => 0,
            IoKind::Write => 1,
        });
        h.write_u64(r.offset);
        h.write_u64(r.len);
    }
    h.finish()
}

/// An in-memory I/O trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    records: Vec<BlockTraceRecord>,
}

impl_json_struct!(BlockTraceRecord {
    time,
    stream,
    kind,
    offset,
    len
});
impl_json_struct!(Trace { records });

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace {
            records: Vec::new(),
        }
    }

    /// Appends a record. Records must be appended in non-decreasing
    /// time order (the simulator guarantees this).
    pub fn push(&mut self, rec: BlockTraceRecord) {
        debug_assert!(
            self.records.last().map_or(true, |l| l.time <= rec.time),
            "trace records out of order"
        );
        self.records.push(rec);
    }

    /// All records in time order.
    pub fn records(&self) -> &[BlockTraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records were captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Time span from first to last record (zero if < 2 records).
    pub fn span(&self) -> SimTime {
        match (self.records.first(), self.records.last()) {
            (Some(f), Some(l)) => l.time - f.time,
            _ => SimTime::ZERO,
        }
    }

    /// Records for one stream, preserving time order.
    pub fn stream(&self, stream: u32) -> impl Iterator<Item = &BlockTraceRecord> {
        self.records.iter().filter(move |r| r.stream == stream)
    }

    /// A stable 64-bit content hash over every record, for use as a
    /// stage-cache key: two traces hash equal iff they would drive any
    /// deterministic consumer identically (see [`content_hash`]).
    pub fn content_hash(&self) -> u64 {
        content_hash(self.records.iter().copied(), self.records.len())
    }

    /// The [`Trace::content_hash`] this trace would have if every
    /// record past the first `keep` had its stream id replaced by
    /// `u32::MAX` — the shape fault injection produces. Lets a cache
    /// layer key the salvage of a damaged trace without materializing
    /// the damaged copy first.
    pub fn content_hash_damaged(&self, keep: usize) -> u64 {
        content_hash(self.records.iter().copied(), keep)
    }

    /// Distinct stream ids, ascending.
    pub fn stream_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.records.iter().map(|r| r.stream).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64, stream: u32, offset: u64) -> BlockTraceRecord {
        BlockTraceRecord {
            time: SimTime::from_secs(t),
            stream,
            kind: IoKind::Read,
            offset,
            len: 8192,
        }
    }

    #[test]
    fn push_and_query() {
        let mut tr = Trace::new();
        assert!(tr.is_empty());
        tr.push(rec(0.0, 1, 0));
        tr.push(rec(1.0, 2, 100));
        tr.push(rec(2.0, 1, 8192));
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.span(), SimTime::from_secs(2.0));
        assert_eq!(tr.stream_ids(), vec![1, 2]);
        let s1: Vec<_> = tr.stream(1).collect();
        assert_eq!(s1.len(), 2);
        assert_eq!(s1[1].offset, 8192);
    }

    #[test]
    fn damaged_hash_matches_materialized_damage() {
        let mut tr = Trace::new();
        for k in 0..10 {
            tr.push(rec(k as f64, k % 3, k as u64 * 4096));
        }
        for keep in [0, 3, 10] {
            let mut damaged = Trace::new();
            for (i, r) in tr.records().iter().enumerate() {
                let mut r = *r;
                if i >= keep {
                    r.stream = u32::MAX;
                }
                damaged.push(r);
            }
            assert_eq!(tr.content_hash_damaged(keep), damaged.content_hash());
        }
        assert_eq!(tr.content_hash_damaged(10), tr.content_hash());
        assert_ne!(tr.content_hash_damaged(3), tr.content_hash());
    }
}
