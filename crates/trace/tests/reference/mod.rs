//! Independent reference fitter: a test oracle for the library's
//! chunked `ChunkStats` fold.
//!
//! It is written straight from the fit definitions (rates over the
//! record span, mean sizes, requests per sequential run, co-activity
//! overlap over time windows) as a serial per-object pass, and shares
//! no code with the library fitter: each object's records are filtered
//! out of the full stream, runs are counted over that list, and
//! overlaps intersect ordered window sets. Where the library's answer
//! matches this one byte for byte, the fold, its chunking and its merge
//! are right, not just consistent with another path through the same
//! helpers.
//!
//! Included by path from the trace crate's unit tests, its property
//! suite and the workspace integration tests, so it names only crates
//! all three depend on.

#![allow(dead_code)]

use std::collections::BTreeSet;
use wasla_storage::{BlockTraceRecord, IoKind};
use wasla_workload::{WorkloadSet, WorkloadSpec};

/// Fits `records` (in time order) the slow, obvious way.
///
/// `window_s` and `gap_tolerance` are the fit configuration's
/// co-activity window width and sequential gap tolerance. Panics on a
/// names/sizes mismatch or an out-of-range stream id: the oracle only
/// judges valid input.
pub fn reference_fit(
    records: &[BlockTraceRecord],
    names: &[String],
    sizes: &[u64],
    window_s: f64,
    gap_tolerance: u64,
) -> WorkloadSet {
    let n = names.len();
    assert_eq!(n, sizes.len(), "catalog shape");
    assert!(
        records.iter().all(|r| (r.stream as usize) < n),
        "stream out of range"
    );
    let span = match (records.first(), records.last()) {
        (Some(first), Some(last)) => (last.time - first.time).as_secs(),
        _ => 0.0,
    }
    .max(1e-9);
    let per_object: Vec<Vec<&BlockTraceRecord>> = (0..n)
        .map(|i| records.iter().filter(|r| r.stream as usize == i).collect())
        .collect();
    let windows: Vec<BTreeSet<u32>> = per_object
        .iter()
        .map(|recs| {
            recs.iter()
                .map(|r| (r.time.as_secs() / window_s) as u32)
                .collect()
        })
        .collect();

    let specs = (0..n)
        .map(|i| {
            let recs = &per_object[i];
            if recs.is_empty() {
                return WorkloadSpec::idle(n);
            }
            let of_kind = |kind: IoKind| {
                let matching: Vec<u64> = recs
                    .iter()
                    .filter(|r| r.kind == kind)
                    .map(|r| r.len)
                    .collect();
                (matching.len() as u64, matching.iter().sum::<u64>())
            };
            let (reads, read_bytes) = of_kind(IoKind::Read);
            let (writes, write_bytes) = of_kind(IoKind::Write);
            let mean = |count: u64, bytes: u64| {
                if count == 0 {
                    8192.0
                } else {
                    bytes as f64 / count as f64
                }
            };
            // A new run starts at every request that does not land
            // between `len` bytes behind and `gap_tolerance` bytes past
            // the end of the previous request.
            let mut runs = 0u64;
            let mut prev_end: Option<u64> = None;
            for r in recs {
                let sequential = prev_end
                    .is_some_and(|end| r.offset + r.len >= end && r.offset <= end + gap_tolerance);
                if !sequential {
                    runs += 1;
                }
                prev_end = Some(r.offset + r.len);
            }
            let requests = recs.len() as f64;
            let overlaps = (0..n)
                .map(|j| {
                    if j == i {
                        0.0
                    } else {
                        windows[i].intersection(&windows[j]).count() as f64
                            / windows[i].len() as f64
                    }
                })
                .collect();
            WorkloadSpec {
                read_size: mean(reads, read_bytes),
                write_size: mean(writes, write_bytes),
                read_rate: reads as f64 / span,
                write_rate: writes as f64 / span,
                run_count: (requests / runs as f64).max(1.0),
                overlaps,
            }
        })
        .collect();
    WorkloadSet {
        names: names.to_vec(),
        sizes: sizes.to_vec(),
        specs,
    }
}
