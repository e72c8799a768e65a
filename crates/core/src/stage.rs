//! The staged-pipeline abstraction.
//!
//! The paper's methodology is a fixed sequence of transformations —
//! trace the workload, fit Rome descriptions, calibrate target models,
//! solve the NLP, regularize — and two of those stages are *pure
//! functions of identifiable inputs*: a calibration table depends only
//! on the device spec, the grid and the seed; a fitted workload set
//! depends only on the trace and the object inventory. This module
//! gives the pipeline layers a common vocabulary for that structure:
//!
//! * [`Stage`] — a typed transformation the facade's trace, solve and
//!   regularize wrappers implement, so callers can compose the
//!   pipeline one stage at a time;
//! * [`StageCache`] — a keyed memo table with hit/miss accounting,
//!   used by sessions to skip recomputation when the same inputs recur
//!   across requests.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One pipeline stage: a transformation from `Input` to `Output` that
/// can fail with `Error`.
pub trait Stage {
    /// What the stage consumes.
    type Input;
    /// What the stage produces.
    type Output;
    /// How the stage fails.
    type Error;

    /// Runs the transformation.
    fn run(&self, input: &Self::Input) -> Result<Self::Output, Self::Error>;
}

/// Hit/miss counters for one [`StageCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// The counter delta accumulated since an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// A keyed memo table for one stage's outputs.
///
/// Keys are 64-bit content hashes (see `wasla_simlib::hash`). Entries
/// live in an insertion-order vector, so iteration and persistence
/// order stay deterministic, and a key index beside it makes every
/// lookup and insert O(1). The index holds each key's first entry, so
/// a long-lived service's fit cache (one entry per distinct trace)
/// costs the same per request at 2k entries as at 2.
#[derive(Clone, Debug)]
pub struct StageCache<V> {
    entries: Vec<(u64, V)>,
    index: HashMap<u64, usize>,
    stats: CacheStats,
}

impl<V> Default for StageCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> StageCache<V> {
    /// An empty cache.
    pub fn new() -> Self {
        StageCache {
            entries: Vec::new(),
            index: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Number of cached outputs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a key without touching the counters (snapshot reads).
    pub fn peek(&self, key: u64) -> Option<&V> {
        self.index.get(&key).map(|&pos| &self.entries[pos].1)
    }

    /// Looks up a key, recording a hit or miss.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        let pos = self.index.get(&key).copied();
        match pos {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        pos.map(|pos| &self.entries[pos].1)
    }

    /// Inserts an output unless the key is already present (first
    /// write wins, so replaying a batch in request order is stable).
    pub fn insert(&mut self, key: u64, value: V) {
        if let Entry::Vacant(slot) = self.index.entry(key) {
            slot.insert(self.entries.len());
            self.entries.push((key, value));
        }
    }

    /// The `(key, value)` entries in insertion order, borrowed (the
    /// persistence layer serializes these without draining the cache).
    pub fn entries(&self) -> &[(u64, V)] {
        &self.entries
    }

    /// Rebuilds a cache from persisted entries. Counters start at
    /// zero: a restored cache is *warm data* but has served nothing.
    /// A duplicated key answers with its first entry.
    pub fn from_entries(entries: Vec<(u64, V)>) -> Self {
        let mut index = HashMap::with_capacity(entries.len());
        for (pos, (key, _)) in entries.iter().enumerate() {
            index.entry(*key).or_insert(pos);
        }
        StageCache {
            entries,
            index,
            stats: CacheStats::default(),
        }
    }

    /// Counts a hit served from another cache layered above this one
    /// (a batch request reading the shared session records the hit on
    /// its own delta).
    pub fn record_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Folds a delta cache into this one: its counters add up, and its
    /// entries insert in their order, first write wins.
    pub fn absorb(&mut self, delta: StageCache<V>) {
        self.stats.hits += delta.stats.hits;
        self.stats.misses += delta.stats.misses;
        for (key, value) in delta.entries {
            self.insert(key, value);
        }
    }

    /// Returns the cached output for `key`, computing and caching it
    /// on a miss.
    pub fn get_or_insert_with(&mut self, key: u64, compute: impl FnOnce() -> V) -> &V {
        let pos = match self.index.entry(key) {
            Entry::Occupied(slot) => {
                self.stats.hits += 1;
                *slot.get()
            }
            Entry::Vacant(slot) => {
                self.stats.misses += 1;
                let pos = self.entries.len();
                self.entries.push((key, compute()));
                slot.insert(pos);
                pos
            }
        };
        &self.entries[pos].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_counts_hits_and_misses() {
        let mut c: StageCache<u32> = StageCache::new();
        assert!(c.is_empty());
        assert_eq!(c.get(1), None);
        c.insert(1, 10);
        assert_eq!(c.get(1), Some(&10));
        assert_eq!(c.get(2), None);
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 2 });
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn get_or_insert_computes_once() {
        let mut c: StageCache<u32> = StageCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let v = *c.get_or_insert_with(7, || {
                calls += 1;
                42
            });
            assert_eq!(v, 42);
        }
        assert_eq!(calls, 1);
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn insert_is_first_write_wins() {
        let mut c: StageCache<u32> = StageCache::new();
        c.insert(1, 10);
        c.insert(1, 99);
        assert_eq!(c.peek(1), Some(&10));
        // peek leaves the counters alone.
        assert_eq!(c.stats(), CacheStats::default());
    }
}
