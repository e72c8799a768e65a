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
/// Keys are 64-bit content hashes (see `wasla_simlib::hash`). The
/// table is an insertion-order vector, so iteration and persistence
/// order stay deterministic, and every lookup or insert is a linear
/// scan: O(entries). That is cheap for calibration tables (one per
/// distinct device spec) but not for fits, which a long-lived service
/// accumulates per distinct trace (a fleet stress run ends with about
/// 2k). ROADMAP open item 1 plans a key index beside the vector.
#[derive(Clone, Debug)]
pub struct StageCache<V> {
    entries: Vec<(u64, V)>,
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
        self.entries.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Looks up a key, recording a hit or miss.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        if self.entries.iter().any(|(k, _)| *k == key) {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        self.peek(key)
    }

    /// Inserts an output unless the key is already present (first
    /// write wins, so replaying a batch in request order is stable).
    pub fn insert(&mut self, key: u64, value: V) {
        if self.peek(key).is_none() {
            self.entries.push((key, value));
        }
    }

    /// Consumes the cache, yielding its `(key, value)` entries in
    /// insertion order (batch layers use this to merge worker-local
    /// caches back into a shared session).
    pub fn into_entries(self) -> Vec<(u64, V)> {
        self.entries
    }

    /// The `(key, value)` entries in insertion order, borrowed (the
    /// persistence layer serializes these without draining the cache).
    pub fn entries(&self) -> &[(u64, V)] {
        &self.entries
    }

    /// Rebuilds a cache from persisted entries. Counters start at
    /// zero: a restored cache is *warm data* but has served nothing.
    pub fn from_entries(entries: Vec<(u64, V)>) -> Self {
        StageCache {
            entries,
            stats: CacheStats::default(),
        }
    }

    /// Folds another cache's counters into this one's (used together
    /// with [`CacheStats::since`] when merging worker-local caches).
    pub fn add_stats(&mut self, delta: CacheStats) {
        self.stats.hits += delta.hits;
        self.stats.misses += delta.misses;
    }

    /// Returns the cached output for `key`, computing and caching it
    /// on a miss.
    pub fn get_or_insert_with(&mut self, key: u64, compute: impl FnOnce() -> V) -> &V {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.stats.hits += 1;
            return &self.entries[pos].1;
        }
        self.stats.misses += 1;
        self.entries.push((key, compute()));
        &self.entries[self.entries.len() - 1].1
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
