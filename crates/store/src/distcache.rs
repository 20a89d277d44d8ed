//! Cross-step cache of exact map-distance values.
//!
//! The selection phase (GMM, Section 4.2.2) evaluates `O(k²·l)` exact EMD
//! transportation problems per step, and candidate pools overlap heavily
//! across consecutive steps of one session and across sessions exploring
//! the same dataset — the top-utility maps of a query change slowly as the
//! user drills down. [`DistanceCache`] memoizes the exact distance of a
//! *pair of rating maps*, keyed by order-normalized content hashes of the
//! two maps, so a distance computed once is reused by every later step and
//! session that meets the same pair.
//!
//! The cache lives in the store crate so it can be shared service-wide
//! behind an `Arc` without the storage layer depending on the exploration
//! engine; the engine supplies 128-bit content hashes and receives `f64`
//! distances. Keys are **content** hashes — two maps with different
//! identities but identical subgroup histograms legitimately share an
//! entry, because the distance depends only on the histograms. The pair key
//! is order-normalized (smaller hash first), and the engine computes
//! distances in the same canonical order, so cached and freshly computed
//! values agree bitwise regardless of argument order.
//!
//! One mutex guards the whole memo. Every lookup writes (a hit may promote
//! its entry), and a step issues only tens of lookups, so neither a
//! reader-writer lock nor sharding would pay for itself. Eviction is a
//! **two-generation** policy — amortized O(1) per insert, where a scan for
//! the least-recently-used entry is O(entries): new entries go into the
//! *hot* generation; when it reaches half the entry budget the generations
//! *flip* — the *cold* generation is dropped and the hot one becomes cold.
//! A hit on a cold entry promotes it back to hot, so an entry used since the
//! last flip always outlives one that was not. A promotion moves an entry
//! without changing the resident count, so it never flips: lookups never
//! evict, and only [`DistanceCache::insert`] does. Any set of lookups
//! between two inserts therefore leaves the same entries, and answers each
//! key the same way, in whatever order it ran. Promotions can fill the hot
//! generation past half the budget; the next flip then keeps half the
//! budget of it (the smallest keys), so the new hot generation has room
//! and a burst of hits never costs every recently used entry at once. Entries are tiny and
//! uniform, so the byte budget is in effect an entry-count bound.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counters describing cache effectiveness; see [`DistanceCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Racing inserts that lost to an incumbent entry.
    pub rejected_inserts: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged against the budget.
    pub resident_bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What one memoized distance charges against the byte budget: the pair key
/// (32 bytes), the value, and amortized hash-map slot overhead.
pub const DIST_ENTRY_BYTES: usize = 96;

/// An order-normalized pair of 128-bit map content hashes.
///
/// Constructed via [`DistanceCache::pair_key`]; the smaller hash always
/// comes first so `d(a, b)` and `d(b, a)` share one entry.
pub type DistPairKey = (u128, u128);

struct Inner {
    /// Entries inserted or used since the last flip.
    hot: HashMap<DistPairKey, f64>,
    /// The generation before: dropped whole by the next flip unless a hit
    /// promotes an entry back to `hot` first.
    cold: HashMap<DistPairKey, f64>,
    /// Resident-entry bound (`hot` + `cold`), at least one.
    budget: usize,
    /// Hot-generation size that triggers a flip: half the budget, at least
    /// one.
    generation: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
    /// Database epoch the resident entries were computed against; see
    /// [`DistanceCache::bump_epoch`].
    epoch: u64,
}

impl Inner {
    /// The resident distance of `key`, promoting a cold entry to hot. The
    /// resident count is unchanged, so this never flips (the hot
    /// generation may run past `generation` until the next insert).
    fn touch(&mut self, key: DistPairKey) -> Option<f64> {
        if let Some(&distance) = self.hot.get(&key) {
            return Some(distance);
        }
        let distance = self.cold.remove(&key)?;
        self.hot.insert(key, distance);
        Some(distance)
    }

    /// Inserts into the hot generation, first flipping if it is full.
    /// Promotions can grow the hot generation past `generation`, up to the
    /// whole budget; the flip then trims the new cold generation to
    /// `budget - generation` entries, so a full hot generation still fits
    /// beside it. Every trimmed entry was used since the last flip, so none
    /// is more recent than another: the smallest keys are kept, which is
    /// the same choice whatever order the promotions ran in.
    fn insert_hot(&mut self, key: DistPairKey, distance: f64) {
        if self.hot.len() >= self.generation {
            self.evictions += self.cold.len() as u64;
            self.cold = std::mem::take(&mut self.hot);
            let keep = self.budget - self.generation;
            if self.cold.len() > keep {
                let mut keys: Vec<DistPairKey> = self.cold.keys().copied().collect();
                keys.sort_unstable();
                for dropped in &keys[keep..] {
                    self.cold.remove(dropped);
                }
                self.evictions += (keys.len() - keep) as u64;
            }
        }
        debug_assert!(self.len() < self.budget);
        self.hot.insert(key, distance);
    }

    fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    fn clear(&mut self) {
        self.hot.clear();
        self.cold.clear();
    }
}

/// A thread-safe memo of exact map distances, keyed by order-normalized
/// content-hash pairs and bounded by resident bytes.
///
/// Shared across sessions behind an `Arc`; all methods take `&self`.
pub struct DistanceCache {
    inner: Mutex<Inner>,
    capacity_bytes: usize,
}

impl std::fmt::Debug for DistanceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistanceCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

impl DistanceCache {
    /// Creates a cache bounded to roughly `capacity_bytes` of entries (each
    /// entry costs [`DIST_ENTRY_BYTES`]; a tiny budget still holds one).
    pub fn new(capacity_bytes: usize) -> Self {
        let budget = (capacity_bytes / DIST_ENTRY_BYTES).max(1);
        Self {
            inner: Mutex::new(Inner {
                hot: HashMap::new(),
                cold: HashMap::new(),
                budget,
                generation: (budget / 2).max(1),
                hits: 0,
                misses: 0,
                evictions: 0,
                rejected: 0,
                epoch: 0,
            }),
            capacity_bytes,
        }
    }

    /// Exclusive access, taking the guard even if a panicking holder
    /// poisoned the lock: entries are plain values, so a poisoned cache
    /// still holds valid distances.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// The database epoch this cache's entries are valid for.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Invalidates every resident entry if `db_epoch` is newer than the
    /// epoch the entries were computed against. Keys are content hashes of
    /// rating maps, and appending ratings changes which maps exist for a
    /// query, so the service clears this cache when it publishes an append.
    /// Counters are kept. Returns whether the epoch advanced (racing bumps
    /// to the same epoch advance once).
    pub fn bump_epoch(&self, db_epoch: u64) -> bool {
        let mut inner = self.lock();
        if inner.epoch >= db_epoch {
            return false;
        }
        inner.epoch = db_epoch;
        inner.clear();
        true
    }

    /// Normalizes two content hashes into the symmetric pair key.
    #[inline]
    pub fn pair_key(a: u128, b: u128) -> DistPairKey {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Looks up the memoized distance for a hash pair, counting a hit or a
    /// miss. The caller computes and [`insert`](Self::insert)s on a miss —
    /// lookup and insert are split because the GMM update loop often
    /// *prunes* the pair via bounds after a miss, in which case there is no
    /// exact value to insert.
    pub fn get(&self, key: DistPairKey) -> Option<f64> {
        let mut inner = self.lock();
        let found = inner.touch(key);
        if found.is_some() {
            inner.hits += 1;
        } else {
            inner.misses += 1;
        }
        found
    }

    /// Memoizes an exact distance, flipping generations to stay within the
    /// budget. A racing insert of the same key keeps (and touches) the
    /// incumbent value — both racers computed the same canonical-order
    /// distance; the loser is counted as a rejected insert.
    pub fn insert(&self, key: DistPairKey, distance: f64) {
        debug_assert!(distance.is_finite() && distance >= 0.0);
        let mut inner = self.lock();
        if inner.touch(key).is_some() {
            inner.rejected += 1;
        } else {
            inner.insert_hot(key, distance);
        }
    }

    /// Whether the pair currently has a resident entry (does not promote it
    /// or touch counters; intended for tests and introspection).
    pub fn contains(&self, key: DistPairKey) -> bool {
        let inner = self.lock();
        inner.hot.contains_key(&key) || inner.cold.contains_key(&key)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// A snapshot of the effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        let entries = inner.len();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            rejected_inserts: inner.rejected,
            entries,
            resident_bytes: entries * DIST_ENTRY_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_key_is_order_normalized() {
        assert_eq!(DistanceCache::pair_key(7, 3), (3, 7));
        assert_eq!(DistanceCache::pair_key(3, 7), (3, 7));
        assert_eq!(DistanceCache::pair_key(5, 5), (5, 5));
    }

    #[test]
    fn miss_then_hit() {
        let cache = DistanceCache::new(10 * DIST_ENTRY_BYTES);
        let key = DistanceCache::pair_key(1, 2);
        assert_eq!(cache.get(key), None);
        cache.insert(key, 0.25);
        assert_eq!(cache.get(key), Some(0.25));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.resident_bytes, DIST_ENTRY_BYTES);
    }

    #[test]
    fn symmetric_lookups_share_an_entry() {
        let cache = DistanceCache::new(10 * DIST_ENTRY_BYTES);
        cache.insert(DistanceCache::pair_key(9, 4), 0.5);
        assert_eq!(cache.get(DistanceCache::pair_key(4, 9)), Some(0.5));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Four entries: generations of two.
        let cache = DistanceCache::new(4 * DIST_ENTRY_BYTES);
        cache.insert((1, 2), 0.1);
        cache.insert((3, 4), 0.2);
        // Hot is full: this flips both into the cold generation.
        cache.insert((5, 6), 0.3);
        assert_eq!(cache.len(), 3);
        // Touch (1, 2) so it is promoted and (3, 4) is the one left cold.
        assert_eq!(cache.get((1, 2)), Some(0.1));
        cache.insert((7, 8), 0.4);
        assert!(cache.contains((1, 2)), "recently used entry kept");
        assert!(
            !cache.contains((3, 4)),
            "entry unused since the flip evicted"
        );
        assert!(cache.contains((5, 6)));
        assert!(cache.contains((7, 8)));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().resident_bytes <= cache.capacity_bytes());
    }

    /// The documented policy over a long run: the entry bound holds after
    /// every insert, an entry used since the last flip survives the next
    /// one, and every dropped entry is counted.
    #[test]
    fn two_generation_eviction_bounds_and_counts() {
        const BUDGET: usize = 8;
        let cache = DistanceCache::new(BUDGET * DIST_ENTRY_BYTES);
        let favourite = (0, 0);
        cache.insert(favourite, 0.5);
        let mut inserted = 1u64;
        for i in 1..=100u128 {
            cache.insert((i, i), i as f64);
            inserted += 1;
            assert!(cache.len() <= BUDGET, "bound broken after {i} inserts");
            // Used after every insert, so never cold at a flip.
            assert_eq!(cache.get(favourite), Some(0.5), "after {i} inserts");
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0);
        assert_eq!(stats.evictions + stats.entries as u64, inserted);
        assert_eq!(stats.misses, 0);

        // Fill the budget, then promote the cold generation so every entry
        // is hot: the next insert keeps half the budget, not one entry.
        let cache = DistanceCache::new(BUDGET * DIST_ENTRY_BYTES);
        for k in 0..BUDGET as u128 {
            cache.insert((k, k), k as f64);
        }
        for k in 0..BUDGET as u128 {
            assert_eq!(cache.get((k, k)), Some(k as f64));
        }
        cache.insert((100, 100), 1.0);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (BUDGET / 2 + 1, 4));
        let kept: Vec<u128> = (0..BUDGET as u128)
            .filter(|&k| cache.contains((k, k)))
            .collect();
        assert_eq!(kept, vec![0, 1, 2, 3], "smallest keys kept");
        assert!(cache.contains((100, 100)));
    }

    /// Four threads racing over overlapping keys on a budget small enough to
    /// keep evicting: a lookup only ever sees a key's one canonical value,
    /// every lookup is counted once, and the bound holds throughout.
    #[test]
    fn concurrent_overlapping_keys_stay_canonical_and_bounded() {
        const BUDGET: usize = 16;
        const KEYS: u128 = 40;
        let canonical = |k: u128| k as f64 / 8.0;
        let cache = DistanceCache::new(BUDGET * DIST_ENTRY_BYTES);
        let start = std::sync::Barrier::new(4);
        let lookups: u64 = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4u128)
                .map(|t| {
                    let (cache, start) = (&cache, &start);
                    s.spawn(move || {
                        // Released together, so the threads' lookups overlap.
                        start.wait();
                        let mut lookups = 0u64;
                        for round in 0..500u128 {
                            let k = (t + round) % KEYS;
                            let key = DistanceCache::pair_key(k + 1, k);
                            // Look up, fill a miss, and look up again.
                            for _ in 0..2 {
                                lookups += 1;
                                match cache.get(key) {
                                    Some(d) => assert_eq!(d, canonical(k), "key {k}"),
                                    None => cache.insert(key, canonical(k)),
                                }
                                assert!(cache.len() <= BUDGET);
                            }
                        }
                        lookups
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).sum()
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, lookups);
        assert!(stats.hits > 0 && stats.evictions > 0, "{stats:?}");
        assert!(stats.entries <= BUDGET);
    }

    /// Promoting cold entries while the hot generation is full evicts
    /// nothing, so lookups between two inserts give the same answers and
    /// leave the same entries in any order.
    #[test]
    fn lookups_never_evict_in_any_order() {
        let run = |order: &[DistPairKey]| {
            // Four entries: generations of two. (0, 0) and (1, 1) end cold
            // and (2, 2), (3, 3) fill the hot generation.
            let cache = DistanceCache::new(4 * DIST_ENTRY_BYTES);
            for k in 0..4u128 {
                cache.insert((k, k), k as f64);
            }
            let mut answers: Vec<_> = order.iter().map(|&key| (key, cache.get(key))).collect();
            answers.sort_by_key(|&(key, _)| key);
            let resident: Vec<bool> = (0..4u128).map(|k| cache.contains((k, k))).collect();
            (answers, resident, cache.stats())
        };
        let order = [(1, 1), (0, 0), (9, 9), (3, 3)];
        let forward = run(&order);
        let mut reversed = order;
        reversed.reverse();
        assert_eq!(run(&reversed), forward);
        let (answers, resident, stats) = forward;
        assert_eq!(answers.iter().filter(|(_, d)| d.is_some()).count(), 3);
        assert_eq!(resident, vec![true; 4]);
        assert_eq!((stats.evictions, stats.entries), (0, 4));
    }

    #[test]
    fn reinsert_keeps_incumbent_value_and_counts_rejection() {
        let cache = DistanceCache::new(10 * DIST_ENTRY_BYTES);
        cache.insert((1, 2), 0.1);
        cache.insert((1, 2), 0.9);
        assert_eq!(cache.get((1, 2)), Some(0.1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().rejected_inserts, 1);
    }

    #[test]
    fn bump_epoch_invalidates_entries_once() {
        let cache = DistanceCache::new(10 * DIST_ENTRY_BYTES);
        cache.insert((1, 2), 0.1);
        assert!(!cache.bump_epoch(0), "stale bump is a no-op");
        assert!(cache.bump_epoch(2));
        assert!(cache.is_empty());
        assert_eq!(cache.epoch(), 2);
        assert!(!cache.bump_epoch(2), "repeat bump clears nothing");
        cache.insert((1, 2), 0.4);
        assert_eq!(cache.get((1, 2)), Some(0.4));
    }

    #[test]
    fn tiny_budget_still_holds_one_entry() {
        let cache = DistanceCache::new(1);
        cache.insert((1, 2), 0.1);
        assert_eq!(cache.get((1, 2)), Some(0.1));
        cache.insert((3, 4), 0.2);
        assert_eq!(cache.len(), 1, "budget floor is one entry");
        assert_eq!(
            cache.get((3, 4)),
            Some(0.2),
            "the newest entry is the one kept"
        );
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn clear_resets_entries_but_keeps_counters() {
        let cache = DistanceCache::new(10 * DIST_ENTRY_BYTES);
        cache.insert((1, 2), 0.1);
        let _ = cache.get((1, 2));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().resident_bytes, 0);
    }
}
