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
//! The map is split into power-of-two **shards** — selected by an FNV-1a
//! hash of the 32-byte pair key — each with its own lock and its own slice
//! of the entry budget, so the per-pair lookups the GMM loop issues from
//! concurrent sessions stop serializing on one global mutex. Eviction is
//! least-recently-used per shard under the shard's budget slice; entries
//! are tiny and uniform, so the budget is in effect an entry-count bound.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::pad::CachePadded;

/// Default shard count of a [`DistanceCache`]. Must be a power of two;
/// eight is enough that a handful of service workers rarely collide while
/// keeping the per-shard budget slices coarse.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

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
/// (32 bytes), the value, LRU clock, and amortized hash-map slot overhead.
pub const DIST_ENTRY_BYTES: usize = 96;

/// An order-normalized pair of 128-bit map content hashes.
///
/// Constructed via [`DistanceCache::pair_key`]; the smaller hash always
/// comes first so `d(a, b)` and `d(b, a)` share one entry.
pub type DistPairKey = (u128, u128);

struct Entry {
    distance: f64,
    /// Logical clock value of the most recent touch (per shard).
    last_used: u64,
}

struct Inner {
    map: HashMap<DistPairKey, Entry>,
    /// Monotonic logical clock; bumped on every touch. Per-shard — LRU
    /// only ever compares entries within one shard.
    tick: u64,
}

/// One shard, padded to its own cache line (pair); see the rationale on
/// [`CachePadded`] — the GMM loop hammers `get`/`insert` from every worker,
/// so adjacent shards' lock words must not share a line.
struct Shard {
    inner: CachePadded<RwLock<Inner>>,
}

impl Shard {
    fn new() -> Self {
        Self {
            inner: CachePadded::new(RwLock::new(Inner {
                map: HashMap::new(),
                tick: 0,
            })),
        }
    }

    /// Shared access, taking the guard even if a panicking holder poisoned
    /// the lock: entries are plain values, so a poisoned shard still holds
    /// valid distances.
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access; poison is ignored as in [`Shard::read`].
    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A thread-safe sharded LRU memo of exact map distances, keyed by
/// order-normalized content-hash pairs and bounded by resident bytes.
///
/// Shared across sessions behind an `Arc`; all methods take `&self`.
pub struct DistanceCache {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; the key-hash mask selecting a shard.
    shard_mask: u64,
    capacity_bytes: usize,
    /// Entry budget per shard (the byte budget split evenly, floored at one
    /// entry so a tiny cache still memoizes something).
    shard_budget_entries: usize,
    // Aggregate counters, each on its own cache line: every lookup from
    // every thread bumps one of these, and packed together a hit on one
    // core would invalidate the miss counter's line on every other.
    hits: CachePadded<AtomicU64>,
    misses: CachePadded<AtomicU64>,
    evictions: CachePadded<AtomicU64>,
    rejected: CachePadded<AtomicU64>,
    /// Database epoch the resident entries were computed against; see
    /// [`bump_epoch`](Self::bump_epoch).
    epoch: CachePadded<AtomicU64>,
}

impl std::fmt::Debug for DistanceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistanceCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// FNV-1a over the 32 bytes of the order-normalized pair key. The content
/// hashes are already well-mixed, but folding both halves keeps shard
/// selection balanced even if callers key on low-entropy hashes.
fn shard_hash(key: &DistPairKey) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for half in [key.0, key.1] {
        for chunk in [half as u64, (half >> 64) as u64] {
            h ^= chunk;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

impl DistanceCache {
    /// Creates a cache bounded to roughly `capacity_bytes` of entries (each
    /// entry costs [`DIST_ENTRY_BYTES`]), with [`DEFAULT_CACHE_SHARDS`]
    /// shards.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_shards(capacity_bytes, DEFAULT_CACHE_SHARDS)
    }

    /// Creates a cache with an explicit shard count (power of two). Each
    /// shard gets an even slice of the entry budget.
    ///
    /// # Panics
    /// If `shards` is not a power of two.
    pub fn with_shards(capacity_bytes: usize, shards: usize) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two"
        );
        Self {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            shard_mask: (shards - 1) as u64,
            capacity_bytes,
            shard_budget_entries: (capacity_bytes / shards / DIST_ENTRY_BYTES).max(1),
            hits: CachePadded::new(AtomicU64::new(0)),
            misses: CachePadded::new(AtomicU64::new(0)),
            evictions: CachePadded::new(AtomicU64::new(0)),
            rejected: CachePadded::new(AtomicU64::new(0)),
            epoch: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// The number of shards the key space is split across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The database epoch this cache's entries are valid for.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    fn shard_of(&self, key: &DistPairKey) -> &Shard {
        &self.shards[(shard_hash(key) & self.shard_mask) as usize]
    }

    /// Invalidates every resident entry if `db_epoch` is newer than the
    /// epoch the entries were computed against. Keys are content hashes of
    /// rating maps, and appending ratings changes which maps exist for a
    /// query, so the service clears this cache when it publishes an append.
    /// Counters are kept. Returns whether the epoch advanced (racing bumps
    /// to the same epoch advance once).
    pub fn bump_epoch(&self, db_epoch: u64) -> bool {
        if self.epoch.fetch_max(db_epoch, Ordering::Relaxed) >= db_epoch {
            return false;
        }
        for shard in self.shards.iter() {
            shard.write().map.clear();
        }
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
        let mut inner = self.shard_of(&key).write();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(entry.distance)
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Memoizes an exact distance, evicting the shard's LRU entries past
    /// its budget slice. A racing insert of the same key keeps the
    /// incumbent value (both racers computed the same canonical-order
    /// distance); the loser is counted as a rejected insert.
    pub fn insert(&self, key: DistPairKey, distance: f64) {
        debug_assert!(distance.is_finite() && distance >= 0.0);
        let mut inner = self.shard_of(&key).write();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().last_used = tick;
                self.rejected.fetch_add(1, Ordering::Relaxed);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Entry {
                    distance,
                    last_used: tick,
                });
            }
        }
        while inner.map.len() > self.shard_budget_entries {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("map checked non-empty");
            inner.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the pair currently has a resident entry (does not touch LRU
    /// state or counters; intended for tests and introspection). One shared
    /// read lock on the pair's shard — never the whole cache.
    pub fn contains(&self, key: DistPairKey) -> bool {
        self.shard_of(&key).read().map.contains_key(&key)
    }

    /// Number of resident entries: one shared read acquisition per shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.write().map.clear();
        }
    }

    /// A snapshot of the effectiveness counters: atomics plus one shared
    /// read acquisition per shard.
    pub fn stats(&self) -> CacheStats {
        let entries = self.len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejected_inserts: self.rejected.load(Ordering::Relaxed),
            entries,
            resident_bytes: entries * DIST_ENTRY_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-shard cache: the LRU/entry-count pins below assume one budget
    /// slice covering the whole capacity.
    fn unsharded(capacity_bytes: usize) -> DistanceCache {
        DistanceCache::with_shards(capacity_bytes, 1)
    }

    #[test]
    fn pair_key_is_order_normalized() {
        assert_eq!(DistanceCache::pair_key(7, 3), (3, 7));
        assert_eq!(DistanceCache::pair_key(3, 7), (3, 7));
        assert_eq!(DistanceCache::pair_key(5, 5), (5, 5));
    }

    #[test]
    fn miss_then_hit() {
        let cache = DistanceCache::new(10 * DIST_ENTRY_BYTES * DEFAULT_CACHE_SHARDS);
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
        let cache = DistanceCache::new(10 * DIST_ENTRY_BYTES * DEFAULT_CACHE_SHARDS);
        cache.insert(DistanceCache::pair_key(9, 4), 0.5);
        assert_eq!(cache.get(DistanceCache::pair_key(4, 9)), Some(0.5));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = unsharded(2 * DIST_ENTRY_BYTES);
        cache.insert((1, 2), 0.1);
        cache.insert((3, 4), 0.2);
        // Touch (1, 2) so (3, 4) is the LRU entry.
        assert_eq!(cache.get((1, 2)), Some(0.1));
        cache.insert((5, 6), 0.3);
        assert!(cache.contains((1, 2)), "recently used entry kept");
        assert!(!cache.contains((3, 4)), "LRU entry evicted");
        assert!(cache.contains((5, 6)));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().resident_bytes <= cache.capacity_bytes());
    }

    #[test]
    fn reinsert_keeps_incumbent_value_and_counts_rejection() {
        let cache = DistanceCache::new(10 * DIST_ENTRY_BYTES * DEFAULT_CACHE_SHARDS);
        cache.insert((1, 2), 0.1);
        cache.insert((1, 2), 0.9);
        assert_eq!(cache.get((1, 2)), Some(0.1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().rejected_inserts, 1);
    }

    #[test]
    fn bump_epoch_invalidates_entries_once() {
        let cache = DistanceCache::new(10 * DIST_ENTRY_BYTES * DEFAULT_CACHE_SHARDS);
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
        let cache = unsharded(1);
        cache.insert((1, 2), 0.1);
        assert_eq!(cache.get((1, 2)), Some(0.1));
        cache.insert((3, 4), 0.2);
        assert_eq!(cache.len(), 1, "budget floor is one entry");
    }

    #[test]
    fn clear_resets_entries_but_keeps_counters() {
        let cache = DistanceCache::new(10 * DIST_ENTRY_BYTES * DEFAULT_CACHE_SHARDS);
        cache.insert((1, 2), 0.1);
        let _ = cache.get((1, 2));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn shard_count_must_be_a_power_of_two() {
        let _ = DistanceCache::with_shards(1 << 20, 6);
    }

    #[test]
    fn sharded_cache_spreads_entries_and_keeps_aggregates() {
        let cache = DistanceCache::new(64 * DIST_ENTRY_BYTES * DEFAULT_CACHE_SHARDS);
        for i in 0..64u128 {
            cache.insert(DistanceCache::pair_key(i, i + 1), i as f64 / 64.0);
        }
        assert_eq!(cache.len(), 64, "ample budget: nothing evicted");
        for i in 0..64u128 {
            assert_eq!(
                cache.get(DistanceCache::pair_key(i + 1, i)),
                Some(i as f64 / 64.0),
                "symmetric lookup hits across shards"
            );
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (64, 0));
        assert_eq!(stats.entries, 64);
    }
}
