//! Cache-line padding for concurrently-touched fields.
//!
//! The sharded distance cache puts each shard's lock word and LRU state behind a
//! [`CachePadded`] wrapper so adjacent shards never share a cache line:
//! without padding, a `Box<[Shard]>` packs the `RwLock` words of all eight
//! shards into one or two lines, and every lock acquisition invalidates the
//! line for every *other* shard's waiters — false sharing that defeats the
//! point of sharding. The aggregate hit/miss/eviction atomics get the same
//! treatment; they are written on every lookup from every thread.

use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to the false-sharing granularity.
///
/// On `x86_64` the alignment is 128 bytes, not 64: the adjacent-line
/// prefetcher pulls cache lines in pairs, so two hot words 64 bytes apart
/// still ping-pong between cores. Elsewhere a single 64-byte line is used.
#[cfg_attr(target_arch = "x86_64", repr(align(128)))]
#[cfg_attr(not(target_arch = "x86_64"), repr(align(64)))]
#[derive(Debug, Default)]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line (pair).
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn alignment_is_at_least_a_cache_line() {
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 64);
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 64);
    }

    #[test]
    fn consecutive_array_elements_never_share_a_line() {
        let pair = [CachePadded::new(0u64), CachePadded::new(0u64)];
        let a = &*pair[0] as *const u64 as usize;
        let b = &*pair[1] as *const u64 as usize;
        assert!(b - a >= 64, "elements {a:#x} and {b:#x} share a line");
    }

    #[test]
    fn deref_round_trips() {
        let mut p = CachePadded::new(41u32);
        *p += 1;
        assert_eq!(*p, 42);
        assert_eq!(p.into_inner(), 42);
    }

    #[test]
    fn atomics_work_through_the_pad() {
        let c = CachePadded::new(AtomicU64::new(0));
        c.fetch_add(3, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 3);
    }
}
