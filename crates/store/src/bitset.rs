//! A fixed-capacity bitset over row ids.
//!
//! Selection queries are conjunctions of attribute–value predicates; each
//! predicate's posting list is intersected into a bitset, and rating-group
//! materialization probes the reviewer-side and item-side bitsets per
//! record. Words are `u64`, operations are branch-light.

use subdex_stats::kernels;

/// A fixed-size set of `u32` row ids backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty bitset able to hold ids `0..capacity`.
    pub fn empty(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates a bitset with all ids `0..capacity` set.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self {
            words: vec![!0u64; capacity.div_ceil(64)],
            capacity,
        };
        s.trim_tail();
        s
    }

    /// Builds a bitset from a list of ids.
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn from_ids(capacity: usize, ids: &[u32]) -> Self {
        let mut s = Self::empty(capacity);
        for &id in ids {
            s.insert(id);
        }
        s
    }

    /// Wraps pre-built words covering ids `0..capacity` (the
    /// compressed-index handoff: container intersections produce word
    /// buffers directly). Short buffers are zero-extended; tail bits past
    /// `capacity` are cleared.
    ///
    /// # Panics
    /// Panics if `words` has more than `⌈capacity/64⌉` words.
    pub fn from_words(mut words: Vec<u64>, capacity: usize) -> Self {
        let need = capacity.div_ceil(64);
        assert!(words.len() <= need, "word buffer exceeds capacity");
        words.resize(need, 0);
        let mut s = Self { words, capacity };
        s.trim_tail();
        s
    }

    /// The backing words (ascending id order, 64 ids per word) — the
    /// shape the set kernels consume.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Clears bits beyond `capacity` in the last word.
    fn trim_tail(&mut self) {
        let rem = self.capacity % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Capacity (one past the largest representable id).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts an id.
    ///
    /// # Panics
    /// Panics if `id >= capacity`.
    #[inline]
    pub fn insert(&mut self, id: u32) {
        let i = id as usize;
        assert!(
            i < self.capacity,
            "id {i} out of capacity {}",
            self.capacity
        );
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes an id (no-op if absent).
    #[inline]
    pub fn remove(&mut self, id: u32) {
        let i = id as usize;
        if i < self.capacity {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Membership test. Out-of-range ids are reported absent.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        let i = id as usize;
        i < self.capacity && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place intersection with another bitset of the same capacity.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &Self) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        kernels::and_words(kernels::active(), &mut self.words, &other.words);
    }

    /// In-place intersection with a *sorted or unsorted* posting list:
    /// retains only ids present in `ids`. Scatters the list into a
    /// word buffer, then intersects word-wise through the set kernels.
    pub fn intersect_with_ids(&mut self, ids: &[u32]) {
        let mut other = vec![0u64; self.words.len()];
        for &id in ids {
            if (id as usize) < self.capacity {
                other[id as usize / 64] |= 1u64 << (id % 64);
            }
        }
        kernels::and_words(kernels::active(), &mut self.words, &other);
    }

    /// In-place union.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &Self) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterates set ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros();
                w &= w - 1;
                Some((wi * 64) as u32 + bit)
            })
        })
    }

    /// Collects set ids into a vector.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = BitSet::empty(100);
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        let f = BitSet::full(100);
        assert_eq!(f.len(), 100);
        assert!(f.contains(0) && f.contains(99) && !f.contains(100));
    }

    #[test]
    fn full_trims_tail_bits() {
        let f = BitSet::full(65);
        assert_eq!(f.len(), 65);
        assert!(!f.contains(65));
        assert!(!f.contains(127));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::empty(70);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(69);
        assert_eq!(s.len(), 4);
        assert!(s.contains(63) && s.contains(64));
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
        s.remove(63); // idempotent
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        let mut s = BitSet::empty(10);
        s.insert(10);
    }

    #[test]
    fn intersect_and_union() {
        let mut a = BitSet::from_ids(128, &[1, 5, 64, 100]);
        let b = BitSet::from_ids(128, &[5, 64, 101]);
        a.intersect_with(&b);
        assert_eq!(a.to_vec(), vec![5, 64]);
        let mut u = BitSet::from_ids(128, &[1]);
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 5, 64, 101]);
    }

    #[test]
    fn intersect_with_ids_list() {
        let mut a = BitSet::full(10);
        a.intersect_with_ids(&[2, 7, 9, 9]);
        assert_eq!(a.to_vec(), vec![2, 7, 9]);
    }

    #[test]
    fn iter_ascending() {
        let s = BitSet::from_ids(200, &[150, 3, 64, 63]);
        assert_eq!(s.to_vec(), vec![3, 63, 64, 150]);
    }

    #[test]
    fn from_words_extends_and_trims() {
        let s = BitSet::from_words(vec![!0u64], 70);
        assert_eq!(s.len(), 64);
        assert_eq!(s.capacity(), 70);
        assert!(!s.contains(64));
        let t = BitSet::from_words(vec![!0u64], 10);
        assert_eq!(t.to_vec(), (0..10).collect::<Vec<_>>());
        assert_eq!(t, BitSet::full(10));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn intersect_capacity_mismatch_panics() {
        let mut a = BitSet::empty(10);
        let b = BitSet::empty(20);
        a.intersect_with(&b);
    }
}
