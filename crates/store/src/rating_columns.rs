//! Append-only rating columns that successive epochs share.
//!
//! A [`RatingColumns`] value is one epoch's view of the rating columns
//! (reviewer, item, one byte column per dimension): a shared [`Buffer`]
//! plus the epoch's own length. Readers get plain contiguous slices of the
//! first `len` slots. An append claims the slots past `len` with one
//! compare-exchange on the buffer's claimed length and writes the batch
//! there, so the new epoch shares every earlier record with its parent.
//! Only a fork from an epoch shorter than the claimed length (someone else
//! already appended to it) or a batch that does not fit copies the prefix,
//! into a fresh buffer of doubled capacity, so a chain of appends costs
//! amortized O(1) per record.
//!
//! The one invariant everything rests on: **each slot is written once, by
//! the thread that claimed it, before any epoch that covers it exists.**
//! Claims only move the claimed length forward, so a slot below an epoch's
//! length is never written again, and slots a failed or abandoned claim
//! left behind are covered by no epoch and never read.

#![deny(unsafe_op_in_unsafe_fn)]

use std::fmt;
use std::mem::ManuallyDrop;
use std::ptr::NonNull;
use std::slice;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::ratings::RatingDraft;

/// One column's allocation: `cap` slots of `T`, taken over from a `Vec`.
struct Slots<T> {
    ptr: NonNull<T>,
    cap: usize,
}

impl<T: Copy> Slots<T> {
    /// Takes over `v`'s allocation; its `len` elements are the written
    /// prefix.
    fn from_vec(v: Vec<T>) -> Self {
        let mut v = ManuallyDrop::new(v);
        Self {
            // `Vec::as_mut_ptr` is never null (dangling for capacity 0).
            ptr: NonNull::new(v.as_mut_ptr()).expect("Vec pointer is non-null"),
            cap: v.capacity(),
        }
    }

    /// A new allocation of at least `cap` slots starting with `prefix`.
    fn with_prefix(prefix: &[T], cap: usize) -> Self {
        let mut v = Vec::with_capacity(cap);
        v.extend_from_slice(prefix);
        Self::from_vec(v)
    }

    /// The first `len` slots.
    ///
    /// # Safety
    /// Slots `[0, len)` must be written and must not be written again while
    /// the returned slice lives.
    unsafe fn prefix(&self, len: usize) -> &[T] {
        debug_assert!(len <= self.cap);
        // SAFETY: `ptr` is the start of an allocation of `cap >= len`
        // slots of `T`, aligned by `Vec`; the caller guarantees the slots
        // are initialized and not mutated while the slice lives.
        unsafe { slice::from_raw_parts(self.ptr.as_ptr(), len) }
    }

    /// Writes `values` into slots `[at, at + values.len())`.
    ///
    /// # Safety
    /// The caller must hold the claim on those slots (no other thread
    /// reads or writes them), and `at + values.len() <= cap`.
    unsafe fn write(&self, at: usize, values: impl ExactSizeIterator<Item = T>) {
        debug_assert!(at + values.len() <= self.cap);
        let base = self.ptr.as_ptr();
        for (k, value) in values.enumerate() {
            // SAFETY: `at + k < at + values.len() <= cap`, so the slot is
            // inside the allocation, and the caller's claim makes this
            // thread its only accessor; `T: Copy` has no drop glue, so
            // overwriting an uninitialized slot needs no read.
            unsafe { base.add(at + k).write(value) };
        }
    }
}

impl<T> Drop for Slots<T> {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `cap` came from a `Vec<T>` whose ownership
        // `from_vec` took over, and this is the only place that frees it.
        // A length of 0 drops no elements, which is right for the `Copy`
        // types stored here.
        drop(unsafe { Vec::from_raw_parts(self.ptr.as_ptr(), 0, self.cap) });
    }
}

/// Column storage shared by every epoch that grew from one another.
struct Buffer {
    /// Slots `[0, claimed)` belong to some epoch's claimer; slots past it
    /// are free. Only ever grows.
    claimed: AtomicUsize,
    /// Slots every column has room for.
    cap: usize,
    reviewers: Slots<u32>,
    items: Slots<u32>,
    scores: Box<[Slots<u8>]>,
}

// SAFETY: field by field — `claimed` is an atomic and `cap` a plain
// integer; `reviewers`, `items` and every `scores` column own their
// allocation outright (taken over from a `Vec`, freed once in `Drop`) and
// hold `u32` / `u8`, which have no thread affinity. Moving the buffer to
// another thread therefore moves plain owned memory.
unsafe impl Send for Buffer {}
// SAFETY: through `&Buffer` the columns are written only by `Buffer::write`,
// whose caller holds a claim won on `claimed` for exactly the slots it
// writes, and read only below the length of an existing epoch — slots
// written before that epoch existed and never written again. No slot is
// ever written by two threads, or read while being written.
unsafe impl Sync for Buffer {}

impl Buffer {
    /// Writes `drafts` into slots `[at, at + drafts.len())` of every column.
    ///
    /// # Safety
    /// The caller must hold the claim on those slots, they must fit in
    /// `cap`, and every draft must carry one score per score column.
    unsafe fn write(&self, at: usize, drafts: &[RatingDraft]) {
        // SAFETY (all three columns): the caller's claim and capacity check
        // cover exactly these slots.
        unsafe {
            self.reviewers.write(at, drafts.iter().map(|d| d.reviewer));
            self.items.write(at, drafts.iter().map(|d| d.item));
        }
        for (dim, col) in self.scores.iter().enumerate() {
            // SAFETY: as above; the arity check makes `scores[dim]` exist.
            unsafe { col.write(at, drafts.iter().map(|d| d.scores[dim])) };
        }
    }
}

/// One epoch's rating columns: a shared append-only buffer plus this
/// epoch's record count. `clone` is an `Arc` bump, never a copy.
#[derive(Clone)]
pub(crate) struct RatingColumns {
    buf: Arc<Buffer>,
    len: usize,
}

impl RatingColumns {
    /// Takes over equally long columns as an epoch covering all of them.
    ///
    /// # Panics
    /// Panics if the columns disagree on length.
    pub(crate) fn from_vecs(reviewers: Vec<u32>, items: Vec<u32>, scores: Vec<Vec<u8>>) -> Self {
        let len = reviewers.len();
        assert!(
            items.len() == len && scores.iter().all(|col| col.len() == len),
            "rating columns disagree on record count"
        );
        let cap = scores
            .iter()
            .map(Vec::capacity)
            .chain([reviewers.capacity(), items.capacity()])
            .min()
            .unwrap_or(len);
        let buf = Buffer {
            claimed: AtomicUsize::new(len),
            cap,
            reviewers: Slots::from_vec(reviewers),
            items: Slots::from_vec(items),
            scores: scores.into_iter().map(Slots::from_vec).collect(),
        };
        Self {
            buf: Arc::new(buf),
            len,
        }
    }

    /// Number of records this epoch covers.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The reviewer-id column.
    #[inline]
    pub(crate) fn reviewers(&self) -> &[u32] {
        // SAFETY: slots below this epoch's length were written before the
        // epoch existed and are never written again (module invariant).
        unsafe { self.buf.reviewers.prefix(self.len) }
    }

    /// The item-id column.
    #[inline]
    pub(crate) fn items(&self) -> &[u32] {
        // SAFETY: as for `reviewers`.
        unsafe { self.buf.items.prefix(self.len) }
    }

    /// The score column of dimension `dim`.
    #[inline]
    pub(crate) fn scores(&self, dim: usize) -> &[u8] {
        // SAFETY: as for `reviewers`.
        unsafe { self.buf.scores[dim].prefix(self.len) }
    }

    /// The next epoch: these records followed by `drafts`, leaving `self`
    /// as it was. O(`drafts`) when `self` is the longest epoch of its
    /// buffer and the batch fits; otherwise one copy of this epoch's
    /// records into a new buffer of doubled capacity.
    ///
    /// # Panics
    /// Panics if a draft's score count differs from the column count.
    pub(crate) fn appended(&self, drafts: &[RatingDraft]) -> Self {
        let dims = self.buf.scores.len();
        assert!(
            drafts.iter().all(|d| d.scores.len() == dims),
            "draft score count differs from the table's dimensions"
        );
        if drafts.is_empty() {
            return self.clone();
        }
        let end = self
            .len
            .checked_add(drafts.len())
            .expect("record count overflows");
        // The claim only arbitrates between forks of one buffer; it
        // publishes no slot data, so `Relaxed` suffices. The batch reaches
        // other threads inside the new epoch, through whatever hands that
        // value over (a mutex, a thread join), which orders these writes
        // before any read of them.
        if end <= self.buf.cap
            && self
                .buf
                .claimed
                .compare_exchange(self.len, end, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            // SAFETY: the compare-exchange moved `claimed` from `self.len`
            // to `end`, so this thread alone claimed `[self.len, end)`; no
            // epoch covers those slots yet, `end <= cap`, and the arity is
            // checked above.
            unsafe { self.buf.write(self.len, drafts) };
            return Self {
                buf: Arc::clone(&self.buf),
                len: end,
            };
        }
        let cap = end.max(self.len.saturating_mul(2));
        let buf = Buffer {
            claimed: AtomicUsize::new(end),
            cap,
            reviewers: Slots::with_prefix(self.reviewers(), cap),
            items: Slots::with_prefix(self.items(), cap),
            scores: (0..dims)
                .map(|dim| Slots::with_prefix(self.scores(dim), cap))
                .collect(),
        };
        // SAFETY: `buf` is new and unshared, created with `[self.len, end)`
        // claimed for this call; `end <= cap` and the arity is checked.
        unsafe { buf.write(self.len, drafts) };
        Self {
            buf: Arc::new(buf),
            len: end,
        }
    }

    /// Whether `self` and `other` read the same buffer.
    #[cfg(test)]
    pub(crate) fn shares_buffer_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }
}

impl fmt::Debug for RatingColumns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RatingColumns")
            .field("len", &self.len)
            .field("capacity", &self.buf.cap)
            .field("dims", &self.buf.scores.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draft(r: u32, i: u32, s: u8) -> RatingDraft {
        RatingDraft::new(r, i, vec![s, s + 1])
    }

    fn columns(n: u32) -> RatingColumns {
        let reviewers: Vec<u32> = (0..n).collect();
        let items: Vec<u32> = (0..n).map(|i| i + 100).collect();
        let scores = vec![vec![1u8; n as usize], vec![2u8; n as usize]];
        RatingColumns::from_vecs(reviewers, items, scores)
    }

    #[test]
    fn an_append_to_the_longest_epoch_shares_its_buffer() {
        let base = columns(3).appended(&[draft(7, 8, 3)]);
        let next = base.appended(&[draft(9, 10, 4), draft(11, 12, 1)]);
        assert!(next.shares_buffer_with(&base));
        assert_eq!(next.reviewers(), &[0, 1, 2, 7, 9, 11]);
        assert_eq!(next.items(), &[100, 101, 102, 8, 10, 12]);
        assert_eq!(next.scores(0), &[1, 1, 1, 3, 4, 1]);
        assert_eq!(next.scores(1), &[2, 2, 2, 4, 5, 2]);
        // The parent still reads its own records only.
        assert_eq!(base.len(), 4);
        assert_eq!(base.reviewers(), &[0, 1, 2, 7]);
    }

    #[test]
    fn a_fork_from_a_shorter_epoch_copies() {
        let base = columns(3).appended(&[draft(7, 8, 3)]);
        let first = base.appended(&[draft(1, 1, 1)]);
        let second = base.appended(&[draft(2, 2, 2)]);
        assert!(first.shares_buffer_with(&base));
        assert!(!second.shares_buffer_with(&base));
        assert_eq!(first.reviewers(), &[0, 1, 2, 7, 1]);
        assert_eq!(second.reviewers(), &[0, 1, 2, 7, 2]);
        assert_eq!(second.scores(1), &[2, 2, 2, 4, 3]);
        // An empty batch is the same epoch, never a copy.
        assert!(base.appended(&[]).shares_buffer_with(&base));
    }

    #[test]
    fn a_full_buffer_grows_to_double_capacity() {
        let mut cols = columns(0);
        let mut copies = 0;
        for k in 0..1000u32 {
            let next = cols.appended(&[draft(k, k, 1)]);
            copies += usize::from(!next.shares_buffer_with(&cols));
            cols = next;
        }
        assert_eq!(cols.len(), 1000);
        assert_eq!(cols.reviewers(), (0..1000).collect::<Vec<u32>>());
        // Capacity 0 → 1 → 2 → 4 → … → 1024: eleven buffers for a
        // thousand appends.
        assert_eq!(copies, 11);
    }

    #[test]
    #[should_panic(expected = "score count")]
    fn a_draft_of_the_wrong_arity_panics_before_claiming() {
        columns(2).appended(&[RatingDraft::new(0, 0, vec![1])]);
    }
}
