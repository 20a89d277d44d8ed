//! Reviewer groups, item groups, and rating groups.
//!
//! A reviewer/item group is the set of rows matching a description (a set of
//! attribute–value pairs); the rating group for `(g_U, g_I)` contains every
//! rating record whose reviewer is in `g_U` and item in `g_I` (Section 3.1).
//!
//! Rating groups also own the *phase order*: the phase-based execution
//! framework (Algorithm 1) consumes the group in `n` equal fractions of a
//! uniformly random permutation, which is what makes the running criterion
//! estimates samples-without-replacement and the Hoeffding–Serfling bound
//! applicable.

use crate::bitset::BitSet;
use crate::ratings::RecordId;
use crate::scan::GroupColumns;
use crate::schema::Entity;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::ops::Range;

/// A set of reviewer or item rows selected by a description.
#[derive(Debug, Clone)]
pub struct EntityGroup {
    entity: Entity,
    members: BitSet,
}

impl EntityGroup {
    /// Wraps a member bitset.
    pub fn new(entity: Entity, members: BitSet) -> Self {
        Self { entity, members }
    }

    /// Which entity table this group selects from.
    pub fn entity(&self) -> Entity {
        self.entity
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, row: u32) -> bool {
        self.members.contains(row)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The underlying bitset.
    pub fn members(&self) -> &BitSet {
        &self.members
    }

    /// Member rows in ascending order.
    pub fn rows(&self) -> Vec<u32> {
        self.members.to_vec()
    }
}

/// A materialized rating group: the record ids linking a reviewer group to
/// an item group, in a deterministic shuffled order.
#[derive(Debug, Clone)]
pub struct RatingGroup {
    records: Vec<RecordId>,
    /// Pre-gathered `reviewer_of` column in phase order, when the group was
    /// built from [`GroupColumns`].
    reviewer_rows: Option<Vec<u32>>,
    /// Pre-gathered `item_of` column in phase order.
    item_rows: Option<Vec<u32>>,
}

impl RatingGroup {
    /// Creates a rating group and fixes its phase order by shuffling with
    /// the given seed. The shuffle is what turns phase-by-phase consumption
    /// into sampling without replacement.
    pub fn new(mut records: Vec<RecordId>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        records.shuffle(&mut rng);
        Self {
            records,
            reviewer_rows: None,
            item_rows: None,
        }
    }

    /// Creates a rating group preserving the given order (tests, replays).
    pub fn with_order(records: Vec<RecordId>) -> Self {
        Self {
            records,
            reviewer_rows: None,
            item_rows: None,
        }
    }

    /// Creates a rating group from pre-gathered columns, applying this
    /// caller's phase-order shuffle to all three columns at once.
    ///
    /// The shuffle permutes an index vector with the given seed and gathers
    /// through it; because the vendored Fisher–Yates draws depend only on
    /// slice length, the resulting record order is byte-identical to
    /// [`RatingGroup::new`] with the same records and seed. This is what
    /// lets one gather (walked, probed or derived) serve any step seed.
    pub fn from_columns(cols: &GroupColumns, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<u32> = (0..cols.records.len() as u32).collect();
        perm.shuffle(&mut rng);
        let records = perm.iter().map(|&i| cols.records[i as usize]).collect();
        let reviewer_rows = perm
            .iter()
            .map(|&i| cols.reviewer_rows[i as usize])
            .collect();
        let item_rows = perm.iter().map(|&i| cols.item_rows[i as usize]).collect();
        Self {
            records,
            reviewer_rows: Some(reviewer_rows),
            item_rows: Some(item_rows),
        }
    }

    /// The pre-gathered entity-row column of one side, in phase order, if
    /// the group was built from [`GroupColumns`].
    pub fn entity_rows(&self, entity: Entity) -> Option<&[u32]> {
        match entity {
            Entity::Reviewer => self.reviewer_rows.as_deref(),
            Entity::Item => self.item_rows.as_deref(),
        }
    }

    /// Whether the group carries pre-gathered entity-row columns.
    pub fn has_entity_rows(&self) -> bool {
        self.reviewer_rows.is_some() && self.item_rows.is_some()
    }

    /// All records in phase order.
    pub fn records(&self) -> &[RecordId] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Splits the group into `n` near-equal consecutive fractions — the
    /// `D_i` of Algorithm 1. Earlier fractions are never smaller than later
    /// ones by more than one record; empty trailing fractions occur when
    /// `n > len`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn phases(&self, n: usize) -> Vec<&[RecordId]> {
        self.phase_ranges(n)
            .into_iter()
            .map(|r| &self.records[r])
            .collect()
    }

    /// The index ranges of the `n` phase fractions — same partition as
    /// [`phases`](Self::phases), but as ranges so callers can slice every
    /// gathered column of the group, not just the record ids.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn phase_ranges(&self, n: usize) -> Vec<Range<usize>> {
        assert!(n > 0, "at least one phase");
        let len = self.records.len();
        let base = len / n;
        let extra = len % n;
        let mut out = Vec::with_capacity(n);
        let mut start = 0;
        for i in 0..n {
            let size = base + usize::from(i < extra);
            out.push(start..start + size);
            start += size;
        }
        debug_assert_eq!(start, len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_group_basics() {
        let g = EntityGroup::new(Entity::Reviewer, BitSet::from_ids(10, &[1, 3, 7]));
        assert_eq!(g.entity(), Entity::Reviewer);
        assert_eq!(g.len(), 3);
        assert!(g.contains(3));
        assert!(!g.contains(2));
        assert_eq!(g.rows(), vec![1, 3, 7]);
    }

    #[test]
    fn shuffle_is_deterministic() {
        let a = RatingGroup::new((0..100).collect(), 7);
        let b = RatingGroup::new((0..100).collect(), 7);
        let c = RatingGroup::new((0..100).collect(), 8);
        assert_eq!(a.records(), b.records());
        assert_ne!(a.records(), c.records(), "different seed, different order");
        let mut sorted = a.records().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>(), "permutation");
    }

    #[test]
    fn phases_partition_everything() {
        let g = RatingGroup::new((0..103).collect(), 1);
        let phases = g.phases(10);
        assert_eq!(phases.len(), 10);
        let total: usize = phases.iter().map(|p| p.len()).sum();
        assert_eq!(total, 103);
        // Sizes differ by at most one and are non-increasing.
        let sizes: Vec<usize> = phases.iter().map(|p| p.len()).collect();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        assert!(sizes[0] - sizes[9] <= 1);
    }

    #[test]
    fn phases_more_than_records() {
        let g = RatingGroup::new(vec![5, 6], 1);
        let phases = g.phases(5);
        let total: usize = phases.iter().map(|p| p.len()).sum();
        assert_eq!(total, 2);
        assert_eq!(phases.iter().filter(|p| p.is_empty()).count(), 3);
    }

    #[test]
    fn empty_group_phases() {
        let g = RatingGroup::new(vec![], 1);
        assert!(g.is_empty());
        let phases = g.phases(10);
        assert!(phases.iter().all(|p| p.is_empty()));
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn zero_phases_panics() {
        let g = RatingGroup::new(vec![1], 1);
        let _ = g.phases(0);
    }

    #[test]
    fn with_order_preserves() {
        let g = RatingGroup::with_order(vec![9, 1, 5]);
        assert_eq!(g.records(), &[9, 1, 5]);
        assert!(!g.has_entity_rows());
        assert!(g.entity_rows(Entity::Reviewer).is_none());
    }

    #[test]
    fn from_columns_matches_in_place_shuffle() {
        // The keystone of gathered columns: permuting an index vector and
        // gathering must produce byte-identical record order to shuffling
        // the records in place with the same seed.
        for n in [0usize, 1, 2, 17, 100, 257] {
            let records: Vec<RecordId> = (0..n as u32).map(|i| i * 3 + 1).collect();
            let cols = GroupColumns {
                records: records.clone(),
                reviewer_rows: (0..n as u32).map(|i| i * 7).collect(),
                item_rows: (0..n as u32).map(|i| i + 42).collect(),
            };
            for seed in [0u64, 7, 0xdead_beef] {
                let direct = RatingGroup::new(records.clone(), seed);
                let gathered = RatingGroup::from_columns(&cols, seed);
                assert_eq!(direct.records(), gathered.records(), "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn from_columns_rows_track_records() {
        let records: Vec<RecordId> = (0..50).collect();
        let cols = GroupColumns {
            records: records.clone(),
            reviewer_rows: records.iter().map(|&r| r * 2).collect(),
            item_rows: records.iter().map(|&r| r + 100).collect(),
        };
        let g = RatingGroup::from_columns(&cols, 3);
        assert!(g.has_entity_rows());
        let rev = g.entity_rows(Entity::Reviewer).unwrap();
        let item = g.entity_rows(Entity::Item).unwrap();
        for (i, &rec) in g.records().iter().enumerate() {
            assert_eq!(rev[i], rec * 2, "reviewer row must follow its record");
            assert_eq!(item[i], rec + 100, "item row must follow its record");
        }
    }

    #[test]
    fn phase_ranges_match_phases() {
        let g = RatingGroup::new((0..103).collect(), 1);
        for n in [1, 3, 10, 200] {
            let ranges = g.phase_ranges(n);
            let phases = g.phases(n);
            assert_eq!(ranges.len(), phases.len());
            for (r, p) in ranges.into_iter().zip(phases) {
                assert_eq!(&g.records()[r], p);
            }
        }
    }
}
