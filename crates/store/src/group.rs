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
use crate::ratings::{RatingTable, RecordId};
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
/// an item group, in a deterministic shuffled order, with each record's
/// reviewer and item rows gathered alongside for the scan kernels.
#[derive(Debug, Clone)]
pub struct RatingGroup {
    records: Vec<RecordId>,
    /// `reviewer_of` of each record, in phase order.
    reviewer_rows: Vec<u32>,
    /// `item_of` of each record, in phase order.
    item_rows: Vec<u32>,
}

impl RatingGroup {
    /// Creates a rating group and fixes its phase order by shuffling with
    /// the given seed, then gathers both entity-row columns from `ratings`.
    /// The shuffle is what turns phase-by-phase consumption into sampling
    /// without replacement.
    pub fn new(ratings: &RatingTable, mut records: Vec<RecordId>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        records.shuffle(&mut rng);
        Self::with_order(ratings, records)
    }

    /// Creates a rating group preserving the given order (tests, replays).
    pub fn with_order(ratings: &RatingTable, records: Vec<RecordId>) -> Self {
        let GroupColumns {
            records,
            reviewer_rows,
            item_rows,
        } = GroupColumns::gather(ratings, records);
        Self {
            records,
            reviewer_rows,
            item_rows,
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
            reviewer_rows,
            item_rows,
        }
    }

    /// The entity-row column of one side, in phase order: `rows[i]` is the
    /// reviewer or item row of `records()[i]`.
    pub fn entity_rows(&self, entity: Entity) -> &[u32] {
        match entity {
            Entity::Reviewer => &self.reviewer_rows,
            Entity::Item => &self.item_rows,
        }
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
    /// `D_i` of Algorithm 1 — as index ranges, so callers can slice every
    /// gathered column of the group, not just the record ids. Earlier
    /// fractions are never smaller than later ones by more than one
    /// record; empty trailing fractions occur when `n > len`.
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

    /// A table of `n` records; record `i` links reviewer `i % 7` to item
    /// `i % 5`.
    fn table(n: u32) -> RatingTable {
        let mut b = crate::ratings::RatingTableBuilder::new(vec!["overall".into()], 5);
        for i in 0..n {
            b.push(i % 7, i % 5, &[1 + (i % 5) as u8]);
        }
        b.build(7, 5)
    }

    /// The records of each phase fraction.
    fn phases(g: &RatingGroup, n: usize) -> Vec<&[RecordId]> {
        g.phase_ranges(n)
            .into_iter()
            .map(|r| &g.records()[r])
            .collect()
    }

    #[test]
    fn shuffle_is_deterministic() {
        let t = table(100);
        let a = RatingGroup::new(&t, (0..100).collect(), 7);
        let b = RatingGroup::new(&t, (0..100).collect(), 7);
        let c = RatingGroup::new(&t, (0..100).collect(), 8);
        assert_eq!(a.records(), b.records());
        assert_ne!(a.records(), c.records(), "different seed, different order");
        let mut sorted = a.records().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>(), "permutation");
    }

    #[test]
    fn phases_partition_everything() {
        let g = RatingGroup::new(&table(103), (0..103).collect(), 1);
        let phases = phases(&g, 10);
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
        let g = RatingGroup::new(&table(7), vec![5, 6], 1);
        let phases = phases(&g, 5);
        let total: usize = phases.iter().map(|p| p.len()).sum();
        assert_eq!(total, 2);
        assert_eq!(phases.iter().filter(|p| p.is_empty()).count(), 3);
    }

    #[test]
    fn empty_group_phases() {
        let g = RatingGroup::new(&table(0), vec![], 1);
        assert!(g.is_empty());
        assert!(phases(&g, 10).iter().all(|p| p.is_empty()));
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn zero_phases_panics() {
        let g = RatingGroup::new(&table(2), vec![1], 1);
        let _ = g.phase_ranges(0);
    }

    #[test]
    fn with_order_preserves() {
        let t = table(10);
        let g = RatingGroup::with_order(&t, vec![9, 1, 5]);
        assert_eq!(g.records(), &[9, 1, 5]);
        assert_eq!(g.entity_rows(Entity::Reviewer), &[2, 1, 5]);
        assert_eq!(g.entity_rows(Entity::Item), &[4, 1, 0]);
    }

    #[test]
    fn from_columns_matches_in_place_shuffle() {
        // The keystone of gathered columns: permuting an index vector and
        // gathering must produce byte-identical record order to shuffling
        // the records in place with the same seed.
        for n in [0u32, 1, 2, 17, 100, 257] {
            let t = table(3 * n + 1);
            let records: Vec<RecordId> = (0..n).map(|i| i * 3 + 1).collect();
            let cols = GroupColumns::gather(&t, records.clone());
            for seed in [0u64, 7, 0xdead_beef] {
                let direct = RatingGroup::new(&t, records.clone(), seed);
                let gathered = RatingGroup::from_columns(&cols, seed);
                assert_eq!(direct.records(), gathered.records(), "n={n} seed={seed}");
                for e in [Entity::Reviewer, Entity::Item] {
                    assert_eq!(direct.entity_rows(e), gathered.entity_rows(e));
                }
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
        let rev = g.entity_rows(Entity::Reviewer);
        let item = g.entity_rows(Entity::Item);
        for (i, &rec) in g.records().iter().enumerate() {
            assert_eq!(rev[i], rec * 2, "reviewer row must follow its record");
            assert_eq!(item[i], rec + 100, "item row must follow its record");
        }
    }

    #[test]
    fn phase_ranges_match_phases() {
        // The ranges tile the group in order: concatenating the phase
        // fractions gives back every record, each exactly once.
        let g = RatingGroup::new(&table(103), (0..103).collect(), 1);
        for n in [1, 3, 10, 200] {
            let ranges = g.phase_ranges(n);
            assert_eq!(ranges.len(), n);
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
            assert_eq!(phases(&g, n).concat(), g.records());
        }
    }
}
