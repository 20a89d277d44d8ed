//! Selection predicates and queries.
//!
//! A reviewer/item group is described by a set of attribute–value pairs
//! (Section 3.1); an exploration operation is a selection query — the union
//! of the reviewer-group and item-group descriptions (Section 4.3). Queries
//! support the edit operations the Recommendation Builder enumerates: add a
//! pair, remove a pair, change a pair's value.

use crate::schema::{AttrId, Entity};
use crate::value::ValueId;

/// One attribute–value predicate, e.g. `⟨city, NYC⟩` on the item side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrValue {
    /// Which entity table the attribute belongs to.
    pub entity: Entity,
    /// The attribute.
    pub attr: AttrId,
    /// The (dictionary-encoded) value. For multi-valued attributes the
    /// predicate is set-membership.
    pub value: ValueId,
}

impl AttrValue {
    /// Creates a predicate.
    pub fn new(entity: Entity, attr: AttrId, value: ValueId) -> Self {
        Self {
            entity,
            attr,
            value,
        }
    }
}

/// A conjunctive selection query over both entity tables.
///
/// The predicate list is kept sorted and duplicate-free, so queries have a
/// canonical form: two queries are equal iff they select the same groups.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SelectionQuery {
    preds: Vec<AttrValue>,
}

impl SelectionQuery {
    /// The empty query (selects everything).
    pub fn all() -> Self {
        Self::default()
    }

    /// Builds a query from predicates (deduplicated, canonicalized).
    pub fn from_preds(preds: impl IntoIterator<Item = AttrValue>) -> Self {
        let mut q = Self {
            preds: preds.into_iter().collect(),
        };
        q.canonicalize();
        q
    }

    /// Restores the canonical form: predicates sorted ascending with
    /// duplicates removed. Every constructor and edit maintains this
    /// invariant already, so this is a no-op on queries built through the
    /// public API; it exists so code that obtains a query from elsewhere
    /// (deserialization, manual construction) can re-establish the
    /// invariant before comparing or hashing the query.
    pub fn canonicalize(&mut self) {
        self.preds.sort_unstable();
        self.preds.dedup();
    }

    /// Whether the predicate list is in canonical form (strictly ascending).
    pub fn is_canonical(&self) -> bool {
        self.preds.windows(2).all(|w| w[0] < w[1])
    }

    /// A stable 64-bit digest of the canonical predicate list, suitable for
    /// result fingerprints and path signatures. Equal queries always
    /// collide; unequal queries collide with probability ~2⁻⁶⁴ (FNV-1a over
    /// the encoded predicates).
    pub fn fingerprint(&self) -> u64 {
        debug_assert!(self.is_canonical());
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.preds.len() as u64);
        for p in &self.preds {
            mix(match p.entity {
                Entity::Reviewer => 0,
                Entity::Item => 1,
            });
            mix(u64::from(p.attr.0));
            mix(u64::from(p.value.0));
        }
        h
    }

    /// All predicates in canonical order.
    pub fn preds(&self) -> &[AttrValue] {
        &self.preds
    }

    /// Predicates restricted to one entity.
    pub fn preds_of(&self, entity: Entity) -> impl Iterator<Item = &AttrValue> {
        self.preds.iter().filter(move |p| p.entity == entity)
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the query selects everything.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Whether the query contains this exact predicate.
    pub fn contains(&self, p: &AttrValue) -> bool {
        self.preds.binary_search(p).is_ok()
    }

    /// Whether the query constrains `(entity, attr)` (with any value).
    pub fn constrains(&self, entity: Entity, attr: AttrId) -> bool {
        self.preds
            .iter()
            .any(|p| p.entity == entity && p.attr == attr)
    }

    /// The value this query pins `(entity, attr)` to, if any.
    pub fn value_of(&self, entity: Entity, attr: AttrId) -> Option<ValueId> {
        self.preds
            .iter()
            .find(|p| p.entity == entity && p.attr == attr)
            .map(|p| p.value)
    }

    /// Adds a predicate in place (no-op if already present).
    pub fn add(&mut self, p: AttrValue) {
        if let Err(pos) = self.preds.binary_search(&p) {
            self.preds.insert(pos, p);
        }
    }

    /// Removes a predicate in place (no-op if absent).
    pub fn remove(&mut self, p: &AttrValue) {
        if let Ok(pos) = self.preds.binary_search(p) {
            self.preds.remove(pos);
        }
    }

    /// Returns a copy with `p` added (a *filter* / drill-down edit).
    pub fn with_added(&self, p: AttrValue) -> Self {
        let mut q = self.clone();
        q.add(p);
        q
    }

    /// Returns a copy with `p` removed (a *generalize* / roll-up edit).
    pub fn with_removed(&self, p: &AttrValue) -> Self {
        let mut q = self.clone();
        q.remove(p);
        q
    }

    /// Returns a copy with the value of `(entity, attr)` changed to
    /// `new_value` (a *change* edit, counting as two diffs: one removal plus
    /// one addition).
    ///
    /// Returns `None` if the query does not constrain `(entity, attr)`.
    pub fn with_changed(&self, entity: Entity, attr: AttrId, new_value: ValueId) -> Option<Self> {
        let old = self
            .preds
            .iter()
            .find(|p| p.entity == entity && p.attr == attr)
            .copied()?;
        let mut q = self.clone();
        q.remove(&old);
        q.add(AttrValue::new(entity, attr, new_value));
        Some(q)
    }

    /// If `child` is a **strict superset** of `self` (a pure drill-down
    /// edit), returns the added predicates (at least one), so callers can
    /// derive the child's group by filtering the parent's columns. Returns
    /// `None` if any of `self`'s predicates is missing from `child`, or if
    /// the queries are equal.
    ///
    /// Both queries are canonical (sorted, deduplicated), so this is a
    /// single two-pointer merge pass.
    pub fn added_preds(&self, child: &Self) -> Option<Vec<AttrValue>> {
        if child.preds.len() <= self.preds.len() {
            return None;
        }
        let mut added = Vec::with_capacity(child.preds.len() - self.preds.len());
        let mut mine = self.preds.iter().peekable();
        for p in &child.preds {
            match mine.peek() {
                Some(&m) if m == p => {
                    mine.next();
                }
                _ => added.push(*p),
            }
        }
        // Every ancestor predicate must have been matched in order.
        if mine.next().is_some() {
            return None;
        }
        Some(added)
    }

    /// Size of the symmetric difference of the two predicate sets — the
    /// paper's measure of how far a candidate operation strays from the
    /// current query ("differ in at most 2 attribute-value pairs").
    pub fn diff_size(&self, other: &Self) -> usize {
        let mut diff = 0;
        for p in &self.preds {
            if !other.contains(p) {
                diff += 1;
            }
        }
        for p in &other.preds {
            if !self.contains(p) {
                diff += 1;
            }
        }
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(entity: Entity, attr: u16, value: u32) -> AttrValue {
        AttrValue::new(entity, AttrId(attr), ValueId(value))
    }

    #[test]
    fn canonical_form() {
        let a = SelectionQuery::from_preds(vec![
            p(Entity::Item, 1, 2),
            p(Entity::Reviewer, 0, 0),
            p(Entity::Item, 1, 2), // dup
        ]);
        let b = SelectionQuery::from_preds(vec![p(Entity::Reviewer, 0, 0), p(Entity::Item, 1, 2)]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn contains_and_constrains() {
        let q = SelectionQuery::from_preds(vec![p(Entity::Item, 1, 2)]);
        assert!(q.contains(&p(Entity::Item, 1, 2)));
        assert!(!q.contains(&p(Entity::Item, 1, 3)));
        assert!(q.constrains(Entity::Item, AttrId(1)));
        assert!(!q.constrains(Entity::Reviewer, AttrId(1)));
        assert_eq!(q.value_of(Entity::Item, AttrId(1)), Some(ValueId(2)));
    }

    #[test]
    fn edit_operations() {
        let q = SelectionQuery::from_preds(vec![p(Entity::Item, 0, 0)]);
        let added = q.with_added(p(Entity::Reviewer, 1, 5));
        assert_eq!(added.len(), 2);
        assert_eq!(q.diff_size(&added), 1);

        let removed = q.with_removed(&p(Entity::Item, 0, 0));
        assert!(removed.is_empty());
        assert_eq!(q.diff_size(&removed), 1);

        let changed = q.with_changed(Entity::Item, AttrId(0), ValueId(9)).unwrap();
        assert_eq!(changed.len(), 1);
        assert_eq!(q.diff_size(&changed), 2, "change counts as two diffs");

        assert!(q
            .with_changed(Entity::Reviewer, AttrId(0), ValueId(1))
            .is_none());
    }

    #[test]
    fn diff_size_symmetric() {
        let a = SelectionQuery::from_preds(vec![p(Entity::Item, 0, 0), p(Entity::Item, 1, 1)]);
        let b = SelectionQuery::from_preds(vec![p(Entity::Item, 0, 0), p(Entity::Item, 2, 2)]);
        assert_eq!(a.diff_size(&b), 2);
        assert_eq!(b.diff_size(&a), 2);
        assert_eq!(a.diff_size(&a), 0);
    }

    #[test]
    fn preds_of_filters_entity() {
        let q = SelectionQuery::from_preds(vec![
            p(Entity::Item, 0, 0),
            p(Entity::Reviewer, 0, 1),
            p(Entity::Item, 2, 2),
        ]);
        assert_eq!(q.preds_of(Entity::Item).count(), 2);
        assert_eq!(q.preds_of(Entity::Reviewer).count(), 1);
    }

    #[test]
    fn canonicalize_restores_invariant() {
        // Bypass the constructors to simulate a query whose predicate
        // order was lost (e.g. built by hand), then re-canonicalize.
        let mut q =
            SelectionQuery::from_preds(vec![p(Entity::Item, 1, 2), p(Entity::Reviewer, 0, 0)]);
        assert!(q.is_canonical());
        q.canonicalize(); // idempotent
        assert!(q.is_canonical());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn fingerprint_is_order_insensitive_and_discriminating() {
        let a = SelectionQuery::from_preds(vec![p(Entity::Item, 1, 2), p(Entity::Reviewer, 0, 0)]);
        let b = SelectionQuery::from_preds(vec![
            p(Entity::Reviewer, 0, 0),
            p(Entity::Item, 1, 2),
            p(Entity::Item, 1, 2), // dup
        ]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = a.with_added(p(Entity::Item, 3, 0));
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(SelectionQuery::all().fingerprint(), a.fingerprint());
    }

    #[test]
    fn added_preds_detects_any_superset() {
        let ancestor = SelectionQuery::from_preds(vec![p(Entity::Item, 0, 0)]);
        let a = p(Entity::Reviewer, 1, 5);
        let b = p(Entity::Item, 2, 3);
        let child = ancestor.with_added(a).with_added(b);
        assert_eq!(ancestor.added_preds(&child), Some(vec![a, b]));
        assert_eq!(
            SelectionQuery::all().added_preds(&child),
            Some(child.preds().to_vec()),
            "from the empty query every predicate is an addition"
        );
        // Not supersets: equality, removal, change.
        assert_eq!(ancestor.added_preds(&ancestor), None);
        assert_eq!(child.added_preds(&ancestor), None);
        let changed = ancestor
            .with_changed(Entity::Item, AttrId(0), ValueId(3))
            .unwrap();
        assert_eq!(ancestor.added_preds(&changed), None);
        // One addition, sorting before the existing predicate.
        let early = p(Entity::Reviewer, 0, 0);
        assert_eq!(
            ancestor.added_preds(&ancestor.with_added(early)),
            Some(vec![early])
        );
        // Same length plus one, but a predicate was swapped.
        let swapped = SelectionQuery::from_preds(vec![p(Entity::Item, 0, 1), a, b]);
        assert_eq!(ancestor.added_preds(&swapped), None);
    }

    #[test]
    fn add_remove_idempotent() {
        let mut q = SelectionQuery::all();
        q.add(p(Entity::Item, 0, 0));
        q.add(p(Entity::Item, 0, 0));
        assert_eq!(q.len(), 1);
        q.remove(&p(Entity::Item, 0, 0));
        q.remove(&p(Entity::Item, 0, 0));
        assert!(q.is_empty());
    }
}
