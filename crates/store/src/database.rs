//! The subjective database `D = ⟨I, U, R⟩`.
//!
//! [`SubjectiveDb`] owns the two entity tables, the rating table, and one
//! compressed posting index per entity ([`CompressedIndex`]). It answers
//! the two queries the exploration engine needs: *select an entity group*
//! (conjunction of attribute–value predicates) and *materialize the rating
//! group* linking a reviewer group to an item group — choosing per query
//! between an adjacency walk and a kernel-driven full-scan membership
//! probe ([`GroupRoute`]) using exact cardinalities read off the
//! containers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use subdex_stats::kernels;

use crate::cindex::CompressedIndex;
use crate::group::{EntityGroup, RatingGroup};
use crate::predicate::{AttrValue, SelectionQuery};
use crate::ratings::{RatingTable, RecordId};
use crate::scan::GroupColumns;
use crate::schema::{AttrId, Entity, Schema};
use crate::table::EntityTable;
use crate::value::{Value, ValueId};

/// Summary statistics of a database, mirroring Table 2 of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbStats {
    /// Total number of objective attributes (reviewer + item side).
    pub attr_count: usize,
    /// Largest dictionary size over all attributes.
    pub max_values: usize,
    /// Number of rating dimensions.
    pub dim_count: usize,
    /// |R| — number of rating records.
    pub rating_count: usize,
    /// |U| — number of reviewers.
    pub reviewer_count: usize,
    /// |I| — number of items.
    pub item_count: usize,
}

/// Which strategy materialized a rating group — the planner's routing
/// decision, taken per query from exact container cardinalities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupRoute {
    /// No predicates: the group is every record, emitted directly.
    Full,
    /// Adjacency walk from the cheaper constrained entity side, filtered
    /// by the other side's member set, then sorted to canonical order.
    Walk,
    /// Branch-free membership probe over the full rating reviewer/item
    /// columns against the sides' bitmap words — O(|R|) with no sort
    /// (record ids fall out ascending), which beats the walk when the
    /// selected members touch a large share of the table.
    Probe,
}

/// Lifetime query counters of one database's index layer. Shared across
/// database clones and epochs through an `Arc`, so the persistence layer's
/// publish of a new epoch does not reset them.
#[derive(Debug, Default)]
struct IndexCounters {
    /// Conjunctive container intersections served by `select_group`.
    intersections: AtomicU64,
    /// Groups materialized via [`GroupRoute::Walk`].
    route_walk: AtomicU64,
    /// Groups materialized via [`GroupRoute::Probe`].
    route_probe: AtomicU64,
}

/// Point-in-time index-layer statistics: container census and byte
/// footprint (both entity sides merged) plus lifetime routing counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Values encoded as sorted arrays.
    pub array_containers: usize,
    /// Values encoded as packed bitmaps.
    pub bitmap_containers: usize,
    /// Resident container payload bytes.
    pub resident_bytes: usize,
    /// What flat `Vec<u32>` posting lists would cost for the same postings.
    pub flat_bytes: usize,
    /// Container intersections served.
    pub intersections: u64,
    /// Groups materialized by adjacency walk.
    pub route_walk: u64,
    /// Groups materialized by full-scan probe.
    pub route_probe: u64,
}

/// An in-memory subjective database with query indexes.
///
/// The database is immutable through shared references; the only mutation
/// is [`append_ratings`](Self::append_ratings), which requires `&mut self`
/// and bumps the [`epoch`](Self::epoch). Holders of an `Arc<SubjectiveDb>`
/// therefore always see an epoch-consistent view: the persistence layer
/// publishes an append by building the next epoch beside the current one
/// ([`with_appended`](Self::with_appended)) and swapping the `Arc`.
///
/// Appends add ratings, never entities, so the entity tables and their
/// posting indexes sit behind `Arc`s that every epoch (and every `clone`)
/// of one database shares. The rating columns are append-only buffers the
/// epochs share too, each epoch reading its own prefix; only the rating
/// table's length and adjacency tail are per-epoch.
#[derive(Debug, Clone)]
pub struct SubjectiveDb {
    reviewers: Arc<EntityTable>,
    items: Arc<EntityTable>,
    ratings: RatingTable,
    reviewer_index: Arc<CompressedIndex>,
    item_index: Arc<CompressedIndex>,
    /// Lifetime query counters, shared across clones (see [`IndexCounters`]).
    counters: Arc<IndexCounters>,
    /// Bumped on every rating append; the distance cache keys its validity
    /// to this.
    epoch: u64,
}

impl SubjectiveDb {
    /// Assembles a database and builds both posting indexes.
    ///
    /// # Panics
    /// Panics if any rating record references an out-of-range reviewer or
    /// item (enforced earlier by `RatingTableBuilder::build`, re-checked
    /// here defensively in debug builds).
    pub fn new(reviewers: EntityTable, items: EntityTable, ratings: RatingTable) -> Self {
        debug_assert!(ratings
            .reviewer_column()
            .iter()
            .all(|&r| (r as usize) < reviewers.len()));
        debug_assert!(ratings
            .item_column()
            .iter()
            .all(|&i| (i as usize) < items.len()));
        let reviewer_index = CompressedIndex::build(&reviewers);
        let item_index = CompressedIndex::build(&items);
        Self {
            reviewers: Arc::new(reviewers),
            items: Arc::new(items),
            ratings,
            reviewer_index: Arc::new(reviewer_index),
            item_index: Arc::new(item_index),
            counters: Arc::new(IndexCounters::default()),
            epoch: 0,
        }
    }

    /// Reassembles a database from already-validated parts plus persisted
    /// compressed indexes (the snapshot-load path, which skips index
    /// rebuilding). Cross-checks that the indexes cover the tables and that
    /// every rating references a real entity row.
    pub fn from_parts(
        reviewers: EntityTable,
        items: EntityTable,
        ratings: RatingTable,
        reviewer_index: CompressedIndex,
        item_index: CompressedIndex,
        epoch: u64,
    ) -> Result<Self, crate::error::StoreError> {
        use crate::error::StoreError;
        if reviewer_index.rows() != reviewers.len() || item_index.rows() != items.len() {
            return Err(StoreError::invalid(
                "index row count disagrees with its entity table",
            ));
        }
        if ratings
            .reviewer_column()
            .iter()
            .any(|&r| (r as usize) >= reviewers.len())
            || ratings
                .item_column()
                .iter()
                .any(|&i| (i as usize) >= items.len())
        {
            return Err(StoreError::invalid(
                "rating references a missing entity row",
            ));
        }
        Ok(Self {
            reviewers: Arc::new(reviewers),
            items: Arc::new(items),
            ratings,
            reviewer_index: Arc::new(reviewer_index),
            item_index: Arc::new(item_index),
            counters: Arc::new(IndexCounters::default()),
            epoch,
        })
    }

    /// The append epoch: 0 for a freshly built database, bumped by every
    /// [`append_ratings`](Self::append_ratings) /
    /// [`with_appended`](Self::with_appended). Caches of derived group
    /// state are valid only for the epoch they were built against.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Validates drafts against this database without mutating anything
    /// (arity, scale, and that both entity rows exist). The persistence
    /// layer calls this before making a WAL record durable.
    pub fn check_ratings(
        &self,
        drafts: &[crate::ratings::RatingDraft],
    ) -> Result<(), crate::error::StoreError> {
        self.ratings
            .check_drafts(drafts, self.reviewers.len(), self.items.len())
    }

    /// Appends rating records in place and bumps the epoch (the WAL-replay
    /// path; a published database grows through
    /// [`with_appended`](Self::with_appended) instead). The new records join
    /// the rating table's adjacency tail — see
    /// [`RatingTable::append_drafts`] for when the adjacency base is
    /// rebuilt. The entity tables and their posting indexes are untouched —
    /// appends add ratings, not entities — but gather columns built before
    /// this returns describe superseded data; callers holding a
    /// `DistanceCache` invalidate it via the new epoch.
    pub fn append_ratings(
        &mut self,
        drafts: &[crate::ratings::RatingDraft],
    ) -> Result<(), crate::error::StoreError> {
        self.check_ratings(drafts)?;
        self.ratings
            .append_drafts(drafts, self.reviewers.len(), self.items.len());
        self.epoch += 1;
        Ok(())
    }

    /// The next epoch of this database — its records followed by
    /// `drafts` — leaving `self` untouched for whoever still reads it: it
    /// is `clone()` followed by [`append_ratings`](Self::append_ratings).
    /// Costs O(`drafts`) plus amortized O(1) per record of column growth
    /// and re-indexing: both entity tables, both posting indexes, the query
    /// counters, the rating column buffer and (until the tail outgrows it)
    /// the adjacency base are shared with `self`, not copied. The batch
    /// goes into the column slots past `self`'s records; only a fork from
    /// an epoch that another append has already extended copies the
    /// columns (see [`RatingTable::append_drafts`]).
    pub fn with_appended(
        &self,
        drafts: &[crate::ratings::RatingDraft],
    ) -> Result<Self, crate::error::StoreError> {
        let mut next = self.clone();
        next.append_ratings(drafts)?;
        Ok(next)
    }

    /// The reviewer table `U`.
    pub fn reviewers(&self) -> &EntityTable {
        &self.reviewers
    }

    /// The item table `I`.
    pub fn items(&self) -> &EntityTable {
        &self.items
    }

    /// The rating table `R`.
    pub fn ratings(&self) -> &RatingTable {
        &self.ratings
    }

    /// The entity table for `entity`.
    pub fn table(&self, entity: Entity) -> &EntityTable {
        match entity {
            Entity::Reviewer => &self.reviewers,
            Entity::Item => &self.items,
        }
    }

    /// The schema for `entity`.
    pub fn schema(&self, entity: Entity) -> &Schema {
        self.table(entity).schema()
    }

    /// The compressed posting index for `entity`.
    #[allow(clippy::should_implement_trait)] // domain term, not ops::Index
    pub fn index(&self, entity: Entity) -> &CompressedIndex {
        match entity {
            Entity::Reviewer => &self.reviewer_index,
            Entity::Item => &self.item_index,
        }
    }

    /// Index-layer statistics: container census and bytes of both entity
    /// sides merged, plus the lifetime intersection/routing counters —
    /// what the service's per-snapshot metrics line renders.
    pub fn index_stats(&self) -> IndexStats {
        let c = self.reviewer_index.stats().merge(&self.item_index.stats());
        IndexStats {
            array_containers: c.arrays,
            bitmap_containers: c.bitmaps,
            resident_bytes: c.resident_bytes,
            flat_bytes: c.flat_bytes,
            intersections: self.counters.intersections.load(Ordering::Relaxed),
            route_walk: self.counters.route_walk.load(Ordering::Relaxed),
            route_probe: self.counters.route_probe.load(Ordering::Relaxed),
        }
    }

    /// Table-2-style statistics.
    pub fn stats(&self) -> DbStats {
        let max_values = Entity::Reviewer
            .into_iter_with(Entity::Item)
            .flat_map(|e| {
                let t = self.table(e);
                t.schema()
                    .attr_ids()
                    .map(|a| t.dictionary(a).len())
                    .collect::<Vec<_>>()
            })
            .max()
            .unwrap_or(0);
        DbStats {
            attr_count: self.reviewers.schema().len() + self.items.schema().len(),
            max_values,
            dim_count: self.ratings.dim_count(),
            rating_count: self.ratings.len(),
            reviewer_count: self.reviewers.len(),
            item_count: self.items.len(),
        }
    }

    /// Selects the entity group matching the `entity`-side predicates of
    /// `query` by container intersection. No predicates on that side ⇒
    /// the full table.
    pub fn select_group(&self, entity: Entity, query: &SelectionQuery) -> EntityGroup {
        let table = self.table(entity);
        let index = self.index(entity);
        let preds: Vec<(AttrId, ValueId)> =
            query.preds_of(entity).map(|p| (p.attr, p.value)).collect();
        if !preds.is_empty() {
            self.counters.intersections.fetch_add(1, Ordering::Relaxed);
        }
        let members = index.intersect(&preds).into_bitset(table.len());
        EntityGroup::new(entity, members)
    }

    /// Materializes the rating group for `query`: all records whose
    /// reviewer and item match the respective sides, with their entity-row
    /// columns gathered. `seed` fixes the phase order (see
    /// [`RatingGroup::new`]).
    pub fn rating_group(&self, query: &SelectionQuery, seed: u64) -> RatingGroup {
        RatingGroup::new(&self.ratings, self.collect_group_records(query), seed)
    }

    /// The record ids matched by `query`, in **canonical ascending order**
    /// (the pre-shuffle order [`rating_group`](Self::rating_group) starts
    /// from). Convenience wrapper over
    /// [`collect_group_records_routed`](Self::collect_group_records_routed)
    /// that drops the route.
    pub fn collect_group_records(&self, query: &SelectionQuery) -> Vec<RecordId> {
        self.collect_group_records_routed(query, None).0
    }

    /// Like [`collect_group_records`](Self::collect_group_records), but
    /// reports which [`GroupRoute`] materialized the group, and lets tests
    /// pin the route with `forced`.
    ///
    /// Routing: with no predicates the group is all records
    /// ([`GroupRoute::Full`]). Otherwise exact cardinalities from the
    /// entity selections price two plans. The **walk**
    /// ([`GroupRoute::Walk`]) enumerates the cheaper constrained side's
    /// adjacency lists filtered by the other side's bitset, then sorts —
    /// unbeatable when the selection is tight. The **probe**
    /// ([`GroupRoute::Probe`]) runs the branch-free `filter_rows` kernel
    /// over the full rating reviewer/item columns against the sides'
    /// bitmap words — O(|R|) with no sort, since record ids fall out
    /// ascending. The probe wins once `10 × walk_cost > |R| × sides`
    /// (`sides` = number of constrained entity sides): per record the walk
    /// pays a pointer-chasing adjacency touch, a cross-side bitset
    /// rejection test, and its share of the final `sort_unstable`, an
    /// order of magnitude more than the probe's sequential word lookup —
    /// of which the probe does one per constrained side (calibrated by the
    /// retired index-path benchmark).
    ///
    /// Byte-identity: both routes produce canonical ascending record-id
    /// order — a pure function of the query — so either result can be the
    /// parent a refinement is derived from. Pinned by the
    /// `index_equivalence` proptests.
    pub fn collect_group_records_routed(
        &self,
        query: &SelectionQuery,
        forced: Option<GroupRoute>,
    ) -> (Vec<RecordId>, GroupRoute) {
        let has_reviewer_preds = query.preds_of(Entity::Reviewer).next().is_some();
        let has_item_preds = query.preds_of(Entity::Item).next().is_some();

        if !has_reviewer_preds && !has_item_preds {
            return ((0..self.ratings.len() as u32).collect(), GroupRoute::Full);
        }

        let g_u = self.select_group(Entity::Reviewer, query);
        let g_i = self.select_group(Entity::Item, query);

        // Walk cost: records the walk would enumerate from the cheaper
        // constrained side, priced as exact selection size (one popcount
        // over the intersection words) × mean adjacency degree. Summing the
        // true per-member degrees instead would touch every selected
        // member's offset pair — for a dense selection that costs as much
        // as the walk it is trying to avoid.
        let price = |members: usize, entities: usize| -> usize {
            (members * self.ratings.len()) / entities.max(1)
        };
        let reviewer_cost: usize = if has_reviewer_preds {
            price(g_u.members().len(), self.reviewers.len())
        } else {
            usize::MAX
        };
        let item_cost: usize = if has_item_preds {
            price(g_i.members().len(), self.items.len())
        } else {
            usize::MAX
        };
        let walk_cost = reviewer_cost.min(item_cost);

        let sides = usize::from(has_reviewer_preds) + usize::from(has_item_preds);
        let probe = match forced {
            Some(route) => route == GroupRoute::Probe,
            None => walk_cost.saturating_mul(10) > self.ratings.len() * sides,
        };
        if probe {
            self.counters.route_probe.fetch_add(1, Ordering::Relaxed);
            let reviewer_words = has_reviewer_preds.then(|| g_u.members().words());
            let item_words = has_item_preds.then(|| g_i.members().words());
            let mut records: Vec<RecordId> = Vec::new();
            kernels::filter_rows(
                self.ratings.reviewer_column(),
                self.ratings.item_column(),
                reviewer_words,
                item_words,
                &mut records,
            );
            return (records, GroupRoute::Probe);
        }

        self.counters.route_walk.fetch_add(1, Ordering::Relaxed);
        // The walk's raw emission order depends on which entity side drives
        // it, so the result is sorted before returning: ascending record-id
        // order is a pure function of the query, is preserved by subset
        // filtering ([`GroupColumns::derive_refinement_multi`] relies on this),
        // and keeps the result independent of which side happened to be
        // cheaper.
        let mut records: Vec<RecordId> = Vec::new();
        let (reviewer_of, item_of) = (self.ratings.reviewer_column(), self.ratings.item_column());
        if reviewer_cost <= item_cost {
            for r in g_u.members().iter() {
                for &rec in self.ratings.records_of_reviewer(r) {
                    if g_i.contains(item_of[rec as usize]) {
                        records.push(rec);
                    }
                }
            }
        } else {
            for i in g_i.members().iter() {
                for &rec in self.ratings.records_of_item(i) {
                    if g_u.contains(reviewer_of[rec as usize]) {
                        records.push(rec);
                    }
                }
            }
        }
        records.sort_unstable();
        // Records appended since the adjacency base was built are in no
        // adjacency list. Their ids exceed every base id and ascend, so
        // filtering them in order after the sort keeps the canonical order
        // — and byte-identity with the probe, which scans them in place.
        for rec in self.ratings.indexed_len()..self.ratings.len() {
            if g_u.contains(reviewer_of[rec]) && g_i.contains(item_of[rec]) {
                records.push(rec as RecordId);
            }
        }
        (records, GroupRoute::Walk)
    }

    /// Gather columns for the refinement `ancestor-query ∪ preds`, derived
    /// by one probe pass over `ancestor`'s already-gathered columns against
    /// the added predicates' container intersections (one word mask per
    /// constrained side). No adjacency walk, no re-gather (see
    /// [`GroupColumns::derive_refinement_multi`]).
    ///
    /// Byte-identity contract: the result equals
    /// [`collect_group_columns`](Self::collect_group_columns) on the
    /// refined query bit-for-bit, because both are in canonical ascending
    /// record order. `ancestor` must be the gather columns of a query none
    /// of whose conjuncts is in `preds` (the refinement adds every
    /// predicate as a new conjunct).
    pub fn derive_refinement_columns_multi(
        &self,
        ancestor: &GroupColumns,
        preds: &[AttrValue],
    ) -> GroupColumns {
        let mut reviewer_preds: Vec<(AttrId, ValueId)> = Vec::new();
        let mut item_preds: Vec<(AttrId, ValueId)> = Vec::new();
        for p in preds {
            match p.entity {
                Entity::Reviewer => reviewer_preds.push((p.attr, p.value)),
                Entity::Item => item_preds.push((p.attr, p.value)),
            }
        }
        let reviewer_words = self
            .reviewer_index
            .intersect(&reviewer_preds)
            .into_words(self.reviewers.len());
        let item_words = self
            .item_index
            .intersect(&item_preds)
            .into_words(self.items.len());
        ancestor.derive_refinement_multi(reviewer_words.as_deref(), item_words.as_deref())
    }

    /// Cheap index-only upper bound on the size of `query`'s entity
    /// selection: the minimum **exact** container cardinality over the
    /// query's predicates (`usize::MAX` when the query has no predicates
    /// and nothing constrains the group). A bound of zero proves the
    /// rating group is empty without materializing anything — the
    /// recommendation builder uses this to skip unsatisfiable candidates
    /// before any group work happens.
    pub fn index_cardinality_bound(&self, query: &SelectionQuery) -> usize {
        query
            .preds()
            .iter()
            .map(|p| self.index(p.entity).cardinality(p.attr, p.value))
            .min()
            .unwrap_or(usize::MAX)
    }

    /// The gather columns for `query`: the walk-order record list plus both
    /// entity-row columns resolved once ([`GroupColumns::gather`]). This is
    /// what refinements are derived from and what
    /// [`RatingGroup::from_columns`] shuffles per step.
    pub fn collect_group_columns(&self, query: &SelectionQuery) -> GroupColumns {
        GroupColumns::gather(&self.ratings, self.collect_group_records(query))
    }

    /// Like [`collect_group_columns`](Self::collect_group_columns), but
    /// reports which [`GroupRoute`] materialized the records — the hook
    /// the engine's step uses to attribute walked vs probed groups in
    /// [`StepStats`-level counters](GroupRoute).
    pub fn collect_group_columns_routed(
        &self,
        query: &SelectionQuery,
    ) -> (GroupColumns, GroupRoute) {
        let (records, route) = self.collect_group_records_routed(query, None);
        (GroupColumns::gather(&self.ratings, records), route)
    }

    /// Human-readable rendering of one predicate, e.g. `item.city = NYC`.
    pub fn describe_pred(&self, p: &AttrValue) -> String {
        let table = self.table(p.entity);
        let attr = table.schema().attr(p.attr);
        let value = table.dictionary(p.attr).value(p.value);
        format!("{}.{} = {}", p.entity, attr.name, value)
    }

    /// Human-readable rendering of a query, e.g.
    /// `reviewer.age_group = young AND item.city = NYC` (or `*` when empty).
    pub fn describe_query(&self, q: &SelectionQuery) -> String {
        if q.is_empty() {
            return "*".to_owned();
        }
        q.preds()
            .iter()
            .map(|p| self.describe_pred(p))
            .collect::<Vec<_>>()
            .join(" AND ")
    }

    /// Resolves a named predicate to an [`AttrValue`], if both the
    /// attribute and the value exist.
    pub fn pred(&self, entity: Entity, attr_name: &str, value: &Value) -> Option<AttrValue> {
        let table = self.table(entity);
        let attr = table.schema().attr_by_name(attr_name)?;
        let value = table.dictionary(attr).code(value)?;
        Some(AttrValue::new(entity, attr, value))
    }

    /// All values of an attribute (id order).
    pub fn values_of(&self, entity: Entity, attr: AttrId) -> Vec<ValueId> {
        (0..self.table(entity).dictionary(attr).len() as u32)
            .map(ValueId)
            .collect()
    }

    /// Per-attribute summaries for one entity — what the paper's UI needs
    /// to populate its drop-down menus (Figure 5): each attribute's name,
    /// whether it is multi-valued, and its values with row counts, most
    /// frequent first.
    pub fn attribute_summaries(&self, entity: Entity) -> Vec<AttributeSummary> {
        let table = self.table(entity);
        let index = self.index(entity);
        table
            .schema()
            .iter()
            .map(|(attr, def)| {
                let mut values: Vec<(Value, usize)> = table
                    .dictionary(attr)
                    .iter()
                    .map(|(id, v)| (v.clone(), index.cardinality(attr, id)))
                    .collect();
                values.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                AttributeSummary {
                    attr,
                    name: def.name.clone(),
                    multi_valued: def.multi_valued,
                    values,
                }
            })
            .collect()
    }
}

/// Drop-down-ready description of one attribute (see
/// [`SubjectiveDb::attribute_summaries`]).
#[derive(Debug, Clone)]
pub struct AttributeSummary {
    /// The attribute id.
    pub attr: AttrId,
    /// Attribute name.
    pub name: String,
    /// Whether rows may carry value sets.
    pub multi_valued: bool,
    /// `(value, row count)` pairs, most frequent first.
    pub values: Vec<(Value, usize)>,
}

/// Small helper: iterate two entities (used by [`SubjectiveDb::stats`]).
trait EntityIterExt {
    fn into_iter_with(self, other: Entity) -> std::array::IntoIter<Entity, 2>;
}

impl EntityIterExt for Entity {
    fn into_iter_with(self, other: Entity) -> std::array::IntoIter<Entity, 2> {
        [self, other].into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratings::RatingTableBuilder;
    use crate::table::{Cell, EntityTableBuilder};

    /// Builds the Figure 2 database: 4 reviewers, 4 restaurants, ratings.
    pub(crate) fn figure2_db() -> SubjectiveDb {
        let mut us = Schema::new();
        us.add("gender", false);
        us.add("age_group", false);
        us.add("occupation", false);
        let mut ub = EntityTableBuilder::new(us);
        ub.push_row(vec!["F".into(), "Middle Aged".into(), "Lawyer".into()]);
        ub.push_row(vec!["M".into(), "Young".into(), "Artist".into()]);
        ub.push_row(vec!["F".into(), "Young".into(), "Student".into()]);
        ub.push_row(vec!["M".into(), "Middle Aged".into(), "Teacher".into()]);

        let mut is = Schema::new();
        is.add("cuisine", true);
        is.add("state", false);
        is.add("city", false);
        let mut ib = EntityTableBuilder::new(is);
        ib.push_row(vec![
            Cell::Many(vec![Value::str("Burgers"), Value::str("Barbeque")]),
            "North Carolina".into(),
            "Charlotte".into(),
        ]);
        ib.push_row(vec![
            Cell::Many(vec![Value::str("Japanese"), Value::str("Sushi")]),
            "Texas".into(),
            "Austin".into(),
        ]);
        ib.push_row(vec![
            Cell::Many(vec![Value::str("Mexican")]),
            "Michigan".into(),
            "Detroit".into(),
        ]);
        ib.push_row(vec![
            Cell::Many(vec![Value::str("Pizza"), Value::str("Italian")]),
            "New York".into(),
            "NYC".into(),
        ]);

        let dims = vec![
            "overall".to_owned(),
            "food".to_owned(),
            "service".to_owned(),
            "ambiance".to_owned(),
        ];
        let mut rb = RatingTableBuilder::new(dims, 5);
        rb.push(0, 3, &[4, 3, 5, 4]);
        rb.push(1, 0, &[4, 4, 3, 5]);
        rb.push(1, 1, &[3, 4, 3, 3]);
        rb.push(2, 3, &[5, 5, 5, 4]);
        SubjectiveDb::new(ub.build(), ib.build(), rb.build(4, 4))
    }

    #[test]
    fn stats_match_construction() {
        let db = figure2_db();
        let s = db.stats();
        assert_eq!(s.attr_count, 6);
        assert_eq!(s.dim_count, 4);
        assert_eq!(s.rating_count, 4);
        assert_eq!(s.reviewer_count, 4);
        assert_eq!(s.item_count, 4);
        assert!(s.max_values >= 4);
    }

    #[test]
    fn empty_query_selects_everything() {
        let db = figure2_db();
        let q = SelectionQuery::all();
        assert_eq!(db.select_group(Entity::Reviewer, &q).len(), 4);
        assert_eq!(db.select_group(Entity::Item, &q).len(), 4);
        assert_eq!(db.rating_group(&q, 0).len(), 4);
    }

    #[test]
    fn reviewer_side_selection() {
        let db = figure2_db();
        let young = db
            .pred(Entity::Reviewer, "age_group", &Value::str("Young"))
            .unwrap();
        let q = SelectionQuery::from_preds(vec![young]);
        let g = db.select_group(Entity::Reviewer, &q);
        assert_eq!(g.rows(), vec![1, 2]);
        // Records of reviewers 1 and 2: ids 1, 2, 3.
        let mut recs = db.rating_group(&q, 0).records().to_vec();
        recs.sort_unstable();
        assert_eq!(recs, vec![1, 2, 3]);
    }

    #[test]
    fn conjunctive_cross_entity_selection() {
        let db = figure2_db();
        let young = db
            .pred(Entity::Reviewer, "age_group", &Value::str("Young"))
            .unwrap();
        let nyc = db.pred(Entity::Item, "city", &Value::str("NYC")).unwrap();
        let q = SelectionQuery::from_preds(vec![young, nyc]);
        let recs = db.rating_group(&q, 0);
        // Only record 3 (reviewer 2 = young, item 3 = NYC).
        assert_eq!(recs.records(), &[3]);
    }

    #[test]
    fn multi_valued_predicate() {
        let db = figure2_db();
        let sushi = db
            .pred(Entity::Item, "cuisine", &Value::str("Sushi"))
            .unwrap();
        let q = SelectionQuery::from_preds(vec![sushi]);
        let g = db.select_group(Entity::Item, &q);
        assert_eq!(g.rows(), vec![1]);
    }

    #[test]
    fn contradictory_predicates_select_nothing() {
        let db = figure2_db();
        let f = db
            .pred(Entity::Reviewer, "gender", &Value::str("F"))
            .unwrap();
        let m = db
            .pred(Entity::Reviewer, "gender", &Value::str("M"))
            .unwrap();
        let q = SelectionQuery::from_preds(vec![f, m]);
        assert!(db.select_group(Entity::Reviewer, &q).is_empty());
        assert!(db.rating_group(&q, 0).is_empty());
    }

    #[test]
    fn describe_query_renders_names() {
        let db = figure2_db();
        let young = db
            .pred(Entity::Reviewer, "age_group", &Value::str("Young"))
            .unwrap();
        let nyc = db.pred(Entity::Item, "city", &Value::str("NYC")).unwrap();
        let q = SelectionQuery::from_preds(vec![young, nyc]);
        let s = db.describe_query(&q);
        assert!(s.contains("reviewer.age_group = Young"), "{s}");
        assert!(s.contains("item.city = NYC"), "{s}");
        assert_eq!(db.describe_query(&SelectionQuery::all()), "*");
    }

    #[test]
    fn pred_resolution_failures() {
        let db = figure2_db();
        assert!(db
            .pred(Entity::Reviewer, "nope", &Value::str("x"))
            .is_none());
        assert!(db
            .pred(Entity::Reviewer, "gender", &Value::str("X"))
            .is_none());
    }

    #[test]
    fn attribute_summaries_are_dropdown_ready() {
        let db = figure2_db();
        let summaries = db.attribute_summaries(Entity::Reviewer);
        assert_eq!(summaries.len(), 3);
        let gender = summaries.iter().find(|s| s.name == "gender").unwrap();
        assert!(!gender.multi_valued);
        assert_eq!(gender.values.len(), 2);
        // Counts are correct and sorted descending (F and M both 2 here).
        assert!(gender.values.iter().all(|(_, n)| *n == 2));

        let item_summaries = db.attribute_summaries(Entity::Item);
        let cuisine = item_summaries.iter().find(|s| s.name == "cuisine").unwrap();
        assert!(cuisine.multi_valued);
        let total: usize = cuisine.values.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 7, "each carried value counts once per row");
        for w in cuisine.values.windows(2) {
            assert!(w[0].1 >= w[1].1, "most frequent first");
        }
    }

    #[test]
    fn rating_group_is_seeded_permutation() {
        let db = figure2_db();
        let q = SelectionQuery::all();
        let a = db.rating_group(&q, 5);
        let b = db.rating_group(&q, 5);
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn collect_group_records_is_ascending_from_either_side() {
        let db = figure2_db();
        let young = db
            .pred(Entity::Reviewer, "age_group", &Value::str("Young"))
            .unwrap();
        let f = db
            .pred(Entity::Reviewer, "gender", &Value::str("F"))
            .unwrap();
        let nyc = db.pred(Entity::Item, "city", &Value::str("NYC")).unwrap();
        let burgers = db
            .pred(Entity::Item, "cuisine", &Value::str("Burgers"))
            .unwrap();
        // Queries whose walk is driven from the reviewer side, the item
        // side, and both: the emitted order must always be ascending.
        for q in [
            SelectionQuery::all(),
            SelectionQuery::from_preds(vec![young]),
            SelectionQuery::from_preds(vec![nyc]),
            SelectionQuery::from_preds(vec![burgers]),
            SelectionQuery::from_preds(vec![f, burgers]),
            SelectionQuery::from_preds(vec![young, nyc]),
        ] {
            let recs = db.collect_group_records(&q);
            assert!(recs.windows(2).all(|w| w[0] < w[1]), "{q:?}: {recs:?}");
        }
    }

    #[test]
    fn derive_refinement_matches_full_walk() {
        let db = figure2_db();
        let young = db
            .pred(Entity::Reviewer, "age_group", &Value::str("Young"))
            .unwrap();
        let f = db
            .pred(Entity::Reviewer, "gender", &Value::str("F"))
            .unwrap();
        let nyc = db.pred(Entity::Item, "city", &Value::str("NYC")).unwrap();
        let sushi = db
            .pred(Entity::Item, "cuisine", &Value::str("Sushi"))
            .unwrap();
        let parents = [
            SelectionQuery::all(),
            SelectionQuery::from_preds(vec![young]),
            SelectionQuery::from_preds(vec![nyc]),
            SelectionQuery::from_preds(vec![young, nyc]),
        ];
        for parent in &parents {
            let parent_cols = db.collect_group_columns(parent);
            for pred in [young, f, nyc, sushi] {
                if parent.contains(&pred) {
                    continue;
                }
                let child = parent.with_added(pred);
                let derived = db.derive_refinement_columns_multi(&parent_cols, &[pred]);
                let walked = db.collect_group_columns(&child);
                assert_eq!(derived, walked, "parent {parent:?} + {pred:?}");
            }
        }
    }

    #[test]
    fn probe_route_matches_walk_route() {
        let db = figure2_db();
        let young = db
            .pred(Entity::Reviewer, "age_group", &Value::str("Young"))
            .unwrap();
        let f = db
            .pred(Entity::Reviewer, "gender", &Value::str("F"))
            .unwrap();
        let nyc = db.pred(Entity::Item, "city", &Value::str("NYC")).unwrap();
        let burgers = db
            .pred(Entity::Item, "cuisine", &Value::str("Burgers"))
            .unwrap();
        for q in [
            SelectionQuery::from_preds(vec![young]),
            SelectionQuery::from_preds(vec![nyc]),
            SelectionQuery::from_preds(vec![f, burgers]),
            SelectionQuery::from_preds(vec![young, nyc]),
            SelectionQuery::from_preds(vec![young, f]),
        ] {
            let (walked, wr) = db.collect_group_records_routed(&q, Some(GroupRoute::Walk));
            let (probed, pr) = db.collect_group_records_routed(&q, Some(GroupRoute::Probe));
            assert_eq!(wr, GroupRoute::Walk);
            assert_eq!(pr, GroupRoute::Probe);
            assert_eq!(walked, probed, "{q:?}");
        }
        let stats = db.index_stats();
        assert!(stats.route_walk >= 5 && stats.route_probe >= 5);
        assert!(stats.intersections > 0);
    }

    #[test]
    fn multi_pred_derivation_matches_child_walk() {
        let db = figure2_db();
        let young = db
            .pred(Entity::Reviewer, "age_group", &Value::str("Young"))
            .unwrap();
        let m = db
            .pred(Entity::Reviewer, "gender", &Value::str("M"))
            .unwrap();
        let nyc = db.pred(Entity::Item, "city", &Value::str("NYC")).unwrap();
        let sushi = db
            .pred(Entity::Item, "cuisine", &Value::str("Sushi"))
            .unwrap();
        let ancestors = [SelectionQuery::all(), SelectionQuery::from_preds(vec![m])];
        let additions: [&[AttrValue]; 4] =
            [&[young, nyc], &[nyc, sushi], &[young], &[young, nyc, sushi]];
        for ancestor in &ancestors {
            let cols = db.collect_group_columns(ancestor);
            for preds in additions {
                if preds.iter().any(|p| ancestor.contains(p)) {
                    continue;
                }
                let mut child = ancestor.clone();
                for p in preds {
                    child = child.with_added(*p);
                }
                let derived = db.derive_refinement_columns_multi(&cols, preds);
                let walked = db.collect_group_columns(&child);
                assert_eq!(derived, walked, "{ancestor:?} + {preds:?}");
            }
        }
    }

    #[test]
    fn index_cardinality_bound_detects_empty_postings() {
        let db = figure2_db();
        let f = db
            .pred(Entity::Reviewer, "gender", &Value::str("F"))
            .unwrap();
        // A value id beyond the dictionary has an empty posting list.
        let bogus = AttrValue::new(Entity::Item, AttrId(2), ValueId(99));
        assert_eq!(
            db.index_cardinality_bound(&SelectionQuery::all()),
            usize::MAX
        );
        assert!(db.index_cardinality_bound(&SelectionQuery::from_preds(vec![f])) >= 2);
        assert_eq!(
            db.index_cardinality_bound(&SelectionQuery::from_preds(vec![f, bogus])),
            0
        );
    }

    #[test]
    fn with_appended_shares_everything_an_append_cannot_change() {
        use crate::ratings::{RatingDraft, RatingTable};
        let db = figure2_db();
        // Built before the append (items) or after it (reviewers): the
        // packed matrix lives in the shared table either way.
        db.items().packed_codes();
        let dims = db.ratings().dim_count();
        let draft = RatingDraft::new(3, 3, vec![1; dims]);

        let shares_entities = |next: &SubjectiveDb| {
            Arc::ptr_eq(&next.reviewers, &db.reviewers)
                && Arc::ptr_eq(&next.items, &db.items)
                && Arc::ptr_eq(&next.reviewer_index, &db.reviewer_index)
                && Arc::ptr_eq(&next.item_index, &db.item_index)
                && Arc::ptr_eq(&next.counters, &db.counters)
                && [Entity::Reviewer, Entity::Item]
                    .into_iter()
                    .all(|e| std::ptr::eq(next.table(e).packed_codes(), db.table(e).packed_codes()))
        };

        // Below the re-index threshold the adjacency base is shared too.
        let next = db.with_appended(std::slice::from_ref(&draft)).unwrap();
        assert_eq!(next.epoch(), db.epoch() + 1);
        assert_eq!(next.ratings().len(), db.ratings().len() + 1);
        assert_eq!(next.ratings().indexed_len(), db.ratings().len());
        assert!(shares_entities(&next));
        assert!(next.ratings().shares_adjacency_with(db.ratings()));

        // The builder's exact-size columns were full, so that append moved
        // them into a larger buffer; the next one writes into it in place,
        // while `next` keeps reading its own prefix.
        let after = next.with_appended(std::slice::from_ref(&draft)).unwrap();
        assert!(after.ratings().shares_columns_with(next.ratings()));
        assert_eq!(next.ratings().len(), db.ratings().len() + 1);
        assert_eq!(after.ratings().reviewer_column(), &[0, 1, 1, 2, 3, 3]);

        // Above it only the adjacency is new.
        let big = vec![draft; RatingTable::tail_limit(db.ratings().len()) + 1];
        let next = db.with_appended(&big).unwrap();
        assert_eq!(next.ratings().indexed_len(), next.ratings().len());
        assert!(shares_entities(&next));
        assert!(!next.ratings().shares_adjacency_with(db.ratings()));

        // The parent is untouched by either.
        assert_eq!(db.epoch(), 0);
        assert_eq!(db.ratings().len(), 4);
    }

    #[test]
    fn rating_group_rows_follow_records() {
        // The phase order is the seeded shuffle of the canonical ascending
        // records, and each gathered row is its record's own.
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        let db = figure2_db();
        let young = db
            .pred(Entity::Reviewer, "age_group", &Value::str("Young"))
            .unwrap();
        for query in [
            SelectionQuery::all(),
            SelectionQuery::from_preds(vec![young]),
        ] {
            for seed in [0u64, 5, 99] {
                let group = db.rating_group(&query, seed);
                let mut order = db.collect_group_records(&query);
                order.shuffle(&mut StdRng::seed_from_u64(seed));
                assert_eq!(group.records(), order);
                let rev = group.entity_rows(Entity::Reviewer);
                let item = group.entity_rows(Entity::Item);
                for (i, &rec) in group.records().iter().enumerate() {
                    assert_eq!(rev[i], db.ratings().reviewer_of(rec));
                    assert_eq!(item[i], db.ratings().item_of(rec));
                }
            }
        }
    }
}
