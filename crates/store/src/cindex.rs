//! Compressed hybrid posting index — roaring-style containers per
//! (attribute, value) pair.
//!
//! The flat [`InvertedIndex`] stores every
//! posting as a sorted `Vec<u32>`, which costs 4 bytes per posting no
//! matter how dense the value is. At Yelp scale the posting mass
//! concentrates in a few very dense values (every reviewer has *some*
//! city; categorical attributes are heavy-tailed), so this module keeps
//! one [`Container`] per value in whichever of three encodings is
//! smallest **in bytes**:
//!
//! * [`Container::Array`] — sorted unique `Vec<u32>`, 4·n bytes. Wins for
//!   sparse values.
//! * [`Container::Bitmap`] — packed `u64` words over the whole row
//!   domain, 8·⌈rows/64⌉ bytes. Wins once a value covers more than
//!   ~1/16 of the table.
//! * [`Container::Runs`] — `(start, len)` run list, 8·r bytes. Wins for
//!   clustered values (sorted ingest order groups cities together).
//!
//! Unlike roaring proper, containers span the whole row domain instead of
//! 16-bit chunks: entity tables top out in the low millions of rows, so
//! one bitmap is at most a few hundred KiB and chunk bookkeeping would
//! cost more than it saves. The promotion rule is pure byte minimization
//! and therefore deterministic — snapshots can carry containers verbatim
//! and a rebuild reproduces them bit-for-bit.
//!
//! [`CompressedIndex::intersect`] evaluates a conjunction over the
//! containers with the `stats::kernels` set kernels (word-wise AND,
//! array∩bitmap probe, sorted-list gallop), visiting predicates in
//! ascending exact-cardinality order so the working set shrinks as fast
//! as possible. The result is a [`MemberSet`] that downstream code turns
//! into a [`BitSet`] or keeps as words for the record-probe kernels.

use crate::bitset::BitSet;
use crate::error::StoreError;
use crate::index::InvertedIndex;
use crate::schema::AttrId;
use crate::value::ValueId;

use subdex_stats::kernels;

/// One value's posting set in its byte-minimal encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Container {
    /// Sorted unique row ids — the sparse encoding.
    Array(Vec<u32>),
    /// Packed bitmap over the whole row domain — the dense encoding.
    /// `card` caches the population so cardinality reads are O(1).
    Bitmap { words: Vec<u64>, card: u32 },
    /// Sorted disjoint `(start, len)` runs — the clustered encoding.
    Runs { runs: Vec<(u32, u32)>, card: u32 },
}

impl Container {
    /// Encodes sorted unique `ids` over a `rows`-row domain, picking the
    /// smallest of the three encodings (runs strictly smallest → runs;
    /// else array unless the bitmap is smaller). Deterministic, so
    /// snapshot round-trips and rebuilds agree bit-for-bit.
    pub fn build(ids: &[u32], rows: usize) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids sorted unique");
        let card = ids.len() as u32;
        let arr_bytes = 4 * ids.len();
        let bmp_bytes = 8 * rows.div_ceil(64);
        let mut nruns = 0usize;
        let mut prev = u32::MAX;
        for &id in ids {
            nruns += usize::from(prev == u32::MAX || id != prev + 1);
            prev = id;
        }
        let runs_bytes = 8 * nruns;
        if runs_bytes < arr_bytes && runs_bytes < bmp_bytes {
            let mut runs = Vec::with_capacity(nruns);
            for &id in ids {
                match runs.last_mut() {
                    Some((start, len)) if *start + *len == id => *len += 1,
                    _ => runs.push((id, 1)),
                }
            }
            Container::Runs { runs, card }
        } else if arr_bytes <= bmp_bytes {
            Container::Array(ids.to_vec())
        } else {
            let mut words = vec![0u64; rows.div_ceil(64)];
            for &id in ids {
                words[id as usize >> 6] |= 1u64 << (id & 63);
            }
            Container::Bitmap { words, card }
        }
    }

    /// Exact number of rows in the container.
    #[inline]
    pub fn card(&self) -> usize {
        match self {
            Container::Array(ids) => ids.len(),
            Container::Bitmap { card, .. } | Container::Runs { card, .. } => *card as usize,
        }
    }

    /// Resident payload bytes of the encoding (capacity is exact: builders
    /// size with `with_capacity`/`to_vec`).
    pub fn bytes(&self) -> usize {
        match self {
            Container::Array(ids) => 4 * ids.capacity(),
            Container::Bitmap { words, .. } => 8 * words.capacity(),
            Container::Runs { runs, .. } => 8 * runs.capacity(),
        }
    }

    /// Membership test.
    pub fn contains(&self, id: u32) -> bool {
        match self {
            Container::Array(ids) => ids.binary_search(&id).is_ok(),
            Container::Bitmap { words, .. } => {
                let w = id as usize >> 6;
                w < words.len() && (words[w] >> (id & 63)) & 1 == 1
            }
            Container::Runs { runs, .. } => {
                let i = runs.partition_point(|&(start, _)| start <= id);
                i > 0 && {
                    let (start, len) = runs[i - 1];
                    id - start < len
                }
            }
        }
    }

    /// Sets the container's rows as bits into pre-zeroed-or-accumulating
    /// `words` (must cover the row domain).
    pub fn write_words(&self, words: &mut [u64]) {
        match self {
            Container::Array(ids) => {
                for &id in ids {
                    words[id as usize >> 6] |= 1u64 << (id & 63);
                }
            }
            Container::Bitmap { words: src, .. } => {
                for (dst, &w) in words.iter_mut().zip(src) {
                    *dst |= w;
                }
            }
            Container::Runs { runs, .. } => {
                for &(start, len) in runs {
                    for id in start..start + len {
                        words[id as usize >> 6] |= 1u64 << (id & 63);
                    }
                }
            }
        }
    }

    /// Appends the container's rows to `out` in ascending order.
    pub fn decode_into(&self, out: &mut Vec<u32>) {
        match self {
            Container::Array(ids) => out.extend_from_slice(ids),
            Container::Bitmap { words, .. } => kernels::decode_words(words, out),
            Container::Runs { runs, .. } => {
                for &(start, len) in runs {
                    out.extend(start..start + len);
                }
            }
        }
    }

    /// Encoding-class name for stats lines.
    pub fn class(&self) -> &'static str {
        match self {
            Container::Array(_) => "array",
            Container::Bitmap { .. } => "bitmap",
            Container::Runs { .. } => "runs",
        }
    }
}

/// The members of a conjunctive selection mid-intersection: starts at
/// [`MemberSet::All`], narrows through container intersections, and ends
/// as either decoded ids or bitmap words depending on which encodings
/// were met along the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberSet {
    /// Every row matches (no predicates yet).
    All,
    /// Sorted unique matching ids.
    Ids(Vec<u32>),
    /// Packed bitmap words over the whole row domain.
    Words(Vec<u64>),
}

impl MemberSet {
    /// Whether the set is certainly empty.
    pub fn is_empty(&self) -> bool {
        match self {
            MemberSet::All => false,
            MemberSet::Ids(ids) => ids.is_empty(),
            MemberSet::Words(words) => words.iter().all(|&w| w == 0),
        }
    }

    /// Exact member count over a `rows`-row domain.
    pub fn len(&self, rows: usize) -> usize {
        match self {
            MemberSet::All => rows,
            MemberSet::Ids(ids) => ids.len(),
            MemberSet::Words(words) => kernels::popcount_words(kernels::active(), words) as usize,
        }
    }

    /// Converts into a [`BitSet`] over `rows` ids.
    pub fn into_bitset(self, rows: usize) -> BitSet {
        match self {
            MemberSet::All => BitSet::full(rows),
            MemberSet::Ids(ids) => BitSet::from_ids(rows, &ids),
            MemberSet::Words(words) => BitSet::from_words(words, rows),
        }
    }

    /// Converts into bitmap words covering `rows` ids — the shape the
    /// record-probe kernels (`kernels::filter_rows`) consume. `None`
    /// means "all rows" (no predicate on this side), which the probe
    /// kernels treat as always-pass.
    pub fn into_words(self, rows: usize) -> Option<Vec<u64>> {
        match self {
            MemberSet::All => None,
            MemberSet::Ids(ids) => {
                let mut words = vec![0u64; rows.div_ceil(64)];
                for &id in &ids {
                    words[id as usize >> 6] |= 1u64 << (id & 63);
                }
                Some(words)
            }
            MemberSet::Words(words) => Some(words),
        }
    }
}

/// Per-class container census and byte footprint of one compressed index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContainerStats {
    /// Number of values encoded as sorted arrays.
    pub arrays: usize,
    /// Number of values encoded as packed bitmaps.
    pub bitmaps: usize,
    /// Number of values encoded as run lists.
    pub runs: usize,
    /// Resident payload bytes across all containers.
    pub resident_bytes: usize,
    /// What flat `Vec<u32>` posting lists would cost for the same
    /// postings (4 bytes × total cardinality) — the compression baseline.
    pub flat_bytes: usize,
}

impl ContainerStats {
    /// Element-wise sum (reviewer side + item side).
    pub fn merge(&self, other: &ContainerStats) -> ContainerStats {
        ContainerStats {
            arrays: self.arrays + other.arrays,
            bitmaps: self.bitmaps + other.bitmaps,
            runs: self.runs + other.runs,
            resident_bytes: self.resident_bytes + other.resident_bytes,
            flat_bytes: self.flat_bytes + other.flat_bytes,
        }
    }
}

/// Compressed index of one entity table: `containers[attr][value]`.
#[derive(Debug, Clone)]
pub struct CompressedIndex {
    containers: Vec<Vec<Container>>,
    rows: usize,
}

impl CompressedIndex {
    /// Compresses a flat inverted index (postings must be sorted unique,
    /// which `InvertedIndex::build` guarantees).
    pub fn from_inverted(index: &InvertedIndex) -> Self {
        let rows = index.rows();
        let containers = index
            .posting_lists()
            .iter()
            .map(|lists| {
                lists
                    .iter()
                    .map(|ids| Container::build(ids, rows))
                    .collect()
            })
            .collect();
        Self { containers, rows }
    }

    /// Reassembles an index from decoded containers (the snapshot-load
    /// path). Validates every container so a damaged file cannot smuggle
    /// dangling rows, unsorted arrays, or lying cardinality caches into
    /// selections:
    /// * arrays strictly ascending with all ids `< rows`;
    /// * bitmaps exactly ⌈rows/64⌉ words with a clear tail and `card`
    ///   equal to the popcount;
    /// * runs strictly ascending, disjoint, non-empty, ending `≤ rows`,
    ///   with `card` equal to the summed lengths.
    pub fn from_containers(
        containers: Vec<Vec<Container>>,
        rows: usize,
    ) -> Result<Self, StoreError> {
        for (attr, values) in containers.iter().enumerate() {
            for (value, c) in values.iter().enumerate() {
                let fail = |what: &str| {
                    Err(StoreError::invalid(format!(
                        "container attr {attr} value {value}: {what}"
                    )))
                };
                match c {
                    Container::Array(ids) => {
                        if ids.windows(2).any(|w| w[0] >= w[1]) {
                            return fail("array not strictly ascending");
                        }
                        if ids.last().is_some_and(|&r| r as usize >= rows) {
                            return fail("array row past table end");
                        }
                    }
                    Container::Bitmap { words, card } => {
                        if words.len() != rows.div_ceil(64) {
                            return fail("bitmap word count mismatch");
                        }
                        let rem = rows % 64;
                        if rem != 0 && words.last().is_some_and(|&w| w >> rem != 0) {
                            return fail("bitmap tail bits past table end");
                        }
                        let pop = kernels::popcount_words(kernels::KernelPath::Scalar, words);
                        if u64::from(*card) != pop {
                            return fail("bitmap cardinality cache wrong");
                        }
                    }
                    Container::Runs { runs, card } => {
                        let mut sum = 0u64;
                        let mut prev_end = 0u64;
                        for (i, &(start, len)) in runs.iter().enumerate() {
                            if len == 0 {
                                return fail("empty run");
                            }
                            let start = u64::from(start);
                            let end = start + u64::from(len);
                            if i > 0 && start <= prev_end {
                                return fail("runs not sorted disjoint");
                            }
                            if end > rows as u64 {
                                return fail("run past table end");
                            }
                            prev_end = end;
                            sum += u64::from(len);
                        }
                        if u64::from(*card) != sum {
                            return fail("run cardinality cache wrong");
                        }
                    }
                }
            }
        }
        Ok(Self { containers, rows })
    }

    /// Number of rows in the indexed table.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The raw containers, `[attr][value]`. Exposed for serialization.
    pub fn containers(&self) -> &[Vec<Container>] {
        &self.containers
    }

    /// Number of values indexed for `attr` (dictionary length at build
    /// time) — the snapshot verifier's shape check.
    pub fn value_count(&self, attr: AttrId) -> usize {
        self.containers.get(attr.index()).map_or(0, Vec::len)
    }

    /// The container for a predicate, if the value is in range.
    pub fn container(&self, attr: AttrId, value: ValueId) -> Option<&Container> {
        self.containers.get(attr.index())?.get(value.index())
    }

    /// Exact cardinality of a predicate (0 for out-of-range values — a
    /// predicate on an unseen value selects nothing).
    #[inline]
    pub fn cardinality(&self, attr: AttrId, value: ValueId) -> usize {
        self.container(attr, value).map_or(0, Container::card)
    }

    /// Selectivity of a predicate: fraction of rows matched.
    pub fn selectivity(&self, attr: AttrId, value: ValueId) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.cardinality(attr, value) as f64 / self.rows as f64
    }

    /// Per-class census and byte footprint.
    pub fn stats(&self) -> ContainerStats {
        let mut s = ContainerStats::default();
        for values in &self.containers {
            for c in values {
                match c {
                    Container::Array(_) => s.arrays += 1,
                    Container::Bitmap { .. } => s.bitmaps += 1,
                    Container::Runs { .. } => s.runs += 1,
                }
                s.resident_bytes += c.bytes();
                s.flat_bytes += 4 * c.card();
            }
        }
        s
    }

    /// Intersects the containers of a conjunction of `(attr, value)`
    /// predicates. Predicates are visited in ascending exact-cardinality
    /// order (stable on ties, so the result id-set — though not the work
    /// done — is order-independent), short-circuiting to empty the moment
    /// the working set drains. No predicates ⇒ [`MemberSet::All`].
    pub fn intersect(&self, preds: &[(AttrId, ValueId)]) -> MemberSet {
        if preds.is_empty() {
            return MemberSet::All;
        }
        let path = kernels::active();
        let mut order: Vec<&Container> = Vec::with_capacity(preds.len());
        for &(attr, value) in preds {
            match self.container(attr, value) {
                Some(c) if c.card() > 0 => order.push(c),
                _ => return MemberSet::Ids(Vec::new()),
            }
        }
        order.sort_by_key(|c| c.card());

        let mut acc = MemberSet::All;
        let mut scratch: Vec<u32> = Vec::new();
        for c in order {
            acc = match (acc, c) {
                // First container seeds the working set in its own shape;
                // runs expand to words (they only materialize for very
                // long runs, where words stay compact and kernel-friendly).
                (MemberSet::All, Container::Array(ids)) => MemberSet::Ids(ids.clone()),
                (MemberSet::All, Container::Bitmap { words, .. }) => {
                    MemberSet::Words(words.clone())
                }
                (MemberSet::All, c @ Container::Runs { .. }) => {
                    let mut words = vec![0u64; self.rows.div_ceil(64)];
                    c.write_words(&mut words);
                    MemberSet::Words(words)
                }
                (MemberSet::Ids(ids), Container::Array(other)) => {
                    scratch.clear();
                    kernels::intersect_sorted_u32(&ids, other, &mut scratch);
                    MemberSet::Ids(std::mem::take(&mut scratch))
                }
                (MemberSet::Ids(ids), Container::Bitmap { words, .. }) => {
                    scratch.clear();
                    kernels::array_bitmap_probe(&ids, words, &mut scratch);
                    MemberSet::Ids(std::mem::take(&mut scratch))
                }
                (MemberSet::Ids(ids), c @ Container::Runs { .. }) => {
                    scratch.clear();
                    scratch.extend(ids.iter().copied().filter(|&id| c.contains(id)));
                    MemberSet::Ids(std::mem::take(&mut scratch))
                }
                (MemberSet::Words(mut acc_words), Container::Bitmap { words, .. }) => {
                    kernels::and_words(path, &mut acc_words, words);
                    MemberSet::Words(acc_words)
                }
                // Array against words downgrades to ids: the array is the
                // smaller side by sort order, so ids stay compact.
                (MemberSet::Words(words), Container::Array(ids)) => {
                    scratch.clear();
                    kernels::array_bitmap_probe(ids, &words, &mut scratch);
                    MemberSet::Ids(std::mem::take(&mut scratch))
                }
                (MemberSet::Words(acc_words), c @ Container::Runs { .. }) => {
                    let mut run_words = vec![0u64; acc_words.len()];
                    c.write_words(&mut run_words);
                    kernels::and_words(path, &mut run_words, &acc_words);
                    MemberSet::Words(run_words)
                }
            };
            if acc.is_empty() {
                return acc;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids_of(set: MemberSet, rows: usize) -> Vec<u32> {
        set.into_bitset(rows).to_vec()
    }

    #[test]
    fn container_promotion_by_bytes() {
        // 3 ids over 1024 rows: array 12 B < bitmap 128 B; not a single run.
        assert!(matches!(
            Container::build(&[1, 50, 900], 1024),
            Container::Array(_)
        ));
        // One long run: runs 8 B beat both.
        assert!(matches!(
            Container::build(&(0..900).collect::<Vec<_>>(), 1024),
            Container::Runs { .. }
        ));
        // Every even id: no runs, array 4·512 B > bitmap 128 B.
        let evens: Vec<u32> = (0..1024).step_by(2).collect();
        assert!(matches!(
            Container::build(&evens, 1024),
            Container::Bitmap { .. }
        ));
    }

    #[test]
    fn container_contains_and_decode_agree() {
        for ids in [
            vec![],
            vec![0, 63, 64, 65, 127, 500],
            (10..200).collect::<Vec<u32>>(),
            (0..512).step_by(2).collect(),
        ] {
            let c = Container::build(&ids, 512);
            let mut decoded = Vec::new();
            c.decode_into(&mut decoded);
            assert_eq!(decoded, ids, "{}", c.class());
            assert_eq!(c.card(), ids.len());
            for probe in [0u32, 1, 63, 64, 65, 199, 500, 511] {
                assert_eq!(c.contains(probe), ids.contains(&probe), "{}", c.class());
            }
        }
    }

    #[test]
    fn intersect_mixed_classes() {
        let rows = 600usize;
        let sparse: Vec<u32> = vec![5, 64, 128, 300, 599];
        let clustered: Vec<u32> = (0..400).collect();
        let dense: Vec<u32> = (0..600).step_by(2).collect();
        let containers = vec![vec![
            Container::build(&sparse, rows),
            Container::build(&clustered, rows),
            Container::build(&dense, rows),
        ]];
        let idx = CompressedIndex::from_containers(containers, rows).unwrap();
        let a = AttrId(0);
        let q = |vals: &[u32]| {
            let preds: Vec<_> = vals.iter().map(|&v| (a, ValueId(v))).collect();
            ids_of(idx.intersect(&preds), rows)
        };
        assert_eq!(q(&[0, 1]), vec![5, 64, 128, 300]);
        assert_eq!(q(&[0, 2]), vec![64, 128, 300]);
        assert_eq!(q(&[1, 2]), (0..400).step_by(2).collect::<Vec<_>>());
        assert_eq!(q(&[0, 1, 2]), vec![64, 128, 300]);
        assert_eq!(ids_of(idx.intersect(&[]), rows).len(), rows);
    }

    #[test]
    fn intersect_missing_value_is_empty() {
        let idx = CompressedIndex::from_containers(vec![vec![Container::build(&[1, 2], 10)]], 10)
            .unwrap();
        let preds = [(AttrId(0), ValueId(7))];
        assert!(idx.intersect(&preds).is_empty());
    }

    #[test]
    fn from_containers_rejects_damage() {
        let bad_arr = vec![vec![Container::Array(vec![3, 3])]];
        assert!(CompressedIndex::from_containers(bad_arr, 10).is_err());
        let bad_card = vec![vec![Container::Bitmap {
            words: vec![0b111],
            card: 2,
        }]];
        assert!(CompressedIndex::from_containers(bad_card, 10).is_err());
        let bad_tail = vec![vec![Container::Bitmap {
            words: vec![1u64 << 12],
            card: 1,
        }]];
        assert!(CompressedIndex::from_containers(bad_tail, 10).is_err());
        let bad_runs = vec![vec![Container::Runs {
            runs: vec![(0, 5), (3, 2)],
            card: 7,
        }]];
        assert!(CompressedIndex::from_containers(bad_runs, 10).is_err());
        let ok = vec![vec![Container::Runs {
            runs: vec![(0, 5), (7, 2)],
            card: 7,
        }]];
        assert!(CompressedIndex::from_containers(ok, 10).is_ok());
    }

    #[test]
    fn stats_census() {
        let rows = 1024usize;
        let idx = CompressedIndex::from_containers(
            vec![vec![
                Container::build(&[1, 2, 900], rows),
                Container::build(&(0..800).collect::<Vec<_>>(), rows),
                Container::build(&(0..1024).step_by(2).collect::<Vec<_>>(), rows),
            ]],
            rows,
        )
        .unwrap();
        let s = idx.stats();
        assert_eq!((s.arrays, s.runs, s.bitmaps), (1, 1, 1));
        assert_eq!(s.flat_bytes, 4 * (3 + 800 + 512));
        assert!(s.resident_bytes < s.flat_bytes);
    }
}
