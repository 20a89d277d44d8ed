//! Property tests pinning the record-major phase scan to a row-at-a-time
//! reference that shares no code with it: over generated databases,
//! `scan_block` must produce exactly the counts of
//! `for record: for value in table.values(row, attr): counts[value][score] += 1`
//! at every thread count, and the generator's final pool must be
//! byte-identical across parallelism, chunking, and group construction
//! paths, for every pruning mode.
//!
//! Every generated database is shaped to reach every branch of the scan:
//! a multi-valued attribute on each side, a single-valued attribute with
//! more than 256 values (no packed slot), an item table far smaller and a
//! reviewer table far larger than the small blocks, and a final block large
//! enough to be dense on *both* sides and to split into record chunks.

use proptest::prelude::*;

use subdex_core::accumulator::{candidate_keys, scan_block, CountScratch, FamilyAccumulator};
use subdex_core::generator::{self, CriterionNormalizers, GeneratorConfig};
use subdex_core::{PruningStrategy, SeenContext};
use subdex_stats::RatingDistribution;
use subdex_store::{
    table::EntityTableBuilder, AttrId, Cell, DimId, Entity, RatingGroup, ScanScratch, Schema,
    SelectionQuery, SubjectiveDb, Value, ValueId,
};

const SCALE: u8 = 5;

/// Blueprint for one generated database; everything else is drawn from
/// `seed`.
#[derive(Debug, Clone)]
struct DbSpec {
    /// 260..=400, so the per-reviewer `handle` attribute has > 256 values.
    n_reviewers: usize,
    /// 12..=16: a table every non-tiny block is dense against.
    n_items: usize,
    /// Rating dimension count (1..=3).
    dims: usize,
    seed: u64,
}

fn db_spec() -> impl Strategy<Value = DbSpec> {
    (260usize..=400, 12usize..=16, 1usize..=3, 0u64..u64::MAX).prop_map(
        |(n_reviewers, n_items, dims, seed)| DbSpec {
            n_reviewers,
            n_items,
            dims,
            seed,
        },
    )
}

/// SplitMix64: the test's own source of derived randomness.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A subset of `names` (possibly empty), as a multi-valued cell.
    fn subset(&mut self, names: &[&str]) -> Cell {
        let bits = self.next();
        Cell::Many(
            names
                .iter()
                .enumerate()
                .filter(|(i, _)| bits >> i & 1 == 1)
                .map(|(_, n)| Value::str(*n))
                .collect(),
        )
    }
}

/// Reviewers: `band` and `tier` (3 and 4 values: two packed families, so
/// the packed-row gather is shared until pruning leaves one), `handle` (one
/// value per row — more than 256, so no packed slot), `langs`
/// (multi-valued). Items: `city` and `kind` (packed), `tags`
/// (multi-valued). About 95 % of all (reviewer, item) pairs carry a rating.
fn build_db(spec: &DbSpec) -> SubjectiveDb {
    let mut mix = Mix(spec.seed);
    let mut us = Schema::new();
    us.add("band", false);
    us.add("tier", false);
    us.add("handle", false);
    us.add("langs", true);
    let mut ub = EntityTableBuilder::new(us);
    for r in 0..spec.n_reviewers {
        ub.push_row(vec![
            Cell::from(["a", "b", "c"][mix.below(3)]),
            Cell::from(mix.below(4) as i64),
            Cell::from(r as i64),
            mix.subset(&["l0", "l1", "l2", "l3"]),
        ]);
    }
    let mut is = Schema::new();
    is.add("city", false);
    is.add("kind", false);
    is.add("tags", true);
    let mut ib = EntityTableBuilder::new(is);
    for _ in 0..spec.n_items {
        ib.push_row(vec![
            Cell::from(["NYC", "SF", "LA"][mix.below(3)]),
            Cell::from(["x", "y"][mix.below(2)]),
            mix.subset(&["t0", "t1", "t2"]),
        ]);
    }
    let dim_names = (0..spec.dims).map(|d| format!("d{d}")).collect();
    let mut rb = subdex_store::ratings::RatingTableBuilder::new(dim_names, SCALE);
    let mut scores = vec![0u8; spec.dims];
    for r in 0..spec.n_reviewers as u32 {
        for i in 0..spec.n_items as u32 {
            if mix.below(20) == 0 {
                continue;
            }
            for s in scores.iter_mut() {
                *s = 1 + mix.below(SCALE as usize) as u8;
            }
            rb.push(r, i, &scores);
        }
    }
    SubjectiveDb::new(
        ub.build(),
        ib.build(),
        rb.build(spec.n_reviewers, spec.n_items),
    )
}

/// The row-at-a-time reference: resolve each record's entity row, then
/// bump one count per (dimension, grouping value, score).
fn naive_counts(
    db: &SubjectiveDb,
    entity: Entity,
    attr: AttrId,
    dims: &[DimId],
    records: &[u32],
) -> Vec<Vec<u64>> {
    let table = db.table(entity);
    let ratings = db.ratings();
    let scale = SCALE as usize;
    let value_count = table.dictionary(attr).len();
    let mut counts = vec![vec![0u64; value_count * scale]; dims.len()];
    for &rec in records {
        let row = match entity {
            Entity::Reviewer => ratings.reviewer_of(rec),
            Entity::Item => ratings.item_of(rec),
        };
        for (dim_pos, &dim) in dims.iter().enumerate() {
            let score = ratings.score(rec, dim) as usize;
            for &v in table.values(row, attr) {
                counts[dim_pos][v.index() * scale + score - 1] += 1;
            }
        }
    }
    counts
}

/// Distributions exactly as [`FamilyAccumulator::distributions`] reports
/// them: non-empty subgroups only, plus the merged overall distribution.
fn distributions_from_counts(
    counts: &[u64],
    value_count: usize,
) -> (Vec<(ValueId, RatingDistribution)>, RatingDistribution) {
    let scale = SCALE as usize;
    let mut subs = Vec::new();
    let mut overall = RatingDistribution::new(scale);
    for v in 0..value_count {
        let slice = &counts[v * scale..(v + 1) * scale];
        if slice.iter().all(|&c| c == 0) {
            continue;
        }
        let dist = RatingDistribution::from_counts(slice.to_vec());
        overall.merge(&dist);
        subs.push((ValueId(v as u32), dist));
    }
    (subs, overall)
}

/// Fingerprint of a generator pool: key plus bit-exact utility scores.
fn pool_fingerprint(out: &generator::GeneratorOutput) -> Vec<(String, u64, u64)> {
    out.pool
        .iter()
        .map(|m| {
            (
                format!("{:?}", m.map.key),
                m.utility.to_bits(),
                m.dw_utility.to_bits(),
            )
        })
        .collect()
}

fn run_generate(
    db: &SubjectiveDb,
    group: &RatingGroup,
    pruning: PruningStrategy,
    parallel: bool,
    threads: usize,
) -> generator::GeneratorOutput {
    let q = SelectionQuery::all();
    let seen = SeenContext::new(db.ratings().dim_count());
    let mut norms = CriterionNormalizers::new(Default::default());
    let cfg = GeneratorConfig {
        pruning,
        parallel,
        threads,
        phases: 4,
        ..GeneratorConfig::default()
    };
    generator::generate(db, group, &q, &seen, &mut norms, &cfg)
}

const THREADS: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All families scanned together, phase by phase, at threads {1, 2, 4}
    /// over one pooled scratch, with dimensions pruned between phases —
    /// every surviving count matrix must equal the row-at-a-time reference.
    #[test]
    fn scan_block_matches_row_at_a_time_reference(spec in db_spec()) {
        let db = build_db(&spec);
        let mut mix = Mix(spec.seed ^ 0x5ca9);
        let q = SelectionQuery::all();
        let group = db.scan_group(&q, spec.seed);
        let n = group.len();

        // Phase blocks, in order: empty; fewer records than the item table
        // has rows (sparse on both sides); a few hundred (dense against the
        // items, sparse against the reviewers); empty again; the rest —
        // more than eight records per reviewer row, so dense on both sides
        // when scanned whole, and long enough to split into record chunks.
        let tiny = 1 + mix.below(spec.n_items - 1);
        let mid = tiny + 8 * spec.n_items + mix.below(500);
        let cuts = [0, 0, tiny, mid, mid, n];
        prop_assert!(n - mid >= 8 * spec.n_reviewers && n - mid > 2048, "{n} records");

        let keys = candidate_keys(&db, &q);
        prop_assert_eq!(keys.len(), 7, "every attribute partitions");
        let make = || -> Vec<FamilyAccumulator> {
            keys.iter()
                .map(|(e, a, dims)| FamilyAccumulator::new(&db, *e, *a, dims.clone()))
                .collect()
        };
        let mut runs: Vec<Vec<FamilyAccumulator>> = THREADS.iter().map(|_| make()).collect();
        let mut expect_processed = vec![0u64; keys.len()];
        let mut scratch = ScanScratch::new();
        let mut counts = CountScratch::new();
        scratch.prepare_group(db.ratings(), &group);

        for range in cuts.windows(2).map(|w| w[0]..w[1]) {
            // The generator gathers exactly the union of the active dims.
            let mut dims: Vec<DimId> =
                runs[0].iter().flat_map(|f| f.dims().iter().copied()).collect();
            dims.sort_unstable();
            dims.dedup();
            for (fams, threads) in runs.iter_mut().zip(THREADS) {
                let block = scratch.gather_phase(db.ratings(), &group, range.clone(), &dims);
                scan_block(&db, fams, &block, threads, &mut counts);
            }
            for (done, fam) in expect_processed.iter_mut().zip(&runs[0]) {
                if !fam.is_exhausted() {
                    *done += range.len() as u64;
                }
            }
            // Prune: drop one (family, dim) pair — sometimes a family's
            // last dimension — from every run alike.
            let fi = mix.below(keys.len());
            let dim = DimId(mix.below(spec.dims) as u16);
            for fams in runs.iter_mut() {
                fams[fi].remove_dim(dim);
            }
        }

        for (fams, threads) in runs.iter().zip(THREADS) {
            for ((fam, done), (entity, attr, _)) in fams.iter().zip(&expect_processed).zip(&keys) {
                prop_assert_eq!(fam.records_processed(), *done, "threads={}", threads);
                let value_count = db.table(*entity).dictionary(*attr).len();
                let naive = naive_counts(&db, *entity, *attr, fam.dims(), group.records());
                for (dim_pos, reference) in naive.iter().enumerate() {
                    prop_assert_eq!(
                        fam.distributions(dim_pos),
                        distributions_from_counts(reference, value_count),
                        "threads={} {:?}", threads, fam.key_at(dim_pos)
                    );
                }
            }
        }
    }

    /// The generator's final rating-map pool must be byte-identical across
    /// every pruning mode × parallelism setting, and across the two group
    /// construction paths (in-place shuffle vs gathered columns — the
    /// uncached and cached paths respectively).
    #[test]
    fn generate_identical_across_modes(spec in db_spec()) {
        let db = build_db(&spec);
        let q = SelectionQuery::all();
        let group = db.rating_group(&q, 7);
        let columnar = db.scan_group(&q, 7);
        prop_assert_eq!(group.records(), columnar.records());

        for pruning in [
            PruningStrategy::None,
            PruningStrategy::ConfidenceInterval,
            PruningStrategy::Mab,
            PruningStrategy::Both,
        ] {
            let reference = pool_fingerprint(&run_generate(&db, &group, pruning, false, 0));
            for threads in [2usize, 4] {
                let parallel = run_generate(&db, &group, pruning, true, threads);
                prop_assert_eq!(&pool_fingerprint(&parallel), &reference);
            }
            let via_columns = run_generate(&db, &columnar, pruning, false, 0);
            prop_assert_eq!(&pool_fingerprint(&via_columns), &reference);
        }
    }
}
