//! Micro-benchmarks of the engine's hot paths: rating-group
//! materialization, the shared GroupBy scan, the exact EMD map distance,
//! GMM selection, and CI/MAB pruning arithmetic. These are the quantities
//! the design decisions in DESIGN.md (dictionary codes, CSR, SoA scores,
//! phase sharing) are meant to keep cheap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use subdex_bench::harness::{yelp_at, Scale};
use subdex_core::accumulator::{candidate_keys, scan_block, CountScratch, FamilyAccumulator};
use subdex_core::mapdist::map_distance;
use subdex_core::selector::{select_diverse, SelectionStrategy};
use subdex_stats::emd::emd_transport;
use subdex_stats::HoeffdingSerfling;
use subdex_store::{Column, DimId, Entity, ScanScratch, SelectionQuery, SubjectiveDb};

fn bench_rating_group(c: &mut Criterion) {
    let ds = yelp_at(Scale::Study);
    let db = ds.db;
    let q_all = SelectionQuery::all();
    let young = db
        .pred(
            Entity::Reviewer,
            "age_group",
            &subdex_store::Value::str("young"),
        )
        .unwrap();
    let q_young = SelectionQuery::from_preds(vec![young]);
    let mut group = c.benchmark_group("rating_group");
    group.bench_function("all_records", |b| {
        b.iter(|| black_box(db.rating_group(&q_all, 1).len()))
    });
    group.bench_function("reviewer_filtered", |b| {
        b.iter(|| black_box(db.rating_group(&q_young, 1).len()))
    });
    group.finish();
}

fn bench_family_scan(c: &mut Criterion) {
    let ds = yelp_at(Scale::Study);
    let db = ds.db;
    let group = db.scan_group(&SelectionQuery::all(), 1);
    let attr = db.items().schema().attr_by_name("cuisine").unwrap();
    let dims: Vec<_> = db.ratings().dims().collect();
    let mut scratch = ScanScratch::new();
    let mut counts = CountScratch::new();
    scratch.prepare_group(db.ratings(), &group);
    c.bench_function("family_scan_all_dims", |b| {
        b.iter(|| {
            let mut fams = [FamilyAccumulator::new(
                &db,
                Entity::Item,
                attr,
                dims.clone(),
            )];
            let block = scratch.gather_phase(db.ratings(), &group, 0..group.len(), &dims);
            scan_block(&db, &mut fams, &block, 1, &mut counts);
            black_box(fams[0].records_processed())
        })
    });
    // What the generator actually runs per phase: every family of both
    // sides in one record-major scan (the items roll up per row, the
    // reviewers go through their packed code rows).
    let keys = candidate_keys(&db, &SelectionQuery::all());
    c.bench_function("all_families_scan_all_dims", |b| {
        b.iter(|| {
            let mut fams: Vec<FamilyAccumulator> = keys
                .iter()
                .map(|(e, a, d)| FamilyAccumulator::new(&db, *e, *a, d.clone()))
                .collect();
            let block = scratch.gather_phase(db.ratings(), &group, 0..group.len(), &dims);
            scan_block(&db, &mut fams, &block, 1, &mut counts);
            black_box(fams[0].records_processed())
        })
    });
}

/// The row-at-a-time scan: per record, resolve the grouping entity's row,
/// then per dimension fetch the score and bump the count. The record-major
/// scan must beat this to justify the gather.
fn rowwise_counts(
    db: &SubjectiveDb,
    entity: Entity,
    attr: subdex_store::AttrId,
    dims: &[DimId],
    records: &[u32],
) -> Vec<Vec<u64>> {
    let table = db.table(entity);
    let column = table.column(attr);
    let ratings = db.ratings();
    let scale = ratings.scale() as usize;
    let value_count = table.dictionary(attr).len();
    let mut counts = vec![vec![0u64; value_count * scale]; dims.len()];
    for &rec in records {
        let row = match entity {
            Entity::Reviewer => ratings.reviewer_of(rec),
            Entity::Item => ratings.item_of(rec),
        };
        for (dim_pos, &dim) in dims.iter().enumerate() {
            let score = ratings.score(rec, dim) as usize;
            match column {
                Column::Single(codes) => {
                    counts[dim_pos][codes[row as usize].index() * scale + score - 1] += 1;
                }
                Column::Multi(csr) => {
                    for &v in csr.values(row) {
                        counts[dim_pos][v.index() * scale + score - 1] += 1;
                    }
                }
            }
        }
    }
    counts
}

/// The record-major scan against the row-at-a-time baseline, for both
/// column layouts and at several thread counts, on a single family (the
/// worst case for sharing: nothing to amortize the row roll-up or the
/// packed-row gather over). Numbers feed the scan microbenchmark entry in
/// EXPERIMENTS.md.
fn bench_scan_kernel(c: &mut Criterion) {
    let ds = yelp_at(Scale::Study);
    let db = ds.db;
    let group = db.scan_group(&SelectionQuery::all(), 1);
    let dims: Vec<DimId> = db.ratings().dims().collect();
    let mut scratch = ScanScratch::new();
    let mut counts = CountScratch::new();
    scratch.prepare_group(db.ratings(), &group);
    for (name, entity, attr_name) in [
        ("atomic_age_group", Entity::Reviewer, "age_group"),
        ("csr_cuisine", Entity::Item, "cuisine"),
    ] {
        let attr = db.table(entity).schema().attr_by_name(attr_name).unwrap();
        let mut g = c.benchmark_group(&format!("scan_kernel_{name}"));
        g.bench_function("rowwise", |b| {
            b.iter(|| black_box(rowwise_counts(&db, entity, attr, &dims, group.records())))
        });
        for threads in [1usize, 2, 4, 8] {
            g.bench_with_input(
                BenchmarkId::new("columnar", threads),
                &threads,
                |b, &threads| {
                    b.iter(|| {
                        let mut fams =
                            vec![FamilyAccumulator::new(&db, entity, attr, dims.clone())];
                        let block =
                            scratch.gather_phase(db.ratings(), &group, 0..group.len(), &dims);
                        scan_block(&db, &mut fams, &block, threads, &mut counts);
                        black_box(fams[0].records_processed())
                    })
                },
            );
        }
        g.finish();
    }
}

fn bench_emd(c: &mut Criterion) {
    let mut group = c.benchmark_group("emd");
    for n in [4usize, 16, 48] {
        let supplies: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let demands: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3) % 7) as f64).collect();
        group.bench_with_input(BenchmarkId::new("transport", n), &n, |b, _| {
            b.iter(|| {
                black_box(emd_transport(&supplies, &demands, |i, j| {
                    (i as f64 - j as f64).abs() / n as f64
                }))
            })
        });
    }
    group.finish();
}

fn bench_gmm(c: &mut Criterion) {
    let ds = yelp_at(Scale::Smoke);
    let db = std::sync::Arc::new(ds.db);
    // Build a realistic pool via one no-pruning generator run.
    let q = SelectionQuery::all();
    let group = db.rating_group(&q, 2);
    let seen = subdex_core::SeenContext::new(db.ratings().dim_count());
    let mut norms = subdex_core::generator::CriterionNormalizers::new(Default::default());
    let cfg = subdex_core::generator::GeneratorConfig {
        pruning: subdex_core::PruningStrategy::None,
        parallel: false,
        ..Default::default()
    };
    let pool = subdex_core::generator::generate(&db, &group, &q, &seen, &mut norms, &cfg).pool;
    c.bench_function("gmm_select_3_of_pool", |b| {
        b.iter(|| {
            black_box(select_diverse(
                pool.clone(),
                3,
                SelectionStrategy::Hybrid { l: 3 },
            ))
        })
    });
    c.bench_function("map_distance_pair", |b| {
        if pool.len() >= 2 {
            b.iter(|| black_box(map_distance(&pool[0].map, &pool[1].map)))
        }
    });
}

fn bench_bounds(c: &mut Criterion) {
    let hs = HoeffdingSerfling::new(200_500, 0.05);
    c.bench_function("hoeffding_serfling_interval", |b| {
        b.iter(|| black_box(hs.interval(0.42, 20_050)))
    });
}

fn bench_pruning(c: &mut Criterion) {
    use subdex_core::pruning::{ci_survivors, utility_envelope, SarState};
    use subdex_stats::ConfidenceInterval;
    // A realistic candidate field: 96 envelopes (24 attrs × 4 dims).
    let envelopes: Vec<ConfidenceInterval> = (0..96)
        .map(|i| {
            let mid = 0.3 + (i as f64 % 17.0) / 34.0;
            ConfidenceInterval::new((mid - 0.08).max(0.0), (mid + 0.08).min(1.0))
        })
        .collect();
    c.bench_function("ci_prune_96_candidates", |b| {
        b.iter(|| black_box(ci_survivors(&envelopes, 9)))
    });
    let criteria = [
        ConfidenceInterval::new(0.2, 0.5),
        ConfidenceInterval::new(0.4, 0.8),
        ConfidenceInterval::new(0.1, 0.3),
        ConfidenceInterval::new(0.35, 0.6),
    ];
    c.bench_function("utility_envelope_4_criteria", |b| {
        b.iter(|| black_box(utility_envelope(&criteria, 0.75)))
    });
    let means: Vec<(usize, f64)> = (0..96).map(|i| (i, (i as f64 % 13.0) / 13.0)).collect();
    c.bench_function("sar_decide_96_arms", |b| {
        b.iter(|| {
            let mut sar = SarState::new(9);
            black_box(sar.decide(&means))
        })
    });
}

fn bench_normalizers(c: &mut Criterion) {
    use subdex_stats::normalize::NormalizerKind;
    use subdex_stats::normalize::{Normalizer, ScoreNormalizer};
    for (name, kind) in [
        ("zlogistic", NormalizerKind::ZLogistic),
        ("minmax", NormalizerKind::MinMax),
    ] {
        let mut n: ScoreNormalizer = kind.build_enum();
        for i in 0..1000 {
            n.observe((i as f64).sin().abs());
        }
        c.bench_function(&format!("normalize_{name}"), |b| {
            b.iter(|| black_box(n.normalize(0.42)))
        });
    }
}

criterion_group!(
    benches,
    bench_rating_group,
    bench_family_scan,
    bench_scan_kernel,
    bench_emd,
    bench_gmm,
    bench_bounds,
    bench_pruning,
    bench_normalizers
);
criterion_main!(benches);
