//! Select-path benchmark: bounded, cached, parallel GMM distance
//! evaluation versus the exhaustive baseline.
//!
//! Three measurements on the Yelp-like study workload, over candidate
//! pools the generator actually produces (root query plus the drill-downs
//! its own recommendations lead to), swept across `(k, l)` selection
//! configurations:
//!
//! 1. **Exact transportation solves** (the headline): how many EMD
//!    transportation problems the GMM selection solves exactly with
//!    bounds on versus off. The lower bounds (mixture-CDF centroid, then
//!    cost-matrix independent minimization) prove most pairs irrelevant to
//!    the running max-min without touching the augmenting-path solver.
//! 2. **Warm-cache replay**: selection wall time against a cold versus a
//!    pre-populated shared distance cache — the steady state of a service
//!    session revisiting a query.
//! 3. **Wall time per configuration** — exhaustive, bounds, bounds+cache
//!    (cold/warm), bounds+parallel — for context.
//!
//! Every configuration must pick the byte-identical map subset; the bench
//! asserts this on every run. Results are printed as tables and written to
//! a machine-readable JSON file (default `BENCH_select.json`). `--quick`
//! switches to smoke scale for CI.

use std::sync::Arc;
use std::time::Duration;

use subdex_bench::harness::{yelp_at, Scale};
use subdex_core::generator::{self, CriterionNormalizers, GeneratorConfig};
use subdex_core::ratingmap::ScoredRatingMap;
use subdex_core::recommend::{recommend, RecommendConfig, RecommendScratch};
use subdex_core::selector::{select_diverse_tracked, SelectionStrategy};
use subdex_core::{DistanceEngine, MapKey, SeenContext, SelectionStats};
use subdex_store::{DistanceCache, SelectionQuery, SubjectiveDb};

/// One candidate pool the selection phase would see: the generator's
/// utility-ranked top-`k'` maps for a query of the exploration walk.
struct PoolCase {
    step: usize,
    pool: Vec<ScoredRatingMap>,
}

/// Aggregate over every `(case, rep)` run of one engine configuration.
#[derive(Default)]
struct ConfigResult {
    total: Duration,
    runs: u32,
    stats: SelectionStats,
}

impl ConfigResult {
    fn mean_us(&self) -> f64 {
        self.total.as_secs_f64() * 1e6 / f64::from(self.runs.max(1))
    }
}

fn generate_pool(
    db: &SubjectiveDb,
    query: &SelectionQuery,
    k_prime: usize,
) -> Vec<ScoredRatingMap> {
    let gen_cfg = GeneratorConfig {
        k_prime,
        ..GeneratorConfig::default()
    };
    let group = db.scan_group(query, 3);
    let seen = SeenContext::new(db.ratings().dim_count());
    let mut norms = CriterionNormalizers::new(Default::default());
    generator::generate(db, &group, query, &seen, &mut norms, &gen_cfg).pool
}

fn keys(maps: &[ScoredRatingMap]) -> Vec<MapKey> {
    maps.iter().map(|m| m.map.key).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_select.json".to_string());

    let (scale, scale_name, reps) = if quick {
        (Scale::Smoke, "smoke", 3u32)
    } else {
        (Scale::Study, "study", 10u32)
    };
    // (k, l) selection configurations; the pool is the generator's
    // top-`k·l`. The paper's default is l = 3; larger l stresses the
    // diversity phase the way Diversity-Only selection does.
    let configs: &[(usize, usize)] = &[(5, 3), (5, 6), (8, 5), (10, 6)];
    let max_k_prime = configs.iter().map(|&(k, l)| k * l).max().unwrap();

    eprintln!("building yelp dataset at {scale_name} scale...");
    let db = Arc::new(yelp_at(scale).db);
    let db_stats = db.stats();
    eprintln!(
        "ratings {} | reviewers {} | items {}",
        db_stats.rating_count, db_stats.reviewer_count, db_stats.item_count
    );

    // Bench queries: the root plus the exploration steps its own
    // recommendations lead to — the pools a real session would rank.
    let mut queries: Vec<SelectionQuery> = Vec::new();
    let mut query = SelectionQuery::all();
    {
        let gen_cfg = GeneratorConfig::default();
        let rec_cfg = RecommendConfig::default();
        let seen = SeenContext::new(db.ratings().dim_count());
        let norms = CriterionNormalizers::new(Default::default());
        for _ in 0..4 {
            let maps: Vec<ScoredRatingMap> =
                generate_pool(&db, &query, 9).into_iter().take(9).collect();
            let (recs, _, _) = recommend(
                &db,
                &query,
                &maps,
                &seen,
                &norms,
                &gen_cfg,
                &rec_cfg,
                7,
                None,
                None,
                &mut RecommendScratch::default(),
            );
            let next = recs.first().map(|r| r.query.clone());
            queries.push(query.clone());
            match next {
                Some(q) if q != query => query = q,
                _ => break,
            }
        }
    }
    eprintln!("bench queries: {}", queries.len());

    // One generator pass per query at the largest k'; smaller configs use
    // the utility-ranked prefix, exactly as the engine would request them.
    let cases: Vec<PoolCase> = queries
        .iter()
        .enumerate()
        .map(|(step, q)| PoolCase {
            step,
            pool: generate_pool(&db, q, max_k_prime),
        })
        .collect();
    for c in &cases {
        eprintln!("step {} pool: {} maps", c.step, c.pool.len());
    }

    println!(
        "\n{:<8} {:>6} {:>6} {:>8} {:>12} {:>12} {:>12} {:>10}",
        "config", "k", "l", "pairs", "exact(off)", "exact(on)", "pruned", "solve red."
    );

    let mut json_rows: Vec<String> = Vec::new();
    let mut total_off = 0u64;
    let mut total_on = 0u64;
    let mut cold_total = 0.0f64;
    let mut warm_total = 0.0f64;

    for &(k, l) in configs {
        let strategy = SelectionStrategy::Hybrid { l };
        let k_prime = k * l;

        // Named engine configurations. The warm cache is pre-populated by
        // the cold pass of the same rep, so "bounds+cache warm" measures
        // the service steady state of a revisited query.
        let exhaustive = DistanceEngine::new().with_bounds(false);
        let bounds = DistanceEngine::new();
        let parallel = DistanceEngine::new().with_threads(0);

        let mut r_exhaustive = ConfigResult::default();
        let mut r_bounds = ConfigResult::default();
        let mut r_cold = ConfigResult::default();
        let mut r_warm = ConfigResult::default();
        let mut r_parallel = ConfigResult::default();

        for rep in 0..reps {
            for case in &cases {
                let pool: Vec<ScoredRatingMap> = case.pool.iter().take(k_prime).cloned().collect();
                let cache = Arc::new(DistanceCache::new(32 << 20));
                let cached = DistanceEngine::new().with_cache(Some(Arc::clone(&cache)));

                let (reference, s0) =
                    select_diverse_tracked(pool.clone(), k, strategy, &exhaustive);
                let runs = [
                    (&bounds, &mut r_bounds),
                    (&cached, &mut r_cold),
                    (&cached, &mut r_warm),
                    (&parallel, &mut r_parallel),
                ];
                let ref_keys = keys(&reference);
                for (engine, result) in runs {
                    let (sel, s) = select_diverse_tracked(pool.clone(), k, strategy, engine);
                    assert_eq!(
                        keys(&sel),
                        ref_keys,
                        "engine configs must pick byte-identical subsets (k={k}, l={l}, step={})",
                        case.step
                    );
                    // Only the steady state counts: rep 0 warms the
                    // allocator and page cache.
                    if rep > 0 {
                        result.total += s.select_time;
                        result.runs += 1;
                        result.stats.merge(&s);
                    }
                }
                if rep > 0 {
                    r_exhaustive.total += s0.select_time;
                    r_exhaustive.runs += 1;
                    r_exhaustive.stats.merge(&s0);
                }
            }
        }

        let off = r_exhaustive.stats.exact_solves;
        let on = r_bounds.stats.exact_solves;
        let reduction = off as f64 / (on as f64).max(1.0);
        total_off += off;
        total_on += on;
        cold_total += r_cold.total.as_secs_f64();
        warm_total += r_warm.total.as_secs_f64();
        println!(
            "{:<8} {:>6} {:>6} {:>8} {:>12} {:>12} {:>12} {:>9.2}x",
            format!("k{k}l{l}"),
            k,
            l,
            r_exhaustive.stats.evaluations(),
            off,
            on,
            r_bounds.stats.pruned(),
            reduction
        );

        let named = [
            ("exhaustive", &r_exhaustive),
            ("bounds", &r_bounds),
            ("bounds+cache cold", &r_cold),
            ("bounds+cache warm", &r_warm),
            ("bounds+parallel", &r_parallel),
        ];
        println!(
            "  {:<20} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "engine", "mean µs", "exact", "mixture", "matrix", "cachehit"
        );
        for (name, r) in named {
            println!(
                "  {:<20} {:>10.1} {:>10} {:>10} {:>10} {:>10}",
                name,
                r.mean_us(),
                r.stats.exact_solves,
                r.stats.pruned_mixture,
                r.stats.pruned_matrix,
                r.stats.cache_hits
            );
            json_rows.push(format!(
                "    {{\"k\": {k}, \"l\": {l}, \"engine\": \"{name}\", \"mean_us\": {:.3}, \"exact_solves\": {}, \"pruned_mixture\": {}, \"pruned_matrix\": {}, \"cache_hits\": {}, \"evaluations\": {}}}",
                r.mean_us(),
                r.stats.exact_solves,
                r.stats.pruned_mixture,
                r.stats.pruned_matrix,
                r.stats.cache_hits,
                r.stats.evaluations()
            ));
        }
    }

    let solve_reduction = total_off as f64 / (total_on as f64).max(1.0);
    let warm_speedup = cold_total / warm_total.max(1e-12);
    println!("\nexact-solve reduction, bounds on vs off (all configs): {solve_reduction:.2}x");
    println!("warm-cache speedup over cold, bounds+cache: {warm_speedup:.2}x");

    // Hand-rolled JSON (no serde_json in the vendored set); every value is
    // a number or a plain ASCII string, so no escaping is needed.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"select_path\",\n");
    json.push_str("  \"dataset\": \"yelp\",\n");
    json.push_str(&format!("  \"scale\": \"{scale_name}\",\n"));
    json.push_str(&format!("  \"ratings\": {},\n", db_stats.rating_count));
    json.push_str(&format!("  \"timed_reps\": {},\n", reps - 1));
    json.push_str(&format!("  \"bench_queries\": {},\n", queries.len()));
    json.push_str(&format!("  \"exact_solves_exhaustive\": {total_off},\n"));
    json.push_str(&format!("  \"exact_solves_bounded\": {total_on},\n"));
    json.push_str(&format!(
        "  \"solve_reduction_bounds_on_vs_off\": {solve_reduction:.4},\n"
    ));
    json.push_str(&format!("  \"warm_cache_speedup\": {warm_speedup:.4},\n"));
    json.push_str("  \"configs\": [\n");
    json.push_str(&json_rows.join(",\n"));
    json.push_str("\n  ]\n");
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_select.json");
    eprintln!("wrote {out_path}");
}
