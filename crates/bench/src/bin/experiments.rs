//! Regenerates every table and figure of the paper's evaluation
//! (Section 5). Usage:
//!
//! ```text
//! experiments [--quick] <table2|fig7|fig8|table4|table5|table6|fig9|
//!               ablation|fig10a|fig10b|fig10c|fig11a|fig11b|fig11c|all>
//! ```
//!
//! `--quick` shrinks dataset scales and subject counts for smoke runs.
//! Output is Markdown-ish text; EXPERIMENTS.md records paper-vs-measured.

use std::collections::HashSet;
use std::sync::Arc;
use subdex_bench::harness::{
    engine_variants, fmt_ms, hotels_at, mean_step_time, movielens_at, scenario1_workload,
    scenario2_workload, yelp_at, Scale,
};
use subdex_core::interest::Criterion;
use subdex_core::selector::SelectionStrategy;
use subdex_core::{EngineConfig, ExplorationMode, UtilityCombiner};
use subdex_sim::autopath::{record_query_path, run_auto_path, run_fixed_path, OpSource};
use subdex_sim::study::{recall_curve, run_subject, StudyConfig};
use subdex_sim::subject::{CsExpertise, DomainKnowledge, SubjectProfile};
use subdex_sim::workload::Workload;
use subdex_stats::moments::summarize;

/// Experiment-wide settings derived from the CLI.
#[derive(Clone, Copy)]
struct Ctx {
    study_scale: Scale,
    perf_scale: Scale,
    subjects_per_cell: usize,
    injection_seeds: u64,
    path_steps: usize,
}

impl Ctx {
    fn standard() -> Self {
        Self {
            study_scale: Scale::Study,
            perf_scale: Scale::Full,
            subjects_per_cell: 30,
            injection_seeds: 8,
            path_steps: 7,
        }
    }

    fn quick() -> Self {
        Self {
            study_scale: Scale::Smoke,
            perf_scale: Scale::Smoke,
            subjects_per_cell: 6,
            injection_seeds: 3,
            path_steps: 4,
        }
    }

    fn study_engine(&self) -> EngineConfig {
        EngineConfig {
            parallel: false, // subjects are the parallel axis
            max_candidates: 12,
            ..EngineConfig::default()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ctx = if quick { Ctx::quick() } else { Ctx::standard() };
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let what = which.first().copied().unwrap_or("all");

    let t0 = std::time::Instant::now();
    let run = |name: &str| what == "all" || what == name;
    if run("table2") {
        table2(&ctx);
    }
    if run("fig7") {
        fig7(&ctx);
    }
    if run("fig8") {
        fig8(&ctx);
    }
    if run("table4") {
        table4(&ctx);
    }
    if run("table5") {
        table5(&ctx);
    }
    if run("table6") {
        table6(&ctx);
    }
    if run("fig9") {
        fig9(&ctx);
    }
    if run("ablation") {
        ablation(&ctx);
    }
    if run("ablation-pec") {
        ablation_peculiarity(&ctx);
    }
    if run("ablation-norm") {
        ablation_normalizer(&ctx);
    }
    if run("hotels") {
        hotels_trends(&ctx);
    }
    if run("fig10a") {
        fig10a(&ctx);
    }
    if run("fig10b") {
        fig10b(&ctx);
    }
    if run("fig10c") {
        fig10c(&ctx);
    }
    if run("fig11a") {
        fig11(&ctx, 'a');
    }
    if run("fig11b") {
        fig11(&ctx, 'b');
    }
    if run("fig11c") {
        fig11(&ctx, 'c');
    }
    eprintln!(
        "\n[experiments finished in {:.1}s]",
        t0.elapsed().as_secs_f64()
    );
}

fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

// ---------------------------------------------------------------- Table 2

fn table2(_ctx: &Ctx) {
    header("Table 2: Examined datasets (generated at paper-scale)");
    println!(
        "{:<14} {:>7} {:>14} {:>8} {:>9} {:>9} {:>6}",
        "Dataset", "#Atts", "Max #vals", "#Dims", "|R|", "|U|", "|I|"
    );
    for (name, ds) in [
        ("Movielens", movielens_at(Scale::Full)),
        ("Yelp", yelp_at(Scale::Full)),
        ("Hotel Reviews", hotels_at(Scale::Full)),
    ] {
        let s = ds.db.stats();
        println!(
            "{:<14} {:>7} {:>14} {:>8} {:>9} {:>9} {:>6}",
            name,
            s.attr_count,
            s.max_values,
            s.dim_count,
            s.rating_count,
            s.reviewer_count,
            s.item_count
        );
    }
}

// ---------------------------------------------------------------- Figure 7

fn fig7(ctx: &Ctx) {
    header("Figure 7: Exploration guidance (avg #found per mode/cell)");
    let cfg = StudyConfig {
        subjects_per_cell: ctx.subjects_per_cell,
        steps: None,
        engine: ctx.study_engine(),
        base_seed: 77,
        parallel: true,
    };
    for dataset in ["movielens", "yelp"] {
        // Each subject performs the task twice (once per mode) on two
        // different workload instances, so the second run has fresh targets
        // ("identify different irregular groups/insights").
        let s1a = scenario1_workload(dataset, ctx.study_scale, 40);
        let s1b = scenario1_workload(dataset, ctx.study_scale, 41);
        let s2a = scenario2_workload(dataset, ctx.study_scale);
        let s2b = subdex_bench::harness::scenario2_workload_seeded(dataset, ctx.study_scale, 1);
        for (scen_name, wa, wb) in [("Scenario I", &s1a, &s1b), ("Scenario II", &s2a, &s2b)] {
            let res = subdex_sim::study::run_study_pair(wa, wb, &cfg);
            let workload = wa;
            println!(
                "\n--- {dataset} / {scen_name} (targets: {}) ---",
                workload.target_count()
            );
            println!(
                "{:<22} {:>24} {:>24}",
                "", "High Domain Knowledge", "Low Domain Knowledge"
            );
            for cs in [CsExpertise::High, CsExpertise::Low] {
                let fmt_cell = |domain| {
                    let cell = res.cell(cs, domain);
                    cell.modes
                        .iter()
                        .map(|m| {
                            let tag = match m.mode {
                                ExplorationMode::UserDriven => "UD",
                                ExplorationMode::RecommendationPowered => "RP",
                                ExplorationMode::FullyAutomated => "FA",
                            };
                            format!("{tag}: {:.1}", m.summary().mean)
                        })
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                println!(
                    "{:<22} {:>24} {:>24}",
                    format!("{:?} CS Expertise", cs),
                    fmt_cell(DomainKnowledge::High),
                    fmt_cell(DomainKnowledge::Low)
                );
            }
            // ANOVA footnote checks.
            let mut order_sig = 0;
            let mut order_total = 0;
            for cell in &res.cells {
                for m in &cell.modes {
                    if let Some(a) = m.order_effect() {
                        order_total += 1;
                        if a.significant_at(0.05) {
                            order_sig += 1;
                        }
                    }
                }
            }
            println!("ANOVA: mode-order effects significant in {order_sig}/{order_total} cells (paper: 0)");
            for cs in [CsExpertise::High, CsExpertise::Low] {
                for mode in subdex_sim::study::modes_for(cs) {
                    if let Some(a) = res.domain_effect(cs, mode) {
                        println!(
                            "ANOVA: domain-knowledge effect ({cs:?} CS, {mode}): F={:.2}, p={:.3}{}",
                            a.f,
                            a.p_value,
                            if a.significant_at(0.05) { "  [SIGNIFICANT]" } else { "" }
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------- Figure 8

fn fig8(ctx: &Ctx) {
    header("Figure 8: Recall as a function of exploration steps (Movielens)");
    let cfg = StudyConfig {
        subjects_per_cell: ctx.subjects_per_cell,
        steps: None,
        engine: ctx.study_engine(),
        base_seed: 88,
        parallel: true,
    };
    let max_steps = if ctx.subjects_per_cell <= 6 { 6 } else { 12 };
    let subjects = ctx.subjects_per_cell;
    for (scen_name, w) in [
        (
            "Scenario I",
            scenario1_workload("movielens", ctx.study_scale, 41),
        ),
        (
            "Scenario II",
            scenario2_workload("movielens", ctx.study_scale),
        ),
    ] {
        println!("\n--- {scen_name} ---");
        print!("{:<26}", "steps:");
        for s in 1..=max_steps {
            print!("{s:>6}");
        }
        println!();
        for mode in [
            ExplorationMode::UserDriven,
            ExplorationMode::RecommendationPowered,
            ExplorationMode::FullyAutomated,
        ] {
            let curve = recall_curve(&w, mode, subjects, max_steps, &cfg);
            print!("{:<26}", mode.to_string());
            for r in curve {
                print!("{:>6.2}", r);
            }
            println!();
        }
    }
}

// ---------------------------------------------------------------- Table 4

fn table4(ctx: &Ctx) {
    header("Table 4: Quality of recommendations (avg #irregular groups surfaced)");
    println!("{:<10} {:>10} {:>10}", "Baseline", "Movielens", "Yelp");
    let cfg = ctx.study_engine();
    for source in [OpSource::Subdex, OpSource::Sdd, OpSource::Qagview] {
        let mut cols = Vec::new();
        for dataset in ["movielens", "yelp"] {
            let mut scores = Vec::new();
            for seed in 0..ctx.injection_seeds {
                let w = scenario1_workload(dataset, ctx.study_scale, 100 + seed);
                let stats = run_auto_path(&w, source, ctx.path_steps, &cfg);
                scores.push(stats.irregulars_shown.len() as f64);
            }
            let s = summarize(&scores).expect("non-empty");
            cols.push(format!("{:.1}", s.mean));
        }
        println!("{:<10} {:>10} {:>10}", source.to_string(), cols[0], cols[1]);
    }
}

// ---------------------------------------------------------------- Table 5

fn table5(ctx: &Ctx) {
    header("Table 5: Utility vs diversity as l varies (Fully-Automated paths)");
    println!("{:<16} {:>22} {:>22}", "Variant", "Movielens", "Yelp");
    let variants: Vec<(&str, EngineConfig)> = vec![
        ("Utility-Only", ctx.study_engine().with_l(1)),
        ("l = 2", ctx.study_engine().with_l(2)),
        ("l = 3", ctx.study_engine().with_l(3)),
        ("Diversity-Only", {
            let mut c = ctx.study_engine();
            c.selection = SelectionStrategy::DiversityOnly;
            c
        }),
    ];
    // Section 5.2.3: the Fully-Automated path *fixes* the next-action
    // operations; only the map-selection strategy varies across rows.
    let mut paths = std::collections::HashMap::new();
    for dataset in ["movielens", "yelp"] {
        let w = scenario1_workload(dataset, ctx.study_scale, 42);
        let queries = record_query_path(&w, ctx.path_steps, &ctx.study_engine());
        paths.insert(dataset, (w, queries));
    }
    for (name, cfg) in variants {
        let mut cols = Vec::new();
        for dataset in ["movielens", "yelp"] {
            let (w, queries) = &paths[dataset];
            let stats = run_fixed_path(w, queries, &cfg);
            cols.push(format!(
                "a={} u={:.1} d={:.3}",
                stats.distinct_attributes, stats.total_utility, stats.avg_diversity
            ));
        }
        println!("{:<16} {:>22} {:>22}", name, cols[0], cols[1]);
    }
    println!("(a = distinct attributes shown, u = total utility, d = avg EMD diversity)");
}

// ---------------------------------------------------------------- Table 6

fn table6(ctx: &Ctx) {
    header("Table 6: Avg #identified irregular groups, utility-only vs diversity-only");
    println!(
        "{:<10} {:>14} {:>16}",
        "Dataset", "Utility-only", "Diversity-only"
    );
    for dataset in ["movielens", "yelp"] {
        let mut cols = Vec::new();
        for diversity_only in [false, true] {
            let mut cfg = ctx.study_engine();
            if diversity_only {
                cfg.selection = SelectionStrategy::DiversityOnly;
            } else {
                cfg = cfg.with_l(1);
            }
            let mut scores = Vec::new();
            for i in 0..ctx.subjects_per_cell as u64 {
                let w = scenario1_workload(dataset, ctx.study_scale, 200 + i % ctx.injection_seeds);
                let profile = SubjectProfile::new(
                    if i % 2 == 0 {
                        CsExpertise::High
                    } else {
                        CsExpertise::Low
                    },
                    DomainKnowledge::Low,
                    900 + i,
                );
                let out = run_subject(
                    &w,
                    ExplorationMode::FullyAutomated,
                    &profile,
                    ctx.path_steps,
                    &cfg,
                    &HashSet::new(),
                );
                scores.push(out.count() as f64);
            }
            cols.push(format!("{:.1}", summarize(&scores).expect("scores").mean));
        }
        println!("{:<10} {:>14} {:>16}", dataset, cols[0], cols[1]);
    }
}

// ---------------------------------------------------------------- Figure 9

fn fig9(ctx: &Ctx) {
    header("Figure 9: Rating maps per dimension, with vs without DW weights (Yelp)");
    let w_fig9 = scenario1_workload("yelp", ctx.study_scale, 43);
    let fig9_queries = record_query_path(&w_fig9, ctx.path_steps, &ctx.study_engine());
    for (label, dw) in [("with DW", true), ("without DW", false)] {
        let mut cfg = ctx.study_engine();
        cfg.dimension_weighting = dw;
        let w = &w_fig9;
        let stats = run_fixed_path(w, &fig9_queries, &cfg);
        let names = w.db.ratings().dim_names().to_vec();
        print!("{label:<12}");
        for (n, c) in names.iter().zip(&stats.maps_per_dimension) {
            print!("  {n}: {c}");
        }
        let max = *stats.maps_per_dimension.iter().max().unwrap_or(&0);
        let min = *stats.maps_per_dimension.iter().min().unwrap_or(&0);
        println!("   (spread {})", max - min);
    }
    println!("(DW weights should balance the per-dimension counts — smaller spread)");
}

// --------------------------------------------------------------- Ablation

fn ablation(ctx: &Ctx) {
    header("Utility-criteria ablation (Sec 5.2.3): avg #irregular groups surfaced");
    let variants: Vec<(&str, UtilityCombiner)> = vec![
        ("max (paper)", UtilityCombiner::Max),
        ("average", UtilityCombiner::Average),
        (
            "conciseness only",
            UtilityCombiner::Single(Criterion::Conciseness),
        ),
        (
            "agreement only",
            UtilityCombiner::Single(Criterion::Agreement),
        ),
        (
            "self-pec only",
            UtilityCombiner::Single(Criterion::SelfPeculiarity),
        ),
        (
            "global-pec only",
            UtilityCombiner::Single(Criterion::GlobalPeculiarity),
        ),
    ];
    println!(
        "{:<18} {:>10} {:>10}",
        "Utility variant", "Movielens", "Yelp"
    );
    for (name, combiner) in variants {
        let mut cols = Vec::new();
        for dataset in ["movielens", "yelp"] {
            let mut scores = Vec::new();
            for seed in 0..ctx.injection_seeds {
                let mut cfg = ctx.study_engine();
                cfg.combiner = combiner;
                let w = scenario1_workload(dataset, ctx.study_scale, 300 + seed);
                let stats = run_auto_path(&w, OpSource::Subdex, ctx.path_steps, &cfg);
                scores.push(stats.irregulars_shown.len() as f64);
            }
            cols.push(format!("{:.2}", summarize(&scores).expect("scores").mean));
        }
        println!("{:<18} {:>10} {:>10}", name, cols[0], cols[1]);
    }
}

// ------------------------------------------- Design-choice ablations

/// DESIGN.md ablation: the peculiarity distance (TVD vs KL vs Outlier).
fn ablation_peculiarity(ctx: &Ctx) {
    header("Ablation: peculiarity measure (avg #irregular groups surfaced)");
    use subdex_core::interest::PeculiarityMeasure;
    println!("{:<18} {:>10} {:>10}", "Measure", "Movielens", "Yelp");
    for (name, measure) in [
        ("TVD (paper)", PeculiarityMeasure::TotalVariation),
        ("KL divergence", PeculiarityMeasure::KlDivergence),
        ("Outlier fn", PeculiarityMeasure::Outlier),
    ] {
        let mut cols = Vec::new();
        for dataset in ["movielens", "yelp"] {
            let mut scores = Vec::new();
            for seed in 0..ctx.injection_seeds {
                let mut cfg = ctx.study_engine();
                cfg.peculiarity = measure;
                let w = scenario1_workload(dataset, ctx.study_scale, 500 + seed);
                let stats = run_auto_path(&w, OpSource::Subdex, ctx.path_steps, &cfg);
                scores.push(stats.irregulars_shown.len() as f64);
            }
            cols.push(format!("{:.2}", summarize(&scores).expect("scores").mean));
        }
        println!("{:<18} {:>10} {:>10}", name, cols[0], cols[1]);
    }
}

/// DESIGN.md ablation: criterion normalization (z-logistic per \[51\] vs
/// running min-max).
fn ablation_normalizer(ctx: &Ctx) {
    header("Ablation: criterion normalizer (avg #irregular groups surfaced)");
    use subdex_stats::normalize::NormalizerKind;
    println!("{:<22} {:>10} {:>10}", "Normalizer", "Movielens", "Yelp");
    for (name, kind) in [
        ("z-logistic (paper)", NormalizerKind::ZLogistic),
        ("min-max", NormalizerKind::MinMax),
    ] {
        let mut cols = Vec::new();
        for dataset in ["movielens", "yelp"] {
            let mut scores = Vec::new();
            for seed in 0..ctx.injection_seeds {
                let mut cfg = ctx.study_engine();
                cfg.normalizer = kind;
                let w = scenario1_workload(dataset, ctx.study_scale, 600 + seed);
                let stats = run_auto_path(&w, OpSource::Subdex, ctx.path_steps, &cfg);
                scores.push(stats.irregulars_shown.len() as f64);
            }
            cols.push(format!("{:.2}", summarize(&scores).expect("scores").mean));
        }
        println!("{:<22} {:>10} {:>10}", name, cols[0], cols[1]);
    }
}

// -------------------------------------------------- Hotels similar-trends

/// The paper omits Hotel-Reviews results "as the Hotel Review dataset
/// demonstrated similar trends to Yelp"; this section verifies that claim
/// on the synthetic twin: recommendation quality (Table 4 shape) and the
/// DW-balance effect (Figure 9 shape) on hotels.
fn hotels_trends(ctx: &Ctx) {
    header("Hotels: similar-trends check (paper omits these 'to save space')");
    println!("Recommendation quality (avg #irregular groups surfaced):");
    // Shipped engine defaults (sequential), not the trimmed study engine:
    // hotels' 62-value attributes need the full candidate budget.
    let cfg = EngineConfig {
        parallel: false,
        ..EngineConfig::default()
    };
    for source in [OpSource::Subdex, OpSource::Sdd, OpSource::Qagview] {
        let mut scores = Vec::new();
        for seed in 0..ctx.injection_seeds {
            let w = scenario1_workload("hotels", ctx.study_scale, 700 + seed);
            let stats = run_auto_path(&w, source, ctx.path_steps, &cfg);
            scores.push(stats.irregulars_shown.len() as f64);
        }
        println!(
            "  {:<10} {:.1}",
            source.to_string(),
            summarize(&scores).expect("scores").mean
        );
    }
    println!("Dimension balance with vs without DW:");
    let w = scenario1_workload("hotels", ctx.study_scale, 701);
    let queries = record_query_path(&w, ctx.path_steps, &cfg);
    for (label, dw) in [("with DW", true), ("without DW", false)] {
        let mut c = cfg;
        c.dimension_weighting = dw;
        let stats = run_fixed_path(&w, &queries, &c);
        let max = *stats.maps_per_dimension.iter().max().unwrap_or(&0);
        let min = *stats.maps_per_dimension.iter().min().unwrap_or(&0);
        println!(
            "  {label:<12} per-dim counts {:?} (spread {})",
            stats.maps_per_dimension,
            max - min
        );
    }
}

// ------------------------------------------------------------- Figure 10

fn perf_workload(ctx: &Ctx) -> Workload {
    scenario1_workload("yelp", ctx.perf_scale, 44)
}

fn fig10a(ctx: &Ctx) {
    header("Figure 10(a): Runtime vs database size (reviewer sampling, Yelp)");
    let w = perf_workload(ctx);
    let fractions = [0.2, 0.4, 0.6, 0.8, 1.0];
    print!("{:<16}", "variant \\ size");
    for f in fractions {
        print!("{:>12}", format!("{:.0}%", f * 100.0));
    }
    println!();
    for (name, cfg) in engine_variants() {
        print!("{name:<16}");
        for f in fractions {
            let db = Arc::new(subdex_data::transform::sample_reviewers(&w.db, f, 9));
            let t = mean_step_time(&db, &cfg, 3);
            print!("{:>12}", fmt_ms(t));
        }
        println!();
    }
}

fn fig10b(ctx: &Ctx) {
    header("Figure 10(b): Runtime vs #attributes (Yelp)");
    let w = perf_workload(ctx);
    let keeps = [6usize, 12, 18, 24];
    print!("{:<16}", "variant \\ atts");
    for k in keeps {
        print!("{k:>12}");
    }
    println!();
    for (name, cfg) in engine_variants() {
        print!("{name:<16}");
        for k in keeps {
            let db = Arc::new(subdex_data::transform::drop_attributes(&w.db, k, 9));
            let t = mean_step_time(&db, &cfg, 3);
            print!("{:>12}", fmt_ms(t));
        }
        println!();
    }
}

fn fig10c(ctx: &Ctx) {
    header("Figure 10(c): Runtime vs #attribute-values (Yelp)");
    let w = perf_workload(ctx);
    let caps = [4usize, 7, 10, 13];
    print!("{:<16}", "variant \\ vals");
    for c in caps {
        print!("{c:>12}");
    }
    println!();
    for (name, cfg) in engine_variants() {
        print!("{name:<16}");
        for c in caps {
            let db = Arc::new(subdex_data::transform::restrict_values(&w.db, c, 9));
            let t = mean_step_time(&db, &cfg, 3);
            print!("{:>12}", fmt_ms(t));
        }
        println!();
    }
}

// ------------------------------------------------------------- Figure 11

fn fig11(ctx: &Ctx, which: char) {
    let (title, values): (&str, Vec<usize>) = match which {
        'a' => (
            "Figure 11(a): Runtime vs k (#rating maps)",
            vec![1, 2, 3, 4, 5],
        ),
        'b' => (
            "Figure 11(b): Runtime vs o (#recommendations)",
            vec![1, 2, 3, 4, 5],
        ),
        _ => (
            "Figure 11(c): Runtime vs l (pruning-diversity factor)",
            vec![1, 2, 3, 4, 5],
        ),
    };
    header(title);
    let w = perf_workload(ctx);
    let db = w.db.clone();
    print!("{:<16}", "variant \\ value");
    for v in &values {
        print!("{v:>12}");
    }
    println!();
    for (name, base) in engine_variants() {
        print!("{name:<16}");
        for &v in &values {
            let cfg = match which {
                'a' => EngineConfig { k: v, ..base },
                // Candidate-evaluation budget scales with the number of
                // recommendations requested (more recommendations must be
                // ranked confidently from more candidates).
                'b' => EngineConfig {
                    o: v,
                    max_candidates: v * 12,
                    ..base
                },
                _ => base.with_l(v),
            };
            let t = mean_step_time(&db, &cfg, 3);
            print!("{:>12}", fmt_ms(t));
        }
        println!();
    }
    if which == 'b' {
        println!(
            "(note: measured on {} cores, which bound the parallel variants' advantage; \
             see EXPERIMENTS.md)",
            subdex_core::resolve_threads(0)
        );
    }
}
