//! The executor's high-water scratch trim: a session that steps from a
//! huge root group down to small refined groups must stop pinning the
//! root-sized pooled buffers once a trim window of small steps closes.

use std::sync::Arc;

use subdex_core::generator::{CriterionNormalizers, SeenContext};
use subdex_core::plan::{ExecContext, StepExecutor, StepPlan};
use subdex_core::EngineConfig;
use subdex_store::{
    table::EntityTableBuilder, AttrValue, Cell, Entity, Schema, SelectionQuery, SubjectiveDb, Value,
};

const SCALE: u8 = 5;
const REVIEWERS: u32 = 300;
const ITEMS: u32 = 150;

/// A database whose root group is large (every reviewer rates every item)
/// and where `city = LA` selects a single item — a ~1% refinement.
fn build_db() -> Arc<SubjectiveDb> {
    let mut rs = Schema::new();
    rs.add("team", false);
    let mut rb = EntityTableBuilder::new(rs);
    for r in 0..REVIEWERS {
        rb.push_row(vec![Cell::from(["red", "green", "blue"][(r % 3) as usize])]);
    }
    let mut is = Schema::new();
    is.add("city", false);
    let mut ib = EntityTableBuilder::new(is);
    for i in 0..ITEMS {
        ib.push_row(vec![Cell::from(if i == ITEMS - 1 { "LA" } else { "NYC" })]);
    }
    let mut tb = subdex_store::ratings::RatingTableBuilder::new(
        vec![
            "overall".into(),
            "food".into(),
            "service".into(),
            "value".into(),
        ],
        SCALE,
    );
    for r in 0..REVIEWERS {
        for i in 0..ITEMS {
            let scores: Vec<u8> = (0..4u32)
                .map(|d| ((r * (7 + d) + i * (3 + d)) % SCALE as u32) as u8 + 1)
                .collect();
            tb.push(r, i, &scores);
        }
    }
    Arc::new(SubjectiveDb::new(
        rb.build(),
        ib.build(),
        tb.build(REVIEWERS as usize, ITEMS as usize),
    ))
}

fn la_query(db: &SubjectiveDb) -> SelectionQuery {
    let attr = db
        .table(Entity::Item)
        .schema()
        .attr_by_name("city")
        .unwrap();
    let value = db
        .table(Entity::Item)
        .dictionary(attr)
        .code(&Value::str("LA"))
        .unwrap();
    SelectionQuery::from_preds(vec![AttrValue::new(Entity::Item, attr, value)])
}

#[test]
fn resident_scratch_drops_after_large_to_small_sequence() {
    let db = build_db();
    // Two wide phases: each phase gathers half the group's records for all
    // four dimensions, so the pooled scan buffers actually reach
    // root-group scale (with many narrow phases they stay per-phase-sized).
    // Recommendations are off so the refined steps are genuinely small:
    // with them on, every small step would still evaluate the
    // change-predicate candidate `city = NYC` — almost the whole database —
    // and the scratch would legitimately stay large (which the policy
    // correctly preserves; see `steady_large_workload_is_never_trimmed`).
    let config = EngineConfig {
        phases: 2,
        recommendations: false,
        ..EngineConfig::default()
    };
    let root = SelectionQuery::all();
    let small = la_query(&db);
    let root_plan = StepPlan::compile(&config, &root);
    let small_plan = StepPlan::compile(&config, &small);

    let mut seen = SeenContext::new(db.ratings().dim_count());
    let mut normalizers = CriterionNormalizers::new(config.normalizer);
    let mut ctx = ExecContext::new();
    let mut exec = StepExecutor {
        db: &db,
        dist_cache: None,
        seen: &mut seen,
        normalizers: &mut normalizers,
        ctx: &mut ctx,
    };

    // Two steps over the full database grow every pooled buffer to
    // root-group size.
    for step in 0..2 {
        let result = exec.run(&root_plan, &root, step);
        assert_eq!(result.group_size, (REVIEWERS * ITEMS) as usize);
    }
    let resident_large = exec.ctx.resident_scratch_bytes();
    assert!(
        resident_large > 64 * 1024,
        "root-group scratch must be far above the trim floor, got {resident_large} bytes"
    );

    // A run of small-query steps: once a whole trim window holds only
    // small demand, the executor must release the root-sized capacity.
    for step in 2..12 {
        let result = exec.run(&small_plan, &small, step);
        assert_eq!(result.group_size, REVIEWERS as usize);
    }
    let resident_after = exec.ctx.resident_scratch_bytes();
    assert!(
        resident_after < resident_large / 4,
        "resident scratch must drop after the trim \
         ({resident_large} -> {resident_after} bytes)"
    );

    // Steady small-query stepping afterwards never re-triggers growth back
    // to root scale.
    for step in 12..16 {
        exec.run(&small_plan, &small, step);
    }
    assert!(
        exec.ctx.resident_scratch_bytes() < resident_large / 4,
        "small steady state must stay small"
    );
}

#[test]
fn steady_large_workload_is_never_trimmed() {
    let db = build_db();
    let config = EngineConfig {
        phases: 2,
        recommendations: false,
        ..EngineConfig::default()
    };
    let root = SelectionQuery::all();
    let plan = StepPlan::compile(&config, &root);

    let mut seen = SeenContext::new(db.ratings().dim_count());
    let mut normalizers = CriterionNormalizers::new(config.normalizer);
    let mut ctx = ExecContext::new();
    let mut exec = StepExecutor {
        db: &db,
        dist_cache: None,
        seen: &mut seen,
        normalizers: &mut normalizers,
        ctx: &mut ctx,
    };

    exec.run(&plan, &root, 0);
    let warm = exec.ctx.resident_scratch_bytes();
    // Several full trim windows of identical demand: capacity must be
    // retained (a trim here would force a re-warm every window).
    for step in 1..13 {
        exec.run(&plan, &root, step);
        assert!(
            exec.ctx.resident_scratch_bytes() >= warm,
            "steady workload lost its warm buffers at step {step}"
        );
    }
}
