//! Turns what a run recorded into named metrics, and prints them.
//!
//! End-to-end metrics come from the untraced run only; per-layer metrics
//! from the traced run only. Latencies are taken per operation at the best
//! of the run's rounds, rates from the fastest complete round; sums over
//! the timed region are reported per step, because the region is bounded by
//! time and not by a step count.

use subdex_store::{CacheStats, IndexStats};

use crate::drive::{Region, Round};
use crate::json::Json;
use crate::script::{BATCH, WALK_STEPS};
use crate::summary::{highest_supported, median, percentile, sorted};
use crate::trace::{totals_by_name, NameTotals};
use crate::workload::{RunOptions, SetupTimes};

/// Samples a reported p95 needs behind it (ten beyond the percentile).
pub const P95_SAMPLES: usize = 200;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples (or summed operations) behind the value.
    pub samples: u64,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        // Also folds the -0 an empty f64 sum yields into 0.
        value: if value.is_finite() && value != 0.0 {
            value
        } else {
            0.0
        },
        unit,
        samples,
    }
}

/// The end-to-end metric names, units and regression bounds, in the order
/// `BENCHMARK.json` lists them. `fail_ratio` is not among them: the contract
/// carries it as `failed / attempted` of every result line, gated at zero.
/// Timings share the contract's widest bound: the build host slows down by
/// 20-50 % for minutes at a time, and two sets of runs of one commit do not
/// agree more closely than this (README, "Why the bounds are 0.25").
pub const END_TO_END: [(&str, &str, f64); 10] = [
    ("setup_s", "s", 0.25),
    ("step_p50_ms", "ms", 0.25),
    ("step_p95_ms", "ms", 0.25),
    ("first_step_p50_ms", "ms", 0.25),
    ("steps_per_s", "1/s", 0.25),
    ("cpu_ms_per_step", "ms", 0.25),
    ("append_p50_ms", "ms", 0.25),
    ("append_p95_ms", "ms", 0.25),
    ("reopen_p50_ms", "ms", 0.25),
    ("peak_rss_mb", "MiB", 0.25),
];

/// Metrics where a larger value is the better one.
pub fn higher_is_better(name: &str) -> bool {
    name == "steps_per_s"
}

/// What one workload invocation produced.
pub struct Outcome {
    /// What identifies the run (see `main::header`).
    pub header: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// The contract's metrics: end-to-end (untraced) or per-layer (traced).
    pub metrics: Vec<Metric>,
    /// Digest of the first round's results.
    pub fingerprint: u64,
    /// Counters of the first round, which repeat exactly on deterministic code.
    pub exact: Vec<(&'static str, u64)>,
    pub steps: u64,
    pub steps_per_s: f64,
    pub warnings: Vec<String>,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn p50(ascending: &[f64]) -> f64 {
    if ascending.is_empty() {
        0.0
    } else {
        median(ascending)
    }
}

fn p95(ascending: &[f64]) -> f64 {
    if ascending.is_empty() {
        0.0
    } else {
        percentile(ascending, 95.0)
    }
}

/// The rounds a rate may be taken from: the complete ones (the first round
/// always is).
fn complete_rounds(region: &Region) -> impl Iterator<Item = &Round> {
    region.rounds.iter().filter(|r| r.complete && r.steps > 0)
}

/// Steps per second of the fastest complete round.
pub fn best_rate(region: &Region) -> f64 {
    complete_rounds(region)
        .map(|r| r.steps as f64 / r.wall_s)
        .fold(0.0, f64::max)
}

pub fn end_to_end(
    opts: &RunOptions,
    setup: &SetupTimes,
    region: &Region,
    warnings: &mut Vec<String>,
) -> Vec<Metric> {
    let steps = region.step_best.values();
    let first_steps = region.step_best.values_where(|slot| slot % WALK_STEPS == 0);
    let appends = region.append_best.values();
    let reopens = region.reopen_best.values();
    for (what, distinct, n) in [
        ("step", steps.len(), region.step_best.executions),
        ("append", appends.len(), region.append_best.executions),
    ] {
        if !opts.profile.smoke && (n as usize) < P95_SAMPLES {
            warnings.push(format!(
                "{what}_p95_ms rests on {n} executions of {distinct} operations, fewer than \
                 {P95_SAMPLES}; the highest percentile this run supports is {:?}",
                highest_supported(n as usize)
            ));
        }
    }
    let cpu_ms = complete_rounds(region)
        .map(|r| r.cpu_s * 1e3 / r.steps as f64)
        .fold(f64::INFINITY, f64::min);
    vec![
        metric(
            "setup_s",
            setup.total_s,
            "s",
            (opts.profile.setup_repeats.0 + opts.profile.setup_repeats.1) as u64,
        ),
        metric(
            "step_p50_ms",
            p50(&steps),
            "ms",
            region.step_best.executions,
        ),
        metric(
            "step_p95_ms",
            p95(&steps),
            "ms",
            region.step_best.executions,
        ),
        metric(
            "first_step_p50_ms",
            p50(&first_steps),
            "ms",
            region.step_best.executions / WALK_STEPS as u64,
        ),
        metric(
            "steps_per_s",
            best_rate(region),
            "1/s",
            region.steps.len() as u64,
        ),
        metric("cpu_ms_per_step", cpu_ms, "ms", region.steps.len() as u64),
        metric(
            "append_p50_ms",
            p50(&appends),
            "ms",
            region.append_best.executions,
        ),
        metric(
            "append_p95_ms",
            p95(&appends),
            "ms",
            region.append_best.executions,
        ),
        metric(
            "reopen_p50_ms",
            p50(&reopens),
            "ms",
            region.reopen_best.executions,
        ),
        metric("peak_rss_mb", region.peak_rss_mb, "MiB", 1),
    ]
}

/// The first round's counters, which `compare` gates on equality-or-lower
/// for `explore_*`: one round is a fixed amount of work, so they repeat
/// exactly where the program is deterministic. Allocations are counted in
/// the traced run only.
pub fn exact_counters(region: &Region, traced: bool) -> Vec<(&'static str, u64)> {
    let first = &region.rounds[0];
    let mut exact = vec![
        (
            "core.select.exact_solves",
            first.counters.selection.exact_solves,
        ),
        (
            "store.records_filtered",
            first.counters.materialization.records_filtered,
        ),
    ];
    if traced {
        exact.push(("core.step.allocs", first.allocs));
    }
    exact
}

/// p95 of the steps that overlapped a checkpoint minus p95 of the rest: the
/// spike a median hides. 0 when no step overlapped one.
fn checkpoint_stall_ms(region: &Region) -> (f64, u64) {
    let cps = &region.checkpoint_spans;
    let (mut during, mut rest) = (Vec::new(), Vec::new());
    for s in &region.steps {
        if cps.iter().any(|&(cs, ce)| s.start_ns < ce && cs < s.end_ns) {
            during.push(s.ms);
        } else {
            rest.push(s.ms);
        }
    }
    if during.is_empty() || rest.is_empty() {
        return (0.0, 0);
    }
    (
        p95(&sorted(during.clone())) - p95(&sorted(rest)),
        during.len() as u64,
    )
}

pub fn per_layer(
    setup: &SetupTimes,
    region: &Region,
    probe_us_per_group: (f64, u64),
    index: IndexStats,
) -> Vec<Metric> {
    let c = &region.counters;
    let steps = c.steps.max(1);
    let per_step = |v: u64| v as f64 / steps as f64;
    let spans = totals_by_name(&region.spans);
    let of = |name: &str| spans.get(name).copied().unwrap_or(NameTotals::default());
    let ms_per_step = |ns: u64| ns as f64 / 1e6 / steps as f64;
    // Sums over every execution, per step.
    let count = |name, v: u64| metric(name, per_step(v), "count", c.steps);
    let busy = |name, ns: u64| metric(name, ms_per_step(ns), "ms", c.steps);
    // The executor's own clock (Σ `stats.elapsed`), and what none of the
    // phases it reports accounts for. On `explore_*` the `step` span is the
    // caller's wall time instead, a call's overhead longer.
    let exec_ns = c.exec.as_nanos() as u64;
    let phases_ns: u64 = [
        "store.materialize",
        "core.generate",
        "core.select",
        "core.recommend",
    ]
    .iter()
    .map(|name| of(name).total_ns)
    .sum();
    let m = &c.materialization;
    let sel = &c.selection;
    let pruned = c.pruned_ci + c.pruned_mab;
    let snapshot = region.service.as_ref();
    let no_cache = CacheStats {
        hits: 0,
        misses: 0,
        evictions: 0,
        rejected_inserts: 0,
        entries: 0,
        resident_bytes: 0,
    };
    // Cache counters are those of the last complete round's service.
    let cache = snapshot.and_then(|s| s.cache).unwrap_or(no_cache);
    let dist = snapshot.and_then(|s| s.dist_cache).unwrap_or(no_cache);
    let round_steps = region.rounds[0].steps.max(1);
    let per_round_step = |v: u64| v as f64 / round_steps as f64;
    let (stall_ms, stall_n) = checkpoint_stall_ms(region);
    let first = &region.rounds[0];
    let wall_s: f64 = region.rounds.iter().map(|r| r.wall_s).sum();
    let cpu_s: f64 = region.rounds.iter().map(|r| r.cpu_s).sum();
    let utilization = if region.workers == 0 {
        0.0
    } else {
        c.exec.as_secs_f64() / (wall_s * region.workers as f64)
    };
    let queue_wait = sorted(region.queue_wait_ms.clone());
    let create_us = sorted(region.session_create_us.clone());
    let load_ms = sorted(region.snapshot_load_ms.clone());
    let (persist, final_ratings) = region
        .reopened
        .as_ref()
        .map(|(stats, db)| (*stats, db.ratings().len()))
        .expect("every run ends with a reopened store");

    vec![
        // store
        busy(
            "store.materialize.busy_ms_per_step",
            of("store.materialize").total_ns,
        ),
        count("store.groups.derived_per_step", m.derived),
        count("store.groups.walked_per_step", m.walked),
        count("store.groups.probed_per_step", m.probed),
        count("store.groups.cached_per_step", m.cached),
        count("store.groups.skipped_empty_per_step", m.skipped_empty),
        metric(
            "store.records_filtered",
            first.counters.materialization.records_filtered as f64,
            "count",
            first.steps,
        ),
        metric(
            "store.probe.materialize_us_per_group",
            probe_us_per_group.0,
            "us",
            probe_us_per_group.1,
        ),
        metric(
            "store.group_cache.hit_ratio",
            cache.hit_rate(),
            "ratio",
            cache.hits + cache.misses,
        ),
        metric(
            "store.group_cache.evictions_per_step",
            per_round_step(cache.evictions),
            "count",
            round_steps,
        ),
        metric(
            "store.group_cache.rejected_inserts_per_step",
            per_round_step(cache.rejected_inserts),
            "count",
            round_steps,
        ),
        metric(
            "store.group_cache.resident_bytes",
            cache.resident_bytes as f64,
            "bytes",
            1,
        ),
        metric(
            "store.dist_cache.hit_ratio",
            dist.hit_rate(),
            "ratio",
            dist.hits + dist.misses,
        ),
        metric(
            "store.dist_cache.evictions_per_step",
            per_round_step(dist.evictions),
            "count",
            round_steps,
        ),
        metric(
            "store.index.resident_bytes",
            index.resident_bytes as f64,
            "bytes",
            1,
        ),
        metric(
            "store.index.flat_bytes",
            index.flat_bytes as f64,
            "bytes",
            1,
        ),
        // core.generator
        busy("core.scan.busy_ms_per_step", of("core.scan").total_ns),
        busy(
            "core.generate.busy_ms_per_step",
            of("core.generate").self_ns,
        ),
        count("core.generate.candidates_per_step", c.candidates),
        count("core.generate.pruned_ci_per_step", c.pruned_ci),
        count("core.generate.pruned_mab_per_step", c.pruned_mab),
        metric(
            "core.generate.prune_ratio",
            pruned as f64 / c.candidates.max(1) as f64,
            "ratio",
            c.candidates,
        ),
        // core.selector
        busy("core.select.busy_ms_per_step", of("core.select").total_ns),
        metric(
            "core.select.exact_solves",
            first.counters.selection.exact_solves as f64,
            "count",
            first.steps,
        ),
        count("core.select.pruned_mixture_per_step", sel.pruned_mixture),
        count("core.select.pruned_matrix_per_step", sel.pruned_matrix),
        count("core.select.cache_hits_per_step", sel.cache_hits),
        metric(
            "core.select.exact_ratio",
            sel.exact_solves as f64 / sel.evaluations().max(1) as f64,
            "ratio",
            sel.evaluations(),
        ),
        // core.recommend
        busy(
            "core.recommend.busy_ms_per_step",
            of("core.recommend").total_ns,
        ),
        metric(
            "core.recommend.share",
            of("core.recommend").total_ns as f64 / exec_ns.max(1) as f64,
            "ratio",
            c.steps,
        ),
        count("core.recommend.groups_per_step", m.total()),
        // core.plan
        busy("core.step.exec_ms_per_step", exec_ns),
        busy(
            "core.step.other_ms_per_step",
            exec_ns.saturating_sub(phases_ns),
        ),
        metric(
            "core.step.allocs_per_step",
            per_round_step(first.allocs),
            "count",
            first.steps,
        ),
        metric(
            "core.step.alloc_bytes_per_step",
            per_round_step(first.alloc_bytes),
            "bytes",
            first.steps,
        ),
        metric(
            "core.pool.cpu_parallelism",
            cpu_s / wall_s,
            "ratio",
            region.rounds.len() as u64,
        ),
        // service
        metric(
            "service.queue_wait_p50_ms",
            p50(&queue_wait),
            "ms",
            queue_wait.len() as u64,
        ),
        metric(
            "service.queue_wait_p95_ms",
            p95(&queue_wait),
            "ms",
            queue_wait.len() as u64,
        ),
        metric("service.worker_utilization", utilization, "ratio", c.steps),
        metric(
            "service.rejected",
            snapshot.map_or(0, |s| s.requests_rejected) as f64,
            "count",
            1,
        ),
        metric(
            "service.queue_hwm",
            snapshot.map_or(0, |s| s.queue_depth_hwm) as f64,
            "count",
            1,
        ),
        metric(
            "service.sessions_per_s",
            region.sessions as f64 / wall_s,
            "1/s",
            region.sessions,
        ),
        metric(
            "service.session_create_us",
            p50(&create_us),
            "us",
            create_us.len() as u64,
        ),
        // persist
        metric(
            "persist.append.busy_ms",
            of("persist.append").total_ns as f64 / 1e6,
            "ms",
            of("persist.append").count,
        ),
        metric(
            "persist.append.batches",
            region.timed_batches as f64,
            "count",
            1,
        ),
        metric(
            "persist.append.ratings",
            (region.timed_batches * BATCH as u64) as f64,
            "count",
            1,
        ),
        metric(
            "persist.wal_bytes_per_rating",
            region.wal_bytes as f64 / region.wal_ratings.max(1) as f64,
            "bytes",
            region.wal_ratings,
        ),
        metric(
            "persist.checkpoint.busy_ms",
            region.checkpoint_ms.iter().sum(),
            "ms",
            region.checkpoint_ms.len() as u64,
        ),
        metric(
            "persist.checkpoint.count",
            region.checkpoint_ms.len() as f64,
            "count",
            1,
        ),
        metric("persist.checkpoint.stall_p95_ms", stall_ms, "ms", stall_n),
        metric(
            "persist.snapshot_bytes",
            persist.snapshot_bytes as f64,
            "bytes",
            1,
        ),
        metric(
            "persist.bytes_per_rating",
            persist.snapshot_bytes as f64 / final_ratings.max(1) as f64,
            "bytes",
            final_ratings as u64,
        ),
        metric(
            "persist.open.snapshot_load_ms",
            p50(&load_ms),
            "ms",
            load_ms.len() as u64,
        ),
        metric(
            "persist.open.wal_batches_replayed",
            persist.wal_replayed_batches as f64,
            "count",
            1,
        ),
        metric(
            "persist.epoch_bumps",
            region.timed_batches as f64,
            "count",
            1,
        ),
        // data / set-up
        metric("data.generate.busy_ms", setup.generate_ms, "ms", 1),
        metric("data.finish.busy_ms", setup.finish_ms, "ms", 1),
        metric("setup.scripts.busy_ms", setup.scripts_ms, "ms", 1),
        metric("persist.create.busy_ms", setup.create_ms, "ms", 1),
        // trace
        metric(
            "trace.steps_per_s",
            best_rate(region),
            "1/s",
            region.steps.len() as u64,
        ),
    ]
}

/// `workload metric value unit n=samples`, one line per metric.
pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{workload} {} {} {} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn metric_map(metrics: &[Metric], with_samples: bool) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        if with_samples {
            fields.push(("samples", Json::Num(m.samples as f64)));
        }
        (m.name, Json::obj(fields))
    }))
}

/// The contract's result line.
pub fn result_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metric_map(&outcome.metrics, false)),
    ])
    .line()
}

/// The workload's record in a results file: the result line's content plus
/// sample counts, the first round's fingerprint and exact counters, and whatever
/// the run warned about.
pub fn record(opts: &RunOptions, outcome: &Outcome) -> Json {
    Json::obj([
        ("workload", Json::str(opts.workload.name())),
        ("traced", Json::Bool(opts.trace)),
        (
            "header",
            Json::obj(
                outcome
                    .header
                    .iter()
                    .map(|(k, v)| (k.as_str(), Json::str(v.as_str()))),
            ),
        ),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("steps", Json::Num(outcome.steps as f64)),
        ("steps_per_s", Json::Num(outcome.steps_per_s)),
        (
            "result_fingerprint",
            Json::str(format!("{:016x}", outcome.fingerprint)),
        ),
        (
            "exact",
            Json::obj(
                outcome
                    .exact
                    .iter()
                    .map(|(k, v)| (*k, Json::Num(*v as f64))),
            ),
        ),
        ("metrics", metric_map(&outcome.metrics, true)),
        (
            "warnings",
            Json::Arr(
                outcome
                    .warnings
                    .iter()
                    .chain(&outcome.errors)
                    .map(|w| Json::str(w.as_str()))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_these_metrics_with_these_bounds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<(String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, f64)> = END_TO_END
            .iter()
            .map(|(n, u, b)| ((*n).to_owned(), (*u).to_owned(), *b))
            .collect();
        assert_eq!(listed, ours);
        for m in doc.get("end_to_end").unwrap().items() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            let better = m.get("better").and_then(Json::as_str).unwrap();
            assert_eq!(better == "higher", higher_is_better(name), "{name}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            header: Vec::new(),
            attempted: 10,
            failed: 0,
            metrics: vec![
                metric("setup_s", 0.8127, "s", 3),
                metric("x", f64::NAN, "ms", 0),
            ],
            fingerprint: 7,
            exact: Vec::new(),
            steps: 10,
            steps_per_s: 1.0,
            warnings: Vec::new(),
            errors: Vec::new(),
        };
        assert_eq!(
            result_line(&outcome),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }
}
