//! `run` and `selfcheck`: every workload, each in its own child process.
//!
//! A child is this binary in `--workload` form; it prints its metrics and
//! leaves a record under `benchmark/out/`. The parent folds the records
//! into one results file — medians and run-to-run spread per metric when
//! the untraced set is repeated — which is what `compare` reads.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::report::END_TO_END;
use crate::summary::{iqr_over_median, median, sorted};
use crate::workload::{out_dir, Workload};

pub fn record_path(workload: Workload, traced: bool) -> PathBuf {
    out_dir().join(format!(
        "record-{}-{}.json",
        workload.name(),
        if traced { "traced" } else { "untraced" }
    ))
}

pub fn results_path() -> PathBuf {
    out_dir().join("results.json")
}

/// Runs one workload in a child process and returns its record.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let path = record_path(workload, traced);
    let _ = std::fs::remove_file(&path);
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("running {}: {e}", workload.name()))?;
    print!("{}", String::from_utf8_lossy(&out.stdout));
    let text = std::fs::read_to_string(&path).map_err(|_| {
        format!(
            "{} ({}) left no record (exit {:?})",
            workload.name(),
            if traced { "traced" } else { "untraced" },
            out.status.code()
        )
    })?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn num(record: &Json, path: &[&str]) -> f64 {
    record.at(path).and_then(Json::as_f64).unwrap_or(0.0)
}

/// One workload's entry of the results file.
fn fold(untraced: &[Json], traced: Option<&Json>) -> Json {
    let first = &untraced[0];
    let all = || untraced.iter().chain(traced);
    let attempted: f64 = all().map(|r| num(r, &["attempted"])).sum();
    let failed: f64 = all().map(|r| num(r, &["failed"])).sum();
    let fingerprints: Vec<&Json> = all().filter_map(|r| r.get("result_fingerprint")).collect();
    let fingerprints_agree = fingerprints.windows(2).all(|w| w[0] == w[1]);
    // Every counter the first record has must read the same in every record
    // that has it (allocations exist in the traced record only).
    let exact_agree = first
        .get("exact")
        .map_or(&[][..], Json::entries)
        .iter()
        .all(|(k, v)| all().filter_map(|r| r.at(&["exact", k])).all(|o| o == v));

    let end_to_end = Json::obj(END_TO_END.iter().map(|(name, unit, _)| {
        let values: Vec<f64> = untraced
            .iter()
            .map(|r| num(r, &["metrics", name, "value"]))
            .collect();
        let entry = Json::obj([
            ("value", Json::Num(median(&sorted(values.clone())))),
            ("unit", Json::str(*unit)),
            (
                "samples",
                Json::Num(num(first, &["metrics", name, "samples"])),
            ),
            ("spread", Json::Num(iqr_over_median(&values))),
            (
                "values",
                Json::Arr(values.into_iter().map(Json::Num).collect()),
            ),
        ]);
        (*name, entry)
    }));

    let base_rate = median(&sorted(
        untraced.iter().map(|r| num(r, &["steps_per_s"])).collect(),
    ));
    let mut fields = vec![
        ("correct", Json::Bool(failed == 0.0)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("fail_ratio", Json::Num(failed / attempted.max(1.0))),
        (
            "result_fingerprint",
            first
                .get("result_fingerprint")
                .cloned()
                .unwrap_or(Json::Null),
        ),
        ("fingerprints_agree", Json::Bool(fingerprints_agree)),
        ("exact_agree", Json::Bool(exact_agree)),
        ("end_to_end", end_to_end),
    ];
    if let Some(t) = traced {
        fields.push(("exact", t.get("exact").cloned().unwrap_or(Json::Null)));
        fields.push(("per_layer", t.get("metrics").cloned().unwrap_or(Json::Null)));
        fields.push((
            "trace_overhead_ratio",
            Json::Num(num(t, &["steps_per_s"]) / base_rate),
        ));
    } else {
        fields.push(("exact", first.get("exact").cloned().unwrap_or(Json::Null)));
    }
    let warnings: Vec<Json> = all()
        .flat_map(|r| r.get("warnings").map_or(&[][..], Json::items))
        .cloned()
        .collect();
    fields.push(("warnings", Json::Arr(warnings)));
    Json::obj(fields)
}

/// Runs the untraced set `repeats` times (alternating the order, so drift
/// of the host does not favour one workload) and, with `with_trace`, the
/// traced set once. Returns the results document.
fn run_set(
    seed: u64,
    seconds: f64,
    repeats: usize,
    smoke: bool,
    with_trace: bool,
) -> Result<Json, String> {
    let mut untraced: Vec<Vec<Json>> = vec![Vec::new(); Workload::ALL.len()];
    for round in 0..repeats.max(1) {
        let mut order: Vec<usize> = (0..Workload::ALL.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            untraced[i].push(child(Workload::ALL[i], seed, seconds, false, smoke)?);
        }
    }
    let mut traced = Vec::new();
    if with_trace {
        for w in Workload::ALL {
            traced.push(child(w, seed, seconds, true, smoke)?);
        }
    }
    let workloads = Json::obj(
        Workload::ALL
            .iter()
            .enumerate()
            .map(|(i, w)| (w.name(), fold(&untraced[i], traced.get(i)))),
    );
    Ok(Json::obj([
        (
            "header",
            untraced[0][0].get("header").cloned().unwrap_or(Json::Null),
        ),
        // Smoke results exist to exercise the code; their numbers mean nothing.
        ("comparable", Json::Bool(!smoke)),
        ("repeats", Json::Num(repeats.max(1) as f64)),
        ("workloads", workloads),
    ]))
}

fn print_summary(results: &Json) {
    println!(
        "\n== summary (median over {} untraced run(s)) ==",
        num(results, &["repeats"])
    );
    for (name, w) in results.get("workloads").map_or(&[][..], Json::entries) {
        for (metric, m) in w.get("end_to_end").map_or(&[][..], Json::entries) {
            println!(
                "{name} {metric} {} {} n={} spread={:.4}",
                num(m, &["value"]),
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
                num(m, &["samples"]),
                num(m, &["spread"]),
            );
        }
        println!(
            "{name} fail_ratio {} ratio n={}",
            num(w, &["fail_ratio"]),
            num(w, &["attempted"])
        );
        if let Some(r) = w.get("trace_overhead_ratio").and_then(Json::as_f64) {
            println!("{name} trace.overhead_ratio {r} ratio");
        }
    }
}

fn all_correct(results: &Json) -> bool {
    results
        .get("workloads")
        .map_or(&[][..], Json::entries)
        .iter()
        .all(|(_, w)| w.get("correct").and_then(Json::as_bool) == Some(true))
}

/// `run`: untraced for the end-to-end metrics, traced for the per-layer
/// ones, results to `benchmark/out/results.json`. Fails if any operation
/// failed.
pub fn run(seed: u64, seconds: f64, repeats: usize, smoke: bool) -> Result<ExitCode, String> {
    let results = run_set(seed, seconds, repeats, smoke, true)?;
    std::fs::write(results_path(), results.pretty(4)).map_err(|e| e.to_string())?;
    print_summary(&results);
    println!("results: {}", results_path().display());
    Ok(if all_correct(&results) {
        ExitCode::SUCCESS
    } else {
        eprintln!("subdex-benchmark: fail_ratio > 0");
        ExitCode::from(1)
    })
}

/// `selfcheck`: the untraced set twice, in alternating order. Two runs of
/// one commit must agree within every metric's bound, and on `explore_*` the
/// first round's result fingerprint and exact counters must be identical;
/// the printed differences are what the bounds were chosen against.
pub fn selfcheck(seed: u64, seconds: f64, smoke: bool) -> Result<ExitCode, String> {
    let results = run_set(seed, seconds, 2, smoke, false)?;
    std::fs::write(out_dir().join("selfcheck.json"), results.pretty(4))
        .map_err(|e| e.to_string())?;
    let mut ok = all_correct(&results);
    println!("\n== selfcheck: run 1 vs run 2 ==");
    for (name, w) in results.get("workloads").map_or(&[][..], Json::entries) {
        for (metric, _, bound) in END_TO_END {
            let values = w
                .at(&["end_to_end", metric, "values"])
                .map_or(&[][..], Json::items);
            let (a, b) = (
                values.first().and_then(Json::as_f64).unwrap_or(0.0),
                values.get(1).and_then(Json::as_f64).unwrap_or(0.0),
            );
            let diff = (a - b).abs() / ((a + b) / 2.0).max(f64::MIN_POSITIVE);
            // Smoke runs are too short for their timings to agree.
            let within = diff <= bound || smoke;
            ok &= within;
            println!(
                "{name} {metric} {a} {b} diff={diff:.4} bound={bound} {}",
                if within { "ok" } else { "DIFFERS" }
            );
        }
        if name.starts_with("explore") {
            for (what, key) in [
                ("result_fingerprint", "fingerprints_agree"),
                ("exact_counters", "exact_agree"),
            ] {
                let agree = w.get(key).and_then(Json::as_bool) == Some(true);
                ok &= agree;
                println!(
                    "{name} {what} {}",
                    if agree { "identical" } else { "DIFFER" }
                );
            }
        }
    }
    Ok(if ok {
        println!("selfcheck passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("subdex-benchmark: selfcheck failed");
        ExitCode::from(1)
    })
}
