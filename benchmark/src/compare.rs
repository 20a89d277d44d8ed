//! `compare <base.json> <new.json>`: did the new results regress?
//!
//! Per workload and end-to-end metric: base, new, ratio and a verdict.
//! `regressed` means the new median is worse than the base by more than the
//! metric's bound. Where the recorded run-to-run spread of either file is
//! wider than the bound, the verdict is `unresolved` instead — unless every
//! run of the new file reads better than every run of the base. Counters
//! that repeat exactly are gated on equality-or-lower. Files measured under
//! different conditions are not compared at all.

use std::process::ExitCode;

use crate::json::Json;
use crate::report::{higher_is_better, END_TO_END};

/// Header fields that must agree for two files to be comparable.
const SAME_CONDITIONS: [&str; 7] = [
    "profile",
    "counts",
    "seed",
    "seconds",
    "kernel_path",
    "nproc",
    "dataset",
];

/// First-round counters gated on `explore_*` (allocations come from the traced
/// run).
const GATED_COUNTERS: [&str; 3] = [
    "core.step.allocs",
    "core.select.exact_solves",
    "store.records_filtered",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn values(entry: &Json) -> Vec<f64> {
    entry
        .get("values")
        .map_or(&[][..], Json::items)
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// The verdict on one metric of one workload.
pub fn judge(name: &str, bound: f64, base: &Json, new: &Json) -> Verdict {
    let value = |e: &Json| e.get("value").and_then(Json::as_f64).unwrap_or(0.0);
    let spread = |e: &Json| e.get("spread").and_then(Json::as_f64).unwrap_or(0.0);
    let (b, n) = (value(base), value(new));
    let up = higher_is_better(name);
    let worse_by = if up { (b - n) / b } else { (n - b) / b };
    if spread(base).max(spread(new)) > bound {
        let (bv, nv) = (values(base), values(new));
        let all_better = !bv.is_empty()
            && !nv.is_empty()
            && nv
                .iter()
                .all(|n| bv.iter().all(|b| if up { n > b } else { n < b }));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Why the two files cannot be compared, if they cannot.
pub fn incomparable(base: &Json, new: &Json) -> Option<String> {
    for (which, file) in [("base", base), ("new", new)] {
        if file.get("comparable").and_then(Json::as_bool) != Some(true) {
            return Some(format!(
                "the {which} file is stamped non-comparable (a --smoke run)"
            ));
        }
    }
    for key in SAME_CONDITIONS {
        let (a, b) = (base.at(&["header", key]), new.at(&["header", key]));
        if a != b {
            let show =
                |v: Option<&Json>| v.and_then(Json::as_str).unwrap_or("<missing>").to_owned();
            return Some(format!(
                "header field {key} differs: {} vs {}",
                show(a),
                show(b)
            ));
        }
    }
    None
}

/// Compares two parsed result files, printing one line per pairing.
/// Returns the number of regressions.
pub fn compare(base: &Json, new: &Json) -> Result<usize, String> {
    if let Some(why) = incomparable(base, new) {
        return Err(format!("refusing to compare: {why}"));
    }
    let mut regressions = 0;
    println!("workload metric base new ratio verdict");
    for (name, b) in base.get("workloads").map_or(&[][..], Json::entries) {
        let n = new
            .at(&["workloads", name])
            .ok_or(format!("the new file has no workload {name}"))?;
        for (metric, _, bound) in END_TO_END {
            let (Some(be), Some(ne)) =
                (b.at(&["end_to_end", metric]), n.at(&["end_to_end", metric]))
            else {
                return Err(format!("{name} {metric} is missing from a file"));
            };
            let verdict = judge(metric, bound, be, ne);
            regressions += usize::from(verdict == Verdict::Regressed);
            let v = |e: &Json| e.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "{name} {metric} {} {} {:.4} {}",
                v(be),
                v(ne),
                v(ne) / v(be),
                verdict.label()
            );
        }
        let failed = n.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let fail_verdict = if failed > 0.0 {
            regressions += 1;
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        println!(
            "{name} fail_ratio {} {} - {}",
            b.get("fail_ratio").and_then(Json::as_f64).unwrap_or(0.0),
            n.get("fail_ratio").and_then(Json::as_f64).unwrap_or(0.0),
            fail_verdict.label()
        );
        if name.starts_with("explore") {
            for counter in GATED_COUNTERS {
                let get = |w: &Json| w.at(&["exact", counter]).and_then(Json::as_f64);
                let verdict = match (get(b), get(n)) {
                    (Some(bc), Some(nc)) if nc <= bc => Verdict::Ok,
                    (Some(_), Some(_)) => Verdict::Regressed,
                    // A file made without the traced run has no allocation count.
                    _ => Verdict::Unresolved,
                };
                regressions += usize::from(verdict == Verdict::Regressed);
                println!(
                    "{name} {counter} {} {} - {}",
                    get(b).map_or("-".to_owned(), |v| v.to_string()),
                    get(n).map_or("-".to_owned(), |v| v.to_string()),
                    verdict.label()
                );
            }
            let same = b.get("result_fingerprint") == n.get("result_fingerprint");
            println!(
                "{name} result_fingerprint {}",
                if same {
                    "identical"
                } else {
                    "differs (results changed)"
                }
            );
        }
    }
    Ok(regressions)
}

pub fn compare_files(base: &str, new: &str) -> Result<ExitCode, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{path}: {e}")))
    };
    let regressions = compare(&load(base)?, &load(new)?)?;
    Ok(if regressions == 0 {
        println!("no regression");
        ExitCode::SUCCESS
    } else {
        eprintln!("subdex-benchmark: {regressions} regression(s)");
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(value: f64, spread: f64, values: &[f64]) -> Json {
        Json::obj([
            ("value", Json::Num(value)),
            ("spread", Json::Num(spread)),
            (
                "values",
                Json::Arr(values.iter().copied().map(Json::Num).collect()),
            ),
        ])
    }

    fn file(seed: &str, comparable: bool, step_p50: f64, exact_solves: f64) -> Json {
        let metrics = Json::obj(END_TO_END.iter().map(|(name, _, _)| {
            let v = if *name == "step_p50_ms" {
                step_p50
            } else {
                10.0
            };
            (*name, entry(v, 0.01, &[v]))
        }));
        let header = Json::obj(
            SAME_CONDITIONS
                .iter()
                .map(|k| (*k, Json::str(if *k == "seed" { seed } else { "same" }))),
        );
        Json::obj([
            ("header", header),
            ("comparable", Json::Bool(comparable)),
            (
                "workloads",
                Json::obj([(
                    "explore_rp",
                    Json::obj([
                        ("failed", Json::Num(0.0)),
                        ("fail_ratio", Json::Num(0.0)),
                        ("end_to_end", metrics),
                        (
                            "exact",
                            Json::obj(GATED_COUNTERS.iter().map(|c| {
                                (
                                    *c,
                                    Json::Num(if *c == "core.select.exact_solves" {
                                        exact_solves
                                    } else {
                                        5.0
                                    }),
                                )
                            })),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let base = entry(100.0, 0.02, &[99.0, 101.0]);
        assert_eq!(
            judge("step_p50_ms", 0.10, &base, &entry(109.0, 0.02, &[109.0])),
            Verdict::Ok
        );
        assert_eq!(
            judge("step_p50_ms", 0.10, &base, &entry(111.0, 0.02, &[111.0])),
            Verdict::Regressed
        );
        // Throughput regresses downwards.
        assert_eq!(
            judge("steps_per_s", 0.10, &base, &entry(111.0, 0.02, &[111.0])),
            Verdict::Ok
        );
        assert_eq!(
            judge("steps_per_s", 0.10, &base, &entry(89.0, 0.02, &[89.0])),
            Verdict::Regressed
        );
        // A spread wider than the bound resolves nothing ...
        let noisy = entry(120.0, 0.30, &[100.5, 140.0]);
        assert_eq!(
            judge("step_p50_ms", 0.10, &base, &noisy),
            Verdict::Unresolved
        );
        // ... unless every new run beats every base run.
        let faster = entry(60.0, 0.30, &[50.0, 70.0]);
        assert_eq!(judge("step_p50_ms", 0.10, &base, &faster), Verdict::Ok);
    }

    #[test]
    fn counts_regressions_and_gates_exact_counters() {
        let base = file("1", true, 50.0, 40.0);
        assert_eq!(compare(&base, &file("1", true, 52.0, 40.0)), Ok(0));
        assert_eq!(compare(&base, &file("1", true, 70.0, 40.0)), Ok(1));
        assert_eq!(compare(&base, &file("1", true, 50.0, 41.0)), Ok(1));
        assert_eq!(compare(&base, &file("1", true, 50.0, 39.0)), Ok(0));
    }

    #[test]
    fn refuses_files_measured_under_other_conditions() {
        let base = file("1", true, 50.0, 40.0);
        assert!(compare(&base, &file("2", true, 50.0, 40.0))
            .unwrap_err()
            .contains("seed"));
        assert!(compare(&base, &file("1", false, 50.0, 40.0))
            .unwrap_err()
            .contains("non-comparable"));
    }
}
