//! Drives the built binary through every code path with the `--smoke`
//! profile: each workload untraced and traced in its own child process, the
//! results file, `selfcheck`, and `compare` (which must refuse smoke files).
//! One test function, because the runs share `benchmark/out/`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_owned()
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_subdex-benchmark"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn smoke_profile_exercises_every_path() {
    // The contract form: one workload, result line last.
    let out = bench(&[
        "--workload",
        "serve_mixed",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.trim_end().lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for metric in [
        "setup_s",
        "step_p95_ms",
        "append_p50_ms",
        "reopen_p50_ms",
        "peak_rss_mb",
    ] {
        assert!(
            last.contains(&format!("\"{metric}\": {{\"value\": ")),
            "{metric} in {last}"
        );
    }

    // A traced run prints exactly the per-layer metrics BENCHMARK.json lists.
    let out = bench(&[
        "--workload",
        "explore_ud",
        "--seed",
        "3",
        "--seconds",
        "0.5",
        "--trace",
        "1",
        "--smoke",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.trim_end().lines().last().unwrap();
    let contract = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let per_layer = contract.split("\"per_layer\"").nth(1).unwrap();
    let listed: Vec<&str> = per_layer
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap())
        .collect();
    assert!(listed.len() > 50);
    for name in &listed {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} in {last}"
        );
    }
    assert_eq!(last.matches("\"value\": ").count(), listed.len());

    // The whole suite, untraced then traced.
    let out = bench(&["run", "--seed", "3", "--seconds", "0.5", "--smoke"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for line in [
        "explore_rp step_p50_ms ",
        "explore_ud core.recommend.share 0 ratio",
        "serve_read persist.append.batches 0 count",
        "serve_mixed persist.checkpoint.count ",
        "serve_mixed trace.overhead_ratio ",
    ] {
        assert!(stdout.contains(line), "missing `{line}` in:\n{stdout}");
    }
    let out_dir = repo_root().join("benchmark/out");
    let results = std::fs::read_to_string(out_dir.join("results.json")).unwrap();
    assert!(results.contains("\"comparable\": false"));
    let trace = std::fs::read_to_string(out_dir.join("trace-serve_mixed.jsonl")).unwrap();
    for name in [
        "service.submit_wait",
        "core.recommend",
        "persist.append",
        "persist.open",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{name}\"")),
            "{name} span missing"
        );
    }

    // Smoke results are stamped non-comparable.
    let results = out_dir.join("results.json");
    let out = bench(&[
        "compare",
        results.to_str().unwrap(),
        results.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("non-comparable"));

    // Two runs of one seed give the same results.
    let out = bench(&["selfcheck", "--seed", "3", "--seconds", "0.5", "--smoke"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("explore_rp result_fingerprint identical"));
    assert!(stdout.contains("explore_ud result_fingerprint identical"));
    assert!(stdout.contains("explore_ud exact_counters identical"));

    // Bad command lines fail without a result line.
    let out = bench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!out.status.success() && out.stdout.is_empty());
}
