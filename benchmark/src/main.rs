//! `subdex-benchmark`: the end-to-end step benchmark of SubDEx.
//!
//! ```text
//! subdex-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! subdex-benchmark run       [--seed <n>] [--seconds <s>] [--repeats <n>] [--smoke]
//! subdex-benchmark selfcheck [--seed <n>] [--seconds <s>] [--smoke]
//! subdex-benchmark compare <base.json> <new.json>
//! ```
//!
//! The first form runs one workload in this process and ends with the
//! result line the benchmark contract asks for. `run` re-executes this
//! binary once per workload (so peak memory and allocation counts belong to
//! one workload), untraced for the end-to-end metrics and then traced for
//! the per-layer ones. See `benchmark/README.md`.

mod compare;
mod drive;
mod host;
mod json;
mod report;
mod rng;
mod script;
mod suite;
mod summary;
mod trace;
mod verify;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use subdex_core::EngineConfig;
use subdex_store::SubjectiveDb;

use crate::report::Outcome;
use crate::trace::SpanLog;
use crate::workload::{Profile, RunOptions, ScratchDir, SetupSamples, Workload};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Seconds one run measures when the command line does not say.
const DEFAULT_SECONDS: f64 = 25.0;

/// `--key value` pairs and bare words of a command line.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
            smoke: false,
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if a == "--smoke" {
                args.smoke = true;
            } else if let Some(key) = a.strip_prefix("--") {
                let value = raw.next().ok_or(format!("--{key} needs a value"))?;
                args.flags.push((key.to_owned(), value));
            } else {
                args.words.push(a);
            }
        }
        Ok(args)
    }

    fn flag(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flag(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} {v}: not a number")),
        }
    }

    fn profile(&self) -> Profile {
        if self.smoke {
            Profile::smoke()
        } else {
            Profile::full()
        }
    }
}

/// What identifies a run: two result files are comparable only if these
/// agree (apart from the commit).
fn header(opts: &RunOptions, dataset: &SubjectiveDb) -> Vec<(String, String)> {
    let tool = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let p = &opts.profile;
    let mut h = vec![
        ("commit".to_owned(), tool("git", &["rev-parse", "HEAD"])),
        ("rustc".to_owned(), tool("rustc", &["--version"])),
        ("nproc".to_owned(), host::cores().to_string()),
        (
            "kernel_path".to_owned(),
            subdex_stats::kernels::active().name().to_owned(),
        ),
        (
            "profile".to_owned(),
            if p.smoke { "smoke" } else { "full" }.to_owned(),
        ),
        ("seed".to_owned(), opts.seed.to_string()),
        ("seconds".to_owned(), opts.seconds.to_string()),
        ("counts".to_owned(), format!("{p:?}")),
        (
            "engine_config".to_owned(),
            format!("{:?}", EngineConfig::default()),
        ),
        (
            "service_config".to_owned(),
            format!("{:?}", drive::service_config()),
        ),
    ];
    let s = dataset.stats();
    h.push((
        "dataset".to_owned(),
        format!(
            "yelp-like reviewers={} items={} ratings={} dims={}",
            s.reviewer_count, s.item_count, s.rating_count, s.dim_count
        ),
    ));
    h
}

/// Runs one workload in this process.
fn run_workload(opts: &RunOptions) -> Result<Outcome, String> {
    let name = opts.workload.name();
    let origin = Instant::now();
    let scratch = ScratchDir::new(name).map_err(|e| format!("scratch directory: {e}"))?;
    let mut outer = SpanLog::new(opts.trace, origin, 0);
    let mut setups = SetupSamples::default();
    let (before, after) = opts.profile.setup_repeats;
    let prepared = workload::set_up(opts, &scratch, before, &mut setups, &mut outer)?;
    let header = header(opts, &prepared.db);
    for (k, v) in &header {
        println!("# {k}: {v}");
    }
    println!("# traced: {}", if opts.trace { "yes" } else { "no" });

    let mut region = if opts.workload.is_explore() {
        drive::run_explore(opts, &prepared, origin)
    } else {
        drive::run_serve(opts, &prepared, &scratch, origin, &mut outer)?
    };
    if opts.workload != Workload::ServeMixed {
        drive::idle_tails(opts, &prepared, &scratch, &mut region, &mut outer)?;
    }
    workload::set_up(opts, &scratch, after, &mut setups, &mut outer)?;
    let setup = setups.medians();

    // Group sizes, checked against an independent scan. Only `serve_mixed`
    // steps over more than one epoch; its reference is a reopened store,
    // which holds every batch the rounds appended.
    let initial = prepared.db.ratings().len();
    let wrong_sizes = match (&region.reopened, opts.workload) {
        (Some((_, db)), Workload::ServeMixed) => {
            region.sizes.failed_steps(db, drive::len_at_epoch(initial))
        }
        _ => region.sizes.failed_steps(&prepared.db, |_| initial),
    };
    if wrong_sizes > 0 {
        region.failed += wrong_sizes;
        region
            .errors
            .push(format!("{wrong_sizes} steps reported a wrong group size"));
    }

    let mut warnings = Vec::new();
    let first = region.rounds[0];
    if region
        .rounds
        .iter()
        .any(|r| r.complete && r.fingerprint != first.fingerprint)
        && opts.workload != Workload::ServeMixed
    {
        warnings.push("rounds of one run produced different results".to_owned());
    }
    println!(
        "# rounds: {} ({} complete), {} steps each, {:.2} s of stepping measured",
        region.rounds.len(),
        region.rounds.iter().filter(|r| r.complete).count(),
        first.steps,
        region.rounds.iter().map(|r| r.wall_s).sum::<f64>()
    );

    let metrics = if opts.trace {
        // Bench probe, outside the timed region: what materializing each
        // distinct stepped group costs on its own.
        let queries = region.sizes.queries();
        let t0 = Instant::now();
        for q in &queries {
            std::hint::black_box(prepared.db.collect_group_columns(q));
        }
        let t1 = Instant::now();
        outer.measured("store.probe.collect_group_columns", t0, t1);
        let probe_us = t1.duration_since(t0).as_secs_f64() * 1e6 / queries.len().max(1) as f64;
        let layers = report::per_layer(
            &setup,
            &region,
            (probe_us, queries.len() as u64),
            prepared.db.index_stats(),
        );
        let value = |name: &str| {
            layers
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        let (step, other) = (
            value("core.step.exec_ms_per_step"),
            value("core.step.other_ms_per_step"),
        );
        if other > 0.05 * step {
            warnings.push(format!(
                "core.step.other_ms_per_step is {:.1} % of the step: the reported phases do \
                 not account for it",
                100.0 * other / step
            ));
        }
        println!(
            "# core.recommend.* spans contain the per-candidate generate + select; \
             they cannot be split from outside the program"
        );
        let mut spans = outer.into_spans();
        spans.append(&mut region.spans.clone());
        std::fs::create_dir_all(workload::out_dir()).map_err(|e| e.to_string())?;
        std::fs::write(
            workload::out_dir().join(format!("trace-{name}.jsonl")),
            trace::to_jsonl(name, &spans),
        )
        .map_err(|e| format!("writing the trace: {e}"))?;
        layers
    } else {
        report::end_to_end(opts, &setup, &region, &mut warnings)
    };

    Ok(Outcome {
        header,
        attempted: region.attempted,
        failed: region.failed,
        metrics,
        fingerprint: first.fingerprint,
        exact: report::exact_counters(&region, opts.trace),
        steps: region.steps.len() as u64,
        steps_per_s: report::best_rate(&region),
        warnings,
        errors: region.errors.clone(),
    })
}

fn single(args: &Args) -> Result<ExitCode, String> {
    let name = args.flag("workload").ok_or("--workload is missing")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    let opts = RunOptions {
        workload,
        seed: args.number("seed", 1u64)?,
        seconds: args.number("seconds", DEFAULT_SECONDS)?,
        trace: args.number("trace", 0u8)? != 0,
        profile: args.profile(),
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 3600.0) {
        return Err(format!("--seconds {}: out of range", opts.seconds));
    }
    let outcome = run_workload(&opts)?;
    report::print_metrics(workload.name(), &outcome.metrics);
    println!(
        "{} fail_ratio {} ratio n={}",
        workload.name(),
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    );
    println!(
        "{} result_fingerprint {:016x}",
        workload.name(),
        outcome.fingerprint
    );
    for w in &outcome.warnings {
        println!("# warning: {w}");
    }
    for e in &outcome.errors {
        println!("# error: {e}");
    }
    std::fs::create_dir_all(workload::out_dir()).map_err(|e| e.to_string())?;
    let record = report::record(&opts, &outcome);
    std::fs::write(suite::record_path(workload, opts.trace), record.pretty(3))
        .map_err(|e| format!("writing the record: {e}"))?;
    println!("{}", report::result_line(&outcome));
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("seed", 1u64)?;
    let seconds = args.number("seconds", DEFAULT_SECONDS)?;
    let command = args.words.first().map(String::as_str);
    // Results, traces and scratch stores go to `benchmark/out/` under the
    // working directory; anywhere but the repository root that is a stray.
    if command != Some("compare") && !std::path::Path::new("benchmark/Cargo.toml").exists() {
        return Err("run from the repository root (benchmark/run.sh does)".to_owned());
    }
    match command {
        None if args.flag("workload").is_some() => single(args),
        None | Some("run") => {
            suite::run(seed, seconds, args.number("repeats", 1usize)?, args.smoke)
        }
        Some("selfcheck") => suite::selfcheck(seed, seconds, args.smoke),
        Some("compare") => match (args.words.get(1), args.words.get(2)) {
            (Some(a), Some(b)) => compare::compare_files(a, b),
            _ => Err("compare needs two result files".to_owned()),
        },
        Some(other) => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("subdex-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
