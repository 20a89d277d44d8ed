//! Kernel-path microbenchmark: every batch kernel of the SIMD layer timed
//! on every path the host supports, against the forced-scalar reference.
//!
//! ```text
//! kernel_path [--quick] [--out BENCH_kernels.json]
//! ```
//!
//! Batches are synthetic but engine-shaped: thousands of small rating
//! distributions over the paper's 5-point scale for the row kernels
//! (candidate subgroups during re-estimation), selection-pool-sized CDF
//! sets for the EMD cost matrix and its column-minimum bound, and
//! scan-sized index streams for the gather kernel.
//! Before timing, every path's output is checked `to_bits`-equal to the
//! scalar reference on the same inputs — the byte-identity contract the
//! proptests pin, re-asserted on the actual bench data.
//!
//! Each (kernel, path) cell reports the best-of-`passes` mean ns/call
//! (min over timed blocks rides out scheduler noise) and its speedup over
//! the scalar path. Results go to a machine-readable JSON file (default
//! `BENCH_kernels.json`); `--quick` shrinks batches and reps for CI smoke.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use subdex_stats::kernels::{self, BatchScratch, KernelPath};
use subdex_store::bitset::BitSet;

/// Smoothing epsilon matching the KL peculiarity measure's call sites.
const EPS: f64 = 1e-6;

struct Shape {
    /// Lanes of the row-kernel batches (candidate subgroups per step).
    lanes: usize,
    /// Rating scale.
    scale: usize,
    /// Signatures per side of the EMD cost matrix (selection pool size).
    pool: usize,
    /// Records in the scan-stream kernels (group records per phase).
    records: usize,
    /// Timed calls per block.
    reps: u32,
    /// Timed blocks; the minimum mean is reported.
    passes: u32,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let shape = if quick {
        Shape {
            lanes: 512,
            scale: 5,
            pool: 32,
            records: 16_384,
            reps: 30,
            passes: 3,
        }
    } else {
        Shape {
            lanes: 4096,
            scale: 5,
            pool: 48,
            records: 262_144,
            reps: 200,
            passes: 5,
        }
    };

    let paths = KernelPath::available();
    println!(
        "# Kernel path — active {}, available [{}]",
        kernels::active(),
        paths
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "# batches: {} lanes x scale {}, pool {}x{}, {} records; best-of-{} mean over {} calls\n",
        shape.lanes, shape.scale, shape.pool, shape.pool, shape.records, shape.passes, shape.reps
    );

    let mut rng = StdRng::seed_from_u64(0x5eed);
    let data = Inputs::generate(&mut rng, &shape);
    let cells = run_all(&data, &shape, &paths);

    println!(
        "| {:<12} | {:>8} | {:>12} | {:>8} |",
        "kernel", "path", "ns/call", "speedup"
    );
    println!("|--------------|----------|--------------|----------|");
    let mut json_rows: Vec<String> = Vec::new();
    for kc in &cells {
        let scalar_ns = kc.ns[0];
        let mut path_json: Vec<String> = Vec::new();
        for (path, &ns) in paths.iter().zip(&kc.ns) {
            let speedup = scalar_ns / ns;
            println!(
                "| {:<12} | {:>8} | {:>12.1} | {:>7.2}x |",
                kc.name,
                path.name(),
                ns,
                speedup
            );
            path_json.push(format!(
                "{{\"path\": \"{}\", \"ns_per_call\": {:.1}, \"speedup_vs_scalar\": {:.3}}}",
                path.name(),
                ns,
                speedup
            ));
        }
        json_rows.push(format!(
            "    {{\"kernel\": \"{}\", \"results\": [{}]}}",
            kc.name,
            path_json.join(", ")
        ));
    }

    // Before/after for `BitSet::intersect_with_ids`: the pre-kernel version
    // probed every candidate bit and binary-searched the posting list; the
    // current one scatters the list into words and runs the `and_words` set
    // kernel. Same inputs, outputs asserted identical before timing.
    let capacity = shape.records;
    let base = BitSet::from_ids(
        capacity,
        &(0..capacity as u32).step_by(3).collect::<Vec<u32>>(),
    );
    let mut post_ids: Vec<u32> = (0..shape.records)
        .map(|_| rng.random_range(0..capacity as u32))
        .collect();
    post_ids.sort_unstable();
    post_ids.dedup();
    let legacy = |set: &BitSet| -> Vec<u32> {
        // Old shape: per-bit probe over the whole domain, membership by
        // binary search — no word-level work at all.
        (0..capacity as u32)
            .filter(|id| set.contains(*id) && post_ids.binary_search(id).is_ok())
            .collect()
    };
    let reference_ids = legacy(&base);
    {
        let mut s = base.clone();
        s.intersect_with_ids(&post_ids);
        assert_eq!(
            s.to_vec(),
            reference_ids,
            "intersect_with_ids: kernel route differs from legacy probe"
        );
    }
    let before_ns = time_ns(&shape, || {
        black_box(legacy(black_box(&base)));
    });
    let after_ns = time_ns(&shape, || {
        let mut s = black_box(&base).clone();
        s.intersect_with_ids(black_box(&post_ids));
        black_box(&s);
    });
    let ids_speedup = before_ns / after_ns;
    println!(
        "\nintersect_with_ids ({} bits ∩ {} ids): {:.0} ns legacy probe vs {:.0} ns kernel route ({:.2}x)",
        capacity,
        post_ids.len(),
        before_ns,
        after_ns,
        ids_speedup
    );

    let best = |kc: &KernelCells| kc.ns[0] / kc.ns.iter().cloned().fold(f64::INFINITY, f64::min);
    let over_1_5 = cells.iter().filter(|kc| best(kc) >= 1.5).count();
    println!(
        "\nkernels with >= 1.5x best-path speedup over forced scalar: {}/{}",
        over_1_5,
        cells.len()
    );

    // Hand-rolled JSON (no serde_json in the vendored set); every value is
    // a number or a plain ASCII string, so no escaping is needed.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"kernel_path\",\n");
    json.push_str(&format!("  \"active_path\": \"{}\",\n", kernels::active()));
    json.push_str(&format!(
        "  \"available_paths\": [{}],\n",
        paths
            .iter()
            .map(|p| format!("\"{}\"", p.name()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!("  \"lanes\": {},\n", shape.lanes));
    json.push_str(&format!("  \"scale\": {},\n", shape.scale));
    json.push_str(&format!("  \"pool\": {},\n", shape.pool));
    json.push_str(&format!("  \"records\": {},\n", shape.records));
    json.push_str(&format!("  \"reps\": {},\n", shape.reps));
    json.push_str(&format!("  \"passes\": {},\n", shape.passes));
    json.push_str(&format!("  \"kernels_at_or_above_1p5x\": {over_1_5},\n"));
    json.push_str(&format!(
        "  \"intersect_with_ids_legacy_ns\": {before_ns:.1},\n"
    ));
    json.push_str(&format!(
        "  \"intersect_with_ids_kernel_ns\": {after_ns:.1},\n"
    ));
    json.push_str(&format!(
        "  \"intersect_with_ids_speedup\": {ids_speedup:.3},\n"
    ));
    json.push_str("  \"kernels\": [\n");
    json.push_str(&json_rows.join(",\n"));
    json.push_str("\n  ]\n");
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_kernels.json");
    eprintln!("wrote {out_path}");
}

/// Engine-shaped synthetic inputs shared by every path of a kernel.
struct Inputs {
    batch: BatchScratch,
    ref_counts: Vec<u64>,
    ref_total: u64,
    /// Score-major CDFs of the whole batch (`scale × lanes`).
    batch_cdfs: Vec<f64>,
    /// Score-major CDFs of two selection pools (`scale × pool`).
    pool_a: Vec<f64>,
    pool_b: Vec<f64>,
    /// Reference CDF vector (`scale`).
    ref_cdf: Vec<f64>,
    /// Cost matrix for `col_mins` (`pool × pool`).
    cost: Vec<f64>,
    /// Gather source column and indices — random (adversarial) and sorted
    /// (the scan layer's actual pattern: ascending filtered record ids).
    src: Vec<u32>,
    idx: Vec<u32>,
    idx_sorted: Vec<u32>,
}

impl Inputs {
    fn generate(rng: &mut StdRng, shape: &Shape) -> Inputs {
        let (lanes, scale, pool) = (shape.lanes, shape.scale, shape.pool);
        let mut batch = BatchScratch::new();
        batch.begin(lanes, scale);
        let mut row = vec![0u64; scale];
        for lane in 0..lanes {
            // Mostly small subgroups, a few empty (the uniform fallback
            // lanes), a few large — the skew a real candidate batch has.
            let magnitude = match lane % 17 {
                0 => 0,
                1..=3 => 10_000,
                _ => 100,
            };
            for c in row.iter_mut() {
                *c = if magnitude == 0 {
                    0
                } else {
                    rng.random_range(0..magnitude)
                };
            }
            batch.set_lane(lane, &row);
        }
        let ref_counts: Vec<u64> = (0..scale).map(|_| rng.random_range(1..5_000)).collect();
        let ref_total = ref_counts.iter().sum();

        let mut batch_cdfs = Vec::new();
        kernels::cdf_rows(KernelPath::Scalar, &batch, &mut batch_cdfs);
        let random_cdfs = |rng: &mut StdRng, n: usize| -> Vec<f64> {
            let mut out = vec![0.0f64; scale * n];
            for i in 0..n {
                let mut acc = 0.0;
                for j in 0..scale {
                    acc += rng.random_range(0.0..1.0);
                    out[j * n + i] = acc;
                }
                for j in 0..scale {
                    out[j * n + i] /= acc;
                }
            }
            out
        };
        let pool_a = random_cdfs(rng, pool);
        let pool_b = random_cdfs(rng, pool);
        let mut ref_cdf = vec![0.0f64; scale];
        let mut acc = 0.0;
        for v in ref_cdf.iter_mut() {
            acc += rng.random_range(0.0..1.0);
            *v = acc;
        }
        for v in ref_cdf.iter_mut() {
            *v /= acc;
        }
        let mut cost = Vec::new();
        kernels::cost_matrix(
            KernelPath::Scalar,
            &pool_a,
            pool,
            &pool_b,
            pool,
            scale,
            &mut cost,
        );

        let entities = 16_384u32;
        let src: Vec<u32> = (0..entities)
            .map(|_| rng.random_range(0..1 << 20))
            .collect();
        let idx: Vec<u32> = (0..shape.records)
            .map(|_| rng.random_range(0..entities))
            .collect();
        let mut idx_sorted = idx.clone();
        idx_sorted.sort_unstable();

        Inputs {
            batch,
            ref_counts,
            ref_total,
            batch_cdfs,
            pool_a,
            pool_b,
            ref_cdf,
            cost,
            src,
            idx,
            idx_sorted,
        }
    }
}

struct KernelCells {
    name: &'static str,
    /// Mean ns/call per path, in `paths` order (scalar first).
    ns: Vec<f64>,
}

/// Best-of-`passes` mean ns per call of `f`, after one warm-up block.
fn time_ns(shape: &Shape, mut f: impl FnMut()) -> f64 {
    let warmup = (shape.reps / 4).max(1);
    for _ in 0..warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..shape.passes {
        let t = Instant::now();
        for _ in 0..shape.reps {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e9 / f64::from(shape.reps));
    }
    best
}

/// Asserts `got` is bit-for-bit the scalar `want` — the byte-identity
/// contract checked on the bench's own inputs before any timing.
fn assert_bits(kernel: &str, path: KernelPath, want: &[f64], got: &[f64]) {
    assert_eq!(want.len(), got.len(), "{kernel}/{path}: length mismatch");
    for (k, (w, g)) in want.iter().zip(got).enumerate() {
        assert!(
            w.to_bits() == g.to_bits() || (w.is_nan() && g.is_nan()),
            "{kernel}/{path}: lane {k} differs from scalar ({w:?} vs {g:?})"
        );
    }
}

fn run_all(data: &Inputs, shape: &Shape, paths: &[KernelPath]) -> Vec<KernelCells> {
    let (scale, pool) = (shape.scale, shape.pool);
    let mut cells = Vec::new();
    let mut out = Vec::new();
    let mut out2 = Vec::new();

    // Each block: compute the scalar reference once, then per path check
    // byte-identity and time the call on the shared output buffer.
    let mut reference = Vec::new();

    kernels::cdf_rows(KernelPath::Scalar, &data.batch, &mut reference);
    cells.push(KernelCells {
        name: "cdf_rows",
        ns: paths
            .iter()
            .map(|&p| {
                kernels::cdf_rows(p, &data.batch, &mut out);
                assert_bits("cdf_rows", p, &reference, &out);
                time_ns(shape, || {
                    kernels::cdf_rows(p, black_box(&data.batch), &mut out);
                    black_box(&out);
                })
            })
            .collect(),
    });

    kernels::tvd_rows(
        KernelPath::Scalar,
        &data.batch,
        &data.ref_counts,
        data.ref_total,
        &mut reference,
    );
    cells.push(KernelCells {
        name: "tvd_rows",
        ns: paths
            .iter()
            .map(|&p| {
                kernels::tvd_rows(p, &data.batch, &data.ref_counts, data.ref_total, &mut out);
                assert_bits("tvd_rows", p, &reference, &out);
                time_ns(shape, || {
                    kernels::tvd_rows(
                        p,
                        black_box(&data.batch),
                        &data.ref_counts,
                        data.ref_total,
                        &mut out,
                    );
                    black_box(&out);
                })
            })
            .collect(),
    });

    kernels::jeffreys_rows(
        KernelPath::Scalar,
        &data.batch,
        &data.ref_counts,
        data.ref_total,
        EPS,
        &mut reference,
    );
    cells.push(KernelCells {
        name: "jeffreys_rows",
        ns: paths
            .iter()
            .map(|&p| {
                kernels::jeffreys_rows(
                    p,
                    &data.batch,
                    &data.ref_counts,
                    data.ref_total,
                    EPS,
                    &mut out,
                );
                assert_bits("jeffreys_rows", p, &reference, &out);
                time_ns(shape, || {
                    kernels::jeffreys_rows(
                        p,
                        black_box(&data.batch),
                        &data.ref_counts,
                        data.ref_total,
                        EPS,
                        &mut out,
                    );
                    black_box(&out);
                })
            })
            .collect(),
    });

    let mut ref_sd = Vec::new();
    kernels::mean_sd_rows(KernelPath::Scalar, &data.batch, &mut reference, &mut ref_sd);
    cells.push(KernelCells {
        name: "mean_sd_rows",
        ns: paths
            .iter()
            .map(|&p| {
                kernels::mean_sd_rows(p, &data.batch, &mut out, &mut out2);
                assert_bits("mean_sd_rows/mean", p, &reference, &out);
                assert_bits("mean_sd_rows/sd", p, &ref_sd, &out2);
                time_ns(shape, || {
                    kernels::mean_sd_rows(p, black_box(&data.batch), &mut out, &mut out2);
                    black_box(&out);
                })
            })
            .collect(),
    });

    kernels::l1_norm_rows(
        KernelPath::Scalar,
        &data.batch_cdfs,
        data.batch.lanes(),
        scale,
        &data.ref_cdf,
        &mut reference,
    );
    cells.push(KernelCells {
        name: "l1_norm_rows",
        ns: paths
            .iter()
            .map(|&p| {
                kernels::l1_norm_rows(
                    p,
                    &data.batch_cdfs,
                    data.batch.lanes(),
                    scale,
                    &data.ref_cdf,
                    &mut out,
                );
                assert_bits("l1_norm_rows", p, &reference, &out);
                time_ns(shape, || {
                    kernels::l1_norm_rows(
                        p,
                        black_box(&data.batch_cdfs),
                        data.batch.lanes(),
                        scale,
                        &data.ref_cdf,
                        &mut out,
                    );
                    black_box(&out);
                })
            })
            .collect(),
    });

    kernels::cost_matrix(
        KernelPath::Scalar,
        &data.pool_a,
        pool,
        &data.pool_b,
        pool,
        scale,
        &mut reference,
    );
    cells.push(KernelCells {
        name: "cost_matrix",
        ns: paths
            .iter()
            .map(|&p| {
                kernels::cost_matrix(p, &data.pool_a, pool, &data.pool_b, pool, scale, &mut out);
                assert_bits("cost_matrix", p, &reference, &out);
                time_ns(shape, || {
                    kernels::cost_matrix(
                        p,
                        black_box(&data.pool_a),
                        pool,
                        &data.pool_b,
                        pool,
                        scale,
                        &mut out,
                    );
                    black_box(&out);
                })
            })
            .collect(),
    });

    kernels::col_mins(KernelPath::Scalar, &data.cost, pool, pool, &mut reference);
    cells.push(KernelCells {
        name: "col_mins",
        ns: paths
            .iter()
            .map(|&p| {
                kernels::col_mins(p, &data.cost, pool, pool, &mut out);
                assert_bits("col_mins", p, &reference, &out);
                time_ns(shape, || {
                    kernels::col_mins(p, black_box(&data.cost), pool, pool, &mut out);
                    black_box(&out);
                })
            })
            .collect(),
    });

    let mut gather_ref = Vec::new();
    let mut gathered = Vec::new();
    for (name, idx) in [("gather_rand", &data.idx), ("gather_seq", &data.idx_sorted)] {
        kernels::gather_u32(KernelPath::Scalar, &data.src, idx, &mut gather_ref);
        cells.push(KernelCells {
            name,
            ns: paths
                .iter()
                .map(|&p| {
                    kernels::gather_u32(p, &data.src, idx, &mut gathered);
                    assert_eq!(gathered, gather_ref, "{name}/{p}: differs from scalar");
                    time_ns(shape, || {
                        kernels::gather_u32(p, black_box(&data.src), idx, &mut gathered);
                        black_box(&gathered);
                    })
                })
                .collect(),
        });
    }

    cells
}
