//! Batch-engine throughput: sequential pointer-engine loop (baseline) vs
//! the default frozen engine, scratch reuse, and the `QueryBatch`
//! executor at 1/2/4/8 worker threads, over a synthetic 100 000-point
//! Type-I workload.
//!
//! Unlike the other bench targets this one measures whole-batch wall
//! clock (the quantity the batch engine optimizes), not per-call latency,
//! and can emit machine-readable JSON: set `KARL_BENCH_JSON=<path>` and
//! the results are written there (this is how `scripts/bench_json.sh`
//! produces `BENCH_PR6.json`). Sizing overrides: `KARL_BENCH_N` (points),
//! `KARL_BENCH_QUERIES` (queries), `KARL_BENCH_GRID` (side of the
//! clustered query grid in the coreset-cascade comparison).

use std::time::Instant;

use karl_core::{
    BoundMethod, Coreset, Engine, Evaluator, KdEvaluator, Kernel, Query, QueryBatch, Scratch,
};
use karl_geom::PointSet;
use karl_kde::scotts_gamma;
use karl_testkit::bench::black_box;
use karl_testkit::rng::{Rng, SeedableRng, StdRng};

/// Timing repetitions per mode; the fastest is reported (standard
/// best-of-N to shed scheduler noise).
const REPS: usize = 3;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Two Gaussian blobs plus uniform background, mirroring the registry's
/// Type-I densities: queries near a blob terminate in a handful of
/// refinements, background queries walk deeper — realistic skew for the
/// work-stealing cursor.
fn synthetic(n: usize, d: usize, seed: u64) -> PointSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * d);
    for i in 0..n {
        match i % 4 {
            0 => data.extend((0..d).map(|_| -1.0 + rng.random_range(-0.3..0.3))),
            1 | 2 => data.extend((0..d).map(|_| 1.0 + rng.random_range(-0.3..0.3))),
            _ => data.extend((0..d).map(|_| rng.random_range(-2.5..2.5))),
        }
    }
    PointSet::new(d, data)
}

/// Regular 2-D lattice of queries spanning the clustered data's domain
/// (remaining dims pinned at a blob center) — the KDE level-set shape:
/// grid regions far from the blobs are decisively below τ, regions on a
/// blob decisively above, and only the boundary band straddles.
fn clustered_grid(side: usize, d: usize) -> PointSet {
    let step = 4.8 / side.max(2).saturating_sub(1) as f64;
    let mut data = Vec::with_capacity(side * side * d);
    for i in 0..side {
        for j in 0..side {
            data.push(-2.4 + i as f64 * step);
            if d > 1 {
                data.push(-2.4 + j as f64 * step);
            }
            data.extend(std::iter::repeat_n(1.0, d.saturating_sub(2)));
        }
    }
    PointSet::new(d, data)
}

struct Measurement {
    mode: &'static str,
    threads: usize,
    queries_per_s: f64,
}

/// Best-of-`REPS` wall-clock of `f`, converted to queries/second.
fn measure<F: FnMut()>(n_queries: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    n_queries as f64 / best.max(1e-12)
}

fn run_workload(
    label: &str,
    eval: &KdEvaluator,
    queries: &PointSet,
    query: Query,
    out: &mut Vec<(String, Vec<Measurement>)>,
) {
    let mut results = Vec::new();

    // Pointer-engine baseline: the pre-freeze evaluation path, fresh
    // buffers each call. Every speedup below is relative to this.
    results.push(Measurement {
        mode: "sequential_pointer",
        threads: 1,
        queries_per_s: measure(queries.len(), || {
            for q in queries.iter() {
                black_box(eval.run_query_on(Engine::Pointer, q, query, None));
            }
        }),
    });

    // Default (frozen-engine) per-query API, fresh buffers each call —
    // exactly what a caller without the batch engine writes.
    results.push(Measurement {
        mode: "sequential",
        threads: 1,
        queries_per_s: measure(queries.len(), || {
            for q in queries.iter() {
                black_box(eval.run_query(q, query, None));
            }
        }),
    });

    // Scratch reuse alone (no threading): isolates the allocation-reuse
    // win, which is the whole story on single-core hosts.
    results.push(Measurement {
        mode: "sequential_scratch",
        threads: 1,
        queries_per_s: measure(queries.len(), || {
            let mut scratch = Scratch::new();
            for q in queries.iter() {
                black_box(eval.run_with_scratch(q, query, None, &mut scratch));
            }
        }),
    });

    for threads in [1usize, 2, 4, 8] {
        let spec = QueryBatch::new(queries, query).threads(threads);
        results.push(Measurement {
            mode: "batch",
            threads,
            queries_per_s: measure(queries.len(), || {
                black_box(spec.run(eval));
            }),
        });
    }

    let base = results[0].queries_per_s;
    println!("\n== throughput_batch/{label} ==");
    println!(
        "{:<20} {:>7} {:>12} {:>8}",
        "mode", "threads", "queries/s", "speedup"
    );
    for m in &results {
        println!(
            "{:<20} {:>7} {:>12.0} {:>7.2}x",
            m.mode,
            m.threads,
            m.queries_per_s,
            m.queries_per_s / base
        );
    }
    out.push((label.to_string(), results));
}

fn main() {
    let n = env_usize("KARL_BENCH_N", 100_000);
    let n_queries = env_usize("KARL_BENCH_QUERIES", 2_000);
    let d = 8;
    let points = synthetic(n, d, 0xBA7C4);
    let queries = synthetic(n_queries, d, 0xBA7C5);
    let gamma = scotts_gamma(&points);
    let weights = vec![1.0 / n as f64; n];
    let eval = Evaluator::build(
        &points,
        &weights,
        Kernel::gaussian(gamma),
        BoundMethod::Karl,
        80,
    );
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "workload: {n} points x {d} dims, {n_queries} queries, gamma {gamma:.4}, \
         available_parallelism {parallelism}"
    );

    let mut all: Vec<(String, Vec<Measurement>)> = Vec::new();
    run_workload("ekaq", &eval, &queries, Query::Ekaq { eps: 0.2 }, &mut all);
    // Threshold near the bulk of the density so TKAQ queries are not all
    // trivially decidable at the root.
    let tau = {
        let mut vals: Vec<f64> = queries
            .iter()
            .take(64)
            .map(|q| eval.ekaq(q, 0.05))
            .collect();
        vals.sort_by(f64::total_cmp);
        vals[vals.len() / 2]
    };
    run_workload("tkaq", &eval, &queries, Query::Tkaq { tau }, &mut all);

    // The level-set workload below runs on its own 2-D data: a heat-map
    // grid of TKAQ queries over the clustered density. Fixed bandwidth,
    // not Scott's rule, so the kernel length scale does not shrink with n.
    let grid_d = 2;
    let grid_points = synthetic(n, grid_d, 0xBA7C6);
    let grid_gamma = 4.0;
    let grid_weights = vec![1.0 / n as f64; n];
    let side = env_usize("KARL_BENCH_GRID", 64);
    let gridq = clustered_grid(side, grid_d);

    // Coreset cascade vs the full tree on a skewed-τ level-set grid over
    // REDUNDANT data: the same blob+background density with every
    // coordinate quantized to a 0.05 sensor lattice, so each occupied
    // site carries a dozen duplicates (the shape of metered / quantized
    // feature data). Grid-snap cells at a sub-lattice pitch each capture
    // one site, the |w|-weighted centroid lands back on the site, and the
    // certificate comes out *measured* at eps_c ≈ 0 — the coreset is a
    // certified dedup an order of magnitude smaller than the data. Most
    // grid queries sit decisively above (blob cores) or below
    // (background) τ and terminate at coarse node resolution on either
    // tree; the queries straddling the τ level set must refine to leaf
    // scans, and there the tier pays compression-fold fewer kernel
    // evaluations — that is where the end-to-end speedup lives. The
    // control is the SAME evaluator and batch spec with the cascade flag
    // off, measured in the same process: the two rows differ only in the
    // tier.
    let cs_quant = 0.05;
    let cs_points = PointSet::new(
        grid_d,
        grid_points
            .iter()
            .flat_map(|p| p.iter().map(|v| (v / cs_quant).round() * cs_quant))
            .collect(),
    );
    let cs_eval: KdEvaluator = Evaluator::build(
        &cs_points,
        &grid_weights,
        Kernel::gaussian(grid_gamma),
        BoundMethod::Karl,
        16,
    );
    let cs_tau = {
        let probe = vec![1.0f64; grid_d];
        cs_eval.ekaq(&probe, 0.05) / 8.0
    };
    // Target ε at half of τ: the grid-snap cell pitch this implies
    // (ε / (L√d) ≈ 0.01) sits below the 0.05 lattice spacing, so every
    // cell holds a single site and the certificate measures ≈ 0.
    let cs_eps = cs_tau / 2.0;
    let coreset = Coreset::try_build(
        &cs_points,
        &grid_weights,
        Kernel::gaussian(grid_gamma),
        cs_eps,
    )
    .expect("gaussian coreset must build");
    let cascade_eval = cs_eval
        .clone()
        .with_coreset_tier(&coreset, 16)
        .expect("tier must attach");
    let cs_query = Query::Tkaq { tau: cs_tau };
    let control_spec = QueryBatch::new(&gridq, cs_query).threads(1);
    let cascade_spec = QueryBatch::new(&gridq, cs_query).threads(1).coreset(true);
    let cascade_out = cascade_spec.run(&cascade_eval);
    let decided = cascade_out.coreset_decided();
    let fell = cascade_out.coreset_fallthrough();
    let decided_frac = decided as f64 / gridq.len() as f64;
    let control_qps = measure(gridq.len(), || {
        black_box(control_spec.run(&cs_eval));
    });
    let cascade_qps = measure(gridq.len(), || {
        black_box(cascade_spec.run(&cascade_eval));
    });
    println!(
        "\n== throughput_batch/coreset_cascade ({side}x{side} grid over {n} pts quantized \
         to a {cs_quant} lattice, tau {cs_tau:.5}, coreset eps {cs_eps:.5}) =="
    );
    println!(
        "coreset: {} of {} points ({:.1}x compression), eps_c {:.3e}, margin {:.3e}, \
         tier footprint {} bytes",
        coreset.len(),
        n,
        n as f64 / coreset.len() as f64,
        coreset.eps_c(),
        coreset.margin(),
        cascade_eval.tier_footprint_bytes().unwrap_or(0),
    );
    println!(
        "control: {control_qps:.0} queries/s\n\
         cascade: {cascade_qps:.0} queries/s ({decided} of {} decided at tier 1 = {:.1}%, \
         {fell} fell through) -> {:.2}x",
        gridq.len(),
        100.0 * decided_frac,
        cascade_qps / control_qps,
    );

    if let Ok(path) = std::env::var("KARL_BENCH_JSON") {
        let mut json = String::from("{\n");
        json.push_str("  \"bench\": \"throughput_batch\",\n");
        json.push_str(&format!("  \"points\": {n},\n"));
        json.push_str(&format!("  \"dims\": {d},\n"));
        json.push_str(&format!("  \"queries\": {n_queries},\n"));
        json.push_str(&format!("  \"gamma\": {gamma},\n"));
        json.push_str(&format!("  \"available_parallelism\": {parallelism},\n"));
        json.push_str(
            "  \"note\": \"thread-count speedups are bounded above by \
             available_parallelism; on a 1-core host only the scratch-reuse \
             gain can materialize\",\n",
        );
        json.push_str("  \"workloads\": {\n");
        for (wi, (label, results)) in all.iter().enumerate() {
            let base = results[0].queries_per_s;
            json.push_str(&format!("    \"{label}\": [\n"));
            for (i, m) in results.iter().enumerate() {
                json.push_str(&format!(
                    "      {{\"mode\": \"{}\", \"threads\": {}, \"queries_per_s\": {:.1}, \
                     \"speedup_vs_sequential_pointer\": {:.3}}}{}\n",
                    m.mode,
                    m.threads,
                    m.queries_per_s,
                    m.queries_per_s / base,
                    if i + 1 < results.len() { "," } else { "" }
                ));
            }
            json.push_str(&format!(
                "    ]{}\n",
                if wi + 1 < all.len() { "," } else { "" }
            ));
        }
        json.push_str("  },\n");
        json.push_str("  \"coreset_cascade\": {\n");
        json.push_str(&format!("    \"points\": {n},\n"));
        json.push_str(&format!("    \"dims\": {grid_d},\n"));
        json.push_str(&format!("    \"quantized_lattice\": {cs_quant},\n"));
        json.push_str(&format!("    \"grid_side\": {side},\n"));
        json.push_str(&format!("    \"queries\": {},\n", gridq.len()));
        json.push_str(&format!("    \"tau\": {cs_tau},\n"));
        json.push_str(&format!("    \"coreset_target_eps\": {cs_eps},\n"));
        json.push_str(&format!("    \"coreset_points\": {},\n", coreset.len()));
        json.push_str(&format!(
            "    \"compression\": {:.2},\n",
            n as f64 / coreset.len() as f64
        ));
        json.push_str(&format!("    \"eps_c\": {:e},\n", coreset.eps_c()));
        json.push_str(&format!("    \"margin\": {:e},\n", coreset.margin()));
        json.push_str(&format!(
            "    \"tier_footprint_bytes\": {},\n",
            cascade_eval.tier_footprint_bytes().unwrap_or(0)
        ));
        json.push_str(&format!("    \"tier1_decided\": {decided},\n"));
        json.push_str(&format!("    \"fell_through\": {fell},\n"));
        json.push_str(&format!(
            "    \"tier1_decided_fraction\": {decided_frac:.4},\n"
        ));
        json.push_str(&format!(
            "    \"control_queries_per_s\": {control_qps:.1},\n"
        ));
        json.push_str(&format!(
            "    \"cascade_queries_per_s\": {cascade_qps:.1},\n"
        ));
        json.push_str(&format!(
            "    \"speedup_vs_control\": {:.3}\n",
            cascade_qps / control_qps
        ));
        json.push_str("  }\n}\n");
        std::fs::write(&path, json).expect("write KARL_BENCH_JSON");
        println!("\nwrote {path}");
    }
}
