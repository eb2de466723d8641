//! Per-layer measurements of traced runs. Each layer is timed from
//! outside, through its public call, on the workload's own inputs.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use karl_core::{
    envelope_parts, node_intervals_frozen, AnyEvaluator, BoundMethod, Budget, IndexMeta,
    KdEvaluator, Kernel, NodeInterval, Query, QueryBatch, QueryContext, Scratch,
    StorageCalibration, StorageProfile,
};
use karl_geom::{norm2, PointSet, Rect};
use karl_tree::{FrozenTree, Tree};

use crate::batch::{Inputs, Spec};
use crate::gen;
use crate::report::{self, Outcome, SpanLog};

/// Queries replayed through the bound, envelope and leaf kernels.
const REPLAY_QUERIES: usize = 32;

/// Queries replayed through the batch scheduler (six passes' worth of
/// work per metric, so kept small).
pub const SCHEDULER_QUERIES: usize = 512;

/// Per-query `Evaluator::run_with_scratch` over `items`, one warm scratch:
/// (µs per query, refinement iterations per query). Each query's span
/// carries its index in `items` (the serve request id) as request id.
fn eval_replay(
    eval: &KdEvaluator,
    items: &[(&[f64], Query)],
    log: &mut SpanLog,
) -> (Vec<f64>, Vec<usize>) {
    let mut scratch = Scratch::new();
    // Warm the scratch buffers so the first query pays no growth.
    for (q, query) in items.iter().take(8) {
        black_box(eval.run_with_scratch(q, *query, None, &mut scratch));
    }
    let parent = log.record("eval.replay", Instant::now(), Instant::now(), None, None);
    let mut us = Vec::with_capacity(items.len());
    let mut iters = Vec::with_capacity(items.len());
    for (i, (q, query)) in items.iter().enumerate() {
        let t0 = Instant::now();
        let o = eval.run_with_scratch(q, *query, None, &mut scratch);
        let t1 = Instant::now();
        log.record("eval.query", t0, t1, parent, Some(i as u64));
        us.push((t1 - t0).as_secs_f64() * 1e6);
        iters.push(o.iterations);
    }
    if let Some(p) = parent {
        log.spans[p as usize].end_ns = log.spans.last().map_or(0, |s| s.end_ns);
    }
    (us, iters)
}

/// The engine-level metrics every workload reports: `eval.*`,
/// `bounds.ns_per_node`, `envelope.ns_per_call`, and (when the evaluator
/// owns its point buffers) `leaf.ns_per_point`.
pub fn engine_layers(
    eval: &KdEvaluator,
    items: &[(&[f64], Query)],
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Vec<f64> {
    let (us, iters) = eval_replay(eval, items, log);
    let total_iters: usize = iters.iter().sum();
    let total_us: f64 = us.iter().sum();
    let sorted_us = report::sorted(us.clone());
    out.metric(
        "eval.iters_per_query",
        total_iters as f64 / items.len() as f64,
        "count",
    );
    out.metric("eval.iters_total", total_iters as f64, "count");
    out.metric(
        "eval.query_us_p50",
        report::quantile(&sorted_us, 0.50),
        "us",
    );
    out.metric(
        "eval.query_us_p99",
        report::quantile(&sorted_us, 0.99),
        "us",
    );
    out.metric(
        "eval.ns_per_iter",
        total_us * 1e3 / total_iters.max(1) as f64,
        "ns",
    );

    // Fixed per-query cost: root bounds only.
    let root_only = Budget::unlimited().max_nodes(0);
    let t0 = Instant::now();
    let fixed: Vec<f64> = items
        .iter()
        .map(|(q, query)| {
            let t = Instant::now();
            black_box(eval.run_budgeted(q, *query, None, &root_only).ok());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    log.record("eval.fixed_replay", t0, Instant::now(), None, None);
    out.metric("eval.fixed_us", gen::median(&fixed), "us");

    let sample: Vec<&[f64]> = items.iter().take(REPLAY_QUERIES).map(|(q, _)| *q).collect();
    let sides: Vec<&FrozenTree> = [eval.pos_frozen(), eval.neg_frozen()]
        .into_iter()
        .flatten()
        .collect();
    let kernel = *eval.kernel();

    // Bound kernels over every internal node's child pair, the shape the
    // refinement loop asks for them in.
    let mut intervals: Vec<NodeInterval> = Vec::new();
    let mut buf = Vec::with_capacity(2);
    let mut ids = Vec::with_capacity(2);
    let mut nodes = 0usize;
    let t0 = Instant::now();
    for q in &sample {
        let ctx = QueryContext::new(&kernel, eval.method(), q);
        for tree in &sides {
            for id in 0..tree.num_nodes() as u32 {
                ids.clear();
                if tree.gather_children(id, &mut ids) {
                    node_intervals_frozen(&ctx, tree, &ids, &mut buf);
                    nodes += buf.len();
                    intervals.extend_from_slice(&buf);
                }
            }
        }
    }
    let t1 = Instant::now();
    log.record("bounds.replay", t0, t1, None, None);
    out.metric(
        "bounds.ns_per_node",
        (t1 - t0).as_nanos() as f64 / nodes.max(1) as f64,
        "ns",
    );

    let curve = kernel.curve();
    let live: Vec<&NodeInterval> = intervals.iter().filter(|iv| iv.w > 0.0).collect();
    let t0 = Instant::now();
    for iv in &live {
        black_box(envelope_parts(curve, iv.lo, iv.hi, iv.x_agg / iv.w));
    }
    let t1 = Instant::now();
    log.record("envelope.replay", t0, t1, None, None);
    out.metric(
        "envelope.ns_per_call",
        (t1 - t0).as_nanos() as f64 / live.len().max(1) as f64,
        "ns",
    );

    // Leaf scans over every leaf range, on the evaluator's own buffers
    // (loaded evaluators keep theirs private: reported as 0).
    let built: Vec<(&Tree<Rect>, &FrozenTree)> = [
        eval.pos_tree().zip(eval.pos_frozen()),
        eval.neg_tree().zip(eval.neg_frozen()),
    ]
    .into_iter()
    .flatten()
    .collect();
    let mut points = 0usize;
    let t0 = Instant::now();
    for q in &sample {
        let qn = norm2(q);
        for (tree, frozen) in &built {
            for id in 0..frozen.num_nodes() as u32 {
                if frozen.is_leaf(id) {
                    let (s, e) = frozen.range(id);
                    black_box(kernel.eval_range(
                        tree.points(),
                        tree.weights(),
                        tree.norms2(),
                        s,
                        e,
                        q,
                        qn,
                    ));
                    points += e - s;
                }
            }
        }
    }
    let t1 = Instant::now();
    log.record("leaf.replay", t0, t1, None, None);
    let leaf_ns = if points == 0 {
        0.0
    } else {
        (t1 - t0).as_nanos() as f64 / points as f64
    };
    out.metric("leaf.ns_per_point", leaf_ns, "ns");
    us
}

/// Wall time of one `QueryBatch::try_run` at `threads` workers.
fn job_wall_s(eval: &KdEvaluator, ps: &PointSet, query: Query, threads: usize) -> f64 {
    let t0 = Instant::now();
    black_box(
        QueryBatch::new(ps, query)
            .threads(threads)
            .try_run(eval)
            .ok(),
    );
    t0.elapsed().as_secs_f64()
}

/// `batch.overhead_frac`: 1-worker `QueryBatch` time over `jobs` against
/// a plain `run_with_scratch` loop over the same queries, minus one. The
/// two are interleaved job by job over three passes, so host drift hits
/// them alike.
pub fn batch_overhead(eval: &KdEvaluator, jobs: &[(PointSet, Query)], log: &mut SpanLog) -> f64 {
    let mut scratch = Scratch::new();
    let (mut batch, mut engine) = (0.0, 0.0);
    let t0 = Instant::now();
    for _ in 0..3 {
        for (ps, query) in jobs {
            batch += job_wall_s(eval, ps, *query, 1);
            let t = Instant::now();
            for i in 0..ps.len() {
                black_box(eval.run_with_scratch(ps.point(i), *query, None, &mut scratch));
            }
            engine += t.elapsed().as_secs_f64();
        }
    }
    log.record("batch.overhead_replay", t0, Instant::now(), None, None);
    batch / engine - 1.0
}

/// `batch.speedup_2t`: `QueryBatch` time over `jobs` at 1 worker over
/// that at 2, interleaved job by job over three passes.
pub fn batch_speedup(eval: &KdEvaluator, jobs: &[(PointSet, Query)], log: &mut SpanLog) -> f64 {
    let (mut one, mut two) = (0.0, 0.0);
    let t0 = Instant::now();
    for _ in 0..3 {
        for (ps, query) in jobs {
            one += job_wall_s(eval, ps, *query, 1);
            two += job_wall_s(eval, ps, *query, 2);
        }
    }
    log.record("batch.speedup_replay", t0, Instant::now(), None, None);
    one / two
}

/// Writes `eval` as an index file (`AnyEvaluator::write_index_file`);
/// returns the byte count.
pub fn write_index(eval: KdEvaluator, leaf: usize, path: &Path) -> u64 {
    let m = IndexMeta {
        kernel: *eval.kernel(),
        method: eval.method(),
        leaf_capacity: leaf as u32,
        profile: StorageProfile::Memory,
        calibration: StorageCalibration::canned(StorageProfile::Memory),
    };
    AnyEvaluator::Kd(eval)
        .write_index_file(path, &m)
        .expect("the benchmark's work directory is writable")
}

/// `tree.build_s` (`Tree::build` of both weight-sign sides), and
/// `tree.freeze_s` (`Evaluator::from_trees`), medians of three; then
/// `index.bytes` / `index.load_s` through an index file of the workload's
/// evaluator.
fn tree_and_index(
    spec: &Spec,
    inp: &Inputs,
    eval: &KdEvaluator,
    log: &mut SpanLog,
    out: &mut Outcome,
) {
    let ps = &inp.points;
    let side = |sign: f64| -> Option<(PointSet, Vec<f64>)> {
        let idx: Vec<usize> = (0..inp.weights.len())
            .filter(|&i| inp.weights[i] * sign > 0.0)
            .collect();
        (!idx.is_empty()).then(|| {
            (
                ps.select(&idx),
                idx.iter().map(|&i| inp.weights[i].abs()).collect(),
            )
        })
    };
    let (pos, neg) = (side(1.0), side(-1.0));
    let mut build_s = Vec::new();
    let mut freeze_s = Vec::new();
    for _ in 0..3 {
        // `Tree::build` takes its points by value: copy them untimed.
        let owned = [pos.clone(), neg.clone()];
        let t0 = Instant::now();
        let trees: Vec<Option<Tree<Rect>>> = owned
            .into_iter()
            .map(|s| s.map(|(p, w)| Tree::build(p, &w, spec.leaf)))
            .collect();
        let t1 = Instant::now();
        log.record("tree.build", t0, t1, None, None);
        let mut it = trees.into_iter();
        let (p, n) = (it.next().flatten(), it.next().flatten());
        let (e, s) = log.time("tree.freeze", || {
            KdEvaluator::from_trees(p, n, Kernel::gaussian(inp.gamma), BoundMethod::Karl)
        });
        black_box(e);
        build_s.push((t1 - t0).as_secs_f64());
        freeze_s.push(s);
    }
    out.metric("tree.build_s", gen::median(&build_s), "s");
    out.metric("tree.freeze_s", gen::median(&freeze_s), "s");

    let path = crate::work_file("layer-index");
    let (bytes, _) = log.time("index.write", || {
        write_index(eval.clone(), spec.leaf, &path)
    });
    let load: Vec<f64> = (0..3)
        .map(|_| {
            let (r, s) = log.time("index.load", || AnyEvaluator::from_index_file(&path));
            black_box(r.expect("index written above loads"));
            s
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    out.metric("index.load_s", gen::median(&load), "s");
    out.metric("index.bytes", bytes as f64, "bytes");
}

/// Every per-layer metric of a batch workload.
pub fn batch_layers(
    spec: &Spec,
    inp: &Inputs,
    eval: &KdEvaluator,
    jobs: &[PointSet],
    log: &mut SpanLog,
    out: &mut Outcome,
) {
    tree_and_index(spec, inp, eval, log, out);
    let items: Vec<(&[f64], Query)> = (0..inp.queries.len())
        .map(|i| (inp.queries.row(i), inp.query))
        .collect();
    engine_layers(eval, &items, log, out);
    let shaped: Vec<(PointSet, Query)> = jobs
        [..SCHEDULER_QUERIES.div_ceil(spec.job).min(jobs.len())]
        .iter()
        .map(|p| (p.clone(), inp.query))
        .collect();
    out.metric(
        "batch.overhead_frac",
        batch_overhead(eval, &shaped, log),
        "frac",
    );
    out.metric("batch.speedup_2t", batch_speedup(eval, &shaped, log), "x");
}

/// The `serve.*` and `gen.*` metrics of a workload without a serve
/// session: 0.
pub fn serve_absent(out: &mut Outcome) {
    for (name, unit) in crate::PER_LAYER {
        if name.starts_with("serve.") || name.starts_with("gen.") {
            out.metric(name, 0.0, unit);
        }
    }
}
