//! The Figure-13 invariant as a test: at every tree level, the aggregated
//! KARL bounds are at least as tight as the aggregated SOTA bounds, and
//! both enclose the exact aggregate. (The paper's figure reports the same
//! quantities as averages; here they are asserted per level.)

use karl::core::{node_bounds, BoundMethod, Evaluator, Kernel};
use karl::data::{by_name, sample_queries};
use karl::geom::{norm2, PointSet, Rect};
use karl::tree::NodeStats;
use karl_testkit::oracle::{check_bracket, check_tighter, exact_sum, Interval};
use karl_testkit::rng::{Rng, SeedableRng, StdRng};

#[test]
fn karl_frontier_bounds_dominate_sota_at_every_level() {
    for (name, kernel) in [
        ("home", None),                       // Scott's-rule Gaussian
        ("nsl-kdd", Some(Kernel::gaussian(0.02))),
        ("ijcnn1", Some(Kernel::laplacian(1.0))),
    ] {
        let ds = by_name(name).unwrap().generate_n(2_000);
        let kernel = kernel.unwrap_or_else(|| {
            Kernel::gaussian(karl::kde::scotts_gamma(&ds.points))
        });
        let w = vec![1.0; ds.points.len()];
        let eval = Evaluator::<Rect>::build(&ds.points, &w, kernel, BoundMethod::Karl, 80);
        let tree = eval.pos_tree().expect("positive weights");
        let queries = sample_queries(&ds.points, 10, 9);
        for q in queries.iter() {
            let qn = norm2(q);
            let truth = eval.exact(q);
            for level in 0..=tree.max_depth() {
                let mut karl = (0.0, 0.0);
                let mut sota = (0.0, 0.0);
                for id in tree.frontier_at_depth(level) {
                    let node = tree.node(id);
                    let bk =
                        node_bounds(BoundMethod::Karl, &kernel, &node.shape, &node.stats, q, qn);
                    let bs =
                        node_bounds(BoundMethod::Sota, &kernel, &node.shape, &node.stats, q, qn);
                    karl.0 += bk.lb;
                    karl.1 += bk.ub;
                    sota.0 += bs.lb;
                    sota.1 += bs.ub;
                }
                let tol = 1e-7 * (1.0 + truth.abs());
                // Both bracket the truth…
                assert!(sota.0 <= truth + tol && truth <= sota.1 + tol, "{name} SOTA L{level}");
                assert!(karl.0 <= truth + tol && truth <= karl.1 + tol, "{name} KARL L{level}");
                // …and KARL is never looser (Lemmas 3–4 aggregated).
                assert!(karl.0 + tol >= sota.0, "{name} L{level}: KARL LB looser");
                assert!(karl.1 <= sota.1 + tol, "{name} L{level}: KARL UB looser");
            }
        }
    }
}

/// Oracle-backed per-node soundness and Lemma-3 tightness: for random
/// synthetic nodes, the brute-force kernel sum `F_P(q)` (computed by the
/// testkit oracle, not by any library fast path) must satisfy
/// `LB ≤ F_P(q) ≤ UB` for both bound methods, and KARL's chord upper
/// bound must never exceed SOTA's constant upper bound.
#[test]
fn random_nodes_bracket_oracle_sum_and_karl_ub_dominates() {
    let kernels = [
        Kernel::gaussian(0.8),
        Kernel::laplacian(0.6),
        Kernel::polynomial(0.3, 0.2, 3),
        Kernel::sigmoid(0.4, 0.1),
    ];
    let mut rng = StdRng::seed_from_u64(0xB0_0B5);
    for trial in 0..200 {
        let n = rng.random_range(1usize..40);
        let d = rng.random_range(1usize..5);
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push((0..d).map(|_| rng.random_range(-2.5..2.5)).collect::<Vec<f64>>());
        }
        let ps = PointSet::from_rows(&rows);
        let w: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..3.0)).collect();
        let q: Vec<f64> = (0..d).map(|_| rng.random_range(-3.0..3.0)).collect();
        let qn = norm2(&q);
        let kernel = kernels[trial % kernels.len()];

        let stats = NodeStats::from_range(&ps, &w, 0, n);
        let idx: Vec<usize> = (0..n).collect();
        let rect = Rect::bounding(&ps, &idx);

        // The oracle: a plain Σ wᵢ·k(q, xᵢ) loop over raw slices.
        let truth = exact_sum(rows.iter().map(|r| r.as_slice()), &w, &q, |a, b| {
            kernel.eval(a, b)
        });

        let karl = node_bounds(BoundMethod::Karl, &kernel, &rect, &stats, &q, qn);
        let sota = node_bounds(BoundMethod::Sota, &kernel, &rect, &stats, &q, qn);

        check_bracket(karl.lb, truth, karl.ub, 1e-7)
            .unwrap_or_else(|e| panic!("trial {trial} KARL: {e}"));
        check_bracket(sota.lb, truth, sota.ub, 1e-7)
            .unwrap_or_else(|e| panic!("trial {trial} SOTA: {e}"));
        // Lemma 3: the full KARL interval sits inside SOTA's.
        check_tighter(
            Interval::new(karl.lb, karl.ub.max(karl.lb)),
            Interval::new(sota.lb, sota.ub.max(sota.lb)),
            1e-7,
        )
        .unwrap_or_else(|e| panic!("trial {trial} ({kernel:?}): {e}"));
    }
}

#[test]
fn frontier_bounds_tighten_monotonically_with_depth() {
    // Descending a level never loosens the aggregated bounds: children
    // volumes are contained in the parent volume.
    let ds = by_name("susy").unwrap().generate_n(1_500);
    let kernel = Kernel::gaussian(karl::kde::scotts_gamma(&ds.points));
    let w = vec![1.0; ds.points.len()];
    let eval = Evaluator::<Rect>::build(&ds.points, &w, kernel, BoundMethod::Karl, 16);
    let tree = eval.pos_tree().unwrap();
    let q = ds.points.point(7);
    let qn = norm2(q);
    let mut prev_gap = f64::INFINITY;
    for level in 0..=tree.max_depth() {
        let (mut lb, mut ub) = (0.0, 0.0);
        for id in tree.frontier_at_depth(level) {
            let node = tree.node(id);
            let b = node_bounds(BoundMethod::Karl, &kernel, &node.shape, &node.stats, q, qn);
            lb += b.lb;
            ub += b.ub;
        }
        let gap = ub - lb;
        assert!(
            gap <= prev_gap + 1e-9 * (1.0 + prev_gap.abs()),
            "gap grew from {prev_gap} to {gap} at level {level}"
        );
        prev_gap = gap;
    }
}
