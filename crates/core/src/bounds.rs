//! Per-node bound functions: SOTA's constant bounds and KARL's linear
//! bounds.
//!
//! Both take a tree node (bounding volume + aggregates) and a query point
//! and return `[LB, UB]` with `LB ≤ Σᵢ wᵢ·K(q, pᵢ) ≤ UB`, where the sum
//! ranges over the node's points and all node weights are non-negative
//! (negative weights are handled a level up by the P⁺/P⁻ split of
//! Section IV-A2).

use karl_geom::{
    ball_dist, ball_dist_nodes, ball_ip, ball_ip_nodes, norm2, rect_dist, rect_dist_nodes, rect_ip,
    rect_ip_nodes, BoundingShape,
};
use karl_tree::{FrozenShapes, FrozenTree, NodeId, NodeStats};

use crate::curve::Curve;
use crate::envelope::{envelope_parts, EnvelopeParts};
use crate::kernel::Kernel;

/// Which per-node bound functions the evaluator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundMethod {
    /// Constant min/max bounds of the state of the art
    /// (`W·f_min`, `W·f_max`) [Gray & Moore; Gan & Bailis].
    Sota,
    /// KARL's linear bound functions (chord / optimal tangent / rotation
    /// envelopes), clamped by the constant bounds so they are never looser.
    Karl,
}

/// A `[lower, upper]` bound pair on a node's weighted kernel aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundPair {
    /// Lower bound.
    pub lb: f64,
    /// Upper bound.
    pub ub: f64,
}

impl BoundPair {
    /// The refinement priority of the paper's framework: the bound gap.
    #[inline]
    pub fn gap(&self) -> f64 {
        self.ub - self.lb
    }
}

/// Computes the `[LB, UB]` pair for one node.
///
/// `q_norm2` must be `‖q‖²` (hoisted out because one query visits many
/// nodes).
pub fn node_bounds<S: BoundingShape>(
    method: BoundMethod,
    kernel: &Kernel,
    shape: &S,
    stats: &NodeStats,
    q: &[f64],
    q_norm2: f64,
) -> BoundPair {
    let w = stats.weight_sum;
    if w <= 0.0 {
        // A node of all-zero weights contributes nothing either way.
        return BoundPair { lb: 0.0, ub: 0.0 };
    }
    let (lo, hi) = kernel.x_interval(shape, q);
    let x_agg = match method {
        // SOTA never needs the aggregate; 0.0 is ignored by assemble.
        BoundMethod::Sota => 0.0,
        BoundMethod::Karl => kernel.x_aggregate(stats, q, q_norm2),
    };
    assemble(method, kernel.curve(), w, lo, hi, x_agg)
}

/// Constant (SOTA) bound pair `w · [fmin, fmax]`, saturating an overflow
/// to the finite range only when one actually happens — same rationale
/// as `finish_karl`'s overflow path, same bits on finite products.
#[inline]
fn sota_pair(w: f64, (fmin, fmax): (f64, f64)) -> BoundPair {
    let lb = w * fmin;
    let ub = w * fmax;
    if lb.is_finite() && ub.is_finite() {
        return BoundPair { lb, ub };
    }
    BoundPair {
        lb: lb.clamp(-f64::MAX, f64::MAX),
        ub: ub.clamp(-f64::MAX, f64::MAX),
    }
}

/// Aggregates one node's envelope parts into the final KARL `[LB, UB]`
/// pair: evaluate the linear bounds at the aggregate `(X, W)` and clamp
/// with the constant bounds carried in the same parts.
#[inline]
fn finish_karl(parts: &EnvelopeParts, w: f64, x_agg: f64) -> BoundPair {
    let sota_lb = w * parts.fmin;
    let sota_ub = w * parts.fmax;
    let lb = parts.env.lower.m * x_agg + parts.env.lower.c * w;
    let ub = parts.env.upper.m * x_agg + parts.env.upper.c * w;
    // The linear bounds are provably tighter on convex intervals
    // (Lemmas 3-4); on the mixed intervals of Section IV-B the
    // endpoint-anchored lines can overshoot the constant bounds at
    // the far endpoint, so take the tighter of the two for free.
    let out = BoundPair {
        lb: lb.max(sota_lb),
        ub: ub.min(sota_ub),
    };
    if out.lb.is_finite() && out.ub.is_finite() {
        // Fast path: exactly the pre-saturation arithmetic, bit for bit.
        // IEEE max/min prefer the non-NaN operand, so a NaN linear bound
        // (from `0 · ±inf`) already fell back to the constant bound here.
        return out;
    }
    // Overflow path. ±inf per-node bounds would poison the evaluator's
    // subtract-re-add accounting with `inf − inf = NaN`, so saturate the
    // constant bounds to the finite range; a non-finite linear bound
    // (±inf from an overflowed aggregate `X`) says nothing — fall back
    // to the constant bound alone.
    let sota_lb = sota_lb.clamp(-f64::MAX, f64::MAX);
    let sota_ub = sota_ub.clamp(-f64::MAX, f64::MAX);
    BoundPair {
        lb: if lb.is_finite() { lb.max(sota_lb) } else { sota_lb },
        ub: if ub.is_finite() { ub.min(sota_ub) } else { sota_ub },
    }
}

/// Turns the scalar interval `[lo, hi]`, the node weight `w` and (for
/// KARL) the scalar aggregate `X` into the final `[LB, UB]` pair. Shared
/// verbatim by the pointer and frozen evaluation paths so their bound
/// assembly is bit-identical.
#[inline]
fn assemble(method: BoundMethod, curve: Curve, w: f64, lo: f64, hi: f64, x_agg: f64) -> BoundPair {
    match method {
        BoundMethod::Sota => sota_pair(w, curve.range(lo, hi)),
        BoundMethod::Karl => finish_karl(&envelope_parts(curve, lo, hi, x_agg / w), w, x_agg),
    }
}

/// How a kernel maps geometry to its scalar `x`: through squared distance
/// (Gaussian/Laplacian, with the γ or γ² prescale) or through the inner
/// product (polynomial/sigmoid).
#[derive(Debug, Clone, Copy)]
enum XMode {
    /// `x = scale · dist²` — `scale` is γ (Gaussian) or γ² (Laplacian).
    Dist {
        /// Prescale applied to squared distances.
        scale: f64,
    },
    /// `x = γ · (q·p) + β`.
    Ip {
        /// Inner-product scale γ.
        gamma: f64,
        /// Offset β.
        coef0: f64,
    },
}

/// Per-query invariants of bound evaluation, hoisted out of the per-node
/// path: `‖q‖²` (and its square root for ball inner products), the scalar
/// curve, the kernel's constants and the bound method. Built once per
/// query; every frozen-tree node probe then reuses it.
#[derive(Debug, Clone)]
pub struct QueryContext<'q> {
    q: &'q [f64],
    q_norm2: f64,
    q_norm: f64,
    curve: Curve,
    method: BoundMethod,
    mode: XMode,
    karl: bool,
}

impl<'q> QueryContext<'q> {
    /// Precomputes the per-query invariants for `q` under `kernel` and
    /// `method`.
    pub fn new(kernel: &Kernel, method: BoundMethod, q: &'q [f64]) -> Self {
        let q_norm2 = norm2(q);
        let mode = match *kernel {
            Kernel::Gaussian { gamma } => XMode::Dist { scale: gamma },
            Kernel::Laplacian { gamma } => XMode::Dist {
                scale: gamma * gamma,
            },
            Kernel::Polynomial { gamma, coef0, .. } | Kernel::Sigmoid { gamma, coef0 } => {
                XMode::Ip { gamma, coef0 }
            }
        };
        Self {
            q,
            q_norm2,
            q_norm: q_norm2.sqrt(),
            curve: kernel.curve(),
            method,
            mode,
            karl: method == BoundMethod::Karl,
        }
    }

    /// The query point.
    #[inline]
    pub fn q(&self) -> &[f64] {
        self.q
    }

    /// The hoisted `‖q‖²`.
    #[inline]
    pub fn q_norm2(&self) -> f64 {
        self.q_norm2
    }
}

/// The geometry pass's per-node record: everything bound assembly needs,
/// with the `d`-dimensional work already reduced to scalars. Pass 1 of the
/// frontier kernel emits these; pass 2 turns them into [`BoundPair`]s via
/// [`assemble_interval`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeInterval {
    /// The frozen-tree node this record describes.
    pub node: NodeId,
    /// `W_R = Σ wᵢ` of the node.
    pub w: f64,
    /// Lower end of the node's scalar curve interval.
    pub lo: f64,
    /// Upper end of the node's scalar curve interval.
    pub hi: f64,
    /// The scalar aggregate `X_R` (0 under SOTA, which never reads it).
    pub x_agg: f64,
}

/// Pass 1 for a single frozen-tree node: one fused pass over the node's
/// `d` SoA coordinates yields the scalar interval and (for KARL) the
/// `q·a_R` aggregate together. The per-lane summation order matches the
/// separate pointer-path reductions, so the scalars are bit-identical to
/// the ones the pointer path feeds `assemble`.
pub fn node_interval_frozen(ctx: &QueryContext<'_>, tree: &FrozenTree, id: NodeId) -> NodeInterval {
    let w = tree.weight_sum(id);
    if w <= 0.0 {
        // A node of all-zero weights contributes nothing either way; skip
        // the geometry entirely, as the pre-interval path always did.
        return NodeInterval {
            node: id,
            w,
            lo: 0.0,
            hi: 0.0,
            x_agg: 0.0,
        };
    }
    let d = tree.dims();
    let s = id as usize * d;
    let a = tree.weighted_sum(id);
    let q = ctx.q;
    let (lo, hi, x_agg) = match (tree.shapes(), ctx.mode) {
        (FrozenShapes::Rect { lo, hi }, XMode::Dist { scale }) => {
            let (lo, hi) = (&lo[s..s + d], &hi[s..s + d]);
            let (mn, mx, qa) = if ctx.karl {
                rect_dist::<true>(q, lo, hi, a)
            } else {
                rect_dist::<false>(q, lo, hi, a)
            };
            let x_agg = if ctx.karl {
                scale * (w * ctx.q_norm2 - 2.0 * qa + tree.weighted_norm2(id))
            } else {
                0.0
            };
            (scale * mn, scale * mx, x_agg)
        }
        (FrozenShapes::Rect { lo, hi }, XMode::Ip { gamma, coef0 }) => {
            let (lo, hi) = (&lo[s..s + d], &hi[s..s + d]);
            let (mn, mx, qa) = if ctx.karl {
                rect_ip::<true>(q, lo, hi, a)
            } else {
                rect_ip::<false>(q, lo, hi, a)
            };
            let x_agg = if ctx.karl {
                gamma * qa + coef0 * w
            } else {
                0.0
            };
            (gamma * mn + coef0, gamma * mx + coef0, x_agg)
        }
        (FrozenShapes::Ball { center, radius }, XMode::Dist { scale }) => {
            let c = &center[s..s + d];
            let r = radius[id as usize];
            let (d2c, qa) = if ctx.karl {
                ball_dist::<true>(q, c, a)
            } else {
                ball_dist::<false>(q, c, a)
            };
            let dc = d2c.sqrt();
            let mn = (dc - r).max(0.0);
            let mx = dc + r;
            let x_agg = if ctx.karl {
                scale * (w * ctx.q_norm2 - 2.0 * qa + tree.weighted_norm2(id))
            } else {
                0.0
            };
            (scale * (mn * mn), scale * (mx * mx), x_agg)
        }
        (FrozenShapes::Ball { center, radius }, XMode::Ip { gamma, coef0 }) => {
            let c = &center[s..s + d];
            let (qc, qa) = if ctx.karl {
                ball_ip::<true>(q, c, a)
            } else {
                ball_ip::<false>(q, c, a)
            };
            let rq = radius[id as usize] * ctx.q_norm;
            let x_agg = if ctx.karl {
                gamma * qa + coef0 * w
            } else {
                0.0
            };
            (gamma * (qc - rq) + coef0, gamma * (qc + rq) + coef0, x_agg)
        }
    };
    NodeInterval {
        node: id,
        w,
        lo,
        hi,
        x_agg,
    }
}

/// Pass 1 for a whole frontier: resolves the `(shapes, mode)` dispatch
/// once, then streams the batched fused kernels over `ids`, appending one
/// [`NodeInterval`] per id to `out` (cleared first) in frontier order.
///
/// Each per-node probe and scalar expression is the *same* code
/// [`node_interval_frozen`] runs, so the records are bitwise identical to
/// the one-at-a-time path — except that zero-weight nodes get their
/// geometry computed rather than skipped, which [`assemble_interval`]
/// renders irrelevant by zeroing their bounds either way.
pub fn node_intervals_frozen(
    ctx: &QueryContext<'_>,
    tree: &FrozenTree,
    ids: &[NodeId],
    out: &mut Vec<NodeInterval>,
) {
    out.clear();
    out.reserve(ids.len());
    let q = ctx.q;
    let a = tree.weighted_sums();
    let karl = ctx.karl;
    let q_norm2 = ctx.q_norm2;
    let mut k = 0usize;
    match (tree.shapes(), ctx.mode) {
        (FrozenShapes::Rect { lo, hi }, XMode::Dist { scale }) => {
            let mut emit = |mn: f64, mx: f64, qa: f64| {
                let id = ids[k];
                k += 1;
                let w = tree.weight_sum(id);
                let x_agg = if karl {
                    scale * (w * q_norm2 - 2.0 * qa + tree.weighted_norm2(id))
                } else {
                    0.0
                };
                out.push(NodeInterval {
                    node: id,
                    w,
                    lo: scale * mn,
                    hi: scale * mx,
                    x_agg,
                });
            };
            if karl {
                rect_dist_nodes::<true, _>(q, lo, hi, a, ids, &mut emit);
            } else {
                rect_dist_nodes::<false, _>(q, lo, hi, a, ids, &mut emit);
            }
        }
        (FrozenShapes::Rect { lo, hi }, XMode::Ip { gamma, coef0 }) => {
            let mut emit = |mn: f64, mx: f64, qa: f64| {
                let id = ids[k];
                k += 1;
                let w = tree.weight_sum(id);
                let x_agg = if karl { gamma * qa + coef0 * w } else { 0.0 };
                out.push(NodeInterval {
                    node: id,
                    w,
                    lo: gamma * mn + coef0,
                    hi: gamma * mx + coef0,
                    x_agg,
                });
            };
            if karl {
                rect_ip_nodes::<true, _>(q, lo, hi, a, ids, &mut emit);
            } else {
                rect_ip_nodes::<false, _>(q, lo, hi, a, ids, &mut emit);
            }
        }
        (FrozenShapes::Ball { center, radius }, XMode::Dist { scale }) => {
            let mut emit = |d2c: f64, qa: f64| {
                let id = ids[k];
                k += 1;
                let w = tree.weight_sum(id);
                let r = radius[id as usize];
                let dc = d2c.sqrt();
                let mn = (dc - r).max(0.0);
                let mx = dc + r;
                let x_agg = if karl {
                    scale * (w * q_norm2 - 2.0 * qa + tree.weighted_norm2(id))
                } else {
                    0.0
                };
                out.push(NodeInterval {
                    node: id,
                    w,
                    lo: scale * (mn * mn),
                    hi: scale * (mx * mx),
                    x_agg,
                });
            };
            if karl {
                ball_dist_nodes::<true, _>(q, center, a, ids, &mut emit);
            } else {
                ball_dist_nodes::<false, _>(q, center, a, ids, &mut emit);
            }
        }
        (FrozenShapes::Ball { center, radius }, XMode::Ip { gamma, coef0 }) => {
            let mut emit = |qc: f64, qa: f64| {
                let id = ids[k];
                k += 1;
                let w = tree.weight_sum(id);
                let rq = radius[id as usize] * ctx.q_norm;
                let x_agg = if karl { gamma * qa + coef0 * w } else { 0.0 };
                out.push(NodeInterval {
                    node: id,
                    w,
                    lo: gamma * (qc - rq) + coef0,
                    hi: gamma * (qc + rq) + coef0,
                    x_agg,
                });
            };
            if karl {
                ball_ip_nodes::<true, _>(q, center, a, ids, &mut emit);
            } else {
                ball_ip_nodes::<false, _>(q, center, a, ids, &mut emit);
            }
        }
    }
}

/// Pass 2: one [`NodeInterval`] into its `[LB, UB]` pair.
#[inline]
pub fn assemble_interval(method: BoundMethod, curve: Curve, iv: &NodeInterval) -> BoundPair {
    let w = iv.w;
    if w <= 0.0 {
        // A node of all-zero weights contributes nothing either way.
        return BoundPair { lb: 0.0, ub: 0.0 };
    }
    match method {
        BoundMethod::Sota => sota_pair(w, curve.range(iv.lo, iv.hi)),
        BoundMethod::Karl => {
            let parts = envelope_parts(curve, iv.lo, iv.hi, iv.x_agg / w);
            finish_karl(&parts, w, iv.x_agg)
        }
    }
}

/// Computes the `[LB, UB]` pair for one frozen-tree node — the fused
/// counterpart of [`node_bounds`], composed from the two frontier passes
/// ([`node_interval_frozen`] then [`assemble_interval`]).
pub fn node_bounds_frozen(ctx: &QueryContext<'_>, tree: &FrozenTree, id: NodeId) -> BoundPair {
    let iv = node_interval_frozen(ctx, tree, id);
    let w = iv.w;
    if w <= 0.0 {
        return BoundPair { lb: 0.0, ub: 0.0 };
    }
    assemble(ctx.method, ctx.curve, w, iv.lo, iv.hi, iv.x_agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::aggregate_exact;
    use karl_geom::{norm2, Ball, PointSet, Rect};
    use karl_testkit::prop_assert;
    use karl_testkit::rng::StdRng;
    use karl_testkit::rng::{Rng, SeedableRng};
    use karl_tree::{BallTree, KdTree};

    fn random_points(n: usize, d: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        PointSet::new(d, (0..n * d).map(|_| rng.random_range(-2.0..2.0)).collect())
    }

    fn kernels() -> Vec<Kernel> {
        vec![
            Kernel::gaussian(0.8),
            Kernel::polynomial(0.7, 0.5, 3),
            Kernel::polynomial(0.7, -0.2, 2),
            Kernel::polynomial(0.5, 0.1, 5),
            Kernel::sigmoid(0.9, 0.1),
            Kernel::laplacian(1.1),
        ]
    }

    /// Every node of every tree, for every kernel and both methods, must
    /// bracket the exact node aggregate; and KARL must be at least as tight
    /// as SOTA.
    #[test]
    fn bounds_bracket_exact_node_aggregates() {
        let ps = random_points(200, 3, 42);
        let w: Vec<f64> = (0..200).map(|i| 0.2 + (i % 5) as f64 * 0.3).collect();
        let kd = KdTree::build(ps.clone(), &w, 8);
        let ball = BallTree::build(ps, &w, 8);
        let queries = random_points(5, 3, 43);

        for q in queries.iter() {
            let qn = norm2(q);
            for kernel in kernels() {
                for (_, node) in kd.iter_nodes() {
                    let exact = kernel.eval_range(
                        kd.points(),
                        kd.weights(),
                        kd.norms2(),
                        node.start,
                        node.end,
                        q,
                        qn,
                    );
                    check_node(&kernel, &node.shape, &node.stats, q, qn, exact);
                }
                for (_, node) in ball.iter_nodes() {
                    let exact = kernel.eval_range(
                        ball.points(),
                        ball.weights(),
                        ball.norms2(),
                        node.start,
                        node.end,
                        q,
                        qn,
                    );
                    check_node(&kernel, &node.shape, &node.stats, q, qn, exact);
                }
            }
        }
    }

    fn check_node<S: BoundingShape>(
        kernel: &Kernel,
        shape: &S,
        stats: &NodeStats,
        q: &[f64],
        qn: f64,
        exact: f64,
    ) {
        let tol = 1e-7 * (1.0 + exact.abs());
        let sota = node_bounds(BoundMethod::Sota, kernel, shape, stats, q, qn);
        let karl = node_bounds(BoundMethod::Karl, kernel, shape, stats, q, qn);
        assert!(
            sota.lb <= exact + tol && exact <= sota.ub + tol,
            "SOTA bounds broken for {kernel:?}: {exact} ∉ [{}, {}]",
            sota.lb,
            sota.ub
        );
        assert!(
            karl.lb <= exact + tol && exact <= karl.ub + tol,
            "KARL bounds broken for {kernel:?}: {exact} ∉ [{}, {}]",
            karl.lb,
            karl.ub
        );
        assert!(
            karl.lb + tol >= sota.lb && karl.ub <= sota.ub + tol,
            "KARL looser than SOTA for {kernel:?}"
        );
    }

    #[test]
    fn frontier_passes_bitwise_match_single_node_path() {
        // Over every node of both tree families and every kernel ×
        // method: the batched pass-1 records and the pass-2 assembly
        // (cache on and off) must reproduce `node_bounds_frozen` exactly.
        let ps = random_points(150, 3, 77);
        // Mixed-sign weights with a few zeros so the zero-weight arm is hit.
        let w: Vec<f64> = (0..150)
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => -0.7,
                _ => 0.3 + (i % 3) as f64 * 0.4,
            })
            .map(f64::abs) // node weights are non-negative post P⁺/P⁻ split
            .collect();
        let kd = KdTree::build(ps.clone(), &w, 6).freeze();
        let ball = BallTree::build(ps, &w, 6).freeze();
        let q = [0.4, -1.1, 0.9];

        for kernel in kernels() {
            for method in [BoundMethod::Sota, BoundMethod::Karl] {
                for tree in [&kd, &ball] {
                    let ctx = QueryContext::new(&kernel, method, &q);
                    let ids: Vec<NodeId> = (0..tree.num_nodes() as NodeId).collect();
                    let mut records = Vec::new();
                    node_intervals_frozen(&ctx, tree, &ids, &mut records);
                    assert_eq!(records.len(), ids.len());
                    for (iv, &id) in records.iter().zip(&ids) {
                        assert_eq!(iv.node, id);
                        let single = node_interval_frozen(&ctx, tree, id);
                        if single.w > 0.0 {
                            assert_eq!(*iv, single, "{kernel:?}/{method:?} node {id}");
                        }
                        let want = node_bounds_frozen(&ctx, tree, id);
                        let got = assemble_interval(method, ctx.curve, iv);
                        assert_eq!(got, want, "{kernel:?}/{method:?} node {id}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_weight_node_bounds_are_zero() {
        let ps = PointSet::new(2, vec![1.0, 1.0, 2.0, 2.0]);
        let w = [0.0, 0.0];
        let stats = NodeStats::from_range(&ps, &w, 0, 2);
        let rect = Rect::bounding(&ps, &[0, 1]);
        let b = node_bounds(
            BoundMethod::Karl,
            &Kernel::gaussian(1.0),
            &rect,
            &stats,
            &[0.0, 0.0],
            0.0,
        );
        assert_eq!(b.lb, 0.0);
        assert_eq!(b.ub, 0.0);
    }

    #[test]
    fn gap_shrinks_relative_to_sota_in_gaussian_case() {
        // KARL's headline claim, checked on a concrete node.
        let ps = random_points(64, 4, 7);
        let w = vec![1.0; 64];
        let stats = NodeStats::from_range(&ps, &w, 0, 64);
        let idx: Vec<usize> = (0..64).collect();
        let rect = Rect::bounding(&ps, &idx);
        let q = vec![3.0, -3.0, 3.0, -3.0]; // outside the data cloud
        let qn = norm2(&q);
        let kernel = Kernel::gaussian(0.3);
        let sota = node_bounds(BoundMethod::Sota, &kernel, &rect, &stats, &q, qn);
        let karl = node_bounds(BoundMethod::Karl, &kernel, &rect, &stats, &q, qn);
        assert!(karl.gap() < sota.gap());
    }

    #[test]
    fn bounds_exact_for_point_node() {
        // A node covering a single point must produce exact bounds for the
        // Gaussian kernel (interval degenerates).
        let ps = PointSet::new(2, vec![0.5, -0.5]);
        let w = [2.0];
        let stats = NodeStats::from_range(&ps, &w, 0, 1);
        let ball = Ball::new(vec![0.5, -0.5], 0.0);
        let q = [1.0, 1.0];
        let kernel = Kernel::gaussian(1.0);
        let exact = 2.0 * kernel.eval(&q, &[0.5, -0.5]);
        let b = node_bounds(BoundMethod::Karl, &kernel, &ball, &stats, &q, norm2(&q));
        assert!((b.lb - exact).abs() < 1e-10);
        assert!((b.ub - exact).abs() < 1e-10);
    }

    karl_testkit::props! {
        /// Randomized version of the bracketing + tightness invariants.
        #[test]
        fn prop_bounds_bracket_and_karl_tighter(
            n in 1usize..30,
            seed in 0u64..300,
            kid in 0usize..6,
            qseed in 0u64..100,
        ) {
            let ps = random_points(n, 2, seed);
            let w: Vec<f64> = (0..n).map(|i| 0.1 + (i % 4) as f64).collect();
            let stats = NodeStats::from_range(&ps, &w, 0, n);
            let idx: Vec<usize> = (0..n).collect();
            let rect = Rect::bounding(&ps, &idx);
            let mut rng = StdRng::seed_from_u64(qseed);
            let q = [rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0)];
            let qn = norm2(&q);
            let kernel = kernels()[kid];
            let exact = aggregate_exact(&kernel, &ps, &w, &q);
            let tol = 1e-7 * (1.0 + exact.abs());
            let sota = node_bounds(BoundMethod::Sota, &kernel, &rect, &stats, &q, qn);
            let karl = node_bounds(BoundMethod::Karl, &kernel, &rect, &stats, &q, qn);
            prop_assert!(sota.lb <= exact + tol && exact <= sota.ub + tol);
            prop_assert!(karl.lb <= exact + tol && exact <= karl.ub + tol);
            prop_assert!(karl.lb + tol >= sota.lb);
            prop_assert!(karl.ub <= sota.ub + tol);
        }
    }
}
