//! Frozen structure-of-arrays evaluation index.
//!
//! A built [`Tree`](crate::Tree) is a pointer-style arena: every node owns
//! its shape (`Rect` lo/hi or `Ball` center) and its `a_R` aggregate as
//! separate heap `Vec<f64>`s, so each heap pop during branch-and-bound
//! evaluation chases 3–4 scattered allocations. [`FrozenTree`] is the
//! read-only compilation of that tree into node-major flat buffers: all
//! shape coordinates, aggregates and topology live in a handful of
//! contiguous arrays indexed by `NodeId`, so a per-node bound probe walks
//! a few adjacent cache lines instead of the allocator's scatter.
//!
//! The frozen index carries *node* data only. Leaf refinement still reads
//! the point/weight/norm buffers of the originating `Tree`, which the
//! evaluator retains anyway — for construction, introspection and as the
//! differential-test oracle the frozen path is checked against.
//!
//! Freezing copies values verbatim (no reordering, no re-summation), so
//! bounds computed from a frozen node are bit-identical to bounds computed
//! from the pointer node.

use karl_geom::Buf;

use crate::tree::{NodeId, NodeShape, Tree};

/// Child-id sentinel marking a leaf in [`FrozenTree::left`]/`right`.
pub const NO_CHILD: u32 = u32::MAX;

/// SoA shape buffers of a frozen tree: the per-family node volumes packed
/// node-major, `d` coordinates per node. The buffers are [`Buf`]s, so a
/// frozen tree either owns its storage (freshly frozen) or borrows a
/// loaded index arena (see [`crate::persist`]) — identically shaped either
/// way.
#[derive(Debug, Clone, PartialEq)]
pub enum FrozenShapes {
    /// kd-tree family: rectangle corners, each `nodes × d` long.
    Rect {
        /// Lower corners, node-major.
        lo: Buf<f64>,
        /// Upper corners, node-major.
        hi: Buf<f64>,
    },
    /// ball-tree family: centers (`nodes × d`) and per-node radii.
    Ball {
        /// Ball centers, node-major.
        center: Buf<f64>,
        /// Ball radii, one per node.
        radius: Buf<f64>,
    },
}

/// A read-only, node-major compilation of a built [`Tree`].
///
/// All per-node data lives in parallel flat arrays indexed by `NodeId`
/// (pre-order, root = 0, matching the source tree's ids exactly):
/// shape coordinates in [`FrozenShapes`], the Lemma-2 aggregates
/// (`W_R`, `a_R`, `b_R`), point ranges, depths, and child links with
/// [`NO_CHILD`] marking leaves.
#[derive(Debug, Clone)]
pub struct FrozenTree {
    pub(crate) dims: usize,
    pub(crate) shapes: FrozenShapes,
    pub(crate) weight_sum: Buf<f64>,
    /// `a_R` for every node, one contiguous `nodes × d` buffer.
    pub(crate) weighted_sum: Buf<f64>,
    pub(crate) weighted_norm2: Buf<f64>,
    pub(crate) count: Buf<u32>,
    pub(crate) depth: Buf<u16>,
    pub(crate) start: Buf<u32>,
    pub(crate) end: Buf<u32>,
    pub(crate) left: Buf<u32>,
    pub(crate) right: Buf<u32>,
}

impl FrozenTree {
    /// Compiles a built tree into the SoA layout. Values are copied
    /// verbatim; node ids are preserved.
    pub fn freeze<S: NodeShape>(tree: &Tree<S>) -> Self {
        let n = tree.num_nodes();
        let d = tree.dims();
        let mut shapes = S::frozen_shapes(d, n);
        let mut weight_sum = Vec::with_capacity(n);
        let mut weighted_sum = Vec::with_capacity(n * d);
        let mut weighted_norm2 = Vec::with_capacity(n);
        let mut count = Vec::with_capacity(n);
        let mut depth = Vec::with_capacity(n);
        let mut start = Vec::with_capacity(n);
        let mut end = Vec::with_capacity(n);
        let mut left = Vec::with_capacity(n);
        let mut right = Vec::with_capacity(n);
        for (_, node) in tree.iter_nodes() {
            node.shape.push_frozen(&mut shapes);
            weight_sum.push(node.stats.weight_sum);
            weighted_sum.extend_from_slice(&node.stats.weighted_sum);
            weighted_norm2.push(node.stats.weighted_norm2);
            count.push(node.stats.count as u32);
            depth.push(node.depth);
            start.push(node.start as u32);
            end.push(node.end as u32);
            let (l, r) = node.children.unwrap_or((NO_CHILD, NO_CHILD));
            left.push(l);
            right.push(r);
        }
        Self {
            dims: d,
            shapes,
            weight_sum: weight_sum.into(),
            weighted_sum: weighted_sum.into(),
            weighted_norm2: weighted_norm2.into(),
            count: count.into(),
            depth: depth.into(),
            start: start.into(),
            end: end.into(),
            left: left.into(),
            right: right.into(),
        }
    }

    /// Dimensionality of the indexed points.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.weight_sum.len()
    }

    /// Id of the root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        0
    }

    /// Whether `id` is a leaf.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.left[id as usize] == NO_CHILD
    }

    /// Children of `id`, `None` for leaves.
    #[inline]
    pub fn children(&self, id: NodeId) -> Option<(NodeId, NodeId)> {
        let l = self.left[id as usize];
        if l == NO_CHILD {
            None
        } else {
            Some((l, self.right[id as usize]))
        }
    }

    /// Depth of `id` (root = 0).
    #[inline]
    pub fn depth(&self, id: NodeId) -> u16 {
        self.depth[id as usize]
    }

    /// The contiguous point range `[start, end)` owned by `id` in the
    /// originating tree's reordered buffers.
    #[inline]
    pub fn range(&self, id: NodeId) -> (usize, usize) {
        (
            self.start[id as usize] as usize,
            self.end[id as usize] as usize,
        )
    }

    /// Number of points owned by `id`.
    #[inline]
    pub fn count(&self, id: NodeId) -> usize {
        self.count[id as usize] as usize
    }

    /// `W_R = Σ wᵢ` of `id`.
    #[inline]
    pub fn weight_sum(&self, id: NodeId) -> f64 {
        self.weight_sum[id as usize]
    }

    /// `b_R = Σ wᵢ·‖pᵢ‖²` of `id`.
    #[inline]
    pub fn weighted_norm2(&self, id: NodeId) -> f64 {
        self.weighted_norm2[id as usize]
    }

    /// `a_R = Σ wᵢ·pᵢ` of `id`: a `d`-length slice into the contiguous
    /// aggregate buffer.
    #[inline]
    pub fn weighted_sum(&self, id: NodeId) -> &[f64] {
        let s = id as usize * self.dims;
        &self.weighted_sum[s..s + self.dims]
    }

    /// Appends `id`'s children to `out` (left then right — the canonical
    /// refinement order) and reports whether any were appended. The
    /// branch-and-bound frontier pass gathers children through this helper
    /// so the subsequent batched geometry kernels see one contiguous id
    /// list per pop.
    #[inline]
    pub fn gather_children(&self, id: NodeId, out: &mut Vec<NodeId>) -> bool {
        let l = self.left[id as usize];
        if l == NO_CHILD {
            false
        } else {
            out.push(l);
            out.push(self.right[id as usize]);
            true
        }
    }

    /// The full node-major `a_R` aggregate buffer (`num_nodes × dims`),
    /// for batched kernels that index it by node id themselves.
    #[inline]
    pub fn weighted_sums(&self) -> &[f64] {
        &self.weighted_sum
    }

    /// The packed shape buffers.
    #[inline]
    pub fn shapes(&self) -> &FrozenShapes {
        &self.shapes
    }

    /// Deepest node depth (root = 0). `0` for a single-leaf tree. Loaded
    /// trees have no originating pointer [`Tree`] to ask, so this scans
    /// the flat depth buffer.
    pub fn max_depth(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0) as usize
    }

    /// Per-section byte sizes of the flat evaluation buffers, labelled the
    /// way `karl index info` reports them. Section names are stable (they
    /// double as regression-review keys): the shape pair is
    /// `shape.lo`/`shape.hi` for the kd family and
    /// `shape.center`/`shape.radius` for the ball family.
    pub fn footprint_sections(&self) -> Vec<(&'static str, usize)> {
        const F64: usize = std::mem::size_of::<f64>();
        const U32: usize = std::mem::size_of::<u32>();
        const U16: usize = std::mem::size_of::<u16>();
        let mut out = Vec::with_capacity(11);
        match &self.shapes {
            FrozenShapes::Rect { lo, hi } => {
                out.push(("shape.lo", lo.len() * F64));
                out.push(("shape.hi", hi.len() * F64));
            }
            FrozenShapes::Ball { center, radius } => {
                out.push(("shape.center", center.len() * F64));
                out.push(("shape.radius", radius.len() * F64));
            }
        }
        out.push(("weight_sum", self.weight_sum.len() * F64));
        out.push(("weighted_sum", self.weighted_sum.len() * F64));
        out.push(("weighted_norm2", self.weighted_norm2.len() * F64));
        out.push(("count", self.count.len() * U32));
        out.push(("depth", self.depth.len() * U16));
        out.push(("start", self.start.len() * U32));
        out.push(("end", self.end.len() * U32));
        out.push(("left", self.left.len() * U32));
        out.push(("right", self.right.len() * U32));
        out
    }

    /// Total heap bytes held by the flat evaluation buffers (the sum of
    /// [`footprint_sections`](Self::footprint_sections)). Lets callers
    /// that stack a small front-tier tree on top of a full index (the
    /// coreset cascade) report the extra footprint the tier costs.
    pub fn footprint_bytes(&self) -> usize {
        self.footprint_sections().iter().map(|(_, b)| b).sum()
    }
}

impl<S: NodeShape> Tree<S> {
    /// Compiles this tree into its [`FrozenTree`] SoA evaluation index.
    pub fn freeze(&self) -> FrozenTree {
        FrozenTree::freeze(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{BallTree, KdTree};
    use karl_geom::{BoundingShape, PointSet};
    use karl_testkit::rng::{Rng, SeedableRng, StdRng};

    fn random_points(n: usize, d: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(-10.0..10.0)).collect();
        PointSet::new(d, data)
    }

    /// Every frozen field must be a verbatim copy of the pointer node —
    /// bitwise, since freezing performs no arithmetic.
    fn check_frozen_matches<S: NodeShape>(tree: &Tree<S>, frozen: &FrozenTree) {
        assert_eq!(frozen.num_nodes(), tree.num_nodes());
        assert_eq!(frozen.dims(), tree.dims());
        assert_eq!(frozen.root(), tree.root());
        for (id, node) in tree.iter_nodes() {
            assert_eq!(frozen.is_leaf(id), node.is_leaf());
            assert_eq!(frozen.children(id), node.children);
            assert_eq!(frozen.depth(id), node.depth);
            assert_eq!(frozen.range(id), (node.start, node.end));
            assert_eq!(frozen.count(id), node.stats.count);
            assert_eq!(frozen.weight_sum(id), node.stats.weight_sum);
            assert_eq!(frozen.weighted_norm2(id), node.stats.weighted_norm2);
            assert_eq!(frozen.weighted_sum(id), &node.stats.weighted_sum[..]);
        }
    }

    #[test]
    fn kd_freeze_copies_every_field_bitwise() {
        let ps = random_points(300, 4, 11);
        let w: Vec<f64> = (0..300).map(|i| 0.1 + (i % 7) as f64).collect();
        let tree = KdTree::build(ps, &w, 8);
        let frozen = tree.freeze();
        check_frozen_matches(&tree, &frozen);
        let FrozenShapes::Rect { lo, hi } = frozen.shapes() else {
            panic!("kd tree must freeze to Rect buffers");
        };
        assert_eq!(lo.len(), tree.num_nodes() * tree.dims());
        for (id, node) in tree.iter_nodes() {
            let s = id as usize * tree.dims();
            assert_eq!(&lo[s..s + tree.dims()], node.shape.lo());
            assert_eq!(&hi[s..s + tree.dims()], node.shape.hi());
        }
    }

    #[test]
    fn ball_freeze_copies_every_field_bitwise() {
        let ps = random_points(250, 3, 12);
        let w: Vec<f64> = (0..250).map(|i| (i as f64 * 0.37).sin()).collect();
        let tree = BallTree::build(ps, &w, 5);
        let frozen = tree.freeze();
        check_frozen_matches(&tree, &frozen);
        let FrozenShapes::Ball { center, radius } = frozen.shapes() else {
            panic!("ball tree must freeze to Ball buffers");
        };
        assert_eq!(radius.len(), tree.num_nodes());
        for (id, node) in tree.iter_nodes() {
            let s = id as usize * tree.dims();
            assert_eq!(&center[s..s + tree.dims()], node.shape.center());
            assert_eq!(radius[id as usize], node.shape.radius());
        }
    }

    #[test]
    fn gather_children_appends_left_then_right() {
        let ps = random_points(200, 3, 14);
        let tree = KdTree::build(ps, &vec![1.0; 200], 8);
        let frozen = tree.freeze();
        let mut out = Vec::new();
        for (id, node) in tree.iter_nodes() {
            out.clear();
            out.push(999); // pre-existing content must be preserved
            let gathered = frozen.gather_children(id, &mut out);
            match node.children {
                Some((l, r)) => {
                    assert!(gathered);
                    assert_eq!(out, vec![999, l, r]);
                }
                None => {
                    assert!(!gathered);
                    assert_eq!(out, vec![999]);
                }
            }
        }
        // The flat aggregate buffer matches the per-node slices.
        for (id, _) in tree.iter_nodes() {
            let s = id as usize * frozen.dims();
            assert_eq!(
                &frozen.weighted_sums()[s..s + frozen.dims()],
                frozen.weighted_sum(id)
            );
        }
    }

    #[test]
    fn footprint_counts_every_buffer_exactly() {
        let ps = random_points(150, 3, 15);
        let tree = KdTree::build(ps, &vec![1.0; 150], 4);
        let frozen = tree.freeze();
        let n = frozen.num_nodes();
        let d = frozen.dims();
        // Rect shapes: 2 corner buffers of n*d f64s; aggregates: W_R (n),
        // a_R (n*d), b_R (n); links/ranges/counts: 5 u32 buffers; depth u16.
        let expected = (2 * n * d + n + n * d + n) * 8 + 5 * n * 4 + n * 2;
        assert_eq!(frozen.footprint_bytes(), expected);
        // A coreset-sized tree must be strictly smaller than the full one.
        let small = KdTree::build(random_points(10, 3, 15), &[1.0; 10], 4).freeze();
        assert!(small.footprint_bytes() < frozen.footprint_bytes());
    }

    #[test]
    fn single_node_tree_freezes_to_one_leaf() {
        let ps = PointSet::new(2, vec![1.0, 2.0]);
        let tree = KdTree::build(ps, &[3.0], 10);
        let frozen = tree.freeze();
        assert_eq!(frozen.num_nodes(), 1);
        assert!(frozen.is_leaf(frozen.root()));
        assert_eq!(frozen.children(frozen.root()), None);
        assert_eq!(frozen.range(0), (0, 1));
        assert_eq!(frozen.weight_sum(0), 3.0);
    }

    #[test]
    fn frozen_shape_probe_matches_pointer_shape() {
        // The SoA slices must reproduce the pointer shape's bound queries
        // bitwise when fed through the same primitives.
        let ps = random_points(120, 5, 13);
        let tree = KdTree::build(ps, &vec![1.0; 120], 6);
        let frozen = tree.freeze();
        let FrozenShapes::Rect { lo, hi } = frozen.shapes() else {
            unreachable!()
        };
        let q: Vec<f64> = (0..5).map(|i| i as f64 * 0.9 - 2.0).collect();
        for (id, node) in tree.iter_nodes() {
            let s = id as usize * 5;
            let (mn, mx, _) = karl_geom::rect_dist::<false>(&q, &lo[s..s + 5], &hi[s..s + 5], &[]);
            assert_eq!(mn, node.shape.mindist2(&q));
            assert_eq!(mx, node.shape.maxdist2(&q));
        }
    }
}
