//! Kernel functions and their reduction to scalar curves.
//!
//! The three kernels of the paper (Gaussian, polynomial, sigmoid), each
//! exposing the pieces the bound machinery needs:
//!
//! * exact per-point evaluation (with a norm-cached fast path, the same
//!   `‖q‖² − 2·q·p + ‖p‖²` expansion LIBSVM uses),
//! * the scalar interval `[x_min, x_max]` a bounding volume induces,
//! * the weighted scalar aggregate `X = Σ wᵢ·xᵢ` computed in `O(d)` from
//!   node statistics (Lemmas 2 and 5),
//! * the scalar [`Curve`] through which the kernel evaluates.

use karl_geom::simd::{self, LeafKernel};
use karl_geom::{dist2, dot, norm2, BoundingShape};
use karl_tree::NodeStats;

use crate::curve::Curve;
use crate::error::KarlError;

#[inline]
fn check_gamma(gamma: f64) -> Result<(), KarlError> {
    if gamma.is_finite() && gamma > 0.0 {
        Ok(())
    } else {
        Err(KarlError::InvalidGamma { value: gamma })
    }
}

#[inline]
fn check_coef0(coef0: f64) -> Result<(), KarlError> {
    if coef0.is_finite() {
        Ok(())
    } else {
        Err(KarlError::InvalidCoef0 { value: coef0 })
    }
}

/// A kernel function `K(q, p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Gaussian kernel `exp(−γ·dist(q,p)²)`, `γ > 0`.
    Gaussian {
        /// Smoothing parameter `γ`.
        gamma: f64,
    },
    /// Polynomial kernel `(γ·q·p + β)^deg`, `γ > 0`.
    Polynomial {
        /// Inner-product scale `γ`.
        gamma: f64,
        /// Offset `β` (LIBSVM's `coef0`).
        coef0: f64,
        /// Degree `deg ≥ 0` (LIBSVM default 3).
        degree: u32,
    },
    /// Sigmoid kernel `tanh(γ·q·p + β)`, `γ > 0`.
    Sigmoid {
        /// Inner-product scale `γ`.
        gamma: f64,
        /// Offset `β` (LIBSVM's `coef0`).
        coef0: f64,
    },
    /// Laplacian kernel `exp(−γ·dist(q,p))`, `γ > 0` — an extension beyond
    /// the paper demonstrating Section IV's claim of kernel extensibility:
    /// it factors through the convex curve `exp(−√x)` with `x = γ²·dist²`,
    /// so the same O(d) aggregates drive its linear bounds.
    Laplacian {
        /// Decay rate `γ`.
        gamma: f64,
    },
}

impl Kernel {
    /// A Gaussian kernel with smoothing parameter `gamma`.
    ///
    /// # Panics
    /// Panics unless `gamma` is finite and positive.
    pub fn gaussian(gamma: f64) -> Self {
        Self::try_gaussian(gamma).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validating variant of [`gaussian`](Self::gaussian).
    pub fn try_gaussian(gamma: f64) -> Result<Self, KarlError> {
        check_gamma(gamma)?;
        Ok(Kernel::Gaussian { gamma })
    }

    /// A polynomial kernel `(γ·q·p + β)^deg`.
    ///
    /// # Panics
    /// Panics unless `gamma` is finite and positive and `coef0` is finite.
    pub fn polynomial(gamma: f64, coef0: f64, degree: u32) -> Self {
        Self::try_polynomial(gamma, coef0, degree).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validating variant of [`polynomial`](Self::polynomial).
    pub fn try_polynomial(gamma: f64, coef0: f64, degree: u32) -> Result<Self, KarlError> {
        check_gamma(gamma)?;
        check_coef0(coef0)?;
        Ok(Kernel::Polynomial {
            gamma,
            coef0,
            degree,
        })
    }

    /// A sigmoid kernel `tanh(γ·q·p + β)`.
    ///
    /// # Panics
    /// Panics unless `gamma` is finite and positive and `coef0` is finite.
    pub fn sigmoid(gamma: f64, coef0: f64) -> Self {
        Self::try_sigmoid(gamma, coef0).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validating variant of [`sigmoid`](Self::sigmoid).
    pub fn try_sigmoid(gamma: f64, coef0: f64) -> Result<Self, KarlError> {
        check_gamma(gamma)?;
        check_coef0(coef0)?;
        Ok(Kernel::Sigmoid { gamma, coef0 })
    }

    /// A Laplacian kernel `exp(−γ·dist(q,p))`.
    ///
    /// # Panics
    /// Panics unless `gamma` is finite and positive.
    pub fn laplacian(gamma: f64) -> Self {
        Self::try_laplacian(gamma).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validating variant of [`laplacian`](Self::laplacian).
    pub fn try_laplacian(gamma: f64) -> Result<Self, KarlError> {
        check_gamma(gamma)?;
        Ok(Kernel::Laplacian { gamma })
    }

    /// The scalar curve `f` with `K(q,p) = f(x(q,p))`.
    #[inline]
    pub fn curve(&self) -> Curve {
        match *self {
            Kernel::Gaussian { .. } => Curve::NegExp,
            Kernel::Polynomial { degree, .. } => Curve::PowInt { degree },
            Kernel::Sigmoid { .. } => Curve::Tanh,
            Kernel::Laplacian { .. } => Curve::NegExpSqrt,
        }
    }

    /// Exact `K(q, p)`.
    #[inline]
    pub fn eval(&self, q: &[f64], p: &[f64]) -> f64 {
        match *self {
            Kernel::Gaussian { gamma } => (-gamma * dist2(q, p)).exp(),
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => (gamma * dot(q, p) + coef0).powi(degree as i32),
            Kernel::Sigmoid { gamma, coef0 } => (gamma * dot(q, p) + coef0).tanh(),
            Kernel::Laplacian { gamma } => (-gamma * dist2(q, p).sqrt()).exp(),
        }
    }

    /// Exact `K(q, p)` using precomputed squared norms, the expansion
    /// `dist² = ‖q‖² − 2·q·p + ‖p‖²` (only the Gaussian kernel needs the
    /// norms; the others reduce to the dot product anyway).
    ///
    /// This per-point form uses libm `exp`, and [`aggregate_exact`] sums
    /// it as an independent oracle. Leaf scans go through
    /// [`eval_range`](Self::eval_range) instead, whose lane `exp` stays
    /// within 2 ulp of this one per term.
    #[inline]
    pub fn eval_cached(&self, q: &[f64], q_norm2: f64, p: &[f64], p_norm2: f64) -> f64 {
        match *self {
            Kernel::Gaussian { gamma } => {
                let d2 = (q_norm2 - 2.0 * dot(q, p) + p_norm2).max(0.0);
                (-gamma * d2).exp()
            }
            Kernel::Laplacian { gamma } => {
                let d2 = (q_norm2 - 2.0 * dot(q, p) + p_norm2).max(0.0);
                (-gamma * d2.sqrt()).exp()
            }
            _ => self.eval(q, p),
        }
    }

    /// The per-point scalar `x(q, p)` with `K = f(x)`.
    #[inline]
    pub fn x_of(&self, q: &[f64], p: &[f64]) -> f64 {
        match *self {
            Kernel::Gaussian { gamma } => gamma * dist2(q, p),
            Kernel::Laplacian { gamma } => gamma * gamma * dist2(q, p),
            Kernel::Polynomial { gamma, coef0, .. } | Kernel::Sigmoid { gamma, coef0 } => {
                gamma * dot(q, p) + coef0
            }
        }
    }

    /// The interval `[x_min, x_max]` covering `x(q, p)` for every point `p`
    /// inside `shape`.
    #[inline]
    pub fn x_interval<S: BoundingShape>(&self, shape: &S, q: &[f64]) -> (f64, f64) {
        match *self {
            Kernel::Gaussian { gamma } => (gamma * shape.mindist2(q), gamma * shape.maxdist2(q)),
            Kernel::Laplacian { gamma } => {
                let g2 = gamma * gamma;
                (g2 * shape.mindist2(q), g2 * shape.maxdist2(q))
            }
            Kernel::Polynomial { gamma, coef0, .. } | Kernel::Sigmoid { gamma, coef0 } => (
                gamma * shape.ip_min(q) + coef0,
                gamma * shape.ip_max(q) + coef0,
            ),
        }
    }

    /// The weighted scalar aggregate `X = Σᵢ wᵢ·x(q, pᵢ)` over a node,
    /// computed in `O(d)` from the node statistics:
    ///
    /// * Gaussian: `X = γ·(W‖q‖² − 2·q·a + b)` (Lemma 2 / Lemma 5),
    /// * polynomial & sigmoid: `X = γ·(q·a) + β·W` (Section IV-B).
    #[inline]
    pub fn x_aggregate(&self, stats: &NodeStats, q: &[f64], q_norm2: f64) -> f64 {
        match *self {
            Kernel::Gaussian { gamma } => gamma * stats.weighted_dist2_sum(q, q_norm2),
            Kernel::Laplacian { gamma } => gamma * gamma * stats.weighted_dist2_sum(q, q_norm2),
            Kernel::Polynomial { gamma, coef0, .. } | Kernel::Sigmoid { gamma, coef0 } => {
                gamma * stats.weighted_ip_sum(q) + coef0 * stats.weight_sum
            }
        }
    }

    /// Exact weighted aggregation `Σᵢ wᵢ·K(q, pᵢ)` over the contiguous
    /// range `[start, end)` of a reordered point buffer, using the cached
    /// squared norms. This is the refinement step applied to leaves.
    ///
    /// The whole range is one call to [`simd::leaf_sum_with`], so the
    /// backend is dispatched once per leaf rather than once per point.
    /// That kernel keeps four points in flight, gives every point the
    /// canonical `d²` of [`dot`], and evaluates Gaussian and Laplacian
    /// terms with the in-repo lane `exp` (at most 2 ulp from a correctly
    /// rounded `exp`, DESIGN §10). Its point order and blocked summation
    /// are fixed and identical on every backend, which is part of the
    /// determinism guarantee: batch, sequential, scalar and AVX2 execution
    /// all share this one path.
    ///
    /// # Panics
    /// Panics in debug builds if the range or buffer lengths are
    /// inconsistent; release callers are trusted (the evaluator validates
    /// its buffers once at build time).
    #[allow(clippy::too_many_arguments)] // hot path: flat scalars beat a params struct
    pub fn eval_range(
        &self,
        points: &karl_geom::PointSet,
        weights: &[f64],
        norms2: &[f64],
        start: usize,
        end: usize,
        q: &[f64],
        q_norm2: f64,
    ) -> f64 {
        debug_assert!(start <= end && end <= points.len(), "range out of bounds");
        debug_assert_eq!(weights.len(), points.len(), "weights length mismatch");
        debug_assert_eq!(norms2.len(), points.len(), "norms2 length mismatch");
        let d = points.dims();
        simd::leaf_sum_with(
            simd::backend(),
            self.leaf_kernel(),
            &points.as_slice()[start * d..end * d],
            &weights[start..end],
            &norms2[start..end],
            q,
            q_norm2,
        )
    }

    /// This kernel as the per-point function of a leaf scan.
    #[inline]
    fn leaf_kernel(&self) -> LeafKernel {
        match *self {
            Kernel::Gaussian { gamma } => LeafKernel::Gaussian { gamma },
            Kernel::Laplacian { gamma } => LeafKernel::Laplacian { gamma },
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => LeafKernel::Polynomial {
                gamma,
                coef0,
                degree,
            },
            Kernel::Sigmoid { gamma, coef0 } => LeafKernel::Sigmoid { gamma, coef0 },
        }
    }

    /// The `γ` parameter common to all kernels.
    #[inline]
    pub fn gamma(&self) -> f64 {
        match *self {
            Kernel::Gaussian { gamma }
            | Kernel::Polynomial { gamma, .. }
            | Kernel::Sigmoid { gamma, .. }
            | Kernel::Laplacian { gamma } => gamma,
        }
    }
}

/// Convenience: exact `F_P(q) = Σᵢ wᵢ·K(q, pᵢ)` over a whole point set,
/// without any index. This is the SCAN baseline's inner computation and the
/// ground truth for every test in the workspace.
pub fn aggregate_exact(
    kernel: &Kernel,
    points: &karl_geom::PointSet,
    weights: &[f64],
    q: &[f64],
) -> f64 {
    assert_eq!(weights.len(), points.len());
    let qn = norm2(q);
    let mut acc = 0.0;
    for (i, p) in points.iter().enumerate() {
        acc += weights[i] * kernel.eval_cached(q, qn, p, norm2(p));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use karl_geom::{PointSet, Rect};
    use karl_testkit::prop_assert;
    use karl_testkit::props::vec_of;

    #[test]
    fn gaussian_eval() {
        let k = Kernel::gaussian(0.5);
        let v = k.eval(&[0.0, 0.0], &[1.0, 1.0]);
        assert!((v - (-1.0f64).exp()).abs() < 1e-12);
        assert_eq!(k.eval(&[2.0, 3.0], &[2.0, 3.0]), 1.0);
    }

    #[test]
    fn polynomial_eval() {
        let k = Kernel::polynomial(2.0, 1.0, 3);
        // (2*(1*2 + 0*0) + 1)^3 = 125
        assert_eq!(k.eval(&[1.0, 0.0], &[2.0, 0.0]), 125.0);
    }

    #[test]
    fn sigmoid_eval() {
        let k = Kernel::sigmoid(1.0, 0.0);
        assert_eq!(k.eval(&[0.0], &[5.0]), 0.0);
        assert!((k.eval(&[1.0], &[1.0]) - 1.0f64.tanh()).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn non_positive_gamma_panics() {
        Kernel::gaussian(0.0);
    }

    #[test]
    fn cached_eval_matches_plain() {
        let k = Kernel::gaussian(0.7);
        let q = [1.0, -2.0, 0.5];
        let p = [0.3, 0.1, -0.9];
        let plain = k.eval(&q, &p);
        let cached = k.eval_cached(&q, norm2(&q), &p, norm2(&p));
        assert!((plain - cached).abs() < 1e-12);
    }

    #[test]
    fn x_interval_brackets_x_of() {
        let ps = PointSet::new(2, vec![0.0, 0.0, 1.0, 2.0, -1.0, 0.5]);
        let idx: Vec<usize> = (0..3).collect();
        let rect = Rect::bounding(&ps, &idx);
        let q = [0.5, -0.5];
        for k in [
            Kernel::gaussian(0.8),
            Kernel::polynomial(1.5, 0.3, 3),
            Kernel::sigmoid(1.2, -0.1),
        ] {
            let (lo, hi) = k.x_interval(&rect, &q);
            for p in ps.iter() {
                let x = k.x_of(&q, p);
                assert!(
                    lo <= x + 1e-12 && x <= hi + 1e-12,
                    "{k:?}: {x} ∉ [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn aggregate_exact_simple() {
        let ps = PointSet::new(1, vec![0.0, 1.0]);
        let k = Kernel::gaussian(1.0);
        let f = aggregate_exact(&k, &ps, &[2.0, 3.0], &[0.0]);
        assert!((f - (2.0 + 3.0 * (-1.0f64).exp())).abs() < 1e-12);
    }

    karl_testkit::props! {
        /// X aggregate from node stats equals the brute-force Σ wᵢ·xᵢ.
        #[test]
        fn prop_x_aggregate_matches_bruteforce(
            rows in vec_of(vec_of(-5.0f64..5.0, 3), 1..10),
            ws in vec_of(0.01f64..4.0, 10),
            q in vec_of(-5.0f64..5.0, 3),
            kid in 0usize..3,
        ) {
            let ps = PointSet::from_rows(&rows);
            let w = &ws[..ps.len()];
            let kernel = [
                Kernel::gaussian(0.6),
                Kernel::polynomial(0.9, 0.2, 3),
                Kernel::sigmoid(1.1, 0.4),
            ][kid];
            let stats = NodeStats::from_range(&ps, w, 0, ps.len());
            let fast = kernel.x_aggregate(&stats, &q, norm2(&q));
            let slow: f64 = (0..ps.len())
                .map(|i| w[i] * kernel.x_of(&q, ps.point(i)))
                .sum();
            prop_assert!((fast - slow).abs() / (1.0 + slow.abs()) < 1e-9);
        }

        /// eval_range over the full range equals aggregate_exact.
        #[test]
        fn prop_eval_range_matches_aggregate(
            rows in vec_of(vec_of(-3.0f64..3.0, 2), 1..10),
            q in vec_of(-3.0f64..3.0, 2),
        ) {
            let ps = PointSet::from_rows(&rows);
            let w: Vec<f64> = (0..ps.len()).map(|i| 1.0 + i as f64 * 0.1).collect();
            let norms = ps.squared_norms();
            let k = Kernel::gaussian(0.5);
            let fast = k.eval_range(&ps, &w, &norms, 0, ps.len(), &q, norm2(&q));
            let slow = aggregate_exact(&k, &ps, &w, &q);
            prop_assert!((fast - slow).abs() / (1.0 + slow.abs()) < 1e-10);
        }
    }
}
