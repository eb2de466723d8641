//! Geometric substrate for the KARL kernel-aggregation library.
//!
//! This crate provides the low-level building blocks shared by the index
//! structures and the bound functions:
//!
//! * [`PointSet`] — a dense, row-major collection of `d`-dimensional points.
//! * [`Rect`] — axis-aligned minimum bounding rectangles with
//!   `mindist`/`maxdist` and inner-product range queries.
//! * [`Ball`] — bounding balls with the same query surface.
//! * [`BoundingShape`] — the trait both shapes implement, so index nodes and
//!   bound functions can be written once for either tree family.
//!
//! All distance work is done on squared Euclidean distances to avoid
//! unnecessary square roots; the KARL bound machinery consumes
//! `γ · dist²` directly.
//!
//! The hot reductions run on a runtime-dispatched SIMD backend
//! ([`simd`]) with a bitwise determinism contract: the scalar and vector
//! paths produce identical bits, so the backend choice (`KARL_SIMD`)
//! can never change an answer.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod ball;
pub mod buf;
pub mod dist;
pub mod error;
pub mod fused;
pub mod points;
pub mod rect;
pub mod simd;

pub use ball::Ball;
pub use buf::{AlignedBytes, AlignedVec, Buf, Pod, ARENA_ALIGN};
pub use dist::{dist2, dot, norm2};
pub use error::GeomError;
pub use fused::{
    ball_dist, ball_dist_nodes, ball_ip, ball_ip_nodes, rect_dist, rect_dist_nodes, rect_ip,
    rect_ip_nodes,
};
pub use points::PointSet;
pub use rect::Rect;
pub use simd::{backend, backend_name, set_backend, SimdBackend, SimdChoice, KARL_SIMD_ENV};

/// A bounding volume that can answer the range queries the KARL bound
/// functions need.
///
/// For a query point `q` and any point `p` inside the shape it must hold
/// that:
///
/// * `mindist2(q) <= dist(q, p)^2 <= maxdist2(q)`
/// * `ip_min(q) <= q · p <= ip_max(q)`
pub trait BoundingShape {
    /// Squared minimum Euclidean distance from `q` to any point in the shape.
    fn mindist2(&self, q: &[f64]) -> f64;
    /// Squared maximum Euclidean distance from `q` to any point in the shape.
    fn maxdist2(&self, q: &[f64]) -> f64;
    /// Minimum inner product between `q` and any point in the shape.
    fn ip_min(&self, q: &[f64]) -> f64;
    /// Maximum inner product between `q` and any point in the shape.
    fn ip_max(&self, q: &[f64]) -> f64;
    /// Dimensionality of the shape.
    fn dims(&self) -> usize;
}
