//! Test-only fault injection for the batch engine (feature `fault-inject`).
//!
//! The containment tests need a way to make a *specific query slot* fail —
//! by panicking inside the refinement loop or by corrupting the query point
//! to NaN — while every other query in the batch stays healthy. A plan is a
//! plain list of `(slot, fault)` pairs handed to one batch through
//! [`QueryBatch::faults`](crate::batch::QueryBatch::faults), or to one
//! server through `ServeConfig::faults`; no state is shared between
//! batches, so tests that inject faults run safely in parallel.

/// What to do to a planned query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the per-query evaluation closure.
    Panic,
    /// Replace the query point with an all-NaN vector so the validated
    /// entry path rejects it with `KarlError::NonFiniteQuery`.
    Nan,
}
