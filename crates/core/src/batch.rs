//! Batch query execution: scoped-thread workers over one evaluator.
//!
//! The paper measures single-query refinement cost; a serving system cares
//! about *throughput over a stream of queries*. This module amortizes the
//! index across a whole batch:
//!
//! * **Parallelism** — `std::thread::scope` workers (no runtime, no
//!   registry dependencies) pull chunks of query indices off an atomic
//!   work-stealing cursor, so skewed per-query refinement cost balances
//!   automatically.
//! * **Allocation reuse** — each worker owns one [`Scratch`] (priority
//!   queue storage + trace buffer) threaded through
//!   [`Evaluator::run_with_scratch`], so the per-query hot path performs
//!   zero heap allocations once the buffers reach the workload's
//!   high-water mark.
//! * **Determinism** — every query's [`RunOutcome`] is written to its own
//!   slot, each query is evaluated by exactly the same code path as the
//!   sequential [`Evaluator::run_query`], and the heap's refinement order
//!   is a pure function of the query (equal-gap ties break on node id).
//!   A batch result is therefore **bitwise identical** to the sequential
//!   loop, at any thread count.
//!
//! The thread count resolves in order: [`QueryBatch::threads`] override →
//! `KARL_THREADS` environment variable → `available_parallelism`, and is
//! finally capped by the number of queries.
//!
//! ```
//! use karl_core::{BoundMethod, Evaluator, Kernel, Query, QueryBatch};
//! use karl_geom::{PointSet, Rect};
//!
//! let points = PointSet::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
//! let eval = Evaluator::<Rect>::build(
//!     &points, &[1.0, 1.0], Kernel::gaussian(0.5), BoundMethod::Karl, 2);
//! let queries = PointSet::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0]]);
//!
//! let out = QueryBatch::new(&queries, Query::Tkaq { tau: 1.0 })
//!     .threads(2)
//!     .run(&eval);
//! assert_eq!(out.decisions(), vec![true, false]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use karl_geom::PointSet;
use karl_tree::NodeShape;

use crate::error::{self, KarlError};
#[cfg(feature = "stats")]
use crate::eval::RunStats;
use crate::eval::{
    decide_tkaq, estimate_ekaq, Budget, Engine, Evaluator, Outcome, Query, RunOutcome, Scratch,
    TierPath,
};
#[cfg(feature = "fault-inject")]
use crate::fault::Fault;
use crate::tuning::AnyEvaluator;

/// Queries are handed to workers in index chunks of this size: large enough
/// that the `fetch_add` on the shared cursor is negligible next to even the
/// cheapest query, small enough that a straggler chunk cannot idle the
/// other workers at the end of a batch.
const CHUNK: usize = 16;

/// Between chunks each worker shrinks any scratch buffer that grew past
/// this many elements, so a single adversarial query cannot ratchet a
/// worker's memory for the rest of the batch. Generous enough that
/// ordinary workloads never hit it.
const SCRATCH_CAP: usize = 1 << 15;

/// Coreset-cascade tally of one run (or one worker's share of it): how many
/// queries tier 1 decided outright vs how many fell through to the full
/// tree. Each query's [`TierPath`] is a pure function of the query, so the
/// summed tally is deterministic at any thread count.
#[derive(Debug, Clone, Copy, Default)]
struct TierCounts {
    decided: u64,
    fell: u64,
}

impl TierCounts {
    #[inline]
    fn note(&mut self, path: TierPath) {
        match path {
            TierPath::Decided => self.decided += 1,
            TierPath::FellThrough => self.fell += 1,
            TierPath::Bypassed => {}
        }
    }

    #[inline]
    fn add(&mut self, other: &TierCounts) {
        self.decided += other.decided;
        self.fell += other.fell;
    }
}

/// Resolves the worker count for a batch: explicit request →
/// `KARL_THREADS` → `available_parallelism` → 1. Zero and unparsable
/// values of `KARL_THREADS` are ignored rather than honored as nonsense.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("KARL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A set of queries to evaluate under one query specification.
///
/// Built once, runnable against any evaluator whose dimensionality matches;
/// see the [module docs](self) for the execution model.
#[derive(Debug, Clone)]
pub struct QueryBatch<'a> {
    queries: &'a PointSet,
    query: Query,
    threads: Option<usize>,
    level_cap: Option<u16>,
    engine: Engine,
    budget: Budget,
    coreset: bool,
    /// `(slot, fault)` pairs to inject; see [`faults`](Self::faults).
    #[cfg(feature = "fault-inject")]
    faults: Vec<(usize, Fault)>,
}

impl<'a> QueryBatch<'a> {
    /// Creates a batch of `queries` all answering `query`.
    ///
    /// # Panics
    /// Panics if the query's parameter is invalid (non-finite `τ`,
    /// `eps <= 0` or `tol <= 0`) — validated here once instead of per
    /// query. Use [`try_new`](Self::try_new) for a typed rejection.
    pub fn new(queries: &'a PointSet, query: Query) -> Self {
        Self::try_new(queries, query).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validating constructor: rejects invalid query parameters with a
    /// typed [`KarlError`] (`InvalidTau` / `InvalidEps` / `InvalidTol`)
    /// instead of panicking.
    pub fn try_new(queries: &'a PointSet, query: Query) -> Result<Self, KarlError> {
        error::validate_spec(query)?;
        Ok(Self {
            queries,
            query,
            threads: None,
            level_cap: None,
            engine: Engine::default(),
            budget: Budget::UNLIMITED,
            coreset: false,
            #[cfg(feature = "fault-inject")]
            faults: Vec::new(),
        })
    }

    /// Overrides the worker count (otherwise `KARL_THREADS` /
    /// `available_parallelism`).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n >= 1, "thread count must be at least 1");
        self.threads = Some(n);
        self
    }

    /// Restricts refinement to the top `level` tree levels (the simulated
    /// tree of the in-situ tuner).
    pub fn level_cap(mut self, level: u16) -> Self {
        self.level_cap = Some(level);
        self
    }

    /// Selects the evaluation engine (default [`Engine::Frozen`]). Both
    /// engines are bitwise-identical; [`Engine::Pointer`] exists for
    /// differential testing and perf comparison.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Enables the coreset cascade (default off): per-query evaluation
    /// first refines on the evaluator's attached coreset tier (see
    /// [`Evaluator::with_coreset_tier`]) and only falls through to the
    /// full tree when the widened interval cannot decide. A no-op on
    /// evaluators without a tier. Applies to both [`run`](Self::run) and
    /// [`try_run`](Self::try_run).
    ///
    /// Answer contract (`tests/coreset_cascade_equivalence.rs`): TKAQ
    /// decisions and `Within` results are identical to the cascade-off
    /// run (`Within` queries bypass the tier entirely — their answer *is*
    /// the interval, which tier widening would legitimately coarsen — so
    /// their outcomes stay bitwise identical); eKAQ estimates satisfy the
    /// requested relative error but may differ bitwise when the tier
    /// decides. When off, the code path is bitwise identical to the
    /// pre-cascade engine.
    pub fn coreset(mut self, on: bool) -> Self {
        self.coreset = on;
        self
    }

    /// Applies a per-query refinement [`Budget`] (default unlimited).
    /// Budgets are honored by [`try_run`](Self::try_run); queries that
    /// exhaust theirs report `Outcome::Truncated` with the certified
    /// interval at stop time. The legacy [`run`](Self::run) predates
    /// budgets and panics if one is set.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Plans injected faults for [`try_run`](Self::try_run) (test-only,
    /// feature `fault-inject`): each `(slot, fault)` pair makes query
    /// `slot` of this batch panic inside its contained evaluation, or
    /// evaluate an all-NaN point in place of its own. The plan belongs to
    /// this batch alone, so concurrent batches never see each other's
    /// faults. Slots beyond the batch never fire.
    #[cfg(feature = "fault-inject")]
    pub fn faults(mut self, plan: &[(usize, Fault)]) -> Self {
        self.faults = plan.to_vec();
        self
    }

    /// Evaluates the batch against `eval`.
    ///
    /// Dimensionality is validated **once here for the whole batch**; the
    /// per-query hot path ([`Evaluator::run_with_scratch_on`]) only
    /// `debug_assert!`s it.
    ///
    /// # Panics
    /// Panics if the query dimensionality does not match the evaluator's,
    /// or if a worker thread panics.
    pub fn run<S: NodeShape + Sync>(&self, eval: &Evaluator<S>) -> BatchOutcome {
        assert_eq!(
            self.queries.dims(),
            eval.dims(),
            "query dimensionality mismatch"
        );
        assert!(
            self.budget.is_unlimited(),
            "budgeted batches must use try_run (run cannot represent truncated outcomes)"
        );
        let n = self.queries.len();
        let threads = resolve_threads(self.threads).min(n.max(1));
        let start = Instant::now();
        let (outcomes, scratches, tier) = if threads <= 1 {
            let mut scratch = Scratch::new();
            let mut tier = TierCounts::default();
            let out = (0..n)
                .map(|i| self.run_one_unchecked(eval, self.queries.point(i), &mut scratch, &mut tier))
                .collect();
            (out, vec![scratch], tier)
        } else {
            self.run_parallel(eval, n, threads)
        };
        let elapsed = start.elapsed();
        #[cfg(feature = "stats")]
        let stats = {
            let mut s = RunStats::default();
            for sc in &scratches {
                s.merge(&sc.stats());
            }
            s.coreset_decided += tier.decided;
            s.coreset_fallthrough += tier.fell;
            s
        };
        let _ = scratches;
        BatchOutcome {
            query: self.query,
            threads,
            elapsed,
            outcomes,
            coreset_decided: tier.decided,
            coreset_fallthrough: tier.fell,
            #[cfg(feature = "stats")]
            stats,
        }
    }

    /// One query through the unvalidated per-query path: the plain
    /// scratch-reusing entry point, or the cascade twin when
    /// [`coreset`](Self::coreset) is on. With the flag off this compiles
    /// down to exactly the pre-cascade call.
    #[inline]
    fn run_one_unchecked<S: NodeShape + Sync>(
        &self,
        eval: &Evaluator<S>,
        q: &[f64],
        scratch: &mut Scratch,
        tier: &mut TierCounts,
    ) -> RunOutcome {
        if self.coreset {
            let (out, path) =
                eval.run_cascade_with_scratch_on(self.engine, q, self.query, self.level_cap, scratch);
            tier.note(path);
            out
        } else {
            eval.run_with_scratch_on(self.engine, q, self.query, self.level_cap, scratch)
        }
    }

    /// [`run`](Self::run) over a runtime-dispatched evaluator.
    pub fn run_any(&self, eval: &AnyEvaluator) -> BatchOutcome {
        match eval {
            AnyEvaluator::Kd(e) => self.run(e),
            AnyEvaluator::Ball(e) => self.run(e),
        }
    }

    /// Fault-contained batch evaluation: every query runs through the
    /// validated, budget-aware entry point inside `catch_unwind`, so one
    /// poisoned query (non-finite point, or a panic in the refinement
    /// loop) yields an `Err` in **its own result slot** while every other
    /// query completes normally — with outcomes bitwise identical to an
    /// all-healthy run.
    ///
    /// A worker whose query panicked discards its [`Scratch`] (the
    /// buffers may hold partially-updated state) and continues the batch
    /// with a fresh one; [`BatchReport::quarantined`] counts how often
    /// that happened. Batch-level defects — mismatched dimensionality,
    /// an invalid query spec — fail the whole call instead.
    pub fn try_run<S: NodeShape + Sync>(
        &self,
        eval: &Evaluator<S>,
    ) -> Result<BatchReport, KarlError> {
        if self.queries.dims() != eval.dims() {
            return Err(KarlError::DimMismatch {
                expected: eval.dims(),
                got: self.queries.dims(),
            });
        }
        error::validate_spec(self.query)?;
        let n = self.queries.len();
        let threads = resolve_threads(self.threads).min(n.max(1));
        let start = Instant::now();
        let (results, scratches, quarantined, tier) = if threads <= 1 {
            let mut scratch = Scratch::new();
            let mut quarantined = 0usize;
            let mut tier = TierCounts::default();
            let out = (0..n)
                .map(|i| self.run_one_contained(eval, i, &mut scratch, &mut quarantined, &mut tier))
                .collect();
            (out, vec![scratch], quarantined, tier)
        } else {
            self.try_run_parallel(eval, n, threads)
        };
        let elapsed = start.elapsed();
        #[cfg(feature = "stats")]
        let stats = {
            let mut s = RunStats::default();
            for sc in &scratches {
                s.merge(&sc.stats());
            }
            s.coreset_decided += tier.decided;
            s.coreset_fallthrough += tier.fell;
            s
        };
        let _ = scratches;
        Ok(BatchReport {
            query: self.query,
            threads,
            elapsed,
            results,
            quarantined,
            coreset_decided: tier.decided,
            coreset_fallthrough: tier.fell,
            #[cfg(feature = "stats")]
            stats,
        })
    }

    /// [`try_run`](Self::try_run) over a runtime-dispatched evaluator.
    pub fn try_run_any(&self, eval: &AnyEvaluator) -> Result<BatchReport, KarlError> {
        match eval {
            AnyEvaluator::Kd(e) => self.try_run(e),
            AnyEvaluator::Ball(e) => self.try_run(e),
        }
    }

    /// Evaluates query `i` with panic containment. On a panic the scratch
    /// is quarantined — replaced wholesale rather than reused — because an
    /// unwind can leave its buffers in a partially-updated state.
    fn run_one_contained<S: NodeShape + Sync>(
        &self,
        eval: &Evaluator<S>,
        i: usize,
        scratch: &mut Scratch,
        quarantined: &mut usize,
        tier: &mut TierCounts,
    ) -> Result<Outcome, KarlError> {
        // AssertUnwindSafe audit: the closure mutates only `scratch`, and
        // the catch arm below discards that scratch instead of reusing it,
        // so no broken invariant can escape the unwind.
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(feature = "fault-inject")]
            match self
                .faults
                .iter()
                .find(|(slot, _)| *slot == i)
                .map(|(_, f)| *f)
            {
                Some(Fault::Panic) => panic!("injected fault at query {i}"),
                Some(Fault::Nan) => {
                    // Fault-planned queries skip the coreset tier: a
                    // planted fault must surface in its own slot, never be
                    // decided away by the tier.
                    let nan_q = vec![f64::NAN; self.queries.dims()];
                    return eval
                        .run_budgeted_with_scratch_on(
                            self.engine,
                            &nan_q,
                            self.query,
                            self.level_cap,
                            &self.budget,
                            scratch,
                        )
                        .map(|o| (o, TierPath::Bypassed));
                }
                None => {}
            }
            if self.coreset {
                eval.run_cascade_budgeted_with_scratch_on(
                    self.engine,
                    self.queries.point(i),
                    self.query,
                    self.level_cap,
                    &self.budget,
                    scratch,
                )
            } else {
                eval.run_budgeted_with_scratch_on(
                    self.engine,
                    self.queries.point(i),
                    self.query,
                    self.level_cap,
                    &self.budget,
                    scratch,
                )
                .map(|o| (o, TierPath::Bypassed))
            }
        }));
        match attempt {
            Ok(result) => result.map(|(o, path)| {
                tier.note(path);
                o
            }),
            Err(payload) => {
                *scratch = Scratch::new();
                *quarantined += 1;
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                Err(KarlError::QueryPanicked { index: i, message })
            }
        }
    }

    fn try_run_parallel<S: NodeShape + Sync>(
        &self,
        eval: &Evaluator<S>,
        n: usize,
        threads: usize,
    ) -> (
        Vec<Result<Outcome, KarlError>>,
        Vec<Scratch>,
        usize,
        TierCounts,
    ) {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = Scratch::new();
                        let mut quarantined = 0usize;
                        let mut tier = TierCounts::default();
                        let mut local: Vec<(usize, Result<Outcome, KarlError>)> =
                            Vec::with_capacity(n / threads + CHUNK);
                        loop {
                            let lo = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                            if lo >= n {
                                break;
                            }
                            let hi = (lo + CHUNK).min(n);
                            for i in lo..hi {
                                let r = self.run_one_contained(
                                    eval,
                                    i,
                                    &mut scratch,
                                    &mut quarantined,
                                    &mut tier,
                                );
                                local.push((i, r));
                            }
                            scratch.reset_with_capacity_cap(SCRATCH_CAP);
                        }
                        (local, scratch, quarantined, tier)
                    })
                })
                .collect();
            let mut out: Vec<Result<Outcome, KarlError>> = Vec::with_capacity(n);
            out.resize_with(n, || Err(KarlError::EmptyPoints));
            let mut scratches = Vec::with_capacity(threads);
            let mut quarantined = 0usize;
            let mut tier = TierCounts::default();
            for w in workers {
                // Worker threads never panic for query-level faults —
                // those are contained per slot — so this join only fails
                // on harness-level bugs.
                let (local, scratch, q, t) = w.join().expect("batch worker panicked");
                for (i, r) in local {
                    out[i] = r;
                }
                scratches.push(scratch);
                quarantined += q;
                tier.add(&t);
            }
            (out, scratches, quarantined, tier)
        })
    }

    fn run_parallel<S: NodeShape + Sync>(
        &self,
        eval: &Evaluator<S>,
        n: usize,
        threads: usize,
    ) -> (Vec<RunOutcome>, Vec<Scratch>, TierCounts) {
        let cursor = AtomicUsize::new(0);
        let queries = self.queries;
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = Scratch::new();
                        let mut tier = TierCounts::default();
                        let mut local: Vec<(usize, RunOutcome)> =
                            Vec::with_capacity(n / threads + CHUNK);
                        loop {
                            let lo = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                            if lo >= n {
                                break;
                            }
                            let hi = (lo + CHUNK).min(n);
                            for i in lo..hi {
                                let out = self.run_one_unchecked(
                                    eval,
                                    queries.point(i),
                                    &mut scratch,
                                    &mut tier,
                                );
                                local.push((i, out));
                            }
                            // Bound the worker's memory between chunks: one
                            // adversarial query must not ratchet allocations
                            // for the rest of the batch. A no-op while every
                            // buffer stays under the cap.
                            scratch.reset_with_capacity_cap(SCRATCH_CAP);
                        }
                        (local, scratch, tier)
                    })
                })
                .collect();
            // Stitch the stolen chunks back into query order; this is what
            // makes the outcome independent of scheduling.
            let mut out = vec![
                RunOutcome {
                    lb: 0.0,
                    ub: 0.0,
                    iterations: 0
                };
                n
            ];
            let mut scratches = Vec::with_capacity(threads);
            let mut tier = TierCounts::default();
            for w in workers {
                let (local, scratch, t) = w.join().expect("batch worker panicked");
                for (i, r) in local {
                    out[i] = r;
                }
                scratches.push(scratch);
                tier.add(&t);
            }
            (out, scratches, tier)
        })
    }
}

/// Per-query bound outcomes of a batch run, plus execution statistics.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    query: Query,
    threads: usize,
    elapsed: Duration,
    outcomes: Vec<RunOutcome>,
    coreset_decided: u64,
    coreset_fallthrough: u64,
    #[cfg(feature = "stats")]
    stats: RunStats,
}

impl BatchOutcome {
    /// Raw bound outcomes, in query order.
    pub fn outcomes(&self) -> &[RunOutcome] {
        &self.outcomes
    }

    /// Run counters summed across all workers (behind the `stats`
    /// feature). Every counter is deterministic at any thread count: each
    /// query's work is a pure function of the query.
    #[cfg(feature = "stats")]
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The query specification the batch answered.
    pub fn query(&self) -> Query {
        self.query
    }

    /// Worker threads the run actually used.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Wall-clock time of the run.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Queries answered per second.
    pub fn throughput(&self) -> f64 {
        self.outcomes.len() as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the batch held no queries.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Total refinement iterations across the batch.
    pub fn total_iterations(&self) -> usize {
        self.outcomes.iter().map(|o| o.iterations).sum()
    }

    /// Queries the coreset front tier decided outright (the full tree was
    /// never touched). Zero when [`QueryBatch::coreset`] is off or the
    /// evaluator carries no tier.
    pub fn coreset_decided(&self) -> u64 {
        self.coreset_decided
    }

    /// Queries that ran the coreset tier but fell through to the full
    /// tree. Zero when [`QueryBatch::coreset`] is off or the evaluator
    /// carries no tier (`Within` queries bypass the tier and count in
    /// neither tally).
    pub fn coreset_fallthrough(&self) -> u64 {
        self.coreset_fallthrough
    }

    /// TKAQ decisions, in query order.
    ///
    /// # Panics
    /// Panics if the batch was not a [`Query::Tkaq`] batch.
    pub fn decisions(&self) -> Vec<bool> {
        let Query::Tkaq { tau } = self.query else {
            panic!("decisions() requires a TKAQ batch, got {:?}", self.query);
        };
        self.outcomes.iter().map(|o| decide_tkaq(o, tau)).collect()
    }

    /// Scalar answers, in query order: the eKAQ estimate, the Within
    /// midpoint, or `1.0`/`0.0` for TKAQ decisions (matching
    /// [`AnyEvaluator::answer`]).
    pub fn estimates(&self) -> Vec<f64> {
        match self.query {
            Query::Tkaq { tau } => self
                .outcomes
                .iter()
                .map(|o| if decide_tkaq(o, tau) { 1.0 } else { 0.0 })
                .collect(),
            Query::Ekaq { .. } => self.outcomes.iter().map(estimate_ekaq).collect(),
            Query::Within { .. } => self.outcomes.iter().map(|o| 0.5 * (o.lb + o.ub)).collect(),
        }
    }

    /// `(midpoint, half_width)` intervals, in query order.
    ///
    /// # Panics
    /// Panics if the batch was not a [`Query::Within`] batch.
    pub fn intervals(&self) -> Vec<(f64, f64)> {
        let Query::Within { .. } = self.query else {
            panic!("intervals() requires a Within batch, got {:?}", self.query);
        };
        self.outcomes
            .iter()
            .map(|o| (0.5 * (o.lb + o.ub), 0.5 * (o.ub - o.lb).max(0.0)))
            .collect()
    }
}

/// Result of a fault-contained [`QueryBatch::try_run`]: one
/// `Result<Outcome, KarlError>` per query, in query order. Healthy
/// queries carry the same bits they would in an all-healthy run; poisoned
/// queries carry the error that took them down.
#[derive(Debug, Clone)]
pub struct BatchReport {
    query: Query,
    threads: usize,
    elapsed: Duration,
    results: Vec<Result<Outcome, KarlError>>,
    quarantined: usize,
    coreset_decided: u64,
    coreset_fallthrough: u64,
    #[cfg(feature = "stats")]
    stats: RunStats,
}

impl BatchReport {
    /// Per-query results, in query order.
    pub fn results(&self) -> &[Result<Outcome, KarlError>] {
        &self.results
    }

    /// The query specification the batch answered.
    pub fn query(&self) -> Query {
        self.query
    }

    /// Worker threads the run actually used.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Wall-clock time of the run.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// How many times a worker discarded its scratch after containing a
    /// panic (at most once per failed query).
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Queries the coreset front tier decided outright (fault-planned
    /// queries never count — they always take the contained per-query
    /// path). Zero when [`QueryBatch::coreset`] is off or the evaluator
    /// carries no tier.
    pub fn coreset_decided(&self) -> u64 {
        self.coreset_decided
    }

    /// Queries that ran the coreset tier but fell through to the full
    /// tree. Zero when [`QueryBatch::coreset`] is off or the evaluator
    /// carries no tier.
    pub fn coreset_fallthrough(&self) -> u64 {
        self.coreset_fallthrough
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the batch held no queries.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Indices of the queries that failed, in query order.
    pub fn failed_indices(&self) -> Vec<usize> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_err().then_some(i))
            .collect()
    }

    /// Number of queries that completed (possibly truncated) successfully.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Whether any query failed.
    pub fn has_failures(&self) -> bool {
        self.results.iter().any(|r| r.is_err())
    }

    /// Number of queries whose budget tripped before termination.
    pub fn truncated_count(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r, Ok(o) if o.is_truncated()))
            .count()
    }

    /// Number of queries that ran to their normal termination — succeeded
    /// and were *not* budget-truncated. `completed_count() +
    /// truncated_count() + failed_indices().len()` always equals
    /// [`len`](Self::len).
    pub fn completed_count(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r, Ok(o) if !o.is_truncated()))
            .count()
    }

    /// Queries answered per second.
    pub fn throughput(&self) -> f64 {
        self.results.len() as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Scalar answer for one successful outcome under this batch's query
    /// spec, bit-for-bit equal to [`BatchOutcome::estimates`] on complete
    /// outcomes. Truncated outcomes degrade to the certified-interval
    /// midpoint (eKAQ / Within) or to the midpoint decision (TKAQ — use
    /// [`Outcome::is_truncated`] to tell an honest decision apart).
    pub fn answer(&self, out: &Outcome) -> f64 {
        match (*out, self.query) {
            (Outcome::Complete(run), Query::Tkaq { tau }) => {
                if decide_tkaq(&run, tau) {
                    1.0
                } else {
                    0.0
                }
            }
            (Outcome::Truncated { lb, ub, .. }, Query::Tkaq { tau }) => {
                if 0.5 * (lb + ub) >= tau {
                    1.0
                } else {
                    0.0
                }
            }
            (Outcome::Complete(run), Query::Ekaq { .. }) => estimate_ekaq(&run),
            (Outcome::Complete(run), Query::Within { .. }) => 0.5 * (run.lb + run.ub),
            (Outcome::Truncated { lb, ub, .. }, Query::Ekaq { .. } | Query::Within { .. }) => {
                0.5 * (lb + ub)
            }
        }
    }

    /// Run counters summed across all workers (behind the `stats`
    /// feature).
    #[cfg(feature = "stats")]
    pub fn stats(&self) -> RunStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::BoundMethod;
    use crate::kernel::Kernel;
    use karl_geom::{Ball, Rect};
    use karl_testkit::rng::{Rng, SeedableRng, StdRng};

    fn clustered_points(n: usize, d: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * d);
        for i in 0..n {
            let center = if i % 2 == 0 { -2.0 } else { 2.0 };
            for _ in 0..d {
                data.push(center + rng.random_range(-0.5..0.5));
            }
        }
        PointSet::new(d, data)
    }

    fn mixed_weights(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let w: f64 = rng.random_range(0.2..2.0);
                if rng.random_bool(0.4) {
                    -w
                } else {
                    w
                }
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_for_every_thread_count() {
        let ps = clustered_points(400, 3, 1);
        let w = mixed_weights(400, 2);
        let eval = Evaluator::<Rect>::build(&ps, &w, Kernel::gaussian(0.6), BoundMethod::Karl, 8);
        let queries = clustered_points(67, 3, 3);
        for query in [
            Query::Tkaq { tau: 0.2 },
            Query::Ekaq { eps: 0.15 },
            Query::Within { tol: 0.05 },
        ] {
            let sequential: Vec<RunOutcome> = queries
                .iter()
                .map(|q| eval.run_query(q, query, None))
                .collect();
            for threads in [1, 2, 4, 8] {
                let batch = QueryBatch::new(&queries, query).threads(threads).run(&eval);
                assert_eq!(batch.outcomes(), &sequential[..], "{query:?} x{threads}");
                assert!(batch.threads() <= threads);
            }
        }
    }

    #[cfg(feature = "stats")]
    #[test]
    fn batch_stats_aggregate_across_workers() {
        let ps = clustered_points(300, 3, 25);
        let w = mixed_weights(300, 26);
        let eval = Evaluator::<Rect>::build(&ps, &w, Kernel::gaussian(0.6), BoundMethod::Karl, 8);
        let base = clustered_points(8, 3, 27);
        let queries = PointSet::new(
            3,
            (0..32).flat_map(|i| base.point(i % 8).to_vec()).collect(),
        );
        let query = Query::Ekaq { eps: 0.1 };
        let seq = QueryBatch::new(&queries, query).threads(1).run(&eval);
        let par = QueryBatch::new(&queries, query).threads(4).run(&eval);
        assert_eq!(
            seq.stats().nodes_refined,
            seq.total_iterations() as u64,
            "nodes_refined counts heap pops"
        );
        assert!(seq.stats().envelopes_built > 0);
        // Every counter is a pure function of the queries, so summing the
        // workers' shares reproduces the sequential totals.
        assert_eq!(seq.stats().nodes_refined, par.stats().nodes_refined);
        assert_eq!(seq.stats().envelopes_built, par.stats().envelopes_built);
        assert_eq!(seq.stats().curve_value_calls, par.stats().curve_value_calls);
    }

    #[test]
    fn pointer_engine_batch_matches_frozen_default() {
        let ps = clustered_points(240, 3, 30);
        let w = mixed_weights(240, 31);
        let eval = Evaluator::<Rect>::build(&ps, &w, Kernel::gaussian(0.5), BoundMethod::Karl, 8);
        let queries = clustered_points(40, 3, 32);
        let query = Query::Ekaq { eps: 0.1 };
        let frozen = QueryBatch::new(&queries, query).threads(2).run(&eval);
        let pointer = QueryBatch::new(&queries, query)
            .engine(Engine::Pointer)
            .threads(2)
            .run(&eval);
        assert_eq!(frozen.outcomes(), pointer.outcomes());
    }

    #[test]
    fn batch_works_over_ball_trees_and_any_evaluator() {
        let ps = clustered_points(200, 2, 4);
        let w = vec![1.0; 200];
        let kernel = Kernel::gaussian(0.5);
        let ball = Evaluator::<Ball>::build(&ps, &w, kernel, BoundMethod::Karl, 16);
        let queries = clustered_points(20, 2, 5);
        let batch = QueryBatch::new(&queries, Query::Ekaq { eps: 0.1 });
        let direct = batch.threads(3).run(&ball);
        let any = AnyEvaluator::Ball(ball);
        let dispatched = QueryBatch::new(&queries, Query::Ekaq { eps: 0.1 })
            .threads(3)
            .run_any(&any);
        assert_eq!(direct.outcomes(), dispatched.outcomes());
        for (est, q) in dispatched.estimates().iter().zip(queries.iter()) {
            assert_eq!(*est, any.ekaq(q, 0.1));
        }
    }

    #[test]
    fn decisions_match_scalar_tkaq() {
        let ps = clustered_points(150, 2, 6);
        let w = mixed_weights(150, 7);
        let eval = Evaluator::<Rect>::build(&ps, &w, Kernel::gaussian(0.8), BoundMethod::Karl, 8);
        let queries = clustered_points(30, 2, 8);
        let out = QueryBatch::new(&queries, Query::Tkaq { tau: 0.1 })
            .threads(4)
            .run(&eval);
        let expect: Vec<bool> = queries.iter().map(|q| eval.tkaq(q, 0.1)).collect();
        assert_eq!(out.decisions(), expect);
        assert_eq!(out.len(), 30);
        assert!(out.total_iterations() > 0);
    }

    #[test]
    fn intervals_respect_the_tolerance() {
        let ps = clustered_points(200, 2, 9);
        let w = mixed_weights(200, 10);
        let eval = Evaluator::<Rect>::build(&ps, &w, Kernel::gaussian(0.9), BoundMethod::Karl, 8);
        let queries = clustered_points(15, 2, 11);
        let out = QueryBatch::new(&queries, Query::Within { tol: 0.02 })
            .threads(2)
            .run(&eval);
        for (mid, half) in out.intervals() {
            assert!(half <= 0.01 + 1e-12);
            assert!(mid.is_finite());
        }
    }

    #[test]
    fn level_cap_is_forwarded() {
        let ps = clustered_points(128, 2, 12);
        let w = vec![1.0; 128];
        let eval = Evaluator::<Rect>::build(&ps, &w, Kernel::gaussian(0.7), BoundMethod::Karl, 1);
        let queries = clustered_points(10, 2, 13);
        let out = QueryBatch::new(&queries, Query::Ekaq { eps: 0.1 })
            .level_cap(2)
            .threads(2)
            .run(&eval);
        let expect: Vec<RunOutcome> = queries
            .iter()
            .map(|q| eval.run_query(q, Query::Ekaq { eps: 0.1 }, Some(2)))
            .collect();
        assert_eq!(out.outcomes(), &expect[..]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let ps = clustered_points(10, 2, 14);
        let eval =
            Evaluator::<Rect>::build(&ps, &[1.0; 10], Kernel::gaussian(1.0), BoundMethod::Karl, 4);
        let queries = PointSet::empty(2);
        let out = QueryBatch::new(&queries, Query::Tkaq { tau: 0.5 })
            .threads(4)
            .run(&eval);
        assert!(out.is_empty());
        assert_eq!(out.decisions(), Vec::<bool>::new());
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics_at_batch_entry() {
        let ps = clustered_points(10, 3, 15);
        let eval =
            Evaluator::<Rect>::build(&ps, &[1.0; 10], Kernel::gaussian(1.0), BoundMethod::Karl, 4);
        let queries = clustered_points(5, 2, 16);
        QueryBatch::new(&queries, Query::Tkaq { tau: 0.5 }).run(&eval);
    }

    #[test]
    #[should_panic]
    fn non_positive_eps_panics_at_construction() {
        let queries = clustered_points(5, 2, 17);
        QueryBatch::new(&queries, Query::Ekaq { eps: 0.0 });
    }

    #[test]
    fn explicit_thread_request_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }
}
