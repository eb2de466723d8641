//! Batch fault containment under injected faults (feature `fault-inject`):
//! with panics / NaN queries planned at chosen slots, `try_run` must
//! return `Err` for exactly those queries — with the right error variant —
//! and **bitwise identical** `Ok` outcomes for every other query, at 1, 2,
//! 4 and 8 threads. A panicking query also quarantines the worker's
//! scratch (it is discarded, never reused). A plan belongs to its batch,
//! so these tests run in parallel without seeing each other's faults.
#![cfg(feature = "fault-inject")]

use std::sync::Barrier;

use karl::core::{
    BoundMethod, Coreset, Evaluator, Fault, KarlError, Kernel, Outcome, Query, QueryBatch,
};
use karl::geom::{PointSet, Rect};
use karl_testkit::rng::{Rng, SeedableRng, StdRng};

fn clustered(n: usize, d: usize, seed: u64) -> PointSet {
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

fn setup() -> (Evaluator<Rect>, PointSet) {
    // Injected panics are expected here by the dozen; silence the default
    // per-panic backtrace spew once for the whole binary.
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| std::panic::set_hook(Box::new(|_| {})));
    let ps = clustered(400, 3, 1);
    let w: Vec<f64> = (0..400).map(|i| 0.3 + (i % 5) as f64 * 0.2).collect();
    let eval = Evaluator::<Rect>::build(&ps, &w, Kernel::gaussian(0.6), BoundMethod::Karl, 8);
    let queries = clustered(67, 3, 2);
    (eval, queries)
}

fn healthy_outcomes(eval: &Evaluator<Rect>, queries: &PointSet) -> Vec<Outcome> {
    QueryBatch::new(queries, Query::Ekaq { eps: 0.1 })
        .threads(1)
        .try_run(eval)
        .unwrap()
        .results()
        .iter()
        .map(|r| *r.as_ref().unwrap())
        .collect()
}

#[test]
fn injected_faults_poison_exactly_their_own_slots() {
    let (eval, queries) = setup();
    let baseline = healthy_outcomes(&eval, &queries);
    let plan = [(3usize, Fault::Panic), (17, Fault::Nan), (40, Fault::Panic)];
    for threads in [1, 2, 4, 8] {
        let report = QueryBatch::new(&queries, Query::Ekaq { eps: 0.1 })
            .threads(threads)
            .faults(&plan)
            .try_run(&eval)
            .unwrap();
        assert_eq!(report.len(), queries.len());
        assert_eq!(report.failed_indices(), vec![3, 17, 40], "x{threads}");
        assert_eq!(report.ok_count(), queries.len() - 3);
        assert!(report.has_failures());
        // Exactly the two panicking queries quarantined a scratch.
        assert_eq!(report.quarantined(), 2, "x{threads}");
        for (i, result) in report.results().iter().enumerate() {
            match result {
                Ok(out) => {
                    // Healthy slots carry the same bits as an all-healthy
                    // run — faults must not perturb their neighbours.
                    let b = &baseline[i];
                    assert_eq!(out.lb().to_bits(), b.lb().to_bits(), "query {i} x{threads}");
                    assert_eq!(out.ub().to_bits(), b.ub().to_bits(), "query {i} x{threads}");
                }
                Err(KarlError::QueryPanicked { index, message }) => {
                    assert_eq!(*index, i);
                    assert!(matches!(i, 3 | 40), "unexpected panic slot {i}");
                    assert!(message.contains("injected fault"), "{message}");
                }
                Err(KarlError::NonFiniteQuery { value, .. }) => {
                    assert_eq!(i, 17);
                    assert!(value.is_nan());
                }
                Err(e) => panic!("query {i}: unexpected error {e}"),
            }
        }
    }
}

#[test]
fn a_plan_stays_with_its_batch() {
    let (eval, queries) = setup();
    let spec = QueryBatch::new(&queries, Query::Tkaq { tau: 0.5 }).threads(2);
    let report = spec
        .clone()
        .faults(&[(0, Fault::Panic)])
        .try_run(&eval)
        .unwrap();
    assert_eq!(report.failed_indices(), vec![0]);
    // The batch the plan was cloned from carries none of it, and slots
    // beyond the batch never fire.
    let report = spec.try_run(&eval).unwrap();
    assert!(!report.has_failures());
    assert_eq!(report.quarantined(), 0);
    let report = QueryBatch::new(&queries, Query::Tkaq { tau: 0.5 })
        .faults(&[(queries.len(), Fault::Panic)])
        .try_run(&eval)
        .unwrap();
    assert!(!report.has_failures());
}

/// Two batches on two threads at once, one of them planned to fail in
/// every slot: the healthy batch must see none of those faults and keep
/// every bit of a solo run. Each round starts both batches behind a
/// barrier so their runs overlap.
#[test]
fn concurrent_healthy_batch_never_sees_another_batchs_plan() {
    let (eval, queries) = setup();
    let query = Query::Ekaq { eps: 0.1 };
    let baseline = healthy_outcomes(&eval, &queries);
    let plan: Vec<(usize, Fault)> = (0..queries.len()).map(|i| (i, Fault::Panic)).collect();
    for round in 0..20 {
        let start = Barrier::new(2);
        let report = std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                let faulted = QueryBatch::new(&queries, query)
                    .threads(1)
                    .faults(&plan)
                    .try_run(&eval)
                    .unwrap();
                assert_eq!(faulted.ok_count(), 0);
            });
            start.wait();
            QueryBatch::new(&queries, query)
                .threads(1)
                .try_run(&eval)
                .unwrap()
        });
        assert_eq!(
            report.failed_indices(),
            Vec::<usize>::new(),
            "round {round}"
        );
        assert_eq!(report.quarantined(), 0, "round {round}");
        for (i, r) in report.results().iter().enumerate() {
            let (out, b) = (r.as_ref().unwrap(), &baseline[i]);
            assert_eq!(
                out.lb().to_bits(),
                b.lb().to_bits(),
                "round {round} query {i}"
            );
            assert_eq!(
                out.ub().to_bits(),
                b.ub().to_bits(),
                "round {round} query {i}"
            );
        }
    }
}

#[test]
fn all_faulted_batch_still_completes() {
    let (eval, queries) = setup();
    let plan: Vec<(usize, Fault)> = (0..queries.len()).map(|i| (i, Fault::Panic)).collect();
    for threads in [1, 4] {
        let report = QueryBatch::new(&queries, Query::Ekaq { eps: 0.1 })
            .threads(threads)
            .faults(&plan)
            .try_run(&eval)
            .unwrap();
        assert_eq!(report.ok_count(), 0);
        assert_eq!(report.quarantined(), queries.len());
        assert_eq!(report.failed_indices().len(), queries.len());
    }
}

#[test]
fn cascade_path_poisons_exactly_the_planted_slots() {
    // With the coreset cascade enabled, planted faults must still surface
    // in exactly their own slots (fault-planned queries skip the tier and
    // fail through the plain budgeted path), and every healthy slot must
    // carry the same bits as a healthy *cascade* run at any thread count.
    let (eval, queries) = setup();
    let ps = clustered(400, 3, 1);
    let w: Vec<f64> = (0..400).map(|i| 0.3 + (i % 5) as f64 * 0.2).collect();
    let coreset = Coreset::try_build(&ps, &w, Kernel::gaussian(0.6), 0.05).unwrap();
    let cascade = eval.with_coreset_tier(&coreset, 8).unwrap();
    let query = Query::Ekaq { eps: 0.1 };
    let healthy: Vec<Outcome> = QueryBatch::new(&queries, query)
        .threads(1)
        .coreset(true)
        .try_run(&cascade)
        .unwrap()
        .results()
        .iter()
        .map(|r| *r.as_ref().unwrap())
        .collect();
    let plan = [(3usize, Fault::Panic), (17, Fault::Nan), (40, Fault::Panic)];
    for threads in [1, 2, 4, 8] {
        let report = QueryBatch::new(&queries, query)
            .threads(threads)
            .coreset(true)
            .faults(&plan)
            .try_run(&cascade)
            .unwrap();
        assert_eq!(report.failed_indices(), vec![3, 17, 40], "x{threads}");
        assert_eq!(report.quarantined(), 2, "x{threads}");
        // Tier accounting excludes the three fault-planned (bypassed)
        // queries and is identical at every thread count.
        assert_eq!(
            report.coreset_decided() + report.coreset_fallthrough(),
            (queries.len() - plan.len()) as u64,
            "x{threads}"
        );
        for (i, result) in report.results().iter().enumerate() {
            match result {
                Ok(out) => {
                    let b = &healthy[i];
                    assert_eq!(out.lb().to_bits(), b.lb().to_bits(), "query {i} x{threads}");
                    assert_eq!(out.ub().to_bits(), b.ub().to_bits(), "query {i} x{threads}");
                }
                Err(KarlError::QueryPanicked { index, message }) => {
                    assert_eq!(*index, i);
                    assert!(matches!(i, 3 | 40), "unexpected panic slot {i}");
                    assert!(message.contains("injected fault"), "{message}");
                }
                Err(KarlError::NonFiniteQuery { value, .. }) => {
                    assert_eq!(i, 17);
                    assert!(value.is_nan());
                }
                Err(e) => panic!("query {i}: unexpected error {e}"),
            }
        }
    }
}
