//! End-to-end contract of the online serve loop (`karl_core::serve`):
//!
//! * a fixed request script with a fixed queue capacity produces the same
//!   admitted/shed/rejected partition and a **byte-identical** response
//!   transcript at 1/2/4/8 worker threads,
//! * answers for admitted, un-shed requests are bitwise identical to an
//!   offline [`QueryBatch`] over the same queries,
//! * a poisoned request (NaN coordinates on the wire) gets a typed error
//!   line while its micro-batch neighbors keep their exact bits,
//! * graceful drain: every admitted request is answered exactly once,
//!   whether the script ends in `shutdown` or plain EOF,
//! * an already-expired per-request deadline (`deadline_ms: 0`) answers
//!   from the certified root interval with zero refinement work,
//! * malformed lines get typed protocol errors without disturbing their
//!   neighbors, and invalid configurations are rejected up front.

use std::collections::BTreeMap;
use std::io::Cursor;

use karl::core::{
    parse_json, AnyEvaluator, BoundMethod, Budget, IndexKind, Json, Kernel, Query, QueryBatch,
    ServeConfig, ServeStats, Server,
};
use karl::geom::PointSet;
use karl_testkit::rng::{Rng, SeedableRng, StdRng};
use karl_testkit::serve_script::ScriptBuilder;

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

fn evaluator(seed: u64) -> AnyEvaluator {
    let ps = clustered(400, 2, seed);
    let n = ps.len();
    let w = vec![1.0 / n as f64; n];
    AnyEvaluator::build(
        IndexKind::Kd,
        &ps,
        &w,
        Kernel::gaussian(0.8),
        BoundMethod::Karl,
        16,
    )
}

/// Runs `script` through a fresh server, returning the response
/// transcript, the final counters, and whether `shutdown` ended the loop.
fn run_script(eval: &AnyEvaluator, cfg: ServeConfig, script: &str) -> (String, ServeStats, bool) {
    let mut server = Server::new(eval, cfg).expect("valid config");
    let mut out = Vec::new();
    let mut log = Vec::new();
    server
        .run(Cursor::new(script.as_bytes().to_vec()), &mut out, &mut log)
        .expect("in-memory transport cannot fail");
    let stats = server.stats().clone();
    let shutdown = server.shutdown_requested();
    (String::from_utf8(out).expect("utf-8 transcript"), stats, shutdown)
}

/// Parses every transcript line that carries an `id` into `id ->
/// (status, answer-bits)` — duplicate ids are a drain violation, so they
/// panic here.
fn responses_by_id(transcript: &str) -> BTreeMap<u64, (String, Option<u64>)> {
    let mut map = BTreeMap::new();
    for line in transcript.lines().filter(|l| !l.trim().is_empty()) {
        let v = parse_json(line).unwrap_or_else(|e| panic!("bad response line {line:?}: {e}"));
        let Some(id) = v.get("id").and_then(Json::as_f64) else {
            continue;
        };
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no status in {line:?}"))
            .to_string();
        let answer = v.get("answer").and_then(Json::as_f64).map(f64::to_bits);
        let prev = map.insert(id as u64, (status, answer));
        assert!(prev.is_none(), "id {id} answered twice");
    }
    map
}

fn burst_config(threads: usize) -> ServeConfig {
    ServeConfig {
        queue_cap: 6,
        shed_at: 4,
        // Larger than the queue: dispatch never triggers on its own, so
        // the admission script alone decides who is shed and who is
        // rejected — the overflow burst is deterministic by construction.
        batch_max: 100,
        threads: Some(threads),
        budget: Budget::unlimited(),
        ..ServeConfig::default()
    }
}

/// Eight requests against capacity 6 / shed watermark 4: 1–4 run
/// normally, 5–6 are shed, 7–8 are rejected. The partition and the full
/// transcript must not depend on the worker thread count.
#[test]
fn overload_partition_and_transcript_are_identical_at_any_thread_count() {
    let eval = evaluator(42);
    let mut script = ScriptBuilder::new();
    let mut rng = StdRng::seed_from_u64(9);
    let ids = script.ekaq_burst(8, 2, 0.05, -2.5..2.5, &mut rng);
    script.flush();
    script.stats();
    script.shutdown();
    let script = script.build();

    let mut transcripts = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (transcript, stats, shutdown) = run_script(&eval, burst_config(threads), &script);
        assert!(shutdown);
        assert_eq!(
            (stats.queries, stats.admitted, stats.shed, stats.rejected),
            (8, 6, 2, 2),
            "admission partition at {threads} threads"
        );
        assert_eq!(stats.queue_depth_max, 6);
        let by_id = responses_by_id(&transcript);
        for &id in &ids[0..4] {
            assert_eq!(by_id[&id].0, "ok", "id {id} at {threads} threads");
        }
        for &id in &ids[4..6] {
            let status = &by_id[&id].0;
            // A shed request may still complete: the root interval can
            // decide an eKAQ outright. Either way it never runs refinement.
            assert!(
                status == "shed" || status == "ok",
                "id {id} at {threads} threads: {status}"
            );
        }
        for &id in &ids[6..8] {
            assert_eq!(by_id[&id].0, "rejected", "id {id} at {threads} threads");
        }
        transcripts.push(transcript);
    }
    // The `stats` response embeds the resolved worker-thread count — the
    // one transcript field that reflects configuration, not the script.
    // Every other byte (answers, intervals, rejections, order) is pinned.
    let strip_stats = |t: &str| {
        t.lines()
            .filter(|l| !l.contains("\"status\":\"stats\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for t in &transcripts[1..] {
        assert_eq!(
            strip_stats(t).as_bytes(),
            strip_stats(&transcripts[0]).as_bytes(),
            "transcript must be byte-identical across thread counts"
        );
    }
    // The `stats` response is part of the transcript, so the counters in
    // it are pinned too.
    assert!(transcripts[0].contains("\"admitted\":6,\"rejected\":2,\"shed\":2"));
}

/// Served answers carry the exact bits of an offline `QueryBatch` over
/// the same query points — serving changes scheduling, never answers.
#[test]
fn served_answers_are_bitwise_identical_to_offline_batch() {
    let eval = evaluator(43);
    let mut rng = StdRng::seed_from_u64(17);
    let queries: Vec<Vec<f64>> = (0..12)
        .map(|_| (0..2).map(|_| rng.random_range(-2.5..2.5)).collect())
        .collect();

    let mut script = ScriptBuilder::new();
    let ids: Vec<u64> = queries.iter().map(|q| script.ekaq(0.05, q)).collect();
    script.shutdown();
    let cfg = ServeConfig {
        batch_max: 5, // several micro-batches plus a drain remainder
        threads: Some(2),
        ..ServeConfig::default()
    };
    let (transcript, stats, _) = run_script(&eval, cfg, &script.build());
    assert_eq!(stats.batches, 3, "12 requests at batch_max 5 → 5+5+2");
    let by_id = responses_by_id(&transcript);

    let flat: Vec<f64> = queries.iter().flatten().copied().collect();
    let offline_queries = PointSet::new(2, flat);
    let offline = QueryBatch::new(&offline_queries, Query::Ekaq { eps: 0.05 })
        .threads(4) // any thread count: the engine is bitwise deterministic
        .try_run_any(&eval)
        .expect("offline batch");
    for (slot, &id) in ids.iter().enumerate() {
        let outcome = offline.results()[slot].as_ref().expect("healthy query");
        let expected = offline.answer(outcome).to_bits();
        let (status, answer) = &by_id[&id];
        assert_eq!(status, "ok");
        assert_eq!(
            answer.expect("ok carries an answer"),
            expected,
            "served id {id} (slot {slot}) must match offline bits"
        );
    }
}

/// One NaN request in the middle of a micro-batch: it gets a typed error
/// line, everyone else keeps the exact bits of a fully-healthy run.
#[test]
fn poisoned_request_is_contained_and_neighbors_keep_their_bits() {
    let eval = evaluator(44);
    let mut rng = StdRng::seed_from_u64(23);
    let healthy: Vec<Vec<f64>> = (0..6)
        .map(|_| (0..2).map(|_| rng.random_range(-2.5..2.5)).collect())
        .collect();

    // Poisoned run: healthy[0..3], NaN, healthy[3..6] — one micro-batch.
    let mut script = ScriptBuilder::new();
    let mut ids = Vec::new();
    for q in &healthy[0..3] {
        ids.push(script.ekaq(0.05, q));
    }
    let bad = script.ekaq(0.05, &[f64::NAN, 0.5]);
    for q in &healthy[3..6] {
        ids.push(script.ekaq(0.05, q));
    }
    script.shutdown();
    let cfg = ServeConfig {
        threads: Some(4),
        ..ServeConfig::default()
    };
    let (transcript, stats, _) = run_script(&eval, cfg, &script.build());
    assert_eq!(stats.faulted, 1);
    assert_eq!(stats.completed, 6);
    let by_id = responses_by_id(&transcript);
    assert_eq!(by_id[&bad].0, "error");
    let error_line = transcript
        .lines()
        .find(|l| l.contains("\"status\":\"error\""))
        .expect("typed error line");
    assert!(
        error_line.contains("non-finite"),
        "error should name the defect: {error_line}"
    );

    // Healthy-only run: same six queries, no poison.
    let mut clean = ScriptBuilder::new();
    let clean_ids: Vec<u64> = healthy.iter().map(|q| clean.ekaq(0.05, q)).collect();
    clean.shutdown();
    let cfg = ServeConfig {
        threads: Some(4),
        ..ServeConfig::default()
    };
    let (clean_transcript, clean_stats, _) = run_script(&eval, cfg, &clean.build());
    assert_eq!(clean_stats.faulted, 0);
    let clean_by_id = responses_by_id(&clean_transcript);
    for (i, (&id, &cid)) in ids.iter().zip(clean_ids.iter()).enumerate() {
        assert_eq!(
            by_id[&id].1, clean_by_id[&cid].1,
            "healthy query {i} must keep its bits next to the poisoned slot"
        );
    }
}

/// Every admitted request is answered exactly once — on explicit
/// `shutdown` (which reports how many it drained) and on plain EOF.
#[test]
fn drain_answers_every_admitted_request_exactly_once() {
    let eval = evaluator(45);
    for end_with_shutdown in [true, false] {
        let mut script = ScriptBuilder::new();
        let mut rng = StdRng::seed_from_u64(31);
        // 7 requests, batch_max 3: two dispatched batches and one
        // remainder that only the drain path can answer.
        let ids = script.ekaq_burst(7, 2, 0.05, -2.5..2.5, &mut rng);
        if end_with_shutdown {
            script.shutdown();
        }
        let cfg = ServeConfig {
            batch_max: 3,
            threads: Some(2),
            ..ServeConfig::default()
        };
        let (transcript, stats, shutdown) = run_script(&eval, cfg, &script.build());
        assert_eq!(shutdown, end_with_shutdown);
        assert_eq!(stats.admitted, 7);
        assert_eq!(stats.batches, 3);
        let by_id = responses_by_id(&transcript);
        for &id in &ids {
            assert!(by_id.contains_key(&id), "id {id} lost in drain");
        }
        if end_with_shutdown {
            // The remainder (7 = 3+3+1) was still pending at shutdown.
            assert!(transcript.contains("\"status\":\"shutdown\",\"admitted\":7,\"drained\":1"));
        }
    }
}

/// `deadline_ms: 0` can never be met, so the response must be a
/// `truncated`/`deadline` line answering from the certified root
/// interval — bitwise the interval a zero-node budget reports offline.
#[test]
fn expired_deadline_answers_from_the_root_interval() {
    let eval = evaluator(46);
    let q = [0.25, -0.75];
    let mut script = ScriptBuilder::new();
    let id = script.ekaq_deadline(0.05, &q, 0.0);
    script.shutdown();
    let (transcript, stats, _) =
        run_script(&eval, ServeConfig::default(), &script.build());
    assert_eq!(stats.truncated, 1);
    let line = transcript
        .lines()
        .find(|l| l.contains(&format!("\"id\":{id},")))
        .expect("response line");
    let v = parse_json(line).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("truncated"));
    assert_eq!(v.get("reason").and_then(Json::as_str), Some("deadline"));

    // Offline zero-work run over the same query: the served lb/ub must
    // carry exactly its bits (zero refinement happened while queued).
    let offline_queries = PointSet::new(2, q.to_vec());
    let offline = QueryBatch::new(&offline_queries, Query::Ekaq { eps: 0.05 })
        .budget(Budget::unlimited().max_nodes(0))
        .try_run_any(&eval)
        .expect("offline run");
    let outcome = offline.results()[0].as_ref().expect("healthy query");
    assert!(outcome.is_truncated(), "zero-node budget must truncate");
    for (key, expected) in [("lb", outcome.lb()), ("ub", outcome.ub())] {
        let got = v.get(key).and_then(Json::as_f64).expect(key);
        assert_eq!(got.to_bits(), expected.to_bits(), "{key} bits");
    }
    assert_eq!(
        v.get("answer").and_then(Json::as_f64).expect("answer").to_bits(),
        offline.answer(outcome).to_bits()
    );
}

/// Malformed lines are per-line protocol errors: typed, counted, and
/// invisible to the healthy requests around them.
#[test]
fn protocol_errors_are_typed_and_contained() {
    let eval = evaluator(47);
    let mut script = ScriptBuilder::new();
    let good_before = script.ekaq(0.05, &[0.1, 0.2]);
    script.raw("this is not json");
    script.raw("{\"id\":7,\"op\":\"warp\",\"q\":[0,0]}");
    script.raw("{\"id\":8,\"op\":\"ekaq\",\"eps\":0.05,\"q\":[1,2,3]}"); // wrong dims
    script.raw("{\"op\":\"ekaq\",\"eps\":0.05,\"q\":[0,0]}"); // missing id
    script.raw("# a comment line");
    script.raw("");
    let good_after = script.ekaq(0.05, &[0.3, -0.4]);
    script.shutdown();
    let (transcript, stats, _) =
        run_script(&eval, ServeConfig::default(), &script.build());
    assert_eq!(stats.protocol_errors, 4);
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.faulted, 0);
    let by_id = responses_by_id(&transcript);
    assert_eq!(by_id[&good_before].0, "ok");
    assert_eq!(by_id[&good_after].0, "ok");
    assert_eq!(by_id[&7].0, "error");
    assert_eq!(by_id[&8].0, "error");
    assert!(transcript.contains("unknown op"));
    assert!(transcript.contains("dimensionality mismatch") || transcript.contains("dims"));
}

/// Nonsense configurations are rejected at construction with a typed
/// `InvalidConfig`, not discovered mid-request-loop.
#[test]
fn invalid_configs_are_rejected_up_front() {
    let eval = evaluator(48);
    for (cfg, needle) in [
        (
            ServeConfig {
                queue_cap: 0,
                ..ServeConfig::default()
            },
            "queue capacity",
        ),
        (
            ServeConfig {
                batch_max: 0,
                ..ServeConfig::default()
            },
            "micro-batch",
        ),
        (
            ServeConfig {
                threads: Some(0),
                ..ServeConfig::default()
            },
            "thread count",
        ),
    ] {
        let err = Server::new(&eval, cfg).expect_err("must reject").to_string();
        assert!(err.contains("invalid serve config"), "{err}");
        assert!(err.contains(needle), "{err}");
    }
}
