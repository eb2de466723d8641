//! Serve-loop fault quarantine under *injected* faults (feature
//! `fault-inject`): the server's fault plan (`ServeConfig::faults`)
//! addresses **dispatch ordinals** — "the k-th request handed to the
//! engine" — which the serve loop maps onto each micro-batch's slots, so
//! a panic can be aimed at a request in the middle of a served stream.
//! The poisoned request must get a typed error line; every other request
//! keeps bits identical to an uninjected run of the same script, at 1, 2,
//! 4 and 8 threads.

#![cfg(feature = "fault-inject")]

use std::collections::BTreeMap;
use std::io::Cursor;

use karl::core::{parse_json, AnyEvaluator, BoundMethod, Fault, Json, Kernel, ServeConfig, Server};
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

fn evaluator() -> AnyEvaluator {
    // Injected panics are expected; silence the default backtrace spew.
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| std::panic::set_hook(Box::new(|_| {})));
    let ps = clustered(300, 2, 5);
    let n = ps.len();
    let w = vec![1.0 / n as f64; n];
    use karl::core::IndexKind;
    AnyEvaluator::build(
        IndexKind::Kd,
        &ps,
        &w,
        Kernel::gaussian(0.8),
        BoundMethod::Karl,
        16,
    )
}

fn script() -> (String, Vec<u64>) {
    let mut s = ScriptBuilder::new();
    let mut rng = StdRng::seed_from_u64(11);
    // batch_max 4 below → micro-batches [0..4), [4..8), drain [8..10).
    let ids = s.ekaq_burst(10, 2, 0.05, -2.5..2.5, &mut rng);
    s.shutdown();
    (s.build(), ids)
}

fn run(
    eval: &AnyEvaluator,
    threads: usize,
    faults: &[(usize, Fault)],
    script: &str,
) -> (String, u64) {
    let cfg = ServeConfig {
        batch_max: 4,
        threads: Some(threads),
        faults: faults.to_vec(),
        ..ServeConfig::default()
    };
    let mut server = Server::new(eval, cfg).unwrap();
    let mut out = Vec::new();
    server
        .run(Cursor::new(script.as_bytes().to_vec()), &mut out, std::io::sink())
        .unwrap();
    let faulted = server.stats().faulted;
    (String::from_utf8(out).unwrap(), faulted)
}

fn answers(transcript: &str) -> BTreeMap<u64, (String, Option<u64>)> {
    let mut map = BTreeMap::new();
    for line in transcript.lines() {
        let v = parse_json(line).expect("well-formed response");
        let Some(id) = v.get("id").and_then(Json::as_f64) else {
            continue;
        };
        let status = v.get("status").and_then(Json::as_str).unwrap().to_string();
        let bits = v.get("answer").and_then(Json::as_f64).map(f64::to_bits);
        assert!(map.insert(id as u64, (status, bits)).is_none(), "dup id {id}");
    }
    map
}

/// A panic aimed at dispatch ordinal 5 — the second request of the
/// *second* micro-batch — poisons exactly that request; its batch
/// neighbors and every other micro-batch keep the uninjected bits.
#[test]
fn injected_panic_hits_one_dispatch_ordinal_and_nothing_else() {
    let eval = evaluator();
    let (script, ids) = script();
    let baseline = answers(&run(&eval, 2, &[], &script).0);

    for threads in [1usize, 2, 4, 8] {
        let (transcript, faulted) = run(&eval, threads, &[(5, Fault::Panic)], &script);
        assert_eq!(faulted, 1, "{threads} threads");
        let got = answers(&transcript);
        for (slot, id) in ids.iter().enumerate() {
            if slot == 5 {
                assert_eq!(got[id].0, "error", "{threads} threads");
                assert!(
                    transcript.contains("panicked"),
                    "typed panic error expected: {transcript}"
                );
            } else {
                assert_eq!(
                    got[id], baseline[id],
                    "slot {slot} at {threads} threads must keep its bits"
                );
            }
        }
    }
}

/// Plan ordinals beyond every dispatched request never fire.
#[test]
fn plan_indices_beyond_the_stream_never_fire() {
    let eval = evaluator();
    let (script, _ids) = script();
    let (transcript, faulted) = run(&eval, 2, &[(99, Fault::Panic)], &script);
    assert_eq!(faulted, 0);
    assert!(!transcript.contains("\"status\":\"error\""));
}
