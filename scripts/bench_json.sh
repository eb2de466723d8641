#!/usr/bin/env bash
# Runs the perf benches and records the merged results as JSON.
#
# Produces BENCH_PR10.json at the repo root with five sections plus host
# metadata (available_parallelism, uname), so numbers from different
# machines are interpretable:
#
#   * serve_load — the online serving loop driven over an in-memory
#     transport: steady-state requests/s and p50/p99
#     admission-to-response latency at 1/2/4/8 worker threads, plus an
#     overload run whose admit/shed/reject partition is deterministic
#     admission arithmetic;
#   * throughput_batch — end-to-end queries/s: sequential pointer engine
#     (baseline) vs the default frozen engine, scratch reuse, and
#     QueryBatch at 1/2/4/8 worker threads (eKAQ and TKAQ workloads),
#     plus the coreset_cascade section: tier-1 decided fraction and
#     end-to-end speedup of the certified coreset cascade vs the
#     same-process full-tree control on a quantized skewed-τ level-set
#     grid of TKAQ queries;
#   * frozen_bounds — per-node bound-kernel throughput (bounds/s),
#     pointer vs frozen, kd and ball families, SOTA and KARL methods,
#     plus the envelope_micro section: envelopes/s of the envelope
#     builder on intervals harvested from the workload;
#   * cold_start — process cold-start cost at three dataset sizes:
#     rebuilding the evaluator from raw points vs loading the persisted
#     index file (one bulk read + checksum walk, zero per-node work),
#     with the loaded answers re-verified bitwise identical each run;
#   * simd_kernels — runtime-dispatched vector backend vs the forced
#     scalar backend as same-run controls (one process flips the
#     backend between timings, probe values asserted bitwise identical
#     first): bound-kernel and leaf-aggregate rows at d=8 and d=32,
#     with the detected ISA recorded next to every ratio.
#
# Usage: scripts/bench_json.sh [output.json]
# Sizing overrides: KARL_BENCH_N (points), KARL_BENCH_QUERIES
# (end-to-end queries), KARL_BENCH_BOUND_QUERIES (bound-kernel queries),
# KARL_BENCH_COLD_N (largest cold-start size), KARL_BENCH_SERVE_REQS
# (steady serve requests), KARL_BENCH_SERVE_BURSTS (overload bursts).

set -euo pipefail
cd "$(dirname "$0")/.."

# cargo bench runs the bench binary from the package directory, so make
# the output path absolute before handing it over.
out="${1:-BENCH_PR10.json}"
case "$out" in
    /*) ;;
    *) out="$(pwd)/$out" ;;
esac

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

KARL_BENCH_JSON="$tmpdir/throughput_batch.json" cargo bench -p karl-bench \
    --features criterion-benches --bench throughput_batch --offline

KARL_BENCH_JSON="$tmpdir/frozen_bounds.json" cargo bench -p karl-bench \
    --features criterion-benches --bench frozen_bounds --offline

KARL_BENCH_JSON="$tmpdir/cold_start.json" cargo bench -p karl-bench \
    --features criterion-benches --bench cold_start --offline

KARL_BENCH_JSON="$tmpdir/simd_kernels.json" cargo bench -p karl-bench \
    --features criterion-benches --bench simd_kernels --offline

KARL_BENCH_JSON="$tmpdir/serve_load.json" cargo bench -p karl-bench \
    --features criterion-benches --bench serve_load --offline

python3 - "$tmpdir" "$out" <<'PY'
import json, os, platform, sys
tmpdir, out = sys.argv[1], sys.argv[2]
with open(os.path.join(tmpdir, "throughput_batch.json")) as f:
    throughput = json.load(f)
with open(os.path.join(tmpdir, "frozen_bounds.json")) as f:
    bounds = json.load(f)
with open(os.path.join(tmpdir, "cold_start.json")) as f:
    cold = json.load(f)
with open(os.path.join(tmpdir, "simd_kernels.json")) as f:
    simd = json.load(f)
with open(os.path.join(tmpdir, "serve_load.json")) as f:
    serve = json.load(f)
merged = {
    "bench": "BENCH_PR10",
    "note": (
        "PR10 adds the online serving loop (karl serve): NDJSON "
        "requests coalesced into deterministic micro-batches behind a "
        "bounded admission queue with load shedding and per-request "
        "deadlines. The serve_load section is the new measurement: "
        "steady-state requests/s and p50/p99 admission-to-response "
        "latency over an in-memory transport at 1/2/4/8 worker "
        "threads, plus an overload run whose admit/shed/reject "
        "partition is deterministic admission arithmetic (identical at "
        "every thread count). Wall clock on this shared host varies "
        "+/-3-10% per row. The other sections are carried as "
        "no-regression controls (same benches and sizes as BENCH_PR9)."
    ),
    "host": {
        # The Rust-side value is cgroup-aware; os.cpu_count() is not.
        "available_parallelism": throughput.get("available_parallelism"),
        "uname": " ".join(platform.uname()),
    },
    "serve_load": serve,
    "simd_kernels": simd,
    "cold_start": cold,
    "throughput_batch": throughput,
    "frozen_bounds": bounds,
}
with open(out, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
PY

echo "==> wrote $out"
