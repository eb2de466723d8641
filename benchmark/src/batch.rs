//! The batch workloads `kde_ekaq` and `svm_tkaq`: a closed-loop client
//! that submits fixed-size `QueryBatch` jobs on one worker, back to back,
//! cycling over a seeded query pool — what `karl batch` does after
//! argument parsing, cut into jobs so job latency can be reported.

use std::time::Instant;

use karl_core::{BoundMethod, KdEvaluator, Kernel, Outcome as KOutcome, Query, QueryBatch};
use karl_geom::PointSet;

use crate::gen::{self, Digest, Rng, Rows};
use crate::layers;
use crate::report::{self, HostSample, Outcome, SpanLog};
use crate::serve;
use crate::speed::{self, Basket, Probe};
use crate::Run;

/// Which population a batch workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Type I KDE: blobs + background, Scott's γ, weights 1/n, eKAQ.
    Kde,
    /// Type III SVM: signed support vectors, γ = 1/d, TKAQ at τ = ρ.
    Svm,
}

/// A batch workload's definition. The sizes are part of the workload:
/// changing one makes a different benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    /// Aggregation points (data rows or support vectors).
    pub n: usize,
    pub dims: usize,
    /// Distinct queries, cycled in rounds.
    pub pool: usize,
    /// Queries per `QueryBatch` job.
    pub job: usize,
    pub leaf: usize,
    /// `Evaluator::build` repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Jobs between two host-speed probes.
    pub block: usize,
    /// One probe's reference work, over the workload's points.
    pub probe: Basket,
    /// Rounds at most: the per-job record is allocated (and touched) for
    /// this many up front, so peak memory does not follow the host's speed.
    pub max_rounds: usize,
    /// Pool queries checked against the exact oracle.
    pub check: usize,
    /// A job answered later than this misses the goodput limit.
    pub limit_ms: f64,
}

/// eKAQ relative error of `kde_ekaq` (and of serve's eKAQ requests).
pub const EPS: f64 = 0.05;

impl Spec {
    pub fn kde_ekaq(tiny: bool) -> Self {
        Spec {
            kind: Kind::Kde,
            n: if tiny { 4_000 } else { 100_000 },
            dims: 8,
            pool: if tiny { 128 } else { 4_096 },
            job: 4,
            leaf: 80,
            setup_reps: if tiny { 2 } else { 25 },
            // About 110 ms of jobs per probe of about 9 ms. The points
            // (6.4 MB) stream from the last-level cache. `nominal_s`, here
            // and below, only scales the reported figures; it must not
            // change between runs that are compared.
            block: 24,
            probe: Basket {
                sums: 2,
                passes: 10,
                sort: 65_536,
                nominal_s: 9e-3,
            },
            max_rounds: 64,
            check: if tiny { 32 } else { 128 },
            // A 4-query job takes about 5 ms on the reference host; one
            // twenty times slower is a visible stall to a scoring pipeline.
            limit_ms: 100.0,
        }
    }

    pub fn svm_tkaq(tiny: bool) -> Self {
        Spec {
            kind: Kind::Svm,
            n: if tiny { 600 } else { 3_500 },
            dims: 22,
            pool: if tiny { 256 } else { 8_192 },
            job: 8,
            leaf: 80,
            setup_reps: if tiny { 2 } else { 25 },
            // About 80 ms of jobs per probe of about 7 ms. The model
            // (0.6 MB) stays in L2.
            block: 384,
            probe: Basket {
                sums: 48,
                passes: 60,
                sort: 65_536,
                nominal_s: 7e-3,
            },
            max_rounds: 512,
            check: if tiny { 64 } else { 1_024 },
            // An 8-query job takes about 0.2 ms; the same twenty-odd-fold
            // margin as `kde_ekaq`, rounded up.
            limit_ms: 5.0,
        }
    }
}

/// Everything the program receives, generated from the seed.
pub struct Inputs {
    pub points: PointSet,
    pub weights: Vec<f64>,
    pub gamma: f64,
    pub queries: Rows,
    pub query: Query,
    pub digest: Digest,
}

/// Rounding margin of the TKAQ check, relative to `Σ|wᵢ|`: far above the
/// forward error of summing a few thousand rounded kernel terms
/// (`~n·u ≈ 1e-12`), far below any gap a wrong decision would need.
pub const TKAQ_MARGIN: f64 = 1e-9;

/// Draws whose oracle median sets a TKAQ threshold (`svm_tkaq`'s ρ,
/// `serve_open`'s τ).
pub const CALIBRATION: usize = 1_024;

pub fn inputs(spec: &Spec, seed: u64) -> Inputs {
    let (points, weights, gamma, queries, query) = match spec.kind {
        Kind::Kde => {
            let points = gen::blob_rows(&mut Rng::new(seed, 1), spec.n, spec.dims);
            let gamma = gen::scott_gamma(&points);
            let queries = gen::blob_rows(&mut Rng::new(seed, 2), spec.pool, spec.dims);
            let w = vec![1.0 / spec.n as f64; spec.n];
            (points, w, gamma, queries, Query::Ekaq { eps: EPS })
        }
        Kind::Svm => {
            let (points, w) = gen::svm_model(&mut Rng::new(seed, 1), spec.n, spec.dims);
            let gamma = 1.0 / spec.dims as f64;
            let queries = gen::svm_rows(&mut Rng::new(seed, 2), spec.pool, spec.dims);
            // ρ: the oracle median of the decision value over a
            // calibration draw, so about half the queries fall on each
            // side of the boundary, as for a trained, balanced model.
            let calib = gen::svm_rows(&mut Rng::new(seed, 3), CALIBRATION, spec.dims);
            let f: Vec<f64> = (0..calib.len())
                .map(|i| gen::exact_sum(&points.data, &w, gamma, calib.row(i)))
                .collect();
            let rho = gen::median(&f);
            (points, w, gamma, queries, Query::Tkaq { tau: rho })
        }
    };
    let mut digest = Digest::default();
    digest.f64s(&points.data);
    digest.f64s(&weights);
    digest.f64s(&queries.data);
    digest.u64(gamma.to_bits());
    match query {
        Query::Tkaq { tau } => digest.u64(tau.to_bits()),
        Query::Ekaq { eps } => digest.u64(eps.to_bits()),
        Query::Within { tol } => digest.u64(tol.to_bits()),
    }
    Inputs {
        points: PointSet::new(points.dims, points.data),
        weights,
        gamma,
        queries,
        query,
        digest,
    }
}

pub fn build(inp: &Inputs, leaf: usize) -> KdEvaluator {
    KdEvaluator::build(
        &inp.points,
        &inp.weights,
        Kernel::gaussian(inp.gamma),
        BoundMethod::Karl,
        leaf,
    )
}

/// What the measured loop saw.
struct Measured {
    rounds: usize,
    /// Round-major: `lat[r * jobs + j]` is job `j`'s latency in round
    /// `r`, in reference-host seconds (raw over the probes' slowness).
    lat: Vec<f32>,
    /// Raw seconds over all jobs.
    raw_s: f64,
    /// Slowness applied to each block.
    slowness: Vec<f64>,
    /// Answers completed within the latency limit (raw time).
    good: u64,
    failed: u64,
    attempted: u64,
    /// Answers that differ from the first round.
    mismatched: u64,
}

impl Measured {
    fn new(jobs: usize, max_rounds: usize) -> Self {
        Measured {
            rounds: 0,
            // Filled, not just reserved, so every page is resident from
            // the start.
            lat: vec![f32::NAN; jobs * max_rounds],
            raw_s: 0.0,
            slowness: Vec::new(),
            good: 0,
            failed: 0,
            attempted: 0,
            mismatched: 0,
        }
    }

    /// Each job's median latency over the rounds (reference-host s).
    fn typical(&self, jobs: usize) -> Vec<f64> {
        (0..jobs)
            .map(|j| {
                let t: Vec<f64> = (0..self.rounds)
                    .map(|r| f64::from(self.lat[r * jobs + j]))
                    .collect();
                gen::median(&t)
            })
            .collect()
    }

    /// Adds this pass's operations and failures to `out`.
    fn tally(&self, out: &mut Outcome) {
        if self.mismatched > 0 {
            out.problem(format!(
                "{} answers changed between rounds",
                self.mismatched
            ));
        }
        out.attempted += self.attempted;
        out.failed += self.failed + self.mismatched;
    }
}

/// Submits one job; returns each query's answer (NaN unless it completed).
fn submit(eval: &KdEvaluator, ps: &PointSet, query: Query, answers: &mut Vec<f64>) {
    answers.clear();
    match QueryBatch::new(ps, query).threads(1).try_run(eval) {
        Ok(rep) => answers.extend(rep.results().iter().map(|res| match res {
            Ok(o @ KOutcome::Complete(_)) => rep.answer(o),
            Ok(_) | Err(_) => f64::NAN,
        })),
        Err(_) => answers.resize(ps.len(), f64::NAN),
    }
}

/// Untimed jobs run before measuring, so lazy state and caches settle.
const WARM_JOBS: usize = 16;

/// Runs the jobs in rounds over the pool until `seconds` have elapsed (at
/// least three rounds, at most `spec.max_rounds`), timing each job. After
/// every `spec.block` jobs a probe times the reference work; a block's
/// latencies are divided by the geometric mean of the probes on either
/// side. The first round's answers are returned as the reference; every
/// later round must reproduce them bit for bit. With tracing on, rounds
/// alternate between untraced (returned first) and traced (second, a span
/// per job), so both see the same host.
fn measure(
    spec: &Spec,
    eval: &KdEvaluator,
    jobs: &[PointSet],
    query: Query,
    probe: &mut Probe,
    seconds: f64,
    log: &mut SpanLog,
) -> ([Measured; 2], Vec<f64>) {
    let mut reference = Vec::with_capacity(spec.pool);
    let alternate = log.enabled();
    let mut m = [
        Measured::new(jobs.len(), spec.max_rounds),
        Measured::new(jobs.len(), if alternate { spec.max_rounds } else { 0 }),
    ];
    let mut answers = Vec::new();
    for ps in jobs.iter().take(WARM_JOBS) {
        submit(eval, ps, query, &mut answers);
    }
    let mut off = SpanLog::new(false);
    let mut raw = Vec::with_capacity(spec.block);
    let mut slow = probe.slowness();
    let start = Instant::now();
    let mut round = 0usize;
    while m[0].rounds < 3
        || (alternate && m[1].rounds < 3)
        || start.elapsed().as_secs_f64() < seconds
    {
        let traced = alternate && round % 2 == 1;
        round += 1;
        let (m, log) = if traced {
            (&mut m[1], &mut *log)
        } else {
            (&mut m[0], &mut off)
        };
        if m.rounds == spec.max_rounds {
            break;
        }
        let first = reference.is_empty();
        let mut pos = 0usize;
        let base = m.rounds * jobs.len();
        for (b, block) in jobs.chunks(spec.block).enumerate() {
            raw.clear();
            for ps in block {
                let t0 = Instant::now();
                submit(eval, ps, query, &mut answers);
                let t1 = Instant::now();
                log.record("batch.job", t0, t1, None, None);
                let ok = answers.iter().filter(|a| !a.is_nan()).count();
                if first {
                    reference.extend_from_slice(&answers);
                } else {
                    for a in &answers {
                        if a.to_bits() != reference[pos].to_bits() {
                            m.mismatched += 1;
                        }
                        pos += 1;
                    }
                }
                let dt = (t1 - t0).as_secs_f64();
                m.attempted += ps.len() as u64;
                m.failed += (ps.len() - ok) as u64;
                if dt * 1e3 <= spec.limit_ms {
                    m.good += ok as u64;
                }
                m.raw_s += dt;
                raw.push(dt);
            }
            let next = probe.slowness();
            let s = (slow * next).sqrt();
            slow = next;
            m.slowness.push(s);
            let at = base + b * spec.block;
            for (k, dt) in raw.iter().enumerate() {
                m.lat[at + k] = (dt / s) as f32;
            }
        }
        m.rounds += 1;
    }
    (m, reference)
}

/// Checks the reference answers of the first `spec.check` pool queries
/// against the oracle; returns the number that failed.
fn check(spec: &Spec, inp: &Inputs, answers: &[f64], out: &mut Outcome) -> u64 {
    let margin = TKAQ_MARGIN * inp.weights.iter().map(|w| w.abs()).sum::<f64>();
    let mut bad = 0u64;
    for (i, &a) in answers.iter().enumerate().take(spec.check) {
        let f = gen::exact_sum(
            inp.points.as_slice(),
            &inp.weights,
            inp.gamma,
            inp.queries.row(i),
        );
        let fine = match inp.query {
            Query::Ekaq { eps } => (a - f).abs() <= eps * f,
            Query::Tkaq { tau } => (f - tau).abs() <= margin || (a == 1.0) == (f >= tau),
            Query::Within { .. } => unreachable!("batch workloads ask eKAQ or TKAQ"),
        };
        if !fine {
            bad += 1;
            out.problem(format!("query {i}: answer {a} vs oracle {f}"));
        }
    }
    bad
}

/// Runs a batch workload: set-up, the measured loop, the checks, and in
/// traced runs the per-layer replays.
pub fn run(spec: &Spec, run: &Run, log: &mut SpanLog) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let inp = inputs(spec, run.seed);
    let jobs: Vec<PointSet> = inp
        .queries
        .data
        .chunks(spec.job * spec.dims)
        .map(|c| PointSet::new(spec.dims, c.to_vec()))
        .collect();

    let mut probe = Probe::new(inp.points.as_slice(), spec.dims, spec.probe);

    // Set-up: the evaluator build `karl batch` performs, repeated, each
    // between two probes.
    let mut setup = Vec::with_capacity(spec.setup_reps);
    let mut setup_raw = Vec::with_capacity(spec.setup_reps);
    let mut eval = None;
    for rep in 0..spec.setup_reps {
        drop(eval.take());
        if rep + 1 == spec.setup_reps {
            report::reset_peak_rss();
        }
        let (e, raw, slow) = speed::timed(&mut probe, || {
            log.time("setup.evaluator_build", || build(&inp, spec.leaf))
                .0
        });
        setup.push(raw / slow);
        setup_raw.push(raw);
        eval = Some(e);
    }
    let eval = eval.expect("at least one set-up repetition");

    let host0 = HostSample::now();
    let ([m, traced], reference) =
        measure(spec, &eval, &jobs, inp.query, &mut probe, run.seconds, log);
    let host1 = HostSample::now();

    // Each job's latency is its median over the rounds, and throughput
    // and latency percentiles are taken over those. The pool holds 1 024
    // jobs, so the 99th percentile has 10 beyond it. Stalls still show,
    // as goodput misses on raw time.
    let qps_of = |m: &Measured| spec.pool as f64 / m.typical(jobs.len()).iter().sum::<f64>();
    let qps = qps_of(&m);
    let lat = report::sorted(m.typical(jobs.len()).iter().map(|t| t * 1e3).collect());

    out.failed = check(spec, &inp, &reference, &mut out);
    m.tally(&mut out);

    out.metric("setup_s", gen::median(&setup), "s");
    out.metric("qps", qps, "1/s");
    out.metric("latency_p50_ms", report::quantile(&lat, 0.50), "ms");
    out.metric("latency_p99_ms", report::quantile(&lat, 0.99), "ms");
    out.metric(
        "goodput_frac",
        m.good as f64 / m.attempted.max(1) as f64,
        "frac",
    );
    out.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");

    let mut p = String::new();
    report::push_num_member(&mut p, "points", spec.n as f64);
    report::push_num_member(&mut p, "dims", spec.dims as f64);
    report::push_num_member(&mut p, "query_pool", spec.pool as f64);
    report::push_num_member(&mut p, "job_queries", spec.job as f64);
    report::push_num_member(&mut p, "leaf", spec.leaf as f64);
    report::push_num_member(&mut p, "gamma", inp.gamma);
    match inp.query {
        Query::Ekaq { eps } => report::push_num_member(&mut p, "eps", eps),
        Query::Tkaq { tau } => report::push_num_member(&mut p, "tau", tau),
        Query::Within { .. } => {}
    }
    report::push_num_member(&mut p, "latency_limit_ms", spec.limit_ms);
    report::push_num_member(&mut p, "setup_reps", spec.setup_reps as f64);
    report::push_num_member(&mut p, "rounds", m.rounds as f64);
    report::push_num_member(&mut p, "probe_nominal_s", spec.probe.nominal_s);
    let slowness = report::sorted(m.slowness.clone());
    report::push_num_member(&mut p, "slowness_p50", report::quantile(&slowness, 0.5));
    report::push_num_member(&mut p, "slowness_min", slowness[0]);
    report::push_num_member(&mut p, "slowness_max", slowness[slowness.len() - 1]);
    report::push_num_member(&mut p, "raw_qps", m.attempted as f64 / m.raw_s.max(1e-12));
    report::push_num_member(&mut p, "raw_setup_s", gen::median(&setup_raw));
    report::push_num_member(&mut p, "latency_samples", lat.len() as f64);
    report::push_num_member(&mut p, "checked_queries", spec.check.min(spec.pool) as f64);
    report::push_num_member(
        &mut p,
        "fail_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    report::push_num_member(&mut p, "steal_frac", host0.steal_frac(&host1));
    report::push_num_member(&mut p, "runqueue_wait_ms", host0.runqueue_wait_ms(&host1));
    report::push_str_member(&mut p, "input_digest", &inp.digest.hex());

    if run.trace {
        traced.tally(&mut out);
        let qps_traced = qps_of(&traced);
        layers::batch_layers(spec, &inp, &eval, &jobs, log, &mut out);
        out.metric("trace.overhead_frac", qps / qps_traced - 1.0, "frac");
        out.metric(
            "host.steal_frac",
            host0.steal_frac(&HostSample::now()),
            "frac",
        );
        match spec.kind {
            Kind::Kde => serve::layers(run, log, &mut out),
            Kind::Svm => layers::serve_absent(&mut out),
        }
    }
    out.params = p;
    out
}
