//! The `serve_open` workload: an open-loop `karl serve` session. A paced
//! reader hands `Server::run` each arrival's lines no earlier than their
//! due time, on a seeded Poisson schedule at a fixed rate; a timestamping
//! writer records when each response line is written. Latency runs from
//! the due time, so a stall also charges the requests queued behind it.

use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use karl_core::{
    parse_json, AnyEvaluator, Outcome as KOutcome, Query, QueryBatch, ServeConfig, Server,
};
use karl_geom::PointSet;

use crate::batch::{self, EPS};
use crate::gen::{self, Digest, Rng, Rows};
use crate::layers;
use crate::report::{self, HostSample, Outcome, SpanLog};
use crate::speed::{self, Basket, Probe};
use crate::Run;

/// The workload definition.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The evaluator: `kde_ekaq`'s model.
    pub model: batch::Spec,
    /// Mean arrivals per second of reference-host time. A constant, at
    /// which the reference host's engine is about a fifth busy
    /// (`serve.engine_busy_frac`, see README); never derived from a
    /// capacity measured at run time.
    pub rate: f64,
    /// One arrival in `bulk_every` is a bulk job.
    pub bulk_every: usize,
    /// Requests per bulk job (the daemon's default micro-batch size).
    pub bulk_size: usize,
    /// Worker threads per micro-batch.
    pub threads: usize,
    /// A request answered later than this after its due time misses.
    pub limit_ms: f64,
    /// `from_index_file` + `Server::new` repetitions, each in a fresh
    /// process; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Spec {
    pub fn new(tiny: bool) -> Self {
        Spec {
            model: batch::Spec::kde_ekaq(tiny),
            rate: 200.0,
            bulk_every: 100,
            bulk_size: 64,
            threads: 2,
            // An interactive client that gives up after 100 ms: well
            // above a bulk job's service time, so misses mean queueing
            // the engine could not absorb.
            limit_ms: 100.0,
            setup_reps: if tiny { 2 } else { 25 },
        }
    }

    fn config(&self) -> ServeConfig {
        ServeConfig {
            threads: Some(self.threads),
            ..ServeConfig::default()
        }
    }
}

/// Rows of the serve probes: the workload's model family, 4 k × 8 d
/// (256 KiB, held in L2), drawn from their own stream of the seed.
const PROBE_ROWS: usize = 4_096;

/// A set-up probe, about 3 ms. `nominal_s` only scales the reported
/// figures (see `batch::Spec::kde_ekaq`).
const SETUP_PROBE: Basket = Basket {
    sums: 16,
    passes: 64,
    sort: 32_768,
    nominal_s: 3e-3,
};

/// A session probe, run in the reader's idle gaps: about 0.2 ms.
const SESSION_PROBE: Basket = Basket {
    sums: 1,
    passes: 4,
    sort: 2_048,
    nominal_s: 200e-6,
};

/// The schedule's pace is the median of this many latest session probes
/// (taken before the session starts to begin with).
const PACE_PROBES: usize = 15;

/// Bounds on the pace, so a probe gone wild cannot stall or flood the
/// session.
const PACE_RANGE: (f64, f64) = (0.5, 2.0);

/// A session probe runs only when the next arrival is at least this far
/// off, so it never delays a hand-over.
const PROBE_GAP: Duration = Duration::from_micros(1_500);

fn probe_rows(spec: &Spec, seed: u64) -> Rows {
    gen::blob_rows(&mut Rng::new(seed, 8), PROBE_ROWS, spec.model.dims)
}

fn probe(rows: &Rows, basket: Basket) -> Probe<'_> {
    Probe::new(&rows.data, rows.dims, basket)
}

/// One set-up as `karl serve --index` does it: `from_index_file`, then
/// `Server::new`. Returns the evaluator and the (load, total) seconds.
fn timed_setup(spec: &Spec, path: &Path) -> (AnyEvaluator, f64, f64) {
    let t0 = Instant::now();
    let (eval, _meta) = AnyEvaluator::from_index_file(path).expect("the prepared index loads");
    let t1 = Instant::now();
    drop(Server::new(&eval, spec.config()).expect("default config is valid"));
    let t2 = Instant::now();
    (eval, (t1 - t0).as_secs_f64(), (t2 - t0).as_secs_f64())
}

/// Builds `kde_ekaq`'s evaluator for `seed` and writes it to `path`.
/// Returns the oracle median density over a calibration draw (the TKAQ
/// threshold) and the model's input digest.
fn prepare(spec: &Spec, seed: u64, path: &Path) -> (f64, String) {
    let model = &spec.model;
    let inp = batch::inputs(model, seed);
    let calib = gen::blob_rows(
        &mut Rng::new(seed, 5),
        batch::CALIBRATION.min(model.pool),
        model.dims,
    );
    let f: Vec<f64> = (0..calib.len())
        .map(|i| gen::exact_sum(inp.points.as_slice(), &inp.weights, inp.gamma, calib.row(i)))
        .collect();
    let eval = batch::build(&inp, model.leaf);
    layers::write_index(eval, model.leaf, path);
    (gen::median(&f), inp.digest.hex())
}

/// The arguments of both child entry points: `PATH SEED full|tiny`.
fn child_args(args: &[String]) -> Option<(PathBuf, u64, Spec)> {
    let path = PathBuf::from(args.first()?);
    let seed = args.get(1)?.parse::<u64>().ok()?;
    let tiny = match args.get(2)?.as_str() {
        "full" => false,
        "tiny" => true,
        _ => return None,
    };
    Some((path, seed, Spec::new(tiny)))
}

/// Entry point of the preparation child, `prepare-serve-index PATH SEED
/// SIZE`: writes the index and prints the threshold's bits and the model
/// digest.
pub fn prepare_main(args: &[String]) -> ExitCode {
    let Some((path, seed, spec)) = child_args(args) else {
        return ExitCode::from(2);
    };
    let (tau, digest) = prepare(&spec, seed, &path);
    println!("{:016x} {digest}", tau.to_bits());
    ExitCode::SUCCESS
}

/// Entry point of a set-up child, `load-serve-index PATH SEED SIZE`: one
/// set-up in a freshly started process, as a daemon starting with
/// `--index` does it, between two probes; prints its (load, total)
/// seconds over the probes' slowness, then its raw total seconds.
pub fn load_main(args: &[String]) -> ExitCode {
    let Some((path, seed, spec)) = child_args(args) else {
        return ExitCode::from(2);
    };
    let rows = probe_rows(&spec, seed);
    let ((_, load, total), _, slow) =
        speed::timed(&mut probe(&rows, SETUP_PROBE), || timed_setup(&spec, &path));
    println!("{} {} {total}", load / slow, total / slow);
    ExitCode::SUCCESS
}

/// Runs one of this binary's child entry points on `path`; returns what
/// it printed.
fn child(entry: &str, run: &Run, path: &Path) -> String {
    let out = std::process::Command::new(
        std::env::current_exe().expect("the running benchmark has a path"),
    )
    .arg(entry)
    .arg(path)
    .arg(run.seed.to_string())
    .arg(if run.tiny { "tiny" } else { "full" })
    .stderr(std::process::Stdio::inherit())
    .output()
    .expect("the benchmark can start itself");
    assert!(out.status.success(), "{entry} failed: {}", out.status);
    String::from_utf8(out.stdout).expect("the child prints text")
}

/// One arrival: its due time (offset from session start) and its lines.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub due: Duration,
    pub bytes: Vec<u8>,
    /// Requests in this arrival (ids are consecutive from `first_id`).
    pub first_id: u64,
    pub count: usize,
}

/// The request stream: arrivals plus every request's point and query.
pub struct Script {
    pub arrivals: Vec<Arrival>,
    pub points: Rows,
    pub queries: Vec<Query>,
    /// Per request: sent alone (an interactive client) rather than as
    /// part of a bulk job.
    pub interactive: Vec<bool>,
    /// Request lines only (no control lines), for the parse replay.
    pub lines: Vec<String>,
}

/// The seeded schedule: `n` Poisson arrivals at `spec.rate`; every
/// `bulk_every`-th arrival (from a seeded phase) is a bulk job of
/// `bulk_size` requests — a scoring pipeline submitting periodically, so
/// two bulk jobs never queue back to back. Requests alternate 3 TKAQ (`τ`) to 1 eKAQ
/// (`ε = 0.05`), carry no deadline, and every arrival ends with a flush —
/// the daemon dispatches only at `batch_max` pending requests or on a
/// flush, so a client waiting for its answer must send one.
pub fn script(spec: &Spec, seed: u64, seconds: f64, tau: f64) -> Script {
    let n = ((spec.rate * seconds).round() as usize).max(spec.bulk_every);
    let mut rng = Rng::new(seed, 6);
    let mut due = 0.0f64;
    let mut sizes = Vec::with_capacity(n);
    let phase = rng.below(spec.bulk_every);
    for i in 0..n {
        due += rng.exp_mean(1.0 / spec.rate);
        let bulk = i % spec.bulk_every == phase;
        sizes.push((due, if bulk { spec.bulk_size } else { 1 }));
    }
    let total: usize = sizes.iter().map(|s| s.1).sum();
    let points = gen::blob_rows(&mut Rng::new(seed, 7), total, spec.model.dims);
    let queries: Vec<Query> = (0..total)
        .map(|j| {
            if j % 4 == 3 {
                Query::Ekaq { eps: EPS }
            } else {
                Query::Tkaq { tau }
            }
        })
        .collect();
    let mut lines = Vec::with_capacity(total);
    let mut arrivals = Vec::with_capacity(n);
    let mut id = 0u64;
    for (due, count) in sizes {
        let mut bytes = Vec::new();
        for j in id..id + count as u64 {
            let line = request_line(j, queries[j as usize], points.row(j as usize));
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
            lines.push(line);
        }
        bytes.extend_from_slice(b"{\"op\":\"flush\"}\n");
        arrivals.push(Arrival {
            due: Duration::from_secs_f64(due),
            bytes,
            first_id: id,
            count,
        });
        id += count as u64;
    }
    let mut interactive = vec![false; total];
    for a in arrivals.iter().filter(|a| a.count == 1) {
        interactive[a.first_id as usize] = true;
    }
    Script {
        arrivals,
        points,
        queries,
        interactive,
        lines,
    }
}

fn request_line(id: u64, query: Query, q: &[f64]) -> String {
    let mut s = format!("{{\"id\":{id},");
    match query {
        Query::Tkaq { tau } => s.push_str(&format!("\"op\":\"tkaq\",\"tau\":{tau}")),
        Query::Ekaq { eps } => s.push_str(&format!("\"op\":\"ekaq\",\"eps\":{eps}")),
        Query::Within { tol } => s.push_str(&format!("\"op\":\"within\",\"tol\":{tol}")),
    }
    s.push_str(",\"q\":[");
    for (k, x) in q.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push_str(&format!("{x}"));
    }
    s.push_str("]}");
    s
}

/// Spins until `t`. A sleeping reader lets its vCPU halt, and a halted
/// vCPU on a shared VM can wake milliseconds late; the reader's lateness
/// is the generator's error, not the daemon's. Spinning costs the engine
/// nothing: the daemon's loop is synchronous, so while the reader waits
/// no micro-batch is running.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Hands each arrival's bytes to the daemon no earlier than its due time.
/// While it waits for one that is far enough off, the daemon is idle (its
/// loop is synchronous), and the reader runs a session probe.
///
/// The script's gaps are in reference-host time; the reader stretches
/// each by the current pace (the median slowness of the latest probes).
/// On a host running at half speed the arrivals come half as often, so
/// the engine is as busy, and a latency divided by the pace reads as on
/// the reference host. The offered load in reference-host terms stays the
/// script's; nothing about it depends on the program's speed.
struct PacedReader<'a> {
    arrivals: &'a [Arrival],
    probe: Probe<'a>,
    /// The latest `PACE_PROBES` slownesses (a ring).
    recent: [f64; PACE_PROBES],
    probes: usize,
    pace: f64,
    start: Instant,
    /// Wall-clock due time and script offset of the previous arrival.
    last_due: Instant,
    last_offset: Duration,
    /// Stop handing out arrivals after this (a stalled program must still
    /// end the run in time); later arrivals count as failed.
    cutoff: Instant,
    next: usize,
    off: usize,
    /// One per arrival handed out.
    handoff: Vec<Handoff>,
}

#[derive(Debug, Clone, Copy)]
struct Handoff {
    due: Instant,
    asked: Instant,
    at: Instant,
    /// The pace its gap was stretched by.
    pace: f64,
}

impl<'a> PacedReader<'a> {
    fn new(arrivals: &'a [Arrival], mut probe: Probe<'a>, cutoff_after: Duration) -> Self {
        let recent = std::array::from_fn(|_| probe.slowness());
        let start = Instant::now() + Duration::from_millis(5);
        PacedReader {
            arrivals,
            probe,
            recent,
            probes: 0,
            pace: pace_of(&recent),
            start,
            last_due: start,
            last_offset: Duration::ZERO,
            cutoff: start + cutoff_after,
            next: 0,
            off: 0,
            handoff: Vec::with_capacity(arrivals.len()),
        }
    }
}

fn pace_of(recent: &[f64]) -> f64 {
    gen::median(recent).clamp(PACE_RANGE.0, PACE_RANGE.1)
}

impl BufRead for PacedReader<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.next > 0 && self.off < self.arrivals[self.next - 1].bytes.len() {
            return Ok(&self.arrivals[self.next - 1].bytes[self.off..]);
        }
        if self.next == self.arrivals.len() {
            return Ok(&[]);
        }
        let asked = Instant::now();
        let offset = self.arrivals[self.next].due;
        let due = self.last_due + (offset - self.last_offset).mul_f64(self.pace);
        if due > self.cutoff {
            return Ok(&[]);
        }
        let pace = self.pace;
        if due.saturating_duration_since(asked) >= PROBE_GAP {
            self.recent[self.probes % PACE_PROBES] = self.probe.slowness();
            self.probes += 1;
            self.pace = pace_of(&self.recent);
        }
        wait_until(due);
        self.handoff.push(Handoff {
            due,
            asked,
            at: Instant::now(),
            pace,
        });
        self.last_due = due;
        self.last_offset = offset;
        self.next += 1;
        self.off = 0;
        Ok(&self.arrivals[self.next - 1].bytes)
    }

    fn consume(&mut self, n: usize) {
        self.off += n;
    }
}

impl Read for PacedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// Records each response line with the instant it was written.
#[derive(Default)]
struct StampWriter {
    bytes: Vec<u8>,
    /// (end offset of a complete line, written-at).
    lines: Vec<(usize, Instant)>,
}

impl Write for StampWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        let base = self.bytes.len();
        self.bytes.extend_from_slice(buf);
        for (k, b) in buf.iter().enumerate() {
            if *b == b'\n' {
                self.lines.push((base + k + 1, now));
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A parsed response line.
#[derive(Debug, Clone, Copy)]
struct Response {
    id: u64,
    ok: bool,
    answer: f64,
    written: Instant,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

fn parse_responses(w: &StampWriter) -> (Vec<Response>, usize) {
    let mut out = Vec::with_capacity(w.lines.len());
    let mut malformed = 0;
    let mut begin = 0usize;
    for &(end, written) in &w.lines {
        let line = std::str::from_utf8(&w.bytes[begin..end]).unwrap_or("");
        begin = end;
        let id = field(line, "\"id\":").and_then(|s| s.parse::<u64>().ok());
        let status = field(line, "\"status\":");
        match (id, status) {
            (Some(id), Some(status)) => out.push(Response {
                id,
                ok: status == "ok",
                answer: field(line, "\"answer\":")
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or(f64::NAN),
                written,
            }),
            _ => malformed += 1,
        }
    }
    (out, malformed)
}

/// What one session produced, indexed by request id.
struct Session {
    start: Instant,
    /// Per request: (due, handed-over, written) — `None` if unanswered.
    timing: Vec<Option<(Instant, Instant, Instant)>>,
    /// Per request: answered `ok` with this answer.
    answers: Vec<Option<f64>>,
    /// Requests handed to the daemon.
    admitted: usize,
    /// Response count per request id.
    seen: Vec<u32>,
    malformed: usize,
    /// Reader lateness on arrivals it had to wait for (µs).
    oversleep_us: Vec<f64>,
    /// Arrivals handed over per wall-clock second of session.
    realised_rate: f64,
    /// Per request: the pace its arrival's gap was stretched by (NaN if
    /// never handed over).
    pace: Vec<f64>,
    /// Per arrival handed over: its pace.
    arrival_pace: Vec<f64>,
    probes: usize,
    end: Instant,
    stats: karl_core::StatsSnapshot,
}

impl Session {
    fn pace_p50(&self) -> f64 {
        if self.arrival_pace.is_empty() {
            1.0
        } else {
            gen::median(&self.arrival_pace)
        }
    }
}

fn session(spec: &Spec, eval: &AnyEvaluator, sc: &Script, probe: Probe, seconds: f64) -> Session {
    let mut server = Server::new(eval, spec.config()).expect("default config is valid");
    let mut reader = PacedReader::new(
        &sc.arrivals,
        probe,
        Duration::from_secs_f64(3.0 * seconds + 10.0),
    );
    let start = reader.start;
    let mut writer = StampWriter::default();
    server
        .run(&mut reader, &mut writer, io::sink())
        .expect("in-memory transport cannot fail");
    let end = Instant::now();
    let (responses, malformed) = parse_responses(&writer);
    let total = sc.queries.len();
    let mut s = Session {
        start,
        timing: vec![None; total],
        answers: vec![None; total],
        admitted: 0,
        seen: vec![0; total],
        malformed,
        oversleep_us: Vec::new(),
        realised_rate: reader.handoff.last().map_or(0.0, |h| {
            reader.handoff.len() as f64 / h.at.saturating_duration_since(start).as_secs_f64()
        }),
        pace: vec![f64::NAN; total],
        arrival_pace: reader.handoff.iter().map(|h| h.pace).collect(),
        probes: reader.probes,
        end,
        stats: server.stats().snapshot(spec.threads as u64),
    };
    let mut handed: Vec<Option<(Instant, Instant)>> = vec![None; total];
    for (a, h) in sc.arrivals.iter().zip(&reader.handoff) {
        if h.asked < h.due {
            s.oversleep_us
                .push(h.at.saturating_duration_since(h.due).as_secs_f64() * 1e6);
        }
        for id in a.first_id..a.first_id + a.count as u64 {
            handed[id as usize] = Some((h.due, h.at));
            s.pace[id as usize] = h.pace;
        }
        s.admitted += a.count;
    }
    for r in responses {
        let Some(slot) = s.seen.get_mut(r.id as usize) else {
            s.malformed += 1;
            continue;
        };
        *slot += 1;
        if let Some((due, at)) = handed[r.id as usize] {
            s.timing[r.id as usize] = Some((due, at, r.written));
        }
        if r.ok {
            s.answers[r.id as usize] = Some(r.answer);
        }
    }
    s
}

/// The requests `ids` grouped by query spec, in first-seen order: one
/// `(ids, points, query)` `QueryBatch` job per spec, as the daemon
/// dispatches a micro-batch.
fn by_spec(
    sc: &Script,
    ids: impl IntoIterator<Item = usize>,
) -> Vec<(Vec<usize>, PointSet, Query)> {
    let mut groups: Vec<(Vec<usize>, Query)> = Vec::new();
    for j in ids {
        match groups.iter_mut().find(|g| g.1 == sc.queries[j]) {
            Some(g) => g.0.push(j),
            None => groups.push((vec![j], sc.queries[j])),
        }
    }
    groups
        .into_iter()
        .map(|(idx, query)| {
            let flat = idx
                .iter()
                .flat_map(|&j| sc.points.row(j).to_vec())
                .collect();
            let ps = PointSet::new(sc.points.dims, flat);
            (idx, ps, query)
        })
        .collect()
}

/// An arrival's `QueryBatch` jobs.
fn arrival_jobs(sc: &Script, a: &Arrival) -> Vec<(PointSet, Query)> {
    let first = a.first_id as usize;
    by_spec(sc, first..first + a.count)
        .into_iter()
        .map(|(_, ps, query)| (ps, query))
        .collect()
}

/// Offline `QueryBatch` answers for every request (one batch per query
/// spec, one worker), as the bitwise reference for served answers.
fn offline_answers(eval: &AnyEvaluator, sc: &Script) -> Vec<f64> {
    let mut answers = vec![f64::NAN; sc.queries.len()];
    for (idx, ps, spec) in by_spec(sc, 0..sc.queries.len()) {
        let rep = QueryBatch::new(&ps, spec)
            .threads(1)
            .try_run_any(eval)
            .expect("offline batch over validated requests runs");
        for (k, res) in rep.results().iter().enumerate() {
            if let Ok(o @ KOutcome::Complete(_)) = res {
                answers[idx[k]] = rep.answer(o);
            }
        }
    }
    answers
}

/// Scores a session into `out`: latency percentiles over interactive
/// requests (a bulk job's requests all wait for the job), each latency
/// divided by the pace of its arrival; goodput (on raw latency) and
/// failures over every request; and the output checks.
fn score(spec: &Spec, sc: &Script, s: &Session, offline: &[f64], out: &mut Outcome) {
    let total = sc.queries.len();
    let mut lat = Vec::with_capacity(total);
    let mut raw_lat = Vec::with_capacity(total);
    let mut bulk_lat = Vec::new();
    let mut good = 0usize;
    let mut failed = 0u64;
    let mut last = s.start;
    for j in 0..total {
        let ok = s.answers[j].is_some();
        if let Some((due, _, written)) = s.timing[j] {
            let ms = written.saturating_duration_since(due).as_secs_f64() * 1e3;
            if sc.interactive[j] {
                lat.push(ms / s.pace[j]);
                raw_lat.push(ms);
            } else {
                bulk_lat.push(ms);
            }
            last = last.max(written);
            if ok && ms <= spec.limit_ms {
                good += 1;
            }
        }
        if !ok {
            failed += 1;
        }
    }
    let mut wrong = 0u64;
    let mut twice = 0u64;
    for (j, (answer, reference)) in s.answers.iter().zip(offline).enumerate() {
        if let Some(a) = answer {
            if a.to_bits() != reference.to_bits() {
                wrong += 1;
                if wrong <= 5 {
                    out.problem(format!("request {j}: served {a} != offline {reference}"));
                }
            }
        }
        // Arrivals are handed over in id order.
        let handed = j < s.admitted;
        if s.seen[j] != u32::from(handed) {
            twice += 1;
        }
    }
    if wrong > 0 {
        out.problem(format!(
            "{wrong} served answers differ from the offline batch"
        ));
    }
    if twice > 0 {
        out.problem(format!("{twice} requests not answered exactly once"));
    }
    if s.malformed > 0 {
        out.problem(format!("{} malformed response lines", s.malformed));
    }
    let lat = report::sorted(lat);
    let raw_lat = report::sorted(raw_lat);
    // The session in reference-host seconds: wall time over the median
    // pace.
    let wall = last.saturating_duration_since(s.start).as_secs_f64() / s.pace_p50();
    out.attempted = total as u64;
    out.failed = failed + wrong;
    out.metric(
        "qps",
        (total as u64 - failed) as f64 / wall.max(1e-9),
        "1/s",
    );
    out.metric("latency_p50_ms", report::quantile(&lat, 0.50), "ms");
    out.metric("latency_p99_ms", report::quantile(&lat, 0.99), "ms");
    out.metric("goodput_frac", good as f64 / total as f64, "frac");
    out.metric("latency_samples", lat.len() as f64, "count");
    out.metric("raw_latency_p50_ms", report::quantile(&raw_lat, 0.50), "ms");
    out.metric("raw_latency_p99_ms", report::quantile(&raw_lat, 0.99), "ms");
    out.metric("bulk_request_ms_p50", gen::median(&bulk_lat), "ms");
}

/// The `serve.*` and `gen.*` metrics of `kde_ekaq`'s traced run: a
/// traced `serve_open` session over the same model (for at most
/// `TRACE_SESSION_S`), whose serve-layer metrics, operations, failures
/// and check results join `out`. `serve_open` is not a workload of
/// record (its latencies follow the shared host's steal; see README), so
/// this is where the record measures the serve layer.
pub fn layers(run: &Run, log: &mut SpanLog, out: &mut Outcome) {
    let session = Run {
        seconds: run.seconds.min(TRACE_SESSION_S),
        ..*run
    };
    let s = self::run(&Spec::new(run.tiny), &session, log);
    for m in &s.metrics {
        if m.name.starts_with("serve.") || m.name.starts_with("gen.") {
            out.metric(m.name, m.value, m.unit);
        }
    }
    for p in s.problems {
        out.problem(format!("serve session: {p}"));
    }
    out.correct &= s.correct;
    out.attempted += s.attempted;
    out.failed += s.failed;
}

/// Longest serve session of a `kde_ekaq` traced run: enough for every
/// serve count and percentile, and it keeps the traced run well inside
/// the time a run may take.
const TRACE_SESSION_S: f64 = 15.0;

/// Runs `serve_open`: preparation, set-up, one session, the checks, and
/// in traced runs the per-layer metrics.
pub fn run(spec: &Spec, run: &Run, log: &mut SpanLog) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let path = crate::work_file("serve-index");
    let prepared = child("prepare-serve-index", run, &path);
    let (tau, model_digest) = prepared
        .split_once(' ')
        .and_then(|(bits, digest)| {
            let tau = f64::from_bits(u64::from_str_radix(bits, 16).ok()?);
            Some((tau, digest.trim().to_string()))
        })
        .expect("the preparation child prints its record");
    let seconds = run.seconds;
    let sc = script(spec, run.seed, seconds, tau);
    let mut digest = Digest::default();
    digest.f64s(&sc.points.data);
    digest.u64(tau.to_bits());
    for a in &sc.arrivals {
        digest.u64(a.due.as_nanos() as u64);
        digest.u64(a.count as u64);
    }

    // Set-up: every sample is one set-up in a freshly started process
    // that loads the index, as `karl serve --index` starts, between two
    // probes. Children take all but one; this process, the daemon
    // measured, takes the last, so its peak memory is that of a daemon
    // that loaded its index once.
    let index_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let (mut load_s, mut setup_s, mut setup_raw) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 1..spec.setup_reps {
        let times = child("load-serve-index", run, &path);
        let t: Vec<f64> = times
            .split_whitespace()
            .filter_map(|x| x.parse::<f64>().ok())
            .collect();
        let &[load, total, raw] = t.as_slice() else {
            panic!("the set-up child prints its times: {times:?}");
        };
        load_s.push(load);
        setup_s.push(total);
        setup_raw.push(raw);
    }
    let rows = probe_rows(spec, run.seed);
    let t0 = Instant::now();
    let ((eval, load, total), _, slow) =
        speed::timed(&mut probe(&rows, SETUP_PROBE), || timed_setup(spec, &path));
    log.record(
        "setup.index_load_and_server_new",
        t0,
        Instant::now(),
        None,
        None,
    );
    load_s.push(load / slow);
    setup_s.push(total / slow);
    setup_raw.push(total);
    let _ = std::fs::remove_file(&path);

    let host0 = HostSample::now();
    let s = session(spec, &eval, &sc, probe(&rows, SESSION_PROBE), seconds);
    let host1 = HostSample::now();
    let offline = offline_answers(&eval, &sc);
    score(spec, &sc, &s, &offline, &mut out);
    out.metric("setup_s", gen::median(&setup_s), "s");
    out.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");

    let mut p = String::new();
    report::push_num_member(&mut p, "points", spec.model.n as f64);
    report::push_num_member(&mut p, "dims", spec.model.dims as f64);
    report::push_num_member(&mut p, "leaf", spec.model.leaf as f64);
    report::push_num_member(&mut p, "rate_per_s", spec.rate);
    report::push_num_member(&mut p, "realised_rate_per_s", s.realised_rate);
    report::push_num_member(&mut p, "arrivals", sc.arrivals.len() as f64);
    report::push_num_member(&mut p, "requests", sc.queries.len() as f64);
    report::push_num_member(&mut p, "bulk_every", spec.bulk_every as f64);
    report::push_num_member(&mut p, "bulk_size", spec.bulk_size as f64);
    report::push_num_member(&mut p, "threads", spec.threads as f64);
    report::push_num_member(&mut p, "tau", tau);
    report::push_num_member(&mut p, "eps", EPS);
    report::push_num_member(&mut p, "latency_limit_ms", spec.limit_ms);
    report::push_num_member(
        &mut p,
        "latency_samples",
        out.get("latency_samples").unwrap_or(0.0),
    );
    report::push_num_member(
        &mut p,
        "bulk_request_ms_p50",
        out.get("bulk_request_ms_p50").unwrap_or(0.0),
    );
    report::push_num_member(&mut p, "setup_reps", setup_s.len() as f64);
    report::push_num_member(&mut p, "raw_setup_s", gen::median(&setup_raw));
    for key in ["raw_latency_p50_ms", "raw_latency_p99_ms"] {
        report::push_num_member(&mut p, key, out.get(key).unwrap_or(0.0));
    }
    report::push_num_member(&mut p, "probe_nominal_s", SESSION_PROBE.nominal_s);
    report::push_num_member(&mut p, "session_probes", s.probes as f64);
    let pace = report::sorted(s.arrival_pace.clone());
    report::push_num_member(&mut p, "slowness_p50", s.pace_p50());
    report::push_num_member(&mut p, "slowness_min", pace.first().copied().unwrap_or(0.0));
    report::push_num_member(&mut p, "slowness_max", pace.last().copied().unwrap_or(0.0));
    report::push_num_member(
        &mut p,
        "session_s",
        s.end.saturating_duration_since(s.start).as_secs_f64(),
    );
    report::push_num_member(
        &mut p,
        "fail_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    report::push_num_member(&mut p, "steal_frac", host0.steal_frac(&host1));
    report::push_num_member(&mut p, "runqueue_wait_ms", host0.runqueue_wait_ms(&host1));
    report::push_str_member(&mut p, "model_digest", &model_digest);
    report::push_str_member(&mut p, "input_digest", &digest.hex());

    if run.trace {
        serve_layers(&sc, &s, &eval, log, &mut out);
        out.metric("index.load_s", gen::median(&load_s), "s");
        out.metric("index.bytes", index_bytes as f64, "bytes");
        out.metric("tree.build_s", 0.0, "s");
        out.metric("tree.freeze_s", 0.0, "s");
        out.metric(
            "host.steal_frac",
            host0.steal_frac(&HostSample::now()),
            "frac",
        );
    }
    out.params = p;
    out
}

/// The serve-layer metrics of a session, plus the engine layers replayed
/// offline over the same requests. The session's spans are built from
/// timestamps every session takes, after it ends; `trace.overhead_frac`
/// is the time that costs, as a share of the session.
fn serve_layers(
    sc: &Script,
    s: &Session,
    eval: &AnyEvaluator,
    log: &mut SpanLog,
    out: &mut Outcome,
) {
    let t0 = Instant::now();
    let root = log.record("serve.session", s.start, s.end, None, None);
    for (j, t) in s.timing.iter().enumerate() {
        if let Some((due, at, written)) = *t {
            let req = Some(j as u64);
            let r = log.record("serve.request", due, written, root, req);
            log.record("serve.backlog", due, at, r, req);
            log.record("serve.service", at, written, r, req);
        }
    }
    let session_s = s.end.saturating_duration_since(s.start).as_secs_f64();
    out.metric(
        "trace.overhead_frac",
        t0.elapsed().as_secs_f64() / session_s,
        "frac",
    );

    let mut backlog = Vec::new();
    let mut service = Vec::new();
    for (j, t) in s.timing.iter().enumerate() {
        if let (Some((due, at, written)), true) = (*t, sc.interactive[j]) {
            backlog.push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
            service.push(written.saturating_duration_since(at).as_secs_f64() * 1e3);
        }
    }
    let backlog = report::sorted(backlog);
    let service_sorted = report::sorted(service.clone());
    out.metric(
        "serve.backlog_ms_p50",
        report::quantile(&backlog, 0.5),
        "ms",
    );
    out.metric(
        "serve.backlog_ms_p99",
        report::quantile(&backlog, 0.99),
        "ms",
    );
    out.metric(
        "serve.service_ms_p50",
        report::quantile(&service_sorted, 0.5),
        "ms",
    );
    out.metric(
        "serve.service_ms_p99",
        report::quantile(&service_sorted, 0.99),
        "ms",
    );

    let kd = match eval {
        AnyEvaluator::Kd(e) => e,
        AnyEvaluator::Ball(_) => unreachable!("the prepared index is a kd-tree"),
    };
    let items: Vec<(&[f64], Query)> = (0..sc.queries.len())
        .map(|j| (sc.points.row(j), sc.queries[j]))
        .collect();
    let engine_us = layers::engine_layers(kd, &items, log, out);

    // Service time minus offline engine time, interactive requests only.
    let mut over = Vec::new();
    for a in sc.arrivals.iter().filter(|a| a.count == 1) {
        let j = a.first_id as usize;
        if let Some((_, at, written)) = s.timing[j] {
            over.push(written.saturating_duration_since(at).as_secs_f64() * 1e6 - engine_us[j]);
        }
    }
    out.metric("serve.overhead_us_p50", gen::median(&over), "us");

    // The load point: one engine's offline time for every answered
    // request, as a share of the session.
    let busy_us: f64 = (0..sc.queries.len())
        .filter(|&j| s.answers[j].is_some())
        .map(|j| engine_us[j])
        .sum();
    out.metric("serve.engine_busy_frac", busy_us * 1e-6 / session_s, "frac");

    let t0 = Instant::now();
    for line in &sc.lines {
        std::hint::black_box(parse_json(line).ok());
    }
    let t1 = Instant::now();
    log.record("serve.parse_replay", t0, t1, None, None);
    out.metric(
        "serve.parse_us",
        (t1 - t0).as_secs_f64() * 1e6 / sc.lines.len() as f64,
        "us",
    );

    // The daemon's dispatch shapes replayed offline: the arrivals that
    // cover the first SCHEDULER_QUERIES requests for the scheduler's
    // overhead, the first four bulk jobs for the 2-worker speedup.
    let mut shaped = Vec::new();
    let mut covered = 0;
    for a in &sc.arrivals {
        if covered >= layers::SCHEDULER_QUERIES {
            break;
        }
        covered += a.count;
        shaped.extend(arrival_jobs(sc, a));
    }
    let bulk: Vec<(PointSet, Query)> = sc
        .arrivals
        .iter()
        .filter(|a| a.count > 1)
        .take(4)
        .flat_map(|a| arrival_jobs(sc, a))
        .collect();
    out.metric(
        "batch.overhead_frac",
        layers::batch_overhead(kd, &shaped, log),
        "frac",
    );
    out.metric(
        "batch.speedup_2t",
        layers::batch_speedup(kd, &bulk, log),
        "x",
    );

    let st = &s.stats;
    out.metric("serve.batches", st.batches as f64, "count");
    out.metric(
        "serve.batch_size_mean",
        st.admitted as f64 / st.batches.max(1) as f64,
        "count",
    );
    out.metric("serve.queue_depth_max", st.queue_depth_max as f64, "count");
    out.metric("serve.shed", st.shed as f64, "count");
    out.metric("serve.rejected", st.rejected as f64, "count");
    let over = report::sorted(s.oversleep_us.clone());
    out.metric("gen.oversleep_us_p99", report::quantile(&over, 0.99), "us");
}
