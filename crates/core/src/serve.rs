//! The serving loop: an online query daemon over a newline-delimited JSON
//! wire, engineered to *degrade, never collapse*.
//!
//! [`Server`] accepts TKAQ / eKAQ / Within requests one line at a time,
//! coalesces them into micro-batches for the existing [`QueryBatch`]
//! engine, and composes every robustness primitive the library already
//! has into an admission-control state machine:
//!
//! * **Bounded admission queue** — beyond the high watermark
//!   ([`ServeConfig::queue_cap`]) a request is answered immediately with a
//!   typed `rejected` line ([`KarlError::Overloaded`]) instead of growing
//!   an unbounded queue.
//! * **Load shedding with certified answers** — at or above
//!   [`ServeConfig::shed_at`] pending requests, new admissions are flagged
//!   *shed*: they are evaluated under a zero-work budget and answer from
//!   the certified root interval (`status:"shed"` with `[lb, ub]`), the
//!   anytime-answer property the branch-and-bound loop guarantees at every
//!   iteration. A shed request still gets a sound interval — degraded, not
//!   dropped.
//! * **Deadline propagation** — a request's `deadline_ms` is mapped onto
//!   [`Budget::deadline_after`]: time spent queued before dispatch shrinks
//!   the refinement deadline, saturating at zero (an already-expired
//!   deadline does zero refinement work and answers from the root
//!   interval).
//! * **Per-request fault quarantine** — evaluation goes through
//!   [`QueryBatch::try_run_any`], so a poisoned request (non-finite
//!   coordinates, or an injected panic under the `fault-inject` feature)
//!   yields a typed `error` line in its own response while every other
//!   request in the same micro-batch completes bitwise-identically.
//! * **Graceful drain** — `shutdown` (and EOF) stops admitting, flushes
//!   every in-flight request, and emits a final stats summary. No admitted
//!   request is ever lost or answered twice.
//!
//! # Determinism
//!
//! The read loop is synchronous: admission decisions (admit / shed /
//! reject) are a pure function of the request script and the configured
//! watermarks, never of wall-clock time, and the batch engine is bitwise
//! deterministic at any thread count. A fixed request script therefore
//! produces a byte-identical response transcript at 1/2/4/8 worker
//! threads and under any SIMD backend — unless the script itself opts
//! into wall-clock behavior with a nonzero `deadline_ms`. (`deadline_ms`
//! of `0` is deterministic: the remaining deadline saturates to zero
//! regardless of queue time.) The one exception is the `stats` response,
//! whose snapshot embeds the *resolved* worker-thread count — that field
//! reflects configuration, every other transcript byte is a function of
//! the script. Floats are printed in Rust's shortest
//! round-trip form, so transcript numbers can be parsed back and compared
//! bit-for-bit against an offline [`QueryBatch`] run.
//!
//! # Protocol
//!
//! One JSON object per line. Blank lines and lines starting with `#` are
//! ignored. Requests:
//!
//! ```text
//! {"id":1,"op":"tkaq","tau":0.3,"q":[0.1,0.2]}
//! {"id":2,"op":"ekaq","eps":0.1,"q":[0.5,0.5],"deadline_ms":5}
//! {"id":3,"op":"within","tol":0.01,"q":[1.0,1.0]}
//! {"op":"flush"}                       dispatch pending requests now
//! {"op":"stats"}                       flush, then report counters
//! {"op":"stats","latency":true}        … plus p50/p99 (non-deterministic)
//! {"op":"shutdown"}                    drain, summarize, stop
//! ```
//!
//! `q` coordinates accept `NaN` / `Infinity` / `-Infinity` tokens, which
//! flow into the engine and come back as typed per-request errors — the
//! hermetic way to script a fault-containment exercise. Responses carry
//! the request's `id` and a `status` of `ok`, `truncated`, `shed`,
//! `rejected` or `error`; see DESIGN.md §16 for the full grammar and the
//! shed-vs-truncate policy table.

use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::time::{Duration, Instant};

use karl_geom::PointSet;

use crate::batch::{resolve_threads, BatchReport, QueryBatch};
use crate::error::KarlError;
use crate::eval::{Budget, Outcome, Query, TruncateReason};
use crate::tuning::AnyEvaluator;

// ---------------------------------------------------------------------------
// Minimal JSON: value model, parser, emit helpers
// ---------------------------------------------------------------------------

/// A parsed JSON value. Dialect note: numbers additionally accept the
/// bare tokens `NaN`, `Infinity` and `-Infinity` (and the writer emits
/// them), so query coordinates round-trip through the wire with full
/// `f64` fidelity — including the non-finite values the fault-containment
/// path exists for.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (possibly NaN/±∞ in this dialect).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key/value list (first occurrence wins on
    /// duplicate keys).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (None on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one JSON value (the wire dialect above) from `s`, rejecting
/// trailing garbage. Errors are human-readable with a byte offset.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b'N') if self.eat("NaN") => Ok(Json::Num(f64::NAN)),
            Some(b'I') if self.eat("Infinity") => Ok(Json::Num(f64::INFINITY)),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-Infinity") => {
                self.pos += "-Infinity".len();
                Ok(Json::Num(f64::NEG_INFINITY))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!(
                "unexpected character {:?} at byte {}",
                b as char, self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched:
                    // find the char at this byte position in the source str.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        token
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {token:?} at byte {start}"))
    }
}

/// Appends `v` to `out` in the wire dialect: Rust's shortest round-trip
/// decimal form for finite values (parsing it back with `str::parse`
/// recovers the exact bits), `NaN` / `Infinity` / `-Infinity` otherwise.
pub fn push_num(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("Infinity");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Infinity");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn push_str_json(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Stats: shared schema, latency histogram
// ---------------------------------------------------------------------------

/// The counter set shared between `karl serve`'s `stats` verb and
/// `karl batch --stats-json` — one schema (`karl-stats-v1`) for both, so
/// dashboards built on batch output read serve metrics unchanged. For a
/// batch run, every query is trivially "admitted" in one micro-batch and
/// the admission-control counters (`rejected`, `shed`, `protocol_errors`)
/// are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Query requests seen (admitted + rejected); batch: the batch size.
    pub queries: u64,
    /// Requests accepted into the pending queue.
    pub admitted: u64,
    /// Requests refused with a typed `Overloaded` rejection.
    pub rejected: u64,
    /// Admitted requests answered under the zero-work shed budget.
    pub shed: u64,
    /// Requests that ran to normal termination (not truncated).
    pub completed: u64,
    /// Requests answered from a certified interval at budget exhaustion
    /// (excluding shed requests, which are counted in `shed`).
    pub truncated: u64,
    /// Requests whose evaluation failed inside the containment boundary
    /// (non-finite coordinates, injected panics).
    pub faulted: u64,
    /// Malformed request lines (unparseable JSON, bad fields, unknown
    /// verbs, wrong dimensionality).
    pub protocol_errors: u64,
    /// Micro-batches dispatched to the engine.
    pub batches: u64,
    /// High-water mark of the pending queue.
    pub queue_depth_max: u64,
    /// Worker threads per micro-batch.
    pub threads: u64,
}

/// Renders the shared `karl-stats-v1` object with a fixed key order (the
/// field order of [`StatsSnapshot`]). Byte-stable: two identical runs
/// produce identical bytes.
pub fn stats_json(s: &StatsSnapshot) -> String {
    let mut out = String::with_capacity(256);
    push_stats_object(&mut out, s, None);
    out
}

/// [`stats_json`] plus the [`RunStats`](crate::eval::RunStats) engine
/// counters as a nested `"run"` object (the `stats` build feature).
#[cfg(feature = "stats")]
pub fn stats_json_with_run(s: &StatsSnapshot, run: &crate::eval::RunStats) -> String {
    let mut out = String::with_capacity(512);
    push_stats_object(&mut out, s, Some(run));
    out
}

#[cfg(not(feature = "stats"))]
type RunRef<'a> = &'a ();
#[cfg(feature = "stats")]
type RunRef<'a> = &'a crate::eval::RunStats;

fn push_stats_object(out: &mut String, s: &StatsSnapshot, run: Option<RunRef<'_>>) {
    let _ = write!(
        out,
        "{{\"schema\":\"karl-stats-v1\",\"queries\":{},\"admitted\":{},\"rejected\":{},\
         \"shed\":{},\"completed\":{},\"truncated\":{},\"faulted\":{},\
         \"protocol_errors\":{},\"batches\":{},\"queue_depth_max\":{},\"threads\":{}",
        s.queries,
        s.admitted,
        s.rejected,
        s.shed,
        s.completed,
        s.truncated,
        s.faulted,
        s.protocol_errors,
        s.batches,
        s.queue_depth_max,
        s.threads
    );
    #[cfg(feature = "stats")]
    if let Some(r) = run {
        let _ = write!(
            out,
            ",\"run\":{{\"nodes_refined\":{},\"envelopes_built\":{},\
             \"curve_value_calls\":{},\"coreset_decided\":{},\
             \"coreset_fallthrough\":{},\"simd_backend\":",
            r.nodes_refined,
            r.envelopes_built,
            r.curve_value_calls,
            r.coreset_decided,
            r.coreset_fallthrough
        );
        push_str_json(out, &r.simd_backend.to_string());
        out.push('}');
    }
    #[cfg(not(feature = "stats"))]
    let _ = run;
    out.push('}');
}

/// A power-of-two-bucket latency histogram (microseconds). Bucket `i`
/// covers `[2^(i-1), 2^i)` µs (bucket 0 is `< 1 µs`); quantiles report
/// the upper edge of the bucket the target rank lands in — coarse, but
/// allocation-free and O(1) per record, which is what a per-request hot
/// path wants.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; 40],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 40],
            count: 0,
        }
    }
}

impl LatencyHistogram {
    /// Records one latency observation.
    pub fn record(&mut self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = if us == 0 {
            0
        } else {
            (64 - us.leading_zeros() as usize).min(self.buckets.len() - 1)
        };
        self.buckets[bucket] += 1;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The upper bucket edge (µs) at quantile `q` in `[0, 1]`; 0 when
    /// empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        1u64 << (self.buckets.len() - 1)
    }
}

/// Serve-side counters: the shared [`StatsSnapshot`] fields plus the
/// latency histogram and (under the `stats` feature) the accumulated
/// engine [`RunStats`](crate::eval::RunStats).
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Query requests seen (admitted + rejected).
    pub queries: u64,
    /// Requests accepted into the pending queue.
    pub admitted: u64,
    /// Requests refused with a typed `Overloaded` rejection.
    pub rejected: u64,
    /// Admitted requests answered under the zero-work shed budget.
    pub shed: u64,
    /// Requests that ran to normal termination.
    pub completed: u64,
    /// Budget-truncated requests (excluding shed).
    pub truncated: u64,
    /// Contained per-request evaluation failures.
    pub faulted: u64,
    /// Malformed request lines.
    pub protocol_errors: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Pending-queue high-water mark.
    pub queue_depth_max: u64,
    /// Admission-to-response latency histogram.
    pub latency: LatencyHistogram,
    /// Engine counters accumulated across micro-batches.
    #[cfg(feature = "stats")]
    pub run: crate::eval::RunStats,
}

impl ServeStats {
    /// The shared-schema counter snapshot (see [`StatsSnapshot`]).
    pub fn snapshot(&self, threads: u64) -> StatsSnapshot {
        StatsSnapshot {
            queries: self.queries,
            admitted: self.admitted,
            rejected: self.rejected,
            shed: self.shed,
            completed: self.completed,
            truncated: self.truncated,
            faulted: self.faulted,
            protocol_errors: self.protocol_errors,
            batches: self.batches,
            queue_depth_max: self.queue_depth_max,
            threads,
        }
    }

    /// Median admission-to-response latency (µs, bucket upper edge).
    pub fn p50_us(&self) -> u64 {
        self.latency.quantile_us(0.50)
    }

    /// 99th-percentile admission-to-response latency (µs, bucket upper
    /// edge).
    pub fn p99_us(&self) -> u64 {
        self.latency.quantile_us(0.99)
    }
}

// ---------------------------------------------------------------------------
// Configuration and server
// ---------------------------------------------------------------------------

/// Admission-control configuration for a [`Server`].
///
/// Invariant (checked by [`Server::new`]): `queue_cap >= 1` and
/// `batch_max >= 1`. The watermarks compose as `shed_at <= queue_cap`
/// for shedding to be reachable (a request is rejected before it could
/// be shed once the queue is full) and `batch_max <= queue_cap` for
/// dispatch to trigger before rejection in steady state; both are
/// allowed to violate those inequalities deliberately — e.g. tests set
/// `batch_max > queue_cap` to force an overflow burst.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission-queue high watermark: at this depth new requests are
    /// rejected with [`KarlError::Overloaded`].
    pub queue_cap: usize,
    /// Shed watermark: at or above this pending depth, new admissions are
    /// answered under the zero-work budget (certified root interval).
    pub shed_at: usize,
    /// Micro-batch size: pending requests are dispatched to the engine as
    /// soon as this many are queued (or on `flush`/`stats`/`shutdown`/EOF).
    pub batch_max: usize,
    /// Worker threads per micro-batch (`None`: `KARL_THREADS`, then
    /// available parallelism — see
    /// [`resolve_threads`](crate::batch::resolve_threads)).
    pub threads: Option<usize>,
    /// Base per-request refinement budget; a request's `deadline_ms`
    /// tightens it via [`Budget::deadline_after`].
    pub budget: Budget,
    /// Emit a `# serve …` summary line to the log sink every N admitted
    /// requests (0: only the final summary).
    pub summary_every: u64,
    /// Injected faults (test-only, feature `fault-inject`), addressed by
    /// **dispatch ordinal**: `(k, fault)` hits the k-th request this
    /// server hands to the engine (0-based, counted across micro-batches
    /// and [`Server::run`] calls).
    #[cfg(feature = "fault-inject")]
    pub faults: Vec<(usize, crate::fault::Fault)>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_cap: 1024,
            shed_at: 768,
            batch_max: 64,
            threads: None,
            budget: Budget::UNLIMITED,
            summary_every: 0,
            #[cfg(feature = "fault-inject")]
            faults: Vec::new(),
        }
    }
}

/// A request admitted to the pending queue.
#[derive(Debug)]
struct Pending {
    id: u64,
    query: Query,
    q: Vec<f64>,
    shed: bool,
    deadline: Option<Duration>,
    admitted_at: Instant,
}

/// A decoded request line.
enum Request {
    Query {
        id: u64,
        query: Query,
        q: Vec<f64>,
        deadline: Option<Duration>,
    },
    Flush,
    Stats {
        id: Option<u64>,
        latency: bool,
    },
    Shutdown {
        id: Option<u64>,
    },
}

/// The online query daemon: wraps an [`AnyEvaluator`] with the
/// admission-control state machine described in the
/// [module docs](crate::serve), generic over its transport
/// (`BufRead` in, `Write` out, plus a log sink for human-facing summary
/// lines that must stay off the response stream).
#[derive(Debug)]
pub struct Server<'a> {
    eval: &'a AnyEvaluator,
    cfg: ServeConfig,
    pending: Vec<Pending>,
    /// Requests handed to the engine so far, in dispatch order; under
    /// `fault-inject` this maps the configured plan's dispatch ordinals
    /// onto each micro-batch's slots.
    dispatched: u64,
    stats: ServeStats,
    shutdown: bool,
}

impl<'a> Server<'a> {
    /// Builds a server over `eval`, validating `cfg`.
    pub fn new(eval: &'a AnyEvaluator, cfg: ServeConfig) -> Result<Self, KarlError> {
        if cfg.queue_cap == 0 {
            return Err(KarlError::InvalidConfig {
                reason: "queue capacity must be at least 1".into(),
            });
        }
        if cfg.batch_max == 0 {
            return Err(KarlError::InvalidConfig {
                reason: "micro-batch size must be at least 1".into(),
            });
        }
        if let Some(0) = cfg.threads {
            return Err(KarlError::InvalidConfig {
                reason: "thread count must be at least 1".into(),
            });
        }
        Ok(Server {
            eval,
            cfg,
            pending: Vec::new(),
            dispatched: 0,
            stats: ServeStats::default(),
            shutdown: false,
        })
    }

    /// The counters accumulated so far (across [`run`](Self::run) calls —
    /// a server reused over several connections keeps counting).
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Whether a `shutdown` request ended the last [`run`](Self::run).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Runs the request loop until `shutdown` or EOF: reads one
    /// newline-delimited JSON request per line from `reader`, writes one
    /// response line per query to `out`, and human-facing summary lines to
    /// `log`. On return every admitted request has been answered exactly
    /// once (graceful drain). Only transport I/O errors abort the loop;
    /// malformed requests and poisoned queries get typed response lines.
    pub fn run<R: BufRead, W: Write, L: Write>(
        &mut self,
        mut reader: R,
        mut out: W,
        mut log: L,
    ) -> io::Result<()> {
        self.shutdown = false;
        let threads = resolve_threads(self.cfg.threads);
        writeln!(
            log,
            "# karl serve ready: {} points x {} dims, queue {} shed {} batch {} threads {}",
            self.eval.len(),
            self.eval.dims(),
            self.cfg.queue_cap,
            self.cfg.shed_at,
            self.cfg.batch_max,
            threads
        )?;
        let mut line = String::new();
        let mut line_no = 0u64;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break; // EOF: drain below.
            }
            line_no += 1;
            let text = line.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            let value = match parse_json(text) {
                Ok(v) => v,
                Err(reason) => {
                    self.stats.protocol_errors += 1;
                    let e = KarlError::Protocol { reason };
                    write_error_line(&mut out, None, Some(line_no), &e)?;
                    continue;
                }
            };
            match decode_request(&value, self.eval.dims()) {
                Err((id, e)) => {
                    self.stats.protocol_errors += 1;
                    write_error_line(&mut out, id, Some(line_no), &e)?;
                }
                Ok(Request::Query {
                    id,
                    query,
                    q,
                    deadline,
                }) => {
                    self.stats.queries += 1;
                    if self.pending.len() >= self.cfg.queue_cap {
                        self.stats.rejected += 1;
                        let e = KarlError::Overloaded {
                            capacity: self.cfg.queue_cap,
                        };
                        let mut resp = String::with_capacity(64);
                        let _ = write!(resp, "{{\"id\":{id},\"status\":\"rejected\",\"error\":");
                        push_str_json(&mut resp, &e.to_string());
                        resp.push_str("}\n");
                        out.write_all(resp.as_bytes())?;
                        out.flush()?;
                        continue;
                    }
                    let shed = self.pending.len() >= self.cfg.shed_at;
                    if shed {
                        self.stats.shed += 1;
                    }
                    self.stats.admitted += 1;
                    self.pending.push(Pending {
                        id,
                        query,
                        q,
                        shed,
                        deadline,
                        admitted_at: Instant::now(),
                    });
                    self.stats.queue_depth_max =
                        self.stats.queue_depth_max.max(self.pending.len() as u64);
                    if self.pending.len() >= self.cfg.batch_max {
                        self.flush(&mut out)?;
                    }
                    if self.cfg.summary_every > 0
                        && self.stats.admitted.is_multiple_of(self.cfg.summary_every)
                    {
                        self.write_summary(&mut log, threads)?;
                    }
                }
                Ok(Request::Flush) => self.flush(&mut out)?,
                Ok(Request::Stats { id, latency }) => {
                    // Flush first so the counters describe a settled queue
                    // (and the response order stays deterministic).
                    self.flush(&mut out)?;
                    let mut resp = String::with_capacity(256);
                    resp.push('{');
                    if let Some(id) = id {
                        let _ = write!(resp, "\"id\":{id},");
                    }
                    resp.push_str("\"status\":\"stats\"");
                    if latency {
                        let _ = write!(
                            resp,
                            ",\"p50_us\":{},\"p99_us\":{}",
                            self.stats.p50_us(),
                            self.stats.p99_us()
                        );
                    }
                    resp.push_str(",\"stats\":");
                    let snap = self.stats.snapshot(threads as u64);
                    #[cfg(feature = "stats")]
                    resp.push_str(&stats_json_with_run(&snap, &self.stats.run));
                    #[cfg(not(feature = "stats"))]
                    resp.push_str(&stats_json(&snap));
                    resp.push_str("}\n");
                    out.write_all(resp.as_bytes())?;
                    out.flush()?;
                }
                Ok(Request::Shutdown { id }) => {
                    let draining = self.pending.len();
                    self.flush(&mut out)?;
                    let mut resp = String::with_capacity(64);
                    resp.push('{');
                    if let Some(id) = id {
                        let _ = write!(resp, "\"id\":{id},");
                    }
                    let _ = write!(
                        resp,
                        "\"status\":\"shutdown\",\"admitted\":{},\"drained\":{draining}}}",
                        self.stats.admitted
                    );
                    resp.push('\n');
                    out.write_all(resp.as_bytes())?;
                    out.flush()?;
                    self.shutdown = true;
                    break;
                }
            }
        }
        // Graceful drain: stop admitting (the loop has exited), answer
        // everything already admitted, summarize.
        self.flush(&mut out)?;
        self.write_summary(&mut log, threads)?;
        Ok(())
    }

    /// Dispatches every pending request as micro-batch groups and writes
    /// the responses in admission order.
    fn flush<W: Write>(&mut self, out: &mut W) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let pend = std::mem::take(&mut self.pending);
        self.stats.batches += 1;
        let dims = self.eval.dims();
        let mut responses: Vec<String> = vec![String::new(); pend.len()];
        // Group by (query spec, effective budget): the engine evaluates
        // one spec per batch. Groups preserve first-seen order, members
        // preserve admission order, and responses are written back in
        // admission order regardless of grouping.
        let mut groups: Vec<(Query, Budget, Vec<usize>)> = Vec::new();
        for (i, p) in pend.iter().enumerate() {
            let budget = self.effective_budget(p);
            match groups
                .iter_mut()
                .find(|(q, b, _)| *q == p.query && *b == budget)
            {
                Some((_, _, members)) => members.push(i),
                None => groups.push((p.query, budget, vec![i])),
            }
        }
        for (query, budget, members) in &groups {
            let mut flat = Vec::with_capacity(members.len() * dims);
            for &i in members {
                flat.extend_from_slice(&pend[i].q);
            }
            let queries = PointSet::new(dims, flat);
            let mut spec = QueryBatch::new(&queries, *query).budget(*budget);
            if let Some(t) = self.cfg.threads {
                spec = spec.threads(t);
            }
            #[cfg(feature = "fault-inject")]
            {
                let base = self.dispatched as usize;
                let slots = base..base + members.len();
                let plan: Vec<_> = self
                    .cfg
                    .faults
                    .iter()
                    .filter(|(ord, _)| slots.contains(ord))
                    .map(|&(ord, f)| (ord - base, f))
                    .collect();
                spec = spec.faults(&plan);
            }
            match spec.try_run_any(self.eval) {
                Ok(report) => {
                    #[cfg(feature = "stats")]
                    self.stats.run.merge(&report.stats());
                    for (slot, &i) in members.iter().enumerate() {
                        responses[i] =
                            render_response(&pend[i], *query, &report, slot, &mut self.stats);
                    }
                }
                Err(e) => {
                    // Batch-level defects cannot occur here (dims and spec
                    // are validated at admission), but if one ever does,
                    // degrade it to per-request typed errors rather than
                    // killing the daemon.
                    for &i in members {
                        self.stats.faulted += 1;
                        responses[i] = error_response(pend[i].id, &e);
                    }
                }
            }
            self.dispatched += members.len() as u64;
        }
        for (i, resp) in responses.iter().enumerate() {
            self.stats.latency.record(pend[i].admitted_at.elapsed());
            out.write_all(resp.as_bytes())?;
        }
        out.flush()
    }

    /// The budget a pending request runs under: the zero-work shed budget
    /// for shed requests, the base budget tightened by the remaining
    /// deadline for deadline requests, the base budget otherwise.
    fn effective_budget(&self, p: &Pending) -> Budget {
        if p.shed {
            return Budget::unlimited().max_nodes(0);
        }
        match p.deadline {
            Some(total) => self.cfg.budget.deadline_after(total, p.admitted_at.elapsed()),
            None => self.cfg.budget,
        }
    }

    fn write_summary<L: Write>(&self, log: &mut L, threads: usize) -> io::Result<()> {
        writeln!(
            log,
            "# serve admitted {} rejected {} shed {} completed {} truncated {} faulted {} \
             protocol_errors {} batches {} depth_max {} threads {} p50_us {} p99_us {}",
            self.stats.admitted,
            self.stats.rejected,
            self.stats.shed,
            self.stats.completed,
            self.stats.truncated,
            self.stats.faulted,
            self.stats.protocol_errors,
            self.stats.batches,
            self.stats.queue_depth_max,
            threads,
            self.stats.p50_us(),
            self.stats.p99_us()
        )
    }
}

// ---------------------------------------------------------------------------
// Request decoding and response rendering
// ---------------------------------------------------------------------------

fn proto(reason: impl Into<String>) -> KarlError {
    KarlError::Protocol {
        reason: reason.into(),
    }
}

/// Extracts a non-negative integer id (exact in f64) from a member.
fn decode_id(v: &Json) -> Result<u64, KarlError> {
    let n = v
        .as_f64()
        .ok_or_else(|| proto("\"id\" must be a number"))?;
    if !(n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0) {
        return Err(proto(format!("\"id\" must be a non-negative integer (got {n})")));
    }
    Ok(n as u64)
}

fn decode_request(value: &Json, dims: usize) -> Result<Request, (Option<u64>, KarlError)> {
    if !matches!(value, Json::Obj(_)) {
        return Err((None, proto("request must be a JSON object")));
    }
    let id = match value.get("id") {
        None => None,
        Some(v) => Some(decode_id(v).map_err(|e| (None, e))?),
    };
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| (id, proto("missing \"op\" string")))?;
    match op {
        "flush" => Ok(Request::Flush),
        "shutdown" => Ok(Request::Shutdown { id }),
        "stats" => {
            let latency = value
                .get("latency")
                .map(|v| v.as_bool().ok_or_else(|| (id, proto("\"latency\" must be a bool"))))
                .transpose()?
                .unwrap_or(false);
            Ok(Request::Stats { id, latency })
        }
        "tkaq" | "ekaq" | "within" => {
            let id = id.ok_or_else(|| (None, proto("query requests need an \"id\"")))?;
            let fail = |e: KarlError| (Some(id), e);
            let param = |key: &str| -> Result<f64, (Option<u64>, KarlError)> {
                value
                    .get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| fail(proto(format!("\"{op}\" needs a numeric \"{key}\""))))
            };
            let query = match op {
                "tkaq" => Query::Tkaq { tau: param("tau")? },
                "ekaq" => Query::Ekaq { eps: param("eps")? },
                _ => Query::Within { tol: param("tol")? },
            };
            crate::error::validate_spec(query).map_err(fail)?;
            let coords = value
                .get("q")
                .and_then(Json::as_arr)
                .ok_or_else(|| fail(proto("missing \"q\" coordinate array")))?;
            let mut q = Vec::with_capacity(coords.len());
            for c in coords {
                q.push(
                    c.as_f64()
                        .ok_or_else(|| fail(proto("\"q\" must contain only numbers")))?,
                );
            }
            // Wrong dimensionality is a batch-level defect in the engine,
            // so it must be rejected here, per request. Non-finite
            // coordinates pass through on purpose: the engine contains
            // them per slot.
            if q.len() != dims {
                return Err((
                    Some(id),
                    KarlError::DimMismatch {
                        expected: dims,
                        got: q.len(),
                    },
                ));
            }
            let deadline = match value.get("deadline_ms") {
                None => None,
                Some(v) => {
                    let ms = v
                        .as_f64()
                        .filter(|ms| ms.is_finite() && *ms >= 0.0)
                        .ok_or_else(|| {
                            fail(proto("\"deadline_ms\" must be a non-negative number"))
                        })?;
                    Some(Duration::from_secs_f64(ms / 1000.0))
                }
            };
            Ok(Request::Query {
                id,
                query,
                q,
                deadline,
            })
        }
        other => Err((id, proto(format!("unknown op {other:?}")))),
    }
}

fn reason_str(reason: TruncateReason) -> &'static str {
    match reason {
        TruncateReason::NodeBudget => "nodes",
        TruncateReason::LeafBudget => "leaf-points",
        TruncateReason::Deadline => "deadline",
    }
}

fn error_response(id: u64, e: &KarlError) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"id\":{id},\"status\":\"error\",\"error\":");
    push_str_json(&mut s, &e.to_string());
    s.push_str("}\n");
    s
}

fn write_error_line<W: Write>(
    out: &mut W,
    id: Option<u64>,
    line: Option<u64>,
    e: &KarlError,
) -> io::Result<()> {
    let mut s = String::with_capacity(96);
    s.push('{');
    if let Some(id) = id {
        let _ = write!(s, "\"id\":{id},");
    }
    s.push_str("\"status\":\"error\",");
    if let Some(line) = line {
        let _ = write!(s, "\"line\":{line},");
    }
    s.push_str("\"error\":");
    push_str_json(&mut s, &e.to_string());
    s.push_str("}\n");
    out.write_all(s.as_bytes())?;
    out.flush()
}

/// Renders the response line for one request slot of a finished
/// micro-batch, updating the outcome counters.
fn render_response(
    p: &Pending,
    query: Query,
    report: &BatchReport,
    slot: usize,
    stats: &mut ServeStats,
) -> String {
    match &report.results()[slot] {
        Err(e) => {
            stats.faulted += 1;
            error_response(p.id, e)
        }
        Ok(outcome) => {
            let mut s = String::with_capacity(96);
            let _ = write!(s, "{{\"id\":{}", p.id);
            if outcome.is_truncated() {
                // Shed requests report "shed" (policy truncation); organic
                // budget exhaustion reports "truncated" with the reason.
                if p.shed {
                    s.push_str(",\"status\":\"shed\"");
                } else {
                    stats.truncated += 1;
                    s.push_str(",\"status\":\"truncated\"");
                    if let Outcome::Truncated { reason, .. } = outcome {
                        let _ = write!(s, ",\"reason\":\"{}\"", reason_str(*reason));
                    }
                }
                // TKAQ cannot answer honestly from a straddling interval
                // (the batch CLI prints `?`); eKAQ/Within degrade to the
                // certified midpoint.
                if !matches!(query, Query::Tkaq { .. }) {
                    s.push_str(",\"answer\":");
                    push_num(&mut s, report.answer(outcome));
                }
                s.push_str(",\"lb\":");
                push_num(&mut s, outcome.lb());
                s.push_str(",\"ub\":");
                push_num(&mut s, outcome.ub());
            } else {
                // A shed request whose root interval already decided the
                // query completed honestly with zero work — that is an
                // "ok", not a degradation.
                stats.completed += 1;
                s.push_str(",\"status\":\"ok\",\"answer\":");
                push_num(&mut s, report.answer(outcome));
            }
            s.push_str("}\n");
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_shortest_form() {
        let v = parse_json("{\"a\":[1,2.5,-3e-2,NaN,Infinity,-Infinity],\"b\":\"x\\n\"}").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert!(arr[3].as_f64().unwrap().is_nan());
        assert_eq!(arr[4].as_f64(), Some(f64::INFINITY));
        assert_eq!(arr[5].as_f64(), Some(f64::NEG_INFINITY));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\n"));

        let mut out = String::new();
        push_num(&mut out, 0.1 + 0.2);
        assert_eq!(out.parse::<f64>().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("nope").is_err());
    }

    #[test]
    fn stats_schema_is_byte_stable_and_ordered() {
        let snap = StatsSnapshot {
            queries: 9,
            admitted: 7,
            rejected: 2,
            shed: 1,
            completed: 5,
            truncated: 1,
            faulted: 1,
            protocol_errors: 0,
            batches: 2,
            queue_depth_max: 4,
            threads: 2,
        };
        let a = stats_json(&snap);
        assert_eq!(a, stats_json(&snap));
        assert!(a.starts_with("{\"schema\":\"karl-stats-v1\",\"queries\":9,"));
        let order = [
            "queries", "admitted", "rejected", "shed", "completed", "truncated", "faulted",
            "protocol_errors", "batches", "queue_depth_max", "threads",
        ];
        let mut last = 0;
        for key in order {
            let pos = a.find(&format!("\"{key}\":")).expect(key);
            assert!(pos > last, "{key} out of order in {a}");
            last = pos;
        }
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        let mut h = LatencyHistogram::default();
        for us in [1u64, 3, 3, 9, 80, 700, 700, 700, 6000, 50_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_us(0.5);
        let p99 = h.quantile_us(0.99);
        assert!(p50 <= p99);
        // Rank-5 value is 80 µs → bucket [64, 128); rank-10 is 50 ms.
        assert_eq!(p50, 128, "p50 bucket edge");
        assert_eq!(p99, 65_536, "p99 bucket edge");
    }
}
