//! Result plumbing: metrics, percentiles, the span log of traced runs,
//! host counters and provenance.

use std::fmt::Write as _;
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run hands back to `main`.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations (queries or requests) issued in the measured region.
    pub attempted: u64,
    /// Of those: typed errors, rejected, shed and truncated answers, and
    /// answers that failed a correctness check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Workload parameters and input digest, as JSON members.
    pub params: String,
    /// Human-readable notes on failed checks.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn problem(&mut self, p: String) {
        self.correct = false;
        if self.problems.len() < 20 {
            self.problems.push(p);
        }
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// One traced call: `[start, end]` in ns since the log's origin, the
/// index of the causing span, and the request id for serve spans.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: Option<u64>,
}

/// In-memory span log, written out once when the workload ends. A
/// disabled log records nothing (untraced runs).
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span; returns its index (for children), or `None` when
    /// tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        req: Option<u64>,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        Some(self.spans.len() as u32 - 1)
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(name, t0, t1, None, None);
        (out, (t1 - t0).as_secs_f64())
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 96);
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                sp.name, sp.start_ns, sp.end_ns
            );
            if let Some(p) = sp.parent {
                let _ = write!(s, ",\"parent\":{p}");
            }
            if let Some(r) = sp.req {
                let _ = write!(s, ",\"req\":{r}");
            }
            s.push_str("}\n");
        }
        s
    }
}

/// Host counters sampled around the measured region.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    cpu_total: u64,
    cpu_steal: u64,
    run_delay_ns: u64,
}

impl HostSample {
    /// `/proc/stat`'s aggregate cpu line and this thread's runqueue wait
    /// (`/proc/thread-self/schedstat`); zeros where unavailable.
    pub fn now() -> Self {
        let mut s = HostSample::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/stat") {
            if let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) {
                let f: Vec<u64> = line
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|x| x.parse().ok())
                    .collect();
                s.cpu_total = f.iter().sum();
                s.cpu_steal = f.get(7).copied().unwrap_or(0);
            }
        }
        if let Ok(sched) = std::fs::read_to_string("/proc/thread-self/schedstat") {
            s.run_delay_ns = sched
                .split_whitespace()
                .nth(1)
                .and_then(|x| x.parse().ok())
                .unwrap_or(0);
        }
        s
    }

    /// Share of all CPU time the hypervisor stole between `self` and
    /// `later`.
    pub fn steal_frac(&self, later: &HostSample) -> f64 {
        let total = later.cpu_total.saturating_sub(self.cpu_total);
        if total == 0 {
            return 0.0;
        }
        later.cpu_steal.saturating_sub(self.cpu_steal) as f64 / total as f64
    }

    /// Runqueue wait of the measuring thread between the samples (ms).
    pub fn runqueue_wait_ms(&self, later: &HostSample) -> f64 {
        later.run_delay_ns.saturating_sub(self.run_delay_ns) as f64 / 1e6
    }
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hands memory freed by earlier set-up repetitions back to the system,
/// then restarts the peak-resident-set count (`VmHWM`) from the current
/// resident set. The peak reported is then that of a process that built
/// its evaluator once: without the trim, the allocator keeps the dropped
/// evaluators' pages resident, by an amount that depends on allocation
/// order rather than on the program's needs.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be
        // called at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The checkout's git revision, read from `.git` when the checkout is a
/// repository; `"unknown"` otherwise.
pub fn git_revision() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(root.join(".git/packed-refs")).map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// `uname -srvm` equivalent from `/proc/sys/kernel`.
pub fn uname() -> String {
    let read = |f: &str| {
        std::fs::read_to_string(format!("/proc/sys/kernel/{f}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };
    format!(
        "{} {} {} {}",
        read("ostype"),
        read("osrelease"),
        read("version"),
        std::env::consts::ARCH
    )
}

/// Appends `"key":"value"` (JSON-escaped) to a members list.
pub fn push_str_member(out: &mut String, key: &str, value: &str) {
    if !out.is_empty() {
        out.push(',');
    }
    let _ = write!(out, "\"{key}\":\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `"key":number` to a members list (non-finite as `null`).
pub fn push_num_member(out: &mut String, key: &str, value: f64) {
    if !out.is_empty() {
        out.push(',');
    }
    if value.is_finite() {
        let _ = write!(out, "\"{key}\":{value}");
    } else {
        let _ = write!(out, "\"{key}\":null");
    }
}
