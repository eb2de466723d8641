//! The KARL benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload kde_ekaq|svm_tkaq|serve_open --seed N --seconds S --trace 0|1 \
//!     [--size full|tiny]
//! ```
//!
//! Prints a provenance line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when
//! an output check fails. See `benchmark/README.md`.

mod batch;
mod gen;
mod layers;
mod report;
mod serve;
mod speed;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, SpanLog};

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("goodput_frac", "frac"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics and their units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("tree.build_s", "s"),
    ("tree.freeze_s", "s"),
    ("index.load_s", "s"),
    ("index.bytes", "bytes"),
    ("eval.iters_per_query", "count"),
    ("eval.iters_total", "count"),
    ("eval.query_us_p50", "us"),
    ("eval.query_us_p99", "us"),
    ("eval.ns_per_iter", "ns"),
    ("eval.fixed_us", "us"),
    ("bounds.ns_per_node", "ns"),
    ("envelope.ns_per_call", "ns"),
    ("leaf.ns_per_point", "ns"),
    ("batch.overhead_frac", "frac"),
    ("batch.speedup_2t", "x"),
    ("serve.backlog_ms_p50", "ms"),
    ("serve.backlog_ms_p99", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p99", "ms"),
    ("serve.overhead_us_p50", "us"),
    ("serve.engine_busy_frac", "frac"),
    ("serve.parse_us", "us"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("gen.oversleep_us_p99", "us"),
    ("host.steal_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
];

/// One invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test sizes (`--size tiny`); the benchmark of record runs
    /// full size.
    pub tiny: bool,
}

/// The benchmark's scratch directory inside the checkout.
pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&dir).expect("the benchmark's work directory can be created");
    dir
}

/// A per-process file in the work directory.
pub fn work_file(tag: &str) -> PathBuf {
    work_dir().join(format!("{tag}-{}.bin", std::process::id()))
}

pub fn run_workload(name: &str, run: &Run, log: &mut SpanLog) -> Option<Outcome> {
    let mut out = match name {
        "kde_ekaq" => batch::run(&batch::Spec::kde_ekaq(run.tiny), run, log),
        "svm_tkaq" => batch::run(&batch::Spec::svm_tkaq(run.tiny), run, log),
        "serve_open" => serve::run(&serve::Spec::new(run.tiny), run, log),
        _ => return None,
    };
    out.metric("trace.spans", log.spans.len() as f64, "count");
    Some(out)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: karl-perfbench --workload kde_ekaq|svm_tkaq|serve_open --seed N --seconds S \
         --trace 0|1 [--size full|tiny]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("prepare-serve-index") => return serve::prepare_main(&args[1..]),
        Some("load-serve-index") => return serve::load_main(&args[1..]),
        _ => {}
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = Some(false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next();
        match (flag.as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v.clone()),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            ("--trace", Some(v)) => trace = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            ("--size", Some(v)) => {
                tiny = matches!(v.as_str(), "full" | "tiny").then(|| v == "tiny")
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(tiny)) =
        (workload, seed, seconds, trace, tiny)
    else {
        return usage();
    };
    let run = Run {
        seed,
        seconds,
        trace,
        tiny,
    };
    let mut log = SpanLog::new(trace);
    let Some(mut out) = run_workload(&workload, &run, &mut log) else {
        return usage();
    };

    let mut prov = String::new();
    report::push_str_member(&mut prov, "workload", &workload);
    report::push_num_member(&mut prov, "seed", seed as f64);
    report::push_num_member(&mut prov, "seconds", seconds);
    report::push_num_member(&mut prov, "trace", trace as u8 as f64);
    report::push_str_member(&mut prov, "size", if tiny { "tiny" } else { "full" });
    report::push_num_member(
        &mut prov,
        "available_parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    report::push_str_member(&mut prov, "simd_backend", karl_geom::backend_name());
    for var in ["KARL_SIMD", "KARL_THREADS"] {
        if let Ok(v) = std::env::var(var) {
            report::push_str_member(&mut prov, &format!("env_{var}"), &v);
        }
    }
    report::push_str_member(&mut prov, "git_revision", &report::git_revision());
    report::push_str_member(&mut prov, "uname", &report::uname());
    if trace {
        let path = work_dir().join(format!("spans-{workload}-seed{seed}.jsonl"));
        if std::fs::write(&path, log.to_jsonl()).is_ok() {
            report::push_str_member(&mut prov, "span_dump", &path.display().to_string());
        }
    }
    println!("{{\"provenance\":{{{prov},{}}}}}", out.params);

    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for &(name, unit) in names {
        let m = out.metrics.iter().find(|m| m.name == name);
        let Some(m) = m.filter(|m| m.value.is_finite() && m.unit == unit) else {
            out.problem(format!(
                "metric {name} is missing, not finite, or not in {unit}"
            ));
            continue;
        };
        if !metrics.is_empty() {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.value, m.unit
        ));
    }
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    for m in &out.metrics {
        eprintln!("{:>24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "{:>24} {:>16.6} (failed {} of {} attempted)",
        "fail_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.correct, out.attempted, out.failed
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_digests_follow_the_seed() {
        let spec = batch::Spec::svm_tkaq(true);
        let a = batch::inputs(&spec, 1).digest.hex();
        let b = batch::inputs(&spec, 1).digest.hex();
        let c = batch::inputs(&spec, 2).digest.hex();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let kde = batch::Spec::kde_ekaq(true);
        assert_eq!(
            batch::inputs(&kde, 3).digest.hex(),
            batch::inputs(&kde, 3).digest.hex()
        );
        assert_ne!(
            batch::inputs(&kde, 3).digest.hex(),
            batch::inputs(&kde, 4).digest.hex()
        );
        let s = serve::Spec::new(true);
        let d = |seed| {
            let sc = serve::script(&s, seed, 2.0, 0.1);
            let mut g = gen::Digest::default();
            g.f64s(&sc.points.data);
            for a in &sc.arrivals {
                g.u64(a.due.as_nanos() as u64);
                g.u64(a.count as u64);
            }
            g.hex()
        };
        assert_eq!(d(5), d(5));
        assert_ne!(d(5), d(6));
    }

    #[test]
    fn schedule_mean_rate_matches_the_configured_rate() {
        let spec = serve::Spec::new(false);
        let sc = serve::script(&spec, 11, 50.0, 0.1);
        let last = sc
            .arrivals
            .last()
            .expect("non-empty schedule")
            .due
            .as_secs_f64();
        let rate = sc.arrivals.len() as f64 / last;
        assert!(
            (rate / spec.rate - 1.0).abs() < 0.03,
            "realised {rate} vs {}",
            spec.rate
        );
        let bulk = sc.arrivals.iter().filter(|a| a.count > 1).count();
        assert_eq!(bulk, sc.arrivals.len() / spec.bulk_every);
        let ekaq = sc
            .queries
            .iter()
            .filter(|q| matches!(q, karl_core::Query::Ekaq { .. }))
            .count();
        assert_eq!(ekaq, sc.queries.len() / 4);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let field = |key: &str| -> Vec<String> {
            text.split(key)
                .skip(1)
                .filter_map(|s| Some(s.trim_start().strip_prefix('"')?.split('"').next()?.into()))
                .collect()
        };
        // The workloads of record; `serve_open` runs on request and inside
        // `kde_ekaq`'s traced run.
        let mut names = vec!["kde_ekaq", "svm_tkaq"];
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0));
        let units: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.1).collect();
        assert_eq!(field("\"name\":"), names);
        assert_eq!(field("\"unit\":"), units);
    }
}
