//! Runs the benchmark binary at self-test sizes (`--size tiny`), through
//! the same path as the command of record: `serve_open` prepares its index
//! and takes its set-up samples in child processes.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["kde_ekaq", "svm_tkaq", "serve_open"];

/// Runs one workload; returns the result line after checking that the run
/// succeeded and passed its checks.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_karl-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.4", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny"])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("text output");
    assert!(
        out.status.success(),
        "{workload}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(last.starts_with("{\"correct\":true,"), "{workload}: {last}");
    assert!(last.contains("\"failed\":0,"), "{workload}: {last}");
    assert!(!last.contains("\"attempted\":0,"), "{workload}: {last}");
    last
}

/// The value of metric `name` in a result line.
fn metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// The metric names of one `BENCHMARK.json` section.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let body = text
        .split(&format!("\"{section}\":"))
        .nth(1)
        .and_then(|s| s.split(']').next())
        .expect("the section is listed");
    body.split("\"name\":")
        .skip(1)
        .filter_map(|s| {
            Some(
                s.trim_start()
                    .strip_prefix('"')?
                    .split('"')
                    .next()?
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn tiny_smoke_runs_are_correct_and_fail_nothing() {
    let names = listed("end_to_end");
    assert!(names.len() >= 6);
    for workload in WORKLOADS {
        let line = run(workload, 7, false);
        for m in &names {
            let v = metric(&line, m).unwrap_or_else(|| panic!("{workload} lacks {m}"));
            assert!(v.is_finite() && v > 0.0, "{workload} {m} = {v}");
        }
    }
}

#[test]
fn serve_seed_baseline_never_sheds() {
    let line = run("serve_open", 8, true);
    assert_eq!(metric(&line, "serve.shed"), Some(0.0));
    assert_eq!(metric(&line, "serve.rejected"), Some(0.0));
    let depth = metric(&line, "serve.queue_depth_max").expect("reported");
    assert!((1.0..=64.0).contains(&depth), "queue depth {depth}");
    let oversleep = metric(&line, "gen.oversleep_us_p99").expect("oversleep is reported");
    assert!(oversleep.is_finite() && oversleep >= 0.0);
}

#[test]
fn counts_repeat_exactly_across_runs() {
    let names = listed("per_layer");
    for (workload, counts) in [
        (
            "kde_ekaq",
            &["eval.iters_total", "serve.batches", "serve.queue_depth_max"][..],
        ),
        ("svm_tkaq", &["eval.iters_total"][..]),
        (
            "serve_open",
            &[
                "eval.iters_total",
                "serve.batches",
                "serve.batch_size_mean",
                "serve.queue_depth_max",
                "serve.shed",
                "serve.rejected",
            ][..],
        ),
    ] {
        let a = run(workload, 9, true);
        let b = run(workload, 9, true);
        for c in counts {
            assert!(metric(&a, c).is_some(), "{workload} {c}");
            assert_eq!(metric(&a, c), metric(&b, c), "{workload} {c}");
        }
        for m in &names {
            assert!(
                metric(&a, m).is_some_and(f64::is_finite),
                "{workload} lacks {m}"
            );
        }
    }
}
