//! # karl-cli — command-line interface to the KARL library
//!
//! Subcommands:
//!
//! * `datasets` — list the paper's synthetic dataset registry.
//! * `generate` — write a registry dataset to CSV.
//! * `kde` — answer density queries (TKAQ or eKAQ) over a CSV dataset.
//! * `batch` — the same queries through the parallel batch engine.
//! * `serve` — the online query daemon: newline-delimited JSON requests
//!   with admission control, load shedding and graceful degradation.
//! * `coreset` — build a certified coreset and report its error certificate.
//! * `index` — build a persistent index file, inspect one, and serve
//!   `batch --index` queries from it with zero-copy loading.
//! * `svm-train` — train a C-SVC / one-class model, save LIBSVM format.
//! * `svm-predict` — classify queries with a saved model through KARL.
//! * `tune` — run the offline index tuner and print the grid report.
//!
//! Run `karl` with no arguments for usage. The [`run`] entry point is a
//! pure function from arguments to output, which is how the test suite
//! drives it.

pub mod args;
pub mod commands;

use args::Parsed;

/// Usage text shown on errors and `karl help`.
pub const USAGE: &str = "\
usage: karl <command> [flags]

commands:
  datasets                          list the synthetic dataset registry
  generate  --name N --n COUNT --out FILE [--labeled]
  kde       --data FILE --queries FILE (--tau T | --eps E)
            [--method karl|sota] [--leaf CAP] [--gamma G]
  batch     (--data FILE | --index FILE) --queries FILE
            (--tau T | --eps E | --tol W)
            [--method karl|sota] [--leaf CAP] [--gamma G] [--threads N]
            [--engine frozen|pointer] [--stats]
            [--budget-nodes N] [--budget-leaf P] [--deadline-ms MS]
            [--coreset EPS] [--simd auto|avx2|scalar] [--stats-json FILE]
            parallel batch engine; KARL_THREADS env sets the default N;
            frozen (default) is the SoA index, bitwise equal to pointer;
            --stats prints run counters (needs the `stats` build feature);
            budget flags bound each query's refinement (nodes refined,
            leaf points scanned, wall-clock deadline) — queries that hit
            a budget stop early and answer from the certified interval
            they reached (TKAQ prints '?' when still undecided); a
            contained per-query failure prints an '# error' line and the
            process exits 2 — exit codes: 0 = clean (budget-truncated
            answers included), 1 = command error (bad flags, unreadable
            files, invalid parameters), 2 = contained per-query failures;
            --stats-json FILE writes the run's counters to FILE as one
            karl-stats-v1 JSON object — the same schema `karl serve`
            reports — with no timing fields, so identical runs write
            identical bytes;
            --coreset EPS (default off) builds a certified coreset with
            per-unit-weight error EPS and answers TKAQ/eKAQ on the small
            tier first, widening by the certificate and falling through
            to the full tree only when undecided — TKAQ decisions are
            identical, eKAQ stays within the requested relative error,
            Within bypasses the tier (bitwise identical);
            --simd (default auto; KARL_SIMD env sets the default) picks
            the kernel backend — explicit AVX2 vectors or portable
            scalar code — a pure perf switch, every backend produces
            bitwise-identical answers;
            --index FILE answers from a persistent index built by
            `karl index build` instead of --data: the file is loaded
            zero-copy (kernel, method and leaf capacity come from the
            index metadata, so those flags and --gamma are rejected) and
            answers are byte-identical to a --data run with the same
            build parameters
  serve     (--stdio | --listen ADDR) (--data FILE | --index FILE)
            [--method karl|sota] [--leaf CAP] [--gamma G] [--threads N]
            [--queue CAP] [--shed AT] [--batch MAX] [--budget-nodes N]
            [--budget-leaf P] [--summary-every N] [--simd auto|avx2|scalar]
            online query daemon: one JSON request per stdin line, one
            typed response line per request on stdout (DESIGN.md §16 has
            the grammar); admits up to --queue pending requests (default
            1024; overflow gets a typed 'rejected' line), sheds load at
            --shed pending (default 3/4 of the queue) by answering from
            the certified root interval with zero refinement work, and
            coalesces micro-batches of --batch requests (default 64)
            for the parallel engine; a request's 'deadline_ms' shrinks
            its refinement budget by the time it waited in the queue
            (already-expired deadlines do zero work); 'shutdown' or EOF
            drains every admitted request and prints a final summary to
            stderr; same exit codes as batch (2 = some requests
            faulted, each with its own typed error line);
            --listen ADDR serves the identical protocol over TCP, one
            connection at a time (needs the `net` build feature;
            --stdio is always available)
  index     build DATA OUT [--profile memory|disk] [--family kd|ball]
            [--leaf CAP] [--gamma G] [--method karl|sota]
            build the evaluator over DATA (weights 1/n, Gaussian kernel)
            and save it to OUT in the versioned zero-copy format;
            family/leaf default to the storage-aware cost model for
            --profile (default memory, calibrated on this machine; disk
            uses canned cold-storage constants) — explicit --family or
            --leaf override the model
  index     info PATH
            print the header, decoded build metadata, and the per-section
            byte breakdown of an index file (validates the checksum)
  coreset   build --data FILE --eps E [--gamma G]
            [--kernel rbf|laplacian] [--leaf CAP]
            build a certified coreset and report its size, analytic
            certificate eps_c, the measured discrepancy on held-out
            probes, and the frozen tier footprint (construction is
            deterministic; `batch --coreset` rebuilds it inline)
  svm-train --data FILE --svm csvc|oneclass --out MODEL
            [--format csv-last|csv-first|libsvm] [--c C] [--nu NU]
            [--kernel rbf|poly|sigmoid|laplacian] [--gamma G]
            [--degree D] [--coef0 B]
  svm-predict --model MODEL --queries FILE
            [--method karl|sota|scan] [--leaf CAP]
  tune      --data FILE --queries FILE (--tau T | --eps E)
            [--method karl|sota]
";

/// Output of one CLI invocation: the stdout payload plus how many
/// individual queries failed inside an otherwise-successful `batch` or
/// `serve` command (always `0` for the other commands). The binary maps
/// a nonzero `failed_queries` to exit code 2 so scripts can tell a
/// partially-poisoned run from a clean one without parsing stdout:
/// 0 = clean (budget-truncated answers included), 1 = command error,
/// 2 = contained per-query failures.
#[derive(Debug, Clone)]
pub struct CmdOutput {
    /// What to print on stdout.
    pub text: String,
    /// Per-query failures contained by the batch engine.
    pub failed_queries: usize,
}

impl CmdOutput {
    fn clean(text: String) -> Self {
        CmdOutput {
            text,
            failed_queries: 0,
        }
    }
}

/// Entry point: parses `args`, dispatches, and returns the stdout payload
/// plus the count of contained per-query failures.
pub fn run_report(args: &[String]) -> Result<CmdOutput, String> {
    let parsed = Parsed::parse(args).map_err(|e| e.to_string())?;
    let command = parsed.command.as_deref();
    if let Some(action) = parsed.action.as_deref() {
        if !matches!(command, Some("coreset") | Some("index")) {
            return Err(format!("unexpected argument {action:?}"));
        }
    }
    if let Some(operand) = parsed.rest.first() {
        if command != Some("index") {
            return Err(format!("unexpected argument {operand:?}"));
        }
    }
    match command {
        Some("batch") => return commands::batch(&parsed),
        Some("serve") => return commands::serve(&parsed),
        Some("coreset") => commands::coreset(&parsed),
        Some("index") => commands::index(&parsed),
        Some("datasets") => commands::datasets(&parsed),
        Some("generate") => commands::generate(&parsed),
        Some("kde") => commands::kde(&parsed),
        Some("svm-train") => commands::svm_train(&parsed),
        Some("svm-predict") => commands::svm_predict(&parsed),
        Some("tune") => commands::tune(&parsed),
        Some("help") | None => Ok(USAGE.to_string()),
        Some(other) => Err(format!("unknown command {other:?}")),
    }
    .map(CmdOutput::clean)
}

/// Entry point returning only the stdout payload — what the test suite
/// and embedding callers use when they do not care about exit codes.
pub fn run(args: &[String]) -> Result<String, String> {
    run_report(args).map(|o| o.text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run_vec(args: &[&str]) -> Result<String, String> {
        run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("karl_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn no_args_prints_usage() {
        assert!(run_vec(&[]).unwrap().contains("usage: karl"));
        assert!(run_vec(&["help"]).unwrap().contains("svm-train"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_vec(&["frobnicate"]).is_err());
    }

    #[test]
    fn datasets_lists_the_registry() {
        let out = run_vec(&["datasets"]).unwrap();
        for name in ["mnist", "susy", "covtype-b"] {
            assert!(out.contains(name), "missing {name}");
        }
    }

    #[test]
    fn generate_then_kde_end_to_end() {
        let data = tmp("home.csv");
        let out = run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "800",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("800 points"));

        let result = run_vec(&[
            "kde",
            "--data",
            data.to_str().unwrap(),
            "--queries",
            data.to_str().unwrap(),
            "--eps",
            "0.2",
        ])
        .unwrap();
        // One density per query plus a trailing summary comment.
        let values: Vec<&str> = result.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(values.len(), 800);
        assert!(values[0].parse::<f64>().unwrap() > 0.0);
        assert!(result.lines().any(|l| l.starts_with("# throughput")));
    }

    #[test]
    fn kde_threshold_mode_prints_bools() {
        let data = tmp("mini.csv");
        run_vec(&[
            "generate",
            "--name",
            "miniboone",
            "--n",
            "400",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let result = run_vec(&[
            "kde",
            "--data",
            data.to_str().unwrap(),
            "--queries",
            data.to_str().unwrap(),
            "--tau",
            "0.01",
            "--method",
            "sota",
        ])
        .unwrap();
        let answers: Vec<&str> = result.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(answers.len(), 400);
        assert!(answers.iter().all(|&a| a == "1" || a == "0"));
    }

    #[test]
    fn batch_answers_match_sequential_kde_exactly() {
        let data = tmp("batch_home.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "700",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        for workload in [["--eps", "0.2"], ["--tau", "0.05"]] {
            let mut kde_args = vec![
                "kde",
                "--data",
                data.to_str().unwrap(),
                "--queries",
                data.to_str().unwrap(),
            ];
            kde_args.extend_from_slice(&workload);
            let sequential = run_vec(&kde_args).unwrap();
            for threads in ["1", "2", "4"] {
                let mut batch_args = vec![
                    "batch",
                    "--data",
                    data.to_str().unwrap(),
                    "--queries",
                    data.to_str().unwrap(),
                    "--threads",
                    threads,
                ];
                batch_args.extend_from_slice(&workload);
                let parallel = run_vec(&batch_args).unwrap();
                assert_eq!(
                    strip(&sequential),
                    strip(&parallel),
                    "batch ({threads} threads) must match kde for {workload:?}"
                );
                assert!(parallel.lines().any(|l| l.starts_with("# throughput")));
            }
        }
    }

    #[test]
    fn batch_engine_flag_selects_bitwise_equal_paths() {
        let data = tmp("batch_engine.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "400",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let run_engine = |engine: &str| {
            run_vec(&[
                "batch",
                "--data",
                data.to_str().unwrap(),
                "--queries",
                data.to_str().unwrap(),
                "--eps",
                "0.15",
                "--threads",
                "2",
                "--engine",
                engine,
            ])
            .unwrap()
        };
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        let frozen = run_engine("frozen");
        let pointer = run_engine("pointer");
        assert_eq!(strip(&frozen), strip(&pointer));
        assert!(frozen.contains("engine Frozen"));
        assert!(pointer.contains("engine Pointer"));
        let err = run_vec(&[
            "batch",
            "--data",
            data.to_str().unwrap(),
            "--queries",
            data.to_str().unwrap(),
            "--eps",
            "0.15",
            "--engine",
            "hybrid",
        ])
        .unwrap_err();
        assert!(err.contains("frozen|pointer"));
    }

    #[test]
    fn coreset_build_reports_a_certificate() {
        let data = tmp("coreset_build.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "600",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_vec(&[
            "coreset",
            "build",
            "--data",
            data.to_str().unwrap(),
            "--eps",
            "0.05",
        ])
        .unwrap();
        for needle in ["compression", "eps_c", "margin", "probes", "footprint"] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
        // Unsupported kernels are rejected with the Lipschitz explanation.
        let err = run_vec(&[
            "coreset",
            "build",
            "--data",
            data.to_str().unwrap(),
            "--eps",
            "0.05",
            "--kernel",
            "poly",
        ])
        .unwrap_err();
        assert!(err.contains("Lipschitz"));
        // A bare `karl coreset` explains itself; stray actions on other
        // commands are rejected.
        assert!(run_vec(&["coreset"]).unwrap_err().contains("coreset build"));
        assert!(run_vec(&["datasets", "build"]).is_err());
    }

    #[test]
    fn batch_coreset_flag_keeps_decisions_and_reports_the_tier() {
        let data = tmp("batch_coreset.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "500",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        // TKAQ decisions and Within answers must be byte-identical with the
        // cascade on; every TKAQ query is accounted to exactly one tier.
        for spec in [["--tau", "0.05"], ["--tol", "0.05"]] {
            let mut args = vec![
                "batch",
                "--data",
                data.to_str().unwrap(),
                "--queries",
                data.to_str().unwrap(),
                spec[0],
                spec[1],
                "--threads",
                "2",
            ];
            let plain = run_vec(&args).unwrap();
            args.extend_from_slice(&["--coreset", "0.02"]);
            let cascade = run_vec(&args).unwrap();
            assert_eq!(strip(&cascade), strip(&plain), "{spec:?}");
            let line = cascade
                .lines()
                .find(|l| l.starts_with("# coreset"))
                .expect("coreset summary line");
            assert!(line.contains("decided") && line.contains("fell_through"));
        }
        // Zero eps is rejected up front.
        assert!(run_vec(&[
            "batch",
            "--data",
            data.to_str().unwrap(),
            "--queries",
            data.to_str().unwrap(),
            "--tau",
            "0.05",
            "--coreset",
            "0",
        ])
        .unwrap_err()
        .contains("--coreset"));
    }

    #[test]
    fn batch_stats_flag_depends_on_the_feature() {
        let data = tmp("batch_stats.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "200",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let result = run_vec(&[
            "batch",
            "--data",
            data.to_str().unwrap(),
            "--queries",
            data.to_str().unwrap(),
            "--eps",
            "0.2",
            "--stats",
        ]);
        #[cfg(feature = "stats")]
        {
            let out = result.unwrap();
            let stats_line = out
                .lines()
                .find(|l| l.starts_with("# stats"))
                .expect("stats line");
            for field in [
                "nodes_refined",
                "envelopes_built",
                "curve_value_calls",
                "coreset_decided",
                "coreset_fallthrough",
            ] {
                assert!(stats_line.contains(field), "missing {field}");
            }
        }
        #[cfg(not(feature = "stats"))]
        assert!(result.unwrap_err().contains("stats"));
    }

    #[test]
    fn batch_within_mode_prints_finite_estimates() {
        let data = tmp("batch_within.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "300",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_vec(&[
            "batch",
            "--data",
            data.to_str().unwrap(),
            "--queries",
            data.to_str().unwrap(),
            "--tol",
            "0.001",
            "--threads",
            "2",
        ])
        .unwrap();
        let values: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(values.len(), 300);
        assert!(values.iter().all(|v| v.parse::<f64>().unwrap().is_finite()));
    }

    #[test]
    fn batch_budget_flags_truncate_and_stay_finite() {
        let data = tmp("batch_budget.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "500",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let base = &[
            "batch",
            "--data",
            data.to_str().unwrap(),
            "--queries",
            data.to_str().unwrap(),
            "--tol",
            "0.0001",
            "--threads",
            "2",
        ];
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        // A 1-node budget truncates: answers are still printed (the
        // certified-interval midpoints), all finite, plus a summary line.
        let mut tight = base.to_vec();
        tight.extend_from_slice(&["--budget-nodes", "1"]);
        let truncated = run_vec(&tight).unwrap();
        assert!(truncated.lines().any(|l| l.starts_with("# truncated")));
        let values = strip(&truncated);
        assert_eq!(values.len(), 500);
        assert!(values.iter().all(|v| v.parse::<f64>().unwrap().is_finite()));
        // A generous budget never trips: byte-identical answers to the
        // unbudgeted run and no truncation summary.
        let mut roomy = base.to_vec();
        roomy.extend_from_slice(&["--budget-nodes", "100000000"]);
        let unbudgeted = run_vec(base).unwrap();
        let budgeted = run_vec(&roomy).unwrap();
        assert_eq!(strip(&unbudgeted), strip(&budgeted));
        assert!(!budgeted.lines().any(|l| l.starts_with("# truncated")));
        // Zero budgets are rejected up front.
        let mut zero = base.to_vec();
        zero.extend_from_slice(&["--budget-nodes", "0"]);
        assert!(run_vec(&zero).unwrap_err().contains("--budget-nodes"));
    }

    #[test]
    fn batch_zero_deadline_prints_undecided_tkaq() {
        let data = tmp("batch_deadline.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "300",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_vec(&[
            "batch",
            "--data",
            data.to_str().unwrap(),
            "--queries",
            data.to_str().unwrap(),
            "--tau",
            "0.05",
            "--deadline-ms",
            "0",
        ])
        .unwrap();
        // Every query stops at the root interval; a decision may still
        // fall out when the root bound already clears τ, but each line is
        // one of the three legal answers and the run reports truncation.
        let answers: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(answers.len(), 300);
        assert!(answers.iter().all(|&a| a == "1" || a == "0" || a == "?"));
        assert!(out.lines().any(|l| l.starts_with("# truncated")));
    }

    #[test]
    fn batch_reports_zero_failed_queries_on_healthy_runs() {
        let data = tmp("batch_report.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "200",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let args: Vec<String> = [
            "batch",
            "--data",
            data.to_str().unwrap(),
            "--queries",
            data.to_str().unwrap(),
            "--eps",
            "0.2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let report = run_report(&args).unwrap();
        assert_eq!(report.failed_queries, 0);
        assert!(!report.text.contains("# error"));
    }

    #[test]
    fn batch_requires_exactly_one_workload() {
        let data = tmp("batch_wl.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "100",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let err = run_vec(&[
            "batch",
            "--data",
            data.to_str().unwrap(),
            "--queries",
            data.to_str().unwrap(),
            "--tau",
            "0.1",
            "--eps",
            "0.1",
        ])
        .unwrap_err();
        assert!(err.contains("--tau, --eps or --tol"));
    }

    #[test]
    fn batch_stats_json_is_byte_stable_and_accounts_every_query() {
        let data = tmp("stats_json.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "300",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let emit = |path: &PathBuf| {
            run_vec(&[
                "batch",
                "--data",
                data.to_str().unwrap(),
                "--queries",
                data.to_str().unwrap(),
                "--eps",
                "0.1",
                "--threads",
                "2",
                "--stats-json",
                path.to_str().unwrap(),
            ])
            .unwrap();
            std::fs::read_to_string(path).unwrap()
        };
        let first = emit(&tmp("stats_run1.json"));
        let second = emit(&tmp("stats_run2.json"));
        assert_eq!(
            first.as_bytes(),
            second.as_bytes(),
            "identical runs must write identical stats bytes"
        );
        // The shared serve schema with the batch-degenerate admission
        // counters: every query admitted, none shed or rejected.
        assert!(first.starts_with("{\"schema\":\"karl-stats-v1\","));
        for needle in [
            "\"queries\":300,",
            "\"admitted\":300,",
            "\"rejected\":0,",
            "\"shed\":0,",
            "\"completed\":300,",
            "\"truncated\":0,",
            "\"faulted\":0,",
            "\"protocol_errors\":0,",
            "\"batches\":1,",
            "\"threads\":2",
        ] {
            assert!(first.contains(needle), "missing {needle} in {first}");
        }
    }

    #[test]
    fn serve_rejects_bad_flag_combinations_up_front() {
        let data = tmp("serve_flags.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "100",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        // A transport is mandatory; without one the daemon would sit on a
        // terminal's stdin forever.
        let err = run_vec(&["serve", "--data", data.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("--stdio"), "{err}");
        let err = run_vec(&[
            "serve",
            "--stdio",
            "--listen",
            "127.0.0.1:0",
            "--data",
            data.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("conflicts"), "{err}");
        // Index metadata carries kernel/method/leaf, same rule as batch.
        let err = run_vec(&["serve", "--stdio", "--index", "x.idx", "--leaf", "8"]).unwrap_err();
        assert!(err.contains("--leaf conflicts with --index"), "{err}");
        // Watermark/batch validation is typed, not a mid-loop surprise.
        let err = run_vec(&[
            "serve",
            "--stdio",
            "--data",
            data.to_str().unwrap(),
            "--queue",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("invalid serve config"), "{err}");
        let err = run_vec(&[
            "serve",
            "--stdio",
            "--data",
            data.to_str().unwrap(),
            "--simd",
            "quantum",
        ])
        .unwrap_err();
        assert!(err.contains("auto|avx2|scalar"), "{err}");
        #[cfg(not(feature = "net"))]
        {
            let err = run_vec(&[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--data",
                data.to_str().unwrap(),
            ])
            .unwrap_err();
            assert!(err.contains("`net` feature"), "{err}");
        }
    }

    #[cfg(feature = "net")]
    #[test]
    fn serve_listen_answers_over_tcp_and_shuts_down() {
        use std::io::{BufRead, BufReader, Write};
        let data = tmp("serve_net.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "300",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let dims = std::fs::read_to_string(&data)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .split(',')
            .count();
        // Grab a free loopback port, release it, and hand it to the
        // daemon — the rebind window is effectively zero in a test runner.
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let args: Vec<String> = [
            "serve",
            "--listen",
            &addr,
            "--data",
            data.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let daemon = std::thread::spawn(move || run_report(&args));
        let mut stream = None;
        for _ in 0..200 {
            match std::net::TcpStream::connect(&addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        let mut stream = stream.expect("daemon must start listening");
        let q = vec!["0.0"; dims].join(",");
        write!(
            stream,
            "{{\"id\":1,\"op\":\"ekaq\",\"eps\":0.1,\"q\":[{q}]}}\n{{\"id\":2,\"op\":\"shutdown\"}}\n"
        )
        .unwrap();
        stream.flush().unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        assert!(
            lines.iter().any(|l| l.contains("\"id\":1,\"status\":\"ok\"")),
            "{lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"status\":\"shutdown\",\"admitted\":1,\"drained\":1")),
            "{lines:?}"
        );
        let report = daemon.join().unwrap().unwrap();
        assert_eq!(report.failed_queries, 0);
    }

    #[test]
    fn index_build_info_and_batch_roundtrip() {
        let data = tmp("index_data.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "500",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let idx = tmp("home.idx");
        // Pin the family and leaf so the in-memory `batch` defaults match.
        let built = run_vec(&[
            "index",
            "build",
            data.to_str().unwrap(),
            idx.to_str().unwrap(),
            "--family",
            "kd",
            "--leaf",
            "80",
        ])
        .unwrap();
        assert!(built.contains("500 points"));
        assert!(built.contains("family kd leaf 80"));

        let info = run_vec(&["index", "info", idx.to_str().unwrap()]).unwrap();
        assert!(info.contains("format v1"), "missing header in:\n{info}");
        assert!(info.contains("(verified)"));
        assert!(info.contains("leaf 80"));
        assert!(info.contains("pos.points"));
        assert!(info.contains("pos.shape.lo"));

        // Answers from the loaded index are byte-identical to the
        // in-memory build, for every workload.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        for spec in [["--tau", "0.3"], ["--eps", "0.15"], ["--tol", "0.05"]] {
            let fresh = run_vec(&[
                "batch",
                "--data",
                data.to_str().unwrap(),
                "--queries",
                data.to_str().unwrap(),
                spec[0],
                spec[1],
                "--threads",
                "2",
            ])
            .unwrap();
            let loaded = run_vec(&[
                "batch",
                "--index",
                idx.to_str().unwrap(),
                "--queries",
                data.to_str().unwrap(),
                spec[0],
                spec[1],
                "--threads",
                "2",
            ])
            .unwrap();
            assert_eq!(strip(&loaded), strip(&fresh), "{spec:?}");
        }

        // Flags recorded in the index conflict with --index.
        let err = run_vec(&[
            "batch",
            "--index",
            idx.to_str().unwrap(),
            "--queries",
            data.to_str().unwrap(),
            "--eps",
            "0.15",
            "--leaf",
            "40",
        ])
        .unwrap_err();
        assert!(err.contains("--leaf conflicts with --index"), "{err}");
        // The pointer engine cannot serve a loaded index.
        let err = run_vec(&[
            "batch",
            "--index",
            idx.to_str().unwrap(),
            "--queries",
            data.to_str().unwrap(),
            "--eps",
            "0.15",
            "--engine",
            "pointer",
        ])
        .unwrap_err();
        assert!(err.contains("frozen"), "{err}");
        // Missing operands and stray positionals stay errors.
        assert!(run_vec(&["index", "build"]).is_err());
        assert!(run_vec(&["index"]).unwrap_err().contains("usage"));
        assert!(run_vec(&["kde", "x", "y"]).is_err());
    }

    #[test]
    fn index_info_rejects_corruption_with_a_typed_reason() {
        let data = tmp("index_corrupt.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "200",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let idx = tmp("corrupt.idx");
        run_vec(&[
            "index",
            "build",
            data.to_str().unwrap(),
            idx.to_str().unwrap(),
        ])
        .unwrap();
        let mut bytes = std::fs::read(&idx).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&idx, &bytes).unwrap();
        let err = run_vec(&["index", "info", idx.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn index_build_profiles_pick_monotone_leaves() {
        let data = tmp("index_profile.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "400",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let leaf_of = |profile: &str| {
            let idx = tmp(&format!("profile_{profile}.idx"));
            run_vec(&[
                "index",
                "build",
                data.to_str().unwrap(),
                idx.to_str().unwrap(),
                "--profile",
                profile,
            ])
            .unwrap();
            let info = run_vec(&["index", "info", idx.to_str().unwrap()]).unwrap();
            let line = info.lines().find(|l| l.contains("leaf")).unwrap().to_string();
            let leaf: usize = line
                .split("leaf ")
                .nth(1)
                .unwrap()
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .unwrap()
                .parse()
                .unwrap();
            leaf
        };
        assert!(leaf_of("memory") <= leaf_of("disk"));
    }

    #[test]
    fn svm_train_and_predict_roundtrip() {
        let data = tmp("labeled.csv");
        run_vec(&[
            "generate",
            "--name",
            "ijcnn1",
            "--n",
            "600",
            "--out",
            data.to_str().unwrap(),
            "--labeled",
        ])
        .unwrap();
        let model = tmp("model.txt");
        let out = run_vec(&[
            "svm-train",
            "--data",
            data.to_str().unwrap(),
            "--svm",
            "csvc",
            "--c",
            "5",
            "--out",
            model.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("support vectors"));

        let unlabeled = tmp("queries.csv");
        run_vec(&[
            "generate",
            "--name",
            "ijcnn1",
            "--n",
            "50",
            "--out",
            unlabeled.to_str().unwrap(),
        ])
        .unwrap();
        let fast = run_vec(&[
            "svm-predict",
            "--model",
            model.to_str().unwrap(),
            "--queries",
            unlabeled.to_str().unwrap(),
        ])
        .unwrap();
        let scan = run_vec(&[
            "svm-predict",
            "--model",
            model.to_str().unwrap(),
            "--queries",
            unlabeled.to_str().unwrap(),
            "--method",
            "scan",
        ])
        .unwrap();
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&fast), strip(&scan), "KARL must preserve predictions");
        assert_eq!(strip(&fast).len(), 50);
    }

    #[test]
    fn one_class_training_works() {
        let data = tmp("oneclass.csv");
        run_vec(&[
            "generate",
            "--name",
            "nsl-kdd",
            "--n",
            "500",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let model = tmp("oc_model.txt");
        let out = run_vec(&[
            "svm-train",
            "--data",
            data.to_str().unwrap(),
            "--svm",
            "oneclass",
            "--nu",
            "0.1",
            "--out",
            model.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("one_class"));
    }

    #[test]
    fn tune_prints_a_grid_report() {
        let data = tmp("tune.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "600",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_vec(&[
            "tune",
            "--data",
            data.to_str().unwrap(),
            "--queries",
            data.to_str().unwrap(),
            "--eps",
            "0.2",
        ])
        .unwrap();
        assert!(out.contains("kind"));
        assert!(out.contains("recommended"));
    }

    #[test]
    fn kde_requires_a_workload() {
        let data = tmp("wl.csv");
        run_vec(&[
            "generate",
            "--name",
            "home",
            "--n",
            "300",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let err = run_vec(&[
            "kde",
            "--data",
            data.to_str().unwrap(),
            "--queries",
            data.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("--tau or --eps"));
    }
}
