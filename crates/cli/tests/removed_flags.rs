//! `karl batch` once accepted `--dual` and `--envelope-cache on|off`. Both
//! paths are gone; scripts that still pass either flag must fail loudly
//! (exit 1, `unknown flag`) instead of silently running something else.

use std::process::Command;

#[test]
fn removed_batch_flags_exit_1_as_unknown() {
    for removed in [&["--dual"][..], &["--envelope-cache", "on"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_karl"))
            .args([
                "batch",
                "--data",
                "d.csv",
                "--queries",
                "q.csv",
                "--tau",
                "0.3",
            ])
            .args(removed)
            .output()
            .expect("karl binary runs");
        assert_eq!(out.status.code(), Some(1), "{removed:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {}", removed[0])),
            "{removed:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{removed:?} printed answers");
    }
}
