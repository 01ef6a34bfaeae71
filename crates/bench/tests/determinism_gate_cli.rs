//! Tier-1 checks of `fault_campaign --fast --check-determinism`'s exit
//! paths: an unreadable baseline fails before any trial runs, a config
//! with no baseline entry and a drifted checksum each fail with a named
//! cause, and the committed baseline passes. A misspelt flag is a usage
//! error (exit 2). No path may end in a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The committed golden baseline, independent of the working directory.
fn committed_baseline() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines/robustness_checksums.json")
}

/// The fast builtin entry's checksum as the baseline spells it.
const FAST_BUILTIN: &str = "0x49d3af884a90cd05";

fn gate(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fault_campaign"))
        .args(["--fast", "--check-determinism"])
        .args(extra)
        .output()
        .expect("spawn fault_campaign")
}

/// Asserts exit 1 with every needle on stderr and no panic backtrace.
fn assert_gate_fails(out: &Output, needles: &[&str]) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "expected exit 1:\n{err}");
    for needle in needles {
        assert!(err.contains(needle), "stderr lacks {needle:?}:\n{err}");
    }
    assert!(
        !err.contains("panicked at"),
        "a panic, not a verdict:\n{err}"
    );
}

/// A per-test path under the system temp directory.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fttt-determinism-gate-{}-{name}.json",
        std::process::id()
    ))
}

#[test]
fn missing_baseline_fails_before_any_trial() {
    let missing = temp_path("missing");
    let _ = std::fs::remove_file(&missing);
    let path = missing.to_str().unwrap();
    let out = gate(&["--checksum-baseline", path]);
    assert_gate_fails(&out, &["cannot read checksum baseline", path]);
    // The campaign never ran: it prints nothing on stdout.
    assert!(out.stdout.is_empty(), "{:?}", out.stdout);
}

#[test]
fn unknown_seed_has_no_entry() {
    let baseline = committed_baseline();
    let out = gate(&[
        "--seed",
        "43",
        "--checksum-baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_gate_fails(&out, &["determinism gate FAILED", "no entry"]);
}

#[test]
fn flipped_checksum_digit_is_drift() {
    let text = std::fs::read_to_string(committed_baseline()).unwrap();
    assert_eq!(text.matches(FAST_BUILTIN).count(), 1, "{text}");
    // Flip the last hex digit: 5 -> 4.
    let doctored_sum = format!("{}4", &FAST_BUILTIN[..FAST_BUILTIN.len() - 1]);
    let doctored = temp_path("drift");
    std::fs::write(&doctored, text.replace(FAST_BUILTIN, &doctored_sum)).unwrap();
    let out = gate(&["--checksum-baseline", doctored.to_str().unwrap()]);
    let _ = std::fs::remove_file(&doctored);
    assert_gate_fails(&out, &["determinism gate FAILED", "drift", &doctored_sum]);
}

#[test]
fn committed_baseline_passes() {
    let baseline = committed_baseline();
    let out = gate(&["--checksum-baseline", baseline.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}{stderr}");
    assert!(
        stdout.contains(&format!("checksum {FAST_BUILTIN} matches")),
        "{stdout}"
    );
    assert!(!stderr.contains("panicked at"), "{stderr}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_fault_campaign"))
        .arg("--bogus")
        .output()
        .expect("spawn fault_campaign");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "expected exit 2:\n{err}");
    assert!(err.contains("unknown argument --bogus"), "{err}");
    assert!(err.contains("usage:"), "{err}");
    assert!(
        !err.contains("panicked at"),
        "a panic, not a usage error:\n{err}"
    );
    assert!(out.stdout.is_empty(), "{:?}", out.stdout);
}
