//! Error paths of the `repro` binary: bad arguments fail before any
//! work starts, and an output file that cannot be written fails the run
//! with the path in the message.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro binary")
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro_cli_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Asserts `repro args` exits 1 without generating the dataset, with
/// `needle` in its error message.
fn rejected_before_work(args: &[&str], needle: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} must fail: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: stderr must say {needle:?}: {stderr}");
    assert!(
        !stderr.contains("generating dataset"),
        "{args:?} must be rejected before any work: {stderr}"
    );
}

#[test]
fn unknown_experiment_is_rejected_before_any_work() {
    rejected_before_work(&["fig99"], "unknown experiment \"fig99\"");
}

#[test]
fn a_second_experiment_is_rejected_before_any_work() {
    rejected_before_work(&["fig7", "fig99"], "one experiment per run");
    rejected_before_work(&["fig7", "fig8", "--fast"], "one experiment per run");
}

#[test]
fn fast_shape_check_is_rejected_before_any_work() {
    rejected_before_work(&["check", "--fast"], "--fast changes the protocol");
}

#[test]
fn unwritable_metrics_and_trace_paths_fail_the_run() {
    let dir = scratch("unwritable");
    // A regular file where the outputs' parent directory should be.
    let blocker = dir.join("F");
    std::fs::write(&blocker, "not a directory").expect("write blocker file");
    let metrics = blocker.join("m.json");
    let trace = blocker.join("t.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig7", "--fast", "--metrics-out"])
        .arg(&metrics)
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .expect("spawn repro binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "write failures must fail the run: {stderr}");
    for path in [&metrics, &trace] {
        let shown = path.display().to_string();
        assert!(stderr.contains(&shown), "stderr must name {shown}: {stderr}");
    }
    // The figure itself was still computed and printed.
    assert!(String::from_utf8_lossy(&out.stdout).contains("fig7 — NDP vs TD-TR"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn writable_outputs_still_succeed() {
    let dir = scratch("writable");
    let metrics = dir.join("nested").join("m.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig7", "--fast", "--metrics-out"])
        .arg(&metrics)
        .output()
        .expect("spawn repro binary");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(metrics.is_file(), "metrics sidecar written");
    std::fs::remove_dir_all(&dir).ok();
}
