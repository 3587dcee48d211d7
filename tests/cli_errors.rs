//! Error-path tests that drive the real `trajc` binary.
//!
//! The compiled binary (not the library) is what users see, so these
//! tests assert on its exit status and stderr: corrupt input must name
//! the offending file and line, and never panic.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn trajc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trajc"))
        .args(args)
        .output()
        .expect("spawn trajc binary")
}

fn tmp_file(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("trajc_cli_error_tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write temp file");
    path
}

#[test]
fn corrupt_csv_reports_path_and_line() {
    let path = tmp_file("corrupt.csv", "t,x,y\n0,0,0\n5,oops,0\n10,3,4\n");
    let out = trajc(&["info", path.to_str().expect("utf-8 temp path")]);
    assert!(!out.status.success(), "corrupt input must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("corrupt.csv"),
        "stderr must name the file: {stderr}"
    );
    assert!(
        stderr.contains("line 3"),
        "stderr must name the offending line: {stderr}"
    );
}

#[test]
fn non_monotone_timestamps_fail_with_context() {
    let path = tmp_file("backwards.csv", "t,x,y\n10,0,0\n5,1,1\n");
    let out = trajc(&["info", path.to_str().expect("utf-8 temp path")]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("backwards.csv"), "stderr: {stderr}");
}

#[test]
fn info_on_a_single_fix_prints_a_positive_zero_length() {
    let path = tmp_file("one_fix.csv", "t,x,y\n5,0,0\n");
    let out = trajc(&["info", path.to_str().expect("utf-8 temp path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("length:        0.000 km\n"), "stdout: {stdout}");
}

#[test]
fn missing_file_reports_the_path() {
    let out = trajc(&["info", "/definitely/not/here.csv"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("/definitely/not/here.csv"), "stderr: {stderr}");
}

#[test]
fn compress_surfaces_parse_errors_from_either_input() {
    let path = tmp_file("short.csv", "t,x,y\n0,0,0\n");
    let out = trajc(&[
        "compress",
        path.to_str().expect("utf-8 temp path"),
        "--algo",
        "td-tr",
        "--eps",
        "50",
    ]);
    assert!(!out.status.success(), "a 1-fix input cannot be compressed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("short.csv"), "stderr: {stderr}");
}

#[test]
fn store_recover_rejects_a_non_directory_with_its_path() {
    let path = tmp_file("not_a_dir.csv", "t,x,y\n0,0,0\n");
    let out = trajc(&["store", "recover", path.to_str().expect("utf-8 temp path")]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not_a_dir.csv"), "stderr: {stderr}");
    assert!(stderr.contains("not a directory"), "stderr: {stderr}");
}

/// The sorted paths directly inside `dir`.
fn entries(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    paths.sort();
    paths
}

#[test]
fn store_recover_refuses_a_directory_that_is_not_a_store() {
    let root = std::env::temp_dir().join("trajc_cli_error_tests");
    let (empty, served) = (root.join("recover_empty"), root.join("recover_served"));
    for dir in [&empty, &served] {
        std::fs::remove_dir_all(dir).ok();
    }
    std::fs::create_dir_all(&empty).expect("create empty dir");
    // A `trajc serve` root holds one store per shard, none at its top.
    let fleet = tmp_file("recover_fleet.csv", "id,t,x,y\n1,0,0,0\n2,0,5,5\n");
    let out = Command::new(env!("CARGO_BIN_EXE_trajc"))
        .args(["serve", served.to_str().expect("utf-8 temp path")])
        .stdin(std::fs::File::open(&fleet).expect("open fleet file"))
        .output()
        .expect("spawn trajc binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    for (dir, serve_root) in [(&empty, false), (&served, true)] {
        let before = entries(dir);
        let out = trajc(&["store", "recover", dir.to_str().expect("utf-8 temp path")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("not a durable store"), "{stderr}");
        assert!(stderr.contains("expected wal/ or snapshot/"), "{stderr}");
        assert_eq!(stderr.contains("shard-K"), serve_root, "{stderr}");
        assert_eq!(entries(dir), before, "{}: left untouched", dir.display());
    }
}

#[test]
fn unknown_algorithm_is_a_clean_error_not_a_panic() {
    let path = tmp_file("ok.csv", "t,x,y\n0,0,0\n10,5,5\n20,9,9\n");
    let out = trajc(&[
        "compress",
        path.to_str().expect("utf-8 temp path"),
        "--algo",
        "warp-drive",
        "--eps",
        "50",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warp-drive"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn evaluate_rejects_inputs_without_a_shared_time_span() {
    let single = tmp_file("single_fix.csv", "t,x,y\n0,0,0\n");
    let early = tmp_file("early.csv", "t,x,y\n0,0,0\n1,1,1\n");
    let late = tmp_file("late.csv", "t,x,y\n100,0,0\n200,5,5\n");
    for (original, approx) in [(&single, &single), (&early, &late)] {
        let out = trajc(&[
            "evaluate",
            original.to_str().expect("utf-8 temp path"),
            approx.to_str().expect("utf-8 temp path"),
        ]);
        assert!(!out.status.success(), "disjoint spans must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
        for path in [original, approx] {
            let name = path.file_name().expect("file name").to_string_lossy();
            assert!(stderr.contains(name.as_ref()), "stderr must name {name}: {stderr}");
        }
    }
}

#[test]
fn serve_names_a_malformed_stdin_line_and_exits_1() {
    let dir = std::env::temp_dir().join("trajc_cli_error_tests").join("serve_db");
    std::fs::remove_dir_all(&dir).ok();
    let mut child = Command::new(env!("CARGO_BIN_EXE_trajc"))
        .args(["serve", dir.to_str().expect("utf-8 temp path")])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn trajc binary");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(b"id,t,x,y\n1,0,0,0\n1,oops\n").expect("write records");
    drop(stdin);
    let out = child.wait_with_output().expect("wait for trajc");
    assert_eq!(out.status.code(), Some(1), "a bad record is an error, not a panic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 3"), "stderr must name the line: {stderr}");
    assert!(stderr.contains("1 records before it"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
