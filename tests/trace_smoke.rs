//! Smoke test for the tracing CLI surface, driving the real `trajc`
//! binary: `compress --trace-out` must produce a Chrome Trace Event
//! JSON file (Perfetto-loadable) or folded flamegraph stacks, and
//! `obs merge` must round-trip metrics sidecars into one table.
//!
//! The structural assertions are feature-aware: a no-default-features
//! build writes empty-but-valid exports.

use std::path::Path;
use std::process::Command;

use trajc::obs::json::{self, Json};

fn trajc(args: &[&str], extra: &[&Path]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_trajc"));
    cmd.args(args);
    for p in extra {
        cmd.arg(p);
    }
    cmd.output().expect("trajc must run")
}

fn generate_input(dir: &Path) -> std::path::PathBuf {
    let input = dir.join("in.csv");
    let out = trajc(
        &["generate", "--seed", "42", "--trip", "1", "-o"],
        &[&input],
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    input
}

#[test]
fn compress_trace_out_writes_chrome_trace_json() {
    let dir = std::env::temp_dir().join("trajc_trace_smoke_json");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let input = generate_input(&dir);
    let trace = dir.join("trace.json");

    let out = trajc(
        &["compress"],
        &[&input],
    );
    // Missing flags fail cleanly (sanity that the harness works).
    assert!(!out.status.success());

    let out = Command::new(env!("CARGO_BIN_EXE_trajc"))
        .arg("compress")
        .arg(&input)
        .args(["--algo", "td-tr", "--eps", "30", "--trace-out"])
        .arg(&trace)
        .output()
        .expect("trajc must run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let body = std::fs::read_to_string(&trace).expect("trace written");
    let doc = json::parse(&body).expect("trace must parse as JSON");
    let events = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
    assert!(doc.get("otherData").is_some(), "dropped-event counter present");
    if cfg!(feature = "obs") {
        assert!(!events.is_empty(), "instrumented build records events");
        assert!(
            events.iter().any(|e| {
                e.get("name").and_then(Json::as_str) == Some("cli.compress")
                    && e.get("ph").and_then(Json::as_str) == Some("B")
            }),
            "cli.compress span present"
        );
    } else {
        // Only process/thread metadata survives — no recorded events.
        assert!(
            events
                .iter()
                .all(|e| e.get("ph").and_then(Json::as_str) == Some("M")),
            "no-op build records nothing"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compress_trace_out_writes_folded_stacks() {
    let dir = std::env::temp_dir().join("trajc_trace_smoke_folded");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let input = generate_input(&dir);
    let trace = dir.join("trace.folded");

    let out = Command::new(env!("CARGO_BIN_EXE_trajc"))
        .arg("compress")
        .arg(&input)
        .args(["--algo", "ndp", "--eps", "30", "--trace-out"])
        .arg(&trace)
        .output()
        .expect("trajc must run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let body = std::fs::read_to_string(&trace).expect("folded written");
    for line in body.lines() {
        let (stack, self_ns) = line.rsplit_once(' ').expect("stack and self time");
        assert!(!stack.is_empty());
        self_ns.parse::<u64>().expect("integral self-time ns");
    }
    if cfg!(feature = "obs") {
        assert!(body.lines().any(|l| l.contains("cli.compress")), "{body}");
    } else {
        assert!(body.trim().is_empty());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One span, one pair, one histogram: every span name the trace opens
/// has a `span.<name>` histogram in the metrics sidecar with as many
/// samples as the trace has `B` events, keyed by name alone.
#[test]
fn compress_span_histograms_count_the_traced_pairs() {
    let dir = std::env::temp_dir().join("trajc_trace_smoke_pairs");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let input = generate_input(&dir);
    let trace = dir.join("t.json");
    let metrics = dir.join("m.jsonl");

    let out = Command::new(env!("CARGO_BIN_EXE_trajc"))
        .arg("compress")
        .arg(&input)
        .args(["--algo", "td-tr", "--eps", "30", "--stats", "--trace-out"])
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("trajc must run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let timing = stdout.lines().find(|l| l.starts_with("timing:")).expect("timing line");
    assert!(!timing.contains("compress 0.000 ms · evaluate 0.000 ms"), "{timing}");

    let doc = json::parse(&std::fs::read_to_string(&trace).expect("trace written"))
        .expect("trace must parse as JSON");
    let events = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
    let mut begins: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) == Some("B") {
            *begins.entry(e.get("name").and_then(Json::as_str).expect("name")).or_default() += 1;
        }
    }
    let samples = trajc::obs::sink::parse_json_lines(
        &std::fs::read_to_string(&metrics).expect("metrics written"),
    )
    .expect("metrics sidecar parses");
    let spans: std::collections::BTreeMap<&str, u64> = samples
        .iter()
        .filter(|s| s.subsystem == "span")
        .map(|s| (s.name.as_str(), s.histogram.as_ref().map_or(0, |h| h.count)))
        .collect();
    for name in spans.keys() {
        assert!(!name.contains('/') && !name.ends_with(".points"), "span metric {name}");
    }
    for (name, count) in &begins {
        assert_eq!(spans.get(name), Some(count), "span.{name} vs its B events");
    }
    if cfg!(feature = "obs") {
        assert!(begins.contains_key("cli.compress") && begins.contains_key("td_tr.compress"));
    } else {
        assert!(begins.is_empty() && samples.is_empty());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_merge_round_trips_metrics_sidecars() {
    let dir = std::env::temp_dir().join("trajc_trace_smoke_merge");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let input = generate_input(&dir);
    let json_sidecar = dir.join("run1.json");
    let csv_sidecar = dir.join("run2.csv");

    // The sidecar path picks the format: CSV for `.csv`, JSON lines
    // for anything else.
    for path in [&json_sidecar, &csv_sidecar] {
        let out = Command::new(env!("CARGO_BIN_EXE_trajc"))
            .arg("compress")
            .arg(&input)
            .args(["--algo", "td-tr", "--eps", "30", "--metrics-out"])
            .arg(path)
            .output()
            .expect("trajc must run");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let csv_body = std::fs::read_to_string(&csv_sidecar).expect("CSV sidecar written");
    let header = trajc::obs::sink::CSV_HEADER;
    assert!(csv_body.starts_with(header), "{csv_body}");
    let json_body = std::fs::read_to_string(&json_sidecar).expect("JSON sidecar written");
    assert!(json_body.lines().all(|l| l.starts_with('{')), "{json_body}");

    let merged = dir.join("merged.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_trajc"))
        .args(["obs", "merge"])
        .arg(&json_sidecar)
        .arg(&csv_sidecar)
        .arg("-o")
        .arg(&merged)
        .output()
        .expect("trajc must run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("metric,kind,stat,run1.json,run2.csv"), "{stdout}");
    let body = std::fs::read_to_string(&merged).expect("merged CSV written");
    assert!(body.starts_with("metric,kind,stat,run1.json,run2.csv"));
    if cfg!(feature = "obs") {
        // Identical runs: both columns populated for the shared counter.
        let row = body
            .lines()
            .find(|l| l.starts_with("compress.points_in"))
            .expect("points_in row");
        let cells: Vec<&str> = row.split(',').collect();
        assert_eq!(cells.len(), 5, "{row}");
        assert_eq!(cells[3], cells[4], "same input ⇒ same counts: {row}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
