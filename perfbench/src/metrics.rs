//! The metric catalogue (mirrored by `BENCHMARK.json`, which a test
//! checks) and the one-line JSON result the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric: its name, unit and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; printed by every untraced run, on
/// every workload. A *unit* is one paper-grid pass, one long-track
/// trace, or one 50 ms window of offered ingest load (whose time is the
/// mean submit→ack latency of the fixes acked in it).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("unit_ms_p50", "ms", "lower"),
    m("fixes_per_s", "1/s", "higher"),
    m("cpu_us_per_fix", "us", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Printed beside the end-to-end metrics but not in the result line, so
/// no bound applies to them: the mean unit time says how much slow units
/// weigh beside the median, the unit-time tail moves with the neighbours'
/// load on a shared 2-CPU host (the p90 spread across seeds reached 0.29
/// in a busy hour), and a failure share is 0 on a passing run.
pub const INFO: &[MetricDef] = &[
    m("unit_ms_mean", "ms", "lower"),
    m("unit_ms_p90", "ms", "lower"),
    m("ack_us_mean", "us", "lower"),
    m("failed_share", "share", "lower"),
];

/// The algorithms whose long-track compression is timed one by one.
pub const ALGOS: [&str; 4] = ["td-tr", "ndp", "opw-tr", "op-cone"];

/// The layers self time is attributed to: the workspace crates the
/// benchmark calls (`core` includes the `geom` kernels it runs), plus
/// `bench` for the harness's own time inside a unit.
pub const LAYERS: [&str; 7] = ["gen", "model", "core", "eval", "store", "serve", "bench"];

/// Single-layer metrics, printed by the traced run. A metric whose layer
/// a workload never calls reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    m("gen.dataset_ms", "ms", "lower"),
    m("gen.trace_ms", "ms", "lower"),
    m("model.parse_ms", "ms", "lower"),
    m("model.format_ms", "ms", "lower"),
    m("core.sweep_ms", "ms", "lower"),
    m("core.compress_ms.td-tr", "ms", "lower"),
    m("core.compress_ms.ndp", "ms", "lower"),
    m("core.compress_ms.opw-tr", "ms", "lower"),
    m("core.compress_ms.op-cone", "ms", "lower"),
    m("core.evaluate_ms", "ms", "lower"),
    m("core.eval_cache_hit_share", "share", "higher"),
    m("core.cols_reuse_share", "share", "higher"),
    m("core.kept_share.td-tr", "share", "lower"),
    m("core.kept_share.ndp", "share", "lower"),
    m("core.kept_share.opw-tr", "share", "lower"),
    m("core.kept_share.op-cone", "share", "lower"),
    m("eval.report_ms", "ms", "lower"),
    m("serve.submit_ns_p50", "ns", "lower"),
    m("serve.submit_ns_p99", "ns", "lower"),
    m("serve.queue_depth_max", "count", "lower"),
    m("serve.group_size_mean", "count", "higher"),
    m("serve.emitted_share", "share", "lower"),
    m("serve.ack_us_p50", "us", "lower"),
    m("serve.ack_us_p99", "us", "lower"),
    m("loadgen.lag_ms_max", "ms", "lower"),
    m("store.recover_ms", "ms", "lower"),
    m("store.replayed", "count", "higher"),
    m("store.wal_bytes_per_fix", "B", "lower"),
    m("store.fsyncs", "count", "lower"),
    m("store.fsync_us_mean", "us", "lower"),
    m("obs.trace_overhead_share", "share", "lower"),
    m("host.calib_ms", "ms", "lower"),
    m("self_share.gen", "%", "lower"),
    m("self_share.model", "%", "lower"),
    m("self_share.core", "%", "lower"),
    m("self_share.eval", "%", "lower"),
    m("self_share.store", "%", "lower"),
    m("self_share.serve", "%", "lower"),
    m("self_share.bench", "%", "lower"),
];

/// Metric values by name, as a workload measured them.
pub type Metrics = BTreeMap<String, f64>;

/// Renders `v` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives; `None` for values JSON cannot hold.
pub fn json_num(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v}"))
}

/// Appends `s` as a JSON string literal.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
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

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `defs` with its unit.
///
/// # Errors
/// A metric of `defs` the run did not produce, or produced as a
/// non-finite number — a bug in the benchmark, reported instead of a
/// result.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Metrics,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        let v = values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        let num = json_num(*v).ok_or_else(|| format!("metric {} is not finite: {v}", d.name))?;
        if i > 0 {
            out.push_str(", ");
        }
        push_json_str(&mut out, d.name);
        let _ = write!(out, ": {{\"value\": {num}, \"unit\": ");
        push_json_str(&mut out, d.unit);
        out.push('}');
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_obs::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let Some(Json::Array(items)) = doc.get(key) else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|it| {
                let field = |k: &str| it.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn ours(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    }

    #[test]
    fn printed_metrics_equal_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .chain(INFO)
            .map(|d| d.name)
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate metric name");
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let values: Metrics = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), 1.25))
            .collect();
        let line = result_line(true, 3, 0, END_TO_END, &values).unwrap();
        let doc = parse(&line).unwrap();
        let Some(Json::Object(metrics)) = doc.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        let mut short = values.clone();
        short.remove("setup_s");
        assert!(result_line(true, 3, 0, END_TO_END, &short).is_err());
        short.insert("setup_s".into(), f64::NAN);
        assert!(result_line(true, 3, 0, END_TO_END, &short).is_err());
    }
}
