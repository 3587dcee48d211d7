//! Export sinks for registry snapshots: human table, JSON lines, CSV.
//!
//! All three take the same input — a `&[MetricSample]` from
//! [`Registry::snapshot`](crate::Registry) — and are pure functions of
//! it, so they stay testable without any global state.
//!
//! # CSV schema
//!
//! One row per metric, RFC-4180 quoting, stable column order:
//!
//! ```text
//! subsystem,name,labels,kind,value,count,sum,min,max,p50,p90,p99
//! ```
//!
//! Counters and gauges fill `value` and leave the histogram columns
//! empty; histograms leave `value` empty and fill `count`…`p99`. Labels
//! render as `k=v;k2=v2`.
//!
//! # JSON lines
//!
//! One JSON object per line:
//!
//! ```text
//! {"subsystem":"compress","name":"sed_evals","labels":{"algo":"td-tr"},"kind":"counter","value":841}
//! {"subsystem":"span","name":"cli.compress","kind":"histogram","count":1,"sum":51234,"min":51234,"max":51234,"p50":51234,"p90":51234,"p99":51234}
//! ```

use crate::json::Json;
use crate::sample::{HistogramSummary, MetricKind, MetricSample};

/// Renders a left-aligned human-readable table of the snapshot.
///
/// Counters/gauges print their value; histograms print
/// `count / mean / p50 / p99 / max`. Returns an explanatory one-liner
/// when the snapshot is empty (e.g. instrumentation compiled out).
pub fn render_table(samples: &[MetricSample]) -> String {
    if samples.is_empty() {
        return "(no metrics recorded — instrumentation may be compiled out)\n".to_string();
    }
    let rows: Vec<(String, String)> = samples
        .iter()
        .map(|s| {
            let value = match (s.kind, &s.histogram) {
                (MetricKind::Histogram, Some(h)) => format!(
                    "count {}  mean {:.1}  p50 {}  p99 {}  max {}",
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p99,
                    h.max
                ),
                (MetricKind::Gauge, _) => format_value(s.value),
                _ => format!("{}", s.value as u64),
            };
            (s.path(), value)
        })
        .collect();
    let width = rows.iter().map(|(p, _)| p.len()).max().unwrap_or(0);
    let mut out = String::new();
    let mut last_subsystem: Option<&str> = None;
    for (sample, (path, value)) in samples.iter().zip(&rows) {
        if last_subsystem != Some(sample.subsystem.as_str()) {
            if last_subsystem.is_some() {
                out.push('\n');
            }
            last_subsystem = Some(sample.subsystem.as_str());
        }
        out.push_str(&format!("  {path:<width$}  {value}\n"));
    }
    out
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Serializes the snapshot as JSON lines (one object per sample).
pub fn to_json_lines(samples: &[MetricSample]) -> String {
    let mut out = String::new();
    for s in samples {
        out.push('{');
        push_json_field(&mut out, "subsystem", &s.subsystem);
        out.push(',');
        push_json_field(&mut out, "name", &s.name);
        if !s.labels.is_empty() {
            out.push_str(",\"labels\":{");
            for (i, (k, v)) in s.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_field(&mut out, k, v);
            }
            out.push('}');
        }
        out.push(',');
        push_json_field(&mut out, "kind", s.kind.as_str());
        match (s.kind, &s.histogram) {
            (MetricKind::Histogram, Some(h)) => {
                out.push_str(&format!(
                    ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}",
                    h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
                ));
            }
            _ => {
                out.push_str(",\"value\":");
                out.push_str(&json_number(s.value));
            }
        }
        out.push_str("}\n");
    }
    out
}

fn push_json_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    push_json_escaped(out, key);
    out.push_str("\":\"");
    push_json_escaped(out, value);
    out.push('"');
}

fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn json_number(v: f64) -> String {
    if !v.is_finite() {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Serializes the snapshot as the sidecar file at `path` should hold
/// it: [`to_csv`] for a `.csv` path, [`to_json_lines`] for any other.
/// Every `--metrics-out` flag picks its format through this one rule.
pub fn to_sidecar(path: &std::path::Path, samples: &[MetricSample]) -> String {
    if path.extension().is_some_and(|e| e == "csv") {
        to_csv(samples)
    } else {
        to_json_lines(samples)
    }
}

/// Column order of [`to_csv`], exposed so tests and readers can assert
/// schema stability.
pub const CSV_HEADER: &str = "subsystem,name,labels,kind,value,count,sum,min,max,p50,p90,p99";

/// Serializes the snapshot as RFC-4180 CSV with header [`CSV_HEADER`].
pub fn to_csv(samples: &[MetricSample]) -> String {
    let mut out = String::with_capacity(64 + samples.len() * 48);
    out.push_str(CSV_HEADER);
    out.push_str("\r\n");
    for s in samples {
        let labels = s
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(";");
        let mut fields: Vec<String> = vec![
            s.subsystem.clone(),
            s.name.clone(),
            labels,
            s.kind.as_str().to_string(),
        ];
        match (s.kind, &s.histogram) {
            (MetricKind::Histogram, Some(h)) => {
                fields.push(String::new());
                for v in [h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99] {
                    fields.push(v.to_string());
                }
            }
            _ => {
                fields.push(format_value(s.value));
                fields.extend(std::iter::repeat_with(String::new).take(7));
            }
        }
        let row = fields
            .iter()
            .map(|f| csv_escape(f))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&row);
        out.push_str("\r\n");
    }
    out
}

/// Quotes a CSV field per RFC 4180 when it contains a comma, quote, or
/// line break; embedded quotes are doubled.
fn csv_escape(field: &str) -> String {
    if field.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

fn kind_from_str(s: &str) -> Result<MetricKind, String> {
    match s {
        "counter" => Ok(MetricKind::Counter),
        "gauge" => Ok(MetricKind::Gauge),
        "histogram" => Ok(MetricKind::Histogram),
        other => Err(format!("unknown metric kind '{other}'")),
    }
}

/// Parses the output of [`to_json_lines`] back into samples — the
/// inverse used by `trajc obs merge` to combine `--metrics-out`
/// sidecars. Blank lines are skipped; a non-finite `value` serialized
/// as `null` reads back as NaN.
pub fn parse_json_lines(input: &str) -> Result<Vec<MetricSample>, String> {
    let mut out = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed =
            crate::json::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        out.push(sample_from_json(&parsed).map_err(|e| format!("line {}: {e}", idx + 1))?);
    }
    Ok(out)
}

fn json_u64(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn sample_from_json(v: &Json) -> Result<MetricSample, String> {
    let field_str = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field '{key}'"))
    };
    let subsystem = field_str("subsystem")?;
    let name = field_str("name")?;
    let labels = match v.get("labels") {
        Some(Json::Object(pairs)) => pairs
            .iter()
            .map(|(k, val)| {
                val.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| format!("label '{k}' must be a string"))
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => Vec::new(),
    };
    let kind = kind_from_str(v.get("kind").and_then(Json::as_str).unwrap_or(""))?;
    let (value, histogram) = match kind {
        MetricKind::Histogram => (
            0.0,
            Some(HistogramSummary {
                count: json_u64(v, "count"),
                sum: json_u64(v, "sum"),
                min: json_u64(v, "min"),
                max: json_u64(v, "max"),
                p50: json_u64(v, "p50"),
                p90: json_u64(v, "p90"),
                p99: json_u64(v, "p99"),
            }),
        ),
        _ => (
            v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            None,
        ),
    };
    Ok(MetricSample { subsystem, name, labels, kind, value, histogram })
}

/// Parses the output of [`to_csv`] back into samples — the CSV inverse
/// of [`parse_json_lines`]. The header must match [`CSV_HEADER`]
/// exactly; RFC-4180 quoting (embedded commas, quotes and line breaks)
/// is honored.
pub fn parse_csv(input: &str) -> Result<Vec<MetricSample>, String> {
    let mut rows = split_csv(input).into_iter();
    let header = rows.next().ok_or_else(|| "empty CSV".to_string())?;
    if header.join(",") != CSV_HEADER {
        return Err(format!("unexpected CSV header '{}'", header.join(",")));
    }
    let mut out = Vec::new();
    for (idx, row) in rows.enumerate() {
        if row.len() == 1 && row[0].is_empty() {
            continue; // trailing newline
        }
        if row.len() != 12 {
            return Err(format!("row {}: expected 12 fields, got {}", idx + 2, row.len()));
        }
        let labels = row[2]
            .split(';')
            .filter(|part| !part.is_empty())
            .map(|part| match part.split_once('=') {
                Some((k, v)) => Ok((k.to_string(), v.to_string())),
                None => Err(format!("row {}: malformed label '{part}'", idx + 2)),
            })
            .collect::<Result<Vec<_>, String>>()?;
        let kind = kind_from_str(&row[3]).map_err(|e| format!("row {}: {e}", idx + 2))?;
        let parse_u64 = |field: &str| -> u64 { field.parse::<u64>().unwrap_or(0) };
        let (value, histogram) = match kind {
            MetricKind::Histogram => (
                0.0,
                Some(HistogramSummary {
                    count: parse_u64(&row[5]),
                    sum: parse_u64(&row[6]),
                    min: parse_u64(&row[7]),
                    max: parse_u64(&row[8]),
                    p50: parse_u64(&row[9]),
                    p90: parse_u64(&row[10]),
                    p99: parse_u64(&row[11]),
                }),
            ),
            _ => (row[4].parse::<f64>().unwrap_or(f64::NAN), None),
        };
        out.push(MetricSample {
            subsystem: row[0].clone(),
            name: row[1].clone(),
            labels,
            kind,
            value,
            histogram,
        });
    }
    Ok(out)
}

/// Splits RFC-4180 CSV text into records of unquoted fields. Quoted
/// fields may contain commas, doubled quotes and line breaks; `\r\n`
/// and `\n` record separators are both accepted.
fn split_csv(input: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = input.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                c => field.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => record.push(std::mem::take(&mut field)),
                '\r' => {} // part of \r\n; the \n ends the record
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut record));
                }
                c => field.push(c),
            }
        }
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        rows.push(record);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::HistogramSummary;

    fn counter(sub: &str, name: &str, labels: &[(&str, &str)], value: f64) -> MetricSample {
        MetricSample {
            subsystem: sub.to_string(),
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            kind: MetricKind::Counter,
            value,
            histogram: None,
        }
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let s = counter("compress", "sed_evals", &[("algo", "td-tr(\"30,5m\")")], 7.0);
        let csv = to_csv(&[s]);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        assert_eq!(
            lines.next(),
            Some(r#"compress,sed_evals,"algo=td-tr(""30,5m"")",counter,7,,,,,,,"#)
        );
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let s = counter("a", "b", &[("path", "C:\\tmp \"x\"\n")], 1.0);
        let json = to_json_lines(&[s]);
        assert!(json.contains(r#""path":"C:\\tmp \"x\"\n""#), "{json}");
    }

    #[test]
    fn table_lists_histogram_stats() {
        let s = MetricSample {
            subsystem: "span".into(),
            name: "cli.compress".into(),
            labels: vec![],
            kind: MetricKind::Histogram,
            value: 0.0,
            histogram: Some(HistogramSummary {
                count: 3,
                sum: 300,
                min: 50,
                max: 200,
                p50: 100,
                p90: 200,
                p99: 200,
            }),
        };
        let table = render_table(&[s]);
        assert!(table.contains("span.cli.compress"), "{table}");
        assert!(table.contains("count 3"), "{table}");
        assert!(table.contains("p99 200"), "{table}");
    }

    #[test]
    fn empty_snapshot_renders_notice() {
        assert!(render_table(&[]).contains("no metrics recorded"));
        assert_eq!(to_json_lines(&[]), "");
        assert_eq!(to_csv(&[]).lines().count(), 1);
    }

    fn awkward_samples() -> Vec<MetricSample> {
        vec![
            counter("compress", "sed_evals", &[("algo", "td-tr(\"30,5m\")")], 841.0),
            MetricSample {
                subsystem: "cli".into(),
                name: "threads".into(),
                labels: vec![],
                kind: MetricKind::Gauge,
                value: 2.5,
                histogram: None,
            },
            MetricSample {
                subsystem: "span".into(),
                name: "cli.compress".into(),
                labels: vec![("run".into(), "a;b=c".into())],
                kind: MetricKind::Histogram,
                value: 0.0,
                histogram: Some(HistogramSummary {
                    count: 3,
                    sum: 300,
                    min: 50,
                    max: 200,
                    p50: 100,
                    p90: 200,
                    p99: 200,
                }),
            },
        ]
    }

    #[test]
    fn json_lines_round_trip() {
        let samples = awkward_samples();
        let parsed = parse_json_lines(&to_json_lines(&samples)).unwrap();
        assert_eq!(parsed, samples);
    }

    #[test]
    fn csv_round_trip() {
        // The label value "a;b=c" is ambiguous in the k=v;k2=v2 CSV label
        // encoding, so the CSV round-trip uses a clean label set.
        let mut samples = awkward_samples();
        samples[2].labels = vec![("run".into(), "a".into())];
        let parsed = parse_csv(&to_csv(&samples)).unwrap();
        assert_eq!(parsed, samples);
    }

    #[test]
    fn sidecar_format_follows_the_path() {
        use std::path::Path;
        let samples = awkward_samples();
        let (csv, json) = (to_csv(&samples), to_json_lines(&samples));
        assert_eq!(to_sidecar(Path::new("out/m.csv"), &samples), csv);
        for path in ["m.json", "m.jsonl", "m.txt", "m", "csv"] {
            assert_eq!(to_sidecar(Path::new(path), &samples), json, "{path}");
        }
    }

    #[test]
    fn parse_rejects_malformed_sidecars() {
        assert!(parse_json_lines("{\"name\":\"x\"}\n").is_err());
        assert!(parse_csv("not,the,header\n1,2,3\n").is_err());
        assert!(parse_csv(&format!("{CSV_HEADER}\r\na,b,,counter\r\n")).is_err());
    }
}
