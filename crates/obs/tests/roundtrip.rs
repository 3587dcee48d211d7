//! Round-trip tests for the JSON-lines and CSV sinks: serialize a
//! snapshot, parse it back with independent minimal parsers, and check
//! the parsed data matches — including labels containing commas, quotes
//! and newlines, and the documented schema/column order.

use traj_obs::sink::{to_csv, to_json_lines, CSV_HEADER};
use traj_obs::{HistogramSummary, MetricKind, MetricSample};

fn sample_set() -> Vec<MetricSample> {
    vec![
        MetricSample {
            subsystem: "compress".into(),
            name: "sed_evals".into(),
            labels: vec![("algo".into(), "td-tr".into())],
            kind: MetricKind::Counter,
            value: 841.0,
            histogram: None,
        },
        MetricSample {
            subsystem: "compress".into(),
            name: "notes".into(),
            // Hostile label value: comma, RFC-4180 quote, newline, backslash.
            labels: vec![("detail".into(), "eps=\"30,5\"\nline2\\end".into())],
            kind: MetricKind::Counter,
            value: 1.0,
            histogram: None,
        },
        MetricSample {
            subsystem: "store".into(),
            name: "utilization".into(),
            labels: vec![],
            kind: MetricKind::Gauge,
            value: 0.625,
            histogram: None,
        },
        MetricSample {
            subsystem: "span".into(),
            name: "cli.compress".into(),
            labels: vec![],
            kind: MetricKind::Histogram,
            value: 0.0,
            histogram: Some(HistogramSummary {
                count: 12,
                sum: 48_000,
                min: 1_000,
                max: 9_000,
                p50: 4_000,
                p90: 8_000,
                p99: 9_000,
            }),
        },
    ]
}

// ---- minimal RFC-4180 CSV reader (independent of the writer) ----

fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut row = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => in_quotes = false,
                c => field.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => row.push(std::mem::take(&mut field)),
                '\r' if chars.peek() == Some(&'\n') => {
                    chars.next();
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                c => field.push(c),
            }
        }
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    rows
}

// ---- minimal JSON object reader (flat objects + one nested "labels") ----

fn parse_json_object(line: &str) -> Vec<(String, String)> {
    // Returns flattened (key, raw-value) pairs; nested labels flatten to
    // ("labels.k", v). Only handles the subset the sink emits.
    fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> String {
        let mut out = String::new();
        assert_eq!(chars.next(), Some('"'));
        while let Some(c) = chars.next() {
            match c {
                '"' => return out,
                '\\' => match chars.next().expect("escape") {
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    'u' => {
                        let hex: String = (0..4).map(|_| chars.next().unwrap()).collect();
                        out.push(char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap());
                    }
                    other => panic!("unexpected escape \\{other}"),
                },
                c => out.push(c),
            }
        }
        panic!("unterminated string");
    }

    fn parse_value(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> String {
        match chars.peek() {
            Some('"') => parse_string(chars),
            _ => {
                let mut out = String::new();
                while let Some(&c) = chars.peek() {
                    if c == ',' || c == '}' {
                        break;
                    }
                    out.push(c);
                    chars.next();
                }
                out
            }
        }
    }

    let mut pairs = Vec::new();
    let mut chars = line.chars().peekable();
    assert_eq!(chars.next(), Some('{'));
    loop {
        match chars.peek() {
            Some('}') | None => break,
            Some(',') => {
                chars.next();
            }
            _ => {}
        }
        let key = parse_string(&mut chars);
        assert_eq!(chars.next(), Some(':'));
        if chars.peek() == Some(&'{') {
            chars.next();
            loop {
                match chars.peek() {
                    Some('}') => {
                        chars.next();
                        break;
                    }
                    Some(',') => {
                        chars.next();
                    }
                    _ => {}
                }
                let k = parse_string(&mut chars);
                assert_eq!(chars.next(), Some(':'));
                let v = parse_value(&mut chars);
                pairs.push((format!("{key}.{k}"), v));
            }
        } else {
            let v = parse_value(&mut chars);
            pairs.push((key, v));
        }
    }
    pairs
}

fn field<'a>(pairs: &'a [(String, String)], key: &str) -> &'a str {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("missing field {key}"))
}

#[test]
fn csv_round_trips_hostile_labels_and_schema() {
    let samples = sample_set();
    let csv = to_csv(&samples);
    let rows = parse_csv(&csv);

    // Schema stability: exact header, exact column order.
    assert_eq!(rows[0].join(","), CSV_HEADER);
    assert_eq!(rows.len(), samples.len() + 1);

    for (row, sample) in rows[1..].iter().zip(&samples) {
        assert_eq!(row.len(), 12, "every row has all 12 columns");
        assert_eq!(row[0], sample.subsystem);
        assert_eq!(row[1], sample.name);
        let labels = sample
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(";");
        assert_eq!(row[2], labels, "labels survive CSV quoting verbatim");
        assert_eq!(row[3], sample.kind.as_str());
        match sample.kind {
            MetricKind::Histogram => {
                let h = sample.histogram.unwrap();
                assert_eq!(row[4], "");
                let parsed: Vec<u64> = row[5..12].iter().map(|v| v.parse().unwrap()).collect();
                assert_eq!(parsed, vec![h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99]);
            }
            _ => {
                assert_eq!(row[4].parse::<f64>().unwrap(), sample.value);
                assert!(row[5..12].iter().all(String::is_empty));
            }
        }
    }
}

#[test]
fn json_lines_round_trip_hostile_labels() {
    let samples = sample_set();
    let json = to_json_lines(&samples);
    let lines: Vec<&str> = json.lines().collect();
    assert_eq!(lines.len(), samples.len());

    for (line, sample) in lines.iter().zip(&samples) {
        let pairs = parse_json_object(line);
        assert_eq!(field(&pairs, "subsystem"), sample.subsystem);
        assert_eq!(field(&pairs, "name"), sample.name);
        assert_eq!(field(&pairs, "kind"), sample.kind.as_str());
        for (k, v) in &sample.labels {
            assert_eq!(field(&pairs, &format!("labels.{k}")), v, "label {k} survives escaping");
        }
        match sample.kind {
            MetricKind::Histogram => {
                let h = sample.histogram.unwrap();
                assert_eq!(field(&pairs, "count").parse::<u64>().unwrap(), h.count);
                assert_eq!(field(&pairs, "sum").parse::<u64>().unwrap(), h.sum);
                assert_eq!(field(&pairs, "p99").parse::<u64>().unwrap(), h.p99);
            }
            _ => {
                assert_eq!(field(&pairs, "value").parse::<f64>().unwrap(), sample.value);
            }
        }
    }
}

#[test]
#[cfg(feature = "enabled")]
fn global_registry_snapshot_flows_through_both_sinks() {
    traj_obs::counter!("rt_test", "events").add(3);
    traj_obs::histogram!("rt_test", "latency_ns").record(1500);
    traj_obs::gauge!("rt_test", "fill").set(0.5);
    let snapshot: Vec<MetricSample> = traj_obs::registry()
        .snapshot()
        .into_iter()
        .filter(|s| s.subsystem == "rt_test")
        .collect();
    assert_eq!(snapshot.len(), 3);

    let csv = to_csv(&snapshot);
    let rows = parse_csv(&csv);
    assert_eq!(rows.len(), 4);

    let json = to_json_lines(&snapshot);
    for line in json.lines() {
        parse_json_object(line); // must parse cleanly
    }
    let table = traj_obs::sink::render_table(&snapshot);
    assert!(table.contains("rt_test.events"), "{table}");
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

    /// Byte soup: raw bytes mixed with the formats' own tokens (escapes,
    /// surrogate halves, quotes, braces, the CSV header), decoded
    /// lossily. Every sidecar decoder answers `Ok` or `Err`, never a
    /// panic; `trajc obs merge` feeds them user files. The soup is also
    /// parsed as one JSON string, which drives the escape decoder.
    #[test]
    fn sidecar_decoders_survive_byte_soup(
        codes in proptest::collection::vec(0u16..1024, 0..300)
    ) {
        const TOKENS: &[&str] = &[
            "\\u", "\\uD800", "\\uDBFF", "\\uDC00", "\\uDFFF", "\\uE000", "\\u+041", "D83D",
            "DE00", "0041", "\"", "\\", "{", "}", "[", "]", ":", ",", "\n", "\r\n", "null",
            "true", "-1e999", "0.5", "\"subsystem\":", "\"kind\":\"histogram\"",
            "\"labels\":{", "\"count\":", CSV_HEADER,
        ];
        let mut bytes = Vec::new();
        for &c in &codes {
            match u8::try_from(c) {
                Ok(b) => bytes.push(b),
                Err(_) => {
                    bytes.extend_from_slice(TOKENS[usize::from(c) % TOKENS.len()].as_bytes())
                }
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = traj_obs::json::parse(&text);
        let _ = traj_obs::json::parse(&format!("\"{text}\""));
        let _ = traj_obs::sink::parse_json_lines(&text);
        let _ = traj_obs::sink::parse_csv(&text);
    }
}
