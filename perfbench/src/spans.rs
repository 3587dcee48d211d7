//! Per-layer attribution of a traced run.
//!
//! The benchmark brackets each call into a layer with a
//! `traj_obs::trace_span!` in its own files (`model.parse`,
//! `core.compress.td-tr`, `eval.sweep`, …) and the program adds its own
//! (`*.compress`, `wal.fsync`, `serve.batch`, …), so one drained
//! [`Trace`] nests both on the same clock. A span's *self time* is its
//! duration minus the time its child spans cover; each span name belongs
//! to one layer, and a layer's self time is the sum over its spans.

use std::collections::BTreeMap;
use std::path::Path;

use traj_obs::trace::{Trace, TraceEventKind, TrackTrace};

use crate::metrics::{Metrics, LAYERS};

/// Per-span-name totals over one drained trace.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    /// name → (total ns, self ns, occurrences)
    by_name: BTreeMap<String, (u64, u64, u64)>,
    /// instant event name → summed values
    instants: BTreeMap<String, u64>,
}

impl SpanTotals {
    /// Totals over the tracks of `trace` that `keep` selects.
    pub fn of(trace: &Trace, keep: impl Fn(&TrackTrace) -> bool) -> Self {
        let mut by_name: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        let mut instants: BTreeMap<String, u64> = BTreeMap::new();
        for track in trace.tracks.iter().filter(|t| keep(t)) {
            // (name, begin ts, ns covered by completed children)
            let mut stack: Vec<(u32, u64, u64)> = Vec::new();
            for ev in &track.events {
                match ev.kind {
                    TraceEventKind::Begin => stack.push((ev.name, ev.ts_ns, 0)),
                    TraceEventKind::End => {
                        let Some((name, begin, child)) = stack.pop() else {
                            continue;
                        };
                        let total = ev.ts_ns.saturating_sub(begin);
                        if let Some(parent) = stack.last_mut() {
                            parent.2 += total;
                        }
                        let slot = by_name.entry(trace.name(name).to_string()).or_default();
                        slot.0 += total;
                        slot.1 += total.saturating_sub(child);
                        slot.2 += 1;
                    }
                    TraceEventKind::Instant => {
                        *instants.entry(trace.name(ev.name).to_string()).or_default() += ev.value;
                    }
                    TraceEventKind::Counter => {}
                }
            }
        }
        SpanTotals { by_name, instants }
    }

    /// Summed values of the instant events named `name`.
    pub fn instant_sum(&self, name: &str) -> u64 {
        self.instants.get(name).copied().unwrap_or(0)
    }

    /// Summed duration of the spans whose name `pick` accepts, ms.
    pub fn total_ms(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.fold(pick, |t| t.0) as f64 / 1e6
    }

    /// Summed self time of the spans whose name `pick` accepts, ms.
    pub fn self_ms(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.fold(pick, |t| t.1) as f64 / 1e6
    }

    /// Occurrences of the spans whose name `pick` accepts.
    pub fn count(&self, pick: impl Fn(&str) -> bool) -> u64 {
        self.fold(pick, |t| t.2)
    }

    fn fold(&self, pick: impl Fn(&str) -> bool, f: impl Fn(&(u64, u64, u64)) -> u64) -> u64 {
        self.by_name
            .iter()
            .filter(|(n, _)| pick(n))
            .map(|(_, t)| f(t))
            .sum()
    }

    /// Self time per layer, ms.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, t) in &self.by_name {
            *out.entry(layer_of(name)).or_default() += t.1 as f64 / 1e6;
        }
        out
    }
}

/// Inserts `self_share.<layer>` for every layer of [`LAYERS`]: its self
/// time over all of `spans`, as a percentage of their summed self time.
pub fn insert_self_shares(spans: &[SpanTotals], metrics: &mut Metrics) {
    let mut layer_ms: BTreeMap<&str, f64> = BTreeMap::new();
    for s in spans {
        for (layer, ms) in s.layer_self_ms() {
            *layer_ms.entry(layer).or_default() += ms;
        }
    }
    let total: f64 = layer_ms.values().sum();
    for layer in LAYERS {
        let ms = layer_ms.get(layer).copied().unwrap_or(0.0);
        let share = if total > 0.0 { 100.0 * ms / total } else { 0.0 };
        metrics.insert(format!("self_share.{layer}"), share);
    }
}

/// The layer a span name belongs to, by its first dotted component.
pub fn layer_of(span: &str) -> &'static str {
    match span.split('.').next().unwrap_or("") {
        "gen" => "gen",
        "model" => "model",
        // The program's compressor spans (`td_tr.compress`,
        // `ow.compress`, `onepass.compress`, …) and the benchmark's own
        // `core.*` spans.
        "core" | "sweep" | "ow" | "onepass" | "ndp" | "td_tr" | "td_sp" | "bottom_up"
        | "parallel" => "core",
        "eval" => "eval",
        "store" | "wal" => "store",
        "serve" => "serve",
        _ => "bench",
    }
}

/// Whether `span` is one of the program's compressor spans.
pub fn is_program_compress(span: &str) -> bool {
    span.ends_with(".compress") && !span.starts_with("core.")
}

/// Writes `trace` as Chrome Trace Event JSON (loadable in Perfetto),
/// through the program's own exporter.
pub fn write_chrome_json(trace: &Trace, path: &Path) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, trace.to_chrome_json()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_obs::trace::TraceEvent;

    fn ev(kind: TraceEventKind, name: u32, ts_ns: u64) -> TraceEvent {
        TraceEvent {
            kind,
            name,
            ts_ns,
            value: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        use TraceEventKind::{Begin, End};
        let trace = Trace {
            names: vec![
                "bench.unit".into(),
                "model.parse".into(),
                "td_tr.compress".into(),
            ],
            tracks: vec![TrackTrace {
                id: 0,
                label: "main".into(),
                events: vec![
                    ev(Begin, 0, 0),
                    ev(Begin, 1, 10),
                    ev(End, 1, 40),
                    ev(Begin, 2, 50),
                    ev(End, 2, 90),
                    ev(End, 0, 100),
                ],
                dropped: 0,
            }],
        };
        let t = SpanTotals::of(&trace, |_| true);
        assert_eq!(t.total_ms(|n| n == "bench.unit"), 100e-6);
        assert_eq!(t.self_ms(|n| n == "bench.unit"), 30e-6);
        assert_eq!(t.count(is_program_compress), 1);
        let layers = t.layer_self_ms();
        assert_eq!(layers["bench"], 30e-6);
        assert_eq!(layers["model"], 30e-6);
        assert_eq!(layers["core"], 40e-6);
        // Self times partition the root span.
        assert!((layers.values().sum::<f64>() - 100e-6).abs() < 1e-15);
    }

    #[test]
    fn span_names_map_to_layers() {
        assert_eq!(layer_of("wal.fsync"), "store");
        assert_eq!(layer_of("serve.batch"), "serve");
        assert_eq!(layer_of("onepass.compress"), "core");
        assert_eq!(layer_of("core.compress.op-cone"), "core");
        assert_eq!(layer_of("eval.report"), "eval");
        assert_eq!(layer_of("loadgen.window"), "bench");
        assert!(is_program_compress("sweep.compress"));
        assert!(!is_program_compress("core.compress.td-tr"));
    }
}
