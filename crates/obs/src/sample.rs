//! Snapshot types: what a [`Registry`](crate::Registry) export looks like.
//!
//! These are always compiled (with or without the `enabled` feature) so
//! sinks and downstream report code never need feature gates; with
//! instrumentation disabled a snapshot is simply empty.

/// Which instrument produced a sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64` count.
    Counter,
    /// Last-write-wins `f64` level.
    Gauge,
    /// Log₂-bucketed distribution of `u64` observations.
    Histogram,
}

impl MetricKind {
    /// Stable lowercase name used by the JSON and CSV sinks.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Summary statistics of one histogram at snapshot time
/// ([`LogHistogram::summary`](crate::LogHistogram::summary)).
///
/// `count`, `sum`, `min` and `max` are exact; the percentiles are
/// estimated from the log₂ buckets (geometric bucket midpoint, clamped
/// to the observed `[min, max]`), so they are accurate to within a
/// factor of ~√2 — plenty for the order-of-magnitude questions the
/// workspace asks ("how deep does DP recurse", "how long is a split").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when `count == 0`).
    pub min: u64,
    /// Largest observation (0 when `count == 0`).
    pub max: u64,
    /// Estimated 50th percentile.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One metric at snapshot time: identity plus current value.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSample {
    /// Subsystem the metric belongs to (`compress`, `store`, `span`, …).
    pub subsystem: String,
    /// Metric name within the subsystem.
    pub name: String,
    /// Sorted `(key, value)` label pairs; empty for unlabeled metrics.
    pub labels: Vec<(String, String)>,
    /// Which instrument this is.
    pub kind: MetricKind,
    /// Counter count or gauge level (0.0 for histograms; see `histogram`).
    pub value: f64,
    /// Distribution summary; `None` unless `kind == Histogram`.
    pub histogram: Option<HistogramSummary>,
}

impl MetricSample {
    /// `subsystem.name{k=v,…}` — the human-readable identity.
    pub fn path(&self) -> String {
        let mut out = format!("{}.{}", self.subsystem, self.name);
        if !self.labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
                out.push('=');
                out.push_str(v);
            }
            out.push('}');
        }
        out
    }
}
