//! The disabled implementation: same public API as `metrics`, but every
//! instrument is a zero-sized type with `#[inline]` empty methods, so
//! the optimizer removes all instrumentation from release builds.

use crate::sample::{HistogramSummary, MetricSample};

/// Disabled counter; all methods are no-ops.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counter;

impl Counter {
    /// No-op.
    #[inline(always)]
    pub fn add(&self, _n: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn inc(&self) {}

    /// Always 0.
    #[inline(always)]
    pub fn get(&self) -> u64 {
        0
    }
}

/// Disabled gauge; all methods are no-ops.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauge;

impl Gauge {
    /// No-op.
    #[inline(always)]
    pub fn set(&self, _v: f64) {}

    /// No-op.
    #[inline(always)]
    pub fn add(&self, _delta: f64) {}

    /// Always 0.0.
    #[inline(always)]
    pub fn get(&self) -> f64 {
        0.0
    }
}

/// Disabled histogram; all methods are no-ops.
#[derive(Clone, Copy, Debug, Default)]
pub struct Histogram;

impl Histogram {
    /// No-op.
    #[inline(always)]
    pub fn record(&self, _v: u64) {}

    /// Always 0.
    #[inline(always)]
    pub fn count(&self) -> u64 {
        0
    }

    /// All-zero summary.
    #[inline(always)]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary { count: 0, sum: 0, min: 0, max: 0, p50: 0, p90: 0, p99: 0 }
    }

    /// Always 0.
    #[inline(always)]
    pub fn quantile(&self, _q: f64) -> u64 {
        0
    }
}

/// Disabled registry; hands out ZST instruments and empty snapshots.
#[derive(Debug, Default)]
pub struct Registry;

impl Registry {
    /// Creates a disabled registry.
    pub fn new() -> Self {
        Registry
    }

    /// Returns the ZST counter.
    #[inline(always)]
    pub fn counter(&self, _subsystem: &str, _name: &str) -> Counter {
        Counter
    }

    /// Returns the ZST counter.
    #[inline(always)]
    pub fn counter_with(&self, _subsystem: &str, _name: &str, _labels: &[(&str, &str)]) -> Counter {
        Counter
    }

    /// Returns the ZST gauge.
    #[inline(always)]
    pub fn gauge(&self, _subsystem: &str, _name: &str) -> Gauge {
        Gauge
    }

    /// Returns the ZST gauge.
    #[inline(always)]
    pub fn gauge_with(&self, _subsystem: &str, _name: &str, _labels: &[(&str, &str)]) -> Gauge {
        Gauge
    }

    /// Returns the ZST histogram.
    #[inline(always)]
    pub fn histogram(&self, _subsystem: &str, _name: &str) -> Histogram {
        Histogram
    }

    /// Returns the ZST histogram.
    #[inline(always)]
    pub fn histogram_with(
        &self,
        _subsystem: &str,
        _name: &str,
        _labels: &[(&str, &str)],
    ) -> Histogram {
        Histogram
    }

    /// Always empty.
    #[inline(always)]
    pub fn snapshot(&self) -> Vec<MetricSample> {
        Vec::new()
    }

    /// No-op.
    #[inline(always)]
    pub fn reset(&self) {}
}

/// The disabled global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: Registry = Registry;
    &REGISTRY
}
