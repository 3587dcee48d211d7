//! The real (`enabled`) implementation of the instruments and registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::hist::{bucket_index, LogHistogram, BUCKETS};
use crate::sample::{HistogramSummary, MetricKind, MetricSample};

/// A monotonically increasing count. Handles are cheap `Arc` clones of
/// the shared cell; updates are relaxed atomics (the snapshot is
/// advisory, not a synchronization point).
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds `n` to the count.
    #[inline]
    pub fn add(&self, n: u64) {
        // Relaxed ordering: advisory counter, snapshots need no
        // happens-before with the counted work.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        // Relaxed ordering: a point-in-time read of an advisory count.
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins level; stores `f64` bits in an atomic cell.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    fn new() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: f64) {
        // Relaxed ordering: last-write-wins level, no reader depends
        // on seeing it in order with other memory.
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (CAS loop; gauges are cold-path).
    pub fn add(&self, delta: f64) {
        // Relaxed ordering throughout the CAS loop: the cell is the
        // only shared state, so the CAS's own atomicity is all the
        // correctness needed; failure reloads carry no dependencies.
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) // ordering: both relaxed, see loop comment
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> f64 {
        // Relaxed ordering: advisory point-in-time read.
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// The atomic, registry-held form of a [`LogHistogram`]: same log₂
/// bucket layout, recorded lock-free and wait-free from any thread.
///
/// [`Histogram::summary`] and [`Histogram::quantile`] read a
/// [`LogHistogram`] snapshot of the cells, so `count`/`sum`/`min`/`max`
/// are exact and the percentiles are [`LogHistogram`]'s estimates.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        let inner = &*self.0;
        // Relaxed ordering on all five cells: the histogram is advisory
        // and a snapshot tolerates torn cross-field reads (count/sum/
        // buckets may disagree transiently); each cell alone is exact.
        if let Some(b) = inner.buckets.get(bucket_index(v)) {
            b.fetch_add(1, Ordering::Relaxed); // ordering: relaxed, advisory (see above)
        }
        inner.count.fetch_add(1, Ordering::Relaxed); // ordering: relaxed, advisory (see above)
        inner.sum.fetch_add(v, Ordering::Relaxed); // ordering: relaxed, advisory (see above)
        inner.min.fetch_min(v, Ordering::Relaxed); // ordering: relaxed, advisory (see above)
        inner.max.fetch_max(v, Ordering::Relaxed); // ordering: relaxed, advisory (see above)
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        // Relaxed ordering: advisory point-in-time read.
        self.0.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every cell. Fields read at slightly
    /// different instants may disagree while other threads record;
    /// that is acceptable by design (each cell alone is exact).
    pub(crate) fn snapshot(&self) -> LogHistogram {
        let inner = &*self.0;
        // Relaxed ordering: a best-effort snapshot, see the doc above.
        let mut buckets = [0; BUCKETS];
        for (dst, cell) in buckets.iter_mut().zip(&inner.buckets) {
            *dst = cell.load(Ordering::Relaxed); // ordering: relaxed snapshot read
        }
        LogHistogram {
            buckets,
            count: inner.count.load(Ordering::Relaxed), // ordering: relaxed snapshot read
            sum: inner.sum.load(Ordering::Relaxed), // ordering: relaxed snapshot read
            min: inner.min.load(Ordering::Relaxed), // ordering: relaxed snapshot read
            max: inner.max.load(Ordering::Relaxed), // ordering: relaxed snapshot read
        }
    }

    /// Snapshot summary statistics ([`LogHistogram::summary`]).
    pub fn summary(&self) -> HistogramSummary {
        self.snapshot().summary()
    }

    /// Estimated value at quantile `q` (`0.0..=1.0`), e.g. `0.999` for
    /// p999 — the tail the standard [`Histogram::summary`] stops short
    /// of ([`LogHistogram::quantile`]). Returns 0 with no observations.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    fn reset(&self) {
        let inner = &*self.0;
        // Relaxed ordering: reset races with concurrent recording by
        // design; observations landing mid-reset are simply attributed
        // to one side or the other.
        for b in &inner.buckets {
            b.store(0, Ordering::Relaxed); // ordering: relaxed reset, see above
        }
        inner.count.store(0, Ordering::Relaxed); // ordering: relaxed reset, see above
        inner.sum.store(0, Ordering::Relaxed); // ordering: relaxed reset, see above
        inner.min.store(u64::MAX, Ordering::Relaxed); // ordering: relaxed reset, see above
        inner.max.store(0, Ordering::Relaxed); // ordering: relaxed reset, see above
    }
}

/// A started monotonic clock; read with [`Timer::elapsed_ns`].
#[derive(Clone, Copy, Debug)]
pub struct Timer(Instant);

impl Timer {
    /// Starts the clock.
    pub fn start() -> Self {
        Timer(Instant::now())
    }

    /// Nanoseconds since [`Timer::start`] (saturating).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Times a scope: records the elapsed nanoseconds into a histogram when
/// dropped.
#[derive(Debug)]
pub struct ScopeTimer {
    histogram: Histogram,
    start: Instant,
}

impl ScopeTimer {
    /// Starts timing into `histogram`.
    pub fn new(histogram: Histogram) -> Self {
        ScopeTimer { histogram, start: Instant::now() }
    }
}

impl Drop for ScopeTimer {
    fn drop(&mut self) {
        self.histogram.record_duration(self.start.elapsed());
    }
}

#[derive(Clone, Debug)]
enum Entry {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

type Key = (String, String, Vec<(String, String)>);

/// The metric store: maps `(subsystem, name, labels)` to a live
/// instrument. Lookup takes a mutex; handles returned from lookup are
/// lock-free, which is why hot paths cache them (see the `counter!`
/// macro) or accumulate locally and flush once.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<Key, Entry>>,
}

impl Registry {
    /// Creates an empty registry (tests; production code uses
    /// [`registry`]).
    pub fn new() -> Self {
        Registry::default()
    }

    fn key(subsystem: &str, name: &str, labels: &[(&str, &str)]) -> Key {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        (subsystem.to_string(), name.to_string(), labels)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<Key, Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns (registering on first use) the unlabeled counter
    /// `subsystem.name`.
    pub fn counter(&self, subsystem: &str, name: &str) -> Counter {
        self.counter_with(subsystem, name, &[])
    }

    /// Returns (registering on first use) a labeled counter.
    ///
    /// # Panics
    /// If the key is already registered as a different instrument kind.
    pub fn counter_with(&self, subsystem: &str, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = Self::key(subsystem, name, labels);
        let mut map = self.lock();
        match map.entry(key).or_insert_with(|| Entry::Counter(Counter::new())) {
            Entry::Counter(c) => c.clone(),
            // lint: allow(panic) registry contract: one kind per metric
            // name; a kind clash is a programming error worth failing on
            _ => panic!("metric {subsystem}.{name} already registered with a different kind"),
        }
    }

    /// Returns (registering on first use) the unlabeled gauge
    /// `subsystem.name`.
    pub fn gauge(&self, subsystem: &str, name: &str) -> Gauge {
        self.gauge_with(subsystem, name, &[])
    }

    /// Returns (registering on first use) a labeled gauge.
    ///
    /// # Panics
    /// If the key is already registered as a different instrument kind.
    pub fn gauge_with(&self, subsystem: &str, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = Self::key(subsystem, name, labels);
        let mut map = self.lock();
        match map.entry(key).or_insert_with(|| Entry::Gauge(Gauge::new())) {
            Entry::Gauge(g) => g.clone(),
            // lint: allow(panic) registry contract: one kind per metric
            // name; a kind clash is a programming error worth failing on
            _ => panic!("metric {subsystem}.{name} already registered with a different kind"),
        }
    }

    /// Returns (registering on first use) the unlabeled histogram
    /// `subsystem.name`.
    pub fn histogram(&self, subsystem: &str, name: &str) -> Histogram {
        self.histogram_with(subsystem, name, &[])
    }

    /// Returns (registering on first use) a labeled histogram.
    ///
    /// # Panics
    /// If the key is already registered as a different instrument kind.
    pub fn histogram_with(
        &self,
        subsystem: &str,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Histogram {
        let key = Self::key(subsystem, name, labels);
        let mut map = self.lock();
        match map.entry(key).or_insert_with(|| Entry::Histogram(Histogram::new())) {
            Entry::Histogram(h) => h.clone(),
            // lint: allow(panic) registry contract: one kind per metric
            // name; a kind clash is a programming error worth failing on
            _ => panic!("metric {subsystem}.{name} already registered with a different kind"),
        }
    }

    /// A sorted snapshot of every registered metric.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let map = self.lock();
        map.iter()
            .map(|((subsystem, name, labels), entry)| {
                let (kind, value, histogram) = match entry {
                    Entry::Counter(c) => (MetricKind::Counter, c.get() as f64, None),
                    Entry::Gauge(g) => (MetricKind::Gauge, g.get(), None),
                    Entry::Histogram(h) => (MetricKind::Histogram, 0.0, Some(h.summary())),
                };
                MetricSample {
                    subsystem: subsystem.clone(),
                    name: name.clone(),
                    labels: labels.clone(),
                    kind,
                    value,
                    histogram,
                }
            })
            .collect()
    }

    /// Zeroes every registered instrument **in place**, keeping all
    /// handles (including macro-cached ones) valid.
    pub fn reset(&self) {
        let map = self.lock();
        for entry in map.values() {
            match entry {
                // Relaxed ordering: advisory reset, races with writers are fine.
            Entry::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Entry::Gauge(g) => g.set(0.0),
                Entry::Histogram(h) => h.reset(),
            }
        }
    }
}

/// The process-wide registry every macro and instrumented crate records
/// into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// One cached span call-path on a thread: the joined `outer/inner` path,
/// its duration histogram, per-field companion histograms, and the child
/// paths seen beneath it.
#[derive(Debug)]
struct SpanNode {
    name: &'static str,
    path: String,
    histogram: Histogram,
    fields: Vec<(&'static str, Histogram)>,
    children: Vec<usize>,
}

/// Per-thread cache of span paths. The first entry at a given position
/// in the span tree formats the path and registers its histograms
/// **once**; every re-entry is a name-pointer walk over the parent's
/// children — no formatting, no registry lock.
#[derive(Debug, Default)]
struct SpanCache {
    nodes: Vec<SpanNode>,
    roots: Vec<usize>,
    stack: Vec<usize>,
}

impl SpanCache {
    fn enter(&mut self, name: &'static str, fields: &[(&'static str, u64)]) -> usize {
        let parent = self.stack.last().copied();
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        let idx = match siblings.iter().copied().find(|&i| self.nodes[i].name == name) {
            Some(i) => i,
            None => {
                let path = match parent {
                    Some(p) => format!("{}/{name}", self.nodes[p].path),
                    None => name.to_string(),
                };
                let histogram = registry().histogram("span", &path);
                let idx = self.nodes.len();
                self.nodes.push(SpanNode {
                    name,
                    path,
                    histogram,
                    fields: Vec::new(),
                    children: Vec::new(),
                });
                match parent {
                    Some(p) => self.nodes[p].children.push(idx),
                    None => self.roots.push(idx),
                }
                idx
            }
        };
        for (field, value) in fields {
            let hist = match self.nodes[idx].fields.iter().find(|(f, _)| f == field) {
                Some((_, h)) => h.clone(),
                None => {
                    let h = registry()
                        .histogram("span", &format!("{}.{field}", self.nodes[idx].path));
                    self.nodes[idx].fields.push((field, h.clone()));
                    h
                }
            };
            hist.record(*value);
        }
        self.stack.push(idx);
        idx
    }
}

thread_local! {
    static SPAN_CACHE: std::cell::RefCell<SpanCache> =
        std::cell::RefCell::new(SpanCache::default());
}

/// Entry point for the [`span!`](crate::span) macro.
#[derive(Debug)]
pub struct Span;

impl Span {
    /// Opens a span named `name` under the thread's current span path,
    /// recording `fields` as companion histograms `span.<name>.<field>`.
    ///
    /// The `format!("{path}.{field}")` + registry lookup happens only the
    /// first time a call path is seen on a thread; re-entries hit the
    /// thread-local `SpanCache` (see [`Span::thread_cache_len`]).
    pub fn enter(name: &'static str, fields: &[(&'static str, u64)]) -> SpanGuard {
        let node = SPAN_CACHE.with(|cache| cache.borrow_mut().enter(name, fields));
        SpanGuard { node: Some(node), start: Instant::now() }
    }

    /// Number of distinct span call-paths cached on this thread — a
    /// bench/test hook: re-entering a known span must not grow it.
    pub fn thread_cache_len() -> usize {
        SPAN_CACHE.with(|cache| cache.borrow().nodes.len())
    }
}

/// Guard returned by [`Span::enter`]; records the span's wall-clock
/// duration (nanoseconds) under `span.<path>` on drop.
#[derive(Debug)]
pub struct SpanGuard {
    node: Option<usize>,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(node) = self.node.take() else {
            return;
        };
        let elapsed = self.start.elapsed();
        // try_with: a guard dropped during thread teardown (after the
        // cache was destroyed) simply records nothing.
        let _ = SPAN_CACHE.try_with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(n) = cache.nodes.get(node) {
                n.histogram.record_duration(elapsed);
            }
            if cache.stack.last() == Some(&node) {
                cache.stack.pop();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_clones() {
        let r = Registry::new();
        let a = r.counter("t", "hits");
        let b = r.counter("t", "hits");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
    }

    #[test]
    fn labeled_counters_are_distinct_and_sorted() {
        let r = Registry::new();
        r.counter_with("c", "evals", &[("algo", "td-tr")]).add(5);
        r.counter_with("c", "evals", &[("algo", "ndp")]).add(2);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        // BTreeMap ordering: "ndp" < "td-tr".
        assert_eq!(snap[0].labels, vec![("algo".to_string(), "ndp".to_string())]);
        assert_eq!(snap[0].value, 2.0);
        assert_eq!(snap[1].value, 5.0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        r.counter_with("c", "x", &[("a", "1"), ("b", "2")]).inc();
        r.counter_with("c", "x", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(r.snapshot().len(), 1);
        assert_eq!(r.snapshot()[0].value, 2.0);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("t", "x");
        r.gauge("t", "x");
    }

    #[test]
    fn gauge_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("t", "level");
        g.set(2.5);
        g.add(-1.0);
        assert_eq!(g.get(), 1.5);
    }

    #[test]
    fn atomic_histogram_snapshots_into_the_value_type() {
        let h = Histogram::new();
        let mut value = LogHistogram::new();
        assert_eq!(h.snapshot(), value, "empty");
        assert_eq!(h.summary(), value.summary());
        let mut values = vec![100u64; 998];
        values.extend([0, 1, 3, 90_000, 100_000, u64::MAX]);
        for v in values {
            h.record(v);
            value.record(v);
        }
        assert_eq!(h.snapshot(), value);
        assert_eq!(h.summary(), value.summary());
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), value.quantile(q), "q = {q}");
        }
        assert_eq!(h.quantile(1.0), u64::MAX, "the max is exact");
    }

    #[test]
    fn scope_timer_records_on_drop() {
        let r = Registry::new();
        let h = r.histogram("t", "elapsed_ns");
        {
            let _t = ScopeTimer::new(h.clone());
            std::hint::black_box(0u64);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        // Uses the global registry (spans always do); assert on deltas.
        let outer = registry().histogram("span", "obs_test.outer");
        let inner = registry().histogram("span", "obs_test.outer/obs_test.inner");
        let (o0, i0) = (outer.count(), inner.count());
        {
            let _a = Span::enter("obs_test.outer", &[("points", 7)]);
            let _b = Span::enter("obs_test.inner", &[]);
        }
        assert_eq!(outer.count(), o0 + 1);
        assert_eq!(inner.count(), i0 + 1);
        let fields = registry().histogram("span", "obs_test.outer.points");
        assert!(fields.count() >= 1);
    }

    #[test]
    fn span_cache_reuses_paths_per_thread() {
        // Warm the cache, then assert re-entry at the same call paths
        // neither grows it nor re-registers histograms.
        {
            let _a = Span::enter("obs_cache.outer", &[("n", 1)]);
            let _b = Span::enter("obs_cache.inner", &[]);
        }
        let warm = Span::thread_cache_len();
        for _ in 0..10 {
            let _a = Span::enter("obs_cache.outer", &[("n", 2)]);
            let _b = Span::enter("obs_cache.inner", &[]);
        }
        assert_eq!(Span::thread_cache_len(), warm, "re-entry must not grow the span cache");
        let nested = registry().histogram("span", "obs_cache.outer/obs_cache.inner");
        assert!(nested.count() >= 11);
        let field = registry().histogram("span", "obs_cache.outer.n");
        assert!(field.count() >= 11);
    }

    #[test]
    fn reset_zeroes_in_place() {
        let r = Registry::new();
        let c = r.counter("t", "n");
        c.add(9);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.snapshot()[0].value, 1.0);
    }
}
