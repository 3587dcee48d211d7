//! The labeled `counter!`/`gauge!`/`histogram!` macros must not evaluate
//! their label values (allocation, arbitrary side effects), nor
//! `trace_span!` its payload, when instrumentation is compiled out — and
//! must evaluate them exactly once per use when it is enabled. This
//! test runs in both feature states; CI's no-default-features job is
//! the one that pins the zero-cost claim.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A label value whose `Display` impl counts how often it is rendered.
struct CountingLabel<'a>(&'a AtomicUsize);

impl fmt::Display for CountingLabel<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Relaxed ordering: single-threaded test bookkeeping.
        self.0.fetch_add(1, Ordering::Relaxed);
        write!(f, "probe")
    }
}

#[test]
fn labeled_macros_evaluate_labels_only_when_enabled() {
    let evals = AtomicUsize::new(0);
    let c = traj_obs::counter!("gating", "hits", run = CountingLabel(&evals));
    c.inc();
    let g = traj_obs::gauge!("gating", "level", run = CountingLabel(&evals));
    g.set(1.0);
    let h = traj_obs::histogram!("gating", "sizes", run = CountingLabel(&evals));
    h.record(3);
    let _span = traj_obs::trace_span!("gating.payload", {
        // Relaxed ordering: single-threaded test bookkeeping.
        evals.fetch_add(1, Ordering::Relaxed);
        1u64
    });
    let expected = if traj_obs::metrics_enabled() { 4 } else { 0 };
    // Relaxed ordering: single-threaded test bookkeeping.
    assert_eq!(evals.load(Ordering::Relaxed), expected);
}

#[test]
fn disabled_builds_record_nothing() {
    if traj_obs::metrics_enabled() {
        return;
    }
    let c = traj_obs::counter!("gating", "disabled_hits", run = "x");
    c.inc();
    assert_eq!(c.get(), 0);
    assert!(traj_obs::registry().snapshot().is_empty());
    // The trace recorder is compiled out too: sessions yield nothing.
    traj_obs::trace::start();
    {
        let _span = traj_obs::trace_span!("gating.span");
        traj_obs::trace_instant!("gating.instant", 1u64);
    }
    let trace = traj_obs::trace::stop();
    assert!(trace.is_empty());
    assert_eq!(trace.dropped_total(), 0);
}
