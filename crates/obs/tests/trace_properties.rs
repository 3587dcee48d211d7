//! Trace well-formedness properties (satellite: proptest coverage).
//!
//! Every drained trace must have balanced begin/end events, non-
//! decreasing timestamps per track, and valid interned-name references —
//! under random op sequences, tiny rings forced into wraparound and
//! saturation, cross-thread drains racing the writers, and partial
//! drains recombined with [`Trace::merge`]. Drops are *counted*, never
//! torn: a span either contributes both events or neither.
//!
//! The recorder is process-global, so every test serializes on
//! [`session_lock`]; the file is an integration test to keep its
//! sessions out of the unit suite's way.

#![cfg(feature = "enabled")]

use proptest::prelude::*;
use traj_obs::trace::{self, Trace, TraceEventKind};

fn session_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A leaked span site, as `trace_span!` keeps one per call site.
fn site(name: &'static str) -> &'static trace::SpanSite {
    Box::leak(Box::new(trace::SpanSite::new(name)))
}

/// Counts (begins, ends, instants, counters) in one track.
fn kind_counts(track: &traj_obs::trace::TrackTrace) -> (u64, u64, u64, u64) {
    let mut counts = (0u64, 0u64, 0u64, 0u64);
    for ev in &track.events {
        match ev.kind {
            TraceEventKind::Begin => counts.0 += 1,
            TraceEventKind::End => counts.1 += 1,
            TraceEventKind::Instant => counts.2 += 1,
            TraceEventKind::Counter => counts.3 += 1,
        }
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random op sequences on one thread, with a tiny ring and random
    /// mid-run drains, always produce a valid, fully-accounted trace.
    #[test]
    fn single_thread_random_ops_stay_wellformed(
        ops in proptest::collection::vec(0u8..5, 0..120),
        capacity in 8usize..24,
    ) {
        let _serial = session_lock();
        trace::start_with_capacity(capacity);
        trace::set_track_label("props-single");
        let span_site = site("props.span");
        let instant_name = trace::intern("props.instant");
        let counter_name = trace::intern("props.counter");

        let mut guards = Vec::new();
        let mut parts = Vec::new();
        let mut span_attempts = 0u64;
        let mut instant_attempts = 0u64;
        for op in ops {
            match op {
                0 | 1 => {
                    span_attempts += 1;
                    guards.push(trace::span_with(span_site, guards.len() as u64));
                }
                2 => {
                    drop(guards.pop());
                }
                3 => {
                    instant_attempts += 1;
                    trace::instant(instant_name, 7);
                }
                _ => {
                    instant_attempts += 1;
                    trace::counter_sample(counter_name, 3);
                }
            }
            if guards.len() % 5 == 4 {
                parts.push(trace::drain());
            }
        }
        drop(guards);
        parts.push(trace::stop());
        let merged = Trace::merge(parts);
        prop_assert_eq!(merged.validate(), Ok(()));

        let track = merged.tracks.iter().find(|t| t.label == "props-single");
        if span_attempts + instant_attempts > 0 {
            let track = track.expect("ops were attempted, track must exist");
            let (begins, ends, instants, counters) = kind_counts(track);
            prop_assert_eq!(begins, ends, "drops must never unbalance spans");
            // Every attempt is either recorded or counted as dropped.
            prop_assert_eq!(
                span_attempts + instant_attempts,
                begins + instants + counters + track.dropped
            );
        }
    }

    /// A capacity-8 ring cycled through many drain rounds loses nothing
    /// and preserves order: wraparound reuses slots only after the drain
    /// released them.
    #[test]
    fn wraparound_preserves_every_event_in_order(
        rounds in 1usize..40,
        batch in 1usize..5,
    ) {
        let _serial = session_lock();
        trace::start_with_capacity(8);
        trace::set_track_label("props-wrap");
        let name = trace::intern("props.wrap");
        let mut parts = Vec::new();
        let mut sent = 0u64;
        for _ in 0..rounds {
            for _ in 0..batch.min(6) {
                trace::instant(name, sent);
                sent += 1;
            }
            parts.push(trace::drain());
        }
        parts.push(trace::stop());
        let merged = Trace::merge(parts);
        prop_assert_eq!(merged.validate(), Ok(()));
        let track = merged
            .tracks
            .iter()
            .find(|t| t.label == "props-wrap")
            .expect("events were recorded");
        prop_assert_eq!(track.dropped, 0, "drains kept pace; nothing may drop");
        let values: Vec<u64> = track.events.iter().map(|e| e.value).collect();
        let expected: Vec<u64> = (0..sent).collect();
        prop_assert_eq!(values, expected);
    }

    /// Writers on several threads racing a continuously-draining reader:
    /// merged parts validate, and each writer's track accounts for every
    /// attempt (recorded or dropped, never torn).
    #[test]
    fn cross_thread_drains_never_tear(
        spans_per_thread in 1u64..60,
        instants_per_thread in 0u64..60,
        capacity in 8usize..64,
    ) {
        let _serial = session_lock();
        trace::start_with_capacity(capacity);
        const WRITERS: usize = 3;
        let mut parts = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WRITERS)
                .map(|w| {
                    scope.spawn(move || {
                        trace::set_track_label(&format!("props-writer-{w}"));
                        let span_site = site("props.x.span");
                        let instant_name = trace::intern("props.x.instant");
                        for i in 0..spans_per_thread {
                            let _g = trace::span_with(span_site, i);
                            if i < instants_per_thread {
                                trace::instant(instant_name, i);
                            }
                        }
                        for i in spans_per_thread.min(instants_per_thread)..instants_per_thread {
                            trace::instant(instant_name, i);
                        }
                    })
                })
                .collect();
            // Drain concurrently while the writers are running.
            for _ in 0..8 {
                parts.push(trace::drain());
                std::thread::yield_now();
            }
            for h in handles {
                h.join().expect("writer thread");
            }
        });
        parts.push(trace::stop());
        let merged = Trace::merge(parts);
        prop_assert_eq!(merged.validate(), Ok(()));
        for w in 0..WRITERS {
            let label = format!("props-writer-{w}");
            let track = merged
                .tracks
                .iter()
                .find(|t| t.label == label)
                .expect("every writer recorded at least one span attempt");
            let (begins, ends, instants, counters) = kind_counts(track);
            prop_assert_eq!(begins, ends, "torn span in {}", label);
            prop_assert_eq!(counters, 0);
            prop_assert_eq!(
                spans_per_thread + instants_per_thread,
                begins + instants + track.dropped,
                "unaccounted events in {}",
                label
            );
        }
    }
}

/// Interned ids are stable across sessions, so call-site caches stay
/// valid; names drained in one session resolve in the next.
#[test]
fn interned_names_stay_valid_across_sessions() {
    let _serial = session_lock();
    let id = trace::intern("props.stable");
    trace::start_with_capacity(32);
    trace::instant(id, 1);
    let first = trace::stop();
    assert_eq!(trace::intern("props.stable"), id);
    trace::start_with_capacity(32);
    trace::instant(id, 2);
    let second = trace::stop();
    assert_eq!(first.validate(), Ok(()));
    assert_eq!(second.validate(), Ok(()));
    assert_eq!(first.name(id), "props.stable");
    assert_eq!(second.name(id), "props.stable");
}

/// A new session discards undrained leftovers and resets drop counts —
/// sessions compose without bleeding into each other.
#[test]
fn sessions_start_clean() {
    let _serial = session_lock();
    trace::start_with_capacity(8);
    let name = trace::intern("props.leftover");
    for i in 0..32 {
        trace::instant(name, i); // saturate: guarantees drops
    }
    // No drain: stop-less leftovers and a non-zero drop count linger.
    trace::start_with_capacity(8);
    trace::set_track_label("props-clean");
    let trace_out = trace::stop();
    let track = trace_out.tracks.iter().find(|t| t.label == "props-clean");
    if let Some(track) = track {
        assert_eq!(track.events.len(), 0, "leftovers must be discarded");
        assert_eq!(track.dropped, 0, "drop counts must reset");
    }
}
