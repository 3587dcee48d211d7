//! `traj-obs`: the observability substrate of the trajc workspace.
//!
//! The paper's whole argument rests on *measuring* compression behaviour
//! — points kept, error evaluations, algorithm cost — so this crate makes
//! every hot path visible and cheap to export, with **no dependencies
//! outside `std`**:
//!
//! * [`Counter`] / [`Gauge`] — atomic scalar instruments;
//! * [`LogHistogram`] — the always-compiled, mergeable log₂ histogram
//!   value: exact count / sum / min / max, estimated quantiles;
//! * [`Histogram`] — the atomic registry instrument over the same
//!   buckets, summarized through a [`LogHistogram`] snapshot;
//! * [`Registry`] — the global metric store, keyed by
//!   `(subsystem, name)` plus an optional label set, so one logical
//!   metric can fan out into a family (`compress.sed_evals{algo=td-tr}`);
//! * [`trace_span!`] — the one span: a guard that times its scope from
//!   one begin/end pair of clock reads into the `span.<name>` histogram
//!   and, while a trace session runs, onto the timeline;
//! * [`sink`] — export of a registry snapshot as a human-readable table,
//!   JSON lines, or RFC-4180 CSV (with inverse parsers for merging
//!   sidecar files across runs);
//! * [`trace`] — `traj-trace`, the structured event-timeline substrate:
//!   per-thread lock-free ring buffers of binary events with interned
//!   names, exported as Chrome Trace Event JSON or folded stacks (see
//!   [`trace_instant!`], [`trace_counter!`]);
//! * [`json`] — the minimal JSON parser backing sidecar readback.
//!
//! # Compile-time removal
//!
//! The `enabled` feature (on by default) selects the real implementation.
//! With `--no-default-features` every instrument becomes a zero-sized
//! type with inlined empty methods: call sites compile and the optimizer
//! erases them, so disabling observability costs nothing at runtime.
//! Code can branch on [`metrics_enabled`] where the *surrounding* work
//! (e.g. building a label string) should also be skipped.
//!
//! # Conventions
//!
//! * Durations are recorded in **nanoseconds** (`*_ns` histograms; the
//!   `span` subsystem is implicitly nanoseconds).
//! * Hot loops accumulate into plain locals and flush once per call; the
//!   atomic instruments are for call-boundary updates.
//!
//! ```
//! use traj_obs::{counter, registry, trace_span};
//!
//! {
//!     let _span = trace_span!("doctest.work", 128u64);
//!     counter!("doctest", "points_in").add(128);
//! }
//! let samples = registry().snapshot();
//! println!("{}", traj_obs::sink::render_table(&samples));
//! ```

mod hist;
pub mod json;
pub mod sample;
pub mod sink;
pub mod trace;

#[cfg(feature = "enabled")]
mod metrics;
#[cfg(feature = "enabled")]
pub use metrics::{registry, Counter, Gauge, Histogram, Registry};

#[cfg(not(feature = "enabled"))]
mod noop;
#[cfg(not(feature = "enabled"))]
pub use noop::{registry, Counter, Gauge, Histogram, Registry};

pub use hist::LogHistogram;
pub use sample::{HistogramSummary, MetricKind, MetricSample};

/// Whether instrumentation is compiled in (`enabled` feature).
#[inline(always)]
pub const fn metrics_enabled() -> bool {
    cfg!(feature = "enabled")
}

/// A cached global [`Counter`] handle for this call site.
///
/// `counter!("compress", "sed_evals")` resolves the registry entry once
/// per call site; the labeled form
/// `counter!("compress", "sed_evals", algo = name)` looks up per call
/// (label values are dynamic) and is meant for call-boundary code.
///
/// With instrumentation compiled out the label values are **never
/// evaluated** (they may allocate via `to_string`), so disabled builds
/// stay truly zero-cost.
#[macro_export]
macro_rules! counter {
    ($subsystem:expr, $name:expr) => {{
        static __OBS_HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        __OBS_HANDLE.get_or_init(|| $crate::registry().counter($subsystem, $name))
    }};
    ($subsystem:expr, $name:expr, $($label:ident = $value:expr),+ $(,)?) => {
        if $crate::metrics_enabled() {
            $crate::registry().counter_with(
                $subsystem,
                $name,
                &[$((stringify!($label), &*$value.to_string())),+],
            )
        } else {
            // Disabled: do not evaluate the label values; both branches
            // hand back the (zero-sized) instrument type of this build.
            $crate::registry().counter($subsystem, $name)
        }
    };
}

/// A cached global [`Gauge`] handle for this call site (labeled form
/// looks up per call; label values are not evaluated when
/// instrumentation is compiled out).
#[macro_export]
macro_rules! gauge {
    ($subsystem:expr, $name:expr) => {{
        static __OBS_HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        __OBS_HANDLE.get_or_init(|| $crate::registry().gauge($subsystem, $name))
    }};
    ($subsystem:expr, $name:expr, $($label:ident = $value:expr),+ $(,)?) => {
        if $crate::metrics_enabled() {
            $crate::registry().gauge_with(
                $subsystem,
                $name,
                &[$((stringify!($label), &*$value.to_string())),+],
            )
        } else {
            // Disabled: do not evaluate the label values.
            $crate::registry().gauge($subsystem, $name)
        }
    };
}

/// A cached global [`Histogram`] handle for this call site (labeled form
/// looks up per call; label values are not evaluated when
/// instrumentation is compiled out).
#[macro_export]
macro_rules! histogram {
    ($subsystem:expr, $name:expr) => {{
        static __OBS_HANDLE: ::std::sync::OnceLock<$crate::Histogram> =
            ::std::sync::OnceLock::new();
        __OBS_HANDLE.get_or_init(|| $crate::registry().histogram($subsystem, $name))
    }};
    ($subsystem:expr, $name:expr, $($label:ident = $value:expr),+ $(,)?) => {
        if $crate::metrics_enabled() {
            $crate::registry().histogram_with(
                $subsystem,
                $name,
                &[$((stringify!($label), &*$value.to_string())),+],
            )
        } else {
            // Disabled: do not evaluate the label values.
            $crate::registry().histogram($subsystem, $name)
        }
    };
}

/// Opens a span: the returned guard reads the clock now and once more
/// when it drops, records the difference (ns) into the call site's
/// `span.<name>` histogram and, if a [`trace`] session accepted the
/// `Begin`, writes the `End` at that same timestamp, so histogram and
/// timeline come from one begin/end pair. Spans nest on the timeline
/// (folded stacks print `outer;inner`); the histogram is keyed by name.
///
/// An optional second argument attaches a `u64` payload to the `Begin`
/// event (`args.value` in Perfetto): `trace_span!("stripe", items)`.
/// The name is interned and the histogram registered once per call
/// site. With instrumentation compiled out the guard is inert and the
/// payload is not evaluated.
#[macro_export]
macro_rules! trace_span {
    ($name:expr) => {
        $crate::trace_span!($name, 0u64)
    };
    ($name:expr, $value:expr) => {
        if $crate::metrics_enabled() {
            static __SPAN_SITE: ::std::sync::OnceLock<$crate::trace::SpanSite> =
                ::std::sync::OnceLock::new();
            $crate::trace::span_with(
                __SPAN_SITE.get_or_init(|| $crate::trace::SpanSite::new($name)),
                $value as u64,
            )
        } else {
            $crate::trace::TraceSpanGuard::inert()
        }
    };
}

/// Records a [`trace`] instant event (a point-in-time marker) with an
/// optional `u64` payload. Interned per call site; no-op unless a trace
/// session is active.
#[macro_export]
macro_rules! trace_instant {
    ($name:expr) => {
        $crate::trace_instant!($name, 0u64)
    };
    ($name:expr, $value:expr) => {
        if $crate::metrics_enabled() && $crate::trace::is_active() {
            static __TRACE_NAME: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
            $crate::trace::instant(
                *__TRACE_NAME.get_or_init(|| $crate::trace::intern($name)),
                $value as u64,
            );
        }
    };
}

/// Records a [`trace`] counter sample (rendered as a counter track in
/// the Chrome export). Interned per call site; no-op unless a trace
/// session is active.
#[macro_export]
macro_rules! trace_counter {
    ($name:expr, $value:expr) => {
        if $crate::metrics_enabled() && $crate::trace::is_active() {
            static __TRACE_NAME: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
            $crate::trace::counter_sample(
                *__TRACE_NAME.get_or_init(|| $crate::trace::intern($name)),
                $value as u64,
            );
        }
    };
}
