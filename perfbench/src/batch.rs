//! The closed-loop harness shared by `paper_grid` and `long_track`: one
//! thread, the next unit starts when the previous one returns.
//!
//! Set-up is repeated and its median reported; each repetition builds
//! the inputs from scratch and runs one warm-up unit. In a traced run
//! every second unit records a trace session and the others run
//! untraced, so the tracing overhead is measured against interleaved
//! untraced units of the same run.

use std::collections::BTreeMap;
use std::time::Instant;

use traj_obs::trace::{self, Trace};

use crate::metrics::{Metrics, ALGOS};
use crate::spans::{insert_self_shares, SpanTotals};
use crate::stats::{mean, median, percentile, spread, tail_percentile};
use crate::{host, Opts, Outcome};

/// Ring capacity per trace track, events; one unit of either batch
/// workload records well under this.
pub const TRACE_CAPACITY: usize = 1 << 18;

/// Units of a run whose traces go into the trace file.
const TRACE_FILE_UNITS: usize = 2;

/// What one unit did.
#[derive(Debug, Default)]
pub struct UnitOut {
    /// Input fixes the unit consumed.
    pub fixes: u64,
    /// Which of the workload's inputs it ran on.
    pub input: usize,
    /// Digest of its outputs; must equal every other unit's on the same
    /// input.
    pub digest: u64,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Kept points over input points, per algorithm of [`ALGOS`].
    pub kept_share: [f64; 4],
}

/// A closed-loop workload: prepared inputs plus the unit of work.
pub trait ClosedLoop {
    /// Runs unit `id`.
    fn unit(&mut self, id: u64) -> UnitOut;
}

/// FNV-1a, 64 bit: the output digest.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = if seed == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        seed
    };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn counter(subsystem: &str, name: &str) -> u64 {
    traj_obs::registry().counter(subsystem, name).get()
}

/// Runs `W` for the run's duration and returns the workload-independent
/// metrics plus the per-traced-unit span totals for the caller's own
/// per-layer metrics. `setup` builds the inputs and returns the workload
/// and the milliseconds its generator took, reported as `gen_metric`.
pub fn run<W: ClosedLoop>(
    opts: &Opts,
    gen_metric: &'static str,
    mut setup: impl FnMut() -> Result<(W, f64), String>,
    layer_metrics: impl Fn(&[SpanTotals], &mut Metrics),
) -> Result<Outcome, String> {
    let mut expected: BTreeMap<usize, u64> = BTreeMap::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut check = |out: &UnitOut, failures: &mut Vec<String>| -> bool {
        let mut bad = out.failures.clone();
        let want = *expected.entry(out.input).or_insert(out.digest);
        if want != out.digest {
            bad.push(format!(
                "input {}: output digest {:016x} != {want:016x}",
                out.input, out.digest
            ));
        }
        let ok = bad.is_empty();
        failures.extend(bad);
        ok
    };

    if opts.trace {
        // Rings are allocated once per thread, sized by the capacity in
        // force at the first event: allocate the main thread's now.
        trace::start_with_capacity(TRACE_CAPACITY);
        drop(traj_obs::trace_span!("bench.prime"));
        let _ = trace::stop();
    }

    let mut setups = Vec::with_capacity(opts.setup_reps);
    let mut gens = Vec::with_capacity(opts.setup_reps);
    let mut work = None;
    for _ in 0..opts.setup_reps.max(1) {
        let t0 = Instant::now();
        let (mut w, gen_ms) = setup()?;
        let warm = w.unit(0);
        setups.push(t0.elapsed().as_secs_f64());
        gens.push(gen_ms);
        attempted += 1;
        if !check(&warm, &mut failures) {
            failed += 1;
        }
        work = Some(w);
    }
    let mut w = work.ok_or("no set-up ran")?;

    let cols = ["cols_built", "cols_reuse"].map(|n| counter("layout", n));
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    let mut unit_ms = Vec::new();
    let mut by_input: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut traced_ms = Vec::new();
    let mut spans = Vec::new();
    let mut kept: Vec<[f64; 4]> = Vec::new();
    let mut file_parts: Vec<Trace> = Vec::new();
    let mut dropped = 0u64;
    let mut fixes = 0u64;
    let mut id = 1u64;
    while t0.elapsed().as_secs_f64() < opts.seconds || unit_ms.len() < opts.min_units {
        let traced = opts.trace && id.is_multiple_of(2);
        if traced {
            trace::start_with_capacity(TRACE_CAPACITY);
        }
        let u0 = Instant::now();
        let out = {
            let _unit = traj_obs::trace_span!("bench.unit", id);
            w.unit(id)
        };
        let ms = u0.elapsed().as_secs_f64() * 1e3;
        if traced {
            let tr = trace::stop();
            dropped += tr.dropped_total();
            spans.push(SpanTotals::of(&tr, |_| true));
            traced_ms.push(ms);
            if file_parts.len() < TRACE_FILE_UNITS {
                file_parts.push(tr);
            }
        } else {
            unit_ms.push(ms);
            by_input.entry(out.input).or_default().push(ms);
        }
        attempted += 1;
        fixes += out.fixes;
        kept.push(out.kept_share);
        if !check(&out, &mut failures) {
            failed += 1;
        }
        id += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    let [built, reuse] = ["cols_built", "cols_reuse"].map(|n| counter("layout", n));

    let tail = tail_percentile(unit_ms.len()).unwrap_or(50.0);
    let mut metrics = Metrics::new();
    metrics.insert("setup_s".into(), median(&setups).unwrap_or(0.0));
    // The median unit time of each input, averaged over the inputs: the
    // median resists a host stall, and the mean over a workload's inputs
    // keeps it from jumping between inputs of different cost.
    let per_input: Vec<f64> = by_input.values().filter_map(|v| median(v)).collect();
    metrics.insert(
        "unit_ms_p50".into(),
        per_input.iter().sum::<f64>() / per_input.len().max(1) as f64,
    );
    metrics.insert(
        "unit_ms_p90".into(),
        percentile(&unit_ms, 90.0).unwrap_or(0.0),
    );
    metrics.insert("unit_ms_mean".into(), mean(&unit_ms));
    metrics.insert(
        "failed_share".into(),
        failed as f64 / attempted.max(1) as f64,
    );
    metrics.insert("fixes_per_s".into(), fixes as f64 / wall_s);
    metrics.insert("cpu_us_per_fix".into(), cpu_s * 1e6 / fixes.max(1) as f64);
    metrics.insert("peak_rss_mb".into(), host::peak_rss_mb());

    let mut info = vec![
        ("units", unit_ms.len().to_string()),
        ("tail_percentile", tail.to_string()),
        ("unit_spread", spread(&unit_ms).unwrap_or(0.0).to_string()),
    ];
    if opts.trace {
        let share = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        // Anchor segments the evaluation engine served from its cache,
        // over all it evaluated (the engine's per-result trace instants).
        let [hits, misses] = ["eval.cache_hits", "eval.cache_misses"]
            .map(|n| spans.iter().map(|s| s.instant_sum(n)).sum::<u64>());
        metrics.insert(
            "core.eval_cache_hit_share".into(),
            share(hits, hits + misses),
        );
        metrics.insert(
            "core.cols_reuse_share".into(),
            share(reuse - cols[1], (built - cols[0]) + (reuse - cols[1])),
        );
        for (i, algo) in ALGOS.iter().enumerate() {
            let shares: Vec<f64> = kept.iter().map(|k| k[i]).collect();
            metrics.insert(
                format!("core.kept_share.{algo}"),
                median(&shares).unwrap_or(0.0),
            );
        }
        let (traced, untraced) = (median(&traced_ms), median(&unit_ms));
        if let (Some(t), Some(u)) = (traced, untraced) {
            metrics.insert("obs.trace_overhead_share".into(), t / u - 1.0);
        }
        insert_self_shares(&spans, &mut metrics);
        metrics.insert(gen_metric.into(), median(&gens).unwrap_or(0.0));
        layer_metrics(&spans, &mut metrics);
        info.push(("traced_units", spans.len().to_string()));
        info.push(("trace_dropped_events", dropped.to_string()));
    }
    failures.truncate(20);
    Ok(Outcome {
        attempted,
        failed,
        failures,
        digest: expected.values().fold(0, |h, d| fnv1a(h, &d.to_le_bytes())),
        metrics,
        info,
        trace: opts.trace.then(|| Trace::merge(file_parts)),
    })
}

/// Median over traced units of the summed duration of the spans `pick`
/// accepts, ms.
pub fn median_total(spans: &[SpanTotals], pick: impl Fn(&str) -> bool) -> f64 {
    let per_unit: Vec<f64> = spans.iter().map(|s| s.total_ms(&pick)).collect();
    median(&per_unit).unwrap_or(0.0)
}

/// Median over traced units of the summed self time of the spans `pick`
/// accepts, ms.
pub fn median_self(spans: &[SpanTotals], pick: impl Fn(&str) -> bool) -> f64 {
    let per_unit: Vec<f64> = spans.iter().map(|s| s.self_ms(&pick)).collect();
    median(&per_unit).unwrap_or(0.0)
}
