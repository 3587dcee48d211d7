//! The experiment runner: threshold sweeps averaged over the dataset.
//!
//! [`sweep_algos`] is the one runner behind every figure. Per trajectory
//! it compresses all of a figure's rows first — the opening-window rows
//! as lanes of one window scan ([`Algo::run_rows`]) — then hands the
//! compression workspace's trajectory columns to the evaluation
//! workspace and evaluates the rows in order against one segment memo. A
//! result equal to an earlier row's at the same threshold reuses that
//! row's evaluation: on the paper's data the OPW-SP(15 m/s) and
//! OPW-SP(25 m/s) rows of Figs. 10 and 11 equal OPW-TR's, and share most
//! of its lanes too.

use crate::registry::Algo;
use traj_compress::{CompressionResult, ErrorEval, EvalWorkspace, Evaluation, Workspace};
use traj_model::Trajectory;

/// The paper's fifteen spatial thresholds: 30–100 m in 5 m steps (§4.3).
pub const PAPER_THRESHOLDS: [f64; 15] = [
    30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0, 80.0, 85.0, 90.0, 95.0, 100.0,
];

/// The paper's speed-difference thresholds: 5, 15, 25 m/s (§4.3).
pub const PAPER_SPEED_THRESHOLDS: [f64; 3] = [5.0, 15.0, 25.0];

/// One cell of a sweep: dataset-average compression and error at a
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Spatial threshold, metres.
    pub threshold_m: f64,
    /// Mean compression over the dataset, percent of points removed.
    pub compression_pct: f64,
    /// Std-dev of compression across the dataset's trajectories.
    pub compression_std: f64,
    /// Mean average-synchronous error `α` over the dataset, metres.
    pub error_m: f64,
    /// Std-dev of `α` across the dataset's trajectories, metres.
    pub error_std: f64,
    /// Mean of the classic perpendicular error over the dataset, metres
    /// (reported alongside for the §4.1 comparison).
    pub perp_error_m: f64,
    /// Mean SED at the original sample instants, averaged over the
    /// dataset, metres.
    pub mean_sed_m: f64,
    /// Worst SED at the original sample instants across the whole
    /// dataset, metres — for strict-bound algorithms this never exceeds
    /// `threshold_m`.
    pub max_sed_m: f64,
}

/// A full threshold sweep for one algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoSweep {
    /// Display label, e.g. `"TD-TR"` or `"OPW-SP(5m/s)"`.
    pub label: String,
    /// One point per threshold, in threshold order.
    pub points: Vec<SweepPoint>,
}

impl AlgoSweep {
    /// Mean error across all thresholds (used by shape checks).
    pub fn mean_error(&self) -> f64 {
        mean(self.points.iter().map(|p| p.error_m))
    }

    /// Mean compression across all thresholds.
    pub fn mean_compression(&self) -> f64 {
        mean(self.points.iter().map(|p| p.compression_pct))
    }

    /// Error spread: max − min across thresholds (the paper's
    /// "threshold-insensitivity" observation for OPW-TR, Fig. 9).
    /// An empty sweep has no spread: 0 (the folds' seeds would
    /// otherwise produce `0 − ∞ = -inf`).
    pub fn error_spread(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let lo = self
            .points
            .iter()
            .map(|p| p.error_m)
            .fold(f64::INFINITY, f64::min);
        let hi = self.points.iter().map(|p| p.error_m).fold(0.0f64, f64::max);
        hi - lo
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Sweeps every algorithm of one figure over the dataset × threshold
/// grid, averaging compression and error per threshold — the protocol
/// behind each figure of §4 ("figures given are averages over ten
/// different trajectories") — and returns one [`AlgoSweep`] per entry of
/// `algos`, in order.
///
/// Trajectory by trajectory, [`Algo::run_rows`] compresses every
/// algorithm over the whole threshold grid through one [`Workspace`], the
/// opening-window rows as lanes of one window scan. The workspace then
/// hands its trajectory columns to one [`EvalWorkspace`], which evaluates
/// the results in algorithm order, so an anchor segment kept by several
/// thresholds or algorithms is evaluated once, and a result equal to an
/// earlier algorithm's at the same threshold reuses that evaluation. Each
/// algorithm's rows are then aggregated in dataset order.
///
/// `threads` fans the dataset over scoped workers (`0` = auto: all
/// cores, but inline on one core or below 16,384 points × thresholds ×
/// algorithms; `1` = inline). Worker *w* sweeps trajectories *w*,
/// *w* + workers, … with its own workspaces, on a trace track labelled
/// `sweep-worker-{w}` inside a `parallel.stripe` span valued at its
/// trajectory count. The sweeps are **bit-identical** for every count.
///
/// # Panics
/// Panics on an empty dataset (with at least one algorithm), or if a
/// worker panics (propagated).
pub fn sweep_algos(
    algos: &[Algo],
    dataset: &[Trajectory],
    thresholds: &[f64],
    threads: usize,
) -> Vec<AlgoSweep> {
    let n = dataset.len();
    // Grid work: every input point is visited once per threshold and algorithm.
    let points: usize = dataset.iter().map(Trajectory::len).sum();
    let work = points.saturating_mul(thresholds.len().max(1) * algos.len());
    let workers = auto_workers(threads, n, work);
    // The loop body of every sweep, inline or on a worker: trajectories
    // `first`, `first + step`, … through one pair of workspaces.
    let stripe = |first: usize, step: usize| -> Vec<Rows> {
        let (mut ws, mut ews) = (Workspace::new(), EvalWorkspace::new());
        let mut rows = Vec::new();
        for t in dataset.iter().skip(first).step_by(step) {
            let results = Algo::run_rows(algos, t, thresholds, &mut ws);
            // The compression columns serve the evaluation too.
            ews.seed_columns(ws.take_columns());
            rows.push(evaluate_rows(t, &results, &mut ews));
        }
        rows
    };
    let rows = if workers == 1 {
        stripe(0, 1)
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        if traj_obs::trace::is_active() {
                            traj_obs::trace::set_track_label(&format!("sweep-worker-{w}"));
                        }
                        let _stripe =
                            traj_obs::trace_span!("parallel.stripe", (n - w).div_ceil(workers));
                        stripe(w, workers)
                    })
                })
                .collect();
            let mut stripes: Vec<_> = handles
                .into_iter()
                // lint: allow(panic) a worker panic is an algorithm bug; re-raising
                // it on the caller thread is deliberate panic propagation
                .map(|h| h.join().expect("worker panicked").into_iter())
                .collect();
            // Striping balances mixed lengths without work stealing; deal
            // the rows back in dataset order.
            (0..n).filter_map(|i| stripes[i % workers].next()).collect()
        })
    };
    algos.iter().enumerate().map(|(a, algo)| aggregate(algo, thresholds, &rows, a)).collect()
}

/// One trajectory's evaluations: per algorithm, one per threshold.
type Rows = Vec<Vec<Evaluation>>;

/// Evaluates one trajectory's results, per algorithm and threshold, in
/// algorithm order. A result equal to an earlier algorithm's at the same
/// threshold takes that algorithm's [`Evaluation`]: an evaluation depends
/// only on the trajectory and the kept indices, so the copy is exact.
fn evaluate_rows(
    traj: &Trajectory,
    results: &[Vec<CompressionResult>],
    ews: &mut EvalWorkspace,
) -> Rows {
    let mut rows: Rows = Vec::with_capacity(results.len());
    if results.is_empty() {
        return rows;
    }
    let mut ev = ErrorEval::new(traj, ews);
    for (a, row) in results.iter().enumerate() {
        let evals = row
            .iter()
            .enumerate()
            .map(|(j, r)| {
                let earlier =
                    results[..a].iter().zip(&rows).find(|(prev, _)| prev.get(j) == Some(r));
                match earlier.and_then(|(_, evals)| evals.get(j)) {
                    Some(&e) => e,
                    None => ev.evaluate(r),
                }
            })
            .collect();
        rows.push(evals);
    }
    rows
}

/// [`sweep_algos`] for one algorithm, inline. Panics on an empty dataset.
pub fn sweep_algo(algo: &Algo, dataset: &[Trajectory], thresholds: &[f64]) -> AlgoSweep {
    sweep_algo_parallel(algo, dataset, thresholds, 1)
}

/// [`sweep_algos`] for one algorithm, fanned over `threads` workers.
/// Panics on an empty dataset, or if a worker panics (propagated).
pub fn sweep_algo_parallel(
    algo: &Algo,
    dataset: &[Trajectory],
    thresholds: &[f64],
    threads: usize,
) -> AlgoSweep {
    sweep_algos(std::slice::from_ref(algo), dataset, thresholds, threads).swap_remove(0)
}

/// Minimum grid work (input points × thresholds × algorithms) below which
/// `threads == 0` auto-sizing stays serial.
///
/// Spawning scoped workers and giving each its own [`Workspace`] costs
/// on the order of a hundred microseconds; a grid this small sweeps in
/// less. Benchmarks on the paper grid showed the parallel path *losing*
/// to serial for small grids (and on single-core hosts at any size), so
/// `auto_workers` refuses to fan out beneath this floor. An explicit
/// `threads >= 1` request always overrides it.
const MIN_AUTO_PARALLEL_WORK: usize = 16_384;

/// Resolves a requested thread count into the worker count to actually
/// spawn for `items` independent trajectories totalling `work_units`
/// of grid work.
///
/// - `requested >= 1` is honored (clamped to `items` — more workers
///   than tasks would idle).
/// - `requested == 0` means "auto": all available cores, but *serial*
///   when the machine has a single core or `work_units` is below
///   [`MIN_AUTO_PARALLEL_WORK`], where thread startup dominates.
///
/// Returns at least 1; a return of 1 means "run inline, spawn nothing".
fn auto_workers(requested: usize, items: usize, work_units: usize) -> usize {
    if items <= 1 {
        return 1;
    }
    if requested >= 1 {
        return requested.min(items);
    }
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if cores <= 1 || work_units < MIN_AUTO_PARALLEL_WORK {
        1
    } else {
        cores.min(items)
    }
}

/// Shared aggregation of `algo`, the `a`-th algorithm: per trajectory,
/// its row of per-threshold [`Evaluation`]s, consumed in dataset order.
/// Per-threshold statistics accumulate in that order, so any two
/// producers of identical rows yield bit-identical sweeps — the hinge of
/// the parallel/serial equivalence guarantee.
fn aggregate(algo: &Algo, thresholds: &[f64], rows: &[Rows], a: usize) -> AlgoSweep {
    let dataset_len = rows.len();
    assert!(dataset_len > 0, "sweep needs a non-empty dataset");
    let nt = thresholds.len();
    let mut comps = vec![Vec::with_capacity(dataset_len); nt];
    let mut errs = vec![Vec::with_capacity(dataset_len); nt];
    let mut perp = vec![0.0f64; nt];
    let mut sed_mean = vec![0.0f64; nt];
    let mut sed_max = vec![0.0f64; nt];
    for row in rows.iter().map(|r| &r[a]) {
        debug_assert_eq!(row.len(), nt, "one evaluation per threshold");
        for (j, e) in row.iter().enumerate() {
            comps[j].push(e.compression_pct);
            errs[j].push(e.avg_sync_err_m);
            perp[j] += e.mean_perp_m;
            sed_mean[j] += e.mean_sed_m;
            sed_max[j] = sed_max[j].max(e.max_sed_m);
        }
    }
    let points = thresholds
        .iter()
        .enumerate()
        .map(|(j, &eps)| {
            let comp = traj_model::MeanStd::of(&comps[j]);
            let err = traj_model::MeanStd::of(&errs[j]);
            SweepPoint {
                threshold_m: eps,
                compression_pct: comp.mean,
                compression_std: comp.std,
                error_m: err.mean,
                error_std: err.std,
                perp_error_m: perp[j] / dataset_len as f64,
                mean_sed_m: sed_mean[j] / dataset_len as f64,
                max_sed_m: sed_max[j],
            }
        })
        .collect();
    AlgoSweep {
        label: algo.label().to_string(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::td_tr;

    fn tiny_dataset() -> Vec<Trajectory> {
        (0..3)
            .map(|k| {
                Trajectory::from_triples((0..40).map(|i| {
                    let t = i as f64 * 10.0;
                    (t, t * 10.0, ((i + k) % 5) as f64 * 30.0)
                }))
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn sweep_produces_one_point_per_threshold() {
        let ds = tiny_dataset();
        let s = sweep_algo(&td_tr(), &ds, &[10.0, 50.0, 90.0]);
        assert_eq!(s.points.len(), 3);
        assert_eq!(s.label, "TD-TR");
        for (p, eps) in s.points.iter().zip([10.0, 50.0, 90.0]) {
            assert_eq!(p.threshold_m, eps);
            assert!(p.compression_pct >= 0.0 && p.compression_pct <= 100.0);
            assert!(p.error_m >= 0.0);
        }
    }

    #[test]
    fn compression_monotone_in_threshold_for_td_tr() {
        let ds = tiny_dataset();
        let s = sweep_algo(&td_tr(), &ds, &PAPER_THRESHOLDS);
        for w in s.points.windows(2) {
            assert!(
                w[1].compression_pct >= w[0].compression_pct - 1e-9,
                "compression dropped between thresholds"
            );
        }
    }

    #[test]
    fn aggregates() {
        let ds = tiny_dataset();
        let s = sweep_algo(&td_tr(), &ds, &[30.0, 100.0]);
        assert!(s.mean_error() >= 0.0);
        assert!(s.mean_compression() > 0.0);
        assert!(s.error_spread() >= 0.0);
    }

    #[test]
    fn error_spread_of_empty_sweep_is_zero() {
        let s = AlgoSweep {
            label: "empty".into(),
            points: Vec::new(),
        };
        assert_eq!(s.error_spread(), 0.0);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let ds = tiny_dataset();
        let algo = td_tr();
        let serial = sweep_algo(&algo, &ds, &PAPER_THRESHOLDS);
        for threads in [0, 2, 8] {
            let par = sweep_algo_parallel(&algo, &ds, &PAPER_THRESHOLDS, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn paper_constants() {
        assert_eq!(PAPER_THRESHOLDS.len(), 15);
        assert_eq!(PAPER_THRESHOLDS[0], 30.0);
        assert_eq!(PAPER_THRESHOLDS[14], 100.0);
        assert_eq!(PAPER_SPEED_THRESHOLDS, [5.0, 15.0, 25.0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_dataset_rejected() {
        let _ = sweep_algo(&td_tr(), &[], &[10.0]);
    }

    #[test]
    fn auto_workers_honors_explicit_requests() {
        // An explicit request is clamped to the item count only.
        assert_eq!(auto_workers(4, 100, 10), 4);
        assert_eq!(auto_workers(4, 2, 10), 2);
        assert_eq!(auto_workers(1, 100, usize::MAX), 1);
    }

    #[test]
    fn auto_workers_stays_serial_below_the_work_floor() {
        assert_eq!(auto_workers(0, 100, MIN_AUTO_PARALLEL_WORK - 1), 1);
        assert_eq!(auto_workers(0, 1, usize::MAX), 1);
        assert_eq!(auto_workers(0, 0, usize::MAX), 1);
    }

    #[test]
    fn auto_workers_scales_with_cores_for_big_work() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(
            auto_workers(0, 1000, MIN_AUTO_PARALLEL_WORK),
            cores.min(1000)
        );
        // Never more workers than items, whatever the machine.
        assert!(auto_workers(0, 2, usize::MAX) <= 2);
    }
}
