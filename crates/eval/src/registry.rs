//! The algorithm registry: labeled, sweep-aware experiment entries.
//!
//! The experiment runner originally took a *factory* closure
//! `Fn(f64) -> Box<dyn Compressor>` and rebuilt + reran the compressor
//! per threshold. [`Algo`] generalizes that: an entry knows whether its
//! algorithm has a multi-threshold sweep — the one-pass split tree of
//! [`traj_compress::TopDown::sweep`] (the whole top-down family) or the
//! memoized window scans of [`traj_compress::OpeningWindow::sweep`]
//! (NOPW, BOPW, OPW-TR, OPW-SP) — or must be rebuilt per threshold (the
//! remaining online families). [`Algo::run_rows`] runs a whole figure's
//! rows on one trajectory, its opening-window rows as lanes of one window
//! scan. Either way the per-threshold results are byte-identical to
//! constructing and running the compressor separately at each threshold —
//! the registry only removes redundant work, never changes outputs.

use traj_compress::{
    CompressionResult, CompressionResultBuf, Compressor, OpeningWindow, TopDown, Workspace,
};
use traj_model::Trajectory;

/// How tightly a compressor's declared threshold bounds the error of its
/// output, under the algorithm's *own* criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorBound {
    /// Every dropped point provably satisfies the declared threshold
    /// against the kept segment that covers it.
    Strict,
    /// The threshold steers per-point decisions but the error of the
    /// final kept subsequence may exceed it.
    Heuristic,
    /// The parameter is not an error threshold at all (e.g. a sampling
    /// step).
    None,
}

impl ErrorBound {
    /// The catalog-table cell text: `strict` / `heuristic` / `none`.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorBound::Strict => "strict",
            ErrorBound::Heuristic => "heuristic",
            ErrorBound::None => "none",
        }
    }
}

/// A catalog constructor's output: the compressor, or why its
/// parameters cannot build it.
type Built = Result<Box<dyn Compressor>, String>;

/// One row of the live algorithm catalog — the machine-readable source
/// of truth that `ALGORITHMS.md` is diffed against (see
/// `crates/eval/tests/catalog_sync.rs`) and the only `--algo` name
/// table of `trajc compress`.
pub struct AlgoMeta {
    /// The `trajc compress --algo` name.
    pub cli_name: &'static str,
    /// The discarding criterion, in one phrase.
    pub criterion: &'static str,
    /// Whether the declared threshold is a strict bound on the output.
    pub bound: ErrorBound,
    /// Asymptotic time complexity (worst case unless noted).
    pub complexity: &'static str,
    /// Whether a record-at-a-time streaming form exists.
    pub streaming: bool,
    /// Where the algorithm comes from.
    pub reference: &'static str,
    /// Builds the compressor at a primary threshold and an optional
    /// speed threshold (`--eps`, `--speed-eps`). Only the speed-blended
    /// rows read the speed, and they fail without one; `td-sp` also
    /// needs it > 0. Everything else ignores it.
    pub make: fn(f64, Option<f64>) -> Built,
}

impl std::fmt::Debug for AlgoMeta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlgoMeta")
            .field("cli_name", &self.cli_name)
            .field("criterion", &self.criterion)
            .field("bound", &self.bound)
            .field("complexity", &self.complexity)
            .field("streaming", &self.streaming)
            .field("reference", &self.reference)
            .finish_non_exhaustive()
    }
}

/// The speed threshold a speed-blended catalog row needs.
fn need_speed(name: &str, speed: Option<f64>) -> Result<f64, String> {
    speed.ok_or_else(|| format!("algorithm {name:?} needs --speed-eps"))
}

/// Every registered compressor, in the order `ALGORITHMS.md` documents
/// them. Each row carries a live constructor, so the catalog cannot
/// drift from the code: the sync test compresses with every `make` and
/// diffs `cli_name`s against the documentation table.
pub fn algorithm_catalog() -> &'static [AlgoMeta] {
    use traj_compress::{
        BottomUp, DeadReckoning, DistanceThreshold, DouglasPeucker, OnePassCone, OnePassFit,
        OpeningWindow, SlidingWindow, TdSp, TdTr, UniformSample,
    };
    const CATALOG: &[AlgoMeta] = &[
        AlgoMeta {
            cli_name: "uniform",
            criterion: "keep every i-th point",
            bound: ErrorBound::None,
            complexity: "O(n)",
            streaming: true,
            reference: "Tobler; paper §2",
            make: |eps, _| Ok(Box::new(UniformSample::new(eps.round().max(1.0) as usize))),
        },
        AlgoMeta {
            cli_name: "dist",
            criterion: "distance to last kept point",
            bound: ErrorBound::None,
            complexity: "O(n)",
            streaming: true,
            reference: "paper §2",
            make: |eps, _| Ok(Box::new(DistanceThreshold::new(eps))),
        },
        AlgoMeta {
            cli_name: "ndp",
            criterion: "perpendicular distance (top-down split)",
            bound: ErrorBound::Strict,
            complexity: "O(n²) worst",
            streaming: false,
            reference: "Douglas & Peucker; paper §2.1",
            make: |eps, _| Ok(Box::new(DouglasPeucker::new(eps))),
        },
        AlgoMeta {
            cli_name: "td-tr",
            criterion: "synchronized (time-ratio) distance, top-down",
            bound: ErrorBound::Strict,
            complexity: "O(n²) worst",
            streaming: false,
            reference: "paper §3.2",
            make: |eps, _| Ok(Box::new(TdTr::new(eps))),
        },
        AlgoMeta {
            cli_name: "td-sp",
            criterion: "SED + derived-speed difference, top-down",
            bound: ErrorBound::Strict,
            complexity: "O(n²) worst",
            streaming: false,
            reference: "paper §4.3",
            make: |eps, speed| match need_speed("td-sp", speed)? {
                v if v > 0.0 => Ok(Box::new(TdSp::new(eps, v))),
                _ => Err("td-sp: --speed-eps must be > 0".into()),
            },
        },
        AlgoMeta {
            cli_name: "nopw",
            criterion: "perpendicular distance, opening window",
            bound: ErrorBound::Strict,
            complexity: "O(n²) worst",
            streaming: true,
            reference: "paper §2.2",
            make: |eps, _| Ok(Box::new(OpeningWindow::nopw(eps))),
        },
        AlgoMeta {
            cli_name: "bopw",
            criterion: "perpendicular distance, opening window (cut before float)",
            bound: ErrorBound::Strict,
            complexity: "O(n²) worst",
            streaming: true,
            reference: "paper §2.2",
            make: |eps, _| Ok(Box::new(OpeningWindow::bopw(eps))),
        },
        AlgoMeta {
            cli_name: "opw-tr",
            criterion: "synchronized (time-ratio) distance, opening window",
            bound: ErrorBound::Strict,
            complexity: "O(n²) worst",
            streaming: true,
            reference: "paper §3.3",
            make: |eps, _| Ok(Box::new(OpeningWindow::opw_tr(eps))),
        },
        AlgoMeta {
            cli_name: "opw-sp",
            criterion: "SED + derived-speed difference, opening window",
            bound: ErrorBound::Strict,
            complexity: "O(n²) worst",
            streaming: true,
            reference: "paper §3.3 (SPT)",
            make: |eps, speed| {
                let v = need_speed("opw-sp", speed)?;
                Ok(Box::new(OpeningWindow::opw_sp(eps, v)))
            },
        },
        AlgoMeta {
            cli_name: "dead-reckoning",
            criterion: "dead-reckoned prediction error",
            bound: ErrorBound::Heuristic,
            complexity: "O(n)",
            streaming: true,
            reference: "Wolfson et al.; DESIGN.md extension",
            make: |eps, _| Ok(Box::new(DeadReckoning::new(eps))),
        },
        AlgoMeta {
            cli_name: "bottom-up",
            criterion: "cheapest-merge criterion deviation",
            bound: ErrorBound::Strict,
            complexity: "O(n log n) heap ops, O(span) re-eval",
            streaming: false,
            reference: "Keogh et al.; paper §2",
            make: |eps, _| Ok(Box::new(BottomUp::time_ratio(eps))),
        },
        AlgoMeta {
            cli_name: "sliding-window",
            criterion: "synchronized distance in a fixed window",
            bound: ErrorBound::Strict,
            complexity: "O(n·w²) worst",
            streaming: true,
            reference: "Keogh et al.; paper §2",
            make: |eps, _| Ok(Box::new(SlidingWindow::time_ratio(eps, 32))),
        },
        AlgoMeta {
            cli_name: "op-fit",
            criterion: "SED via rectangular velocity fitting region",
            bound: ErrorBound::Strict,
            complexity: "O(n)",
            streaming: true,
            reference: "Lin et al., arXiv 1801.05360 (OPERB)",
            make: |eps, _| Ok(Box::new(OnePassFit::new(eps))),
        },
        AlgoMeta {
            cli_name: "op-cone",
            criterion: "SED via inscribed-polygon velocity region",
            bound: ErrorBound::Strict,
            complexity: "O(n·m), m directions",
            streaming: true,
            reference: "Lin et al., arXiv 1801.05360 (CISED)",
            make: |eps, _| Ok(Box::new(OnePassCone::new(eps))),
        },
    ];
    CATALOG
}

/// How an [`Algo`] produces per-threshold results.
enum AlgoKind {
    /// Top-down family: one split-tree pass answers every threshold.
    TopDown(TopDown),
    /// Opening-window family: one memoized pass over the anchors
    /// answers every threshold.
    OpeningWindow(OpeningWindow),
    /// Anything else: rebuild via the factory and compress per threshold.
    Factory(Box<dyn Fn(f64) -> Box<dyn Compressor> + Send + Sync>),
}

/// A labeled experiment algorithm, runnable over a threshold grid.
pub struct Algo {
    label: String,
    kind: AlgoKind,
}

impl std::fmt::Debug for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            AlgoKind::TopDown(_) => "top-down (one-pass sweep)",
            AlgoKind::OpeningWindow(_) => "opening-window (memoized sweep)",
            AlgoKind::Factory(_) => "factory (per-threshold)",
        };
        write!(f, "Algo({:?}, {kind})", self.label)
    }
}

impl Algo {
    /// Registers a top-down algorithm; the distance threshold of `td` is
    /// irrelevant (each sweep threshold replaces it), the criterion
    /// shape and any speed threshold are preserved.
    pub fn top_down(label: impl Into<String>, td: TopDown) -> Self {
        Algo { label: label.into(), kind: AlgoKind::TopDown(td) }
    }

    /// Registers an opening-window algorithm; as for [`Algo::top_down`]
    /// the distance threshold of `ow` is replaced by each sweep
    /// threshold, while the criterion shape, break strategy and any
    /// speed threshold are kept.
    pub fn opening_window(label: impl Into<String>, ow: OpeningWindow) -> Self {
        Algo { label: label.into(), kind: AlgoKind::OpeningWindow(ow) }
    }

    /// Registers an algorithm via a per-threshold factory.
    pub fn factory<F>(label: impl Into<String>, make: F) -> Self
    where
        F: Fn(f64) -> Box<dyn Compressor> + Send + Sync + 'static,
    {
        Algo { label: label.into(), kind: AlgoKind::Factory(Box::new(make)) }
    }

    /// The display label, e.g. `"TD-TR"` or `"OPW-SP(5m/s)"`.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Compresses `traj` at every threshold, in threshold order,
    /// borrowing scratch space from `ws`: the one-row case of
    /// [`Algo::run_rows`]. Results are byte-identical to running the
    /// algorithm separately per threshold.
    pub fn run(
        &self,
        traj: &Trajectory,
        thresholds: &[f64],
        ws: &mut Workspace,
    ) -> Vec<CompressionResult> {
        let mut rows = Algo::run_rows(std::slice::from_ref(self), traj, thresholds, ws);
        rows.pop().unwrap_or_default()
    }

    /// Compresses `traj` with every algorithm of `algos` at every
    /// threshold, returning per algorithm its results in threshold order.
    /// The opening-window rows go through one
    /// [`OpeningWindow::sweep_rows`] call, so their lanes share one
    /// window scan; every other row sweeps on its own. Results are
    /// byte-identical to running each algorithm separately per threshold.
    pub fn run_rows(
        algos: &[Algo],
        traj: &Trajectory,
        thresholds: &[f64],
        ws: &mut Workspace,
    ) -> Vec<Vec<CompressionResult>> {
        let windows: Vec<OpeningWindow> = algos
            .iter()
            .filter_map(|a| match a.kind {
                AlgoKind::OpeningWindow(ow) => Some(ow),
                _ => None,
            })
            .collect();
        let mut swept = OpeningWindow::sweep_rows(&windows, traj, thresholds, ws).into_iter();
        algos
            .iter()
            .map(|a| match &a.kind {
                AlgoKind::TopDown(td) => td.sweep_with(traj, thresholds, ws),
                AlgoKind::OpeningWindow(_) => swept.next().unwrap_or_default(),
                AlgoKind::Factory(make) => {
                    let mut out = CompressionResultBuf::new();
                    thresholds
                        .iter()
                        .map(|&eps| {
                            make(eps).compress_into(traj, ws, &mut out);
                            out.take()
                        })
                        .collect()
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_compress::{OpeningWindow, TdTr};

    fn traj() -> Trajectory {
        Trajectory::from_triples((0..80).map(|i| {
            let t = i as f64 * 10.0;
            (t, t * 9.0, ((i % 6) * (i % 4)) as f64 * 25.0)
        }))
        .unwrap()
    }

    #[test]
    fn top_down_entry_matches_factory_entry() {
        let t = traj();
        let grid = [10.0, 40.0, 90.0];
        let mut ws = Workspace::new();
        let fast = Algo::top_down("TD-TR", TopDown::time_ratio(0.0));
        let slow = Algo::factory("TD-TR", |e| Box::new(TdTr::new(e)));
        assert_eq!(fast.run(&t, &grid, &mut ws), slow.run(&t, &grid, &mut ws));
    }

    #[test]
    fn factory_entry_runs_window_algorithms() {
        let t = traj();
        let mut ws = Workspace::new();
        let a = Algo::factory("OPW-TR", |e| Box::new(OpeningWindow::opw_tr(e)));
        let rs = a.run(&t, &[20.0, 60.0], &mut ws);
        assert_eq!(rs.len(), 2);
        for (r, eps) in rs.iter().zip([20.0, 60.0]) {
            assert_eq!(r, &OpeningWindow::opw_tr(eps).compress(&t));
        }
    }

    #[test]
    fn opening_window_entry_matches_factory_entry() {
        let t = traj();
        let grid = [10.0, 40.0, 90.0];
        let mut ws = Workspace::new();
        let fast = Algo::opening_window("OPW-SP(5m/s)", OpeningWindow::opw_sp(0.0, 5.0));
        let slow = Algo::factory("OPW-SP(5m/s)", |e| Box::new(OpeningWindow::opw_sp(e, 5.0)));
        assert_eq!(fast.run(&t, &grid, &mut ws), slow.run(&t, &grid, &mut ws));
    }

    #[test]
    fn labels_and_debug() {
        let a = Algo::top_down("NDP", TopDown::perpendicular(0.0));
        assert_eq!(a.label(), "NDP");
        assert!(format!("{a:?}").contains("one-pass"));
        let w = Algo::opening_window("NOPW", OpeningWindow::nopw(0.0));
        assert!(format!("{w:?}").contains("memoized sweep"));
    }

    #[test]
    fn catalog_has_fourteen_unique_live_entries() {
        let cat = algorithm_catalog();
        assert_eq!(cat.len(), 14);
        let mut names: Vec<&str> = cat.iter().map(|m| m.cli_name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14, "duplicate cli names in catalog");
        assert!(names.contains(&"op-fit") && names.contains(&"op-cone"));
        // Every constructor actually compresses.
        let t = traj();
        for meta in cat {
            let r = (meta.make)(30.0, Some(5.0)).unwrap().compress(&t);
            assert_eq!(r.original_len(), t.len(), "{}", meta.cli_name);
        }
    }

    #[test]
    fn error_bound_cells_are_the_documented_vocabulary() {
        for meta in algorithm_catalog() {
            assert!(
                matches!(meta.bound.as_str(), "strict" | "heuristic" | "none"),
                "{}",
                meta.cli_name
            );
        }
    }
}
