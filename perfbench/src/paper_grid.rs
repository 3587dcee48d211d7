//! `paper_grid`: the paper's own experiment, in process. One unit is a
//! pass of `repro all` over `paper_dataset(seed)` (10 trips, 1,770
//! fixes): Figures 7–11 and the one-pass figure over the fifteen paper
//! thresholds on one thread, then the text report and the paper-shape
//! check. No CSV, store or service on the path.

use std::time::Instant;

use traj_eval::{
    check_expectations, fig10_threaded, fig11_threaded, fig7_threaded, fig8_threaded,
    fig9_threaded, fig_onepass_threaded, figure_to_csv, format_figure, FigureData,
    PAPER_THRESHOLDS,
};
use traj_model::Trajectory;

use crate::batch::{self, fnv1a, median_self, median_total, ClosedLoop, UnitOut};
use crate::metrics::ALGOS;
use crate::spans::is_program_compress;
use crate::{Opts, Outcome};

/// A figure constructor: dataset, thresholds, worker threads.
type FigureFn = fn(&[Trajectory], &[f64], usize) -> FigureData;

/// The figure functions of one pass, in `repro all` order.
const FIGURES: [FigureFn; 6] = [
    fig7_threaded,
    fig8_threaded,
    fig9_threaded,
    fig10_threaded,
    fig11_threaded,
    fig_onepass_threaded,
];

/// The one-pass figure's labels for [`ALGOS`], in that order.
const ONEPASS_LABELS: [&str; 4] = ["TD-TR", "NDP", "OPW-TR", "OP-CONE"];

struct PaperGrid {
    dataset: Vec<Trajectory>,
    fixes: u64,
}

/// Generates the workload's input.
pub fn inputs(seed: u64) -> Vec<Trajectory> {
    traj_gen::paper_dataset(seed)
}

impl ClosedLoop for PaperGrid {
    fn unit(&mut self, _id: u64) -> UnitOut {
        let figs: Vec<FigureData> = FIGURES
            .iter()
            .map(|fig| {
                let _sweep = traj_obs::trace_span!("eval.sweep");
                fig(&self.dataset, &PAPER_THRESHOLDS, 1)
            })
            .collect();
        let (text, violations) = {
            let _report = traj_obs::trace_span!("eval.report");
            let text: String = figs.iter().map(format_figure).collect();
            (
                text,
                check_expectations(&figs[0], &figs[1], &figs[2], &figs[3], &figs[4]),
            )
        };
        let _check = traj_obs::trace_span!("bench.check");
        let digest = figs.iter().fold(fnv1a(0, text.as_bytes()), |h, f| {
            fnv1a(h, figure_to_csv(f).as_bytes())
        });
        let mut kept_share = [0.0; 4];
        let mut failures: Vec<String> = violations
            .into_iter()
            .map(|v| format!("paper-shape check: {v}"))
            .collect();
        for (slot, label) in kept_share.iter_mut().zip(ONEPASS_LABELS) {
            match figs[5].sweep(label) {
                Some(s) => *slot = 1.0 - s.mean_compression() / 100.0,
                None => failures.push(format!("one-pass figure has no {label} sweep")),
            }
        }
        UnitOut {
            fixes: self.fixes,
            input: 0,
            digest,
            failures,
            kept_share,
        }
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    debug_assert_eq!(ALGOS.len(), ONEPASS_LABELS.len());
    batch::run(
        opts,
        "gen.dataset_ms",
        || {
            let t0 = Instant::now();
            let dataset = inputs(opts.seed);
            let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
            let fixes = dataset.iter().map(|t| t.len() as u64).sum();
            Ok((PaperGrid { dataset, fixes }, gen_ms))
        },
        |spans, m| {
            m.insert(
                "core.sweep_ms".into(),
                median_total(spans, is_program_compress),
            );
            // `evaluate_sweep` runs inside the figure calls and has no span
            // of its own: it is the figure span's self time, together with
            // the sweep's per-threshold aggregation.
            m.insert(
                "core.evaluate_ms".into(),
                median_self(spans, |n| n == "eval.sweep"),
            );
            m.insert(
                "eval.report_ms".into(),
                median_total(spans, |n| n == "eval.report"),
            );
        },
    )
}
