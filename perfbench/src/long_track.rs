//! `long_track`: the `trajc compress --stats` path on long 1 Hz traces.
//! One unit parses one trace's CSV, compresses it with TD-TR,
//! NDP, OPW-TR and OP-CONE at one ε, evaluates the four results in one
//! `evaluate_sweep`, and renders each result back to CSV.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traj_compress::{
    evaluate_sweep, CompressionResult, CompressionResultBuf, Compressor, DouglasPeucker,
    EvalWorkspace, OnePassCone, OpeningWindow, TdTr, Workspace,
};
use traj_gen::dataset::{generate_trip, paper_network};
use traj_gen::TripConfig;
use traj_model::io::{from_csv_str, to_csv_string};
use traj_model::{Fix, TimeDelta, Timestamp, Trajectory};

use crate::batch::{self, fnv1a, median_total, ClosedLoop, UnitOut};
use crate::metrics::ALGOS;
use crate::{Opts, Outcome};

/// Distinct traces a run cycles through.
const TRACES: usize = 8;
/// Fixes per trace: every trace is cut to this length (≈ 5.5 h at
/// 1 Hz), so unit times do not depend on how far a seed's drive went.
const FIXES: usize = 20_000;
/// The one error tolerance, metres.
const EPS: f64 = 30.0;

struct LongTrack {
    csvs: Vec<String>,
    compressors: [Box<dyn Compressor>; 4],
    ws: Workspace,
    ews: EvalWorkspace,
    buf: CompressionResultBuf,
}

/// Generates the workload's input traces: seeded errand drives over the
/// paper's road network, sampled at 1 Hz with GPS noise, each cut to
/// [`FIXES`] fixes. A drive is a chain of errands, each leg a shortest
/// route to a random other node, so generation costs about the same for
/// every seed. Legs have no via-points: a via route can double back onto
/// itself and collapse to a single node, which the simulator refuses.
pub fn inputs(seed: u64) -> Result<Vec<Trajectory>, String> {
    let net = paper_network(seed);
    let cfg = TripConfig {
        sample_interval: 1.0,
        ..TripConfig::default()
    };
    (0..TRACES as u64)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(i + 1));
            let mut from = rng.gen_range(0..net.len());
            let mut fixes: Vec<Fix> = Vec::new();
            while fixes.len() < FIXES {
                let to = loop {
                    let to = rng.gen_range(0..net.len());
                    if to != from {
                        break to;
                    }
                };
                let start = fixes
                    .last()
                    .map_or(Timestamp::EPOCH, |f| f.t + TimeDelta::from_secs(1.0));
                fixes
                    .extend(generate_trip(&net, from, &[], to, &cfg, start, &mut rng).into_fixes());
                from = to;
            }
            fixes.truncate(FIXES);
            Trajectory::new(fixes).map_err(|e| format!("trace {i}: {e}"))
        })
        .collect()
}

impl ClosedLoop for LongTrack {
    fn unit(&mut self, id: u64) -> UnitOut {
        let input = (id as usize) % TRACES;
        let mut out = UnitOut {
            input,
            ..UnitOut::default()
        };
        let parsed = {
            let _parse = traj_obs::trace_span!("model.parse");
            from_csv_str(&self.csvs[input])
        };
        let traj = match parsed {
            Ok(t) => t,
            Err(e) => {
                out.failures.push(format!("trace {input}: {e}"));
                return out;
            }
        };
        out.fixes = traj.len() as u64;
        let mut results: Vec<CompressionResult> = Vec::with_capacity(ALGOS.len());
        for (algo, c) in ALGOS.iter().zip(&self.compressors) {
            let _compress = match *algo {
                "td-tr" => traj_obs::trace_span!("core.compress.td-tr"),
                "ndp" => traj_obs::trace_span!("core.compress.ndp"),
                "opw-tr" => traj_obs::trace_span!("core.compress.opw-tr"),
                _ => traj_obs::trace_span!("core.compress.op-cone"),
            };
            c.compress_into(&traj, &mut self.ws, &mut self.buf);
            results.push(self.buf.take());
        }
        let evals = {
            let _evaluate = traj_obs::trace_span!("core.evaluate");
            // As `trajc compress --stats` does: the compressor's columns
            // are handed to the evaluator instead of being rebuilt.
            self.ews.seed_columns(self.ws.take_columns());
            evaluate_sweep(&traj, &results, &mut self.ews)
        };
        let rendered: Vec<(Trajectory, String)> = {
            let _format = traj_obs::trace_span!("model.format");
            results
                .iter()
                .map(|r| {
                    let approx = r.apply(&traj);
                    let csv = to_csv_string(&approx);
                    (approx, csv)
                })
                .collect()
        };
        let _check = traj_obs::trace_span!("bench.check");
        let mut digest = 0;
        for (i, ((algo, e), (approx, csv))) in ALGOS.iter().zip(&evals).zip(&rendered).enumerate() {
            // NDP bounds the perpendicular distance; the other three bound
            // the synchronized (SED) distance.
            let (bound, err) = if *algo == "ndp" {
                ("perp", e.max_perp_m)
            } else {
                ("SED", e.max_sed_m)
            };
            if err > EPS + 1e-9 {
                out.failures.push(format!(
                    "{algo} on trace {input}: max {bound} {err} m > ε {EPS} m"
                ));
            }
            match from_csv_str(csv) {
                Ok(back) if back.fixes() == approx.fixes() => {}
                Ok(_) => out.failures.push(format!(
                    "{algo} on trace {input}: CSV re-parses to other fixes"
                )),
                Err(e) => out
                    .failures
                    .push(format!("{algo} on trace {input}: CSV re-parse: {e}")),
            }
            out.kept_share[i] = results[i].kept_len() as f64 / traj.len() as f64;
            digest = fnv1a(digest, csv.as_bytes());
        }
        out.digest = digest;
        out
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    batch::run(
        opts,
        "gen.trace_ms",
        || {
            let t0 = Instant::now();
            let traces = inputs(opts.seed)?;
            let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
            let compressors: [Box<dyn Compressor>; 4] = [
                Box::new(TdTr::new(EPS)),
                Box::new(DouglasPeucker::new(EPS)),
                Box::new(OpeningWindow::opw_tr(EPS)),
                Box::new(OnePassCone::new(EPS)),
            ];
            let work = LongTrack {
                csvs: traces.iter().map(to_csv_string).collect(),
                compressors,
                ws: Workspace::new(),
                ews: EvalWorkspace::new(),
                buf: CompressionResultBuf::new(),
            };
            Ok((work, gen_ms))
        },
        |spans, m| {
            m.insert(
                "model.parse_ms".into(),
                median_total(spans, |n| n == "model.parse"),
            );
            m.insert(
                "model.format_ms".into(),
                median_total(spans, |n| n == "model.format"),
            );
            m.insert(
                "core.evaluate_ms".into(),
                median_total(spans, |n| n == "core.evaluate"),
            );
            for algo in ALGOS {
                let span = format!("core.compress.{algo}");
                m.insert(
                    format!("core.compress_ms.{algo}"),
                    median_total(spans, |n| n == span),
                );
            }
        },
    )
}
