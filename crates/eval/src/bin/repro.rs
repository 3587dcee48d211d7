//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [all|table2|fig7|fig8|fig9|fig10|fig11|onepass|check|ext] [--seed N]
//!       [--csv DIR] [--metrics-out FILE] [--trace-out FILE] [--threads N] [--fast]
//! ```
//!
//! With no arguments, runs `all`: prints Table 2, Figures 7–11 and the
//! one-pass comparison as aligned text tables (averages over the
//! ten-trajectory dataset) and finishes with the paper-shape check.
//! `onepass` prints just the one-pass SED family (OP-FIT / OP-CONE)
//! against NDP, TD-TR and OPW-TR — compression, α error, SED max/mean —
//! plus a wall-time/throughput table for the same sweeps.
//! `--csv DIR` additionally writes
//! one CSV per figure into `DIR`, plus a `metrics.csv` sidecar with the
//! instrumentation snapshot of the whole run; `--metrics-out FILE`
//! redirects the sidecar (CSV for `.csv` paths, JSON lines otherwise).
//!
//! `--threads N` fans each figure's sweeps over N worker threads
//! (`0` = auto: all cores, or serial when the grid is too small to
//! amortise thread startup; default 1). The aggregates are bit-identical
//! to the serial run — parallelism is observable only in wall time.
//! `--fast` shrinks the protocol (three trajectories, four thresholds)
//! for smoke runs; figures lose their paper meaning, so `check`/`all`
//! refuse it.
//!
//! `--trace-out FILE` records a timeline of the whole run (one track
//! per worker thread) and writes it on exit: flamegraph folded stacks
//! for `.folded` paths, Chrome Trace Event JSON otherwise (load it at
//! `ui.perfetto.dev` or `chrome://tracing`). Requires the `obs`
//! feature; without it the file holds an empty trace.
//!
//! Exit status 1 on any failure: a bad argument (rejected before any
//! work starts — one experiment per run), a failed paper-shape check,
//! or an output file (`--csv`, `--metrics-out`, `--trace-out`) that
//! cannot be written; the message names the path.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use traj_eval::{
    check_expectations, fig10_threaded, fig11_threaded, fig7_threaded, fig8_threaded,
    fig9_threaded, fig_onepass_threaded, figure_to_csv, format_figure, format_table2,
    onepass_algos, sweep_algo_parallel, table2, FigureData, PAPER_THRESHOLDS,
};

/// The experiments `repro` runs, one per invocation.
const EXPERIMENTS: [&str; 10] = [
    "all", "table2", "fig7", "fig8", "fig9", "fig10", "fig11", "onepass", "check", "ext",
];

struct Args {
    what: String,
    seed: u64,
    csv_dir: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    threads: usize,
    fast: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut what = None;
    let mut seed = 42u64;
    let mut csv_dir = None;
    let mut metrics_out = None;
    let mut trace_out = None;
    let mut threads = 1usize;
    let mut fast = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|e| format!("bad seed {v:?}: {e}"))?;
            }
            "--csv" => {
                let v = it.next().ok_or("--csv needs a directory")?;
                csv_dir = Some(PathBuf::from(v));
            }
            "--metrics-out" => {
                let v = it.next().ok_or("--metrics-out needs a path")?;
                metrics_out = Some(PathBuf::from(v));
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a path")?;
                trace_out = Some(PathBuf::from(v));
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value (0 = all cores)")?;
                threads = v
                    .parse()
                    .map_err(|e| format!("bad thread count {v:?}: {e}"))?;
            }
            "--fast" => fast = true,
            "--help" | "-h" => {
                return Err(
                    "usage: repro [all|table2|fig7..fig11|onepass|check|ext] [--seed N] \
                            [--csv DIR] [--metrics-out FILE] [--trace-out FILE] [--threads N] \
                            [--fast]"
                        .to_string(),
                )
            }
            other if !other.starts_with('-') => {
                if let Some(first) = &what {
                    return Err(format!(
                        "unexpected argument {other:?}: one experiment per run (got {first:?})"
                    ));
                }
                if !EXPERIMENTS.contains(&other) {
                    return Err(format!(
                        "unknown experiment {other:?} (expected one of {})",
                        EXPERIMENTS.join(", ")
                    ));
                }
                what = Some(other.to_string());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let what = what.unwrap_or_else(|| "all".to_string());
    if fast && (what == "check" || what == "all") {
        return Err(
            "--fast changes the protocol; the paper-shape check would be meaningless".to_string(),
        );
    }
    Ok(Args {
        what,
        seed,
        csv_dir,
        metrics_out,
        trace_out,
        threads,
        fast,
    })
}

/// Writes `body` to `path`, creating its parent directory; the error
/// names the path.
fn write_output(what: &str, path: &Path, body: String) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(path, body)
        .map_err(|e| format!("error: could not write {what} to {}: {e}", path.display()))
}

/// Writes the instrumentation snapshot of the whole run: to
/// `--metrics-out` when given, else to `DIR/metrics.csv` next to the
/// figure CSVs. CSV for `.csv` paths, JSON lines otherwise.
fn write_metrics(args: &Args) -> Result<(), String> {
    let path = match (&args.metrics_out, &args.csv_dir) {
        (Some(p), _) => p.clone(),
        (None, Some(dir)) => dir.join("metrics.csv"),
        (None, None) => return Ok(()),
    };
    let body = traj_obs::sink::to_sidecar(&path, &traj_obs::registry().snapshot());
    write_output("metrics", &path, body)?;
    eprintln!("(metrics → {})", path.display());
    Ok(())
}

/// Stops the trace session and writes it to `--trace-out`: folded
/// stacks for `.folded` paths, Chrome Trace Event JSON otherwise.
fn write_trace(args: &Args) -> Result<(), String> {
    let Some(path) = &args.trace_out else { return Ok(()) };
    let trace = traj_obs::trace::stop();
    let body = if path.extension().is_some_and(|e| e == "folded") {
        trace.to_folded()
    } else {
        trace.to_chrome_json()
    };
    write_output("trace", path, body)?;
    eprintln!(
        "(trace → {}: {} events on {} tracks, {} dropped)",
        path.display(),
        trace.event_count(),
        trace.tracks.len(),
        trace.dropped_total()
    );
    Ok(())
}

fn emit(fig: &FigureData, csv_dir: &Option<PathBuf>) {
    println!("{}", format_figure(fig));
    if let Some(dir) = csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create csv dir {}: {e}", dir.display());
            std::process::exit(1);
        }
        let path = dir.join(format!("{}.csv", fig.id));
        if let Err(e) = std::fs::write(&path, figure_to_csv(fig)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("(wrote {})", path.display());
    }
}

/// Times each one-pass-figure sweep separately and prints wall time
/// and throughput (million input fixes per second, counting every
/// threshold of the grid as one full pass over the dataset).
fn run_onepass_throughput(dataset: &[traj_model::Trajectory], grid: &[f64], threads: usize) {
    let fixes: usize = dataset.iter().map(|t| t.len()).sum();
    let total = fixes * grid.len();
    println!("sweep wall time ({} fixes x {} thresholds):", fixes, grid.len());
    println!("{:>10} | {:>10} {:>12}", "algo", "wall (ms)", "Mfix/s");
    for algo in &onepass_algos() {
        let start = std::time::Instant::now();
        let sweep = sweep_algo_parallel(algo, dataset, grid, threads);
        let secs = start.elapsed().as_secs_f64();
        debug_assert_eq!(sweep.points.len(), grid.len());
        println!(
            "{:>10} | {:>10.1} {:>12.2}",
            sweep.label,
            secs * 1e3,
            total as f64 / secs / 1e6
        );
    }
}

/// The §5 future-work extensions: object classes, noise and sampling
/// ablations, interpolation-model gap.
fn run_extensions(seed: u64) {
    println!("— extension: moving objects of different nature (paper §5) —\n");
    let signatures = traj_eval::class_signatures(seed);
    for (class, fig) in traj_eval::object_classes(seed) {
        let sig = signatures
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, r)| *r)
            .unwrap_or(0.0);
        println!(
            "object class: {class} (mean stop-time ratio {:.0} %)",
            sig * 100.0
        );
        println!("{}", format_figure(&fig));
    }

    let thresholds = [30.0, 50.0, 70.0, 100.0];
    println!("— extension: GPS-noise ablation of Fig. 7 —");
    println!(
        "{:>8} | {:>10} {:>12} | {:>10} {:>12}",
        "σ (m)", "NDP comp%", "NDP err(m)", "TDTR comp%", "TDTR err(m)"
    );
    for (sigma, ndp, tdtr) in traj_eval::noise_ablation(seed, &thresholds) {
        println!(
            "{:>8.1} | {:>10.2} {:>12.2} | {:>10.2} {:>12.2}",
            sigma,
            ndp.mean_compression(),
            ndp.mean_error(),
            tdtr.mean_compression(),
            tdtr.mean_error()
        );
    }

    println!("\n— extension: sampling-interval ablation of Fig. 7 —");
    println!(
        "{:>8} | {:>10} {:>12} | {:>10} {:>12}",
        "Δt (s)", "NDP comp%", "NDP err(m)", "TDTR comp%", "TDTR err(m)"
    );
    for (interval, ndp, tdtr) in traj_eval::sampling_ablation(seed, &thresholds) {
        println!(
            "{:>8.0} | {:>10.2} {:>12.2} | {:>10.2} {:>12.2}",
            interval,
            ndp.mean_compression(),
            ndp.mean_error(),
            tdtr.mean_compression(),
            tdtr.mean_error()
        );
    }

    println!("\n— extension: the online spectrum (DR vs OPW-TR vs TD-TR) —");
    println!(
        "{}",
        format_figure(&traj_eval::online_spectrum(seed, &thresholds))
    );

    println!(
        "— extension: interpolation-model gap (Catmull–Rom vs linear) —\n\
         mean gap over the dataset: {:.3} m",
        traj_eval::interpolation_gap(seed)
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace_out.is_some() {
        traj_obs::trace::start();
        traj_obs::trace::set_track_label("main");
    }
    eprintln!("generating dataset (seed {}) ...", args.seed);
    let mut dataset = {
        let _gen = traj_obs::trace_span!("repro.generate_dataset");
        traj_gen::paper_dataset(args.seed)
    };
    // Reduced smoke protocol: fewer trajectories and a coarse grid. The
    // figures lose their paper meaning, so the shape check refuses it.
    let fast_grid = [30.0, 50.0, 70.0, 100.0];
    let grid: &[f64] = if args.fast {
        dataset.truncate(3);
        eprintln!("(--fast: 3 trajectories, {} thresholds)", fast_grid.len());
        &fast_grid
    } else {
        &PAPER_THRESHOLDS
    };
    let threads = args.threads;

    let run_table2 = || println!("{}", format_table2(&table2(&dataset)));

    match args.what.as_str() {
        "table2" => run_table2(),
        "fig7" => emit(&fig7_threaded(&dataset, grid, threads), &args.csv_dir),
        "fig8" => emit(&fig8_threaded(&dataset, grid, threads), &args.csv_dir),
        "fig9" => emit(&fig9_threaded(&dataset, grid, threads), &args.csv_dir),
        "fig10" => emit(&fig10_threaded(&dataset, grid, threads), &args.csv_dir),
        "fig11" => emit(&fig11_threaded(&dataset, grid, threads), &args.csv_dir),
        "onepass" => {
            emit(&fig_onepass_threaded(&dataset, grid, threads), &args.csv_dir);
            run_onepass_throughput(&dataset, grid, threads);
        }
        "check" | "all" => {
            let f7 = fig7_threaded(&dataset, grid, threads);
            let f8 = fig8_threaded(&dataset, grid, threads);
            let f9 = fig9_threaded(&dataset, grid, threads);
            let f10 = fig10_threaded(&dataset, grid, threads);
            let f11 = fig11_threaded(&dataset, grid, threads);
            if args.what == "all" {
                run_table2();
                for f in [&f7, &f8, &f9, &f10, &f11] {
                    emit(f, &args.csv_dir);
                }
                // Beyond the paper: the one-pass SED family on the same
                // grid. Not part of check_expectations — the figure's
                // own tests pin its shape (strict bound, label set).
                emit(&fig_onepass_threaded(&dataset, grid, threads), &args.csv_dir);
            }
            let violations = check_expectations(&f7, &f8, &f9, &f10, &f11);
            if violations.is_empty() {
                println!("paper-shape check: all expected relations hold ✓");
            } else {
                println!("paper-shape check: {} violation(s):", violations.len());
                for v in &violations {
                    println!("  ✗ {v}");
                }
                return ExitCode::FAILURE;
            }
        }
        "ext" => run_extensions(args.seed),
        // `parse_args` admits only the names in `EXPERIMENTS`.
        other => {
            eprintln!("unknown experiment {other:?}");
            return ExitCode::FAILURE;
        }
    }
    // Both outputs are attempted; either failing fails the run.
    let mut status = ExitCode::SUCCESS;
    for written in [write_metrics(&args), write_trace(&args)] {
        if let Err(msg) = written {
            eprintln!("{msg}");
            status = ExitCode::FAILURE;
        }
    }
    status
}
