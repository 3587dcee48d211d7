//! `trajc repro` (also the `repro` binary): regenerate the paper's
//! tables and figures, one experiment per run. `all` prints Table 2,
//! Figures 7–11 and the one-pass comparison (averages over the
//! ten-trajectory dataset), then the paper-shape check; `onepass` adds
//! a throughput table. The aggregates are bit-identical at any
//! `--threads`; without the `obs` feature a `--trace-out` file holds an
//! empty trace.

use std::path::PathBuf;

use traj_eval::{
    check_expectations, fig10_threaded, fig11_threaded, fig7_threaded, fig8_threaded,
    fig9_threaded, fig_onepass_threaded, figure_to_csv, format_figure, format_table2,
    onepass_algos, sweep_algo_parallel, table2, FigureData, PAPER_THRESHOLDS,
};

use super::{write_metrics, write_trace, ReproArgs, TraceSessionGuard};

fn emit(fig: &FigureData, csv_dir: &Option<PathBuf>) -> Result<(), String> {
    println!("{}", format_figure(fig));
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("error: cannot create csv dir {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.csv", fig.id));
        std::fs::write(&path, figure_to_csv(fig))
            .map_err(|e| format!("error: cannot write {}: {e}", path.display()))?;
        println!("(wrote {})", path.display());
    }
    Ok(())
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

/// Runs one experiment, printing to stdout as it goes, then writes the
/// metrics sidecar and the trace. Returns an empty report.
pub(super) fn run(args: &ReproArgs) -> Result<String, String> {
    let mut trace_session = TraceSessionGuard::start(args.trace_out.is_some(), "main");
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

    match args.experiment.as_str() {
        "table2" => run_table2(),
        "fig7" => emit(&fig7_threaded(&dataset, grid, threads), &args.csv)?,
        "fig8" => emit(&fig8_threaded(&dataset, grid, threads), &args.csv)?,
        "fig9" => emit(&fig9_threaded(&dataset, grid, threads), &args.csv)?,
        "fig10" => emit(&fig10_threaded(&dataset, grid, threads), &args.csv)?,
        "fig11" => emit(&fig11_threaded(&dataset, grid, threads), &args.csv)?,
        "onepass" => {
            emit(&fig_onepass_threaded(&dataset, grid, threads), &args.csv)?;
            run_onepass_throughput(&dataset, grid, threads);
        }
        "check" | "all" => {
            let f7 = fig7_threaded(&dataset, grid, threads);
            let f8 = fig8_threaded(&dataset, grid, threads);
            let f9 = fig9_threaded(&dataset, grid, threads);
            let f10 = fig10_threaded(&dataset, grid, threads);
            let f11 = fig11_threaded(&dataset, grid, threads);
            if args.experiment == "all" {
                run_table2();
                for f in [&f7, &f8, &f9, &f10, &f11] {
                    emit(f, &args.csv)?;
                }
                // Beyond the paper: the one-pass SED family on the same
                // grid. Not part of check_expectations — the figure's
                // own tests pin its shape (strict bound, label set).
                emit(&fig_onepass_threaded(&dataset, grid, threads), &args.csv)?;
            }
            let violations = check_expectations(&f7, &f8, &f9, &f10, &f11);
            if violations.is_empty() {
                println!("paper-shape check: all expected relations hold ✓");
            } else {
                println!("paper-shape check: {} violation(s):", violations.len());
                for v in &violations {
                    println!("  ✗ {v}");
                }
                return Err(String::new());
            }
        }
        "ext" => run_extensions(args.seed),
        // `parse` admits only the names in `EXPERIMENTS`.
        other => return Err(format!("unknown experiment {other:?}")),
    }
    // Both outputs are attempted, each into a created parent directory;
    // either failing fails the run.
    let mut notes = String::new();
    let mut failed = Vec::new();
    if let Some(path) = &args.metrics_out {
        let _ = path.parent().map(std::fs::create_dir_all);
        failed.extend(write_metrics(path, &mut notes).err());
    }
    if let Some(path) = &args.trace_out {
        let _ = path.parent().map(std::fs::create_dir_all);
        failed.extend(write_trace(path, &mut trace_session, &mut notes).err());
    }
    eprint!("{notes}");
    if failed.is_empty() {
        Ok(String::new())
    } else {
        Err(failed.join("\n"))
    }
}
