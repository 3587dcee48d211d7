//! The `trajc` command-line tool: compress, evaluate and generate
//! trajectory files without writing a line of Rust.
//!
//! ```text
//! trajc info <file.csv>
//! trajc compress <file.csv> --algo td-tr --eps 30 [--speed-eps 5] [-o out.csv]
//!       [--stats] [--metrics-out m.json]
//! trajc evaluate <original.csv> <approx.csv>
//! trajc generate [--seed 42] [--trip 0..9] -o <file.csv>
//! trajc store recover <dir> [--snapshot]
//! trajc serve <dir> [--shards N] [--algo A] [--eps E] ... < fleet.csv
//! ```
//!
//! Files are the `t,x,y` format of [`traj_model::io`]; `serve` reads
//! `id,t,x,y` records from stdin. A `--metrics-out` sidecar is CSV for
//! a `.csv` path and JSON lines otherwise
//! ([`traj_obs::sink::to_sidecar`]). The command logic lives here
//! (unit-testable); `src/bin/trajc.rs` is the thin entry point.

use std::fmt::Write as _;
use std::io::{BufRead, Read as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use traj_compress::{evaluate_with, CompressionResultBuf, Compressor, EvalWorkspace, Workspace};
use traj_model::stats::TrajectoryStats;
use traj_model::{io, Trajectory};
use traj_serve::{CodecSpec, ServeConfig, Service, SubmitError};
use traj_store::storage::FsStorage;
use traj_store::{DurableOptions, DurableStore, GroupCommitOptions, GroupCommitStore, IngestMode};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `info <file>` — print statistics of a trajectory file.
    Info {
        /// Input `t,x,y` file.
        file: PathBuf,
    },
    /// `compress <file> --algo A --eps E [--speed-eps V] [-o OUT]`.
    Compress {
        /// Input `t,x,y` file.
        file: PathBuf,
        /// Algorithm name (see [`make_compressor`]).
        algo: String,
        /// Distance threshold, metres.
        eps: f64,
        /// Speed-difference threshold, m/s (SP algorithms only).
        speed_eps: Option<f64>,
        /// Output path for the compressed trajectory.
        out: Option<PathBuf>,
        /// Print the metrics table after the report (`--stats`).
        stats: bool,
        /// Write a metrics sidecar file (`--metrics-out`): CSV for a
        /// `.csv` path, JSON lines otherwise.
        metrics_out: Option<PathBuf>,
        /// Write a trace timeline of the run (`--trace-out`); `.folded`
        /// extension selects flamegraph folded stacks, anything else
        /// Chrome Trace Event JSON.
        trace_out: Option<PathBuf>,
    },
    /// `evaluate <original> <approx>` — error figures between two files.
    Evaluate {
        /// Original trajectory file.
        original: PathBuf,
        /// Approximation trajectory file.
        approx: PathBuf,
    },
    /// `generate [--seed S] [--trip K] -o OUT` — write a calibrated trip.
    Generate {
        /// Dataset seed.
        seed: u64,
        /// Trip index 0..=9.
        trip: usize,
        /// Output path.
        out: PathBuf,
    },
    /// `obs merge <sidecar>... [-o OUT]` — merge metrics sidecars
    /// (JSON lines or CSV, as written by `compress --metrics-out`) into
    /// one side-by-side comparison table, optionally written as CSV.
    ObsMerge {
        /// Sidecar files to merge (format auto-detected per file).
        files: Vec<PathBuf>,
        /// Output CSV path; the table always goes to the report.
        out: Option<PathBuf>,
    },
    /// `store recover <dir> [--snapshot]` — replay a durable store's
    /// write-ahead log over its checkpoint and report what was
    /// found (torn tails, corrupt records, replayed fixes).
    StoreRecover {
        /// The durable store directory (holds `snapshot/` and `wal/`).
        dir: PathBuf,
        /// After recovery, write a fresh checkpoint and truncate the log.
        snapshot: bool,
    },
    /// `serve <dir> [...]` — run the sharded ingest service over the
    /// `id,t,x,y` records read from stdin (see [`ServeArgs`]).
    Serve(ServeArgs),
}

/// The `trajc serve` flag surface (wide enough to deserve its own
/// struct): service shape, session codec, group commit bounds and
/// output sidecars.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Service root; shard stores live in `dir/shard-K/`.
    pub dir: PathBuf,
    /// Store shards = worker threads (`--shards`, default 2, at most
    /// [`traj_serve::MAX_SHARDS`]).
    pub shards: usize,
    /// Per-mover session codec (`--algo` + `--eps` [+ `--speed-eps`],
    /// default op-cone at 30 m).
    pub codec: CodecSpec,
    /// Group commit batch bound (`--max-batch`, default 256; 1 is one
    /// fsync per fix).
    pub max_batch: usize,
    /// Per-shard queue capacity (`--queue-cap`, default 4096).
    pub queue_cap: usize,
    /// Write a metrics sidecar (`--metrics-out`): CSV for a `.csv`
    /// path, JSON lines otherwise.
    pub metrics_out: Option<PathBuf>,
    /// Write a trace timeline with one lane per shard worker
    /// (`--trace-out`).
    pub trace_out: Option<PathBuf>,
}

/// The usage text; its `algorithms:` line lists the catalog's names.
fn usage() -> String {
    let catalog = traj_eval::algorithm_catalog();
    let names: Vec<&str> = catalog.iter().map(|m| m.cli_name).collect();
    format!(
        "usage: trajc <info|compress|evaluate|generate|obs|store|serve> ...\n\
        \n  trajc info <file.csv>\
        \n  trajc compress <file.csv> --algo <name> --eps <m> [--speed-eps <m/s>] [-o out.csv]\
        \n                 [--stats] [--metrics-out FILE]\
        \n                 [--trace-out FILE]  (.folded = flamegraph stacks, else Chrome trace JSON)\
        \n  trajc evaluate <original.csv> <approx.csv>\
        \n  trajc generate [--seed N] [--trip 0..9] -o <file.csv>\
        \n  trajc obs merge <sidecar>... [-o merged.csv]\
        \n  trajc store recover <dir> [--snapshot]\
        \n  trajc serve <dir> [--shards N] [--algo raw|op-cone|op-fit|opw-tr|opw-sp] [--eps <m>]\
        \n              [--speed-eps <m/s>] [--max-batch N] [--queue-cap N]\
        \n              [--metrics-out FILE] [--trace-out FILE]\
        \n              < records.csv  (one id,t,x,y record per line)\
        \n\nalgorithms: {}\
        \n(see ALGORITHMS.md for criteria, error bounds and complexity)\
        \n\n--stats prints the instrumentation table (points in/out, SED evaluations,\
        \nrecursion depth, per-phase wall time); --metrics-out writes the same snapshot\
        \nto FILE as CSV for a .csv path, JSON lines otherwise; obs merge reads those\
        \nsidecars back into one side-by-side table.",
        names.join(" ")
    )
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
/// Returns a usage/diagnostic string on malformed input.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = it.next().ok_or_else(usage)?;
    match sub.as_str() {
        "info" => {
            let file = it.next().ok_or("info: missing <file>")?;
            Ok(Command::Info { file: PathBuf::from(file) })
        }
        "compress" => {
            let file = PathBuf::from(it.next().ok_or("compress: missing <file>")?);
            let mut algo = None;
            let mut eps = None;
            let mut speed_eps = None;
            let mut out = None;
            let mut stats = false;
            let mut metrics_out = None;
            let mut trace_out = None;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<&String, String> {
                    it.next().ok_or(format!("compress: {name} needs a value"))
                };
                match flag.as_str() {
                    "--algo" => algo = Some(value("--algo")?.clone()),
                    "--eps" => {
                        eps = Some(parse_f64(value("--eps")?, "--eps")?);
                    }
                    "--speed-eps" => {
                        speed_eps = Some(parse_f64(value("--speed-eps")?, "--speed-eps")?);
                    }
                    "-o" | "--out" => out = Some(PathBuf::from(value("-o")?)),
                    "--stats" => stats = true,
                    "--metrics-out" => {
                        metrics_out = Some(PathBuf::from(value("--metrics-out")?));
                    }
                    "--trace-out" => {
                        trace_out = Some(PathBuf::from(value("--trace-out")?));
                    }
                    other => return Err(format!("compress: unknown flag {other:?}")),
                }
            }
            Ok(Command::Compress {
                file,
                algo: algo.ok_or("compress: --algo is required")?,
                eps: eps.ok_or("compress: --eps is required")?,
                speed_eps,
                out,
                stats,
                metrics_out,
                trace_out,
            })
        }
        "evaluate" => {
            let original = PathBuf::from(it.next().ok_or("evaluate: missing <original>")?);
            let approx = PathBuf::from(it.next().ok_or("evaluate: missing <approx>")?);
            Ok(Command::Evaluate { original, approx })
        }
        "generate" => {
            let mut seed = 42u64;
            let mut trip = 0usize;
            let mut out = None;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<&String, String> {
                    it.next().ok_or(format!("generate: {name} needs a value"))
                };
                match flag.as_str() {
                    "--seed" => {
                        seed = value("--seed")?
                            .parse()
                            .map_err(|e| format!("generate: bad --seed: {e}"))?;
                    }
                    "--trip" => {
                        trip = value("--trip")?
                            .parse()
                            .map_err(|e| format!("generate: bad --trip: {e}"))?;
                    }
                    "-o" | "--out" => out = Some(PathBuf::from(value("-o")?)),
                    other => return Err(format!("generate: unknown flag {other:?}")),
                }
            }
            if trip > 9 {
                return Err("generate: --trip must be 0..=9".into());
            }
            Ok(Command::Generate { seed, trip, out: out.ok_or("generate: -o is required")? })
        }
        "obs" => {
            match it.next().map(String::as_str) {
                Some("merge") => {}
                Some(other) => {
                    return Err(format!("obs: unknown action {other:?} (expected merge)"))
                }
                None => return Err("obs: missing action (expected merge)".into()),
            }
            let mut files = Vec::new();
            let mut out = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "-o" | "--out" => {
                        out = Some(PathBuf::from(
                            it.next().ok_or("obs merge: -o needs a value")?,
                        ));
                    }
                    other if other.starts_with('-') => {
                        return Err(format!("obs merge: unknown flag {other:?}"));
                    }
                    file => files.push(PathBuf::from(file)),
                }
            }
            if files.is_empty() {
                return Err("obs merge: needs at least one sidecar file".into());
            }
            Ok(Command::ObsMerge { files, out })
        }
        "store" => {
            match it.next().map(String::as_str) {
                Some("recover") => {}
                Some(other) => {
                    return Err(format!("store: unknown action {other:?} (expected recover)"))
                }
                None => return Err("store: missing action (expected recover)".into()),
            }
            let dir = PathBuf::from(it.next().ok_or("store recover: missing <dir>")?);
            let mut snapshot = false;
            for flag in it {
                match flag.as_str() {
                    "--snapshot" => snapshot = true,
                    other => return Err(format!("store recover: unknown flag {other:?}")),
                }
            }
            Ok(Command::StoreRecover { dir, snapshot })
        }
        "serve" => {
            let dir = PathBuf::from(it.next().ok_or("serve: missing <dir>")?);
            let mut shards = 2usize;
            let mut algo = "op-cone".to_string();
            let mut eps = 30.0f64;
            let mut speed_eps = None;
            let mut max_batch = 256usize;
            let mut queue_cap = 4096usize;
            let mut metrics_out = None;
            let mut trace_out = None;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<&String, String> {
                    it.next().ok_or(format!("serve: {name} needs a value"))
                };
                let parse_int = |v: &String, name: &str| -> Result<u64, String> {
                    v.parse().map_err(|e| format!("serve: bad {name} {v:?}: {e}"))
                };
                match flag.as_str() {
                    "--shards" => {
                        shards = usize::try_from(parse_int(value("--shards")?, "--shards")?)
                            .map_err(|e| format!("serve: bad --shards: {e}"))?;
                    }
                    "--algo" => algo = value("--algo")?.clone(),
                    "--eps" => eps = parse_f64(value("--eps")?, "--eps")?,
                    "--speed-eps" => {
                        speed_eps = Some(parse_f64(value("--speed-eps")?, "--speed-eps")?);
                    }
                    "--max-batch" => {
                        max_batch =
                            usize::try_from(parse_int(value("--max-batch")?, "--max-batch")?)
                                .map_err(|e| format!("serve: bad --max-batch: {e}"))?;
                    }
                    "--queue-cap" => {
                        queue_cap =
                            usize::try_from(parse_int(value("--queue-cap")?, "--queue-cap")?)
                                .map_err(|e| format!("serve: bad --queue-cap: {e}"))?;
                    }
                    "--metrics-out" => {
                        metrics_out = Some(PathBuf::from(value("--metrics-out")?));
                    }
                    "--trace-out" => trace_out = Some(PathBuf::from(value("--trace-out")?)),
                    other => return Err(format!("serve: unknown flag {other:?}")),
                }
            }
            traj_serve::check_shards(shards).map_err(|e| format!("serve: --shards: {e}"))?;
            let codec = CodecSpec::parse(&algo, eps, speed_eps)?;
            Ok(Command::Serve(ServeArgs {
                dir,
                shards,
                codec,
                max_batch,
                queue_cap,
                metrics_out,
                trace_out,
            }))
        }
        "--help" | "-h" => Err(usage()),
        other => Err(format!("unknown subcommand {other:?}\n{}", usage())),
    }
}

/// Parses one metrics sidecar, auto-detecting the format: bodies
/// opening with `{` are JSON lines, anything else is the CSV layout of
/// [`traj_obs::sink::to_csv`].
///
/// # Errors
/// Propagates the underlying parser's diagnostic.
pub fn parse_sidecar(body: &str) -> Result<Vec<traj_obs::MetricSample>, String> {
    if body.trim().is_empty() {
        // A sidecar from a no-instrumentation build is legitimately empty.
        Ok(Vec::new())
    } else if body.trim_start().starts_with('{') {
        traj_obs::sink::parse_json_lines(body)
    } else {
        traj_obs::sink::parse_csv(body)
    }
}

/// Quotes `field` per RFC 4180 when it contains a comma, quote or
/// newline.
fn csv_field(field: &str) -> String {
    if field.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Renders parsed sidecars side by side as long-format CSV: one row per
/// `(metric, stat)` with one value column per input file. Counters and
/// gauges contribute a single `value` row; histograms contribute
/// `count`/`sum`/`min`/`max`/`p50`/`p90`/`p99` rows. Metrics missing
/// from a file leave that cell empty.
pub fn merged_sidecar_csv(columns: &[(String, Vec<traj_obs::MetricSample>)]) -> String {
    // Histogram stats after the scalar `value`, in summary order.
    const STATS: [&str; 8] = ["value", "count", "sum", "min", "max", "p50", "p90", "p99"];
    let stat_index = |stat: &str| STATS.iter().position(|s| *s == stat).unwrap_or(STATS.len());
    // (metric path, kind, stat rank, stat) → one cell per column.
    let mut rows: std::collections::BTreeMap<(String, &str, usize, &str), Vec<String>> =
        std::collections::BTreeMap::new();
    for (j, (_, samples)) in columns.iter().enumerate() {
        for s in samples {
            let stats: Vec<(&str, String)> = match &s.histogram {
                Some(h) => vec![
                    ("count", h.count.to_string()),
                    ("sum", h.sum.to_string()),
                    ("min", h.min.to_string()),
                    ("max", h.max.to_string()),
                    ("p50", h.p50.to_string()),
                    ("p90", h.p90.to_string()),
                    ("p99", h.p99.to_string()),
                ],
                None => vec![("value", s.value.to_string())],
            };
            for (stat, cell) in stats {
                rows.entry((s.path(), s.kind.as_str(), stat_index(stat), stat))
                    .or_insert_with(|| vec![String::new(); columns.len()])[j] = cell;
            }
        }
    }
    let mut out = String::from("metric,kind,stat");
    for (label, _) in columns {
        out.push(',');
        out.push_str(&csv_field(label));
    }
    out.push('\n');
    for ((metric, kind, _, stat), cells) in rows {
        out.push_str(&csv_field(&metric));
        out.push(',');
        out.push_str(kind);
        out.push(',');
        out.push_str(stat);
        for cell in cells {
            out.push(',');
            out.push_str(&csv_field(&cell));
        }
        out.push('\n');
    }
    out
}

/// Stops an armed trace session on scope exit, discarding the trace.
/// The success path disarms it and exports the trace instead.
struct TraceSessionGuard {
    armed: bool,
}

impl Drop for TraceSessionGuard {
    fn drop(&mut self) {
        if self.armed {
            let _ = traj_obs::trace::stop();
        }
    }
}

fn parse_f64(s: &str, flag: &str) -> Result<f64, String> {
    let v: f64 = s.parse().map_err(|e| format!("bad {flag} value {s:?}: {e}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("{flag} must be finite and >= 0, got {s}"));
    }
    Ok(v)
}

/// Builds a compressor by its `--algo` name, looked up in the one name
/// table, [`traj_eval::algorithm_catalog`].
///
/// # Errors
/// Returns a diagnostic for unknown names, missing speed thresholds and
/// invalid parameter combinations.
pub fn make_compressor(
    algo: &str,
    eps: f64,
    speed_eps: Option<f64>,
) -> Result<Box<dyn Compressor>, String> {
    let meta = traj_eval::algorithm_catalog()
        .iter()
        .find(|m| m.cli_name == algo)
        .ok_or_else(|| format!("unknown algorithm {algo:?}"))?;
    (meta.make)(eps, speed_eps)
}

/// Executes a parsed command, returning its human-readable report.
///
/// # Errors
/// Propagates I/O, parse and validation failures as strings.
pub fn run(cmd: &Command) -> Result<String, String> {
    let load = |path: &PathBuf| -> Result<Trajectory, String> {
        io::read_csv(path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let mut report = String::new();
    match cmd {
        Command::Info { file } => {
            let t = load(file)?;
            let s = TrajectoryStats::of(&t);
            let _ = writeln!(report, "file:          {}", file.display());
            let _ = writeln!(report, "data points:   {}", s.n_points);
            let _ = writeln!(report, "duration:      {}", s.duration);
            let _ = writeln!(report, "length:        {:.3} km", s.length_km());
            let _ = writeln!(report, "displacement:  {:.3} km", s.displacement_km());
            let _ = writeln!(report, "avg speed:     {:.2} km/h", s.avg_speed_kmh());
            let _ = writeln!(report, "max speed:     {:.2} km/h", s.max_speed_ms * 3.6);
            let _ = writeln!(report, "mean interval: {:.2} s", s.mean_interval_s);
        }
        Command::Compress {
            file,
            algo,
            eps,
            speed_eps,
            out,
            stats,
            metrics_out,
            trace_out,
        } => {
            // Stop the recorder even on early error returns, so a failed
            // run never leaks an active session into the next command.
            let mut trace_session = TraceSessionGuard { armed: trace_out.is_some() };
            if trace_session.armed {
                traj_obs::trace::start();
                traj_obs::trace::set_track_label("main");
            }
            let total = Instant::now();
            let t = {
                let _phase = traj_obs::trace_span!("cli.read_input");
                load(file)?
            };
            if t.len() < 2 {
                return Err(format!(
                    "{}: needs at least 2 fixes to compress, got {}",
                    file.display(),
                    t.len()
                ));
            }
            let compressor = make_compressor(algo, *eps, *speed_eps)?;
            let compress_start = Instant::now();
            // An explicit workspace, so the columnar copy built during
            // compression can be handed to the evaluation below instead
            // of being de-interleaved a second time.
            let mut cws = Workspace::new();
            let result = {
                let _phase = traj_obs::trace_span!("cli.compress", t.len());
                let mut buf = CompressionResultBuf::new();
                compressor.compress_into(&t, &mut cws, &mut buf);
                buf.take()
            };
            let compress_time = compress_start.elapsed();
            let evaluate_start = Instant::now();
            let e = {
                let _phase = traj_obs::trace_span!("cli.evaluate");
                let mut ews = EvalWorkspace::new();
                ews.seed_columns(cws.take_columns());
                evaluate_with(&t, &result, &mut ews)
            };
            let evaluate_time = evaluate_start.elapsed();
            let _ = writeln!(report, "algorithm:        {}", compressor.name());
            let _ = writeln!(report, "kept points:      {} of {}", result.kept_len(), t.len());
            let _ = writeln!(report, "compression:      {:.2} %", e.compression_pct);
            let _ = writeln!(report, "avg sync error:   {:.3} m", e.avg_sync_err_m);
            let _ = writeln!(report, "max sync error:   {:.3} m", e.max_sync_err_m);
            let _ = writeln!(report, "mean/max SED:     {:.3} / {:.3} m", e.mean_sed_m, e.max_sed_m);
            let _ = writeln!(report, "mean/max perp:    {:.3} / {:.3} m", e.mean_perp_m, e.max_perp_m);
            if let Some(out) = out {
                let _phase = traj_obs::trace_span!("cli.write_output");
                let approx = result.apply(&t);
                io::write_csv(&approx, out).map_err(|e| format!("{}: {e}", out.display()))?;
                let _ = writeln!(report, "wrote:            {}", out.display());
            }
            traj_obs::histogram!("cli", "total_ns")
                .record(u64::try_from(total.elapsed().as_nanos()).unwrap_or(u64::MAX));
            if *stats {
                // Compression vs evaluation cost per run, at a glance
                // (the full span table below has the same data per phase).
                let _ = writeln!(
                    report,
                    "timing:           compress {:.3} ms · evaluate {:.3} ms",
                    compress_time.as_secs_f64() * 1e3,
                    evaluate_time.as_secs_f64() * 1e3,
                );
                let _ = writeln!(report);
                report.push_str(&traj_obs::sink::render_table(
                    &traj_obs::registry().snapshot(),
                ));
            }
            if let Some(path) = metrics_out {
                write_metrics(path, &mut report)?;
            }
            if let Some(path) = trace_out {
                write_trace(path, &mut trace_session, &mut report)?;
            }
        }
        Command::Evaluate { original, approx } => {
            let p = load(original)?;
            let a = load(approx)?;
            // α averages over the shared time span, which must have
            // positive length; the library treats a violation as a bug.
            let from = p.start_time().as_secs().max(a.start_time().as_secs());
            let to = p.end_time().as_secs().min(a.end_time().as_secs());
            if from >= to {
                return Err(format!(
                    "{} and {} do not overlap in time (need a shared span of positive length)",
                    original.display(),
                    approx.display()
                ));
            }
            let alpha = traj_compress::error::average_synchronous_error(&p, &a);
            let max = traj_compress::error::max_synchronous_error(&p, &a);
            let (mean_sed, max_sed) = traj_compress::error::sed_at_samples(&p, &a);
            let _ = writeln!(report, "points:           {} vs {}", p.len(), a.len());
            let _ = writeln!(
                report,
                "compression:      {:.2} %",
                100.0 * (p.len().saturating_sub(a.len())) as f64 / p.len() as f64
            );
            let _ = writeln!(report, "avg sync error:   {alpha:.3} m");
            let _ = writeln!(report, "max sync error:   {max:.3} m");
            let _ = writeln!(report, "mean/max SED:     {mean_sed:.3} / {max_sed:.3} m");
        }
        Command::Generate { seed, trip, out } => {
            let t = traj_gen::paper_dataset(*seed)
                .into_iter()
                .nth(*trip)
                .ok_or_else(|| format!("trip index {trip} out of range (dataset has 10 trips)"))?;
            io::write_csv(&t, out).map_err(|e| format!("{}: {e}", out.display()))?;
            let s = TrajectoryStats::of(&t);
            let _ = writeln!(
                report,
                "wrote trip {trip} (seed {seed}): {} fixes, {:.2} km, {} → {}",
                s.n_points,
                s.length_km(),
                s.duration,
                out.display()
            );
        }
        Command::ObsMerge { files, out } => {
            let mut columns = Vec::with_capacity(files.len());
            for path in files {
                let body = std::fs::read_to_string(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let samples = parse_sidecar(&body)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let label = path
                    .file_name()
                    .map_or_else(|| path.display().to_string(), |n| n.to_string_lossy().into_owned());
                columns.push((label, samples));
            }
            let csv = merged_sidecar_csv(&columns);
            if let Some(path) = out {
                std::fs::write(path, &csv).map_err(|e| format!("{}: {e}", path.display()))?;
                let _ = writeln!(report, "wrote: {}", path.display());
            }
            report.push_str(&csv);
        }
        Command::StoreRecover { dir, snapshot } => {
            if !dir.is_dir() {
                return Err(format!("{}: not a directory", dir.display()));
            }
            // `open` creates a missing layout, which is right for a new
            // store and wrong here: recovering must not invent one.
            let (wal, snap) = (DurableStore::WAL_DIR, DurableStore::SNAPSHOT_DIR);
            if !dir.join(wal).exists() && !dir.join(snap).exists() {
                let hint = if dir.join("shard-0").exists() {
                    "; this looks like a `trajc serve` root: recover each shard-K directory"
                } else {
                    ""
                };
                return Err(format!(
                    "{}: not a durable store (expected {wal}/ or {snap}/ inside){hint}",
                    dir.display()
                ));
            }
            // Counting needs no history: the group store recovers each
            // object's latest time only, and every fix it recovers is a
            // checkpoint fix or a replayed record. A snapshot needs the
            // history, so `--snapshot` opens the durable store.
            let opts = DurableOptions::default();
            let (durable, r, objects, fixes) = if *snapshot {
                let (store, r) =
                    DurableStore::open(dir, IngestMode::Raw, opts).map_err(|e| e.to_string())?;
                let s = store.store().stats();
                (Some(store), r, s.objects, s.stored_points)
            } else {
                let (disk, group) = (Arc::new(FsStorage), GroupCommitOptions::default());
                let (store, r) =
                    GroupCommitStore::open_with(disk, dir, IngestMode::Raw, opts, group)
                        .map_err(|e| e.to_string())?;
                (None, r, store.objects(), r.snapshot_fixes + r.replayed)
            };
            let _ = writeln!(report, "store:            {}", dir.display());
            let _ = writeln!(
                report,
                "snapshot:         {} objects, {} fixes",
                r.snapshot_objects, r.snapshot_fixes
            );
            let _ = writeln!(report, "wal segments:     {}", r.wal_segments);
            let _ = writeln!(report, "replayed:         {} records", r.replayed);
            let _ = writeln!(report, "skipped covered:  {} records", r.skipped_covered);
            let _ = writeln!(report, "skipped corrupt:  {} records", r.skipped_corrupt);
            let _ = writeln!(report, "torn tail:        {}", if r.torn_tail { "yes" } else { "no" });
            let _ = writeln!(
                report,
                "health:           {}",
                if r.clean() { "clean" } else { "recovered from crash/corruption" }
            );
            let _ = writeln!(report, "recovered state:  {objects} objects, {fixes} fixes");
            if let Some(mut store) = durable {
                let objects = store.snapshot().map_err(|e| e.to_string())?;
                let _ = writeln!(report, "snapshotted:      {objects} objects, log truncated");
            }
        }
        Command::Serve(args) => return serve(args, &mut std::io::stdin().lock()),
    }
    Ok(report)
}

/// The longest `serve` input line, newline excluded.
const MAX_LINE: usize = 4096;

/// Submits every `id,t,x,y` record of `input` to `service`, waiting out
/// backpressure so no record is shed, and returns how many went in.
/// Stops early, with every earlier record submitted, when the service
/// closes (the shutdown statistics then carry the storage error).
///
/// # Errors
/// A malformed record, a line over [`MAX_LINE`] bytes, invalid UTF-8 or
/// a read failure, naming the line and the records submitted before it.
fn feed(service: &Service, input: &mut dyn BufRead) -> Result<u64, String> {
    let mut buf = Vec::new();
    let mut records = 0u64;
    for line in 1.. {
        let stop = |reason: String| {
            format!("serve: stdin line {line}: {reason}; {records} records before it went in")
        };
        buf.clear();
        let n = (&mut *input)
            .take(MAX_LINE as u64 + 1)
            .read_until(b'\n', &mut buf)
            .map_err(|e| stop(e.to_string()))?;
        if n == 0 {
            break;
        }
        if buf.len() > MAX_LINE && buf.last() != Some(&b'\n') {
            return Err(stop(format!("line longer than {MAX_LINE} bytes")));
        }
        let text = std::str::from_utf8(&buf).map_err(|e| stop(format!("invalid UTF-8: {e}")))?;
        let record = io::parse_record(text, line).map_err(|e| match e {
            traj_model::ModelError::Parse { reason, .. } => stop(reason),
            other => stop(other.to_string()),
        })?;
        let Some((mover, fix)) = record else { continue };
        let at = Instant::now();
        loop {
            match service.submit_at(mover, fix, at) {
                Ok(()) => break,
                Err(SubmitError::Backpressure { .. }) => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(SubmitError::Closed) => return Ok(records),
            }
        }
        records += 1;
    }
    Ok(records)
}

/// `trajc serve`: runs the service over the records of `input`, then
/// shuts it down cleanly — also after a bad input line, so every record
/// before it stays durable — and reports.
fn serve(args: &ServeArgs, input: &mut dyn BufRead) -> Result<String, String> {
    let mut trace_session = TraceSessionGuard { armed: args.trace_out.is_some() };
    if trace_session.armed {
        traj_obs::trace::start();
        traj_obs::trace::set_track_label("serve-main");
    }
    let cfg = ServeConfig {
        shards: args.shards,
        queue_cap: args.queue_cap,
        codec: args.codec,
        group: GroupCommitOptions { max_batch: args.max_batch },
    };
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("{}: {e}", args.dir.display()))?;
    let start = Instant::now();
    let service = Service::start(&args.dir, cfg)?;
    let fed = feed(&service, input);
    let stats = service.shutdown()?;
    let duration_s = start.elapsed().as_secs_f64();
    if !stats.errors.is_empty() {
        return Err(format!("serve: storage failure: {}", stats.errors.join("; ")));
    }
    let records = fed?;
    let wal_bytes = shard_wal_bytes(&args.dir, args.shards);
    let us = |q: f64| stats.ack.quantile(q) as f64 / 1e3;
    let mut report = String::new();
    let _ = writeln!(report, "service:          {}", args.dir.display());
    let _ = writeln!(report, "shards:           {} ({} sessions)", args.shards, stats.sessions);
    let _ = writeln!(report, "codec:            {:?}", args.codec);
    let _ = writeln!(report, "duration:         {duration_s:.3} s");
    let _ = writeln!(
        report,
        "records:          {records} read from stdin ({} invalid)",
        stats.invalid
    );
    let _ = writeln!(
        report,
        "acked:            {} fixes · {:.0} acks/s",
        stats.acked,
        stats.acked as f64 / duration_s.max(f64::MIN_POSITIVE)
    );
    let _ = writeln!(
        report,
        "durability:       {} commits · {:.1} fixes/fsync · {wal_bytes} WAL bytes",
        stats.commits,
        stats.emitted as f64 / stats.commits.max(1) as f64,
    );
    let _ = writeln!(
        report,
        "wal reduction:    {} points logged of {} acked",
        stats.emitted, stats.acked
    );
    let _ = writeln!(
        report,
        "ack latency:      p50 {:.1} µs · p90 {:.1} µs · p99 {:.1} µs · p999 {:.1} µs · max {:.1} µs",
        us(0.50),
        us(0.90),
        us(0.99),
        us(0.999),
        us(1.0),
    );
    if let Some(path) = &args.metrics_out {
        write_metrics(path, &mut report)?;
    }
    if let Some(path) = &args.trace_out {
        write_trace(path, &mut trace_session, &mut report)?;
    }
    Ok(report)
}

/// Writes the metrics registry's snapshot to `path` as a sidecar, in
/// the format the path selects ([`traj_obs::sink::to_sidecar`]).
fn write_metrics(path: &Path, report: &mut String) -> Result<(), String> {
    let body = traj_obs::sink::to_sidecar(path, &traj_obs::registry().snapshot());
    std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    let _ = writeln!(report, "metrics:          {}", path.display());
    Ok(())
}

/// Stops the armed trace session and writes it to `path`: flamegraph
/// folded stacks for a `.folded` extension, else Chrome Trace JSON.
fn write_trace(
    path: &Path,
    session: &mut TraceSessionGuard,
    report: &mut String,
) -> Result<(), String> {
    session.armed = false;
    let trace = traj_obs::trace::stop();
    let body = if path.extension().is_some_and(|e| e == "folded") {
        trace.to_folded()
    } else {
        trace.to_chrome_json()
    };
    std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    let _ = writeln!(
        report,
        "trace:            {} ({} events, {} dropped)",
        path.display(),
        trace.event_count(),
        trace.dropped_total()
    );
    Ok(())
}

/// Sums the on-disk WAL bytes across `dir/shard-K/wal/` (best-effort:
/// unreadable entries count 0).
fn shard_wal_bytes(dir: &Path, shards: usize) -> u64 {
    let mut total = 0u64;
    for k in 0..shards {
        let wal_dir = dir.join(format!("shard-{k}")).join("wal");
        let Ok(entries) = std::fs::read_dir(&wal_dir) else { continue };
        for entry in entries.flatten() {
            if let Ok(meta) = entry.metadata() {
                total += meta.len();
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_info() {
        assert_eq!(
            parse(&args("info a.csv")).unwrap(),
            Command::Info { file: PathBuf::from("a.csv") }
        );
        assert!(parse(&args("info")).is_err());
    }

    #[test]
    fn parse_compress_full() {
        let c = parse(&args("compress a.csv --algo opw-sp --eps 30 --speed-eps 5 -o b.csv"))
            .unwrap();
        assert_eq!(
            c,
            Command::Compress {
                file: PathBuf::from("a.csv"),
                algo: "opw-sp".into(),
                eps: 30.0,
                speed_eps: Some(5.0),
                out: Some(PathBuf::from("b.csv")),
                stats: false,
                metrics_out: None,
                trace_out: None,
            }
        );
    }

    #[test]
    fn parse_compress_threads_flag() {
        // `compress` runs one trajectory inline, so it takes no worker
        // count: `--threads` is an unknown flag, named in the error.
        let err = parse(&args("compress a.csv --algo td-tr --eps 30 --threads 4")).unwrap_err();
        assert!(err.contains("unknown flag") && err.contains("--threads"), "{err}");
    }

    #[test]
    fn parse_compress_metrics_flags() {
        let line = "compress a.csv --algo td-tr --eps 30 --stats --metrics-out m.csv";
        match parse(&args(line)).unwrap() {
            Command::Compress { stats, metrics_out, .. } => {
                assert!(stats);
                assert_eq!(metrics_out, Some(PathBuf::from("m.csv")));
            }
            other => panic!("parsed {other:?}"),
        }
        // The sidecar path picks the format: a format flag is unknown.
        let line = "compress a.csv --algo td-tr --eps 30 --metrics-format csv";
        let err = parse(&args(line)).unwrap_err();
        assert!(err.contains("unknown flag") && err.contains("--metrics-format"), "{err}");
    }

    #[test]
    fn parse_compress_requires_algo_and_eps() {
        assert!(parse(&args("compress a.csv --eps 30")).is_err());
        assert!(parse(&args("compress a.csv --algo td-tr")).is_err());
        assert!(parse(&args("compress a.csv --algo td-tr --eps nope")).is_err());
        assert!(parse(&args("compress a.csv --algo td-tr --eps -5")).is_err());
    }

    #[test]
    fn parse_generate_bounds_trip() {
        assert!(parse(&args("generate --trip 10 -o x.csv")).is_err());
        assert!(parse(&args("generate --trip 3")).is_err(), "-o required");
        let g = parse(&args("generate --seed 7 --trip 3 -o x.csv")).unwrap();
        assert_eq!(g, Command::Generate { seed: 7, trip: 3, out: PathBuf::from("x.csv") });
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&args("compress a.csv --algo td-tr --eps 5 --wat 3")).is_err());
    }

    #[test]
    fn factory_knows_every_documented_algorithm() {
        for name in [
            "uniform", "dist", "ndp", "td-tr", "nopw", "bopw", "opw-tr",
            "dead-reckoning", "bottom-up", "sliding-window", "op-fit", "op-cone",
        ] {
            assert!(make_compressor(name, 10.0, None).is_ok(), "{name}");
        }
        for name in ["td-sp", "opw-sp"] {
            assert!(make_compressor(name, 10.0, None).is_err(), "{name} needs speed");
            assert!(make_compressor(name, 10.0, Some(5.0)).is_ok(), "{name}");
        }
        assert!(make_compressor("nope", 10.0, None).is_err());
    }

    #[test]
    fn factory_accepts_every_catalog_entry() {
        // `--algo` names are `algorithm_catalog()` names, the table
        // `ALGORITHMS.md` is pinned to: every row builds with a speed
        // threshold, only the speed-blended rows need one, and nothing
        // outside the catalog builds.
        for meta in traj_eval::algorithm_catalog() {
            let name = meta.cli_name;
            assert!(make_compressor(name, 10.0, Some(5.0)).is_ok(), "{name}");
            let needs_speed = matches!(name, "td-sp" | "opw-sp");
            assert_eq!(make_compressor(name, 10.0, None).is_err(), needs_speed, "{name}");
        }
        assert!(make_compressor("td-sp", 10.0, Some(0.0)).is_err(), "td-sp needs speed > 0");
        let err = make_compressor("nope", 10.0, None).err().unwrap_or_default();
        assert!(err.contains("unknown algorithm") && err.contains("nope"), "{err}");
    }

    #[test]
    fn run_info_compress_evaluate_roundtrip() {
        let dir = std::env::temp_dir().join("trajc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        let output = dir.join("out.csv");

        // generate → info → compress → evaluate, exercising every path.
        let gen = Command::Generate { seed: 42, trip: 1, out: input.clone() };
        let report = run(&gen).unwrap();
        assert!(report.contains("wrote trip 1"));

        let info = run(&Command::Info { file: input.clone() }).unwrap();
        assert!(info.contains("data points"));
        assert!(info.contains("km/h"));

        let compress = Command::Compress {
            file: input.clone(),
            algo: "td-tr".into(),
            eps: 30.0,
            speed_eps: None,
            out: Some(output.clone()),
            stats: false,
            metrics_out: None,
            trace_out: None,
        };
        let report = run(&compress).unwrap();
        assert!(report.contains("td-tr(30m)"));
        assert!(report.contains("compression"));

        let eval = Command::Evaluate { original: input.clone(), approx: output.clone() };
        let report = run(&eval).unwrap();
        assert!(report.contains("avg sync error"));

        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn run_compress_with_stats_prints_metric_table() {
        let dir = std::env::temp_dir().join("trajc_cli_stats_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        run(&Command::Generate { seed: 7, trip: 0, out: input.clone() }).unwrap();

        let metrics_json = dir.join("m.json");
        let report = run(&Command::Compress {
            file: input.clone(),
            algo: "td-tr".into(),
            eps: 30.0,
            speed_eps: None,
            out: None,
            stats: true,
            metrics_out: Some(metrics_json.clone()),
            trace_out: None,
        })
        .unwrap();
        // The acceptance surface: points in/out, SED evaluations,
        // recursion depth and per-phase wall time are all visible.
        // `cols_reuse` proves the evaluation phase inherited the column
        // copy built during compression instead of rebuilding it.
        for needle in [
            "points_in",
            "points_out",
            "sed_evals",
            "dp_depth",
            "cli.compress",
            "cols_built",
            "cols_reuse",
        ] {
            assert!(report.contains(needle), "missing {needle} in:\n{report}");
        }
        // The JSON sidecar is one object per line.
        let body = std::fs::read_to_string(&metrics_json).unwrap();
        assert!(!body.is_empty());
        for line in body.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad line {line:?}");
        }
        assert!(body.contains("\"sed_evals\""));

        let metrics_csv = dir.join("m.csv");
        run(&Command::Compress {
            file: input.clone(),
            algo: "td-tr".into(),
            eps: 30.0,
            speed_eps: None,
            out: None,
            stats: false,
            metrics_out: Some(metrics_csv.clone()),
            trace_out: None,
        })
        .unwrap();
        let body = std::fs::read_to_string(&metrics_csv).unwrap();
        assert!(body.starts_with(traj_obs::sink::CSV_HEADER));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_compress_trace_out() {
        let c = parse(&args("compress a.csv --algo td-tr --eps 30 --trace-out t.json")).unwrap();
        match c {
            Command::Compress { trace_out, .. } => {
                assert_eq!(trace_out, Some(PathBuf::from("t.json")));
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&args("compress a.csv --algo td-tr --eps 30 --trace-out"))
            .unwrap_err()
            .contains("--trace-out"));
    }

    #[test]
    fn parse_obs_merge() {
        assert_eq!(
            parse(&args("obs merge a.json b.csv -o merged.csv")).unwrap(),
            Command::ObsMerge {
                files: vec![PathBuf::from("a.json"), PathBuf::from("b.csv")],
                out: Some(PathBuf::from("merged.csv")),
            }
        );
        assert_eq!(
            parse(&args("obs merge one.json")).unwrap(),
            Command::ObsMerge { files: vec![PathBuf::from("one.json")], out: None }
        );
        assert!(parse(&args("obs merge")).is_err());
        assert!(parse(&args("obs merge a.json --wat")).is_err());
        assert!(parse(&args("obs split a.json")).is_err());
        assert!(parse(&args("obs")).is_err());
    }

    #[test]
    fn merged_sidecar_csv_lines_up_columns() {
        use traj_obs::{HistogramSummary, MetricKind, MetricSample};
        let counter = |v: f64| MetricSample {
            subsystem: "compress".into(),
            name: "sed_evals".into(),
            labels: vec![("algo".into(), "td-tr".into())],
            kind: MetricKind::Counter,
            value: v,
            histogram: None,
        };
        let hist = MetricSample {
            subsystem: "span".into(),
            name: "cli.compress".into(),
            labels: vec![],
            kind: MetricKind::Histogram,
            value: 0.0,
            histogram: Some(HistogramSummary {
                count: 2,
                sum: 10,
                min: 3,
                max: 7,
                p50: 4,
                p90: 7,
                p99: 7,
            }),
        };
        let merged = merged_sidecar_csv(&[
            ("a.json".into(), vec![counter(841.0), hist]),
            ("b.csv".into(), vec![counter(900.0)]),
        ]);
        let mut lines = merged.lines();
        assert_eq!(lines.next(), Some("metric,kind,stat,a.json,b.csv"));
        // The labeled metric path contains commas-free label syntax here,
        // but the `{algo=td-tr}` braces must survive verbatim.
        assert!(merged.contains("compress.sed_evals{algo=td-tr},counter,value,841,900"));
        // Histogram rows: one per stat, empty cell for the file without it.
        assert!(merged.contains("span.cli.compress,histogram,count,2,"));
        assert!(merged.contains("span.cli.compress,histogram,p50,4,"));
    }

    #[test]
    fn run_obs_merge_round_trips_sidecars() {
        let dir = std::env::temp_dir().join("trajc_cli_merge_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        run(&Command::Generate { seed: 42, trip: 2, out: input.clone() }).unwrap();
        let json_sidecar = dir.join("a.json");
        let csv_sidecar = dir.join("b.csv");
        for path in [&json_sidecar, &csv_sidecar] {
            run(&Command::Compress {
                file: input.clone(),
                algo: "td-tr".into(),
                eps: 30.0,
                speed_eps: None,
                out: None,
                stats: false,
                metrics_out: Some(path.clone()),
                trace_out: None,
            })
            .unwrap();
        }
        let merged_out = dir.join("merged.csv");
        let report = run(&Command::ObsMerge {
            files: vec![json_sidecar, csv_sidecar],
            out: Some(merged_out.clone()),
        })
        .unwrap();
        assert!(report.contains("metric,kind,stat,a.json,b.csv"), "{report}");
        let written = std::fs::read_to_string(&merged_out).unwrap();
        assert!(written.starts_with("metric,kind,stat,a.json,b.csv"));
        if cfg!(feature = "obs") {
            // Both runs recorded the same counters; the merged rows carry
            // one cell per sidecar.
            let sed_row = written
                .lines()
                .find(|l| l.starts_with("compress.sed_evals"))
                .expect("sed_evals row");
            assert!(sed_row.contains("counter,value"), "{sed_row}");
            assert_eq!(sed_row.split(',').count(), 5, "{sed_row}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn run_compress_trace_out_exports_chrome_json_and_folded() {
        use traj_obs::json::{self, Json};
        let dir = std::env::temp_dir().join("trajc_cli_trace_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        run(&Command::Generate { seed: 42, trip: 3, out: input.clone() }).unwrap();

        let trace_json = dir.join("trace.json");
        let report = run(&Command::Compress {
            file: input.clone(),
            algo: "td-tr".into(),
            eps: 30.0,
            speed_eps: None,
            out: None,
            stats: false,
            metrics_out: None,
            trace_out: Some(trace_json.clone()),
        })
        .unwrap();
        assert!(report.contains("trace:"), "{report}");
        let body = std::fs::read_to_string(&trace_json).unwrap();
        let doc = json::parse(&body).expect("trace must be valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
        assert!(!events.is_empty());
        // The run's phases appear as complete begin/end pairs on a track
        // labeled by the thread-name metadata event.
        let has = |ph: &str, name: &str| {
            events.iter().any(|e| {
                e.get("ph").and_then(Json::as_str) == Some(ph)
                    && e.get("name").and_then(Json::as_str) == Some(name)
            })
        };
        assert!(has("B", "cli.compress"), "begin event");
        assert!(has("E", "cli.compress"), "end event");
        let main_track = events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("thread_name")
                && e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str) == Some("main")
        });
        assert!(main_track, "main track metadata");

        let trace_folded = dir.join("trace.folded");
        run(&Command::Compress {
            file: input.clone(),
            algo: "td-tr".into(),
            eps: 30.0,
            speed_eps: None,
            out: None,
            stats: false,
            metrics_out: None,
            trace_out: Some(trace_folded.clone()),
        })
        .unwrap();
        let folded = std::fs::read_to_string(&trace_folded).unwrap();
        assert!(folded.lines().any(|l| l.contains("cli.compress")), "{folded}");
        // Folded stacks: every line is `frames self_ns`.
        for line in folded.lines() {
            let (_, last) = line.rsplit_once(' ').expect("stack and self time");
            last.parse::<u64>().expect("self time is integral ns");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_store_recover() {
        assert_eq!(
            parse(&args("store recover /tmp/db")).unwrap(),
            Command::StoreRecover { dir: PathBuf::from("/tmp/db"), snapshot: false }
        );
        assert_eq!(
            parse(&args("store recover db --snapshot")).unwrap(),
            Command::StoreRecover { dir: PathBuf::from("db"), snapshot: true }
        );
        assert!(parse(&args("store")).is_err());
        assert!(parse(&args("store compact db")).is_err());
        assert!(parse(&args("store recover")).is_err());
        assert!(parse(&args("store recover db --wat")).is_err());
    }

    #[test]
    fn run_store_recover_reports_and_snapshots() {
        let dir = std::env::temp_dir().join("trajc_cli_recover_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        {
            let (mut store, _) =
                DurableStore::open(&dir, IngestMode::Raw, DurableOptions::default()).unwrap();
            for i in 0..5 {
                store
                    .append(3, traj_model::Fix::from_parts(i as f64, i as f64 * 2.0, 0.0))
                    .unwrap();
            }
        }
        let report = run(&Command::StoreRecover { dir: dir.clone(), snapshot: true }).unwrap();
        assert!(report.contains("replayed:         5 records"), "{report}");
        assert!(report.contains("recovered state:  1 objects, 5 fixes"), "{report}");
        assert!(report.contains("health:           clean"), "{report}");
        assert!(report.contains("snapshotted:      1 objects, log truncated"), "{report}");
        // The --snapshot pass moved the fixes into the snapshot: a second
        // recovery replays nothing.
        let report = run(&Command::StoreRecover { dir: dir.clone(), snapshot: false }).unwrap();
        assert!(report.contains("replayed:         0 records"), "{report}");
        assert!(report.contains("snapshot:         1 objects, 5 fixes"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_store_recover_rejects_missing_dir() {
        let err = run(&Command::StoreRecover {
            dir: PathBuf::from("/no/such/store"),
            snapshot: false,
        })
        .unwrap_err();
        assert!(err.contains("/no/such/store"));
    }

    #[test]
    fn run_surfaces_io_errors() {
        let err = run(&Command::Info { file: PathBuf::from("/no/such/file.csv") }).unwrap_err();
        assert!(err.contains("file.csv"));
    }

    #[test]
    fn parse_serve_defaults() {
        let Command::Serve(a) = parse(&args("serve db")).unwrap() else {
            panic!("expected serve") // lint: allow(panic) test assertion
        };
        assert_eq!(a.dir, PathBuf::from("db"));
        assert_eq!(a.shards, 2);
        assert_eq!(a.codec, CodecSpec::OpCone { eps: 30.0 });
        assert_eq!(a.max_batch, 256);
        assert_eq!(a.queue_cap, 4096);
        assert!(a.metrics_out.is_none() && a.trace_out.is_none());
    }

    #[test]
    fn parse_serve_full_flag_surface() {
        let Command::Serve(a) = parse(&args(
            "serve db --shards 4 --algo opw-sp --eps 25 --speed-eps 5 \
             --max-batch 64 --queue-cap 512 \
             --metrics-out m.json --trace-out t.json",
        ))
        .unwrap() else {
            panic!("expected serve") // lint: allow(panic) test assertion
        };
        assert_eq!(a.shards, 4);
        assert_eq!(a.codec, CodecSpec::OpwSp { eps: 25.0, speed_eps: 5.0 });
        assert_eq!((a.max_batch, a.queue_cap), (64, 512));
        assert_eq!(a.metrics_out, Some(PathBuf::from("m.json")));
        assert_eq!(a.trace_out, Some(PathBuf::from("t.json")));
    }

    #[test]
    fn parse_serve_bounds_the_shard_count() {
        // Parsing starts nothing, so the bound is checked here without
        // a store or a thread.
        let err = parse(&args("serve db --shards 257")).expect_err("too many shards");
        assert!(err.contains("--shards") && err.contains("1..=256"), "{err}");
        assert!(parse(&args("serve db --shards 100000")).is_err());
        assert!(parse(&args("serve db --shards 256")).is_ok());
    }

    #[test]
    fn parse_serve_rejects_bad_inputs() {
        assert!(parse(&args("serve")).is_err(), "missing dir");
        assert!(parse(&args("serve db --algo dp")).is_err(), "batch algo in a session");
        assert!(parse(&args("serve db --shards 0")).is_err(), "zero shards");
        assert!(parse(&args("serve db --wat")).is_err(), "unknown flag");
        // The in-binary load generator, its report, the sidecar format
        // flag and the group commit delay bound are gone: their flags
        // are unknown, not silently ignored.
        for flag in [
            "--load-gen",
            "--sync every-append",
            "--movers 9",
            "--fixes 7",
            "--rate 100",
            "--seed 7",
            "--threads 2",
            "--report-json r.json",
            "--metrics-format csv",
            "--max-delay-us 200",
        ] {
            let err = parse(&args(&format!("serve db {flag}"))).unwrap_err();
            let name = flag.split(' ').next().unwrap_or_default();
            assert!(err.contains("unknown flag") && err.contains(name), "{flag}: {err}");
        }
    }

    fn serve_args(dir: &Path) -> ServeArgs {
        ServeArgs {
            dir: dir.to_path_buf(),
            shards: 2,
            codec: CodecSpec::OpCone { eps: 30.0 },
            max_batch: 64,
            queue_cap: 4096,
            metrics_out: None,
            trace_out: None,
        }
    }

    /// `movers` movers × `fixes` fixes as `id,t,x,y`, interleaved by
    /// time like a live fleet, under a header.
    fn fleet_records(movers: u64, fixes: u64) -> String {
        let mut out = String::from("id,t,x,y\n");
        for k in 0..fixes {
            for m in 0..movers {
                let t = k as f64 * 10.0;
                let _ = writeln!(out, "{m},{t},{},{}", t * 3.0 + m as f64, m as f64 * 50.0);
            }
        }
        out
    }

    #[test]
    fn run_serve_stops_at_a_malformed_record() {
        let dir = std::env::temp_dir().join("trajc_cli_serve_bad_record_test");
        std::fs::remove_dir_all(&dir).ok();
        let a = ServeArgs { codec: CodecSpec::Raw, ..serve_args(&dir) };
        let input = "1,0,0,0\n2,0,0,0\n3,0,oops,0\n1,10,5,5\n";
        let err = serve(&a, &mut input.as_bytes()).unwrap_err();
        assert!(err.contains("line 3") && err.contains("oops"), "{err}");
        assert!(err.contains("2 records before it"), "{err}");
        // The service still shut down cleanly: the two records before
        // the bad line are durable, and nothing after it went in.
        let mut replayed = 0;
        for k in 0..2 {
            let dir = dir.join(format!("shard-{k}"));
            let (store, r) =
                DurableStore::open(&dir, IngestMode::Raw, DurableOptions::default()).unwrap();
            assert!(r.clean(), "{r:?}");
            replayed += r.replayed;
            if let Some(f) = store.store().latest(1) {
                assert!(f.t.as_secs() < 10.0, "the record after the bad line went in");
            }
        }
        assert_eq!(replayed, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_serve_rejects_overlong_lines_and_invalid_utf8() {
        let dir = std::env::temp_dir().join("trajc_cli_serve_bad_bytes_test");
        std::fs::remove_dir_all(&dir).ok();
        let a = serve_args(&dir);
        let long = format!("1,0,0,0\n7,{}\n", "1".repeat(MAX_LINE));
        let err = serve(&a, &mut long.as_bytes()).unwrap_err();
        assert!(err.contains("line 2") && err.contains("longer than 4096"), "{err}");
        assert!(err.contains("1 records before it"), "{err}");
        let err = serve(&a, &mut &b"1,0,0,0\n2,0,\xff,0\n"[..]).unwrap_err();
        assert!(err.contains("line 2") && err.contains("invalid UTF-8"), "{err}");
        // A line of exactly the limit is fine (it fails as a record, not
        // as a long line), and so is a last line without a newline.
        let exact = format!("9,{}", "1".repeat(MAX_LINE - 2));
        let err = serve(&a, &mut exact.as_bytes()).unwrap_err();
        assert!(err.contains("missing field"), "{err}");
        let report = serve(&a, &mut "5,0,0,0\n5,1,1,1".as_bytes()).unwrap();
        assert!(report.contains("records:          2 read"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_serve_smoke_reports_and_recovers() {
        let dir = std::env::temp_dir().join("trajc_cli_serve_smoke_test");
        std::fs::remove_dir_all(&dir).ok();
        let metrics = dir.join("metrics.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let mut a = serve_args(&dir.join("db"));
        a.metrics_out = Some(metrics.clone());
        let input = fleet_records(40, 6);
        let report = serve(&a, &mut input.as_bytes()).unwrap();
        assert!(report.contains("records:          240 read from stdin (0 invalid)"), "{report}");
        assert!(report.contains("acked:            240 fixes"), "{report}");
        assert!(report.contains("shards:           2 (40 sessions)"), "{report}");
        assert!(report.contains("ack latency:      p50"), "{report}");
        let logged = report
            .lines()
            .find_map(|l| l.strip_prefix("wal reduction:    "))
            .and_then(|l| l.split(' ').next())
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap();
        assert!(logged > 0 && logged < 240, "codec must shrink the WAL: {logged}");
        let wal_bytes = report
            .lines()
            .find_map(|l| l.strip_prefix("durability:       "))
            .and_then(|l| l.split(" · ").nth(2))
            .and_then(|l| l.strip_suffix(" WAL bytes"))
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap();
        assert!(wal_bytes > 0, "real files on disk: {report}");
        assert!(report.contains("codec:            OpCone { eps: 30.0 }"), "{report}");
        let sidecar = std::fs::read_to_string(&metrics).expect("metrics sidecar written");
        if cfg!(feature = "obs") {
            assert!(sidecar.contains("serve"), "{sidecar}");
        }
        // Every shard directory is a plain DurableStore: the existing
        // recovery tool must accept it as-is.
        let shard0 = dir.join("db").join("shard-0");
        let rec = run(&Command::StoreRecover { dir: shard0, snapshot: false }).unwrap();
        assert!(rec.contains("health:           clean"), "{rec}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

