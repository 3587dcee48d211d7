//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload paper_grid|long_track|fleet_ingest --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! Builds the workload's inputs from the seed, sets up (several times,
//! reporting the median), measures for `S` seconds, checks every output,
//! and prints the metrics as a table, a detail line (host, digest,
//! information-only figures) and, last, one JSON result line. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` is the separate traced run
//! that prints the per-layer metrics and writes a Chrome-JSON trace
//! (loadable in Perfetto) to `.perfbench/trace-<workload>-<seed>.json`.
//! Run it from the repository root; `BENCHMARK.json` lists the metrics
//! and why each workload exists, `perfbench/README.md` how they map onto
//! each other.

mod batch;
mod fleet_ingest;
mod host;
mod long_track;
mod metrics;
mod paper_grid;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use traj_obs::trace::Trace;

use metrics::{json_num, push_json_str, result_line, Metrics, END_TO_END, INFO, PER_LAYER};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["paper_grid", "long_track", "fleet_ingest"];

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured duration, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Units the timed phase runs at least, however long they take: 100
    /// untraced units make p90 a tail with ten samples beyond it.
    pub min_units: usize,
    /// Set-up repetitions; the median is reported.
    pub setup_reps: usize,
    /// Scratch and trace output directory.
    pub out_dir: PathBuf,
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: units, or offered fixes.
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
    /// Descriptions of the failures (the first few).
    pub failures: Vec<String>,
    /// Digest of the workload's outputs.
    pub digest: u64,
    /// Every metric the run measured.
    pub metrics: Metrics,
    /// Information-only fields for the detail line.
    pub info: Vec<(&'static str, String)>,
    /// The trace to write, for a traced run.
    pub trace: Option<Trace>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        min_units: 100,
        setup_reps: 5,
        out_dir: PathBuf::from(".perfbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(opts)
}

/// Runs one workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "paper_grid" => paper_grid::run(opts),
        "long_track" => long_track::run(opts),
        _ => fleet_ingest::run(opts),
    }
}

fn detail_line(opts: &Opts, out: &Outcome, calib_ms: f64, not_on_path: &[&str]) -> String {
    let mut s = String::from("{\"perfbench\": {");
    let field = |s: &mut String, key: &str, raw: String| {
        if !s.ends_with('{') {
            s.push_str(", ");
        }
        push_json_str(s, key);
        s.push_str(": ");
        s.push_str(&raw);
    };
    let quoted = |v: &str| {
        let mut q = String::new();
        push_json_str(&mut q, v);
        q
    };
    field(&mut s, "workload", quoted(&opts.workload));
    field(&mut s, "seed", opts.seed.to_string());
    field(
        &mut s,
        "seconds",
        json_num(opts.seconds).unwrap_or_default(),
    );
    field(&mut s, "trace", u8::from(opts.trace).to_string());
    field(&mut s, "commit", quoted(&host::commit()));
    field(&mut s, "nproc", host::nproc().to_string());
    field(
        &mut s,
        "host.calib_ms",
        json_num(calib_ms).unwrap_or_default(),
    );
    field(&mut s, "digest", quoted(&format!("{:016x}", out.digest)));
    for d in INFO {
        if let Some(v) = out.metrics.get(d.name).and_then(|v| json_num(*v)) {
            field(&mut s, d.name, v);
        }
    }
    for (k, v) in &out.info {
        let raw = match v.parse::<f64>() {
            Ok(n) if n.is_finite() => v.clone(),
            _ => quoted(v),
        };
        field(&mut s, k, raw);
    }
    let list: Vec<String> = not_on_path.iter().map(|n| quoted(n)).collect();
    field(&mut s, "not_on_path", format!("[{}]", list.join(", ")));
    let fails: Vec<String> = out.failures.iter().map(|f| quoted(f)).collect();
    field(&mut s, "failures", format!("[{}]", fails.join(", ")));
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let calib_ms = host::calib_ms();
    let mut out = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    // A layer this workload never calls reads 0; the detail line names them.
    let mut not_on_path = Vec::new();
    if opts.trace {
        out.metrics.insert("host.calib_ms".into(), calib_ms);
        for d in PER_LAYER {
            if !out.metrics.contains_key(d.name) {
                out.metrics.insert(d.name.into(), 0.0);
                not_on_path.push(d.name);
            }
        }
        if let Some(trace) = &out.trace {
            let path = opts
                .out_dir
                .join(format!("trace-{}-{}.json", opts.workload, opts.seed));
            match spans::write_chrome_json(trace, &path) {
                Ok(()) => eprintln!("perfbench: trace → {}", path.display()),
                Err(e) => eprintln!("perfbench: trace not written: {e}"),
            }
        }
    }
    for d in defs {
        if let Some(v) = out.metrics.get(d.name) {
            println!(
                "{:<28} {:>16.6} {:<6} ({} is better)",
                d.name, v, d.unit, d.better
            );
        }
    }
    if !opts.trace {
        for d in INFO {
            if let Some(v) = out.metrics.get(d.name) {
                println!("{:<28} {:>16.6} {:<6} (information)", d.name, v, d.unit);
            }
        }
    }
    println!("{}", detail_line(&opts, &out, calib_ms, &not_on_path));
    let correct = out.failed == 0 && out.failures.is_empty();
    match result_line(correct, out.attempted, out.failed, defs, &out.metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, seed: u64, trace: bool) -> Opts {
        Opts {
            workload: workload.to_string(),
            seed,
            seconds: 0.0,
            trace,
            min_units: 2,
            setup_reps: 1,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.perfbench/test")),
        }
    }

    #[test]
    fn seeds_change_the_inputs() {
        let first =
            |ts: Vec<traj_model::Trajectory>| ts.iter().map(|t| *t.last()).collect::<Vec<_>>();
        assert_ne!(first(paper_grid::inputs(1)), first(paper_grid::inputs(2)));
        let long = |seed| long_track::inputs(seed).expect("traces generate");
        assert_ne!(first(long(1)), first(long(2)));
        assert_ne!(
            fleet_ingest::fleet(1).fix_for(7, 0),
            fleet_ingest::fleet(2).fix_for(7, 0)
        );
        // …and the same seed, the same inputs.
        assert_eq!(first(long(3)), first(long(3)));
    }

    /// One test, so runs never overlap: the metric registry and the trace
    /// session are process-wide.
    #[test]
    fn two_seeds_give_different_outputs_but_the_same_metric_set() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let a = run(&quick(workload, 1, trace)).expect("seed 1 runs");
                let b = run(&quick(workload, 2, trace)).expect("seed 2 runs");
                assert!(a.attempted >= 1 && b.attempted >= 1);
                // Whether the ingest rate fits depends on what else the
                // machine runs (these tests run in parallel); the benchmark
                // run itself fails on any rejected fix.
                if workload != "fleet_ingest" {
                    assert!(a.failures.is_empty(), "{workload}: {:?}", a.failures);
                    assert!(b.failures.is_empty(), "{workload}: {:?}", b.failures);
                }
                assert_ne!(
                    a.digest, b.digest,
                    "{workload}: seeds gave the same outputs"
                );
                let names = |o: &Outcome| o.metrics.keys().cloned().collect::<Vec<_>>();
                assert_eq!(names(&a), names(&b), "{workload} trace={trace}");
                let defs = if trace { PER_LAYER } else { END_TO_END };
                if !trace {
                    for d in defs {
                        assert!(a.metrics.contains_key(d.name), "{workload}: no {}", d.name);
                    }
                }
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload long_track --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload paper_grid --trace 2")).is_err());
        assert!(parse_args(&args("--workload paper_grid --seed")).is_err());
        assert!(parse_args(&args("--workload paper_grid --bogus 1")).is_err());
    }
}
