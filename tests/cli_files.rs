//! Hostile-file property test for the `trajc` file commands.
//!
//! Each case writes a 0–9-fix `t,x,y` file whose coordinates come from a
//! palette of extreme finite values and whose time gaps run from the
//! smallest subnormal to 1e300 s, then drives `trajc::cli::run` as the
//! binary would: `info`, `evaluate` of the file against itself, and
//! `compress` with every catalog algorithm, each followed by `evaluate`
//! against the file it wrote. Every command must return `Ok` or `Err`,
//! never panic. The thresholds are the finite, non-negative values that
//! `parse` lets through.

use std::path::PathBuf;

use proptest::prelude::*;
use trajc::cli::{run, Command};
use trajc::eval::algorithm_catalog;

/// Coordinates and start times: finite, at the edges of `f64`.
const VALUES: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    -1.0,
    1e308,
    -1e308,
    f64::MAX,
    -f64::MAX,
    5e-324,
    -5e-324,
    1e15,
    -1e15,
    1e-300,
    123.456,
];

/// Time gaps between consecutive fixes, seconds.
const GAPS: &[f64] = &[5e-324, 1e-300, 1e-9, 1.0, 10.0, 1e9, 1e300];

/// `--eps` / `--speed-eps` values `parse` accepts.
const THRESHOLDS: &[f64] = &[0.0, 5e-324, 1.0, 5.0, 30.0, 1e15, 1e308, f64::MAX];

/// The scratch directory of this test process, removed at the end of
/// each passing case.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trajc_cli_files_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `cmd` on a file holding `csv` and says whether it succeeded; a
/// panic fails the case and names both.
fn run_guarded(cmd: &Command, csv: &str) -> Result<bool, TestCaseError> {
    std::panic::catch_unwind(|| run(cmd).is_ok())
        .map_err(|_| TestCaseError::fail(format!("{cmd:?} panicked on the file\n{csv}")))
}

proptest! {
    /// The file commands return `Ok` or `Err` on hostile files, never
    /// panic, and `evaluate` accepts or refuses what `compress` wrote.
    #[test]
    fn file_commands_never_panic_on_hostile_files(
        t0 in 0usize..VALUES.len(),
        fixes in proptest::collection::vec(
            (0usize..GAPS.len(), 0usize..VALUES.len(), 0usize..VALUES.len()),
            0..10,
        ),
        eps in 0usize..THRESHOLDS.len(),
        speed in 0usize..THRESHOLDS.len(),
    ) {
        let dir = scratch();
        let (file, out) = (dir.join("hostile.csv"), dir.join("out.csv"));
        let mut csv = String::from("t,x,y\n");
        let mut t = VALUES[t0];
        for (k, &(gap, x, y)) in fixes.iter().enumerate() {
            if k > 0 {
                t += GAPS[gap];
            }
            csv.push_str(&format!("{t:e},{:e},{:e}\n", VALUES[x], VALUES[y]));
        }
        std::fs::write(&file, &csv).expect("write hostile file");
        run_guarded(&Command::Info { file: file.clone() }, &csv)?;
        run_guarded(&Command::Evaluate { original: file.clone(), approx: file.clone() }, &csv)?;
        for meta in algorithm_catalog() {
            std::fs::remove_file(&out).ok();
            let compress = Command::Compress {
                file: file.clone(),
                algo: meta.cli_name.to_string(),
                eps: THRESHOLDS[eps],
                speed_eps: Some(THRESHOLDS[speed]),
                out: Some(out.clone()),
                stats: false,
                metrics_out: None,
                trace_out: None,
            };
            if run_guarded(&compress, &csv)? {
                let evaluate = Command::Evaluate { original: file.clone(), approx: out.clone() };
                run_guarded(&evaluate, &csv)?;
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
