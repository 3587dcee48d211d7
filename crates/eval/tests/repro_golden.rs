//! Pins `repro`'s printed output byte for byte: `repro all` (Table 2,
//! Figures 7–11, the one-pass figure and the paper-shape check) and
//! `repro ext` (the §5 extension experiments), both at the default
//! seed 42, against the files under `tests/golden/`. A change to the
//! sweep, evaluation or report path must keep every byte; a change that
//! means to move a printed figure updates the golden file with it. The
//! output carries no timings and the `generating dataset` progress line
//! goes to stderr, so stdout is the same with and without the `obs`
//! feature.

use std::process::Command;

fn assert_stdout_matches(args: &[&str], golden: &str) {
    let arg = args.join(" ");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro must run");
    assert!(
        output.status.success(),
        "repro {arg} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    if stdout != golden {
        let first = stdout
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| stdout.lines().count().min(golden.lines().count()));
        panic!(
            "repro {arg} stdout differs from its golden file at line {}:\n  got:    {:?}\n  golden: {:?}",
            first + 1,
            stdout.lines().nth(first),
            golden.lines().nth(first)
        );
    }
}

#[test]
fn repro_all_stdout_is_golden() {
    assert_stdout_matches(&["all"], include_str!("golden/repro_all.txt"));
}

/// Two workers each sweep a stripe of every figure, all its algorithms
/// through one memo per trajectory; the output must not change a byte.
#[test]
fn repro_all_on_two_workers_stdout_is_golden() {
    assert_stdout_matches(&["all", "--threads", "2"], include_str!("golden/repro_all.txt"));
}

#[test]
fn repro_ext_stdout_is_golden() {
    assert_stdout_matches(&["ext"], include_str!("golden/repro_ext.txt"));
}
