//! Hostile stdin for `trajc serve`.
//!
//! Each case parses a `serve` command line (all five session codecs,
//! ε of 0, 5, 30 and 1e300, one or two shards, batch and queue bounds
//! down to 1) and feeds byte soup to `trajc::cli::serve`, the function
//! the binary runs on stdin, through a reader instead. The soup mixes
//! records with values at the edges of `f64` (±1e308, 1e300, the
//! smallest subnormal, NaN, infinities), stale and repeated times, CRLF
//! endings, blank and comment lines, and at most one bad line: longer
//! than [`MAX_LINE`], invalid UTF-8, a NUL byte, a field too few or too
//! many, or a field that does not parse. Every run must return, never
//! panic; a bad line must be an `Err` naming its line and the records
//! before it; a clean run must print `acked + invalid` equal to the
//! records it read.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use proptest::prelude::*;
use trajc::cli::{parse, serve, Command, MAX_LINE};

const CODECS: &[&str] = &["raw", "op-cone", "op-fit", "opw-tr", "opw-sp"];
const EPS: &[&str] = &["0", "5", "30", "1e300"];
const BOUNDS: &[&str] = &["1", "4", "256"];
const IDS: &[&str] = &["0", "1", "2", "7", "18446744073709551615"];
const VALUES: &[&str] = &[
    "0", "1", "-1", "-0", "10", "1e15", "1e300", "1e308", "-1e308", "5e-324", "nan", "inf", "-inf",
    " 3 ",
];

fn pick<'a>(list: &[&'a str], i: usize) -> &'a str {
    list[i % list.len()]
}

/// A bad line of kind `kind`; an over-long one is `n` bytes past the cap.
fn bad_line(kind: u8, n: usize) -> Vec<u8> {
    match kind {
        0 => format!("1,{}\n", "7".repeat(MAX_LINE + n)).into_bytes(),
        1 => b"1,0,\xff,0\n".to_vec(),
        2 => b"1,0\0,0,0\n".to_vec(),
        3 => b"1,0,0\n".to_vec(),
        4 => b"1,0,0,0,0\n".to_vec(),
        5 => b"-1,0,0,0\r\n".to_vec(),
        _ => b"1,0,1e,0\n".to_vec(),
    }
}

/// The root of this test process, emptied at the start of each case and
/// removed at the end of each passing one.
fn fresh_root() -> PathBuf {
    let root = std::env::temp_dir().join(format!("trajc_cli_serve_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

/// The number after `prefix` on the report line that starts with it.
fn count(report: &str, prefix: &str) -> Option<u64> {
    let rest = report.lines().find_map(|l| l.strip_prefix(prefix))?;
    rest.split(' ').next()?.parse().ok()
}

proptest! {
    #[test]
    fn serve_on_hostile_stdin_returns_and_names_a_bad_line(
        config in (0usize..5, 0usize..4, 1usize..=2, 0usize..3, 0usize..3),
        header in proptest::bool::ANY,
        lines in proptest::collection::vec((0u8..10, 0usize..64, 0usize..64, 0usize..64), 0..40),
        bad in (0u8..14, 0usize..40, 0usize..600),
    ) {
        let (codec, eps, shards, batch, cap) = config;
        // Half the cases hold one bad line, of one of seven kinds.
        let bad = (bad.0 < 7).then_some(bad);
        let root = fresh_root();
        let dir = root.to_str().expect("utf-8 temp path").to_string();
        let argv: Vec<String> = [
            "serve", &dir, "--algo", pick(CODECS, codec), "--eps", pick(EPS, eps),
            "--speed-eps", "5", "--shards", &shards.to_string(),
            "--max-batch", pick(BOUNDS, batch), "--queue-cap", pick(BOUNDS, cap),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let Ok(Command::Serve(args)) = parse(&argv) else {
            return Err(TestCaseError::fail(format!("{argv:?} must parse")));
        };

        let mut input: Vec<u8> = Vec::new();
        let mut line = 0usize;
        let mut records = 0u64;
        // The bad line's number and the records before it.
        let mut expected_err = None;
        if header {
            input.extend_from_slice(b"id,t,x,y\n");
            line += 1;
        }
        for (k, (kind, a, b, c)) in lines.iter().copied().enumerate() {
            if let Some((bad_kind, at, n)) = bad {
                if at == k && expected_err.is_none() {
                    line += 1;
                    input.extend(bad_line(bad_kind, n));
                    expected_err = Some((line, records));
                }
            }
            line += 1;
            let eol = if c % 4 == 0 { "\r\n" } else { "\n" };
            let text = match kind {
                // Rising times per mover, or a time from the edge values.
                0..=6 => {
                    records += 1;
                    let t = if kind < 5 { (k * 10).to_string() } else { pick(VALUES, c).into() };
                    format!("{},{t},{},{}{eol}", pick(IDS, a), pick(VALUES, b), pick(VALUES, c / 3))
                }
                7 => format!("# comment {a}{eol}"),
                8 => eol.to_string(),
                _ => {
                    records += 1;
                    format!("  {} , {} , 0 , 0 {eol}", pick(IDS, a), k * 10 + 5)
                }
            };
            input.extend_from_slice(text.as_bytes());
        }
        if let Some((bad_kind, _, n)) = bad {
            if expected_err.is_none() {
                line += 1;
                input.extend(bad_line(bad_kind, n));
                expected_err = Some((line, records));
            }
        }

        let outcome = catch_unwind(AssertUnwindSafe(|| serve(&args, &mut input.as_slice())))
            .map_err(|_| TestCaseError::fail(format!("{argv:?} panicked")))?;
        match (outcome, expected_err) {
            (Err(e), _) if e.contains("panicked") => {
                return Err(TestCaseError::fail(format!("a shard worker panicked: {e}")));
            }
            (Err(e), Some((at, before))) => {
                prop_assert!(e.contains(&format!("stdin line {at}: ")), "line {at}: {e}");
                prop_assert!(e.contains(&format!("; {before} records before it")), "{before}: {e}");
            }
            (Ok(report), None) => {
                let read = count(&report, "records:          ");
                let invalid = report.lines().find_map(|l| {
                    l.strip_suffix(" invalid)")?.rsplit('(').next()?.parse::<u64>().ok()
                });
                let acked = count(&report, "acked:            ");
                prop_assert_eq!(read, Some(records), "{}", report);
                prop_assert_eq!(acked.zip(invalid).map(|(a, i)| a + i), read, "{}", report);
            }
            (Ok(report), Some((at, _))) => {
                return Err(TestCaseError::fail(format!("bad line {at} accepted:\n{report}")));
            }
            (Err(e), None) => return Err(TestCaseError::fail(format!("clean input failed: {e}"))),
        }
        std::fs::remove_dir_all(&root).ok();
    }
}
