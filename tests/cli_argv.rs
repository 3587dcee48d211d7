//! Byte-soup property test for the `trajc` argument parser.
//!
//! Argument vectors are drawn from the real subcommand and flag
//! vocabulary, values at the edges of every numeric flag (overflow,
//! negatives, NaN, infinities, the empty string) and arbitrary strings.
//! `trajc::cli::parse` must return for every one of them, never panic;
//! nothing is run, so no file is touched.

use proptest::prelude::*;
use trajc::cli::{parse, Command};

/// Each subcommand's words, its positional argument count and its
/// flags; `serve` also carries the removed group commit delay bound.
const SURFACES: &[(&str, usize, &[&str])] = &[
    ("info", 1, &[]),
    (
        "compress",
        1,
        &["--algo", "--eps", "--speed-eps", "-o", "--out", "--stats", "--metrics-out", "--trace-out"],
    ),
    ("evaluate", 2, &[]),
    ("generate", 0, &["--seed", "--trip", "-o", "--out"]),
    ("obs merge", 1, &["-o", "--out"]),
    ("store recover", 1, &["--snapshot"]),
    (
        "serve",
        1,
        &[
            "--shards",
            "--algo",
            "--eps",
            "--speed-eps",
            "--max-batch",
            "--queue-cap",
            "--metrics-out",
            "--trace-out",
            "--max-delay-us",
        ],
    ),
];

/// Words that are no flag of the chosen subcommand.
const STRAYS: &[&str] =
    &["--help", "-h", "info", "serve", "merge", "recover", "--seed", "--snapshot", "--stats"];

/// Values: algorithm names, paths and numbers at the extremes.
const VALUES: &[&str] = &[
    "raw",
    "op-cone",
    "op-fit",
    "opw-tr",
    "opw-sp",
    "td-tr",
    "ndp",
    "dp",
    "db",
    "trip.csv",
    "m.json",
    "t.folded",
    "0",
    "1",
    "9",
    "10",
    "256",
    "257",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "-0",
    "1e309",
    "nan",
    "NaN",
    "inf",
    "-inf",
    "",
];

fn pick(list: &[&str], i: usize) -> String {
    list[i % list.len()].to_string()
}

proptest! {
    // `parse` takes microseconds, so tier-1 runs at least 512 cases.
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(512)))]

    /// A subcommand, its positionals, then its own flags with values,
    /// stray words, bare values and arbitrary strings: `parse` returns
    /// `Ok` or `Err`, never panics, and an accepted command respects
    /// the bounds the parser promises to check.
    #[test]
    fn cli_argv_parse_never_panics(
        surface in 0usize..8,
        positionals in proptest::collection::vec((0usize..64, "\\PC{0,8}"), 2),
        tokens in proptest::collection::vec((0u8..8, 0usize..64, 0usize..64, "\\PC{0,8}"), 0..8),
    ) {
        let mut argv: Vec<String> = Vec::new();
        let flags: &[&str] = match SURFACES.get(surface) {
            Some(&(words, n, flags)) => {
                argv.extend(words.split(' ').map(String::from));
                for (v, text) in positionals.into_iter().take(n) {
                    argv.push(if v < VALUES.len() { pick(VALUES, v) } else { text });
                }
                flags
            }
            None => {
                argv.extend(positionals.into_iter().map(|(_, text)| text));
                STRAYS
            }
        };
        for (kind, a, b, text) in tokens {
            match kind {
                0..=4 if !flags.is_empty() => {
                    argv.push(pick(flags, a));
                    argv.push(pick(VALUES, b));
                }
                5 => argv.push(pick(STRAYS, a)),
                6 => argv.push(pick(VALUES, b)),
                _ => argv.push(text),
            }
        }
        match parse(&argv) {
            Ok(Command::Serve(s)) => {
                prop_assert!((1..=256).contains(&s.shards), "{argv:?}: {} shards", s.shards);
            }
            Ok(Command::Generate { trip, .. }) => prop_assert!(trip <= 9, "{argv:?}"),
            Ok(_) => {}
            Err(msg) => prop_assert!(!msg.is_empty(), "{argv:?}: empty error"),
        }
    }
}
