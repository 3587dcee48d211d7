//! Byte-soup property test for the `trajc` argument parser.
//!
//! Argument vectors are drawn from the real subcommand and flag
//! vocabulary — read off `trajc::cli::SUBCOMMANDS`, the table the parser
//! itself reads, `repro` included — values at the edges of every numeric
//! flag (overflow, negatives, NaN, infinities, the empty string), removed
//! flags and arbitrary strings. `trajc::cli::parse` must return for every
//! one of them, never panic; nothing is run, so no file is touched.

use proptest::prelude::*;
use trajc::cli::{parse, Command, SUBCOMMANDS};

/// Flags that no subcommand has any more: `serve`'s in-binary load
/// generator and its report, the sidecar format flag and the group
/// commit delay bound. Each must be refused wherever it stands as a flag.
const REMOVED: &[&str] = &[
    "--load-gen",
    "--sync",
    "--movers",
    "--fixes",
    "--rate",
    "--report-json",
    "--metrics-format",
    "--max-delay-us",
];

/// Words that are no flag of the chosen subcommand, or stand where a
/// subcommand does not expect them.
const STRAYS: &[&str] = &[
    "--help", "-h", "info", "serve", "merge", "recover", "repro", "--seed", "--snapshot",
    "--stats", "--fast", "--threads", "--csv",
];

/// Values: algorithm names, experiments, paths and numbers at the
/// extremes.
const VALUES: &[&str] = &[
    "raw",
    "op-cone",
    "op-fit",
    "opw-tr",
    "opw-sp",
    "td-tr",
    "ndp",
    "dp",
    "all",
    "check",
    "fig7",
    "onepass",
    "ext",
    "fig99",
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

    /// A subcommand, its positionals, then its own flags (with a value
    /// when the table says it takes one), removed flags, stray words,
    /// bare values and arbitrary strings: `parse` returns `Ok` or `Err`,
    /// never panics; an accepted command respects the bounds the parser
    /// promises to check, and a removed flag standing as a flag is
    /// refused.
    #[test]
    fn cli_argv_parse_never_panics(
        surface in 0..=SUBCOMMANDS.len(),
        positionals in proptest::collection::vec((0usize..64, "\\PC{0,8}"), 2),
        tokens in proptest::collection::vec((0u8..9, 0usize..64, 0usize..64, "\\PC{0,8}"), 0..8),
    ) {
        let mut argv: Vec<String> = Vec::new();
        let sub = SUBCOMMANDS.get(surface);
        match sub {
            Some(sub) => {
                argv.extend(sub.words.split(' ').map(String::from));
                for (v, text) in positionals.into_iter().take(sub.arity.1.min(2)) {
                    argv.push(if v < VALUES.len() { pick(VALUES, v) } else { text });
                }
            }
            None => argv.extend(positionals.into_iter().map(|(_, text)| text)),
        }
        let flags = sub.map_or(&[][..], |s| s.flags);
        // Whether `word` is a flag of this subcommand that takes a value
        // (so that a word after it may be its value).
        let takes_value =
            |word: &str| flags.iter().any(|f| f.value.is_some() && f.names.contains(&word));
        let mut removed_as_flag = false;
        for (kind, a, b, text) in tokens {
            match kind {
                0..=3 if !flags.is_empty() => {
                    let flag = &flags[a % flags.len()];
                    argv.push(pick(flag.names, b));
                    if flag.value.is_some() {
                        argv.push(pick(VALUES, b));
                    }
                }
                4 => {
                    let last = argv.last().map_or("", String::as_str);
                    removed_as_flag |= !takes_value(last);
                    argv.push(pick(REMOVED, a));
                }
                5 => argv.push(pick(STRAYS, a)),
                6 => argv.push(pick(VALUES, b)),
                _ => argv.push(text),
            }
        }
        match parse(&argv) {
            Ok(_) if removed_as_flag => prop_assert!(false, "{argv:?}: removed flag accepted"),
            Ok(Command::Serve(s)) => {
                prop_assert!((1..=256).contains(&s.shards), "{argv:?}: {} shards", s.shards);
            }
            Ok(Command::Generate { trip, .. }) => prop_assert!(trip <= 9, "{argv:?}"),
            Ok(Command::Repro(r)) => {
                let paper = r.experiment == "check" || r.experiment == "all";
                prop_assert!(!(r.fast && paper), "{argv:?}: --fast with {}", r.experiment);
            }
            Ok(_) => {}
            Err(msg) => prop_assert!(!msg.is_empty(), "{argv:?}: empty error"),
        }
    }
}

/// The removed flags are no flag of any subcommand, so the fuzz's
/// refusal check holds on the table it reads.
#[test]
fn removed_flags_are_in_no_subcommand() {
    for sub in SUBCOMMANDS {
        for flag in sub.flags {
            for name in flag.names {
                assert!(!REMOVED.contains(name), "{} has {name}", sub.words);
            }
        }
    }
}
