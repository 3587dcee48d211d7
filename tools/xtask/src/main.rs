//! `cargo xtask` — workspace task runner: `lint`, `reach` and `lines`.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{fix_allowlist, lines, load_config, reach, run};

const USAGE: &str = "\
usage: cargo xtask lint  [--fix-allowlist] [--root <path>]
       cargo xtask reach [--format text|json] [--all] [--root <path>]
       cargo xtask lines [--root <path>]

lint   runs the workspace static-analysis gate (float_eq, panic,
       safety, ordering, time_cast) and reconciles findings against
       tools/xtask/lint.toml.
reach  builds the workspace call graph and proves the [contracts]
       roots in lint.toml panic-free and allocation-free, printing
       the shortest offending call chain for each violation.
lines  prints non-blank Rust lines per crate, split into non-test
       and test code, with totals.
See tools/xtask/README.md.

options:
    --fix-allowlist   regenerate lint.toml from current findings
                      (budgets only ratchet down, never up; entries
                      for deleted files are pruned)
    --format <fmt>    reach output: text (default) or json
    --all             reach: list every workspace function's verdict
    --root <path>     workspace root (default: auto-detected)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fix = false;
    let mut all = false;
    let mut format = String::from("text");
    let mut root: Option<PathBuf> = None;
    let mut cmd: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fix-allowlist" => fix = true,
            "--all" => all = true,
            "--format" => match it.next() {
                Some(f) if f == "text" || f == "json" => format = f,
                Some(f) => return usage_error(&format!("unknown format `{f}`")),
                None => return usage_error("--format needs text or json"),
            },
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root needs a path"),
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if cmd.is_none() && !other.starts_with('-') => cmd = Some(other.to_string()),
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    // `cargo xtask …` runs from the workspace root; fall back to the
    // manifest's grandparent when invoked directly.
    let root = root.unwrap_or_else(|| {
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        here.parent().and_then(|p| p.parent()).map(PathBuf::from).unwrap_or(here)
    });

    let result = match cmd.as_deref() {
        Some("lint") => lint(&root, fix),
        Some("reach") => run_reach(&root, &format, all),
        Some("lines") => lines::count(&root).map(|counts| {
            print!("{}", lines::render(&counts));
            ExitCode::SUCCESS
        }),
        Some(other) => return usage_error(&format!("unknown task `{other}`")),
        None => return usage_error("no task given"),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_reach(root: &std::path::Path, format: &str, all: bool) -> Result<ExitCode, String> {
    let file = load_config(root)?;
    let analysis = reach::analyze(root, &file)?;
    if format == "json" {
        println!("{}", reach::render_json(&analysis));
    } else {
        print!("{}", reach::render_text(&analysis, all));
    }
    Ok(if analysis.report.is_clean() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn lint(root: &std::path::Path, fix: bool) -> Result<ExitCode, String> {
    let file = load_config(root)?;
    let outcome = run(root, &file)?;

    if fix {
        fix_allowlist(root, &file, &outcome.violations)?;
        println!(
            "lint.toml regenerated: {} finding(s) across {} file(s) grandfathered",
            outcome.violations.len(),
            outcome.files
        );
        return Ok(ExitCode::SUCCESS);
    }

    let report = &outcome.report;
    for v in &report.new {
        println!("{}:{}: [{}] {}", v.path, v.line, v.lint.name(), v.excerpt);
        if let Some(note) = &v.note {
            println!("    note: {note}");
        }
    }
    for p in &report.problems {
        println!("allowlist: {p}");
    }
    if report.is_clean() {
        println!(
            "lint clean: {} file(s) scanned, {} grandfathered finding(s) within budget",
            outcome.files,
            outcome.violations.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "lint failed: {} new violation(s), {} allowlist problem(s)",
            report.new.len(),
            report.problems.len()
        );
        Ok(ExitCode::FAILURE)
    }
}
