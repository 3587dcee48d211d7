//! Workspace-native static analysis: the engine behind `cargo xtask
//! lint`.
//!
//! Four textual lints guard the invariants the SED/α(p, a) error
//! calculus and the durability layer rely on — NaN-safe float
//! comparison, panic-free library paths, justified `unsafe`/atomic
//! orderings, and checked timestamp conversions. Findings reconcile
//! against a ratcheting allowlist in `tools/xtask/lint.toml`; see
//! `tools/xtask/README.md` for the catalog.

pub mod allowlist;
pub mod callgraph;
pub mod lines;
pub mod lints;
pub mod reach;
pub mod scan;
pub mod walk;

use std::fs;
use std::path::Path;

use allowlist::{parse, reconcile, regenerate, LintFile, Report};
use lints::{check_file, Violation};

/// Where the gate's configuration lives, relative to the repo root.
pub const LINT_TOML: &str = "tools/xtask/lint.toml";

/// Outcome of a full lint run.
pub struct Outcome {
    /// Every finding, allowlisted or not.
    pub violations: Vec<Violation>,
    /// Reconciliation against the allowlist.
    pub report: Report,
    /// Number of files scanned.
    pub files: usize,
}

/// Loads `lint.toml` from `root`.
pub fn load_config(root: &Path) -> Result<LintFile, String> {
    let path = root.join(LINT_TOML);
    let text = fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text)
}

/// Lints every Rust file in the workspace and reconciles against the
/// allowlist.
pub fn run(root: &Path, file: &LintFile) -> Result<Outcome, String> {
    let paths = walk::rust_files(root, &file.config.exclude)?;
    let mut violations = Vec::new();
    for rel in &paths {
        let abs = root.join(rel);
        let source = fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        violations.extend(check_file(rel, &source, &file.config));
    }
    violations.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    let report = reconcile(file, &violations);
    Ok(Outcome { violations, report, files: paths.len() })
}

/// `--fix-allowlist`: rewrites `lint.toml` from current findings,
/// ratcheting budgets down. Entries (and config path references) for
/// files that no longer exist are pruned first, so deleted code cannot
/// leave debt behind. Fails if any budget would need to grow.
pub fn fix_allowlist(root: &Path, file: &LintFile, violations: &[Violation]) -> Result<(), String> {
    let mut file = file.clone();
    let pruned = allowlist::prune_missing(&mut file, &|rel| root.join(rel).exists());
    for p in &pruned {
        println!("pruned: {p}");
    }
    // Re-run the reachability analysis so [[contract_allow]] counts
    // ratchet alongside the lint allowlist.
    let contract_actual = if file.contracts.roots.is_empty() {
        std::collections::BTreeMap::new()
    } else {
        let analysis = reach::analyze(root, &file)?;
        reach::group_findings(&analysis.findings)
    };
    let text = regenerate(&file, violations, &contract_actual)?;
    let path = root.join(LINT_TOML);
    fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
