//! `cargo xtask lines`: non-blank Rust lines per workspace crate, split
//! into non-test and test code.
//!
//! Test code is every file under a `tests/` directory plus, in any other
//! file, everything from its first `#[cfg(test)]` line down. Each crate
//! under `crates/`, `tools/xtask` and the root `trajc` package (its
//! `src/`, `tests/` and `examples/`) get one row. `vendor/` and
//! `perfbench/` are left out, and so are the xtask fixtures (see
//! [`walk`]). For a change's delta, run it once more with `--root` at a
//! checkout of the parent commit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::walk;

/// Non-blank line counts of one crate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lines {
    /// Lines outside test code.
    pub code: usize,
    /// Lines of test code.
    pub test: usize,
}

/// Splits one file's non-blank lines into non-test and test code.
fn count_file(rel: &str, source: &str) -> Lines {
    let mut test = rel.split('/').any(|dir| dir == "tests");
    let mut lines = Lines::default();
    for line in source.lines().map(str::trim).filter(|l| !l.is_empty()) {
        test |= line.starts_with("#[cfg(test)]");
        if test {
            lines.test += 1;
        } else {
            lines.code += 1;
        }
    }
    lines
}

/// The row a repo-relative path counts toward: `crates/<name>`,
/// `tools/<name>`, or `trajc` for the root package.
fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next(), parts.next()) {
        (Some(top @ ("crates" | "tools")), Some(name), Some(_)) => format!("{top}/{name}"),
        _ => "trajc".to_string(),
    }
}

/// Counts every crate of the workspace at `root`.
pub fn count(root: &Path) -> Result<BTreeMap<String, Lines>, String> {
    let exclude = ["vendor/".to_string(), "perfbench/".to_string()];
    let mut out: BTreeMap<String, Lines> = BTreeMap::new();
    for rel in walk::rust_files(root, &exclude)? {
        let abs = root.join(&rel);
        let source = fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        let file = count_file(&rel, &source);
        let row = out.entry(crate_of(&rel)).or_default();
        row.code += file.code;
        row.test += file.test;
    }
    Ok(out)
}

/// One row per crate plus a total row.
pub fn render(counts: &BTreeMap<String, Lines>) -> String {
    let mut out = format!("{:<16} {:>9} {:>9}\n", "crate", "non-test", "test");
    let mut total = Lines::default();
    for (name, row) in counts {
        let _ = writeln!(out, "{name:<16} {:>9} {:>9}", row.code, row.test);
        total.code += row.code;
        total.test += row.test;
    }
    let _ = writeln!(out, "{:<16} {:>9} {:>9}", "total", total.code, total.test);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_fixture_workspace_by_crate_and_test_split() {
        let root = std::env::temp_dir().join(format!("xtask-lines-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let files = [
            ("crates/a/src/lib.rs", "fn a() {}\n\n// note\n#[cfg(test)]\nmod tests {\n\n}\n"),
            ("crates/a/tests/it.rs", "#[test]\nfn it() {}\n"),
            ("crates/a/benches/b.rs", "fn main() {}\n"),
            ("tools/xtask/src/main.rs", "fn main() {}\n  \n"),
            ("src/lib.rs", "pub mod x;\n"),
            ("examples/e.rs", "fn main() {}\n"),
            ("tests/smoke.rs", "#[test]\nfn smoke() {}\n"),
            ("vendor/v/src/lib.rs", "fn vendored() {}\n"),
            ("perfbench/src/main.rs", "fn main() {}\n"),
            ("crates/a/target/gen.rs", "fn built() {}\n"),
        ];
        for (rel, body) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            fs::write(path, body).expect("write");
        }
        let counts = count(&root).expect("count");
        let _ = fs::remove_dir_all(&root);
        let rows: Vec<(&str, usize, usize)> =
            counts.iter().map(|(k, v)| (k.as_str(), v.code, v.test)).collect();
        assert_eq!(rows, [("crates/a", 3, 5), ("tools/xtask", 1, 0), ("trajc", 2, 2)]);
        assert!(render(&counts).ends_with("total                    6         7\n"));
    }
}
