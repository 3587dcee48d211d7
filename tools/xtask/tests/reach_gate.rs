//! Gate and fixture tests for `cargo xtask reach`.
//!
//! The fixture crates under `tests/fixtures/graph/` have known call
//! graphs (cycles, mutual recursion, shadowed names, method-vs-function
//! ambiguity); their verdicts and evidence chains are pinned here. A
//! miniature repo exercises the `[[contract_allow]]` ratchet end to
//! end, and `repo_contracts_hold` runs the analysis on this repository
//! itself so `cargo test --workspace` fails when a change breaks a
//! declared contract. Property tests pin that the fixpoint is monotone
//! under adding edges or local effects.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use xtask::load_config;
use xtask::reach::{self, Analysis, ALLOC, PANIC};

fn fixture(name: &str) -> String {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let path = manifest.join("tests/fixtures/graph").join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A throwaway repo holding the graph fixtures plus a custom lint.toml.
struct MiniRepo {
    root: PathBuf,
}

impl MiniRepo {
    fn new(test_name: &str, toml: &str) -> MiniRepo {
        let root = std::env::temp_dir()
            .join(format!("xtask-reach-{}-{test_name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/graph/src")).expect("mkdir src");
        fs::create_dir_all(root.join("crates/graph/tests")).expect("mkdir tests");
        fs::create_dir_all(root.join("tools/xtask")).expect("mkdir xtask");
        for name in ["cycle.rs", "mutual.rs", "shadow.rs", "ambiguity.rs", "tail.rs"] {
            fs::write(root.join("crates/graph/src").join(name), fixture(name))
                .expect("write fixture");
        }
        // A panicking integration test: harness code must never taint
        // library verdicts (it is a separate compilation unit).
        fs::write(
            root.join("crates/graph/tests/harness.rs"),
            "fn main() { Option::<u32>::None.unwrap(); }\n",
        )
        .expect("write harness");
        fs::write(root.join("tools/xtask/lint.toml"), toml).expect("write toml");
        MiniRepo { root }
    }

    fn analyze(&self) -> Analysis {
        let file = load_config(&self.root).expect("load config");
        reach::analyze(&self.root, &file).expect("analyze")
    }
}

impl Drop for MiniRepo {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn toml_with(roots: &str, rest: &str) -> String {
    format!(
        r#"
[config]
exclude = []
panic_exempt = []
float_eq_allow = []
time_cast_allow = []
float_methods = []
time_patterns = []

[budget]
float_eq = 0
panic = 0
safety = 0
ordering = 0
time_cast = 0

[contracts]
roots = [{roots}]
assume_clean = []
int_div_patterns = [".len()"]
{rest}
"#
    )
}

fn root_effects(a: &Analysis, spec: &str) -> u8 {
    a.roots
        .iter()
        .find(|r| r.spec == spec)
        .unwrap_or_else(|| panic!("no root {spec}"))
        .effects
}

#[test]
fn fixture_verdicts_are_pinned() {
    let toml = toml_with(
        r#""ping", "pong", "spiral", "even", "qualified_safe", "unknown_receiver", "free_call", "method_call", "tail_sum""#,
        "budget_panic = 3\nbudget_alloc = 2\n",
    );
    let repo = MiniRepo::new("verdicts", &toml);
    let a = repo.analyze();

    // Clean two-node cycle: the fixpoint converges without effects.
    assert_eq!(root_effects(&a, "ping"), 0);
    assert_eq!(root_effects(&a, "pong"), 0);
    // Self-recursion reaching an indexing seed through a callee.
    assert_eq!(root_effects(&a, "spiral"), PANIC);
    // Mutual recursion: `odd`'s push taints `even` through the cycle.
    assert_eq!(root_effects(&a, "even"), ALLOC);
    // Qualified call pins the safe impl; unknown receiver unions both.
    assert_eq!(root_effects(&a, "qualified_safe"), 0);
    assert_eq!(root_effects(&a, "unknown_receiver"), PANIC);
    // Bare call resolves to the free fn, not the panicking method.
    assert_eq!(root_effects(&a, "free_call"), 0);
    assert_eq!(root_effects(&a, "method_call"), PANIC);
    // A word walk's tail through `ChunksExact::remainder` is clean.
    assert_eq!(root_effects(&a, "tail_sum"), 0);
}

#[test]
fn evidence_chain_is_shortest_and_complete() {
    let toml = toml_with(r#""spiral""#, "budget_panic = 1\nbudget_alloc = 0\n");
    let repo = MiniRepo::new("evidence", &toml);
    let a = repo.analyze();

    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    let f = &a.findings[0];
    assert_eq!(f.path, "crates/graph/src/cycle.rs");
    assert!(f.what.contains("indexing"), "{}", f.what);
    // Shortest chain: spiral calls lookup directly — two hops, not a
    // detour around the self-recursive edge.
    assert_eq!(f.chain.len(), 2, "{:?}", f.chain);
    assert!(f.chain[0].contains("spiral"), "{:?}", f.chain);
    assert!(f.chain[1].contains("lookup"), "{:?}", f.chain);
}

#[test]
fn harness_code_never_taints_library_verdicts() {
    // The tests/harness.rs file in the mini repo panics unconditionally;
    // `ping` stays clean because harness paths are not linkable from
    // library roots.
    let toml = toml_with(r#""ping""#, "budget_panic = 0\nbudget_alloc = 0\n");
    let repo = MiniRepo::new("harness", &toml);
    let a = repo.analyze();
    assert_eq!(root_effects(&a, "ping"), 0);
    assert!(a.report.is_clean(), "{:?}", a.report.problems);
}

#[test]
fn contract_allow_covers_exact_counts() {
    let allow = r#"budget_panic = 1
budget_alloc = 0

[[contract_allow]]
path = "crates/graph/src/shadow.rs"
kind = "panic"
count = 1
reason = "receiver union includes the risky impl by design"
"#;
    let toml = toml_with(r#""unknown_receiver""#, allow);
    let repo = MiniRepo::new("allow-clean", &toml);
    let a = repo.analyze();
    assert!(a.report.is_clean(), "{:?}", a.report.problems);

    // Overstated count: the entry is stale and must fail the gate.
    let stale = toml.replace("count = 1", "count = 2");
    let repo = MiniRepo::new("allow-stale", &stale);
    let a = repo.analyze();
    assert!(!a.report.is_clean());
    assert!(
        a.report.problems.iter().any(|p| p.contains("stale")),
        "{:?}",
        a.report.problems
    );
}

#[test]
fn uncovered_findings_and_stale_roots_fail() {
    let toml = toml_with(r#""unknown_receiver""#, "budget_panic = 0\nbudget_alloc = 0\n");
    let repo = MiniRepo::new("uncovered", &toml);
    let a = repo.analyze();
    assert!(!a.report.is_clean());
    assert_eq!(a.report.new.len(), 1, "the unwrap surfaces as a new finding");

    let toml = toml_with(r#""no_such_fn""#, "budget_panic = 0\nbudget_alloc = 0\n");
    let repo = MiniRepo::new("stale-root", &toml);
    let a = repo.analyze();
    assert!(
        a.report.problems.iter().any(|p| p.contains("no_such_fn")),
        "{:?}",
        a.report.problems
    );
}

// ---------------------------------------------------------------------
// The real repository must satisfy its own contracts.
// ---------------------------------------------------------------------

#[test]
fn repo_contracts_hold() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root: &Path = manifest.parent().and_then(Path::parent).expect("workspace root");
    let file = load_config(root).expect("load repo lint.toml");
    let a = reach::analyze(root, &file).expect("analyze the repo");
    let mut msg = String::new();
    for f in a.report.new.iter().take(10) {
        msg.push_str(&format!("\n  {}:{} [{}] {}", f.path, f.line, f.kind.name(), f.what));
        for hop in &f.chain {
            msg.push_str(&format!("\n      {hop}"));
        }
    }
    for p in a.report.problems.iter().take(20) {
        msg.push_str(&format!("\n  contract: {p}"));
    }
    assert!(
        a.report.is_clean(),
        "the repo breaks its reachability contracts \
         (run `cargo xtask reach` for the full report):{msg}"
    );
}

// ---------------------------------------------------------------------
// Fixpoint properties: verdicts are monotone.
// ---------------------------------------------------------------------

const N: usize = 10;

fn edge_list() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..N, 0..N), 0..25)
}

fn to_adj(pairs: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); N];
    for &(a, b) in pairs {
        adj[a].push(b);
    }
    adj
}

proptest! {
    #[test]
    fn propagate_is_monotone_under_adding_edges(
        pairs in edge_list(),
        local in proptest::collection::vec(0u8..4, N..=N),
        extra in (0..N, 0..N),
    ) {
        let base = reach::propagate(&to_adj(&pairs), &local);
        let mut grown = pairs.clone();
        grown.push(extra);
        let more = reach::propagate(&to_adj(&grown), &local);
        for i in 0..N {
            prop_assert_eq!(
                more[i] & base[i],
                base[i],
                "adding an edge lost effect bits at fn {}", i
            );
        }
    }

    #[test]
    fn propagate_is_monotone_under_adding_local_effects(
        pairs in edge_list(),
        local in proptest::collection::vec(0u8..4, N..=N),
        at in 0..N,
        bit in 0u8..2,
    ) {
        let base = reach::propagate(&to_adj(&pairs), &local);
        let mut stronger = local.clone();
        stronger[at] |= 1 << bit;
        let more = reach::propagate(&to_adj(&pairs), &stronger);
        for i in 0..N {
            prop_assert_eq!(more[i] & base[i], base[i]);
        }
    }

    #[test]
    fn propagate_reaches_a_fixpoint(
        pairs in edge_list(),
        local in proptest::collection::vec(0u8..4, N..=N),
    ) {
        let adj = to_adj(&pairs);
        let eff = reach::propagate(&adj, &local);
        // Re-running from the result changes nothing, and every edge
        // inequality effects[caller] ⊇ effects[callee] holds.
        prop_assert_eq!(reach::propagate(&adj, &eff), eff.clone());
        for (i, callees) in adj.iter().enumerate() {
            for &t in callees {
                prop_assert_eq!(eff[i] & eff[t], eff[t]);
            }
        }
    }
}
