//! Call-graph reachability: prove contract roots panic-free and
//! allocation-free.
//!
//! Built on [`crate::callgraph::extract`], this module assembles the
//! whole-workspace call graph, resolves every call site to workspace
//! functions, a vouched builtin table, or the conservative "unknown
//! callee may do anything" fallback, propagates *may-panic* and
//! *may-allocate* to a fixpoint, and reconciles what is reachable from
//! the `[contracts]` roots in `lint.toml` against the ratcheting
//! `[[contract_allow]]` list.
//!
//! Soundness shape (DESIGN.md §2f): every call site either contributes
//! graph edges (workspace candidates, over-approximated by name when
//! the receiver type is unknown), a vouched effect from the builtin
//! table, or the dirty fallback. Nothing is silently dropped, so a
//! clean verdict means no lexically visible path from a root to a
//! panic/allocation site — up to the trusted base (the builtin table,
//! `assume_clean`, and the documented macro-expansion blind spot).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::allowlist::{Contracts, LintFile};
use crate::callgraph::{extract, CallSite, ExtractOptions, FnDef, Seed, SeedKind};
use crate::walk;

/// Bit flag: may panic.
pub const PANIC: u8 = 1;
/// Bit flag: may allocate.
pub const ALLOC: u8 = 2;

/// The assembled workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// All non-test function definitions, workspace-wide.
    pub fns: Vec<FnDef>,
    /// Call sites per function (parallel to `fns`).
    pub calls: Vec<Vec<CallSite>>,
    /// Pattern seeds per function (parallel to `fns`).
    pub seeds: Vec<Vec<Seed>>,
}

/// A concrete panic/allocation capability with its location.
#[derive(Debug, Clone)]
pub struct Cause {
    /// Index of the function containing the cause.
    pub fn_idx: usize,
    /// Which fact it establishes.
    pub kind: SeedKind,
    /// Human-readable description.
    pub what: String,
    /// 1-based line number.
    pub line: usize,
}

/// The resolved graph: edges, per-function local effects, and the
/// concrete causes behind those local effects.
#[derive(Debug, Default)]
pub struct Resolved {
    /// Workspace call edges per function (callee indices, deduped).
    pub edges: Vec<Vec<usize>>,
    /// Local effect bits per function (seeds + non-workspace calls).
    pub local: Vec<u8>,
    /// Concrete causes per function.
    pub causes: Vec<Vec<Cause>>,
}

/// One reachable violation of a contract, with evidence.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File containing the cause.
    pub path: String,
    /// 1-based line of the cause.
    pub line: usize,
    /// `panic` or `alloc`.
    pub kind: SeedKind,
    /// What the cause is.
    pub what: String,
    /// Shortest call chain from a contract root to the cause, as
    /// `display-name (file:line)` strings; the last element contains
    /// the cause.
    pub chain: Vec<String>,
}

/// Verdict for one declared root.
#[derive(Debug, Clone)]
pub struct RootReport {
    /// The root spec as written in `lint.toml`.
    pub spec: String,
    /// Matched functions, as `display (file:line)`.
    pub matches: Vec<String>,
    /// Propagated effect bits over all matches.
    pub effects: u8,
}

/// Reconciliation of findings against `[[contract_allow]]` + budgets.
#[derive(Debug, Default)]
pub struct ContractReport {
    /// Findings not covered by any entry (or in excess of its count).
    pub new: Vec<Finding>,
    /// Structural problems: stale entries/counts, exceeded budgets,
    /// unmatched roots. One printable line each.
    pub problems: Vec<String>,
}

impl ContractReport {
    /// Gate outcome.
    pub fn is_clean(&self) -> bool {
        self.new.is_empty() && self.problems.is_empty()
    }
}

/// Full analysis output.
pub struct Analysis {
    /// The workspace graph (for `--all` listings).
    pub graph: Graph,
    /// Fixpoint effect bits per function.
    pub effects: Vec<u8>,
    /// Per-root verdicts.
    pub roots: Vec<RootReport>,
    /// All reachable causes, deduped, sorted by (path, line, kind).
    pub findings: Vec<Finding>,
    /// Reconciliation against the allowlist.
    pub report: ContractReport,
    /// Number of files scanned.
    pub files: usize,
}

/// Directories whose code is not linkable from library roots: separate
/// compilation units (integration tests, benches, examples) and
/// `perfbench/`, the benchmark's own cargo workspace, would only add
/// name-resolution noise (a bare `.fold(…)` in library code would reach
/// the benchmark's `SpanTotals::fold`).
fn is_harness_path(path: &str) -> bool {
    path.starts_with("perfbench/")
        || ["tests/", "benches/", "examples/"]
            .iter()
            .any(|d| path.starts_with(d) || path.contains(&format!("/{d}")))
}

/// Walks the workspace and assembles the call graph.
pub fn build_graph(root: &Path, exclude: &[String], opts: &ExtractOptions) -> Result<(Graph, usize), String> {
    let paths = walk::rust_files(root, exclude)?;
    let mut graph = Graph::default();
    let mut files = 0usize;
    for rel in &paths {
        if is_harness_path(rel) {
            continue;
        }
        files += 1;
        let abs = root.join(rel);
        let source = fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        let fg = extract(&source, opts);
        for (i, mut f) in fg.fns.into_iter().enumerate() {
            if f.in_test {
                continue;
            }
            f.file = rel.clone();
            graph.fns.push(f);
            graph.calls.push(fg.calls[i].clone());
            graph.seeds.push(fg.seeds[i].clone());
        }
    }
    Ok((graph, files))
}

/// Effects of a vouched standard-library name, or `None` when the name
/// is not in the trusted table. The table is deliberately small and
/// curated: anything absent falls back to "may do anything".
fn builtin_effects(qual: Option<&str>, name: &str) -> Option<u8> {
    if let Some(q) = qual {
        for (tq, tn, e) in QUALIFIED {
            if *tq == q && *tn == name {
                return Some(*e);
            }
        }
    }
    for (tn, e) in BUILTIN {
        if *tn == name {
            return Some(*e);
        }
    }
    None
}

/// Vouched `Type::name` entries consulted before the bare-name table.
const QUALIFIED: &[(&str, &str, u8)] = &[
    ("Vec", "new", 0),
    ("String", "new", 0),
    ("Vec", "with_capacity", ALLOC),
    ("String", "with_capacity", ALLOC),
    ("Vec", "from", ALLOC),
    ("String", "from", ALLOC),
    ("Box", "new", ALLOC),
    ("Rc", "new", ALLOC),
    ("Arc", "new", ALLOC),
    ("Instant", "now", 0),
    ("Duration", "from_secs", 0),
    ("Duration", "from_secs_f64", PANIC),
    ("Ordering", "then", 0),
    ("f64", "from_bits", 0),
    ("f64", "to_bits", 0),
    ("AtomicU64", "new", 0),
    ("AtomicU32", "new", 0),
    ("AtomicUsize", "new", 0),
    ("AtomicBool", "new", 0),
    ("OnceLock", "new", 0),
    ("Mutex", "new", 0),
    ("Cell", "new", 0),
    ("RefCell", "new", 0),
    // std collections allocate lazily: `new` itself is allocation-free.
    ("HashMap", "new", 0),
    ("HashSet", "new", 0),
    ("BTreeMap", "new", 0),
    ("BTreeSet", "new", 0),
    ("VecDeque", "new", 0),
    // io::Error construction boxes its payload: failure paths allocate.
    ("Error", "other", ALLOC),
    ("Error", "new", ALLOC),
    // Opening a file converts the path to a CString.
    ("File", "open", ALLOC),
    ("File", "create", ALLOC),
    // Lossless numeric conversions.
    ("u64", "from", 0),
    ("u32", "from", 0),
    ("i64", "from", 0),
    ("f64", "from", 0),
    ("usize", "from", 0),
    ("u64", "try_from", 0),
    ("usize", "try_from", 0),
    ("i64", "try_from", 0),
];

/// Vouched bare names: methods, free functions, and macros (`!`).
/// Effects: 0 = clean, PANIC, ALLOC, or both. Documented blind spot:
/// panics on constant arguments (`windows(0)`) are out of scope — the
/// analysis targets data-dependent failure on the per-record path.
const BUILTIN: &[(&str, u8)] = &[
    // -- accessors, predicates, arithmetic: clean ---------------------
    ("len", 0), ("is_empty", 0), ("get", 0), ("get_mut", 0),
    ("first", 0), ("last", 0), ("first_mut", 0), ("last_mut", 0),
    ("split_first", 0), ("split_last", 0),
    ("iter", 0), ("iter_mut", 0), ("into_iter", 0), ("drain", PANIC),
    ("as_ref", 0), ("as_mut", 0), ("as_str", 0), ("as_slice", 0),
    ("as_mut_slice", 0), ("as_bytes", 0), ("as_deref", 0),
    ("abs", 0), ("sqrt", 0), ("hypot", 0), ("powi", 0), ("powf", 0),
    ("floor", 0), ("ceil", 0), ("round", 0), ("trunc", 0), ("fract", 0),
    ("signum", 0), ("recip", 0), ("mul_add", 0), ("copysign", 0),
    ("to_radians", 0), ("to_degrees", 0), ("sin", 0), ("cos", 0),
    ("tan", 0), ("asin", 0), ("acos", 0), ("atan", 0), ("atan2", 0),
    ("sin_cos", 0), ("exp", 0), ("ln", 0), ("log2", 0), ("log10", 0),
    ("min", 0), ("max", 0), ("clamp", 0), ("min_by", 0), ("max_by", 0),
    ("min_by_key", 0), ("max_by_key", 0),
    ("is_finite", 0), ("is_nan", 0), ("is_infinite", 0),
    ("is_sign_negative", 0), ("is_sign_positive", 0),
    ("to_bits", 0), ("from_bits", 0), ("total_cmp", 0),
    ("cmp", 0), ("partial_cmp", 0), ("eq", 0), ("ne", 0),
    ("lt", 0), ("le", 0), ("gt", 0), ("ge", 0),
    ("then", 0), ("then_some", 0), ("then_with", 0), ("reverse", 0),
    ("saturating_add", 0), ("saturating_sub", 0), ("saturating_mul", 0),
    ("wrapping_add", 0), ("wrapping_sub", 0), ("wrapping_mul", 0),
    ("checked_add", 0), ("checked_sub", 0), ("checked_mul", 0),
    ("checked_div", 0), ("checked_rem", 0), ("pow", 0),
    ("leading_zeros", 0), ("trailing_zeros", 0),
    ("rotate_left", 0), ("rotate_right", 0), ("count_ones", 0),
    ("to_le_bytes", 0), ("to_be_bytes", 0),
    ("from_le_bytes", 0), ("from_be_bytes", 0),
    ("is_ascii_digit", 0), ("is_ascii_alphabetic", 0),
    ("is_ascii_alphanumeric", 0), ("is_uppercase", 0),
    ("size_of", 0), ("align_of", 0), ("drop", 0), ("min_positive", 0),
    ("asinh", 0), ("sinh", 0), ("cosh", 0), ("tanh", 0), ("cbrt", 0), ("ln_1p", 0),
    // Atomics: lock-free reads/writes/RMWs neither panic nor allocate.
    ("load", 0), ("store", 0), ("fetch_add", 0), ("fetch_sub", 0),
    ("fetch_or", 0), ("fetch_and", 0), ("fetch_xor", 0),
    ("fetch_min", 0), ("fetch_max", 0), ("compare_exchange", 0),
    ("compare_exchange_weak", 0), ("fetch_update", 0),
    // Derived `Default` bottoms out in empty std containers, which do
    // not allocate; hand-written workspace impls resolve before this.
    ("default", 0), ("from_fn", 0),
    ("capacity", 0), ("as_ptr", 0), ("as_mut_ptr", 0),
    ("dedup_by", 0), ("dedup_by_key", 0), ("into_inner", 0),
    ("get_or_init", 0), ("to_path_buf", ALLOC),
    // File I/O on an open handle fails via Result, not panic.
    ("write_all", 0), ("flush", 0), ("sync_all", 0), ("sync_data", 0),
    ("read_exact", 0), ("seek", 0), ("stream_position", 0),
    // -- Option / Result plumbing: clean ------------------------------
    ("map", 0), ("map_or", 0), ("map_or_else", 0), ("map_err", 0),
    ("and_then", 0), ("or_else", 0), ("or", 0), ("and", 0),
    ("unwrap_or", 0), ("unwrap_or_else", 0), ("unwrap_or_default", 0),
    ("ok", 0), ("err", 0), ("ok_or", 0), ("ok_or_else", 0),
    ("is_some", 0), ("is_none", 0), ("is_ok", 0), ("is_err", 0),
    ("is_some_and", 0), ("is_none_or", 0),
    ("take", 0), ("replace", 0), ("copied", 0), ("as_opt", 0),
    ("filter", 0), ("flatten", 0), ("transpose", 0), ("inspect", 0),
    // -- iterator adapters and slice scans: clean ---------------------
    ("filter_map", 0), ("flat_map", 0), ("rev", 0), ("zip", 0),
    ("enumerate", 0), ("skip", 0), ("step_by", 0), ("chain", 0),
    ("windows", 0), ("chunks", 0), ("chunks_exact", 0),
    ("fold", 0), ("try_fold", 0), ("sum", 0), ("product", 0),
    ("count", 0), ("all", 0), ("any", 0), ("find", 0), ("find_map", 0),
    ("position", 0), ("rposition", 0), ("take_while", 0),
    ("skip_while", 0), ("by_ref", 0), ("peekable", 0), ("peek", 0),
    ("next", 0), ("next_back", 0), ("nth", 0), ("once", 0),
    ("binary_search", 0), ("binary_search_by", 0),
    ("binary_search_by_key", 0), ("contains", 0), ("contains_key", 0),
    ("starts_with", 0), ("ends_with", 0), ("sort_unstable", 0),
    ("sort_unstable_by", 0), ("sort_unstable_by_key", 0),
    ("fill", 0), ("fill_with", 0), ("rotate_left", 0),
    ("retain", 0), ("dedup", 0), ("truncate", 0), ("clear", 0),
    ("trim", 0), ("trim_end", 0), ("trim_start", 0),
    ("trim_end_matches", 0), ("trim_start_matches", 0),
    ("strip_prefix", 0), ("strip_suffix", 0), ("split_once", 0),
    ("char_indices", 0), ("chars", 0), ("bytes", 0), ("lines", 0),
    ("parse", 0), ("keys", 0), ("values", 0), ("values_mut", 0),
    ("get_or_insert_with", 0), ("pop", 0), ("swap_remove", PANIC),
    // -- panic-capable ------------------------------------------------
    ("unwrap", PANIC), ("expect", PANIC),
    ("unwrap_err", PANIC), ("expect_err", PANIC),
    ("split_at", PANIC), ("split_at_mut", PANIC),
    ("copy_from_slice", PANIC), ("clone_from_slice", PANIC),
    ("copy_within", PANIC), ("swap", PANIC), ("remove", PANIC),
    ("insert", PANIC | ALLOC), ("div_euclid", PANIC),
    ("rem_euclid", PANIC), ("elapsed", 0),
    ("panic!", PANIC), ("unreachable!", PANIC), ("todo!", PANIC),
    ("unimplemented!", PANIC), ("assert!", PANIC),
    ("assert_eq!", PANIC), ("assert_ne!", PANIC),
    // debug_assert compiles out of release builds; the contract covers
    // the release hot path, and the `panic` lint still polices misuse.
    ("debug_assert!", 0), ("debug_assert_eq!", 0),
    ("debug_assert_ne!", 0),
    // -- allocation-capable -------------------------------------------
    ("push", ALLOC), ("push_str", ALLOC), ("extend", ALLOC),
    ("extend_from_slice", ALLOC), ("append", ALLOC), ("resize", ALLOC),
    ("reserve", ALLOC), ("reserve_exact", ALLOC),
    ("with_capacity", ALLOC), ("collect", ALLOC),
    ("to_string", ALLOC), ("to_owned", ALLOC), ("to_vec", ALLOC),
    ("clone", ALLOC), ("cloned", ALLOC), ("join", ALLOC),
    ("concat", ALLOC), ("repeat", ALLOC), ("entry", ALLOC),
    ("or_insert", ALLOC), ("or_insert_with", ALLOC),
    ("or_default", ALLOC), ("sort", ALLOC), ("sort_by", ALLOC),
    ("sort_by_key", ALLOC), ("into_boxed_slice", ALLOC),
    ("into_vec", ALLOC), ("to_uppercase", ALLOC),
    ("to_lowercase", ALLOC), ("split_off", PANIC | ALLOC),
    ("insert_str", PANIC | ALLOC), ("splice", PANIC | ALLOC),
    ("format!", ALLOC), ("vec!", ALLOC),
    ("write!", ALLOC), ("writeln!", ALLOC),
    ("println!", PANIC | ALLOC), ("print!", PANIC | ALLOC),
    ("eprintln!", PANIC | ALLOC), ("eprint!", PANIC | ALLOC),
    // -- clean macros -------------------------------------------------
    ("matches!", 0), ("cfg!", 0), ("stringify!", 0), ("concat!", 0),
    ("line!", 0), ("file!", 0), ("column!", 0), ("env!", 0),
    ("option_env!", 0), ("include_str!", 0), ("compile_error!", 0),
];

/// Resolves every call site: workspace candidates become edges,
/// builtin/vouched effects become local causes, everything else hits
/// the conservative fallback.
pub fn resolve(graph: &Graph, contracts: &Contracts) -> Resolved {
    // Indexes: by bare name, split by "has a qualifier". The methods
    // index admits only fns with a `self` receiver: `.name(…)` call
    // sites can only dispatch to those, so free-fn and associated-fn
    // homonyms (`fn drain()` vs `VecDeque::drain`) stay out of the
    // union.
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut qualified: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if f.has_self {
            methods.entry(f.name.as_str()).or_default().push(i);
        }
        match &f.qual {
            Some(q) => {
                qualified.entry((q.as_str(), f.name.as_str())).or_default().push(i);
            }
            None => free.entry(f.name.as_str()).or_default().push(i),
        }
    }

    let mut out = Resolved {
        edges: vec![Vec::new(); graph.fns.len()],
        local: vec![0; graph.fns.len()],
        causes: vec![Vec::new(); graph.fns.len()],
    };

    for (i, f) in graph.fns.iter().enumerate() {
        for s in &graph.seeds[i] {
            let bit = match s.kind {
                SeedKind::Panic => PANIC,
                SeedKind::Alloc => ALLOC,
            };
            out.local[i] |= bit;
            out.causes[i].push(Cause { fn_idx: i, kind: s.kind, what: s.what.clone(), line: s.line });
        }
        let mut targets: BTreeSet<usize> = BTreeSet::new();
        for c in &graph.calls[i] {
            resolve_call(c, f, contracts, &free, &methods, &qualified, graph, i, &mut targets, &mut out);
        }
        out.edges[i] = targets.into_iter().collect();
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn resolve_call(
    c: &CallSite,
    caller: &FnDef,
    contracts: &Contracts,
    free: &BTreeMap<&str, Vec<usize>>,
    methods: &BTreeMap<&str, Vec<usize>>,
    qualified: &BTreeMap<(&str, &str), Vec<usize>>,
    graph: &Graph,
    i: usize,
    targets: &mut BTreeSet<usize>,
    out: &mut Resolved,
) {
    let dirty = |out: &mut Resolved, what: String| {
        out.local[i] |= PANIC | ALLOC;
        out.causes[i].push(Cause { fn_idx: i, kind: SeedKind::Panic, what: what.clone(), line: c.line });
        out.causes[i].push(Cause { fn_idx: i, kind: SeedKind::Alloc, what, line: c.line });
    };
    let vouched = |out: &mut Resolved, effects: u8| {
        if effects & PANIC != 0 {
            out.local[i] |= PANIC;
            out.causes[i].push(Cause {
                fn_idx: i,
                kind: SeedKind::Panic,
                what: format!("call to `{}` (vouched may-panic)", c.name),
                line: c.line,
            });
        }
        if effects & ALLOC != 0 {
            out.local[i] |= ALLOC;
            out.causes[i].push(Cause {
                fn_idx: i,
                kind: SeedKind::Alloc,
                what: format!("call to `{}` (vouched may-allocate)", c.name),
                line: c.line,
            });
        }
    };

    // Review-vouched names short-circuit everything.
    if contracts.assume_clean.iter().any(|n| n == &c.name) {
        return;
    }

    if c.name.ends_with('!') {
        // Macros: either builtin or unknowable (macro_rules! bodies are
        // not expanded — vouch workspace macros via assume_clean).
        match builtin_effects(None, &c.name) {
            Some(e) => vouched(out, e),
            None => dirty(out, format!("call to unvouched macro `{}`", c.name)),
        }
        return;
    }

    let mut candidates: Vec<usize> = Vec::new();
    if let Some(q) = &c.qual {
        if let Some(v) = qualified.get(&(q.as_str(), c.name.as_str())) {
            candidates.extend(v);
        }
        // A lowercase qualifier is a module path, not a type:
        // `numeric::approx_zero(…)` targets the free fn.
        if candidates.is_empty() && q.chars().next().is_some_and(char::is_lowercase) {
            if let Some(v) = free.get(c.name.as_str()) {
                candidates.extend(v);
            }
        }
        if candidates.is_empty() {
            match builtin_effects(Some(q), &c.name) {
                Some(e) => vouched(out, e),
                None => dirty(out, format!("call to unresolved `{q}::{}`", c.name)),
            }
            return;
        }
    } else if c.method {
        // Receiver type unknown: union every workspace method of this
        // name AND the builtin homonym (`.push(` could be `Vec::push`
        // or a workspace `push`). Sound over-approximation.
        if let Some(v) = methods.get(c.name.as_str()) {
            candidates.extend(v);
        }
        match builtin_effects(None, &c.name) {
            Some(e) => vouched(out, e),
            None if candidates.is_empty() => {
                dirty(out, format!("method call to unresolved `.{}()`", c.name));
                return;
            }
            None => {}
        }
    } else {
        if let Some(v) = free.get(c.name.as_str()) {
            candidates.extend(v);
        }
        if candidates.is_empty() {
            match builtin_effects(None, &c.name) {
                Some(e) => vouched(out, e),
                None => dirty(out, format!("call to unresolved `{}`", c.name)),
            }
            return;
        }
    }

    // A bodyless candidate is a trait method declaration: the call may
    // dispatch to any same-named impl in the workspace, so widen. An
    // impl of a trait item always lives in an `impl` block (qualified),
    // so free-fn homonyms stay out of the widened set.
    if candidates.iter().any(|&t| !graph.fns[t].has_body) {
        if let Some(v) = methods.get(c.name.as_str()) {
            candidates.extend(v);
        }
        candidates.extend(graph.fns.iter().enumerate().filter_map(|(t, f)| {
            (f.qual.is_some() && !f.has_self && f.name == c.name).then_some(t)
        }));
    }
    let _ = caller;
    targets.extend(candidates);
}

/// Propagates effect bits over the call graph to a fixpoint. Pure:
/// `effects[f] = local[f] | union(effects[callee])`. Monotone in both
/// `local` and `edges` — the proptests pin that.
pub fn propagate(edges: &[Vec<usize>], local: &[u8]) -> Vec<u8> {
    let mut eff = local.to_vec();
    loop {
        let mut changed = false;
        for i in 0..edges.len() {
            let mut bits = eff[i];
            for &t in &edges[i] {
                bits |= eff[t];
            }
            if bits != eff[i] {
                eff[i] = bits;
                changed = true;
            }
        }
        if !changed {
            return eff;
        }
    }
}

/// Matches one root spec (`name`, `Type::name`, optionally `@file`)
/// against the graph. Only bodied, non-test functions qualify.
pub fn match_root(graph: &Graph, spec: &str) -> Vec<usize> {
    let (name_part, file_part) = match spec.split_once('@') {
        Some((n, f)) => (n, Some(f)),
        None => (spec, None),
    };
    let (qual, name) = match name_part.rsplit_once("::") {
        Some((q, n)) => (Some(q), n),
        None => (None, name_part),
    };
    graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.has_body
                && f.name == name
                && qual.is_none_or(|q| f.qual.as_deref() == Some(q))
                && file_part.is_none_or(|p| f.file.ends_with(p))
        })
        .map(|(i, _)| i)
        .collect()
}

/// BFS from the given roots; returns per-function predecessor indices
/// (usize::MAX for roots/unreached) and the reached set in BFS order.
fn bfs(edges: &[Vec<usize>], roots: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut parent = vec![usize::MAX; edges.len()];
    let mut seen = vec![false; edges.len()];
    let mut order = Vec::new();
    let mut q = VecDeque::new();
    for &r in roots {
        if !seen[r] {
            seen[r] = true;
            q.push_back(r);
        }
    }
    while let Some(u) = q.pop_front() {
        order.push(u);
        for &v in &edges[u] {
            if !seen[v] {
                seen[v] = true;
                parent[v] = u;
                q.push_back(v);
            }
        }
    }
    (parent, order)
}

fn loc(f: &FnDef) -> String {
    format!("{} ({}:{})", f.display(), f.file, f.line)
}

/// Runs the full analysis for the repo at `root` against `lint.toml`.
pub fn analyze(root: &Path, file: &LintFile) -> Result<Analysis, String> {
    let opts = ExtractOptions { int_div_patterns: file.contracts.int_div_patterns.clone() };
    let (graph, files) = build_graph(root, &file.config.exclude, &opts)?;
    let resolved = resolve(&graph, &file.contracts);
    let effects = propagate(&resolved.edges, &resolved.local);

    let mut report = ContractReport::default();
    let mut roots = Vec::new();
    let mut root_idxs = Vec::new();
    for spec in &file.contracts.roots {
        let matches = match_root(&graph, spec);
        if matches.is_empty() {
            report.problems.push(format!(
                "contract root `{spec}` matches no workspace function — \
                 fix the spec or delete the stale root"
            ));
            roots.push(RootReport { spec: spec.clone(), matches: Vec::new(), effects: 0 });
            continue;
        }
        let mut bits = 0;
        let mut names = Vec::new();
        for &m in &matches {
            bits |= effects[m];
            names.push(loc(&graph.fns[m]));
        }
        roots.push(RootReport { spec: spec.clone(), matches: names, effects: bits });
        root_idxs.extend(matches);
    }
    root_idxs.sort_unstable();
    root_idxs.dedup();

    // Evidence: BFS gives shortest chains; collect each reachable cause
    // once, keyed by (file, line, kind).
    let (parent, order) = bfs(&resolved.edges, &root_idxs);
    let mut seen: BTreeSet<(String, usize, SeedKind)> = BTreeSet::new();
    let mut findings = Vec::new();
    for &u in &order {
        for cause in &resolved.causes[u] {
            let key = (graph.fns[u].file.clone(), cause.line, cause.kind);
            if !seen.insert(key) {
                continue;
            }
            let mut chain = Vec::new();
            let mut cur = u;
            loop {
                chain.push(loc(&graph.fns[cur]));
                if parent[cur] == usize::MAX {
                    break;
                }
                cur = parent[cur];
            }
            chain.reverse();
            findings.push(Finding {
                path: graph.fns[u].file.clone(),
                line: cause.line,
                kind: cause.kind,
                what: cause.what.clone(),
                chain,
            });
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.kind).cmp(&(&b.path, b.line, b.kind)));

    reconcile_contracts(file, &findings, &mut report);
    Ok(Analysis { graph, effects, roots, findings, report, files })
}

/// Groups findings by (path, kind) for allowlist reconciliation.
pub fn group_findings(findings: &[Finding]) -> BTreeMap<(String, String), u64> {
    let mut m: BTreeMap<(String, String), u64> = BTreeMap::new();
    for f in findings {
        *m.entry((f.path.clone(), f.kind.name().to_string())).or_default() += 1;
    }
    m
}

/// Same ratchet semantics as the lint allowlist: exact counts, stale
/// entries are errors, budgets bound totals per kind.
fn reconcile_contracts(file: &LintFile, findings: &[Finding], report: &mut ContractReport) {
    let actual = group_findings(findings);

    let mut allowed: BTreeMap<(String, String), u64> = BTreeMap::new();
    for a in &file.contract_allows {
        if allowed.insert((a.path.clone(), a.kind.clone()), a.count).is_some() {
            report
                .problems
                .push(format!("duplicate [[contract_allow]] entry for {} / {}", a.kind, a.path));
        }
    }

    for ((path, kind), &have) in &actual {
        let subset = || {
            findings
                .iter()
                .filter(|f| &f.path == path && f.kind.name() == kind)
                .cloned()
        };
        match allowed.get(&(path.clone(), kind.clone())) {
            None => report.new.extend(subset()),
            Some(&cap) if have > cap => {
                report.problems.push(format!(
                    "{path}: reachable {kind} findings grew from {cap} to {have} — fix the \
                     new ones (the allowlist never grows)"
                ));
                report.new.extend(subset().skip(cap as usize));
            }
            Some(&cap) if have < cap => {
                report.problems.push(format!(
                    "{path}: stale contract_allow count for {kind} ({cap} listed, {have} \
                     present) — run `cargo xtask lint --fix-allowlist` to ratchet down"
                ));
            }
            Some(_) => {}
        }
    }
    for ((path, kind), &cap) in &allowed {
        if !actual.contains_key(&(path.clone(), kind.clone())) {
            report.problems.push(format!(
                "{path}: stale contract_allow entry for {kind} ({cap} listed, 0 present) — \
                 delete it or run `cargo xtask lint --fix-allowlist`"
            ));
        }
    }

    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for f in findings {
        *totals.entry(f.kind.name()).or_default() += 1;
    }
    for (kind, cap) in [
        ("panic", file.contracts.budget_panic),
        ("alloc", file.contracts.budget_alloc),
    ] {
        let total = totals.get(kind).copied().unwrap_or(0);
        if total > cap {
            report.problems.push(format!(
                "contract budget exceeded for {kind}: {total} reachable findings, budget {cap}"
            ));
        }
    }
}

fn effects_str(bits: u8) -> &'static str {
    match (bits & PANIC != 0, bits & ALLOC != 0) {
        (false, false) => "clean",
        (true, false) => "may-panic",
        (false, true) => "may-allocate",
        (true, true) => "may-panic, may-allocate",
    }
}

/// Human-readable report. With `all`, lists every workspace function's
/// verdict after the per-root summary.
pub fn render_text(a: &Analysis, all: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "reach: {} fns in {} files, {} contract root spec(s)",
        a.graph.fns.len(),
        a.files,
        a.roots.len()
    );
    for r in &a.roots {
        let _ = writeln!(out, "\nroot `{}` — {}", r.spec, effects_str(r.effects));
        for m in &r.matches {
            let _ = writeln!(out, "    {m}");
        }
    }
    if !a.findings.is_empty() {
        let _ = writeln!(out, "\n{} reachable finding(s):", a.findings.len());
        for f in &a.findings {
            let _ = writeln!(out, "\n  [{}] {}:{} — {}", f.kind.name(), f.path, f.line, f.what);
            for (i, link) in f.chain.iter().enumerate() {
                let _ = writeln!(out, "      {}{}", "  ".repeat(i), link);
            }
        }
    }
    if !a.report.problems.is_empty() {
        let _ = writeln!(out, "\nproblems:");
        for p in &a.report.problems {
            let _ = writeln!(out, "  {p}");
        }
    }
    if !a.report.new.is_empty() {
        let _ = writeln!(out, "\n{} finding(s) not covered by [[contract_allow]]", a.report.new.len());
    }
    if all {
        let _ = writeln!(out, "\nper-function verdicts:");
        let mut idx: Vec<usize> = (0..a.graph.fns.len()).collect();
        idx.sort_by(|&x, &y| {
            (&a.graph.fns[x].file, a.graph.fns[x].line).cmp(&(&a.graph.fns[y].file, a.graph.fns[y].line))
        });
        for i in idx {
            let f = &a.graph.fns[i];
            let _ = writeln!(out, "  {:<24} {}:{} {}", effects_str(a.effects[i]), f.file, f.line, f.display());
        }
    }
    let _ = writeln!(
        out,
        "\nverdict: {}",
        if a.report.is_clean() { "contracts hold" } else { "CONTRACT VIOLATIONS" }
    );
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_finding(out: &mut String, f: &Finding) {
    let _ = write!(
        out,
        "{{\"path\":\"{}\",\"line\":{},\"kind\":\"{}\",\"what\":\"{}\",\"chain\":[",
        json_escape(&f.path),
        f.line,
        f.kind.name(),
        json_escape(&f.what)
    );
    for (i, link) in f.chain.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", json_escape(link));
    }
    out.push_str("]}");
}

/// Machine-readable report for CI (`--format json`).
pub fn render_json(a: &Analysis) -> String {
    let mut out = String::from("{");
    let _ = write!(out, "\"fns\":{},\"files\":{},", a.graph.fns.len(), a.files);
    let _ = write!(out, "\"clean\":{},", a.report.is_clean());

    out.push_str("\"roots\":[");
    for (i, r) in a.roots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"spec\":\"{}\",\"may_panic\":{},\"may_alloc\":{},\"matches\":[",
            json_escape(&r.spec),
            r.effects & PANIC != 0,
            r.effects & ALLOC != 0
        );
        for (j, m) in r.matches.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json_escape(m));
        }
        out.push_str("]}");
    }
    out.push_str("],");

    for (key, list) in [("findings", &a.findings), ("new", &a.report.new)] {
        let _ = write!(out, "\"{key}\":[");
        for (i, f) in list.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_finding(&mut out, f);
        }
        out.push_str("],");
    }

    out.push_str("\"problems\":[");
    for (i, p) in a.report.problems.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", json_escape(p));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_graph(files: &[(&str, &str)]) -> Graph {
        let opts = ExtractOptions::default();
        let mut graph = Graph::default();
        for (path, src) in files {
            let fg = extract(src, &opts);
            for (i, mut f) in fg.fns.into_iter().enumerate() {
                if f.in_test {
                    continue;
                }
                f.file = (*path).to_string();
                graph.fns.push(f);
                graph.calls.push(fg.calls[i].clone());
                graph.seeds.push(fg.seeds[i].clone());
            }
        }
        graph
    }

    fn effects_of(graph: &Graph, contracts: &Contracts, name: &str) -> u8 {
        let r = resolve(graph, contracts);
        let eff = propagate(&r.edges, &r.local);
        let i = graph.fns.iter().position(|f| f.name == name).expect("fn exists");
        eff[i]
    }

    #[test]
    fn panic_propagates_through_calls() {
        let g = mini_graph(&[(
            "a.rs",
            "fn top(x: Option<u32>) -> u32 { mid(x) }\nfn mid(x: Option<u32>) -> u32 { x.unwrap() }\nfn safe(x: u32) -> u32 { x }",
        )]);
        let c = Contracts::default();
        assert_eq!(effects_of(&g, &c, "top"), PANIC);
        assert_eq!(effects_of(&g, &c, "safe"), 0);
    }

    #[test]
    fn alloc_propagates_and_is_distinct() {
        let g = mini_graph(&[(
            "a.rs",
            "fn top(n: usize) -> Vec<u32> { build(n) }\nfn build(n: usize) -> Vec<u32> { let mut v = Vec::new(); v.reserve(n); v }",
        )]);
        assert_eq!(effects_of(&g, &Contracts::default(), "top"), ALLOC);
    }

    #[test]
    fn unknown_call_is_conservatively_dirty() {
        let g = mini_graph(&[("a.rs", "fn top() { mystery_external_fn(); }")]);
        assert_eq!(effects_of(&g, &Contracts::default(), "top"), PANIC | ALLOC);
    }

    #[test]
    fn assume_clean_vouches_names() {
        let g = mini_graph(&[("a.rs", "fn top() { span!(\"x\"); }")]);
        assert_eq!(effects_of(&g, &Contracts::default(), "top"), PANIC | ALLOC);
        let c = Contracts { assume_clean: vec!["span!".into()], ..Contracts::default() };
        assert_eq!(effects_of(&g, &c, "top"), 0);
    }

    #[test]
    fn cycles_converge() {
        let g = mini_graph(&[(
            "a.rs",
            "fn even(n: u32) -> bool { if n == 0 { true } else { odd(n - 1) } }\nfn odd(n: u32) -> bool { if n == 0 { false } else { even(n - 1) } }",
        )]);
        let c = Contracts::default();
        assert_eq!(effects_of(&g, &c, "even"), 0);
        assert_eq!(effects_of(&g, &c, "odd"), 0);
    }

    #[test]
    fn cycle_with_a_seed_taints_both() {
        let g = mini_graph(&[(
            "a.rs",
            "fn ping(n: u32, xs: &[u32]) -> u32 { pong(n, xs) }\nfn pong(n: u32, xs: &[u32]) -> u32 { if n == 0 { xs[0] } else { ping(n - 1, xs) } }",
        )]);
        let c = Contracts::default();
        assert_eq!(effects_of(&g, &c, "ping"), PANIC);
        assert_eq!(effects_of(&g, &c, "pong"), PANIC);
    }

    #[test]
    fn qualified_resolution_does_not_cross_types() {
        // Alpha::make is dirty; Beta::make is clean. A call qualified
        // with Beta must not pick up Alpha's effects.
        let g = mini_graph(&[(
            "a.rs",
            "struct Alpha; struct Beta;\nimpl Alpha { fn make(x: Option<u32>) -> u32 { x.unwrap() } }\nimpl Beta { fn make(x: Option<u32>) -> u32 { x.unwrap_or(0) } }\nfn top(x: Option<u32>) -> u32 { Beta::make(x) }",
        )]);
        assert_eq!(effects_of(&g, &Contracts::default(), "top"), 0);
    }

    #[test]
    fn method_calls_union_homonyms() {
        // `.grow()` has two workspace impls; one is dirty, so the
        // unknown-receiver call inherits the union.
        let g = mini_graph(&[(
            "a.rs",
            "struct A; struct B;\nimpl A { fn grow(&self, x: Option<u32>) -> u32 { x.unwrap() } }\nimpl B { fn grow(&self, x: Option<u32>) -> u32 { x.unwrap_or(0) } }\nfn top(a: &A, x: Option<u32>) -> u32 { a.grow(x) }",
        )]);
        assert_eq!(effects_of(&g, &Contracts::default(), "top"), PANIC);
    }

    #[test]
    fn method_calls_skip_receiverless_homonyms() {
        // A free fn and an associated fn share the method's name; a
        // `.drain(…)` call site can only dispatch to a `self` receiver,
        // so neither homonym taints the builtin-clean resolution.
        let g = mini_graph(&[(
            "a.rs",
            "fn drain() -> Vec<u32> { vec![1] }\nstruct W;\nimpl W { fn last(n: u32) -> u32 { n.wrapping_add(1) } }\nfn top(x: &mut Vec<u32>) -> Option<u32> { let v = x.last().copied(); v }",
        )]);
        // `.last()` on the receiver resolves to the builtin (clean), not
        // to the associated fn `W::last`, and not through free `drain`.
        assert_eq!(effects_of(&g, &Contracts::default(), "top"), 0);
    }

    #[test]
    fn trait_declaration_widens_to_impls() {
        let g = mini_graph(&[(
            "a.rs",
            "trait Codec { fn encode(&self) -> u32; }\nstruct Bad;\nimpl Codec for Bad { fn encode(&self) -> u32 { panic!(\"boom\") } }\nfn top(c: &dyn Codec) -> u32 { Codec::encode(c) }",
        )]);
        assert_eq!(effects_of(&g, &Contracts::default(), "top") & PANIC, PANIC);
    }

    #[test]
    fn match_root_specs() {
        let g = mini_graph(&[
            ("crates/a/src/lib.rs", "impl K { fn run(&self) {} }\nfn run() {}"),
            ("crates/b/src/lib.rs", "fn run() {}"),
        ]);
        assert_eq!(match_root(&g, "run").len(), 3);
        assert_eq!(match_root(&g, "K::run").len(), 1);
        assert_eq!(match_root(&g, "run@crates/b/src/lib.rs").len(), 1);
        assert!(match_root(&g, "nonexistent").is_empty());
    }

    #[test]
    fn propagate_is_a_fixpoint_and_monotone_smoke() {
        let edges = vec![vec![1], vec![2], vec![]];
        let local = vec![0, 0, PANIC];
        let eff = propagate(&edges, &local);
        assert_eq!(eff, vec![PANIC, PANIC, PANIC]);
        // Adding an edge can only add bits.
        let more = vec![vec![1, 2], vec![2], vec![]];
        let eff2 = propagate(&more, &local);
        for (a, b) in eff.iter().zip(&eff2) {
            assert_eq!(b & a, *a);
        }
    }

    #[test]
    fn evidence_chain_is_shortest() {
        // top -> a -> b -> boom and top -> boom: chain must be the
        // 2-hop one.
        let src = "fn top(x: Option<u32>) { a(x); boom(x); }\nfn a(x: Option<u32>) { b(x); }\nfn b(x: Option<u32>) { boom(x); }\nfn boom(x: Option<u32>) { x.unwrap(); }";
        let g = mini_graph(&[("a.rs", src)]);
        let r = resolve(&g, &Contracts::default());
        let roots = match_root(&g, "top");
        let (parent, order) = bfs(&r.edges, &roots);
        let boom = g.fns.iter().position(|f| f.name == "boom").expect("fn exists");
        assert!(order.contains(&boom));
        // parent chain: boom <- top directly.
        assert_eq!(parent[boom], g.fns.iter().position(|f| f.name == "top").expect("fn exists"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
