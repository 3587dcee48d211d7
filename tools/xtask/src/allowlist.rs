//! `lint.toml`: configuration, per-lint budgets, and the ratcheting
//! allowlist.
//!
//! The file has five parts:
//!
//! * `[config]` — tunable patterns and path exemptions ([`Config`]).
//! * `[budget]` — one integer per lint: the maximum total number of
//!   allowlisted findings. `--fix-allowlist` refuses to raise a budget;
//!   lowering it (or deleting entries) is always fine. This is the
//!   ratchet: debt goes down, never up.
//! * `[[allow]]` — one entry per (lint, file) pair with the *exact*
//!   number of findings being grandfathered. A count that no longer
//!   matches reality — higher or lower — is an error, so stale entries
//!   cannot linger and new violations cannot hide behind old ones.
//! * `[contracts]` — the reachability contracts for `cargo xtask
//!   reach` ([`Contracts`]): root functions that must be panic-free
//!   and allocation-free, names vouched clean, and per-kind budgets.
//! * `[[contract_allow]]` — grandfathered reachability findings, per
//!   (file, kind), each with a **mandatory** `reason`. Same ratchet
//!   semantics as `[[allow]]`.
//!
//! The parser below handles exactly the TOML subset this file uses
//! (comments, `[section]` / `[[section]]` headers, `key = "string"`,
//! `key = integer`, `key = [ "string", ... ]` possibly spanning lines).
//! Zero dependencies, same philosophy as the rest of the workspace.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::lints::{Config, Lint, Violation, ALL_LINTS};

/// One grandfathered (lint, file) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Lint name, e.g. `"panic"`.
    pub lint: String,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Exact number of findings being allowed in that file.
    pub count: u64,
}

/// The `[contracts]` section: what `cargo xtask reach` must prove.
#[derive(Debug, Clone)]
pub struct Contracts {
    /// Root functions that must be panic-free and allocation-free.
    /// Syntax per entry: `name`, `Type::name`, or either form pinned
    /// to a file with `@path-suffix` (`push@crates/core/src/streaming.rs`).
    /// A root matching no workspace function is an error — stale
    /// contracts cannot linger.
    pub roots: Vec<String>,
    /// Call-site names (macros keep their `!`) vouched clean by review:
    /// the analysis treats every call to them as no-panic/no-alloc.
    /// Part of the trusted base; defend additions in review.
    pub assume_clean: Vec<String>,
    /// Right-operand substrings marking a division as integer-typed —
    /// see [`crate::callgraph::ExtractOptions::int_div_patterns`].
    pub int_div_patterns: Vec<String>,
    /// Max total may-panic findings reachable from the roots.
    pub budget_panic: u64,
    /// Max total may-allocate findings reachable from the roots.
    pub budget_alloc: u64,
}

impl Default for Contracts {
    fn default() -> Self {
        Contracts {
            roots: Vec::new(),
            assume_clean: Vec::new(),
            int_div_patterns: crate::callgraph::ExtractOptions::default().int_div_patterns,
            budget_panic: 0,
            budget_alloc: 0,
        }
    }
}

/// One grandfathered reachability finding group: `count` findings of
/// `kind` (`"panic"` / `"alloc"`) whose cause sits in `path`, each
/// justified by `reason`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractAllow {
    /// Repo-relative path of the file containing the cause sites.
    pub path: String,
    /// `"panic"` or `"alloc"`.
    pub kind: String,
    /// Exact number of findings being allowed.
    pub count: u64,
    /// Why this is acceptable. Mandatory — an unexplained exception is
    /// a parse error, not a lint finding.
    pub reason: String,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone)]
pub struct LintFile {
    /// The `[config]` section.
    pub config: Config,
    /// The `[budget]` section: lint name → max allowlisted findings.
    pub budget: BTreeMap<String, u64>,
    /// The `[[allow]]` entries, in file order.
    pub allows: Vec<AllowEntry>,
    /// The `[contracts]` section (defaults to no roots).
    pub contracts: Contracts,
    /// The `[[contract_allow]]` entries, in file order.
    pub contract_allows: Vec<ContractAllow>,
}

/// A raw `key = value` read by the parser.
#[derive(Debug, Clone)]
enum Value {
    Str(String),
    Int(u64),
    List(Vec<String>),
}

/// Parses `lint.toml`. Errors carry the 1-based line number.
pub fn parse(source: &str) -> Result<LintFile, String> {
    let mut config = Config::default();
    let mut budget = BTreeMap::new();
    let mut allows: Vec<AllowEntry> = Vec::new();
    let mut contracts = Contracts::default();
    let mut contract_allows: Vec<ContractAllow> = Vec::new();
    let mut section = String::new();

    // Join multi-line arrays first so the main loop sees one logical
    // line per key.
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (no, raw) in source.lines().enumerate() {
        let line = strip_comment(raw);
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(line.trim());
                if balanced(&acc) {
                    logical.push((start, acc));
                } else {
                    pending = Some((start, acc));
                }
            }
            None => {
                let t = line.trim();
                if t.is_empty() {
                    continue;
                }
                if balanced(t) {
                    logical.push((no + 1, t.to_string()));
                } else {
                    pending = Some((no + 1, t.to_string()));
                }
            }
        }
    }
    if let Some((start, _)) = pending {
        return Err(format!("lint.toml:{start}: unterminated array"));
    }

    for (no, line) in logical {
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            match name {
                "allow" => {
                    allows.push(AllowEntry { lint: String::new(), path: String::new(), count: 0 });
                }
                "contract_allow" => {
                    contract_allows.push(ContractAllow {
                        path: String::new(),
                        kind: String::new(),
                        count: 0,
                        reason: String::new(),
                    });
                }
                _ => return Err(format!("lint.toml:{no}: unknown table array [[{name}]]")),
            }
            section = name.into();
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            if !matches!(name, "config" | "budget" | "contracts") {
                return Err(format!("lint.toml:{no}: unknown section [{name}]"));
            }
            section = name.into();
            continue;
        }
        let (key, value) = parse_kv(&line).map_err(|e| format!("lint.toml:{no}: {e}"))?;
        match (section.as_str(), key.as_str()) {
            ("config", "exclude") => config.exclude = want_list(value, no)?,
            ("config", "panic_exempt") => config.panic_exempt = want_list(value, no)?,
            ("config", "float_eq_allow") => config.float_eq_allow = want_list(value, no)?,
            ("config", "time_cast_allow") => config.time_cast_allow = want_list(value, no)?,
            ("config", "float_methods") => config.float_methods = want_list(value, no)?,
            ("config", "time_patterns") => config.time_patterns = want_list(value, no)?,
            ("config", other) => {
                return Err(format!("lint.toml:{no}: unknown config key `{other}`"));
            }
            ("budget", lint) => {
                if Lint::from_name(lint).is_none() {
                    return Err(format!("lint.toml:{no}: unknown lint `{lint}` in [budget]"));
                }
                budget.insert(lint.to_string(), want_int(value, no)?);
            }
            ("allow", "lint") => {
                let name = want_str(value, no)?;
                if Lint::from_name(&name).is_none() {
                    return Err(format!("lint.toml:{no}: unknown lint `{name}` in [[allow]]"));
                }
                last_mut(&mut allows, no)?.lint = name;
            }
            ("allow", "path") => last_mut(&mut allows, no)?.path = want_str(value, no)?,
            ("allow", "count") => last_mut(&mut allows, no)?.count = want_int(value, no)?,
            ("allow", other) => {
                return Err(format!("lint.toml:{no}: unknown allow key `{other}`"));
            }
            ("contracts", "roots") => contracts.roots = want_list(value, no)?,
            ("contracts", "assume_clean") => contracts.assume_clean = want_list(value, no)?,
            ("contracts", "int_div_patterns") => contracts.int_div_patterns = want_list(value, no)?,
            ("contracts", "budget_panic") => contracts.budget_panic = want_int(value, no)?,
            ("contracts", "budget_alloc") => contracts.budget_alloc = want_int(value, no)?,
            ("contracts", other) => {
                return Err(format!("lint.toml:{no}: unknown contracts key `{other}`"));
            }
            ("contract_allow", "path") => {
                last_contract(&mut contract_allows, no)?.path = want_str(value, no)?;
            }
            ("contract_allow", "kind") => {
                let kind = want_str(value, no)?;
                if crate::callgraph::SeedKind::from_name(&kind).is_none() {
                    return Err(format!(
                        "lint.toml:{no}: unknown kind `{kind}` in [[contract_allow]] \
                         (expected \"panic\" or \"alloc\")"
                    ));
                }
                last_contract(&mut contract_allows, no)?.kind = kind;
            }
            ("contract_allow", "count") => {
                last_contract(&mut contract_allows, no)?.count = want_int(value, no)?;
            }
            ("contract_allow", "reason") => {
                last_contract(&mut contract_allows, no)?.reason = want_str(value, no)?;
            }
            ("contract_allow", other) => {
                return Err(format!("lint.toml:{no}: unknown contract_allow key `{other}`"));
            }
            (_, _) => return Err(format!("lint.toml:{no}: key `{key}` outside any section")),
        }
    }

    for (i, a) in allows.iter().enumerate() {
        if a.lint.is_empty() || a.path.is_empty() {
            return Err(format!("lint.toml: [[allow]] entry #{} is missing lint or path", i + 1));
        }
        if a.count == 0 {
            return Err(format!(
                "lint.toml: [[allow]] entry for {} / {} has count 0 — delete it instead",
                a.lint, a.path
            ));
        }
    }
    for l in ALL_LINTS {
        if !budget.contains_key(l.name()) {
            return Err(format!("lint.toml: [budget] is missing an entry for `{}`", l.name()));
        }
    }
    for (i, a) in contract_allows.iter().enumerate() {
        if a.path.is_empty() || a.kind.is_empty() {
            return Err(format!(
                "lint.toml: [[contract_allow]] entry #{} is missing path or kind",
                i + 1
            ));
        }
        if a.count == 0 {
            return Err(format!(
                "lint.toml: [[contract_allow]] entry for {} / {} has count 0 — delete it instead",
                a.kind, a.path
            ));
        }
        if a.reason.trim().is_empty() {
            return Err(format!(
                "lint.toml: [[contract_allow]] entry for {} / {} has no reason — every \
                 contract exception must be justified",
                a.kind, a.path
            ));
        }
    }
    Ok(LintFile { config, budget, allows, contracts, contract_allows })
}

fn last_mut(allows: &mut [AllowEntry], no: usize) -> Result<&mut AllowEntry, String> {
    allows.last_mut().ok_or_else(|| format!("lint.toml:{no}: key before any [[allow]] header"))
}

fn last_contract(
    allows: &mut [ContractAllow],
    no: usize,
) -> Result<&mut ContractAllow, String> {
    allows
        .last_mut()
        .ok_or_else(|| format!("lint.toml:{no}: key before any [[contract_allow]] header"))
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Whether brackets and quotes are balanced (logical line complete).
fn balanced(s: &str) -> bool {
    let mut depth = 0i64;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0 && !in_str
}

fn parse_kv(line: &str) -> Result<(String, Value), String> {
    let (key, rest) =
        line.split_once('=').ok_or_else(|| format!("expected `key = value`, got `{line}`"))?;
    let key = key.trim().to_string();
    let rest = rest.trim();
    if let Some(body) = rest.strip_prefix('[') {
        let body = body.strip_suffix(']').ok_or("array is not closed on its logical line")?;
        let mut items = Vec::new();
        for part in split_top(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(unquote(part)?);
        }
        return Ok((key, Value::List(items)));
    }
    if rest.starts_with('"') {
        return Ok((key, Value::Str(unquote(rest)?)));
    }
    let n: u64 = rest.parse().map_err(|_| format!("expected integer or string, got `{rest}`"))?;
    Ok((key, Value::Int(n)))
}

/// Splits an array body on commas outside quotes.
fn split_top(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => out.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    out.push(cur);
    out
}

fn unquote(s: &str) -> Result<String, String> {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a double-quoted string, got `{s}`"))
}

fn want_list(v: Value, no: usize) -> Result<Vec<String>, String> {
    match v {
        Value::List(l) => Ok(l),
        _ => Err(format!("lint.toml:{no}: expected an array of strings")),
    }
}

fn want_str(v: Value, no: usize) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s),
        _ => Err(format!("lint.toml:{no}: expected a string")),
    }
}

fn want_int(v: Value, no: usize) -> Result<u64, String> {
    match v {
        Value::Int(n) => Ok(n),
        _ => Err(format!("lint.toml:{no}: expected an integer")),
    }
}

// ---------------------------------------------------------------------
// Reconciliation
// ---------------------------------------------------------------------

/// The verdict of comparing current findings against the allowlist.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not covered by any allowlist entry (or in excess of an
    /// entry's count). These are *new* violations.
    pub new: Vec<Violation>,
    /// Structural problems: stale entries, shrunken files whose counts
    /// no longer match, exceeded budgets. Each is one printable line.
    pub problems: Vec<String>,
}

impl Report {
    /// Gate outcome.
    pub fn is_clean(&self) -> bool {
        self.new.is_empty() && self.problems.is_empty()
    }
}

/// Compares findings against the allowlist and budgets.
pub fn reconcile(file: &LintFile, violations: &[Violation]) -> Report {
    let mut report = Report::default();

    // Group findings by (lint, path).
    let mut actual: BTreeMap<(String, String), Vec<&Violation>> = BTreeMap::new();
    for v in violations {
        actual.entry((v.lint.name().to_string(), v.path.clone())).or_default().push(v);
    }

    let mut allowed: BTreeMap<(String, String), u64> = BTreeMap::new();
    for a in &file.allows {
        let key = (a.lint.clone(), a.path.clone());
        if allowed.insert(key, a.count).is_some() {
            report
                .problems
                .push(format!("duplicate [[allow]] entry for {} / {}", a.lint, a.path));
        }
    }

    for ((lint, path), found) in &actual {
        let have = found.len() as u64;
        match allowed.get(&(lint.clone(), path.clone())) {
            None => report.new.extend(found.iter().map(|v| (*v).clone())),
            Some(&cap) if have > cap => {
                report.problems.push(format!(
                    "{path}: {lint} findings grew from {cap} to {have} — fix the new ones \
                     (the allowlist never grows)"
                ));
                report.new.extend(found.iter().skip(cap as usize).map(|v| (*v).clone()));
            }
            Some(&cap) if have < cap => {
                report.problems.push(format!(
                    "{path}: stale allowlist count for {lint} ({cap} listed, {have} present) — \
                     run `cargo xtask lint --fix-allowlist` to ratchet down"
                ));
            }
            Some(_) => {}
        }
    }

    for ((lint, path), &cap) in &allowed {
        if !actual.contains_key(&(lint.clone(), path.clone())) {
            report.problems.push(format!(
                "{path}: stale allowlist entry for {lint} ({cap} listed, 0 present) — \
                 delete it or run `cargo xtask lint --fix-allowlist`"
            ));
        }
    }

    // Budgets bound the *total* findings per lint (allowlisted or not),
    // so even a regenerated allowlist cannot mask growth.
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for v in violations {
        *totals.entry(v.lint.name()).or_default() += 1;
    }
    for l in ALL_LINTS {
        let total = totals.get(l.name()).copied().unwrap_or(0);
        let cap = file.budget.get(l.name()).copied().unwrap_or(0);
        if total > cap {
            report.problems.push(format!(
                "budget exceeded for {}: {} findings, budget {}",
                l.name(),
                total,
                cap
            ));
        }
    }

    report
}

/// Rewrites `source` (the text `file` was parsed from) to current
/// findings, keeping every line it does not have to change: comments,
/// blank lines, key order and `reason`s all survive. Budgets only
/// ratchet down; if current findings exceed a budget the regeneration
/// *fails* — the debt must be fixed, or the budget raised by hand in
/// review.
///
/// Line by line:
/// * `[budget]` values and `budget_panic` / `budget_alloc` become
///   `min(findings, budget)`;
/// * an `[[allow]]` / `[[contract_allow]]` block (its header and the
///   lines up to the next blank line or header) gets its `count`
///   updated, or is dropped with the blank line before it when no
///   finding is left;
/// * a `[config]` list that [`prune_missing`] shortened is re-rendered;
/// * entries for findings no block covers are appended after the last
///   block of their kind (or at the end), a new `[[contract_allow]]`
///   with a `FIXME` reason that review must replace.
///
/// `contract_actual` maps (path, kind) to the current number of
/// reachability findings, as produced by [`crate::reach`].
pub fn regenerate(
    source: &str,
    file: &LintFile,
    violations: &[Violation],
    contract_actual: &BTreeMap<(String, String), u64>,
) -> Result<String, String> {
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    let mut per_file: BTreeMap<(String, String), u64> = BTreeMap::new();
    for v in violations {
        *totals.entry(v.lint.name()).or_default() += 1;
        *per_file.entry((v.lint.name().to_string(), v.path.clone())).or_default() += 1;
    }

    let mut over = Vec::new();
    let mut budget: BTreeMap<String, u64> = BTreeMap::new();
    for l in ALL_LINTS {
        let total = totals.get(l.name()).copied().unwrap_or(0);
        let cap = file.budget.get(l.name()).copied().unwrap_or(0);
        if total > cap {
            over.push(format!("{} ({} findings, budget {})", l.name(), total, cap));
        }
        budget.insert(l.name().to_string(), total.min(cap));
    }
    let mut contract_totals: BTreeMap<&str, u64> = BTreeMap::new();
    for ((_, kind), n) in contract_actual {
        *contract_totals.entry(kind.as_str()).or_default() += n;
    }
    let mut contract_budget: BTreeMap<String, u64> = BTreeMap::new();
    for (kind, cap) in [
        ("panic", file.contracts.budget_panic),
        ("alloc", file.contracts.budget_alloc),
    ] {
        let total = contract_totals.get(kind).copied().unwrap_or(0);
        if total > cap {
            over.push(format!("contract {kind} ({total} findings, budget {cap})"));
        }
        contract_budget.insert(format!("budget_{kind}"), total.min(cap));
    }
    if !over.is_empty() {
        return Err(format!(
            "refusing to regenerate: the allowlist never grows. Over budget: {}. \
             Fix the new findings, or raise [budget] by hand and defend it in review.",
            over.join(", ")
        ));
    }

    let mut out = String::new();
    let mut section = String::new();
    // Findings no block has claimed yet, and where the last block of
    // each kind ends.
    let mut allow_left = per_file;
    let mut contract_left = contract_actual.clone();
    let (mut allow_end, mut contract_end) = (None, None);
    let mut lines = source.lines().peekable();
    while let Some(raw) = lines.next() {
        let code = strip_comment(raw).trim();
        if let Some(name) = code.strip_prefix("[[").and_then(|c| c.strip_suffix("]]")) {
            let mut block = vec![raw.to_string()];
            while let Some(line) = lines.next_if(|l| {
                !l.trim().is_empty() && !strip_comment(l).trim().starts_with('[')
            }) {
                block.push(line.to_string());
            }
            let mut keys: BTreeMap<String, String> = BTreeMap::new();
            for line in block.iter().skip(1) {
                if let Ok((key, Value::Str(v))) = parse_kv(strip_comment(line).trim()) {
                    keys.insert(key, v);
                }
            }
            let field = |k: &str| keys.get(k).cloned().unwrap_or_default();
            // A second block for the same key finds nothing left: dropped.
            let count = if name == "allow" {
                allow_left.remove(&(field("lint"), field("path")))
            } else {
                contract_left.remove(&(field("path"), field("kind")))
            }
            .unwrap_or(0);
            if count == 0 {
                // Dropped: take the blank line that separated it too.
                if out.ends_with("\n\n") {
                    out.pop();
                }
                continue;
            }
            for line in &block {
                let key = strip_comment(line).split('=').next().map(str::trim);
                let text = if key == Some("count") { with_int(line, count) } else { line.clone() };
                out.push_str(&text);
                out.push('\n');
            }
            if name == "allow" {
                allow_end = Some(out.len());
            } else {
                contract_end = Some(out.len());
            }
            continue;
        }
        if let Some(name) = code.strip_prefix('[').and_then(|c| c.strip_suffix(']')) {
            section = name.to_string();
        }
        // One logical line: a multi-line array runs to its closing `]`.
        let mut logical = vec![raw];
        let mut joined = code.to_string();
        while !balanced(&joined) {
            let Some(line) = lines.next() else { break };
            logical.push(line);
            joined.push(' ');
            joined.push_str(strip_comment(line).trim());
        }
        let key = joined.split('=').next().unwrap_or_default().trim().to_string();
        let new_int = match section.as_str() {
            "budget" => budget.get(&key),
            "contracts" => contract_budget.get(&key),
            _ => None,
        };
        let pruned_list = match (section.as_str(), parse_kv(&joined)) {
            ("config", Ok((_, Value::List(old)))) => {
                config_list(&file.config, &key).filter(|new| **new != old)
            }
            _ => None,
        };
        if let Some(&n) = new_int {
            out.push_str(&with_int(raw, n));
            out.push('\n');
        } else if let Some(items) = pruned_list {
            write_list(&mut out, &key, items);
        } else {
            for line in logical {
                out.push_str(line);
                out.push('\n');
            }
        }
    }

    let mut new_allows = String::new();
    for ((lint, path), count) in &allow_left {
        let _ = write!(
            new_allows,
            "\n[[allow]]\nlint = \"{lint}\"\npath = \"{path}\"\ncount = {count}\n"
        );
    }
    let mut new_contracts = String::new();
    for ((path, kind), count) in contract_left.iter().filter(|(_, &n)| n > 0) {
        let _ = write!(
            new_contracts,
            "\n[[contract_allow]]\npath = \"{path}\"\nkind = \"{kind}\"\ncount = {count}\n\
             reason = \"FIXME: justify this entry\"\n"
        );
    }
    let a = allow_end.unwrap_or(out.len());
    let c = contract_end.unwrap_or(out.len());
    // The later offset first, so the earlier stays valid; at equal
    // offsets the allow entries end up first.
    if c >= a {
        out.insert_str(c, &new_contracts);
        out.insert_str(a, &new_allows);
    } else {
        out.insert_str(a, &new_allows);
        out.insert_str(c, &new_contracts);
    }
    Ok(out)
}

/// `raw`, a `key = integer` line, with its integer set to `value`;
/// the key, indentation and any trailing comment are kept, and an
/// unchanged value returns the line as it was.
fn with_int(raw: &str, value: u64) -> String {
    let code = strip_comment(raw).trim_end();
    let tail = &raw[code.len()..];
    match code.split_once('=') {
        Some((key, old)) if old.trim() != value.to_string() => format!("{key}= {value}{tail}"),
        _ => raw.to_string(),
    }
}

/// The `[config]` list named `key`.
fn config_list<'a>(config: &'a Config, key: &str) -> Option<&'a Vec<String>> {
    match key {
        "exclude" => Some(&config.exclude),
        "panic_exempt" => Some(&config.panic_exempt),
        "float_eq_allow" => Some(&config.float_eq_allow),
        "time_cast_allow" => Some(&config.time_cast_allow),
        "float_methods" => Some(&config.float_methods),
        "time_patterns" => Some(&config.time_patterns),
        _ => None,
    }
}

/// Drops allowlist entries and config path references that point at
/// files which no longer exist, so `--fix-allowlist` cannot re-emit
/// debt for deleted code. `exists` answers "is this repo-relative path
/// still present?" (for directory prefixes, with the trailing `/`
/// trimmed). Returns one printable line per pruned item.
pub fn prune_missing(file: &mut LintFile, exists: &dyn Fn(&str) -> bool) -> Vec<String> {
    let mut pruned = Vec::new();
    let keep_list = |key: &str, items: &mut Vec<String>, pruned: &mut Vec<String>| {
        items.retain(|p| {
            let ok = exists(p.trim_end_matches('/'));
            if !ok {
                pruned.push(format!("config {key}: dropped missing path `{p}`"));
            }
            ok
        });
    };
    keep_list("exclude", &mut file.config.exclude, &mut pruned);
    keep_list("panic_exempt", &mut file.config.panic_exempt, &mut pruned);
    keep_list("float_eq_allow", &mut file.config.float_eq_allow, &mut pruned);
    keep_list("time_cast_allow", &mut file.config.time_cast_allow, &mut pruned);
    file.allows.retain(|a| {
        let ok = exists(&a.path);
        if !ok {
            pruned.push(format!(
                "[[allow]] {} / {}: file no longer exists, entry dropped",
                a.lint, a.path
            ));
        }
        ok
    });
    file.contract_allows.retain(|a| {
        let ok = exists(&a.path);
        if !ok {
            pruned.push(format!(
                "[[contract_allow]] {} / {}: file no longer exists, entry dropped",
                a.kind, a.path
            ));
        }
        ok
    });
    pruned
}

fn write_list(out: &mut String, key: &str, items: &[String]) {
    let _ = write!(out, "{key} = [");
    if items.is_empty() {
        out.push_str("]\n");
        return;
    }
    out.push('\n');
    for item in items {
        let _ = writeln!(out, "    \"{item}\",");
    }
    out.push_str("]\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::Lint;

    const SAMPLE: &str = r#"
# comment
[config]
exclude = ["vendor/", "target/"]
panic_exempt = []
float_eq_allow = ["crates/geom/src/numeric.rs"]
time_cast_allow = []
float_methods = [
    ".as_secs()",
    ".norm()",
]
time_patterns = [".as_secs()"]

[budget]
float_eq = 0
panic = 3
safety = 0
ordering = 0
time_cast = 1

[[allow]]
lint = "panic"
path = "crates/core/src/parallel.rs"
count = 2

[[allow]]
lint = "panic"
path = "crates/store/src/wal.rs"
count = 1
"#;

    fn v(lint: Lint, path: &str, line: usize) -> Violation {
        Violation { lint, path: path.into(), line, excerpt: String::new(), note: None }
    }

    #[test]
    fn parses_sample() {
        let f = parse(SAMPLE).unwrap();
        assert_eq!(f.config.exclude, vec!["vendor/", "target/"]);
        assert_eq!(f.config.float_methods, vec![".as_secs()", ".norm()"]);
        assert_eq!(f.budget["panic"], 3);
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].count, 2);
    }

    #[test]
    fn rejects_unknown_lint_and_missing_budget() {
        let bad = SAMPLE.replace("lint = \"panic\"", "lint = \"pancakes\"");
        assert!(parse(&bad).unwrap_err().contains("unknown lint"));
        let bad = SAMPLE.replace("safety = 0\n", "");
        assert!(parse(&bad).unwrap_err().contains("missing an entry for `safety`"));
    }

    #[test]
    fn exact_match_is_clean() {
        let f = parse(SAMPLE).unwrap();
        let found = vec![
            v(Lint::Panic, "crates/core/src/parallel.rs", 10),
            v(Lint::Panic, "crates/core/src/parallel.rs", 20),
            v(Lint::Panic, "crates/store/src/wal.rs", 5),
        ];
        assert!(reconcile(&f, &found).is_clean());
    }

    #[test]
    fn new_violation_fails() {
        let f = parse(SAMPLE).unwrap();
        let found = vec![v(Lint::FloatEq, "crates/eval/src/lib.rs", 3)];
        let r = reconcile(&f, &found);
        assert_eq!(r.new.len(), 1);
        assert!(!r.is_clean());
    }

    #[test]
    fn growth_within_file_fails() {
        let f = parse(SAMPLE).unwrap();
        let found = vec![
            v(Lint::Panic, "crates/store/src/wal.rs", 5),
            v(Lint::Panic, "crates/store/src/wal.rs", 9),
        ];
        let r = reconcile(&f, &found);
        assert!(r.problems.iter().any(|p| p.contains("grew")));
    }

    #[test]
    fn stale_entry_fails() {
        let f = parse(SAMPLE).unwrap();
        // wal.rs entry lists 1 but nothing is present.
        let found = vec![
            v(Lint::Panic, "crates/core/src/parallel.rs", 10),
            v(Lint::Panic, "crates/core/src/parallel.rs", 20),
        ];
        let r = reconcile(&f, &found);
        assert!(r.problems.iter().any(|p| p.contains("stale allowlist entry")));
    }

    #[test]
    fn stale_count_fails() {
        let f = parse(SAMPLE).unwrap();
        let found = vec![
            v(Lint::Panic, "crates/core/src/parallel.rs", 10),
            v(Lint::Panic, "crates/store/src/wal.rs", 5),
        ];
        let r = reconcile(&f, &found);
        assert!(r.problems.iter().any(|p| p.contains("stale allowlist count")));
    }

    #[test]
    fn budget_bounds_total_even_if_allowlisted() {
        let mut f = parse(SAMPLE).unwrap();
        f.budget.insert("panic".into(), 1);
        let found = vec![
            v(Lint::Panic, "crates/core/src/parallel.rs", 10),
            v(Lint::Panic, "crates/core/src/parallel.rs", 20),
        ];
        let r = reconcile(&f, &found);
        assert!(r.problems.iter().any(|p| p.contains("budget exceeded")));
    }

    #[test]
    fn regenerate_ratchets_down_and_refuses_growth() {
        let f = parse(SAMPLE).unwrap();
        // One finding left: budget must drop to 1, entries collapse.
        let found = vec![v(Lint::Panic, "crates/store/src/wal.rs", 5)];
        let text = regenerate(SAMPLE, &f, &found, &BTreeMap::new()).unwrap();
        let again = parse(&text).unwrap();
        assert_eq!(again.budget["panic"], 1);
        assert_eq!(again.allows.len(), 1);
        assert!(reconcile(&again, &found).is_clean());

        // Over budget: refuse.
        let many: Vec<_> = (0..5).map(|i| v(Lint::Panic, "crates/store/src/wal.rs", i)).collect();
        let err = regenerate(SAMPLE, &f, &many, &BTreeMap::new()).unwrap_err();
        assert!(err.contains("never grows"));
    }

    #[test]
    fn roundtrip_preserves_config() {
        let f = parse(SAMPLE).unwrap();
        let text = regenerate(SAMPLE, &f, &[], &BTreeMap::new()).unwrap();
        let again = parse(&text).unwrap();
        assert_eq!(again.config.float_methods, f.config.float_methods);
        assert_eq!(again.config.exclude, f.config.exclude);
    }

    const CONTRACT_SAMPLE: &str = r#"
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
roots = ["compress_into", "push@crates/core/src/streaming.rs"]
assume_clean = ["span!", "counter!"]
int_div_patterns = [".len()"]
budget_panic = 1
budget_alloc = 2

[[contract_allow]]
path = "crates/core/src/one_pass.rs"
kind = "alloc"
count = 2
reason = "pushes into capacity-reserved workspace buffers"
"#;

    #[test]
    fn parses_contracts() {
        let f = parse(CONTRACT_SAMPLE).unwrap();
        assert_eq!(f.contracts.roots.len(), 2);
        assert_eq!(f.contracts.assume_clean, vec!["span!", "counter!"]);
        assert_eq!(f.contracts.budget_panic, 1);
        assert_eq!(f.contracts.budget_alloc, 2);
        assert_eq!(f.contract_allows.len(), 1);
        assert_eq!(f.contract_allows[0].kind, "alloc");
        assert_eq!(f.contract_allows[0].count, 2);
    }

    #[test]
    fn contract_allow_requires_reason_and_valid_kind() {
        let bad = CONTRACT_SAMPLE.replace(
            "reason = \"pushes into capacity-reserved workspace buffers\"",
            "reason = \"  \"",
        );
        assert!(parse(&bad).unwrap_err().contains("no reason"));
        let bad = CONTRACT_SAMPLE.replace("kind = \"alloc\"", "kind = \"segfault\"");
        assert!(parse(&bad).unwrap_err().contains("unknown kind"));
    }

    #[test]
    fn missing_contracts_section_defaults_to_no_roots() {
        let f = parse(SAMPLE).unwrap();
        assert!(f.contracts.roots.is_empty());
        assert!(f.contract_allows.is_empty());
    }

    #[test]
    fn regenerate_preserves_contracts_and_reasons() {
        let f = parse(CONTRACT_SAMPLE).unwrap();
        let mut actual = BTreeMap::new();
        actual.insert(("crates/core/src/one_pass.rs".to_string(), "alloc".to_string()), 1u64);
        let text = regenerate(CONTRACT_SAMPLE, &f, &[], &actual).unwrap();
        let again = parse(&text).unwrap();
        assert_eq!(again.contracts.roots, f.contracts.roots);
        assert_eq!(again.contracts.assume_clean, f.contracts.assume_clean);
        // Budget ratchets down to the new total; reason survives.
        assert_eq!(again.contracts.budget_alloc, 1);
        assert_eq!(again.contract_allows.len(), 1);
        assert_eq!(again.contract_allows[0].count, 1);
        assert!(again.contract_allows[0].reason.contains("capacity-reserved"));
    }

    #[test]
    fn regenerate_refuses_contract_budget_growth() {
        let f = parse(CONTRACT_SAMPLE).unwrap();
        let mut actual = BTreeMap::new();
        actual.insert(("crates/core/src/one_pass.rs".to_string(), "panic".to_string()), 3u64);
        let err = regenerate(CONTRACT_SAMPLE, &f, &[], &actual).unwrap_err();
        assert!(err.contains("contract panic"), "{err}");
    }

    /// Comments in every section, including inside arrays and blocks.
    const COMMENTED: &str = r#"# Header comment.

[config]
# config comment
exclude = [
    # why vendor is excluded
    "vendor/",
]
panic_exempt = []  # trailing comment
float_eq_allow = []
time_cast_allow = []
float_methods = []
time_patterns = []

# budget comment
[budget]
float_eq = 0
panic = 3  # ratcheted in review
safety = 0
ordering = 0
time_cast = 0

[contracts]
roots = [
    # group comment
    "compress_into",
]
assume_clean = []
int_div_patterns = []
# budget history: 5 → 3
budget_panic = 3
budget_alloc = 2

# Grandfathered findings.

[[allow]]
lint = "panic"
path = "a.rs"
count = 2

[[allow]]
# note inside a block
lint = "panic"
path = "b.rs"
count = 1

[[contract_allow]]
path = "c.rs"
kind = "panic"
count = 3
reason = "kept reason"

[[contract_allow]]
path = "d.rs"
kind = "alloc"
count = 2
reason = "gone soon"

# trailing comment
"#;

    fn contract_counts(entries: &[(&str, &str, u64)]) -> BTreeMap<(String, String), u64> {
        entries.iter().map(|&(p, k, n)| ((p.to_string(), k.to_string()), n)).collect()
    }

    #[test]
    fn regenerate_with_unchanged_counts_keeps_the_file_byte_for_byte() {
        let f = parse(COMMENTED).unwrap();
        let found =
            [v(Lint::Panic, "a.rs", 1), v(Lint::Panic, "a.rs", 2), v(Lint::Panic, "b.rs", 1)];
        let actual = contract_counts(&[("c.rs", "panic", 3), ("d.rs", "alloc", 2)]);
        assert_eq!(regenerate(COMMENTED, &f, &found, &actual).unwrap(), COMMENTED);
    }

    #[test]
    fn regenerate_updates_counts_prunes_and_appends_keeping_comments() {
        let f = parse(COMMENTED).unwrap();
        // a.rs falls to 1, b.rs and d.rs are gone, e.rs and f.rs are new.
        let found = [v(Lint::Panic, "a.rs", 1), v(Lint::Panic, "e.rs", 1)];
        let actual = contract_counts(&[("c.rs", "panic", 2), ("f.rs", "alloc", 1)]);
        let text = regenerate(COMMENTED, &f, &found, &actual).unwrap();
        // b.rs's block (with the comment inside it) and d.rs's go; e.rs
        // and f.rs take their places after the last block of their kind.
        let b = "[[allow]]\n# note inside a block\nlint = \"panic\"\npath = \"b.rs\"\ncount = 1\n";
        let e = "[[allow]]\nlint = \"panic\"\npath = \"e.rs\"\ncount = 1\n";
        let d = "[[contract_allow]]\npath = \"d.rs\"\nkind = \"alloc\"\ncount = 2\n\
                 reason = \"gone soon\"\n";
        let f_new = "[[contract_allow]]\npath = \"f.rs\"\nkind = \"alloc\"\ncount = 1\n\
                     reason = \"FIXME: justify this entry\"\n";
        let expected = COMMENTED
            .replace("panic = 3  #", "panic = 2  #")
            .replace("budget_panic = 3", "budget_panic = 2")
            .replace("budget_alloc = 2", "budget_alloc = 1")
            .replace("path = \"a.rs\"\ncount = 2", "path = \"a.rs\"\ncount = 1")
            .replace(b, e)
            .replace("count = 3\nreason = \"kept", "count = 2\nreason = \"kept")
            .replace(d, f_new);
        assert_eq!(text, expected);
        for line in COMMENTED.lines().filter(|l| l.trim_start().starts_with('#')) {
            if line != "# note inside a block" {
                assert!(text.contains(line), "lost comment {line:?}");
            }
        }
        let again = parse(&text).unwrap();
        assert!(reconcile(&again, &found).is_clean());
        assert_eq!(again.contract_allows.len(), 2);
    }

    #[test]
    fn regenerate_rerenders_a_pruned_config_list_only() {
        let mut f = parse(SAMPLE).unwrap();
        f.config.exclude.retain(|p| p != "target/");
        let text = regenerate(SAMPLE, &f, &[], &BTreeMap::new()).unwrap();
        assert!(text.contains("exclude = [\n    \"vendor/\",\n]\n"), "{text}");
        let untouched = "time_patterns = [\".as_secs()\"]\n";
        assert!(text.contains(untouched), "an untouched list stays as written");
        assert_eq!(parse(&text).unwrap().config.exclude, vec!["vendor/"]);
    }

    #[test]
    fn prune_missing_drops_dead_paths_everywhere() {
        let mut f = parse(CONTRACT_SAMPLE).unwrap();
        f.config.float_eq_allow = vec!["gone.rs".into(), "kept.rs".into()];
        f.config.exclude = vec!["vendor/".into()];
        f.allows.push(AllowEntry { lint: "panic".into(), path: "gone.rs".into(), count: 1 });
        let pruned = prune_missing(&mut f, &|p| p == "kept.rs" || p == "vendor" || p == "crates/core/src/one_pass.rs");
        assert_eq!(f.config.float_eq_allow, vec!["kept.rs"]);
        assert_eq!(f.config.exclude, vec!["vendor/"]);
        assert!(f.allows.is_empty());
        assert_eq!(f.contract_allows.len(), 1, "existing file stays");
        assert_eq!(pruned.len(), 2, "{pruned:?}");
    }
}
