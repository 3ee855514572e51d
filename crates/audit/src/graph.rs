//! Workspace graphs: the crate dependency graph and the approximate
//! intra-workspace call graph, plus the G-family rules that run on
//! them (DESIGN.md §16).
//!
//! * **G-taint** — every function transitively reachable from a
//!   determinism entry point (`digest`, `digest_fnv`,
//!   `summaries_digest`, `digest_line`, `fingerprint`, journal
//!   `append`/`seal`) must be free of the D-banned APIs *wherever it
//!   lives*, not just inside the D-scoped modules. Findings carry the
//!   full call chain from the entry point to the offending token.
//! * **G-layer** — architecture layering: physics crates must never
//!   depend on serving crates, `prng`/`faults` must stay
//!   leaf-reachable, and any dependency cycle is a finding.
//!
//! Call resolution is deliberately approximate (no type inference):
//! `recv.method()` resolves to every workspace `impl` method of that
//! name, `Qual::f()` to functions owned by a type or module named
//! `Qual`, and bare `f()` to same-file functions first, then free
//! functions anywhere. The soundness caveats are documented in
//! DESIGN.md §16 — over-approximation can demand a waiver, but a
//! nondeterministic call on a real digest path cannot hide in an
//! unscoped helper.

use crate::config::{Config, Rule};
use crate::items::{Item, ItemKind};
use crate::lexer::{Token, TokenKind};
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// A D-banned API occurrence inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BannedSite {
    /// Which API was named (`HashMap`, `Instant::now`, …).
    pub api: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
}

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `f(..)` — a bare call.
    Free,
    /// `Qual::f(..)` — qualified by a type or module segment.
    Path,
    /// `recv.f(..)` — a method call.
    Method,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Resolution mode.
    pub kind: CallKind,
    /// The `Qual` of a [`CallKind::Path`] call.
    pub qualifier: Option<String>,
    /// The callee's bare name.
    pub name: String,
    /// 1-based line of the callee token.
    pub line: u32,
    /// 1-based column of the callee token.
    pub col: u32,
}

/// Everything the graph passes need to know about one function.
#[derive(Debug, Clone)]
pub struct FnFact {
    /// Display-qualified name (`runtime::WorkerPool::heal`).
    pub qual: String,
    /// Bare function name.
    pub name: String,
    /// The `impl`/`trait` type owning this method, if any.
    pub owner: Option<String>,
    /// Names under which a `Qual::f` path call can reach this
    /// function's module: enclosing mod names, the file stem, and the
    /// crate's `bios_*` aliases.
    pub module_aliases: Vec<String>,
    /// 1-based line of the `fn` item.
    pub line: u32,
    /// 1-based column of the `fn` item.
    pub col: u32,
    /// Call sites inside the body.
    pub calls: Vec<CallSite>,
    /// D-banned API occurrences inside the body.
    pub banned: Vec<BannedSite>,
}

/// A reference to another workspace crate found in a source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDep {
    /// The referenced crate's short name (`runtime`, not
    /// `bios_runtime`).
    pub krate: String,
    /// 1-based line of the reference.
    pub line: u32,
    /// 1-based column of the reference.
    pub col: u32,
}

/// The per-file facts feeding the cross-file passes. Produced by
/// [`crate::rules::analyze_file`].
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Local (single-file) findings, *before* waiver application.
    pub local_findings: Vec<Finding>,
    /// Waivers declared in the file.
    pub waivers: Vec<crate::rules::WaiverRecord>,
    /// Non-test functions with their call sites and banned sites.
    pub fns: Vec<FnFact>,
    /// Workspace crates this file references outside test code.
    pub use_deps: Vec<UseDep>,
}

/// The crate short name a repo-relative path belongs to:
/// `crates/runtime/src/…` → `runtime`, the facade `src/…` → `biosim`.
pub fn crate_of_path(path: &str) -> Option<String> {
    if let Some(rest) = path.strip_prefix("crates/") {
        return rest.split('/').next().map(str::to_string);
    }
    if path.starts_with("src/") {
        return Some("biosim".to_string());
    }
    None
}

/// Keywords that can precede `(` without the identifier being a call.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "move", "in", "as", "else", "let", "mut",
    "ref", "fn", "impl", "where", "dyn", "box", "break", "continue", "unsafe", "async", "await",
];

/// Extract [`FnFact`]s and [`UseDep`]s from a parsed file.
///
/// `masked` marks test-gated tokens (same mask the local rules use);
/// masked tokens contribute neither call edges nor use-dependencies.
pub fn extract_facts(
    path: &str,
    tokens: &[Token],
    masked: &[bool],
    items: &[Item],
) -> (Vec<FnFact>, Vec<UseDep>) {
    let krate = crate_of_path(path);
    let stem = path
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("");
    let mut base_aliases: Vec<String> = Vec::new();
    if !matches!(stem, "lib" | "main" | "mod" | "") {
        base_aliases.push(stem.to_string());
    }
    if let Some(k) = &krate {
        base_aliases.push(k.clone());
        base_aliases.push(format!("bios_{k}"));
    }

    let mut fns = Vec::new();
    collect_fns(
        tokens,
        items,
        krate.as_deref().unwrap_or("?"),
        &base_aliases,
        &[],
        None,
        &mut fns,
    );

    // Workspace-crate references anywhere in non-test code: both
    // `use bios_x::…` items and inline `bios_x::…` paths.
    let mut use_deps: Vec<UseDep> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        if masked.get(i).copied().unwrap_or(false) || t.kind != TokenKind::Ident {
            continue;
        }
        let Some(name) = t.text.strip_prefix("bios_") else {
            continue;
        };
        if name.is_empty() || Some(name) == krate.as_deref() {
            continue;
        }
        if seen.insert(name.to_string()) {
            use_deps.push(UseDep {
                krate: name.to_string(),
                line: t.line,
                col: t.col,
            });
        }
    }
    (fns, use_deps)
}

/// Walk the item tree collecting non-test functions with their body
/// facts.
fn collect_fns(
    tokens: &[Token],
    items: &[Item],
    krate: &str,
    base_aliases: &[String],
    mod_path: &[String],
    owner: Option<&str>,
    out: &mut Vec<FnFact>,
) {
    for item in items {
        if item.test_only {
            continue;
        }
        match item.kind {
            ItemKind::Fn => {
                let mut qual = String::from(krate);
                for m in mod_path {
                    qual.push_str("::");
                    qual.push_str(m);
                }
                if let Some(o) = owner {
                    qual.push_str("::");
                    qual.push_str(o);
                }
                qual.push_str("::");
                qual.push_str(&item.name);
                let mut aliases: Vec<String> = base_aliases.to_vec();
                if let Some(last) = mod_path.last() {
                    aliases.push(last.clone());
                }
                aliases.push("self".to_string());
                aliases.push("crate".to_string());
                aliases.push("Self".to_string());
                let (calls, banned) = match item.body {
                    Some((start, end)) => scan_body(tokens, start, end),
                    None => (Vec::new(), Vec::new()),
                };
                out.push(FnFact {
                    qual,
                    name: item.name.clone(),
                    owner: owner.map(str::to_string),
                    module_aliases: aliases,
                    line: item.line,
                    col: item.col,
                    calls,
                    banned,
                });
            }
            ItemKind::Impl | ItemKind::Trait => {
                collect_fns(
                    tokens,
                    &item.children,
                    krate,
                    base_aliases,
                    mod_path,
                    Some(&item.name),
                    out,
                );
            }
            ItemKind::Mod => {
                let mut nested = mod_path.to_vec();
                nested.push(item.name.clone());
                collect_fns(
                    tokens,
                    &item.children,
                    krate,
                    base_aliases,
                    &nested,
                    owner,
                    out,
                );
            }
            ItemKind::Use => {}
        }
    }
}

/// Scan a function body (raw-token range) for call sites and D-banned
/// API occurrences.
fn scan_body(tokens: &[Token], start: usize, end: usize) -> (Vec<CallSite>, Vec<BannedSite>) {
    let code: Vec<usize> = (start..end.min(tokens.len()))
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut calls = Vec::new();
    let mut banned = Vec::new();
    for (k, &i) in code.iter().enumerate() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev = k.checked_sub(1).map(|p| tokens[code[p]].text.as_str());
        let prev2 = k.checked_sub(2).map(|p| tokens[code[p]].text.as_str());
        let next = code.get(k + 1).map(|&j| tokens[j].text.as_str());
        let next2 = code.get(k + 2).map(|&j| tokens[j].text.as_str());

        match t.text.as_str() {
            "HashMap" | "HashSet" => banned.push(BannedSite {
                api: t.text.clone(),
                line: t.line,
                col: t.col,
            }),
            "Instant" | "SystemTime" if next == Some("::") && next2 == Some("now") => {
                banned.push(BannedSite {
                    api: format!("{}::now", t.text),
                    line: t.line,
                    col: t.col,
                });
            }
            "thread" if next == Some("::") && next2 == Some("current") => {
                banned.push(BannedSite {
                    api: "thread::current".to_string(),
                    line: t.line,
                    col: t.col,
                });
            }
            _ => {}
        }

        // A call: ident immediately followed by `(` — but not a macro
        // (`name!(…)`), not a keyword, and not a definition (`fn name(`).
        if next != Some("(") {
            continue;
        }
        if CALL_KEYWORDS.contains(&t.text.as_str()) || prev == Some("fn") {
            continue;
        }
        let (kind, qualifier) = match prev {
            Some(".") => (CallKind::Method, None),
            Some("::") => {
                let q = prev2.filter(|q| {
                    q.chars()
                        .next()
                        .map(|c| c.is_alphanumeric() || c == '_')
                        .unwrap_or(false)
                });
                (CallKind::Path, q.map(str::to_string))
            }
            _ => (CallKind::Free, None),
        };
        calls.push(CallSite {
            kind,
            qualifier,
            name: t.text.clone(),
            line: t.line,
            col: t.col,
        });
    }
    (calls, banned)
}

// ---------------------------------------------------------------------------
// Crate dependency graph (G-layer)
// ---------------------------------------------------------------------------

/// One crate-to-crate dependency edge with the site that created it.
#[derive(Debug, Clone)]
pub struct DepEdge {
    /// Depending crate (short name).
    pub from: String,
    /// Depended-on crate (short name).
    pub to: String,
    /// File the edge was found in (a manifest or a source file).
    pub file: String,
    /// 1-based line of the dependency declaration or path reference.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Parse a crate manifest for its `bios-*` entries under
/// `[dependencies]` (dev- and build-dependencies are exempt: tests may
/// cross layers).
pub fn parse_manifest(manifest_path: &str, content: &str) -> Vec<DepEdge> {
    let Some(from) = crate_of_path(manifest_path) else {
        return Vec::new();
    };
    let mut edges = Vec::new();
    let mut in_dependencies = false;
    for (idx, line) in content.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_dependencies = trimmed == "[dependencies]";
            continue;
        }
        if !in_dependencies {
            continue;
        }
        let Some(key) = trimmed.split(['=', ' ', '\t']).next() else {
            continue;
        };
        if let Some(to) = key.strip_prefix("bios-") {
            if !to.is_empty() {
                let col = line.find(key).map(|c| c + 1).unwrap_or(1) as u32;
                edges.push(DepEdge {
                    from: from.clone(),
                    to: to.to_string(),
                    file: manifest_path.to_string(),
                    line: (idx + 1) as u32,
                    col,
                });
            }
        }
    }
    edges
}

/// Build the full crate dependency edge list from manifests plus
/// per-file use-references.
pub fn dep_edges(manifest_edges: &[DepEdge], files: &[FileFacts]) -> Vec<DepEdge> {
    let mut edges: Vec<DepEdge> = manifest_edges.to_vec();
    let mut seen: BTreeSet<(String, String)> = manifest_edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();
    for f in files {
        let Some(from) = crate_of_path(&f.path) else {
            continue;
        };
        for dep in &f.use_deps {
            if seen.insert((from.clone(), dep.krate.clone())) {
                edges.push(DepEdge {
                    from: from.clone(),
                    to: dep.krate.clone(),
                    file: f.path.clone(),
                    line: dep.line,
                    col: dep.col,
                });
            }
        }
    }
    edges
}

/// Run the G-layer checks over the dependency edges: layering,
/// leaf-reachability, and cycles.
pub fn layer_findings(config: &Config, edges: &[DepEdge]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let physics: BTreeSet<&str> = config.physics_crates.iter().map(String::as_str).collect();
    let serving: BTreeSet<&str> = config.serving_crates.iter().map(String::as_str).collect();

    for e in edges {
        if physics.contains(e.from.as_str()) && serving.contains(e.to.as_str()) {
            findings.push(Finding {
                path: e.file.clone(),
                line: e.line,
                col: e.col,
                rule: Rule::GLayer,
                message: format!(
                    "physics crate `{}` must not depend on serving crate `{}` — \
                     the physics layer stays deployable without the serving stack",
                    e.from, e.to
                ),
            });
        }
        if let Some((_, allowed)) = config.leaf_crates.iter().find(|(name, _)| name == &e.from) {
            if !allowed.iter().any(|a| a == &e.to) {
                let allowed_list = if allowed.is_empty() {
                    "none".to_string()
                } else {
                    allowed.join(", ")
                };
                findings.push(Finding {
                    path: e.file.clone(),
                    line: e.line,
                    col: e.col,
                    rule: Rule::GLayer,
                    message: format!(
                        "`{}` must stay leaf-reachable but depends on `{}` \
                         (allowed dependencies: {allowed_list})",
                        e.from, e.to
                    ),
                });
            }
        }
    }

    // Cycle detection over the crate graph (iterative DFS with
    // colors). Any back edge is reported once, anchored at the edge
    // that closes the cycle.
    let mut adj: BTreeMap<&str, Vec<&DepEdge>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut color: BTreeMap<&str, u8> = BTreeMap::new(); // 0 white, 1 grey, 2 black
    let nodes: BTreeSet<&str> = edges
        .iter()
        .flat_map(|e| [e.from.as_str(), e.to.as_str()])
        .collect();
    for &start in &nodes {
        if color.get(start).copied().unwrap_or(0) != 0 {
            continue;
        }
        // Stack of (node, next-edge-index), plus the grey path for
        // cycle rendering.
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        color.insert(start, 1);
        while let Some((node, idx)) = stack.last_mut() {
            let out = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if *idx >= out.len() {
                color.insert(node, 2);
                stack.pop();
                path.pop();
                continue;
            }
            let edge = out[*idx];
            *idx += 1;
            match color.get(edge.to.as_str()).copied().unwrap_or(0) {
                0 => {
                    color.insert(edge.to.as_str(), 1);
                    stack.push((edge.to.as_str(), 0));
                    path.push(edge.to.as_str());
                }
                1 => {
                    let cycle_start = path
                        .iter()
                        .position(|&n| n == edge.to.as_str())
                        .unwrap_or(0);
                    let mut cycle: Vec<&str> = path[cycle_start..].to_vec();
                    cycle.push(edge.to.as_str());
                    findings.push(Finding {
                        path: edge.file.clone(),
                        line: edge.line,
                        col: edge.col,
                        rule: Rule::GLayer,
                        message: format!(
                            "dependency cycle: {} — the crate graph must stay acyclic",
                            cycle.join(" → ")
                        ),
                    });
                }
                _ => {}
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Call graph + taint (G-taint)
// ---------------------------------------------------------------------------

/// One G-taint finding's provenance, surfaced in `AUDIT_report.json`.
#[derive(Debug, Clone)]
pub struct TaintChain {
    /// File of the offending (banned-API) token.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// The banned API named at the site.
    pub api: String,
    /// Qualified function names from the entry point to the offender.
    pub chain: Vec<String>,
}

/// The approximate workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// `(file index, fn index)` per node, indexing into the input.
    nodes: Vec<(usize, usize)>,
    /// Adjacency: callee node indices per node.
    edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Build the graph: one node per non-test function, edges by the
    /// approximate resolution rules described in the module docs.
    pub fn build(files: &[FileFacts]) -> CallGraph {
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let node = nodes.len();
                nodes.push((fi, gi));
                by_name.entry(f.name.as_str()).or_default().push(node);
            }
        }
        let fact = |n: usize, nodes: &[(usize, usize)]| -> &FnFact {
            let (fi, gi) = nodes[n];
            &files[fi].fns[gi]
        };
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for n in 0..nodes.len() {
            let (fi, _) = nodes[n];
            let caller = fact(n, &nodes);
            let mut out: BTreeSet<usize> = BTreeSet::new();
            for call in &caller.calls {
                let Some(candidates) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                match call.kind {
                    CallKind::Method => {
                        // `x.m()` must be a method: any workspace impl
                        // method of that name.
                        for &c in candidates {
                            if fact(c, &nodes).owner.is_some() {
                                out.insert(c);
                            }
                        }
                    }
                    CallKind::Path => {
                        let q = call.qualifier.as_deref();
                        for &c in candidates {
                            let cf = fact(c, &nodes);
                            let matches = match q {
                                None => false,
                                Some(q) => {
                                    cf.owner.as_deref() == Some(q)
                                        || cf.module_aliases.iter().any(|a| a == q)
                                }
                            };
                            if matches {
                                out.insert(c);
                            }
                        }
                    }
                    CallKind::Free => {
                        // Same-file candidates win; otherwise free
                        // functions anywhere.
                        let same_file: Vec<usize> = candidates
                            .iter()
                            .copied()
                            .filter(|&c| nodes[c].0 == fi)
                            .collect();
                        if same_file.is_empty() {
                            for &c in candidates {
                                if fact(c, &nodes).owner.is_none() {
                                    out.insert(c);
                                }
                            }
                        } else {
                            out.extend(same_file);
                        }
                    }
                }
            }
            out.remove(&n); // self-recursion adds nothing to taint
            edges[n] = out.into_iter().collect();
        }
        CallGraph { nodes, edges }
    }

    /// Run the taint pass: BFS from every entry-named function,
    /// reporting each banned site reachable from an entry exactly once
    /// (shortest chain wins). Returns findings plus the chains for the
    /// report.
    pub fn taint(&self, files: &[FileFacts], config: &Config) -> (Vec<Finding>, Vec<TaintChain>) {
        let fact = |n: usize| -> (&FileFacts, &FnFact) {
            let (fi, gi) = self.nodes[n];
            (&files[fi], &files[fi].fns[gi])
        };
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut visited: Vec<bool> = vec![false; self.nodes.len()];
        let mut entry_of: Vec<Option<usize>> = vec![None; self.nodes.len()];
        // Entries in deterministic order: nodes are already ordered by
        // (file, fn) position.
        for n in 0..self.nodes.len() {
            let (_, f) = fact(n);
            if config.taint_entries.iter().any(|e| e == &f.name) {
                visited[n] = true;
                entry_of[n] = Some(n);
                queue.push_back(n);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.edges[n] {
                if !visited[m] {
                    visited[m] = true;
                    parent[m] = Some(n);
                    entry_of[m] = entry_of[n];
                    queue.push_back(m);
                }
            }
        }

        let mut findings = Vec::new();
        let mut chains = Vec::new();
        let mut reported: BTreeSet<(String, u32, u32)> = BTreeSet::new();
        for n in 0..self.nodes.len() {
            if !visited[n] {
                continue;
            }
            let (file, f) = fact(n);
            if f.banned.is_empty() {
                continue;
            }
            // Reconstruct entry → … → offender.
            let mut chain: Vec<String> = Vec::new();
            let mut cur = Some(n);
            while let Some(c) = cur {
                chain.push(fact(c).1.qual.clone());
                cur = parent[c];
            }
            chain.reverse();
            let entry_name = entry_of[n]
                .map(|e| fact(e).1.qual.clone())
                .unwrap_or_default();
            for site in &f.banned {
                if !reported.insert((file.path.clone(), site.line, site.col)) {
                    continue;
                }
                findings.push(Finding {
                    path: file.path.clone(),
                    line: site.line,
                    col: site.col,
                    rule: Rule::GTaint,
                    message: format!(
                        "`{}` is reachable from determinism entry `{}` via {} — \
                         banned APIs must not feed digested bytes wherever they live",
                        site.api,
                        entry_name,
                        chain.join(" → ")
                    ),
                });
                chains.push(TaintChain {
                    file: file.path.clone(),
                    line: site.line,
                    col: site.col,
                    api: site.api.clone(),
                    chain: chain.clone(),
                });
            }
        }
        (findings, chains)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::tokenize;

    fn facts_for(path: &str, src: &str) -> FileFacts {
        let tokens = tokenize(src);
        let masked = vec![false; tokens.len()];
        let items = parse_items(&tokens);
        let (fns, use_deps) = extract_facts(path, &tokens, &masked, &items);
        FileFacts {
            path: path.to_string(),
            fns,
            use_deps,
            ..FileFacts::default()
        }
    }

    #[test]
    fn crate_of_path_handles_crates_and_facade() {
        assert_eq!(
            crate_of_path("crates/runtime/src/pool.rs").as_deref(),
            Some("runtime")
        );
        assert_eq!(crate_of_path("src/lib.rs").as_deref(), Some("biosim"));
        assert_eq!(crate_of_path("tests/integration.rs"), None);
    }

    #[test]
    fn call_sites_classify_free_path_method() {
        let f = facts_for(
            "crates/runtime/src/lib.rs",
            "fn caller() { helper(); Type::assoc(); value.method(); mac!(ignored()); }",
        );
        let calls = &f.fns[0].calls;
        let kinds: Vec<(CallKind, &str)> =
            calls.iter().map(|c| (c.kind, c.name.as_str())).collect();
        assert!(kinds.contains(&(CallKind::Free, "helper")), "{kinds:?}");
        assert!(kinds.contains(&(CallKind::Path, "assoc")), "{kinds:?}");
        assert!(kinds.contains(&(CallKind::Method, "method")), "{kinds:?}");
        // `ignored()` inside the macro args still counts (approximate),
        // but `mac` itself must not: it is a macro, not a call.
        assert!(!kinds.iter().any(|(_, n)| *n == "mac"), "{kinds:?}");
    }

    #[test]
    fn banned_sites_are_recorded_with_positions() {
        let f = facts_for(
            "crates/runtime/src/lib.rs",
            "fn t() { let m = HashMap::new(); let i = Instant::now(); }",
        );
        let apis: Vec<&str> = f.fns[0].banned.iter().map(|b| b.api.as_str()).collect();
        assert_eq!(apis, vec!["HashMap", "Instant::now"]);
    }

    #[test]
    fn taint_follows_two_hops_and_reports_the_chain() {
        let f = facts_for(
            "crates/faults/src/plan.rs",
            "pub fn digest() -> u64 { render() }\n\
             fn render() -> u64 { salt() }\n\
             fn salt() -> u64 { let t = std::time::Instant::now(); 0 }",
        );
        let files = vec![f];
        let graph = CallGraph::build(&files);
        let (findings, chains) = graph.taint(&files, &Config::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::GTaint);
        assert!(
            findings[0]
                .message
                .contains("digest → faults::render → faults::salt"),
            "{}",
            findings[0].message
        );
        assert_eq!(chains[0].api, "Instant::now");
    }

    #[test]
    fn taint_ignores_unreachable_banned_sites() {
        let f = facts_for(
            "crates/faults/src/plan.rs",
            "pub fn digest() -> u64 { 0 }\n\
             fn lonely() -> u64 { let t = std::time::Instant::now(); 0 }",
        );
        let files = vec![f];
        let graph = CallGraph::build(&files);
        let (findings, _) = graph.taint(&files, &Config::default());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn taint_crosses_files_via_method_calls() {
        let a = facts_for(
            "crates/gateway/src/lib.rs",
            "impl Report { pub fn digest(&self) -> u64 { self.helper.salted() } }",
        );
        let b = facts_for(
            "crates/faults/src/plan.rs",
            "impl Helper { pub fn salted(&self) -> u64 { let t = Instant::now(); 1 } }",
        );
        let files = vec![a, b];
        let graph = CallGraph::build(&files);
        let (findings, _) = graph.taint(&files, &Config::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].path, "crates/faults/src/plan.rs");
    }

    #[test]
    fn manifest_parsing_finds_bios_deps_with_lines() {
        let edges = parse_manifest(
            "crates/enzyme/Cargo.toml",
            "[package]\nname = \"bios-enzyme\"\n\n[dependencies]\n\
             bios-units = { workspace = true }\nbios-runtime = { workspace = true }\n\n\
             [dev-dependencies]\nbios-prng = { workspace = true }\n",
        );
        let tos: Vec<&str> = edges.iter().map(|e| e.to.as_str()).collect();
        assert_eq!(tos, vec!["units", "runtime"], "dev-deps are exempt");
        assert_eq!(edges[1].line, 6);
    }

    #[test]
    fn layering_and_leaf_violations_fire() {
        let config = Config::default();
        let edges = vec![
            DepEdge {
                from: "enzyme".into(),
                to: "runtime".into(),
                file: "crates/enzyme/Cargo.toml".into(),
                line: 5,
                col: 1,
            },
            DepEdge {
                from: "prng".into(),
                to: "units".into(),
                file: "crates/prng/Cargo.toml".into(),
                line: 7,
                col: 1,
            },
        ];
        let findings = layer_findings(&config, &edges);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("physics crate `enzyme`"));
        assert!(findings[1].message.contains("leaf-reachable"));
    }

    #[test]
    fn dependency_cycles_are_findings() {
        let config = Config::default();
        let mk = |from: &str, to: &str| DepEdge {
            from: from.into(),
            to: to.into(),
            file: format!("crates/{from}/Cargo.toml"),
            line: 5,
            col: 1,
        };
        let findings = layer_findings(&config, &[mk("gateway", "shard"), mk("shard", "gateway")]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("dependency cycle"),
            "{findings:?}"
        );
    }
}
