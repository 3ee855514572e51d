//! The whole-workspace semantic pipeline.
//!
//! Single files are still auditable in isolation
//! ([`crate::rules::audit_source`]), but the G-family rules need every
//! file at once: the taint pass follows calls across crates and the
//! layer pass reads every manifest. This module runs the full
//! pipeline:
//!
//! 1. walk the tree ([`crate::walk`]);
//! 2. analyze every file into its [`crate::graph::FileFacts`]
//!    ([`crate::rules::analyze_file`]);
//! 3. parse every crate manifest and run the G-layer checks;
//! 4. build the approximate call graph and run the G-taint pass;
//! 5. apply waivers to the *combined* finding set — a waiver next to a
//!    banned token suppresses the G-taint finding anchored there just
//!    like a local D finding — and sort into report order.

use crate::config::Config;
use crate::graph::{self, FileFacts, TaintChain};
use crate::rules::{self, Finding, WaiverRecord};
use crate::walk;
use std::path::Path;

/// Everything one workspace audit run produced.
#[derive(Debug, Default)]
pub struct WorkspaceOutcome {
    /// Findings surviving waiver application, in report order.
    pub findings: Vec<Finding>,
    /// Every waiver encountered, used or not.
    pub waivers: Vec<WaiverRecord>,
    /// Call chains backing the G-taint findings, for the report.
    pub chains: Vec<TaintChain>,
    /// Number of `.rs` files audited.
    pub files_scanned: usize,
}

/// Run the full semantic audit over the workspace at `root`.
pub fn audit_workspace(root: &Path, config: &Config) -> Result<WorkspaceOutcome, String> {
    let files = walk::collect_sources(root).map_err(|e| e.to_string())?;
    let mut facts: Vec<FileFacts> = Vec::with_capacity(files.len());
    for file in &files {
        let source =
            std::fs::read_to_string(file).map_err(|e| format!("read {}: {e}", file.display()))?;
        let label = walk::display_path(root, file);
        facts.push(rules::analyze_file(&label, &source, config));
    }

    // G-layer: manifests + in-source crate references.
    let mut manifest_edges = Vec::new();
    for manifest in walk::collect_manifests(root).map_err(|e| e.to_string())? {
        let content = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("read {}: {e}", manifest.display()))?;
        let label = walk::display_path(root, &manifest);
        manifest_edges.extend(graph::parse_manifest(&label, &content));
    }
    let edges = graph::dep_edges(&manifest_edges, &facts);
    let mut findings: Vec<Finding> = graph::layer_findings(config, &edges);

    // G-taint: approximate call graph, BFS from the entry points.
    let call_graph = graph::CallGraph::build(&facts);
    let (taint_findings, chains) = call_graph.taint(&facts, config);
    findings.extend(taint_findings);

    // Local findings + global waiver application.
    let mut waivers: Vec<WaiverRecord> = Vec::new();
    for f in &facts {
        findings.extend(f.local_findings.iter().cloned());
        waivers.extend(f.waivers.iter().cloned());
    }
    rules::finalize(&mut findings, &mut waivers);

    // Chains whose finding was waived away stay out of the report.
    let survived: std::collections::BTreeSet<(String, u32, u32)> = findings
        .iter()
        .filter(|f| f.rule == crate::config::Rule::GTaint)
        .map(|f| (f.path.clone(), f.line, f.col))
        .collect();
    let chains: Vec<TaintChain> = chains
        .into_iter()
        .filter(|c| survived.contains(&(c.file.clone(), c.line, c.col)))
        .collect();

    Ok(WorkspaceOutcome {
        findings,
        waivers,
        chains,
        files_scanned: files.len(),
    })
}
