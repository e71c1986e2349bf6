//! Workspace automation for the leakage-NoC repo. The one task so far
//! is the determinism/soundness lint:
//!
//! ```text
//! cargo run -p xtask -- lint
//! ```
//!
//! The rules and the waiver syntax are documented in [`rules`]; which
//! rule applies where is decided by [`rule_scope`] below. Vendored
//! crates, build output, and the lint's own test fixtures are never
//! walked.

#![deny(unsafe_code)]

pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

pub use rules::{Finding, WaiverRecord, RULES};

/// The waiver meta-rules, always enabled.
const META_RULES: &[&str] = &[
    "waiver-needs-reason",
    "waiver-unknown-rule",
    "waiver-unused",
];

/// Decides whether a content rule applies to a file, by
/// workspace-relative path (forward slashes).
///
/// Scopes, with their rationale:
/// * `hash-iter` — simulation/characterization result paths
///   (`netsim`, `circuit`, `core`): anything order-dependent there
///   changes published numbers.
/// * `wall-clock` — kernel code (`netsim`, `circuit`); `crates/bench`
///   exists precisely to hold the timing.
/// * `atomic-outside-facade` — everywhere except the facade itself
///   (`crates/netsim/src/sync/`), which is the one audited,
///   model-checked home for atomics.
/// * `relaxed-needs-waiver` — everywhere except the facade's shadow
///   instrumentation (`sync/shadow.rs`, `sync/model.rs`): the mirror
///   writes there are serialized by the explorer's global lock, and
///   the *modeled* orderings are what the checker exercises.
/// * `unsafe-needs-safety` — everywhere.
/// * `float-into-stats` — `netsim` except `stats.rs`, whose
///   `NetworkStats::append` is the one sanctioned (explicitly ordered)
///   reduction path.
pub fn rule_scope(rule: &str, rel: &str) -> bool {
    let netsim = rel.starts_with("crates/netsim/src");
    let kernel = netsim || rel.starts_with("crates/circuit/src");
    match rule {
        "hash-iter" => kernel || rel.starts_with("crates/core/src"),
        "wall-clock" => kernel,
        "atomic-outside-facade" => !rel.starts_with("crates/netsim/src/sync"),
        "relaxed-needs-waiver" => {
            rel != "crates/netsim/src/sync/shadow.rs" && rel != "crates/netsim/src/sync/model.rs"
        }
        "unsafe-needs-safety" => true,
        "float-into-stats" => netsim && rel != "crates/netsim/src/stats.rs",
        _ => false,
    }
}

/// Lints one file's source, scoped by its workspace-relative path.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let enabled: Vec<&'static str> = RULES
        .iter()
        .copied()
        .filter(|r| !META_RULES.contains(r) && rule_scope(r, rel))
        .collect();
    rules::run(&lexer::lex(src), &enabled)
}

/// Directories never walked: vendored crates (external idiom, their
/// own rules), build output, VCS metadata, generated artifacts, and
/// the lint's own deliberately-bad fixtures.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "out", "fixtures"];

/// Walks every `.rs` file under `root` (sorted, so output order — and
/// therefore CI logs — are deterministic) and lints each in scope.
/// Returns `(files_linted, findings)`; findings carry
/// workspace-relative paths.
pub fn lint_workspace(root: &Path) -> (usize, Vec<(String, Finding)>) {
    let mut files = Vec::new();
    collect_rs(root, &mut files);
    files.sort();
    let mut findings = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = std::fs::read_to_string(f) else {
            continue;
        };
        for finding in lint_source(&rel, &src) {
            findings.push((rel.clone(), finding));
        }
    }
    (files.len(), findings)
}

/// Walks the same files as [`lint_workspace`] and inventories every
/// `lint:allow` waiver instead of enforcing rules. Returns
/// `(files_walked, records)`; records carry workspace-relative paths
/// and are sorted by path then line, so the audit output is a stable,
/// reviewable list of every escape hatch in the workspace.
pub fn audit_waivers(root: &Path) -> (usize, Vec<(String, WaiverRecord)>) {
    let mut files = Vec::new();
    collect_rs(root, &mut files);
    files.sort();
    let mut records = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = std::fs::read_to_string(f) else {
            continue;
        };
        for record in rules::list_waivers(&lexer::lex(&src)) {
            records.push((rel.clone(), record));
        }
    }
    (files.len(), records)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}
