//! The lint rule engine: six determinism/soundness rules, inline
//! waivers, and the waiver meta-rules.
//!
//! ## Waiver syntax
//!
//! ```text
//! // lint:allow(rule-a, rule-b) -- why this occurrence is sound
//! ```
//!
//! A waiver comment applies to the first following non-comment source
//! line (plus one continuation line, so rustfmt line breaks cannot
//! silently detach it); a trailing waiver applies to its own line.
//! Every waiver must carry a `-- reason` (enforced by
//! `waiver-needs-reason`), must name known rules
//! (`waiver-unknown-rule`), and must actually suppress something
//! (`waiver-unused`) — dead waivers rot into false documentation.

use crate::lexer::{Comment, Lexed, Tok, TokKind};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired (one of [`RULES`]).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Every rule the engine knows, content rules first, then the waiver
/// meta-rules (which cannot themselves be waived).
pub const RULES: &[&str] = &[
    "hash-iter",
    "wall-clock",
    "atomic-outside-facade",
    "relaxed-needs-waiver",
    "unsafe-needs-safety",
    "float-into-stats",
    "waiver-needs-reason",
    "waiver-unknown-rule",
    "waiver-unused",
];

/// A parsed `lint:allow` waiver.
#[derive(Debug)]
struct Waiver {
    rules: Vec<String>,
    reason: Option<String>,
    comment_line: u32,
    /// First source line the waiver covers (it also covers the next
    /// line, see module docs); `None` when no code follows.
    applies_line: Option<u32>,
    used: bool,
}

/// One waiver as the audit sees it: where it sits, which rules it
/// suppresses, and the justification its author gave. Produced by
/// [`list_waivers`] so `cargo run -p xtask -- audit-waivers` can print
/// the workspace's complete escape-hatch inventory for review.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverRecord {
    /// Line of the `lint:allow` comment itself.
    pub line: u32,
    /// Rule names the waiver suppresses, as written.
    pub rules: Vec<String>,
    /// The `-- reason` text, if any (its absence is a lint finding).
    pub reason: Option<String>,
}

/// Lists every `lint:allow` waiver in a lexed file, reusing the exact
/// parse the lint itself suppresses findings with — the audit can
/// never disagree with the enforcement about what counts as a waiver.
pub fn list_waivers(lexed: &Lexed) -> Vec<WaiverRecord> {
    parse_waivers(lexed)
        .into_iter()
        .map(|w| WaiverRecord {
            line: w.comment_line,
            rules: w.rules,
            reason: w.reason,
        })
        .collect()
}

impl Waiver {
    fn covers(&self, line: u32) -> bool {
        self.applies_line
            .is_some_and(|a| line == a || line == a + 1)
    }
}

fn parse_waivers(lexed: &Lexed) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        // Waivers live in plain comments only: doc comments (`///`,
        // `//!`) are rendered documentation, where `lint:allow` can
        // legitimately appear as prose (e.g. the syntax example above).
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("lint:allow(") {
            rest = &rest[pos + "lint:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let rules: Vec<String> = rest[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            let after = rest[close + 1..].trim_start();
            let reason = after
                .strip_prefix("--")
                .map(str::trim)
                .filter(|r| !r.is_empty())
                .map(str::to_string);
            out.push(Waiver {
                rules,
                reason,
                comment_line: c.line,
                applies_line: waiver_target(c, lexed),
                used: false,
            });
            rest = &rest[close + 1..];
        }
    }
    out
}

/// The line a waiver comment covers: its own line if code precedes it
/// there (trailing comment), otherwise the first token line after it.
fn waiver_target(c: &Comment, lexed: &Lexed) -> Option<u32> {
    if lexed.toks.iter().any(|t| t.line == c.line) {
        return Some(c.line);
    }
    lexed.toks.iter().map(|t| t.line).find(|&l| l > c.end_line)
}

/// Runs `enabled` content rules plus the meta-rules over a lexed
/// file. Findings covered by a matching waiver are suppressed (and
/// the waiver is marked used).
pub fn run(lexed: &Lexed, enabled: &[&'static str]) -> Vec<Finding> {
    let mut waivers = parse_waivers(lexed);
    let mut raw: Vec<Finding> = Vec::new();
    for &rule in enabled {
        match rule {
            "hash-iter" => hash_iter(lexed, &mut raw),
            "wall-clock" => wall_clock(lexed, &mut raw),
            "atomic-outside-facade" => atomic_outside_facade(lexed, &mut raw),
            "relaxed-needs-waiver" => relaxed_needs_waiver(lexed, &mut raw),
            "unsafe-needs-safety" => unsafe_needs_safety(lexed, &mut raw),
            "float-into-stats" => float_into_stats(lexed, &mut raw),
            other => unreachable!("unknown rule {other}"),
        }
    }
    let mut out = Vec::new();
    for f in raw {
        let mut suppressed = false;
        for w in waivers.iter_mut() {
            if w.covers(f.line) && w.rules.iter().any(|r| r == f.rule) {
                w.used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(f);
        }
    }
    for w in &waivers {
        if w.reason.is_none() {
            out.push(Finding {
                rule: "waiver-needs-reason",
                line: w.comment_line,
                message: "waiver lacks a `-- reason` justification".into(),
            });
        }
        let unknown: Vec<&String> = w
            .rules
            .iter()
            .filter(|r| !RULES.contains(&r.as_str()))
            .collect();
        if let Some(u) = unknown.first() {
            out.push(Finding {
                rule: "waiver-unknown-rule",
                line: w.comment_line,
                message: format!("waiver names unknown rule `{u}`"),
            });
        } else if !w.used {
            out.push(Finding {
                rule: "waiver-unused",
                line: w.comment_line,
                message: "waiver suppresses nothing — remove it".into(),
            });
        }
    }
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

fn ident(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

fn any_ident(toks: &[Tok], i: usize, names: &[&str]) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && names.contains(&t.text.as_str()))
}

fn punct(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokKind::Punct(c))
}

fn path_sep(toks: &[Tok], i: usize) -> bool {
    punct(toks, i, ':') && punct(toks, i + 1, ':')
}

/// Methods whose call on a `HashMap`/`HashSet` visits entries in
/// nondeterministic order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// `hash-iter`: iteration over a `HashMap`/`HashSet` in a simulation
/// path. The iteration order is randomized per process, so anything
/// order-dependent downstream (output vectors, accumulation order,
/// tie-breaking) silently loses determinism. Detection is lexical:
/// names bound to a hash type in this file (`x: HashMap<…>`,
/// `let x = HashSet::new()`), then flagged at `x.iter()`-family calls
/// and `for … in &x` loops.
fn hash_iter(lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    let mut bound: Vec<&str> = Vec::new();
    for i in 0..toks.len() {
        if !any_ident(toks, i, &["HashMap", "HashSet"]) {
            continue;
        }
        // Walk back over a leading path (`std::collections::HashMap`).
        let mut start = i;
        while start >= 3 && path_sep(toks, start - 2) && toks[start - 3].kind == TokKind::Ident {
            start -= 3;
        }
        // `name: HashMap<…>` (field, param, or annotated let)…
        if start >= 2
            && punct(toks, start - 1, ':')
            && !punct(toks, start - 2, ':')
            && toks[start - 2].kind == TokKind::Ident
        {
            bound.push(&toks[start - 2].text);
        // …or `let name = HashMap::new()`.
        } else if start >= 2
            && punct(toks, start - 1, '=')
            && toks[start - 2].kind == TokKind::Ident
        {
            bound.push(&toks[start - 2].text);
        }
    }
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !bound.contains(&t.text.as_str()) {
            continue;
        }
        // `x.iter()` family.
        if punct(toks, i + 1, '.')
            && any_ident(toks, i + 2, ITER_METHODS)
            && punct(toks, i + 3, '(')
        {
            out.push(Finding {
                rule: "hash-iter",
                line: t.line,
                message: format!(
                    "iteration over hash-ordered `{}` — per-process random order breaks \
                     determinism; use a BTreeMap/BTreeSet or sort first",
                    t.text
                ),
            });
        }
        // `for pat in [&[mut]] x {`.
        let mut j = i;
        while j >= 1 && (punct(toks, j - 1, '&') || ident(toks, j - 1, "mut")) {
            j -= 1;
        }
        if j >= 1 && ident(toks, j - 1, "in") && punct(toks, i + 1, '{') {
            out.push(Finding {
                rule: "hash-iter",
                line: t.line,
                message: format!(
                    "for-loop over hash-ordered `{}` — per-process random order breaks \
                     determinism; use a BTreeMap/BTreeSet or sort first",
                    t.text
                ),
            });
        }
    }
}

/// `wall-clock`: nondeterministic time or entropy sources inside
/// kernel code. Simulation behavior must be a function of the config
/// and seed alone — timing belongs in `crates/bench`.
fn wall_clock(lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if ident(toks, i, "Instant") && path_sep(toks, i + 1) && ident(toks, i + 3, "now") {
            out.push(Finding {
                rule: "wall-clock",
                line: toks[i].line,
                message: "`Instant::now` in kernel code — wall-clock reads make runs \
                          irreproducible; timing belongs in crates/bench"
                    .into(),
            });
        }
        if ident(toks, i, "SystemTime") {
            out.push(Finding {
                rule: "wall-clock",
                line: toks[i].line,
                message: "`SystemTime` in kernel code — wall-clock reads make runs \
                          irreproducible"
                    .into(),
            });
        }
        if ident(toks, i, "thread_rng") {
            out.push(Finding {
                rule: "wall-clock",
                line: toks[i].line,
                message: "`thread_rng` in kernel code — OS entropy breaks seeded \
                          reproducibility; use the run's seeded StdRng"
                    .into(),
            });
        }
    }
}

/// `atomic-outside-facade`: any mention of `std::sync::atomic` outside
/// `crates/netsim/src/sync/`. Atomics routed through the facade are
/// auditable and model-checkable; a stray atomic elsewhere is
/// unordered concurrency the tooling cannot see.
fn atomic_outside_facade(lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if ident(toks, i, "sync") && path_sep(toks, i + 1) && ident(toks, i + 3, "atomic") {
            out.push(Finding {
                rule: "atomic-outside-facade",
                line: toks[i].line,
                message: "`std::sync::atomic` referenced outside the `netsim::sync` facade — \
                          route atomics through the facade so they are audited and \
                          model-checked"
                    .into(),
            });
        }
    }
}

/// `relaxed-needs-waiver`: every `Ordering::Relaxed` must carry a
/// waiver whose reason names the invariant making relaxed sufficient
/// (a happens-before edge established elsewhere, a coherence-only
/// argument, …). Unjustified relaxed orderings are where torn
/// protocols hide.
fn relaxed_needs_waiver(lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if ident(toks, i, "Ordering") && path_sep(toks, i + 1) && ident(toks, i + 3, "Relaxed") {
            out.push(Finding {
                rule: "relaxed-needs-waiver",
                line: toks[i + 3].line,
                message: "`Ordering::Relaxed` without a justification waiver — state the \
                          invariant that makes relaxed sufficient via \
                          `// lint:allow(relaxed-needs-waiver) -- reason`"
                    .into(),
            });
        }
    }
}

/// `unsafe-needs-safety`: every `unsafe` occurrence (block, fn, impl)
/// needs a `// SAFETY:` comment on the same line or within the three
/// lines above it.
fn unsafe_needs_safety(lexed: &Lexed, out: &mut Vec<Finding>) {
    for t in &lexed.toks {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        let justified = lexed
            .comments
            .iter()
            .any(|c| c.text.contains("SAFETY:") && c.line <= t.line && c.end_line + 3 >= t.line);
        if !justified {
            out.push(Finding {
                rule: "unsafe-needs-safety",
                line: t.line,
                message: "`unsafe` without a `// SAFETY:` comment stating the proof \
                          obligation"
                    .into(),
            });
        }
    }
}

/// `float-into-stats`: compound float accumulation (`x += …`,
/// `x = x + …`) in simulation paths. Float addition is not
/// associative, so accumulation order changes results across kernels
/// and shard counts — statistics must accumulate in integers (or via
/// the explicitly-ordered `NetworkStats::append` reduction).
/// Detection: names annotated `f32`/`f64` in this file, flagged at
/// compound-assignment sites.
fn float_into_stats(lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    let mut floats: Vec<&str> = Vec::new();
    for i in 0..toks.len() {
        if !any_ident(toks, i, &["f32", "f64"]) {
            continue;
        }
        // `name: [&][mut] f64`.
        let mut j = i;
        while j >= 1 && (punct(toks, j - 1, '&') || ident(toks, j - 1, "mut")) {
            j -= 1;
        }
        if j >= 2
            && punct(toks, j - 1, ':')
            && !punct(toks, j - 2, ':')
            && toks[j - 2].kind == TokKind::Ident
        {
            floats.push(&toks[j - 2].text);
        }
    }
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !floats.contains(&t.text.as_str()) {
            continue;
        }
        let compound = ['+', '-', '*', '/']
            .iter()
            .any(|&op| punct(toks, i + 1, op) && punct(toks, i + 2, '='));
        let self_add = punct(toks, i + 1, '=')
            && !punct(toks, i + 2, '=')
            && ident(toks, i + 2, &t.text)
            && punct(toks, i + 3, '+');
        if compound || self_add {
            out.push(Finding {
                rule: "float-into-stats",
                line: t.line,
                message: format!(
                    "float accumulation into `{}` — non-associative adds make results \
                     depend on reduction order; accumulate in integers or go through \
                     the deterministic merge path",
                    t.text
                ),
            });
        }
    }
}
