//! The per-file project rules, evaluated over one file's token stream.
//!
//! | ID | check |
//! |----|-------|
//! | L2 | atomic orderings come from the per-crate whitelist; `SeqCst` is always an error; CAS success/failure orderings follow the claim discipline |
//! | L4 | no truncating `as u32` / `as VertexId` casts outside `parallel::utils` |
//! | L7 | lock-order inversion across the crate's call graph (see [`crate::lockpass`]) |
//! | L8 | blocking call reached while a lock guard is live (see [`crate::lockpass`]) |
//! | W1 | a `// lint: allow(Lx)` waiver that suppresses no finding or names no rule |
//!
//! The numbers L1, L3, L5 and L6 are retired: their checks are the
//! standard lints each package's `[lints]` table sets (DESIGN.md §10).
//!
//! A rule can be waived on a specific line with
//! `// lint: allow(L4): why this is sound`, which the scanner records and
//! applies to the comment's own line and the line below it. Waivers are a
//! reviewed escape hatch: the reason is part of the comment grammar on
//! purpose — and a waiver that stops suppressing anything, or that names
//! a rule this linter does not have, is itself reported (`warning[W1]`),
//! so the escape hatches cannot silently outlive the code they excused.

use std::cell::Cell;

use crate::config;
use crate::lexer::{SpannedTok, Tok};

/// Lint rule identifiers (stable, used by fixtures and CI logs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Atomic ordering outside the per-crate whitelist.
    L2,
    /// Truncating `as u32`/`as VertexId` cast outside the checked helpers.
    L4,
    /// Two call paths acquire the same pair of locks in opposite order.
    L7,
    /// Blocking call reached while a lock guard is held.
    L8,
    /// Stale waiver: a `lint: allow` comment that suppresses nothing or
    /// names no rule.
    W1,
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RuleId::L2 => "L2",
            RuleId::L4 => "L4",
            RuleId::L7 => "L7",
            RuleId::L8 => "L8",
            RuleId::W1 => "W1",
        })
    }
}

/// Diagnostic severity. The `L*` rules are errors (the linter gates CI);
/// `W1` ships as `Warn` so the exit code keeps meaning "soundness
/// violation" — though the workspace self-check test still demands a
/// fully clean tree, warnings included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Warn,
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding: `file:line: severity[rule]: msg`.
#[derive(Debug, Clone)]
pub struct Diag {
    pub rule: RuleId,
    pub severity: Severity,
    pub file: String,
    pub line: u32,
    pub msg: String,
}

impl std::fmt::Display for Diag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}[{}]: {}", self.file, self.line, self.severity, self.rule, self.msg)
    }
}

/// How a file participates in the rule scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library/binary source: all rules in scope.
    Lib,
    /// Test source (a `tests/` or `benches/` tree): only the waiver
    /// check (W1) applies.
    Test,
}

/// One recorded `// lint: allow(Lx)` waiver. `used` flips when the waiver
/// actually suppresses a diagnostic; waivers still cold after every rule
/// (including the cross-file lock pass) has run are reported as `W1`, and
/// so is a waiver naming no rule (`rule` holds the name it gave).
struct Allow {
    line: u32,
    rule: Result<RuleId, String>,
    used: Cell<bool>,
}

/// Everything the rules need about one file.
pub struct FileCtx {
    /// Workspace-relative path used in diagnostics.
    pub path: String,
    /// Crate the file belongs to (`core`, `parallel`, …).
    pub crate_name: String,
    pub kind: FileKind,
    pub(crate) toks: Vec<SpannedTok>,
    /// Closed line ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_regions: Vec<(u32, u32)>,
    /// Waivers from `// lint: allow(...)` comments, with usage tracking.
    allows: Vec<Allow>,
}

impl FileCtx {
    pub fn new(path: &str, crate_name: &str, kind: FileKind, src: &str) -> FileCtx {
        let toks = crate::lexer::lex(src);
        let test_regions = find_test_regions(&toks);
        let allows = find_allows(&toks);
        FileCtx {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            toks,
            test_regions,
            allows,
        }
    }

    pub(crate) fn in_test_region(&self, line: u32) -> bool {
        self.kind == FileKind::Test
            || self.test_regions.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// True when `rule` is waived at `line` (the waiver sits on that line
    /// or the line above). Consulting a matching waiver marks it used.
    pub(crate) fn allowed(&self, line: u32, rule: RuleId) -> bool {
        let mut hit = false;
        for a in &self.allows {
            if a.rule == Ok(rule) && (a.line == line || a.line + 1 == line) {
                a.used.set(true);
                hit = true;
            }
        }
        hit
    }

    pub(crate) fn diag(&self, out: &mut Vec<Diag>, rule: RuleId, line: u32, msg: String) {
        if !self.allowed(line, rule) {
            out.push(Diag { rule, severity: Severity::Error, file: self.path.clone(), line, msg });
        }
    }
}

/// Emits `warning[W1]` for every waiver in `ctx` that suppressed nothing
/// or names no rule. Must run after every other rule — including the
/// cross-file lock pass — since those are what mark waivers used.
pub fn check_unused_waivers(ctx: &FileCtx, out: &mut Vec<Diag>) {
    for a in ctx.allows.iter().filter(|a| !a.used.get()) {
        let msg = match &a.rule {
            Ok(rule) => format!(
                "stale waiver: `lint: allow({rule})` suppresses no finding on this or the \
                 next line — remove it (or fix the drifted code it used to excuse)"
            ),
            Err(name) => format!(
                "waiver names `{name}`, which is no ligra-lint rule (L2, L4, L7, L8) — \
                 remove it; clippy and rustc lints take `#[allow(...)]`"
            ),
        };
        out.push(Diag {
            rule: RuleId::W1,
            severity: Severity::Warn,
            file: ctx.path.clone(),
            line: a.line,
            msg,
        });
    }
}

/// Runs every in-scope rule over the file.
pub fn check_file(ctx: &FileCtx) -> Vec<Diag> {
    let mut out = Vec::new();
    if ctx.kind == FileKind::Lib {
        rule_l2_orderings(ctx, &mut out);
        rule_l4_truncating_casts(ctx, &mut out);
    }
    out.sort_by_key(|d| (d.line, d.rule));
    out
}

/// Marks `{…}` bodies of items annotated `#[cfg(test)]` / `#[test]`
/// (or any `cfg(...)` mentioning `test`, e.g. `cfg(all(test, unix))`).
fn find_test_regions(toks: &[SpannedTok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(attr_end) = parse_attr(toks, i) {
            if attr_is_test(&toks[i..=attr_end]) {
                // Find the annotated item's opening brace (a `;` first
                // means a braceless item like `#[cfg(test)] use x;`).
                let mut j = attr_end + 1;
                let mut open = None;
                while j < toks.len() {
                    match &toks[j].tok {
                        Tok::Punct('{') => {
                            open = Some(j);
                            break;
                        }
                        Tok::Punct(';') => break,
                        _ => j += 1,
                    }
                }
                if let Some(open) = open {
                    let close = matching_brace(toks, open);
                    regions.push((toks[i].line, toks[close].line));
                    i = close + 1;
                    continue;
                }
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    regions
}

/// If `toks[i]` starts an attribute (`#[…]` or `#![…]`), returns the index
/// of its closing `]`.
fn parse_attr(toks: &[SpannedTok], i: usize) -> Option<usize> {
    if toks.get(i).map(|t| &t.tok) != Some(&Tok::Punct('#')) {
        return None;
    }
    let mut j = i + 1;
    if toks.get(j).map(|t| &t.tok) == Some(&Tok::Punct('!')) {
        j += 1;
    }
    if toks.get(j).map(|t| &t.tok) != Some(&Tok::Punct('[')) {
        return None;
    }
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(j) {
        match t.tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

fn attr_is_test(attr: &[SpannedTok]) -> bool {
    let idents: Vec<&str> = attr
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => idents.contains(&"test"),
        _ => false,
    }
}

/// Index of the `}` matching the `{` at `open` (or the last token if the
/// file is truncated mid-item).
fn matching_brace(toks: &[SpannedTok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len() - 1
}

/// Collects `// lint: allow(L4)` / `// lint: allow(L2, L4): reason`
/// waivers. Only plain (non-doc) comments whose text *starts* with the
/// waiver grammar count: doc comments and prose that merely mention the
/// syntax (this file does, several times) are not waivers.
fn find_allows(toks: &[SpannedTok]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in toks {
        let text = match &t.tok {
            Tok::LineComment { doc: false, text } | Tok::BlockComment { doc: false, text } => text,
            _ => continue,
        };
        let trimmed = text.trim_start();
        let Some(rest) = trimmed.strip_prefix("lint: allow(") else { continue };
        let Some(end) = rest.find(')') else { continue };
        for name in rest[..end].split(',').map(str::trim) {
            let rule = match name {
                "L2" => Ok(RuleId::L2),
                "L4" => Ok(RuleId::L4),
                "L7" => Ok(RuleId::L7),
                "L8" => Ok(RuleId::L8),
                _ => Err(name.to_string()),
            };
            out.push(Allow { line: t.line, rule, used: Cell::new(false) });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L2: ordering whitelist + CAS discipline
// ---------------------------------------------------------------------------

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Ordering idents named at `Ordering::X` or `Ordering::{X, Y}` positions,
/// with their token indices.
fn ordering_uses(toks: &[SpannedTok]) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 3 < toks.len() {
        let is_path = matches!(&toks[i].tok, Tok::Ident(s) if s == "Ordering")
            && toks[i + 1].tok == Tok::Punct(':')
            && toks[i + 2].tok == Tok::Punct(':');
        if !is_path {
            i += 1;
            continue;
        }
        match &toks[i + 3].tok {
            Tok::Ident(s) if ATOMIC_ORDERINGS.contains(&s.as_str()) => {
                out.push((i + 3, s.as_str()));
                i += 4;
            }
            Tok::Punct('{') => {
                // `use …::Ordering::{Acquire, Release}`
                let mut j = i + 4;
                while j < toks.len() && toks[j].tok != Tok::Punct('}') {
                    if let Tok::Ident(s) = &toks[j].tok {
                        if ATOMIC_ORDERINGS.contains(&s.as_str()) {
                            out.push((j, s.as_str()));
                        }
                    }
                    j += 1;
                }
                i = j;
            }
            _ => i += 4,
        }
    }
    out
}

fn rule_l2_orderings(ctx: &FileCtx, out: &mut Vec<Diag>) {
    let uses = ordering_uses(&ctx.toks);
    let allowed = config::allowed_orderings(&ctx.crate_name);
    for &(idx, ord) in &uses {
        let line = ctx.toks[idx].line;
        if ctx.in_test_region(line) {
            continue;
        }
        if ord == "SeqCst" {
            ctx.diag(
                out,
                RuleId::L2,
                line,
                "Ordering::SeqCst is banned: Ligra synchronization is point-to-point \
                 (CAS claims / published flags); use AcqRel/Acquire/Release and document \
                 the protocol"
                    .to_string(),
            );
            continue;
        }
        match allowed {
            Some(list) if list.contains(&ord) => {}
            Some(_) => ctx.diag(
                out,
                RuleId::L2,
                line,
                format!(
                    "Ordering::{ord} is not in crate `{}`'s ordering whitelist \
                     (see ligra-lint config.rs / DESIGN.md §10)",
                    ctx.crate_name
                ),
            ),
            None => ctx.diag(
                out,
                RuleId::L2,
                line,
                format!(
                    "crate `{}` has no entry in the ordering whitelist; add one to \
                     ligra-lint's config.rs",
                    ctx.crate_name
                ),
            ),
        }
    }
    rule_l2_cas_discipline(ctx, out);
}

/// Checks explicit success/failure orderings of `compare_exchange[_weak]`
/// and `fetch_update` calls. Calls whose orderings are not literal
/// `Ordering::X` paths (e.g. passed through a variable) are skipped —
/// the whitelist above still constrains whatever they name.
fn rule_l2_cas_discipline(ctx: &FileCtx, out: &mut Vec<Diag>) {
    const CAS_FNS: &[&str] = &["compare_exchange", "compare_exchange_weak", "fetch_update"];
    for (i, t) in ctx.toks.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        if !CAS_FNS.contains(&name.as_str()) {
            continue;
        }
        if ctx.toks.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct('(')) {
            continue;
        }
        let line = t.line;
        if ctx.in_test_region(line) {
            continue;
        }
        // Scan the balanced argument list for ordering literals.
        let mut depth = 0i32;
        let mut orderings: Vec<&str> = Vec::new();
        let mut j = i + 1;
        while j < ctx.toks.len() {
            match &ctx.toks[j].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(s)
                    if ATOMIC_ORDERINGS.contains(&s.as_str())
                        && j >= 2
                        && ctx.toks[j - 1].tok == Tok::Punct(':')
                        && ctx.toks[j - 2].tok == Tok::Punct(':') =>
                {
                    orderings.push(s.as_str());
                }
                _ => {}
            }
            j += 1;
        }
        if orderings.len() != 2 {
            continue;
        }
        // For compare_exchange*: (success, failure). For fetch_update the
        // slots are (set_order, fetch_order) — same discipline: the write
        // side publishes, the read side observes.
        let (success, failure) = (orderings[0], orderings[1]);
        let relaxed_ok = success == "Relaxed"
            && config::CAS_RELAXED_SUCCESS_FILES.iter().any(|f| ctx.path.ends_with(f));
        if !config::CAS_SUCCESS_ALLOWED.contains(&success) && !relaxed_ok {
            ctx.diag(
                out,
                RuleId::L2,
                line,
                format!(
                    "{name} success ordering {success} violates the claim discipline \
                     (want AcqRel, or Acquire for read-only winners)"
                ),
            );
        }
        if !config::CAS_FAILURE_ALLOWED.contains(&failure) {
            ctx.diag(
                out,
                RuleId::L2,
                line,
                format!(
                    "{name} failure ordering {failure} violates the claim discipline \
                     (a failed claim only observes: want Acquire or Relaxed)"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// L4: truncating casts go through the checked helpers
// ---------------------------------------------------------------------------

fn rule_l4_truncating_casts(ctx: &FileCtx, out: &mut Vec<Diag>) {
    if !config::NO_TRUNCATING_CAST_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    if config::CAST_HELPER_FILES.iter().any(|f| ctx.path.ends_with(f)) {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        let is_as = matches!(&t.tok, Tok::Ident(s) if s == "as");
        if !is_as {
            continue;
        }
        let Some(next) = ctx.toks.get(i + 1) else { continue };
        let target = match &next.tok {
            Tok::Ident(s) if s == "u32" || s == "VertexId" => s.as_str(),
            _ => continue,
        };
        let line = t.line;
        if ctx.in_test_region(line) {
            continue;
        }
        ctx.diag(
            out,
            RuleId::L4,
            line,
            format!(
                "truncating `as {target}` cast on an ID-sized value: use \
                 `parallel::utils::checked_u32`/`word_base` (asserting) instead"
            ),
        );
    }
}
