//! `ligra-lint`: project-specific concurrency-soundness lints.
//!
//! A dependency-free static analyzer for the Ligra workspace. It lexes
//! every `.rs` file with a hand-rolled, comment/string-aware scanner (no
//! `syn`, so it builds offline before any vendored-stub machinery) and
//! enforces the project rules no standard lint checks, described in
//! [`rules`] and DESIGN.md §10/§15: the per-file rules L2 (atomic
//! orderings) and L4 (truncating ID casts), the interprocedural
//! lock-discipline rules L7/L8 ([`lockpass`]), and the waiver warning W1.
//! `SAFETY:` comments, bare unwraps, doc coverage and panicking macros
//! are clippy and rustc lints, set in each package's `[lints]` table. Run
//! it as:
//!
//! ```text
//! cargo run -p ligra-lint -- --workspace
//! ```
//!
//! Exit code 0 means no errors (W1 warnings are still printed); 1 means
//! violations were printed (one `file:line: severity[Lx]: …` per line);
//! 2 means the linter itself failed (I/O, bad arguments).

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod config;
pub mod lexer;
pub mod lockpass;
pub mod rules;

pub use rules::{check_file, check_unused_waivers, Diag, FileCtx, FileKind, RuleId, Severity};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lints one source string as if it lived at `path` in `crate_name`,
/// treating the file as a complete one-file crate: the per-file rules,
/// the lock pass (for library files), and the stale-waiver sweep all
/// run. Fixture tests call this directly; [`lint_workspace`] runs the
/// same phases with whole-crate scope.
pub fn lint_source(path: &str, crate_name: &str, kind: FileKind, src: &str) -> Vec<Diag> {
    let ctx = FileCtx::new(path, crate_name, kind, src);
    let mut diags = check_file(&ctx);
    if kind == FileKind::Lib {
        lockpass::check_crate(&[&ctx], &mut diags);
    }
    check_unused_waivers(&ctx, &mut diags);
    diags.sort_by_key(|d| (d.line, d.rule));
    diags
}

/// Walks the workspace rooted at `root` and lints every classified `.rs`
/// file: per-file rules first, then the per-crate lock pass over each
/// crate's library files (L7/L8 are properties of call paths, not single
/// files), then the unused-waiver sweep — which must come last, since
/// only a waiver no rule consumed is stale. Diagnostics come back sorted
/// by (file, line, rule).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diag>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut ctxs: Vec<FileCtx> = Vec::new();
    for rel in &files {
        let Some((crate_name, kind)) = classify(rel) else { continue };
        let src = fs::read_to_string(root.join(rel))?;
        let label = rel.to_string_lossy().replace('\\', "/");
        ctxs.push(FileCtx::new(&label, &crate_name, kind, &src));
    }
    let mut diags = Vec::new();
    for ctx in &ctxs {
        diags.extend(check_file(ctx));
    }
    let mut crate_names: Vec<&str> = ctxs.iter().map(|c| c.crate_name.as_str()).collect();
    crate_names.sort_unstable();
    crate_names.dedup();
    for name in crate_names {
        let group: Vec<&FileCtx> =
            ctxs.iter().filter(|c| c.crate_name == name && c.kind == FileKind::Lib).collect();
        if !group.is_empty() {
            lockpass::check_crate(&group, &mut diags);
        }
    }
    for ctx in &ctxs {
        check_unused_waivers(ctx, &mut diags);
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(diags)
}

/// Recursively collects workspace-relative `.rs` paths, skipping trees
/// the lints never apply to (vendored stubs, build output, VCS metadata,
/// and the linter's own deliberately-violating fixtures).
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "vendor" | "target" | ".git" | "fixtures") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).map_err(io::Error::other)?;
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

/// Maps a workspace-relative path to `(crate_name, kind)`, or `None` for
/// files the linter ignores.
///
/// * `crates/<name>/src/**` → that crate, [`FileKind::Lib`]
/// * `crates/<name>/{tests,benches}/**` → that crate, [`FileKind::Test`]
/// * `examples/**` → crate `examples` (`src` is Lib, the rest Test)
/// * `tests/**` (the workspace integration-test package) → crate `tests`,
///   always [`FileKind::Test`]
pub fn classify(rel: &Path) -> Option<(String, FileKind)> {
    let parts: Vec<String> =
        rel.components().map(|c| c.as_os_str().to_string_lossy().into_owned()).collect();
    match parts.first().map(String::as_str) {
        Some("crates") => {
            let crate_name = parts.get(1)?.clone();
            match parts.get(2).map(String::as_str) {
                Some("src") => Some((crate_name, FileKind::Lib)),
                Some("tests") | Some("benches") => Some((crate_name, FileKind::Test)),
                _ => None,
            }
        }
        Some("examples") => {
            let kind = if parts.get(1).map(String::as_str) == Some("src") {
                FileKind::Lib
            } else {
                FileKind::Test
            };
            Some(("examples".to_string(), kind))
        }
        Some("tests") => Some(("tests".to_string(), FileKind::Test)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        let c = |p: &str| classify(Path::new(p));
        assert_eq!(c("crates/core/src/edge_map.rs"), Some(("core".into(), FileKind::Lib)));
        assert_eq!(c("crates/bench/src/bin/ligraplus.rs"), Some(("bench".into(), FileKind::Lib)));
        assert_eq!(c("crates/lint/tests/fixtures.rs"), Some(("lint".into(), FileKind::Test)));
        assert_eq!(c("tests/tests/engine.rs"), Some(("tests".into(), FileKind::Test)));
        assert_eq!(c("examples/src/lib.rs"), Some(("examples".into(), FileKind::Lib)));
        assert_eq!(c("Cargo.toml"), None);
        assert_eq!(c("crates/core/Cargo.toml"), None);
    }

    #[test]
    fn lint_source_flags_and_waives() {
        let bad = "pub fn f(x: u64) -> u32 { x as u32 }\n";
        let diags = lint_source("x.rs", "graph", FileKind::Lib, bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::L4);
        assert_eq!(diags[0].line, 1);

        let waived =
            "// lint: allow(L4): bounded by caller\npub fn f(x: u64) -> u32 { x as u32 }\n";
        assert!(lint_source("x.rs", "graph", FileKind::Lib, waived).is_empty());
    }
}
