//! The linter's acceptance gate on itself: the real workspace tree must
//! lint clean. This is the same check CI runs via
//! `cargo run -p ligra-lint -- --workspace`.

#![allow(clippy::unwrap_used)]

use ligra_lint::lint_workspace;
use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = lint_workspace(&root).expect("workspace walk failed");
    assert!(
        diags.is_empty(),
        "the workspace must lint clean; found:\n{}",
        diags.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n")
    );
}
