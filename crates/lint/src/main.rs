//! CLI for `ligra-lint`. See `lib.rs` for the rule catalog.
//!
//! ```text
//! cargo run -p ligra-lint -- --workspace          # lint the whole tree
//! cargo run -p ligra-lint -- --workspace --json   # machine-readable output
//! cargo run -p ligra-lint -- path/to/file.rs …    # lint specific files
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut json = false;
    let mut files: Vec<String> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("ligra-lint: unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
            other => files.push(other.to_string()),
        }
    }
    if !workspace && files.is_empty() {
        print_help();
        return ExitCode::from(2);
    }

    let root = workspace_root();
    let mut diags = Vec::new();
    if workspace {
        match ligra_lint::lint_workspace(&root) {
            Ok(d) => diags.extend(d),
            Err(e) => {
                eprintln!("ligra-lint: workspace walk failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    for f in &files {
        let path = Path::new(f);
        let rel = path.strip_prefix(&root).unwrap_or(path);
        let Some((crate_name, kind)) = ligra_lint::classify(rel) else {
            eprintln!("ligra-lint: `{f}` is outside the linted tree; skipping");
            continue;
        };
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ligra-lint: cannot read `{f}`: {e}");
                return ExitCode::from(2);
            }
        };
        let label = rel.to_string_lossy().replace('\\', "/");
        diags.extend(ligra_lint::lint_source(&label, &crate_name, kind, &src));
    }

    if json {
        // Hand-rolled JSON lines (no serde in this crate by design); rule
        // IDs and paths contain no characters needing escapes beyond `"`
        // and `\`, which `escape` handles.
        for d in &diags {
            println!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"severity\":\"{}\",\"msg\":\"{}\"}}",
                escape(&d.file),
                d.line,
                d.rule,
                d.severity,
                escape(&d.msg)
            );
        }
    } else {
        for d in &diags {
            println!("{d}");
        }
    }
    let errors = diags.iter().filter(|d| d.severity == ligra_lint::Severity::Error).count();
    if errors > 0 {
        eprintln!("ligra-lint: {errors} error(s)");
        ExitCode::FAILURE
    } else {
        if !json {
            println!("ligra-lint: clean");
        }
        ExitCode::SUCCESS
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR/../..` when run via cargo,
/// falling back to the current directory for a bare binary.
fn workspace_root() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => {
            let p = PathBuf::from(dir);
            p.parent().and_then(Path::parent).map(Path::to_path_buf).unwrap_or(p)
        }
        Err(_) => PathBuf::from("."),
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn print_help() {
    eprintln!(
        "ligra-lint: project-specific concurrency-soundness lints\n\
         \n\
         USAGE: ligra-lint [--workspace] [--json] [FILES…]\n\
         \n\
         Rules: L2 ordering whitelist, L4 no truncating ID casts,\n\
         L7 lock-order inversion, L8 blocking call under a held lock,\n\
         W1 stale or unknown-rule waiver (warning).\n\
         Waive one occurrence with `// lint: allow(L4): reason`.\n\
         Exit codes: 0 no errors, 1 violations, 2 internal error."
    );
}
