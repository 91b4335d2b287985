//! The two binaries' flag surface, run as the real executables: every
//! flag a removed serving knob used to read fails at startup with exit
//! code 2 and `unknown flag` (a deployment still passing one is told,
//! not silently ignored), and the `--help` usage and the module-doc
//! synopsis both list exactly the flags the parsers accept.

use std::collections::BTreeSet;
use std::process::Command;

/// Every `--flag` token in `text`.
fn flags(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
        .filter(|t| t.len() > 2 && t.starts_with("--"))
        .collect()
}

/// The `--flag` tokens of a binary's module-doc synopsis block.
fn synopsis(source: &str) -> BTreeSet<&str> {
    let block = source.split("//! ```text").nth(1).and_then(|rest| rest.split("//! ```").next());
    flags(block.expect("module doc has a text synopsis"))
}

/// Runs `bin args`, expecting the usage exit; returns stderr.
#[track_caller]
fn usage_exit(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("spawn the binary");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn removed_serving_flags_fail_loudly() {
    let serve = env!("CARGO_BIN_EXE_ligra-serve");
    for flag in ["--memory-budget", "--traversal", "--drain-deadline-ms"] {
        let stderr = usage_exit(serve, &[flag, "1"]);
        assert!(stderr.contains("unknown flag"), "ligra-serve {flag}: {stderr}");
    }
    let route = env!("CARGO_BIN_EXE_ligra-route");
    for flag in
        ["--max-inflight", "--journal-capacity", "--down-after", "--retries", "--drain-deadline-ms"]
    {
        let stderr = usage_exit(route, &["--backend", "127.0.0.1:1", flag, "1"]);
        assert!(stderr.contains("unknown flag"), "ligra-route {flag}: {stderr}");
    }
}

#[test]
fn usage_and_synopsis_list_exactly_the_accepted_flags() {
    let serve: BTreeSet<&str> = [
        "--listen",
        "--client",
        "--metrics-addr",
        "--workers",
        "--queue",
        "--cache",
        "--graph",
        "--directed",
        "--weighted",
        "--fault",
        "--fault-seed",
        "--compact-threshold",
    ]
    .into();
    let route: BTreeSet<&str> = [
        "--listen",
        "--backend",
        "--metrics-addr",
        "--probe-interval-ms",
        "--probe-deadline-ms",
        "--request-deadline-ms",
        "--fault",
        "--fault-seed",
    ]
    .into();
    for (bin, source, want) in [
        (env!("CARGO_BIN_EXE_ligra-serve"), include_str!("../src/bin/ligra_serve.rs"), serve),
        (env!("CARGO_BIN_EXE_ligra-route"), include_str!("../src/bin/ligra_route.rs"), route),
    ] {
        let usage = usage_exit(bin, &["--help"]);
        assert_eq!(flags(&usage), want, "{bin} --help");
        assert_eq!(synopsis(source), want, "{bin} module-doc synopsis");
        for flag in &want {
            assert!(source.contains(&format!("\"{flag}\" =>")), "{bin}: no parser arm for {flag}");
        }
    }
}
