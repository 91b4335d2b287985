//! Fixture tests: each rule has a deliberately-violating file (checked
//! for the exact rule IDs *and* line numbers) and a compliant twin
//! (checked to produce no diagnostics). The fixtures live under
//! `tests/fixtures/`, which the workspace walker skips by name.

#![allow(clippy::unwrap_used)]

use ligra_lint::{lint_source, FileKind, RuleId};

fn check(name: &str, crate_name: &str, src: &str, expect: &[(RuleId, u32)]) {
    let diags = lint_source(name, crate_name, FileKind::Lib, src);
    let got: Vec<(RuleId, u32)> = diags.iter().map(|d| (d.rule, d.line)).collect();
    assert_eq!(
        got,
        expect,
        "{name} diagnostics:\n{}",
        diags.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn l2_ordering_whitelist_and_cas_discipline() {
    // Crate `graph` whitelists only Relaxed: line 4 is the SeqCst ban,
    // line 8 an off-whitelist Release, line 12 a Relaxed-success CAS.
    check(
        "fixtures/l2_bad.rs",
        "graph",
        include_str!("fixtures/l2_bad.rs"),
        &[(RuleId::L2, 4), (RuleId::L2, 8), (RuleId::L2, 12)],
    );
    // The same ordering mix is legal in `parallel`, and the CAS follows
    // the AcqRel/Acquire claim discipline.
    check("fixtures/l2_good.rs", "parallel", include_str!("fixtures/l2_good.rs"), &[]);
}

#[test]
fn l4_truncating_casts() {
    check(
        "fixtures/l4_bad.rs",
        "graph",
        include_str!("fixtures/l4_bad.rs"),
        &[(RuleId::L4, 4), (RuleId::L4, 8)],
    );
    // Widening casts pass; a waived float clamp passes with its reason.
    check("fixtures/l4_good.rs", "graph", include_str!("fixtures/l4_good.rs"), &[]);
    // The checked-helper file itself is exempt by path.
    check("crates/parallel/src/utils.rs", "parallel", include_str!("fixtures/l4_bad.rs"), &[]);
}

#[test]
fn l7_lock_order_inversion() {
    // Line 16 anchors the direct `a`/`b` inversion (the second
    // acquisition of the offending direction); line 30 anchors the
    // interprocedural `c`/`d` inversion at the call that transitively
    // acquires `d` while `c` is held.
    check(
        "fixtures/l7_bad.rs",
        "engine",
        include_str!("fixtures/l7_bad.rs"),
        &[(RuleId::L7, 16), (RuleId::L7, 30)],
    );
    // Consistent ordering — directly and through a call — is clean.
    check("fixtures/l7_good.rs", "engine", include_str!("fixtures/l7_good.rs"), &[]);
}

#[test]
fn l7_reports_both_witness_chains() {
    let diags = lint_source(
        "fixtures/l7_bad.rs",
        "engine",
        FileKind::Lib,
        include_str!("fixtures/l7_bad.rs"),
    );
    let msg = &diags[0].msg;
    assert!(msg.contains("`ab` holds `a`"), "missing forward chain: {msg}");
    assert!(msg.contains("`ba` holds `b`"), "missing reverse chain: {msg}");
}

#[test]
fn l8_blocking_under_guard() {
    // Line 15: `thread::sleep` with the guard live. Line 21: the call
    // into `does_io`, whose `read_line` blocks, with `n` held.
    check(
        "fixtures/l8_bad.rs",
        "engine",
        include_str!("fixtures/l8_bad.rs"),
        &[(RuleId::L8, 15), (RuleId::L8, 21)],
    );
    // Dropped/scope-ended guards and condvar waits (either spelling of
    // the released guard) are clean.
    check("fixtures/l8_good.rs", "engine", include_str!("fixtures/l8_good.rs"), &[]);
}

#[test]
fn w1_stale_waiver() {
    // Line 5 waives nothing; line 15 names a rule that does not exist.
    check(
        "fixtures/w1_bad.rs",
        "engine",
        include_str!("fixtures/w1_bad.rs"),
        &[(RuleId::W1, 5), (RuleId::W1, 15)],
    );
}

#[test]
fn w1_renders_as_warning() {
    let diags = lint_source(
        "fixtures/w1_bad.rs",
        "engine",
        FileKind::Lib,
        include_str!("fixtures/w1_bad.rs"),
    );
    assert_eq!(diags.len(), 2);
    assert!(diags.iter().all(|d| d.severity == ligra_lint::Severity::Warn));
    assert!(
        diags[0].to_string().starts_with("fixtures/w1_bad.rs:5: warning[W1]: stale waiver"),
        "unexpected diagnostic format: {}",
        diags[0]
    );
    assert!(
        diags[1].to_string().starts_with("fixtures/w1_bad.rs:15: warning[W1]: waiver names `L9`"),
        "unknown-rule waiver not reported: {}",
        diags[1]
    );
}

#[test]
fn l7_l8_waivable_at_anchor() {
    // A waiver on the line above either direction's anchor suppresses
    // the L7 pair; same for an L8 site.
    let src = include_str!("fixtures/l7_bad.rs")
        .replace("        let gb = self.b.lock();\n        drop(gb);\n        drop(ga);\n    }\n\n    fn ba",
                 "        // lint: allow(L7): fixture proves waivability\n        let gb = self.b.lock();\n        drop(gb);\n        drop(ga);\n    }\n\n    fn ba");
    let diags = lint_source("fixtures/l7_waived.rs", "engine", FileKind::Lib, &src);
    assert!(
        diags.iter().filter(|d| d.rule == RuleId::L7).count() == 1,
        "only the unwaived c/d inversion should remain: {diags:?}"
    );
    // The consumed waiver must not be reported stale.
    assert!(diags.iter().all(|d| d.rule != RuleId::W1), "waiver wrongly stale: {diags:?}");
}

#[test]
fn diagnostics_render_machine_readable() {
    let diags = lint_source(
        "crates/graph/src/x.rs",
        "graph",
        FileKind::Lib,
        include_str!("fixtures/l4_bad.rs"),
    );
    let line = diags[0].to_string();
    assert!(
        line.starts_with("crates/graph/src/x.rs:4: error[L4]: "),
        "unexpected diagnostic format: {line}"
    );
}
