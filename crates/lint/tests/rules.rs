//! Drives every rule over its fixture pair: the `*_pass.rs` fixture must
//! produce zero findings, the `*_fail.rs` fixture at least one, and the
//! fail-side findings must be the expected ones.

use dcn_lint::findings::Finding;
use dcn_lint::rules::registry;
use dcn_lint::SourceFile;

/// Lexes a fixture and runs the named rule over it with fresh state.
fn run_rule(rule_name: &str, fixture: &str) -> Vec<Finding> {
    let path = format!(
        "{}/tests/fixtures/{fixture}",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(&path).expect("fixture exists");
    let file = SourceFile::parse(&format!("tests/fixtures/{fixture}"), &src);
    let mut rule = registry()
        .into_iter()
        .find(|r| r.name() == rule_name)
        .expect("rule registered");
    let mut out = Vec::new();
    rule.check_file(&file, &mut out);
    rule.finish(&mut out);
    out
}

fn assert_pass(rule: &str, fixture: &str) {
    let findings = run_rule(rule, fixture);
    assert!(
        findings.is_empty(),
        "{fixture} should be clean under {rule}, got: {:#?}",
        findings
    );
}

#[test]
fn panic_free_pass_fixture_is_clean() {
    assert_pass("panic-free", "panic_free_pass.rs");
}

#[test]
fn panic_free_fail_fixture_trips_including_after_mid_file_test_module() {
    let findings = run_rule("panic-free", "panic_free_fail.rs");
    assert_eq!(findings.len(), 3, "{findings:#?}");
    // The `.expect` after the mid-file `#[cfg(test)]` module — the old
    // pipeline's false negative — must be among them.
    assert!(
        findings.iter().any(|f| f.snippet.contains("must not reach the gate")),
        "site after mid-file test module missed: {findings:#?}"
    );
    assert!(findings.iter().any(|f| f.snippet.contains("unreachable!")));
}

#[test]
fn determinism_pass_fixture_is_clean() {
    assert_pass("determinism", "determinism_pass.rs");
}

#[test]
fn determinism_fail_fixture_trips_all_three_leaks() {
    let findings = run_rule("determinism", "determinism_fail.rs");
    assert_eq!(findings.len(), 3, "{findings:#?}");
    let text = format!("{findings:?}");
    assert!(text.contains("Instant"));
    assert!(text.contains("HashMap"));
    assert!(text.contains("var"));
}

#[test]
fn unsafe_audit_pass_fixture_is_clean() {
    assert_pass("unsafe-audit", "unsafe_audit_pass.rs");
}

#[test]
fn unsafe_audit_fail_fixture_trips() {
    let findings = run_rule("unsafe-audit", "unsafe_audit_fail.rs");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0].message.contains("SAFETY"));
}

#[test]
fn deleting_a_safety_comment_fails_the_gate() {
    // Acceptance demo: strip the SAFETY comments from the pass fixture and
    // the same code now fails.
    let path = format!(
        "{}/tests/fixtures/unsafe_audit_pass.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(&path).expect("fixture exists");
    let tampered = src.replace("SAFETY:", "NOTE:");
    let file = SourceFile::parse("tampered.rs", &tampered);
    let mut rule = registry()
        .into_iter()
        .find(|r| r.name() == "unsafe-audit")
        .expect("rule registered");
    let mut out = Vec::new();
    rule.check_file(&file, &mut out);
    assert_eq!(out.len(), 2, "{out:#?}");
}

#[test]
fn error_site_pass_fixture_is_clean() {
    assert_pass("error-site", "error_site_pass.rs");
}

#[test]
fn error_site_fail_fixture_trips_empty_grammar_and_duplicate() {
    let findings = run_rule("error-site", "error_site_fail.rs");
    assert_eq!(findings.len(), 3, "{findings:#?}");
    let text = format!("{findings:?}");
    assert!(text.contains("empty"));
    assert!(text.contains("NotDotted"));
    assert!(text.contains("already used"));
}

#[test]
fn obs_naming_pass_fixture_is_clean() {
    assert_pass("obs-naming", "obs_naming_pass.rs");
}

#[test]
fn obs_naming_fail_fixture_trips_grammar_and_duplicate() {
    let findings = run_rule("obs-naming", "obs_naming_fail.rs");
    assert_eq!(findings.len(), 3, "{findings:#?}");
    let text = format!("{findings:?}");
    assert!(text.contains("Fixture.BadName"));
    assert!(text.contains("already minted"));
    assert!(text.contains("fixture.Sketch-Name"));
}

#[test]
fn fault_site_pass_fixture_is_clean() {
    assert_pass("fault-site", "fault_site_pass.rs");
}

#[test]
fn fault_site_fail_fixture_trips_duplicate_registration() {
    let findings = run_rule("fault-site", "fault_site_fail.rs");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0].message.contains("already registered"));
}

#[test]
fn lock_scope_pass_fixture_is_clean() {
    assert_pass("lock-scope", "lock_scope_pass.rs");
}

#[test]
fn lock_scope_fail_fixture_trips_io_join_and_sleep() {
    let findings = run_rule("lock-scope", "lock_scope_fail.rs");
    assert_eq!(findings.len(), 3, "{findings:#?}");
    let text = format!("{findings:?}");
    assert!(text.contains("`write_all`"));
    assert!(text.contains("`join`"));
    assert!(text.contains("`sleep`"));
    // Every message names the guard's acquisition so the fix is obvious.
    assert!(findings.iter().all(|f| f.message.contains("is live")));
}

#[test]
fn lock_order_pass_fixture_is_clean() {
    assert_pass("lock-order", "lock_order_pass.rs");
}

#[test]
fn lock_order_fail_fixture_trips_grammar_duplicate_and_cycle() {
    let findings = run_rule("lock-order", "lock_order_fail.rs");
    assert_eq!(findings.len(), 3, "{findings:#?}");
    let text = format!("{findings:?}");
    assert!(text.contains("BadSite"), "non-dotted site missed: {text}");
    assert!(
        text.contains("constructed more than once"),
        "duplicate site missed: {text}"
    );
    assert!(
        text.contains("lock-acquisition cycle"),
        "reversed nesting missed: {text}"
    );
    // The cycle is reported exactly once, from its smallest node.
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.message.contains("cycle"))
            .count(),
        1
    );
}

#[test]
fn poison_policy_pass_fixture_is_clean() {
    assert_pass("poison-policy", "poison_policy_pass.rs");
}

#[test]
fn poison_policy_fail_fixture_trips_unwrap_and_expect() {
    let findings = run_rule("poison-policy", "poison_policy_fail.rs");
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings.iter().all(|f| f.message.contains("`raw`")));
    assert!(findings
        .iter()
        .all(|f| f.message.contains("PoisonError::into_inner")));
}

#[test]
fn shebang_line_banned_words_do_not_reach_rules() {
    // Regression: `#!/usr/bin/env …` used to lex as the start of an
    // attribute; the interpreter line is a comment, so the `panic!` and
    // `unwrap()` inside it are invisible to panic-free.
    assert_pass("panic-free", "shebang_pass.rs");
}
