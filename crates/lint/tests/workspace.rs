//! End-to-end: the engine over the real workspace, tamper regressions
//! against real sources, and the `dcn-lint` binary's contract.

use std::path::{Path, PathBuf};
use std::process::Command;

use dcn_lint::rules::registry;
use dcn_lint::{engine, SourceFile};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_is_clean_under_all_nine_rules() {
    let report = engine::run(&workspace_root(), None).expect("engine runs");
    assert_eq!(report.rules.len(), 9);
    for rule in &report.rules {
        assert!(rule.files_scanned > 0, "{} scanned nothing", rule.name);
        let live: Vec<_> = rule.live_findings().collect();
        assert!(
            live.is_empty() && rule.allowlist_violations.is_empty(),
            "{} not clean: {live:#?} {:#?}",
            rule.name,
            rule.allowlist_violations
        );
    }
    assert!(report.clean());
}

#[test]
fn adding_an_unwrap_to_a_real_file_trips_panic_free() {
    // Take a real clean serving-path file and append a panic site outside
    // any test module; the rule must catch it.
    let root = workspace_root();
    let src = std::fs::read_to_string(root.join("crates/cli/src/main.rs")).expect("read");
    let tampered = format!("{src}\nfn tampered(v: Option<u32>) -> u32 {{ v.unwrap() }}\n");
    let file = SourceFile::parse("crates/cli/src/main.rs", &tampered);
    let mut rule = registry()
        .into_iter()
        .find(|r| r.name() == "panic-free")
        .expect("rule registered");
    let mut before = Vec::new();
    rule.check_file(&SourceFile::parse("crates/cli/src/main.rs", &src), &mut before);
    let mut after = Vec::new();
    let mut fresh = registry()
        .into_iter()
        .find(|r| r.name() == "panic-free")
        .expect("rule registered");
    fresh.check_file(&file, &mut after);
    assert_eq!(after.len(), before.len() + 1);
    assert!(after.iter().any(|f| f.snippet.contains("tampered")));
}

#[test]
fn stripping_a_safety_comment_from_kernel_rs_trips_unsafe_audit() {
    let root = workspace_root();
    let src = std::fs::read_to_string(root.join("crates/tensor/src/kernel.rs")).expect("read");
    assert!(src.contains("SAFETY:"), "kernel.rs documents its unsafe");
    let tampered = src.replacen("SAFETY:", "NOTE:", 1);
    let mut rule = registry()
        .into_iter()
        .find(|r| r.name() == "unsafe-audit")
        .expect("rule registered");
    let mut out = Vec::new();
    rule.check_file(&SourceFile::parse("crates/tensor/src/kernel.rs", &tampered), &mut out);
    assert_eq!(out.len(), 1, "{out:#?}");
}

fn bin() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_dcn-lint"));
    c.current_dir(workspace_root());
    c
}

#[test]
fn binary_check_is_clean_and_exits_zero() {
    let out = bin().arg("check").output().expect("binary runs");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean (9 rules)"));
}

#[test]
fn binary_single_rule_and_json_report() {
    let json_path = workspace_root().join("target/lint-test/LINT.json");
    let _ = std::fs::remove_file(&json_path);
    let out = bin()
        .args(["check", "--rule", "panic-free", "--json"])
        .arg(&json_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let json = std::fs::read_to_string(&json_path).expect("JSON written");
    assert!(json.contains("\"panic-free\""));
    assert!(json.contains("\"violations\": 0"));
    assert!(json.contains("\"allowlisted\":true"));
}

#[test]
fn binary_usage_and_unknown_rule_exit_two() {
    let out = bin().args(["check", "--rule", "nope"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = bin().arg("frobnicate").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn binary_list_names_all_rules() {
    let out = bin().arg("list").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    for name in [
        "panic-free",
        "determinism",
        "unsafe-audit",
        "error-site",
        "obs-naming",
        "fault-site",
        "lock-scope",
        "lock-order",
        "poison-policy",
    ] {
        assert!(text.contains(name), "missing {name} in: {text}");
    }
}
