//! The rule registry.
//!
//! A rule declares which crates and directories it audits, inspects one
//! lexed file at a time, and may carry cross-file state (site registries)
//! that it settles in [`Rule::finish`]. Files are always presented in
//! sorted path order, so cross-file findings are deterministic.

mod determinism;
mod error_site;
mod fault_site;
mod lock_order;
mod lock_scope;
mod obs_naming;
mod panic_free;
mod poison_policy;
mod unsafe_audit;

use std::path::Path;

use crate::findings::Finding;
use crate::source::SourceFile;

pub use determinism::Determinism;
pub use error_site::ErrorSite;
pub use fault_site::FaultSite;
pub use lock_order::{LockOrder, ORDER_FILE};
pub use lock_scope::LockScope;
pub use obs_naming::ObsNaming;
pub use panic_free::PanicFree;
pub use poison_policy::PoisonPolicy;
pub use unsafe_audit::UnsafeAudit;

/// One static-analysis rule.
pub trait Rule {
    /// Stable kebab-case rule name (CLI `--rule`, JSON, allowlist file).
    fn name(&self) -> &'static str;
    /// One-line description for `dcn-lint list`.
    fn description(&self) -> &'static str;
    /// Crate directory names under `crates/` this rule audits.
    fn crates(&self) -> &'static [&'static str];
    /// Sub-directories of each crate to walk (default: `src` only).
    fn dirs(&self) -> &'static [&'static str] {
        &["src"]
    }
    /// File name (under `ci/lint/`) of this rule's shrink-only allowlist.
    fn allowlist(&self) -> &'static str;
    /// Inspects one file, appending findings.
    fn check_file(&mut self, file: &SourceFile, out: &mut Vec<Finding>);
    /// Audits non-Rust workspace artifacts (canonical-order files, docs)
    /// after every source file was seen and before [`Rule::finish`]. Only
    /// the engine calls this — fixture tests exercise `check_file`/`finish`
    /// alone, so rules must degrade gracefully without it.
    fn check_aux(&mut self, _root: &Path, _out: &mut Vec<Finding>) {}
    /// Emits cross-file findings after every file was seen.
    fn finish(&mut self, _out: &mut Vec<Finding>) {}
}

/// All rules, in the order they run and report.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(PanicFree),
        Box::new(Determinism),
        Box::new(UnsafeAudit),
        Box::new(ErrorSite),
        Box::new(ObsNaming::default()),
        Box::new(FaultSite::default()),
        Box::new(LockScope),
        Box::new(LockOrder::default()),
        Box::new(PoisonPolicy::default()),
    ]
}

/// The serving-path crates (everything a `dcn` binary can pull in) plus
/// the linter itself — it gates the workspace, so it holds itself to the
/// same bar.
pub const SERVING_CRATES: &[&str] = &[
    "tensor", "nn", "data", "core", "fault", "obs", "cli", "serve", "ps", "lint",
];

/// Every workspace crate under `crates/`.
pub const ALL_CRATES: &[&str] = &[
    "tensor", "nn", "data", "core", "attacks", "fault", "obs", "cli", "serve", "ps", "bench",
    "lint",
];

/// The numeric crates whose outputs must be bitwise reproducible.
pub const NUMERIC_CRATES: &[&str] = &["tensor", "nn", "core", "attacks"];

/// Whether `name` is a well-formed dotted site/metric name: lowercase
/// snake_case segments joined by single dots, at least `min_segments`
/// segments (`nn.load.weights`, `fault.injected_io_total`).
pub fn is_dotted_name(name: &str, min_segments: usize) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    if segments.len() < min_segments {
        return false;
    }
    segments.iter().all(|seg| {
        let mut chars = seg.chars();
        match chars.next() {
            Some(c) if c.is_ascii_lowercase() => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dotted_name_grammar() {
        assert!(is_dotted_name("nn.load.weights", 2));
        assert!(is_dotted_name("forward_passes_total", 1));
        assert!(!is_dotted_name("forward_passes_total", 2));
        assert!(!is_dotted_name("nn..load", 2));
        assert!(!is_dotted_name("Nn.load", 2));
        assert!(!is_dotted_name("nn.Load", 2));
        assert!(!is_dotted_name("nn.lo-ad", 2));
        assert!(!is_dotted_name("", 1));
        assert!(!is_dotted_name(".load", 2));
        assert!(!is_dotted_name("nn.", 2));
        assert!(!is_dotted_name("9n.load", 2));
    }

    #[test]
    fn registry_names_are_unique_and_have_allowlists() {
        let rules = registry();
        let mut names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9);
        for r in &rules {
            assert!(r.allowlist().ends_with("_allowlist.txt"), "{}", r.name());
        }
    }
}
