//! # dcn-lint
//!
//! Workspace-native static analysis for the DCN reproduction: a
//! zero-dependency, std-only engine with a token-level Rust lexer, a
//! scope layer ([`scope`]) computing guard live-ranges, and nine rules
//! machine-checking the invariants the serving stack's guarantees rest
//! on — bitwise determinism, panic-freedom, audited `unsafe`, the
//! error/fault/observability site registries, and concurrency safety
//! (lock scope, lock order, poison handling).
//!
//! | rule            | invariant                                                      |
//! |-----------------|----------------------------------------------------------------|
//! | `panic-free`    | serving-path code returns typed errors, never panics           |
//! | `determinism`   | numeric crates read no clocks, environment, entropy, hash maps |
//! | `unsafe-audit`  | every `unsafe` carries a `// SAFETY:` justification            |
//! | `error-site`    | error site strings: non-empty, dotted, unique per file         |
//! | `obs-naming`    | metric/span names: `snake_case.dotted`, minted exactly once    |
//! | `fault-site`    | fault-injection sites: plan grammar, registered exactly once   |
//! | `lock-scope`    | no blocking call while a lock guard binding is live            |
//! | `lock-order`    | static acquisition graph is acyclic and matches the canon file |
//! | `poison-policy` | every `.lock()` handles `PoisonError` with the one idiom       |
//!
//! Each rule is gated by a SHRINK-ONLY allowlist under `ci/lint/`: counts
//! may only go down, so every improvement is locked in and every new
//! violation is a hard failure. Run it as
//!
//! ```text
//! dcn-lint check [--rule <name>] [--json results/LINT.json]
//! ```
//!
//! with stable exit codes: `0` clean, `1` findings, `2` usage error,
//! `3` io error. The engine audits its own crate with the same rules.

#![deny(missing_docs)]

pub mod allowlist;
pub mod engine;
pub mod findings;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod source;

pub use engine::{find_root, run, LintError, Report, RuleReport};
pub use findings::Finding;
pub use source::SourceFile;
