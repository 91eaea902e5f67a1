//! `obs-naming`: metric and span names follow the `snake_case.dotted`
//! scheme `dcn-obs` established, and no name is minted twice.
//!
//! Two call sites incrementing the *same* counter must share one
//! `names::` constant (one definition, many uses); two different literals
//! spelling the same name — or two constants with the same value — make
//! snapshots ambiguous. The rule collects:
//!
//! * string literals passed directly to `counter(…)`, `sketch(…)` or
//!   `span(…)`;
//! * string constants defined inside a `mod names { … }` block (the
//!   workspace's registry convention, used by `dcn-obs` and `dcn-fault`);
//!
//! checks each against the name grammar (lowercase snake_case segments
//! joined by dots; single-segment legacy names are allowed), and fails on
//! any value collected twice across the workspace. Names built with
//! `format!` (per-attack metrics, span paths) are out of the rule's reach
//! and rely on their inputs being checked.

use std::collections::BTreeMap;

use super::{is_dotted_name, Rule, ALL_CRATES};
use crate::findings::Finding;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Call sinks whose first literal argument is a metric/span name.
const NAME_SINKS: &[&str] = &["counter", "sketch", "span"];

/// See the module docs.
#[derive(Default)]
pub struct ObsNaming {
    /// name → (file, line) of first minting across the workspace.
    seen: BTreeMap<String, (String, u32)>,
}

impl Rule for ObsNaming {
    fn name(&self) -> &'static str {
        "obs-naming"
    }

    fn description(&self) -> &'static str {
        "metric/span names are snake_case.dotted and minted exactly once"
    }

    fn crates(&self) -> &'static [&'static str] {
        ALL_CRATES
    }

    fn allowlist(&self) -> &'static str {
        "obs_naming_allowlist.txt"
    }

    fn check_file(&mut self, file: &SourceFile, out: &mut Vec<Finding>) {
        let names_extents = names_mod_extents(file);
        for i in 0..file.tokens.len() {
            if !file.is_code(i) {
                continue;
            }
            let mut lits: Vec<usize> = Vec::new();
            if NAME_SINKS.iter().any(|s| file.is_call(i, s)) {
                lits.extend(file.call_arg_literals(i).into_iter().take(1));
            } else if file.tokens[i].kind == TokenKind::Str
                && names_extents.iter().any(|&(a, b)| i > a && i < b)
                && file
                    .prev_code(i)
                    .is_some_and(|p| file.tokens[p].is_punct("="))
            {
                lits.push(i);
            }
            for lit in lits {
                let tok = &file.tokens[lit];
                let name = tok.text.clone();
                if !is_dotted_name(&name, 1) {
                    out.push(finding(
                        file,
                        tok.line,
                        format!(
                            "metric/span name {name:?} is not snake_case.dotted \
                             (lowercase segments joined by dots)"
                        ),
                    ));
                    continue;
                }
                if let Some((first_file, first_line)) = self.seen.get(&name) {
                    out.push(finding(
                        file,
                        tok.line,
                        format!(
                            "metric/span name {name:?} already minted at {first_file}:{first_line} — reuse one `names::` constant instead"
                        ),
                    ));
                } else {
                    self.seen
                        .insert(name, (file.path.clone(), tok.line));
                }
            }
        }
    }
}

/// Token-index ranges `(open_brace, close_brace)` of `mod names { … }`
/// blocks in this file.
fn names_mod_extents(file: &SourceFile) -> Vec<(usize, usize)> {
    let mut extents = Vec::new();
    for i in 0..file.tokens.len() {
        if !file.tokens[i].is_ident("mod") {
            continue;
        }
        let Some(name_idx) = file.next_code(i) else {
            continue;
        };
        if !file.tokens[name_idx].is_ident("names") {
            continue;
        }
        let Some(open) = file.next_code(name_idx) else {
            continue;
        };
        if !file.tokens[open].is_punct("{") {
            continue;
        }
        let mut depth = 0usize;
        for (j, tok) in file.tokens.iter().enumerate().skip(open) {
            if tok.kind == TokenKind::Punct {
                match tok.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            extents.push((open, j));
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    extents
}

fn finding(file: &SourceFile, line: u32, message: String) -> Finding {
    Finding {
        rule: "obs-naming",
        file: file.path.clone(),
        line,
        snippet: file.snippet(line),
        message,
        allowlisted: false,
    }
}
