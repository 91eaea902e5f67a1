//! `determinism`: the numeric crates must be bitwise reproducible.
//!
//! The corrector's region vote (Cao & Gong's classifier, re-parameterized
//! by the paper) is only comparable across runs if sampling, iteration and
//! timing never leak ambient state into the numeric path. This rule
//! forbids, in `tensor`/`nn`/`core`/`attacks` production code:
//!
//! * wall clocks — `Instant`, `SystemTime` (use `dcn_fault::FaultClock`,
//!   which goes virtual under a latency plan, or gate timing behind
//!   `dcn_obs::enabled()` and register the site in the allowlist);
//! * environment reads — `std::env::var`/`var_os` (configuration enters
//!   through typed config structs; the two sanctioned bootstrap reads,
//!   `DCN_THREADS` and the obs epoch timers, are registered in
//!   `ci/lint/determinism_allowlist.txt`);
//! * unordered containers — `HashMap`/`HashSet` iteration order varies
//!   run to run (use `BTreeMap`/`BTreeSet` or vectors);
//! * OS entropy — `thread_rng`/`from_entropy` (all randomness flows from
//!   seeded `StdRng` streams).

use super::{Rule, NUMERIC_CRATES};
use crate::findings::Finding;
use crate::source::SourceFile;

/// Identifiers that are nondeterministic wherever they appear.
const FORBIDDEN_IDENTS: &[(&str, &str)] = &[
    ("SystemTime", "wall-clock time"),
    ("HashMap", "unordered iteration"),
    ("HashSet", "unordered iteration"),
    ("thread_rng", "OS entropy"),
    ("from_entropy", "OS entropy"),
];

/// See the module docs.
pub struct Determinism;

impl Rule for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn description(&self) -> &'static str {
        "numeric crates must not read clocks, the environment, OS entropy, or unordered maps"
    }

    fn crates(&self) -> &'static [&'static str] {
        NUMERIC_CRATES
    }

    fn allowlist(&self) -> &'static str {
        "determinism_allowlist.txt"
    }

    fn check_file(&mut self, file: &SourceFile, out: &mut Vec<Finding>) {
        for i in 0..file.tokens.len() {
            if !file.is_code(i) {
                continue;
            }
            let tok = &file.tokens[i];
            let mut push = |why: &str| {
                out.push(Finding {
                    rule: "determinism",
                    file: file.path.clone(),
                    line: tok.line,
                    snippet: file.snippet(tok.line),
                    message: format!(
                        "nondeterministic `{}` ({why}) in a numeric crate — register the site or remove it",
                        tok.text
                    ),
                    allowlisted: false,
                });
            };
            if let Some((_, why)) = FORBIDDEN_IDENTS.iter().find(|(id, _)| tok.is_ident(id)) {
                push(why);
                continue;
            }
            // `Instant::now` (also fully qualified `std::time::Instant::now`).
            if tok.is_ident("Instant") {
                let now_follows = file.next_code(i).is_some_and(|c| {
                    file.tokens[c].is_punct("::")
                        && file
                            .next_code(c)
                            .is_some_and(|n| file.tokens[n].is_ident("now"))
                });
                if now_follows {
                    push("wall-clock time");
                    continue;
                }
            }
            // `env::var` / `env::var_os`.
            if tok.is_ident("var") || tok.is_ident("var_os") {
                let env_precedes = file.prev_code(i).is_some_and(|c| {
                    file.tokens[c].is_punct("::")
                        && file
                            .prev_code(c)
                            .is_some_and(|p| file.tokens[p].is_ident("env"))
                });
                if env_precedes {
                    push("environment read");
                }
            }
        }
    }
}
