//! The unified serving-path error taxonomy.
//!
//! Every crate in the pipeline has its own error type shaped by its domain
//! (`TensorError`, `NnError`, `DataError`, `AttackError`, `DefenseError`).
//! [`DcnError`] is the top of that hierarchy: the one type a serving binary
//! matches on, organized by *failure class* rather than by crate, so the
//! operational response — fix the config, retry the IO, restore the file,
//! page someone — falls out of the variant. [`DcnError::exit_code`] maps the
//! classes onto distinct process exit codes for scripting; [`EXIT_CODES`]
//! is the one table of those codes.

use std::fmt;

use dcn_attacks::AttackError;
use dcn_data::DataError;
use dcn_nn::NnError;
use dcn_tensor::TensorError;

use crate::DefenseError;

/// Every exit code a workspace binary (`dcn`, `dcn-serve`, `dcn-ps`) ends
/// with, as `(code, label)` in code order: `0` is success, `2`–`7` are the
/// failure classes [`DcnError::exit_code`] returns, and `1` is every other
/// variant. The CLIs print it through [`exit_code_legend`]; a unit test
/// holds it to `exit_code` and to the table in DESIGN.md §10.
pub const EXIT_CODES: &[(i32, &str)] = &[
    (0, "ok"),
    (1, "other"),
    (2, "configuration"),
    (3, "io"),
    (4, "corrupt state"),
    (5, "non-finite"),
    (6, "overloaded"),
    (7, "peer lost"),
];

/// [`EXIT_CODES`] as the one-line legend that ends every CLI's `--help`.
pub fn exit_code_legend() -> String {
    let entries: Vec<String> = EXIT_CODES
        .iter()
        .map(|(code, label)| format!("{code} {label}"))
        .collect();
    format!("exit codes: {}", entries.join(", "))
}

/// Top-level error for DCN serving and training, organized by failure
/// class. Wrapping variants keep the original error for diagnostics; the
/// classifying `From` impls promote per-crate IO/corruption/non-finite
/// errors into the matching class so callers never need to dig.
#[derive(Debug, Clone, PartialEq)]
pub enum DcnError {
    /// The caller asked for something invalid: bad flag value, mismatched
    /// shapes in a request, degenerate hyper-parameters. Fix the input.
    Config(String),
    /// A filesystem or OS operation failed after retries. The site names
    /// where; the kind says what the OS reported.
    Io {
        /// Stable name of the IO site (e.g. `"nn.load"`).
        site: String,
        /// The underlying [`std::io::ErrorKind`].
        kind: std::io::ErrorKind,
        /// Human-readable description.
        msg: String,
    },
    /// Persisted state is provably damaged (CRC mismatch, truncation,
    /// malformed serialization of a file that should be machine-written).
    Corrupt(String),
    /// NaN or infinity where finite numbers are required — poisoned
    /// weights, overflowed activations. The serving path fails closed on
    /// these rather than classifying garbage.
    NonFinite(String),
    /// The serving engine refused the request at admission: its bounded
    /// queue was full. Nothing was computed; retry with backoff or add
    /// capacity. (Load *shedding* — answering with a degraded base
    /// prediction — is not an error; this variant is the rung below it on
    /// the QoS ladder, when even a degraded answer cannot be queued.)
    Overloaded {
        /// Requests queued when the request was refused.
        queued: usize,
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// A distributed-training peer (worker or parameter server) stopped
    /// responding and bounded reconnect retries were exhausted. The class
    /// is distinct from [`Io`], whose response is "retry the operation":
    /// the retries already ran, so the peer must be restarted.
    PeerLost {
        /// Stable name of the lost peer (e.g. `"worker-2"` or `"server"`).
        peer: String,
        /// What was observed: connection refused, reset, torn frame.
        msg: String,
    },
    /// An unclassified tensor-level failure.
    Tensor(TensorError),
    /// An unclassified network-level failure.
    Nn(NnError),
    /// An unclassified dataset-level failure.
    Data(DataError),
    /// An unclassified attack-level failure.
    Attack(AttackError),
    /// An unclassified defense-level failure.
    Defense(DefenseError),
}

impl DcnError {
    /// The process exit code for this failure class, for CLI scripting;
    /// [`EXIT_CODES`] labels every code. (`0` is success and never
    /// returned here.)
    pub fn exit_code(&self) -> i32 {
        match self {
            DcnError::Config(_) => 2,
            DcnError::Io { .. } => 3,
            DcnError::Corrupt(_) => 4,
            DcnError::NonFinite(_) => 5,
            DcnError::Overloaded { .. } => 6,
            DcnError::PeerLost { .. } => 7,
            _ => 1,
        }
    }
}

impl fmt::Display for DcnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcnError::Config(msg) => write!(f, "configuration error: {msg}"),
            DcnError::Io { site, kind, msg } => {
                write!(f, "io error at {site} ({kind:?}): {msg}")
            }
            DcnError::Corrupt(msg) => write!(f, "corrupt state: {msg}"),
            DcnError::NonFinite(msg) => write!(f, "non-finite values: {msg}"),
            DcnError::Overloaded { queued, capacity } => write!(
                f,
                "overloaded: admission queue full ({queued}/{capacity} requests queued)"
            ),
            DcnError::PeerLost { peer, msg } => {
                write!(f, "peer lost: {peer} unreachable after bounded retries: {msg}")
            }
            DcnError::Tensor(e) => write!(f, "tensor error: {e}"),
            DcnError::Nn(e) => write!(f, "network error: {e}"),
            DcnError::Data(e) => write!(f, "data error: {e}"),
            DcnError::Attack(e) => write!(f, "attack error: {e}"),
            DcnError::Defense(e) => write!(f, "defense error: {e}"),
        }
    }
}

impl std::error::Error for DcnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DcnError::Tensor(e) => Some(e),
            DcnError::Nn(e) => Some(e),
            DcnError::Data(e) => Some(e),
            DcnError::Attack(e) => Some(e),
            DcnError::Defense(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for DcnError {
    fn from(e: NnError) -> Self {
        match e {
            NnError::Io { site, kind, msg } => DcnError::Io { site, kind, msg },
            NnError::Corrupt(msg) => DcnError::Corrupt(msg),
            NnError::NonFinite(msg) => DcnError::NonFinite(msg),
            NnError::InvalidConfig(msg) => DcnError::Config(msg),
            other => DcnError::Nn(other),
        }
    }
}

impl From<TensorError> for DcnError {
    fn from(e: TensorError) -> Self {
        DcnError::Tensor(e)
    }
}

impl From<DataError> for DcnError {
    fn from(e: DataError) -> Self {
        match e {
            DataError::Io { site, kind, msg } => DcnError::Io { site, kind, msg },
            DataError::Corrupt(msg) => DcnError::Corrupt(msg),
            other => DcnError::Data(other),
        }
    }
}

impl From<AttackError> for DcnError {
    fn from(e: AttackError) -> Self {
        DcnError::Attack(e)
    }
}

impl From<DefenseError> for DcnError {
    fn from(e: DefenseError) -> Self {
        match e {
            DefenseError::Nn(inner) => DcnError::from(inner),
            DefenseError::Tensor(inner) => DcnError::Tensor(inner),
            DefenseError::NonFinite(msg) => DcnError::NonFinite(msg),
            DefenseError::BadConfig(msg) => DcnError::Config(msg),
            other => DcnError::Defense(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One value of every failure class, by variant name.
    fn one_of_each() -> Vec<(&'static str, DcnError)> {
        vec![
            ("Config", DcnError::Config("x".into())),
            (
                "Io",
                DcnError::Io {
                    site: "s".into(),
                    kind: std::io::ErrorKind::NotFound,
                    msg: "m".into(),
                },
            ),
            ("Corrupt", DcnError::Corrupt("x".into())),
            ("NonFinite", DcnError::NonFinite("x".into())),
            (
                "Overloaded",
                DcnError::Overloaded {
                    queued: 8,
                    capacity: 8,
                },
            ),
            (
                "PeerLost",
                DcnError::PeerLost {
                    peer: "worker-1".into(),
                    msg: "reset".into(),
                },
            ),
            ("Tensor", DcnError::Tensor(TensorError::Empty)),
        ]
    }

    #[test]
    fn exit_codes_separate_failure_classes() {
        let codes: Vec<(&str, i32)> = one_of_each()
            .iter()
            .map(|(name, e)| (*name, e.exit_code()))
            .collect();
        assert_eq!(
            codes,
            [
                ("Config", 2),
                ("Io", 3),
                ("Corrupt", 4),
                ("NonFinite", 5),
                ("Overloaded", 6),
                ("PeerLost", 7),
                ("Tensor", 1),
            ]
        );
    }

    /// The rows of DESIGN.md §10's exit-code table, as `(code, label,
    /// variant)` cells with backticks stripped.
    fn design_rows(doc: &str) -> Vec<[String; 3]> {
        let section = doc
            .split("\n## ")
            .find(|s| s.starts_with("10."))
            .unwrap_or("");
        section
            .lines()
            .filter_map(|line| {
                let inner = line.trim().strip_prefix('|')?.strip_suffix('|')?;
                let cells: Vec<String> = inner
                    .split('|')
                    .map(|c| c.trim().replace('`', ""))
                    .collect();
                let [code, label, variant] = <[String; 3]>::try_from(cells).ok()?;
                code.parse::<i32>()
                    .is_ok()
                    .then_some([code, label, variant])
            })
            .collect()
    }

    /// The rows §10 must hold: [`EXIT_CODES`], each with the variant whose
    /// `exit_code` returns it.
    fn expected_rows() -> Vec<[String; 3]> {
        let variants = one_of_each();
        EXIT_CODES
            .iter()
            .map(|&(code, label)| {
                let variant = match code {
                    0 => "—",
                    1 => "any other variant",
                    _ => variants
                        .iter()
                        .find(|(_, e)| e.exit_code() == code)
                        .map_or("?", |(name, _)| name),
                };
                [code.to_string(), label.to_string(), variant.to_string()]
            })
            .collect()
    }

    #[test]
    fn exit_code_table_matches_the_taxonomy_and_design_doc() {
        for (i, &(code, label)) in EXIT_CODES.iter().enumerate() {
            assert_eq!(code, i as i32, "codes run 0, 1, 2, … in order");
            assert!(!label.is_empty());
        }
        let codes: Vec<i32> = one_of_each().iter().map(|(_, e)| e.exit_code()).collect();
        for &(code, label) in &EXIT_CODES[1..] {
            assert!(
                codes.contains(&code),
                "no variant exits with {code} ({label})"
            );
        }
        let legend = exit_code_legend();
        assert!(legend.starts_with("exit codes: 0 ok, 1 other, 2 configuration"));
        assert!(legend.ends_with("7 peer lost"), "{legend}");

        let doc = include_str!("../../../DESIGN.md");
        assert_eq!(design_rows(doc), expected_rows());
        // The check fails on a changed row and on a missing row.
        let changed = doc.replacen("| 4 | corrupt state |", "| 4 | corrupt artifact |", 1);
        let missing = doc.replacen("| 7 | peer lost | `PeerLost` |", "", 1);
        for edited in [changed, missing] {
            assert_ne!(edited, doc, "the edit must hit the table");
            assert_ne!(design_rows(&edited), expected_rows());
        }
    }

    #[test]
    fn from_impls_classify_by_failure_class() {
        let e: DcnError = NnError::Corrupt("crc".into()).into();
        assert!(matches!(e, DcnError::Corrupt(_)));
        let e: DcnError = NnError::NonFinite("nan".into()).into();
        assert!(matches!(e, DcnError::NonFinite(_)));
        let e: DcnError = DefenseError::Nn(NnError::Io {
            site: "nn.load".into(),
            kind: std::io::ErrorKind::NotFound,
            msg: "gone".into(),
        })
        .into();
        assert!(matches!(e, DcnError::Io { .. }));
        let e: DcnError = DefenseError::BadConfig("radius".into()).into();
        assert!(matches!(e, DcnError::Config(_)));
    }
}
