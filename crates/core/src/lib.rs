//! # dcn-core
//!
//! The Detector-Corrector Network (DCN) of Wen et al. (DSN 2018), plus the
//! defenses it is compared against.
//!
//! A DCN wraps an *unmodified* base classifier with two components:
//!
//! 1. A [`Detector`] — a two-layer fully-connected binary classifier that
//!    reads only the base network's **logits** and decides whether the input
//!    is adversarial. The paper's measurement insight is that adversarial
//!    examples have low-margin, two-peaked logit vectors while benign inputs
//!    have one confident peak.
//! 2. A [`Corrector`] — a re-parameterized Region-based Classifier: sample
//!    `m` points uniformly in a hypercube of radius `r` around the input,
//!    classify each with the base network, and return the majority vote.
//!    DCN's efficiency gain over plain RC comes from (a) only invoking the
//!    corrector when the detector fires and (b) using `m = 50` instead of
//!    `m = 1000`.
//!
//! The crate also implements the paper's baselines — [`RegionClassifier`]
//! (Cao & Gong, ACSAC'17) and [`distill`] (defensive distillation, Papernot
//! et al.) — a shared [`Defense`] trait, a model zoo matching the paper's
//! MNIST/CIFAR architectures ([`models`]), and forward-pass cost accounting
//! ([`CountingClassifier`]) used to regenerate the paper's efficiency tables.
//! [`wire`] holds the framing and payload coding that the `dcn-serve` and
//! `dcn-ps` protocols share.
//!
//! # Examples
//!
//! End-to-end: train a base model, attack it, detect and correct.
//!
//! ```no_run
//! use dcn_core::{models, Corrector, Dcn, Detector, DetectorConfig};
//! use dcn_attacks::{CwL2, TargetedAttack};
//! use dcn_data::{synth_mnist, SynthConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let train = synth_mnist(2000, &SynthConfig::default(), &mut rng);
//! let net = models::train_classifier(models::mnist_cnn(&mut rng)?, &train, 5, 0.002, &mut rng)?;
//!
//! // Train the detector on CW-L2 adversarial logits.
//! let seeds: Vec<_> = (0..20).map(|i| train.example(i).unwrap()).collect();
//! let detector = Detector::train_against(&net, &seeds, &CwL2::new(0.0),
//!                                        &DetectorConfig::default(), &mut rng)?;
//! let dcn = Dcn::new(net, detector, Corrector::mnist_default());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod adaptive;
mod batch;
mod corrector;
mod cost;
mod dcn;
mod defense;
mod detector;
mod distill;
mod error;
mod magnet;
pub mod models;
mod region;
mod squeeze;
pub mod wire;

pub use adaptive::AdaptiveCwL2;
pub use batch::BatchRequest;
pub use corrector::{BoundedVote, Corrector, VoteBudget};
pub use cost::CountingClassifier;
pub use dcn::{Dcn, DcnReport, DcnVerdict};
pub use error::{exit_code_legend, DcnError, EXIT_CODES};
pub use defense::{attack_success_against, defense_accuracy, Defense, StandardDefense};
pub use detector::{Detector, DetectorConfig, DetectorReport};
pub use distill::{distill, DistillConfig};
pub use magnet::{MagNet, MagNetConfig};
pub use region::RegionClassifier;
pub use squeeze::{FeatureSqueezer, Squeezer};

use std::fmt;

use dcn_attacks::AttackError;
use dcn_nn::NnError;
use dcn_tensor::TensorError;

/// Error type for defense construction and inference.
#[derive(Debug, Clone, PartialEq)]
pub enum DefenseError {
    /// A network operation failed.
    Nn(NnError),
    /// A tensor operation failed.
    Tensor(TensorError),
    /// An attack invoked during detector training failed.
    Attack(AttackError),
    /// Invalid defense configuration (zero samples, negative radius, …).
    BadConfig(String),
    /// Training data for a component was empty or degenerate.
    BadData(String),
    /// Logits or activations contained NaN/infinity where the component
    /// requires finite numbers. The serving path treats this as a detected
    /// attack (fail closed) rather than classifying garbage.
    NonFinite(String),
}

impl fmt::Display for DefenseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefenseError::Nn(e) => write!(f, "network error: {e}"),
            DefenseError::Tensor(e) => write!(f, "tensor error: {e}"),
            DefenseError::Attack(e) => write!(f, "attack error: {e}"),
            DefenseError::BadConfig(msg) => write!(f, "bad config: {msg}"),
            DefenseError::BadData(msg) => write!(f, "bad data: {msg}"),
            DefenseError::NonFinite(msg) => write!(f, "non-finite values: {msg}"),
        }
    }
}

impl std::error::Error for DefenseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DefenseError::Nn(e) => Some(e),
            DefenseError::Tensor(e) => Some(e),
            DefenseError::Attack(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for DefenseError {
    fn from(e: NnError) -> Self {
        DefenseError::Nn(e)
    }
}

impl From<TensorError> for DefenseError {
    fn from(e: TensorError) -> Self {
        DefenseError::Tensor(e)
    }
}

impl From<AttackError> for DefenseError {
    fn from(e: AttackError) -> Self {
        DefenseError::Attack(e)
    }
}

impl From<dcn_data::DataError> for DefenseError {
    fn from(e: dcn_data::DataError) -> Self {
        DefenseError::BadData(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DefenseError>;
