//! # dcn-nn
//!
//! A from-scratch, CPU-only neural-network framework: the "Keras +
//! TensorFlow" substrate of the DCN reproduction.
//!
//! The crate provides everything the paper's pipeline needs from a deep
//! learning stack:
//!
//! * **Layers** — [`Dense`], [`Conv2d`], [`MaxPool2d`], [`Relu`],
//!   [`Flatten`], composed into a sequential [`Network`].
//! * **Differentiation** — exact reverse-mode gradients with respect to both
//!   parameters (for training) and *inputs* (for evasion attacks), via
//!   [`Network::backward`] and [`Network::input_gradient`].
//! * **Losses** — softmax cross-entropy with a distillation temperature
//!   ([`softmax_cross_entropy`], [`cross_entropy_soft`]) and the logit
//!   helpers ([`softmax`], [`cw_loss`]) that the detector and the CW attacks
//!   consume.
//! * **Optimizers** — [`Sgd`], [`Momentum`], [`Adam`].
//! * **Training** — a minimal [`Trainer`] loop with shuffling and batching,
//!   plus [`metrics`] (accuracy, confusion matrix).
//! * **Persistence** — every model serializes with `serde` so trained
//!   networks can be cached between benchmark runs.
//!
//! # Examples
//!
//! Train a two-layer perceptron on XOR:
//!
//! ```
//! use dcn_nn::{Adam, Dense, Layer, Network, Relu, Trainer, TrainConfig};
//! use dcn_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), dcn_nn::NnError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Network::new(vec![2]);
//! net.push(Layer::Dense(Dense::new(2, 8, &mut rng)?));
//! net.push(Layer::Relu(Relu::new()));
//! net.push(Layer::Dense(Dense::new(8, 2, &mut rng)?));
//!
//! let x = Tensor::from_vec(vec![4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.])?;
//! let y = vec![0usize, 1, 1, 0];
//! let mut trainer = Trainer::new(TrainConfig { epochs: 200, batch_size: 4, ..Default::default() });
//! trainer.fit(&mut net, &x, &y, &mut Adam::new(0.05), &mut rng)?;
//! let acc = dcn_nn::metrics::accuracy(&net.predict(&x)?, &y);
//! assert!(acc > 0.99);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod checkpoint;
mod classifier;
mod error;
mod layers;
mod loss;
pub mod metrics;
mod network;
mod optim;
mod train;

pub use checkpoint::{RetryPolicy, TrainCheckpoint};
pub use classifier::Classifier;
pub use error::NnError;
pub use layers::{Conv2d, Dense, Flatten, Layer, LayerCache, MaxPool2d, Relu, Sigmoid, Tanh};
pub use loss::{
    cross_entropy_soft, cw_loss, mse_loss, softmax, softmax_cross_entropy, LossOutput,
};
pub use network::Network;
pub use optim::{Adam, Momentum, Optimizer, Sgd};
pub use train::{epoch_seed, TrainConfig, TrainReport, Trainer};

/// Crate-wide result alias for fallible network operations.
pub type Result<T> = std::result::Result<T, NnError>;
