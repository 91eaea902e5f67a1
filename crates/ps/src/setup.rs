//! Deterministic job setup: dataset, model and shuffle streams from a seed.
//!
//! The server and every worker reconstruct the *same* training world
//! independently, by replaying the exact RNG stream order the `dcn train`
//! CLI uses: one `StdRng` seeded from the job seed draws the training set,
//! then the held-out test set, then the model initialization. Nothing about
//! the world crosses the wire except the [`crate::JobSpec`] scalars — a
//! worker respawned after a SIGKILL rebuilds it bit-for-bit from those.

use dcn_core::{models, DcnError};
use dcn_data::{synth_cifar, synth_mnist, Dataset, SynthConfig};
use dcn_nn::{epoch_seed, Network};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The reconstructed training world.
pub struct Job {
    /// The training set.
    pub train: Dataset,
    /// The held-out set, for final-accuracy reporting.
    pub test: Dataset,
    /// The freshly initialized model.
    pub net: Network,
}

/// Rebuilds the training world for `(task, n, seed)`.
///
/// The draw order — train set, test set, model — must never change: it is
/// pinned to `dcn train`'s stream so a BSP run's final model stays
/// `cmp`-identical to the single-process CLI path.
///
/// # Errors
///
/// [`DcnError::Config`] for an unknown task; propagates model-construction
/// errors.
pub fn build_job(task: &str, n: usize, seed: u64) -> Result<Job, DcnError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let train = dataset(task, n, &mut rng)?;
    let test = dataset(task, n / 4 + 50, &mut rng)?;
    let net = match task {
        "mnist" => models::mnist_cnn(&mut rng),
        _ => models::cifar_cnn(&mut rng),
    }?;
    Ok(Job { train, test, net })
}

fn dataset(task: &str, n: usize, rng: &mut StdRng) -> Result<Dataset, DcnError> {
    match task {
        "mnist" => Ok(synth_mnist(n, &SynthConfig::default(), rng)),
        "cifar" => Ok(synth_cifar(n, &SynthConfig::default(), rng)),
        other => Err(DcnError::Config(format!(
            "unknown task {other:?} (mnist or cifar)"
        ))),
    }
}

/// The example order of `epoch`: the same `(seed, epoch)`
/// shuffle `Trainer::fit_resumable` draws, so global batch `b` of epoch `e`
/// names the same examples here, in the trainer, and on every worker.
pub fn bsp_epoch_order(n: usize, seed: u64, epoch: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(epoch_seed(seed, epoch));
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    order
}

/// Batches per epoch: `ceil(n / batch_size)` — the trailing partial batch
/// is kept, matching `TrainConfig`.
pub fn num_batches(n: usize, batch_size: usize) -> usize {
    n.div_ceil(batch_size.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_reconstruction_is_bitwise_reproducible() {
        let a = build_job("mnist", 24, 7).unwrap();
        let b = build_job("mnist", 24, 7).unwrap();
        assert_eq!(a.net.to_json().unwrap(), b.net.to_json().unwrap());
        assert_eq!(a.train.images().data(), b.train.images().data());
        assert_eq!(a.train.labels(), b.train.labels());
    }

    #[test]
    fn bsp_order_matches_across_calls_and_differs_across_epochs() {
        let e0 = bsp_epoch_order(100, 42, 0);
        assert_eq!(e0, bsp_epoch_order(100, 42, 0));
        assert_ne!(e0, bsp_epoch_order(100, 42, 1));
        let mut sorted = e0.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn batch_count_keeps_the_trailing_partial_batch() {
        assert_eq!(num_batches(100, 32), 4);
        assert_eq!(num_batches(96, 32), 3);
        assert_eq!(num_batches(1, 32), 1);
    }
}
