//! Mini-batch training loop, including crash-safe epoch-granular resume.

use std::path::Path;

use dcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::{
    cross_entropy_soft, mse_loss, softmax_cross_entropy, Network, NnError, Optimizer, Result,
    TrainCheckpoint,
};

/// Configuration for [`Trainer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (the trailing partial batch is kept).
    pub batch_size: usize,
    /// Softmax temperature used by the loss; 1.0 for standard training,
    /// higher for defensive distillation.
    pub temperature: f32,
    /// Whether to reshuffle example order each epoch.
    pub shuffle: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            temperature: 1.0,
            shuffle: true,
        }
    }
}

/// Summary of a completed [`Trainer::fit`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss per epoch, in order.
    pub epoch_losses: Vec<f32>,
}

impl TrainReport {
    /// Mean loss of the final epoch.
    ///
    /// # Panics
    ///
    /// Panics if the report is empty (zero epochs were run).
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().expect("at least one epoch")
    }
}

/// Mini-batch gradient-descent trainer for [`Network`].
///
/// Supports both hard integer labels ([`Trainer::fit`]) and soft target
/// distributions ([`Trainer::fit_soft`]), the latter being what defensive
/// distillation's second network trains against.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `net` on `(x, labels)` with hard labels.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Labels`] on label/batch disagreement,
    /// [`NnError::InvalidConfig`] for a zero batch size, and propagates
    /// forward/backward errors.
    pub fn fit<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        x: &Tensor,
        labels: &[usize],
        opt: &mut dyn Optimizer,
        rng: &mut R,
    ) -> Result<TrainReport> {
        self.run(net, x, Targets::Hard(labels), opt, rng)
    }

    /// Trains `net` as a regressor against per-example target tensors (MSE
    /// loss) — e.g. an autoencoder with `targets == x`.
    ///
    /// `targets`' leading dimension must match `x`'s; the remaining
    /// dimensions must equal the network's output shape.
    ///
    /// # Errors
    ///
    /// As [`Trainer::fit`].
    pub fn fit_regression<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        x: &Tensor,
        targets: &Tensor,
        opt: &mut dyn Optimizer,
        rng: &mut R,
    ) -> Result<TrainReport> {
        self.run(net, x, Targets::Regression(targets), opt, rng)
    }

    /// Trains `net` against per-example soft target distributions `[N, K]`.
    ///
    /// # Errors
    ///
    /// As [`Trainer::fit`].
    pub fn fit_soft<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        x: &Tensor,
        targets: &Tensor,
        opt: &mut dyn Optimizer,
        rng: &mut R,
    ) -> Result<TrainReport> {
        self.run(net, x, Targets::Soft(targets), opt, rng)
    }

    /// Trains `net` on `(x, labels)` with hard labels, checkpointing after
    /// every epoch so an interrupted run can continue where it stopped.
    ///
    /// Unlike [`Trainer::fit`], randomness comes from `seed` rather than a
    /// caller-owned rng: the shuffle order of epoch `e` is derived from
    /// `(seed, e)` alone, so a run killed after epoch `k` and resumed from
    /// the checkpoint replays epochs `k+1..` with exactly the rng streams an
    /// uninterrupted run would have used — final weights are bitwise
    /// identical either way.
    ///
    /// If `checkpoint` exists it is loaded (CRC-verified) and training
    /// resumes from the recorded epoch; `net` and `opt` are overwritten with
    /// the checkpointed state. Otherwise training starts fresh. The returned
    /// report covers all epochs, including those completed before a resume.
    ///
    /// # Errors
    ///
    /// As [`Trainer::fit`], plus [`NnError::Io`] / [`NnError::Corrupt`] /
    /// [`NnError::NonFinite`] from checkpoint IO, and
    /// [`NnError::InvalidConfig`] if an existing checkpoint disagrees with
    /// the requested topology.
    pub fn fit_resumable(
        &mut self,
        net: &mut Network,
        x: &Tensor,
        labels: &[usize],
        opt: &mut dyn Optimizer,
        seed: u64,
        checkpoint: impl AsRef<Path>,
    ) -> Result<TrainReport> {
        if self.config.batch_size == 0 {
            return Err(NnError::InvalidConfig("batch_size must be positive".into()));
        }
        let n = x.shape().first().copied().unwrap_or(0);
        if labels.len() != n {
            return Err(NnError::Labels(format!(
                "{} labels for {n} examples",
                labels.len()
            )));
        }
        if n == 0 {
            return Err(NnError::Labels("empty training set".into()));
        }

        let ckpt_path = checkpoint.as_ref();
        let mut start_epoch = 0usize;
        let mut epoch_losses: Vec<f32> = Vec::with_capacity(self.config.epochs);
        if ckpt_path.exists() {
            let ckpt = TrainCheckpoint::load(ckpt_path)?;
            if ckpt.net.input_shape() != net.input_shape() {
                return Err(NnError::InvalidConfig(format!(
                    "checkpoint input shape {:?} != model input shape {:?}",
                    ckpt.net.input_shape(),
                    net.input_shape()
                )));
            }
            opt.import_state(&ckpt.optimizer)?;
            *net = ckpt.net;
            start_epoch = ckpt.epoch;
            epoch_losses = ckpt.epoch_losses;
            if dcn_obs::enabled() {
                dcn_obs::counter(dcn_obs::names::CHECKPOINT_RESUMES_TOTAL).inc();
            }
        }

        let examples = x.unstack()?;
        let mut completed_this_run = 0usize;
        for epoch in start_epoch..self.config.epochs {
            let epoch_start = dcn_obs::enabled().then(std::time::Instant::now);
            // Shuffle order depends only on (seed, epoch): resume replays
            // the exact stream a fresh run would draw for this epoch.
            let mut rng = StdRng::seed_from_u64(epoch_seed(seed, epoch));
            let mut order: Vec<usize> = (0..n).collect();
            if self.config.shuffle {
                order.shuffle(&mut rng);
            }
            let mut total = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let batch: Vec<Tensor> = chunk.iter().map(|&i| examples[i].clone()).collect();
                let bx = Tensor::stack(&batch)?;
                let (logits, caches) = net.forward_train(&bx)?;
                let bl: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                let loss_out = softmax_cross_entropy(&logits, &bl, self.config.temperature)?;
                let (_, grads) = net.backward(&loss_out.grad, &caches)?;
                let mut params = net.params_mut();
                opt.step(&mut params, &grads)?;
                total += loss_out.loss;
                batches += 1;
            }
            let mean_loss = total / batches as f32;
            if let Some(start) = epoch_start {
                use dcn_obs::names;
                dcn_obs::counter(names::TRAIN_EPOCHS_TOTAL).inc();
                dcn_obs::counter(names::TRAIN_BATCHES_TOTAL).add(batches as u64);
                dcn_obs::sketch(names::TRAIN_EPOCH_LOSS).observe(f64::from(mean_loss));
                dcn_obs::sketch(names::TRAIN_EPOCH_SECONDS).observe(start.elapsed().as_secs_f64());
            }
            epoch_losses.push(mean_loss);
            TrainCheckpoint {
                epoch: epoch + 1,
                epoch_losses: epoch_losses.clone(),
                net: net.clone(),
                optimizer: opt.export_state()?,
            }
            .save(ckpt_path)?;
            completed_this_run += 1;
            // Deterministic crash simulation: the fault harness kills the
            // run here, after the checkpoint landed, exactly like a SIGKILL
            // between epochs.
            if let Some(limit) = dcn_fault::abort_after_epochs() {
                if completed_this_run >= limit && epoch + 1 < self.config.epochs {
                    return Err(NnError::Io {
                        site: "train.fit_resumable".to_string(),
                        kind: std::io::ErrorKind::Interrupted,
                        msg: format!("injected crash after {completed_this_run} epochs"),
                    });
                }
            }
        }
        Ok(TrainReport { epoch_losses })
    }

    fn run<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        x: &Tensor,
        targets: Targets<'_>,
        opt: &mut dyn Optimizer,
        rng: &mut R,
    ) -> Result<TrainReport> {
        if self.config.batch_size == 0 {
            return Err(NnError::InvalidConfig("batch_size must be positive".into()));
        }
        let n = x.shape().first().copied().unwrap_or(0);
        match &targets {
            Targets::Hard(l) if l.len() != n => {
                return Err(NnError::Labels(format!("{} labels for {n} examples", l.len())))
            }
            Targets::Soft(t) if t.shape().first().copied().unwrap_or(0) != n => {
                return Err(NnError::Labels(format!(
                    "{:?} soft targets for {n} examples",
                    t.shape()
                )))
            }
            Targets::Regression(t) if t.shape().first().copied().unwrap_or(0) != n => {
                return Err(NnError::Labels(format!(
                    "{:?} regression targets for {n} examples",
                    t.shape()
                )))
            }
            _ => {}
        }
        if n == 0 {
            return Err(NnError::Labels("empty training set".into()));
        }
        let examples = x.unstack()?;
        let target_rows = match &targets {
            Targets::Regression(t) => Some(t.unstack()?),
            _ => None,
        };
        let mut order: Vec<usize> = (0..n).collect();
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        for _ in 0..self.config.epochs {
            let epoch_start = dcn_obs::enabled().then(std::time::Instant::now);
            if self.config.shuffle {
                order.shuffle(rng);
            }
            let mut total = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let batch: Vec<Tensor> =
                    chunk.iter().map(|&i| examples[i].clone()).collect();
                let bx = Tensor::stack(&batch)?;
                let (logits, caches) = net.forward_train(&bx)?;
                let loss_out = match &targets {
                    Targets::Hard(labels) => {
                        let bl: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                        softmax_cross_entropy(&logits, &bl, self.config.temperature)?
                    }
                    Targets::Soft(t) => {
                        let rows: Vec<Tensor> = chunk
                            .iter()
                            .map(|&i| t.row(i))
                            .collect::<std::result::Result<_, _>>()?;
                        let bt = Tensor::stack(&rows)?;
                        cross_entropy_soft(&logits, &bt, self.config.temperature)?
                    }
                    Targets::Regression(_) => {
                        let rows = target_rows.as_ref().expect("set for regression");
                        let batch_targets: Vec<Tensor> =
                            chunk.iter().map(|&i| rows[i].clone()).collect();
                        let bt = Tensor::stack(&batch_targets)?;
                        mse_loss(&logits, &bt)?
                    }
                };
                let (_, grads) = net.backward(&loss_out.grad, &caches)?;
                let mut params = net.params_mut();
                opt.step(&mut params, &grads)?;
                total += loss_out.loss;
                batches += 1;
            }
            let mean_loss = total / batches as f32;
            if let Some(start) = epoch_start {
                use dcn_obs::names;
                dcn_obs::counter(names::TRAIN_EPOCHS_TOTAL).inc();
                dcn_obs::counter(names::TRAIN_BATCHES_TOTAL).add(batches as u64);
                dcn_obs::sketch(names::TRAIN_EPOCH_LOSS).observe(f64::from(mean_loss));
                dcn_obs::sketch(names::TRAIN_EPOCH_SECONDS).observe(start.elapsed().as_secs_f64());
            }
            epoch_losses.push(mean_loss);
        }
        Ok(TrainReport { epoch_losses })
    }
}

enum Targets<'a> {
    Hard(&'a [usize]),
    Soft(&'a Tensor),
    Regression(&'a Tensor),
}

/// Mixes `(seed, epoch)` into one 64-bit rng seed (SplitMix64 finalizer), so
/// each epoch draws an independent, reproducible shuffle stream.
///
/// Public because distributed trainers (`dcn-ps`) must reproduce this exact
/// stream to schedule the same batches in the same order as a single-process
/// [`Trainer::fit_resumable`] run — the bitwise-identity contract between
/// the two hangs on this one function.
pub fn epoch_seed(seed: u64, epoch: usize) -> u64 {
    let mut z = seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adam, Dense, Layer, Relu, Sgd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_blob_data(n_per: usize, rng: &mut StdRng) -> (Tensor, Vec<usize>) {
        // Two well-separated Gaussian blobs in 2-D.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_per * 2 {
            let c = i % 2;
            let center = if c == 0 { -2.0 } else { 2.0 };
            rows.push(Tensor::randn(&[2], center, 0.5, rng));
            labels.push(c);
        }
        (Tensor::stack(&rows).unwrap(), labels)
    }

    fn small_net(rng: &mut StdRng) -> Network {
        let mut net = Network::new(vec![2]);
        net.push(Layer::Dense(Dense::new(2, 8, rng).unwrap()));
        net.push(Layer::Relu(Relu::new()));
        net.push(Layer::Dense(Dense::new(8, 2, rng).unwrap()));
        net
    }

    #[test]
    fn training_reduces_loss_and_learns_blobs() {
        let mut rng = StdRng::seed_from_u64(11);
        let (x, y) = two_blob_data(40, &mut rng);
        let mut net = small_net(&mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 30,
            batch_size: 16,
            ..Default::default()
        });
        let report = trainer
            .fit(&mut net, &x, &y, &mut Adam::new(0.01), &mut rng)
            .unwrap();
        assert!(report.final_loss() < report.epoch_losses[0]);
        let acc = crate::metrics::accuracy(&net.predict(&x).unwrap(), &y);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn soft_target_training_matches_teacher_distribution() {
        let mut rng = StdRng::seed_from_u64(13);
        let (x, y) = two_blob_data(30, &mut rng);
        // Teacher targets: 0.9 / 0.1 soft labels.
        let n = y.len();
        let mut t = Tensor::zeros(&[n, 2]);
        for (i, &l) in y.iter().enumerate() {
            t.set(&[i, l], 0.9).unwrap();
            t.set(&[i, 1 - l], 0.1).unwrap();
        }
        let mut net = small_net(&mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 40,
            batch_size: 16,
            ..Default::default()
        });
        trainer
            .fit_soft(&mut net, &x, &t, &mut Adam::new(0.01), &mut rng)
            .unwrap();
        let acc = crate::metrics::accuracy(&net.predict(&x).unwrap(), &y);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn fit_validates_inputs() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = small_net(&mut rng);
        let x = Tensor::zeros(&[4, 2]);
        let mut opt = Sgd::new(0.1);
        let mut trainer = Trainer::new(TrainConfig::default());
        assert!(trainer
            .fit(&mut net, &x, &[0, 1], &mut opt, &mut rng)
            .is_err());
        let mut trainer = Trainer::new(TrainConfig {
            batch_size: 0,
            ..Default::default()
        });
        assert!(trainer
            .fit(&mut net, &x, &[0, 1, 0, 1], &mut opt, &mut rng)
            .is_err());
        let empty = Tensor::zeros(&[0, 2]);
        let mut trainer = Trainer::new(TrainConfig::default());
        assert!(trainer.fit(&mut net, &empty, &[], &mut opt, &mut rng).is_err());
    }

    #[test]
    fn regression_training_fits_an_autoencoder() {
        use crate::Tanh;
        let mut rng = StdRng::seed_from_u64(77);
        // Identity-ish task: reconstruct 4-d points in [-0.5, 0.5].
        let x = Tensor::rand_uniform(&[80, 4], -0.5, 0.5, &mut rng);
        let mut net = Network::new(vec![4]);
        net.push(Layer::Dense(Dense::new(4, 16, &mut rng).unwrap()));
        net.push(Layer::Relu(Relu::new()));
        net.push(Layer::Dense(Dense::new(16, 4, &mut rng).unwrap()));
        net.push(Layer::Tanh(Tanh::new()));
        // Targets scaled to tanh's comfortable range.
        let mut trainer = Trainer::new(TrainConfig { epochs: 120, batch_size: 20, ..Default::default() });
        let report = trainer
            .fit_regression(&mut net, &x, &x, &mut Adam::new(0.01), &mut rng)
            .unwrap();
        assert!(report.final_loss() < 0.01, "loss {}", report.final_loss());
        assert!(report.final_loss() < report.epoch_losses[0]);
    }

    #[test]
    fn regression_validates_target_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = small_net(&mut rng);
        let x = Tensor::zeros(&[4, 2]);
        let bad_targets = Tensor::zeros(&[3, 2]);
        let mut trainer = Trainer::new(TrainConfig::default());
        assert!(trainer
            .fit_regression(&mut net, &x, &bad_targets, &mut Sgd::new(0.1), &mut rng)
            .is_err());
    }

    #[test]
    fn resumed_training_matches_uninterrupted_run_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        let (x, y) = two_blob_data(24, &mut rng);
        let net0 = small_net(&mut rng);
        let config = TrainConfig {
            epochs: 6,
            batch_size: 8,
            ..Default::default()
        };
        let dir = std::env::temp_dir().join("dcn_nn_resume_test");
        std::fs::create_dir_all(&dir).unwrap();

        // Reference: uninterrupted 6-epoch run.
        let full_ckpt = dir.join("full.ckpt");
        let _ = std::fs::remove_file(&full_ckpt);
        let mut full_net = net0.clone();
        let mut full_opt = Adam::new(0.01);
        let full_report = Trainer::new(config.clone())
            .fit_resumable(&mut full_net, &x, &y, &mut full_opt, 42, &full_ckpt)
            .unwrap();

        // Interrupted: crash (injected) after 3 epochs, then resume.
        let part_ckpt = dir.join("part.ckpt");
        let _ = std::fs::remove_file(&part_ckpt);
        let mut part_net = net0.clone();
        let mut part_opt = Adam::new(0.01);
        dcn_fault::set_plan(Some(dcn_fault::FaultPlan {
            abort_after_epochs: Some(3),
            ..dcn_fault::FaultPlan::default()
        }));
        let crash = Trainer::new(config.clone()).fit_resumable(
            &mut part_net,
            &x,
            &y,
            &mut part_opt,
            42,
            &part_ckpt,
        );
        dcn_fault::set_plan(None);
        assert!(matches!(crash, Err(NnError::Io { .. })), "got {crash:?}");

        let mut resumed_net = net0.clone();
        let mut resumed_opt = Adam::new(0.01);
        let resumed_report = Trainer::new(config)
            .fit_resumable(&mut resumed_net, &x, &y, &mut resumed_opt, 42, &part_ckpt)
            .unwrap();

        assert_eq!(full_net, resumed_net, "weights must match bitwise");
        assert_eq!(full_report, resumed_report);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fit_resumable_rejects_mismatched_checkpoint() {
        let mut rng = StdRng::seed_from_u64(22);
        let (x, y) = two_blob_data(8, &mut rng);
        let dir = std::env::temp_dir().join("dcn_nn_resume_mismatch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("model.ckpt");
        let _ = std::fs::remove_file(&ckpt);

        // Checkpoint trained on a 3-input model, resumed with a 2-input one.
        let mut wide = Network::new(vec![3]);
        wide.push(Layer::Dense(Dense::new(3, 2, &mut rng).unwrap()));
        crate::TrainCheckpoint {
            epoch: 1,
            epoch_losses: vec![1.0],
            net: wide,
            optimizer: Adam::new(0.01).export_state().unwrap(),
        }
        .save(&ckpt)
        .unwrap();

        let mut net = small_net(&mut rng);
        let r = Trainer::new(TrainConfig::default()).fit_resumable(
            &mut net,
            &x,
            &y,
            &mut Adam::new(0.01),
            0,
            &ckpt,
        );
        assert!(matches!(r, Err(NnError::InvalidConfig(_))), "got {r:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn zero_epochs_is_a_noop_report() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = small_net(&mut rng);
        let snapshot = net.clone();
        let (x, y) = two_blob_data(4, &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 0,
            ..Default::default()
        });
        let report = trainer
            .fit(&mut net, &x, &y, &mut Sgd::new(0.1), &mut rng)
            .unwrap();
        assert!(report.epoch_losses.is_empty());
        assert_eq!(net, snapshot);
    }
}
