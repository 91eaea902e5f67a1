//! The paper's detection method (§3): a two-layer binary classifier over
//! the base network's logits.

use dcn_attacks::TargetedAttack;
use dcn_nn::{metrics, Adam, Dense, Layer, Network, Relu, TrainConfig, Trainer};
use dcn_tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{DefenseError, Result};

/// Class index the detector assigns to benign logits.
pub const BENIGN: usize = 0;
/// Class index the detector assigns to adversarial logits.
pub const ADVERSARIAL: usize = 1;

/// Training hyper-parameters for [`Detector::train_from_logits`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Hidden width of the two-layer network (the paper calls it
    /// "extremely light-weight").
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Canonicalize logits by sorting them descending before the network.
    ///
    /// The paper's signal is the *shape* of the classification probability
    /// distribution (one confident peak vs two competing peaks), which is
    /// permutation-invariant in the class index. Sorting bakes that
    /// invariance in, making the detector sample-efficient: with raw logits
    /// it needs to see confident peaks at every class index during training
    /// (the paper uses 10,000 training logits); sorted, a few hundred
    /// suffice. `false` reproduces the paper's raw-logit feature exactly
    /// (see the `ablate_features` bench).
    pub sort_logits: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            hidden: 32,
            epochs: 60,
            learning_rate: 0.01,
            sort_logits: true,
        }
    }
}

/// False-positive / false-negative report in the paper's Table 2 convention:
/// a *false negative* is a benign example flagged adversarial (activating
/// the corrector unnecessarily); a *false positive* is an adversarial
/// example that slips through as benign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorReport {
    /// Fraction of benign inputs flagged adversarial.
    pub false_negative: f32,
    /// Fraction of adversarial inputs flagged benign.
    pub false_positive: f32,
    /// Number of benign test logits.
    pub benign_count: usize,
    /// Number of adversarial test logits.
    pub adversarial_count: usize,
}

/// The logit-space adversarial-example detector.
///
/// The detector never sees images — only the `K`-dimensional logit vector
/// the base network already computed, which is what makes it nearly free at
/// inference time (two tiny dense layers on a 10-vector).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detector {
    net: Network,
    /// Per-dimension standardization fitted on the training logits. Raw
    /// logit magnitudes depend on how confident the base network is (often
    /// tens), which cripples a small MLP trained with a fixed learning rate;
    /// z-scoring makes the detector robust to the base network's scale.
    mean: Vec<f32>,
    std: Vec<f32>,
    sort_logits: bool,
}

fn sort_desc(logits: &Tensor) -> Tensor {
    let mut v = logits.data().to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    Tensor::from_slice(&v)
}

impl Detector {
    fn canonicalize(&self, logits: &Tensor) -> Tensor {
        let mut out = if self.sort_logits {
            sort_desc(logits)
        } else {
            logits.clone()
        };
        for (i, v) in out.data_mut().iter_mut().enumerate() {
            *v = (*v - self.mean[i]) / self.std[i];
        }
        out
    }

    /// Trains a detector from pre-computed benign and adversarial logit
    /// vectors.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::BadData`] if either set is empty or widths
    /// disagree, and propagates training errors.
    pub fn train_from_logits<R: Rng + ?Sized>(
        benign: &[Tensor],
        adversarial: &[Tensor],
        config: &DetectorConfig,
        rng: &mut R,
    ) -> Result<Self> {
        let first = benign
            .first()
            .or_else(|| adversarial.first())
            .ok_or_else(|| DefenseError::BadData("no detector training logits".into()))?;
        if benign.is_empty() || adversarial.is_empty() {
            return Err(DefenseError::BadData(
                "detector needs both benign and adversarial logits".into(),
            ));
        }
        let k = first.len();
        let mut all: Vec<Tensor> = Vec::with_capacity(benign.len() + adversarial.len());
        let mut labels = Vec::with_capacity(all.capacity());
        for t in benign {
            all.push(t.clone());
            labels.push(BENIGN);
        }
        for t in adversarial {
            all.push(t.clone());
            labels.push(ADVERSARIAL);
        }
        if all.iter().any(|t| t.len() != k || t.rank() != 1) {
            return Err(DefenseError::BadData(
                "detector logits must all be rank-1 of equal width".into(),
            ));
        }
        if config.sort_logits {
            for t in &mut all {
                *t = sort_desc(t);
            }
        }
        // Fit the standardization on the pooled training logits.
        let n = all.len() as f32;
        let mut mean = vec![0.0f32; k];
        for t in &all {
            for (m, &v) in mean.iter_mut().zip(t.data()) {
                *m += v / n;
            }
        }
        let mut std = vec![0.0f32; k];
        for t in &all {
            for ((s, &v), m) in std.iter_mut().zip(t.data()).zip(&mean) {
                *s += (v - m) * (v - m) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt().max(1e-3);
        }
        for t in &mut all {
            for ((v, m), s) in t.data_mut().iter_mut().zip(&mean).zip(&std) {
                *v = (*v - m) / s;
            }
        }
        let x = Tensor::stack(&all)?;
        let mut net = Network::new(vec![k]);
        net.push(Layer::Dense(Dense::new(k, config.hidden, rng)?));
        net.push(Layer::Relu(Relu::new()));
        net.push(Layer::Dense(Dense::new(config.hidden, 2, rng)?));
        let mut trainer = Trainer::new(TrainConfig {
            epochs: config.epochs,
            batch_size: 32,
            ..Default::default()
        });
        trainer.fit(
            &mut net,
            &x,
            &labels,
            &mut Adam::new(config.learning_rate),
            rng,
        )?;
        Ok(Detector {
            net,
            mean,
            std,
            sort_logits: config.sort_logits,
        })
    }

    /// Trains a detector exactly as the paper does (§5.2): take benign seed
    /// images the base network classifies correctly, generate one targeted
    /// adversarial example per other class with `attack` (the paper uses
    /// CW-L2, κ=0), and fit on the resulting logit sets.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::BadData`] if no adversarial examples could be
    /// generated, and propagates attack/training errors.
    pub fn train_against<A: TargetedAttack + ?Sized, R: Rng + ?Sized>(
        base: &Network,
        seeds: &[Tensor],
        attack: &A,
        config: &DetectorConfig,
        rng: &mut R,
    ) -> Result<Self> {
        let k = base.num_classes()?;
        let mut benign = Vec::new();
        let mut adversarial = Vec::new();
        for x in seeds {
            let label = base.predict_one(x)?;
            benign.push(base.logits_one(x)?);
            for target in (0..k).filter(|&t| t != label) {
                if let Some(adv) = attack.run_targeted(base, x, target)? {
                    adversarial.push(base.logits_one(&adv)?);
                }
            }
        }
        if adversarial.is_empty() {
            return Err(DefenseError::BadData(
                "attack produced no adversarial examples to train on".into(),
            ));
        }
        Detector::train_from_logits(&benign, &adversarial, config, rng)
    }

    /// Whether a logit vector is flagged as adversarial.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::NonFinite`] for logits containing NaN or
    /// infinity — the detector's statistics are meaningless on them, and a
    /// garbage verdict would silently defeat the defense. (The serving path
    /// in [`crate::Dcn`] treats non-finite logits as detected-adversarial
    /// *before* consulting the detector, failing closed instead of
    /// erroring.) Also propagates forward-pass errors (wrong logit width).
    pub fn is_adversarial(&self, logits: &Tensor) -> Result<bool> {
        if logits.len() != self.mean.len() || logits.rank() != 1 {
            return Err(DefenseError::BadData(format!(
                "detector expects a rank-1 logit vector of width {}, got {:?}",
                self.mean.len(),
                logits.shape()
            )));
        }
        if !logits.all_finite() {
            return Err(DefenseError::NonFinite(
                "logit vector contains NaN or infinity; refusing to score it".into(),
            ));
        }
        let flagged = self.net.predict_one(&self.canonicalize(logits))? == ADVERSARIAL;
        if dcn_obs::enabled() {
            dcn_obs::counter(dcn_obs::names::DETECTOR_EVALUATED_TOTAL).inc();
            if flagged {
                dcn_obs::counter(dcn_obs::names::DETECTOR_FLAGGED_TOTAL).inc();
            }
        }
        Ok(flagged)
    }

    /// Batch scoring: flags every logit vector in one batched forward pass
    /// through the detector network (batch-chunked across the
    /// [`dcn_tensor::par`] thread budget by [`Network::forward`]).
    ///
    /// Per-example results are bitwise-identical to calling
    /// [`Detector::is_adversarial`] in a loop; this entry point exists so
    /// evaluation sweeps pay one forward pass instead of `N`.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors (wrong logit width).
    pub fn flag_batch(&self, logits: &[Tensor]) -> Result<Vec<bool>> {
        if logits.is_empty() {
            return Ok(Vec::new());
        }
        for t in logits {
            if t.len() != self.mean.len() || t.rank() != 1 {
                return Err(DefenseError::BadData(format!(
                    "detector expects rank-1 logit vectors of width {}, got {:?}",
                    self.mean.len(),
                    t.shape()
                )));
            }
        }
        let canon: Vec<Tensor> = logits.iter().map(|t| self.canonicalize(t)).collect();
        let batch = Tensor::stack(&canon)?;
        let preds = self.net.predict(&batch)?;
        let flags: Vec<bool> = preds.into_iter().map(|p| p == ADVERSARIAL).collect();
        if dcn_obs::enabled() {
            dcn_obs::counter(dcn_obs::names::DETECTOR_EVALUATED_TOTAL).add(flags.len() as u64);
            dcn_obs::counter(dcn_obs::names::DETECTOR_FLAGGED_TOTAL)
                .add(flags.iter().filter(|&&f| f).count() as u64);
        }
        Ok(flags)
    }

    /// Evaluates the detector on held-out logit sets, in the paper's
    /// Table 2 convention.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn evaluate(&self, benign: &[Tensor], adversarial: &[Tensor]) -> Result<DetectorReport> {
        let benign_flags = self.flag_batch(benign)?;
        let adversarial_flags = self.flag_batch(adversarial)?;
        if dcn_obs::enabled() {
            use dcn_obs::names;
            dcn_obs::counter(names::DETECTOR_BENIGN_TOTAL).add(benign.len() as u64);
            dcn_obs::counter(names::DETECTOR_BENIGN_FLAGGED_TOTAL)
                .add(benign_flags.iter().filter(|&&f| f).count() as u64);
            dcn_obs::counter(names::DETECTOR_ADV_TOTAL).add(adversarial.len() as u64);
            dcn_obs::counter(names::DETECTOR_ADV_MISSED_TOTAL)
                .add(adversarial_flags.iter().filter(|&&f| !f).count() as u64);
        }
        let mut predicted = Vec::with_capacity(benign.len() + adversarial.len());
        let mut actual = Vec::with_capacity(predicted.capacity());
        predicted.extend(benign_flags);
        actual.extend(std::iter::repeat_n(false, benign.len()));
        predicted.extend(adversarial_flags);
        actual.extend(std::iter::repeat_n(true, adversarial.len()));
        // In the paper's wording, "positive" is *benign passing through*:
        // a false negative is benign→flagged; false positive is adv→missed.
        let (missed_adv_rate, flagged_benign_rate) =
            metrics::binary_error_rates(&predicted, &actual);
        Ok(DetectorReport {
            false_negative: flagged_benign_rate,
            false_positive: missed_adv_rate,
            benign_count: benign.len(),
            adversarial_count: adversarial.len(),
        })
    }

    /// The underlying two-layer network (for inspection and persistence).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Differentiable detection score: the detector's logit margin
    /// `z[ADVERSARIAL] − z[BENIGN]` (positive ⇔ flagged), together with its
    /// gradient with respect to the *base network's* logit vector.
    ///
    /// This is the primitive an adaptive attacker (§6 of the paper) needs:
    /// the chain runs backward through the detector MLP, the standardization
    /// (divide by σ), and the sort permutation (scatter the gradient back to
    /// the pre-sort positions).
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::BadData`] for a logit vector of the wrong
    /// width and propagates network errors.
    pub fn score_gradient(&self, logits: &Tensor) -> Result<(f32, Tensor)> {
        let k = self.mean.len();
        if logits.len() != k || logits.rank() != 1 {
            return Err(DefenseError::BadData(format!(
                "detector expects a rank-1 logit vector of width {k}, got {:?}",
                logits.shape()
            )));
        }
        // Sort permutation: canon[i] = logits[perm[i]].
        let mut perm: Vec<usize> = (0..k).collect();
        if self.sort_logits {
            perm.sort_by(|&a, &b| logits.data()[b].total_cmp(&logits.data()[a]));
        }
        let mut canon = Tensor::zeros(&[k]);
        for (i, &p) in perm.iter().enumerate() {
            canon.data_mut()[i] = (logits.data()[p] - self.mean[i]) / self.std[i];
        }
        let out = self.net.logits_one(&canon)?;
        let score = out.data()[ADVERSARIAL] - out.data()[BENIGN];
        // d score / d detector-output.
        let mut dlogits = Tensor::zeros(&[1, 2]);
        dlogits.data_mut()[ADVERSARIAL] = 1.0;
        dlogits.data_mut()[BENIGN] = -1.0;
        let batched = Tensor::stack(&[canon])?;
        let gcanon = self
            .net
            .input_gradient(&batched, &dlogits)?
            .unstack()?
            .swap_remove(0);
        // Chain through standardization and undo the permutation.
        let mut g = Tensor::zeros(&[k]);
        for (i, &p) in perm.iter().enumerate() {
            g.data_mut()[p] = gcanon.data()[i] / self.std[i];
        }
        Ok((score, g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Synthetic logit distributions mimicking the paper's Fig. 1: benign
    /// logits have one tall peak, adversarial logits two close peaks.
    fn fake_logits(n: usize, adversarial: bool, rng: &mut StdRng) -> Vec<Tensor> {
        (0..n)
            .map(|i| {
                let mut v = Tensor::randn(&[10], 0.0, 1.0, rng).into_vec();
                let c = i % 10;
                if adversarial {
                    v[c] += 2.0;
                    v[(c + 3) % 10] += 1.6; // runner-up almost as confident
                } else {
                    v[c] += 12.0; // single confident peak
                }
                Tensor::from_slice(&v)
            })
            .collect()
    }

    #[test]
    fn detector_separates_peaked_from_flat_logits() {
        let mut rng = StdRng::seed_from_u64(4);
        let benign = fake_logits(200, false, &mut rng);
        let adv = fake_logits(200, true, &mut rng);
        let det =
            Detector::train_from_logits(&benign, &adv, &DetectorConfig::default(), &mut rng)
                .unwrap();
        let test_benign = fake_logits(100, false, &mut rng);
        let test_adv = fake_logits(100, true, &mut rng);
        let report = det.evaluate(&test_benign, &test_adv).unwrap();
        assert!(report.false_positive < 0.1, "fp {}", report.false_positive);
        assert!(report.false_negative < 0.1, "fn {}", report.false_negative);
        assert_eq!(report.benign_count, 100);
        assert_eq!(report.adversarial_count, 100);
    }

    #[test]
    fn train_rejects_empty_or_ragged_input() {
        let mut rng = StdRng::seed_from_u64(5);
        let benign = fake_logits(5, false, &mut rng);
        assert!(matches!(
            Detector::train_from_logits(&benign, &[], &DetectorConfig::default(), &mut rng),
            Err(DefenseError::BadData(_))
        ));
        assert!(matches!(
            Detector::train_from_logits(&[], &[], &DetectorConfig::default(), &mut rng),
            Err(DefenseError::BadData(_))
        ));
        let ragged = vec![Tensor::zeros(&[7])];
        assert!(Detector::train_from_logits(&benign, &ragged, &DetectorConfig::default(), &mut rng)
            .is_err());
    }

    #[test]
    fn detector_round_trips_through_serde() {
        let mut rng = StdRng::seed_from_u64(6);
        let benign = fake_logits(50, false, &mut rng);
        let adv = fake_logits(50, true, &mut rng);
        let det =
            Detector::train_from_logits(&benign, &adv, &DetectorConfig::default(), &mut rng)
                .unwrap();
        let json = serde_json::to_string(&det).unwrap();
        let back: Detector = serde_json::from_str(&json).unwrap();
        assert_eq!(det, back);
        assert_eq!(
            det.is_adversarial(&benign[0]).unwrap(),
            back.is_adversarial(&benign[0]).unwrap()
        );
    }

    #[test]
    fn is_adversarial_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(7);
        let benign = fake_logits(20, false, &mut rng);
        let adv = fake_logits(20, true, &mut rng);
        let det =
            Detector::train_from_logits(&benign, &adv, &DetectorConfig::default(), &mut rng)
                .unwrap();
        assert!(det.is_adversarial(&Tensor::zeros(&[3])).is_err());
    }
}
