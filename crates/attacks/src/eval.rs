//! Attack-evaluation harness: success rates and distortion statistics, the
//! raw material of the paper's Tables 4 and 5.

use dcn_nn::Network;
use dcn_tensor::{par, Tensor};
use serde::{Deserialize, Serialize};

use crate::{
    untargeted_min_distortion, AdversarialExample, Result, TargetedAttack, UntargetedAttack,
};

/// Aggregate outcome of running an attack over a set of seed examples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackStats {
    /// Attack name.
    pub attack: String,
    /// Number of (example, target) attempts.
    pub attempts: usize,
    /// Number of successful adversarial examples.
    pub successes: usize,
    /// Mean L2 distortion over successes (0 if none).
    pub mean_l2: f32,
    /// Mean L0 distortion over successes (0 if none).
    pub mean_l0: f32,
    /// Mean L∞ distortion over successes (0 if none).
    pub mean_linf: f32,
}

impl AttackStats {
    /// Success rate in `[0, 1]` (0 for zero attempts).
    pub fn success_rate(&self) -> f32 {
        if self.attempts == 0 {
            0.0
        } else {
            self.successes as f32 / self.attempts as f32
        }
    }

    fn from_examples(attack: &str, attempts: usize, examples: &[AdversarialExample]) -> Self {
        record_attack_metrics(attack, attempts, examples);
        let n = examples.len().max(1) as f32;
        AttackStats {
            attack: attack.to_string(),
            attempts,
            successes: examples.len(),
            mean_l2: examples.iter().map(|e| e.dist_l2).sum::<f32>() / n,
            mean_l0: examples.iter().map(|e| e.dist_l0).sum::<f32>() / n,
            mean_linf: examples.iter().map(|e| e.dist_linf).sum::<f32>() / n,
        }
    }
}

/// Emits per-attack counters and an L2-distortion sketch under
/// `attack.<name>.*`, with the attack name lowercased and non-alphanumerics
/// folded to `_` so metric names stay greppable.
fn record_attack_metrics(attack: &str, attempts: usize, examples: &[AdversarialExample]) {
    if !dcn_obs::enabled() {
        return;
    }
    let slug: String = attack
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    dcn_obs::counter(&format!("attack.{slug}.attempts_total")).add(attempts as u64);
    dcn_obs::counter(&format!("attack.{slug}.successes_total")).add(examples.len() as u64);
    let l2 = dcn_obs::sketch(&format!("attack.{slug}.l2"));
    for e in examples {
        l2.observe(f64::from(e.dist_l2));
    }
}

/// Runs a targeted attack for every seed against every class other than its
/// current prediction (the paper generates 9 adversarials per seed on a
/// 10-class task).
///
/// Returns the statistics plus every successful [`AdversarialExample`].
///
/// # Errors
///
/// Propagates attack and classifier errors.
pub fn evaluate_targeted<A: TargetedAttack + ?Sized>(
    attack: &A,
    net: &Network,
    seeds: &[Tensor],
) -> Result<(AttackStats, Vec<AdversarialExample>)> {
    let _span = dcn_obs::span("attack.eval_targeted");
    let k = net.num_classes()?;
    // Seeds are attacked independently (the attacks are deterministic given
    // the seed), so each seed's full target sweep runs as one parallel unit;
    // per-seed results are re-joined in seed order, making the output — and
    // the attempt count — identical to the serial loop.
    let per_seed = par::par_map(seeds, 1, |_, x| -> Result<_> {
        let label = net.predict_one(x)?;
        let mut attempts = 0usize;
        let mut found = Vec::new();
        for target in (0..k).filter(|&t| t != label) {
            attempts += 1;
            if let Some(adv) = attack.run_targeted(net, x, target)? {
                found.push(AdversarialExample::measure(net, x, &adv, Some(target))?);
            }
        }
        Ok((attempts, found))
    });
    let mut attempts = 0usize;
    let mut found = Vec::new();
    for r in per_seed {
        let (a, f) = r?;
        attempts += a;
        found.extend(f);
    }
    Ok((
        AttackStats::from_examples(attack.name(), attempts, &found),
        found,
    ))
}

/// Runs the paper's untargeted reduction of a targeted attack over seeds:
/// one attempt per seed, keeping the least-distorted success across targets.
///
/// # Errors
///
/// Propagates attack and classifier errors.
pub fn evaluate_untargeted<A: TargetedAttack + ?Sized>(
    attack: &A,
    net: &Network,
    seeds: &[Tensor],
) -> Result<(AttackStats, Vec<AdversarialExample>)> {
    let _span = dcn_obs::span("attack.eval_untargeted");
    let per_seed = par::par_map(seeds, 1, |_, x| -> Result<_> {
        match untargeted_min_distortion(attack, net, x)? {
            Some(adv) => Ok(Some(AdversarialExample::measure(net, x, &adv, None)?)),
            None => Ok(None),
        }
    });
    let mut found = Vec::new();
    for r in per_seed {
        if let Some(ex) = r? {
            found.push(ex);
        }
    }
    Ok((
        AttackStats::from_examples(attack.name(), seeds.len(), &found),
        found,
    ))
}

/// Runs a natively untargeted attack (DeepFool) over seeds.
///
/// # Errors
///
/// Propagates attack and classifier errors.
pub fn evaluate_native_untargeted<A: UntargetedAttack + ?Sized>(
    attack: &A,
    net: &Network,
    seeds: &[Tensor],
) -> Result<(AttackStats, Vec<AdversarialExample>)> {
    let _span = dcn_obs::span("attack.eval_native_untargeted");
    let per_seed = par::par_map(seeds, 1, |_, x| -> Result<_> {
        match attack.run_untargeted(net, x)? {
            Some(adv) => Ok(Some(AdversarialExample::measure(net, x, &adv, None)?)),
            None => Ok(None),
        }
    });
    let mut found = Vec::new();
    for r in per_seed {
        if let Some(ex) = r? {
            found.push(ex);
        }
    }
    Ok((
        AttackStats::from_examples(attack.name(), seeds.len(), &found),
        found,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistanceMetric, Fgsm};
    use dcn_nn::{Dense, Layer};

    fn split_net() -> Network {
        let w = Tensor::from_vec(vec![1, 2], vec![-10.0, 10.0]).unwrap();
        let b = Tensor::from_slice(&[0.0, 0.0]);
        let mut net = Network::new(vec![1]);
        net.push(Layer::Dense(Dense::from_params(w, b).unwrap()));
        net
    }

    #[test]
    fn targeted_evaluation_counts_attempts_per_target() {
        let net = split_net();
        let seeds = vec![
            Tensor::from_slice(&[-0.05]),
            Tensor::from_slice(&[0.05]),
            Tensor::from_slice(&[-0.4]),
        ];
        let (stats, examples) = evaluate_targeted(&Fgsm::new(0.1), &net, &seeds).unwrap();
        // 2 classes → one non-label target per seed.
        assert_eq!(stats.attempts, 3);
        // The two near-boundary seeds flip; the far one does not.
        assert_eq!(stats.successes, 2);
        assert_eq!(examples.len(), 2);
        assert!((stats.success_rate() - 2.0 / 3.0).abs() < 1e-6);
        for e in &examples {
            assert!(e.distance(DistanceMetric::Linf) <= 0.1 + 1e-6);
            assert_eq!(Some(e.adversarial_label), e.target);
        }
    }

    #[test]
    fn untargeted_evaluation_has_one_attempt_per_seed() {
        let net = split_net();
        let seeds = vec![Tensor::from_slice(&[-0.05]), Tensor::from_slice(&[-0.45])];
        let (stats, examples) = evaluate_untargeted(&Fgsm::new(0.1), &net, &seeds).unwrap();
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.successes, 1);
        assert!(examples[0].target.is_none());
    }

    #[test]
    fn empty_seed_set_yields_zero_rate() {
        let net = split_net();
        let (stats, examples) = evaluate_targeted(&Fgsm::new(0.1), &net, &[]).unwrap();
        assert_eq!(stats.attempts, 0);
        assert_eq!(stats.success_rate(), 0.0);
        assert!(examples.is_empty());
        assert_eq!(stats.mean_l2, 0.0);
    }

    #[test]
    fn stats_serialize() {
        let stats = AttackStats {
            attack: "FGSM".into(),
            attempts: 9,
            successes: 3,
            mean_l2: 0.5,
            mean_l0: 2.0,
            mean_linf: 0.1,
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: AttackStats = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
    }
}
