//! The composed Detector-Corrector Network (§4).

use dcn_nn::Network;
use dcn_tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{BoundedVote, Corrector, DcnError, Detector, Result, VoteBudget};

/// How the DCN arrived at a label — useful for cost accounting and the
/// paper's workflow figures (Figs. 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DcnVerdict {
    /// The detector judged the input benign; the base network's label was
    /// returned directly (one forward pass — Fig. 2).
    PassedThrough,
    /// The detector flagged the input; the corrector's majority vote was
    /// returned (1 + m forward passes — Fig. 3).
    Corrected,
}

/// Full account of one DCN classification: the label, the path taken, and
/// the base-classifier forward passes *actually* consumed (measured from
/// the corrector's vote tally, not assumed from the nominal `m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DcnReport {
    /// The returned class label.
    pub label: usize,
    /// Which path produced the label.
    pub verdict: DcnVerdict,
    /// Base-network forward passes this query consumed: 1 for a
    /// pass-through, 1 + (votes actually cast) for a correction.
    pub base_passes: usize,
    /// Whether the answer is degraded: the vote was truncated by a budget
    /// or deadline, or fell below quorum and the base network's prediction
    /// was returned instead. Always `false` on the unbounded path.
    pub degraded: bool,
}

/// The Detector-Corrector Network: an unmodified base classifier guarded by
/// a logit detector, with region-vote correction only when the detector
/// fires.
///
/// The base network is stored as a concrete [`Network`] (the detector needs
/// its logits; attacks need its gradients elsewhere), but correction runs
/// through the [`dcn_nn::Classifier`] abstraction so the voting path is shared with
/// [`crate::RegionClassifier`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dcn {
    base: Network,
    detector: Detector,
    corrector: Corrector,
}

impl Dcn {
    /// Assembles a DCN from its three parts.
    pub fn new(base: Network, detector: Detector, corrector: Corrector) -> Self {
        Dcn {
            base,
            detector,
            corrector,
        }
    }

    /// Classifies `x`, reporting which path was taken.
    ///
    /// # Errors
    ///
    /// Propagates base-network and detector errors.
    pub fn classify_with_verdict<R: Rng + ?Sized>(
        &self,
        x: &Tensor,
        rng: &mut R,
    ) -> Result<(usize, DcnVerdict)> {
        let report = self.classify_with_report(x, rng)?;
        Ok((report.label, report.verdict))
    }

    /// Classifies `x`, reporting the path taken and the forward passes
    /// actually consumed (the measured counterpart of [`Dcn::cost_of`]'s
    /// nominal model).
    ///
    /// # Errors
    ///
    /// Propagates base-network and detector errors.
    pub fn classify_with_report<R: Rng + ?Sized>(
        &self,
        x: &Tensor,
        rng: &mut R,
    ) -> Result<DcnReport> {
        self.classify_bounded(x, rng, &VoteBudget::unbounded())
    }

    /// Classifies `x` under a per-query [`VoteBudget`], degrading gracefully
    /// instead of blowing a latency target:
    ///
    /// 1. **Full vote** — budget never fired: the normal corrected answer.
    /// 2. **Partial vote** — the cap or deadline truncated the vote but at
    ///    least `min_quorum` votes were cast: the mode of those votes, with
    ///    `degraded = true`.
    /// 3. **Base fallback** — fewer than `min_quorum` votes: the base
    ///    network's own prediction, with `degraded = true`.
    ///
    /// Non-finite base logits fail *closed*: the input is treated as
    /// detected-adversarial and routed to the corrector (whose vote samples
    /// are classified independently), never argmax-ed into a garbage label
    /// on the pass-through path.
    ///
    /// With an unbounded budget and no fault injection this is
    /// bitwise-identical to [`Dcn::classify_with_report`]'s historic
    /// behavior, including rng consumption.
    ///
    /// # Errors
    ///
    /// Propagates base-network and detector errors.
    pub fn classify_bounded<R: Rng + ?Sized>(
        &self,
        x: &Tensor,
        rng: &mut R,
        budget: &VoteBudget,
    ) -> Result<DcnReport> {
        let _span = dcn_obs::span("dcn.classify");
        let logits = self.base.logits_one(x)?;
        let finite = logits.all_finite();
        let flagged = if finite {
            self.detector.is_adversarial(&logits)?
        } else {
            // Fail closed: a non-finite logit vector is exactly the kind of
            // anomaly an evasion or a corrupted model produces.
            if dcn_obs::enabled() {
                dcn_obs::counter(dcn_obs::names::DCN_NONFINITE_TOTAL).inc();
            }
            true
        };
        let report = if flagged {
            let vote = self
                .corrector
                .vote_counts_bounded(&self.base, x, rng, budget)?;
            vote_report(&logits, &vote, budget)?
        } else {
            DcnReport {
                label: logits.argmax().map_err(dcn_nn::NnError::from)?,
                verdict: DcnVerdict::PassedThrough,
                base_passes: 1,
                degraded: false,
            }
        };
        observe_report(&report);
        Ok(report)
    }

    /// Panic-free classification returning the unified [`DcnError`]
    /// taxonomy — the entry point a serving binary should call.
    ///
    /// # Errors
    ///
    /// Returns [`DcnError`] classified by failure class.
    pub fn try_classify<R: Rng + ?Sized>(
        &self,
        x: &Tensor,
        rng: &mut R,
    ) -> std::result::Result<usize, DcnError> {
        Ok(self.classify_with_report(x, rng)?.label)
    }

    /// Panic-free budget-bounded classification with the unified
    /// [`DcnError`] taxonomy.
    ///
    /// # Errors
    ///
    /// Returns [`DcnError`] classified by failure class.
    pub fn try_classify_bounded<R: Rng + ?Sized>(
        &self,
        x: &Tensor,
        rng: &mut R,
        budget: &VoteBudget,
    ) -> std::result::Result<DcnReport, DcnError> {
        Ok(self.classify_bounded(x, rng, budget)?)
    }

    /// Classifies `x`.
    ///
    /// # Errors
    ///
    /// Propagates base-network and detector errors.
    pub fn classify<R: Rng + ?Sized>(&self, x: &Tensor, rng: &mut R) -> Result<usize> {
        Ok(self.classify_with_verdict(x, rng)?.0)
    }

    /// Base-network forward passes consumed by one classification that took
    /// the given path (the paper's efficiency model: detection is free,
    /// correction costs `m` extra passes).
    pub fn cost_of(&self, verdict: DcnVerdict) -> usize {
        match verdict {
            DcnVerdict::PassedThrough => 1,
            DcnVerdict::Corrected => 1 + self.corrector.samples(),
        }
    }

    /// The unmodified base network.
    pub fn base(&self) -> &Network {
        &self.base
    }

    /// The detector component.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// The corrector component.
    pub fn corrector(&self) -> &Corrector {
        &self.corrector
    }
}

/// The corrected branch's quorum ladder, shared by the serial and batched
/// paths: the vote's mode when at least `min_quorum` votes were cast
/// (degraded if the budget truncated the vote), otherwise the base
/// network's own answer from `logits`, marked degraded.
pub(crate) fn vote_report(
    logits: &Tensor,
    vote: &BoundedVote,
    budget: &VoteBudget,
) -> Result<DcnReport> {
    if vote.votes_cast >= budget.min_quorum.max(1) {
        return Ok(DcnReport {
            label: vote.mode,
            verdict: DcnVerdict::Corrected,
            base_passes: 1 + vote.votes_cast,
            degraded: vote.truncated,
        });
    }
    // Below quorum: the partial vote is too thin to trust.
    if dcn_obs::enabled() {
        dcn_obs::counter(dcn_obs::names::DCN_FALLBACK_TOTAL).inc();
    }
    Ok(DcnReport {
        label: logits.argmax().map_err(dcn_nn::NnError::from)?,
        verdict: DcnVerdict::Corrected,
        base_passes: 1 + vote.votes_cast,
        degraded: true,
    })
}

/// Records one answered query in the `dcn.*` counters, for the serial and
/// batched paths alike.
pub(crate) fn observe_report(report: &DcnReport) {
    if !dcn_obs::enabled() {
        return;
    }
    use dcn_obs::names;
    dcn_obs::counter(names::DCN_QUERIES_TOTAL).inc();
    match report.verdict {
        DcnVerdict::PassedThrough => {
            dcn_obs::counter(names::DCN_PASSED_THROUGH_TOTAL).inc();
        }
        DcnVerdict::Corrected => {
            dcn_obs::counter(names::DCN_CORRECTED_TOTAL).inc();
        }
    }
    dcn_obs::counter(names::DCN_BASE_PASSES_TOTAL).add(report.base_passes as u64);
    if report.degraded {
        dcn_obs::counter(names::DCN_DEGRADED_TOTAL).inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DetectorConfig};
    use dcn_nn::{Dense, Layer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 1-D threshold net and a detector trained on synthetic logits where
    /// "adversarial" means low-margin.
    fn setup() -> (Dcn, StdRng) {
        let mut rng = StdRng::seed_from_u64(12);
        let w = Tensor::from_vec(vec![1, 2], vec![-10.0, 10.0]).unwrap();
        let b = Tensor::from_slice(&[0.0, 0.0]);
        let mut net = Network::new(vec![1]);
        net.push(Layer::Dense(Dense::from_params(w, b).unwrap()));
        // Benign logits: |x₀| large → margin ≈ 20·|x₀| ≥ 6. Adversarial:
        // margin < 1 (x within 0.05 of the boundary).
        let benign: Vec<Tensor> = (0..200)
            .map(|i| {
                let v = 0.3 + 0.2 * ((i % 10) as f32 / 10.0);
                let s = if i % 2 == 0 { 1.0 } else { -1.0 };
                Tensor::from_slice(&[-10.0 * s * v, 10.0 * s * v])
            })
            .collect();
        let adversarial: Vec<Tensor> = (0..200)
            .map(|i| {
                let v = 0.002 + 0.004 * ((i % 10) as f32 / 10.0);
                let s = if i % 2 == 0 { 1.0 } else { -1.0 };
                Tensor::from_slice(&[-10.0 * s * v, 10.0 * s * v])
            })
            .collect();
        let detector = Detector::train_from_logits(
            &benign,
            &adversarial,
            &DetectorConfig::default(),
            &mut rng,
        )
        .unwrap();
        let dcn = Dcn::new(net, detector, Corrector::new(0.3, 200).unwrap());
        (dcn, rng)
    }

    #[test]
    fn benign_inputs_pass_through_at_base_cost() {
        let (dcn, mut rng) = setup();
        let x = Tensor::from_slice(&[-0.4]);
        let (label, verdict) = dcn.classify_with_verdict(&x, &mut rng).unwrap();
        assert_eq!(label, 0);
        assert_eq!(verdict, DcnVerdict::PassedThrough);
        assert_eq!(dcn.cost_of(verdict), 1);
    }

    #[test]
    fn near_boundary_inputs_activate_the_corrector() {
        let (dcn, mut rng) = setup();
        // An "adversarial" input: just across the boundary (original was
        // deep in class 0, attacker nudged it to +0.004 → class 1).
        let adv = Tensor::from_slice(&[0.004]);
        assert_eq!(dcn.base().predict_one(&adv).unwrap(), 1);
        let (label, verdict) = dcn.classify_with_verdict(&adv, &mut rng).unwrap();
        assert_eq!(verdict, DcnVerdict::Corrected);
        assert_eq!(dcn.cost_of(verdict), 201);
        // The hypercube around +0.004 is ~50/50; run the decisive case too.
        let _ = label;
        let adv2 = Tensor::from_slice(&[0.002]);
        let (label2, v2) = dcn.classify_with_verdict(&adv2, &mut rng).unwrap();
        assert_eq!(v2, DcnVerdict::Corrected);
        // Vote can go either way this close to the boundary, but must be a
        // valid class.
        assert!(label2 < 2);
    }

    #[test]
    fn report_records_actual_base_passes_on_both_paths() {
        let (dcn, mut rng) = setup();
        let benign = Tensor::from_slice(&[-0.4]);
        let report = dcn.classify_with_report(&benign, &mut rng).unwrap();
        assert_eq!(report.verdict, DcnVerdict::PassedThrough);
        assert_eq!(report.base_passes, 1);
        assert_eq!(report.base_passes, dcn.cost_of(report.verdict));

        let adv = Tensor::from_slice(&[0.004]);
        let report = dcn.classify_with_report(&adv, &mut rng).unwrap();
        assert_eq!(report.verdict, DcnVerdict::Corrected);
        // All m votes are currently cast, so measured equals nominal; the
        // report stays truthful if the vote loop ever gains an early exit.
        assert_eq!(report.base_passes, 1 + dcn.corrector().samples());
        assert_eq!(report.base_passes, dcn.cost_of(report.verdict));
    }

    #[test]
    fn verdict_and_report_agree_on_label_and_rng_stream() {
        let (dcn, _) = setup();
        let adv = Tensor::from_slice(&[0.004]);
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        let (label, verdict) = dcn.classify_with_verdict(&adv, &mut rng_a).unwrap();
        let report = dcn.classify_with_report(&adv, &mut rng_b).unwrap();
        assert_eq!(label, report.label);
        assert_eq!(verdict, report.verdict);
        // Identical rng consumption: a second draw from each stream matches.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn bounded_budget_degrades_gracefully() {
        let (dcn, _) = setup();
        let adv = Tensor::from_slice(&[0.004]); // flagged → corrected path
        // Partial vote: cap at 7 of 200 samples.
        let budget = crate::VoteBudget {
            max_votes: Some(7),
            deadline: None,
            min_quorum: 1,
        };
        let mut rng = StdRng::seed_from_u64(31);
        let report = dcn.classify_bounded(&adv, &mut rng, &budget).unwrap();
        assert_eq!(report.verdict, DcnVerdict::Corrected);
        assert!(report.degraded);
        assert_eq!(report.base_passes, 1 + 7);

        // Below quorum: 7 votes < quorum 50 → base fallback.
        let strict = crate::VoteBudget {
            max_votes: Some(7),
            deadline: None,
            min_quorum: 50,
        };
        let mut rng = StdRng::seed_from_u64(31);
        let report = dcn.classify_bounded(&adv, &mut rng, &strict).unwrap();
        assert!(report.degraded);
        assert_eq!(report.base_passes, 1 + 7);
        assert_eq!(report.label, dcn.base().predict_one(&adv).unwrap());

        // Unbounded budget: never degraded.
        let mut rng = StdRng::seed_from_u64(31);
        let report = dcn
            .classify_bounded(&adv, &mut rng, &crate::VoteBudget::unbounded())
            .unwrap();
        assert!(!report.degraded);
        assert_eq!(report.base_passes, 1 + 200);
    }

    #[test]
    fn nonfinite_logits_fail_closed_to_the_corrector() {
        let (dcn, _) = setup();
        // Poison the single-example logit path: rate 1.0 fires on every
        // call at the hooked site.
        dcn_fault::set_plan(Some(dcn_fault::FaultPlan {
            nan_rate: 1.0,
            ..dcn_fault::FaultPlan::default()
        }));
        let benign = Tensor::from_slice(&[-0.4]);
        let mut rng = StdRng::seed_from_u64(33);
        let report = dcn.classify_with_report(&benign, &mut rng).unwrap();
        dcn_fault::set_plan(None);
        // Would have passed through; with poisoned logits it must be routed
        // to the corrector (fail closed), whose clean batch votes still
        // recover the right label.
        assert_eq!(report.verdict, DcnVerdict::Corrected);
        assert_eq!(report.label, 0);

        // The detector itself refuses non-finite logits with a typed error.
        let bad = Tensor::from_slice(&[f32::NAN, 1.0]);
        assert!(matches!(
            dcn.detector().is_adversarial(&bad),
            Err(crate::DefenseError::NonFinite(_))
        ));
    }

    #[test]
    fn try_classify_returns_typed_errors() {
        let (dcn, mut rng) = setup();
        let x = Tensor::from_slice(&[-0.4]);
        assert_eq!(dcn.try_classify(&x, &mut rng).unwrap(), 0);
        // Wrong input shape surfaces as a typed DcnError, never a panic.
        let bad = Tensor::from_slice(&[0.0, 0.0]);
        let err = dcn.try_classify(&bad, &mut rng).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        let _ = err.to_string();
    }

    #[test]
    fn dcn_serializes_as_a_unit() {
        let (dcn, mut rng) = setup();
        let json = serde_json::to_string(&dcn).unwrap();
        let back: Dcn = serde_json::from_str(&json).unwrap();
        assert_eq!(dcn, back);
        let x = Tensor::from_slice(&[-0.45]);
        assert_eq!(
            dcn.classify(&x, &mut rng).unwrap(),
            back.classify(&x, &mut rng).unwrap()
        );
    }

    #[test]
    fn accessors_expose_components() {
        let (dcn, _) = setup();
        assert_eq!(dcn.corrector().samples(), 200);
        assert_eq!(dcn.base().num_classes().unwrap(), 2);
        let logits = Tensor::from_slice(&[-5.0, 5.0]);
        let _ = dcn.detector().is_adversarial(&logits).unwrap();
    }
}
