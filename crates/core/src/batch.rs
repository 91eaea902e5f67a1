//! Cross-request batched classification — the serving engine's execution
//! path (`dcn-serve`).
//!
//! A serving batcher coalesces queued requests from many clients into one
//! [`Dcn::try_classify_batch`] call, which amortizes the §4 cost model
//! across requests instead of per query:
//!
//! * **one batched detector forward** — every request's base logits come
//!   from a single stacked `[N, …]` forward pass (split across the
//!   `ParConfig` worker threads), instead of `N` one-example calls;
//! * **one cross-request vote batch** — the corrector samples for *all*
//!   flagged full-vote requests are stacked into a single `[Σm, …]` forward,
//!   so a burst of detections costs one big GEMM, not a burst of small ones.
//!
//! The batch is an execution detail, never a semantic one: each request
//! carries its own rng seed and [`VoteBudget`], noise is drawn per request
//! with the exact loop the serial path uses
//! ([`Corrector::fill_vote_samples`]), and batched forwards are per-example
//! bitwise-identical to one-example calls (the PR 1 chunking invariant) —
//! so every answer is bitwise-identical to a serial
//! [`Dcn::try_classify_bounded`] call with the same `(input, seed, budget)`,
//! no matter how requests were interleaved into batches. `tests/serving.rs`
//! pins exactly that over real sockets.

use dcn_nn::Classifier;
use dcn_tensor::{scratch, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dcn::{observe_report, vote_report};
use crate::{BoundedVote, Dcn, DcnError, DcnReport, DcnVerdict, VoteBudget};

/// One classify request inside a cross-request batch.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// The input example. Must match the base network's input shape;
    /// mis-shaped requests fail individually with the serial path's error,
    /// never the whole batch.
    pub x: Tensor,
    /// Per-request rng seed. The request's vote stream is
    /// `StdRng::seed_from_u64(seed)`, making the batched answer
    /// bitwise-identical to `try_classify_bounded` with that rng.
    pub seed: u64,
    /// Per-request QoS budget (the serving ladder's "full service" and
    /// "degraded vote" rungs).
    pub budget: VoteBudget,
    /// Load-shed marker (the ladder's third rung): skip the defense and
    /// answer with the base network's prediction, always flagged
    /// `degraded` — a shed request is never reported as a full vote.
    pub shed: bool,
    /// Telemetry trace id (0 = untraced). Purely observational: it selects
    /// which trace the pipeline stages are recorded under and never
    /// touches the answer, preserving bitwise equality with the serial
    /// path whether tracing is on or off.
    pub trace: u64,
}

impl BatchRequest {
    /// A full-service request: unbounded budget, not shed, untraced.
    pub fn new(x: Tensor, seed: u64) -> Self {
        BatchRequest {
            x,
            seed,
            budget: VoteBudget::unbounded(),
            shed: false,
            trace: 0,
        }
    }
}

impl Dcn {
    /// Classifies a batch of independent requests, coalescing their base
    /// forwards and corrector votes (see the module docs). Returns one
    /// result per request, in request order: a request-level failure (bad
    /// shape, non-finite shed logits) never poisons its neighbors.
    ///
    /// Equivalent to — and bitwise-identical with —
    /// `requests.iter().map(|r| dcn.try_classify_bounded(&r.x,
    /// &mut StdRng::seed_from_u64(r.seed), &r.budget))` for non-shed
    /// requests, while consuming one batched detector forward for the whole
    /// batch plus one stacked vote forward for the full-vote corrections.
    pub fn try_classify_batch(
        &self,
        requests: &[BatchRequest],
    ) -> Vec<std::result::Result<DcnReport, DcnError>> {
        let _span = dcn_obs::span("dcn.classify_batch");
        let n = requests.len();
        if n == 0 {
            return Vec::new();
        }
        let mut out: Vec<Option<std::result::Result<DcnReport, DcnError>>> = vec![None; n];

        // Shape screen: mis-shaped requests take the serial path so they
        // surface the exact serial error; well-shaped ones join the batch.
        let expected: Vec<usize> = self.base().input_shape().to_vec();
        let example_len: usize = expected.iter().product();
        let mut batched: Vec<usize> = Vec::with_capacity(n);
        for (i, req) in requests.iter().enumerate() {
            if req.x.shape() == expected.as_slice() {
                batched.push(i);
            } else {
                let mut rng = StdRng::seed_from_u64(req.seed);
                out[i] = Some(self.try_classify_bounded(&req.x, &mut rng, &req.budget));
            }
        }

        // One stacked forward for every well-shaped request's base logits.
        // The detector-forward stage covers the stacked forward plus the
        // per-request detector screen below; the clock is inert when
        // tracing is off.
        let detector_clock = dcn_obs::stage_clock();
        let logits = if batched.is_empty() {
            None
        } else {
            let mut buf = Vec::with_capacity(batched.len() * example_len);
            for &i in &batched {
                buf.extend_from_slice(requests[i].x.data());
            }
            let mut shape = Vec::with_capacity(expected.len() + 1);
            shape.push(batched.len());
            shape.extend_from_slice(&expected);
            match Tensor::from_vec(shape, buf)
                .map_err(DcnError::from)
                .and_then(|batch| self.base().logits_batch(&batch).map_err(DcnError::from))
            {
                Ok(l) => Some(l),
                Err(e) => {
                    for &i in &batched {
                        out[i] = Some(Err(e.clone()));
                    }
                    None
                }
            }
        };

        // Route each batched request: shed / pass-through now, vote later.
        let m = self.corrector().samples();
        let fault_active = dcn_fault::enabled();
        // (request index, logits row) pairs still needing a corrector vote.
        let mut fast_votes: Vec<(usize, Tensor)> = Vec::new();
        let mut slow_votes: Vec<(usize, Tensor)> = Vec::new();
        if let Some(logits) = &logits {
            for (row_idx, &i) in batched.iter().enumerate() {
                let req = &requests[i];
                let row = match logits.row(row_idx) {
                    Ok(r) => r,
                    Err(e) => {
                        out[i] = Some(Err(DcnError::Tensor(e)));
                        continue;
                    }
                };
                let finite = row.all_finite();
                if req.shed {
                    // Shed rung: base prediction only, honestly degraded.
                    // Non-finite logits still fail closed — without a vote
                    // to recover through, that means a typed error, never
                    // an argmax over NaNs.
                    out[i] = Some(if finite {
                        shed_report(&row)
                    } else {
                        Err(DcnError::NonFinite(
                            "base logits for a load-shed request contain NaN/inf".to_string(),
                        ))
                    });
                    continue;
                }
                let flagged = if finite {
                    match self.detector().is_adversarial(&row) {
                        Ok(f) => f,
                        Err(e) => {
                            out[i] = Some(Err(DcnError::from(e)));
                            continue;
                        }
                    }
                } else {
                    if dcn_obs::enabled() {
                        dcn_obs::counter(dcn_obs::names::DCN_NONFINITE_TOTAL).inc();
                    }
                    true
                };
                // Feed the drift alarm's sliding window (no-op when the
                // telemetry plane is off).
                dcn_obs::record_flag(flagged);
                if !flagged {
                    out[i] = Some(passthrough_report(&row));
                } else if !fault_active && req.budget.is_unbounded_for(m) {
                    fast_votes.push((i, row));
                } else {
                    slow_votes.push((i, row));
                }
            }
        }

        // The batched detector screen is one shared interval: stamp it on
        // every traced request that went through it.
        if dcn_obs::trace_enabled() && !batched.is_empty() {
            let traced: Vec<u64> = batched.iter().map(|&i| requests[i].trace).collect();
            dcn_obs::stage_end_many(
                detector_clock,
                &traced,
                dcn_obs::names::TRACE_STAGE_DETECTOR_FORWARD,
            );
        }
        let vote_clock = dcn_obs::stage_clock();

        // Cross-request vote batch: all full-vote corrections in one
        // stacked forward. Noise is drawn per request from its own seeded
        // rng — request order inside the batch cannot perturb any stream.
        if !fast_votes.is_empty() {
            let stride = m * example_len;
            let mut vbuf = scratch::take(fast_votes.len() * stride);
            for (k, (i, _)) in fast_votes.iter().enumerate() {
                let req = &requests[*i];
                let mut rng = StdRng::seed_from_u64(req.seed);
                self.corrector().fill_vote_samples(
                    &req.x,
                    &mut rng,
                    &mut vbuf[k * stride..(k + 1) * stride],
                );
            }
            let mut vshape = Vec::with_capacity(expected.len() + 1);
            vshape.push(fast_votes.len() * m);
            vshape.extend_from_slice(&expected);
            match Tensor::from_vec(vshape, vbuf)
                .map_err(DcnError::from)
                .and_then(|vbatch| {
                    let labels = self.base().predict_batch(&vbatch).map_err(DcnError::from);
                    scratch::recycle(vbatch.into_vec());
                    labels
                }) {
                Ok(labels) => {
                    for (k, (i, row)) in fast_votes.iter().enumerate() {
                        let vote = BoundedVote::tally(
                            &labels[k * m..(k + 1) * m],
                            self.base().class_count(),
                            m,
                        );
                        out[*i] = Some(
                            vote_report(row, &vote, &requests[*i].budget).map_err(DcnError::from),
                        );
                    }
                }
                Err(e) => {
                    for (i, _) in &fast_votes {
                        out[*i] = Some(Err(e.clone()));
                    }
                }
            }
        }

        // Bounded votes (deadline, cap, or active fault plan) replicate the
        // serial chunk loop per request — same rng, same virtual clock.
        for (i, row) in &slow_votes {
            let req = &requests[*i];
            let mut rng = StdRng::seed_from_u64(req.seed);
            out[*i] = Some(
                self.corrector()
                    .vote_counts_bounded(self.base(), &req.x, &mut rng, &req.budget)
                    .and_then(|vote| vote_report(row, &vote, &req.budget))
                    .map_err(DcnError::from),
            );
        }

        // One shared vote-loop interval for every traced request that was
        // actually routed through the corrector (fast or bounded path).
        if dcn_obs::trace_enabled() && (!fast_votes.is_empty() || !slow_votes.is_empty()) {
            let traced: Vec<u64> = fast_votes
                .iter()
                .chain(slow_votes.iter())
                .map(|(i, _)| requests[*i].trace)
                .collect();
            dcn_obs::stage_end_many(vote_clock, &traced, dcn_obs::names::TRACE_STAGE_VOTE_LOOP);
        }

        let results: Vec<std::result::Result<DcnReport, DcnError>> = out
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    // Unreachable by construction: every request index is
                    // assigned exactly once above. Fail typed, not loud.
                    Err(DcnError::Config(
                        "batch request was never routed (internal invariant)".to_string(),
                    ))
                })
            })
            .collect();
        results.iter().flatten().for_each(observe_report);
        results
    }
}

/// Base-prediction answer for a load-shed request: one forward pass,
/// explicitly degraded.
fn shed_report(row: &Tensor) -> std::result::Result<DcnReport, DcnError> {
    Ok(DcnReport {
        label: row.argmax().map_err(dcn_nn::NnError::from)?,
        verdict: DcnVerdict::PassedThrough,
        base_passes: 1,
        degraded: true,
    })
}

/// Clean pass-through answer (detector saw nothing).
fn passthrough_report(row: &Tensor) -> std::result::Result<DcnReport, DcnError> {
    Ok(DcnReport {
        label: row.argmax().map_err(dcn_nn::NnError::from)?,
        verdict: DcnVerdict::PassedThrough,
        base_passes: 1,
        degraded: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Corrector, Detector, DetectorConfig};
    use dcn_nn::{Dense, Layer, Network};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    /// The `dcn.rs` test fixture: 1-D threshold net, margin detector.
    fn setup() -> Dcn {
        let mut rng = StdRng::seed_from_u64(12);
        let w = Tensor::from_vec(vec![1, 2], vec![-10.0, 10.0]).unwrap();
        let b = Tensor::from_slice(&[0.0, 0.0]);
        let mut net = Network::new(vec![1]);
        net.push(Layer::Dense(Dense::from_params(w, b).unwrap()));
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
        Dcn::new(net, detector, Corrector::new(0.3, 40).unwrap())
    }

    /// A mixed request set: deep benign (pass through), near-boundary
    /// (flagged → vote), on both sides of the boundary.
    fn mixed_requests() -> Vec<BatchRequest> {
        let xs = [-0.4f32, 0.004, 0.45, -0.002, 0.03, -0.35, 0.002, 0.41];
        xs.iter()
            .enumerate()
            .map(|(i, &v)| BatchRequest::new(Tensor::from_slice(&[v]), 100 + i as u64))
            .collect()
    }

    fn serial_reports(
        dcn: &Dcn,
        requests: &[BatchRequest],
    ) -> Vec<std::result::Result<DcnReport, DcnError>> {
        requests
            .iter()
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(r.seed);
                dcn.try_classify_bounded(&r.x, &mut rng, &r.budget)
            })
            .collect()
    }

    #[test]
    fn batch_matches_serial_bitwise_on_mixed_traffic() {
        let dcn = setup();
        let requests = mixed_requests();
        let batched = dcn.try_classify_batch(&requests);
        let serial = serial_reports(&dcn, &requests);
        assert_eq!(batched, serial);
        // The fixture must actually exercise both paths.
        let verdicts: Vec<_> = batched.iter().map(|r| r.as_ref().unwrap().verdict).collect();
        assert!(verdicts.contains(&DcnVerdict::PassedThrough));
        assert!(verdicts.contains(&DcnVerdict::Corrected));
    }

    #[test]
    fn batch_of_one_equals_serial() {
        let dcn = setup();
        let req = BatchRequest::new(Tensor::from_slice(&[0.004]), 7);
        let batched = dcn.try_classify_batch(std::slice::from_ref(&req));
        let serial = serial_reports(&dcn, std::slice::from_ref(&req));
        assert_eq!(batched, serial);
    }

    #[test]
    fn batch_is_invariant_to_request_order() {
        let dcn = setup();
        let requests = mixed_requests();
        let mut reversed = requests.clone();
        reversed.reverse();
        let a = dcn.try_classify_batch(&requests);
        let mut b = dcn.try_classify_batch(&reversed);
        b.reverse();
        assert_eq!(a, b);
    }

    #[test]
    fn bounded_budgets_match_serial_in_a_batch() {
        let dcn = setup();
        let mut requests = mixed_requests();
        requests[1].budget = VoteBudget {
            max_votes: Some(7),
            deadline: None,
            min_quorum: 1,
        };
        requests[3].budget = VoteBudget {
            max_votes: Some(3),
            deadline: None,
            min_quorum: 20, // below quorum → base fallback, degraded
        };
        requests[4].budget = VoteBudget {
            max_votes: None,
            deadline: Some(Duration::from_secs(3600)), // generous: full vote
            min_quorum: 1,
        };
        let batched = dcn.try_classify_batch(&requests);
        let serial = serial_reports(&dcn, &requests);
        assert_eq!(batched, serial);
        let r3 = batched[3].as_ref().unwrap();
        assert!(r3.degraded);
        assert_eq!(r3.base_passes, 1 + 3);
    }

    #[test]
    fn shed_requests_return_degraded_base_prediction() {
        let dcn = setup();
        let mut requests = mixed_requests();
        for r in &mut requests {
            r.shed = true;
        }
        for (req, result) in requests.iter().zip(dcn.try_classify_batch(&requests)) {
            let report = result.unwrap();
            assert!(report.degraded, "shed answers must never look like full service");
            assert_eq!(report.base_passes, 1);
            assert_eq!(report.verdict, DcnVerdict::PassedThrough);
            assert_eq!(report.label, dcn.base().predict_one(&req.x).unwrap());
        }
    }

    #[test]
    fn bad_shape_fails_alone_with_the_serial_error() {
        let dcn = setup();
        let mut requests = mixed_requests();
        requests[2] = BatchRequest::new(Tensor::from_slice(&[0.0, 0.0]), 1);
        let results = dcn.try_classify_batch(&requests);
        assert!(results[2].is_err());
        assert_eq!(results[2].as_ref().unwrap_err().exit_code(), 1);
        for (i, r) in results.iter().enumerate() {
            if i != 2 {
                assert!(r.is_ok(), "request {i} must not be poisoned by request 2");
            }
        }
        // And the error is the one the serial path produces.
        let serial = serial_reports(&dcn, &requests);
        assert_eq!(results[2], serial[2]);
    }

    #[test]
    fn batch_under_latency_injection_matches_serial_virtual_truncation() {
        let dcn = setup();
        // 1ms of virtual latency per vote, 10ms deadline: deterministic
        // truncation after 16 of 40 votes (chunked by 8), exactly as the
        // serial corrector test pins.
        dcn_fault::set_plan(Some(dcn_fault::FaultPlan {
            latency_ns: 1_000_000,
            ..dcn_fault::FaultPlan::default()
        }));
        let mut requests = mixed_requests();
        for r in &mut requests {
            r.budget = VoteBudget {
                max_votes: None,
                deadline: Some(Duration::from_millis(10)),
                min_quorum: 1,
            };
        }
        let batched = dcn.try_classify_batch(&requests);
        let serial = serial_reports(&dcn, &requests);
        dcn_fault::set_plan(None);
        assert_eq!(batched, serial);
        let corrected: Vec<_> = batched
            .iter()
            .map(|r| r.as_ref().unwrap())
            .filter(|r| r.verdict == DcnVerdict::Corrected)
            .collect();
        assert!(!corrected.is_empty());
        for r in corrected {
            assert!(r.degraded, "virtual deadline must truncate the vote");
            assert_eq!(r.base_passes, 1 + 16);
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let dcn = setup();
        assert!(dcn.try_classify_batch(&[]).is_empty());
    }
}
