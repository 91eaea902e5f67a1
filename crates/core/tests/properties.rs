//! Property-based tests for the defense components.

use dcn_core::{Corrector, CountingClassifier, Detector, DetectorConfig};
use dcn_nn::{Classifier, Dense, Layer, Network};
use dcn_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn linear_net(weights: &[f32]) -> Network {
    let w = Tensor::from_vec(vec![2, 3], weights[..6].to_vec()).unwrap();
    let b = Tensor::from_slice(&weights[6..9]);
    let mut net = Network::new(vec![2]);
    net.push(Layer::Dense(Dense::from_params(w, b).unwrap()));
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn corrector_votes_sum_to_m_and_label_is_modal(
        ws in prop::collection::vec(-3.0f32..3.0, 9),
        xs in prop::collection::vec(-0.5f32..0.5, 2),
        m in 1usize..200,
        seed in 0u64..500,
    ) {
        let net = linear_net(&ws);
        let corrector = Corrector::new(0.2, m).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::from_slice(&xs);
        let (label, counts) = corrector.vote_counts(&net, &x, &mut rng).unwrap();
        prop_assert_eq!(counts.iter().sum::<usize>(), m);
        let max = counts.iter().copied().max().unwrap();
        prop_assert_eq!(counts[label], max);
    }

    #[test]
    fn corrector_is_deterministic_given_the_rng_stream(
        ws in prop::collection::vec(-3.0f32..3.0, 9),
        xs in prop::collection::vec(-0.5f32..0.5, 2),
        seed in 0u64..500,
    ) {
        let net = linear_net(&ws);
        let corrector = Corrector::new(0.3, 64).unwrap();
        let x = Tensor::from_slice(&xs);
        let a = corrector.correct(&net, &x, &mut StdRng::seed_from_u64(seed)).unwrap();
        let b = corrector.correct(&net, &x, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn corrector_with_tiny_radius_agrees_with_base_on_confident_inputs(
        xs in prop::collection::vec(-0.4f32..0.4, 2),
        seed in 0u64..500,
    ) {
        // A fixed, well-conditioned net: class by sign of x0 with margin.
        let net = linear_net(&[10.0, -10.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, -2.0]);
        let x = Tensor::from_slice(&xs);
        let base = net.predict_one(&x).unwrap();
        // Skip inputs too close to a decision boundary for a clean claim.
        let logits = net.logits_one(&x).unwrap();
        let mut sorted = logits.data().to_vec();
        sorted.sort_by(|a, b| b.total_cmp(a));
        prop_assume!(sorted[0] - sorted[1] > 1.0);
        let corrector = Corrector::new(0.01, 32).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(corrector.correct(&net, &x, &mut rng).unwrap(), base);
    }

    #[test]
    fn counting_classifier_is_exact_under_mixed_batches(
        sizes in prop::collection::vec(1usize..7, 1..6),
    ) {
        let net = linear_net(&[1.0, 0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        let counted = CountingClassifier::new(net);
        let mut expected = 0u64;
        for n in sizes {
            counted.logits_batch(&Tensor::zeros(&[n, 2])).unwrap();
            expected += n as u64;
        }
        prop_assert_eq!(counted.count(), expected);
        prop_assert_eq!(counted.reset(), expected);
        prop_assert_eq!(counted.count(), 0);
    }

    #[test]
    fn detector_never_panics_on_finite_logits(
        v in prop::collection::vec(-100.0f32..100.0, 10),
        seed in 0u64..100,
    ) {
        // Train a small detector once per case on synthetic shapes, then
        // probe it with arbitrary finite logits: must return a bool, never
        // panic or error.
        let mut rng = StdRng::seed_from_u64(seed);
        let benign: Vec<Tensor> = (0..30).map(|i| {
            let mut z = vec![-2.0f32; 10];
            z[i % 10] = 9.0;
            Tensor::from_slice(&z)
        }).collect();
        let adv: Vec<Tensor> = (0..30).map(|i| {
            let mut z = vec![-1.0f32; 10];
            z[i % 10] = 1.1;
            z[(i + 4) % 10] = 1.0;
            Tensor::from_slice(&z)
        }).collect();
        let config = DetectorConfig { epochs: 5, ..Default::default() };
        let det = Detector::train_from_logits(&benign, &adv, &config, &mut rng).unwrap();
        let probe = Tensor::from_slice(&v);
        prop_assert!(det.is_adversarial(&probe).is_ok());
    }
}

// ---------------------------------------------------------------------------
// Thread-budget determinism: the defense pipeline must produce bitwise-
// identical results under any `dcn_tensor::par` configuration. The parallel
// executor only splits work *between* independent units, so these are exact
// equalities, not tolerances.

use dcn_tensor::{par, ParConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes the tests that flip the process-global parallel config.
fn config_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Parallel regions recorded so far that split across more than one
/// worker (counted only while collection is on). The serial count is read
/// first, so a region recorded between the two reads cannot underflow it.
fn split_regions() -> u64 {
    let serial = dcn_obs::counter(dcn_obs::names::PAR_SERIAL_REGIONS_TOTAL).get();
    dcn_obs::counter(dcn_obs::names::PAR_REGIONS_TOTAL).get() - serial
}

#[test]
fn network_forward_is_bitwise_identical_across_thread_budgets() {
    let _guard = config_lock();
    let mut rng = StdRng::seed_from_u64(200);
    // Wide examples so `Network::forward` actually opens a parallel region
    // (its work floor is ~4096 elements per worker), with a batch of 35 that
    // no tested budget divides evenly.
    let mut net = Network::new(vec![512]);
    net.push(Layer::Dense(Dense::new(512, 8, &mut rng).unwrap()));
    net.push(Layer::Relu(dcn_nn::Relu::new()));
    net.push(Layer::Dense(Dense::new(8, 3, &mut rng).unwrap()));
    let x = Tensor::randn(&[35, 512], 0.0, 1.0, &mut rng);

    dcn_obs::set_enabled(true);
    par::configure(ParConfig::serial());
    let reference = net.forward(&x).unwrap();
    for threads in [2, 4, 8] {
        par::configure(ParConfig::with_threads(threads));
        let before = split_regions();
        let out = net.forward(&x).unwrap();
        assert!(
            split_regions() > before,
            "forward opened no multi-worker region at {threads} threads"
        );
        assert_eq!(reference.shape(), out.shape());
        for (i, (a, b)) in reference.data().iter().zip(out.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "forward element {i} differs at {threads} threads"
            );
        }
    }
    par::reset();
    dcn_obs::clear_enabled_override();
}

#[test]
fn corrector_votes_are_identical_across_thread_budgets() {
    let _guard = config_lock();
    let mut rng = StdRng::seed_from_u64(201);
    // Wide inputs, as in the forward test above, so the 50-sample vote batch
    // clears `Network::forward`'s ~4096-element floor per worker and the
    // vote really splits across workers.
    let mut net = Network::new(vec![512]);
    net.push(Layer::Dense(Dense::new(512, 3, &mut rng).unwrap()));
    let corrector = Corrector::new(0.3, 50).unwrap();
    let x = Tensor::randn(&[512], 0.0, 0.05, &mut rng);

    // Noise is drawn serially up front inside `vote_counts`, so the same
    // seed yields the same 50 sample points under every budget; the chunked
    // classification must then reproduce the serial votes exactly.
    dcn_obs::set_enabled(true);
    par::configure(ParConfig::serial());
    let reference = corrector
        .vote_counts(&net, &x, &mut StdRng::seed_from_u64(33))
        .unwrap();
    for threads in [2, 4, 8] {
        par::configure(ParConfig::with_threads(threads));
        let before = split_regions();
        let votes = corrector
            .vote_counts(&net, &x, &mut StdRng::seed_from_u64(33))
            .unwrap();
        assert!(
            split_regions() > before,
            "the vote opened no multi-worker region at {threads} threads"
        );
        assert_eq!(reference, votes, "vote drift at {threads} threads");
    }
    par::reset();
    dcn_obs::clear_enabled_override();
}

/// Stateless in shape, stateful in labeling: hands out labels round-robin
/// via a global atomic, so `m` votes always split as evenly as possible no
/// matter how the batch is chunked across threads.
struct RoundRobinClassifier {
    calls: AtomicUsize,
    classes: usize,
}

impl dcn_nn::Classifier for RoundRobinClassifier {
    fn logits_batch(&self, x: &Tensor) -> dcn_nn::Result<Tensor> {
        let n = x.shape()[0];
        let mut out = Tensor::zeros(&[n, self.classes]);
        for r in 0..n {
            let l = self.calls.fetch_add(1, Ordering::Relaxed) % self.classes;
            out.data_mut()[r * self.classes + l] = 1.0;
        }
        Ok(out)
    }

    fn class_count(&self) -> usize {
        self.classes
    }

    fn example_shape(&self) -> &[usize] {
        &[1]
    }
}

#[test]
fn corrector_tie_break_picks_the_highest_label() {
    // Regression pin for the tie-break rule: `vote_counts` resolves a tied
    // histogram with `Iterator::max_by_key`, which keeps the *last* maximal
    // element — i.e. ties go to the highest label index. 9 votes over 3
    // round-robin classes is an exact three-way tie regardless of how the
    // samples were chunked (each vote consumes a unique atomic ticket).
    let base = RoundRobinClassifier {
        calls: AtomicUsize::new(0),
        classes: 3,
    };
    let corrector = Corrector::new(0.1, 9).unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let (mode, counts) = corrector
        .vote_counts(&base, &Tensor::from_slice(&[0.0]), &mut rng)
        .unwrap();
    assert_eq!(counts, vec![3, 3, 3]);
    assert_eq!(mode, 2, "ties must resolve to the highest label index");

    // Two-way tie between labels 0 and 2 (label 1 starved): still the
    // highest tied index, never the lowest.
    struct EvenOdd;
    impl dcn_nn::Classifier for EvenOdd {
        fn logits_batch(&self, x: &Tensor) -> dcn_nn::Result<Tensor> {
            static TICKET: AtomicUsize = AtomicUsize::new(0);
            let n = x.shape()[0];
            let mut out = Tensor::zeros(&[n, 3]);
            for r in 0..n {
                let l = if TICKET.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
                    0
                } else {
                    2
                };
                out.data_mut()[r * 3 + l] = 1.0;
            }
            Ok(out)
        }
        fn class_count(&self) -> usize {
            3
        }
        fn example_shape(&self) -> &[usize] {
            &[1]
        }
    }
    let corrector = Corrector::new(0.1, 10).unwrap();
    let (mode, counts) = corrector
        .vote_counts(&EvenOdd, &Tensor::from_slice(&[0.0]), &mut rng)
        .unwrap();
    assert_eq!(counts, vec![5, 0, 5]);
    assert_eq!(mode, 2);
}
