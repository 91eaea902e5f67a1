//! End-to-end DCN workflow (the paper's Figs. 2–3): train a base
//! classifier, generate adversarial examples, train the logit detector
//! against them, assemble the full Detector-Corrector Network, and check
//! both branches of the pipeline on a task small enough to run in seconds.

use std::time::Duration;

use dcn_attacks::{evaluate_untargeted, CwL2};
use dcn_core::{
    attack_success_against, defense_accuracy, models, Corrector, Dcn, DcnVerdict, Defense,
    Detector, DetectorConfig, StandardDefense, VoteBudget,
};
use dcn_fault::FaultPlan;
use dcn_data::Dataset;
use dcn_nn::Network;
use dcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Three well-separated Gaussian blobs in a 4-dim `[-0.5, 0.5]` box — a
/// stand-in task a tiny MLP masters in a fraction of a second.
fn blobs(n: usize, rng: &mut StdRng) -> Dataset {
    const CENTERS: [[f32; 4]; 3] = [
        [-0.3, -0.3, 0.25, 0.0],
        [0.3, -0.3, -0.25, 0.1],
        [0.0, 0.35, 0.0, -0.3],
    ];
    let mut data = Vec::with_capacity(n * 4);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % 3;
        for &c in &CENTERS[class] {
            let v: f32 = c + rng.gen_range(-0.06..0.06);
            data.push(v.clamp(-0.5, 0.5));
        }
        labels.push(class);
    }
    let images = Tensor::from_vec(vec![n, 4], data).unwrap();
    Dataset::new(images, labels, 3).unwrap()
}

fn trained_setup(seed: u64) -> (Network, Dataset, Dataset, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let train = blobs(240, &mut rng);
    let test = blobs(60, &mut rng);
    let net = models::mlp(4, 16, 3, &mut rng).unwrap();
    let net = models::train_classifier(net, &train, 40, 0.01, &mut rng).unwrap();
    (net, train, test, rng)
}

#[test]
fn full_pipeline_trains_attacks_detects_and_corrects() {
    let (net, _train, test, mut rng) = trained_setup(7);
    let base_acc = models::accuracy_on(&net, &test).unwrap();
    assert!(base_acc >= 0.9, "base accuracy too low: {base_acc}");

    // Attack the base network (CW-L2 is the attack the paper trains the
    // detector on) over a handful of test seeds.
    let seeds: Vec<Tensor> = (0..8).map(|i| test.example(i).unwrap()).collect();
    let attack = CwL2::new(0.0);
    let (stats, advs) = evaluate_untargeted(&attack, &net, &seeds).unwrap();
    assert!(
        stats.successes >= seeds.len() / 2,
        "CW-L2 should fool an undefended net on most seeds, got {}/{}",
        stats.successes,
        stats.attempts
    );
    for ex in &advs {
        assert_ne!(ex.adversarial_label, ex.original_label);
        assert!(ex.dist_l2 > 0.0);
    }

    // Train the detector against the same attack, then assemble the DCN.
    let detector = Detector::train_against(
        &net,
        &seeds,
        &attack,
        &DetectorConfig::default(),
        &mut rng,
    )
    .unwrap();
    let dcn = Dcn::new(net.clone(), detector, Corrector::new(0.15, 50).unwrap());

    // Benign inputs should overwhelmingly pass straight through at cost 1.
    let mut passed = 0usize;
    for i in 0..test.len() {
        let x = test.example(i).unwrap();
        let (label, verdict) = dcn.classify_with_verdict(&x, &mut rng).unwrap();
        assert!(label < 3);
        if verdict == DcnVerdict::PassedThrough {
            assert_eq!(dcn.cost_of(verdict), 1);
            passed += 1;
        } else {
            assert_eq!(dcn.cost_of(verdict), 51);
        }
    }
    assert!(
        passed * 2 >= test.len(),
        "most benign inputs should pass through, got {passed}/{}",
        test.len()
    );

    // Adversarial inputs should overwhelmingly activate the corrector.
    let mut corrected = 0usize;
    for ex in &advs {
        let (_, verdict) = dcn.classify_with_verdict(&ex.adversarial, &mut rng).unwrap();
        if verdict == DcnVerdict::Corrected {
            corrected += 1;
        }
    }
    assert!(
        corrected * 2 >= advs.len(),
        "most adversarial inputs should be flagged, got {corrected}/{}",
        advs.len()
    );

    // Table 3/4 style comparison: the DCN keeps benign accuracy close to
    // the base network and never increases attack success.
    let examples: Vec<Tensor> = (0..test.len()).map(|i| test.example(i).unwrap()).collect();
    let std_def = StandardDefense::new(net);
    let std_acc = defense_accuracy(&std_def, &examples, test.labels(), &mut rng).unwrap();
    let dcn_acc = defense_accuracy(&dcn, &examples, test.labels(), &mut rng).unwrap();
    assert!(
        dcn_acc >= std_acc - 0.2,
        "DCN benign accuracy dropped too far: {dcn_acc} vs {std_acc}"
    );

    let std_rate = attack_success_against(&std_def, &advs, &mut rng).unwrap();
    let dcn_rate = attack_success_against(&dcn, &advs, &mut rng).unwrap();
    assert!((std_rate - 1.0).abs() < 1e-6, "all advs fool the bare net");
    assert!(
        dcn_rate <= std_rate,
        "DCN must not make attacks more successful: {dcn_rate} vs {std_rate}"
    );

    // Under DCN_OBS=1 the run above recorded real metrics: sanity-check the
    // headline counters (tolerant `> 0` bounds — the sibling test in this
    // binary may be recording concurrently) and export the snapshot.
    if dcn_obs::enabled() {
        use dcn_obs::names;
        let snap = dcn_obs::snapshot("end_to_end");
        assert!(snap.counter(names::FORWARD_PASSES_TOTAL) > 0);
        assert!(snap.counter(names::DETECTOR_EVALUATED_TOTAL) > 0);
        assert!(snap.counter(names::DETECTOR_FLAGGED_TOTAL) > 0);
        assert!(snap.counter(names::DCN_QUERIES_TOTAL) > 0);
        assert!(
            snap.sketch(names::CORRECTOR_VOTE_MARGIN)
                .is_some_and(|s| s.count > 0),
            "vote-margin sketch empty"
        );
        assert_eq!(snap.cost.queries, snap.cost.passed_through + snap.cost.corrected);
        assert!(snap.cost.amortized_passes_per_query() >= 1.0);
        let path = dcn_obs::maybe_export("end_to_end").expect("obs export path");
        assert!(path.exists());
    }
}

/// Deadline-bounded serving degrades deterministically instead of failing:
/// under injected per-vote latency the corrector truncates its vote at a
/// fixed point, flags the answer as degraded, and two identical runs agree
/// bitwise. With injection off, the bounded entry point is bitwise
/// identical to the legacy path.
///
/// The injected plan is latency-only (no IO/NaN/budget classes), so a
/// concurrently running sibling test sees identical outcomes — without a
/// deadline the virtual clock never truncates anything.
#[test]
fn deadline_degradation_is_deterministic_and_benign_accuracy_holds() {
    let (net, _train, test, mut rng) = trained_setup(13);
    let seeds: Vec<Tensor> = (0..6).map(|i| test.example(i).unwrap()).collect();
    let detector = Detector::train_against(
        &net,
        &seeds,
        &CwL2::new(0.0),
        &DetectorConfig::default(),
        &mut rng,
    )
    .unwrap();
    let dcn = Dcn::new(net, detector, Corrector::new(0.15, 50).unwrap());

    // 2 ms of virtual time per vote against a 20 ms deadline: exactly 10 of
    // the 50 votes fit, on every run, on any machine.
    let plan = FaultPlan {
        latency_ns: 2_000_000,
        ..FaultPlan::default()
    };
    let budget = VoteBudget {
        max_votes: None,
        deadline: Some(Duration::from_millis(20)),
        min_quorum: 1,
    };

    dcn_fault::set_plan(Some(plan));
    let run = |seed: u64| -> (Vec<usize>, usize, f32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut labels = Vec::new();
        let mut degraded = 0usize;
        let mut correct = 0usize;
        for i in 0..test.len() {
            let x = test.example(i).unwrap();
            let report = dcn.try_classify_bounded(&x, &mut rng, &budget).unwrap();
            if report.degraded {
                degraded += 1;
                assert_eq!(
                    report.base_passes,
                    1 + 10,
                    "virtual deadline must truncate at the same vote index"
                );
            }
            if report.label == test.labels()[i] {
                correct += 1;
            }
            labels.push(report.label);
        }
        (labels, degraded, correct as f32 / test.len() as f32)
    };
    let (labels_a, degraded_a, acc_a) = run(77);
    let (labels_b, degraded_b, _) = run(77);
    dcn_fault::set_plan(None);

    assert_eq!(labels_a, labels_b, "degraded serving must be deterministic");
    assert_eq!(degraded_a, degraded_b);
    assert!(
        acc_a >= 0.8,
        "benign accuracy under degradation too low: {acc_a}"
    );

    // Injection off + unbounded budget ≡ the legacy unbounded path.
    let x = test.example(3).unwrap();
    let mut rng_a = StdRng::seed_from_u64(9);
    let mut rng_b = StdRng::seed_from_u64(9);
    let legacy = dcn.classify(&x, &mut rng_a).unwrap();
    let report = dcn
        .classify_bounded(&x, &mut rng_b, &VoteBudget::unbounded())
        .unwrap();
    assert_eq!(report.label, legacy);
    assert!(!report.degraded);
}

#[test]
fn assembled_dcn_round_trips_through_json() {
    let (net, _train, test, mut rng) = trained_setup(11);
    let seeds: Vec<Tensor> = (0..4).map(|i| test.example(i).unwrap()).collect();
    let detector = Detector::train_against(
        &net,
        &seeds,
        &CwL2::new(0.0),
        &DetectorConfig::default(),
        &mut rng,
    )
    .unwrap();
    let dcn = Dcn::new(net, detector, Corrector::new(0.15, 50).unwrap());

    let json = serde_json::to_string(&dcn).unwrap();
    let back: Dcn = serde_json::from_str(&json).unwrap();
    assert_eq!(dcn, back);

    // The deserialized defense behaves identically (same rng stream).
    let x = test.example(5).unwrap();
    let a = dcn.classify(&x, &mut StdRng::seed_from_u64(3)).unwrap();
    let b = back.classify(&x, &mut StdRng::seed_from_u64(3)).unwrap();
    assert_eq!(a, b);
    assert_eq!(dcn.name(), "DCN");
}
