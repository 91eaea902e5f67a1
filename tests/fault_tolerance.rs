//! Integration tests for the fault-injection harness: each injector class
//! is driven against the real pipeline and the degradation ladder is
//! checked end to end — typed errors instead of panics, torn writes that
//! never corrupt the destination, crash-and-resume training that matches an
//! uninterrupted run bitwise, and bounded votes that degrade rather than
//! fail.
//!
//! The fault plan is process-global, so every test that installs one runs
//! under a shared lock and clears the plan before releasing it.

use std::sync::Mutex;

use dcn_core::{models, Corrector, Dcn, DcnError, DcnVerdict, Detector, DetectorConfig, VoteBudget};
use dcn_data::Dataset;
use dcn_fault::FaultPlan;
use dcn_nn::{Adam, Network, NnError, TrainCheckpoint, TrainConfig, Trainer};
use dcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static PLAN_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with `plan` installed, holding the global lock so concurrent
/// tests never see each other's plans; always clears the plan afterwards.
fn with_plan<T>(plan: Option<FaultPlan>, f: impl FnOnce() -> T) -> T {
    let _guard = PLAN_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    dcn_fault::set_plan(plan);
    let out = f();
    dcn_fault::set_plan(None);
    out
}

/// Three separable Gaussian blobs in a 4-dim box (same family as the
/// end-to-end suite, smaller because these tests train repeatedly).
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

/// A tiny trained base network plus a detector fit on synthetic logits —
/// detector accuracy is irrelevant here (the injectors force each branch),
/// so no attack generation is needed.
fn tiny_dcn(seed: u64) -> (Dcn, Dataset, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let train = blobs(120, &mut rng);
    let test = blobs(30, &mut rng);
    let net = models::mlp(4, 12, 3, &mut rng).unwrap();
    let net = models::train_classifier(net, &train, 25, 0.01, &mut rng).unwrap();
    let benign: Vec<Tensor> = (0..6)
        .map(|i| {
            let mut v = [-2.0f32; 3];
            v[i % 3] = 6.0 + 0.1 * i as f32;
            Tensor::from_slice(&v)
        })
        .collect();
    let adversarial: Vec<Tensor> = (0..6)
        .map(|i| {
            let base = 1.0 + 0.05 * i as f32;
            Tensor::from_slice(&[base, base - 0.1, base - 0.2])
        })
        .collect();
    let detector =
        Detector::train_from_logits(&benign, &adversarial, &DetectorConfig::default(), &mut rng)
            .unwrap();
    let dcn = Dcn::new(net, detector, Corrector::new(0.12, 24).unwrap());
    (dcn, test, rng)
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dcn_fault_tolerance_it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn injected_io_errors_surface_as_typed_errors() {
    let mut rng = StdRng::seed_from_u64(3);
    let net = models::mlp(4, 8, 3, &mut rng).unwrap();
    let path = scratch("io_inject.json");
    // Save and reload under the lock with no plan installed: outside it, a
    // neighbouring test's plan (e.g. `nan_rate: 1.0`) could poison either.
    with_plan(None, || net.save(&path)).unwrap();

    let plan = FaultPlan {
        io_error_rate: 1.0,
        ..FaultPlan::default()
    };
    with_plan(Some(plan), || {
        let err = Network::load(&path).unwrap_err();
        assert!(matches!(err, NnError::Io { .. }), "got {err:?}");
        // The unified taxonomy classifies it as an IO failure: exit code 3.
        assert_eq!(DcnError::from(err).exit_code(), 3);
        let err = net.save(scratch("io_inject_2.json")).unwrap_err();
        assert!(matches!(err, NnError::Io { .. }), "got {err:?}");
    });

    // With the plan cleared, the same file loads fine.
    assert_eq!(with_plan(None, || Network::load(&path)).unwrap(), net);
}

#[test]
fn nan_injection_fails_closed_through_the_corrector() {
    let (dcn, test, mut rng) = tiny_dcn(17);
    let x = test.example(0).unwrap();

    let plan = FaultPlan {
        nan_rate: 1.0,
        ..FaultPlan::default()
    };
    with_plan(Some(plan), || {
        // Every single-example logit vector is poisoned, so the detector
        // path fails closed: the query routes to the corrector instead of
        // trusting garbage logits.
        let report = dcn.classify_with_report(&x, &mut rng).unwrap();
        assert_eq!(report.verdict, DcnVerdict::Corrected);
        assert!(report.label < 3);
        // The corrector votes on clean batch passes, so the recovered label
        // is the true class of this benign example.
        assert_eq!(report.label, test.labels()[0]);

        // The detector itself refuses non-finite logits outright.
        let poisoned = Tensor::from_slice(&[f32::NAN, 0.1, 0.2]);
        let err = dcn.detector().is_adversarial(&poisoned).unwrap_err();
        assert_eq!(DcnError::from(err).exit_code(), 5);
    });
}

#[test]
fn forced_vote_budget_degrades_instead_of_failing() {
    let (dcn, test, mut rng) = tiny_dcn(19);
    let x = test.example(1).unwrap();

    // NaN injection forces the corrected path; the budget injector then
    // caps the vote at 3 of the corrector's 24 samples.
    let plan = FaultPlan {
        nan_rate: 1.0,
        vote_budget: Some(3),
        ..FaultPlan::default()
    };
    with_plan(Some(plan), || {
        let report = dcn.classify_with_report(&x, &mut rng).unwrap();
        assert_eq!(report.verdict, DcnVerdict::Corrected);
        assert!(report.degraded, "truncated vote must be marked degraded");
        assert_eq!(report.base_passes, 1 + 3);

        // Below quorum the ladder drops one more rung: the base network's
        // prediction is served rather than a 3-vote mode.
        let budget = VoteBudget {
            max_votes: None,
            deadline: None,
            min_quorum: 5,
        };
        let report = dcn.classify_bounded(&x, &mut rng, &budget).unwrap();
        assert!(report.degraded);
        assert!(report.label < 3);
    });
}

#[test]
fn short_writes_never_tear_the_destination() {
    let mut rng = StdRng::seed_from_u64(23);
    let net = models::mlp(4, 8, 3, &mut rng).unwrap();
    let v1 = TrainCheckpoint {
        epoch: 1,
        epoch_losses: vec![0.9],
        net: net.clone(),
        optimizer: String::new(),
    };
    let path = scratch("torn.json");
    v1.save(&path).unwrap();

    let plan = FaultPlan {
        short_write: Some(10),
        ..FaultPlan::default()
    };
    with_plan(Some(plan), || {
        let v2 = TrainCheckpoint {
            epoch: 2,
            epoch_losses: vec![0.9, 0.7],
            net: net.clone(),
            optimizer: String::new(),
        };
        let err = v2.save(&path).unwrap_err();
        assert!(matches!(err, NnError::Io { .. }), "got {err:?}");
    });

    // The torn write died in the staging file; the destination still holds
    // the complete, CRC-valid previous checkpoint.
    let back = TrainCheckpoint::load(&path).unwrap();
    assert_eq!(back.epoch, 1);
    assert_eq!(back, v1);
}

#[test]
fn aborted_training_resumes_bitwise() {
    let mut rng = StdRng::seed_from_u64(29);
    let data = blobs(90, &mut rng);
    let fresh = models::mlp(4, 10, 3, &mut rng).unwrap();
    let config = TrainConfig {
        epochs: 4,
        batch_size: 16,
        ..Default::default()
    };
    let ckpt = scratch("resume.json");
    let _ = std::fs::remove_file(&ckpt);

    // Uninterrupted reference run.
    let mut full_net = fresh.clone();
    Trainer::new(config.clone())
        .fit_resumable(
            &mut full_net,
            data.images(),
            data.labels(),
            &mut Adam::new(0.01),
            71,
            scratch("reference.json"),
        )
        .unwrap();

    // Same run, crashed by the abort injector after 2 of 4 epochs…
    let mut crashed_net = fresh.clone();
    let plan = FaultPlan {
        abort_after_epochs: Some(2),
        ..FaultPlan::default()
    };
    with_plan(Some(plan), || {
        let err = Trainer::new(config.clone())
            .fit_resumable(
                &mut crashed_net,
                data.images(),
                data.labels(),
                &mut Adam::new(0.01),
                71,
                &ckpt,
            )
            .unwrap_err();
        assert!(matches!(err, NnError::Io { .. }), "got {err:?}");
    });

    // …then resumed from the checkpoint with a fresh process state.
    let mut resumed_net = fresh.clone();
    let report = Trainer::new(config)
        .fit_resumable(
            &mut resumed_net,
            data.images(),
            data.labels(),
            &mut Adam::new(0.01),
            71,
            &ckpt,
        )
        .unwrap();
    assert_eq!(report.epoch_losses.len(), 4);
    assert_eq!(
        resumed_net, full_net,
        "resumed weights must match the uninterrupted run bitwise"
    );
}

#[test]
fn disabled_injection_is_bitwise_inert() {
    let (dcn, test, _) = tiny_dcn(31);
    let x = test.example(2).unwrap();
    let corrector = dcn.corrector();

    with_plan(None, || {
        // The bounded vote with an unbounded budget must delegate to the
        // legacy path: identical mode, counts, and rng stream consumption.
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let (mode, counts) = corrector.vote_counts(dcn.base(), &x, &mut rng_a).unwrap();
        let bounded = corrector
            .vote_counts_bounded(dcn.base(), &x, &mut rng_b, &VoteBudget::unbounded())
            .unwrap();
        assert_eq!(bounded.mode, mode);
        assert_eq!(bounded.counts, counts);
        assert_eq!(bounded.votes_cast, corrector.samples());
        assert!(!bounded.truncated);
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "rng streams diverged");

        // And the full pipeline agrees with itself across both entry points.
        let mut rng_a = StdRng::seed_from_u64(6);
        let mut rng_b = StdRng::seed_from_u64(6);
        let legacy = dcn.classify(&x, &mut rng_a).unwrap();
        let report = dcn
            .classify_bounded(&x, &mut rng_b, &VoteBudget::unbounded())
            .unwrap();
        assert_eq!(report.label, legacy);
        assert!(!report.degraded);
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "rng streams diverged");
    });
}
