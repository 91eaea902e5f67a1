//! Exact observability accounting over a deterministic DCN pipeline.
//!
//! This binary deliberately holds a single `#[test]`: exact assertions on
//! the *global* metric registry only hold when no sibling test records into
//! it concurrently, so the whole scenario runs in its own process (cargo
//! gives every integration-test binary one).

use dcn_core::{Corrector, Dcn, DcnReport, DcnVerdict, Detector, DetectorConfig};
use dcn_nn::{Dense, Layer, Network};
use dcn_obs::names;
use dcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The `crates/core/src/dcn.rs` fixture: a 1-D threshold net plus a
/// detector trained to flag low-margin logits.
fn build_dcn(samples: usize) -> Dcn {
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
    let detector =
        Detector::train_from_logits(&benign, &adversarial, &DetectorConfig::default(), &mut rng)
            .unwrap();
    Dcn::new(net, detector, Corrector::new(0.3, samples).unwrap())
}

fn run_queries(dcn: &Dcn, seed: u64) -> Vec<DcnReport> {
    // 5 deep-benign inputs and 3 just-across-the-boundary "adversarial"
    // ones, interleaved so both paths exercise the same rng stream shape.
    let benign = [-0.40f32, 0.35, -0.30, 0.45, -0.45];
    let adversarial = [0.004f32, -0.003, 0.002];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reports = Vec::new();
    for v in benign.iter().chain(adversarial.iter()) {
        reports.push(
            dcn.classify_with_report(&Tensor::from_slice(&[*v]), &mut rng)
                .unwrap(),
        );
    }
    reports
}

#[test]
fn exact_accounting_and_bitwise_noninterference() {
    const M: usize = 50;
    // Build everything with collection off so training noise stays out of
    // the ledger, then start from a clean slate.
    dcn_obs::set_enabled(false);
    let dcn = build_dcn(M);
    dcn_obs::reset();

    // --- Baseline run, observability disabled. ---
    let baseline = run_queries(&dcn, 77);
    assert_eq!(
        dcn_obs::snapshot("pre").counter(names::DCN_QUERIES_TOTAL),
        0,
        "disabled run must record nothing"
    );

    // --- Instrumented run: identical inputs, identical seed. ---
    dcn_obs::set_enabled(true);
    let observed = run_queries(&dcn, 77);
    dcn_obs::set_enabled(false);

    // Bitwise non-interference: enabling observability changes no output.
    assert_eq!(baseline, observed);

    let passed = observed
        .iter()
        .filter(|r| r.verdict == DcnVerdict::PassedThrough)
        .count() as u64;
    let corrected = observed
        .iter()
        .filter(|r| r.verdict == DcnVerdict::Corrected)
        .count() as u64;
    assert_eq!(passed, 5, "fixture: the 5 deep inputs pass through");
    assert_eq!(corrected, 3, "fixture: the 3 boundary inputs are corrected");

    // --- Exact counter accounting. ---
    let snap = dcn_obs::snapshot("observability");
    let queries = passed + corrected;
    assert_eq!(snap.counter(names::DCN_QUERIES_TOTAL), queries);
    assert_eq!(snap.counter(names::DCN_PASSED_THROUGH_TOTAL), passed);
    assert_eq!(snap.counter(names::DCN_CORRECTED_TOTAL), corrected);
    // The paper's cost asymmetry, measured: 1 pass per benign query,
    // 1 + m per corrected query.
    let expected_base_passes = passed + corrected * (1 + M as u64);
    assert_eq!(snap.counter(names::DCN_BASE_PASSES_TOTAL), expected_base_passes);
    assert_eq!(
        snap.counter(names::DCN_BASE_PASSES_TOTAL),
        observed.iter().map(|r| r.base_passes as u64).sum::<u64>(),
        "global ledger must equal the per-report sum"
    );
    assert_eq!(snap.counter(names::CORRECTOR_INVOCATIONS_TOTAL), corrected);
    assert_eq!(snap.counter(names::CORRECTOR_VOTES_TOTAL), corrected * M as u64);
    // Every classify consults the detector exactly once; only the
    // corrected ones were flagged.
    assert_eq!(snap.counter(names::DETECTOR_EVALUATED_TOTAL), queries);
    assert_eq!(snap.counter(names::DETECTOR_FLAGGED_TOTAL), corrected);
    // Forward passes through *any* Network: base logits (1) + detector MLP
    // (1) per query, plus m vote samples per correction.
    assert_eq!(
        snap.counter(names::FORWARD_PASSES_TOTAL),
        2 * queries + corrected * M as u64
    );

    // --- Vote-margin sketch and spans. ---
    let margin = snap
        .sketch(names::CORRECTOR_VOTE_MARGIN)
        .expect("vote-margin sketch registered");
    assert_eq!(margin.count, corrected);
    assert!(margin.max.unwrap_or(0.0) <= 1.0);
    let classify_span = snap
        .sketch("span.dcn.classify.seconds")
        .expect("dcn.classify span recorded");
    assert_eq!(classify_span.count, queries);
    let vote_span = snap
        .sketch("span.dcn.classify/corrector.vote.seconds")
        .expect("nested corrector span recorded");
    assert_eq!(vote_span.count, corrected);

    // --- Derived cost model reproduces the 1 vs 1 + m claim. ---
    assert_eq!(snap.cost.queries, queries);
    assert_eq!(snap.cost.base_passes, expected_base_passes);
    let amortized = snap.cost.amortized_passes_per_query();
    let expected = (passed as f64 + corrected as f64 * (1.0 + M as f64)) / queries as f64;
    assert!((amortized - expected).abs() < 1e-12);
    assert!((snap.cost.mean_votes_per_correction() - M as f64).abs() < 1e-12);

    // --- Export round-trips through the vendored serde_json. ---
    let dir = std::env::temp_dir().join("dcn_observability_test");
    let path = snap.write_to(&dir).expect("write snapshot");
    let text = std::fs::read_to_string(&path).unwrap();
    let value: serde_json::Value = serde_json::from_str(&text).expect("snapshot JSON parses");
    for key in ["run", "counters", "sketches", "cost"] {
        assert!(value.get_field(key).is_some(), "missing top-level key {key}");
    }
    let cost = value.get_field("cost").unwrap();
    assert_eq!(
        cost.get_field("base_passes").and_then(|v| v.as_f64()),
        Some(expected_base_passes as f64)
    );
    let _ = std::fs::remove_dir_all(&dir);

    // The summary table leads with the cost line the paper cares about.
    let rendered = snap.render();
    assert!(rendered.contains("passes/query"), "render: {rendered}");
}
