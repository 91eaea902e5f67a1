//! The built-in demo model: a trained DCN that needs no artifacts.
//!
//! The model is deliberately tiny (the same three-Gaussian-blobs MLP the
//! fault-tolerance suite trains), so a server starts in well under a second
//! and a test exercises the *serving engine* — batching, queueing, socket
//! turnaround — rather than GEMM throughput. `dcn-serve serve --demo 1`
//! serves it, the serving and admin test suites drive it, and the
//! repository benchmark (`benchmark/`) uses it in its own tests. Load is
//! measured only by that benchmark (`bash benchmark/run.sh`).

use dcn_core::{models, Corrector, Dcn, DcnError, Detector, DetectorConfig};
use dcn_data::Dataset;
use dcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Three separable Gaussian blobs in a 4-dim box — the fault-tolerance
/// suite's dataset, reused so the serving demo model needs no artifacts.
pub fn demo_dataset(n: usize, rng: &mut StdRng) -> Result<Dataset, DcnError> {
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
    let images = Tensor::from_vec(vec![n, 4], data)?;
    Ok(Dataset::new(images, labels, 3)?)
}

/// A small trained DCN for serving demos and tests: blobs MLP
/// base, detector fit on synthetic logit families, `m`-vote corrector.
pub fn demo_dcn(seed: u64, corrector_samples: usize) -> Result<Dcn, DcnError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let train = demo_dataset(120, &mut rng)?;
    let net = models::mlp(4, 12, 3, &mut rng)?;
    let net = models::train_classifier(net, &train, 25, 0.01, &mut rng)?;
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
        Detector::train_from_logits(&benign, &adversarial, &DetectorConfig::default(), &mut rng)?;
    Ok(Dcn::new(
        net,
        detector,
        Corrector::new(0.12, corrector_samples.max(1))?,
    ))
}

/// A deterministic pool of request inputs: blob points plus near-boundary
/// midpoints so some requests pass through and some trigger votes.
pub fn demo_inputs(n: usize, seed: u64) -> Result<Vec<Tensor>, DcnError> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(17));
    let data = demo_dataset(n.max(1), &mut rng)?;
    let mut inputs = Vec::with_capacity(n);
    for i in 0..n {
        let x = data.example(i % data.len())?;
        if i % 3 == 2 {
            // Blend toward the box center: a low-margin, detector-prone
            // input that exercises the corrector path.
            let blended: Vec<f32> = x.data().iter().map(|&v| v * 0.25).collect();
            inputs.push(Tensor::from_vec(x.shape().to_vec(), blended)?);
        } else {
            inputs.push(x);
        }
    }
    Ok(inputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_model_serves_sane_labels() {
        let dcn = demo_dcn(3, 8).unwrap();
        let inputs = demo_inputs(6, 3).unwrap();
        assert_eq!(inputs.len(), 6);
        let mut rng = StdRng::seed_from_u64(1);
        for x in &inputs {
            let label = dcn.try_classify(x, &mut rng).unwrap();
            assert!(label < 3);
        }
    }
}
