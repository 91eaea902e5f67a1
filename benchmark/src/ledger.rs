//! The replay pass of a traced run: the workload's own inputs go through
//! the program's public calls one layer at a time, each timed from outside.
//!
//! The replay runs at the ambient thread budget (`DCN_THREADS`, else the
//! core count), the configuration the workloads serve and train with, so a
//! change to the parallel paths moves these rows as it moves the end-to-end
//! metrics. The gap between the per-layer sum and the measured forward is
//! itself reported. At more than one thread the two differ by design: the
//! forward splits the batch across threads, each layer alone splits its
//! GEMM. The same inference rows are therefore measured once more on one
//! thread, as `nn.*.serial.<shape>`, where the layers must add up to the
//! forward. Shapes:
//!
//! * `b1` — one request per batch, as at 1000 rps;
//! * `b16` — a full serving batch, as in the capacity phase;
//! * `b50` — one request's corrector vote stack (`m = 50`);
//! * `b8` — one chunk of the bounded vote loop;
//! * `b32` — one training batch.
//!
//! GFLOP/s figures are computed from layer shapes (2 flops per
//! multiply-add), not counted.

use std::time::Instant;

use dcn_core::{BatchRequest, Dcn, DcnVerdict};
use dcn_nn::{softmax_cross_entropy, Layer, Network};
use dcn_ps::{decode_client, encode_client, ClientMsg};
use dcn_serve::{decode_request, encode_request, Request, WireMode};
use dcn_tensor::{im2col_into, matmul_into, par, scratch, ParConfig, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::record::{Metric, Record};
use crate::serve::budget_cap;
use crate::stats::{median, Summary};
use crate::Result;

/// Inference shapes of the ledger: name and batch size.
pub const SHAPES: [(&str, usize); 4] = [("b1", 1), ("b16", 16), ("b50", 50), ("b8", 8)];

/// Requests classified per `try_classify_batch` call, as the serving
/// batcher does at full occupancy.
const SLICE: usize = 16;

/// Requests replayed through `try_classify_batch`.
const REPLAY_REQUESTS: usize = 1024;

/// The inputs of one replay: the workload's DCN and its own traffic.
pub struct ReplaySet<'a> {
    /// The defense the workload serves (or would serve).
    pub dcn: &'a Dcn,
    /// The workload's requests, in arrival order.
    pub requests: &'a [BatchRequest],
    /// One training batch of the workload's network (`b32`).
    pub train_x: &'a Tensor,
    /// Labels of `train_x`.
    pub train_y: &'a [usize],
}

/// Seconds taken by `f`.
fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Repetitions that keep one measurement near 120 ms.
fn reps_for(one_call_s: f64) -> usize {
    ((0.12 / one_call_s.max(1e-9)).ceil() as usize).clamp(5, 400)
}

/// The ledger name of layer `i`: `conv<i>`/`dense<i>` for layers with
/// parameters, `elementwise` for activations, pooling and flatten.
fn layer_name(i: usize, layer: &Layer) -> String {
    match layer {
        Layer::Conv2d(_) => format!("conv{i}"),
        Layer::Dense(_) => format!("dense{i}"),
        _ => "elementwise".to_string(),
    }
}

/// Floating-point operations of `layer` on one example.
fn flops_per_example(layer: &Layer) -> f64 {
    match layer {
        Layer::Conv2d(c) => {
            let g = c.geometry();
            2.0 * (g.out_h() * g.out_w() * g.patch_len() * c.out_channels()) as f64
        }
        Layer::Dense(d) => 2.0 * (d.in_dim() * d.out_dim()) as f64,
        _ => 0.0,
    }
}

/// `n` inputs stacked into one batch, cycling when there are fewer.
fn batch_of(inputs: &[&Tensor], n: usize) -> Result<Tensor> {
    let picked: Vec<Tensor> = (0..n).map(|i| inputs[i % inputs.len()].clone()).collect();
    Ok(Tensor::stack(&picked)?)
}

/// Groups per-layer samples by ledger name: each rep's times of the
/// layers sharing a name are added.
fn grouped(net: &Network, per_layer: &[Vec<f64>]) -> Vec<(String, Vec<f64>, f64)> {
    let mut groups: Vec<(String, Vec<f64>, f64)> = Vec::new();
    for (i, layer) in net.layers().iter().enumerate() {
        let name = layer_name(i, layer);
        let g = match groups.iter().position(|g| g.0 == name) {
            Some(g) => {
                for (acc, v) in groups[g].1.iter_mut().zip(&per_layer[i]) {
                    *acc += v;
                }
                g
            }
            None => {
                groups.push((name, per_layer[i].clone(), 0.0));
                groups.len() - 1
            }
        };
        groups[g].2 += flops_per_example(layer);
    }
    groups
}

/// Seconds of one whole forward of `net` on `x`.
fn forward_secs(net: &Network, x: &Tensor) -> Result<f64> {
    let t = Instant::now();
    let out = net.forward(x)?;
    let secs = t.elapsed().as_secs_f64();
    scratch::recycle(out.into_vec());
    Ok(secs)
}

/// Runs the layers of `net` one by one on `x`, pushing each layer's
/// seconds onto `per_layer`, and returns their sum.
fn layer_secs(net: &Network, x: &Tensor, per_layer: &mut [Vec<f64>]) -> Result<f64> {
    let mut cur: Option<Tensor> = None;
    let mut sum = 0.0;
    for (i, layer) in net.layers().iter().enumerate() {
        let t = Instant::now();
        let next = layer.infer(cur.as_ref().unwrap_or(x))?;
        let dt = t.elapsed().as_secs_f64();
        per_layer[i].push(dt);
        sum += dt;
        if let Some(prev) = cur.replace(next) {
            scratch::recycle(prev.into_vec());
        }
    }
    if let Some(last) = cur {
        scratch::recycle(last.into_vec());
    }
    Ok(sum)
}

/// Per-layer inference times of `net` on `x`, the whole forward's time,
/// and the gap between the two: the median over repetitions of (layer
/// sum − forward) / forward, each repetition timing the forward and its
/// layers back to back, so a slow moment of the host hits both.
/// Repetitions alternate which of the two runs first, so the second's
/// warmer caches favour neither. Each half gets the usual measuring time,
/// and the count is even and at least eight, so the two orders stay
/// balanced and the median gap moves by a few percent at most.
fn inference(net: &Network, x: &Tensor, shape: &str) -> Result<Vec<Metric>> {
    let n = x.shape()[0];
    let mut per_layer = vec![Vec::new(); net.layers().len()];
    let (mut forward, mut gaps) = (Vec::new(), Vec::new());
    // One untimed pass of each half first, so the scratch pool and the
    // allocator already hold the buffers both need.
    layer_secs(net, x, &mut vec![Vec::new(); per_layer.len()])?;
    let one = forward_secs(net, x)?;
    for rep in 0..(2 * reps_for(one)).max(8).next_multiple_of(2) {
        let (fwd, sum) = if rep % 2 == 0 {
            let fwd = forward_secs(net, x)?;
            (fwd, layer_secs(net, x, &mut per_layer)?)
        } else {
            let sum = layer_secs(net, x, &mut per_layer)?;
            (forward_secs(net, x)?, sum)
        };
        forward.push(fwd);
        gaps.push((sum - fwd) / fwd);
    }
    let mut metrics = Vec::new();
    for (name, samples, flops_one) in grouped(net, &per_layer) {
        let s = Summary::of(&samples).scaled(1e6);
        if flops_one > 0.0 {
            let gflops = flops_one * n as f64 / (s.median * 1e-6) / 1e9;
            metrics.push(Metric::scalar(
                format!("nn.{name}.{shape}.gflops"),
                "GFLOP/s",
                gflops,
            ));
        }
        metrics.push(Metric::timing(format!("nn.{name}.{shape}.us"), "us", s));
    }
    metrics.push(Metric::scalar(
        format!("nn.layer_sum_gap.{shape}"),
        "fraction",
        median(&gaps),
    ));
    metrics.push(Metric::timing(
        format!("nn.forward.{shape}.us"),
        "us",
        Summary::of(&forward).scaled(1e6),
    ));
    Ok(metrics)
}

/// Per-layer forward and backward times of one training step of `net`
/// (`Layer::forward` / `Layer::backward` with a cross-entropy loss), and
/// the whole step as the parameter-server worker runs it.
fn training(net: &Network, x: &Tensor, y: &[usize]) -> Result<Vec<Metric>> {
    let layers = net.layers();
    let mut fwd = vec![Vec::new(); layers.len()];
    let mut bwd = vec![Vec::new(); layers.len()];
    let mut step = Vec::new();
    let one = secs(|| {
        if let Ok((logits, caches)) = net.forward_train(x) {
            if let Ok(loss) = softmax_cross_entropy(&logits, y, 1.0) {
                let _ = net.backward(&loss.grad, &caches);
            }
        }
    });
    for _ in 0..reps_for(one).min(60) {
        let mut cur = x.clone();
        let mut caches = Vec::with_capacity(layers.len());
        for (i, layer) in layers.iter().enumerate() {
            let t = Instant::now();
            let (out, cache) = layer.forward(&cur)?;
            fwd[i].push(t.elapsed().as_secs_f64());
            caches.push(cache);
            cur = out;
        }
        let loss = softmax_cross_entropy(&cur, y, 1.0)?;
        let mut grad = loss.grad;
        for (i, layer) in layers.iter().enumerate().rev() {
            let t = Instant::now();
            let (gin, _) = layer.backward(&grad, &caches[i])?;
            bwd[i].push(t.elapsed().as_secs_f64());
            grad = gin;
        }
        let t = Instant::now();
        let (logits, caches) = net.forward_train(x)?;
        let loss = softmax_cross_entropy(&logits, y, 1.0)?;
        let _ = net.backward(&loss.grad, &caches)?;
        step.push(t.elapsed().as_secs_f64());
    }
    let mut metrics = Vec::new();
    for (samples, suffix) in [(&fwd, "fwd_us"), (&bwd, "bwd_us")] {
        for (name, s, _) in grouped(net, samples) {
            metrics.push(Metric::timing(
                format!("nn.train.{name}.{suffix}"),
                "us",
                Summary::of(&s).scaled(1e6),
            ));
        }
    }
    metrics.push(Metric::timing(
        "nn.train.step_ms",
        "ms",
        Summary::of(&step).scaled(1e3),
    ));
    Ok(metrics)
}

/// The two halves of every convolution — patch extraction and the GEMM —
/// timed on the activations the layer really receives at this shape.
fn kernels(net: &Network, x: &Tensor, shape: &str) -> Result<Vec<Metric>> {
    let mut metrics = Vec::new();
    let mut cur = x.clone();
    for (i, layer) in net.layers().iter().enumerate() {
        if let Layer::Conv2d(conv) = layer {
            let geom = conv.geometry();
            let w = layer.params()[0];
            let mut cols = Vec::new();
            let one = secs(|| {
                let _ = im2col_into(&cur, geom, &mut cols);
            });
            let reps = reps_for(one);
            let mut im2col = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t = Instant::now();
                im2col_into(&cur, geom, &mut cols)?;
                im2col.push(t.elapsed().as_secs_f64());
            }
            let rows = cols.len() / geom.patch_len();
            let cols = Tensor::from_vec(vec![rows, geom.patch_len()], cols)?;
            let mut out = Vec::new();
            let mut gemm = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t = Instant::now();
                matmul_into(&cols, w, &mut out)?;
                gemm.push(t.elapsed().as_secs_f64());
            }
            let gemm = Summary::of(&gemm).scaled(1e6);
            let gflops = 2.0 * (rows * geom.patch_len() * conv.out_channels()) as f64
                / (gemm.median * 1e-6)
                / 1e9;
            metrics.push(Metric::timing(
                format!("tensor.im2col.conv{i}.{shape}.us"),
                "us",
                Summary::of(&im2col).scaled(1e6),
            ));
            metrics.push(Metric::timing(
                format!("tensor.gemm.conv{i}.{shape}.us"),
                "us",
                gemm,
            ));
            metrics.push(Metric::scalar(
                format!("tensor.gemm.conv{i}.{shape}.gflops"),
                "GFLOP/s",
                gflops,
            ));
        }
        cur = layer.infer(&cur)?;
    }
    Ok(metrics)
}

/// The wire codecs: one request frame carrying a workload input, and one
/// gradient push of the workload's network.
fn codecs(net: &Network, requests: &[BatchRequest]) -> Result<Vec<Metric>> {
    let wire: Vec<Request> = requests
        .iter()
        .take(64)
        .map(|r| Request {
            id: 1,
            seed: r.seed,
            budget: r.budget,
            trace: 0,
            x: r.x.clone(),
        })
        .collect();
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    for _ in 0..8 {
        for req in &wire {
            let t = Instant::now();
            let payload = encode_request(req, WireMode::Binary)?;
            encode.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let back = decode_request(&payload, WireMode::Binary)?;
            decode.push(t.elapsed().as_secs_f64());
            std::hint::black_box(back);
        }
    }
    let push = ClientMsg::PushGrads {
        worker: 0,
        epoch: 0,
        batch: 0,
        version: 0,
        loss: 1.0,
        grads: net.export_param_data(),
    };
    let mut ps = Vec::new();
    for _ in 0..40 {
        let t = Instant::now();
        let back = decode_client(&encode_client(&push))?;
        ps.push(t.elapsed().as_secs_f64());
        std::hint::black_box(back);
    }
    Ok(vec![
        Metric::timing("serve.encode_us", "us", Summary::of(&encode).scaled(1e6)),
        Metric::timing("serve.decode_us", "us", Summary::of(&decode).scaled(1e6)),
        Metric::timing("ps.push_codec_us", "us", Summary::of(&ps).scaled(1e6)),
    ])
}

/// The DCN's own calls: the batched classify, the detector screen, the
/// corrector's stacked vote and its bounded chunk loop (under the
/// serve-budget cap).
fn defense(set: &ReplaySet<'_>) -> Result<Vec<Metric>> {
    let dcn = set.dcn;
    let base = dcn.base();
    let requests = &set.requests[..set.requests.len().min(REPLAY_REQUESTS)];
    let mut batch_ms = Vec::new();
    let (mut flagged, mut passes, mut answered) = (Vec::new(), 0usize, 0usize);
    for (c, slice) in requests.chunks(SLICE).enumerate() {
        let t = Instant::now();
        let reports = dcn.try_classify_batch(slice);
        batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for (k, r) in reports.into_iter().enumerate() {
            let r = r?;
            answered += 1;
            passes += r.base_passes;
            if r.verdict == DcnVerdict::Corrected {
                flagged.push(c * SLICE + k);
            }
        }
    }

    let inputs: Vec<&Tensor> = requests.iter().map(|r| &r.x).collect();
    let logits = base.forward(&batch_of(&inputs, SLICE)?)?;
    let rows: Vec<Tensor> = (0..SLICE)
        .map(|i| logits.row(i))
        .collect::<std::result::Result<_, _>>()?;
    let one = secs(|| {
        let _ = dcn.detector().flag_batch(&rows);
    });
    let mut detector = Vec::new();
    for _ in 0..reps_for(one) {
        let t = Instant::now();
        let flags = dcn.detector().flag_batch(&rows)?;
        detector.push(t.elapsed().as_secs_f64());
        std::hint::black_box(flags);
    }

    // Votes on the inputs the detector flags, topped up with the first
    // requests when the workload flags fewer than sixteen.
    let voters: Vec<&BatchRequest> = flagged
        .iter()
        .map(|&i| &requests[i])
        .chain(requests.iter())
        .take(SLICE)
        .collect();
    let m = dcn.corrector().samples();
    let stack = batch_of(&voters.iter().map(|r| &r.x).collect::<Vec<_>>(), m)?;
    let mut stack_forward = Vec::new();
    let (mut vote, mut bounded, mut margins) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        for r in &voters {
            let t = Instant::now();
            let out = base.forward(&stack)?;
            stack_forward.push(t.elapsed().as_secs_f64());
            scratch::recycle(out.into_vec());
            let t = Instant::now();
            let (mode, counts) =
                dcn.corrector()
                    .vote_counts(base, &r.x, &mut StdRng::seed_from_u64(r.seed))?;
            vote.push(t.elapsed().as_secs_f64());
            let runner_up = counts
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != mode)
                .map(|(_, &c)| c)
                .max()
                .unwrap_or(0);
            margins.push((counts[mode] - runner_up) as f64 / m as f64);
            let t = Instant::now();
            let b = dcn.corrector().vote_counts_bounded(
                base,
                &r.x,
                &mut StdRng::seed_from_u64(r.seed),
                &budget_cap(),
            )?;
            bounded.push(t.elapsed().as_secs_f64());
            std::hint::black_box(b);
        }
    }
    let vote = Summary::of(&vote).scaled(1e3);
    Ok(vec![
        Metric::timing("core.classify_batch_ms", "ms", Summary::of(&batch_ms)),
        Metric::ratio("core.flag_share", flagged.len() as f64, answered as f64),
        Metric::new(
            "core.base_passes_per_req",
            "passes/req",
            Record::Ratio {
                num: passes as f64,
                den: answered as f64,
            },
        ),
        Metric::timing("core.detector_us", "us", Summary::of(&detector).scaled(1e6)),
        Metric::scalar(
            "core.vote_forward_share",
            "fraction",
            median(&stack_forward) * 1e3 / vote.median,
        ),
        Metric::timing("core.vote_ms", "ms", vote),
        Metric::scalar("core.vote_margin_p50", "fraction", median(&margins)),
        Metric::timing(
            "core.bounded_vote_ms",
            "ms",
            Summary::of(&bounded).scaled(1e3),
        ),
    ])
}

/// Runs the whole replay and returns its metrics.
///
/// # Errors
///
/// Any failing call; the replay uses the same inputs the workload served,
/// so a failure here is a program failure.
pub fn replay(set: &ReplaySet<'_>) -> Result<Vec<Metric>> {
    let net = set.dcn.base();
    let inputs: Vec<&Tensor> = set.requests.iter().map(|r| &r.x).collect();
    if inputs.is_empty() {
        return Err("replay needs at least one request".into());
    }
    let mut metrics = Vec::new();
    for (shape, n) in SHAPES {
        let x = batch_of(&inputs, n)?;
        metrics.extend(inference(net, &x, shape)?);
        if shape == "b50" {
            metrics.extend(kernels(net, &x, shape)?);
        }
    }
    metrics.extend(serial_inference(net, &inputs)?);
    metrics.extend(kernels(net, set.train_x, "b32")?);
    metrics.extend(training(net, set.train_x, set.train_y)?);
    metrics.extend(codecs(net, set.requests)?);
    metrics.extend(defense(set)?);
    Ok(metrics)
}

/// The inference rows of every shape on one thread, named
/// `nn.*.serial.<shape>`: the reference in which the per-layer times must
/// add up to the whole forward.
fn serial_inference(net: &Network, inputs: &[&Tensor]) -> Result<Vec<Metric>> {
    par::configure(ParConfig {
        threads: 1,
        ..ParConfig::current()
    });
    let mut metrics = Vec::new();
    let result = SHAPES.iter().try_for_each(|&(shape, n)| -> Result<()> {
        let x = batch_of(inputs, n)?;
        metrics.extend(inference(net, &x, &format!("serial.{shape}"))?);
        Ok(())
    });
    par::reset();
    result.map(|()| metrics)
}
