//! Serial-vs-parallel throughput of the hot defense paths — corrector
//! voting (`m = 50` hypercube samples), the batched forward pass, and the
//! intra-GEMM worker grid on two raw kernel shapes (the 256³ acceptance
//! shape and the tall-skinny conv im2col shape). Each workload is measured
//! once under `ParConfig::serial()` (the exact `DCN_THREADS=1` legacy path)
//! and once per thread budget, so the recorded
//! `BENCH_parallel_scaling.json` gives the scaling curve directly — the
//! outputs themselves are bitwise identical across all legs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcn_core::Corrector;
use dcn_nn::{Dense, Layer, Network, Relu};
use dcn_tensor::{kernel, par, ParConfig, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const IN_DIM: usize = 64;
const HIDDEN: usize = 512;
const CLASSES: usize = 3;

/// `(m, k, n, label)` raw-kernel shapes: the 256³ acceptance shape from the
/// CI scaling gate and the conv im2col shape (many patch rows, few
/// channels) whose single-row-tile regime exercises the column split of
/// the worker grid.
const GEMM_SHAPES: &[(usize, usize, usize, &str)] = &[
    (256, 256, 256, "gemm_256cubed"),
    (5408, 9, 16, "gemm_im2col_5408x9x16"),
];

/// A network wide enough that per-sample inference dominates the parallel
/// region's dispatch overhead (the regime the defenses actually run in;
/// the paper's nets are far larger still).
fn wide_net(rng: &mut StdRng) -> Network {
    let mut net = Network::new(vec![IN_DIM]);
    net.push(Layer::Dense(Dense::new(IN_DIM, HIDDEN, rng).unwrap()));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Dense(Dense::new(HIDDEN, HIDDEN, rng).unwrap()));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Dense(Dense::new(HIDDEN, CLASSES, rng).unwrap()));
    net
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    let net = wide_net(&mut rng);
    let x = Tensor::rand_uniform(&[IN_DIM], -0.5, 0.5, &mut rng);
    let corrector = Corrector::new(0.3, 50).unwrap();
    let batch = Tensor::rand_uniform(&[256, IN_DIM], -0.5, 0.5, &mut rng);
    let gemm_inputs: Vec<(Tensor, Tensor)> = GEMM_SHAPES
        .iter()
        .map(|&(m, k, n, _)| {
            (
                Tensor::randn(&[m, k], 0.0, 1.0, &mut rng),
                Tensor::randn(&[k, n], 0.0, 1.0, &mut rng),
            )
        })
        .collect();

    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(30);

    for threads in [1usize, 2, 4] {
        let cfg = if threads == 1 {
            ParConfig::serial()
        } else {
            ParConfig::with_threads(threads)
        };
        par::configure(cfg);
        group.bench_with_input(
            BenchmarkId::new("vote_counts_m50", threads),
            &threads,
            |b, _| {
                let mut vote_rng = StdRng::seed_from_u64(7);
                b.iter(|| {
                    black_box(
                        corrector
                            .vote_counts(&net, black_box(&x), &mut vote_rng)
                            .unwrap(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("forward_batch256", threads),
            &threads,
            |b, _| b.iter(|| black_box(net.forward(black_box(&batch)).unwrap())),
        );
        for (&(m, k, n, label), (a, bm)) in GEMM_SHAPES.iter().zip(&gemm_inputs) {
            let mut out = vec![0.0f32; m * n];
            group.bench_with_input(BenchmarkId::new(label, threads), &threads, |b, _| {
                b.iter(|| {
                    kernel::par_gemm_nn(
                        black_box(a.data()),
                        black_box(bm.data()),
                        &mut out,
                        m,
                        k,
                        n,
                    );
                    black_box(out[0])
                })
            });
        }
    }
    group.finish();
    par::reset();

    // Speedup summary relative to the serial leg. The curve is hardware-
    // bound: budgets beyond the host's core count cannot beat serial (they
    // should only show that the executor's overhead is negligible), so the
    // core count is printed alongside for interpretation.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let records: Vec<_> = c.records().to_vec();
    c.record_metric("parallel_scaling/cores_available".to_string(), cores as f64);
    for kind in [
        "vote_counts_m50",
        "forward_batch256",
        "gemm_256cubed",
        "gemm_im2col_5408x9x16",
    ] {
        let ns_at = |threads: usize| {
            records
                .iter()
                .find(|r| r.id == format!("parallel_scaling/{kind}/{threads}"))
                .map(|r| r.mean_ns)
        };
        if let Some(serial) = ns_at(1) {
            for threads in [2usize, 4] {
                if let Some(par_ns) = ns_at(threads) {
                    let speedup = serial / par_ns;
                    eprintln!(
                        "speedup {kind} @ {threads} threads: {speedup:.2}x ({cores} cores available)"
                    );
                    // Recorded so the CI scaling gate is a plain field read.
                    c.record_metric(
                        format!("parallel_scaling/speedup_{kind}/{threads}"),
                        speedup,
                    );
                }
            }
        }
    }
}

criterion_group!(parallel_scaling, bench_parallel_scaling);
criterion_main!(parallel_scaling);
