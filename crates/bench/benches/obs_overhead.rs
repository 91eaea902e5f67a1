//! Instrumentation overhead of `dcn-obs` on the hottest defended path: the
//! corrector's `m = 50` majority vote. Three legs of the same workload —
//! observability disabled (must be indistinguishable from the pre-obs
//! baseline), enabled (target: < 5% overhead), and enabled-with-reset (the
//! bench-harness pattern) — plus the cost of one quantile-sketch
//! observation as a share of one vote (gated < 1% in CI). Runs serially so
//! the comparison measures the instrumentation, not thread-scheduling
//! jitter; recorded to `results/BENCH_obs_overhead.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use dcn_core::Corrector;
use dcn_nn::{Dense, Layer, Network, Relu};
use dcn_tensor::{par, ParConfig, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const IN_DIM: usize = 64;
const HIDDEN: usize = 256;
const CLASSES: usize = 3;

fn net(rng: &mut StdRng) -> Network {
    let mut net = Network::new(vec![IN_DIM]);
    net.push(Layer::Dense(Dense::new(IN_DIM, HIDDEN, rng).unwrap()));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Dense(Dense::new(HIDDEN, CLASSES, rng).unwrap()));
    net
}

/// Observations per timed batch in the sketch-cost measurement.
const OBSERVE_BATCH: u32 = 100_000;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn bench_obs_overhead(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    let net = net(&mut rng);
    let x = Tensor::rand_uniform(&[IN_DIM], -0.5, 0.5, &mut rng);
    let corrector = Corrector::new(0.3, 50).unwrap();
    par::configure(ParConfig::serial());

    // Warm caches and page in the vote path before the first measured leg,
    // otherwise the obs-off leg eats the cold-start cost and the comparison
    // reads as negative overhead.
    dcn_obs::set_enabled(false);
    let mut warm_rng = StdRng::seed_from_u64(7);
    for _ in 0..50 {
        black_box(corrector.vote_counts(&net, &x, &mut warm_rng).unwrap());
    }

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(40);

    dcn_obs::set_enabled(false);
    group.bench_function("vote_m50_obs_off", |b| {
        let mut vote_rng = StdRng::seed_from_u64(7);
        b.iter(|| black_box(corrector.vote_counts(&net, black_box(&x), &mut vote_rng).unwrap()))
    });

    dcn_obs::set_enabled(true);
    group.bench_function("vote_m50_obs_on", |b| {
        let mut vote_rng = StdRng::seed_from_u64(7);
        b.iter(|| black_box(corrector.vote_counts(&net, black_box(&x), &mut vote_rng).unwrap()))
    });
    group.bench_function("vote_m50_obs_on_with_reset", |b| {
        let mut vote_rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            let out = corrector.vote_counts(&net, black_box(&x), &mut vote_rng).unwrap();
            dcn_obs::reset();
            black_box(out)
        })
    });
    // The serving latency path records one quantile-sketch observation per
    // vote. Its cost is timed directly — the median over batches of
    // `OBSERVE_BATCH` observations of distinct latency-like values, each
    // one a centroid insert plus a compaction — against the median of
    // single obs-on votes. Two whole-vote legs would differ by one
    // observation in ~200 µs, far below their own run-to-run noise.
    let sketch = dcn_obs::sketch("bench.vote_latency_seconds");
    let mut seq = 0u32;
    let observe_ns = median(
        (0..21)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..OBSERVE_BATCH {
                    seq = seq.wrapping_add(1);
                    let secs = 1e-4 * (1.0 + (f64::from(seq) * 0.618_034).fract());
                    sketch.observe(black_box(secs));
                }
                started.elapsed().as_nanos() as f64 / f64::from(OBSERVE_BATCH)
            })
            .collect(),
    );
    let mut vote_rng = StdRng::seed_from_u64(7);
    let vote_ns = median(
        (0..41)
            .map(|_| {
                let started = Instant::now();
                black_box(corrector.vote_counts(&net, black_box(&x), &mut vote_rng).unwrap());
                started.elapsed().as_nanos() as f64
            })
            .collect(),
    );
    dcn_obs::set_enabled(false);
    dcn_obs::reset();
    group.finish();
    par::reset();

    let ns_of = |id: &str| {
        c.records()
            .iter()
            .find(|r| r.id == format!("obs_overhead/{id}"))
            .map(|r| r.mean_ns)
    };
    if let (Some(off), Some(on)) = (ns_of("vote_m50_obs_off"), ns_of("vote_m50_obs_on")) {
        let overhead = (on - off) / off * 100.0;
        eprintln!(
            "obs overhead on the m=50 vote path: {overhead:+.2}% (off {off:.0} ns, on {on:.0} ns; target < 5%)"
        );
    }
    let overhead = observe_ns / vote_ns * 100.0;
    c.record_metric("obs_overhead/sketch_overhead_pct", overhead);
    eprintln!(
        "sketch overhead on the m=50 vote path: {overhead:.4}% (observe {observe_ns:.1} ns, vote {vote_ns:.0} ns, medians; target < 1%)"
    );
}

criterion_group!(obs_overhead, bench_obs_overhead);
criterion_main!(obs_overhead);
