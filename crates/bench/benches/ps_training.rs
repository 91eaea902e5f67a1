//! Distributed training on the `dcn-ps` parameter server at 1/2/4 workers,
//! through the real TCP protocol (in-process worker threads via
//! `RunningServer::drive_local`). The recorded `BENCH_ps_training.json`
//! carries BSP epochs/sec per worker count and the final held-out accuracy
//! as a fraction, which CI gates. BSP is the determinism anchor — one
//! batch in flight, so adding workers buys fault tolerance rather than
//! throughput, and every worker count trains the same model bit for bit;
//! no scaling floor is asserted here.

use criterion::{criterion_group, criterion_main, Criterion};
use dcn_ps::{serve, ServerConfig, TrainSummary};
use std::time::Instant;

const N: usize = 1024;
const EPOCHS: usize = 2;

fn run(workers: usize) -> (TrainSummary, f64) {
    let cfg = ServerConfig {
        n: N,
        epochs: EPOCHS,
        workers,
        ..ServerConfig::default()
    };
    let start = Instant::now();
    let summary = serve(cfg)
        .and_then(|s| s.drive_local(workers))
        .expect("ps training run");
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(summary.workers_lost, 0, "bench runs must not lose workers");
    (summary, EPOCHS as f64 / secs)
}

fn bench_ps_training(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    c.record_metric("ps_training/cores", cores as f64);

    let mut accuracy = None;
    for workers in [1usize, 2, 4] {
        let (summary, eps) = run(workers);
        c.record_metric(format!("ps_training/bsp_epochs_per_sec/{workers}"), eps);
        eprintln!(
            "ps_training {workers} workers: bsp {eps:.2} epochs/s (acc {:.4})",
            summary.accuracy
        );
        let first = *accuracy.get_or_insert(summary.accuracy);
        assert_eq!(
            first.to_bits(),
            summary.accuracy.to_bits(),
            "BSP accuracy must not depend on the worker count"
        );
    }
    c.record_metric("ps_training/accuracy", accuracy.map_or(0.0, f64::from));
    if cores < 4 {
        eprintln!("note: only {cores} cores — the 4-worker numbers are contention-limited");
    }
}

criterion_group!(ps_training, bench_ps_training);
criterion_main!(ps_training);
