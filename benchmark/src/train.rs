//! `train-cifar`: BSP training of the CIFAR CNN on the `dcn_ps` parameter
//! server, two in-process workers, driven by `RunningServer::drive_local`.
//!
//! The job is fixed — synth-CIFAR n = 2048, 3 epochs, batch 32, 4 shards,
//! data and initialisation from [`JOB_SEED`] — whatever the run's seed. BSP
//! is bitwise deterministic, so the job's accuracy is an exact pin that any
//! change to training numerics moves; across job seeds the accuracy of
//! this short run ranges from 0.48 to 0.71, wider than any useful bound.
//! A run repeats the job once per ten measured seconds (at least twice),
//! a count that does not depend on how fast the host is, and checks that
//! every repeat agrees bit for bit.

use std::time::Instant;

use dcn_core::{BatchRequest, Corrector, Dcn, Detector, DetectorConfig, VoteBudget};
use dcn_nn::Network;
use dcn_ps::{build_job, num_batches, serve, Mode, ServerConfig, TrainSummary};
use dcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

use crate::host::memory_metrics;
use crate::ledger::{self, ReplaySet};
use crate::record::{Ledger, Metric};
use crate::stats::Summary;
use crate::{stream, Check, Outcome, Result, RunCtx, Scale};

/// The seed of the fixed training job.
pub const JOB_SEED: u64 = 7;
/// Workers driving the job.
const WORKERS: usize = 2;

fn config(scale: &Scale) -> ServerConfig {
    ServerConfig {
        task: "cifar".to_string(),
        n: scale.cifar_n,
        epochs: scale.cifar_epochs,
        batch_size: 32,
        seed: JOB_SEED,
        mode: Mode::Bsp,
        workers: WORKERS,
        shards: 4,
        ..ServerConfig::default()
    }
}

/// One training job: set-up seconds, training seconds, and the summary.
struct Job {
    setup_s: f64,
    train_s: f64,
    summary: TrainSummary,
}

fn train_once(cfg: &ServerConfig) -> Result<Job> {
    let t = Instant::now();
    let server = serve(cfg.clone())?;
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let summary = server.drive_local(WORKERS)?;
    Ok(Job {
        setup_s,
        train_s: t.elapsed().as_secs_f64(),
        summary,
    })
}

/// Checks every job against the BSP contract and the first job.
fn job_checks(cfg: &ServerConfig, jobs: &[Job]) -> Vec<Check> {
    let steps = (cfg.epochs * num_batches(cfg.n, cfg.batch_size)) as u64;
    let first = &jobs[0].summary;
    let bits = |s: &TrainSummary| {
        let mut v: Vec<u32> = s.epoch_losses.iter().map(|l| l.to_bits()).collect();
        v.push(s.accuracy.to_bits());
        v
    };
    vec![
        Check::new(
            "no worker lost",
            jobs.iter().all(|j| j.summary.workers_lost == 0),
            format!(
                "{:?}",
                jobs.iter()
                    .map(|j| j.summary.workers_lost)
                    .collect::<Vec<_>>()
            ),
        ),
        Check::new(
            "version == epochs * ceil(n / batch)",
            jobs.iter().all(|j| j.summary.version == steps),
            format!(
                "want {steps}, got {:?}",
                jobs.iter().map(|j| j.summary.version).collect::<Vec<_>>()
            ),
        ),
        Check::new(
            "epoch losses finite",
            jobs.iter().all(|j| {
                j.summary.epoch_losses.len() == cfg.epochs
                    && j.summary.epoch_losses.iter().all(|l| l.is_finite())
            }),
            format!("{:?}", first.epoch_losses),
        ),
        Check::new(
            "repeats are bitwise identical",
            jobs.iter().all(|j| bits(&j.summary) == bits(first)),
            format!("{} jobs, accuracy {}", jobs.len(), first.accuracy),
        ),
    ]
}

/// Runs `train-cifar` once.
///
/// # Errors
///
/// A job that failed to start or finish.
pub fn run(seed: u64, scale: &Scale, ctx: &RunCtx, traced: bool) -> Result<Outcome> {
    let cfg = config(scale);
    let steps = (cfg.epochs * num_batches(cfg.n, cfg.batch_size)) as u64;
    let examples = (cfg.n * cfg.epochs) as f64;
    let mut ledger = Ledger::default();
    let mut jobs = vec![train_once(&cfg)?];

    if traced {
        dcn_obs::reset();
        dcn_obs::set_enabled(true);
        dcn_obs::set_trace_enabled(true);
        let model = ctx.out.join("train-cifar.model.json");
        let job = train_once(&ServerConfig {
            out: Some(model.clone()),
            ..cfg.clone()
        });
        let snapshot = dcn_obs::snapshot("dcn-benchmark");
        dcn_obs::set_enabled(false);
        dcn_obs::set_trace_enabled(false);
        jobs.push(job?);
        let (plain, live) = (jobs[0].train_s * 1e3, jobs[1].train_s * 1e3);
        ledger.push(Metric::timing("live.p50_ms", "ms", Summary::of(&[live])));
        ledger.push(Metric::scalar(
            "live.trace_overhead",
            "fraction",
            live / plain - 1.0,
        ));
        for (name, sketch) in [
            ("ps.compute_p50_ms", dcn_ps::names::PS_COMPUTE_LATENCY),
            ("ps.apply_p50_ms", dcn_ps::names::PS_APPLY_LATENCY),
        ] {
            if let Some(s) = snapshot.sketch(sketch) {
                ledger.push(Metric::scalar(name, "ms", s.p50 * 1e3));
            }
        }
        let applied = snapshot.counter(dcn_ps::names::PS_BATCHES_APPLIED_TOTAL) as f64;
        let stale = snapshot.counter(dcn_ps::names::PS_BATCHES_STALE_TOTAL) as f64;
        ledger.push(Metric::ratio(
            "ps.useful_push_share",
            applied,
            applied + stale,
        ));
        ledger.extend(replay(seed, &cfg, &Network::load(&model)?)?);
        let _ = std::fs::remove_file(&model);
    } else {
        let repeats = ((scale.seconds / 10.0).round() as usize).max(2);
        while jobs.len() < repeats {
            jobs.push(train_once(&cfg)?);
        }
        let train_ms: Vec<f64> = jobs.iter().map(|j| j.train_s * 1e3).collect();
        let setup: Vec<f64> = jobs.iter().map(|j| j.setup_s).collect();
        let per_job = Summary::of(&train_ms);
        ledger.push(Metric::timing("setup_s", "s", Summary::of(&setup)));
        ledger.push(Metric::timing("p50_ms", "ms", per_job));
        ledger.push(Metric::scalar("p99_ms", "ms", per_job.max));
        ledger.push(Metric::scalar(
            "throughput_per_s",
            "1/s",
            examples / (per_job.median / 1e3),
        ));
    }
    ledger.push(Metric::scalar(
        "accuracy",
        "fraction",
        f64::from(jobs[0].summary.accuracy),
    ));
    ledger.extend(memory_metrics());

    let checks = job_checks(&cfg, &jobs);
    let lost: u64 = jobs
        .iter()
        .map(|j| steps.saturating_sub(j.summary.version))
        .sum();
    let repeat = (cfg.epochs - 1) as f64 / cfg.epochs as f64;
    let inputs = Value::Obj(vec![
        ("loadgen.repeat_share".into(), Value::Num(repeat)),
        ("loadgen.adversarial_share".into(), Value::Num(0.0)),
        (
            "core.flag_share".into(),
            ledger
                .get("core.flag_share")
                .map_or(Value::Null, |m| Value::Num(m.value())),
        ),
        ("serve.batch_size_mean".into(), Value::Null),
        ("train.batch_size".into(), Value::Num(cfg.batch_size as f64)),
    ]);
    let detail = Value::Obj(vec![
        ("job_seed".into(), Value::Num(JOB_SEED as f64)),
        ("n".into(), Value::Num(cfg.n as f64)),
        ("epochs".into(), Value::Num(cfg.epochs as f64)),
        ("workers".into(), Value::Num(WORKERS as f64)),
        ("shards".into(), Value::Num(cfg.shards as f64)),
        ("jobs".into(), Value::Num(jobs.len() as f64)),
        (
            "train_s".into(),
            Value::Arr(jobs.iter().map(|j| Value::Num(j.train_s)).collect()),
        ),
        (
            "epoch_losses".into(),
            Value::Arr(
                jobs[0]
                    .summary
                    .epoch_losses
                    .iter()
                    .map(|&l| Value::Num(f64::from(l)))
                    .collect(),
            ),
        ),
    ]);
    Ok(Outcome {
        attempted: steps * jobs.len() as u64,
        failed: lost,
        checks,
        ledger,
        inputs,
        detail,
    })
}

/// The per-layer replay on the trained CIFAR network, served the way the
/// paper's CIFAR DCN would be: a detector fitted on the network's own
/// test logits (correct answers benign, mistakes flagged) and the CIFAR
/// corrector (r = 0.08, m = 50).
fn replay(seed: u64, cfg: &ServerConfig, net: &Network) -> Result<Vec<crate::record::Metric>> {
    let job = build_job(&cfg.task, cfg.n, cfg.seed)?;
    let test = job.test.images().unstack()?;
    let preds = net.predict(job.test.images())?;
    let logits = net.forward(job.test.images())?;
    let (mut benign, mut mistaken) = (Vec::new(), Vec::new());
    for (i, (&p, &y)) in preds.iter().zip(job.test.labels()).enumerate() {
        let row = logits.row(i)?;
        if p == y {
            benign.push(row);
        } else {
            mistaken.push(row);
        }
    }
    let mut rng = StdRng::seed_from_u64(stream(seed, 20));
    let detector =
        Detector::train_from_logits(&benign, &mistaken, &DetectorConfig::default(), &mut rng)?;
    let dcn = Dcn::new(net.clone(), detector, Corrector::cifar_default());
    let requests: Vec<BatchRequest> = test
        .iter()
        .enumerate()
        .map(|(i, x)| BatchRequest {
            budget: VoteBudget::unbounded(),
            ..BatchRequest::new(x.clone(), stream(seed, 21 + i as u64))
        })
        .collect();
    let train_n = 32.min(job.train.len());
    let train_x = Tensor::stack(&job.train.images().unstack()?[..train_n])?;
    ledger::replay(&ReplaySet {
        dcn: &dcn,
        requests: &requests,
        train_x: &train_x,
        train_y: &job.train.labels()[..train_n],
    })
}
