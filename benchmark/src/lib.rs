//! # dcn-benchmark
//!
//! The repository benchmark. It drives the unmodified program from
//! outside: an in-process `dcn_serve::Server` fed by an open-loop load
//! generator on one TCP connection, and `dcn_ps` BSP training through
//! `RunningServer::drive_local`. A separate traced run gives the
//! per-layer ledger. `README.md` beside this crate documents the
//! workloads, metrics and bounds; `BENCHMARK.json` at the repository root
//! declares them.

pub mod compare;
pub mod host;
pub mod ledger;
pub mod loadgen;
pub mod prepare;
pub mod record;
pub mod serve;
pub mod stats;
pub mod train;

use std::path::{Path, PathBuf};

use serde::Value;

use crate::host::Host;
use crate::record::{Catalogue, Ledger, Metric};

/// Error type of the benchmark harness.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// A derived, independent stream seed: stream `k` of run seed `seed`
/// (SplitMix64 finalizer, so neighbouring seeds share no streams).
pub fn stream(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh benign digits at 1000 rps.
    ServeBenign,
    /// 15% CW-L2 adversarials at 300 rps: the corrector's cost split.
    ServeAttack,
    /// `serve-attack` traffic with a 25-vote cap on every request.
    ServeBudget,
    /// BSP training of the CIFAR CNN on the parameter server.
    TrainCifar,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeBenign,
        Workload::ServeAttack,
        Workload::ServeBudget,
        Workload::TrainCifar,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeBenign => "serve-benign",
            Workload::ServeAttack => "serve-attack",
            Workload::ServeBudget => "serve-budget",
            Workload::TrainCifar => "train-cifar",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big a run is. [`Scale::standard`] is the benchmark; [`Scale::toy`]
/// is the smoke test's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Seconds of measured traffic or training per run.
    pub seconds: f64,
    /// Untimed warm-up before the measured serve phases.
    pub warmup_s: f64,
    /// Cold starts timed for `setup_s`, spread over the rounds.
    pub cold_starts: usize,
    /// Sizes of the serve workloads' prepare step.
    pub prepare: prepare::PrepareConfig,
    /// Training-set size of `train-cifar`.
    pub cifar_n: usize,
    /// Training epochs of `train-cifar`.
    pub cifar_epochs: usize,
}

impl Scale {
    /// The benchmark scale, measuring `seconds` per run.
    pub fn standard(seconds: f64) -> Scale {
        Scale {
            seconds,
            warmup_s: 2.0,
            cold_starts: 12,
            prepare: prepare::PrepareConfig::standard(),
            cifar_n: 2048,
            cifar_epochs: 3,
        }
    }

    /// A seconds-long version of every workload for `cargo test`.
    pub fn toy() -> Scale {
        Scale {
            seconds: 2.0,
            warmup_s: 0.2,
            cold_starts: 2,
            prepare: prepare::PrepareConfig {
                train_n: 600,
                heldout_n: 300,
                epochs: 2,
                pool: 8,
                benign_logits: 100,
            },
            cifar_n: 128,
            cifar_epochs: 1,
        }
    }
}

/// Where a run reads prepared artifacts from and writes its files to.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Output directory for `W.json` / `W.layers.json` and scratch files.
    pub out: PathBuf,
    /// Previously prepared serve artifacts to load instead of preparing.
    pub artifacts: Option<PathBuf>,
}

/// One named correctness check and whether it held.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Supporting numbers.
    pub detail: String,
}

impl Check {
    /// A check from its parts.
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        }
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("ok".into(), Value::Bool(self.ok)),
            ("detail".into(), Value::Str(self.detail.clone())),
        ])
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (requests sent, or training steps).
    pub attempted: u64,
    /// Operations that failed (missing replies, error replies, IO errors,
    /// lost training steps). A request admission control turns away with
    /// `Overloaded` is sent again, and fails only if it is never answered.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Every metric measured, catalogue or not.
    pub ledger: Ledger,
    /// Input properties a later claim can cite.
    pub inputs: Value,
    /// Workload-specific detail (phases, prepare report).
    pub detail: Value,
}

impl Outcome {
    /// Whether every check held and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// Runs one workload once: `traced = false` measures the end-to-end
/// metrics, `traced = true` the per-layer ledger.
///
/// # Errors
///
/// Set-up failures (the program could not be started or prepared); failed
/// requests and checks are reported in the [`Outcome`] instead.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    ctx: &RunCtx,
    traced: bool,
) -> Result<Outcome> {
    std::fs::create_dir_all(&ctx.out)?;
    match workload {
        Workload::TrainCifar => train::run(seed, scale, ctx, traced),
        serve => serve::run(serve, seed, scale, ctx, traced),
    }
}

/// The record file of one run: `W.json` (end to end) or `W.layers.json`.
pub fn record_path(out: &Path, workload: Workload, traced: bool) -> PathBuf {
    let suffix = if traced { "layers.json" } else { "json" };
    out.join(format!("{}.{suffix}", workload.name()))
}

/// Writes the run's full record and returns the catalogue metrics it
/// prints, in catalogue order.
///
/// # Errors
///
/// IO failures, or a catalogue metric the run did not measure with its
/// declared unit.
pub fn write_record(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    ctx: &RunCtx,
    traced: bool,
    outcome: &Outcome,
) -> Result<Vec<Metric>> {
    let catalogue = Catalogue::load()?;
    let printed = outcome.ledger.select(catalogue.printed(traced))?;
    let doc = Value::Obj(vec![
        ("workload".into(), Value::Str(workload.name().into())),
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(scale.seconds)),
        ("traced".into(), Value::Bool(traced)),
        ("host".into(), Host::detect().to_value()),
        ("correct".into(), Value::Bool(outcome.correct())),
        ("attempted".into(), Value::Num(outcome.attempted as f64)),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        (
            "checks".into(),
            Value::Arr(outcome.checks.iter().map(Check::to_value).collect()),
        ),
        ("input_properties".into(), outcome.inputs.clone()),
        ("metrics".into(), outcome.ledger.to_value()),
        ("detail".into(), outcome.detail.clone()),
    ]);
    std::fs::write(
        record_path(&ctx.out, workload, traced),
        serde_json::to_string_pretty(&doc)?,
    )?;
    Ok(printed)
}
