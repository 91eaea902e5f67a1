//! `compare A B`: parent against change, judged by each metric's bound.
//!
//! Both sides run ten pairs of every workload, each pair on its own seed
//! and measuring `run_seconds` from `BENCHMARK.json`, alternating which
//! side goes first. Per workload and end-to-end metric:
//!
//! * **gain** — the change wins at least nine tenths of the pairs (ties
//!   count for neither) and the medians differ by more than the parent's
//!   quartile distance;
//! * **regression** — the change's median is worse than the parent's by
//!   more than the metric's bound from `BENCHMARK.json`;
//! * **unresolved** — the run-to-run spread of either side exceeds the
//!   bound, so neither a regression nor its absence can be shown, unless
//!   every run of the change reads better than every run of the parent;
//! * **no regression** — otherwise.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::record::{Better, Catalogue, MetricSpec};
use crate::stats::{median, quartiles, spread};
use crate::Result;

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Shown better by the pairing rule.
    Gain,
    /// Not worse by more than the bound.
    NoRegression,
    /// Worse by more than the bound.
    Regression,
    /// Spread wider than the bound; nothing can be claimed.
    Unresolved,
}

impl Status {
    /// The status as printed.
    pub fn label(self) -> &'static str {
        match self {
            Status::Gain => "gain",
            Status::NoRegression => "no regression",
            Status::Regression => "REGRESSION",
            Status::Unresolved => "unresolved",
        }
    }
}

/// One judged metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    /// Metric name.
    pub metric: String,
    /// Parent median.
    pub parent_median: f64,
    /// Change median.
    pub change_median: f64,
    /// Parent quartiles.
    pub parent_quartiles: (f64, f64),
    /// Change quartiles.
    pub change_quartiles: (f64, f64),
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// How much worse the change's median is, as a share of the parent's
    /// (negative when better).
    pub worse_by: f64,
    /// The verdict.
    pub status: Status,
}

fn better(spec: &MetricSpec, change: f64, parent: f64) -> bool {
    match spec.better {
        Better::Lower => change < parent,
        Better::Higher => change > parent,
    }
}

/// Pairs run per workload: nine wins out of ten make a gain.
pub const PAIRS: usize = 10;

/// Judges one metric from paired runs (`parent[i]` and `change[i]` used
/// the same seed). Fewer than [`PAIRS`] pairs never make a gain.
pub fn judge(spec: &MetricSpec, parent: &[f64], change: &[f64]) -> Judgement {
    let bound = spec.bound.unwrap_or(0.0);
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| better(spec, change[i], parent[i]))
        .count();
    let (pm, cm) = (median(parent), median(change));
    let (pq, cq) = (quartiles(parent), quartiles(change));
    let worse_by = match spec.better {
        Better::Lower => (cm - pm) / pm.abs(),
        Better::Higher => (pm - cm) / pm.abs(),
    };
    let worse_by = if pm == cm { 0.0 } else { worse_by };
    let every_change_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better(spec, c, p)));
    let gain =
        pairs >= PAIRS && wins * 10 >= pairs * 9 && (cm - pm).abs() > pq.1 - pq.0 && worse_by < 0.0;
    let status = if gain {
        Status::Gain
    } else if spread(parent).max(spread(change)) > bound && !every_change_better {
        Status::Unresolved
    } else if worse_by > bound {
        Status::Regression
    } else {
        Status::NoRegression
    };
    Judgement {
        metric: spec.name.clone(),
        parent_median: pm,
        change_median: cm,
        parent_quartiles: pq,
        change_quartiles: cq,
        wins,
        pairs,
        worse_by,
        status,
    }
}

/// Builds one side's benchmark into its own target directory, with that
/// side's release profile as `run.sh` does, and returns the binary.
fn build(root: &Path) -> Result<PathBuf> {
    let manifest = root.join("benchmark").join("Cargo.toml");
    let target = root.join("benchmark").join("target");
    let status = Command::new("cargo")
        .arg("--config")
        .arg(root.join("Cargo.toml"))
        .args(["build", "--release", "--offline", "--quiet"])
        .arg("--manifest-path")
        .arg(&manifest)
        .env("CARGO_TARGET_DIR", &target)
        .status()?;
    if !status.success() {
        return Err(format!("building {} failed", manifest.display()).into());
    }
    Ok(target.join("release").join("dcn-benchmark"))
}

/// One run of one side: the value of every end-to-end metric, in
/// catalogue order. A run that is not correct or misses a metric is an
/// error: its numbers cannot be compared.
fn run_side(
    root: &Path,
    bin: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    specs: &[MetricSpec],
) -> Result<Vec<f64>> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .current_dir(root)
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = serde_json::parse(last).map_err(|e| format!("{}: {e}", bin.display()))?;
    if !matches!(doc.get_field("correct"), Some(serde::Value::Bool(true))) {
        return Err(format!("{} {workload} seed {seed}: run not correct", root.display()).into());
    }
    specs
        .iter()
        .map(|s| {
            doc.get_field("metrics")
                .and_then(|m| m.get_field(&s.name))
                .and_then(|m| m.get_field("value"))
                .and_then(serde::Value::as_f64)
                .ok_or_else(|| format!("{workload}: {} missing", s.name).into())
        })
        .collect()
}

/// Runs [`PAIRS`] alternating pairs of the parent checkout `a` and the
/// change checkout `b` on every workload and prints one row per workload
/// and metric. Returns whether any metric regressed.
///
/// # Errors
///
/// Build failures, or a run that failed its checks.
pub fn compare(a: &Path, b: &Path) -> Result<bool> {
    let catalogue = Catalogue::load()?;
    let specs = &catalogue.end_to_end;
    let seconds = catalogue.run_seconds;
    let (bin_a, bin_b) = (build(a)?, build(b)?);
    let mut regressed = false;
    println!("workload metric parent[q1,q3] change[q1,q3] worse bound wins status");
    for workload in &catalogue.workloads {
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        for i in 0..PAIRS {
            let seed = 1000 + i as u64;
            let (first, second) = if i % 2 == 0 {
                ((a, &bin_a), (b, &bin_b))
            } else {
                ((b, &bin_b), (a, &bin_a))
            };
            let r1 = run_side(first.0, first.1, workload, seed, seconds, specs)?;
            let r2 = run_side(second.0, second.1, workload, seed, seconds, specs)?;
            let (ra, rb) = if i % 2 == 0 { (r1, r2) } else { (r2, r1) };
            pa.push(ra);
            pb.push(rb);
            eprintln!("{workload}: pair {} of {PAIRS} done", i + 1);
        }
        for (m, spec) in specs.iter().enumerate() {
            let parent: Vec<f64> = pa.iter().map(|r| r[m]).collect();
            let change: Vec<f64> = pb.iter().map(|r| r[m]).collect();
            let j = judge(spec, &parent, &change);
            regressed |= j.status == Status::Regression;
            println!(
                "{workload} {} {}[{},{}] {}[{},{}] {} {} {}/{} {}",
                spec.name,
                j.parent_median,
                j.parent_quartiles.0,
                j.parent_quartiles.1,
                j.change_median,
                j.change_quartiles.0,
                j.change_quartiles.1,
                j.worse_by,
                spec.bound.unwrap_or(0.0),
                j.wins,
                j.pairs,
                j.status.label()
            );
        }
    }
    Ok(regressed)
}
