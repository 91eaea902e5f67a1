//! The serve workloads' shared artifacts: synth-MNIST data, the paper's
//! MNIST CNN, a pool of targeted CW-L2 adversarials, and the DCN built from
//! them. Benchmark work, timed and recorded but not gated.
//!
//! The artifacts come from [`MODEL_SEED`], not from the run's seed: every
//! run serves the same model and the run's seed draws the traffic. Models
//! built from different seeds differ in the detector's false-alarm rate
//! on benign digits (0.2% to 1.2% over seeds 1–10), and each false alarm
//! costs a 50-vote correction, which moved serve-benign's capacity by 19%
//! between seeds.

use std::path::Path;
use std::time::Instant;

use dcn_attacks::{CwL2, TargetedAttack};
use dcn_core::{models, Corrector, Dcn, Detector, DetectorConfig, VoteBudget};
use dcn_data::{synth_mnist, SynthConfig};
use dcn_tensor::{par, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use crate::{stream, Result};

/// The seed every artifact derives from.
pub const MODEL_SEED: u64 = 7;

/// Sizes of the prepare step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrepareConfig {
    /// Training digits for the base network.
    pub train_n: usize,
    /// Held-out digits the adversarials are made from.
    pub heldout_n: usize,
    /// Base-network training epochs.
    pub epochs: usize,
    /// Adversarials made in total; the first third trains the detector and
    /// the rest is the traffic pool.
    pub pool: usize,
    /// Benign training logits the detector sees.
    pub benign_logits: usize,
}

impl PrepareConfig {
    /// The standard sizes: 2000 + 2000 digits, 3 epochs, 96 adversarials.
    pub fn standard() -> PrepareConfig {
        PrepareConfig {
            train_n: 2000,
            heldout_n: 2000,
            epochs: 3,
            pool: 96,
            benign_logits: 200,
        }
    }

    /// Adversarials reserved for detector training.
    pub fn detector_share(&self) -> usize {
        (self.pool / 3).max(1)
    }
}

/// One traffic adversarial with the label of the digit it was made from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adversarial {
    /// The perturbed input.
    pub x: Tensor,
    /// The clean digit's label (the answer a correct defense returns).
    pub label: usize,
}

/// What the prepare step built and how well it works.
#[derive(Debug, Clone, PartialEq)]
pub struct Prepared {
    /// The assembled defense.
    pub dcn: Dcn,
    /// Traffic adversarials (never seen by the detector).
    pub pool: Vec<Adversarial>,
    /// Quality and cost facts, recorded in every output file.
    pub report: Value,
}

/// The CW-L2 settings of the pool: κ 0, one binary-search step of 100
/// iterations from c₀ = 1.
fn attack() -> CwL2 {
    CwL2 {
        binary_search_steps: 1,
        max_iterations: 100,
        initial_c: 1.0,
        ..CwL2::new(0.0)
    }
}

/// Builds the artifacts from [`MODEL_SEED`].
///
/// # Errors
///
/// Training, attack or detector failures, or a pool the attack could not
/// fill.
pub fn prepare(cfg: &PrepareConfig) -> Result<Prepared> {
    let seed = MODEL_SEED;
    let started = Instant::now();
    let mut data_rng = StdRng::seed_from_u64(stream(seed, 1));
    let train = synth_mnist(cfg.train_n, &SynthConfig::default(), &mut data_rng);
    let heldout = synth_mnist(cfg.heldout_n, &SynthConfig::default(), &mut data_rng);

    let t = Instant::now();
    let mut net_rng = StdRng::seed_from_u64(stream(seed, 2));
    let net = models::mnist_cnn(&mut net_rng)?;
    let net = models::train_classifier(net, &train, cfg.epochs, 0.002, &mut net_rng)?;
    let train_s = t.elapsed().as_secs_f64();
    let heldout_accuracy = models::accuracy_on(&net, &heldout)?;

    // Targeted CW-L2 on correctly classified held-out digits, in chunks
    // across the thread budget. Targets are drawn per candidate in order,
    // so the pool does not depend on the thread count.
    let t = Instant::now();
    let xs = heldout.images().unstack()?;
    let preds = net.predict(heldout.images())?;
    let mut target_rng = StdRng::seed_from_u64(stream(seed, 3));
    let candidates: Vec<(usize, usize)> = (0..xs.len())
        .filter(|&i| preds[i] == heldout.labels()[i])
        .map(|i| {
            let label = heldout.labels()[i];
            (i, (label + 1 + target_rng.gen_range(0..9usize)) % 10)
        })
        .collect();
    let cw = attack();
    let mut made: Vec<Adversarial> = Vec::with_capacity(cfg.pool);
    let mut attempts = 0usize;
    for chunk in candidates.chunks(8) {
        if made.len() >= cfg.pool {
            break;
        }
        attempts += chunk.len();
        let results = par::par_map(chunk, 1, |_, &(i, target)| {
            cw.run_targeted(&net, &xs[i], target)
        });
        for ((i, _), r) in chunk.iter().zip(results) {
            if let Some(x) = r? {
                if made.len() < cfg.pool {
                    made.push(Adversarial {
                        x,
                        label: heldout.labels()[*i],
                    });
                }
            }
        }
    }
    if made.len() < cfg.pool {
        return Err(format!("CW-L2 made {} of {} adversarials", made.len(), cfg.pool).into());
    }
    let cw_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let det_n = cfg.detector_share();
    let benign_n = cfg.benign_logits.min(train.len());
    let benign_batch = Tensor::stack(&train.images().unstack()?[..benign_n])?;
    let benign: Vec<Tensor> = rows(&net.forward(&benign_batch)?)?;
    let adversarial: Vec<Tensor> = made[..det_n]
        .iter()
        .map(|a| net.logits_one(&a.x))
        .collect::<std::result::Result<_, _>>()?;
    let mut det_rng = StdRng::seed_from_u64(stream(seed, 4));
    let detector = Detector::train_from_logits(
        &benign,
        &adversarial,
        &DetectorConfig::default(),
        &mut det_rng,
    )?;
    let detector_s = t.elapsed().as_secs_f64();
    let pool = made.split_off(det_n);
    let dcn = Dcn::new(net, detector, Corrector::mnist_default());

    // Sanity numbers: detector hit rate on unseen adversarials, false
    // alarms on benign held-out digits, and the share of adversarials the
    // DCN answers with the clean label.
    let t = Instant::now();
    let pool_logits: Vec<Tensor> = pool
        .iter()
        .map(|a| dcn.base().logits_one(&a.x))
        .collect::<std::result::Result<_, _>>()?;
    let flagged = count(&dcn.detector().flag_batch(&pool_logits)?);
    let benign_probe = 500.min(xs.len());
    let probe_logits = rows(&dcn.base().forward(&Tensor::stack(&xs[..benign_probe])?)?)?;
    let false_alarms = count(&dcn.detector().flag_batch(&probe_logits)?);
    let mut recovered = 0usize;
    for (i, a) in pool.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(stream(seed, 5) ^ i as u64);
        let report = dcn.try_classify_bounded(&a.x, &mut rng, &VoteBudget::unbounded())?;
        recovered += usize::from(report.label == a.label);
    }
    let checks_s = t.elapsed().as_secs_f64();

    let num = |v: f64| Value::Num(v);
    let report = Value::Obj(vec![
        ("heldout_accuracy".into(), num(f64::from(heldout_accuracy))),
        ("cw_attempts".into(), num(attempts as f64)),
        ("cw_successes".into(), num((det_n + pool.len()) as f64)),
        ("detector_adversarials".into(), num(det_n as f64)),
        ("pool_size".into(), num(pool.len() as f64)),
        ("pool_flagged".into(), num(flagged as f64)),
        ("benign_probe".into(), num(benign_probe as f64)),
        ("benign_flagged".into(), num(false_alarms as f64)),
        ("pool_recovered".into(), num(recovered as f64)),
        ("train_s".into(), num(train_s)),
        ("cw_s".into(), num(cw_s)),
        ("detector_s".into(), num(detector_s)),
        ("checks_s".into(), num(checks_s)),
        ("total_s".into(), num(started.elapsed().as_secs_f64())),
    ]);
    Ok(Prepared { dcn, pool, report })
}

fn rows(batch: &Tensor) -> Result<Vec<Tensor>> {
    let n = batch.shape().first().copied().unwrap_or(0);
    Ok((0..n)
        .map(|i| batch.row(i))
        .collect::<std::result::Result<_, _>>()?)
}

fn count(flags: &[bool]) -> usize {
    flags.iter().filter(|&&f| f).count()
}

const DCN_FILE: &str = "dcn.json";
const POOL_FILE: &str = "pool.json";
const REPORT_FILE: &str = "prepare.json";

impl Prepared {
    /// Writes the artifacts into `dir` (`dcn.json`, `pool.json`,
    /// `prepare.json`).
    ///
    /// # Errors
    ///
    /// IO or encoding failures.
    pub fn save(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(DCN_FILE), serde_json::to_string(&self.dcn)?)?;
        std::fs::write(dir.join(POOL_FILE), serde_json::to_string(&self.pool)?)?;
        std::fs::write(
            dir.join(REPORT_FILE),
            serde_json::to_string_pretty(&self.report)?,
        )?;
        Ok(())
    }

    /// Reads artifacts written by [`Prepared::save`].
    ///
    /// # Errors
    ///
    /// IO or decoding failures.
    pub fn load(dir: &Path) -> Result<Prepared> {
        Ok(Prepared {
            dcn: load_dcn(&dir.join(DCN_FILE))?,
            pool: serde_json::from_str(&std::fs::read_to_string(dir.join(POOL_FILE))?)?,
            report: serde_json::parse(&std::fs::read_to_string(dir.join(REPORT_FILE))?)?,
        })
    }
}

/// Loads a serialized DCN — the work every cold start repeats.
///
/// # Errors
///
/// IO or decoding failures.
pub fn load_dcn(path: &Path) -> Result<Dcn> {
    Ok(serde_json::from_str(&std::fs::read_to_string(path)?)?)
}

/// The artifact path of the serialized DCN inside `dir`.
pub fn dcn_path(dir: &Path) -> std::path::PathBuf {
    dir.join(DCN_FILE)
}
