//! `dcn` — command-line workflow for the DCN reproduction.
//!
//! ```text
//! dcn train    --task mnist|cifar [--n 2000] [--epochs 8] [--seed 42] --out model.json
//!              [--checkpoint ckpt.json]
//! dcn eval     --model model.json --task mnist [--n 500] [--seed 42]
//! dcn attack   --model model.json --task mnist --attack cw-l2 [--seeds 5]
//!              [--kappa 0] [--eps 0.3] [--out pool.json] [--seed 42]
//! dcn build    --model model.json --task mnist [--det-seeds 40] --out dcn.json
//! dcn defend   --dcn dcn.json --pool pool.json [--seed 42]
//!              [--deadline-ms D] [--quorum Q] [--max-votes V]
//! dcn info     --model model.json | --dcn dcn.json
//! ```
//!
//! Every artifact is plain JSON, interchangeable with the library's
//! `serde` representations, so models trained here load in user code and
//! vice versa.
//!
//! Each command rejects a flag it does not read (exit 2) before it loads
//! or trains a model. Failures exit with a class-specific code from the
//! workspace table, [`dcn_core::EXIT_CODES`], which `dcn help` prints.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

use dcn_attacks::{
    evaluate_targeted, AdversarialExample, CwL0, CwL2, CwLinf, DeepFool, Fgsm, Igsm, Jsma,
    Lbfgs, TargetedAttack,
};
use dcn_core::{
    attack_success_against, exit_code_legend, models, Corrector, Dcn, DcnError, Detector,
    DetectorConfig, StandardDefense, VoteBudget,
};
use dcn_data::{synth_cifar, synth_mnist, Dataset, SynthConfig};
use dcn_fault::FaultPlan;
use dcn_nn::{Adam, Network, TrainConfig, Trainer};
use dcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "usage: dcn <train|eval|attack|build|defend|info> [flags]
run `dcn help` for the full flag reference";

/// Observability flags every command reads.
const OBS_FLAGS: &[&str] = &["obs", "obs-json"];

/// Fault-injection flags every command reads (the `DCN_FAULT_*` knobs).
const FAULT_FLAGS: &[&str] = &[
    "fault-seed",
    "fault-io",
    "fault-nan",
    "fault-latency-ns",
    "fault-budget",
    "fault-short-write",
    "fault-abort-epochs",
    "fault-connect",
    "fault-reset",
    "fault-short-read",
];

type Command = fn(&HashMap<String, String>) -> Result<(), DcnError>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = run(cmd, &args[1..]);
    match result {
        Ok(()) => {
            if dcn_obs::enabled() {
                let run = format!("cli_{cmd}");
                eprintln!("{}", dcn_obs::snapshot(&run).render());
                if let Some(path) = dcn_obs::maybe_export(&run) {
                    eprintln!("obs snapshot written to {}", path.display());
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            // exit_code is 1..=7 by construction (6 and 7 only reachable via
            // the serving/distributed planes); the clamp is belt and braces
            // against future variants.
            ExitCode::from(e.exit_code().clamp(1, 255) as u8)
        }
    }
}

fn run(cmd: &str, rest: &[String]) -> Result<(), DcnError> {
    let (known, command) = command(cmd)?;
    let flags = parse_flags(rest, known)?;
    apply_obs_flags(&flags)?;
    apply_fault_flags(&flags)?;
    command(&flags)
}

/// A command's entry point and the flags it reads on top of [`OBS_FLAGS`]
/// and [`FAULT_FLAGS`].
fn command(cmd: &str) -> Result<(&'static [&'static str], Command), DcnError> {
    Ok(match cmd {
        "train" => (
            &["task", "n", "epochs", "seed", "out", "checkpoint"],
            cmd_train,
        ),
        "eval" => (&["task", "n", "seed", "model"], cmd_eval),
        "attack" => (
            &[
                "task", "model", "attack", "seeds", "kappa", "eps", "seed", "out",
            ],
            cmd_attack,
        ),
        "build" => (&["task", "model", "det-seeds", "seed", "out"], cmd_build),
        "defend" => (
            &["dcn", "pool", "seed", "deadline-ms", "max-votes", "quorum"],
            cmd_defend,
        ),
        "info" => (&["model", "dcn"], cmd_info),
        "help" | "--help" | "-h" => (&[], cmd_help),
        other => {
            return Err(DcnError::Config(format!(
                "unknown command {other:?}\n{USAGE}"
            )))
        }
    })
}

fn cmd_help(_flags: &HashMap<String, String>) -> Result<(), DcnError> {
    println!("{}", long_help());
    Ok(())
}

/// Applies the observability flags shared by every command: `--obs 1|0`
/// toggles metric collection (same as `DCN_OBS=1`), `--obs-json DIR`
/// enables collection and directs the snapshot export to `DIR`.
fn apply_obs_flags(flags: &HashMap<String, String>) -> Result<(), DcnError> {
    if let Some(dir) = flags.get("obs-json") {
        std::env::set_var("DCN_OBS_JSON", dir);
        dcn_obs::set_enabled(true);
    }
    if let Some(v) = flags.get("obs") {
        match v.as_str() {
            "1" | "true" | "on" => dcn_obs::set_enabled(true),
            "0" | "false" | "off" => dcn_obs::set_enabled(false),
            other => {
                return Err(DcnError::Config(format!(
                    "--obs expects 1 or 0, got {other:?}"
                )))
            }
        }
    }
    Ok(())
}

/// Installs a fault-injection plan from the `--fault-*` flags (same knobs
/// as the `DCN_FAULT_*` environment variables). When none are given the
/// ambient environment configuration, if any, stays in effect.
fn apply_fault_flags(flags: &HashMap<String, String>) -> Result<(), DcnError> {
    if !FAULT_FLAGS.iter().any(|k| flags.contains_key(*k)) {
        return Ok(());
    }
    let plan = FaultPlan {
        seed: parse_num(flag_or(flags, "fault-seed", "0"), "--fault-seed")?,
        io_error_rate: parse_num(flag_or(flags, "fault-io", "0"), "--fault-io")?,
        nan_rate: parse_num(flag_or(flags, "fault-nan", "0"), "--fault-nan")?,
        latency_ns: parse_num(flag_or(flags, "fault-latency-ns", "0"), "--fault-latency-ns")?,
        vote_budget: flags
            .get("fault-budget")
            .map(|v| parse_num(v, "--fault-budget"))
            .transpose()?,
        short_write: flags
            .get("fault-short-write")
            .map(|v| parse_num(v, "--fault-short-write"))
            .transpose()?,
        abort_after_epochs: flags
            .get("fault-abort-epochs")
            .map(|v| parse_num(v, "--fault-abort-epochs"))
            .transpose()?,
        connect_refused_rate: parse_num(flag_or(flags, "fault-connect", "0"), "--fault-connect")?,
        reset_rate: parse_num(flag_or(flags, "fault-reset", "0"), "--fault-reset")?,
        short_read: flags
            .get("fault-short-read")
            .map(|v| parse_num(v, "--fault-short-read"))
            .transpose()?,
    };
    for (rate, name) in [
        (plan.io_error_rate, "--fault-io"),
        (plan.nan_rate, "--fault-nan"),
        (plan.connect_refused_rate, "--fault-connect"),
        (plan.reset_rate, "--fault-reset"),
    ] {
        if !(0.0..=1.0).contains(&rate) {
            return Err(DcnError::Config(format!(
                "{name} expects a probability in [0, 1], got {rate}"
            )));
        }
    }
    dcn_fault::set_plan(Some(plan));
    Ok(())
}

fn long_help() -> String {
    format!(
        "dcn — train, attack and defend image classifiers (DCN reproduction)

commands:
  train   train a CNN on a synthetic task and save it as JSON
  eval    report a model's accuracy on a fresh test set
  attack  generate targeted adversarial examples against a model
  build   assemble a full DCN (detector + corrector) around a model
  defend  replay an adversarial pool against a saved DCN
  info    describe a saved model or DCN

common flags (a command rejects any flag it does not read, exit 2):
  --task mnist|cifar   synthetic benchmark (default mnist)
  --seed N             RNG seed (default 42)
  --out PATH           output artifact path

observability (any command; also via DCN_OBS=1 / DCN_OBS_JSON=1 env vars):
  --obs 1|0            collect pipeline metrics and print a summary table
  --obs-json DIR       also export the snapshot as DIR/OBS_cli_<cmd>.json

fault injection (any command; same knobs as the DCN_FAULT_* env vars):
  --fault-seed N         decision-stream seed (default 0)
  --fault-io P           probability of a synthetic IO error per IO site
  --fault-nan P          probability of poisoning a logit with NaN
  --fault-latency-ns N   virtual ns per corrector vote (deterministic clock)
  --fault-budget V       forced cap on corrector votes per query
  --fault-short-write B  tear checkpoint writes after B bytes
  --fault-abort-epochs E abort resumable training after E epochs

train:  --n EXAMPLES (2000)  --epochs E (8)
        --checkpoint PATH    checkpoint each epoch; rerun to resume
eval:   --model PATH  --n EXAMPLES (500)
attack: --model PATH  --attack l-bfgs|fgsm|igsm|jsma|deepfool|cw-l0|cw-l2|cw-linf
        --seeds S (5)  --kappa K (0)  --eps E (0.3)
build:  --model PATH  --det-seeds S (40)
defend: --dcn PATH  --pool PATH
        --deadline-ms D      per-query corrector deadline (degrades, not fails)
        --max-votes V        per-query cap on corrector votes
        --quorum Q (1)       min votes before falling back to the base network

{}",
        exit_code_legend()
    )
}

/// Parses `--key value` pairs, rejecting any flag outside `known` (the
/// command's own flags), [`OBS_FLAGS`] and [`FAULT_FLAGS`].
fn parse_flags(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, DcnError> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            return Err(DcnError::Config(format!("expected --flag, got {k:?}")));
        };
        if ![known, OBS_FLAGS, FAULT_FLAGS]
            .iter()
            .any(|list| list.contains(&key))
        {
            return Err(DcnError::Config(format!(
                "unknown flag --{key} for this command; run `dcn help`"
            )));
        }
        let Some(v) = it.next() else {
            return Err(DcnError::Config(format!("flag --{key} needs a value")));
        };
        flags.insert(key.to_string(), v.clone());
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, DcnError> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| DcnError::Config(format!("missing required flag --{key}")))
}

fn flag_or<'a>(flags: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or(default)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, DcnError> {
    s.parse()
        .map_err(|_| DcnError::Config(format!("cannot parse {what} from {s:?}")))
}

fn dataset(task: &str, n: usize, rng: &mut StdRng) -> Result<Dataset, DcnError> {
    match task {
        "mnist" => Ok(synth_mnist(n, &SynthConfig::default(), rng)),
        "cifar" => Ok(synth_cifar(n, &SynthConfig::default(), rng)),
        other => Err(DcnError::Config(format!(
            "unknown task {other:?} (mnist or cifar)"
        ))),
    }
}

/// Reads a JSON artifact with bounded retries on transient IO failures.
fn read_artifact(path: &str, site: &'static str) -> Result<String, DcnError> {
    dcn_fault::read_with_retry(path, &dcn_fault::RetryPolicy::default(), site)
        .map_err(|e| DcnError::Io {
            site: site.to_string(),
            kind: e.kind(),
            msg: format!("{path}: {e}"),
        })
}

/// Writes a JSON artifact atomically (temp file + rename): a crash mid-write
/// never leaves a torn artifact at `path`.
fn write_artifact(path: &str, json: &str, site: &'static str) -> Result<(), DcnError> {
    dcn_fault::write_atomic(path, json.as_bytes(), site).map_err(|e| DcnError::Io {
        site: site.to_string(),
        kind: e.kind(),
        msg: format!("{path}: {e}"),
    })
}

/// A machine-written artifact that fails to parse is corrupt, not a config
/// problem: the bytes on disk no longer mean what `save` wrote.
fn parse_artifact<T: serde::Deserialize>(json: &str, what: &str) -> Result<T, DcnError> {
    serde_json::from_str(json).map_err(|e| DcnError::Corrupt(format!("{what}: {e}")))
}

fn encode_artifact<T: serde::Serialize>(value: &T, what: &str) -> Result<String, DcnError> {
    serde_json::to_string(value).map_err(|e| DcnError::Corrupt(format!("encoding {what}: {e}")))
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), DcnError> {
    let task = flag_or(flags, "task", "mnist");
    let n: usize = parse_num(flag_or(flags, "n", "2000"), "--n")?;
    let epochs: usize = parse_num(flag_or(flags, "epochs", "8"), "--epochs")?;
    let seed: u64 = parse_num(flag_or(flags, "seed", "42"), "--seed")?;
    let out = flag(flags, "out")?;
    let mut rng = StdRng::seed_from_u64(seed);
    let train = dataset(task, n, &mut rng)?;
    let test = dataset(task, n / 4 + 50, &mut rng)?;
    eprintln!("training {task} CNN on {n} examples, {epochs} epochs…");
    let fresh = match task {
        "mnist" => models::mnist_cnn(&mut rng),
        _ => models::cifar_cnn(&mut rng),
    }?;
    let net = if let Some(ckpt) = flags.get("checkpoint") {
        // Resumable path: checkpoint after every epoch; rerunning the same
        // command continues from the last completed epoch.
        let mut net = fresh;
        let mut trainer = Trainer::new(TrainConfig {
            epochs,
            batch_size: 32,
            ..Default::default()
        });
        trainer.fit_resumable(
            &mut net,
            train.images(),
            train.labels(),
            &mut Adam::new(0.002),
            seed,
            ckpt,
        )?;
        net
    } else {
        models::train_classifier(fresh, &train, epochs, 0.002, &mut rng)?
    };
    let acc = models::accuracy_on(&net, &test)?;
    net.save(out)?;
    println!("saved {out}; held-out accuracy {:.2}%", acc * 100.0);
    Ok(())
}

fn cmd_eval(flags: &HashMap<String, String>) -> Result<(), DcnError> {
    let task = flag_or(flags, "task", "mnist");
    let n: usize = parse_num(flag_or(flags, "n", "500"), "--n")?;
    let seed: u64 = parse_num(flag_or(flags, "seed", "42"), "--seed")?;
    let net = Network::load(flag(flags, "model")?)?;
    // Offset the stream so eval data differs from the training default.
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let test = dataset(task, n, &mut rng)?;
    let acc = models::accuracy_on(&net, &test)?;
    println!("accuracy on {n} fresh {task} examples: {:.2}%", acc * 100.0);
    Ok(())
}

fn make_attack(name: &str, kappa: f32, eps: f32) -> Result<Box<dyn TargetedAttack>, DcnError> {
    Ok(match name {
        "l-bfgs" => Box::new(Lbfgs::new()),
        "fgsm" => Box::new(Fgsm::new(eps)),
        "igsm" => Box::new(Igsm::with_epsilon(eps)),
        "jsma" => Box::new(Jsma::default()),
        "cw-l0" => Box::new(CwL0::new(kappa)),
        "cw-l2" => Box::new(CwL2::new(kappa)),
        "cw-linf" => Box::new(CwLinf::new(kappa)),
        other => return Err(DcnError::Config(format!("unknown attack {other:?}"))),
    })
}

fn cmd_attack(flags: &HashMap<String, String>) -> Result<(), DcnError> {
    let task = flag_or(flags, "task", "mnist");
    let seeds_n: usize = parse_num(flag_or(flags, "seeds", "5"), "--seeds")?;
    let kappa: f32 = parse_num(flag_or(flags, "kappa", "0"), "--kappa")?;
    let eps: f32 = parse_num(flag_or(flags, "eps", "0.3"), "--eps")?;
    let seed: u64 = parse_num(flag_or(flags, "seed", "42"), "--seed")?;
    let attack_name = flag_or(flags, "attack", "cw-l2");
    let net = Network::load(flag(flags, "model")?)?;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
    let test = dataset(task, seeds_n * 3 + 30, &mut rng)?;
    let seeds: Vec<Tensor> = (0..test.len())
        .filter_map(|i| {
            let x = test.example(i).ok()?;
            (net.predict_one(&x).ok()? == test.labels()[i]).then_some(x)
        })
        .take(seeds_n)
        .collect();
    if seeds.len() < seeds_n {
        return Err(DcnError::Config(format!(
            "model only classifies {} of the requested {seeds_n} seeds correctly",
            seeds.len()
        )));
    }
    eprintln!("running {attack_name} on {seeds_n} seeds × all targets…");
    let (stats, pool) = if attack_name == "deepfool" {
        dcn_attacks::evaluate_native_untargeted(&DeepFool::default(), &net, &seeds)?
    } else {
        let attack = make_attack(attack_name, kappa, eps)?;
        evaluate_targeted(attack.as_ref(), &net, &seeds)?
    };
    println!(
        "{}: {}/{} succeeded ({:.1}%), mean L0 {:.1} px, L2 {:.3}, Linf {:.3}",
        stats.attack,
        stats.successes,
        stats.attempts,
        stats.success_rate() * 100.0,
        stats.mean_l0,
        stats.mean_l2,
        stats.mean_linf
    );
    if let Some(out) = flags.get("out") {
        write_artifact(out, &encode_artifact(&pool, "pool")?, "cli.pool.write")?;
        println!("wrote {} adversarial examples to {out}", pool.len());
    }
    Ok(())
}

fn cmd_build(flags: &HashMap<String, String>) -> Result<(), DcnError> {
    let task = flag_or(flags, "task", "mnist");
    let det_seeds: usize = parse_num(flag_or(flags, "det-seeds", "40"), "--det-seeds")?;
    let seed: u64 = parse_num(flag_or(flags, "seed", "42"), "--seed")?;
    let out = flag(flags, "out")?;
    let net = Network::load(flag(flags, "model")?)?;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(3));
    let data = dataset(task, det_seeds + 20, &mut rng)?;
    let seeds: Vec<Tensor> = (0..det_seeds)
        .map(|i| data.example(i))
        .collect::<Result<_, _>>()?;
    eprintln!("training the detector against CW-L2 on {det_seeds} seeds (slow)…");
    let detector = Detector::train_against(
        &net,
        &seeds,
        &CwL2::new(0.0),
        &DetectorConfig::default(),
        &mut rng,
    )?;
    let corrector = match task {
        "mnist" => Corrector::mnist_default(),
        _ => Corrector::cifar_default(),
    };
    let dcn = Dcn::new(net, detector, corrector);
    write_artifact(out, &encode_artifact(&dcn, "dcn")?, "cli.dcn.write")?;
    println!(
        "saved DCN to {out} (corrector r = {}, m = {})",
        dcn.corrector().radius(),
        dcn.corrector().samples()
    );
    Ok(())
}

/// Builds the per-query corrector budget from `--deadline-ms`, `--max-votes`
/// and `--quorum`. Returns `None` when no bound is requested, keeping the
/// legacy (bitwise-identical) evaluation path.
fn vote_budget(flags: &HashMap<String, String>) -> Result<Option<VoteBudget>, DcnError> {
    let deadline_ms: Option<u64> = flags
        .get("deadline-ms")
        .map(|v| parse_num(v, "--deadline-ms"))
        .transpose()?;
    let max_votes: Option<usize> = flags
        .get("max-votes")
        .map(|v| parse_num(v, "--max-votes"))
        .transpose()?;
    let quorum: Option<usize> = flags
        .get("quorum")
        .map(|v| parse_num(v, "--quorum"))
        .transpose()?;
    if deadline_ms.is_none() && max_votes.is_none() && quorum.is_none() {
        return Ok(None);
    }
    Ok(Some(VoteBudget {
        max_votes,
        deadline: deadline_ms.map(Duration::from_millis),
        min_quorum: quorum.unwrap_or(1).max(1),
    }))
}

fn cmd_defend(flags: &HashMap<String, String>) -> Result<(), DcnError> {
    let seed: u64 = parse_num(flag_or(flags, "seed", "42"), "--seed")?;
    let dcn: Dcn = parse_artifact(&read_artifact(flag(flags, "dcn")?, "cli.dcn.read")?, "dcn")?;
    let pool: Vec<AdversarialExample> = parse_artifact(
        &read_artifact(flag(flags, "pool")?, "cli.pool.read")?,
        "pool",
    )?;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(4));
    let standard = StandardDefense::new(dcn.base().clone());
    let s_std = attack_success_against(&standard, &pool, &mut rng)?;
    let (s_dcn, degraded) = match vote_budget(flags)? {
        Some(budget) => {
            let mut successes = 0usize;
            let mut degraded = 0usize;
            for ex in &pool {
                let report = dcn.try_classify_bounded(&ex.adversarial, &mut rng, &budget)?;
                if report.label != ex.original_label {
                    successes += 1;
                }
                if report.degraded {
                    degraded += 1;
                }
            }
            let rate = if pool.is_empty() {
                0.0
            } else {
                successes as f32 / pool.len() as f32
            };
            (rate, Some(degraded))
        }
        None => (attack_success_against(&dcn, &pool, &mut rng)?, None),
    };
    println!(
        "pool of {}: success {:.1}% against the bare network, {:.1}% against the DCN",
        pool.len(),
        s_std * 100.0,
        s_dcn * 100.0
    );
    if let Some(d) = degraded {
        println!(
            "{d}/{} answers degraded (vote truncated by deadline/budget or base fallback)",
            pool.len()
        );
    }
    Ok(())
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<(), DcnError> {
    if let Some(path) = flags.get("model") {
        let net = Network::load(path)?;
        println!(
            "model {path}: input {:?}, {} classes, {} parameters, {} layers",
            net.input_shape(),
            net.num_classes()?,
            net.num_params(),
            net.layers().len()
        );
        return Ok(());
    }
    if let Some(path) = flags.get("dcn") {
        let dcn: Dcn = parse_artifact(&read_artifact(path, "cli.info.dcn.read")?, "dcn")?;
        println!(
            "dcn {path}: base input {:?}, corrector r = {}, m = {}, detector {} params",
            dcn.base().input_shape(),
            dcn.corrector().radius(),
            dcn.corrector().samples(),
            dcn.detector().network().num_params()
        );
        return Ok(());
    }
    Err(DcnError::Config("info needs --model or --dcn".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags_of(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn parse_flags_accepts_pairs_and_rejects_bare_words() {
        let f = parse_flags(
            &["--task".into(), "mnist".into(), "--n".into(), "5".into()],
            &["task", "n"],
        )
        .unwrap();
        assert_eq!(f.get("task").map(String::as_str), Some("mnist"));
        assert!(parse_flags(&["task".into()], &["task"]).is_err());
        assert!(parse_flags(&["--task".into()], &["task"]).is_err());
    }

    #[test]
    fn each_command_rejects_flags_it_does_not_read() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let known = |cmd| command(cmd).map(|(known, _)| known).unwrap();
        let ok = parse_flags(
            &args(&["--epochs", "3", "--obs", "1", "--fault-seed", "2"]),
            known("train"),
        );
        assert_eq!(ok.map(|f| f.len()).ok(), Some(3));
        for (cmd, argv) in [
            ("train", &["--epoch", "3"][..]),
            ("train", &["--model", "m.json"]),
            ("eval", &["--epochs", "3"]),
            ("defend", &["--task", "mnist"]),
            ("info", &["--seed", "1"]),
            ("help", &["--n", "1"]),
        ] {
            let err = parse_flags(&args(argv), known(cmd)).err();
            assert!(
                matches!(&err, Some(e @ DcnError::Config(_)) if e.exit_code() == 2),
                "{cmd} {argv:?}: {err:?}"
            );
        }
        assert!(matches!(command("fit"), Err(DcnError::Config(_))));
    }

    #[test]
    fn flag_helpers_report_missing_keys() {
        let f = flags_of(&[("a", "1")]);
        assert_eq!(flag(&f, "a").unwrap(), "1");
        assert!(matches!(flag(&f, "b"), Err(DcnError::Config(_))));
        assert_eq!(flag_or(&f, "b", "x"), "x");
    }

    #[test]
    fn parse_num_validates() {
        assert_eq!(parse_num::<usize>("12", "n").unwrap(), 12);
        assert!(parse_num::<usize>("abc", "n").is_err());
        assert!(parse_num::<f32>("0.25", "eps").unwrap() - 0.25 < 1e-6);
    }

    #[test]
    fn dataset_rejects_unknown_task() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(dataset("imagenet", 10, &mut rng).is_err());
        assert_eq!(dataset("mnist", 10, &mut rng).unwrap().len(), 10);
    }

    #[test]
    fn obs_flag_validates_values() {
        // Only shapes that leave global state untouched are exercised here.
        assert!(apply_obs_flags(&flags_of(&[("obs", "maybe")])).is_err());
        assert!(apply_obs_flags(&flags_of(&[])).is_ok());
    }

    #[test]
    fn fault_flags_validate_rates_without_installing_a_plan() {
        // Bad values error out before set_plan is reached, so global state
        // stays untouched for sibling tests.
        assert!(matches!(
            apply_fault_flags(&flags_of(&[("fault-io", "1.5")])),
            Err(DcnError::Config(_))
        ));
        assert!(matches!(
            apply_fault_flags(&flags_of(&[("fault-nan", "nope")])),
            Err(DcnError::Config(_))
        ));
        assert!(apply_fault_flags(&flags_of(&[])).is_ok());
    }

    #[test]
    fn vote_budget_builds_only_when_bounded() {
        assert!(vote_budget(&flags_of(&[])).unwrap().is_none());
        let b = vote_budget(&flags_of(&[("deadline-ms", "25"), ("quorum", "3")]))
            .unwrap()
            .unwrap();
        assert_eq!(b.deadline, Some(Duration::from_millis(25)));
        assert_eq!(b.min_quorum, 3);
        assert_eq!(b.max_votes, None);
        assert!(vote_budget(&flags_of(&[("max-votes", "x")])).is_err());
    }

    #[test]
    fn make_attack_covers_the_table() {
        for a in ["l-bfgs", "fgsm", "igsm", "jsma", "cw-l0", "cw-l2", "cw-linf"] {
            assert!(make_attack(a, 0.0, 0.3).is_ok(), "attack {a}");
        }
        assert!(make_attack("pgd", 0.0, 0.3).is_err());
    }
}
