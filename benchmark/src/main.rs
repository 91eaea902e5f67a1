//! `dcn-benchmark` — the repository benchmark.
//!
//! ```text
//! dcn-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result JSON last
//! dcn-benchmark run     --workload W [--seed 7] [--seconds S] [--out DIR] [--artifacts DIR]
//! dcn-benchmark trace   --workload W [--seed 7] [--seconds S] [--out DIR] [--artifacts DIR]
//! dcn-benchmark prepare [--out DIR]
//! dcn-benchmark all     [--seed 7] [--seconds S] [--out DIR]
//! dcn-benchmark compare PARENT_CHECKOUT CHANGE_CHECKOUT
//! ```
//!
//! `run` and `all` measure `run_seconds` from `BENCHMARK.json` unless
//! `--seconds` says otherwise; `trace` measures half as long.
//! `compare` always runs ten alternating pairs per workload at
//! `run_seconds`.
//!
//! Workloads: serve-benign, serve-attack, serve-budget, train-cifar.
//! Every run prints `workload metric value unit` lines, then one JSON
//! object `{correct, attempted, failed, metrics}` as its last line, and
//! writes its full record to `DIR/W.json` (or `DIR/W.layers.json` when
//! traced). Records default to `benchmark/out/`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use dcn_benchmark::prepare::{prepare, Prepared};
use dcn_benchmark::record::{result_line, Catalogue};
use dcn_benchmark::{
    compare, record_path, run_workload, write_record, Result, RunCtx, Scale, Workload,
};

const USAGE: &str = "usage: dcn-benchmark --workload W --seed N --seconds S --trace 0|1
       dcn-benchmark run|trace --workload W [--seed N] [--seconds S] [--out DIR] [--artifacts DIR]
       dcn-benchmark prepare [--out DIR]
       dcn-benchmark all [--seed N] [--seconds S] [--out DIR]
       dcn-benchmark compare PARENT CHANGE";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode> {
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("flags", args),
    };
    let positional: Vec<&String> = rest.iter().take_while(|a| !a.starts_with("--")).collect();
    let flags = parse_flags(&rest[positional.len()..])?;
    let seed: u64 = num(&flags, "seed", 7)?;
    let out = flags.get("out").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    );
    let ctx = RunCtx {
        out: out.clone(),
        artifacts: flags.get("artifacts").map(PathBuf::from),
    };
    match cmd {
        "flags" => {
            let traced = match flags.get("trace").map(String::as_str) {
                Some("1") => true,
                Some("0") => false,
                other => return Err(format!("--trace expects 0 or 1, got {other:?}").into()),
            };
            let seconds: f64 = num(&flags, "seconds", 0.0)?;
            if seconds <= 0.0 {
                return Err("--seconds must be positive".into());
            }
            one_run(&flags, seed, seconds, &ctx, traced)
        }
        "run" => {
            let seconds = num(&flags, "seconds", Catalogue::load()?.run_seconds)?;
            one_run(&flags, seed, seconds, &ctx, false)
        }
        "trace" => {
            let seconds = num(&flags, "seconds", Catalogue::load()?.run_seconds / 2.0)?;
            one_run(&flags, seed, seconds, &ctx, true)
        }
        "prepare" => {
            let dir = out.join("artifacts");
            prepare(&Scale::standard(0.0).prepare)?.save(&dir)?;
            println!("artifacts written to {}", dir.display());
            Ok(ExitCode::SUCCESS)
        }
        "all" => all(
            seed,
            num(&flags, "seconds", Catalogue::load()?.run_seconds)?,
            &out,
        ),
        "compare" => {
            let [a, b] = positional[..] else {
                return Err("compare needs two checkout directories".into());
            };
            if !flags.is_empty() {
                return Err("compare takes no flags".into());
            }
            Ok(if compare::compare(Path::new(a), Path::new(b))? {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        other => Err(format!("unknown command {other:?}").into()),
    }
}

/// One run in this process: prints every metric line and the result JSON.
fn one_run(
    flags: &HashMap<String, String>,
    seed: u64,
    seconds: f64,
    ctx: &RunCtx,
    traced: bool,
) -> Result<ExitCode> {
    let name = flags.get("workload").ok_or("missing --workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let scale = Scale::standard(seconds);
    let outcome = run_workload(workload, seed, &scale, ctx, traced)?;
    let printed = write_record(workload, seed, &scale, ctx, traced, &outcome)?;
    for m in &printed {
        println!("{} {} {} {}", workload.name(), m.name, m.value(), m.unit);
    }
    for c in outcome.checks.iter().filter(|c| !c.ok) {
        eprintln!("check failed: {}: {}", c.name, c.detail);
    }
    println!(
        "{}",
        result_line(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            &printed
        )
    );
    Ok(ExitCode::SUCCESS)
}

/// Prepares the serve artifacts once, runs every workload and then its
/// traced pass, each in a fresh process, and reports every metric.
fn all(seed: u64, seconds: f64, out: &Path) -> Result<ExitCode> {
    std::fs::create_dir_all(out)?;
    let artifacts = out.join("artifacts");
    let prepared: Prepared = prepare(&Scale::standard(seconds).prepare)?;
    prepared.save(&artifacts)?;
    eprintln!("prepared: {}", serde_json::to_string(&prepared.report)?);
    let exe = std::env::current_exe()?;
    let mut all_correct = true;
    for (cmd, secs) in [("run", seconds), ("trace", seconds / 2.0)] {
        for w in Workload::ALL {
            let output = Command::new(&exe)
                .args([cmd, "--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &secs.to_string(), "--out"])
                .arg(out)
                .arg("--artifacts")
                .arg(&artifacts)
                .output()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for l in lines {
                println!("{l}");
            }
            let correct = serde_json::parse(last)
                .ok()
                .is_some_and(|v| matches!(v.get_field("correct"), Some(serde::Value::Bool(true))));
            if !correct || !output.status.success() {
                all_correct = false;
                eprintln!(
                    "{cmd} {}: not correct\n{}",
                    w.name(),
                    String::from_utf8_lossy(&output.stderr)
                );
            }
        }
    }
    merge_batch_size(out)?;
    println!("records in {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Copies `serve.batch_size_mean` — measured only with the telemetry plane
/// on — from each traced record into the untraced record's input-property
/// block.
fn merge_batch_size(out: &Path) -> Result<()> {
    for w in Workload::ALL {
        let (plain, traced) = (record_path(out, w, false), record_path(out, w, true));
        let (Ok(p), Ok(t)) = (
            std::fs::read_to_string(&plain),
            std::fs::read_to_string(&traced),
        ) else {
            continue;
        };
        let (mut doc, layers) = (serde_json::parse(&p)?, serde_json::parse(&t)?);
        let batch = layers
            .get_field("input_properties")
            .and_then(|i| i.get_field("serve.batch_size_mean"))
            .cloned()
            .unwrap_or(serde::Value::Null);
        if let serde::Value::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if let (true, serde::Value::Obj(props)) = (k == "input_properties", v) {
                    for (pk, pv) in props.iter_mut() {
                        if pk == "serve.batch_size_mean" {
                            *pv = batch.clone();
                        }
                    }
                }
            }
        }
        std::fs::write(&plain, serde_json::to_string_pretty(&doc)?)?;
    }
    Ok(())
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {k:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn num<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> Result<T> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("cannot parse --{key} {v:?}").into()),
    }
}
