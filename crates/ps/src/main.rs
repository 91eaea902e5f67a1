//! `dcn-ps`: distributed training driver.
//!
//! Three subcommands:
//!
//! * `serve` — run the parameter server in the foreground (prints the
//!   bound address; workers are started separately).
//! * `worker` — run one worker against a server address.
//! * `train` — the orchestrator: an in-process server plus `--workers`
//!   worker *child processes*, respawned (with a bumped incarnation) if
//!   they die before the run completes. This is what the CI kill-a-worker
//!   leg drives: SIGKILL any worker mid-epoch and the run still finishes
//!   with a bitwise-identical model.
//!
//! Each subcommand rejects a flag it does not read (exit 2). Exit codes
//! are the workspace table, `dcn_core::EXIT_CODES`, which `--help` prints.

use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::Duration;

use dcn_core::{exit_code_legend, DcnError};
use dcn_ps::{run_worker, serve, RunningServer, ServerConfig, TrainSummary, WorkerConfig};

const USAGE: &str = "\
dcn-ps — fault-tolerant distributed training on a sharded parameter server

USAGE:
  dcn-ps train  [--task mnist|cifar] [--n N] [--epochs E] [--batch-size B]
                [--seed S] [--workers W] [--shards K] [--lr LR]
                [--shard-dir DIR] [--out FILE] [--straggler-ms MS]
                [--bind HOST:PORT] [--max-respawns R]
  dcn-ps serve  [same training flags, without --max-respawns]
  dcn-ps worker --addr HOST:PORT [--worker I] [--incarnation G]
                [--reconnects R] [--die-after-pushes P]

Training is bulk-synchronous: one global batch in flight, so the final
model is bitwise-identical to single-process `dcn train --checkpoint` with
the same seed, at any worker count.
";

/// Flags `serve` reads (all of them through `server_config`).
const SERVE_FLAGS: &[&str] = &[
    "task",
    "n",
    "epochs",
    "batch-size",
    "seed",
    "workers",
    "shards",
    "lr",
    "shard-dir",
    "out",
    "straggler-ms",
    "bind",
];

/// Flags `train` reads: the server's plus the respawn budget.
fn train_flags() -> Vec<&'static str> {
    [SERVE_FLAGS, &["max-respawns"]].concat()
}

/// Flags `worker` reads.
const WORKER_FLAGS: &[&str] = &[
    "addr",
    "worker",
    "incarnation",
    "reconnects",
    "die-after-pushes",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("dcn-ps: {e}");
            e.exit_code()
        }
    };
    std::process::exit(code);
}

fn run(args: &[String]) -> Result<(), DcnError> {
    match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}\n{}", exit_code_legend());
            Ok(())
        }
        Some(other) => Err(DcnError::Config(format!(
            "unknown subcommand {other:?}; see dcn-ps --help"
        ))),
    }
}

/// `--key value` pair parser; no external dependency, typed errors only.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses `args`, rejecting any flag not in `known` — the flags the
    /// subcommand actually reads.
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, DcnError> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(DcnError::Config(format!(
                    "expected a --flag, got {key:?}; see dcn-ps --help"
                )));
            };
            if !known.contains(&name) {
                return Err(DcnError::Config(format!(
                    "unknown flag --{name} for this subcommand; see dcn-ps --help"
                )));
            }
            let Some(value) = it.next() else {
                return Err(DcnError::Config(format!("--{name} needs a value")));
            };
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, DcnError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                DcnError::Config(format!("--{name} {raw:?} is not a valid value"))
            }),
        }
    }
}

fn server_config(flags: &Flags) -> Result<ServerConfig, DcnError> {
    let base = ServerConfig::default();
    Ok(ServerConfig {
        addr: flags.get("bind").unwrap_or("127.0.0.1:0").to_string(),
        task: flags.get("task").unwrap_or(&base.task).to_string(),
        n: flags.num("n", base.n)?,
        epochs: flags.num("epochs", base.epochs)?,
        batch_size: flags.num("batch-size", base.batch_size)?,
        seed: flags.num("seed", base.seed)?,
        mode: base.mode,
        workers: flags.num("workers", base.workers)?,
        shards: flags.num("shards", base.shards)?,
        lr: flags.num("lr", base.lr)?,
        shard_dir: flags.get("shard-dir").map(PathBuf::from),
        out: flags.get("out").map(PathBuf::from),
        straggler: Duration::from_millis(flags.num("straggler-ms", 2000u64)?),
    })
}

fn print_summary(cfg: &ServerConfig, summary: &TrainSummary) {
    println!(
        "workers={} epochs={} version={} accuracy={:.4} workers_lost={}",
        cfg.workers,
        summary.epoch_losses.len(),
        summary.version,
        summary.accuracy,
        summary.workers_lost,
    );
    let losses: Vec<String> = summary
        .epoch_losses
        .iter()
        .map(|l| format!("{l:.6}"))
        .collect();
    println!("epoch_losses=[{}]", losses.join(", "));
}

fn cmd_serve(args: &[String]) -> Result<(), DcnError> {
    let flags = Flags::parse(args, SERVE_FLAGS)?;
    let cfg = server_config(&flags)?;
    let server = serve(cfg.clone())?;
    println!("listening on {}", server.addr());
    let summary = server.join()?;
    print_summary(&cfg, &summary);
    Ok(())
}

fn cmd_worker(args: &[String]) -> Result<(), DcnError> {
    let flags = Flags::parse(args, WORKER_FLAGS)?;
    let Some(addr) = flags.get("addr") else {
        return Err(DcnError::Config("worker needs --addr HOST:PORT".to_string()));
    };
    let base = WorkerConfig::default();
    let cfg = WorkerConfig {
        addr: addr.to_string(),
        worker: flags.num("worker", 0)?,
        incarnation: flags.num("incarnation", 0)?,
        reconnects: flags.num("reconnects", base.reconnects)?,
        die_after_pushes: match flags.get("die-after-pushes") {
            None => None,
            Some(_) => Some(flags.num("die-after-pushes", 0u64)?),
        },
        ..base
    };
    run_worker(&cfg)
}

struct WorkerProc {
    child: Child,
    incarnation: u32,
}

fn spawn_worker(addr: &str, worker: u32, incarnation: u32) -> Result<WorkerProc, DcnError> {
    let exe = std::env::current_exe().map_err(|e| DcnError::Io {
        site: "ps.orch.current_exe".to_string(),
        kind: e.kind(),
        msg: e.to_string(),
    })?;
    let child = Command::new(exe)
        .arg("worker")
        .args(["--addr", addr])
        .args(["--worker", &worker.to_string()])
        .args(["--incarnation", &incarnation.to_string()])
        .spawn()
        .map_err(|e| DcnError::Io {
            site: "ps.orch.spawn".to_string(),
            kind: e.kind(),
            msg: format!("worker {worker}: {e}"),
        })?;
    Ok(WorkerProc { child, incarnation })
}

/// The orchestrator: in-process server, worker child processes, respawn on
/// death while the run is live.
fn cmd_train(args: &[String]) -> Result<(), DcnError> {
    let flags = Flags::parse(args, &train_flags())?;
    let cfg = server_config(&flags)?;
    let max_respawns: u32 = flags.num("max-respawns", 16)?;
    let server: RunningServer = serve(cfg.clone())?;
    let addr = server.addr().to_string();

    let mut procs: Vec<Option<WorkerProc>> = Vec::new();
    for w in 0..cfg.workers as u32 {
        procs.push(Some(spawn_worker(&addr, w, 0)?));
    }
    let mut respawns_left = max_respawns;
    let mut worker_failure: Option<i32> = None;

    while !server.is_done() {
        std::thread::sleep(Duration::from_millis(50));
        for (w, slot) in procs.iter_mut().enumerate() {
            let Some(proc) = slot.as_mut() else { continue };
            let status = match proc.child.try_wait() {
                Ok(Some(status)) => status,
                Ok(None) => continue,
                Err(_) => continue,
            };
            // The child is gone. While the run is live, any exit — crash,
            // SIGKILL, or even a clean return — leaves the job short a
            // worker, so respawn with a bumped incarnation.
            if server.is_done() {
                *slot = None;
                continue;
            }
            if respawns_left == 0 {
                worker_failure = worker_failure.or(status.code().filter(|&c| c != 0));
                *slot = None;
                continue;
            }
            respawns_left -= 1;
            let incarnation = proc.incarnation + 1;
            if dcn_obs::enabled() {
                dcn_obs::counter(dcn_ps::names::PS_WORKERS_RESPAWNED_TOTAL).inc();
            }
            eprintln!(
                "dcn-ps: worker {w} exited ({status}); respawning as incarnation {incarnation}"
            );
            *slot = Some(spawn_worker(&addr, w as u32, incarnation)?);
        }
        if procs.iter().all(Option::is_none) && !server.is_done() {
            // Every worker is gone and the respawn budget is spent: the
            // server can never finish, so surface the loss instead of
            // hanging.
            return Err(DcnError::PeerLost {
                peer: "workers".to_string(),
                msg: format!(
                    "all {} workers exited with the respawn budget exhausted",
                    cfg.workers
                ),
            });
        }
    }

    // The run is decided; give the children a moment to see Shutdown, then
    // reap whatever is left.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    for slot in &mut procs {
        let Some(proc) = slot.as_mut() else { continue };
        loop {
            match proc.child.try_wait() {
                Ok(Some(status)) => {
                    worker_failure = worker_failure.or(status.code().filter(|&c| c != 0));
                    break;
                }
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => {
                    let _ = proc.child.kill();
                    let _ = proc.child.wait();
                    break;
                }
            }
        }
    }

    let summary = server.join()?;
    if let Some(code) = worker_failure {
        return Err(DcnError::Config(format!(
            "run completed but a worker exited with code {code}"
        )));
    }
    print_summary(&cfg, &summary);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_a_subcommand_does_not_read_are_config_errors() {
        let train = train_flags();
        let ok = Flags::parse(&args(&["--workers", "2", "--max-respawns", "3"]), &train);
        assert_eq!(ok.map(|f| f.pairs.len()).ok(), Some(2));
        for (argv, known) in [
            (&["--mode", "async"][..], &train[..]),
            (&["--max-respawns", "3"], SERVE_FLAGS),
            (&["--task", "mnist"], WORKER_FLAGS),
        ] {
            let err = Flags::parse(&args(argv), known).err();
            assert!(
                matches!(&err, Some(e @ DcnError::Config(_)) if e.exit_code() == 2),
                "{argv:?}: {err:?}"
            );
        }
    }
}
