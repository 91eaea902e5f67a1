//! `dcn-serve` — the concurrent batched serving engine.
//!
//! ```text
//! dcn-serve serve  --dcn dcn.json | --demo   [--addr 127.0.0.1:7878]
//!                  [--json 1] [--batch 16] [--queue 64] [--shed-mark 48]
//!                  [--threads N] [--trace 1] [--admin-addr 127.0.0.1:7979]
//!                  [--flight-dir results] [--drift-baseline R]
//!                  [--drift-tolerance T]
//! ```
//!
//! `serve` loads a DCN artifact (or trains the tiny built-in demo model)
//! and answers classify requests over TCP until killed. Load is measured
//! from outside, by the repository benchmark (`bash benchmark/run.sh`).
//!
//! `serve` rejects a flag it does not read (exit 2) before it loads or
//! trains a model. Failures exit with a class-specific code from the
//! workspace table, [`dcn_core::EXIT_CODES`], which `dcn-serve help` prints.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use dcn_core::{exit_code_legend, Dcn, DcnError};
use dcn_fault::FaultPlan;
use dcn_serve::bench;
use dcn_serve::{Server, ServerConfig, WireMode};

const USAGE: &str = "usage: dcn-serve serve [flags]
run `dcn-serve help` for the full flag reference";

/// Flags every command reads: observability, tracing, fault injection.
const SHARED_FLAGS: &[&str] = &[
    "obs",
    "obs-json",
    "trace",
    "fault-seed",
    "fault-io",
    "fault-latency-ns",
    "fault-budget",
];

/// Flags `serve` reads on top of the shared ones.
const SERVE_FLAGS: &[&str] = &[
    "dcn",
    "demo",
    "samples",
    "seed",
    "addr",
    "json",
    "batch",
    "queue",
    "shed-mark",
    "threads",
    "admin-addr",
    "flight-dir",
    "drift-baseline",
    "drift-tolerance",
];

type Command = fn(&HashMap<String, String>) -> Result<(), DcnError>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match run(cmd, &args[1..]) {
        Ok(()) => {
            if dcn_obs::enabled() {
                let run = format!("serve_{cmd}");
                eprintln!("{}", dcn_obs::snapshot(&run).render());
                if let Some(path) = dcn_obs::maybe_export(&run) {
                    eprintln!("obs snapshot written to {}", path.display());
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code().clamp(1, 255) as u8)
        }
    }
}

fn run(cmd: &str, rest: &[String]) -> Result<(), DcnError> {
    let (known, command): (&[&str], Command) = match cmd {
        "serve" => (SERVE_FLAGS, cmd_serve),
        "help" | "--help" | "-h" => (&[], cmd_help),
        other => {
            return Err(DcnError::Config(format!(
                "unknown command {other:?}\n{USAGE}"
            )))
        }
    };
    let flags = parse_flags(rest, known)?;
    apply_obs_flags(&flags)?;
    apply_fault_flags(&flags)?;
    command(&flags)
}

fn cmd_help(_flags: &HashMap<String, String>) -> Result<(), DcnError> {
    println!("{}", long_help());
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), DcnError> {
    let dcn = if flags.contains_key("demo") {
        let samples: usize = parse_num(flag_or(flags, "samples", "24"), "--samples")?;
        let seed: u64 = parse_num(flag_or(flags, "seed", "11"), "--seed")?;
        eprintln!("training the built-in demo model (seed {seed}, m = {samples})…");
        bench::demo_dcn(seed, samples)?
    } else {
        let path = flag(flags, "dcn")?;
        let json = read_artifact(path, "serve.dcn.read")?;
        parse_artifact::<Dcn>(&json, "dcn")?
    };
    let config = ServerConfig {
        addr: flag_or(flags, "addr", "127.0.0.1:7878").to_string(),
        mode: wire_mode(flags)?,
        max_batch: parse_num(flag_or(flags, "batch", "16"), "--batch")?,
        queue_capacity: parse_num(flag_or(flags, "queue", "64"), "--queue")?,
        shed_mark: parse_num(flag_or(flags, "shed-mark", "48"), "--shed-mark")?,
        threads: flags
            .get("threads")
            .map(|v| parse_num(v, "--threads"))
            .transpose()?,
        admin_addr: flags.get("admin-addr").cloned(),
        flight_dir: flags.get("flight-dir").map(std::path::PathBuf::from),
        drift_baseline: parse_num(flag_or(flags, "drift-baseline", "0.0"), "--drift-baseline")?,
        drift_tolerance: parse_num(flag_or(flags, "drift-tolerance", "1.0"), "--drift-tolerance")?,
    };
    let server = Server::start(Arc::new(dcn), config)?;
    println!("serving on {} (ctrl-c to stop)", server.addr());
    if let Some(admin) = server.admin_addr() {
        println!("admin endpoint on {admin}");
    }
    // The acceptor owns the listener; park this thread until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn wire_mode(flags: &HashMap<String, String>) -> Result<WireMode, DcnError> {
    match flag_or(flags, "json", "0") {
        "1" | "true" | "on" => Ok(WireMode::Json),
        "0" | "false" | "off" => Ok(WireMode::Binary),
        other => Err(DcnError::Config(format!(
            "--json expects 1 or 0, got {other:?}"
        ))),
    }
}

/// Applies the observability flags shared by every command (same contract
/// as the `dcn` CLI): `--obs 1|0`, `--obs-json DIR`.
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
    if let Some(v) = flags.get("trace") {
        match v.as_str() {
            "1" | "true" | "on" => dcn_obs::set_trace_enabled(true),
            "0" | "false" | "off" => dcn_obs::set_trace_enabled(false),
            other => {
                return Err(DcnError::Config(format!(
                    "--trace expects 1 or 0, got {other:?}"
                )))
            }
        }
    }
    Ok(())
}

/// Installs a fault-injection plan from the `--fault-*` flags (same knobs
/// as the `DCN_FAULT_*` environment variables).
fn apply_fault_flags(flags: &HashMap<String, String>) -> Result<(), DcnError> {
    let keys = ["fault-seed", "fault-io", "fault-latency-ns", "fault-budget"];
    if !keys.iter().any(|k| flags.contains_key(*k)) {
        return Ok(());
    }
    let plan = FaultPlan {
        seed: parse_num(flag_or(flags, "fault-seed", "0"), "--fault-seed")?,
        io_error_rate: parse_num(flag_or(flags, "fault-io", "0"), "--fault-io")?,
        latency_ns: parse_num(flag_or(flags, "fault-latency-ns", "0"), "--fault-latency-ns")?,
        vote_budget: flags
            .get("fault-budget")
            .map(|v| parse_num(v, "--fault-budget"))
            .transpose()?,
        ..FaultPlan::default()
    };
    if !(0.0..=1.0).contains(&plan.io_error_rate) {
        return Err(DcnError::Config(format!(
            "--fault-io expects a probability in [0, 1], got {}",
            plan.io_error_rate
        )));
    }
    dcn_fault::set_plan(Some(plan));
    Ok(())
}

fn long_help() -> String {
    format!(
        "dcn-serve — concurrent batched serving for a trained DCN

commands:
  serve   answer classify requests over TCP until killed

serve:  --dcn PATH       DCN artifact from `dcn build` (or --demo 1 to
        --demo 1         train the tiny built-in blobs model)
        --samples M      corrector votes in the demo model (default 24)
        --seed N         demo model seed (default 11)
        --addr HOST:PORT bind address (default 127.0.0.1:7878; port 0 = OS pick)
        --json 1|0       line-JSON debug frames instead of binary (default 0)
        --batch N        max requests coalesced per model call (default 16)
        --queue N        admission queue capacity; beyond it requests are
                         rejected with exit-code-6 Overloaded (default 64)
        --shed-mark N    queue depth where admitted requests degrade to the
                         base prediction (default 48; >= queue disables)
        --threads N      worker threads for batched forwards (default ambient)
        --admin-addr A   bind a line-JSON admin endpoint (snapshot, health,
                         trace <id>, chrome, dump) on its own listener
        --flight-dir D   where FLIGHT_<ts>.json post-mortems land
                         (default: the obs export dir, results/)
        --drift-baseline R  expected detector flag rate (default 0.0)
        --drift-tolerance T max |rate - baseline| before `health` raises
                         drift_alarm (default 1.0 = never)

observability: --obs 1|0, --obs-json DIR (also DCN_OBS / DCN_OBS_JSON)
tracing:       --trace 1|0 per-request span trees (also DCN_TRACE); purely
               observational — answers are bitwise-identical either way
fault injection: --fault-seed N  --fault-io P  --fault-latency-ns N
                 --fault-budget V (also the DCN_FAULT_* env vars)

per-request vote budgets ride in the request frame itself (max votes,
deadline, quorum) — see DESIGN.md §12 for the wire layout.

{}",
        exit_code_legend()
    )
}

/// Parses `--key value` pairs, rejecting any flag outside `known` (the
/// subcommand's own flags) and [`SHARED_FLAGS`].
fn parse_flags(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, DcnError> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            return Err(DcnError::Config(format!("expected --flag, got {k:?}")));
        };
        if !known.contains(&key) && !SHARED_FLAGS.contains(&key) {
            return Err(DcnError::Config(format!(
                "unknown flag --{key} for this command; run `dcn-serve help`"
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

/// Reads a JSON artifact with bounded retries on transient IO failures.
fn read_artifact(path: &str, site: &'static str) -> Result<String, DcnError> {
    dcn_fault::read_with_retry(path, &dcn_fault::RetryPolicy::default(), site).map_err(|e| {
        DcnError::Io {
            site: site.to_string(),
            kind: e.kind(),
            msg: format!("{path}: {e}"),
        }
    })
}

/// A machine-written artifact that fails to parse is corrupt, not a config
/// problem.
fn parse_artifact<T: serde::Deserialize>(json: &str, what: &str) -> Result<T, DcnError> {
    serde_json::from_str(json).map_err(|e| DcnError::Corrupt(format!("{what}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_a_command_does_not_read_are_config_errors() {
        let ok = parse_flags(
            &args(&["--demo", "1", "--shed-mark", "8", "--obs", "1"]),
            SERVE_FLAGS,
        );
        assert_eq!(ok.map(|f| f.len()).ok(), Some(3));
        let ok = parse_flags(
            &args(&["--dcn", "dcn.json", "--fault-seed", "3"]),
            SERVE_FLAGS,
        );
        assert_eq!(ok.map(|f| f.len()).ok(), Some(2));
        for (argv, known) in [
            (&["--demo", "1", "--no-such-flag", "1"][..], SERVE_FLAGS),
            (&["--shed_mark", "8"], SERVE_FLAGS),
            (&["--clients", "4"], SERVE_FLAGS),
            (&["--requests", "50"], SERVE_FLAGS),
            (&["--out", "report.json"], SERVE_FLAGS),
            (&["--demo", "1"], &[]),
        ] {
            let err = parse_flags(&args(argv), known).err();
            assert!(
                matches!(&err, Some(e @ DcnError::Config(_)) if e.exit_code() == 2),
                "{argv:?}: {err:?}"
            );
        }
        // `bench` is not a command: load is measured by `benchmark/`.
        let err = run("bench", &args(&["--clients", "4"])).err();
        assert!(
            matches!(&err, Some(e @ DcnError::Config(_)) if e.exit_code() == 2),
            "{err:?}"
        );
    }
}
