//! Distributed-training integration tests, over real TCP sockets:
//!
//! * **BSP bitwise identity** — the parameter server's final model is
//!   byte-for-byte identical to single-process `Trainer::fit_resumable`
//!   with the same seed, at 1, 2 and 4 workers, and *still* identical when
//!   a worker dies mid-run and a respawned incarnation takes over.
//! * **Fault matrix** — under each `dcn-fault` network injector class
//!   (connect-refused, mid-frame reset, short-read) the run completes via
//!   bounded retry/reconnect, and the BSP answer stays bitwise unchanged.
//! * **Retry determinism** — two runs under the same fault plan produce
//!   identical outcomes and identical observability counters.
//! * **In-band abort** — a run that fails server-side (an epoch checkpoint
//!   that cannot be written) returns the typed error from `join` and tells
//!   every live worker with a typed `Error` frame.
//!
//! Every test takes the shared plan lock: the fault plan and the obs
//! toggle are process globals, and runs must not observe a neighboring
//! test's plan.

use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use dcn_core::DcnError;
use dcn_fault::FaultPlan;
use dcn_nn::{Adam, TrainConfig, Trainer};
use dcn_ps::{build_job, run_worker, serve, ServerConfig, TrainSummary, WorkerConfig};

static PLAN_LOCK: Mutex<()> = Mutex::new(());

const TASK: &str = "mnist";
const N: usize = 64;
const EPOCHS: usize = 2;
const BATCH: usize = 32;
const SEED: u64 = 42;
const LR: f32 = 0.002;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    PLAN_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The canonical lock-acquisition order from `ci/lint/lock_order.txt` —
/// the same file the static `lock-order` rule enforces.
fn canonical_lock_order() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/lint/lock_order.txt");
    std::fs::read_to_string(path)
        .expect("canonical lock-order file")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Asserts the runtime witness's observed acquisition DAG is consistent
/// with the canonical order: every site declared, every edge forward.
fn assert_witness_matches_canon() {
    if !dcn_obs::ordered::witness_compiled() {
        return;
    }
    let canon = canonical_lock_order();
    let sites = dcn_obs::ordered::witness_sites();
    assert!(
        sites.contains(&"ps.state".to_string()),
        "witness never saw the coordinator lock: {sites:?}"
    );
    for site in &sites {
        assert!(
            canon.contains(site),
            "witnessed site {site:?} is not declared in ci/lint/lock_order.txt"
        );
    }
    for (from, to) in dcn_obs::ordered::witness_edges() {
        let pf = canon.iter().position(|s| *s == from);
        let pt = canon.iter().position(|s| *s == to);
        assert!(
            pf < pt,
            "observed acquisition {from:?} -> {to:?} runs against the canonical order"
        );
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dcn_ps_test_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// The single-process ground truth: the exact `fit_resumable` path the
/// `dcn train --checkpoint` CLI command runs.
fn reference_model_json() -> String {
    let job = build_job(TASK, N, SEED).expect("build job");
    let mut net = job.net;
    let mut opt = Adam::new(LR);
    let ckpt = temp_path("ref_ckpt");
    let config = TrainConfig {
        epochs: EPOCHS,
        batch_size: BATCH,
        ..TrainConfig::default()
    };
    Trainer::new(config)
        .fit_resumable(
            &mut net,
            job.train.images(),
            job.train.labels(),
            &mut opt,
            SEED,
            &ckpt,
        )
        .expect("reference training");
    let _ = std::fs::remove_file(&ckpt);
    net.to_json().expect("reference model json")
}

fn base_config(workers: usize) -> ServerConfig {
    ServerConfig {
        task: TASK.to_string(),
        n: N,
        epochs: EPOCHS,
        batch_size: BATCH,
        seed: SEED,
        workers,
        lr: LR,
        straggler: Duration::from_millis(400),
        ..ServerConfig::default()
    }
}

/// Runs a full server + in-process workers job and returns the summary
/// plus the saved final model bytes.
fn run_job(cfg: ServerConfig, workers: usize) -> (TrainSummary, String) {
    let out = temp_path("model");
    let cfg = ServerConfig {
        out: Some(out.clone()),
        ..cfg
    };
    let server = serve(cfg).expect("serve");
    let summary = server.drive_local(workers).expect("run");
    let bytes = std::fs::read_to_string(&out).expect("saved model");
    let _ = std::fs::remove_file(&out);
    (summary, bytes)
}

#[test]
fn bsp_final_model_is_bitwise_identical_to_single_process() {
    let _guard = lock();
    dcn_fault::set_plan(None);
    let reference = reference_model_json();
    for workers in [1usize, 2, 4] {
        let (summary, model) = run_job(base_config(workers), workers);
        assert_eq!(
            model, reference,
            "BSP with {workers} workers diverged from the single-process model"
        );
        assert_eq!(summary.version, (EPOCHS * N.div_ceil(BATCH)) as u64);
        assert_eq!(summary.workers_lost, 0);
    }
}

#[test]
fn bsp_survives_worker_death_and_respawn_bitwise() {
    let _guard = lock();
    dcn_fault::set_plan(None);
    // This leg runs under the runtime lock-order witness: worker death,
    // respawn, and the straggler sweep all cross the coordinator lock,
    // and the observed acquisitions must stay consistent with the
    // canonical order the static `lock-order` rule enforces.
    dcn_obs::ordered::reset_witness();
    dcn_obs::ordered::set_witness_enabled(true);
    let reference = reference_model_json();
    let out = temp_path("death_model");
    let cfg = ServerConfig {
        out: Some(out.clone()),
        ..base_config(2)
    };
    let server = serve(cfg).expect("serve");
    let addr = server.addr().to_string();

    // Worker 0 crashes (socket dropped, no goodbye) after one applied
    // push; worker 1 soldiers on; a respawned incarnation of worker 0
    // rejoins and helps finish.
    let dying = WorkerConfig {
        addr: addr.clone(),
        worker: 0,
        die_after_pushes: Some(1),
        ..WorkerConfig::default()
    };
    let healthy = WorkerConfig {
        addr: addr.clone(),
        worker: 1,
        ..WorkerConfig::default()
    };
    let h_dying = std::thread::spawn(move || run_worker(&dying));
    let h_healthy = std::thread::spawn(move || run_worker(&healthy));
    h_dying
        .join()
        .expect("dying worker thread")
        .expect("dying worker exits cleanly at its crash point");
    let respawned = WorkerConfig {
        addr,
        worker: 0,
        incarnation: 1,
        ..WorkerConfig::default()
    };
    let h_respawned = std::thread::spawn(move || run_worker(&respawned));

    let summary = server.join().expect("run completes");
    h_healthy.join().expect("healthy thread").expect("healthy worker");
    h_respawned.join().expect("respawn thread").expect("respawned worker");

    let model = std::fs::read_to_string(&out).expect("saved model");
    let _ = std::fs::remove_file(&out);
    assert_eq!(
        model, reference,
        "worker death + respawn changed the BSP result"
    );
    assert!(summary.workers_lost >= 1, "the crash was never noticed");
    assert_witness_matches_canon();
    dcn_obs::ordered::clear_witness_override();
}

#[test]
fn bsp_resumes_from_shard_checkpoints_after_server_crash() {
    let _guard = lock();
    dcn_fault::set_plan(None);
    let reference = reference_model_json();
    let dir = temp_path("shards");
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: run only the first epoch (a "crashed" server that managed
    // one epoch checkpoint), by limiting epochs to 1 against the same dir.
    let phase1 = ServerConfig {
        epochs: 1,
        shard_dir: Some(dir.clone()),
        ..base_config(1)
    };
    run_job(phase1, 1);

    // Phase 2: a fresh server with the full epoch budget resumes from the
    // sealed shards and finishes; the final model must match a run that
    // never crashed.
    let out = temp_path("resume_model");
    let phase2 = ServerConfig {
        shard_dir: Some(dir.clone()),
        out: Some(out.clone()),
        ..base_config(1)
    };
    let server = serve(phase2).expect("serve resumed");
    let summary = server.drive_local(1).expect("resumed run");
    let model = std::fs::read_to_string(&out).expect("saved model");
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(model, reference, "shard-checkpoint resume diverged");
    assert_eq!(summary.epoch_losses.len(), EPOCHS);
}

#[test]
fn fault_matrix_every_injector_class_is_survived_bitwise() {
    let _guard = lock();
    dcn_fault::set_plan(None);
    let reference = reference_model_json();
    let plans = [
        (
            "connect_refused",
            FaultPlan {
                seed: 7,
                connect_refused_rate: 0.4,
                ..FaultPlan::default()
            },
        ),
        (
            "conn_reset",
            FaultPlan {
                seed: 11,
                reset_rate: 0.03,
                ..FaultPlan::default()
            },
        ),
        (
            "short_read",
            FaultPlan {
                seed: 13,
                short_read: Some(2),
                ..FaultPlan::default()
            },
        ),
    ];
    for (name, plan) in plans {
        dcn_fault::set_plan(Some(plan));
        let cfg = base_config(2);
        let out = temp_path("fault_model");
        let cfg = ServerConfig {
            out: Some(out.clone()),
            ..cfg
        };
        let server = serve(cfg).expect("serve");
        let addr = server.addr().to_string();
        let handles: Vec<_> = (0..2u32)
            .map(|w| {
                let base = WorkerConfig::default();
                let wcfg = WorkerConfig {
                    addr: addr.clone(),
                    worker: w,
                    reconnects: 64,
                    retry: dcn_fault::RetryPolicy {
                        attempts: 12,
                        ..base.retry
                    },
                    ..base
                };
                std::thread::spawn(move || run_worker(&wcfg))
            })
            .collect();
        let summary = server.join();
        for h in handles {
            h.join()
                .expect("worker thread")
                .unwrap_or_else(|e| panic!("{name}: worker failed: {e}"));
        }
        summary.unwrap_or_else(|e| panic!("{name}: run failed: {e}"));
        let model = std::fs::read_to_string(&out).expect("saved model");
        let _ = std::fs::remove_file(&out);
        dcn_fault::set_plan(None);
        assert_eq!(
            model, reference,
            "{name}: injected faults changed the BSP result"
        );
    }
}

#[test]
fn retries_are_deterministic_across_identical_runs() {
    let _guard = lock();
    // A worker dialing a dead address under a connect-refusal plan: the
    // outcome class AND every counter must be identical across two runs of
    // the same plan — retries are replayable, not best-effort noise.
    let plan = FaultPlan {
        seed: 99,
        connect_refused_rate: 0.5,
        ..FaultPlan::default()
    };
    let run = || {
        dcn_fault::set_plan(Some(plan));
        dcn_obs::set_enabled(true);
        dcn_obs::reset();
        let cfg = WorkerConfig {
            // Reserved port on localhost: refused fast, never listening.
            addr: "127.0.0.1:1".to_string(),
            worker: 0,
            ..WorkerConfig::default()
        };
        let outcome = run_worker(&cfg);
        let snap = dcn_obs::snapshot("retry-determinism");
        let injected = snap.counter(dcn_fault::names::INJECTED_CONNECT_REFUSED_TOTAL);
        dcn_obs::set_enabled(false);
        dcn_obs::clear_enabled_override();
        dcn_fault::set_plan(None);
        (format!("{outcome:?}"), injected)
    };
    let (outcome_a, counters_a) = run();
    let (outcome_b, counters_b) = run();
    assert_eq!(outcome_a, outcome_b, "retry outcome differed across runs");
    assert_eq!(counters_a, counters_b, "injection counters differed");
    assert!(
        outcome_a.contains("PeerLost"),
        "a dead address must end in PeerLost, got {outcome_a}"
    );
}

#[test]
fn failed_checkpoint_aborts_the_run_and_tells_every_worker() {
    let _guard = lock();
    dcn_fault::set_plan(None);
    // A shard directory that is an existing regular file: `load` finds no
    // manifest and starts fresh, then the first epoch checkpoint fails at
    // `ps.shard.mkdir`.
    let not_a_dir = temp_path("shard_dir_is_a_file");
    std::fs::write(&not_a_dir, b"not a directory").expect("write blocker file");
    let cfg = ServerConfig {
        shard_dir: Some(not_a_dir.clone()),
        ..base_config(2)
    };
    let server = serve(cfg).expect("serve");
    let addr = server.addr().to_string();
    let handles: Vec<_> = (0..2u32)
        .map(|w| {
            let wcfg = WorkerConfig {
                addr: addr.clone(),
                worker: w,
                ..WorkerConfig::default()
            };
            std::thread::spawn(move || run_worker(&wcfg))
        })
        .collect();
    let err = server
        .join()
        .expect_err("a failed checkpoint must abort the run");
    let _ = std::fs::remove_file(&not_a_dir);
    assert!(
        matches!(&err, DcnError::Io { site, .. } if site == "ps.shard.mkdir"),
        "got {err:?}"
    );
    assert_eq!(err.exit_code(), 3);
    // Both workers learn of the abort in-band and exit with an error
    // instead of hanging or reporting success.
    for (w, h) in handles.into_iter().enumerate() {
        let outcome = h.join().expect("worker thread");
        assert!(outcome.is_err(), "worker {w} returned {outcome:?}");
    }
}
