//! The parameter server: shard ownership, scheduling, liveness, recovery.
//!
//! One mutex-guarded coordinator state is shared by the per-connection
//! threads (one per worker, in the `dcn-serve` style). BSP scheduling
//! lives in the `GetWork` handler: the server releases global batch `b`
//! only after batch `b-1`'s gradients applied, so updates land in exactly
//! the single-process order; a second worker asking while an assignment is
//! outstanding parks on the condvar until the straggler deadline, then
//! takes over the same batch (speculative duplicates are harmless — both
//! compute bit-identical gradients, and the `version` check applies
//! exactly one).

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dcn_core::wire::{read_frame, write_frame};
use dcn_core::{models, DcnError};
use dcn_data::Dataset;
use dcn_nn::Network;
use dcn_obs::ordered;
use dcn_tensor::Tensor;

use crate::protocol::{decode_client, encode_server, ClientMsg, JobSpec, Mode, ServerMsg};
use crate::setup::{build_job, num_batches};
use crate::shard::ShardStore;
use crate::{names, WorkerConfig};

/// Parameter-server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` lets the OS pick a port.
    pub addr: String,
    /// Task name (`mnist` or `cifar`).
    pub task: String,
    /// Training-set size.
    pub n: usize,
    /// Epochs to run.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Seed for every derived RNG stream.
    pub seed: u64,
    /// Execution mode; BSP is the only schedule.
    pub mode: Mode,
    /// Worker processes the `dcn-ps train` orchestrator spawns.
    pub workers: usize,
    /// Number of parameter shards.
    pub shards: usize,
    /// Adam learning rate (the CLI trainer's 0.002 by default).
    pub lr: f32,
    /// Shard-checkpoint directory; `None` disables checkpoints.
    pub shard_dir: Option<PathBuf>,
    /// Final model path; `None` skips the save.
    pub out: Option<PathBuf>,
    /// Reassignment deadline for an outstanding batch.
    pub straggler: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            task: "mnist".to_string(),
            n: 512,
            epochs: 2,
            batch_size: 32,
            seed: 42,
            mode: Mode::Bsp,
            workers: 1,
            shards: 4,
            lr: 0.002,
            shard_dir: None,
            out: None,
            straggler: Duration::from_millis(2000),
        }
    }
}

/// Outcome of a completed training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSummary {
    /// Mean loss per applied epoch.
    pub epoch_losses: Vec<f32>,
    /// Held-out accuracy of the final model.
    pub accuracy: f32,
    /// Total gradient batches applied.
    pub version: u64,
    /// Workers declared dead during the run.
    pub workers_lost: usize,
}

struct WorkerInfo {
    incarnation: u32,
    alive: bool,
}

struct State {
    cfg: ServerConfig,
    net: Network,
    test: Dataset,
    store: ShardStore,
    num_batches: usize,
    /// Next epoch to apply.
    epoch: usize,
    /// Next batch to apply within the epoch.
    batch: usize,
    /// Total applied batches — the exactly-once fence every push carries.
    version: u64,
    epoch_losses: Vec<f32>,
    loss_sum: f32,
    /// The outstanding `(worker, assigned_at)` for the pending batch.
    assignment: Option<(u32, Instant)>,
    workers: BTreeMap<u32, WorkerInfo>,
    workers_lost: usize,
    finished: bool,
    result: Option<Result<TrainSummary, DcnError>>,
    /// The failure class frozen for late-arriving workers: `join` consumes
    /// `result`, but connections must keep answering with the typed error.
    failure: Option<(u8, String)>,
}

struct Shared {
    state: ordered::Mutex<State>,
    cond: ordered::Condvar,
    done: AtomicBool,
}

/// A server accepted on a bound socket, training in background threads.
pub struct RunningServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl RunningServer {
    /// The bound address workers should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the run has completed (successfully or not).
    pub fn is_done(&self) -> bool {
        self.shared.done.load(Ordering::Relaxed)
    }

    /// Blocks until the run completes and returns its summary.
    ///
    /// # Errors
    ///
    /// Propagates the run's failure, such as a shard-checkpoint IO error.
    pub fn join(mut self) -> Result<TrainSummary, DcnError> {
        if let Some(h) = self.accept.take() {
            if h.join().is_err() {
                return Err(DcnError::Io {
                    site: "ps.server.accept_join".to_string(),
                    kind: std::io::ErrorKind::Other,
                    msg: "accept thread panicked".to_string(),
                });
            }
        }
        let mut st = self.shared.state.lock();
        match st.result.take() {
            Some(r) => r,
            None => Err(DcnError::Io {
                site: "ps.server.no_result".to_string(),
                kind: std::io::ErrorKind::Other,
                msg: "server stopped without recording a result".to_string(),
            }),
        }
    }

    /// Convenience: run `workers` in-process worker threads against this
    /// server and join everything. Used by tests and the bench harness.
    ///
    /// # Errors
    ///
    /// The first worker error wins over a server success; server errors
    /// always propagate.
    pub fn drive_local(self, workers: usize) -> Result<TrainSummary, DcnError> {
        let addr = self.addr().to_string();
        let handles: Vec<_> = (0..workers as u32)
            .map(|w| {
                let cfg = WorkerConfig {
                    addr: addr.clone(),
                    worker: w,
                    ..WorkerConfig::default()
                };
                std::thread::spawn(move || crate::run_worker(&cfg))
            })
            .collect();
        let summary = self.join();
        let mut worker_err = None;
        for h in handles {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => worker_err = worker_err.or(Some(e)),
                Err(_) => {
                    worker_err = worker_err.or(Some(DcnError::Io {
                        site: "ps.server.worker_join".to_string(),
                        kind: std::io::ErrorKind::Other,
                        msg: "worker thread panicked".to_string(),
                    }))
                }
            }
        }
        match (summary, worker_err) {
            (Ok(s), None) => Ok(s),
            (Ok(_), Some(e)) | (Err(e), _) => Err(e),
        }
    }
}

/// Binds the listener, loads any shard checkpoint, and starts accepting
/// workers. Returns immediately; use [`RunningServer::join`] for the
/// outcome.
///
/// # Errors
///
/// [`DcnError::Config`] for a bad task or size, [`DcnError::Io`] for bind
/// failures, plus shard-checkpoint load errors.
pub fn serve(cfg: ServerConfig) -> Result<RunningServer, DcnError> {
    if cfg.batch_size == 0 || cfg.n == 0 || cfg.epochs == 0 {
        return Err(DcnError::Config(
            "n, epochs and batch_size must all be positive".to_string(),
        ));
    }
    let job = build_job(&cfg.task, cfg.n, cfg.seed)?;
    let mut net = job.net;
    let mut store = ShardStore::new(net.params().len(), cfg.shards, cfg.lr);
    let mut start_epoch = 0usize;
    let mut version = 0u64;
    let mut epoch_losses = Vec::new();
    if let Some(dir) = &cfg.shard_dir {
        if let Some(resume) = store.load(&mut net, dir, &cfg.task, cfg.n, cfg.seed)? {
            start_epoch = resume.epoch;
            version = resume.version;
            epoch_losses = resume.epoch_losses;
        }
    }
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| DcnError::Io {
        site: "ps.server.bind".to_string(),
        kind: e.kind(),
        msg: format!("{}: {e}", cfg.addr),
    })?;
    let addr = listener.local_addr().map_err(|e| DcnError::Io {
        site: "ps.server.local_addr".to_string(),
        kind: e.kind(),
        msg: e.to_string(),
    })?;
    listener.set_nonblocking(true).map_err(|e| DcnError::Io {
        site: "ps.server.nonblocking".to_string(),
        kind: e.kind(),
        msg: e.to_string(),
    })?;

    let nb = num_batches(cfg.n, cfg.batch_size);
    let already_done = start_epoch >= cfg.epochs;
    let shared = Arc::new(Shared {
        state: ordered::Mutex::new(
            State {
                cfg,
                net,
                test: job.test,
                store,
                num_batches: nb,
                epoch: start_epoch,
                batch: 0,
                version,
                epoch_losses,
                loss_sum: 0.0,
                assignment: None,
                workers: BTreeMap::new(),
                workers_lost: 0,
                finished: false,
                result: None,
                failure: None,
            },
            "ps.state",
        ),
        cond: ordered::Condvar::new(),
        done: AtomicBool::new(false),
    });
    if already_done {
        // A resumed job that already completed every epoch: finalize
        // immediately so `join` returns the checkpointed model's summary.
        let mut st = shared.state.lock();
        finalize(&shared, &mut st);
    }

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            loop {
                if shared.done.load(Ordering::Relaxed) {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let shared = Arc::clone(&shared);
                        std::thread::spawn(move || connection(&shared, stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(15));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(15)),
                }
            }
        })
    };

    Ok(RunningServer {
        addr,
        shared,
        accept: Some(accept),
    })
}

/// One worker connection: read frames, dispatch, reply, until EOF.
fn connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    // The (worker, incarnation) this connection authenticated as via Hello.
    let mut who: Option<(u32, u32)> = None;
    // Clean EOF or torn stream both end the loop: either way the worker
    // is gone.
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        let msg = match decode_client(&payload) {
            Ok(m) => m,
            Err(e) => {
                // Malformed but intact framing: answer the typed error and
                // keep the connection.
                let reply = ServerMsg::Error {
                    code: e.exit_code().clamp(1, 255) as u8,
                    msg: e.to_string(),
                };
                if write_frame(&mut write_half, &encode_server(&reply)).is_err() {
                    break;
                }
                continue;
            }
        };
        let reply = dispatch(shared, msg, &mut who);
        let closing = matches!(reply, ServerMsg::Shutdown | ServerMsg::Error { .. });
        if write_frame(&mut write_half, &encode_server(&reply)).is_err() {
            break;
        }
        if closing {
            // The worker exits on Shutdown/Error; wait for its EOF rather
            // than racing the close.
            continue;
        }
    }
    if let Some((w, inc)) = who {
        let mut st = shared.state.lock();
        // Only count a death if this connection's incarnation is still the
        // current one (a respawn may already have re-joined) and the run is
        // live — a worker that got Shutdown disconnects normally.
        let lively = st
            .workers
            .get(&w)
            .is_some_and(|i| i.alive && i.incarnation == inc);
        if lively && !st.finished {
            mark_dead(shared, &mut st, w);
        }
    }
}

/// Handles one decoded client message. Blocking happens only inside
/// `GetWork`.
fn dispatch(shared: &Shared, msg: ClientMsg, who: &mut Option<(u32, u32)>) -> ServerMsg {
    match msg {
        ClientMsg::Hello {
            worker,
            incarnation,
        } => {
            *who = Some((worker, incarnation));
            let mut st = shared.state.lock();
            let info = st.workers.entry(worker).or_insert(WorkerInfo {
                incarnation,
                alive: true,
            });
            info.incarnation = info.incarnation.max(incarnation);
            info.alive = true;
            if dcn_obs::enabled() {
                dcn_obs::counter(names::PS_WORKERS_JOINED_TOTAL).inc();
            }
            let spec = JobSpec {
                task: st.cfg.task.clone(),
                n: st.cfg.n as u32,
                batch_size: st.cfg.batch_size as u32,
                seed: st.cfg.seed,
            };
            ServerMsg::Welcome(spec)
        }
        ClientMsg::GetWork { worker } => get_work(shared, worker),
        ClientMsg::PushGrads {
            epoch,
            batch,
            version,
            loss,
            grads,
            ..
        } => push_grads(shared, epoch, batch, version, loss, &grads),
    }
}

/// BSP scheduler: hand out the pending batch, parking while another
/// worker's assignment is outstanding and fresh.
fn get_work(shared: &Shared, worker: u32) -> ServerMsg {
    let mut st = shared.state.lock();
    loop {
        if st.finished {
            return finished_reply(&st);
        }
        let straggler = st.cfg.straggler;
        match st.assignment {
            Some((assignee, at)) if assignee != worker => {
                let assignee_alive = st.workers.get(&assignee).is_some_and(|w| w.alive);
                let age = at.elapsed();
                if assignee_alive && age < straggler {
                    // Fresh assignment elsewhere: park until it applies,
                    // dies, or goes stale.
                    let wait = straggler - age;
                    let (guard, _) =
                        shared.cond.wait_timeout(st, wait.min(Duration::from_millis(250)));
                    st = guard;
                    continue;
                }
                // Straggler takeover: same batch, same version — whichever
                // push lands first is applied, the other acks stale.
                if dcn_obs::enabled() {
                    dcn_obs::counter(names::PS_BATCHES_REASSIGNED_TOTAL).inc();
                }
            }
            _ => {}
        }
        st.assignment = Some((worker, Instant::now()));
        return ServerMsg::Work {
            epoch: st.epoch as u32,
            batch: st.batch as u32,
            version: st.version,
            params: st.net.export_param_data(),
        };
    }
}

/// Applies a push only if it is for the pending batch at the current
/// version: the exactly-once fence.
fn push_grads(
    shared: &Shared,
    epoch: u32,
    batch: u32,
    version: u64,
    loss: f32,
    grads: &[Vec<f32>],
) -> ServerMsg {
    let mut st = shared.state.lock();
    if st.finished {
        return finished_reply(&st);
    }
    let expected =
        version == st.version && epoch as usize == st.epoch && batch as usize == st.batch;
    if !expected {
        // Stale, duplicate, or replayed after a reassignment: the
        // exactly-once fence rejects it without touching shards.
        if dcn_obs::enabled() {
            dcn_obs::counter(names::PS_BATCHES_STALE_TOTAL).inc();
        }
        return ServerMsg::Ack {
            applied: false,
            version: st.version,
        };
    }
    if let Err(e) = apply(&mut st, loss, grads) {
        return ServerMsg::Error {
            code: e.exit_code().clamp(1, 255) as u8,
            msg: e.to_string(),
        };
    }
    st.assignment = None;
    if st.batch == st.num_batches {
        if let Err(e) = finish_epoch(&mut st) {
            fail(shared, &mut st, e);
            let code = result_code(&st);
            return ServerMsg::Error {
                code,
                msg: "epoch checkpoint failed; run aborted".to_string(),
            };
        }
        if st.epoch == st.cfg.epochs {
            finalize(shared, &mut st);
        }
    }
    shared.cond.notify_all();
    ServerMsg::Ack {
        applied: true,
        version: st.version,
    }
}

/// Applies one gradient batch to the shards; the version advances only on
/// success.
fn apply(st: &mut State, loss: f32, grads: &[Vec<f32>]) -> Result<(), DcnError> {
    let started = dcn_obs::enabled().then(Instant::now);
    let shapes: Vec<Vec<usize>> = st.net.params().iter().map(|p| p.shape().to_vec()).collect();
    if grads.len() != shapes.len() {
        return Err(DcnError::Config(format!(
            "gradient push carries {} tensors, model has {}",
            grads.len(),
            shapes.len()
        )));
    }
    let mut tensors = Vec::with_capacity(grads.len());
    for (flat, shape) in grads.iter().zip(shapes.iter()) {
        let t = Tensor::from_vec(shape.clone(), flat.clone()).map_err(|e| {
            DcnError::Config(format!("gradient tensor does not fit the model: {e}"))
        })?;
        tensors.push(t);
    }
    // Split borrows: move the store out while the net is mutated.
    let mut store = std::mem::replace(&mut st.store, ShardStore::new(1, 1, 0.0));
    let applied = store.apply(&mut st.net, &tensors);
    st.store = store;
    applied?;
    st.version += 1;
    st.batch += 1;
    st.loss_sum += loss;
    if let Some(start) = started {
        dcn_obs::counter(names::PS_BATCHES_APPLIED_TOTAL).inc();
        dcn_obs::sketch(names::PS_APPLY_LATENCY).observe(start.elapsed().as_secs_f64());
    }
    Ok(())
}

/// Closes the current epoch: records the mean loss and writes the sealed
/// shard checkpoint.
fn finish_epoch(st: &mut State) -> Result<(), DcnError> {
    let mean = st.loss_sum / st.num_batches as f32;
    st.epoch_losses.push(mean);
    st.loss_sum = 0.0;
    st.batch = 0;
    st.epoch += 1;
    if dcn_obs::enabled() {
        dcn_obs::counter(names::PS_EPOCHS_TOTAL).inc();
    }
    if let Some(dir) = st.cfg.shard_dir.clone() {
        let (task, n, seed) = (st.cfg.task.clone(), st.cfg.n, st.cfg.seed);
        let (epoch, version) = (st.epoch, st.version);
        let losses = st.epoch_losses.clone();
        st.store
            .checkpoint(&st.net, &dir, &task, n, seed, epoch, version, &losses)?;
    }
    Ok(())
}

/// Declares a worker dead and releases its assignment.
fn mark_dead(shared: &Shared, st: &mut ordered::Guard<'_, State>, worker: u32) {
    let Some(info) = st.workers.get_mut(&worker) else {
        return;
    };
    if !info.alive {
        return;
    }
    info.alive = false;
    st.workers_lost += 1;
    if dcn_obs::enabled() {
        dcn_obs::counter(names::PS_WORKERS_LOST_TOTAL).inc();
    }
    if let Some((assignee, _)) = st.assignment {
        if assignee == worker {
            // Release the batch immediately: a surviving worker takes it
            // over without waiting out the straggler deadline.
            st.assignment = Some((worker, Instant::now() - st.cfg.straggler));
        }
    }
    shared.cond.notify_all();
}

/// Records a failed run and wakes everyone.
fn fail(shared: &Shared, st: &mut ordered::Guard<'_, State>, e: DcnError) {
    if st.finished {
        return;
    }
    st.finished = true;
    st.failure = Some((e.exit_code().clamp(1, 255) as u8, e.to_string()));
    st.result = Some(Err(e));
    shared.done.store(true, Ordering::Relaxed);
    shared.cond.notify_all();
}

fn result_code(st: &State) -> u8 {
    match &st.result {
        Some(Err(e)) => e.exit_code().clamp(1, 255) as u8,
        _ => 1,
    }
}

/// What a finished run tells late-arriving requests: `Shutdown` after
/// success, the typed failure (e.g. a failed checkpoint) after an abort —
/// so every worker exits with the run's real error class, even after `join`
/// already consumed the result.
fn finished_reply(st: &State) -> ServerMsg {
    match &st.failure {
        Some((code, msg)) => ServerMsg::Error {
            code: *code,
            msg: msg.clone(),
        },
        None => ServerMsg::Shutdown,
    }
}

/// Records a successful run: final accuracy, final model save, summary.
fn finalize(shared: &Shared, st: &mut ordered::Guard<'_, State>) {
    if st.finished {
        return;
    }
    let outcome = (|| -> Result<TrainSummary, DcnError> {
        let accuracy = models::accuracy_on(&st.net, &st.test)?;
        if let Some(out) = &st.cfg.out {
            st.net.save(out)?;
        }
        Ok(TrainSummary {
            epoch_losses: st.epoch_losses.clone(),
            accuracy,
            version: st.version,
            workers_lost: st.workers_lost,
        })
    })();
    st.finished = true;
    st.result = Some(outcome);
    shared.done.store(true, Ordering::Relaxed);
    shared.cond.notify_all();
}
