//! The training worker: deterministic gradient computation plus the whole
//! client-side failure surface.
//!
//! A worker dials the server with bounded deterministic retry, handshakes,
//! rebuilds the training world from the [`crate::JobSpec`] scalars, then
//! loops: fetch work, compute the batch gradient exactly as
//! `Trainer::fit_resumable` would, push it, and obey the server's verdict.
//! Every socket operation is hooked for the `dcn-fault` network injectors
//! (`ps.conn.*`), and a dropped session is survived by reconnecting — the
//! BSP determinism contract makes recomputed work bit-identical, so
//! retrying is always safe.

use std::io::{BufReader, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dcn_core::wire::{read_frame, write_frame, MAX_FRAME};
use dcn_core::DcnError;
use dcn_fault::RetryPolicy;
use dcn_nn::{softmax_cross_entropy, Network};
use dcn_tensor::Tensor;

use crate::protocol::{decode_server, encode_client, ClientMsg, JobSpec, ServerMsg};
use crate::setup::{bsp_epoch_order, build_job};
use crate::names;

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// This worker's id, `0..workers`.
    pub worker: u32,
    /// Respawn generation; the orchestrator bumps it on every restart.
    pub incarnation: u32,
    /// Bounded deterministic retry for dialing and re-dialing.
    pub retry: RetryPolicy,
    /// Full reconnect cycles allowed after an established session drops.
    pub reconnects: u32,
    /// Test hook: exit abruptly (socket dropped) after this many applied
    /// pushes, simulating a crash.
    pub die_after_pushes: Option<u64>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            addr: "127.0.0.1:0".to_string(),
            worker: 0,
            incarnation: 0,
            retry: RetryPolicy {
                attempts: 5,
                base_delay: Duration::from_millis(20),
                max_delay: Duration::from_millis(200),
                jitter_seed: 0x9e37_79b9,
            },
            reconnects: 4,
            die_after_pushes: None,
        }
    }
}

/// The training world a worker caches across reconnects: rebuilding the
/// dataset and unstacking every example is the expensive part of a respawn,
/// and it depends only on the job spec.
struct World {
    spec: JobSpec,
    examples: Vec<Tensor>,
    labels: Vec<usize>,
    net: Network,
}

/// A live framed session with the server.
struct Session {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn io_err(site: &str, e: &std::io::Error) -> DcnError {
    DcnError::Io {
        site: site.to_string(),
        kind: e.kind(),
        msg: e.to_string(),
    }
}

impl Session {
    /// Dials the server with bounded deterministic retry; each attempt is
    /// hooked for injected connect-refusals.
    fn dial(cfg: &WorkerConfig) -> Result<TcpStream, DcnError> {
        dcn_fault::retry("ps.conn.dial_retry", &cfg.retry, |_attempt| {
            if let Some(e) = dcn_fault::maybe_connect_refused("ps.conn.dial") {
                return Err(io_err("ps.conn.dial", &e));
            }
            TcpStream::connect(&cfg.addr).map_err(|e| io_err("ps.conn.dial", &e))
        })
        .map_err(|e| match e {
            DcnError::Io { kind, msg, .. } => DcnError::PeerLost {
                peer: cfg.addr.clone(),
                msg: format!("{kind:?}: {msg}"),
            },
            other => other,
        })
    }

    fn open(cfg: &WorkerConfig) -> Result<Session, DcnError> {
        let stream = Self::dial(cfg)?;
        let _ = stream.set_nodelay(true);
        let writer = stream
            .try_clone()
            .map_err(|e| io_err("ps.conn.clone", &e))?;
        Ok(Session {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one frame, first consulting the reset injector.
    fn send(&mut self, msg: &ClientMsg) -> Result<(), DcnError> {
        if let Some(e) = dcn_fault::maybe_conn_reset("ps.conn.send") {
            return Err(io_err("ps.conn.send_reset", &e));
        }
        write_frame(&mut self.writer, &encode_client(msg))
            .map_err(|e| io_err("ps.conn.send", &e))
    }

    /// Receives one server frame. Injected resets and short reads surface
    /// as `Io` errors, which the reconnect loop treats as a dead session.
    fn recv(&mut self) -> Result<ServerMsg, DcnError> {
        if let Some(e) = dcn_fault::maybe_conn_reset("ps.conn.recv") {
            return Err(io_err("ps.conn.recv_reset", &e));
        }
        if let Some(cap) = dcn_fault::short_read_cap("ps.conn.short_read") {
            // Consume up to `cap` bytes and tear the stream: the frame can
            // no longer be completed, so the session must be re-dialed.
            let mut sink = vec![0u8; cap.min(MAX_FRAME)];
            let _ = self.reader.read(&mut sink);
            return Err(DcnError::Io {
                site: "ps.conn.short_read_err".to_string(),
                kind: std::io::ErrorKind::UnexpectedEof,
                msg: format!("injected short read after {cap} bytes"),
            });
        }
        match read_frame(&mut self.reader)? {
            Some(payload) => decode_server(&payload),
            None => Err(DcnError::Io {
                site: "ps.conn.closed".to_string(),
                kind: std::io::ErrorKind::UnexpectedEof,
                msg: "server closed the connection".to_string(),
            }),
        }
    }

    fn roundtrip(&mut self, msg: &ClientMsg) -> Result<ServerMsg, DcnError> {
        self.send(msg)?;
        self.recv()
    }
}

/// Maps a server `Error` frame back into the typed error it encodes.
fn server_error(code: u8, msg: String) -> DcnError {
    match code {
        2 => DcnError::Config(msg),
        4 => DcnError::Corrupt(msg),
        5 => DcnError::NonFinite(msg),
        7 => DcnError::PeerLost {
            peer: "server".to_string(),
            msg,
        },
        _ => DcnError::Config(format!("server error {code}: {msg}")),
    }
}

/// Runs one worker to completion against the server at `cfg.addr`.
///
/// Returns `Ok(())` when the server sent `Shutdown` (run complete) or the
/// `die_after_pushes` test hook fired. A dropped session is retried up to
/// `cfg.reconnects` times before the server is declared lost.
///
/// # Errors
///
/// [`DcnError::PeerLost`] when the server stays unreachable through the
/// bounded retry budget; typed server errors are passed through.
pub fn run_worker(cfg: &WorkerConfig) -> Result<(), DcnError> {
    let mut world: Option<World> = None;
    let mut pushes_done = 0u64;
    let mut reconnects_left = cfg.reconnects;
    loop {
        match run_session(cfg, &mut world, &mut pushes_done) {
            Ok(()) => return Ok(()),
            Err(DcnError::Io { .. }) if reconnects_left > 0 => {
                // The session died under us (injected reset, short read,
                // server restart): re-dial and resume. BSP recomputation is
                // bitwise-identical, so nothing can be double-applied.
                reconnects_left -= 1;
                if dcn_obs::enabled() {
                    dcn_obs::counter(names::PS_WORKER_RECONNECTS_TOTAL).inc();
                }
            }
            Err(DcnError::Io { site, kind, msg }) => {
                return Err(DcnError::PeerLost {
                    peer: cfg.addr.clone(),
                    msg: format!("{site} ({kind:?}) after bounded reconnects: {msg}"),
                })
            }
            Err(other) => return Err(other),
        }
    }
}

/// One connected session: handshake, then the work loop. Returns `Ok(())`
/// only on an orderly shutdown.
fn run_session(
    cfg: &WorkerConfig,
    world: &mut Option<World>,
    pushes_done: &mut u64,
) -> Result<(), DcnError> {
    let mut session = Session::open(cfg)?;
    let hello = ClientMsg::Hello {
        worker: cfg.worker,
        incarnation: cfg.incarnation,
    };
    let spec = match session.roundtrip(&hello)? {
        ServerMsg::Welcome(spec) => spec,
        ServerMsg::Error { code, msg } => return Err(server_error(code, msg)),
        other => {
            return Err(DcnError::Corrupt(format!(
                "expected Welcome, got {}",
                other.kind_name()
            )))
        }
    };
    if world.as_ref().is_none_or(|w| w.spec != spec) {
        let job = build_job(&spec.task, spec.n as usize, spec.seed)?;
        let examples = job.train.images().unstack()?;
        let labels = job.train.labels().to_vec();
        *world = Some(World {
            spec,
            examples,
            labels,
            net: job.net,
        });
    }
    let Some(world) = world.as_mut() else {
        return Err(DcnError::Config("world cache empty after rebuild".to_string()));
    };
    bsp_loop(cfg, world, &mut session, pushes_done)
}

/// Computes the gradient of global batch `(epoch, batch)` over `order`,
/// exactly as one `fit_resumable` step: stack, forward, softmax-CE,
/// backward. Returns the per-tensor flat gradients and the batch loss.
fn compute_batch(
    world: &World,
    order: &[usize],
    batch: usize,
) -> Result<(Vec<Vec<f32>>, f32), DcnError> {
    let started = dcn_obs::enabled().then(Instant::now);
    let bs = world.spec.batch_size as usize;
    let Some(chunk) = order.chunks(bs.max(1)).nth(batch) else {
        return Err(DcnError::Config(format!(
            "batch {batch} out of range for {} examples",
            order.len()
        )));
    };
    let stacked: Vec<Tensor> = chunk.iter().map(|&i| world.examples[i].clone()).collect();
    let bx = Tensor::stack(&stacked)?;
    let bl: Vec<usize> = chunk.iter().map(|&i| world.labels[i]).collect();
    let (logits, caches) = world.net.forward_train(&bx)?;
    let loss_out = softmax_cross_entropy(&logits, &bl, 1.0)?;
    let (_, grads) = world.net.backward(&loss_out.grad, &caches)?;
    let flats: Vec<Vec<f32>> = grads.iter().map(|g| g.data().to_vec()).collect();
    if let Some(start) = started {
        dcn_obs::sketch(names::PS_COMPUTE_LATENCY).observe(start.elapsed().as_secs_f64());
    }
    Ok((flats, loss_out.loss))
}

/// BSP: ask for the pending global batch, compute it on the server's
/// parameter snapshot, push, repeat until `Shutdown`.
fn bsp_loop(
    cfg: &WorkerConfig,
    world: &mut World,
    session: &mut Session,
    pushes_done: &mut u64,
) -> Result<(), DcnError> {
    let n = world.spec.n as usize;
    let seed = world.spec.seed;
    loop {
        let work = ClientMsg::GetWork { worker: cfg.worker };
        let (epoch, batch, version, params) = match session.roundtrip(&work)? {
            ServerMsg::Work {
                epoch,
                batch,
                version,
                params,
            } => (epoch, batch, version, params),
            ServerMsg::Shutdown => return Ok(()),
            ServerMsg::Error { code, msg } => return Err(server_error(code, msg)),
            other => {
                return Err(DcnError::Corrupt(format!(
                    "expected Work, got {}",
                    other.kind_name()
                )))
            }
        };
        world.net.import_param_data(&params)?;
        let order = bsp_epoch_order(n, seed, epoch as usize);
        let (grads, loss) = compute_batch(world, &order, batch as usize)?;
        let push = ClientMsg::PushGrads {
            worker: cfg.worker,
            epoch,
            batch,
            version,
            loss,
            grads,
        };
        match session.roundtrip(&push)? {
            ServerMsg::Ack { applied, .. } => {
                if applied {
                    *pushes_done += 1;
                    if cfg.die_after_pushes.is_some_and(|cap| *pushes_done >= cap) {
                        // Crash hook: vanish mid-run; the server's
                        // liveness layer must notice and reassign.
                        return Ok(());
                    }
                }
            }
            ServerMsg::Shutdown => return Ok(()),
            ServerMsg::Error { code, msg } => return Err(server_error(code, msg)),
            other => {
                return Err(DcnError::Corrupt(format!(
                    "expected Ack, got {}",
                    other.kind_name()
                )))
            }
        }
    }
}
