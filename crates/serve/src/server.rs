//! The TCP server: acceptor, per-connection readers, and the batcher.
//!
//! # Thread structure
//!
//! ```text
//! acceptor ── spawns ──▶ reader (one per connection)
//!                          │  decode → admission control → queue
//!                          ▼
//!                    BoundedQueue<Job>
//!                          │  pop_batch(max_batch)
//!                          ▼
//!                       batcher ── Dcn::try_classify_batch ──▶ per-conn writer
//! ```
//!
//! Each connection gets its own reader thread, so a client that stalls
//! mid-frame blocks only its own connection — every other request keeps
//! flowing through the queue and batcher (pinned by the latency-injection
//! test in `tests/serving.rs`).
//!
//! # Batcher state machine
//!
//! The batcher is a two-state loop: **drain** — take up to `max_batch`
//! queued jobs (blocking only when the queue is empty; it never waits to
//! fill a batch, so an idle server answers a lone request immediately) —
//! then **execute** — one [`Dcn::try_classify_batch`] call for the whole
//! batch, then write each response on its request's connection. A dead
//! client's write error is swallowed: it must not poison the batch's other
//! responses. The loop exits when the queue reports closed-and-drained.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dcn_obs::ordered;
use std::thread::JoinHandle;
use std::time::Instant;

use dcn_core::{BatchRequest, Dcn, DcnError};

use crate::admin;
use crate::names;
use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, ErrResponse, OkResponse, Response,
    WireMode,
};
use crate::queue::{Admission, BoundedQueue};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port `0` to let the OS pick (tests).
    pub addr: String,
    /// Wire encoding for every connection.
    pub mode: WireMode,
    /// Most requests coalesced into one `try_classify_batch` call.
    pub max_batch: usize,
    /// Bounded queue capacity — requests beyond it are rejected with
    /// [`DcnError::Overloaded`] (exit code 6).
    pub queue_capacity: usize,
    /// Queue depth at which admitted requests are shed to a degraded base
    /// prediction. Set `>= queue_capacity` to disable shedding.
    pub shed_mark: usize,
    /// Worker-thread override for the batched forwards
    /// ([`dcn_tensor::par::configure`]); `None` keeps the ambient
    /// `DCN_THREADS` configuration.
    pub threads: Option<usize>,
    /// Bind address for the line-JSON admin endpoint (`snapshot`, `health`,
    /// `trace <id>`, …); `None` disables it. The admin plane runs on its
    /// own listener and threads, so it stays responsive while the data
    /// plane is saturated — and can never block it.
    pub admin_addr: Option<String>,
    /// Where flight-recorder dumps (`FLIGHT_<ts>.json`) land; `None` means
    /// the observability export directory (`DCN_OBS_DIR` or `results/`).
    pub flight_dir: Option<PathBuf>,
    /// Expected steady-state detector flag rate, the center of the admin
    /// endpoint's drift alarm.
    pub drift_baseline: f64,
    /// How far the sliding-window flag rate may stray from the baseline
    /// before `health` raises `drift_alarm`. The default `1.0` can never
    /// trip (rates live in `[0, 1]`) — the alarm is opt-in.
    pub drift_tolerance: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            mode: WireMode::Binary,
            max_batch: 16,
            queue_capacity: 64,
            shed_mark: 48,
            threads: None,
            admin_addr: None,
            flight_dir: None,
            drift_baseline: 0.0,
            drift_tolerance: 1.0,
        }
    }
}

/// One admitted request waiting for the batcher. The request's trace id
/// (0 when untraced) rides inside `req.trace`; `wait` is the tracing
/// clock opened at admission, closed by the batcher as the
/// `trace.enqueue_wait` span.
struct Job {
    id: u64,
    req: BatchRequest,
    enqueued: Instant,
    wait: dcn_obs::StageClock,
    conn: Arc<Conn>,
}

/// Flight-recorder dump policy shared by the data plane, the admin plane,
/// and shutdown. Overload and error dumps fire at most once per server
/// lifetime — the first incident is the interesting one, and a storm of
/// rejections must not become a storm of disk writes.
pub(crate) struct FlightState {
    dir: Option<PathBuf>,
    overload_dumped: AtomicBool,
    error_dumped: AtomicBool,
}

impl FlightState {
    pub(crate) fn new(dir: Option<PathBuf>) -> FlightState {
        FlightState {
            dir,
            overload_dumped: AtomicBool::new(false),
            error_dumped: AtomicBool::new(false),
        }
    }

    fn dir(&self) -> PathBuf {
        self.dir
            .clone()
            .unwrap_or_else(dcn_obs::default_export_dir)
    }

    /// Dumps the flight recorder unconditionally (shutdown, admin `dump`).
    /// Returns the artifact path, or `None` when the recorder is disabled
    /// or the write failed — a post-mortem must never take the server down.
    pub(crate) fn dump(&self, reason: &str) -> Option<PathBuf> {
        dcn_fault::dump_flight(self.dir(), reason).ok().flatten()
    }

    fn dump_once(&self, gate: &AtomicBool, reason: &str) {
        if dcn_obs::recorder_enabled() && !gate.swap(true, Ordering::Relaxed) {
            let _ = self.dump(reason);
        }
    }

    fn on_overload(&self, reason: &str) {
        self.dump_once(&self.overload_dumped, reason);
    }

    fn on_error(&self, reason: &str) {
        self.dump_once(&self.error_dumped, reason);
    }
}

/// The write half of a connection. All response writes go through
/// [`Conn::send`] — the single fault-injection point for the write path.
struct Conn {
    stream: ordered::Mutex<TcpStream>,
    mode: WireMode,
}

impl Conn {
    /// Encodes and writes one response frame. Errors are returned, not
    /// panicked — callers on the batcher path swallow them so one dead
    /// client cannot take down the batch.
    fn send(&self, resp: &Response) -> Result<(), DcnError> {
        let payload = encode_response(resp, self.mode)?;
        let mut stream = self.stream.lock();
        let injected = dcn_fault::maybe_io_error("serve.conn.write");
        injected
            .map_or_else(|| write_frame(&mut *stream, &payload, self.mode), Err)
            .map_err(|e| DcnError::Io {
                site: "serve.conn.write_frame".to_string(),
                kind: e.kind(),
                msg: e.to_string(),
            })
    }
}

/// A running serving engine. Dropping without [`Server::shutdown`] leaves
/// daemon threads behind; call `shutdown` for an orderly stop.
pub struct Server {
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    queue: Arc<BoundedQueue<Job>>,
    shutdown: Arc<AtomicBool>,
    conns: Arc<ordered::Mutex<Vec<TcpStream>>>,
    flight: Arc<FlightState>,
    acceptor: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
    admin: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and batcher, and returns immediately.
    ///
    /// # Errors
    ///
    /// [`DcnError::Io`] when the bind fails, [`DcnError::Config`] for a
    /// degenerate configuration.
    pub fn start(dcn: Arc<Dcn>, config: ServerConfig) -> Result<Server, DcnError> {
        if config.max_batch == 0 || config.queue_capacity == 0 {
            return Err(DcnError::Config(
                "max_batch and queue_capacity must be at least 1".to_string(),
            ));
        }
        if let Some(threads) = config.threads {
            dcn_tensor::par::configure(dcn_tensor::par::ParConfig::with_threads(threads));
        }
        let listener = TcpListener::bind(&config.addr).map_err(|e| DcnError::Io {
            site: "serve.listen".to_string(),
            kind: e.kind(),
            msg: format!("{}: {e}", config.addr),
        })?;
        let addr = listener.local_addr().map_err(|e| DcnError::Io {
            site: "serve.listen.local_addr".to_string(),
            kind: e.kind(),
            msg: e.to_string(),
        })?;
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity, config.shed_mark));
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(ordered::Mutex::new(Vec::new(), "serve.conns"));
        let flight = Arc::new(FlightState::new(config.flight_dir.clone()));

        let (admin_addr, admin) = match &config.admin_addr {
            Some(bind) => {
                let (local, handle) = admin::spawn(
                    bind,
                    Arc::clone(&queue),
                    Arc::clone(&shutdown),
                    admin::AdminConfig {
                        drift_baseline: config.drift_baseline,
                        drift_tolerance: config.drift_tolerance,
                        flight: Arc::clone(&flight),
                    },
                )?;
                (Some(local), Some(handle))
            }
            None => (None, None),
        };
        let batcher = {
            let queue = Arc::clone(&queue);
            let flight = Arc::clone(&flight);
            let max_batch = config.max_batch;
            std::thread::spawn(move || batcher_loop(&dcn, &queue, max_batch, &flight))
        };
        let acceptor = {
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let flight = Arc::clone(&flight);
            let mode = config.mode;
            std::thread::spawn(move || {
                acceptor_loop(&listener, &queue, &shutdown, &conns, mode, &flight);
            })
        };
        Ok(Server {
            addr,
            admin_addr,
            queue,
            shutdown,
            conns,
            flight,
            acceptor: Some(acceptor),
            batcher: Some(batcher),
            admin,
        })
    }

    /// The bound address (the OS-assigned port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admin endpoint's bound address, when one was configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// Current admission-queue depth.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Pauses or resumes the batcher's queue consumption (admission control
    /// keeps running) — the deterministic lever behind the backpressure
    /// tests, and an operational drain valve.
    pub fn set_paused(&self, paused: bool) {
        self.queue.set_paused(paused);
    }

    /// Orderly stop: refuse new connections and requests, answer what is
    /// already queued, close every connection, join the threads.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // Unblock readers parked in read_frame.
        let conns = self.conns.lock();
        for c in conns.iter() {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        drop(conns);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        // The batcher has drained: every in-flight request's verdict is in
        // the ring, so the shutdown dump is the complete final record.
        dcn_obs::record_event("shutdown", 0, 0, "orderly");
        let _ = self.flight.dump("shutdown");
        if let Some(h) = self.admin.take() {
            if let Some(admin_addr) = self.admin_addr {
                // Unblock the admin acceptor with a throwaway connection.
                let _ = TcpStream::connect(admin_addr);
            }
            let _ = h.join();
        }
    }
}

fn acceptor_loop(
    listener: &TcpListener,
    queue: &Arc<BoundedQueue<Job>>,
    shutdown: &Arc<AtomicBool>,
    conns: &Arc<ordered::Mutex<Vec<TcpStream>>>,
    mode: WireMode,
    flight: &Arc<FlightState>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Responses are small frames: without this each one waits on the
        // client's delayed ACK (Nagle) before it leaves the socket.
        let _ = stream.set_nodelay(true);
        if dcn_obs::enabled() {
            dcn_obs::counter(names::SERVE_CONNECTIONS_TOTAL).inc();
        }
        if let Ok(registered) = stream.try_clone() {
            conns.lock().push(registered);
        }
        let queue = Arc::clone(queue);
        let shutdown = Arc::clone(shutdown);
        let flight = Arc::clone(flight);
        std::thread::spawn(move || reader_loop(stream, &queue, &shutdown, mode, &flight));
    }
}

/// One connection's read loop: decode, admit, hand to the batcher. Returns
/// when the client closes, the stream tears, or the server shuts down.
fn reader_loop(
    stream: TcpStream,
    queue: &Arc<BoundedQueue<Job>>,
    shutdown: &Arc<AtomicBool>,
    mode: WireMode,
    flight: &Arc<FlightState>,
) {
    let conn = match stream.try_clone() {
        Ok(write_half) => Arc::new(Conn {
            stream: ordered::Mutex::new(write_half, "serve.conn.stream"),
            mode,
        }),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    while !shutdown.load(Ordering::SeqCst) {
        if let Some(e) = dcn_fault::maybe_io_error("serve.conn.read") {
            let _ = conn.send(&error_response(0, &DcnError::Io {
                site: "serve.conn.read_frame".to_string(),
                kind: e.kind(),
                msg: e.to_string(),
            }));
            return;
        }
        let payload = match read_frame(&mut reader, mode) {
            Ok(Some(payload)) => payload,
            // Clean EOF between frames: the client hung up.
            Ok(None) => return,
            // Torn frame or hostile length prefix: answer best-effort, then
            // close — the stream cannot be resynchronized.
            Err(e) => {
                let _ = conn.send(&error_response(0, &e));
                return;
            }
        };
        let request = match decode_request(&payload, mode) {
            Ok(request) => request,
            // The framing was intact, only the payload was malformed: tell
            // the client and keep the connection.
            Err(e) => {
                let _ = conn.send(&error_response(0, &e));
                continue;
            }
        };
        let id = request.id;
        // A client-supplied nonzero trace id wins; otherwise the server
        // mints one when tracing is on. The id rides the queue inside
        // `BatchRequest::trace` and is never echoed in responses.
        let trace_id = if dcn_obs::trace_enabled() {
            let t = if request.trace != 0 {
                request.trace
            } else {
                dcn_obs::mint_trace_id()
            };
            dcn_obs::trace_start(t, id);
            t
        } else {
            0
        };
        let wait = dcn_obs::stage_clock();
        let conn_for_job = Arc::clone(&conn);
        // The admission verdict travels inside the job: `push_with` hands
        // it to the constructor under the queue lock, so the batcher sees
        // exactly what admission control decided.
        match queue.push_with(|admission| Job {
            id,
            req: BatchRequest {
                x: request.x,
                seed: request.seed,
                budget: request.budget,
                shed: admission == Admission::Shed,
                trace: trace_id,
            },
            enqueued: Instant::now(),
            wait,
            conn: conn_for_job,
        }) {
            Ok(admission) => {
                if dcn_obs::enabled() {
                    dcn_obs::counter(names::SERVE_REQUESTS_TOTAL).inc();
                    if admission == Admission::Shed {
                        dcn_obs::counter(names::SERVE_SHED_TOTAL).inc();
                    }
                }
            }
            Err(e) => {
                if dcn_obs::enabled() {
                    dcn_obs::counter(names::SERVE_REJECTED_TOTAL).inc();
                }
                let msg = e.to_string();
                dcn_obs::record_event("rejected", trace_id, id, &msg);
                dcn_obs::trace_finish(trace_id, "rejected");
                if matches!(e, DcnError::Overloaded { .. }) {
                    flight.on_overload(&msg);
                }
                let _ = conn.send(&error_response(id, &e));
            }
        }
    }
}

fn batcher_loop(
    dcn: &Arc<Dcn>,
    queue: &Arc<BoundedQueue<Job>>,
    max_batch: usize,
    flight: &Arc<FlightState>,
) {
    loop {
        let jobs = queue.pop_batch(max_batch);
        if jobs.is_empty() {
            // Closed and drained.
            return;
        }
        if dcn_obs::enabled() {
            dcn_obs::counter(names::SERVE_BATCHES_TOTAL).inc();
            dcn_obs::sketch(names::SERVE_BATCH_OCCUPANCY).observe(jobs.len() as f64);
        }
        // Every enqueue-wait span closes before the batch-assembly clock
        // opens, so a trace's stages never overlap.
        for job in &jobs {
            dcn_obs::stage_end(
                job.wait,
                job.req.trace,
                dcn_obs::names::TRACE_STAGE_ENQUEUE_WAIT,
            );
        }
        let assembly = dcn_obs::stage_clock();
        let mut requests = Vec::with_capacity(jobs.len());
        let mut metas = Vec::with_capacity(jobs.len());
        for job in jobs {
            metas.push((job.id, job.req.shed, job.req.trace, job.enqueued, job.conn));
            requests.push(job.req);
        }
        if dcn_obs::trace_enabled() {
            let traced: Vec<u64> = metas.iter().map(|m| m.2).collect();
            dcn_obs::stage_end_many(
                assembly,
                &traced,
                dcn_obs::names::TRACE_STAGE_BATCH_ASSEMBLY,
            );
        }
        let results = dcn.try_classify_batch(&requests);
        for ((id, shed, trace, enqueued, conn), result) in metas.into_iter().zip(results) {
            let write = dcn_obs::stage_clock();
            let (response, outcome) = match result {
                Ok(report) => (
                    Response::Ok(OkResponse {
                        id,
                        label: report.label,
                        verdict: report.verdict,
                        base_passes: report.base_passes,
                        degraded: report.degraded,
                        shed,
                    }),
                    if shed { "shed" } else { "ok" },
                ),
                Err(e) => {
                    let msg = e.to_string();
                    dcn_obs::record_event("error", trace, id, &msg);
                    flight.on_error(&msg);
                    (error_response(id, &e), "error")
                }
            };
            if dcn_obs::enabled() {
                dcn_obs::counter(names::SERVE_RESPONSES_TOTAL).inc();
                dcn_obs::sketch(names::SERVE_REQUEST_LATENCY)
                    .observe(enqueued.elapsed().as_secs_f64());
            }
            // A dead client's response is dropped; its neighbors still get
            // theirs.
            let _ = conn.send(&response);
            dcn_obs::stage_end(write, trace, dcn_obs::names::TRACE_STAGE_WRITE_BACK);
            dcn_obs::trace_finish(trace, outcome);
            if outcome != "error" && trace != 0 {
                dcn_obs::record_event("response", trace, id, outcome);
            }
        }
    }
}

fn error_response(id: u64, e: &DcnError) -> Response {
    Response::Err(ErrResponse {
        id,
        code: e.exit_code().clamp(1, 255) as u8,
        msg: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_connections_disable_nagle() {
        let dcn = Arc::new(crate::bench::demo_dcn(11, 4).unwrap());
        let server = Server::start(dcn, ServerConfig::default()).unwrap();
        let mut client =
            crate::Client::connect(&server.addr().to_string(), WireMode::Binary).unwrap();
        // An answer means the acceptor has registered the connection: it
        // pushes to `conns` before it spawns the reader.
        let x = crate::bench::demo_inputs(1, 11).unwrap().remove(0);
        let request = crate::Request {
            id: 1,
            seed: 1,
            budget: dcn_core::VoteBudget::unbounded(),
            trace: 0,
            x,
        };
        assert!(matches!(client.classify(&request), Ok(Response::Ok(_))));
        let nodelay: Vec<bool> = server
            .conns
            .lock()
            .iter()
            .map(|c| c.nodelay().unwrap_or(false))
            .collect();
        server.shutdown();
        assert_eq!(nodelay, vec![true]);
    }
}
