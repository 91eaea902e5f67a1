//! Admin-plane and telemetry integration tests, over real TCP sockets:
//!
//! * **Non-blocking admin** — `snapshot` and `health` answer promptly
//!   while the batcher is paused and the admission queue is full: the
//!   admin plane shares no lock with the data plane.
//! * **Non-interference** — with tracing on, an 8-client run returns
//!   answers bitwise-identical to the same run with tracing off, and the
//!   recorded span trees are bounded by each request's wall clock.
//! * **Flight recorder** — driving the queue to `Overloaded` leaves a
//!   sealed, schema-valid `FLIGHT_<ts>.json` post-mortem embedding the
//!   offending request's trace.
//! * **Bounded command lines** — an admin line longer than `MAX_FRAME`
//!   closes its connection instead of growing the server's buffer, and the
//!   admin plane keeps answering new connections.
//!
//! Tracing, metric collection, and the recorder are process globals, so
//! every test here serializes on one lock and restores the toggles.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex, PoisonError};
use std::time::Duration;

use dcn_serve::bench::{demo_dcn, demo_inputs};
use dcn_serve::{Client, Request, Response, Server, ServerConfig, WireMode, MAX_FRAME};

static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

/// Serializes a test against the process-global obs/trace toggles and
/// restores a clean slate afterwards.
fn with_globals<T>(f: impl FnOnce() -> T) -> T {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let out = f();
    dcn_obs::set_trace_enabled(false);
    dcn_obs::set_enabled(false);
    dcn_obs::reset_traces();
    dcn_obs::reset_recorder();
    dcn_obs::reset();
    out
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dcn_serve_admin_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One admin connection speaking the line protocol with a read deadline:
/// a blocked admin plane fails the test instead of hanging it.
struct AdminProbe {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl AdminProbe {
    fn connect(addr: std::net::SocketAddr) -> AdminProbe {
        let stream = TcpStream::connect(addr).expect("admin connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let writer = stream.try_clone().expect("admin write half");
        AdminProbe {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn command(&mut self, cmd: &str) -> String {
        self.writer
            .write_all(format!("{cmd}\n").as_bytes())
            .expect("admin write");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("admin reply");
        assert!(!line.is_empty(), "admin closed on {cmd:?}");
        line.trim().to_string()
    }
}

fn traced_config(flight_dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        admin_addr: Some("127.0.0.1:0".to_string()),
        flight_dir: Some(flight_dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

fn run_clients(addr: &str, clients: usize, per_client: usize) -> Vec<Response> {
    let inputs = Arc::new(demo_inputs(30, 11).expect("demo inputs"));
    let barrier = Arc::new(Barrier::new(clients));
    let collected: Arc<Mutex<Vec<Response>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let addr = addr.to_string();
        let inputs = Arc::clone(&inputs);
        let barrier = Arc::clone(&barrier);
        let collected = Arc::clone(&collected);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr, WireMode::Binary).expect("connect");
            barrier.wait();
            for i in 0..per_client {
                let global = (c * per_client + i) as u64;
                let req = Request::new(
                    global + 1,
                    4000 + global,
                    inputs[(global as usize) % inputs.len()].clone(),
                );
                let resp = client.classify(&req).expect("classify");
                collected
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(resp);
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    let mut responses = Arc::try_unwrap(collected)
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .unwrap_or_default();
    // Responses arrive in interleaving-dependent order; ids are unique.
    responses.sort_by_key(|r| match r {
        Response::Ok(ok) => ok.id,
        Response::Err(e) => e.id,
    });
    responses
}

#[test]
fn admin_answers_while_the_batcher_is_saturated() {
    with_globals(|| {
        let dir = temp_dir("saturated");
        let dcn = Arc::new(demo_dcn(11, 8).expect("demo dcn"));
        let server = Server::start(
            Arc::clone(&dcn),
            ServerConfig {
                max_batch: 4,
                queue_capacity: 4,
                shed_mark: 4,
                ..traced_config(&dir)
            },
        )
        .expect("server start");
        let admin_addr = server.admin_addr().expect("admin addr");

        // Freeze the batcher and fill the queue to capacity: the data
        // plane is now as stuck as it can get.
        server.set_paused(true);
        let inputs = demo_inputs(8, 11).expect("demo inputs");
        let mut client =
            Client::connect(&server.addr().to_string(), WireMode::Binary).expect("connect");
        for i in 0..4u64 {
            client
                .send(&Request::new(i + 1, 3000 + i, inputs[i as usize].clone()))
                .expect("pipelined send");
        }
        let mut waited = 0;
        while server.queue_len() < 4 && waited < 200 {
            std::thread::sleep(Duration::from_millis(10));
            waited += 1;
        }
        assert_eq!(server.queue_len(), 4, "queue must sit at capacity");

        // The admin plane must answer anyway — within the probe's read
        // deadline, without touching the stuck consumer side.
        let mut probe = AdminProbe::connect(admin_addr);
        assert_eq!(probe.command("ping"), "{\"ok\": true}");
        let health = probe.command("health");
        assert!(health.contains("\"queue_depth\": 4"), "{health}");
        assert!(health.contains("\"queue_capacity\": 4"), "{health}");
        assert!(health.contains("\"drift_alarm\": false"), "{health}");
        let snapshot = probe.command("snapshot");
        assert!(snapshot.starts_with('{') && snapshot.ends_with('}'), "{snapshot}");
        assert!(snapshot.contains("\"counters\""), "{snapshot}");
        assert!(snapshot.contains("\"sketches\""), "{snapshot}");
        let err = probe.command("trace 999999");
        assert!(err.contains("\"ok\": false"), "{err}");

        // The data plane was only paused, never wedged: everything queued
        // still gets answered.
        server.set_paused(false);
        for _ in 0..4 {
            match client.recv().expect("served frame") {
                Response::Ok(_) => {}
                Response::Err(e) => panic!("request {} failed: {}", e.id, e.msg),
            }
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    });
}

#[test]
fn tracing_never_changes_answers_and_spans_fit_the_wall_clock() {
    with_globals(|| {
        let dir = temp_dir("bitwise");
        let dcn = Arc::new(demo_dcn(11, 24).expect("demo dcn"));

        // Leg 1: tracing off.
        dcn_obs::set_trace_enabled(false);
        let server = Server::start(Arc::clone(&dcn), traced_config(&dir)).expect("server start");
        let baseline = run_clients(&server.addr().to_string(), 8, 6);
        server.shutdown();

        // Leg 2: tracing on — identical requests, identical answers.
        dcn_obs::set_trace_enabled(true);
        dcn_obs::reset_traces();
        dcn_obs::reset_recorder();
        let server = Server::start(Arc::clone(&dcn), traced_config(&dir)).expect("server start");
        let started = std::time::Instant::now();
        let traced = run_clients(&server.addr().to_string(), 8, 6);

        assert_eq!(baseline.len(), 48);
        assert_eq!(
            baseline, traced,
            "tracing must be invisible in every response byte"
        );

        // A client sees its response before the batcher finishes the
        // trace (the write-back span covers the socket write), so give
        // the last finishes a moment to land before counting — and stop
        // the wall clock only afterwards, so it bounds every trace.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let records = loop {
            let records = dcn_obs::completed_traces();
            if records.len() >= 48 || std::time::Instant::now() > deadline {
                break records;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let wall_ns = started.elapsed().as_nanos() as u64;
        assert_eq!(records.len(), 48, "one trace per request");
        let mut saw_vote_loop = false;
        for rec in &records {
            assert_eq!(rec.outcome, "ok", "trace {}", rec.trace_id);
            assert!(!rec.stages.is_empty(), "trace {} has no spans", rec.trace_id);
            assert!(
                rec.stage_sum_ns() <= rec.total_ns,
                "trace {}: stages sum to {} ns > total {} ns",
                rec.trace_id,
                rec.stage_sum_ns(),
                rec.total_ns
            );
            assert!(rec.total_ns <= wall_ns, "trace {} outlives the run", rec.trace_id);
            for pair in rec.stages.windows(2) {
                assert!(
                    pair[0].start_ns + pair[0].dur_ns <= pair[1].start_ns,
                    "trace {}: {} overlaps {}: {:?}",
                    rec.trace_id,
                    pair[0].name,
                    pair[1].name,
                    rec.stages
                );
            }
            let names: Vec<&str> = rec.stages.iter().map(|s| s.name).collect();
            assert!(names.contains(&"trace.enqueue_wait"), "{names:?}");
            assert!(names.contains(&"trace.batch_assembly"), "{names:?}");
            assert!(names.contains(&"trace.detector_forward"), "{names:?}");
            assert!(names.contains(&"trace.write_back"), "{names:?}");
            saw_vote_loop |= names.contains(&"trace.vote_loop");
        }
        assert!(
            saw_vote_loop,
            "the demo pool includes detector-prone inputs: some trace must cross the vote loop"
        );

        // The admin endpoint serves the same span tree by id, and the
        // Chrome export covers every trace.
        let admin_addr = server.admin_addr().expect("admin addr");
        let mut probe = AdminProbe::connect(admin_addr);
        let sample = &records[0];
        let reply = probe.command(&format!("trace {}", sample.trace_id));
        assert!(
            reply.contains(&format!("\"trace_id\": {}", sample.trace_id)),
            "{reply}"
        );
        assert!(reply.contains("trace.enqueue_wait"), "{reply}");
        let chrome = probe.command("chrome");
        assert!(chrome.starts_with('[') && chrome.ends_with(']'), "{chrome}");
        assert!(chrome.contains("\"ph\": \"X\""), "{chrome}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    });
}

#[test]
fn overload_seals_a_flight_post_mortem_with_the_offending_trace() {
    with_globals(|| {
        let dir = temp_dir("overload");
        dcn_obs::set_trace_enabled(true);
        dcn_obs::reset_traces();
        dcn_obs::reset_recorder();
        let dcn = Arc::new(demo_dcn(11, 8).expect("demo dcn"));
        let server = Server::start(
            Arc::clone(&dcn),
            ServerConfig {
                max_batch: 2,
                queue_capacity: 2,
                shed_mark: 2, // at capacity: full service or rejection
                ..traced_config(&dir)
            },
        )
        .expect("server start");
        server.set_paused(true);

        let inputs = demo_inputs(8, 11).expect("demo inputs");
        let mut client =
            Client::connect(&server.addr().to_string(), WireMode::Binary).expect("connect");
        // Client-chosen trace ids so the offender is identifiable: 2 fill
        // the queue, the rest are rejected with Overloaded.
        for i in 0..5u64 {
            let mut req = Request::new(i + 1, 5000 + i, inputs[i as usize].clone());
            req.trace = 7000 + i;
            client.send(&req).expect("pipelined send");
        }
        let mut rejected_ids = Vec::new();
        for _ in 0..3 {
            match client.recv().expect("rejection frame") {
                Response::Err(e) => {
                    assert_eq!(e.code, 6, "Overloaded exit code");
                    rejected_ids.push(e.id);
                }
                Response::Ok(r) => panic!("request {} served while paused", r.id),
            }
        }
        rejected_ids.sort_unstable();

        // The first rejection dumped a sealed post-mortem before the
        // error frame went out, so it is already on disk.
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .expect("flight dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("FLIGHT_") && n.ends_with(".json"))
            })
            .collect();
        assert_eq!(dumps.len(), 1, "exactly one overload dump: {dumps:?}");
        let sealed = std::fs::read_to_string(&dumps[0]).expect("read dump");
        assert!(sealed.contains(dcn_fault::CRC_FOOTER_PREFIX), "unsealed dump");
        let payload = dcn_fault::unseal(&sealed).expect("CRC must verify");
        assert!(payload.contains("\"reason\": \"overloaded"), "{payload}");
        assert!(payload.contains("\"kind\": \"rejected\""), "{payload}");
        // The offending request's trace — client id 7000 + (rejected id - 1)
        // — is embedded with its outcome.
        let offender = 7000 + rejected_ids[0] - 1;
        assert!(
            payload.contains(&format!("\"trace_id\": {offender}")),
            "offending trace {offender} missing from: {payload}"
        );
        assert!(payload.contains("\"outcome\": \"rejected\""), "{payload}");

        server.set_paused(false);
        for _ in 0..2 {
            match client.recv().expect("served frame") {
                Response::Ok(_) => {}
                Response::Err(e) => panic!("request {} failed: {}", e.id, e.msg),
            }
        }
        server.shutdown();
        // Shutdown adds its own dump; the overload dump is still the one
        // with the rejection in it (sealed, schema-stable names).
        let _ = std::fs::remove_dir_all(dir);
    });
}

#[test]
fn an_overlong_admin_line_closes_only_its_connection() {
    with_globals(|| {
        let dcn = Arc::new(demo_dcn(11, 8).expect("demo dcn"));
        let server = Server::start(
            dcn,
            ServerConfig {
                admin_addr: Some("127.0.0.1:0".to_string()),
                ..ServerConfig::default()
            },
        )
        .expect("server start");
        let admin_addr = server.admin_addr().expect("admin addr");

        let mut flood = TcpStream::connect(admin_addr).expect("admin connect");
        flood
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        flood
            .write_all(&vec![b'x'; MAX_FRAME + 1])
            .expect("over-long line");
        // The server must hang up (EOF, or a reset), not wait for a newline.
        match flood.read(&mut [0u8; 64]) {
            Ok(0) => {}
            Ok(n) => panic!("expected a closed connection, got a {n}-byte reply"),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                ),
                "connection left open: {e}"
            ),
        }

        let mut probe = AdminProbe::connect(admin_addr);
        assert_eq!(probe.command("ping"), "{\"ok\": true}");
        server.shutdown();
    });
}
