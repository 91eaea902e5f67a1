//! The admin plane: a second listener speaking a line-JSON command
//! protocol, for operators and harnesses probing a live server.
//!
//! One command per line in, one JSON document per line out:
//!
//! * `ping` — liveness probe;
//! * `snapshot` — the full `dcn-obs` snapshot (counters, quantile
//!   sketches, cost model) as one line of JSON;
//! * `health` — queue depth and watermarks, admission counters, sketch
//!   latency quantiles, and the detector flag-rate sliding window with
//!   its drift alarm;
//! * `trace <id>` — the span tree recorded for one traced request;
//! * `chrome` — every completed trace in Chrome `trace_event` format
//!   (load into `chrome://tracing` or Perfetto);
//! * `dump [reason]` — seal a flight-recorder post-mortem to disk now.
//!
//! A command line longer than `dcn_core::wire::MAX_FRAME` bytes closes its
//! connection, as an over-long JSON data frame does.
//!
//! The admin plane must never block the data plane: it runs on its own
//! listener and per-connection threads, touches only lock-free counters,
//! short metric mutexes, and the *admission side* of the bounded queue —
//! never `pop_batch`, never a connection's write lock. A saturated or
//! paused batcher leaves `snapshot` and `health` fully responsive
//! (pinned by `tests/admin.rs`).

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use dcn_core::{wire, DcnError};

use crate::names;
use crate::queue::BoundedQueue;
use crate::server::FlightState;

/// Admin-plane knobs, copied out of the server config at start.
pub(crate) struct AdminConfig {
    pub(crate) drift_baseline: f64,
    pub(crate) drift_tolerance: f64,
    pub(crate) flight: Arc<FlightState>,
}

/// Binds the admin listener and spawns its acceptor thread. Generic over
/// the queued item: the admin plane only reads queue depth and
/// configuration, never the items.
pub(crate) fn spawn<T: Send + 'static>(
    addr: &str,
    queue: Arc<BoundedQueue<T>>,
    shutdown: Arc<AtomicBool>,
    config: AdminConfig,
) -> Result<(SocketAddr, JoinHandle<()>), DcnError> {
    let listener = TcpListener::bind(addr).map_err(|e| DcnError::Io {
        site: "serve.admin.listen".to_string(),
        kind: e.kind(),
        msg: format!("{addr}: {e}"),
    })?;
    let local = listener.local_addr().map_err(|e| DcnError::Io {
        site: "serve.admin.local_addr".to_string(),
        kind: e.kind(),
        msg: e.to_string(),
    })?;
    let config = Arc::new(config);
    let handle = std::thread::spawn(move || admin_loop(&listener, &queue, &shutdown, &config));
    Ok((local, handle))
}

fn admin_loop<T: Send + 'static>(
    listener: &TcpListener,
    queue: &Arc<BoundedQueue<T>>,
    shutdown: &Arc<AtomicBool>,
    config: &Arc<AdminConfig>,
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
        if dcn_obs::enabled() {
            dcn_obs::counter(names::SERVE_ADMIN_CONNECTIONS_TOTAL).inc();
        }
        let queue = Arc::clone(queue);
        let config = Arc::clone(config);
        // Handler threads are detached: an operator holding an idle admin
        // connection open must not block shutdown.
        std::thread::spawn(move || handle_conn(stream, &queue, &config));
    }
}

fn handle_conn<T>(stream: TcpStream, queue: &Arc<BoundedQueue<T>>, config: &Arc<AdminConfig>) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    while let Ok(Some(line)) = wire::read_line(&mut reader) {
        let Ok(line) = std::str::from_utf8(&line) else {
            return;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "quit" {
            return;
        }
        let reply = dispatch(line, queue, config);
        let write = writer
            .write_all(reply.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if write.is_err() {
            return;
        }
    }
}

fn dispatch<T>(line: &str, queue: &BoundedQueue<T>, config: &AdminConfig) -> String {
    if dcn_obs::enabled() {
        dcn_obs::counter(names::SERVE_ADMIN_COMMANDS_TOTAL).inc();
    }
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some("ping") => "{\"ok\": true}".to_string(),
        Some("snapshot") => one_line(&dcn_obs::snapshot("serve_admin").to_json()),
        Some("chrome") => one_line(&dcn_obs::chrome_trace()),
        Some("health") => health(queue, config),
        Some("trace") => match parts.next().and_then(|s| s.parse::<u64>().ok()) {
            Some(id) => match dcn_obs::trace_lookup(id) {
                Some(rec) => one_line(&rec.to_json()),
                None => error_reply(&format!("unknown trace id {id}")),
            },
            None => error_reply("usage: trace <id>"),
        },
        Some("dump") => {
            let reason = parts.next().unwrap_or("admin");
            match config.flight.dump(reason) {
                Some(path) => format!(
                    "{{\"ok\": true, \"path\": {}}}",
                    json_str(&path.display().to_string())
                ),
                None => error_reply("flight recorder disabled or dump failed"),
            }
        }
        _ => error_reply(&format!("unknown command {line:?}")),
    }
}

/// Queue state, admission counters, latency quantiles, and the detector
/// drift alarm — one line, cheap enough to poll.
fn health<T>(queue: &BoundedQueue<T>, config: &AdminConfig) -> String {
    let depth = queue.len();
    let capacity = queue.capacity();
    let shed_mark = queue.shed_mark();
    let snap = dcn_obs::snapshot("serve_admin");
    let requests = snap.counter(crate::names::SERVE_REQUESTS_TOTAL);
    let rejected = snap.counter(crate::names::SERVE_REJECTED_TOTAL);
    let shed = snap.counter(crate::names::SERVE_SHED_TOTAL);
    let offered = requests + rejected;
    let rate = |n: u64| {
        if offered == 0 {
            0.0
        } else {
            n as f64 / offered as f64
        }
    };
    let (p50, p99) = snap
        .sketch(crate::names::SERVE_REQUEST_LATENCY)
        .map_or((0.0, 0.0), |s| (s.p50, s.p99));
    let (window, flagged, flag_rate) = dcn_obs::flag_window();
    let drift_alarm =
        window > 0 && (flag_rate - config.drift_baseline).abs() > config.drift_tolerance;
    format!(
        "{{\"ok\": true, \"queue_depth\": {depth}, \"queue_capacity\": {capacity}, \
         \"shed_mark\": {shed_mark}, \"requests_total\": {requests}, \
         \"shed_rate\": {}, \"rejected_rate\": {}, \
         \"latency_p50_s\": {}, \"latency_p99_s\": {}, \
         \"flag_window\": {window}, \"flag_window_flagged\": {flagged}, \"flag_rate\": {}, \
         \"drift_baseline\": {}, \"drift_tolerance\": {}, \"drift_alarm\": {drift_alarm}}}",
        json_f64(rate(shed)),
        json_f64(rate(rejected)),
        json_f64(p50),
        json_f64(p99),
        json_f64(flag_rate),
        json_f64(config.drift_baseline),
        json_f64(config.drift_tolerance),
    )
}

fn error_reply(msg: &str) -> String {
    if dcn_obs::enabled() {
        dcn_obs::counter(names::SERVE_ADMIN_ERRORS_TOTAL).inc();
    }
    format!("{{\"ok\": false, \"error\": {}}}", json_str(msg))
}

/// Collapses a pretty-printed JSON document onto one line for the
/// line-oriented reply framing. Safe because the producers escape
/// newlines inside string values.
fn one_line(json: &str) -> String {
    json.replace('\n', " ").trim().to_string()
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_str_escapes_controls_and_quotes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn one_line_flattens_pretty_json() {
        let flat = one_line("{\n  \"a\": 1\n}\n");
        assert!(!flat.contains('\n'));
        assert!(flat.starts_with('{') && flat.ends_with('}'));
    }

    #[test]
    fn dispatch_answers_ping_and_rejects_unknown_commands() {
        let queue: BoundedQueue<u32> = BoundedQueue::new(4, 2);
        let config = AdminConfig {
            drift_baseline: 0.0,
            drift_tolerance: 1.0,
            flight: Arc::new(crate::server::FlightState::new(None)),
        };
        assert_eq!(dispatch("ping", &queue, &config), "{\"ok\": true}");
        let err = dispatch("frobnicate", &queue, &config);
        assert!(err.contains("\"ok\": false"), "{err}");
        let health = dispatch("health", &queue, &config);
        assert!(health.contains("\"queue_capacity\": 4"), "{health}");
        assert!(health.contains("\"drift_alarm\": false"), "{health}");
    }
}
