//! The load generator: one TCP connection with `TCP_NODELAY`, this thread
//! sending and one receiver thread reading.
//!
//! * [`open_loop`] sends pre-encoded frames on a fixed schedule whether or
//!   not earlier requests were answered, so a stall delays every request
//!   due during it. Latency is timed from each request's *scheduled* send.
//!   A request that admission control turns away with `Overloaded` is sent
//!   again after [`RETRY_BACKOFF`], as the server asks its clients to do;
//!   its latency includes the wait.
//! * [`closed_loop`] keeps a fixed number of requests in flight and sends
//!   the next one as each answer arrives: the highest rate the server
//!   sustains.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dcn_core::DcnError;
use dcn_serve::{decode_response, read_frame, Response, WireMode};

use crate::Result;

/// How long the generator waits for outstanding answers before counting
/// them as missing.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// How long after an `Overloaded` reply the open loop sends the request
/// again: about what the batcher takes to clear a few full batches.
const RETRY_BACKOFF: Duration = Duration::from_millis(5);

/// What happened to one phase's requests, indexed by `id - first_id`.
#[derive(Debug, Clone, Default)]
pub struct PhaseLog {
    /// Nanoseconds after the phase start each request was due (open loop)
    /// or sent (closed loop).
    pub due_ns: Vec<u64>,
    /// Nanoseconds after the phase start each request was written.
    pub sent_ns: Vec<Option<u64>>,
    /// Answer and its arrival, in nanoseconds after the phase start.
    pub replies: Vec<Option<(u64, Response)>>,
    /// Socket reads or writes that failed.
    pub io_errors: u64,
    /// Answers whose id matched no request of the phase.
    pub stray: u64,
    /// `Overloaded` replies, each followed by a retry (open loop only).
    pub rejected: u64,
}

impl PhaseLog {
    fn new(n: usize) -> PhaseLog {
        PhaseLog {
            due_ns: vec![0; n],
            sent_ns: vec![None; n],
            replies: vec![None; n],
            io_errors: 0,
            stray: 0,
            rejected: 0,
        }
    }

    /// Appends the first `n` requests of `later`, a later segment of the
    /// same phase whose ids continue this log's. Its times stay relative
    /// to its own start.
    pub fn append(&mut self, later: PhaseLog, n: usize) {
        self.due_ns.extend_from_slice(&later.due_ns[..n]);
        self.sent_ns.extend_from_slice(&later.sent_ns[..n]);
        self.replies.extend(later.replies.into_iter().take(n));
        self.io_errors += later.io_errors;
        self.stray += later.stray;
        self.rejected += later.rejected;
    }

    /// Requests written to the socket.
    pub fn sent(&self) -> usize {
        self.sent_ns.iter().filter(|s| s.is_some()).count()
    }

    /// Sent requests without an answer.
    pub fn missing(&self) -> u64 {
        self.sent_ns
            .iter()
            .zip(&self.replies)
            .filter(|(s, r)| s.is_some() && r.is_none())
            .count() as u64
    }

    /// Requests whose final answer is an error.
    pub fn errors(&self) -> u64 {
        self.replies
            .iter()
            .filter(|r| matches!(r, Some((_, Response::Err(_)))))
            .count() as u64
    }

    /// Sent requests without an answer, error answers, socket errors and
    /// answers to no request of the phase.
    pub fn failures(&self) -> u64 {
        self.missing() + self.errors() + self.io_errors + self.stray
    }

    /// Latency of each request answered with a prediction, from when it was
    /// due, in ms.
    pub fn latencies_ms(&self) -> Vec<(usize, f64)> {
        self.replies
            .iter()
            .enumerate()
            .filter_map(|(k, r)| match r {
                Some((at, Response::Ok(_))) => {
                    Some((k, at.saturating_sub(self.due_ns[k]) as f64 / 1e6))
                }
                _ => None,
            })
            .collect()
    }

    /// How late each request was written relative to its due time, in ms.
    pub fn lag_ms(&self) -> Vec<f64> {
        self.sent_ns
            .iter()
            .zip(&self.due_ns)
            .filter_map(|(s, d)| s.map(|s| s.saturating_sub(*d) as f64 / 1e6))
            .collect()
    }
}

/// Prefixes an encoded request payload with its binary-mode length.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn connect(addr: SocketAddr) -> Result<(TcpStream, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    Ok((stream, reader))
}

/// Whether `resp` is admission control turning a request away because the
/// queue was full: nothing was computed.
fn overloaded(resp: &Response) -> bool {
    let code = DcnError::Overloaded {
        queued: 0,
        capacity: 0,
    }
    .exit_code();
    matches!(resp, Response::Err(e) if i32::from(e.code) == code)
}

/// What [`receive`] gathered: the answers, then the counts of IO errors,
/// stray answers and rejected replies.
type Received = (Vec<Option<(u64, Response)>>, u64, u64, u64);

/// Reads answers until the socket closes. `on_reply` is shown each
/// request's index and reply as it lands and returns whether the reply is
/// the request's answer; a reply it turns down is counted as a rejection,
/// and the caller sends the request again.
fn receive(
    reader: TcpStream,
    start: Instant,
    first_id: u64,
    n: usize,
    received: &AtomicU64,
    on_reply: impl Fn(usize, &Response) -> bool,
) -> Received {
    let mut replies: Vec<Option<(u64, Response)>> = vec![None; n];
    let (mut io_errors, mut stray, mut rejected) = (0, 0, 0);
    let mut reader = BufReader::new(reader);
    loop {
        match read_frame(&mut reader, WireMode::Binary) {
            Ok(Some(payload)) => {
                let at = start.elapsed().as_nanos() as u64;
                match decode_response(&payload, WireMode::Binary) {
                    Ok(resp) => {
                        let k = resp.id().wrapping_sub(first_id) as usize;
                        if k >= n || replies[k].is_some() {
                            stray += 1;
                        } else if on_reply(k, &resp) {
                            replies[k] = Some((at, resp));
                            received.fetch_add(1, Ordering::SeqCst);
                        } else {
                            rejected += 1;
                        }
                    }
                    Err(_) => io_errors += 1,
                }
            }
            Ok(None) => break,
            Err(_) => {
                // The generator shuts the socket down once every answer is
                // in (or the drain timed out); a read error before that is
                // a real failure.
                io_errors += 1;
                break;
            }
        }
    }
    (replies, io_errors, stray, rejected)
}

/// Waits until `received` reaches `sent` or nothing arrived for
/// [`DRAIN_TIMEOUT`], then closes the connection to release the receiver.
fn drain(stream: &TcpStream, received: &AtomicU64, sent: u64) {
    let mut last = received.load(Ordering::SeqCst);
    let mut progress = Instant::now();
    while last < sent && progress.elapsed() < DRAIN_TIMEOUT {
        std::thread::sleep(Duration::from_millis(2));
        let now = received.load(Ordering::SeqCst);
        if now != last {
            last = now;
            progress = Instant::now();
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Sends `frames[k]` at `due_ns[k]` after the start (ids `first_id + k`),
/// and every rejected request again [`RETRY_BACKOFF`] after its
/// rejection, until each request has its answer or nothing arrived for
/// [`DRAIN_TIMEOUT`].
///
/// # Errors
///
/// Connection failures; per-request failures are counted in the log.
pub fn open_loop(
    addr: SocketAddr,
    due_ns: &[u64],
    frames: &[Vec<u8>],
    first_id: u64,
) -> Result<PhaseLog> {
    let n = frames.len();
    let (mut stream, reader) = connect(addr)?;
    let mut log = PhaseLog::new(n);
    log.due_ns.copy_from_slice(due_ns);
    let received = AtomicU64::new(0);
    let counter = &received;
    let (retry_tx, retries) = mpsc::channel::<usize>();
    let start = Instant::now();
    let (replies, io_errors, stray, rejected) = std::thread::scope(|s| {
        let rx = s.spawn(move || {
            receive(reader, start, first_id, n, counter, move |k, resp| {
                let answer = !overloaded(resp);
                if !answer {
                    let _ = retry_tx.send(k);
                }
                answer
            })
        });
        // Rejected requests waiting for their retry, oldest first.
        let mut waiting: VecDeque<(Instant, usize)> = VecDeque::new();
        let mut next = 0;
        let mut progress = (0, Instant::now());
        loop {
            let now = Instant::now();
            let retry_due = waiting.front().map(|w| w.0);
            let frame_due = (next < n).then(|| start + Duration::from_nanos(due_ns[next]));
            if let Some(&(_, k)) = waiting.front().filter(|w| w.0 <= now) {
                waiting.pop_front();
                if stream.write_all(&frames[k]).is_err() {
                    log.io_errors += 1;
                    break;
                }
                continue;
            }
            if frame_due.is_some_and(|due| due <= now) {
                let at = start.elapsed().as_nanos() as u64;
                if stream.write_all(&frames[next]).is_err() {
                    log.io_errors += 1;
                    break;
                }
                log.sent_ns[next] = Some(at);
                next += 1;
                continue;
            }
            let answered = received.load(Ordering::SeqCst);
            if answered != progress.0 {
                progress = (answered, now);
            }
            let drained = answered >= next as u64 || progress.1.elapsed() > DRAIN_TIMEOUT;
            if next == n && waiting.is_empty() && drained {
                break;
            }
            // Sleep until the next write is due, a rejection arrives, or
            // (with everything sent) the next look at the answer count.
            let wake = retry_due
                .into_iter()
                .chain(frame_due)
                .min()
                .unwrap_or(now + Duration::from_millis(2));
            match retries.recv_timeout(wake.saturating_duration_since(now)) {
                Ok(k) => waiting.push_back((Instant::now() + RETRY_BACKOFF, k)),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                // The receiver stopped: the connection is gone.
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    log.io_errors += 1;
                    break;
                }
            }
        }
        let _ = stream.shutdown(Shutdown::Both);
        rx.join().expect("receiver thread panicked")
    });
    log.replies = replies;
    log.io_errors += io_errors;
    log.stray = stray;
    log.rejected = rejected;
    Ok(log)
}

/// Keeps `window` requests in flight for `duration`, building request `k`
/// with `make(k)` (id `first_id + k`). At most `capacity` requests are
/// sent. Answers arrive a batch at a time; the requests that replace them
/// go out in one write, as a pipelining client sends them, so the
/// generator's own system calls take less of the host the server runs
/// on.
///
/// # Errors
///
/// Connection failures; per-request failures are counted in the log.
pub fn closed_loop(
    addr: SocketAddr,
    window: usize,
    duration: Duration,
    capacity: usize,
    first_id: u64,
    make: impl Fn(usize) -> Vec<u8>,
) -> Result<PhaseLog> {
    let (mut stream, reader) = connect(addr)?;
    let mut log = PhaseLog::new(capacity);
    let received = AtomicU64::new(0);
    let counter = &received;
    let (credit_tx, credit_rx) = mpsc::channel::<usize>();
    let start = Instant::now();
    // The window stays below the shed mark, so admission control never
    // rejects these requests; a rejection would be a failure.
    let (replies, io_errors, stray, _) = std::thread::scope(|s| {
        let rx = s.spawn(move || {
            receive(reader, start, first_id, capacity, counter, move |k, _| {
                let _ = credit_tx.send(k);
                true
            })
        });
        let mut burst = Vec::new();
        let mut send = |from: usize, to: usize, log: &mut PhaseLog| -> bool {
            burst.clear();
            for k in from..to {
                burst.extend_from_slice(&make(k));
            }
            let at = start.elapsed().as_nanos() as u64;
            if stream.write_all(&burst).is_err() {
                log.io_errors += 1;
                return false;
            }
            for k in from..to {
                log.due_ns[k] = at;
                log.sent_ns[k] = Some(at);
            }
            true
        };
        let mut sent = window.min(capacity);
        if !send(0, sent, &mut log) {
            sent = 0;
        }
        while sent > 0 && sent < capacity && start.elapsed() < duration {
            match credit_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(_) => {
                    let to = (sent + 1 + credit_rx.try_iter().count()).min(capacity);
                    if !send(sent, to, &mut log) {
                        break;
                    }
                    sent = to;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if received.load(Ordering::SeqCst) == 0 && start.elapsed() > DRAIN_TIMEOUT {
                        break;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        drain(&stream, &received, sent as u64);
        rx.join().expect("receiver thread panicked")
    });
    log.replies = replies;
    log.io_errors += io_errors;
    log.stray = stray;
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use dcn_serve::bench::{demo_dcn, demo_inputs};
    use dcn_serve::{encode_request, Request, Server, ServerConfig};

    #[test]
    fn rejected_requests_are_retried_until_answered() {
        let dcn = Arc::new(demo_dcn(11, 8).expect("demo dcn"));
        let server = Server::start(
            dcn,
            ServerConfig {
                max_batch: 4,
                queue_capacity: 4,
                shed_mark: 4,
                ..ServerConfig::default()
            },
        )
        .expect("server start");
        let frames: Vec<Vec<u8>> = demo_inputs(12, 11)
            .expect("demo inputs")
            .into_iter()
            .enumerate()
            .map(|(k, x)| {
                let req = Request::new(100 + k as u64, k as u64, x);
                frame(&encode_request(&req, WireMode::Binary).expect("encode"))
            })
            .collect();
        // All twelve fall due at once while the batcher is paused: four
        // fill the queue and the other eight are turned away, and turned
        // away again on every retry until the batcher resumes. The server
        // reads one connection's frames in order, so once the queue is
        // full the rest are already being rejected.
        server.set_paused(true);
        let due = vec![0; frames.len()];
        let addr = server.addr();
        let log = std::thread::scope(|s| {
            let generator = s.spawn(|| open_loop(addr, &due, &frames, 100));
            let deadline = Instant::now() + Duration::from_secs(5);
            while server.queue_len() < 4 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(RETRY_BACKOFF * 4);
            server.set_paused(false);
            generator.join().expect("generator thread")
        })
        .expect("open loop");
        server.shutdown();
        assert!(log.rejected >= 8, "{} rejections", log.rejected);
        assert_eq!(log.failures(), 0);
        assert_eq!(log.latencies_ms().len(), frames.len());
    }
}
