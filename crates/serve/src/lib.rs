//! `dcn-serve`: a concurrent batched serving engine for the DCN defense.
//!
//! The engine accepts classify requests from many concurrent TCP clients,
//! coalesces them into batched detector forwards plus cross-request
//! corrector vote batches through [`dcn_core::Dcn::try_classify_batch`],
//! and answers each connection independently. The pieces:
//!
//! * [`protocol`] — a length-prefixed binary wire format (with a line-JSON
//!   debug mode) carrying requests, results, and typed errors;
//! * [`queue`] — the bounded admission queue implementing the QoS ladder:
//!   full service below the shed watermark, degraded base-prediction
//!   service between watermark and capacity, [`dcn_core::DcnError::Overloaded`]
//!   rejection (exit code 6) at capacity;
//! * [`server`] — acceptor, one reader thread per connection, and the
//!   single batcher thread that drives the model;
//! * [`client`] — a minimal blocking client for tests and scripting;
//! * [`bench`] — the tiny built-in demo model behind `dcn-serve serve
//!   --demo 1`, also served by tests and the repository benchmark (load
//!   is measured by `bash benchmark/run.sh`, not by this crate);
//! * the admin plane (`--admin-addr`) — a second listener answering
//!   line-JSON `snapshot` / `health` / `trace <id>` / `chrome` / `dump`
//!   commands without ever touching the data plane's locks.
//!
//! With `DCN_TRACE=1` (or `--trace`) every request gets a span tree —
//! enqueue wait, batch assembly, detector forward, vote loop, write-back —
//! kept in a bounded in-memory store and exported on demand; a flight
//! recorder retains the last QoS verdicts and seals them to
//! `FLIGHT_<ts>.json` on overload, on request errors, and at shutdown.
//! Tracing is purely observational: answers are bitwise-identical with it
//! on or off.
//!
//! Determinism contract: each request carries its own RNG seed, and the
//! batcher produces bit-identical answers to a serial
//! [`dcn_core::Dcn::try_classify_bounded`] call with that seed — regardless
//! of how requests interleave into batches (pinned by `tests/serving.rs`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod admin;
pub mod bench;
mod client;
mod protocol;
mod queue;
mod server;

pub use client::Client;
pub use dcn_core::wire::MAX_FRAME;
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    ErrResponse, OkResponse, Request, Response, WireMode,
};
pub use queue::{Admission, BoundedQueue};
pub use server::{Server, ServerConfig};

/// Metric names minted by the serving engine (see `dcn-obs`).
pub mod names {
    /// Connections accepted.
    pub const SERVE_CONNECTIONS_TOTAL: &str = "serve.connections_total";
    /// Requests admitted to the queue (full-service or shed).
    pub const SERVE_REQUESTS_TOTAL: &str = "serve.requests_total";
    /// Admitted requests shed to degraded base-prediction service.
    pub const SERVE_SHED_TOTAL: &str = "serve.shed_total";
    /// Requests rejected at admission with `Overloaded`.
    pub const SERVE_REJECTED_TOTAL: &str = "serve.rejected_total";
    /// Responses written (success or typed error).
    pub const SERVE_RESPONSES_TOTAL: &str = "serve.responses_total";
    /// Batches executed by the batcher.
    pub const SERVE_BATCHES_TOTAL: &str = "serve.batches_total";
    /// Jobs per executed batch (quantile sketch).
    pub const SERVE_BATCH_OCCUPANCY: &str = "serve.batch_occupancy";
    /// Queue-to-response latency in seconds (quantile sketch).
    pub const SERVE_REQUEST_LATENCY: &str = "serve.request_latency_seconds";
    /// Admin-plane connections accepted.
    pub const SERVE_ADMIN_CONNECTIONS_TOTAL: &str = "serve.admin.connections_total";
    /// Admin commands dispatched (including failed ones).
    pub const SERVE_ADMIN_COMMANDS_TOTAL: &str = "serve.admin.commands_total";
    /// Admin commands answered with an error reply.
    pub const SERVE_ADMIN_ERRORS_TOTAL: &str = "serve.admin.errors_total";
}
