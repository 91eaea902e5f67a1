//! The wire protocol: length-prefixed binary frames, with a line-JSON
//! debug mode.
//!
//! # Frame layout (binary mode, all integers little-endian)
//!
//! ```text
//! frame    := len:u32 payload            len = payload byte count, ≤ MAX_FRAME
//! payload  := request | ok | error       first byte is the kind tag
//!
//! request  := 0x01 id:u64 seed:u64 max_votes:u64 deadline_ns:u64
//!             min_quorum:u32 trace:u64 rank:u8 dims:u32×rank values:f32×∏dims
//!             (max_votes / deadline_ns use u64::MAX as "unset";
//!              trace is the telemetry trace id, 0 = untraced — the server
//!              mints one internally when tracing is enabled)
//! ok       := 0x02 id:u64 label:u32 verdict:u8 base_passes:u32 flags:u8
//!             (verdict: 0 passed-through, 1 corrected;
//!              flags: bit0 degraded, bit1 shed)
//! error    := 0x03 id:u64 code:u8 msg_len:u16 msg:utf8
//!             (code is the DcnError exit code; id 0 when the request id
//!              could not be parsed)
//! ```
//!
//! # JSON debug mode
//!
//! One JSON object per `\n`-terminated line, mirroring the same fields via
//! the in-tree serde shims — human-typeable with `nc`, at roughly 4× the
//! bytes. Both modes decode to the same [`Request`]/[`Response`] types, and
//! the golden tests round-trip every variant through both.
//!
//! # Error mapping
//!
//! Malformed *requests* (bad tag, truncated payload, oversized frame,
//! garbage values) decode to [`DcnError::Config`] — the caller sent
//! something invalid; the connection survives when the framing itself was
//! intact. Malformed *responses* decode to [`DcnError::Corrupt`]: the
//! server is machine-written, so a torn response means damaged bytes, not a
//! bad ask. A stream that ends mid-frame is an IO-class error; between
//! frames it is a clean EOF (`Ok(None)`).
//!
//! Framing, the [`MAX_FRAME`] cap and the field coding come from
//! [`dcn_core::wire`], shared with `dcn-ps`.

use std::io::{BufRead, Write};
use std::time::Duration;

use dcn_core::wire::{self, Cursor, MAX_FRAME};
use dcn_core::{DcnError, DcnVerdict, VoteBudget};
use dcn_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Most dimensions a request tensor may carry.
pub const MAX_RANK: u8 = 8;

const KIND_REQUEST: u8 = 1;
const KIND_OK: u8 = 2;
const KIND_ERROR: u8 = 3;

/// Which encoding a connection speaks. Negotiated out of band (server
/// flag); every frame on a connection uses the same mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// Length-prefixed binary frames (the default).
    Binary,
    /// One JSON object per line — the debug mode.
    Json,
}

/// A classify request as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// Seed for this request's corrector vote stream
    /// (`StdRng::seed_from_u64`), making the answer reproducible and
    /// batching-invariant.
    pub seed: u64,
    /// Per-request QoS budget.
    pub budget: VoteBudget,
    /// Telemetry trace id (0 = untraced). A client may pin its own id to
    /// correlate `trace <id>` admin lookups with its requests; when left 0
    /// and tracing is enabled, the server mints one internally. Never
    /// echoed in responses, so server-minted ids cannot perturb the wire.
    pub trace: u64,
    /// The input example.
    pub x: Tensor,
}

impl Request {
    /// A full-service request with an unbounded budget, untraced.
    pub fn new(id: u64, seed: u64, x: Tensor) -> Self {
        Request {
            id,
            seed,
            budget: VoteBudget::unbounded(),
            trace: 0,
            x,
        }
    }
}

/// A successful classification, echoing the request id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OkResponse {
    /// The request's correlation id.
    pub id: u64,
    /// The class label.
    pub label: usize,
    /// Which DCN path produced the label.
    pub verdict: DcnVerdict,
    /// Base-network forward passes the request consumed.
    pub base_passes: usize,
    /// Whether the answer is degraded (truncated vote, quorum fallback, or
    /// load shed) — never silently reported as full service.
    pub degraded: bool,
    /// Whether admission control shed this request to a base prediction.
    pub shed: bool,
}

/// A per-request failure, echoing the request id when it was parseable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrResponse {
    /// The request's correlation id (`0` when unknown).
    pub id: u64,
    /// The [`DcnError::exit_code`] of the failure class (`6` = overloaded).
    pub code: u8,
    /// Human-readable description.
    pub msg: String,
}

/// One response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A classification.
    Ok(OkResponse),
    /// A typed per-request failure.
    Err(ErrResponse),
}

impl Response {
    /// The correlation id this response answers.
    pub fn id(&self) -> u64 {
        match self {
            Response::Ok(r) => r.id,
            Response::Err(e) => e.id,
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one framed payload in a single write, then flushes.
///
/// # Errors
///
/// Propagates the underlying IO error.
pub fn write_frame<W: Write + ?Sized>(
    w: &mut W,
    payload: &[u8],
    mode: WireMode,
) -> std::io::Result<()> {
    match mode {
        WireMode::Binary => wire::write_frame(w, payload),
        WireMode::Json => {
            let mut line = Vec::with_capacity(payload.len() + 1);
            line.extend_from_slice(payload);
            line.push(b'\n');
            w.write_all(&line)?;
            w.flush()
        }
    }
}

/// Reads one frame's payload. `Ok(None)` is a clean EOF at a frame
/// boundary; EOF mid-frame, an oversized length prefix, or an overlong
/// JSON line is an error.
///
/// # Errors
///
/// [`DcnError::Io`] for truncated streams, [`DcnError::Config`] for a
/// length prefix or line beyond [`MAX_FRAME`].
pub fn read_frame<R: BufRead + ?Sized>(
    r: &mut R,
    mode: WireMode,
) -> Result<Option<Vec<u8>>, DcnError> {
    match mode {
        WireMode::Binary => wire::read_frame(r),
        WireMode::Json => wire::read_line(r),
    }
}

// ---------------------------------------------------------------------------
// Binary encoding
// ---------------------------------------------------------------------------

/// Encodes a request payload (unframed).
pub fn encode_request(req: &Request, mode: WireMode) -> Result<Vec<u8>, DcnError> {
    match mode {
        WireMode::Binary => {
            // A 46-byte header (tag through rank), the dims, then the values.
            let mut out = Vec::with_capacity(46 + 4 * MAX_RANK as usize + 4 * req.x.len());
            out.push(KIND_REQUEST);
            out.extend_from_slice(&req.id.to_le_bytes());
            out.extend_from_slice(&req.seed.to_le_bytes());
            let max_votes = req.budget.max_votes.map_or(u64::MAX, |v| v as u64);
            out.extend_from_slice(&max_votes.to_le_bytes());
            let deadline = req
                .budget
                .deadline
                .map_or(u64::MAX, |d| d.as_nanos().min(u64::MAX as u128 - 1) as u64);
            out.extend_from_slice(&deadline.to_le_bytes());
            out.extend_from_slice(&(req.budget.min_quorum as u32).to_le_bytes());
            out.extend_from_slice(&req.trace.to_le_bytes());
            let shape = req.x.shape();
            if shape.len() > MAX_RANK as usize {
                return Err(DcnError::Config(format!(
                    "request tensor rank {} exceeds the wire limit {MAX_RANK}",
                    shape.len()
                )));
            }
            out.push(shape.len() as u8);
            for &d in shape {
                out.extend_from_slice(&(d as u32).to_le_bytes());
            }
            wire::put_f32s(&mut out, req.x.data());
            Ok(out)
        }
        WireMode::Json => {
            let j = JsonRequest {
                id: req.id,
                seed: req.seed,
                max_votes: req.budget.max_votes.map(|v| v as u64),
                deadline_ns: req
                    .budget
                    .deadline
                    .map(|d| d.as_nanos().min(u64::MAX as u128 - 1) as u64),
                min_quorum: req.budget.min_quorum as u64,
                trace: req.trace,
                shape: req.x.shape().iter().map(|&d| d as u64).collect(),
                values: req.x.data().to_vec(),
            };
            serde_json::to_string(&j)
                .map(String::into_bytes)
                .map_err(|e| DcnError::Config(format!("encoding request: {e}")))
        }
    }
}

/// Decodes a request payload.
///
/// # Errors
///
/// [`DcnError::Config`] on any malformed input — the caller sent something
/// invalid.
pub fn decode_request(payload: &[u8], mode: WireMode) -> Result<Request, DcnError> {
    match mode {
        WireMode::Binary => decode_request_binary(payload).map_err(DcnError::Config),
        WireMode::Json => {
            let text = std::str::from_utf8(payload)
                .map_err(|e| DcnError::Config(format!("request line is not UTF-8: {e}")))?;
            let j: JsonRequest = serde_json::from_str(text)
                .map_err(|e| DcnError::Config(format!("malformed JSON request: {e}")))?;
            let shape: Vec<usize> = j.shape.iter().map(|&d| d as usize).collect();
            build_request(
                j.id,
                j.seed,
                j.max_votes.map(|v| v as usize),
                j.deadline_ns,
                j.min_quorum as usize,
                j.trace,
                shape,
                j.values,
            )
            .map_err(DcnError::Config)
        }
    }
}

fn decode_request_binary(payload: &[u8]) -> Result<Request, String> {
    let mut c = Cursor::new(payload);
    let kind = c.u8("kind tag")?;
    if kind != KIND_REQUEST {
        return Err(format!(
            "expected request tag {KIND_REQUEST}, got {kind}"
        ));
    }
    let id = c.u64("id")?;
    let seed = c.u64("seed")?;
    let max_votes = c.u64("max_votes")?;
    let deadline_ns = c.u64("deadline_ns")?;
    let min_quorum = c.u32("min_quorum")? as usize;
    let trace = c.u64("trace")?;
    let rank = c.u8("rank")?;
    if rank > MAX_RANK {
        return Err(format!("tensor rank {rank} exceeds the wire limit {MAX_RANK}"));
    }
    let mut shape = Vec::with_capacity(rank as usize);
    for _ in 0..rank {
        shape.push(c.u32("dim")? as usize);
    }
    let len = shape
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .filter(|&l| l.checked_mul(4).is_some_and(|bytes| bytes <= MAX_FRAME))
        .ok_or_else(|| format!("tensor shape {shape:?} overflows the frame limit"))?;
    if c.remaining() != len * 4 {
        return Err(format!(
            "shape {shape:?} wants {} value bytes, payload carries {}",
            len * 4,
            c.remaining()
        ));
    }
    let values = c.f32s(len, "values")?;
    build_request(
        id,
        seed,
        (max_votes != u64::MAX).then_some(max_votes as usize),
        (deadline_ns != u64::MAX).then_some(deadline_ns),
        min_quorum,
        trace,
        shape,
        values,
    )
}

#[allow(clippy::too_many_arguments)]
fn build_request(
    id: u64,
    seed: u64,
    max_votes: Option<usize>,
    deadline_ns: Option<u64>,
    min_quorum: usize,
    trace: u64,
    shape: Vec<usize>,
    values: Vec<f32>,
) -> Result<Request, String> {
    let x = Tensor::from_vec(shape, values)
        .map_err(|e| format!("request tensor is malformed: {e}"))?;
    Ok(Request {
        id,
        seed,
        budget: VoteBudget {
            max_votes,
            deadline: deadline_ns.map(Duration::from_nanos),
            min_quorum,
        },
        trace,
        x,
    })
}

/// Encodes a response payload (unframed).
pub fn encode_response(resp: &Response, mode: WireMode) -> Result<Vec<u8>, DcnError> {
    match mode {
        WireMode::Binary => Ok(match resp {
            Response::Ok(r) => {
                let mut out = Vec::with_capacity(19);
                out.push(KIND_OK);
                out.extend_from_slice(&r.id.to_le_bytes());
                out.extend_from_slice(&(r.label.min(u32::MAX as usize) as u32).to_le_bytes());
                out.push(match r.verdict {
                    DcnVerdict::PassedThrough => 0,
                    DcnVerdict::Corrected => 1,
                });
                out.extend_from_slice(
                    &(r.base_passes.min(u32::MAX as usize) as u32).to_le_bytes(),
                );
                out.push(u8::from(r.degraded) | (u8::from(r.shed) << 1));
                out
            }
            Response::Err(e) => {
                let mut out = Vec::with_capacity(12 + e.msg.len());
                out.push(KIND_ERROR);
                out.extend_from_slice(&e.id.to_le_bytes());
                out.push(e.code);
                wire::put_str16(&mut out, &e.msg);
                out
            }
        }),
        WireMode::Json => {
            let j = match resp {
                Response::Ok(r) => JsonResponse {
                    id: r.id,
                    ok: true,
                    label: r.label as u64,
                    verdict: match r.verdict {
                        DcnVerdict::PassedThrough => 0,
                        DcnVerdict::Corrected => 1,
                    },
                    base_passes: r.base_passes as u64,
                    degraded: r.degraded,
                    shed: r.shed,
                    code: 0,
                    msg: String::new(),
                },
                Response::Err(e) => JsonResponse {
                    id: e.id,
                    ok: false,
                    label: 0,
                    verdict: 0,
                    base_passes: 0,
                    degraded: false,
                    shed: false,
                    code: e.code as u64,
                    msg: e.msg.clone(),
                },
            };
            serde_json::to_string(&j)
                .map(String::into_bytes)
                .map_err(|e| DcnError::Corrupt(format!("encoding response: {e}")))
        }
    }
}

/// Decodes a response payload.
///
/// # Errors
///
/// [`DcnError::Corrupt`] on any malformed input — responses are
/// machine-written, so bad bytes mean a damaged stream.
pub fn decode_response(payload: &[u8], mode: WireMode) -> Result<Response, DcnError> {
    match mode {
        WireMode::Binary => decode_response_binary(payload).map_err(DcnError::Corrupt),
        WireMode::Json => {
            let text = std::str::from_utf8(payload)
                .map_err(|e| DcnError::Corrupt(format!("response line is not UTF-8: {e}")))?;
            let j: JsonResponse = serde_json::from_str(text)
                .map_err(|e| DcnError::Corrupt(format!("malformed JSON response: {e}")))?;
            if j.ok {
                Ok(Response::Ok(OkResponse {
                    id: j.id,
                    label: j.label as usize,
                    verdict: decode_verdict(j.verdict as u8).map_err(DcnError::Corrupt)?,
                    base_passes: j.base_passes as usize,
                    degraded: j.degraded,
                    shed: j.shed,
                }))
            } else {
                Ok(Response::Err(ErrResponse {
                    id: j.id,
                    code: j.code as u8,
                    msg: j.msg,
                }))
            }
        }
    }
}

fn decode_response_binary(payload: &[u8]) -> Result<Response, String> {
    let mut c = Cursor::new(payload);
    let kind = c.u8("kind tag")?;
    match kind {
        KIND_OK => {
            let id = c.u64("id")?;
            let label = c.u32("label")? as usize;
            let verdict = decode_verdict(c.u8("verdict")?)?;
            let base_passes = c.u32("base_passes")? as usize;
            let flags = c.u8("flags")?;
            if flags > 3 {
                return Err(format!("unknown response flags {flags:#04x}"));
            }
            c.finish("ok response")?;
            Ok(Response::Ok(OkResponse {
                id,
                label,
                verdict,
                base_passes,
                degraded: flags & 1 != 0,
                shed: flags & 2 != 0,
            }))
        }
        KIND_ERROR => {
            let id = c.u64("id")?;
            let code = c.u8("code")?;
            let msg = c.str16("error message")?;
            c.finish("error response")?;
            Ok(Response::Err(ErrResponse { id, code, msg }))
        }
        other => Err(format!("unknown response tag {other}")),
    }
}

fn decode_verdict(v: u8) -> Result<DcnVerdict, String> {
    match v {
        0 => Ok(DcnVerdict::PassedThrough),
        1 => Ok(DcnVerdict::Corrected),
        other => Err(format!("unknown verdict byte {other}")),
    }
}

// ---------------------------------------------------------------------------
// JSON mirror structs (serde-shim derived)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JsonRequest {
    id: u64,
    seed: u64,
    max_votes: Option<u64>,
    deadline_ns: Option<u64>,
    min_quorum: u64,
    trace: u64,
    shape: Vec<u64>,
    values: Vec<f32>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JsonResponse {
    id: u64,
    ok: bool,
    label: u64,
    verdict: u64,
    base_passes: u64,
    degraded: bool,
    shed: bool,
    code: u64,
    msg: String,
}
