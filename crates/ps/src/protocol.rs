//! The parameter-server wire protocol: length-prefixed binary frames over
//! localhost TCP, in the same style as `dcn-serve`.
//!
//! # Frame layout (all integers little-endian)
//!
//! ```text
//! frame     := len:u32 payload              len = payload bytes, ≤ MAX_FRAME
//! payload   := client-msg | server-msg      first byte is the kind tag
//!
//! hello     := 0x01 worker:u32 incarnation:u32
//! get_work  := 0x02 worker:u32
//! push      := 0x03 worker:u32 epoch:u32 batch:u32 version:u64 loss:f32
//!              tensors
//!
//! welcome   := 0x41 n:u32 batch:u32 seed:u64 task_len:u8 task:utf8
//! work      := 0x42 epoch:u32 batch:u32 version:u64 tensors
//! shutdown  := 0x43
//! ack       := 0x44 applied:u8 version:u64
//! error     := 0x46 code:u8 msg_len:u16 msg:utf8
//!
//! tensors   := count:u32 (len:u32 values:f32×len)×count
//! ```
//!
//! Parameter and gradient tensors travel as flat f32 little-endian value
//! vectors in `Network::params()` order: the f32 bits round-trip exactly,
//! which is what lets BSP training stay bitwise-identical to single-process
//! training across the wire.
//!
//! # Error mapping
//!
//! Malformed frames from a *worker* decode to [`DcnError::Config`]; the
//! server is machine-written, so malformed frames from the *server* decode
//! to [`DcnError::Corrupt`]. A stream ending mid-frame is an IO-class
//! error; between frames it is a clean EOF (`Ok(None)`).
//!
//! Framing (`dcn_core::wire::{read_frame, write_frame}`, capped at
//! `MAX_FRAME`) and the field coding are shared with `dcn-serve`; this
//! module keeps only the message tags and layouts.

use dcn_core::wire::{self, Cursor};
use dcn_core::DcnError;

/// Most tensors one params/grads message may carry; the workspace models
/// have ≤ 8 parameter tensors, so this bounds hostile counts cheaply.
pub const MAX_TENSORS: usize = 4096;

const KIND_HELLO: u8 = 0x01;
const KIND_GET_WORK: u8 = 0x02;
const KIND_PUSH: u8 = 0x03;

const KIND_WELCOME: u8 = 0x41;
const KIND_WORK: u8 = 0x42;
const KIND_SHUTDOWN: u8 = 0x43;
const KIND_ACK: u8 = 0x44;
const KIND_ERROR: u8 = 0x46;

/// How shard updates are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Bulk-synchronous: one global batch in flight at a time, applied in a
    /// fixed order — the final model is bitwise-identical to single-process
    /// `Trainer::fit_resumable` with the same seed, for any worker count.
    Bsp,
}

/// A message from a worker to the server.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Handshake: identifies the worker and its respawn incarnation.
    Hello {
        /// Stable worker index in `0..workers`.
        worker: u32,
        /// Respawn count; bumped each time the orchestrator restarts a
        /// killed worker, so the server can tell a rejoin from a duplicate.
        incarnation: u32,
    },
    /// Ask for the next batch assignment (blocks until one is free).
    GetWork {
        /// The asking worker.
        worker: u32,
    },
    /// Gradients for one batch, computed at parameter `version`.
    PushGrads {
        /// The pushing worker.
        worker: u32,
        /// Epoch the batch belongs to.
        epoch: u32,
        /// Batch index within the epoch.
        batch: u32,
        /// Parameter version the gradients were computed against.
        version: u64,
        /// Mean loss over the batch.
        loss: f32,
        /// Flat gradients, one vector per parameter tensor.
        grads: Vec<Vec<f32>>,
    },
}

/// A message from the server to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Handshake reply: the full job description a worker needs to rebuild
    /// the dataset, model and shuffle streams deterministically.
    Welcome(JobSpec),
    /// One batch assignment with the parameters to compute it at.
    Work {
        /// Epoch of the assignment.
        epoch: u32,
        /// Batch index within the epoch.
        batch: u32,
        /// Parameter version being shipped.
        version: u64,
        /// Flat parameters, one vector per tensor.
        params: Vec<Vec<f32>>,
    },
    /// Training is complete; the worker should exit cleanly.
    Shutdown,
    /// Reply to a push: whether the gradients were applied and the
    /// resulting version.
    Ack {
        /// `true` if applied; `false` if the push was stale or duplicate.
        applied: bool,
        /// The server's parameter version after handling the push.
        version: u64,
    },
    /// A typed failure (e.g. a failed shard checkpoint); `code` is the
    /// [`DcnError::exit_code`] of the class.
    Error {
        /// Failure-class exit code.
        code: u8,
        /// Human-readable description.
        msg: String,
    },
}

impl ServerMsg {
    /// The variant's wire name, for "expected X, got Y" diagnostics that
    /// must not drag a full parameter dump into the error message.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ServerMsg::Welcome(_) => "Welcome",
            ServerMsg::Work { .. } => "Work",
            ServerMsg::Shutdown => "Shutdown",
            ServerMsg::Ack { .. } => "Ack",
            ServerMsg::Error { .. } => "Error",
        }
    }
}

/// The job description shipped in [`ServerMsg::Welcome`]: everything a
/// worker needs to reconstruct dataset, model and shuffle order bitwise.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Task name (`mnist` or `cifar`).
    pub task: String,
    /// Training-set size.
    pub n: u32,
    /// Mini-batch size.
    pub batch_size: u32,
    /// The training seed every RNG stream derives from.
    pub seed: u64,
}

// ---------------------------------------------------------------------------
// Binary encoding
// ---------------------------------------------------------------------------

fn put_tensors(out: &mut Vec<u8>, tensors: &[Vec<f32>]) {
    out.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
    for t in tensors {
        out.extend_from_slice(&(t.len() as u32).to_le_bytes());
        wire::put_f32s(out, t);
    }
}

fn take_tensors(c: &mut Cursor<'_>) -> Result<Vec<Vec<f32>>, String> {
    let count = c.u32("tensor count")? as usize;
    if count > MAX_TENSORS {
        return Err(format!(
            "tensor count {count} exceeds the wire limit {MAX_TENSORS}"
        ));
    }
    let mut tensors = Vec::with_capacity(count);
    for ti in 0..count {
        let values = c
            .u32("tensor length")
            .and_then(|len| c.f32s(len as usize, "tensor values"))
            .map_err(|e| format!("tensor {ti}: {e}"))?;
        tensors.push(values);
    }
    Ok(tensors)
}

/// Encodes a client message payload (unframed).
pub fn encode_client(msg: &ClientMsg) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        ClientMsg::Hello {
            worker,
            incarnation,
        } => {
            out.push(KIND_HELLO);
            out.extend_from_slice(&worker.to_le_bytes());
            out.extend_from_slice(&incarnation.to_le_bytes());
        }
        ClientMsg::GetWork { worker } => {
            out.push(KIND_GET_WORK);
            out.extend_from_slice(&worker.to_le_bytes());
        }
        ClientMsg::PushGrads {
            worker,
            epoch,
            batch,
            version,
            loss,
            grads,
        } => {
            out.push(KIND_PUSH);
            out.extend_from_slice(&worker.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&batch.to_le_bytes());
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&loss.to_le_bytes());
            put_tensors(&mut out, grads);
        }
    }
    out
}

/// Decodes a client message payload.
///
/// # Errors
///
/// [`DcnError::Config`] on any malformed input — the worker sent something
/// invalid; the connection survives when the framing itself was intact.
pub fn decode_client(payload: &[u8]) -> Result<ClientMsg, DcnError> {
    decode_client_inner(payload).map_err(DcnError::Config)
}

fn decode_client_inner(payload: &[u8]) -> Result<ClientMsg, String> {
    let mut c = Cursor::new(payload);
    let kind = c.u8("kind tag")?;
    let msg = match kind {
        KIND_HELLO => ClientMsg::Hello {
            worker: c.u32("worker")?,
            incarnation: c.u32("incarnation")?,
        },
        KIND_GET_WORK => ClientMsg::GetWork {
            worker: c.u32("worker")?,
        },
        KIND_PUSH => ClientMsg::PushGrads {
            worker: c.u32("worker")?,
            epoch: c.u32("epoch")?,
            batch: c.u32("batch")?,
            version: c.u64("version")?,
            loss: c.f32("loss")?,
            grads: take_tensors(&mut c)?,
        },
        other => return Err(format!("unknown client message tag {other:#04x}")),
    };
    c.finish("client message")?;
    Ok(msg)
}

/// Encodes a server message payload (unframed).
pub fn encode_server(msg: &ServerMsg) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        ServerMsg::Welcome(spec) => {
            out.push(KIND_WELCOME);
            out.extend_from_slice(&spec.n.to_le_bytes());
            out.extend_from_slice(&spec.batch_size.to_le_bytes());
            out.extend_from_slice(&spec.seed.to_le_bytes());
            let task = spec.task.as_bytes();
            let take = task.len().min(u8::MAX as usize);
            out.push(take as u8);
            out.extend_from_slice(&task[..take]);
        }
        ServerMsg::Work {
            epoch,
            batch,
            version,
            params,
        } => {
            out.push(KIND_WORK);
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&batch.to_le_bytes());
            out.extend_from_slice(&version.to_le_bytes());
            put_tensors(&mut out, params);
        }
        ServerMsg::Shutdown => out.push(KIND_SHUTDOWN),
        ServerMsg::Ack { applied, version } => {
            out.push(KIND_ACK);
            out.push(u8::from(*applied));
            out.extend_from_slice(&version.to_le_bytes());
        }
        ServerMsg::Error { code, msg } => {
            out.push(KIND_ERROR);
            out.push(*code);
            wire::put_str16(&mut out, msg);
        }
    }
    out
}

/// Decodes a server message payload.
///
/// # Errors
///
/// [`DcnError::Corrupt`] on any malformed input — the server is
/// machine-written, so bad bytes mean a damaged stream, not a bad ask.
pub fn decode_server(payload: &[u8]) -> Result<ServerMsg, DcnError> {
    decode_server_inner(payload).map_err(DcnError::Corrupt)
}

fn decode_server_inner(payload: &[u8]) -> Result<ServerMsg, String> {
    let mut c = Cursor::new(payload);
    let kind = c.u8("kind tag")?;
    let msg = match kind {
        KIND_WELCOME => {
            let n = c.u32("n")?;
            let batch_size = c.u32("batch_size")?;
            let seed = c.u64("seed")?;
            let task_len = c.u8("task length")? as usize;
            let task = std::str::from_utf8(c.take(task_len, "task")?)
                .map_err(|e| format!("task name is not UTF-8: {e}"))?
                .to_string();
            ServerMsg::Welcome(JobSpec {
                task,
                n,
                batch_size,
                seed,
            })
        }
        KIND_WORK => ServerMsg::Work {
            epoch: c.u32("epoch")?,
            batch: c.u32("batch")?,
            version: c.u64("version")?,
            params: take_tensors(&mut c)?,
        },
        KIND_SHUTDOWN => ServerMsg::Shutdown,
        KIND_ACK => {
            let applied = match c.u8("applied")? {
                0 => false,
                1 => true,
                other => return Err(format!("unknown applied byte {other}")),
            };
            ServerMsg::Ack {
                applied,
                version: c.u64("version")?,
            }
        }
        KIND_ERROR => ServerMsg::Error {
            code: c.u8("code")?,
            msg: c.str16("error message")?,
        },
        other => return Err(format!("unknown server message tag {other:#04x}")),
    };
    c.finish("server message")?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_client(msg: ClientMsg) {
        let bytes = encode_client(&msg);
        let back = decode_client(&bytes).unwrap();
        assert_eq!(msg, back);
    }

    fn roundtrip_server(msg: ServerMsg) {
        let bytes = encode_server(&msg);
        let back = decode_server(&bytes).unwrap();
        assert_eq!(msg, back);
    }

    #[test]
    fn client_messages_roundtrip() {
        roundtrip_client(ClientMsg::Hello {
            worker: 3,
            incarnation: 2,
        });
        roundtrip_client(ClientMsg::GetWork { worker: 1 });
        roundtrip_client(ClientMsg::PushGrads {
            worker: 0,
            epoch: 4,
            batch: 17,
            version: 141,
            loss: 0.25,
            grads: vec![vec![1.0, -2.5, f32::MIN_POSITIVE], vec![], vec![0.0]],
        });
    }

    #[test]
    fn server_messages_roundtrip() {
        roundtrip_server(ServerMsg::Welcome(JobSpec {
            task: "mnist".into(),
            n: 512,
            batch_size: 32,
            seed: 42,
        }));
        roundtrip_server(ServerMsg::Work {
            epoch: 1,
            batch: 7,
            version: 23,
            params: vec![vec![0.5; 10], vec![-1.0]],
        });
        roundtrip_server(ServerMsg::Shutdown);
        roundtrip_server(ServerMsg::Ack {
            applied: true,
            version: 24,
        });
        roundtrip_server(ServerMsg::Ack {
            applied: false,
            version: 24,
        });
        roundtrip_server(ServerMsg::Error {
            code: 3,
            msg: "epoch checkpoint failed".into(),
        });
    }

    /// Golden byte layout: one of every message encodes to these exact
    /// bytes and decodes back, so the wire format cannot drift silently.
    #[test]
    fn binary_layout_is_stable() {
        let client = [
            (
                ClientMsg::Hello {
                    worker: 0x0102_0304,
                    incarnation: 7,
                },
                vec![0x01, 0x04, 0x03, 0x02, 0x01, 7, 0, 0, 0],
            ),
            (ClientMsg::GetWork { worker: 2 }, vec![0x02, 2, 0, 0, 0]),
            (
                ClientMsg::PushGrads {
                    worker: 1,
                    epoch: 3,
                    batch: 4,
                    version: 0x0102_0304_0506_0708,
                    loss: 0.25,
                    grads: vec![vec![1.0, -2.5], vec![]],
                },
                [
                    &[0x03][..],
                    &[1, 0, 0, 0],             // worker
                    &[3, 0, 0, 0],             // epoch
                    &[4, 0, 0, 0],             // batch
                    &[8, 7, 6, 5, 4, 3, 2, 1], // version
                    &[0x00, 0x00, 0x80, 0x3E], // loss 0.25
                    &[2, 0, 0, 0],             // tensor count
                    &[2, 0, 0, 0],             // tensor 0: 2 values
                    &[0x00, 0x00, 0x80, 0x3F], // 1.0
                    &[0x00, 0x00, 0x20, 0xC0], // -2.5
                    &[0, 0, 0, 0],             // tensor 1: empty
                ]
                .concat(),
            ),
        ];
        for (msg, bytes) in client {
            assert_eq!(encode_client(&msg), bytes, "{msg:?}");
            assert_eq!(decode_client(&bytes).unwrap(), msg);
        }
        let server = [
            (
                ServerMsg::Welcome(JobSpec {
                    task: "mnist".into(),
                    n: 512,
                    batch_size: 32,
                    seed: 0x1112_1314_1516_1718,
                }),
                [
                    &[0x41][..],
                    &[0x00, 0x02, 0, 0],                               // n
                    &[32, 0, 0, 0],                                    // batch_size
                    &[0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11], // seed
                    &[5],                                              // task length
                    b"mnist",
                ]
                .concat(),
            ),
            (
                ServerMsg::Work {
                    epoch: 1,
                    batch: 2,
                    version: 3,
                    params: vec![vec![0.5]],
                },
                [
                    &[0x42][..],
                    &[1, 0, 0, 0],             // epoch
                    &[2, 0, 0, 0],             // batch
                    &[3, 0, 0, 0, 0, 0, 0, 0], // version
                    &[1, 0, 0, 0],             // tensor count
                    &[1, 0, 0, 0],             // tensor 0: 1 value
                    &[0x00, 0x00, 0x00, 0x3F], // 0.5
                ]
                .concat(),
            ),
            (
                ServerMsg::Ack {
                    applied: true,
                    version: 9,
                },
                vec![0x44, 1, 9, 0, 0, 0, 0, 0, 0, 0],
            ),
            (ServerMsg::Shutdown, vec![0x43]),
            (
                ServerMsg::Error {
                    code: 3,
                    msg: "é!".into(),
                },
                vec![0x46, 3, 3, 0, 0xC3, 0xA9, b'!'],
            ),
        ];
        for (msg, bytes) in server {
            assert_eq!(encode_server(&msg), bytes, "{msg:?}");
            assert_eq!(decode_server(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn tensor_values_roundtrip_bitwise() {
        let tricky = vec![vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE,
            1.0000001,
        ]];
        let msg = ServerMsg::Work {
            epoch: 0,
            batch: 0,
            version: 1,
            params: tricky.clone(),
        };
        let bytes = encode_server(&msg);
        let Ok(ServerMsg::Work { params, .. }) = decode_server(&bytes) else {
            panic!("decode failed");
        };
        let want: Vec<u32> = tricky[0].iter().map(|v| v.to_bits()).collect();
        let got: Vec<u32> = params[0].iter().map(|v| v.to_bits()).collect();
        assert_eq!(want, got);
    }

    #[test]
    fn malformed_client_payloads_are_config_errors() {
        assert!(matches!(
            decode_client(&[0xFF]),
            Err(DcnError::Config(_))
        ));
        assert!(matches!(decode_client(&[]), Err(DcnError::Config(_))));
        // Truncated push: header promises tensors that are not there.
        let mut push = encode_client(&ClientMsg::PushGrads {
            worker: 0,
            epoch: 0,
            batch: 0,
            version: 0,
            loss: 0.0,
            grads: vec![vec![1.0; 8]],
        });
        push.truncate(push.len() - 5);
        assert!(matches!(decode_client(&push), Err(DcnError::Config(_))));
        // Trailing garbage after a well-formed message.
        let mut hello = encode_client(&ClientMsg::Hello {
            worker: 0,
            incarnation: 0,
        });
        hello.push(0);
        assert!(matches!(decode_client(&hello), Err(DcnError::Config(_))));
    }

    #[test]
    fn malformed_server_payloads_are_corrupt_errors() {
        assert!(matches!(
            decode_server(&[0xEE]),
            Err(DcnError::Corrupt(_))
        ));
        let mut work = encode_server(&ServerMsg::Work {
            epoch: 0,
            batch: 0,
            version: 0,
            params: vec![vec![2.0; 4]],
        });
        work.truncate(work.len() - 3);
        assert!(matches!(decode_server(&work), Err(DcnError::Corrupt(_))));
        // A hostile tensor count is rejected before allocation.
        let mut bomb = vec![KIND_WORK];
        bomb.extend_from_slice(&[0u8; 16]);
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_server(&bomb), Err(DcnError::Corrupt(_))));
    }
}
