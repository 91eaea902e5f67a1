//! # dcn-ps
//!
//! Fault-tolerant distributed training on a sharded parameter server.
//!
//! One server process holds the model parameters in CRC-sealed shards
//! (contiguous runs of the parameter-tensor list, each with its own Adam);
//! N worker processes rebuild the dataset and model deterministically from
//! the job seed, compute gradients, and push them over a length-prefixed
//! binary protocol on localhost TCP (framed by `dcn_core::wire`, as
//! `dcn-serve` is).
//!
//! Training is bulk-synchronous (BSP, `Mode::Bsp`): one global batch is in
//! flight at a time and updates apply in the single-process batch order.
//! Any live worker may compute the pending batch (idle workers take over
//! expired assignments), and because every worker reconstructs the same
//! batch bit-for-bit, the final model is **bitwise identical** to
//! `Trainer::fit_resumable` with the same seed — for any worker count, and
//! across worker SIGKILLs and respawns. Fault tolerance costs determinism
//! nothing: exactly-once application is enforced by the parameter
//! `version` each push carries.
//!
//! Every connect/read/write on the worker side goes through bounded
//! deterministic retry (`dcn_fault::RetryPolicy`) and is hooked for the
//! `dcn-fault` network injector classes (`ps.conn.*` sites); shard
//! checkpoints land through `seal` + `write_atomic` (`ps.shard.*` sites),
//! so the whole failure surface is drivable from a `DCN_FAULT_*` plan.

#![deny(missing_docs)]

mod protocol;
mod server;
mod setup;
mod shard;
mod worker;

pub use protocol::{
    decode_client, decode_server, encode_client, encode_server, ClientMsg, JobSpec, Mode, ServerMsg,
};
pub use server::{serve, RunningServer, ServerConfig, TrainSummary};
pub use setup::{bsp_epoch_order, build_job, num_batches, Job};
pub use shard::{Resume, ShardStore};
pub use worker::{run_worker, WorkerConfig};

/// Metric names minted by the parameter-server plane (see `dcn-obs`).
pub mod names {
    /// Workers that completed the Hello/Welcome handshake.
    pub const PS_WORKERS_JOINED_TOTAL: &str = "ps.workers_joined_total";
    /// Workers declared dead (their connection closed mid-run).
    pub const PS_WORKERS_LOST_TOTAL: &str = "ps.workers_lost_total";
    /// Worker processes respawned by the orchestrator.
    pub const PS_WORKERS_RESPAWNED_TOTAL: &str = "ps.workers_respawned_total";
    /// Gradient pushes applied to the shards.
    pub const PS_BATCHES_APPLIED_TOTAL: &str = "ps.batches_applied_total";
    /// Gradient pushes rejected as stale or duplicate (BSP exactly-once).
    pub const PS_BATCHES_STALE_TOTAL: &str = "ps.batches_stale_total";
    /// BSP assignments handed to a second worker after the straggler
    /// deadline expired or the assignee died.
    pub const PS_BATCHES_REASSIGNED_TOTAL: &str = "ps.batches_reassigned_total";
    /// Epochs fully applied.
    pub const PS_EPOCHS_TOTAL: &str = "ps.epochs_total";
    /// Sealed shard-checkpoint sets written.
    pub const PS_SHARD_CHECKPOINTS_TOTAL: &str = "ps.shard_checkpoints_total";
    /// Worker reconnect cycles after an established session dropped.
    pub const PS_WORKER_RECONNECTS_TOTAL: &str = "ps.worker_reconnects_total";
    /// Server-side shard-apply latency in seconds (quantile sketch).
    pub const PS_APPLY_LATENCY: &str = "ps.apply_latency_seconds";
    /// Worker-side batch gradient-compute latency in seconds (sketch).
    pub const PS_COMPUTE_LATENCY: &str = "ps.compute_latency_seconds";
}
