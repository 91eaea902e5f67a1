//! # dcn-obs
//!
//! Std-only structured observability for the DCN pipeline: scoped span
//! timers, atomic counters, mergeable quantile sketches, and a JSON
//! snapshot / cost-accounting export.
//!
//! The paper's headline claims are quantitative — detector FN/FP rates, the
//! corrector's `m = 50` vote budget, and a cost model where benign traffic
//! pays one forward pass while flagged traffic pays `1 + m` (Figs. 2–3).
//! This crate makes those numbers observable at runtime without changing a
//! single bit of any pipeline output:
//!
//! * **Disabled by default, near-zero cost.** Every instrumentation site is
//!   guarded by [`enabled`] — a single relaxed atomic load. When disabled no
//!   clock is read, no name is formatted, no lock is taken.
//! * **Bitwise non-interference.** Metrics only *read* pipeline values; they
//!   never feed back into any computation, so outputs are identical bit for
//!   bit whether observability is on or off (extending the PR 1 determinism
//!   guarantee).
//! * **Thread-safe.** Counters are atomics and each sketch sits behind its
//!   own short mutex; the registry hands out `&'static` handles, so
//!   parallel workers under `DCN_THREADS=N` never contend on the registry
//!   on the hot path.
//!
//! Enable with `DCN_OBS=1` (collection) and/or `DCN_OBS_JSON=1` (collection
//! plus snapshot export; a non-boolean value is treated as the output
//! directory), or programmatically with [`set_enabled`].
//!
//! The crate also hosts the debug/test-only runtime lock-order witness
//! ([`ordered`]): named `Mutex`/`Condvar` wrappers that record the
//! acquisition DAG and panic on a would-be deadlock when
//! `DCN_LOCK_WITNESS=1` is set. Release builds compile the bookkeeping
//! out entirely — the wrapper is bitwise non-interfering when disabled.
//!
//! ```
//! dcn_obs::set_enabled(true);
//! if dcn_obs::enabled() {
//!     dcn_obs::counter("forward_passes_total").add(1);
//! }
//! let snap = dcn_obs::snapshot("demo");
//! assert!(snap.counter("forward_passes_total") >= 1);
//! dcn_obs::set_enabled(false);
//! ```

#![deny(missing_docs)]

pub mod ordered;
mod recorder;
mod registry;
mod sketch;
mod snapshot;
mod span;
mod trace;

pub use recorder::{
    flag_window, flight_events, flight_json, record_event, record_flag, recorder_enabled,
    reset_recorder, FlightEvent,
};
pub use registry::{counter, reset, sketch, Counter};
pub use sketch::{QuantileSketch, Sketch, DEFAULT_SKETCH_CAPACITY};
pub use snapshot::{
    default_export_dir, maybe_export, snapshot, CostModel, SketchSnapshot, Snapshot,
};
pub use span::{span, Span};
pub use trace::{
    chrome_trace, clear_trace_override, completed_traces, mint_trace_id, reset_traces,
    set_trace_enabled, stage_clock, stage_end, stage_end_many, trace_enabled, trace_finish,
    trace_lookup, trace_start, StageClock, StageRecord, TraceRecord,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// Well-known metric names, shared by every instrumented crate so snapshots
/// stay greppable and DESIGN.md §8 can document one canonical list.
pub mod names {
    /// Examples pushed through any `Network::forward` (one per example).
    pub const FORWARD_PASSES_TOTAL: &str = "forward_passes_total";
    /// Batched forward calls (one per batch).
    pub const FORWARD_BATCHES_TOTAL: &str = "nn.forward_batches_total";
    /// Training epochs completed.
    pub const TRAIN_EPOCHS_TOTAL: &str = "train.epochs_total";
    /// Training mini-batches completed.
    pub const TRAIN_BATCHES_TOTAL: &str = "train.batches_total";
    /// Sketch of per-epoch mean loss.
    pub const TRAIN_EPOCH_LOSS: &str = "train.epoch_loss";
    /// Sketch of per-epoch wall-clock seconds.
    pub const TRAIN_EPOCH_SECONDS: &str = "train.epoch_seconds";
    /// Logit vectors scored by the detector.
    pub const DETECTOR_EVALUATED_TOTAL: &str = "detector_evaluated_total";
    /// Logit vectors the detector flagged as adversarial.
    pub const DETECTOR_FLAGGED_TOTAL: &str = "detector_flagged_total";
    /// Labelled-eval benign inputs seen (denominator of the live FN rate).
    pub const DETECTOR_BENIGN_TOTAL: &str = "detector.labelled_benign_total";
    /// Labelled-eval benign inputs flagged (paper's false negatives).
    pub const DETECTOR_BENIGN_FLAGGED_TOTAL: &str = "detector.labelled_benign_flagged_total";
    /// Labelled-eval adversarial inputs seen (denominator of the live FP rate).
    pub const DETECTOR_ADV_TOTAL: &str = "detector.labelled_adversarial_total";
    /// Labelled-eval adversarial inputs missed (paper's false positives).
    pub const DETECTOR_ADV_MISSED_TOTAL: &str = "detector.labelled_adversarial_missed_total";
    /// Corrector majority votes run.
    pub const CORRECTOR_INVOCATIONS_TOTAL: &str = "corrector_invocations_total";
    /// Individual vote samples classified (actual, not nominal `m`).
    pub const CORRECTOR_VOTES_TOTAL: &str = "corrector_votes_total";
    /// Sketch of the vote margin `(top − runner-up) / votes` in `[0, 1]`.
    pub const CORRECTOR_VOTE_MARGIN: &str = "corrector.vote_margin";
    /// DCN classifications answered.
    pub const DCN_QUERIES_TOTAL: &str = "dcn.queries_total";
    /// DCN classifications the detector passed straight through (cost 1).
    pub const DCN_PASSED_THROUGH_TOTAL: &str = "dcn.passed_through_total";
    /// DCN classifications routed through the corrector (cost 1 + votes).
    pub const DCN_CORRECTED_TOTAL: &str = "dcn.corrected_total";
    /// Actual base-classifier forward passes consumed by DCN queries.
    pub const DCN_BASE_PASSES_TOTAL: &str = "dcn.base_passes_total";
    /// Parallel regions opened (serial or threaded).
    pub const PAR_REGIONS_TOTAL: &str = "par.regions_total";
    /// Parallel regions that degenerated to the serial path.
    pub const PAR_SERIAL_REGIONS_TOTAL: &str = "par.serial_regions_total";
    /// Work units dispatched across all parallel regions.
    pub const PAR_UNITS_TOTAL: &str = "par.units_total";
    /// Sketch of workers per parallel region (thread utilization).
    pub const PAR_WORKERS: &str = "par.workers";
    /// Buffers handed out by the per-thread scratch pools.
    pub const SCRATCH_TAKES_TOTAL: &str = "scratch.takes_total";
    /// Buffers returned to the per-thread scratch pools for reuse.
    pub const SCRATCH_RECYCLES_TOTAL: &str = "scratch.recycles_total";
    /// DCN queries answered with a degraded result (partial vote or base
    /// fallback) because a vote budget or deadline expired.
    pub const DCN_DEGRADED_TOTAL: &str = "dcn.degraded_total";
    /// DCN queries that fell below the vote quorum and returned the base
    /// network's prediction.
    pub const DCN_FALLBACK_TOTAL: &str = "dcn.fallback_total";
    /// DCN queries whose base logits contained NaN/inf and were routed to
    /// the corrector fail-closed.
    pub const DCN_NONFINITE_TOTAL: &str = "dcn.nonfinite_logits_total";
    /// Corrector vote loops truncated by a deadline or vote budget.
    pub const CORRECTOR_TRUNCATED_TOTAL: &str = "corrector.truncated_total";
    /// Checkpoints written (atomic temp-then-rename completed).
    pub const CHECKPOINT_WRITES_TOTAL: &str = "checkpoint.writes_total";
    /// Training runs resumed from an on-disk checkpoint.
    pub const CHECKPOINT_RESUMES_TOTAL: &str = "checkpoint.resumes_total";
    /// Traces started (requests that entered the telemetry plane).
    pub const TRACE_STARTED_TOTAL: &str = "trace.started_total";
    /// Traces finished with a terminal outcome.
    pub const TRACE_COMPLETED_TOTAL: &str = "trace.completed_total";
    /// Trace stage: time a request waited in the admission queue.
    pub const TRACE_STAGE_ENQUEUE_WAIT: &str = "trace.enqueue_wait";
    /// Trace stage: batcher work between popping and dispatching a batch.
    pub const TRACE_STAGE_BATCH_ASSEMBLY: &str = "trace.batch_assembly";
    /// Trace stage: the stacked base-network forward + detector screen.
    pub const TRACE_STAGE_DETECTOR_FORWARD: &str = "trace.detector_forward";
    /// Trace stage: the corrector vote loop (fast or bounded path).
    pub const TRACE_STAGE_VOTE_LOOP: &str = "trace.vote_loop";
    /// Trace stage: encoding and writing the response frame.
    pub const TRACE_STAGE_WRITE_BACK: &str = "trace.write_back";
}

// 0 = unresolved (consult the environment once), 1 = forced off,
// 2 = forced on, 3 = environment said off, 4 = environment said on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

fn env_truthy(var: &str) -> Option<bool> {
    match std::env::var(var) {
        Ok(v) if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false") => Some(false),
        Ok(_) => Some(true),
        Err(_) => None,
    }
}

fn env_enabled() -> bool {
    // Either toggle turns collection on: DCN_OBS is the plain switch,
    // DCN_OBS_JSON implies collection because an export without metrics
    // would be empty.
    env_truthy("DCN_OBS").unwrap_or(false) || env_truthy("DCN_OBS_JSON").unwrap_or(false)
}

/// Whether metric collection is on. One relaxed atomic load on the fast
/// path — the only cost every instrumented site pays when disabled.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => {
            let on = env_enabled();
            // Cache the environment verdict; a concurrent racer stores the
            // same value, so the race is benign.
            ENABLED.store(if on { 4 } else { 3 }, Ordering::Relaxed);
            on
        }
        2 | 4 => true,
        _ => false,
    }
}

/// Programmatically forces collection on or off, overriding `DCN_OBS`.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Clears any [`set_enabled`] override, returning to the environment
/// (`DCN_OBS` / `DCN_OBS_JSON`) verdict.
pub fn clear_enabled_override() {
    ENABLED.store(0, Ordering::Relaxed);
}

/// Serializes tests that flip the global [`set_enabled`] flag so parallel
/// test threads don't observe each other's overrides.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_round_trips() {
        let _guard = test_lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        clear_enabled_override();
        // Environment verdict is process-dependent; just exercise the path.
        let _ = enabled();
        set_enabled(false);
    }
}
