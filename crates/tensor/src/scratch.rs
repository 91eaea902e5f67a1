//! Per-thread, grow-only scratch workspaces for the inference fast path.
//!
//! Every forward pass through a network needs the same set of intermediate
//! buffers (`im2col` patch matrices, per-layer activations, GEMM pack
//! panels), and repeated inference — the corrector's `m` vote passes above
//! all — used to reallocate every one of them on every pass. A [`Scratch`]
//! is a pool of `Vec<f32>` buffers that are *taken* for the duration of one
//! use and *recycled* afterwards; buffer capacity only ever grows, so after
//! a warm-up pass the pool serves every subsequent request without touching
//! the heap.
//!
//! The module-level [`take`]/[`recycle`] functions operate on a pool that is
//! **per thread** (a `thread_local!`), which makes them safe to call from
//! anywhere — including inside `dcn_tensor::par` worker closures — without
//! locks and without any cross-thread coupling that could perturb results.
//! Two lifecycle caveats follow from that design:
//!
//! * On the serial path (`DCN_THREADS=1`, or nested inside a parallel
//!   region) all buffers live on the calling thread and are reused across
//!   calls indefinitely — this is the allocation-free steady state.
//! * Parallel regions run on the parked worker pool of `dcn_tensor::par`,
//!   whose workers live for the whole process: each keeps its own pool
//!   across regions, so a repeated parallel workload stops allocating too
//!   once every worker has seen it. The cost is one warm pool per worker.
//!
//! Buffers are returned zero-filled, because the two biggest consumers
//! (GEMM outputs and `im2col` padding) require it and a `memset` is noise
//! next to a saved `malloc`.

use std::cell::RefCell;

/// Snapshot of a pool's lifetime counters, for tests, benches and the
/// observability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScratchStats {
    /// Buffers handed out by [`Scratch::take`].
    pub takes: u64,
    /// Takes that had to touch the heap (empty pool, or a capacity grow).
    pub heap_allocs: u64,
    /// Buffers returned by [`Scratch::put`].
    pub recycles: u64,
    /// Buffers currently resident in the pool.
    pub pooled: usize,
    /// Total capacity (in `f32` elements) currently resident in the pool.
    pub pooled_elems: usize,
}

/// A grow-only pool of reusable `f32` buffers.
///
/// [`Scratch::take`] hands out the largest-capacity free buffer, resized
/// (zero-filled) to the requested length; [`Scratch::put`] returns it. A
/// buffer's backing allocation is reused verbatim whenever its capacity
/// suffices, so a fixed workload stops allocating after its first pass.
///
/// # Examples
///
/// ```
/// use dcn_tensor::scratch::Scratch;
///
/// let mut pool = Scratch::new();
/// let buf = pool.take(128); // allocates: pool is empty
/// pool.put(buf);
/// let buf = pool.take(64); // reuses the 128-capacity buffer
/// assert!(buf.capacity() >= 128);
/// assert_eq!(pool.stats().heap_allocs, 1);
/// ```
#[derive(Debug, Default)]
pub struct Scratch {
    free: Vec<Vec<f32>>,
    stats: ScratchStats,
}

impl Scratch {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Takes a zero-filled buffer of exactly `len` elements.
    ///
    /// Best-fit: prefers the free buffer with the smallest capacity that
    /// already holds `len` (no grow); if none fits, takes the largest so
    /// that one grow covers the demand and the pool converges to a fixed
    /// working set for a fixed workload.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        self.stats.takes += 1;
        let mut buf = match self.pop_best(len) {
            Some(buf) => buf,
            None => {
                self.stats.heap_allocs += 1;
                return vec![0.0; len];
            }
        };
        if buf.capacity() < len {
            self.stats.heap_allocs += 1;
        }
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn put(&mut self, buf: Vec<f32>) {
        self.stats.recycles += 1;
        self.free.push(buf);
    }

    /// Lifetime counters plus the pool's current residency.
    pub fn stats(&self) -> ScratchStats {
        let mut stats = self.stats;
        stats.pooled = self.free.len();
        stats.pooled_elems = self.free.iter().map(Vec::capacity).sum();
        stats
    }

    /// Drops every pooled buffer and zeroes the counters.
    pub fn clear(&mut self) {
        self.free.clear();
        self.stats = ScratchStats::default();
    }

    fn pop_best(&mut self, len: usize) -> Option<Vec<f32>> {
        let mut best: Option<(usize, usize)> = None;
        for (idx, cap) in self.free.iter().map(Vec::capacity).enumerate() {
            let better = match best {
                None => true,
                // Among buffers that fit, smallest wins; a buffer that fits
                // always beats one that doesn't; among too-small buffers,
                // largest wins (cheapest grow).
                Some((_, best_cap)) => match (cap >= len, best_cap >= len) {
                    (true, true) => cap < best_cap,
                    (true, false) => true,
                    (false, true) => false,
                    (false, false) => cap > best_cap,
                },
            };
            if better {
                best = Some((idx, cap));
            }
        }
        best.map(|(idx, _)| self.free.swap_remove(idx))
    }
}

thread_local! {
    /// The calling thread's pool. Access is via short `borrow_mut` windows
    /// in [`take`]/[`recycle`] only, so nested use (a layer taking a buffer
    /// while the network loop holds others) cannot double-borrow.
    static LOCAL: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Takes a zero-filled buffer of `len` elements from the calling thread's
/// pool.
///
/// Pair with [`recycle`]; a buffer that escapes (e.g. inside a returned
/// [`crate::Tensor`]) is simply freed by its owner and the pool replaces it
/// on the next demand — correct, but it forfeits the reuse.
pub fn take(len: usize) -> Vec<f32> {
    let buf = LOCAL.with(|s| s.borrow_mut().take(len));
    if dcn_obs::enabled() {
        dcn_obs::counter(dcn_obs::names::SCRATCH_TAKES_TOTAL).inc();
    }
    buf
}

/// Returns a buffer to the calling thread's pool.
pub fn recycle(buf: Vec<f32>) {
    LOCAL.with(|s| s.borrow_mut().put(buf));
    if dcn_obs::enabled() {
        dcn_obs::counter(dcn_obs::names::SCRATCH_RECYCLES_TOTAL).inc();
    }
}

/// Counters of the calling thread's pool.
pub fn local_stats() -> ScratchStats {
    LOCAL.with(|s| s.borrow().stats())
}

/// Number of heap allocations the calling thread's pool has performed —
/// the "did the warm path touch `malloc`?" probe used by the inference
/// benches and tests.
pub fn local_heap_allocs() -> u64 {
    LOCAL.with(|s| s.borrow().stats.heap_allocs)
}

/// Empties the calling thread's pool and zeroes its counters (tests and
/// benches that need a cold start).
pub fn clear_local() {
    LOCAL.with(|s| s.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zero_fills_and_reuses_capacity() {
        let mut pool = Scratch::new();
        let mut buf = pool.take(8);
        assert_eq!(buf, vec![0.0; 8]);
        buf.iter_mut().for_each(|v| *v = 7.0);
        let cap = buf.capacity();
        pool.put(buf);
        let again = pool.take(4);
        assert_eq!(again, vec![0.0; 4]);
        assert!(again.capacity() >= cap);
        let stats = pool.stats();
        assert_eq!(stats.takes, 2);
        assert_eq!(stats.heap_allocs, 1);
        assert_eq!(stats.recycles, 1);
    }

    #[test]
    fn take_is_best_fit() {
        let mut pool = Scratch::new();
        let small = pool.take(4);
        let large = pool.take(1024);
        pool.put(small);
        pool.put(large);
        // 512 only fits in the large buffer...
        let big = pool.take(512);
        assert!(big.capacity() >= 1024);
        // ...while a small request leaves the large buffer alone.
        let little = pool.take(2);
        assert!(little.capacity() < 1024);
        assert_eq!(pool.stats().heap_allocs, 2);
    }

    #[test]
    fn warm_pool_stops_allocating() {
        let mut pool = Scratch::new();
        for _ in 0..3 {
            let a = pool.take(100);
            let b = pool.take(200);
            pool.put(a);
            pool.put(b);
        }
        // Two buffers cover the workload; only the first pass allocates.
        assert_eq!(pool.stats().heap_allocs, 2);
        assert_eq!(pool.stats().takes, 6);
    }

    #[test]
    fn growing_a_pooled_buffer_counts_as_heap_alloc() {
        let mut pool = Scratch::new();
        let buf = pool.take(4);
        pool.put(buf);
        let big = pool.take(1 << 16); // forces a capacity grow
        assert!(big.capacity() >= 1 << 16);
        assert_eq!(pool.stats().heap_allocs, 2);
    }

    #[test]
    fn thread_local_pool_round_trips() {
        clear_local();
        let buf = take(16);
        assert_eq!(buf.len(), 16);
        recycle(buf);
        let stats = local_stats();
        assert_eq!(stats.takes, 1);
        assert_eq!(stats.recycles, 1);
        assert_eq!(stats.pooled, 1);
        clear_local();
        assert_eq!(local_stats(), ScratchStats::default());
    }

    #[test]
    fn clear_resets_everything() {
        let mut pool = Scratch::new();
        let buf = pool.take(32);
        pool.put(buf);
        pool.clear();
        assert_eq!(pool.stats(), ScratchStats::default());
    }
}
