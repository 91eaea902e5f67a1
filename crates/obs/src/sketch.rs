//! Mergeable fixed-memory streaming quantile sketches.
//!
//! Latency distributions have no natural bucket edges: a fixed-bucket
//! histogram either wastes resolution on the body or saturates in the tail.
//! [`QuantileSketch`] is a streaming-histogram sketch in the Ben-Haim &
//! Tom-Tov style: it keeps at most `capacity` weighted centroids sorted by
//! value, and when an insert overflows the budget it merges the two
//! adjacent centroids with the smallest gap. Memory is fixed, inserts are
//! `O(log capacity)` plus an occasional `O(capacity)` compaction, and two
//! sketches merge into one with the same bound — so per-thread or
//! per-window sketches can be combined without resampling.
//!
//! Quantile queries interpolate linearly between centroid mean ranks;
//! while the stream still fits in the centroid budget the answers are
//! *exact* (every observation is its own centroid), and beyond that the
//! error is bounded by the local centroid spacing.
//!
//! This is the workspace's one distribution type: span and request
//! latencies, vote margins, batch occupancy, parallel-region widths,
//! epoch losses and attack distortions all record into a registry sketch,
//! and a snapshot reports each as count, sum, min, max and p50–p999.
//!
//! Registry-backed handles ([`crate::sketch`]) wrap the value type in a
//! mutex: one short critical section per observation, taken only at call
//! sites already gated by [`crate::enabled`].

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default centroid budget for registry-backed sketches: 64 centroids ≈
/// 1 KiB, with tail error far below the jitter of any latency measurement.
pub const DEFAULT_SKETCH_CAPACITY: usize = 64;

/// A mergeable fixed-memory quantile sketch (streaming histogram).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    capacity: usize,
    /// `(value, weight)` centroids, sorted by value, weights ≥ 1.
    centroids: Vec<(f64, u64)>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// An empty sketch holding at most `capacity` centroids (minimum 2, so
    /// min and max always survive compaction).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        QuantileSketch {
            capacity,
            centroids: Vec::with_capacity(capacity + 1),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The configured centroid budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Records one observation. Non-finite values are dropped — a NaN in a
    /// latency stream must not poison every later quantile.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.insert_centroid(v, 1);
    }

    /// Merges `other` into `self`. Merging is commutative up to the
    /// compaction tie-breaking noise: `merge(a, b)` and `merge(b, a)`
    /// answer every quantile within the local centroid spacing.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for &(v, w) in &other.centroids {
            self.insert_centroid(v, w);
        }
    }

    fn insert_centroid(&mut self, v: f64, w: u64) {
        if w == 0 {
            return;
        }
        self.count += w;
        self.sum += v * w as f64;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        let idx = self
            .centroids
            .partition_point(|&(c, _)| c < v);
        if let Some(&mut (c, ref mut cw)) = self.centroids.get_mut(idx) {
            if c == v {
                *cw += w;
                return;
            }
        }
        self.centroids.insert(idx, (v, w));
        if self.centroids.len() > self.capacity {
            self.compact();
        }
    }

    /// Merges the adjacent centroid pair with the smallest value gap
    /// (weighted mean, summed weight), restoring the capacity bound.
    fn compact(&mut self) {
        let mut best = 0usize;
        let mut best_gap = f64::INFINITY;
        for i in 0..self.centroids.len() - 1 {
            let gap = self.centroids[i + 1].0 - self.centroids[i].0;
            if gap < best_gap {
                best_gap = gap;
                best = i;
            }
        }
        let (v1, w1) = self.centroids[best];
        let (v2, w2) = self.centroids[best + 1];
        let w = w1 + w2;
        let v = (v1 * w1 as f64 + v2 * w2 as f64) / w as f64;
        self.centroids[best] = (v, w);
        self.centroids.remove(best + 1);
    }

    /// The quantile at `q ∈ [0, 1]` (clamped), by linear interpolation
    /// between centroid mean ranks; 0 when empty. `quantile(0.0)` is the
    /// exact minimum and `quantile(1.0)` the exact maximum.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * (self.count - 1) as f64;
        // Each centroid's mass sits (conceptually) at its mean rank:
        // the ranks it covers are [cum, cum + w), centered at
        // cum + (w - 1) / 2.
        let mut cum = 0u64;
        let mut prev: Option<(f64, f64)> = None; // (mean rank, value)
        for &(v, w) in &self.centroids {
            let mean_rank = cum as f64 + (w - 1) as f64 / 2.0;
            if target <= mean_rank {
                return match prev {
                    None => self.min.max(v.min(self.max)).min(v),
                    Some((pr, pv)) => {
                        let span = mean_rank - pr;
                        if span <= 0.0 {
                            v
                        } else {
                            pv + (v - pv) * (target - pr) / span
                        }
                    }
                }
                .clamp(self.min, self.max);
            }
            cum += w;
            prev = Some((mean_rank, v));
        }
        self.max
    }

    /// Forgets every observation, keeping the capacity.
    pub fn clear(&mut self) {
        self.centroids.clear();
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }
}

/// A registry-backed, thread-safe sketch handle (see [`crate::sketch`]).
#[derive(Debug)]
pub struct Sketch {
    name: String,
    inner: Mutex<QuantileSketch>,
}

impl Sketch {
    pub(crate) fn new(name: String, capacity: usize) -> Self {
        Sketch {
            name,
            inner: Mutex::new(QuantileSketch::new(capacity)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QuantileSketch> {
        // A poisoned sketch is still structurally sound; recover rather
        // than propagating a panic into the serving path.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The sketch's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        self.lock().observe(v);
    }

    /// Merges a whole [`QuantileSketch`] (e.g. a per-thread local) in one
    /// critical section.
    pub fn absorb(&self, local: &QuantileSketch) {
        self.lock().merge(local);
    }

    /// The quantile at `q ∈ [0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        self.lock().quantile(q)
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.lock().count()
    }

    /// A frozen copy of the current state.
    pub fn state(&self) -> QuantileSketch {
        self.lock().clone()
    }

    pub(crate) fn zero(&self) {
        self.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_while_within_capacity() {
        let mut s = QuantileSketch::new(16);
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.observe(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
        assert!((s.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fixed_memory_under_heavy_streams() {
        let mut s = QuantileSketch::new(32);
        for i in 0..10_000 {
            s.observe((i % 997) as f64);
        }
        assert!(s.centroids.len() <= 32);
        assert_eq!(s.count(), 10_000);
        let p50 = s.quantile(0.5);
        assert!((p50 - 498.0).abs() < 30.0, "p50 {p50}");
        let p99 = s.quantile(0.99);
        assert!(p99 > 950.0 && p99 <= 996.0, "p99 {p99}");
        assert_eq!(s.quantile(1.0), 996.0);
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut s = QuantileSketch::new(8);
        s.observe(f64::NAN);
        s.observe(f64::INFINITY);
        s.observe(2.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.quantile(0.5), 2.0);
    }

    #[test]
    fn merge_is_associative_within_tolerance() {
        let mut a = QuantileSketch::new(48);
        let mut b = QuantileSketch::new(48);
        for i in 0..4_000u64 {
            // Two different heavy-tailed streams.
            a.observe((i % 613) as f64 * 0.01);
            b.observe(10.0 + (i % 89) as f64);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.count(), ba.count());
        assert!((ab.sum() - ba.sum()).abs() < 1e-6 * ab.sum().abs());
        let spread = ab.max().unwrap_or(0.0) - ab.min().unwrap_or(0.0);
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let d = (ab.quantile(q) - ba.quantile(q)).abs();
            assert!(
                d <= 0.05 * spread,
                "merge order changed q{q}: {} vs {}",
                ab.quantile(q),
                ba.quantile(q)
            );
        }
    }

    #[test]
    fn handle_is_thread_safe_and_resettable() {
        // reset() zeroes the whole registry; hold the toggle lock so tests
        // snapshotting their own metrics never race the wipe.
        let _guard = crate::test_lock();
        let s = crate::sketch("sketch_test.handle");
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for i in 0..100 {
                        s.observe((t * 100 + i) as f64);
                    }
                });
            }
        });
        assert_eq!(s.count(), 400);
        assert_eq!(s.quantile(1.0), 399.0);
        crate::reset();
        assert_eq!(s.count(), 0);
    }
}
