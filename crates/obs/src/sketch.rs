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
//! A centroid that has only ever held one value covers its whole rank
//! range with that value; a merged centroid sits at its mean rank, and
//! quantile queries interpolate linearly across merged centroids and the
//! gaps between centroids. While the stream's distinct values fit in the
//! centroid budget the answers are therefore *exact*, repeated values
//! included, and beyond that the error is bounded by the local centroid
//! spacing.
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
/// 1.5 KiB, with tail error far below the jitter of any latency measurement.
pub const DEFAULT_SKETCH_CAPACITY: usize = 64;

/// A mergeable fixed-memory quantile sketch (streaming histogram).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    capacity: usize,
    /// Centroids sorted by value.
    centroids: Vec<Centroid>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// A run of observations summarized by their mean and count.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Centroid {
    value: f64,
    /// Observations summarized, ≥ 1.
    weight: u64,
    /// Whether every observation had exactly `value`: true until a
    /// compaction merges two centroids.
    single: bool,
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
        self.insert_centroid(Centroid {
            value: v,
            weight: 1,
            single: true,
        });
    }

    /// Merges `other` into `self`. Merging is commutative up to the
    /// compaction tie-breaking noise: `merge(a, b)` and `merge(b, a)`
    /// answer every quantile within the local centroid spacing.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for &c in &other.centroids {
            self.insert_centroid(c);
        }
    }

    fn insert_centroid(&mut self, c: Centroid) {
        let (v, w) = (c.value, c.weight);
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
        let idx = self.centroids.partition_point(|e| e.value < v);
        if let Some(existing) = self.centroids.get_mut(idx) {
            if existing.value == v {
                existing.weight += w;
                existing.single &= c.single;
                return;
            }
        }
        self.centroids.insert(idx, c);
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
            let gap = self.centroids[i + 1].value - self.centroids[i].value;
            if gap < best_gap {
                best_gap = gap;
                best = i;
            }
        }
        let a = self.centroids[best];
        let b = self.centroids.remove(best + 1);
        let weight = a.weight + b.weight;
        self.centroids[best] = Centroid {
            value: (a.value * a.weight as f64 + b.value * b.weight as f64) / weight as f64,
            weight,
            single: false,
        };
    }

    /// The quantile at `q ∈ [0, 1]` (clamped); 0 when empty. A
    /// single-valued centroid answers its value across its whole rank
    /// range; elsewhere the answer interpolates linearly between the
    /// neighbouring centroids' ranks. `quantile(1.0)` is the exact maximum.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * (self.count - 1) as f64;
        // A centroid covers ranks [cum, cum + w - 1]. A single-valued one
        // holds its value across all of them; a merged one is known only
        // at its mean rank, the middle of that range.
        let mut cum = 0u64;
        let mut prev: Option<(f64, f64)> = None; // (last rank, value)
        for c in &self.centroids {
            let (lo, hi) = (cum as f64, (cum + c.weight - 1) as f64);
            let (first, last) = if c.single {
                (lo, hi)
            } else {
                let mid = (lo + hi) / 2.0;
                (mid, mid)
            };
            if target <= last {
                return match prev {
                    Some((pr, pv)) if target < first => {
                        pv + (c.value - pv) * (target - pr) / (first - pr)
                    }
                    _ => c.value,
                }
                .clamp(self.min, self.max);
            }
            cum += c.weight;
            prev = Some((last, c.value));
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
    fn repeated_values_are_exact() {
        // 288 ones and 252 twos: each value is one single-valued centroid
        // holding its value across its whole rank range.
        let mut s = QuantileSketch::new(64);
        for i in 0..540 {
            s.observe(if i < 288 { 1.0 } else { 2.0 });
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(0.5), 1.0);
        assert_eq!(s.quantile(0.99), 2.0);
        assert_eq!(s.quantile(1.0), 2.0);
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
