//! Global metric registry: named atomic counters and quantile sketches.
//!
//! Handles are `&'static`: each metric is allocated once on first use and
//! leaked, so hot paths pay one `BTreeMap` lookup to *obtain* a handle, then
//! a single `fetch_add` per counter *increment* or one short critical
//! section per sketch *observation*. Call sites that record in a tight loop
//! should hoist the handle out of the loop.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// A monotonically increasing atomic counter.
#[derive(Debug)]
pub struct Counter {
    name: String,
    value: AtomicU64,
}

impl Counter {
    /// The counter's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn zero(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

#[derive(Default)]
pub(crate) struct Registry {
    pub(crate) counters: BTreeMap<String, &'static Counter>,
    pub(crate) sketches: BTreeMap<String, &'static crate::sketch::Sketch>,
}

pub(crate) fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    // A poisoned registry is still structurally sound (metrics are mutated
    // outside the lock), so recover instead of propagating a panic into the
    // serving path.
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Returns (registering on first use) the counter named `name`.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry();
    if let Some(c) = reg.counters.get(name) {
        return c;
    }
    let leaked: &'static Counter = Box::leak(Box::new(Counter {
        name: name.to_string(),
        value: AtomicU64::new(0),
    }));
    reg.counters.insert(name.to_string(), leaked);
    leaked
}

/// Returns (registering on first use) the quantile sketch named `name`,
/// with the default centroid budget
/// ([`crate::DEFAULT_SKETCH_CAPACITY`]).
pub fn sketch(name: &str) -> &'static crate::sketch::Sketch {
    let mut reg = registry();
    if let Some(s) = reg.sketches.get(name) {
        return s;
    }
    let leaked: &'static crate::sketch::Sketch = Box::leak(Box::new(crate::sketch::Sketch::new(
        name.to_string(),
        crate::sketch::DEFAULT_SKETCH_CAPACITY,
    )));
    reg.sketches.insert(name.to_string(), leaked);
    leaked
}

/// Zeroes every registered counter and sketch (names stay
/// registered). Benches and the experiment harness call this between
/// runs so each snapshot covers exactly one workload.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.values() {
        c.zero();
    }
    for s in reg.sketches.values() {
        s.zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_are_shared() {
        let a = counter("registry_test.shared");
        let b = counter("registry_test.shared");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), b.get());
        assert!(a.get() >= 3);
        assert_eq!(a.name(), "registry_test.shared");
    }
}
