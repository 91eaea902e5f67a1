//! Forward-pass cost accounting.
//!
//! The paper's efficiency results (Tables 3 and 6, Figures 4 and 5) are
//! wall-clock seconds on the authors' machine; the hardware-independent
//! quantity underneath is *base-network forward passes per input* (1 for a
//! pass-through, `1 + m` for a correction, `m` for every RC prediction).
//! [`CountingClassifier`] measures exactly that, so the benches can report
//! both the count model and measured time.

use std::sync::atomic::{AtomicU64, Ordering};

use dcn_nn::{Classifier, Result as NnResult};
use dcn_tensor::Tensor;

/// A [`Classifier`] decorator that counts per-example forward passes.
///
/// Thread-safe: the counter is atomic, so the same wrapper can be shared by
/// parallel workers fanning out over attack targets.
#[derive(Debug)]
pub struct CountingClassifier<C> {
    inner: C,
    count: AtomicU64,
}

impl<C: Classifier> CountingClassifier<C> {
    /// Wraps a classifier with a zeroed counter.
    pub fn new(inner: C) -> Self {
        CountingClassifier {
            inner,
            count: AtomicU64::new(0),
        }
    }

    /// Forward passes recorded so far (one per example, so a batch of `N`
    /// adds `N`).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero, returning the previous value.
    pub fn reset(&self) -> u64 {
        self.count.swap(0, Ordering::Relaxed)
    }

    /// The wrapped classifier.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwraps, discarding the counter.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: Classifier> Classifier for CountingClassifier<C> {
    fn logits_batch(&self, x: &Tensor) -> NnResult<Tensor> {
        let n = x.shape().first().copied().unwrap_or(0) as u64;
        self.count.fetch_add(n, Ordering::Relaxed);
        self.inner.logits_batch(x)
    }

    fn class_count(&self) -> usize {
        self.inner.class_count()
    }

    fn example_shape(&self) -> &[usize] {
        self.inner.example_shape()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Corrector;
    use dcn_nn::{Dense, Layer, Network};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> Network {
        let w = Tensor::from_vec(vec![1, 2], vec![-1.0, 1.0]).unwrap();
        let b = Tensor::from_slice(&[0.0, 0.0]);
        let mut net = Network::new(vec![1]);
        net.push(Layer::Dense(Dense::from_params(w, b).unwrap()));
        net
    }

    #[test]
    fn counter_tracks_batched_examples() {
        let c = CountingClassifier::new(net());
        let x = Tensor::zeros(&[5, 1]);
        c.logits_batch(&x).unwrap();
        assert_eq!(c.count(), 5);
        c.predict(&Tensor::zeros(&[1])).unwrap();
        assert_eq!(c.count(), 6);
        assert_eq!(c.reset(), 6);
        assert_eq!(c.count(), 0);
    }

    #[test]
    fn corrector_through_counter_costs_m_passes() {
        let c = CountingClassifier::new(net());
        let corrector = Corrector::new(0.1, 42).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        corrector
            .correct(&c, &Tensor::from_slice(&[0.2]), &mut rng)
            .unwrap();
        assert_eq!(c.count(), 42);
    }

    #[test]
    fn measured_passes_match_reported_votes_including_ties() {
        // The cost model must reflect *measured* forward passes: the vote
        // tally the corrector reports has to equal what the base classifier
        // actually executed, seed by seed — including seeds where the vote
        // ties (x = 0 with a symmetric hypercube ties often at m = 4).
        let c = CountingClassifier::new(net());
        let corrector = Corrector::new(0.2, 4).unwrap();
        let x = Tensor::from_slice(&[0.0]);
        let mut saw_tie = false;
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            c.reset();
            let (mode, counts) = corrector.vote_counts(&c, &x, &mut rng).unwrap();
            let votes: usize = counts.iter().sum();
            assert_eq!(c.count(), votes as u64, "seed {seed}");
            assert_eq!(votes, corrector.samples(), "seed {seed}");
            assert!(counts[mode] >= *counts.iter().max().unwrap(), "seed {seed}");
            saw_tie |= counts[0] == counts[1];
        }
        assert!(saw_tie, "no tied vote in 64 seeds; tie accounting untested");
    }

    #[test]
    fn counter_delegates_classifier_metadata() {
        let c = CountingClassifier::new(net());
        assert_eq!(c.class_count(), 2);
        assert_eq!(c.example_shape(), &[1]);
        assert_eq!(c.inner().class_count(), 2);
    }
}
