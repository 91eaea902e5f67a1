//! Scoped span timers with a per-thread hierarchy.
//!
//! A [`Span`] is an RAII guard: creating one starts a monotonic clock,
//! dropping it records the elapsed seconds into a latency sketch named
//! `span.<path>.seconds`, where `<path>` is the `/`-joined chain of spans
//! currently open on this thread (`dcn.classify/corrector.vote`). Each
//! thread keeps its own stack, so parallel workers nest independently.
//!
//! When collection is disabled a span is fully inert: no clock read, no
//! allocation, no thread-local touch beyond construction.

use std::cell::RefCell;
use std::time::Instant;

use crate::{enabled, sketch};

thread_local! {
    /// Full dotted paths of the spans currently open on this thread.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// RAII timer for one scoped region; see [`span`].
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
}

/// Opens a span named `name`, nested under the innermost span already open
/// on this thread. Returns an inert guard when collection is disabled.
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span { start: None };
    }
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        stack.push(path);
    });
    Span {
        start: Some(Instant::now()),
    }
}

impl Span {
    /// Whether this span is live (collection was enabled at creation).
    pub fn is_recording(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let secs = start.elapsed().as_secs_f64();
        let path = SPAN_STACK.with(|stack| stack.borrow_mut().pop());
        if let Some(path) = path {
            sketch(&format!("span.{path}.seconds")).observe(secs);
            crate::counter(&format!("span.{path}.calls")).inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = crate::test_lock();
        set_enabled(false);
        let s = span("span_test.quiet");
        assert!(!s.is_recording());
        drop(s);
        SPAN_STACK.with(|stack| assert!(stack.borrow().is_empty()));
    }

    #[test]
    fn nested_spans_record_dotted_paths() {
        let _guard = crate::test_lock();
        set_enabled(true);
        {
            let _outer = span("span_test.outer");
            let _inner = span("span_test.inner");
        }
        set_enabled(false);
        let outer = sketch("span.span_test.outer.seconds");
        let inner = sketch("span.span_test.outer/span_test.inner.seconds");
        assert!(outer.count() >= 1);
        assert!(inner.count() >= 1);
        SPAN_STACK.with(|stack| assert!(stack.borrow().is_empty()));
    }
}
