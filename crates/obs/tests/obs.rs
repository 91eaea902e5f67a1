//! Integration tests for `dcn-obs`: exact concurrent sums, JSON
//! round-trips through the vendored `serde_json`, and the disabled-mode
//! no-op guarantee.

use std::sync::Mutex;

use dcn_obs::{counter, names, sketch, snapshot, span, Snapshot};

/// Serializes the tests in this binary: some flip the global enabled flag,
/// and `dcn_obs::reset` zeroes every metric in the process.
static ENABLE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    ENABLE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn concurrent_increments_sum_exactly() {
    let _guard = lock();
    // The DCN_THREADS=4 scenario: four workers hammering the same counter
    // and sketch must lose no increments.
    const WORKERS: usize = 4;
    const PER_WORKER: u64 = 10_000;
    let c = counter("obs_test.concurrent_total");
    let h = sketch("obs_test.concurrent_sketch");
    let before = c.get();
    let h_before = h.count();
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            scope.spawn(move || {
                for i in 0..PER_WORKER {
                    c.inc();
                    if i % 100 == 0 {
                        h.observe((w as f64) / (WORKERS as f64));
                    }
                }
            });
        }
    });
    assert_eq!(c.get() - before, WORKERS as u64 * PER_WORKER);
    assert_eq!(h.count() - h_before, WORKERS as u64 * (PER_WORKER / 100));
}

#[test]
fn snapshot_json_round_trips_through_vendored_serde_json() {
    let _guard = lock();
    counter(names::FORWARD_PASSES_TOTAL).add(7);
    counter(names::DCN_QUERIES_TOTAL).add(3);
    counter(names::DCN_PASSED_THROUGH_TOTAL).add(2);
    counter(names::DCN_CORRECTED_TOTAL).add(1);
    counter(names::DCN_BASE_PASSES_TOTAL).add(2 + 51);
    sketch(names::CORRECTOR_VOTE_MARGIN).observe(0.35);
    let snap: Snapshot = snapshot("round-trip");
    let json = snap.to_json();

    let value: serde_json::Value = serde_json::from_str(&json).expect("snapshot JSON parses");
    assert_eq!(
        value.get_field("run").and_then(|v| v.as_str()),
        Some("round-trip")
    );
    let counters = value.get_field("counters").expect("counters key");
    let fwd = counters
        .get_field(names::FORWARD_PASSES_TOTAL)
        .and_then(|v| v.as_f64())
        .expect("forward passes counter");
    assert_eq!(fwd as u64, snap.counter(names::FORWARD_PASSES_TOTAL));
    let sketches = value.get_field("sketches").expect("sketches key");
    let margin = sketches
        .get_field(names::CORRECTOR_VOTE_MARGIN)
        .expect("vote margin sketch");
    let count = margin.get_field("count").and_then(|v| v.as_f64()).unwrap();
    let recorded = snap.sketch(names::CORRECTOR_VOTE_MARGIN).unwrap();
    assert_eq!(count as u64, recorded.count);
    for q in ["p50", "p90", "p99", "p999"] {
        let v = margin.get_field(q).and_then(|v| v.as_f64()).unwrap();
        assert!((0.0..=1.0).contains(&v), "{q} = {v}");
    }
    let cost = value.get_field("cost").expect("cost key");
    let queries = cost.get_field("queries").and_then(|v| v.as_f64()).unwrap();
    assert_eq!(queries as u64, snap.cost.queries);
    let amortized = cost
        .get_field("amortized_passes_per_query")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!((amortized - snap.cost.amortized_passes_per_query()).abs() < 1e-9);
}

#[test]
fn disabled_mode_is_a_true_noop() {
    let _guard = lock();
    dcn_obs::set_enabled(false);
    assert!(!dcn_obs::enabled());
    // Spans are inert and export declines.
    let s = span("obs_test.disabled");
    assert!(!s.is_recording());
    drop(s);
    assert!(dcn_obs::maybe_export("obs_test_disabled").is_none());
    // The guarded-call idiom every instrumented site uses never touches the
    // registry when disabled, so a disabled run records nothing.
    let c = counter("obs_test.guarded");
    let before = c.get();
    if dcn_obs::enabled() {
        c.inc();
    }
    assert_eq!(c.get(), before);
}

#[test]
fn export_writes_parseable_file() {
    let _guard = lock();
    dcn_obs::set_enabled(true);
    counter("obs_test.exported").inc();
    let dir = std::env::temp_dir().join("dcn_obs_export_test");
    let path = snapshot("export-test").write_to(&dir).expect("write snapshot");
    dcn_obs::set_enabled(false);
    assert_eq!(path.file_name().unwrap().to_str(), Some("OBS_export-test.json"));
    let text = std::fs::read_to_string(&path).unwrap();
    let value: serde_json::Value = serde_json::from_str(&text).expect("exported JSON parses");
    assert!(value.get_field("counters").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reset_zeroes_but_keeps_registration() {
    let _guard = lock();
    let c = counter("obs_test.reset_me");
    c.add(5);
    // Reset zeroes every metric in the process; every other test in this
    // binary holds the lock, so this is safe here.
    dcn_obs::reset();
    assert_eq!(c.get(), 0);
    assert_eq!(snapshot("post-reset").counter("obs_test.reset_me"), 0);
}
