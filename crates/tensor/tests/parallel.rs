//! Determinism contract of the parallel executor: for every parallelized
//! primitive, the output under any thread budget is **bitwise identical** to
//! the `threads = 1` legacy serial path. These tests compare raw `f32` bit
//! patterns, not approximate values — the guarantee is exact equality, and
//! any reordering of a per-unit reduction would trip it.
//!
//! The second half pins the parked worker pool behind every region: slot
//! placement, concurrent callers, panic propagation and warm scratch pools.

use dcn_obs::names::{PAR_REGIONS_TOTAL, PAR_SERIAL_REGIONS_TOTAL};
use dcn_tensor::{
    col2im, im2col, kernel, matmul, matmul_nt, matmul_tn, par, scratch, Conv2dGeometry, ParConfig,
    Tensor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::{self, ThreadId};
use std::time::Duration;

/// The parallel configuration is process-global; tests that flip it must not
/// interleave, so each takes this lock for its whole body.
fn config_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn assert_bitwise_eq(serial: &Tensor, parallel: &Tensor, what: &str) {
    assert_eq!(serial.shape(), parallel.shape(), "{what}: shape drift");
    for (i, (s, p)) in serial.data().iter().zip(parallel.data()).enumerate() {
        assert_eq!(
            s.to_bits(),
            p.to_bits(),
            "{what}: element {i} differs (serial {s}, parallel {p})"
        );
    }
}

/// Parallel regions recorded so far that split across more than one
/// worker (counted only while collection is on). The serial count is read
/// first, so a region recorded between the two reads cannot underflow it.
fn split_regions() -> u64 {
    let serial = dcn_obs::counter(PAR_SERIAL_REGIONS_TOTAL).get();
    dcn_obs::counter(PAR_REGIONS_TOTAL).get() - serial
}

/// Runs `compute` once under the serial config and once per thread budget,
/// asserting bitwise-equal outputs throughout. Returns, per budget, how many
/// multi-worker regions its run opened.
fn compare_budgets<F: Fn() -> Tensor>(what: &str, compute: F) -> Vec<(usize, u64)> {
    dcn_obs::set_enabled(true);
    par::configure(ParConfig::serial());
    let reference = compute();
    let mut split = Vec::new();
    for threads in [2, 3, 4, 8] {
        par::configure(ParConfig::with_threads(threads));
        let before = split_regions();
        let parallel = compute();
        split.push((threads, split_regions() - before));
        assert_bitwise_eq(&reference, &parallel, &format!("{what} @ {threads} threads"));
    }
    par::reset();
    dcn_obs::clear_enabled_override();
    split
}

/// [`compare_budgets`], where every budget must also have really split the
/// work: a "parallel" leg that ran the serial kernel proves nothing.
fn check_bitwise<F: Fn() -> Tensor>(what: &str, compute: F) {
    for (threads, split) in compare_budgets(what, compute) {
        assert!(split > 0, "{what} @ {threads} threads opened no multi-worker region");
    }
}

#[test]
fn matmul_is_bitwise_deterministic_across_thread_budgets() {
    let _guard = config_lock();
    let mut rng = StdRng::seed_from_u64(71);
    // Odd, tile-misaligned dimensions so the partition is uneven at every
    // budget, and 33 × 4 tiles of 8.6 kflop: past the GEMM's work floor
    // (4 tiles per worker) for all 8 workers of the widest budget.
    let a = Tensor::randn(&[131, 67], 0.0, 1.0, &mut rng);
    let b = Tensor::randn(&[67, 53], 0.0, 1.0, &mut rng);
    check_bitwise("matmul", || matmul(&a, &b).unwrap());
}

#[test]
fn matmul_tn_is_bitwise_deterministic_across_thread_budgets() {
    let _guard = config_lock();
    let mut rng = StdRng::seed_from_u64(72);
    let a = Tensor::randn(&[67, 131], 0.0, 1.0, &mut rng);
    let b = Tensor::randn(&[67, 53], 0.0, 1.0, &mut rng);
    check_bitwise("matmul_tn", || matmul_tn(&a, &b).unwrap());
}

#[test]
fn matmul_nt_is_bitwise_deterministic_across_thread_budgets() {
    let _guard = config_lock();
    let mut rng = StdRng::seed_from_u64(73);
    let a = Tensor::randn(&[131, 67], 0.0, 1.0, &mut rng);
    let b = Tensor::randn(&[53, 67], 0.0, 1.0, &mut rng);
    check_bitwise("matmul_nt", || matmul_nt(&a, &b).unwrap());
}

#[test]
fn im2col_and_col2im_are_bitwise_deterministic_across_thread_budgets() {
    let _guard = config_lock();
    let mut rng = StdRng::seed_from_u64(74);
    let geom = Conv2dGeometry::new(2, 7, 7, 3, 2, 1).unwrap();
    // 5 images: not divisible by any tested thread budget.
    let x = Tensor::randn(&[5, 2, 7, 7], 0.0, 1.0, &mut rng);
    check_bitwise("im2col", || im2col(&x, &geom).unwrap());
    let cols = Tensor::randn(
        &[5 * geom.out_h() * geom.out_w(), 2 * 3 * 3],
        0.0,
        1.0,
        &mut rng,
    );
    check_bitwise("col2im", || col2im(&cols, 5, &geom).unwrap());
}

#[test]
fn degenerate_shapes_survive_every_thread_budget() {
    let _guard = config_lock();
    // Zero-row / zero-column products and a single-unit workload: the
    // executor must fall back to (or degenerate into) the serial path
    // without panicking on empty chunk arithmetic.
    let a0 = Tensor::zeros(&[0, 4]);
    let b = Tensor::zeros(&[4, 3]);
    compare_budgets("matmul 0-row", || matmul(&a0, &b).unwrap());
    let a = Tensor::zeros(&[2, 4]);
    let b0 = Tensor::zeros(&[4, 0]);
    compare_budgets("matmul 0-col", || matmul(&a, &b0).unwrap());
    let one = Tensor::from_vec(vec![1, 1], vec![3.0]).unwrap();
    compare_budgets("matmul 1x1", || matmul(&one, &one).unwrap());
}

#[test]
fn env_override_reports_through_config() {
    let _guard = config_lock();
    // DCN_THREADS is resolved once per process, so only the programmatic
    // layering is testable here: configure() wins, reset() restores.
    par::configure(ParConfig::with_threads(5));
    assert_eq!(ParConfig::current().threads, 5);
    par::reset();
    assert!(ParConfig::current().threads >= 1);
}

// ---------------------------------------------------------------------------
// The parked pool: slot placement, concurrency, panics and warm workers.

fn slot_threads(slots: usize) -> Vec<Mutex<Option<ThreadId>>> {
    (0..slots).map(|_| Mutex::new(None)).collect()
}

fn record_thread(seen: &[Mutex<Option<ThreadId>>], slot: usize) {
    *seen[slot].lock().unwrap() = Some(thread::current().id());
}

fn recorded(seen: &[Mutex<Option<ThreadId>>]) -> Vec<Option<ThreadId>> {
    seen.iter().map(|s| *s.lock().unwrap()).collect()
}

#[test]
fn concurrent_callers_each_get_the_serial_answer() {
    let _guard = config_lock();
    let mut rng = StdRng::seed_from_u64(75);
    let a = Tensor::randn(&[131, 67], 0.0, 1.0, &mut rng);
    let b = Tensor::randn(&[67, 53], 0.0, 1.0, &mut rng);
    let x = Tensor::randn(&[5, 2, 7, 7], 0.0, 1.0, &mut rng);
    let geom = Conv2dGeometry::new(2, 7, 7, 3, 2, 1).unwrap();
    par::configure(ParConfig::serial());
    let product = matmul(&a, &b).unwrap();
    let patches = im2col(&x, &geom).unwrap();
    dcn_obs::set_enabled(true);
    par::configure(ParConfig::with_threads(4));
    let before = split_regions();
    // Four OS threads open regions at once: their jobs interleave on the
    // same three parked workers, and each must still get the serial bits.
    thread::scope(|scope| {
        for caller in 0..4 {
            let (a, b, x, geom) = (&a, &b, &x, &geom);
            let (product, patches) = (&product, &patches);
            scope.spawn(move || {
                for round in 0..20 {
                    let what = format!("caller {caller} round {round}");
                    assert_bitwise_eq(product, &matmul(a, b).unwrap(), &format!("{what} matmul"));
                    assert_bitwise_eq(patches, &im2col(x, geom).unwrap(), &format!("{what} im2col"));
                }
            });
        }
    });
    let split = split_regions() - before;
    par::reset();
    dcn_obs::clear_enabled_override();
    assert!(split >= 4 * 20 * 2, "only {split} multi-worker regions opened");
}

#[test]
fn worker_panic_reaches_the_caller_after_every_slot_and_spares_the_pool() {
    let _guard = config_lock();
    par::configure(ParConfig::with_threads(3));
    let first = slot_threads(3);
    let finished: Vec<AtomicBool> = (0..3).map(|_| AtomicBool::new(false)).collect();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        par::run_workers(3, 3, |w| {
            record_thread(&first, w);
            if w == 2 {
                panic!("slot 2 failed");
            }
            if w == 1 {
                // Still running when slot 2's panic is caught.
                thread::sleep(Duration::from_millis(50));
            }
            finished[w].store(true, Ordering::SeqCst);
        });
    }));
    let payload = outcome.expect_err("the slot's panic must reach the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"slot 2 failed"));
    assert!(
        finished[0].load(Ordering::SeqCst) && finished[1].load(Ordering::SeqCst),
        "the panic was resumed before every other slot had finished"
    );
    assert!(!par::in_parallel_region(), "the caller's region mark leaked");

    // The next region completes, on the same workers: none of them died.
    let again = slot_threads(3);
    par::run_workers(3, 3, |w| record_thread(&again, w));
    par::reset();
    let (first, again) = (recorded(&first), recorded(&again));
    assert_eq!(again[0], Some(thread::current().id()), "slot 0 runs on the caller");
    assert_eq!(first[1..], again[1..], "slot w must run on parked worker w - 1");
    assert!(again[1] != again[2] && again[1] != again[0]);
}

#[test]
fn budget_one_runs_every_slot_on_the_caller() {
    let _guard = config_lock();
    par::configure(ParConfig::serial());
    let caller = Some(thread::current().id());
    let seen = slot_threads(4);
    par::run_workers(4, 4, |w| record_thread(&seen, w));
    assert!(recorded(&seen).iter().all(|&id| id == caller));
    let items: Vec<usize> = (0..64).collect();
    let mapped = par::par_map(&items, 1, |_, _| thread::current().id());
    assert!(mapped.iter().all(|&id| Some(id) == caller));
    let mut data = vec![0u8; 64];
    par::for_each_unit_chunk(&mut data, 1, 1, |_, chunk| {
        assert_eq!(Some(thread::current().id()), caller);
        chunk.fill(1);
    });
    assert!(data.iter().all(|&v| v == 1));
    par::reset();
}

/// Lengths of the scratch buffers one MNIST-CNN forward over a 25-image
/// chunk takes in `dcn-nn`'s inference lowering: per conv layer the im2col
/// patch matrix, the GEMM output, the GEMM's packed weight panels, the
/// relaid output and its ReLU; per dense layer the GEMM output and packed
/// panels, plus the hidden layer's ReLU.
fn mnist_b25_chunk_buffers() -> Vec<usize> {
    let panels = |k: usize, n: usize| n.div_ceil(kernel::NR) * k * kernel::NR;
    let mut lens = Vec::new();
    // conv0: 1×28×28 → 8×14×14 and conv2: 8×14×14 → 16×7×7 (5×5 kernels,
    // stride 2, padding 2), as (patch length, output pixels, channels).
    for (patch, hw, oc) in [(25, 14 * 14, 8), (8 * 25, 7 * 7, 16)] {
        let rows = 25 * hw;
        lens.extend([rows * patch, rows * oc, panels(patch, oc), rows * oc, rows * oc]);
    }
    // dense5: 784 → 64 with its ReLU; dense7: 64 → 10.
    lens.extend([25 * 64, panels(784, 64), 25 * 64, 25 * 10, panels(64, 10)]);
    lens
}

#[test]
fn parked_workers_keep_their_scratch_pools_warm() {
    let _guard = config_lock();
    par::configure(ParConfig::with_threads(2));
    let buffers = mnist_b25_chunk_buffers();
    let grew: Vec<AtomicU64> = (0..2).map(|_| AtomicU64::new(0)).collect();
    let region = || {
        par::run_workers(2, 2, |w| {
            let before = scratch::local_heap_allocs();
            let bufs: Vec<Vec<f32>> = buffers.iter().map(|&len| scratch::take(len)).collect();
            bufs.into_iter().for_each(scratch::recycle);
            grew[w].store(scratch::local_heap_allocs() - before, Ordering::SeqCst);
        })
    };
    region();
    // The second run meets every slot's pool warm: slot 1's worker is the
    // same thread as in the first run, so nothing touches the heap.
    region();
    par::reset();
    for (slot, grew) in grew.iter().enumerate() {
        let grew = grew.load(Ordering::SeqCst);
        assert_eq!(grew, 0, "slot {slot} made {grew} scratch heap allocations in a warm region");
    }
}
