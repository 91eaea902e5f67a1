//! Determinism contract of the parallel executor: for every parallelized
//! primitive, the output under any thread budget is **bitwise identical** to
//! the `threads = 1` legacy serial path. These tests compare raw `f32` bit
//! patterns, not approximate values — the guarantee is exact equality, and
//! any reordering of a per-unit reduction would trip it.

use dcn_tensor::{col2im, im2col, matmul, matmul_nt, matmul_tn, par, Conv2dGeometry, ParConfig, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard, OnceLock};

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

/// Runs `compute` once under the serial config and once per thread budget,
/// asserting bitwise-equal outputs throughout.
fn check_bitwise<F: Fn() -> Tensor>(what: &str, compute: F) {
    par::configure(ParConfig::serial());
    let reference = compute();
    for threads in [2, 3, 4, 8] {
        par::configure(ParConfig::with_threads(threads));
        let parallel = compute();
        assert_bitwise_eq(&reference, &parallel, &format!("{what} @ {threads} threads"));
    }
    par::reset();
}

#[test]
fn matmul_is_bitwise_deterministic_across_thread_budgets() {
    let _guard = config_lock();
    let mut rng = StdRng::seed_from_u64(71);
    // Odd dimensions so the row partition is uneven at every budget.
    let a = Tensor::randn(&[13, 9], 0.0, 1.0, &mut rng);
    let b = Tensor::randn(&[9, 11], 0.0, 1.0, &mut rng);
    check_bitwise("matmul", || matmul(&a, &b).unwrap());
}

#[test]
fn matmul_tn_is_bitwise_deterministic_across_thread_budgets() {
    let _guard = config_lock();
    let mut rng = StdRng::seed_from_u64(72);
    let a = Tensor::randn(&[9, 13], 0.0, 1.0, &mut rng);
    let b = Tensor::randn(&[9, 11], 0.0, 1.0, &mut rng);
    check_bitwise("matmul_tn", || matmul_tn(&a, &b).unwrap());
}

#[test]
fn matmul_nt_is_bitwise_deterministic_across_thread_budgets() {
    let _guard = config_lock();
    let mut rng = StdRng::seed_from_u64(73);
    let a = Tensor::randn(&[13, 9], 0.0, 1.0, &mut rng);
    let b = Tensor::randn(&[11, 9], 0.0, 1.0, &mut rng);
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
    check_bitwise("matmul 0-row", || matmul(&a0, &b).unwrap());
    let a = Tensor::zeros(&[2, 4]);
    let b0 = Tensor::zeros(&[4, 0]);
    check_bitwise("matmul 0-col", || matmul(&a, &b0).unwrap());
    let one = Tensor::from_vec(vec![1, 1], vec![3.0]).unwrap();
    check_bitwise("matmul 1x1", || matmul(&one, &one).unwrap());
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
