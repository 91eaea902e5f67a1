//! Bitwise-determinism contract of the intra-GEMM worker grid: for every
//! kernel variant (`nn`/`tn`/`nt`), the grid-parallel driver must produce
//! output **bitwise identical** to the serial tiled kernel — and to the
//! naive reference — for *any* thread budget. The grid splits work over
//! row tiles and column blocks only; the per-element ascending-k
//! accumulation never changes, so these are exact `to_bits` comparisons,
//! not approximate ones.

use dcn_obs::names::{PAR_REGIONS_TOTAL, PAR_SERIAL_REGIONS_TOTAL};
use dcn_tensor::{kernel, par, ParConfig};
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

/// Deterministic non-trivial fill mixing signs, magnitudes, and exact zeros
/// (so the zero-skip arms get exercised on ordinary inputs too).
fn fill(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let v = ((i * 37 + salt * 17 + 11) % 97) as f32 * 0.125 - 6.0;
            if (i + salt).is_multiple_of(13) {
                0.0
            } else {
                v
            }
        })
        .collect()
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length drift");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} differs (got {g}, want {w})"
        );
    }
}

/// Parallel regions recorded so far that split across more than one
/// worker (counted only while collection is on).
fn split_regions() -> u64 {
    let serial = dcn_obs::counter(PAR_SERIAL_REGIONS_TOTAL).get();
    dcn_obs::counter(PAR_REGIONS_TOTAL).get() - serial
}

/// Runs all three parallel drivers on one shape under every thread budget,
/// pinning each against its serial kernel and its naive reference. Returns,
/// per budget, how many multi-worker regions the `nn`, `tn` and `nt` calls
/// opened.
fn check_shape(m: usize, k: usize, n: usize, threads: &[usize]) -> Vec<(usize, [u64; 3])> {
    let a_nn = fill(m * k, 1); // A: [m, k] (nn, nt row-major by rows)
    let a_tn = fill(k * m, 2); // A: [k, m] (tn reads columns)
    let b_nn = fill(k * n, 3); // B: [k, n]
    let b_nt = fill(n * k, 4); // B: [n, k]

    // Serial kernels never consult the thread budget — they ARE the contract.
    let mut serial_nn = vec![0.0f32; m * n];
    let mut serial_tn = vec![0.0f32; m * n];
    let mut serial_nt = vec![0.0f32; m * n];
    kernel::gemm_nn(&a_nn, &b_nn, &mut serial_nn, 0, m, k, n);
    kernel::gemm_tn(&a_tn, &b_nn, &mut serial_tn, 0, m, m, k, n);
    kernel::gemm_nt(&a_nn, &b_nt, &mut serial_nt, 0, m, k, n);

    // Triple-pin: the serial tiled kernels must equal the naive seeds.
    let mut naive = vec![0.0f32; m * n];
    kernel::naive_nn(&a_nn, &b_nn, &mut naive, 0, k, n);
    assert_bits_eq(&serial_nn, &naive, &format!("serial nn vs naive {m}x{k}x{n}"));
    naive.iter_mut().for_each(|v| *v = 0.0);
    kernel::naive_tn(&a_tn, &b_nn, &mut naive, 0, m, k, n);
    assert_bits_eq(&serial_tn, &naive, &format!("serial tn vs naive {m}x{k}x{n}"));
    naive.iter_mut().for_each(|v| *v = 0.0);
    kernel::naive_nt(&a_nn, &b_nt, &mut naive, 0, k, n);
    assert_bits_eq(&serial_nt, &naive, &format!("serial nt vs naive {m}x{k}x{n}"));

    dcn_obs::set_enabled(true);
    let mut split = Vec::new();
    for &t in threads {
        par::configure(ParConfig::with_threads(t));
        let mut out = vec![f32::NAN; m * n]; // stale garbage must be overwritten
        let before = split_regions();
        kernel::par_gemm_nn(&a_nn, &b_nn, &mut out, m, k, n);
        let nn = split_regions() - before;
        assert_bits_eq(&out, &serial_nn, &format!("par nn {m}x{k}x{n} @ {t} threads"));
        out.iter_mut().for_each(|v| *v = f32::NAN);
        let before = split_regions();
        kernel::par_gemm_tn(&a_tn, &b_nn, &mut out, m, k, n);
        let tn = split_regions() - before;
        assert_bits_eq(&out, &serial_tn, &format!("par tn {m}x{k}x{n} @ {t} threads"));
        out.iter_mut().for_each(|v| *v = f32::NAN);
        let before = split_regions();
        kernel::par_gemm_nt(&a_nn, &b_nt, &mut out, m, k, n);
        let nt = split_regions() - before;
        assert_bits_eq(&out, &serial_nt, &format!("par nt {m}x{k}x{n} @ {t} threads"));
        split.push((t, [nn, tn, nt]));
    }
    par::reset();
    dcn_obs::clear_enabled_override();
    split
}

#[test]
fn grid_parallel_gemm_is_bitwise_identical_for_any_thread_count() {
    let _guard = config_lock();
    // Odd, tile-misaligned dimensions with enough tiles and reduction depth
    // to clear the flop floor and open a real multi-worker grid.
    let mut split = check_shape(33, 64, 41, &[1, 2, 3, 5, 8]);
    // Tile-aligned grid-friendly shape: 10 row tiles × 4 column blocks.
    split.extend(check_shape(40, 64, 64, &[1, 2, 3, 5, 8]));
    // Row-dominant (the vote-batch silhouette): many row tiles, one block.
    split.extend(check_shape(200, 48, 16, &[1, 2, 3, 5, 8]));
    // Every budget above 1 must have opened a real grid for every variant.
    for (t, per_variant) in split {
        assert!(
            t < 2 || per_variant.iter().all(|&n| n > 0),
            "a grid GEMM ran serially @ {t} threads: {per_variant:?} split regions (nn, tn, nt)"
        );
    }
}

#[test]
fn degenerate_k_zero_is_all_zero_under_every_budget() {
    let _guard = config_lock();
    for t in [1, 2, 3, 8] {
        par::configure(ParConfig::with_threads(t));
        let mut out = vec![f32::NAN; 5 * 7];
        kernel::par_gemm_nn(&[], &[], &mut out, 5, 0, 7);
        assert!(
            out.iter().all(|&v| v == 0.0),
            "k=0 must zero-fill @ {t} threads"
        );
    }
    par::reset();
}

#[test]
fn degenerate_narrow_and_short_shapes_survive_every_budget() {
    let _guard = config_lock();
    // n < NR (single partial column block), rows < MR (single partial row
    // tile), and both at once — the remainder paths under the grid.
    check_shape(12, 16, kernel::NR - 7, &[1, 2, 3, 8]);
    check_shape(kernel::MR - 2, 16, 40, &[1, 2, 3, 8]);
    check_shape(kernel::MR - 1, 8, kernel::NR - 1, &[1, 2, 3, 8]);
}

#[test]
fn single_row_a_still_matches_under_column_split() {
    let _guard = config_lock();
    // One row tile and many column blocks: parallelism (if any) must come
    // from the column dimension and still be bitwise-clean.
    check_shape(1, 64, 200, &[1, 2, 3, 8]);
}

#[test]
fn all_zero_a_takes_the_skip_path_everywhere() {
    let _guard = config_lock();
    let (m, k, n) = (24, 32, 48);
    let a = vec![0.0f32; m * k];
    let b = fill(k * n, 9);
    let bt = fill(n * k, 10);
    for t in [1, 2, 3, 8] {
        par::configure(ParConfig::with_threads(t));
        let mut out = vec![f32::NAN; m * n];
        kernel::par_gemm_nn(&a, &b, &mut out, m, k, n);
        assert!(out.iter().all(|&v| v == 0.0), "zero A, nn @ {t} threads");
        out.iter_mut().for_each(|v| *v = f32::NAN);
        kernel::par_gemm_tn(&a, &b, &mut out, m, k, n);
        assert!(out.iter().all(|&v| v == 0.0), "zero A, tn @ {t} threads");
        out.iter_mut().for_each(|v| *v = f32::NAN);
        kernel::par_gemm_nt(&a, &bt, &mut out, m, k, n);
        assert!(out.iter().all(|&v| v == 0.0), "zero A, nt @ {t} threads");
    }
    par::reset();
}

#[test]
fn empty_outputs_are_no_ops_under_every_budget() {
    let _guard = config_lock();
    for t in [1, 2, 3, 8] {
        par::configure(ParConfig::with_threads(t));
        let mut out: Vec<f32> = vec![];
        kernel::par_gemm_nn(&[], &fill(3 * 4, 1), &mut out, 0, 3, 4);
        kernel::par_gemm_tn(&fill(3 * 2, 2), &[], &mut out, 2, 3, 0);
        kernel::par_gemm_nt(&[], &fill(4 * 3, 3), &mut out, 0, 3, 4);
        assert!(out.is_empty());
    }
    par::reset();
}
