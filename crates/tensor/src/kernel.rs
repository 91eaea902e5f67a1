//! Register-tiled GEMM micro-kernels behind [`crate::matmul`] and friends.
//!
//! # Tiling scheme
//!
//! Each kernel walks its output in `MR`×`NR` register tiles: an `MR`×`NR`
//! block of accumulators lives in registers for the whole `k` loop, and the
//! `NR`-wide slice of `B` needed at each `k` step is read from a packed,
//! contiguous *panel* (`[k, NR]`, repacked once per `NR`-column block and
//! reused by every row tile). The `tn`/`nt` kernels additionally pack each
//! row tile's `A` elements into a `[k, MR]` strip, turning their strided
//! `A` access patterns into unit-stride streams. The naive i-k-j kernels
//! this replaces stream a full `n`-length row of `C` through memory at
//! every `k` step — `m·k` passes over `C` in total; the tiled kernels touch
//! each `C` element once, which is what makes mid-sized GEMMs compute-
//! rather than memory-bound.
//!
//! # Intra-GEMM parallelism
//!
//! The `par_gemm_*` drivers split the row-tile (i) and column-block (j)
//! loops across a `wr × wc` worker grid sized by [`crate::par`]: each
//! worker owns a contiguous range of `MR`-row tiles × a contiguous range of
//! `NR`-column blocks, packs **only its own** `B` panels (and `A` strips)
//! into its thread-local scratch pool, and writes its disjoint rectangle of
//! `C` in place. The grid shape adapts to the matrix: row-dominant shapes
//! split rows, wide shapes (a batch-1 forward, an im2col product) split
//! column blocks, so parallelism survives even when one dimension is a
//! single tile.
//!
//! # Determinism
//!
//! Tiling and the worker grid are over `i`/`j` **only** — every output
//! element still accumulates its products in ascending-`k` order into a
//! single `f32`, exactly the per-element operation sequence of the naive
//! kernels. Blocking over `k` (splitting one element's reduction into
//! partial sums) would change float rounding and break the workspace's
//! bitwise-determinism contract, so it is deliberately not done: at these
//! sizes the whole `k` extent of a `B` panel (`k · NR · 4` bytes) fits in
//! L1/L2 comfortably. Panel and strip packing copy bits verbatim. The
//! result is that every tiled kernel — serial or parallel, at any
//! `DCN_THREADS` value — is **bitwise identical** to its naive reference,
//! pinned by the property tests in `tests/kernels.rs` and
//! `tests/gemm_parallel.rs`.
//!
//! The one sanctioned exception is the **FMA opt-in**
//! ([`crate::par::ParConfig::fma`] / `DCN_FMA=1`): fused contraction
//! rounds once per multiply-add instead of twice, so the fused kernels are
//! tolerance-tested against the default path rather than bitwise-pinned.
//! They remain bitwise-stable across thread counts and across machines
//! (`f32::mul_add` guarantees single-rounding semantics with or without
//! hardware FMA), pinned by `tests/fma.rs`. The default path never fuses:
//! the AVX2 dispatch enables `avx2` only, keeping LLVM's autovectorization
//! per-lane IEEE mul-then-add.
//!
//! # Zero-skip semantics
//!
//! The historic `matmul`/`matmul_tn` kernels skip the whole `j` loop when
//! an `A` element is exactly `0.0` (`if aik == 0.0 { continue }`) — a win
//! on post-ReLU activations, and load-bearing for NaN propagation:
//! `0 · NaN` contributions are *dropped*, not turned into NaN. The tiled
//! kernels preserve this skip per `(row, k)` step, and `matmul_nt` remains
//! skip-free (a plain dot product that lets `0 · NaN` poison the output),
//! both pinned by regression tests.
//!
//! Kernels operate on a *row range* of the output so that
//! `dcn_tensor::par` can hand disjoint row chunks to worker threads; the
//! naive references share the signature so tests and benches can drive
//! either interchangeably.

use crate::{par, scratch};

/// Register-tile height: output rows accumulated simultaneously.
pub const MR: usize = 4;
/// Register-tile width: output columns accumulated simultaneously.
///
/// 16 columns give each of the MR rows two 8-lane AVX2 accumulators —
/// eight independent add chains, enough to hide `vaddps` latency (one
/// chain per row leaves the FP add ports half idle).
pub const NR: usize = 16;

/// Minimum flops a worker should receive before a GEMM opens a parallel
/// region; below this, thread start-up dominates the tile work.
const PAR_MIN_FLOPS: usize = 32_768;

// The full-tile fast paths below are hand-unrolled over exactly MR rows.
const _: () = assert!(MR == 4, "full-tile unrolls assume MR == 4");

// ---------------------------------------------------------------------------
// Multiply-accumulate policy
// ---------------------------------------------------------------------------

/// Per-step multiply-accumulate policy the tile cores are generic over.
///
/// [`Exact`] is the default, bitwise-pinned path; [`Fused`] is the
/// `DCN_FMA=1` opt-in. Both are deterministic — they differ only in how
/// many roundings one `acc ⊕ x·y` step performs.
trait Madd {
    /// `acc ⊕ x·y` under the policy's rounding.
    fn madd(acc: f32, x: f32, y: f32) -> f32;
}

/// Two roundings per step (`acc + x * y`) — the historic bit-exact path.
struct Exact;

impl Madd for Exact {
    #[inline(always)]
    fn madd(acc: f32, x: f32, y: f32) -> f32 {
        acc + x * y
    }
}

/// Single rounding per step (`x.mul_add(y, acc)`) — the FMA opt-in.
/// `f32::mul_add` has exact fused semantics even without hardware FMA
/// (libm software fallback), so results are machine-independent.
struct Fused;

impl Madd for Fused {
    #[inline(always)]
    fn madd(acc: f32, x: f32, y: f32) -> f32 {
        x.mul_add(y, acc)
    }
}

// ---------------------------------------------------------------------------
// Output pointer and tile store
// ---------------------------------------------------------------------------

/// Base pointer of the full output matrix, shared across grid workers.
///
/// A raw pointer rather than `&mut [f32]` because the 2-D grid partitions
/// the output into (row-range × column-range) rectangles: two workers'
/// rectangles interleave within rows, so no slice split can hand each
/// worker a contiguous exclusive region.
#[derive(Clone, Copy)]
struct OutPtr(*mut f32);

// SAFETY: `OutPtr` only carries the base address across the worker-thread
// boundary. The parallel drivers guarantee that workers write disjoint
// element sets (tile-aligned row spans × block-aligned column spans from
// `par::partition_units` never overlap) and never read the buffer, and the
// exclusive `&mut` borrow of the underlying slice is held by the driver for
// the whole region, so the shared address cannot alias any other
// live access.
unsafe impl Send for OutPtr {}
// SAFETY: as for `Send` — workers only write provably disjoint elements.
unsafe impl Sync for OutPtr {}

/// Writes an accumulator tile into the output at tile origin `(r0, j0)`.
///
/// Each k-loop arm owns its own `acc` and calls this, instead of sharing
/// one `acc` across arms — sharing makes LLVM keep the accumulators on the
/// stack (load-add-store per k step) rather than in vector registers.
///
/// # Safety
///
/// `out` must be valid for writes at offsets `(r0 + r)·n + j0 + c` for all
/// `r < mc`, `c < nc`, and no other thread may access those elements
/// during the call.
// SAFETY: the `unsafe fn` exists to forward the `out` write contract; see
// the `# Safety` section.
#[inline(always)]
unsafe fn store_tile(
    out: OutPtr,
    acc: &[[f32; NR]; MR],
    mc: usize,
    nc: usize,
    r0: usize,
    j0: usize,
    n: usize,
) {
    for (r, accr) in acc.iter().enumerate().take(mc) {
        // SAFETY: the destination span `(r0 + r)·n + j0 ..+ nc` is in
        // bounds and exclusively owned by this caller per the function
        // contract; `accr` is a distinct stack array (`nc <= NR`), so
        // source and destination cannot overlap.
        unsafe { std::ptr::copy_nonoverlapping(accr.as_ptr(), out.0.add((r0 + r) * n + j0), nc) };
    }
}

// ---------------------------------------------------------------------------
// Panel packing
// ---------------------------------------------------------------------------

/// Packs `B`'s (`[k, n]`) column blocks starting at block `jb_lo` into
/// contiguous `[k, NR]` panels, as many as `packed` holds. Remainder
/// columns stay zero from the scratch pool's zero-fill; bits are copied
/// verbatim, so packed and unpacked reads are interchangeable.
fn pack_b(b: &[f32], packed: &mut [f32], jb_lo: usize, k: usize, n: usize) {
    for (pb, block) in packed.chunks_exact_mut(k * NR).enumerate() {
        let j0 = (jb_lo + pb) * NR;
        let nc = NR.min(n - j0);
        for kk in 0..k {
            block[kk * NR..kk * NR + nc].copy_from_slice(&b[kk * n + j0..kk * n + j0 + nc]);
        }
    }
}

/// Packs `Bᵀ`'s (`B: [n, k]`) column blocks starting at block `jb_lo` into
/// `[k, NR]` panels — the transposing twin of [`pack_b`] for the nt kernel.
fn pack_bt(b: &[f32], packed: &mut [f32], jb_lo: usize, k: usize, n: usize) {
    for (pb, block) in packed.chunks_exact_mut(k * NR).enumerate() {
        let j0 = (jb_lo + pb) * NR;
        let nc = NR.min(n - j0);
        for (c, col) in (j0..j0 + nc).enumerate() {
            for kk in 0..k {
                block[kk * NR + c] = b[col * k + kk];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tile cores (generic over the Madd policy)
// ---------------------------------------------------------------------------

/// One worker's share of an NN product: output rows `r_lo..r_hi`
/// (chunk-relative; A rows at `i0 + r`) × the packed panels for column
/// blocks `jb_lo..jb_lo + packed.len() / (k·NR)`.
///
/// # Safety
///
/// `out` must satisfy [`store_tile`]'s contract for every tile in the
/// row × block range — i.e. be valid for exclusive writes at `r·n + j` for
/// all `r ∈ r_lo..r_hi`, `j ∈ jb_lo·NR..min(jb_lo·NR + panels·NR, n)`.
// SAFETY: `unsafe fn` to forward `store_tile`'s `out` write contract over
// the worker's row × block range; see the `# Safety` section.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn nn_tiles<M: Madd>(
    a: &[f32],
    packed: &[f32],
    out: OutPtr,
    i0: usize,
    r_lo: usize,
    r_hi: usize,
    jb_lo: usize,
    k: usize,
    n: usize,
) {
    for r0 in (r_lo..r_hi).step_by(MR) {
        let mc = MR.min(r_hi - r0);
        let base = (i0 + r0) * k;
        // Zero-skip hoisted out of the hot loop: one O(MR·k) scan per row
        // tile (once per tile, not once per j block) decides whether any
        // lane would skip. Dense tiles — weight matrices, pre-ReLU data,
        // the common case — then run a completely branch-free k loop; when
        // nothing skips, both loops perform the identical per-element
        // operation sequence, so results stay bitwise equal either way.
        let dense = mc == MR && a[base..base + MR * k].iter().all(|&v| v != 0.0);
        for (pb, panel) in packed.chunks_exact(k * NR).enumerate() {
            let j0 = (jb_lo + pb) * NR;
            let nc = NR.min(n - j0);
            if mc == MR && nc == NR {
                // Full tile: A's four rows are pre-sliced and the row loop
                // hand-unrolled, so the whole MR×NR accumulator block lives
                // in vector registers across the k loop with one panel-row
                // load and four broadcast-multiply-adds per k step.
                let a0 = &a[base..base + k];
                let a1 = &a[base + k..base + 2 * k];
                let a2 = &a[base + 2 * k..base + 3 * k];
                let a3 = &a[base + 3 * k..base + 4 * k];
                let lanes = a0.iter().zip(a1).zip(a2).zip(a3);
                if dense {
                    let mut acc = [[0.0f32; NR]; MR];
                    for ((((&v0, &v1), &v2), &v3), prow) in lanes.zip(panel.chunks_exact(NR)) {
                        for c in 0..NR {
                            let p = prow[c];
                            acc[0][c] = M::madd(acc[0][c], v0, p);
                            acc[1][c] = M::madd(acc[1][c], v1, p);
                            acc[2][c] = M::madd(acc[2][c], v2, p);
                            acc[3][c] = M::madd(acc[3][c], v3, p);
                        }
                    }
                    // SAFETY: forwarded from this function's contract; the
                    // tile at (r0, j0) lies inside the caller's span.
                    unsafe { store_tile(out, &acc, MR, NR, r0, j0, n) };
                } else {
                    // `!= 0.0` is the historic zero-skip inverted: NaN
                    // compares unequal, so NaN lanes still multiply
                    // through, and exact zeros contribute nothing.
                    let mut acc = [[0.0f32; NR]; MR];
                    for ((((&v0, &v1), &v2), &v3), prow) in lanes.zip(panel.chunks_exact(NR)) {
                        if v0 != 0.0 {
                            for c in 0..NR {
                                acc[0][c] = M::madd(acc[0][c], v0, prow[c]);
                            }
                        }
                        if v1 != 0.0 {
                            for c in 0..NR {
                                acc[1][c] = M::madd(acc[1][c], v1, prow[c]);
                            }
                        }
                        if v2 != 0.0 {
                            for c in 0..NR {
                                acc[2][c] = M::madd(acc[2][c], v2, prow[c]);
                            }
                        }
                        if v3 != 0.0 {
                            for c in 0..NR {
                                acc[3][c] = M::madd(acc[3][c], v3, prow[c]);
                            }
                        }
                    }
                    // SAFETY: forwarded from this function's contract.
                    unsafe { store_tile(out, &acc, MR, NR, r0, j0, n) };
                }
            } else {
                let mut acc = [[0.0f32; NR]; MR];
                for kk in 0..k {
                    let prow = &panel[kk * NR..kk * NR + NR];
                    for (r, accr) in acc.iter_mut().enumerate().take(mc) {
                        let aik = a[(i0 + r0 + r) * k + kk];
                        if aik == 0.0 {
                            continue;
                        }
                        for c in 0..nc {
                            accr[c] = M::madd(accr[c], aik, prow[c]);
                        }
                    }
                }
                // SAFETY: forwarded from this function's contract.
                unsafe { store_tile(out, &acc, mc, nc, r0, j0, n) };
            }
        }
    }
}

/// One worker's share of a TN product (`A: [k, m]`, read as `Aᵀ`): output
/// rows `r_lo..r_hi` (A columns at `i0 + r`) × the packed panels for
/// column blocks `jb_lo..`.
///
/// # Safety
///
/// As [`nn_tiles`]: `out` must be valid for exclusive writes over the
/// row × block range.
// SAFETY: `unsafe fn` to forward `store_tile`'s `out` write contract over
// the worker's row × block range; see the `# Safety` section.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tn_tiles<M: Madd>(
    a: &[f32],
    packed: &[f32],
    out: OutPtr,
    i0: usize,
    r_lo: usize,
    r_hi: usize,
    jb_lo: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    // A strip: the row tile's elements repacked [k, MR], turning the
    // stride-m loads of Aᵀ's tile columns into unit-stride streams, paid
    // once per row tile instead of once per (row tile, column block) pair.
    // Bits are copied verbatim, so packed reads match strided ones.
    let mut atile = scratch::take(k * MR);
    for r0 in (r_lo..r_hi).step_by(MR) {
        let mc = MR.min(r_hi - r0);
        let c0 = i0 + r0;
        for kk in 0..k {
            atile[kk * MR..kk * MR + mc].copy_from_slice(&a[kk * m + c0..kk * m + c0 + mc]);
        }
        // Lanes `mc..MR` of a short tile hold stale values from the
        // previous tile; they are never read (the full-tile arms require
        // mc == MR and the remainder loop stops at mc).
        let dense = mc == MR && atile.iter().all(|&v| v != 0.0);
        for (pb, panel) in packed.chunks_exact(k * NR).enumerate() {
            let j0 = (jb_lo + pb) * NR;
            let nc = NR.min(n - j0);
            if mc == MR && nc == NR {
                if dense {
                    let mut acc = [[0.0f32; NR]; MR];
                    for (kk, prow) in panel.chunks_exact(NR).enumerate() {
                        let av = &atile[kk * MR..kk * MR + MR];
                        let (v0, v1, v2, v3) = (av[0], av[1], av[2], av[3]);
                        for c in 0..NR {
                            let p = prow[c];
                            acc[0][c] = M::madd(acc[0][c], v0, p);
                            acc[1][c] = M::madd(acc[1][c], v1, p);
                            acc[2][c] = M::madd(acc[2][c], v2, p);
                            acc[3][c] = M::madd(acc[3][c], v3, p);
                        }
                    }
                    // SAFETY: forwarded from this function's contract.
                    unsafe { store_tile(out, &acc, MR, NR, r0, j0, n) };
                } else {
                    let mut acc = [[0.0f32; NR]; MR];
                    for (kk, prow) in panel.chunks_exact(NR).enumerate() {
                        let av = &atile[kk * MR..kk * MR + MR];
                        let (v0, v1, v2, v3) = (av[0], av[1], av[2], av[3]);
                        if v0 != 0.0 {
                            for c in 0..NR {
                                acc[0][c] = M::madd(acc[0][c], v0, prow[c]);
                            }
                        }
                        if v1 != 0.0 {
                            for c in 0..NR {
                                acc[1][c] = M::madd(acc[1][c], v1, prow[c]);
                            }
                        }
                        if v2 != 0.0 {
                            for c in 0..NR {
                                acc[2][c] = M::madd(acc[2][c], v2, prow[c]);
                            }
                        }
                        if v3 != 0.0 {
                            for c in 0..NR {
                                acc[3][c] = M::madd(acc[3][c], v3, prow[c]);
                            }
                        }
                    }
                    // SAFETY: forwarded from this function's contract.
                    unsafe { store_tile(out, &acc, MR, NR, r0, j0, n) };
                }
            } else {
                let mut acc = [[0.0f32; NR]; MR];
                for kk in 0..k {
                    let prow = &panel[kk * NR..kk * NR + NR];
                    let arow = &atile[kk * MR..kk * MR + mc];
                    for (r, accr) in acc.iter_mut().enumerate().take(mc) {
                        let aki = arow[r];
                        if aki == 0.0 {
                            continue;
                        }
                        for c in 0..nc {
                            accr[c] = M::madd(accr[c], aki, prow[c]);
                        }
                    }
                }
                // SAFETY: forwarded from this function's contract.
                unsafe { store_tile(out, &acc, mc, nc, r0, j0, n) };
            }
        }
    }
    scratch::recycle(atile);
}

/// One worker's share of an NT product (`A: [m, k]`, `B: [n, k]` packed
/// transposed): output rows `r_lo..r_hi` (A rows at `i0 + r`) × the packed
/// panels for column blocks `jb_lo..`. No zero-skip — every element is a
/// plain ascending-`k` dot product.
///
/// # Safety
///
/// As [`nn_tiles`]: `out` must be valid for exclusive writes over the
/// row × block range.
// SAFETY: `unsafe fn` to forward `store_tile`'s `out` write contract over
// the worker's row × block range; see the `# Safety` section.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn nt_tiles<M: Madd>(
    a: &[f32],
    packed: &[f32],
    out: OutPtr,
    i0: usize,
    r_lo: usize,
    r_hi: usize,
    jb_lo: usize,
    k: usize,
    n: usize,
) {
    // A strip [k, MR]: each k step then loads the tile's four A values as
    // one contiguous 4-wide slice instead of four scalars k elements apart
    // (which alias the same cache sets for power-of-two k).
    let mut atile = scratch::take(k * MR);
    for r0 in (r_lo..r_hi).step_by(MR) {
        let mc = MR.min(r_hi - r0);
        for r in 0..mc {
            let arow = &a[(i0 + r0 + r) * k..(i0 + r0 + r) * k + k];
            for (kk, &v) in arow.iter().enumerate() {
                atile[kk * MR + r] = v;
            }
        }
        for (pb, panel) in packed.chunks_exact(k * NR).enumerate() {
            let j0 = (jb_lo + pb) * NR;
            let nc = NR.min(n - j0);
            if mc == MR && nc == NR {
                let mut acc = [[0.0f32; NR]; MR];
                for (kk, prow) in panel.chunks_exact(NR).enumerate() {
                    let av = &atile[kk * MR..kk * MR + MR];
                    let (v0, v1, v2, v3) = (av[0], av[1], av[2], av[3]);
                    for c in 0..NR {
                        let p = prow[c];
                        acc[0][c] = M::madd(acc[0][c], v0, p);
                        acc[1][c] = M::madd(acc[1][c], v1, p);
                        acc[2][c] = M::madd(acc[2][c], v2, p);
                        acc[3][c] = M::madd(acc[3][c], v3, p);
                    }
                }
                // SAFETY: forwarded from this function's contract.
                unsafe { store_tile(out, &acc, MR, NR, r0, j0, n) };
            } else {
                let mut acc = [[0.0f32; NR]; MR];
                for kk in 0..k {
                    let prow = &panel[kk * NR..kk * NR + NR];
                    let arow = &atile[kk * MR..kk * MR + mc];
                    for (r, accr) in acc.iter_mut().enumerate().take(mc) {
                        let aik = arow[r];
                        for c in 0..nc {
                            accr[c] = M::madd(accr[c], aik, prow[c]);
                        }
                    }
                }
                // SAFETY: forwarded from this function's contract.
                unsafe { store_tile(out, &acc, mc, nc, r0, j0, n) };
            }
        }
    }
    scratch::recycle(atile);
}

// ---------------------------------------------------------------------------
// ISA dispatch
// ---------------------------------------------------------------------------

/// Instruction-set / rounding variant, resolved once per kernel invocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Isa {
    /// Portable scalar build, two roundings per step (bit-exact default).
    Scalar,
    /// AVX2 autovectorization, two roundings per step (bit-exact default —
    /// the `fma` feature is deliberately NOT enabled here).
    Avx2,
    /// Portable fused path (`f32::mul_add` through libm when the CPU lacks
    /// FMA) — slow, but bitwise-identical to [`Isa::Avx2Fma`].
    ScalarFused,
    /// AVX2 + hardware FMA, single rounding per step (the opt-in).
    Avx2Fma,
}

/// Resolves the active variant from the global [`par::ParConfig`] and the
/// CPU's runtime feature set. The fused variants are reached only through
/// the explicit `DCN_FMA=1` / [`par::ParConfig::fma`] opt-in.
fn active_isa() -> Isa {
    let fused = par::ParConfig::current().fma;
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            if fused && std::arch::is_x86_feature_detected!("fma") {
                return Isa::Avx2Fma;
            }
            if !fused {
                return Isa::Avx2;
            }
        }
    }
    if fused {
        Isa::ScalarFused
    } else {
        Isa::Scalar
    }
}

// SAFETY: `unsafe fn` because of `#[target_feature]` plus the forwarded
// `out` contract; the body is otherwise safe code. Callers must verify
// AVX2 at runtime before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn nn_tiles_avx2(
    a: &[f32],
    packed: &[f32],
    out: OutPtr,
    i0: usize,
    r_lo: usize,
    r_hi: usize,
    jb_lo: usize,
    k: usize,
    n: usize,
) {
    // SAFETY: the `out` contract is forwarded verbatim from this wrapper.
    unsafe { nn_tiles::<Exact>(a, packed, out, i0, r_lo, r_hi, jb_lo, k, n) };
}

// SAFETY: `unsafe fn` because of `#[target_feature]` plus the forwarded
// `out` contract; the body is otherwise safe code. Callers must verify
// AVX2 **and FMA** at runtime before calling; `mul_add` then compiles to
// `vfmadd` (single rounding — the tolerance-tested opt-in path).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn nn_tiles_avx2fma(
    a: &[f32],
    packed: &[f32],
    out: OutPtr,
    i0: usize,
    r_lo: usize,
    r_hi: usize,
    jb_lo: usize,
    k: usize,
    n: usize,
) {
    // SAFETY: the `out` contract is forwarded verbatim from this wrapper.
    unsafe { nn_tiles::<Fused>(a, packed, out, i0, r_lo, r_hi, jb_lo, k, n) };
}

// SAFETY: `unsafe fn` because of `#[target_feature]` plus the forwarded
// `out` contract; the body is otherwise safe code. Callers must verify
// AVX2 at runtime before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn tn_tiles_avx2(
    a: &[f32],
    packed: &[f32],
    out: OutPtr,
    i0: usize,
    r_lo: usize,
    r_hi: usize,
    jb_lo: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    // SAFETY: the `out` contract is forwarded verbatim from this wrapper.
    unsafe { tn_tiles::<Exact>(a, packed, out, i0, r_lo, r_hi, jb_lo, m, k, n) };
}

// SAFETY: `unsafe fn` because of `#[target_feature]` plus the forwarded
// `out` contract; the body is otherwise safe code. Callers must verify
// AVX2 **and FMA** at runtime before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn tn_tiles_avx2fma(
    a: &[f32],
    packed: &[f32],
    out: OutPtr,
    i0: usize,
    r_lo: usize,
    r_hi: usize,
    jb_lo: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    // SAFETY: the `out` contract is forwarded verbatim from this wrapper.
    unsafe { tn_tiles::<Fused>(a, packed, out, i0, r_lo, r_hi, jb_lo, m, k, n) };
}

// SAFETY: `unsafe fn` because of `#[target_feature]` plus the forwarded
// `out` contract; the body is otherwise safe code. Callers must verify
// AVX2 at runtime before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn nt_tiles_avx2(
    a: &[f32],
    packed: &[f32],
    out: OutPtr,
    i0: usize,
    r_lo: usize,
    r_hi: usize,
    jb_lo: usize,
    k: usize,
    n: usize,
) {
    // SAFETY: the `out` contract is forwarded verbatim from this wrapper.
    unsafe { nt_tiles::<Exact>(a, packed, out, i0, r_lo, r_hi, jb_lo, k, n) };
}

// SAFETY: `unsafe fn` because of `#[target_feature]` plus the forwarded
// `out` contract; the body is otherwise safe code. Callers must verify
// AVX2 **and FMA** at runtime before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn nt_tiles_avx2fma(
    a: &[f32],
    packed: &[f32],
    out: OutPtr,
    i0: usize,
    r_lo: usize,
    r_hi: usize,
    jb_lo: usize,
    k: usize,
    n: usize,
) {
    // SAFETY: the `out` contract is forwarded verbatim from this wrapper.
    unsafe { nt_tiles::<Fused>(a, packed, out, i0, r_lo, r_hi, jb_lo, k, n) };
}

/// Runs one worker's NN share on the resolved variant.
///
/// # Safety
///
/// As [`nn_tiles`]; additionally `isa` must come from [`active_isa`] so it
/// never names a feature the CPU lacks.
// SAFETY: `unsafe fn` to forward the tile cores' `out` write contract and
// the `isa`-from-`active_isa` feature requirement; see the `# Safety` section.
#[allow(clippy::too_many_arguments)]
unsafe fn run_nn(
    isa: Isa,
    a: &[f32],
    packed: &[f32],
    out: OutPtr,
    i0: usize,
    r_lo: usize,
    r_hi: usize,
    jb_lo: usize,
    k: usize,
    n: usize,
) {
    match isa {
        // SAFETY: `active_isa` verified AVX2 at runtime; the `out`
        // contract is forwarded verbatim.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { nn_tiles_avx2(a, packed, out, i0, r_lo, r_hi, jb_lo, k, n) },
        // SAFETY: `active_isa` verified AVX2 + FMA at runtime; the `out`
        // contract is forwarded verbatim.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => unsafe { nn_tiles_avx2fma(a, packed, out, i0, r_lo, r_hi, jb_lo, k, n) },
        // SAFETY: portable code; the `out` contract is forwarded verbatim.
        Isa::ScalarFused => unsafe { nn_tiles::<Fused>(a, packed, out, i0, r_lo, r_hi, jb_lo, k, n) },
        // SAFETY: portable code; the `out` contract is forwarded verbatim.
        _ => unsafe { nn_tiles::<Exact>(a, packed, out, i0, r_lo, r_hi, jb_lo, k, n) },
    }
}

/// Runs one worker's TN share on the resolved variant.
///
/// # Safety
///
/// As [`tn_tiles`]; `isa` must come from [`active_isa`].
// SAFETY: `unsafe fn` to forward the tile cores' `out` write contract and
// the `isa`-from-`active_isa` feature requirement; see the `# Safety` section.
#[allow(clippy::too_many_arguments)]
unsafe fn run_tn(
    isa: Isa,
    a: &[f32],
    packed: &[f32],
    out: OutPtr,
    i0: usize,
    r_lo: usize,
    r_hi: usize,
    jb_lo: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    match isa {
        // SAFETY: `active_isa` verified AVX2 at runtime; the `out`
        // contract is forwarded verbatim.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { tn_tiles_avx2(a, packed, out, i0, r_lo, r_hi, jb_lo, m, k, n) },
        // SAFETY: `active_isa` verified AVX2 + FMA at runtime; the `out`
        // contract is forwarded verbatim.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => unsafe { tn_tiles_avx2fma(a, packed, out, i0, r_lo, r_hi, jb_lo, m, k, n) },
        // SAFETY: portable code; the `out` contract is forwarded verbatim.
        Isa::ScalarFused => unsafe { tn_tiles::<Fused>(a, packed, out, i0, r_lo, r_hi, jb_lo, m, k, n) },
        // SAFETY: portable code; the `out` contract is forwarded verbatim.
        _ => unsafe { tn_tiles::<Exact>(a, packed, out, i0, r_lo, r_hi, jb_lo, m, k, n) },
    }
}

/// Runs one worker's NT share on the resolved variant.
///
/// # Safety
///
/// As [`nt_tiles`]; `isa` must come from [`active_isa`].
// SAFETY: `unsafe fn` to forward the tile cores' `out` write contract and
// the `isa`-from-`active_isa` feature requirement; see the `# Safety` section.
#[allow(clippy::too_many_arguments)]
unsafe fn run_nt(
    isa: Isa,
    a: &[f32],
    packed: &[f32],
    out: OutPtr,
    i0: usize,
    r_lo: usize,
    r_hi: usize,
    jb_lo: usize,
    k: usize,
    n: usize,
) {
    match isa {
        // SAFETY: `active_isa` verified AVX2 at runtime; the `out`
        // contract is forwarded verbatim.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { nt_tiles_avx2(a, packed, out, i0, r_lo, r_hi, jb_lo, k, n) },
        // SAFETY: `active_isa` verified AVX2 + FMA at runtime; the `out`
        // contract is forwarded verbatim.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => unsafe { nt_tiles_avx2fma(a, packed, out, i0, r_lo, r_hi, jb_lo, k, n) },
        // SAFETY: portable code; the `out` contract is forwarded verbatim.
        Isa::ScalarFused => unsafe { nt_tiles::<Fused>(a, packed, out, i0, r_lo, r_hi, jb_lo, k, n) },
        // SAFETY: portable code; the `out` contract is forwarded verbatim.
        _ => unsafe { nt_tiles::<Exact>(a, packed, out, i0, r_lo, r_hi, jb_lo, k, n) },
    }
}

// ---------------------------------------------------------------------------
// Serial row-range kernels (the historic public API)
// ---------------------------------------------------------------------------

/// Tiled `C[i0..i0+rows, :] = A · B` for `A: [m, k]`, `B: [k, n]`.
///
/// `out` is the chunk covering exactly `rows` output rows starting at
/// absolute row `i0`; it is fully overwritten (no pre-zeroing required).
/// Runs on the calling thread; [`par_gemm_nn`] is the grid-parallel driver.
pub fn gemm_nn(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, rows: usize, k: usize, n: usize) {
    if rows == 0 || n == 0 {
        return;
    }
    assert!(out.len() >= rows * n, "gemm_nn: out holds {} elements, need {}", out.len(), rows * n);
    if k == 0 {
        // Empty reduction: every element is an empty sum, exactly as the
        // naive kernels leave a zero-filled `out` untouched.
        out[..rows * n].fill(0.0);
        return;
    }
    let nblocks = n.div_ceil(NR);
    let mut packed = scratch::take(nblocks * k * NR);
    pack_b(b, &mut packed, 0, k, n);
    let dst = OutPtr(out.as_mut_ptr());
    // SAFETY: `dst` spans the exclusively borrowed `out` (≥ rows·n
    // elements, asserted above), the call is single-threaded, and the
    // row/block range covers exactly rows 0..rows × all blocks.
    // `active_isa` checks CPU features at runtime.
    unsafe { run_nn(active_isa(), a, &packed, dst, i0, 0, rows, 0, k, n) };
    scratch::recycle(packed);
}

/// Tiled `C[i0..i0+rows, :] = Aᵀ · B` for `A: [k, m]`, `B: [k, n]`.
///
/// `m` is the full height of the output (`A`'s column count); `out` covers
/// `rows` rows starting at absolute row `i0` and is fully overwritten.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    rows: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if rows == 0 || n == 0 {
        return;
    }
    assert!(out.len() >= rows * n, "gemm_tn: out holds {} elements, need {}", out.len(), rows * n);
    if k == 0 {
        // Empty reduction, as in `gemm_nn`.
        out[..rows * n].fill(0.0);
        return;
    }
    let nblocks = n.div_ceil(NR);
    let mut packed = scratch::take(nblocks * k * NR);
    pack_b(b, &mut packed, 0, k, n);
    let dst = OutPtr(out.as_mut_ptr());
    // SAFETY: as in `gemm_nn` — exclusive single-threaded span over the
    // whole chunk; features checked by `active_isa`.
    unsafe { run_tn(active_isa(), a, &packed, dst, i0, 0, rows, 0, m, k, n) };
    scratch::recycle(packed);
}

/// Tiled `C[i0..i0+rows, :] = A · Bᵀ` for `A: [m, k]`, `B: [n, k]`.
///
/// No zero-skip: every element is a plain ascending-`k` dot product, as in
/// the naive kernel. `out` covers `rows` rows starting at absolute row `i0`
/// and is fully overwritten.
pub fn gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, rows: usize, k: usize, n: usize) {
    if rows == 0 || n == 0 {
        return;
    }
    assert!(out.len() >= rows * n, "gemm_nt: out holds {} elements, need {}", out.len(), rows * n);
    if k == 0 {
        // Empty reduction, as in `gemm_nn`.
        out[..rows * n].fill(0.0);
        return;
    }
    let nblocks = n.div_ceil(NR);
    let mut packed = scratch::take(nblocks * k * NR);
    pack_bt(b, &mut packed, 0, k, n);
    let dst = OutPtr(out.as_mut_ptr());
    // SAFETY: as in `gemm_nn` — exclusive single-threaded span over the
    // whole chunk; features checked by `active_isa`.
    unsafe { run_nt(active_isa(), a, &packed, dst, i0, 0, rows, 0, k, n) };
    scratch::recycle(packed);
}

// ---------------------------------------------------------------------------
// Grid-parallel drivers
// ---------------------------------------------------------------------------

/// Worker budget for an `mt × nb`-tile GEMM with reduction depth `k`,
/// honoring the global configuration, the nested-region guard and the
/// flop floor.
fn plan_workers(mt: usize, nb: usize, k: usize) -> usize {
    let tile_flops = 2 * MR * NR * k.max(1);
    let min_tiles = PAR_MIN_FLOPS.div_ceil(tile_flops).max(1);
    par::planned_workers(mt * nb, min_tiles)
}

/// Splits `workers` into a `wr × wc` grid over `mt` row tiles and `nb`
/// column blocks.
///
/// Maximizes thread utilization (`wr · wc`), then minimizes duplicated
/// stream traffic: a worker re-reads its row range of `A` once per column
/// group and its column group of `B` is re-packed once per row group, so
/// the duplicated traffic is ∝ `wc·m + wr·n`. Row-dominant products (the
/// vote batch) come out row-split; wide products (a batch-1 forward, an
/// im2col patch product) come out column-split, which is what lets a
/// single-row GEMM still use every worker.
fn plan_grid(workers: usize, mt: usize, nb: usize, m: usize, n: usize) -> (usize, usize) {
    let mut best = (1, 1);
    let mut best_cover = 0;
    let mut best_cost = usize::MAX;
    for wc in 1..=workers.min(nb) {
        let wr = (workers / wc).min(mt);
        let cover = wr * wc;
        let cost = wc * m + wr * n;
        if cover > best_cover || (cover == best_cover && cost < best_cost) {
            best = (wr, wc);
            best_cover = cover;
            best_cost = cost;
        }
    }
    best
}

/// `C = A · B` over the whole output (`A: [m, k]`, `B: [k, n]`), with the
/// row-tile and column-block loops split across a worker grid. Each worker
/// packs only its own `B` panels into its thread-local scratch pool.
///
/// Per output element the computation is identical to [`gemm_nn`] — the
/// grid only changes *which thread* computes a tile, never the within-tile
/// `k`-order — so the result is **bitwise identical** to the serial kernel
/// for any thread count (pinned by `tests/gemm_parallel.rs`).
pub fn par_gemm_nn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(out.len(), m * n, "par_gemm_nn: out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let mt = m.div_ceil(MR);
    let nb = n.div_ceil(NR);
    let (wr, wc) = plan_grid(plan_workers(mt, nb, k), mt, nb, m, n);
    if wr * wc <= 1 {
        gemm_nn(a, b, out, 0, m, k, n);
        return;
    }
    let row_spans = par::partition_units(mt, wr);
    let col_spans = par::partition_units(nb, wc);
    let isa = active_isa();
    let dst = OutPtr(out.as_mut_ptr());
    par::run_workers(wr * wc, mt * nb, |w| {
        let (t0, tl) = row_spans[w / wc];
        let (jb0, jbl) = col_spans[w % wc];
        if tl == 0 || jbl == 0 {
            return;
        }
        let r_lo = t0 * MR;
        let r_hi = (r_lo + tl * MR).min(m);
        let mut packed = scratch::take(jbl * k * NR);
        pack_b(b, &mut packed, jb0, k, n);
        // SAFETY: `dst` spans the exclusively borrowed `out` (exactly m·n
        // elements, asserted above), which outlives the region:
        // `par::run_workers` returns only once every worker has finished.
        // Workers write disjoint regions: `partition_units` yields
        // non-overlapping tile-aligned row spans and block-aligned column
        // spans, and each (row, column) element belongs to exactly one
        // (row-span × column-span) grid cell. `active_isa` checked CPU
        // features at runtime.
        unsafe { run_nn(isa, a, &packed, dst, 0, r_lo, r_hi, jb0, k, n) };
        scratch::recycle(packed);
    });
}

/// `C = Aᵀ · B` over the whole output (`A: [k, m]`, `B: [k, n]`) — the
/// grid-parallel twin of [`gemm_tn`]; bitwise identical to it for any
/// thread count.
pub fn par_gemm_tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(out.len(), m * n, "par_gemm_tn: out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let mt = m.div_ceil(MR);
    let nb = n.div_ceil(NR);
    let (wr, wc) = plan_grid(plan_workers(mt, nb, k), mt, nb, m, n);
    if wr * wc <= 1 {
        gemm_tn(a, b, out, 0, m, m, k, n);
        return;
    }
    let row_spans = par::partition_units(mt, wr);
    let col_spans = par::partition_units(nb, wc);
    let isa = active_isa();
    let dst = OutPtr(out.as_mut_ptr());
    par::run_workers(wr * wc, mt * nb, |w| {
        let (t0, tl) = row_spans[w / wc];
        let (jb0, jbl) = col_spans[w % wc];
        if tl == 0 || jbl == 0 {
            return;
        }
        let r_lo = t0 * MR;
        let r_hi = (r_lo + tl * MR).min(m);
        let mut packed = scratch::take(jbl * k * NR);
        pack_b(b, &mut packed, jb0, k, n);
        // SAFETY: as in `par_gemm_nn` — disjoint tile-aligned spans over
        // the exclusively borrowed `out`, features checked at runtime.
        unsafe { run_tn(isa, a, &packed, dst, 0, r_lo, r_hi, jb0, m, k, n) };
        scratch::recycle(packed);
    });
}

/// `C = A · Bᵀ` over the whole output (`A: [m, k]`, `B: [n, k]`) — the
/// grid-parallel twin of [`gemm_nt`]; bitwise identical to it for any
/// thread count.
pub fn par_gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(out.len(), m * n, "par_gemm_nt: out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let mt = m.div_ceil(MR);
    let nb = n.div_ceil(NR);
    let (wr, wc) = plan_grid(plan_workers(mt, nb, k), mt, nb, m, n);
    if wr * wc <= 1 {
        gemm_nt(a, b, out, 0, m, k, n);
        return;
    }
    let row_spans = par::partition_units(mt, wr);
    let col_spans = par::partition_units(nb, wc);
    let isa = active_isa();
    let dst = OutPtr(out.as_mut_ptr());
    par::run_workers(wr * wc, mt * nb, |w| {
        let (t0, tl) = row_spans[w / wc];
        let (jb0, jbl) = col_spans[w % wc];
        if tl == 0 || jbl == 0 {
            return;
        }
        let r_lo = t0 * MR;
        let r_hi = (r_lo + tl * MR).min(m);
        let mut packed = scratch::take(jbl * k * NR);
        pack_bt(b, &mut packed, jb0, k, n);
        // SAFETY: as in `par_gemm_nn` — disjoint tile-aligned spans over
        // the exclusively borrowed `out`, features checked at runtime.
        unsafe { run_nt(isa, a, &packed, dst, 0, r_lo, r_hi, jb0, k, n) };
        scratch::recycle(packed);
    });
}

// ---------------------------------------------------------------------------
// Naive references (the seed kernels, retained verbatim)
// ---------------------------------------------------------------------------

/// The historic i-k-j `matmul` kernel, kept as the bitwise reference the
/// tiled [`gemm_nn`] must reproduce. `out` must be zero-filled on entry.
pub fn naive_nn(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
    for (r, orow) in out.chunks_mut(n).enumerate() {
        let i = i0 + r;
        let arow = &a[i * k..(i + 1) * k];
        for (kk, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bkj) in orow.iter_mut().zip(brow.iter()) {
                *o += aik * bkj;
            }
        }
    }
}

/// The historic `matmul_tn` kernel (bitwise reference for [`gemm_tn`]).
/// `out` must be zero-filled on entry.
pub fn naive_tn(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, m: usize, k: usize, n: usize) {
    for (r, orow) in out.chunks_mut(n).enumerate() {
        let i = i0 + r;
        for kk in 0..k {
            let aki = a[kk * m + i];
            if aki == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bkj) in orow.iter_mut().zip(brow.iter()) {
                *o += aki * bkj;
            }
        }
    }
}

/// The historic `matmul_nt` kernel (bitwise reference for [`gemm_nt`]).
pub fn naive_nt(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
    for (r, orow) in out.chunks_mut(n).enumerate() {
        let i = i0 + r;
        let arow = &a[i * k..(i + 1) * k];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&x, &y) in arow.iter().zip(brow.iter()) {
                acc += x * y;
            }
            *o = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 - n as f32 / 2.0) * scale).collect()
    }

    fn assert_bits_eq(tiled: &[f32], naive: &[f32], what: &str) {
        assert_eq!(tiled.len(), naive.len(), "{what}: length drift");
        for (i, (t, r)) in tiled.iter().zip(naive).enumerate() {
            assert_eq!(t.to_bits(), r.to_bits(), "{what}: element {i} ({t} vs {r})");
        }
    }

    #[test]
    fn tiled_nn_matches_naive_across_remainders() {
        // Every MR/NR remainder combination, including sub-tile shapes.
        for m in [1, 3, MR, MR + 1, 2 * MR + 3] {
            for n in [1, NR - 1, NR, NR + 1, 2 * NR + 5] {
                for k in [0, 1, 7] {
                    let a = seq(m * k, 0.25);
                    let b = seq(k * n, 0.5);
                    let mut tiled = vec![0.0; m * n];
                    let mut naive = vec![0.0; m * n];
                    gemm_nn(&a, &b, &mut tiled, 0, m, k, n);
                    naive_nn(&a, &b, &mut naive, 0, k, n);
                    assert_bits_eq(&tiled, &naive, &format!("nn {m}x{k}x{n}"));
                }
            }
        }
    }

    #[test]
    fn tiled_tn_matches_naive_across_remainders() {
        for m in [1, MR, MR + 2] {
            for n in [1, NR, NR + 3] {
                for k in [1, 6] {
                    let a = seq(k * m, 0.25);
                    let b = seq(k * n, 0.5);
                    let mut tiled = vec![0.0; m * n];
                    let mut naive = vec![0.0; m * n];
                    gemm_tn(&a, &b, &mut tiled, 0, m, m, k, n);
                    naive_tn(&a, &b, &mut naive, 0, m, k, n);
                    assert_bits_eq(&tiled, &naive, &format!("tn {m}x{k}x{n}"));
                }
            }
        }
    }

    #[test]
    fn tiled_nt_matches_naive_across_remainders() {
        for m in [1, MR, MR + 2] {
            for n in [1, NR, NR + 3] {
                for k in [1, 6] {
                    let a = seq(m * k, 0.25);
                    let b = seq(n * k, 0.5);
                    let mut tiled = vec![0.0; m * n];
                    let mut naive = vec![0.0; m * n];
                    gemm_nt(&a, &b, &mut tiled, 0, m, k, n);
                    naive_nt(&a, &b, &mut naive, 0, k, n);
                    assert_bits_eq(&tiled, &naive, &format!("nt {m}x{k}x{n}"));
                }
            }
        }
    }

    #[test]
    fn row_chunks_compose_to_the_full_product() {
        // The par layer hands kernels disjoint row ranges; gluing two ranges
        // must equal one full-range call.
        let (m, k, n) = (7, 5, 11);
        let a = seq(m * k, 0.3);
        let b = seq(k * n, 0.7);
        let mut full = vec![0.0; m * n];
        gemm_nn(&a, &b, &mut full, 0, m, k, n);
        let mut split = vec![0.0; m * n];
        let (top, bottom) = split.split_at_mut(3 * n);
        gemm_nn(&a, &b, top, 0, 3, k, n);
        gemm_nn(&a, &b, bottom, 3, 4, k, n);
        assert_bits_eq(&split, &full, "row-chunk composition");
    }

    #[test]
    fn grid_planner_covers_and_respects_bounds() {
        for workers in 1..=9 {
            for mt in [1, 2, 7, 64] {
                for nb in [1, 2, 5, 16] {
                    let (wr, wc) = plan_grid(workers, mt, nb, mt * MR, nb * NR);
                    assert!(wr >= 1 && wc >= 1);
                    assert!(wr <= mt, "wr {wr} > mt {mt}");
                    assert!(wc <= nb, "wc {wc} > nb {nb}");
                    assert!(wr * wc <= workers.max(1));
                    // Full utilization whenever the tile grid allows it.
                    if mt * nb >= workers {
                        assert!(
                            wr * wc >= workers / 2,
                            "poor utilization: {wr}x{wc} of {workers} on {mt}x{nb}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_row_products_split_over_columns() {
        // A batch-1 forward (one row tile, many column blocks) must still
        // fan out over the column dimension.
        let (wr, wc) = plan_grid(4, 1, 32, 1, 512);
        assert_eq!(wr, 1);
        assert_eq!(wc, 4);
    }
}
