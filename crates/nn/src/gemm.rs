//! Cache-blocked, register-tiled, thread-parallel GEMM (DESIGN.md §2, ISSUE 1).
//!
//! `C = A · B` for row-major `f32` slices, in the classic three-level
//! BLIS/GotoBLAS blocking scheme:
//!
//! * **NC × KC** panels of `B` are packed into contiguous `NR`-column strips
//!   (shared by every thread),
//! * **MC × KC** panels of `A` are packed into `MR`-row strips (one buffer
//!   per thread),
//! * an **MR × NR** register-tiled micro-kernel accumulates `KC` rank-1
//!   updates entirely in registers before touching `C`.
//!
//! Parallelism: the `MC` row-panels of each `(NC, KC)` iteration are dealt
//! round-robin to `std::thread::scope` workers, which write disjoint row
//! bands of `C` (no locks, no atomics — crossbeam/parking_lot are
//! deliberately *not* dependencies, see DESIGN.md §6).
//!
//! On x86-64 the micro-kernel is instantiated twice — a baseline build and an
//! AVX2+FMA build selected once per call via `is_x86_feature_detected!` — so
//! the same binary runs on any machine and still uses 256-bit FMAs where the
//! hardware has them.
//!
//! [`gemm_naive`] / [`gemv_naive`] are the permanent correctness oracle
//! (`tests/gemm_prop.rs` checks the blocked kernel against them). Floating
//! point caveat: the blocked kernel sums strictly in `k` order per output
//! element, like the naive loop, but the FMA path contracts multiply+add, so
//! results agree to ~1e-6 relative, not bitwise — tests use the 1e-4 relative
//! tolerance from the acceptance criteria.

use darkside_trace as trace;

/// Micro-tile rows (register blocking in `m`).
pub const MR: usize = 8;
/// Micro-tile columns (register blocking in `n`; one AVX2 vector of f32).
pub const NR: usize = 8;
/// Cache-block size in `m`: an MC×KC packed A panel stays L2-resident.
const MC: usize = 128;
/// Cache-block size in `k`: MR×KC and KC×NR strips stay L1-resident.
const KC: usize = 256;
/// Cache-block size in `n`: a KC×NC packed B panel stays L2/L3-resident.
const NC: usize = 1024;

/// Work (in multiply-adds) below which spawning threads costs more than it
/// buys. Shared with the sparse kernels (`crate::sparse`).
pub(crate) const PARALLEL_FLOP_THRESHOLD: usize = 64 * 64 * 64;

/// Naive textbook triple loop, `C = A · B`. The correctness oracle and the
/// single-thread perf baseline — do not "optimize" this.
///
/// `a` is `m×k`, `b` is `k×n`, `c` is `m×n`, all row-major.
pub fn gemm_naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_shapes(m, n, k, a, b, c);
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0.0f32;
            for p in 0..k {
                sum += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = sum;
        }
    }
}

/// Dense mat-vec `y = A · x` (`A` is `m×n` row-major). This is the dense
/// baseline the CSR SpMV in `darkside-pruning` must beat at high sparsity.
pub fn gemv_naive(m: usize, n: usize, a: &[f32], x: &[f32], y: &mut [f32]) {
    assert_eq!(a.len(), m * n, "gemv: A shape mismatch");
    assert_eq!(x.len(), n, "gemv: x length mismatch");
    assert_eq!(y.len(), m, "gemv: y length mismatch");
    for (yi, row) in y.iter_mut().zip(a.chunks_exact(n.max(1)).take(m)) {
        *yi = row.iter().zip(x).map(|(&w, &v)| w * v).sum();
    }
}

/// Blocked, packed, register-tiled, multi-threaded `C = A · B`.
///
/// Thread count defaults to [`std::thread::available_parallelism`] for large
/// problems and 1 when the work would not amortize a spawn.
pub fn gemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let threads = if m * n * k >= PARALLEL_FLOP_THRESHOLD {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        1
    };
    gemm_with_threads(m, n, k, a, b, c, threads);
}

/// Kernel-timing hook (ISSUE 4): time `f` as one whole call on the caller's
/// thread and charge it to the `nn.<kernel>` trace metrics. Inactive trace
/// costs one thread-local flag read.
#[inline]
pub(crate) fn timed_kernel<T>(kernel: &str, flops: u64, f: impl FnOnce() -> T) -> T {
    if !trace::active() {
        return f();
    }
    let t0 = trace::now_ns();
    let out = f();
    let ns = trace::now_ns().saturating_sub(t0);
    let mut name = String::with_capacity(3 + kernel.len() + 6);
    name.push_str("nn.");
    name.push_str(kernel);
    let base = name.len();
    name.push_str(".ns");
    trace::sample(&name, ns as f64);
    name.truncate(base);
    name.push_str(".calls");
    trace::counter(&name, 1);
    if flops > 0 {
        name.truncate(base);
        name.push_str(".flops");
        trace::counter(&name, flops);
    }
    out
}

/// [`gemm`] with an explicit worker count (`threads >= 1`).
pub fn gemm_with_threads(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
) {
    timed_kernel("gemm", 2 * (m * n * k) as u64, || {
        gemm_blocked(m, n, k, a, b, c, threads)
    });
}

fn gemm_blocked(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32], threads: usize) {
    check_shapes(m, n, k, a, b, c);
    c.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let kernel = select_kernel();
    // One ic block per MC rows; threads beyond that have nothing to do.
    let threads = threads.clamp(1, m.div_ceil(MC));

    let mut bpack = vec![0.0f32; KC * NC];
    for jc in (0..n).step_by(NC) {
        let nc_eff = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc_eff = KC.min(k - pc);
            pack_b(&mut bpack, b, n, pc, kc_eff, jc, nc_eff);
            let bpack = &bpack[..];
            if threads == 1 {
                let mut apack = vec![0.0f32; MC * KC];
                for (ic_idx, band) in c.chunks_mut(MC * n).enumerate() {
                    process_row_band(
                        ic_idx * MC,
                        band,
                        a,
                        bpack,
                        &mut apack,
                        m,
                        n,
                        k,
                        pc,
                        kc_eff,
                        jc,
                        nc_eff,
                        kernel,
                    );
                }
            } else {
                // Deal the MC-row bands of C round-robin onto `threads` workers.
                // Bands are disjoint `&mut` slices, so no synchronization is
                // needed beyond the scope join.
                let mut assignments: Vec<Vec<(usize, &mut [f32])>> =
                    (0..threads).map(|_| Vec::new()).collect();
                for (ic_idx, band) in c.chunks_mut(MC * n).enumerate() {
                    assignments[ic_idx % threads].push((ic_idx * MC, band));
                }
                std::thread::scope(|scope| {
                    for bands in assignments {
                        scope.spawn(move || {
                            let mut apack = vec![0.0f32; MC * KC];
                            for (ic, band) in bands {
                                process_row_band(
                                    ic, band, a, bpack, &mut apack, m, n, k, pc, kc_eff, jc,
                                    nc_eff, kernel,
                                );
                            }
                        });
                    }
                });
            }
        }
    }
}

fn check_shapes(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm: A is not {m}x{k}");
    assert_eq!(b.len(), k * n, "gemm: B is not {k}x{n}");
    assert_eq!(c.len(), m * n, "gemm: C is not {m}x{n}");
}

/// One MC-row band of C for one (jc, pc) panel: pack the A panel, then run
/// the micro-kernel over every MR×NR tile.
#[allow(clippy::too_many_arguments)]
fn process_row_band(
    ic: usize,
    band: &mut [f32],
    a: &[f32],
    bpack: &[f32],
    apack: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    pc: usize,
    kc_eff: usize,
    jc: usize,
    nc_eff: usize,
    kernel: MicroKernel,
) {
    let mc_eff = MC.min(m - ic);
    debug_assert_eq!(band.len(), mc_eff * n);
    pack_a(apack, a, k, ic, mc_eff, pc, kc_eff);
    for jr in (0..nc_eff).step_by(NR) {
        let nr_eff = NR.min(nc_eff - jr);
        let bstrip = &bpack[(jr / NR) * KC * NR..][..kc_eff * NR];
        for ir in (0..mc_eff).step_by(MR) {
            let mr_eff = MR.min(mc_eff - ir);
            let astrip = &apack[(ir / MR) * KC * MR..][..kc_eff * MR];
            let c_tile = &mut band[ir * n + jc + jr..];
            // SAFETY: the kernel only requires its target features when it is
            // the AVX2 instantiation, which select_kernel() only returns after
            // runtime detection succeeded.
            unsafe { kernel(kc_eff, astrip, bstrip, c_tile, n, mr_eff, nr_eff) };
        }
    }
}

/// Pack the `mc × kc` panel of A at `(row0, col0)` into MR-row strips:
/// strip `ir` holds rows `row0 + ir*MR ..`, laid out `p`-major so the kernel
/// reads `MR` contiguous values per `k` step. Edge strips are zero-padded.
fn pack_a(
    apack: &mut [f32],
    a: &[f32],
    lda: usize,
    row0: usize,
    mc: usize,
    col0: usize,
    kc: usize,
) {
    for ir in (0..mc).step_by(MR) {
        let strip = &mut apack[(ir / MR) * KC * MR..][..kc * MR];
        let rows = MR.min(mc - ir);
        for p in 0..kc {
            let dst = &mut strip[p * MR..p * MR + MR];
            for (r, d) in dst.iter_mut().enumerate() {
                *d = if r < rows {
                    a[(row0 + ir + r) * lda + col0 + p]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Pack the `kc × nc` panel of B at `(row0, col0)` into NR-column strips:
/// strip `jr` holds columns `col0 + jr*NR ..`, laid out `p`-major so the
/// kernel reads `NR` contiguous values per `k` step. Edge strips zero-padded.
fn pack_b(
    bpack: &mut [f32],
    b: &[f32],
    ldb: usize,
    row0: usize,
    kc: usize,
    col0: usize,
    nc: usize,
) {
    for jr in (0..nc).step_by(NR) {
        let strip = &mut bpack[(jr / NR) * KC * NR..][..kc * NR];
        let cols = NR.min(nc - jr);
        for p in 0..kc {
            let src_row = (row0 + p) * ldb + col0 + jr;
            let dst = &mut strip[p * NR..p * NR + NR];
            for (cidx, d) in dst.iter_mut().enumerate() {
                *d = if cidx < cols { b[src_row + cidx] } else { 0.0 };
            }
        }
    }
}

/// `kernel(kc, a_strip, b_strip, c_tile, ldc, mr_eff, nr_eff)`:
/// `c_tile[r*ldc + j] += Σ_p a_strip[p*MR + r] * b_strip[p*NR + j]`
/// for `r < mr_eff`, `j < nr_eff`.
type MicroKernel = unsafe fn(usize, &[f32], &[f32], &mut [f32], usize, usize, usize);

/// The register-tile accumulation loop shared by the dense micro-kernel and
/// the BSR block kernel (`crate::sparse`): `kc` rank-1 updates into an
/// MR×NR accumulator held entirely in registers. `ap` is `p`-major MR-wide,
/// `bp` is `p`-major NR-wide — the layouts [`pack_a`]/[`pack_b`] produce and
/// BSR blocks are stored in. `USE_FMA` must only be true when the
/// surrounding instantiation enables the `fma` target feature — otherwise
/// `mul_add` lowers to a libm call and is ~100× slower than mul+add.
#[inline(always)]
pub(crate) fn accumulate_tile<const USE_FMA: bool>(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for (accr, &ar) in acc.iter_mut().zip(av) {
            for (accv, &bj) in accr.iter_mut().zip(bv) {
                *accv = if USE_FMA {
                    ar.mul_add(bj, *accv)
                } else {
                    ar * bj + *accv
                };
            }
        }
    }
}

/// The MR×NR register-tiled micro-kernel: accumulate, then spill to C.
#[inline(always)]
fn kernel_body<const USE_FMA: bool>(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    accumulate_tile::<USE_FMA>(kc, ap, bp, &mut acc);
    for (r, accr) in acc.iter().enumerate().take(mr_eff) {
        let crow = &mut c[r * ldc..r * ldc + nr_eff];
        for (cv, &av) in crow.iter_mut().zip(accr) {
            *cv += av;
        }
    }
}

unsafe fn kernel_generic(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    kernel_body::<false>(kc, ap, bp, c, ldc, mr_eff, nr_eff);
}

/// AVX2+FMA instantiation: `kernel_body` is `#[inline(always)]`, so its loops
/// are recompiled here with 256-bit vectors and fused multiply-adds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kernel_avx2_fma(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    kernel_body::<true>(kc, ap, bp, c, ldc, mr_eff, nr_eff);
}

fn select_kernel() -> MicroKernel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return kernel_avx2_fma;
        }
    }
    kernel_generic
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_known_product() {
        // [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c_naive = [0.0f32; 4];
        let mut c_blocked = [0.0f32; 4];
        gemm_naive(2, 2, 2, &a, &b, &mut c_naive);
        gemm(2, 2, 2, &a, &b, &mut c_blocked);
        assert_eq!(c_naive, [19.0, 22.0, 43.0, 50.0]);
        assert_eq!(c_blocked, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn zero_dimensions_are_noops() {
        let mut c = [7.0f32; 6];
        gemm(2, 3, 0, &[], &[], &mut c);
        assert_eq!(c, [0.0; 6]); // k = 0 means C = 0, not "untouched"
        gemm(0, 0, 5, &[], &[], &mut []);
    }

    #[test]
    fn gemv_matches_gemm_column() {
        let m = 7;
        let n = 13;
        let a: Vec<f32> = (0..m * n).map(|v| (v % 11) as f32 - 5.0).collect();
        let x: Vec<f32> = (0..n).map(|v| (v % 5) as f32 - 2.0).collect();
        let mut y = vec![0.0f32; m];
        gemv_naive(m, n, &a, &x, &mut y);
        let mut c = vec![0.0f32; m];
        gemm_naive(m, 1, n, &a, &x, &mut c);
        assert_eq!(y, c);
    }
}
