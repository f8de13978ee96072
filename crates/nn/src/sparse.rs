//! Sparse matrix–matrix kernels for pruned layers (ISSUE 6 tentpole).
//!
//! Two kernels, both `C = S · B` for a sparse `S` (`m×k`) and a dense
//! row-major `B` (`k×n`), sharing [`gemm`](crate::gemm)'s machinery:
//!
//! * [`csr_spmm`] — unstructured CSR. The pre-PR 6 implementation was a
//!   scalar single-threaded axpy per nonzero; this one processes nonzeros
//!   four at a time (one pass over the C row per quad, 4× less C traffic,
//!   enough independent streams for the vectorizer) and deals contiguous
//!   row bands onto `std::thread::scope` workers exactly like `gemm`.
//! * [`bsr_spmm`] — block-sparse-row with `r×c` blocks. When `r == MR`
//!   (the GEMM micro-tile height) every nonzero block is fed straight into
//!   the same register-tile accumulation body the dense micro-kernel uses
//!   ([`gemm::accumulate_tile`]): B is packed once into NR-column strips
//!   (the `pack_b` layout, full-k), each block is stored `k`-major so it
//!   *is* an `MR`-wide packed A strip, and a whole block-row accumulates
//!   into one MR×NR register tile before touching C. Sparsity then skips
//!   work without abandoning the dense inner loop — the software analogue
//!   of accelerator-aware pruning (Kang, PAPERS.md).
//!
//! **Bit-exactness contract.** Every kernel here accumulates each output
//! element in strictly ascending `k` order with separately-rounded
//! multiply-then-add (no FMA contraction, even in the AVX2 instantiation —
//! `bsr_tile_avx2` spells the tile out as `vmulps` + `vaddps` intrinsics,
//! never `vfmadd`). A stored zero inside a kept block
//! contributes `±0.0`, which never changes a finite accumulation. The
//! result: CSR, BSR, and a masked-dense reference that skips pruned
//! weights produce **bit-identical** outputs (`f32::to_bits`), so a served
//! hypothesis stream is provably independent of the storage format. The
//! scalar oracle is `masked_spmm_ref` in `darkside-pruning`'s
//! `tests/bsr_prop.rs` (`bsr_spmm_bit_exact_vs_csr_and_masked_dense`
//! pins `Csr::spmm` and `Bsr::spmm` to it over random shapes).

use crate::gemm::{accumulate_tile, timed_kernel, MR, NR, PARALLEL_FLOP_THRESHOLD};

/// Threads to use for `flops` of sparse work: 1 below the spawn-amortization
/// threshold, the host parallelism above it, never more than `bands`.
fn sparse_threads(flops: usize, bands: usize) -> usize {
    if flops >= PARALLEL_FLOP_THRESHOLD {
        std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .clamp(1, bands.max(1))
    } else {
        1
    }
}

// ---------------------------------------------------------------------------
// CSR
// ---------------------------------------------------------------------------

/// Unstructured CSR SpMM: `C = S · B` where `S` is `rows×cols` in CSR form
/// (`row_ptr`/`col_idx`/`vals`), `B` is `cols×n` row-major, `C` is `rows×n`.
///
/// Row bands are dealt to `std::thread::scope` workers (rows are
/// independent, so threading cannot change results); within a row, nonzeros
/// are processed four at a time with a single left-to-right rounded update
/// per C element, which preserves the ascending-column accumulation order
/// of the scalar loop bit-for-bit.
#[allow(clippy::too_many_arguments)]
pub fn csr_spmm(
    rows: usize,
    cols: usize,
    n: usize,
    row_ptr: &[u32],
    col_idx: &[u32],
    vals: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    assert_eq!(row_ptr.len(), rows + 1, "csr_spmm: row_ptr length");
    assert_eq!(col_idx.len(), vals.len(), "csr_spmm: index/value lengths");
    assert_eq!(b.len(), cols * n, "csr_spmm: B is not {cols}x{n}");
    assert_eq!(out.len(), rows * n, "csr_spmm: C is not {rows}x{n}");
    let flops = 2usize.saturating_mul(vals.len()).saturating_mul(n);
    timed_kernel("csr_spmm", flops as u64, || {
        out.fill(0.0);
        if rows == 0 || n == 0 {
            return;
        }
        let threads = sparse_threads(flops, rows);
        if threads == 1 {
            csr_band(0, out, row_ptr, col_idx, vals, b, n);
            return;
        }
        let band_rows = rows.div_ceil(threads);
        std::thread::scope(|scope| {
            for (band_idx, band) in out.chunks_mut(band_rows * n).enumerate() {
                scope.spawn(move || {
                    csr_band(band_idx * band_rows, band, row_ptr, col_idx, vals, b, n);
                });
            }
        });
    });
}

/// One contiguous band of CSR output rows, starting at absolute row `row0`.
fn csr_band(
    row0: usize,
    band: &mut [f32],
    row_ptr: &[u32],
    col_idx: &[u32],
    vals: &[f32],
    b: &[f32],
    n: usize,
) {
    for (i, crow) in band.chunks_exact_mut(n).enumerate() {
        let lo = row_ptr[row0 + i] as usize;
        let hi = row_ptr[row0 + i + 1] as usize;
        csr_row(crow, &col_idx[lo..hi], &vals[lo..hi], b, n);
    }
}

/// One output row: quad-unrolled axpy over the row's nonzeros. The fused
/// four-term update rounds left-to-right, matching four sequential axpys.
fn csr_row(crow: &mut [f32], cols: &[u32], vals: &[f32], b: &[f32], n: usize) {
    let quads = cols.len() - cols.len() % 4;
    for (jq, vq) in cols[..quads]
        .chunks_exact(4)
        .zip(vals[..quads].chunks_exact(4))
    {
        let b0 = &b[jq[0] as usize * n..][..n];
        let b1 = &b[jq[1] as usize * n..][..n];
        let b2 = &b[jq[2] as usize * n..][..n];
        let b3 = &b[jq[3] as usize * n..][..n];
        let (v0, v1, v2, v3) = (vq[0], vq[1], vq[2], vq[3]);
        for l in 0..n {
            crow[l] = crow[l] + v0 * b0[l] + v1 * b1[l] + v2 * b2[l] + v3 * b3[l];
        }
    }
    for (&j, &v) in cols[quads..].iter().zip(&vals[quads..]) {
        let brow = &b[j as usize * n..][..n];
        for (cv, &bv) in crow.iter_mut().zip(brow) {
            *cv += v * bv;
        }
    }
}

// ---------------------------------------------------------------------------
// BSR
// ---------------------------------------------------------------------------

/// Block-sparse-row SpMM: `C = S · B` where `S` is `rows×cols` stored as
/// `r×c` blocks. `row_ptr` has `rows.div_ceil(r) + 1` offsets over nonzero
/// blocks, `col_idx[bi]` is block `bi`'s block-column, and `blocks` holds
/// `r*c` values per block in **`k`-major** layout: `block[p * r + row]` is
/// the element at block-local `(row, p)`. Edge blocks (when `r`/`c` do not
/// divide `rows`/`cols`) are zero-padded to full `r×c`.
///
/// With `r == MR` each block is exactly a packed-A strip of the dense
/// micro-kernel, so a block-row × NR-column tile accumulates entirely in
/// registers via [`accumulate_tile`] before one store to C. Other `r`
/// values take a fused-axpy path (specialised for `r == 1` row-vector
/// blocks). Both paths keep the ascending-`k` bit-exactness contract.
#[allow(clippy::too_many_arguments)]
pub fn bsr_spmm(
    rows: usize,
    cols: usize,
    n: usize,
    r: usize,
    c: usize,
    row_ptr: &[u32],
    col_idx: &[u32],
    blocks: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    assert!(r > 0 && c > 0, "bsr_spmm: zero block dims");
    let block_rows = rows.div_ceil(r);
    let block_cols = cols.div_ceil(c);
    assert_eq!(row_ptr.len(), block_rows + 1, "bsr_spmm: row_ptr length");
    let nb = col_idx.len();
    assert_eq!(blocks.len(), nb * r * c, "bsr_spmm: block storage length");
    assert_eq!(b.len(), cols * n, "bsr_spmm: B is not {cols}x{n}");
    assert_eq!(out.len(), rows * n, "bsr_spmm: C is not {rows}x{n}");
    let flops = 2usize
        .saturating_mul(nb)
        .saturating_mul(r * c)
        .saturating_mul(n);
    timed_kernel("bsr_spmm", flops as u64, || {
        out.fill(0.0);
        if rows == 0 || n == 0 || nb == 0 {
            return;
        }
        let threads = sparse_threads(flops, block_rows);
        if r == MR {
            let kpad = block_cols * c;
            let bpack = pack_b_strips(b, cols, n, kpad);
            let kernel = select_bsr_kernel();
            let run_band = |ib: usize, band: &mut [f32]| {
                let lo = row_ptr[ib] as usize;
                let hi = row_ptr[ib + 1] as usize;
                if lo == hi {
                    return; // empty block-row: band stays zero
                }
                bsr_tiled_block_row(
                    &col_idx[lo..hi],
                    &blocks[lo * MR * c..hi * MR * c],
                    c,
                    &bpack,
                    kpad,
                    band,
                    n,
                    kernel,
                );
            };
            if threads == 1 {
                for (ib, band) in out.chunks_mut(MR * n).enumerate() {
                    run_band(ib, band);
                }
            } else {
                // Deal block-rows round-robin onto workers: disjoint &mut
                // bands, no synchronization beyond the scope join.
                let mut assignments: Vec<Vec<(usize, &mut [f32])>> =
                    (0..threads).map(|_| Vec::new()).collect();
                for (ib, band) in out.chunks_mut(MR * n).enumerate() {
                    assignments[ib % threads].push((ib, band));
                }
                std::thread::scope(|scope| {
                    for bands in assignments {
                        scope.spawn(|| {
                            for (ib, band) in bands {
                                run_band(ib, band);
                            }
                        });
                    }
                });
            }
        } else {
            let run_band = |ib: usize, band: &mut [f32]| {
                let lo = row_ptr[ib] as usize;
                let hi = row_ptr[ib + 1] as usize;
                bsr_generic_block_row(
                    &col_idx[lo..hi],
                    &blocks[lo * r * c..hi * r * c],
                    r,
                    c,
                    cols,
                    b,
                    band,
                    n,
                );
            };
            if threads == 1 {
                for (ib, band) in out.chunks_mut(r * n).enumerate() {
                    run_band(ib, band);
                }
            } else {
                let mut assignments: Vec<Vec<(usize, &mut [f32])>> =
                    (0..threads).map(|_| Vec::new()).collect();
                for (ib, band) in out.chunks_mut(r * n).enumerate() {
                    assignments[ib % threads].push((ib, band));
                }
                std::thread::scope(|scope| {
                    for bands in assignments {
                        scope.spawn(|| {
                            for (ib, band) in bands {
                                run_band(ib, band);
                            }
                        });
                    }
                });
            }
        }
    });
}

/// Pack all of B (`brows×n`, `brows <= kpad`) into NR-column strips, the
/// same `p`-major layout `gemm::pack_b` produces, but full-`k` (`kpad`
/// rows, zero-padded): strip `js` holds columns `js*NR ..`, and a block
/// with block-column `jb` reads the contiguous `c*NR` slice at
/// `js*kpad*NR + jb*c*NR`. Packed once per SpMM and shared by every
/// block-row (and every worker).
fn pack_b_strips(b: &[f32], brows: usize, n: usize, kpad: usize) -> Vec<f32> {
    let n_strips = n.div_ceil(NR);
    let mut pack = vec![0.0f32; n_strips * kpad * NR];
    for js in 0..n_strips {
        let col0 = js * NR;
        let ncols = NR.min(n - col0);
        let strip = &mut pack[js * kpad * NR..][..kpad * NR];
        for p in 0..brows {
            strip[p * NR..p * NR + ncols].copy_from_slice(&b[p * n + col0..p * n + col0 + ncols]);
        }
    }
    pack
}

/// `kernel(bcols, bvals, c, strip, c_tile, ldc, mr_eff, nr_eff)`: accumulate
/// every nonzero block of one block-row into an MR×NR register tile, then
/// store it (C was pre-zeroed, so a store, not an add).
type BsrKernel = unsafe fn(&[u32], &[f32], usize, &[f32], &mut [f32], usize, usize, usize);

/// The portable block-row × column-tile body (non-x86 / no-AVX2 fallback,
/// and the shape `bsr_tile_avx2` mirrors instruction-for-instruction).
/// `USE_FMA` is deliberately `false`: FMA contraction rounds once where the
/// CSR path rounds twice, and bit-exactness across storage formats is an
/// acceptance contract (see the module docs).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn bsr_tile_body<const USE_FMA: bool>(
    bcols: &[u32],
    bvals: &[f32],
    c: usize,
    strip: &[f32],
    ctile: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (bi, &jb) in bcols.iter().enumerate() {
        let ap = &bvals[bi * MR * c..][..MR * c];
        let bp = &strip[jb as usize * c * NR..][..c * NR];
        accumulate_tile::<USE_FMA>(c, ap, bp, &mut acc);
    }
    for (row, accr) in acc.iter().enumerate().take(mr_eff) {
        let crow = &mut ctile[row * ldc..row * ldc + nr_eff];
        for (cv, &av) in crow.iter_mut().zip(accr) {
            *cv = av;
        }
    }
}

#[allow(clippy::too_many_arguments)]
unsafe fn bsr_tile_generic(
    bcols: &[u32],
    bvals: &[f32],
    c: usize,
    strip: &[f32],
    ctile: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    bsr_tile_body::<false>(bcols, bvals, c, strip, ctile, ldc, mr_eff, nr_eff);
}

/// AVX2 instantiation with explicit intrinsics. Autovectorizing the no-FMA
/// `bsr_tile_body` fails in practice: without an `fma` target feature the
/// loop vectorizer gives up on the 8×8 accumulator and the SLP vectorizer
/// shreds it into cross-lane shuffles (measured ~4 GFLOP/s — scalar speed).
/// Spelling the tile out keeps each accumulator row in one YMM register:
/// per rank-1 update, one B load, then per row a broadcast of the A element
/// and a **separately rounded** `vmulps` + `vaddps` — the same ascending-`k`
/// mul-then-add the scalar body performs, so bit-exactness is preserved.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn bsr_tile_avx2(
    bcols: &[u32],
    bvals: &[f32],
    c: usize,
    strip: &[f32],
    ctile: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    use core::arch::x86_64::*;
    const { assert!(MR == 8 && NR == 8) };
    let mut acc = [_mm256_setzero_ps(); MR];
    for (bi, &jb) in bcols.iter().enumerate() {
        debug_assert!((bi + 1) * MR * c <= bvals.len());
        debug_assert!((jb as usize + 1) * c * NR <= strip.len());
        let ap = bvals.as_ptr().add(bi * MR * c);
        let bp = strip.as_ptr().add(jb as usize * c * NR);
        for p in 0..c {
            let bv = _mm256_loadu_ps(bp.add(p * NR));
            let arow = ap.add(p * MR);
            for (row, accv) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_ss(&*arow.add(row));
                *accv = _mm256_add_ps(_mm256_mul_ps(av, bv), *accv);
            }
        }
    }
    if nr_eff == NR {
        for (row, &accv) in acc.iter().enumerate().take(mr_eff) {
            debug_assert!(row * ldc + NR <= ctile.len());
            _mm256_storeu_ps(ctile.as_mut_ptr().add(row * ldc), accv);
        }
    } else {
        let mut spill = [0.0f32; NR];
        for (row, &accv) in acc.iter().enumerate().take(mr_eff) {
            _mm256_storeu_ps(spill.as_mut_ptr(), accv);
            ctile[row * ldc..row * ldc + nr_eff].copy_from_slice(&spill[..nr_eff]);
        }
    }
}

fn select_bsr_kernel() -> BsrKernel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return bsr_tile_avx2;
        }
    }
    bsr_tile_generic
}

/// One `r == MR` block-row: sweep the NR-column tiles of its C band.
#[allow(clippy::too_many_arguments)]
fn bsr_tiled_block_row(
    bcols: &[u32],
    bvals: &[f32],
    c: usize,
    bpack: &[f32],
    kpad: usize,
    band: &mut [f32],
    n: usize,
    kernel: BsrKernel,
) {
    let rows_eff = band.len() / n;
    for (js, jr) in (0..n).step_by(NR).enumerate() {
        let nr_eff = NR.min(n - jr);
        let strip = &bpack[js * kpad * NR..][..kpad * NR];
        // SAFETY: the kernel only requires its target features when it is
        // the AVX2 instantiation, which select_bsr_kernel() only returns
        // after runtime detection succeeded.
        unsafe { kernel(bcols, bvals, c, strip, &mut band[jr..], n, rows_eff, nr_eff) };
    }
}

/// One block-row for `r != MR`: fused axpys straight off the unpacked B.
/// `r == 1` (row-vector blocks) gets the same quad-unrolled single-pass
/// update as the CSR row kernel.
#[allow(clippy::too_many_arguments)]
fn bsr_generic_block_row(
    bcols: &[u32],
    bvals: &[f32],
    r: usize,
    c: usize,
    cols: usize,
    b: &[f32],
    band: &mut [f32],
    n: usize,
) {
    let rows_eff = band.len() / n;
    for (bi, &jb) in bcols.iter().enumerate() {
        let blk = &bvals[bi * r * c..][..r * c];
        let base = jb as usize * c;
        let p_max = c.min(cols - base);
        if r == 1 {
            let crow = &mut band[..n];
            let mut p = 0;
            while p + 4 <= p_max {
                let b0 = &b[(base + p) * n..][..n];
                let b1 = &b[(base + p + 1) * n..][..n];
                let b2 = &b[(base + p + 2) * n..][..n];
                let b3 = &b[(base + p + 3) * n..][..n];
                let (v0, v1, v2, v3) = (blk[p], blk[p + 1], blk[p + 2], blk[p + 3]);
                for l in 0..n {
                    crow[l] = crow[l] + v0 * b0[l] + v1 * b1[l] + v2 * b2[l] + v3 * b3[l];
                }
                p += 4;
            }
            for p in p..p_max {
                let brow = &b[(base + p) * n..][..n];
                let v = blk[p];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += v * bv;
                }
            }
        } else {
            for p in 0..p_max {
                let brow = &b[(base + p) * n..][..n];
                for row in 0..rows_eff {
                    let v = blk[p * r + row];
                    let crow = &mut band[row * n..row * n + n];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += v * bv;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Masked-dense reference with the kernels' exact accumulation
    /// discipline: ascending k, skip zeros, separate mul and add.
    fn masked_ref(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let v = a[i * k + p];
                if v == 0.0 {
                    continue;
                }
                for l in 0..n {
                    c[i * n + l] += v * b[p * n + l];
                }
            }
        }
        c
    }

    fn to_csr(m: usize, k: usize, a: &[f32]) -> (Vec<u32>, Vec<u32>, Vec<f32>) {
        let mut row_ptr = vec![0u32];
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for i in 0..m {
            for j in 0..k {
                if a[i * k + j] != 0.0 {
                    cols.push(j as u32);
                    vals.push(a[i * k + j]);
                }
            }
            row_ptr.push(vals.len() as u32);
        }
        (row_ptr, cols, vals)
    }

    /// Dense → BSR keeping blocks with any nonzero, k-major block storage.
    fn to_bsr(m: usize, k: usize, a: &[f32], r: usize, c: usize) -> (Vec<u32>, Vec<u32>, Vec<f32>) {
        let (brows, bcols) = (m.div_ceil(r), k.div_ceil(c));
        let mut row_ptr = vec![0u32];
        let (mut cols, mut blocks) = (Vec::new(), Vec::<f32>::new());
        for ib in 0..brows {
            for jb in 0..bcols {
                let mut blk = vec![0.0f32; r * c];
                let mut any = false;
                for p in 0..c {
                    for row in 0..r {
                        let (i, j) = (ib * r + row, jb * c + p);
                        if i < m && j < k && a[i * k + j] != 0.0 {
                            blk[p * r + row] = a[i * k + j];
                            any = true;
                        }
                    }
                }
                if any {
                    cols.push(jb as u32);
                    blocks.extend_from_slice(&blk);
                }
            }
            row_ptr.push(cols.len() as u32);
        }
        (row_ptr, cols, blocks)
    }

    #[test]
    fn csr_and_bsr_match_masked_reference_bitwise() {
        let mut rng = crate::Rng::new(0xB5B);
        for (m, k, n, r, c) in [
            (16, 24, 9, 8, 8),
            (17, 25, 11, 8, 8), // ragged everywhere
            (8, 8, 1, 8, 8),
            (5, 12, 7, 1, 8), // row-vector blocks
            (9, 10, 3, 4, 4), // generic r
        ] {
            let a: Vec<f32> = (0..m * k)
                .map(|_| {
                    if rng.next_f64() < 0.8 {
                        0.0
                    } else {
                        rng.normal()
                    }
                })
                .collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let want = masked_ref(m, k, n, &a, &b);

            let (rp, ci, vals) = to_csr(m, k, &a);
            let mut got = vec![1.0f32; m * n];
            csr_spmm(m, k, n, &rp, &ci, &vals, &b, &mut got);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "csr {m}x{k}x{n}"
            );

            let (rp, ci, blocks) = to_bsr(m, k, &a, r, c);
            let mut got = vec![1.0f32; m * n];
            bsr_spmm(m, k, n, r, c, &rp, &ci, &blocks, &b, &mut got);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "bsr {m}x{k}x{n} blocks {r}x{c}"
            );
        }
    }

    #[test]
    fn empty_and_zero_shapes() {
        // Zero-column batch: nothing to do, nothing read out of bounds.
        csr_spmm(3, 4, 0, &[0, 0, 0, 0], &[], &[], &[], &mut []);
        bsr_spmm(3, 4, 0, 8, 8, &[0, 0], &[], &[], &[], &mut []);
        // All-zero matrix: output must be cleared, not left stale.
        let b = vec![1.0f32; 4 * 3];
        let mut out = vec![7.0f32; 2 * 3];
        csr_spmm(2, 4, 3, &[0, 0, 0], &[], &[], &b, &mut out);
        assert_eq!(out, vec![0.0; 6]);
        let mut out = vec![7.0f32; 2 * 3];
        bsr_spmm(2, 4, 3, 8, 8, &[0, 0], &[], &[], &b, &mut out);
        assert_eq!(out, vec![0.0; 6]);
    }
}
