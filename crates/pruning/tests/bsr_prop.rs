//! Property tests for the ISSUE 6 structured fast path.
//!
//! The acceptance contract is **bit-exactness**: a pruned model scores
//! identically — `f32::to_bits` identical — whether its surviving weights
//! are stored dense-with-zeros, CSR, or BSR tiles. Every sparse kernel
//! accumulates each output element in strictly ascending `k` order with
//! separately-rounded multiply-then-add (no FMA), and a stored `±0.0`
//! inside a kept block never changes a finite accumulation, so the three
//! storage formats are interchangeable to the bit. These tests pin that
//! over random shapes (empty block-rows, non-multiple-of-8 dims,
//! zero-column batches) and pin the block-mask invariants of the
//! structured pruners.

use darkside_nn::check::run_cases;
use darkside_nn::{Frame, FrameScorer, Matrix, Mlp, Rng};
use darkside_pruning::{
    prune_mlp_to_sparsity, prune_to_sparsity_balanced, prune_to_sparsity_blocked, Bsr, Csr,
    PruneStructure, PrunedMlp,
};

/// Random matrix where each entry is zero with probability `sparsity`.
fn random_sparse(rng: &mut Rng, rows: usize, cols: usize, sparsity: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.next_f64() < sparsity {
            0.0
        } else {
            rng.normal()
        }
    })
}

/// Masked-dense SpMM oracle with the kernels' exact accumulation
/// discipline: ascending `k`, skip stored zeros, separate mul and add.
fn masked_spmm_ref(dense: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (dense.rows(), dense.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let v = dense.as_slice()[i * k + p];
            if v == 0.0 {
                continue;
            }
            for l in 0..n {
                let cv = &mut c.as_mut_slice()[i * n + l];
                *cv += v * b.as_slice()[p * n + l];
            }
        }
    }
    c
}

/// Masked-dense SpMV oracle, same discipline.
fn masked_spmv_ref(dense: &Matrix, x: &[f32]) -> Vec<f32> {
    let (m, k) = (dense.rows(), dense.cols());
    let mut y = vec![0.0f32; m];
    for (i, yi) in y.iter_mut().enumerate() {
        for (p, xp) in x.iter().enumerate().take(k) {
            let v = dense.as_slice()[i * k + p];
            if v != 0.0 {
                *yi += v * xp;
            }
        }
    }
    y
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} differs ({g:e} vs {w:e})"
        );
    }
}

/// Block shapes sweeping all three BSR kernel paths: the `r == MR` AVX2
/// register-tile path (8×8, 8×4), the `r == 1` row-vector path (1×8), and
/// the generic fused-axpy path (3×5, 4×8).
const BLOCK_DIMS: [(usize, usize); 5] = [(8, 8), (8, 4), (1, 8), (3, 5), (4, 8)];

#[test]
fn bsr_spmm_bit_exact_vs_csr_and_masked_dense() {
    run_cases(0xB52_0001, 40, |rng, case| {
        let rows = rng.below(100);
        let cols = rng.below(100);
        let n = rng.below(40);
        let sparsity = [0.3, 0.7, 0.9, 1.0][case % 4];
        let (r, c) = BLOCK_DIMS[case % BLOCK_DIMS.len()];
        let dense = random_sparse(rng, rows, cols, sparsity);
        let b = Matrix::from_fn(cols, n, |_, _| rng.normal());
        let what = format!("spmm {rows}x{cols}x{n} @ {sparsity} blocks {r}x{c}");

        let bsr = Bsr::from_dense(&dense, r, c).unwrap();
        assert_eq!(bsr.to_dense(), dense, "{what}: roundtrip");
        let mut got = Matrix::zeros(rows, n);
        bsr.spmm(&b, &mut got);

        let csr = Csr::from_dense(&dense).unwrap();
        let mut via_csr = Matrix::zeros(rows, n);
        csr.spmm(&b, &mut via_csr);

        let want = masked_spmm_ref(&dense, &b);
        assert_bits_eq(
            got.as_slice(),
            via_csr.as_slice(),
            &format!("{what} vs csr"),
        );
        assert_bits_eq(got.as_slice(), want.as_slice(), &format!("{what} vs dense"));
    });
}

#[test]
fn bsr_spmv_bit_exact_vs_csr_and_masked_dense() {
    run_cases(0xB52_0002, 40, |rng, case| {
        let rows = rng.below(80);
        let cols = rng.below(80);
        let sparsity = [0.0, 0.5, 0.9, 1.0][case % 4];
        let (r, c) = BLOCK_DIMS[case % BLOCK_DIMS.len()];
        let dense = random_sparse(rng, rows, cols, sparsity);
        let x: Vec<f32> = (0..cols).map(|_| rng.normal()).collect();
        let what = format!("spmv {rows}x{cols} @ {sparsity} blocks {r}x{c}");

        let bsr = Bsr::from_dense(&dense, r, c).unwrap();
        let mut got = vec![0.0f32; rows];
        bsr.spmv(&x, &mut got);

        let csr = Csr::from_dense(&dense).unwrap();
        let mut via_csr = vec![0.0f32; rows];
        csr.spmv(&x, &mut via_csr);

        let want = masked_spmv_ref(&dense, &x);
        assert_bits_eq(&got, &via_csr, &format!("{what} vs csr"));
        assert_bits_eq(&got, &want, &format!("{what} vs dense"));
    });
}

/// Dedicated edge sweep: empty block-rows (whole 8-row bands of zeros),
/// dims that 8 does not divide (padded edge blocks), and zero-column /
/// zero-row batches.
#[test]
fn bsr_edge_shapes_bit_exact() {
    let mut rng = Rng::new(0xB52_0003);
    // (rows, cols, n): 13×21 exercises padded edge tiles; n = 0 is the
    // zero-column batch; 8×8 with rows 0..8 zeroed is an empty block-row.
    for (rows, cols, n) in [
        (13, 21, 7),
        (16, 24, 0),
        (0, 8, 5),
        (8, 0, 5),
        (24, 16, 9),
        (1, 1, 1),
    ] {
        let mut dense = random_sparse(&mut rng, rows, cols, 0.6);
        // Zero a whole leading 8-row band so the first block-row is empty.
        for i in 0..rows.min(8) {
            for j in 0..cols {
                dense.as_mut_slice()[i * cols + j] = 0.0;
            }
        }
        let b = Matrix::from_fn(cols, n, |_, _| rng.normal());
        let bsr = Bsr::from_dense(&dense, 8, 8).unwrap();
        if rows >= 8 {
            assert_eq!(bsr.blocks_in_row(0), 0, "{rows}x{cols}: empty block-row");
        }
        let mut got = Matrix::zeros(rows, n);
        bsr.spmm(&b, &mut got);
        let want = masked_spmm_ref(&dense, &b);
        assert_bits_eq(
            got.as_slice(),
            want.as_slice(),
            &format!("edge spmm {rows}x{cols}x{n}"),
        );
    }
}

/// Blocked pruning: achieved element sparsity lands within tolerance, and
/// the expanded mask is all-or-nothing per block.
#[test]
fn blocked_mask_hits_target_with_whole_blocks() {
    run_cases(0xB52_0004, 12, |rng, case| {
        let (rows, cols) = [(64, 64), (64, 40), (33, 64)][case % 3];
        let target = [0.5, 0.7, 0.9][case / 4];
        let w = Matrix::from_fn(rows, cols, |_, _| rng.normal_scaled(0.0, 0.1));
        let res = prune_to_sparsity_blocked(&w, target, 0.02, 8, 8);
        assert!(
            (res.sparsity - target).abs() <= 0.02,
            "{rows}x{cols} target {target}: got {}",
            res.sparsity
        );
        assert_whole_blocks(&res.mask, rows, cols, 8, 8);
    });
}

/// Balanced pruning: every block-row keeps exactly `k` blocks (ties are
/// deterministic), so per-output-band serving cost is uniform.
#[test]
fn balanced_mask_keeps_fixed_blocks_per_row() {
    run_cases(0xB52_0005, 9, |rng, case| {
        let (rows, cols) = [(64, 64), (48, 64), (64, 48)][case % 3];
        let target = 0.75;
        let w = Matrix::from_fn(rows, cols, |_, _| rng.normal_scaled(0.0, 0.1));
        let res = prune_to_sparsity_balanced(&w, target, 8, 8);
        assert_whole_blocks(&res.mask, rows, cols, 8, 8);
        let bcols = cols.div_ceil(8);
        let k = (((1.0 - target) * bcols as f64).round() as usize).clamp(0, bcols);
        for ib in 0..rows.div_ceil(8) {
            let kept: usize = (0..bcols)
                .filter(|&jb| res.mask.kept(ib * 8, jb * 8))
                .count();
            assert_eq!(kept, k, "{rows}x{cols}: block-row {ib} keeps {kept}");
        }
    });
}

/// Every `br×bc` block of the mask is fully kept or fully pruned.
fn assert_whole_blocks(
    mask: &darkside_pruning::Mask,
    rows: usize,
    cols: usize,
    br: usize,
    bc: usize,
) {
    for ib in 0..rows.div_ceil(br) {
        for jb in 0..cols.div_ceil(bc) {
            let anchor = mask.kept(ib * br, jb * bc);
            for i in ib * br..((ib + 1) * br).min(rows) {
                for j in jb * bc..((jb + 1) * bc).min(cols) {
                    assert_eq!(
                        mask.kept(i, j),
                        anchor,
                        "block ({ib},{jb}) is not all-or-nothing at ({i},{j})"
                    );
                }
            }
        }
    }
}

/// End to end at the scoring surface: the same structured masks served CSR
/// and BSR produce bit-identical posteriors through the full MLP (affine +
/// p-norm + renorm + softmax), batched and frame-at-a-time.
#[test]
fn pruned_mlp_backends_score_bit_identical() {
    let mut rng = Rng::new(0xB52_0006);
    let mut mlp = Mlp::kaldi_style(20, 32, 4, 2, 9, &mut rng);
    for structure in [PruneStructure::tile(), PruneStructure::row_vector()] {
        let res = prune_mlp_to_sparsity(&mlp, 0.8, 0.02, structure);
        res.apply(&mut mlp);
        let via_bsr = PrunedMlp::from_masked(&mlp, &res.masks, structure);
        let via_csr = PrunedMlp::from_masked(&mlp, &res.masks, PruneStructure::Unstructured);
        assert!(via_bsr.sparsity() > 0.5, "prune actually happened");

        let frames: Vec<Frame> = (0..17)
            .map(|_| Frame((0..20).map(|_| rng.normal()).collect()))
            .collect();
        let batched_bsr = via_bsr.score_frames(&frames);
        let batched_csr = via_csr.score_frames(&frames);
        assert_bits_eq(
            batched_bsr.probs.as_slice(),
            batched_csr.probs.as_slice(),
            &format!("batched scoring ({})", structure.label()),
        );
        let one_bsr = via_bsr.score_frames(&frames[..1]);
        assert_bits_eq(
            one_bsr.probs.row(0),
            &batched_bsr.probs.row(0)[..one_bsr.probs.cols()],
            &format!("frame-at-a-time scoring ({})", structure.label()),
        );
    }
}
