//! Cross-crate integration tests for the ISSUE 1 compute substrate.
//!
//! These live on the root `darkside` package and exercise the hot paths
//! end to end across crates: blocked/parallel GEMM against the
//! naive oracle, CSR sparse kernels against dense, and batched frame scoring
//! through a pruned-and-rebuilt layer.

use darkside::nn::check::{assert_matrices_close, assert_slices_close, random_matrix, run_cases};
use darkside::nn::{gemm_naive, gemm_with_threads, Frame, FrameScorer, Matrix, Mlp, Rng};
use darkside::pruning::{prune_to_sparsity, Csr, PruneStructure, PrunedAffine};

#[test]
fn blocked_parallel_gemm_matches_oracle_across_shapes() {
    run_cases(0x0D15EA5E, 25, |rng, _| {
        let m = rng.below(90);
        let n = rng.below(90);
        let k = rng.below(90);
        let a = random_matrix(rng, m, k, 1.0);
        let b = random_matrix(rng, k, n, 1.0);
        let mut want = Matrix::zeros(m, n);
        gemm_naive(m, n, k, a.as_slice(), b.as_slice(), want.as_mut_slice());
        let mut got = Matrix::zeros(m, n);
        gemm_with_threads(
            m,
            n,
            k,
            a.as_slice(),
            b.as_slice(),
            got.as_mut_slice(),
            1 + (m + n) % 5,
        );
        assert_matrices_close(&got, &want, 1e-4, &format!("gemm {m}x{n}x{k}"));
    });
}

#[test]
fn pruned_pipeline_scores_frames() {
    // Train-free end-to-end shape check: a paper-shape MLP scores an
    // utterance batch; its first hidden layer pruned to 90 % and served
    // from CSR matches the masked dense layer.
    let mut rng = Rng::new(0xDA4C);
    let mlp = Mlp::kaldi_style(40, 64, 4, 2, 9, &mut rng);
    let frames: Vec<Frame> = (0..31)
        .map(|_| Frame((0..40).map(|_| rng.normal()).collect()))
        .collect();
    let scores = mlp.score_frames(&frames);
    assert_eq!(scores.num_frames(), 31);
    assert_eq!(scores.num_classes(), 9);
    for i in 0..scores.num_frames() {
        let sum: f32 = scores.probs.row(i).iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "frame {i} not a distribution");
        let (_, p) = scores.top1(i);
        assert!(p > 0.0 && p <= 1.0);
    }

    let darkside::nn::Layer::Affine(dense) = &mlp.layers[1] else {
        panic!("layer 1 should be the first hidden affine");
    };
    let pruned90 = prune_to_sparsity(&dense.w, 0.9, 0.01);
    let mut masked = dense.clone();
    pruned90.mask.apply(&mut masked.w);
    let sparse = PrunedAffine::from_dense(dense, &pruned90.mask, PruneStructure::Unstructured);
    let x = random_matrix(&mut rng, 8, dense.in_dim(), 1.0);
    assert_matrices_close(
        &sparse.forward(&x),
        &masked.forward(&x),
        1e-4,
        "CSR layer vs masked dense layer",
    );
}

#[test]
fn csr_spmv_matches_dense_gemv() {
    let mut rng = Rng::new(0x0C52);
    let dense = Matrix::from_fn(96, 128, |_, _| {
        if rng.next_f64() < 0.9 {
            0.0
        } else {
            rng.normal()
        }
    });
    let csr = Csr::from_dense(&dense).unwrap();
    assert!(csr.sparsity() > 0.8);
    let x: Vec<f32> = (0..128).map(|_| rng.normal()).collect();
    let mut want = vec![0.0f32; 96];
    darkside::nn::gemv_naive(96, 128, dense.as_slice(), &x, &mut want);
    let mut got = vec![0.0f32; 96];
    csr.spmv(&x, &mut got);
    assert_slices_close(&got, &want, 1e-4, "spmv");
}

#[test]
fn experiment_grid_is_wired() {
    let grid = darkside::core::GridConfig::full_grid();
    assert_eq!(grid.len(), 12);
    assert_eq!(grid[11].label(), "NBest-90");
    assert_eq!(grid[11].prune.sparsity(), 0.9);
}
