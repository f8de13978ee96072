//! A pruned affine layer served from sparse weights (ISSUE 1 tentpole;
//! ISSUE 6 adds the BSR backend).
//!
//! Mirrors [`darkside_nn::Affine`] but stores only surviving weights. The
//! batched forward is an SpMM over the transposed activation block, so a
//! pruned model scores a whole utterance with the same
//! one-weight-traversal-per-utterance property as the dense path. The
//! storage backend — gather-based [`Csr`] for unstructured masks,
//! register-tiled [`Bsr`] for block-structured masks — is an internal
//! detail: both accumulate in the same ascending-input order, so switching
//! backend never changes a single output bit.

use crate::blocked::PruneStructure;
use crate::bsr::Bsr;
use crate::csr::Csr;
use crate::magnitude::Mask;
use darkside_nn::{Affine, Matrix};

/// The sparse storage behind a [`PrunedAffine`], in serving orientation
/// (`out_dim × in_dim`).
#[derive(Clone, Debug)]
pub enum SparseWeights {
    /// Per-weight survivors; scalar gather kernels.
    Csr(Csr),
    /// All-or-nothing tiles; dense register-tile kernels per block.
    Bsr(Bsr),
}

impl SparseWeights {
    pub fn rows(&self) -> usize {
        match self {
            Self::Csr(w) => w.rows(),
            Self::Bsr(w) => w.rows(),
        }
    }

    pub fn cols(&self) -> usize {
        match self {
            Self::Csr(w) => w.cols(),
            Self::Bsr(w) => w.cols(),
        }
    }

    /// Stored (surviving) weights. For BSR this counts every real entry
    /// covered by a kept block — the element-mask notion of "kept".
    pub fn nnz(&self) -> usize {
        match self {
            Self::Csr(w) => w.nnz(),
            Self::Bsr(w) => w.nnz(),
        }
    }

    pub fn sparsity(&self) -> f64 {
        match self {
            Self::Csr(w) => w.sparsity(),
            Self::Bsr(w) => w.sparsity(),
        }
    }

    /// Bench/report label of the backend in play.
    pub fn backend(&self) -> &'static str {
        match self {
            Self::Csr(_) => "csr",
            Self::Bsr(_) => "bsr",
        }
    }

    pub fn spmv(&self, x: &[f32], y: &mut [f32]) {
        match self {
            Self::Csr(w) => w.spmv(x, y),
            Self::Bsr(w) => w.spmv(x, y),
        }
    }

    pub fn spmm(&self, b: &Matrix, c: &mut Matrix) {
        match self {
            Self::Csr(w) => w.spmm(b, c),
            Self::Bsr(w) => w.spmm(b, c),
        }
    }
}

/// `Y = X · Wᵀ + b` where `W` (`out_dim × in_dim`) is stored sparse.
///
/// The dense [`Affine`] stores `in_dim × out_dim` so its forward is a plain
/// GEMM; the sparse layer stores the transpose (`out_dim × in_dim`) because
/// SpMV/SpMM want the *output* dimension on rows — each output unit owns one
/// compressed row of surviving weights, exactly the layout the paper's DNN
/// accelerator streams. A `Block{r,c}` structure therefore tiles this
/// transposed matrix directly: `r` output units × `c` inputs per block.
#[derive(Clone, Debug)]
pub struct PrunedAffine {
    /// `out_dim × in_dim` surviving weights.
    pub w: SparseWeights,
    pub b: Vec<f32>,
}

impl PrunedAffine {
    /// Prune a dense layer with `mask` (shaped like `dense.w`, i.e.
    /// `in_dim × out_dim`) and compress the survivors, choosing the backend
    /// from `structure`: unstructured masks go to CSR, block masks to BSR
    /// with the structure's serving-orientation `r×c` tiles. The mask must
    /// match the structure (whole serving tiles kept or dropped) for BSR to
    /// be lossless; masks from the structured pruners are by construction.
    pub fn from_dense(dense: &Affine, mask: &Mask, structure: PruneStructure) -> Self {
        assert_eq!((mask.rows(), mask.cols()), (dense.w.rows(), dense.w.cols()));
        // Transpose while masking: sparse rows = output units.
        let wt = Matrix::from_fn(dense.w.cols(), dense.w.rows(), |o, i| {
            if mask.kept(i, o) {
                dense.w.get(i, o)
            } else {
                0.0
            }
        });
        // Infallible here: the transpose of a Matrix is within the u32
        // index space whenever the Matrix itself was constructible.
        let w = match structure.block_dims() {
            None => SparseWeights::Csr(Csr::from_dense(&wt).expect("masked transpose fits CSR")),
            Some((r, c)) => {
                SparseWeights::Bsr(Bsr::from_dense(&wt, r, c).expect("masked transpose fits BSR"))
            }
        };
        Self {
            w,
            b: dense.b.clone(),
        }
    }

    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// Fraction of the original weights pruned away.
    pub fn sparsity(&self) -> f64 {
        self.w.sparsity()
    }

    /// Single-frame forward: one SpMV plus the bias.
    pub fn forward_frame(&self, x: &[f32], y: &mut [f32]) {
        self.w.spmv(x, y);
        for (v, &b) in y.iter_mut().zip(&self.b) {
            *v += b;
        }
    }

    /// Batched forward: `batch × in_dim` → `batch × out_dim` via SpMM on the
    /// transposed block (`Yᵀ = W · Xᵀ`).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "PrunedAffine::forward: input dim");
        let xt = x.transpose();
        let mut yt = Matrix::zeros(self.out_dim(), x.rows());
        self.w.spmm(&xt, &mut yt);
        let mut y = yt.transpose();
        for i in 0..y.rows() {
            for (v, &b) in y.row_mut(i).iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked::prune_to_sparsity_blocked;
    use crate::magnitude::prune_to_sparsity;
    use darkside_nn::check::{assert_matrices_close, random_matrix};
    use darkside_nn::Rng;

    #[test]
    fn pruned_forward_matches_masked_dense() {
        let mut rng = Rng::new(11);
        let mut dense = Affine::new_random(24, 16, &mut rng);
        dense.b = (0..16).map(|_| rng.normal()).collect();
        let result = prune_to_sparsity(&dense.w, 0.8, 0.01);
        let mut masked = dense.clone();
        result.mask.apply(&mut masked.w);
        let pruned = PrunedAffine::from_dense(&dense, &result.mask, PruneStructure::Unstructured);
        assert!((pruned.sparsity() - result.mask.sparsity()).abs() < 1e-9);
        assert_eq!(pruned.w.backend(), "csr");

        let x = random_matrix(&mut rng, 9, 24, 1.0);
        let want = masked.forward(&x);
        let got = pruned.forward(&x);
        assert_matrices_close(&got, &want, 1e-4, "pruned vs masked dense");

        // Single-frame path agrees with the batched path.
        let mut y = vec![0.0f32; 16];
        pruned.forward_frame(x.row(0), &mut y);
        darkside_nn::check::assert_slices_close(&y, got.row(0), 1e-5, "frame vs batch");
    }

    #[test]
    fn bsr_backend_matches_csr_backend_bitwise() {
        let mut rng = Rng::new(12);
        let structure = PruneStructure::tile();
        let mut dense = Affine::new_random(40, 24, &mut rng);
        dense.b = (0..24).map(|_| rng.normal()).collect();
        // Structured mask on dense w (in×out = 40×24): serving 8×8 tile is
        // an 8×8 block on w too, but go through the (c, r) swap anyway.
        let (sr, sc) = structure.block_dims().unwrap();
        let result = prune_to_sparsity_blocked(&dense.w, 0.7, 0.1, sc, sr);
        let csr = PrunedAffine::from_dense(&dense, &result.mask, PruneStructure::Unstructured);
        let bsr = PrunedAffine::from_dense(&dense, &result.mask, structure);
        assert_eq!(bsr.w.backend(), "bsr");
        assert_eq!(csr.w.nnz(), bsr.w.nnz(), "same kept-weight count");

        let x = random_matrix(&mut rng, 11, 40, 1.0);
        let yc = csr.forward(&x);
        let yb = bsr.forward(&x);
        assert_eq!(yc.rows(), yb.rows());
        for (a, b) in yc.as_slice().iter().zip(yb.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "csr vs bsr batched");
        }
        let mut fc = vec![0.0f32; 24];
        let mut fb = vec![0.0f32; 24];
        csr.forward_frame(x.row(3), &mut fc);
        bsr.forward_frame(x.row(3), &mut fb);
        for (a, b) in fc.iter().zip(&fb) {
            assert_eq!(a.to_bits(), b.to_bits(), "csr vs bsr frame");
        }
    }
}
