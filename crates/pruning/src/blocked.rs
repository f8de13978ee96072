//! Block-structured magnitude pruning (ISSUE 6 tentpole).
//!
//! Unstructured pruning thresholds individual weights; the result is fast to
//! *store* but slow to *serve* — CSR gathers cannot feed the FMA units the
//! dense micro-kernel saturates. Structured pruning removes whole `r×c`
//! tiles instead, chosen by block L2 norm, so the survivors stay aligned to
//! the GEMM register tile and serving keeps the dense inner loop
//! (accelerator-aware pruning, Kang, PAPERS.md).
//!
//! The search machinery is the same as [`magnitude`](crate::magnitude):
//! build a *norm matrix* (one entry per block), run the paper's
//! `|v| > quality × stddev` rule on it via [`mask_for_quality`], and bisect
//! the quality knob until the **element-level** sparsity implied by the
//! kept blocks hits the target. Block dims here are in the orientation of
//! the matrix being pruned; model-level code maps the serving-orientation
//! [`PruneStructure`] onto each dense layer (see
//! [`prune_mlp_to_sparsity`](crate::prune_mlp_to_sparsity)).

use crate::magnitude::{mask_for_quality, Mask, PruneResult};
use darkside_error::Error;
use darkside_nn::gemm::{MR, NR};
use darkside_nn::Matrix;

/// Sparsity structure for pruning, in the *serving* orientation: `r` spans
/// output units, `c` spans inputs — so `Block { r: MR, c: NR }` tiles are
/// exactly the dense micro-kernel's register tile on the served `Wᵀ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PruneStructure {
    /// Per-weight magnitude pruning (Han-style; CSR serving).
    Unstructured,
    /// All-or-nothing `r×c` tiles kept by block L2 norm (BSR serving).
    Block { r: usize, c: usize },
    /// `r×c` tiles with a *fixed* number of survivors per block-row, for
    /// predictable batch scoring (every output band costs the same).
    Balanced { r: usize, c: usize },
}

impl PruneStructure {
    /// The register tile of the dense micro-kernel: `MR×NR = 8×8`.
    pub fn tile() -> Self {
        Self::Block { r: MR, c: NR }
    }

    /// `1×NR` row-vector blocks: one output unit × eight inputs.
    pub fn row_vector() -> Self {
        Self::Block { r: 1, c: NR }
    }

    /// Stable label for reports and bench JSON (`unstructured`, `b8x8`,
    /// `bal8x8`, ...).
    pub fn label(&self) -> String {
        match self {
            Self::Unstructured => "unstructured".into(),
            Self::Block { r, c } => format!("b{r}x{c}"),
            Self::Balanced { r, c } => format!("bal{r}x{c}"),
        }
    }

    /// `(r, c)` for structured variants, `None` for unstructured.
    pub fn block_dims(&self) -> Option<(usize, usize)> {
        match *self {
            Self::Unstructured => None,
            Self::Block { r, c } | Self::Balanced { r, c } => Some((r, c)),
        }
    }

    /// Reject degenerate or tile-misaligned block shapes. Blocks need not
    /// divide layer dims (edges are zero-padded), but they must be nonzero
    /// and no larger than the cache-friendly register-tile multiples.
    pub fn validate(&self, what: &str) -> Result<(), Error> {
        if let Some((r, c)) = self.block_dims() {
            if r == 0 || c == 0 {
                return Err(Error::shape(what, format!("{r}x{c} block")));
            }
            if r > 64 || c > 64 {
                return Err(Error::shape(
                    what,
                    format!("{r}x{c} block exceeds the 64x64 tile cap"),
                ));
            }
        }
        Ok(())
    }
}

/// Per-block L2 norms of `w` under `br×bc` blocks (in `w`'s orientation),
/// plus the number of real entries each block covers (edge blocks cover
/// fewer). The norm matrix is what the quality rule thresholds.
fn block_norms(w: &Matrix, br: usize, bc: usize) -> (Matrix, Vec<u32>) {
    let brows = w.rows().div_ceil(br);
    let bcols = w.cols().div_ceil(bc);
    let mut sizes = vec![0u32; brows * bcols];
    let norms = Matrix::from_fn(brows, bcols, |ib, jb| {
        let rows_eff = br.min(w.rows() - ib * br);
        let cols_eff = bc.min(w.cols() - jb * bc);
        sizes[ib * bcols + jb] = (rows_eff * cols_eff) as u32;
        let mut sq = 0.0f32;
        for row in 0..rows_eff {
            for &v in &w.row(ib * br + row)[jb * bc..jb * bc + cols_eff] {
                sq += v * v;
            }
        }
        sq.sqrt()
    });
    (norms, sizes)
}

/// Expand a block-level keep decision to an element [`Mask`] over `w`.
fn expand_block_mask(
    block_kept: impl Fn(usize, usize) -> bool,
    rows: usize,
    cols: usize,
    br: usize,
    bc: usize,
) -> Mask {
    let keep = (0..rows * cols)
        .map(|idx| block_kept((idx / cols) / br, (idx % cols) / bc))
        .collect();
    Mask::from_keep(rows, cols, keep)
}

/// Element-level sparsity implied by keeping blocks where `kept` holds.
fn blocked_sparsity(block_mask: &Mask, sizes: &[u32], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let bcols = block_mask.cols();
    let kept: u64 = sizes
        .iter()
        .enumerate()
        .filter(|&(idx, _)| block_mask.kept(idx / bcols, idx % bcols))
        .map(|(_, &s)| s as u64)
        .sum();
    1.0 - kept as f64 / total as f64
}

/// Bisection search for the quality knob that prunes `w` in `br×bc` blocks
/// (in `w`'s orientation) to `target` *element* sparsity within `tol`.
/// Blocks are ranked by L2 norm; the threshold is
/// `quality × stddev(block norms)` — the paper's rule lifted one level up.
pub fn prune_to_sparsity_blocked(
    w: &Matrix,
    target: f64,
    tol: f64,
    br: usize,
    bc: usize,
) -> PruneResult {
    assert!((0.0..1.0).contains(&target), "target sparsity in [0, 1)");
    assert!(br > 0 && bc > 0, "zero block dims");
    let total = w.rows() * w.cols();
    let (norms, sizes) = block_norms(w, br, bc);
    // Unlike raw weights, block norms are all-positive with a large mean, so
    // the quality knob that crosses the target can sit far above the
    // unstructured search's [0, 8] range (threshold = quality × stddev, and
    // the norm stddev is small relative to the norm mean). Bracket by
    // doubling before bisecting.
    let (mut lo, mut hi) = (0.0f32, 8.0f32);
    while hi < 1e12 && blocked_sparsity(&mask_for_quality(&norms, hi), &sizes, total) < target {
        (lo, hi) = (hi, hi * 2.0);
    }
    let mut best = mask_for_quality(&norms, lo);
    let mut quality = lo;
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        let bm = mask_for_quality(&norms, mid);
        let s = blocked_sparsity(&bm, &sizes, total);
        (best, quality) = (bm, mid);
        if (s - target).abs() <= tol {
            break;
        }
        if s < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let sparsity = blocked_sparsity(&best, &sizes, total);
    let mask = expand_block_mask(|ib, jb| best.kept(ib, jb), w.rows(), w.cols(), br, bc);
    PruneResult {
        quality,
        sparsity,
        mask,
    }
}

/// Balanced block pruning: keep the top `k` blocks *per block-row* by L2
/// norm (ties broken toward lower block-column), where `k` is chosen so the
/// kept fraction best matches `target`. Every block-row then serves the
/// same number of tiles — predictable per-output-band cost. No quality
/// search is involved, so `quality` is reported as 0.
pub fn prune_to_sparsity_balanced(w: &Matrix, target: f64, br: usize, bc: usize) -> PruneResult {
    assert!((0.0..1.0).contains(&target), "target sparsity in [0, 1)");
    assert!(br > 0 && bc > 0, "zero block dims");
    let total = w.rows() * w.cols();
    let (norms, sizes) = block_norms(w, br, bc);
    let (brows, bcols) = (norms.rows(), norms.cols());
    let k = (((1.0 - target) * bcols as f64).round() as usize).clamp(0, bcols);
    let mut keep = vec![false; brows * bcols];
    let mut order: Vec<usize> = Vec::with_capacity(bcols);
    for ib in 0..brows {
        let row = norms.row(ib);
        order.clear();
        order.extend(0..bcols);
        order.sort_by(|&a, &b| row[b].total_cmp(&row[a]).then(a.cmp(&b)));
        for &jb in &order[..k] {
            keep[ib * bcols + jb] = true;
        }
    }
    let block_mask = Mask::from_keep(brows, bcols, keep);
    let sparsity = blocked_sparsity(&block_mask, &sizes, total);
    let mask = expand_block_mask(|ib, jb| block_mask.kept(ib, jb), w.rows(), w.cols(), br, bc);
    PruneResult {
        quality: 0.0,
        sparsity,
        mask,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkside_nn::Rng;

    fn gaussian(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.normal_scaled(0.0, 0.1))
    }

    /// Every kept/dropped decision covers a whole block.
    fn assert_all_or_nothing(mask: &Mask, br: usize, bc: usize) {
        for ib in 0..mask.rows().div_ceil(br) {
            for jb in 0..mask.cols().div_ceil(bc) {
                let first = mask.kept(ib * br, jb * bc);
                for i in ib * br..mask.rows().min((ib + 1) * br) {
                    for j in jb * bc..mask.cols().min((jb + 1) * bc) {
                        assert_eq!(mask.kept(i, j), first, "ragged block ({ib},{jb})");
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_bisection_hits_targets() {
        let w = gaussian(128, 128, 11);
        for target in [0.7, 0.9] {
            let r = prune_to_sparsity_blocked(&w, target, 0.02, 8, 8);
            assert!(
                (r.sparsity - target).abs() <= 0.02,
                "target {target}: got {}",
                r.sparsity
            );
            assert!((r.mask.sparsity() - r.sparsity).abs() < 1e-9);
            assert_all_or_nothing(&r.mask, 8, 8);
        }
    }

    #[test]
    fn blocked_handles_non_multiple_dims() {
        let w = gaussian(37, 45, 12);
        let r = prune_to_sparsity_blocked(&w, 0.8, 0.05, 8, 8);
        assert!((r.sparsity - 0.8).abs() <= 0.05, "got {}", r.sparsity);
        assert_all_or_nothing(&r.mask, 8, 8);
    }

    #[test]
    fn balanced_keeps_fixed_blocks_per_row() {
        let w = gaussian(64, 128, 13);
        let r = prune_to_sparsity_balanced(&w, 0.9, 8, 8);
        // 16 block-cols × 10% kept → round(1.6) = 2 blocks per block-row.
        let bcols = 128 / 8;
        let k = ((0.1 * bcols as f64).round()) as usize;
        for ib in 0..64 / 8 {
            let kept_blocks = (0..bcols).filter(|&jb| r.mask.kept(ib * 8, jb * 8)).count();
            assert_eq!(kept_blocks, k, "block-row {ib}");
        }
        assert_all_or_nothing(&r.mask, 8, 8);
        assert!((r.sparsity - (1.0 - k as f64 / bcols as f64)).abs() < 1e-9);
    }

    #[test]
    fn structure_labels_and_validation() {
        assert_eq!(PruneStructure::Unstructured.label(), "unstructured");
        assert_eq!(PruneStructure::tile().label(), "b8x8");
        assert_eq!(PruneStructure::row_vector().label(), "b1x8");
        assert_eq!(PruneStructure::Balanced { r: 8, c: 8 }.label(), "bal8x8");
        assert!(PruneStructure::tile().validate("t").is_ok());
        assert!(PruneStructure::Block { r: 0, c: 8 }.validate("t").is_err());
        assert!(PruneStructure::Block { r: 8, c: 128 }
            .validate("t")
            .is_err());
    }
}
