//! Compressed-sparse-row matrices and the SpMV/SpMM kernels (ISSUE 1).
//!
//! The paper's DNN accelerator streams pruned FC layers in a CSR-like
//! compressed format (DESIGN.md §2); this module is the software analogue.
//! Column indices are `u32` — half the footprint of `usize` indices, which
//! matters because SpMV is memory-bound: at 90 % sparsity the whole win over
//! dense GEMV is reading 8 bytes per surviving weight instead of 4 bytes per
//! *every* weight.

use darkside_error::Error;
use darkside_nn::Matrix;

/// CSR sparse matrix over `f32`, `u32` column indices.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    /// `rows + 1` offsets into `col_idx`/`vals`.
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<f32>,
}

impl Csr {
    /// Import raw CSR buffers, validating every structural invariant the
    /// kernels rely on: `rows + 1` monotone offsets starting at 0 and ending
    /// at `vals.len()`, matching index/value lengths, and in-range columns.
    pub fn new(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        vals: Vec<f32>,
    ) -> Result<Self, Error> {
        let fail = |detail: String| Err(Error::shape("Csr::new", detail));
        if row_ptr.len() != rows + 1 {
            return fail(format!("{} offsets for {rows} rows", row_ptr.len()));
        }
        if row_ptr[0] != 0 {
            return fail(format!("row_ptr starts at {}", row_ptr[0]));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return fail("row_ptr is not monotone".into());
        }
        if col_idx.len() != vals.len() || *row_ptr.last().unwrap() as usize != vals.len() {
            return fail(format!(
                "{} column indices, {} values, final offset {}",
                col_idx.len(),
                vals.len(),
                row_ptr.last().unwrap()
            ));
        }
        if let Some(&j) = col_idx.iter().find(|&&j| j as usize >= cols) {
            return fail(format!("column index {j} in a {cols}-column matrix"));
        }
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// Compress every nonzero of `dense`.
    pub fn from_dense(dense: &Matrix) -> Result<Self, Error> {
        Self::from_dense_filtered(dense, |v| v != 0.0)
    }

    /// Compress entries of `dense` for which `keep` holds (e.g. a pruning
    /// mask applied on the fly, without materializing the masked matrix).
    pub fn from_dense_filtered(
        dense: &Matrix,
        mut keep: impl FnMut(f32) -> bool,
    ) -> Result<Self, Error> {
        if dense.cols() > u32::MAX as usize || dense.rows() >= u32::MAX as usize {
            return Err(Error::shape(
                "Csr::from_dense",
                format!(
                    "{}x{} shape exceeds the u32 index space",
                    dense.rows(),
                    dense.cols()
                ),
            ));
        }
        let mut row_ptr = Vec::with_capacity(dense.rows() + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        for i in 0..dense.rows() {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if keep(v) {
                    col_idx.push(j as u32);
                    vals.push(v);
                }
            }
            row_ptr.push(vals.len() as u32);
        }
        Ok(Self {
            rows: dense.rows(),
            cols: dense.cols(),
            row_ptr,
            col_idx,
            vals,
        })
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (surviving) weights.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Fraction of entries that are *zero* (the paper's pruning percentage).
    pub fn sparsity(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / total as f64
    }

    /// `(col_indices, values)` of row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Decompress to dense (test/debug helper — the oracle direction).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            let row = m.row_mut(i);
            for (&j, &v) in cols.iter().zip(vals) {
                row[j as usize] = v;
            }
        }
        m
    }

    /// Sparse mat-vec: `y = S · x`. One gather-dot per row; `tests/csr_prop.rs`
    /// checks it against the dense [`darkside_nn::gemv_naive`].
    pub fn spmv(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "spmv: x length");
        assert_eq!(y.len(), self.rows, "spmv: y length");
        for (i, yi) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[i] as usize;
            let hi = self.row_ptr[i + 1] as usize;
            let mut sum = 0.0f32;
            for (&j, &v) in self.col_idx[lo..hi].iter().zip(&self.vals[lo..hi]) {
                sum += v * x[j as usize];
            }
            *yi = sum;
        }
    }

    /// Sparse mat-mat: `C = S · B` (`B` is `cols × n` row-major dense) via
    /// the quad-unrolled, thread-banded [`darkside_nn::csr_spmm`] kernel.
    /// The kernel preserves the ascending-column accumulation order per C
    /// element, so it is bit-identical to the scalar masked-dense loop —
    /// `masked_spmm_ref` in `tests/bsr_prop.rs` pins that to `f32::to_bits`.
    pub fn spmm(&self, b: &Matrix, c: &mut Matrix) {
        assert_eq!(b.rows(), self.cols, "spmm: inner dimension");
        assert_eq!(c.rows(), self.rows, "spmm: output rows");
        assert_eq!(c.cols(), b.cols(), "spmm: output cols");
        darkside_nn::csr_spmm(
            self.rows,
            self.cols,
            b.cols(),
            &self.row_ptr,
            &self.col_idx,
            &self.vals,
            b.as_slice(),
            c.as_mut_slice(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_dense() {
        let d = Matrix::new(2, 3, vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0]).unwrap();
        let s = Csr::from_dense(&d).unwrap();
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.to_dense(), d);
        assert!((s.sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn new_validates_raw_buffers() {
        // A valid import round-trips.
        let s = Csr::new(2, 3, vec![0, 1, 3], vec![2, 0, 1], vec![5.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.nnz(), 3);
        let mut y = vec![0.0f32; 2];
        s.spmv(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![5.0, 3.0]);
        // Each invariant violation is rejected with a Shape error.
        for (row_ptr, col_idx, vals) in [
            (vec![0, 3], vec![0u32, 1, 2], vec![1.0f32, 2.0, 3.0]), // wrong offset count
            (vec![1, 2, 3], vec![0, 1, 2], vec![1.0, 2.0, 3.0]),    // nonzero first offset
            (vec![0, 2, 1], vec![0, 1, 2], vec![1.0, 2.0, 3.0]),    // non-monotone
            (vec![0, 1, 2], vec![0, 1, 2], vec![1.0, 2.0, 3.0]),    // final offset short
            (vec![0, 1, 3], vec![0, 9, 1], vec![1.0, 2.0, 3.0]),    // column out of range
        ] {
            let err = Csr::new(2, 3, row_ptr, col_idx, vals).unwrap_err();
            assert!(matches!(err, Error::Shape { .. }), "{err}");
        }
    }

    #[test]
    fn spmv_known_values() {
        let d = Matrix::new(2, 3, vec![1.0, 0.0, 2.0, 0.0, 4.0, 0.0]).unwrap();
        let s = Csr::from_dense(&d).unwrap();
        let mut y = vec![0.0f32; 2];
        s.spmv(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![7.0, 8.0]);
    }

    #[test]
    fn empty_shapes() {
        let s = Csr::from_dense(&Matrix::zeros(0, 5)).unwrap();
        s.spmv(&[0.0; 5], &mut []);
        let s = Csr::from_dense(&Matrix::zeros(4, 0)).unwrap();
        let mut y = vec![1.0f32; 4];
        s.spmv(&[], &mut y);
        assert_eq!(y, vec![0.0; 4]);
    }
}
