//! The acoustic-model MLP (ISSUE 1) and its scored-batch output type.
//!
//! Scoring goes through the [`crate::FrameScorer`] trait (ISSUE 2 API
//! redesign): `Mlp` implements it with one GEMM per layer for the whole
//! utterance, so every weight matrix is traversed **once per utterance**
//! instead of once per frame.

use crate::layers::{Affine, Layer};
use crate::matrix::Matrix;
use crate::rng::Rng;

/// One feature frame (e.g. 40-dim filterbank × 9-frame context = 360 values).
#[derive(Clone, Debug, PartialEq)]
pub struct Frame(pub Vec<f32>);

impl Frame {
    pub fn dim(&self) -> usize {
        self.0.len()
    }
}

/// Softmax outputs for a batch of frames: `frames × classes`, rows sum to 1.
#[derive(Clone, Debug)]
pub struct Scores {
    pub probs: Matrix,
}

impl Scores {
    pub fn num_frames(&self) -> usize {
        self.probs.rows()
    }

    pub fn num_classes(&self) -> usize {
        self.probs.cols()
    }

    /// Arg-max class and its probability for frame `i`.
    pub fn top1(&self, i: usize) -> (usize, f32) {
        let row = self.probs.row(i);
        let mut best = (0usize, f32::NEG_INFINITY);
        for (c, &p) in row.iter().enumerate() {
            if p > best.1 {
                best = (c, p);
            }
        }
        best
    }

    /// The paper's confidence metric: probability of the top-1 class
    /// (this is what collapses under pruning — DESIGN.md §1).
    pub fn confidence(&self, i: usize) -> f32 {
        self.top1(i).1
    }

    /// Mean confidence over the batch (Fig. 3's y-axis).
    pub fn mean_confidence(&self) -> f32 {
        if self.num_frames() == 0 {
            return 0.0;
        }
        (0..self.num_frames())
            .map(|i| self.confidence(i))
            .sum::<f32>()
            / self.num_frames() as f32
    }
}

/// The Kaldi-style acoustic MLP: fixed LDA input, `affine → p-norm →
/// renormalize` hidden blocks, affine + softmax output (DESIGN.md Table I).
#[derive(Clone, Debug)]
pub struct Mlp {
    pub layers: Vec<Layer>,
    input_dim: usize,
}

impl Mlp {
    /// Build from an explicit layer stack.
    pub fn new(input_dim: usize, layers: Vec<Layer>) -> Self {
        Self { layers, input_dim }
    }

    /// The paper-shape architecture at a configurable scale:
    /// `input → [affine(hidden) → pnorm(group) → renorm] × blocks → classes`,
    /// preceded by a fixed square LDA transform.
    pub fn kaldi_style(
        input_dim: usize,
        hidden_dim: usize,
        pnorm_group: usize,
        blocks: usize,
        classes: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(hidden_dim.is_multiple_of(pnorm_group));
        let pooled = hidden_dim / pnorm_group;
        let mut layers = vec![Layer::Lda(Affine::new_random(input_dim, input_dim, rng))];
        let mut dim = input_dim;
        for _ in 0..blocks {
            layers.push(Layer::Affine(Affine::new_random(dim, hidden_dim, rng)));
            layers.push(Layer::PNorm(crate::layers::PNorm { group: pnorm_group }));
            layers.push(Layer::Renormalize);
            dim = pooled;
        }
        layers.push(Layer::Affine(Affine::new_random(dim, classes, rng)));
        layers.push(Layer::Softmax);
        Self { layers, input_dim }
    }

    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    pub fn output_dim(&self) -> usize {
        self.layers.iter().fold(self.input_dim, |d, l| l.out_dim(d))
    }

    /// Run the stack on a pre-built `batch × input_dim` matrix.
    pub fn forward(&self, x: Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim, "Mlp::forward: input dim");
        self.layers.iter().fold(x, |x, layer| layer.forward(x))
    }

    /// Total parameter count (weights + biases), for Table I-style reporting.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::Lda(a) | Layer::Affine(a) => a.w.rows() * a.w.cols() + a.b.len(),
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::FrameScorer;

    #[test]
    fn shapes_propagate() {
        let mut rng = Rng::new(1);
        let mlp = Mlp::kaldi_style(36, 64, 4, 2, 9, &mut rng);
        assert_eq!(mlp.input_dim(), 36);
        assert_eq!(mlp.output_dim(), 9);
        let frames: Vec<Frame> = (0..5)
            .map(|_| Frame((0..36).map(|_| rng.normal()).collect()))
            .collect();
        let scores = mlp.score_frames(&frames);
        assert_eq!(scores.num_frames(), 5);
        assert_eq!(scores.num_classes(), 9);
    }

    #[test]
    fn batched_equals_per_frame() {
        let mut rng = Rng::new(2);
        let mlp = Mlp::kaldi_style(24, 32, 4, 2, 7, &mut rng);
        let frames: Vec<Frame> = (0..17)
            .map(|_| Frame((0..24).map(|_| rng.normal()).collect()))
            .collect();
        let batched = mlp.score_frames(&frames);
        for (i, f) in frames.iter().enumerate() {
            let single = mlp.score_frame(f);
            crate::check::assert_slices_close(
                batched.probs.row(i),
                single.probs.row(0),
                1e-5,
                "batched vs single",
            );
        }
    }
}
