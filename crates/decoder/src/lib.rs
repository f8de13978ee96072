//! # darkside-decoder — policy-parameterized Viterbi search
//!
//! DESIGN.md §3: walks the `darkside-wfst` decoding graph over acoustic
//! scores from `darkside-nn`. [`search::SearchCore`] is the
//! frame-synchronous token-passing recursion (with the per-frame hypothesis
//! statistics the paper's Fig. 4 plots); every admit/evict/threshold
//! decision is delegated to a [`policy::PruningPolicy`], so the classic
//! beam ([`policy::BeamPolicy`], via [`search::decode`]), the UNFOLD-style
//! hash, and the paper's loose N-best table (both in
//! `darkside-viterbi-accel`) are drop-in swaps over one search core.
//! [`wer`] scores hypotheses against references.
//!
//! The scoring interface: the decoder consumes per-frame **acoustic costs**
//! (−log probabilities, scaled), produced in batch from
//! [`darkside_nn::Scores`] so the whole utterance's DNN work is one batched
//! [`darkside_nn::FrameScorer::score_frames`] call.

pub mod policy;
pub mod search;
pub mod wer;
pub mod wire;

pub use darkside_error::Error;
pub use policy::{Admit, BeamPolicy, FramePruneStats, PruningPolicy};
pub use search::{
    decode, decode_with_policy, DecodeResult, DecodeStats, PartialHypothesis, SearchCore,
};
pub use wer::{word_errors, WerStats};

use darkside_nn::{Matrix, Scores};

/// Beam-search knobs (paper defaults from DESIGN.md §4b).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BeamConfig {
    /// Cost window around the best hypothesis.
    pub beam: f32,
    /// The hybrid-ASR acoustic down-scaling (DESIGN.md §4b: 0.3).
    pub acoustic_scale: f32,
}

impl Default for BeamConfig {
    fn default() -> Self {
        Self {
            beam: 15.0,
            acoustic_scale: 0.3,
        }
    }
}

/// Probability floor applied before the −log so silence/pruned-away classes
/// yield a large finite cost instead of +∞ (which would poison ⊗ sums).
pub const PROB_FLOOR: f32 = 1e-10;

/// Convert batched softmax scores into the `frames × classes` acoustic-cost
/// matrix the search consumes: `cost = |acoustic_scale| · (−ln max(p, floor))`.
///
/// Robustness contract (the costs must order hypotheses sensibly no matter
/// what a broken or heavily pruned model emits):
/// * probabilities at or below [`PROB_FLOOR`] — including exact zeros —
///   produce the *same* large finite cost;
/// * NaN probabilities are treated as floored, not propagated;
/// * the scale is taken as a magnitude (`|scale|`), so a negated or zero
///   `acoustic_scale` can never make floored classes *cheaper* than
///   confident ones — cost order always follows probability order.
pub fn acoustic_costs(scores: &Scores, config: &BeamConfig) -> Matrix {
    let scale = config.acoustic_scale.abs();
    Matrix::from_fn(scores.num_frames(), scores.num_classes(), |i, j| {
        let p = scores.probs.get(i, j);
        let p = if p.is_nan() {
            PROB_FLOOR
        } else {
            p.max(PROB_FLOOR)
        };
        scale * -p.ln()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_are_finite_and_ordered() {
        let probs = Matrix::new(1, 3, vec![0.7, 0.3, 0.0]).unwrap();
        let costs = acoustic_costs(&Scores { probs }, &BeamConfig::default());
        // Higher probability → lower cost; zero probability → finite cost.
        assert!(costs.get(0, 0) < costs.get(0, 1));
        assert!(costs.get(0, 1) < costs.get(0, 2));
        assert!(costs.get(0, 2).is_finite());
    }

    #[test]
    fn floored_classes_cost_the_same_regardless_of_scale_sign() {
        // Zero, sub-floor, and exactly-floor probabilities are
        // indistinguishable after flooring.
        let probs = Matrix::new(1, 3, vec![0.0, PROB_FLOOR * 0.5, PROB_FLOOR]).unwrap();
        for scale in [0.3, -0.3, 0.0] {
            let costs = acoustic_costs(
                &Scores {
                    probs: probs.clone(),
                },
                &BeamConfig {
                    beam: 15.0,
                    acoustic_scale: scale,
                },
            );
            let floor_cost = costs.get(0, 0);
            assert!(floor_cost.is_finite());
            assert!(floor_cost >= 0.0, "scale {scale}: cost {floor_cost}");
            assert_eq!(costs.get(0, 1), floor_cost, "scale {scale}");
            assert_eq!(costs.get(0, 2), floor_cost, "scale {scale}");
        }
    }

    #[test]
    fn negative_or_zero_scale_preserves_probability_order() {
        let probs = Matrix::new(1, 2, vec![0.9, 0.1]).unwrap();
        for scale in [-1.0, -0.3] {
            let costs = acoustic_costs(
                &Scores {
                    probs: probs.clone(),
                },
                &BeamConfig {
                    beam: 15.0,
                    acoustic_scale: scale,
                },
            );
            assert!(
                costs.get(0, 0) < costs.get(0, 1),
                "scale {scale} inverted the cost order"
            );
        }
        let zero = acoustic_costs(
            &Scores { probs },
            &BeamConfig {
                beam: 15.0,
                acoustic_scale: 0.0,
            },
        );
        assert_eq!(zero.get(0, 0), 0.0);
        assert_eq!(zero.get(0, 1), 0.0);
    }

    #[test]
    fn nan_logits_floor_instead_of_poisoning() {
        let probs = Matrix::new(1, 2, vec![f32::NAN, 0.5]).unwrap();
        let costs = acoustic_costs(&Scores { probs }, &BeamConfig::default());
        assert!(costs.get(0, 0).is_finite());
        // NaN scores like a floored class: worst finite cost, never NaN.
        assert!(costs.get(0, 0) > costs.get(0, 1));
    }

    #[test]
    fn empty_frame_batch_yields_an_empty_cost_matrix() {
        let probs = Matrix::zeros(0, 4);
        let costs = acoustic_costs(&Scores { probs }, &BeamConfig::default());
        assert_eq!((costs.rows(), costs.cols()), (0, 4));
    }
}
