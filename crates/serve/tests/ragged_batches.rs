//! ISSUE 5 satellite: cross-session micro-batched scoring is **exactly**
//! per-utterance scoring — row for row, bit for bit — for the dense
//! [`Mlp`] and the CSR-backed [`PrunedMlp`], over ragged batch
//! compositions.
//!
//! This is the property the [`darkside_serve::ShardedScheduler`] stands on: it
//! concatenates ready frames from many sessions into one
//! [`FrameScorer::score_frames`] call and hands each session its row
//! slice, claiming the session cannot tell the difference. That claim is
//! exact (not approximate) because every layer in the stack is row-wise —
//! the GEMM accumulates each output element over `k` in a fixed order that
//! does not depend on how many other rows share the batch, and LDA /
//! p-norm / renormalize / softmax never mix rows. If someone later makes
//! the kernels batch-adaptive (tile by batch height, reorder reductions),
//! this test is the tripwire: serving would silently stop being
//! reproducible.

use darkside_nn::check::run_cases;
use darkside_nn::{Frame, FrameScorer, Mlp, Rng};
use darkside_pruning::{prune_mlp_to_sparsity, PruneStructure, PrunedMlp};

/// Random batch compositions: up to 8 "sessions", each contributing 0–12
/// frames (zero-length contributions model sessions with nothing ready —
/// the scheduler never includes them, but the math must not care).
fn ragged_utterances(rng: &mut Rng, dim: usize) -> Vec<Vec<Frame>> {
    let sessions = 1 + rng.below(8);
    (0..sessions)
        .map(|_| {
            let frames = rng.below(13);
            (0..frames)
                .map(|_| Frame((0..dim).map(|_| rng.normal()).collect()))
                .collect()
        })
        .collect()
}

/// Score each utterance alone, then all concatenated in one call, and
/// demand bitwise row equality.
fn assert_batching_exact(scorer: &dyn FrameScorer, utts: &[Vec<Frame>], what: &str) {
    let batch: Vec<Frame> = utts.iter().flatten().cloned().collect();
    let batched = scorer.score_frames(&batch);
    assert_eq!(batched.num_frames(), batch.len());
    let mut row = 0;
    for (u, utt) in utts.iter().enumerate() {
        let solo = scorer.score_frames(utt);
        assert_eq!(solo.num_frames(), utt.len());
        for t in 0..utt.len() {
            let solo_row = solo.probs.row(t);
            let batch_row = batched.probs.row(row);
            for (c, (a, b)) in solo_row.iter().zip(batch_row).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{what}: utt {u} frame {t} class {c}: solo {a} vs batched {b}"
                );
            }
            row += 1;
        }
    }
    assert_eq!(row, batch.len());
}

#[test]
fn dense_mlp_batched_scoring_is_exact() {
    run_cases(0xD05E, 30, |rng, case| {
        let mlp = Mlp::kaldi_style(6, 8, 2, 1 + rng.below(2), 5, rng);
        let utts = ragged_utterances(rng, mlp.input_dim());
        assert_batching_exact(&mlp, &utts, &format!("dense case {case}"));
    });
}

#[test]
fn pruned_mlp_batched_scoring_is_exact() {
    run_cases(0x0005_EA5E, 30, |rng, case| {
        let mlp = Mlp::kaldi_style(6, 8, 2, 1, 5, rng);
        // Heavy pruning (the paper's regime) — the CSR spmm path must hold
        // the same row-independence property as the dense GEMM.
        let unstructured = PruneStructure::Unstructured;
        let masks = prune_mlp_to_sparsity(&mlp, 0.9, 0.02, unstructured).masks;
        let pruned = PrunedMlp::from_masked(&mlp, &masks, unstructured);
        assert!(pruned.sparsity() > 0.5, "case {case}: prune ineffective");
        let utts = ragged_utterances(rng, mlp.input_dim());
        assert_batching_exact(&pruned, &utts, &format!("pruned case {case}"));
    });
}

/// The serving boundary case: one session dominating the batch next to
/// many single-frame sessions (the worst ragged skew the fair-share
/// gather can produce).
#[test]
fn skewed_composition_is_exact() {
    run_cases(0x53EF, 10, |rng, case| {
        let mlp = Mlp::kaldi_style(6, 8, 2, 1, 5, rng);
        let dim = mlp.input_dim();
        let mut utts = vec![(0..40)
            .map(|_| Frame((0..dim).map(|_| rng.normal()).collect()))
            .collect::<Vec<_>>()];
        for _ in 0..7 {
            utts.push(vec![Frame((0..dim).map(|_| rng.normal()).collect())]);
        }
        assert_batching_exact(&mlp, &utts, &format!("skew case {case}"));
    });
}
