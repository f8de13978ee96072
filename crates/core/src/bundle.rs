//! [`ModelBundle`] — the servable artifact a finished [`Pipeline`] exports
//! (ISSUE 5).
//!
//! Offline, the pipeline owns its model and graph and evaluates them over
//! a held-out set. A serving engine needs the same pieces in shareable
//! form: N concurrent sessions walk one decoding graph, and one scorer
//! batches frames across all of them, from whatever worker thread the
//! scheduler runs on. The bundle is exactly that packaging — `Arc`s around
//! the graph and the [`FrameScorer`] (`Send + Sync`, shared without
//! copies), plus the decode configuration ([`BeamConfig`] + [`PolicyKind`])
//! every session's fresh per-utterance policy is built from.

use crate::pipeline::Pipeline;
use crate::PolicyKind;
use darkside_decoder::{BeamConfig, PruningPolicy};
use darkside_error::Error;
use darkside_nn::{FrameScorer, Precision};
use darkside_pruning::PruneStructure;
use darkside_wfst::{GraphKind, SharedGraph};
use std::sync::Arc;

/// Everything a serving engine needs from a trained (and optionally
/// pruned) pipeline, shareable across scheduler worker threads.
#[derive(Clone)]
pub struct ModelBundle {
    /// The decoding graph every session's search walks — eager or lazily
    /// composed behind the one [`darkside_wfst::GraphSource`] handle
    /// (ISSUE 8).
    pub graph: SharedGraph,
    /// Which representation `graph` is; stamped into session checkpoints
    /// so a blob never restores against the wrong graph kind.
    pub graph_kind: GraphKind,
    /// The acoustic model; one `score_frames` call serves a whole
    /// cross-session micro-batch.
    pub scorer: Arc<dyn FrameScorer + Send + Sync>,
    /// Beam window + acoustic scale for cost conversion and thresholds.
    pub beam: BeamConfig,
    /// Which pruning policy each session decodes under.
    pub policy: PolicyKind,
    /// `"dense"` or the sparsity percentage, e.g. `"90%"` (report label).
    pub label: String,
    /// Sparsity-structure label of the scorer ("unstructured", "b8x8", …;
    /// dense bundles report "unstructured").
    pub structure: String,
    /// Scoring precision of the scorer (ISSUE 10); stamped into session
    /// checkpoints (wire v3) so a blob never restores against a scorer of
    /// a different precision — quantized and f32 posteriors differ, so
    /// mixing them mid-utterance would silently corrupt the decode.
    pub precision: Precision,
    /// Achieved global sparsity of the scorer (0 for dense).
    pub sparsity: f64,
    /// Mean hypotheses/frame of the **dense** model under this bundle's
    /// beam ([`Pipeline::dense_hyps_baseline`]) — what the ISSUE 9
    /// per-session detector multiplies to get its workload threshold. 0
    /// disables the workload check (no probe data).
    pub dense_hyps_baseline: f64,
}

impl ModelBundle {
    /// Build a fresh per-utterance policy for one session.
    pub fn build_policy(&self) -> Result<Box<dyn PruningPolicy + Send>, Error> {
        self.policy.build(&self.beam)
    }

    /// A copy of this bundle decoding under a different policy/beam (the
    /// serving bench sweeps policies over one trained model; admission
    /// control degrades sessions the same way).
    pub fn with_policy(&self, policy: PolicyKind, beam: BeamConfig) -> Self {
        Self {
            policy,
            beam,
            ..self.clone()
        }
    }
}

/// What to export from a [`Pipeline`] as a [`ModelBundle`] — the single
/// servable-export surface. Start from [`ServableSpec::dense`] or
/// [`ServableSpec::pruned`] and override only what differs from the
/// pipeline's own configuration:
///
/// ```ignore
/// let bundle = pipeline.servable(
///     ServableSpec::pruned(0.9)
///         .with_structure(PruneStructure::Block { r: 8, c: 8 })
///         .with_policy(PolicyKind::Beam),
/// )?;
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ServableSpec {
    /// Target global sparsity; 0 exports the dense model unchanged.
    sparsity: f64,
    /// Pruning structure; `None` defers to the pipeline's configured one.
    structure: Option<PruneStructure>,
    /// Serving-time pruning policy; `None` defers to the pipeline's.
    policy: Option<PolicyKind>,
    /// Serving-time beam; `None` defers to the pipeline's.
    beam: Option<BeamConfig>,
    /// Masked-retraining epochs after the prune; `None` defers to the
    /// pipeline's configured budget.
    retrain: Option<usize>,
    /// Scoring precision of the exported scorer (ISSUE 10).
    precision: Precision,
}

impl ServableSpec {
    /// Serve the dense model as trained.
    pub fn dense() -> Self {
        Self {
            sparsity: 0.0,
            structure: None,
            policy: None,
            beam: None,
            retrain: None,
            precision: Precision::F32,
        }
    }

    /// Prune to `target` global sparsity (with the pipeline's configured
    /// masked retraining) before export — the "compressed model in
    /// production" the paper's tail-latency story is about. Validated in
    /// [`Pipeline::servable`]: must lie in `(0, 1)`.
    pub fn pruned(target: f64) -> Self {
        Self {
            sparsity: target,
            ..Self::dense()
        }
    }

    /// Prune under an explicit structure instead of the pipeline's
    /// configured one (the serving bench exports unstructured and tiled
    /// bundles from one pipeline). Dense specs reject structure overrides.
    pub fn with_structure(mut self, structure: PruneStructure) -> Self {
        self.structure = Some(structure);
        self
    }

    /// Export the scorer at `precision` (ISSUE 10): [`Precision::Int8`]
    /// calibrates activation scales on the pipeline's training distribution
    /// and serves int8 weights — quantized BSR when the effective structure
    /// is the 8×8 serving tile, packed dense i8 otherwise (including dense
    /// exports).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Decode sessions under `policy` instead of the pipeline's configured
    /// one.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Decode sessions under `beam` instead of the pipeline's configured
    /// one.
    pub fn with_beam(mut self, beam: BeamConfig) -> Self {
        self.beam = Some(beam);
        self
    }

    /// Masked-retrain for `epochs` after the prune instead of the
    /// pipeline's configured budget. `with_retrain(0)` exports the raw
    /// prune-and-ship artifact — the confidence-collapsed model the
    /// paper's dark side is about, which the serving bench's detector
    /// scenario serves deliberately. Dense specs reject the override
    /// (there is nothing to retrain).
    pub fn with_retrain(mut self, epochs: usize) -> Self {
        self.retrain = Some(epochs);
        self
    }
}

impl Pipeline {
    /// Export a servable [`ModelBundle`] per `spec` through the same scorer
    /// factory the study's rows come from (shares the decoding graph; dense
    /// export clones the model once into the `Arc`, pruned export runs
    /// prune + masked retraining). Fails fast — bad sparsity targets,
    /// dense+structure contradictions, and unbuildable policy geometry all
    /// error here, not on a serving thread mid-session.
    pub fn servable(&self, spec: ServableSpec) -> Result<ModelBundle, Error> {
        let policy = spec.policy.unwrap_or(self.config.policy);
        let beam = spec.beam.unwrap_or(self.config.beam);
        // Surface bad policy geometry now (the bundle builds one policy per
        // session later, on scheduler threads).
        policy.build(&beam)?;

        let (label, structure, retrain) = if spec.sparsity == 0.0 {
            if let Some(structure) = spec.structure {
                return Err(Error::config(
                    "ServableSpec",
                    format!(
                        "dense export cannot carry a pruning structure ({})",
                        structure.label()
                    ),
                ));
            }
            if let Some(epochs) = spec.retrain {
                return Err(Error::config(
                    "ServableSpec",
                    format!("dense export cannot carry a retrain override ({epochs} epochs)"),
                ));
            }
            ("dense".to_string(), PruneStructure::Unstructured, 0)
        } else {
            if !(spec.sparsity > 0.0 && spec.sparsity < 1.0) {
                return Err(Error::config(
                    "ServableSpec",
                    format!("sparsity target {} outside (0, 1)", spec.sparsity),
                ));
            }
            (
                format!("{:.0}%", spec.sparsity * 100.0),
                spec.structure.unwrap_or(self.config.structure),
                spec.retrain.unwrap_or(self.config.retrain_epochs),
            )
        };
        let masked = self.mask(spec.sparsity, structure, retrain);
        let scorer = self.export(&masked, spec.precision)?;
        Ok(ModelBundle {
            graph: self.graph.source(),
            graph_kind: self.graph.kind(),
            scorer,
            beam,
            policy,
            label,
            structure: structure.label(),
            precision: spec.precision,
            sparsity: masked.sparsity(),
            dense_hyps_baseline: self.dense_hyps_baseline(&beam)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use darkside_nn::Frame;

    #[test]
    fn bundles_are_shareable_and_score_like_the_pipeline() {
        // Model quality is irrelevant here: skip training epochs entirely
        // and check the packaging (Arc sharing, Send + Sync, policy build).
        let config = PipelineConfig::smoke().with_training(0, 0);
        let pipeline = Pipeline::build(config).unwrap();
        let dense = pipeline.servable(ServableSpec::dense()).unwrap();
        let pruned = pipeline.servable(ServableSpec::pruned(0.9)).unwrap();
        assert_eq!(dense.label, "dense");
        assert_eq!(pruned.label, "90%");
        assert!((pruned.sparsity - 0.9).abs() < 0.01);
        assert_eq!(dense.scorer.input_dim(), pruned.scorer.input_dim());
        // Both bundles carry the same dense workload baseline (probed once
        // per beam geometry, memoized across exports).
        assert!(dense.dense_hyps_baseline > 0.0);
        assert_eq!(dense.dense_hyps_baseline, pruned.dense_hyps_baseline);

        fn is_send_sync<T: Send + Sync>(_: &T) {}
        is_send_sync(&dense.graph);
        is_send_sync(&dense.scorer);

        // Scoring through the bundle matches the pipeline's own model.
        let frame = Frame(vec![0.1; dense.scorer.input_dim()]);
        let via_bundle = dense.scorer.score_frames(std::slice::from_ref(&frame));
        let via_model =
            darkside_nn::FrameScorer::score_frames(&pipeline.model, std::slice::from_ref(&frame));
        assert_eq!(via_bundle.probs.row(0), via_model.probs.row(0));

        let mut policy = dense.build_policy().unwrap();
        assert_eq!(policy.name(), "beam");
        let _ = policy.end_frame();
    }

    #[test]
    fn servable_specs_fail_fast_on_contradictions() {
        let pipeline = Pipeline::build(PipelineConfig::smoke().with_training(0, 0)).unwrap();
        // Dense + structure is a contradiction, not a silent ignore.
        assert!(pipeline
            .servable(ServableSpec::dense().with_structure(PruneStructure::Block { r: 8, c: 8 }))
            .is_err());
        // Sparsity targets outside (0, 1) are rejected.
        for bad in [-0.5, 1.0, 1.5, f64::NAN] {
            assert!(
                pipeline.servable(ServableSpec::pruned(bad)).is_err(),
                "target {bad} should be rejected"
            );
        }
        // Unbuildable policy geometry errors at export, not per session.
        assert!(pipeline
            .servable(ServableSpec::dense().with_policy(PolicyKind::LooseNBest(
                darkside_viterbi_accel::NBestTableConfig {
                    entries: 10,
                    ways: 4
                }
            )))
            .is_err());
        // Structure overrides flow through to the exported bundle.
        let tiled = pipeline
            .servable(
                ServableSpec::pruned(0.5).with_structure(PruneStructure::Block { r: 8, c: 8 }),
            )
            .unwrap();
        assert_eq!(tiled.structure, "b8x8");
        assert_eq!(tiled.label, "50%");
    }
}
