//! # darkside-pruning — magnitude pruning + sparse compute
//!
//! Implements DESIGN.md §2 (`crates/pruning`): Han-style magnitude pruning
//! (per-layer threshold = quality × stddev of the layer's weights, with the
//! single global quality parameter searched to hit a target sparsity), CSR
//! export of pruned weight matrices, and the CSR SpMV/SpMM kernels that the
//! DNN accelerator model consumes.
//!
//! ISSUE 6 adds the structured fast path: [`blocked`] prunes in
//! register-tile-aligned `r×c` blocks (selectable [`PruneStructure`],
//! including a balanced per-block-row variant), [`bsr`] stores the
//! survivors block-sparse, and [`PrunedAffine`]/[`PrunedMlp`] pick CSR or
//! BSR behind the unchanged `FrameScorer` interface — bit-for-bit the same
//! scores, served by the dense micro-kernel instead of scalar gathers.

pub mod blocked;
pub mod bsr;
pub mod csr;
pub mod magnitude;
pub mod model;
pub mod pruned_layer;
pub mod pruned_mlp;

pub use blocked::{prune_to_sparsity_balanced, prune_to_sparsity_blocked, PruneStructure};
pub use bsr::Bsr;
pub use csr::Csr;
pub use magnitude::{mask_for_quality, prune_to_sparsity, Mask, PruneResult};
pub use model::{prune_mlp_to_sparsity, ModelPruneResult};
pub use pruned_layer::{PrunedAffine, SparseWeights};
pub use pruned_mlp::PrunedMlp;
