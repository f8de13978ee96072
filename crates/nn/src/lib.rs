//! # darkside-nn — the dense compute substrate
//!
//! Implements DESIGN.md §2/§3 (`crates/nn`): an `f32` row-major [`Matrix`],
//! a cache-blocked, register-tiled, thread-parallel [`gemm`], the Kaldi-style
//! layer set (affine / p-norm pooling / renormalize / softmax / fixed LDA),
//! mini-batch SGD [`train`]ing with momentum + cross-entropy and masked
//! retraining hooks, and the batched [`FrameScorer`] trait — the single
//! scoring entry point every consumer (decoder, benches, accelerator sims)
//! uses, so dense and pruned models are interchangeable downstream.
//!
//! The naive triple-loop kernels ([`gemm_naive`], [`gemv_naive`]) are kept
//! in-tree permanently as the correctness oracles the property tests
//! (`tests/gemm_prop.rs`, `darkside-pruning`'s `tests/csr_prop.rs`) check
//! the optimized kernels against.
//!
//! No external dependencies: [`rng`] is a seeded SplitMix64 (the `rand`
//! stand-in of DESIGN.md §6) and [`check`] is the randomized-case test
//! support used across the workspace.

pub mod check;
pub mod gemm;
pub mod layers;
pub mod matrix;
pub mod model;
pub mod rng;
pub mod scorer;
pub mod sparse;
pub mod train;

pub use darkside_error::Error;
pub use gemm::{gemm, gemm_naive, gemm_with_threads, gemv_naive};
pub use layers::{renormalize_in_place, softmax_in_place, Affine, Layer, PNorm};
pub use matrix::Matrix;
pub use model::{Frame, Mlp, Scores};
pub use rng::Rng;
pub use scorer::{stack_frames, traced_score_frames, FrameScorer, Precision};
pub use sparse::{bsr_spmm, csr_spmm};
pub use train::{evaluate, SgdConfig, TrainStats, Trainer};
