//! # darkside-core — the ASR system façade
//!
//! DESIGN.md §3: glues the substrate crates into the paper's evaluation.
//!
//! The grid enumeration below is the coordinate system EXPERIMENTS.md
//! reports in; the end-to-end system behind it lives in [`pipeline`]:
//! build a [`pipeline::Pipeline`] from a [`pipeline::PipelineConfig`]
//! (builder-style `with_*` methods, `default_scaled()` = DESIGN.md §4b),
//! then call [`pipeline::Pipeline::run_policy_grid`] for the corpus →
//! train → prune → decode study or [`pipeline::Pipeline::servable`] to
//! export one scorer for serving.

pub mod bundle;
pub mod pipeline;
pub mod policy;

pub use bundle::{ModelBundle, ServableSpec};
pub use darkside_error::Error;
pub use darkside_nn::Precision;
pub use darkside_pruning::PruneStructure;
pub use pipeline::{
    DecodingGraph, GraphConfig, LevelReport, Pipeline, PipelineConfig, PipelineReport,
    PolicyGridLevel, PolicyGridReport,
};
pub use policy::PolicyKind;

pub use darkside_acoustic as acoustic;
pub use darkside_decoder as decoder;
pub use darkside_dnn_accel as dnn_accel;
pub use darkside_hwmodel as hwmodel;
pub use darkside_nn as nn;
pub use darkside_pruning as pruning;
pub use darkside_quant as quant;
pub use darkside_trace as trace;
pub use darkside_viterbi_accel as viterbi_accel;
pub use darkside_wfst as wfst;

/// Hypothesis-selection strategy axis of the paper's grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Selection {
    /// Fixed beam, no workload bound (the paper's "Baseline").
    Baseline,
    /// Reduced beams per pruning level (the paper's software mitigation).
    Beam,
    /// The paper's contribution: loose N-best hash selection.
    NBest,
}

/// Pruning-level axis of the paper's grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PruneLevel {
    None,
    P70,
    P80,
    P90,
}

impl PruneLevel {
    /// Target global sparsity for `darkside-pruning`.
    pub fn sparsity(self) -> f64 {
        match self {
            PruneLevel::None => 0.0,
            PruneLevel::P70 => 0.70,
            PruneLevel::P80 => 0.80,
            PruneLevel::P90 => 0.90,
        }
    }
}

/// One cell of the 12-configuration grid (Figs. 11/12).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridConfig {
    pub selection: Selection,
    pub prune: PruneLevel,
}

impl GridConfig {
    /// All 12 cells, in the paper's plotting order.
    pub fn full_grid() -> Vec<GridConfig> {
        let mut grid = Vec::with_capacity(12);
        for selection in [Selection::Baseline, Selection::Beam, Selection::NBest] {
            for prune in [
                PruneLevel::None,
                PruneLevel::P70,
                PruneLevel::P80,
                PruneLevel::P90,
            ] {
                grid.push(GridConfig { selection, prune });
            }
        }
        grid
    }

    /// EXPERIMENTS.md label, e.g. `NBest-90` / `Baseline-NP`.
    pub fn label(&self) -> String {
        let sel = match self.selection {
            Selection::Baseline => "Baseline",
            Selection::Beam => "Beam",
            Selection::NBest => "NBest",
        };
        let lvl = match self.prune {
            PruneLevel::None => "NP",
            PruneLevel::P70 => "70",
            PruneLevel::P80 => "80",
            PruneLevel::P90 => "90",
        };
        format!("{sel}-{lvl}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_twelve_unique_labels() {
        let grid = GridConfig::full_grid();
        assert_eq!(grid.len(), 12);
        let labels: std::collections::HashSet<String> = grid.iter().map(|g| g.label()).collect();
        assert_eq!(labels.len(), 12);
        assert!(labels.contains("NBest-90"));
        assert!(labels.contains("Baseline-NP"));
    }
}
