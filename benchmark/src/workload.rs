//! The four workloads: which pipeline, which servable export, which
//! load. Why each exists is in the README and in `BENCHMARK.json`.

use darkside_core::acoustic::{CorpusConfig, Utterance};
use darkside_core::decoder::BeamConfig;
use darkside_core::nn::Rng;
use darkside_core::viterbi_accel::NBestTableConfig;
use darkside_core::{
    ModelBundle, Pipeline, PipelineConfig, PolicyKind, Precision, PruneStructure, ServableSpec,
};
use darkside_serve::ServeConfig;
use std::time::Instant;

/// Utterances sampled per run from `--seed`, replayed round-robin.
pub const UTTERANCES: usize = 1024;
/// How many of them (the first ones) are checked word for word against a
/// one-shot decode, and replayed for the decoder's timing.
pub const CHECKED_UTTERANCES: usize = 64;
/// Whole-utterance offers served to warm the engine before measuring.
pub const WARMUP_OFFERS: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recipe {
    /// 200-word eager graph.
    A,
    /// 2 000 words behind a lazily composed graph with a 2 048-state memo.
    B,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// Whole-utterance offers, this many in flight.
    Closed { in_flight: usize },
    /// Real-time callers streaming chunks on a seeded schedule.
    Open { callers: usize },
}

pub struct Workload {
    pub name: &'static str,
    pub recipe: Recipe,
    pub spec: fn() -> ServableSpec,
    pub load: Load,
    pub shards: usize,
    /// Word error rate above which the run's output is wrong, percent.
    pub wer_limit_pct: f64,
}

const CLOSED: Load = Load::Closed { in_flight: 8 };

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dense.batch",
        recipe: Recipe::A,
        spec: ServableSpec::dense,
        load: CLOSED,
        shards: 1,
        wer_limit_pct: 3.0,
    },
    Workload {
        name: "darkside.batch",
        recipe: Recipe::A,
        spec: || ServableSpec::pruned(0.9).with_retrain(3),
        load: CLOSED,
        shards: 1,
        wer_limit_pct: 8.0,
    },
    Workload {
        name: "lazy2k.batch",
        recipe: Recipe::B,
        spec: ServableSpec::dense,
        load: CLOSED,
        shards: 1,
        wer_limit_pct: 3.0,
    },
    Workload {
        name: "nbest90.live",
        recipe: Recipe::A,
        spec: || {
            ServableSpec::pruned(0.9)
                .with_structure(PruneStructure::tile())
                .with_precision(Precision::Int8)
                .with_retrain(8)
                .with_policy(PolicyKind::LooseNBest(NBestTableConfig {
                    entries: 128,
                    ways: 8,
                }))
        },
        load: Load::Open { callers: 200 },
        shards: 2,
        wer_limit_pct: 8.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    fn pipeline_config(&self) -> PipelineConfig {
        // Model and corpus seeds stay the recipes' own: `--seed` picks
        // utterances and arrival times, never the system under test.
        let a = PipelineConfig::default_scaled()
            .with_corpus_sizes(200, 20)
            .with_training(8, 4);
        match self.recipe {
            Recipe::A => a,
            Recipe::B => a
                .with_corpus(CorpusConfig::large_vocab(2000))
                .with_lazy_graph(2048),
        }
    }

    /// Sized for a 2-core host: one driver thread, at most two shards, one
    /// worker per shard. Budgets are wide and degradation is off
    /// (`degrade_fraction` 1), so every session is served at full quality
    /// and a refusal is a failure, not a policy.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig::default()
            .with_shards(self.shards)
            .with_workers(1)
            .with_max_sessions(256)
            .with_max_queue_frames(1 << 16)
            .with_max_batch_frames(256)
            .with_degrade_fraction(1.0)
    }
}

/// The system under test, built the way a user would, plus this run's
/// inputs.
pub struct Setup {
    pub pipeline: Pipeline,
    pub bundle: ModelBundle,
    pub utterances: Vec<Utterance>,
    pub pipeline_build_s: f64,
    pub export_s: f64,
}

pub fn set_up(workload: &Workload, seed: u64) -> Result<Setup, darkside_core::Error> {
    let t0 = Instant::now();
    let pipeline = Pipeline::build(workload.pipeline_config())?;
    let pipeline_build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let bundle = pipeline.servable((workload.spec)())?;
    let export_s = t1.elapsed().as_secs_f64();
    // The paper's fixed beam everywhere.
    assert_eq!(bundle.beam, BeamConfig::default());
    let utterances = pipeline.corpus.sample_set(UTTERANCES, &mut Rng::new(seed));
    Ok(Setup {
        pipeline,
        bundle,
        utterances,
        pipeline_build_s,
        export_s,
    })
}

/// Work and traffic of one scored frame, *computed* from the layer shapes,
/// the bundle's sparsity and its precision — not measured.
#[derive(Clone, Copy, Debug)]
pub struct ScoringCost {
    /// Multiply-adds × 2 per frame.
    pub flops_per_frame: f64,
    /// Weight (and sparse-index) bytes one scoring call streams.
    pub weight_bytes_per_call: f64,
    /// Activation bytes read and written per frame, f32.
    pub activation_bytes_per_frame: f64,
}

pub fn scoring_cost(config: &PipelineConfig, bundle: &ModelBundle) -> ScoringCost {
    let input = config.corpus.spliced_dim();
    let pooled = config.hidden_dim / config.pnorm_group;
    let classes = config.corpus.inventory.num_classes();
    // `(in, out, prunable)`: the fixed LDA transform stays dense.
    let mut affines = vec![(input, input, false), (input, config.hidden_dim, true)];
    for _ in 1..config.hidden_blocks {
        affines.push((pooled, config.hidden_dim, true));
    }
    affines.push((pooled, classes, true));
    let keep = 1.0 - bundle.sparsity;
    let weight_bytes = match bundle.precision {
        Precision::F32 => 4.0,
        Precision::Int8 => 1.0,
    };
    // Unstructured survivors each carry a 4-byte column index (CSR); tile
    // indices amortize over 64 weights and are left out.
    let index_bytes = if bundle.sparsity > 0.0 && bundle.structure == "unstructured" {
        4.0
    } else {
        0.0
    };
    let mut cost = ScoringCost {
        flops_per_frame: 0.0,
        weight_bytes_per_call: 0.0,
        activation_bytes_per_frame: 0.0,
    };
    for (inputs, outputs, prunable) in affines {
        let weights = (inputs * outputs) as f64;
        let (kept, per_weight) = if prunable {
            (weights * keep, weight_bytes + index_bytes)
        } else {
            // The LDA is neither pruned nor quantized.
            (weights, 4.0)
        };
        cost.flops_per_frame += 2.0 * kept;
        cost.weight_bytes_per_call += kept * per_weight;
        cost.activation_bytes_per_frame += 4.0 * (inputs + outputs) as f64;
    }
    cost
}
