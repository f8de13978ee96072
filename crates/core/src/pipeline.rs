//! The pipeline façade: corpus → train → prune → decode behind one
//! builder-configured entry point.
//!
//! `PipelineConfig::default_scaled()` is the DESIGN.md §4b operating point;
//! `with_*` methods shrink or reshape it (the CI smoke test and the
//! experiment bins share this one type). Every scored model — a study row
//! or a servable export — comes from one factory: `Pipeline::mask`
//! prunes and masked-retrains once per (target, structure, retrain), and
//! `Pipeline::export` serves that masked model at a [`Precision`].
//! [`Pipeline::run_policy_grid`] walks the dense row and every pruning
//! level through that factory and decodes each scorer through the *same*
//! [`FrameScorer`]-driven path; [`Pipeline::run`] is that grid under the
//! configured policy alone, flattened to the [`LevelReport`]s that
//! EXPERIMENTS.md tables are printed from.

use crate::{acoustic, decoder, nn, pruning, quant, wfst, PolicyKind};
use acoustic::{training_set, Corpus, CorpusConfig, Utterance};
use darkside_error::Error;
use darkside_trace::{self as trace, Json};
use decoder::{acoustic_costs, decode_with_policy, BeamConfig, WerStats};
use nn::{evaluate, FrameScorer, Matrix, Mlp, Precision, Rng, SgdConfig, Trainer};
use pruning::{prune_mlp_to_sparsity, ModelPruneResult, PruneStructure, PrunedMlp};
use quant::{calibrate_mlp, QuantizedMlp};
use std::borrow::Cow;
use std::rc::Rc;
use std::sync::Arc;
use wfst::{
    build_decoding_graph, build_lazy_decoding_graph, prune_grammar, Fst, GrammarPruneReport,
    GraphKind, GraphSource, LazyComposeFst, MemoStats, SharedGraph,
};

/// How the pipeline builds and holds its decoding graph (ISSUE 8).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphConfig {
    /// Eager fully-composed `Fst`, or lazy on-the-fly H ∘ (L ∘ G)
    /// composition ([`wfst::LazyComposeFst`]) — bit-identical decodes by
    /// construction, different memory behavior at scale.
    pub mode: GraphKind,
    /// LRU memo capacity of the lazy graph, in expanded states (ignored in
    /// eager mode). Bounds resident arc memory during decode.
    pub memo_states: usize,
    /// Entropy-pruning threshold applied to the bigram G before the
    /// *decoding* graph is built (`wfst::prune_grammar`); `≤ 0` disables.
    /// Sampling always uses the unpruned grammar, so pruning changes the
    /// search space, never the task.
    pub grammar_prune: f64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        Self {
            mode: GraphKind::Eager,
            memo_states: 4096,
            grammar_prune: 0.0,
        }
    }
}

/// Everything `Pipeline::run` needs, with DESIGN.md §4b defaults.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    pub corpus: CorpusConfig,
    /// Hidden affine width (paper shape: 512).
    pub hidden_dim: usize,
    /// P-norm pooling group (paper shape: 4 → 128 pooled).
    pub pnorm_group: usize,
    /// Hidden `affine → pnorm → renorm` blocks (paper shape: 4).
    pub hidden_blocks: usize,
    pub sgd: SgdConfig,
    /// Dense training epochs.
    pub epochs: usize,
    /// Masked-retraining epochs after each prune.
    pub retrain_epochs: usize,
    pub train_utterances: usize,
    pub test_utterances: usize,
    pub beam: BeamConfig,
    /// Which pruning policy every decode in [`Pipeline::run`] uses
    /// (ISSUE 3; [`Pipeline::run_policy_grid`] sweeps several at once).
    pub policy: PolicyKind,
    /// Global sparsity targets to sweep (the paper's 70/80/90 %).
    pub prune_levels: Vec<f64>,
    /// Sparsity structure for the *structured* comparison rows (ISSUE 6).
    /// [`PruneStructure::Unstructured`] (the default) reproduces the
    /// original study; any block structure adds a BSR-served row per
    /// pruning level, so structured-vs-unstructured WER is read off at
    /// equal sparsity.
    pub structure: PruneStructure,
    /// Decoding-graph mode, lazy-memo budget, and grammar pruning (ISSUE 8).
    pub graph: GraphConfig,
    /// Scoring precision for the *quantized* comparison rows (ISSUE 10).
    /// [`Precision::F32`] (the default) reproduces the original study;
    /// [`Precision::Int8`] adds an int8-served row for dense and per level,
    /// quantized from the same masked model as the f32 row on the
    /// configured structure.
    pub precision: Precision,
    /// Seed for model init, training shuffles, and train/test sampling.
    pub seed: u64,
}

impl PipelineConfig {
    /// The DESIGN.md §4b scaled operating point.
    pub fn default_scaled() -> Self {
        Self {
            corpus: CorpusConfig::default_scaled(),
            hidden_dim: 512,
            pnorm_group: 4,
            hidden_blocks: 4,
            sgd: SgdConfig {
                learning_rate: 0.06,
                momentum: 0.9,
                batch_size: 128,
                lr_decay: 0.96,
            },
            epochs: 14,
            retrain_epochs: 3,
            train_utterances: 300,
            test_utterances: 60,
            beam: BeamConfig::default(),
            policy: PolicyKind::Beam,
            prune_levels: vec![0.70, 0.80, 0.90],
            structure: PruneStructure::Unstructured,
            graph: GraphConfig::default(),
            precision: Precision::F32,
            seed: 0xDA_2C,
        }
    }

    /// A deliberately tiny configuration for CI smoke tests: small corpus
    /// (easier class space, so the dense model actually reaches the paper's
    /// confident regime), small model, few epochs — seconds, not minutes.
    pub fn smoke() -> Self {
        Self {
            corpus: CorpusConfig {
                num_words: 30,
                successors_per_word: 8,
                inventory: acoustic::PhonemeInventory {
                    num_phonemes: 12,
                    states_per_phoneme: 3,
                },
                seed: 0x5310,
                ..CorpusConfig::default_scaled()
            },
            hidden_dim: 64,
            pnorm_group: 4,
            hidden_blocks: 2,
            sgd: SgdConfig {
                learning_rate: 0.08,
                momentum: 0.9,
                batch_size: 64,
                lr_decay: 0.97,
            },
            epochs: 20,
            retrain_epochs: 0,
            train_utterances: 40,
            test_utterances: 8,
            beam: BeamConfig::default(),
            policy: PolicyKind::Beam,
            prune_levels: vec![0.90],
            structure: PruneStructure::Unstructured,
            graph: GraphConfig::default(),
            precision: Precision::F32,
            seed: 0x5310,
        }
    }

    pub fn with_corpus(mut self, corpus: CorpusConfig) -> Self {
        self.corpus = corpus;
        self
    }

    pub fn with_model_shape(
        mut self,
        hidden_dim: usize,
        pnorm_group: usize,
        hidden_blocks: usize,
    ) -> Self {
        self.hidden_dim = hidden_dim;
        self.pnorm_group = pnorm_group;
        self.hidden_blocks = hidden_blocks;
        self
    }

    pub fn with_training(mut self, epochs: usize, retrain_epochs: usize) -> Self {
        self.epochs = epochs;
        self.retrain_epochs = retrain_epochs;
        self
    }

    pub fn with_corpus_sizes(mut self, train: usize, test: usize) -> Self {
        self.train_utterances = train;
        self.test_utterances = test;
        self
    }

    pub fn with_beam(mut self, beam: BeamConfig) -> Self {
        self.beam = beam;
        self
    }

    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    pub fn with_prune_levels(mut self, levels: Vec<f64>) -> Self {
        self.prune_levels = levels;
        self
    }

    pub fn with_structure(mut self, structure: PruneStructure) -> Self {
        self.structure = structure;
        self
    }

    /// Add int8-quantized comparison rows to every run (ISSUE 10).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    pub fn with_graph(mut self, graph: GraphConfig) -> Self {
        self.graph = graph;
        self
    }

    /// Switch to a lazily-composed decoding graph with the given memo
    /// budget (states).
    pub fn with_lazy_graph(mut self, memo_states: usize) -> Self {
        self.graph.mode = GraphKind::Lazy;
        self.graph.memo_states = memo_states;
        self
    }

    /// Entropy-prune the bigram grammar at `threshold` before building the
    /// decoding graph (`≤ 0` keeps every arc).
    pub fn with_grammar_prune(mut self, threshold: f64) -> Self {
        self.graph.grammar_prune = threshold;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The run-identifying knobs, for the `RunReport` `config` section
    /// (ISSUE 4). Not exhaustive — corpus internals stay behind the corpus
    /// seed — but enough to identify and re-launch the run.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("num_words", self.corpus.num_words.into()),
            ("num_classes", self.corpus.inventory.num_classes().into()),
            ("corpus_seed", self.corpus.seed.into()),
            ("hidden_dim", self.hidden_dim.into()),
            ("pnorm_group", self.pnorm_group.into()),
            ("hidden_blocks", self.hidden_blocks.into()),
            ("epochs", self.epochs.into()),
            ("retrain_epochs", self.retrain_epochs.into()),
            ("train_utterances", self.train_utterances.into()),
            ("test_utterances", self.test_utterances.into()),
            ("beam", (self.beam.beam as f64).into()),
            ("acoustic_scale", (self.beam.acoustic_scale as f64).into()),
            ("policy", Json::str(self.policy.label())),
            ("structure", Json::str(self.structure.label())),
            ("precision", Json::str(self.precision.label())),
            ("graph_mode", Json::str(self.graph.mode.label())),
            ("memo_states", self.graph.memo_states.into()),
            ("grammar_prune", self.graph.grammar_prune.into()),
            (
                "prune_levels",
                Json::Arr(self.prune_levels.iter().map(|&s| s.into()).collect()),
            ),
            ("seed", self.seed.into()),
        ])
    }

    fn validate(&self) -> Result<(), Error> {
        let fail = |detail: String| Err(Error::config("PipelineConfig", detail));
        if self.hidden_dim == 0 || !self.hidden_dim.is_multiple_of(self.pnorm_group) {
            return fail(format!(
                "hidden dim {} not a multiple of p-norm group {}",
                self.hidden_dim, self.pnorm_group
            ));
        }
        if self.hidden_blocks == 0 {
            return fail("zero hidden blocks".into());
        }
        if self.train_utterances == 0 || self.test_utterances == 0 {
            return fail("empty train or test set".into());
        }
        if self.prune_levels.iter().any(|&s| !(0.0..1.0).contains(&s)) {
            return fail(format!("prune levels {:?}", self.prune_levels));
        }
        if self.graph.mode == GraphKind::Lazy && self.graph.memo_states == 0 {
            return fail("lazy graph with a zero-state memo budget".into());
        }
        if !self.graph.grammar_prune.is_finite() {
            return fail(format!(
                "grammar prune threshold {}",
                self.graph.grammar_prune
            ));
        }
        // Policy geometry problems (non-power-of-two sets, …) surface here
        // rather than mid-run.
        self.policy.build(&self.beam)?;
        self.structure.validate("PipelineConfig.structure")?;
        Ok(())
    }
}

/// Metrics for one model variant (dense or one pruning level) over the
/// held-out test set — one row of the EXPERIMENTS.md tables.
#[derive(Clone, Debug)]
pub struct LevelReport {
    /// `"dense"` or the sparsity percentage, e.g. `"90%"`.
    pub label: String,
    /// Pruning-policy label this row was decoded under ("beam" / "unfold"
    /// / "nbest").
    pub policy: String,
    /// Sparsity-structure label of the scorer ("unstructured", "b8x8", …;
    /// dense rows report "unstructured" — no structure constraint applies).
    pub structure: String,
    /// Scoring-precision label of the scorer ("f32" / "int8"; ISSUE 10).
    pub precision: String,
    /// Achieved global sparsity of the scorer (0 for dense).
    pub sparsity: f64,
    /// Mean top-1 softmax probability over test frames (Fig. 3's y-axis).
    pub mean_confidence: f64,
    /// Frame-level classification accuracy against the true alignment.
    pub frame_accuracy: f64,
    /// Corpus-level word error rate, percent.
    pub wer_percent: f64,
    /// Mean hypotheses (arcs) explored per frame (Fig. 4's y-axis).
    pub mean_hypotheses: f64,
    /// Nearest-rank percentiles of hypotheses per frame over every decoded
    /// test frame — the tail view the mean hides (ISSUE 4; the paper's
    /// Fig. 7 argues from exactly this distribution).
    pub hyps_p50: f64,
    pub hyps_p95: f64,
    pub hyps_p99: f64,
    /// Per-frame decode latency percentiles, nanoseconds. Nonzero only when
    /// the level was decoded under an active `darkside_trace` recorder (the
    /// untraced hot loop never reads the clock).
    pub frame_ns_p50: f64,
    pub frame_ns_p95: f64,
    pub frame_ns_p99: f64,
    /// Mean best-path cost per utterance.
    pub mean_best_cost: f64,
    /// Total hypothesis-storage evictions across the test set (Fig. 7's
    /// companion count; 0 for storage-free policies).
    pub evictions: u64,
    /// Total overflow/discard events across the test set.
    pub overflows: u64,
    /// Mean policy-storage occupancy per decoded frame.
    pub mean_table_occupancy: f64,
    /// Total hypothesis-storage reads across the test set.
    pub table_reads: u64,
    /// Total hypothesis-storage writes across the test set.
    pub table_writes: u64,
    /// Lazy-graph memo traffic while decoding this level (all zero for
    /// eager graphs, which have no memo — ISSUE 8 observability).
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_evictions: u64,
    /// High-water mark of memo-resident states over the graph's lifetime
    /// so far (0 for eager graphs).
    pub memo_peak_resident: usize,
}

/// The full study: dense row first, then one row per pruning level.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    pub levels: Vec<LevelReport>,
    pub train_frames: usize,
    pub test_frames: usize,
    /// "eager" or "lazy" — which graph representation every level was
    /// decoded against.
    pub graph_kind: String,
    pub graph_states: usize,
    pub graph_arcs: usize,
    pub model_params: usize,
    /// Dense training trace: final-epoch mean loss and frame accuracy.
    pub final_train_loss: f64,
    pub final_train_accuracy: f64,
}

impl PipelineReport {
    pub fn dense(&self) -> &LevelReport {
        &self.levels[0]
    }

    pub fn pruned(&self) -> &[LevelReport] {
        &self.levels[1..]
    }
}

/// One pruning level decoded under every policy in the sweep — a row of
/// the Fig. 7 table with one [`LevelReport`] per column.
#[derive(Clone, Debug)]
pub struct PolicyGridLevel {
    /// `"dense"` or the sparsity percentage, e.g. `"90%"`.
    pub label: String,
    /// Sparsity-structure label of the row's scorer (see
    /// [`LevelReport::structure`]).
    pub structure: String,
    /// Scoring-precision label of the row's scorer ("f32" / "int8").
    pub precision: String,
    /// Achieved global sparsity of the scorer (0 for dense).
    pub sparsity: f64,
    /// One report per swept policy, in [`PolicyGridReport::policies`]
    /// order. All share the same scorer, so confidence/accuracy columns
    /// agree; the search columns are what differ.
    pub per_policy: Vec<LevelReport>,
}

/// Per-level × per-policy study (ISSUE 3): the Fig. 7 reproduction —
/// hypotheses/frame under a bounded N-best table stays roughly flat as
/// pruning inflates the beam search.
#[derive(Clone, Debug)]
pub struct PolicyGridReport {
    /// Column labels, in sweep order ("beam" / "unfold" / "nbest").
    pub policies: Vec<String>,
    /// Dense row first, then one row per configured pruning level.
    pub levels: Vec<PolicyGridLevel>,
}

/// The decoding graph a pipeline built — eager or lazy behind one value
/// that itself implements [`GraphSource`], so every decode call site
/// (`decode_with_policy(&pipeline.graph, …)`) is mode-agnostic. Cloning is
/// cheap (shared `Arc`s); a lazy clone shares its memo and counters.
#[derive(Clone, Debug)]
pub enum DecodingGraph {
    Eager(Arc<Fst>),
    Lazy(Arc<LazyComposeFst>),
}

impl DecodingGraph {
    pub fn kind(&self) -> GraphKind {
        match self {
            DecodingGraph::Eager(_) => GraphKind::Eager,
            DecodingGraph::Lazy(_) => GraphKind::Lazy,
        }
    }

    /// The type-erased, shareable handle a [`crate::ModelBundle`] (and its
    /// serving sessions) holds.
    pub fn source(&self) -> SharedGraph {
        match self {
            DecodingGraph::Eager(g) => g.clone(),
            DecodingGraph::Lazy(g) => g.clone(),
        }
    }

    /// Total arcs (materialized for eager graphs; counted at construction,
    /// never all resident, for lazy ones).
    pub fn num_arcs(&self) -> usize {
        match self {
            DecodingGraph::Eager(g) => g.num_arcs(),
            DecodingGraph::Lazy(g) => g.num_arcs(),
        }
    }

    /// The materialized graph, when this pipeline built one (benches that
    /// walk adjacency slices directly — e.g. a hand-rolled reference
    /// decoder — need the concrete representation).
    pub fn as_eager(&self) -> Option<&Fst> {
        match self {
            DecodingGraph::Eager(g) => Some(g),
            DecodingGraph::Lazy(_) => None,
        }
    }
}

impl GraphSource for DecodingGraph {
    fn start(&self) -> Option<u32> {
        match self {
            DecodingGraph::Eager(g) => g.start(),
            DecodingGraph::Lazy(g) => GraphSource::start(&**g),
        }
    }

    fn num_states(&self) -> usize {
        match self {
            DecodingGraph::Eager(g) => g.num_states(),
            DecodingGraph::Lazy(g) => g.num_states(),
        }
    }

    fn max_ilabel(&self) -> u32 {
        match self {
            DecodingGraph::Eager(g) => g.max_ilabel(),
            DecodingGraph::Lazy(g) => g.max_ilabel(),
        }
    }

    fn is_input_eps_free(&self) -> bool {
        match self {
            DecodingGraph::Eager(g) => g.is_input_eps_free(),
            DecodingGraph::Lazy(g) => g.is_input_eps_free(),
        }
    }

    fn final_weight(&self, state: u32) -> wfst::TropicalWeight {
        match self {
            DecodingGraph::Eager(g) => g.final_weight(state),
            DecodingGraph::Lazy(g) => g.final_weight(state),
        }
    }

    fn expand<'a>(&'a self, state: u32, scratch: &'a mut Vec<wfst::Arc>) -> &'a [wfst::Arc] {
        match self {
            DecodingGraph::Eager(g) => g.arcs(state),
            DecodingGraph::Lazy(g) => g.expand(state, scratch),
        }
    }

    fn memo_stats(&self) -> Option<MemoStats> {
        match self {
            DecodingGraph::Eager(_) => None,
            DecodingGraph::Lazy(g) => g.memo_stats(),
        }
    }
}

/// The end-to-end system. Construction ([`Pipeline::build`]) does the
/// expensive one-time work — corpus generation, decoding-graph composition,
/// dense training — so callers can re-decode or re-prune without repeating
/// it; [`Pipeline::run`] is the one-call entry point the experiment bins
/// use.
#[derive(Debug)]
pub struct Pipeline {
    pub config: PipelineConfig,
    pub corpus: Corpus,
    pub graph: DecodingGraph,
    pub model: Mlp,
    /// Size/perplexity accounting of the grammar prune, when one ran.
    grammar_prune: Option<GrammarPruneReport>,
    test_set: Vec<Utterance>,
    train_frames: usize,
    final_train_loss: f64,
    final_train_accuracy: f64,
    /// Memo of [`Pipeline::dense_hyps_baseline`] probes, keyed by beam
    /// geometry bits (one probe per distinct serving beam).
    dense_hyps_probes: std::sync::Mutex<Vec<((u32, u32), f64)>>,
}

impl Pipeline {
    /// Generate the corpus, compose the decoding graph, and train the dense
    /// acoustic model.
    pub fn build(config: PipelineConfig) -> Result<Self, Error> {
        config.validate()?;
        let corpus = {
            let _s = trace::span!("corpus");
            Corpus::generate(config.corpus.clone())?
        };
        let (graph, grammar_prune) = {
            let _s = trace::span!("graph");
            // The decode graph may see a pruned grammar; sampling keeps the
            // true one, so the task distribution never changes.
            let mut grammar_prune = None;
            let decode_grammar = if config.graph.grammar_prune > 0.0 {
                let (pruned, report) = prune_grammar(&corpus.grammar, config.graph.grammar_prune)?;
                grammar_prune = Some(report);
                pruned
            } else {
                corpus.grammar.clone()
            };
            let graph = match config.graph.mode {
                GraphKind::Eager => DecodingGraph::Eager(Arc::new(build_decoding_graph(
                    &corpus.config.inventory,
                    &corpus.lexicon,
                    &decode_grammar,
                )?)),
                GraphKind::Lazy => DecodingGraph::Lazy(Arc::new(build_lazy_decoding_graph(
                    &corpus.config.inventory,
                    &corpus.lexicon,
                    &decode_grammar,
                    config.graph.memo_states,
                )?)),
            };
            (graph, grammar_prune)
        };

        let mut rng = Rng::new(config.seed);
        let train = corpus.sample_set(config.train_utterances, &mut rng);
        let test_set = corpus.sample_set(config.test_utterances, &mut rng);
        let (features, labels) = training_set(&train);

        let mut model = Mlp::kaldi_style(
            corpus.config.spliced_dim(),
            config.hidden_dim,
            config.pnorm_group,
            config.hidden_blocks,
            corpus.config.inventory.num_classes(),
            &mut rng,
        );
        let mut trainer = Trainer::new(config.sgd, &model);
        let mut last = evaluate(&model, &features, &labels);
        {
            let _train_span = trace::span!("train");
            for _ in 0..config.epochs {
                let _epoch = trace::span!("train.epoch");
                last = trainer.train_epoch(&mut model, &features, &labels, &mut rng, |_| {});
                trainer.end_epoch();
            }
        }
        Ok(Self {
            config,
            corpus,
            graph,
            model,
            grammar_prune,
            test_set,
            train_frames: features.rows(),
            final_train_loss: last.mean_loss as f64,
            final_train_accuracy: last.accuracy as f64,
            dense_hyps_probes: std::sync::Mutex::new(Vec::new()),
        })
    }

    /// Mean hypotheses/frame of the **dense** model decoding under `beam`
    /// with the classic beam policy — the workload baseline the ISSUE 9
    /// per-session dark-side detector compares live sessions against (the
    /// paper's hypothesis blowup is *relative to dense*). Probed over a
    /// small fixed slice of the held-out set, frame-weighted, and memoized
    /// per beam geometry so repeated [`Pipeline::servable`] exports pay
    /// once. Returns 0 when the pipeline has no test utterances (the
    /// detector treats a non-positive baseline as "no workload check").
    pub fn dense_hyps_baseline(&self, beam: &BeamConfig) -> Result<f64, Error> {
        const PROBE_UTTERANCES: usize = 4;
        let key = (beam.beam.to_bits(), beam.acoustic_scale.to_bits());
        {
            let probes = self
                .dense_hyps_probes
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if let Some((_, v)) = probes.iter().find(|(k, _)| *k == key) {
                return Ok(*v);
            }
        }
        let mut frames = 0usize;
        let mut hyps = 0f64;
        for utt in self.test_set.iter().take(PROBE_UTTERANCES) {
            let scores = FrameScorer::score_frames(&self.model, &utt.frames);
            let costs = acoustic_costs(&scores, beam);
            let mut policy = PolicyKind::Beam.build(beam)?;
            let result = decode_with_policy(&self.graph, &costs, policy.as_mut())?;
            for n in &result.stats.active_tokens {
                hyps += *n as f64;
            }
            frames += result.stats.active_tokens.len();
        }
        let baseline = if frames == 0 {
            0.0
        } else {
            hyps / frames as f64
        };
        let mut probes = self
            .dense_hyps_probes
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if !probes.iter().any(|(k, _)| *k == key) {
            probes.push((key, baseline));
        }
        Ok(baseline)
    }

    /// The held-out test set every
    /// [`Pipeline::evaluate_scorer_with_policy`] call decodes (fixed at
    /// build time, so eager and lazy pipelines built from the same config
    /// score identical utterances).
    pub fn test_set(&self) -> &[Utterance] {
        &self.test_set
    }

    /// Size/perplexity accounting of the grammar prune, when
    /// [`GraphConfig::grammar_prune`] was enabled.
    pub fn grammar_prune_report(&self) -> Option<&GrammarPruneReport> {
        self.grammar_prune.as_ref()
    }

    /// Decode the held-out set through `scorer` under `kind` and report it
    /// as one row labelled `label` / `structure` / `precision`. Every score
    /// — dense, pruned or quantized — flows through this one path, so rows
    /// differ only in the [`FrameScorer`] behind them. A fresh policy value
    /// is built per utterance (policies carry per-utterance storage state
    /// and traffic counters).
    pub fn evaluate_scorer_with_policy(
        &self,
        label: &str,
        structure: PruneStructure,
        precision: Precision,
        sparsity: f64,
        scorer: &dyn FrameScorer,
        kind: &PolicyKind,
    ) -> Result<LevelReport, Error> {
        // Stage span + per-level metric names (ISSUE 4). When tracing is
        // off the span is inert and the names are never formatted.
        let traced = trace::active();
        let _decode_span = trace::span(format!("decode.{label}"));
        let (hyps_metric, ns_metric) = if traced {
            (
                format!("decode.{label}.{}.hyps", kind.label()),
                format!("decode.{label}.{}.frame_ns", kind.label()),
            )
        } else {
            (String::new(), String::new())
        };
        let mut confidence = 0.0f64;
        let mut correct = 0usize;
        let mut frames = 0usize;
        let mut wer = WerStats::default();
        let mut hypotheses = 0.0f64;
        let mut best_cost = 0.0f64;
        let mut evictions = 0u64;
        let mut overflows = 0u64;
        let mut occupancy = 0usize;
        let mut table_reads = 0u64;
        let mut table_writes = 0u64;
        let mut arcs_per_frame: Vec<f64> = Vec::new();
        let mut frame_ns: Vec<f64> = Vec::new();
        // Memo counters are cumulative over the graph's lifetime; this
        // level's traffic is the before/after delta (zero for eager).
        let memo_before = self.graph.memo_stats().unwrap_or_default();
        for utt in &self.test_set {
            let scores = scorer.score_frames(&utt.frames);
            confidence += scores.mean_confidence() as f64 * utt.frames.len() as f64;
            for (i, &label) in utt.labels.iter().enumerate() {
                if scores.top1(i).0 == label as usize {
                    correct += 1;
                }
            }
            frames += utt.frames.len();
            let costs = acoustic_costs(&scores, &self.config.beam);
            let mut policy = kind.build(&self.config.beam)?;
            let result = decode_with_policy(&self.graph, &costs, policy.as_mut())?;
            wer.accumulate(&decoder::word_errors(&utt.words, &result.words));
            hypotheses += result.stats.mean_hypotheses();
            best_cost += result.cost as f64;
            evictions += result.stats.evictions;
            overflows += result.stats.overflows;
            occupancy += result.stats.table_occupancy.iter().sum::<usize>();
            table_reads += result.stats.table_reads;
            table_writes += result.stats.table_writes;
            arcs_per_frame.extend(result.stats.arcs_expanded.iter().map(|&a| a as f64));
            if traced {
                for &a in &result.stats.arcs_expanded {
                    trace::sample(&hyps_metric, a as f64);
                }
                for &ns in &result.stats.frame_ns {
                    trace::sample(&ns_metric, ns as f64);
                    frame_ns.push(ns as f64);
                }
            }
        }
        let memo = self.graph.memo_stats();
        let memo_after = memo.unwrap_or_default();
        if traced && memo.is_some() {
            // Surface the lazy memo in the RunReport (ISSUE 8 satellite):
            // counter deltas for this level plus the live resident gauge.
            trace::counter("wfst.memo.hits", memo_after.hits - memo_before.hits);
            trace::counter("wfst.memo.misses", memo_after.misses - memo_before.misses);
            trace::counter(
                "wfst.memo.evictions",
                memo_after.evictions - memo_before.evictions,
            );
            trace::gauge("wfst.memo.resident_states", memo_after.resident as f64);
        }
        let utts = self.test_set.len() as f64;
        let pct = trace::exact_percentile;
        Ok(LevelReport {
            label: label.to_string(),
            policy: kind.label().to_string(),
            structure: structure.label(),
            precision: precision.label().to_string(),
            sparsity,
            mean_confidence: confidence / frames as f64,
            frame_accuracy: correct as f64 / frames as f64,
            wer_percent: wer.percent(),
            mean_hypotheses: hypotheses / utts,
            hyps_p50: pct(&arcs_per_frame, 0.50),
            hyps_p95: pct(&arcs_per_frame, 0.95),
            hyps_p99: pct(&arcs_per_frame, 0.99),
            frame_ns_p50: pct(&frame_ns, 0.50),
            frame_ns_p95: pct(&frame_ns, 0.95),
            frame_ns_p99: pct(&frame_ns, 0.99),
            mean_best_cost: best_cost / utts,
            evictions,
            overflows,
            mean_table_occupancy: occupancy as f64 / frames as f64,
            table_reads,
            table_writes,
            memo_hits: memo_after.hits - memo_before.hits,
            memo_misses: memo_after.misses - memo_before.misses,
            memo_evictions: memo_after.evictions - memo_before.evictions,
            memo_peak_resident: memo_after.peak_resident,
        })
    }

    /// Step one of the scorer factory: the trained dense model pruned to
    /// `target` global sparsity under `structure`, then masked-retrained for
    /// `retrain_epochs` (zero ships the raw prune —
    /// [`crate::ServableSpec::with_retrain`]). A zero target is the
    /// identity: the dense model itself, unmasked. Block structures prune
    /// whole serving tiles, and retraining re-projects every update onto
    /// the pruned support, so retrained weights stay tile-aligned.
    pub(crate) fn mask(
        &self,
        target: f64,
        structure: PruneStructure,
        retrain_epochs: usize,
    ) -> MaskedModel<'_> {
        if target == 0.0 {
            return MaskedModel {
                mlp: Cow::Borrowed(&self.model),
                structure: PruneStructure::Unstructured,
                prune: None,
            };
        }
        let mut model = self.model.clone();
        let result = {
            let _s = trace::span!("prune");
            let result = prune_mlp_to_sparsity(&model, target, 0.005, structure);
            result.apply(&mut model);
            result
        };
        if retrain_epochs > 0 {
            let _retrain_span = trace::span!("retrain");
            let (features, labels) = {
                // Retrain on a fresh sample of the same task (the paper
                // retrains on the training distribution).
                let mut rng = Rng::new(self.config.seed ^ 0x9E37);
                let train = self
                    .corpus
                    .sample_set(self.config.train_utterances, &mut rng);
                training_set(&train)
            };
            let mut rng = Rng::new(self.config.seed ^ 0x517A);
            // Retrain gently: a fraction of the initial rate recovers WER on
            // the surviving support without re-solving the task from scratch
            // (which would also restore the confidence the paper shows
            // staying collapsed).
            let sgd = SgdConfig {
                learning_rate: self.config.sgd.learning_rate * 0.25,
                ..self.config.sgd
            };
            let mut trainer = Trainer::new(sgd, &model);
            for _ in 0..retrain_epochs {
                trainer.train_epoch(&mut model, &features, &labels, &mut rng, |m| {
                    result.apply(m)
                });
                trainer.end_epoch();
            }
        }
        MaskedModel {
            mlp: Cow::Owned(model),
            structure,
            prune: Some(result),
        }
    }

    /// Step two of the scorer factory: serve `masked` at `precision`. F32
    /// serves the dense [`Mlp`] or a [`PrunedMlp`] (CSR, or BSR for block
    /// structures). Int8 calibrates activation scales on the masked model —
    /// the activations int8 serving will actually see — then stores every
    /// affine layer as quantized BSR (8×8 tile structure) or packed dense
    /// i8 (everything else).
    pub(crate) fn export(
        &self,
        masked: &MaskedModel<'_>,
        precision: Precision,
    ) -> Result<Arc<dyn FrameScorer + Send + Sync>, Error> {
        let mlp = masked.mlp.as_ref();
        Ok(match (precision, &masked.prune) {
            (Precision::F32, None) => Arc::new(mlp.clone()),
            (Precision::F32, Some(prune)) => {
                Arc::new(PrunedMlp::from_masked(mlp, &prune.masks, masked.structure))
            }
            (Precision::Int8, _) => {
                let _s = trace::span!("quantize");
                let calib = calibrate_mlp(mlp, &self.calibration_features());
                Arc::new(QuantizedMlp::quantize(mlp, &calib, masked.structure)?)
            }
        })
    }

    /// Features for activation-scale calibration (ISSUE 10): a small fixed
    /// seeded sample of the training distribution, independent of the
    /// train/test draws so quantization never peeks at held-out data. Same
    /// config ⇒ bit-identical features ⇒ bit-identical scales.
    fn calibration_features(&self) -> Matrix {
        const CALIB_UTTERANCES: usize = 8;
        let mut rng = Rng::new(self.config.seed ^ 0xCA1B);
        let sample = self
            .corpus
            .sample_set(CALIB_UTTERANCES.min(self.config.train_utterances), &mut rng);
        let (features, _) = training_set(&sample);
        features
    }

    /// The one-call study: [`Pipeline::run_policy_grid`] under the
    /// configured policy alone, flattened to one row per scorer.
    pub fn run(&self) -> Result<PipelineReport, Error> {
        let grid = self.run_policy_grid(&[self.config.policy])?;
        Ok(PipelineReport {
            levels: grid.levels.into_iter().flat_map(|l| l.per_policy).collect(),
            train_frames: self.train_frames,
            test_frames: self.test_set.iter().map(|u| u.frames.len()).sum(),
            graph_kind: self.graph.kind().label().to_string(),
            graph_states: self.graph.num_states(),
            graph_arcs: self.graph.num_arcs(),
            model_params: self.model.num_params(),
            final_train_loss: self.final_train_loss,
            final_train_accuracy: self.final_train_accuracy,
        })
    }

    /// The traced study (ISSUE 4 tentpole): build + run the whole pipeline
    /// with `recorder` installed, so every stage lands in a span ("corpus",
    /// "graph", "train" / "train.epoch", "prune", "retrain",
    /// "decode.{label}"), the decoder emits per-frame latency/effort
    /// histograms, and the pruning policies export their storage/energy
    /// counters. Returns the built pipeline, the usual [`PipelineReport`],
    /// and the assembled [`trace::RunReport`] (name + seed + config + the
    /// recorder's aggregated [`trace::MetricsSnapshot`]).
    ///
    /// Pass a [`trace::MemoryRecorder`] for the report alone or a
    /// [`trace::JsonlRecorder`] to also stream every event to disk; with a
    /// [`trace::NullRecorder`] this is `build` + `run` with an empty
    /// metrics section.
    pub fn run_traced(
        config: PipelineConfig,
        name: &str,
        recorder: Rc<dyn trace::Recorder>,
    ) -> Result<(Self, PipelineReport, trace::RunReport), Error> {
        let seed = config.seed;
        let config_json = config.to_json();
        let (pipeline, report) = trace::with_recorder(recorder.clone(), || {
            let pipeline = Self::build(config)?;
            let report = pipeline.run()?;
            Ok::<_, Error>((pipeline, report))
        })?;
        let metrics = recorder.snapshot().unwrap_or_default();
        let run = trace::RunReport::new(name, seed, config_json, metrics);
        Ok((pipeline, report, run))
    }

    /// The study: the dense row, then every configured pruning level, each
    /// scorer decoded under every policy in `policies` (so the columns
    /// differ only in hypothesis admission, never in the acoustic model).
    /// Each level is pruned and retrained once per structure — unstructured,
    /// plus [`PipelineConfig::structure`] when that is a block structure,
    /// giving the equal-sparsity structured-vs-unstructured comparison.
    /// With [`Precision::Int8`] configured, the dense model and each level's
    /// configured-structure model are also exported int8 from the same
    /// masked weights: the equal-sparsity precision ablation.
    pub fn run_policy_grid(&self, policies: &[PolicyKind]) -> Result<PolicyGridReport, Error> {
        let unstructured = PruneStructure::Unstructured;
        let int8 = self.config.precision == Precision::Int8;
        let targets = std::iter::once(0.0).chain(self.config.prune_levels.iter().copied());
        let mut levels = Vec::new();
        for (rung, target) in targets.enumerate() {
            let label = match rung {
                0 => "dense".to_string(),
                _ => format!("{:.0}%", target * 100.0),
            };
            let mut structures = vec![unstructured];
            if rung > 0 && self.config.structure != unstructured {
                structures.push(self.config.structure);
            }
            for (i, &structure) in structures.iter().enumerate() {
                let masked = self.mask(target, structure, self.config.retrain_epochs);
                levels.push(self.grid_level(&label, &masked, Precision::F32, policies)?);
                if int8 && i + 1 == structures.len() {
                    levels.push(self.grid_level(&label, &masked, Precision::Int8, policies)?);
                }
            }
        }
        Ok(PolicyGridReport {
            policies: policies.iter().map(|p| p.label().to_string()).collect(),
            levels,
        })
    }

    fn grid_level(
        &self,
        label: &str,
        masked: &MaskedModel<'_>,
        precision: Precision,
        policies: &[PolicyKind],
    ) -> Result<PolicyGridLevel, Error> {
        let scorer = self.export(masked, precision)?;
        let sparsity = masked.sparsity();
        let per_policy = policies
            .iter()
            .map(|kind| {
                self.evaluate_scorer_with_policy(
                    label,
                    masked.structure,
                    precision,
                    sparsity,
                    scorer.as_ref(),
                    kind,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PolicyGridLevel {
            label: label.to_string(),
            structure: masked.structure.label(),
            precision: precision.label().to_string(),
            sparsity,
            per_policy,
        })
    }
}

/// A scorer's weights between the factory's two steps
/// ([`Pipeline::mask`], then [`Pipeline::export`]): the dense model, or a
/// pruned and masked-retrained copy together with the prune that made it.
pub(crate) struct MaskedModel<'a> {
    mlp: Cow<'a, Mlp>,
    structure: PruneStructure,
    prune: Option<ModelPruneResult>,
}

impl MaskedModel<'_> {
    /// Achieved global sparsity (0 for the dense model).
    pub(crate) fn sparsity(&self) -> f64 {
        self.prune.as_ref().map_or(0.0, |p| p.sparsity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = PipelineConfig::smoke().with_model_shape(65, 4, 2);
        assert!(matches!(
            Pipeline::build(bad).unwrap_err(),
            Error::Config { .. }
        ));
        let bad = PipelineConfig::smoke().with_prune_levels(vec![1.5]);
        assert!(matches!(
            Pipeline::build(bad).unwrap_err(),
            Error::Config { .. }
        ));
    }

    #[test]
    fn structured_rows_ride_along_when_configured() {
        // Shape-only check (training quality is irrelevant): a block
        // structure adds one BSR-served row per pruning level, at the same
        // label, distinguished by the structure field.
        let config = PipelineConfig::smoke()
            .with_training(1, 0)
            .with_structure(PruneStructure::tile());
        let pipeline = Pipeline::build(config).unwrap();
        let report = pipeline.run().unwrap();
        assert_eq!(report.levels.len(), 3);
        assert_eq!(report.levels[0].structure, "unstructured");
        assert_eq!(report.levels[1].structure, "unstructured");
        assert_eq!(report.levels[2].structure, "b8x8");
        assert_eq!(report.levels[1].label, report.levels[2].label);
        // Equal-sparsity comparison: the structured row lands near the same
        // target (block granularity costs a little precision).
        assert!((report.levels[2].sparsity - 0.9).abs() < 0.05);
        let grid = pipeline.run_policy_grid(&[PolicyKind::Beam]).unwrap();
        assert_eq!(grid.levels.len(), 3);
        assert_eq!(grid.levels[2].structure, "b8x8");
        assert_eq!(grid.levels[2].per_policy[0].structure, "b8x8");
    }

    #[test]
    fn quantized_rows_ride_along_when_configured() {
        // Shape-only check: Int8 precision adds a quantized dense row and
        // one quantized row per pruning level, on the configured structure,
        // distinguished by the precision field (ISSUE 10).
        let config = PipelineConfig::smoke()
            .with_training(1, 0)
            .with_structure(PruneStructure::tile())
            .with_precision(Precision::Int8);
        let pipeline = Pipeline::build(config).unwrap();
        let report = pipeline.run().unwrap();
        // dense f32, dense int8, 90% unstructured f32, 90% b8x8 f32,
        // 90% b8x8 int8.
        assert_eq!(report.levels.len(), 5);
        let precisions: Vec<&str> = report.levels.iter().map(|l| l.precision.as_str()).collect();
        assert_eq!(precisions, ["f32", "int8", "f32", "f32", "int8"]);
        assert_eq!(report.levels[1].label, "dense");
        assert_eq!(report.levels[4].structure, "b8x8");
        assert_eq!(report.levels[4].label, report.levels[3].label);
        // Equal-sparsity ablation: the int8 row matches the f32 b8x8 row's
        // achieved sparsity exactly (same masked weights).
        assert_eq!(report.levels[4].sparsity, report.levels[3].sparsity);
        let grid = pipeline.run_policy_grid(&[PolicyKind::Beam]).unwrap();
        assert_eq!(grid.levels.len(), 5);
        assert_eq!(grid.levels[1].precision, "int8");
        assert_eq!(grid.levels[4].precision, "int8");
        assert_eq!(grid.levels[4].per_policy[0].precision, "int8");
    }

    #[test]
    fn smoke_pipeline_runs_end_to_end() {
        let pipeline = Pipeline::build(PipelineConfig::smoke()).unwrap();
        let report = pipeline.run().unwrap();
        assert_eq!(report.levels.len(), 2);
        let dense = report.dense();
        let pruned = &report.pruned()[0];
        assert_eq!(dense.label, "dense");
        assert_eq!(pruned.label, "90%");
        assert!((pruned.sparsity - 0.9).abs() < 0.01);
        // Metrics are in range and finite.
        for level in &report.levels {
            assert!((0.0..=1.0).contains(&level.mean_confidence), "{level:?}");
            assert!((0.0..=1.0).contains(&level.frame_accuracy), "{level:?}");
            assert!(level.wer_percent.is_finite(), "{level:?}");
            assert!(level.mean_hypotheses > 0.0, "{level:?}");
        }
        // The paper's core observation, visible even at smoke scale:
        // pruning without full recovery drops confidence.
        assert!(
            pruned.mean_confidence < dense.mean_confidence,
            "confidence did not drop: dense {} vs 90% {}",
            dense.mean_confidence,
            pruned.mean_confidence
        );
        assert!(report.train_frames > 0 && report.test_frames > 0);
        assert!(report.graph_states > 0 && report.graph_arcs > 0);
    }
}
