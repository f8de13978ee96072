//! Schema-shaped validation of the ISSUE 4 tentpole: a traced
//! `Pipeline::run` under a `JsonlRecorder` must produce a `RunReport`
//! containing spans for every stage (corpus, graph, train, prune, retrain,
//! decode-per-level), per-frame decode histograms, and pruning-policy
//! metrics — plus an event stream on disk.

use darkside_core::trace::{self, Json, JsonlRecorder, MemoryRecorder};
use darkside_core::viterbi_accel::NBestTableConfig;
use darkside_core::{
    Pipeline, PipelineConfig, PolicyKind, Precision, PruneStructure, ServableSpec,
};
use std::rc::Rc;

/// A deliberately tiny traced run: the smoke corpus shrunk further, one
/// retrain epoch (so the "retrain" span exists) and the N-best policy (so
/// policy/energy metrics exist).
fn tiny_traced_config() -> PipelineConfig {
    PipelineConfig::smoke()
        .with_training(2, 1)
        .with_corpus_sizes(6, 3)
        .with_policy(PolicyKind::LooseNBest(NBestTableConfig::paper()))
        .with_prune_levels(vec![0.8])
}

#[test]
fn traced_run_produces_a_schema_shaped_run_report() {
    let dir = std::env::temp_dir().join("darkside_run_report_test");
    std::fs::create_dir_all(&dir).unwrap();
    let events_path = dir.join("events.jsonl");
    let report_path = dir.join("run_report.json");

    let recorder = Rc::new(JsonlRecorder::create(&events_path).unwrap());
    let (_pipeline, report, run) =
        Pipeline::run_traced(tiny_traced_config(), "run_report_test", recorder.clone()).unwrap();
    recorder.finish().unwrap();
    assert!(
        !trace::active(),
        "recorder must be uninstalled after the run"
    );

    // Identity carried through.
    assert_eq!(run.name, "run_report_test");
    assert_eq!(run.seed, 0x5310);

    // Spans for every stage, with sane counts: one corpus/graph/train,
    // one prune+retrain per level, one decode per level (dense + 80%).
    for stage in ["corpus", "graph", "train", "prune", "retrain"] {
        assert_eq!(
            run.metrics.spans[stage].count, 1,
            "stage span {stage:?} missing or repeated"
        );
    }
    assert_eq!(run.metrics.spans["train.epoch"].count, 2);
    assert_eq!(run.metrics.spans["decode.dense"].count, 1);
    assert_eq!(run.metrics.spans["decode.80%"].count, 1);
    // Span times nest: epochs fit inside "train".
    assert!(run.metrics.spans["train"].total_ns >= run.metrics.spans["train.epoch"].total_ns);

    // Per-frame decode histograms: global and per-level, one sample per
    // decoded frame.
    let frames = run.metrics.counters["decode.frames"];
    assert!(frames > 0);
    assert_eq!(run.histogram("decode.frame.ns").unwrap().count, frames);
    assert_eq!(run.histogram("decode.frame.arcs").unwrap().count, frames);
    for level in ["dense", "80%"] {
        let h = run
            .histogram(&format!("decode.{level}.nbest.hyps"))
            .unwrap_or_else(|| panic!("missing per-level hypotheses histogram for {level}"));
        assert!(h.count > 0 && h.p50 <= h.p95 && h.p95 <= h.p99);
        let ns = run
            .histogram(&format!("decode.{level}.nbest.frame_ns"))
            .unwrap();
        assert_eq!(ns.count, h.count);
    }

    // Policy storage + energy metrics from the N-best table.
    assert!(run.metrics.counters.contains_key("policy.nbest.evictions"));
    assert!(run.metrics.counters["energy.nbest_table.reads"] > 0);
    assert!(run.metrics.counters["energy.nbest_table.writes"] > 0);
    assert!(run.histogram("energy.nbest_table.pj").unwrap().count > 0);
    assert!(run.histogram("policy.nbest.occupancy").unwrap().count >= frames);

    // Kernel-timing hooks fired.
    assert!(run.metrics.counters["nn.gemm.calls"] > 0);
    assert!(run.metrics.counters["nn.gemm.flops"] > 0);
    assert!(run.metrics.counters["nn.score_frames.frames"] > 0);
    assert!(run.histogram("nn.score_frames.ns").unwrap().count > 0);

    // No unbalanced span closes under the RAII guards.
    assert!(!run.metrics.counters.contains_key("trace.unbalanced_closes"));

    // The report's LevelReports carry the latency percentiles (tracing was
    // active, so they must be populated and ordered).
    for level in &report.levels {
        assert!(level.hyps_p50 > 0.0 && level.hyps_p50 <= level.hyps_p95);
        assert!(level.hyps_p95 <= level.hyps_p99);
        assert!(level.frame_ns_p50 > 0.0 && level.frame_ns_p50 <= level.frame_ns_p99);
    }

    // Rendered JSON is schema-shaped: every top-level section present.
    run.write_json(&report_path).unwrap();
    let text = std::fs::read_to_string(&report_path).unwrap();
    for key in [
        "\"schema_version\":1",
        "\"name\":\"run_report_test\"",
        "\"config\":{",
        "\"spans\":{",
        "\"counters\":{",
        "\"gauges\":{",
        "\"histograms\":{",
        "\"decode.frame.ns\":{\"count\":",
        "\"policy\":\"nbest\"",
    ] {
        assert!(text.contains(key), "missing {key}");
    }

    // And the config section round-trips the knobs we set.
    if let Json::Obj(fields) = run.config.clone() {
        let get = |k: &str| {
            fields
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get("retrain_epochs"), Some(Json::U64(1)));
        assert_eq!(get("policy"), Some(Json::str("nbest")));
    } else {
        panic!("config is not an object");
    }

    // The JSONL event stream exists and starts with the corpus span.
    let events = std::fs::read_to_string(&events_path).unwrap();
    let first = events.lines().next().unwrap();
    assert!(
        first.contains("\"ev\":\"span_enter\"") && first.contains("\"name\":\"corpus\""),
        "unexpected first event: {first}"
    );
    assert!(events.lines().count() as u64 > frames);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn untraced_runs_leave_latency_percentiles_at_zero() {
    // Without a recorder the decoder must never touch the clock: frame_ns
    // stays empty and the report's latency percentiles are zero, while the
    // hypotheses percentiles (plain counters) are still populated.
    let pipeline = Pipeline::build(tiny_traced_config()).unwrap();
    let report = pipeline.run().unwrap();
    for level in &report.levels {
        assert!(level.hyps_p50 > 0.0);
        assert_eq!(level.frame_ns_p50, 0.0);
        assert_eq!(level.frame_ns_p99, 0.0);
    }
}

#[test]
fn run_traced_with_a_memory_recorder_matches_the_untraced_report() {
    // Tracing must be observationally neutral: the same config produces
    // identical WER/confidence/search-effort numbers with and without a
    // recorder installed.
    let untraced = Pipeline::build(tiny_traced_config())
        .unwrap()
        .run()
        .unwrap();
    let (_p, traced, _run) = Pipeline::run_traced(
        tiny_traced_config(),
        "neutrality",
        Rc::new(MemoryRecorder::new()),
    )
    .unwrap();
    assert_eq!(traced.levels.len(), untraced.levels.len());
    for (a, b) in traced.levels.iter().zip(&untraced.levels) {
        assert_eq!(a.wer_percent, b.wer_percent);
        assert_eq!(a.mean_confidence, b.mean_confidence);
        assert_eq!(a.mean_hypotheses, b.mean_hypotheses);
        assert_eq!(a.hyps_p99, b.hyps_p99);
        assert_eq!(a.evictions, b.evictions);
        assert_eq!(a.table_reads, b.table_reads);
    }
}

#[test]
fn the_study_prunes_once_per_level_and_structure() {
    // One level, a tile structure and int8 rows: the unstructured and the
    // tiled f32 rows each need one prune + retrain, and the int8 row
    // quantizes the tiled row's masked model instead of pruning again.
    let config = tiny_traced_config()
        .with_structure(PruneStructure::tile())
        .with_precision(Precision::Int8);
    let recorder = Rc::new(MemoryRecorder::new());
    let (pipeline, report, run) = Pipeline::run_traced(config, "prune_once", recorder).unwrap();
    assert_eq!(run.metrics.spans["prune"].count, 2);
    assert_eq!(run.metrics.spans["retrain"].count, 2);

    // servable() builds through the same factory: its int8 export of the
    // level lands on exactly the study's int8 row sparsity.
    let int8_row = report
        .levels
        .iter()
        .find(|l| l.label == "80%" && l.precision == "int8")
        .unwrap();
    let bundle = pipeline
        .servable(ServableSpec::pruned(0.8).with_precision(Precision::Int8))
        .unwrap();
    assert_eq!(bundle.sparsity, int8_row.sparsity);
}
