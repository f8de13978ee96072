//! Shared table formatting, shape-target checking, and `--json` report
//! writing for the `darkside-bench` binaries.

use darkside_core::trace::Json;
use darkside_core::{LevelReport, PipelineReport, PolicyGridReport};
use std::io::Write;
use std::path::Path;

/// Print the run provenance line every experiment starts with.
pub fn print_run_header(name: &str, report: &PipelineReport) {
    println!(
        "{name}: {} params, {} train frames, {} test frames, graph {} states / {} arcs",
        report.model_params,
        report.train_frames,
        report.test_frames,
        report.graph_states,
        report.graph_arcs
    );
    println!(
        "train: final loss {:.3}, frame accuracy {:.3}",
        report.final_train_loss, report.final_train_accuracy
    );
}

/// Row tag for tables whose levels can repeat at the same pruning target
/// with different sparsity structures or scoring precisions: "90%" for
/// unstructured f32 rows, "90%+b8x8" for the structured re-run at the same
/// target, "90%+b8x8+int8" for its quantized ablation (ISSUE 10).
pub fn level_tag(label: &str, structure: &str, precision: &str) -> String {
    let mut tag = if structure == "unstructured" {
        label.to_string()
    } else {
        format!("{label}+{structure}")
    };
    if precision != "f32" {
        tag.push('+');
        tag.push_str(precision);
    }
    tag
}

/// Print the per-level metric table (markdown-ish, pasteable into
/// EXPERIMENTS.md).
pub fn print_level_table(report: &PipelineReport) {
    println!(
        "| {:<9} | {:>8} | {:>10} | {:>9} | {:>7} | {:>10} | {:>9} |",
        "level", "sparsity", "confidence", "frame-acc", "WER%", "hyps/frame", "best-cost"
    );
    println!(
        "|-----------|----------|------------|-----------|---------|------------|-----------|"
    );
    for level in &report.levels {
        println!(
            "| {:<9} | {:>7.1}% | {:>10.4} | {:>9.4} | {:>7.2} | {:>10.1} | {:>9.1} |",
            level_tag(&level.label, &level.structure, &level.precision),
            level.sparsity * 100.0,
            level.mean_confidence,
            level.frame_accuracy,
            level.wer_percent,
            level.mean_hypotheses,
            level.mean_best_cost
        );
    }
}

/// Print the per-level × per-policy search-effort table (`exp_fig7`;
/// markdown-ish, pasteable into EXPERIMENTS.md). The p50/p95/p99 columns
/// are the per-frame hypotheses percentiles (ISSUE 4) — the tail the
/// paper's Fig. 7 clamping argument is actually about.
pub fn print_policy_grid(report: &PolicyGridReport) {
    println!(
        "| {:<9} | {:<7} | {:>10} | {:>8} | {:>8} | {:>8} | {:>7} | {:>9} | {:>9} | {:>9} |",
        "level",
        "policy",
        "hyps/frame",
        "hyps-p50",
        "hyps-p95",
        "hyps-p99",
        "WER%",
        "evictions",
        "overflows",
        "occupancy"
    );
    println!(
        "|-----------|---------|------------|----------|----------|----------|---------|-----------|-----------|-----------|"
    );
    for level in &report.levels {
        for cell in &level.per_policy {
            println!(
                "| {:<9} | {:<7} | {:>10.1} | {:>8.0} | {:>8.0} | {:>8.0} | {:>7.2} | {:>9} | {:>9} | {:>9.1} |",
                level_tag(&level.label, &level.structure, &level.precision),
                cell.policy,
                cell.mean_hypotheses,
                cell.hyps_p50,
                cell.hyps_p95,
                cell.hyps_p99,
                cell.wer_percent,
                cell.evictions,
                cell.overflows,
                cell.mean_table_occupancy
            );
        }
    }
}

/// Print the per-level × per-policy frame-latency table. Only meaningful
/// when the grid ran under an installed recorder (`trace::with_recorder`);
/// untraced runs leave every percentile at zero and callers should skip
/// this table.
pub fn print_policy_latency(report: &PolicyGridReport) {
    println!(
        "| {:<9} | {:<7} | {:>11} | {:>11} | {:>11} |",
        "level", "policy", "frame-p50ns", "frame-p95ns", "frame-p99ns"
    );
    println!("|-----------|---------|-------------|-------------|-------------|");
    for level in &report.levels {
        for cell in &level.per_policy {
            println!(
                "| {:<9} | {:<7} | {:>11.0} | {:>11.0} | {:>11.0} |",
                level_tag(&level.label, &level.structure, &level.precision),
                cell.policy,
                cell.frame_ns_p50,
                cell.frame_ns_p95,
                cell.frame_ns_p99
            );
        }
    }
}

/// Record one shape-target check; returns `ok` so callers can fold.
pub fn check(name: &str, ok: bool, detail: String) -> bool {
    println!("{} {name}: {detail}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// One [`LevelReport`] as JSON (every table column plus the ISSUE 4
/// percentile fields).
pub fn level_json(level: &LevelReport) -> Json {
    Json::obj(vec![
        ("label", Json::str(&level.label)),
        ("policy", Json::str(&level.policy)),
        ("structure", Json::str(&level.structure)),
        ("precision", Json::str(&level.precision)),
        ("sparsity", level.sparsity.into()),
        ("mean_confidence", level.mean_confidence.into()),
        ("frame_accuracy", level.frame_accuracy.into()),
        ("wer_percent", level.wer_percent.into()),
        ("mean_hypotheses", level.mean_hypotheses.into()),
        ("hyps_p50", level.hyps_p50.into()),
        ("hyps_p95", level.hyps_p95.into()),
        ("hyps_p99", level.hyps_p99.into()),
        ("frame_ns_p50", level.frame_ns_p50.into()),
        ("frame_ns_p95", level.frame_ns_p95.into()),
        ("frame_ns_p99", level.frame_ns_p99.into()),
        ("mean_best_cost", level.mean_best_cost.into()),
        ("evictions", level.evictions.into()),
        ("overflows", level.overflows.into()),
        ("mean_table_occupancy", level.mean_table_occupancy.into()),
        ("table_reads", level.table_reads.into()),
        ("table_writes", level.table_writes.into()),
        ("memo_hits", level.memo_hits.into()),
        ("memo_misses", level.memo_misses.into()),
        ("memo_evictions", level.memo_evictions.into()),
        ("memo_peak_resident", level.memo_peak_resident.into()),
    ])
}

/// A whole [`PipelineReport`] as JSON — what `exp_fig3`/`exp_fig4`/
/// `pipeline_smoke --json <path>` write for the CI artifact upload.
/// Schema 2: level rows carry a "precision" field (ISSUE 10).
pub fn pipeline_report_json(name: &str, report: &PipelineReport) -> Json {
    Json::obj(vec![
        ("schema_version", 2u64.into()),
        ("name", Json::str(name)),
        ("graph_kind", Json::str(&report.graph_kind)),
        ("train_frames", report.train_frames.into()),
        ("test_frames", report.test_frames.into()),
        ("graph_states", report.graph_states.into()),
        ("graph_arcs", report.graph_arcs.into()),
        ("model_params", report.model_params.into()),
        ("final_train_loss", report.final_train_loss.into()),
        ("final_train_accuracy", report.final_train_accuracy.into()),
        (
            "levels",
            Json::Arr(report.levels.iter().map(level_json).collect()),
        ),
    ])
}

/// A [`PolicyGridReport`] as JSON — what `exp_fig7 --json <path>` writes.
/// Schema 2: level objects and per-policy rows carry a "precision" field
/// (ISSUE 10).
pub fn policy_grid_json(name: &str, report: &PolicyGridReport) -> Json {
    Json::obj(vec![
        ("schema_version", 2u64.into()),
        ("name", Json::str(name)),
        (
            "policies",
            Json::Arr(report.policies.iter().map(Json::str).collect()),
        ),
        (
            "levels",
            Json::Arr(
                report
                    .levels
                    .iter()
                    .map(|level| {
                        Json::obj(vec![
                            ("label", Json::str(&level.label)),
                            ("structure", Json::str(&level.structure)),
                            ("precision", Json::str(&level.precision)),
                            ("sparsity", level.sparsity.into()),
                            (
                                "per_policy",
                                Json::Arr(level.per_policy.iter().map(level_json).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Write a rendered JSON document (newline-terminated) to `path`.
pub fn write_json_file(path: impl AsRef<Path>, json: &Json) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{}", json.render())
}

/// Scan the process arguments for `--json <path>` (the shared experiment
/// flag). Other flags are left for the caller; a trailing `--json` without
/// a path is an error.
pub fn json_arg() -> Result<Option<String>, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().position(|a| a == "--json") {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(path) if !path.starts_with("--") => Ok(Some(path.clone())),
            _ => Err("--json requires a path".to_string()),
        },
    }
}
