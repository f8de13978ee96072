//! The whole benchmark in one command: every workload, untraced then
//! traced, each in a child process of its own (so set-up time and peak
//! memory are per workload), gathered into one result file; and
//! `--compare`, which judges two such files by the bounds in
//! `BENCHMARK.json`.

use crate::host;
use crate::json::Json;
use crate::stats::{median, quartile_spread};
use crate::workload::WORKLOADS;
use std::process::Command;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: u64,
    /// Whole passes over the workloads; pass `k` uses seed `seed + k`.
    pub reps: u64,
    pub out: Option<String>,
}

/// Run one child and parse the result line it ends with.
fn run_child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The facts that hold *between* workloads, which is why each exists.
fn cross_checks(traced: &[(&str, Json)]) -> Vec<(String, bool)> {
    let get = |workload: &str, name: &str| {
        traced
            .iter()
            .find(|(w, _)| *w == workload)
            .and_then(|(_, r)| metric(r, name))
            .unwrap_or(f64::NAN)
    };
    let dense_arcs = get("dense.batch", "decoder.arcs_per_frame");
    let dark_arcs = get("darkside.batch", "decoder.arcs_per_frame");
    let dense_batch = get("dense.batch", "scorer.batch_frames_p50");
    let live_batch = get("nbest90.live", "scorer.batch_frames_p50");
    vec![
        (
            format!(
                "darkside.batch explores ≥ 2× dense.batch's arcs per frame ({dark_arcs:.0} vs {dense_arcs:.0})"
            ),
            dark_arcs >= 2.0 * dense_arcs,
        ),
        (
            format!(
                "nbest90.live scores smaller batches than dense.batch (p50 {live_batch:.0} vs {dense_batch:.0} frames)"
            ),
            live_batch < dense_batch,
        ),
    ]
}

pub fn run_suite(args: &SuiteArgs) -> Result<bool, String> {
    let mut all_ok = true;
    let mut runs = Vec::new();
    for rep in 0..args.reps {
        let seed = args.seed + rep;
        let mut workloads = Vec::new();
        let mut traced_results = Vec::new();
        for w in &WORKLOADS {
            let untraced = run_child(w.name, seed, args.seconds, false)?;
            let traced = run_child(w.name, seed, args.seconds, true)?;
            for r in [&untraced, &traced] {
                all_ok &= r.get("correct").and_then(Json::as_bool) == Some(true);
            }
            workloads.push((
                w.name.to_string(),
                Json::obj(vec![
                    ("end_to_end", untraced.clone()),
                    ("per_layer", traced.clone()),
                ]),
            ));
            traced_results.push((w.name, traced));
        }
        println!("== across workloads (seed {seed})");
        for (what, passed) in cross_checks(&traced_results) {
            println!("  check {what}: {}", if passed { "ok" } else { "FAILED" });
            all_ok &= passed;
        }
        runs.push(Json::obj(vec![
            ("seed", seed.into()),
            ("workloads", Json::Obj(workloads)),
        ]));
    }
    if let Some(path) = &args.out {
        println!("measuring the host's roofline (2 s)");
        let file = Json::obj(vec![
            ("schema", 1u64.into()),
            ("host", host::fingerprint()),
            ("run_seconds", args.seconds.into()),
            ("runs", Json::Arr(runs)),
        ]);
        std::fs::write(path, file.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("results written to {path}");
    }
    Ok(all_ok)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Every value a result file holds for one (workload, end-to-end metric).
fn values(file: &Json, workload: &str, name: &str) -> Vec<f64> {
    file.get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|run| run.get("workloads")?.get(workload)?.get("end_to_end"))
        .filter_map(|r| metric(r, name))
        .collect()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judge `b` against `a` for one metric: worse when `b`'s median is worse
/// than `a`'s by more than `bound`; unresolved when the runs of either
/// side disagree among themselves by more than `bound` (their quartile
/// spread), so no verdict either way can be trusted. A file with one run
/// has no spread to show: record with `--reps 3` or more to resolve.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worsening = if lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let spread = quartile_spread(a).max(quartile_spread(b));
    if spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

pub fn compare(path_a: &str, path_b: &str, benchmark_json: &str) -> Result<bool, String> {
    let (a, b, spec) = (load(path_a)?, load(path_b)?, load(benchmark_json)?);
    let mut all_ok = true;
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "change", "bound"
    );
    for w in spec.get("workloads").map_or(&[][..], Json::as_arr) {
        let workload = w.get("name").and_then(Json::as_str).unwrap_or_default();
        for m in spec.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let (va, vb) = (values(&a, workload, name), values(&b, workload, name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<16} {name:<16} missing from a result file");
                all_ok = false;
                continue;
            }
            let verdict = judge(&va, &vb, lower, bound);
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{workload:<16} {name:<16} {ma:>12.4} {mb:>12.4} {:>+7.2}% {:>6.1}%  {}",
                (mb - ma) / ma * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
            all_ok &= verdict == Verdict::Ok;
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_worse_from_unresolved() {
        // Lower is better, bound 10 %.
        assert_eq!(judge(&[10.0], &[10.5], true, 0.10), Verdict::Ok);
        assert_eq!(judge(&[10.0], &[12.0], true, 0.10), Verdict::Worse);
        assert_eq!(judge(&[10.0], &[8.0], true, 0.10), Verdict::Ok);
        // Higher is better: a drop is the worsening.
        assert_eq!(judge(&[100.0], &[85.0], false, 0.10), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[120.0], false, 0.10), Verdict::Ok);
        // Runs that disagree among themselves by more than the bound
        // settle nothing, whichever way the medians point.
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(
            judge(&noisy, &[10.0, 10.1, 9.9], true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&[10.0, 10.1, 9.9], &noisy, true, 0.10),
            Verdict::Unresolved
        );
    }
}
