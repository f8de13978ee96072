//! Every metric the benchmark reports, by name and unit. `BENCHMARK.json`
//! lists the same names with their direction and regression bound (a test
//! holds the two together); the README says why each exists.

/// What a user of the system sees; printed by untraced runs.
pub const END_TO_END: [(&str, &str); 6] = [
    ("served_fps", "frames/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("word_acc_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Where the time and work go, layer by layer; printed by traced runs.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("core.pipeline_build_s", "s"),
    ("core.export_s", "s"),
    ("scorer.ns_per_frame", "ns/frame"),
    ("scorer.calls", "count"),
    ("scorer.batch_frames_p50", "frames"),
    ("scorer.gflops", "GFLOP/s"),
    ("scorer.bytes_per_frame", "B/frame"),
    ("wfst.expand_calls_per_frame", "1/frame"),
    ("wfst.expand_ns_per_frame", "ns/frame"),
    ("wfst.memo_hit_ratio", "ratio"),
    ("wfst.memo_peak_resident", "states"),
    ("decoder.ns_per_frame", "ns/frame"),
    ("decoder.hyps_per_frame", "1/frame"),
    ("decoder.arcs_per_frame", "1/frame"),
    ("policy.evictions_per_frame", "1/frame"),
    ("policy.occupancy", "entries"),
    ("serve.step_ns_per_frame", "ns/frame"),
    ("serve.self_ns_per_frame", "ns/frame"),
    ("serve.offer_ns", "ns"),
    ("serve.push_ns_per_chunk", "ns"),
    ("serve.batch_frames_p50", "frames"),
    ("serve.batch_sessions_p50", "sessions"),
    ("serve.steals", "count"),
    ("serve.busy_share", "ratio"),
    ("serve.rejected", "count"),
    ("serve.degraded", "count"),
    ("load.gen_late_p99_ms", "ms"),
    ("load.queued_frames_mean", "frames"),
    ("trace.overhead_share", "ratio"),
];

/// Unit of a metric, whichever list it is in.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or_else(|| panic!("metric {name} is not declared"), |(_, unit)| unit)
}

/// Seconds a run measures when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::WORKLOADS;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect(path)).expect("BENCHMARK.json parses")
    }

    fn names_and_units(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn declared(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        let spec = benchmark_json();
        assert_eq!(
            names_and_units(spec.get("end_to_end").unwrap()),
            declared(&END_TO_END)
        );
        assert_eq!(
            names_and_units(spec.get("per_layer").unwrap()),
            declared(&PER_LAYER)
        );
        let workloads: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
    }

    #[test]
    fn bounds_are_legal_and_setup_has_the_widest() {
        let spec = benchmark_json();
        let bounds: Vec<(String, f64)> = spec
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let widest = bounds.iter().map(|b| b.1).fold(0.0, f64::max);
        assert!(widest <= 0.25);
        for (name, bound) in &bounds {
            assert!(*bound > 0.0, "{name}");
            if name == "setup_s" {
                assert_eq!(*bound, widest);
            }
        }
        assert!(bounds.iter().any(|b| b.0 == "setup_s"));
    }
}
