//! # darkside-bench — experiment binaries and CI gates
//!
//! The experiment binaries (`exp_fig3`, `exp_fig4`, `exp_fig7`,
//! `exp_scale`, `pipeline_smoke`) run the `darkside_core::Pipeline` end to
//! end and check the paper's shape targets; `serve_load` and `serve_top`
//! gate the serving engine; `trace_overhead` gates the instrumentation
//! cost. [`report`] holds their shared table formatting and the
//! `--json <path>` writer, which renders through `darkside_core::trace::Json`.
//!
//! Performance is measured by the serving benchmark under `benchmark/`
//! (`BENCHMARK.json`), not here: these binaries gate shapes and orderings,
//! and none of their output is a performance record.

pub mod report;

pub use report::{
    check, json_arg, print_level_table, print_policy_grid, print_policy_latency, print_run_header,
    write_json_file,
};
