//! The serving benchmark (ISSUE 11): four named workloads over the whole
//! system — pipeline build, servable export, sharded engine — measured
//! from the outside, through public calls only. See `README.md`.
//!
//! ```text
//! darkside-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out spans.jsonl]
//! darkside-benchmark [--seed <n>] [--seconds <s>] [--reps <k>] [--out results.json]
//! darkside-benchmark --compare a.json b.json
//! ```

mod host;
mod json;
mod load;
mod metrics;
mod run;
mod spans;
mod stats;
mod suite;
mod workload;
mod wrappers;

use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <spans.jsonl>]
      one run of one workload; the last line printed is its result as JSON
  run.sh [--seed <n>] [--seconds <s>] [--reps <k>] [--out <results.json>]
      every workload, untraced then traced, each in its own process
  run.sh --compare <a.json> <b.json>
      judge b against a by the bounds in BENCHMARK.json";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<u64>,
    trace_out: Option<String>,
    reps: Option<u64>,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(number(value()?)?),
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--trace" => args.trace = Some(number(value()?)?),
            "--trace-out" => args.trace_out = Some(value()?),
            "--reps" => args.reps = Some(number(value()?)?),
            "--out" => args.out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(metrics::RUN_SECONDS).max(1);
    let seed = args.seed.unwrap_or(1);

    if let Some((a, b)) = &args.compare {
        return match suite::compare(a, b, "BENCHMARK.json") {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let Some(name) = &args.workload else {
        let suite_args = suite::SuiteArgs {
            seed,
            seconds,
            reps: args.reps.unwrap_or(1).max(1),
            out: args.out,
        };
        return match suite::run_suite(&suite_args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("error: a check failed");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    };

    let Some(workload) = workload::find(name) else {
        let known: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload {name}; known: {}",
            known.join(", ")
        );
        return ExitCode::from(2);
    };
    let traced = args.trace.unwrap_or(0) != 0;
    match run::run(
        workload,
        seed,
        seconds as f64,
        traced,
        args.trace_out.as_deref(),
        process_start,
    ) {
        Ok(outcome) => {
            outcome.print();
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
