//! One run of one workload: set up, warm up, drive the load, check what
//! came back, and turn what was observed into named metrics.

use crate::host;
use crate::json::Json;
use crate::load::{self, Call, Meter, Phase, Stop};
use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::spans::{self, Clock, Span};
use crate::stats::{median, percentile, samples_beyond, sorted, supported_tail};
use crate::workload::{
    scoring_cost, set_up, Load, Setup, Workload, CHECKED_UTTERANCES, WARMUP_OFFERS,
};
use crate::wrappers::{timer_overhead_ns, StepContext, TimedGraph, TimedScorer};
use darkside_core::decoder::{acoustic_costs, decode_with_policy, word_errors, WerStats};
use darkside_core::{Error, ModelBundle};
use darkside_serve::ShardedScheduler;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of a traced run's `--seconds` spent on the untraced phase that
/// the tracing overhead is measured against.
const UNTRACED_SHARE: f64 = 0.3;
/// Whole-utterance offers that warm the traced engine (its wrappers are
/// new; the model and graph behind them are already warm).
const TRACED_WARMUP_OFFERS: usize = 16;
/// The open-loop workload's latency limit, on its p95: one hypervisor
/// stall lands on every caller at once and can move the p99 of a whole
/// window, and this limit decides `correct`.
const LIVE_P95_LIMIT_MS: f64 = 50.0;

pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// `(what, passed, detail)` of every output check.
    pub checks: Vec<(&'static str, bool, String)>,
    /// Doubts about the *measurement* (not the outputs): a step-time
    /// budget that does not add up, tracing that cost too much.
    pub doubts: Vec<String>,
    /// Lines for the reader that are not metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The one-line result the driver contract asks for.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let m = Json::obj(vec![
                    ("value", value.into()),
                    ("unit", Json::str(unit_of(name))),
                ]);
                (name.to_string(), m)
            })
            .collect();
        Json::obj(vec![
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    pub fn print(&self) {
        let mode = if self.traced { "traced" } else { "untraced" };
        println!("== {} (seed {}, {mode})", self.workload, self.seed);
        for &(name, value) in &self.metrics {
            println!("  {name:<30} {value:>14.4} {}", unit_of(name));
        }
        for note in &self.notes {
            println!("  {note}");
        }
        for (what, passed, detail) in &self.checks {
            let verdict = if *passed { "ok" } else { "FAILED" };
            println!("  check {what}: {verdict} ({detail})");
        }
        for doubt in &self.doubts {
            println!("  doubt: {doubt}");
        }
    }
}

/// What every phase of a run shares.
struct Bench<'a> {
    workload: &'a Workload,
    setup: &'a Setup,
    clock: &'a Arc<Clock>,
    seed: u64,
}

impl Bench<'_> {
    fn build_engine(&self, bundle: &ModelBundle) -> Result<ShardedScheduler, Error> {
        ShardedScheduler::build(bundle.clone(), self.workload.serve_config())
    }

    fn warm_up(&self, engine: &mut ShardedScheduler, offers: usize) {
        load::run_closed(
            engine,
            self.clock,
            &mut Meter::untraced(self.clock),
            &self.setup.utterances,
            &mut 0,
            8,
            Stop::AfterOffers(offers),
        );
    }

    /// Drive the workload's load for `seconds` of measured window.
    fn drive(&self, engine: &mut ShardedScheduler, meter: &mut Meter<'_>, seconds: f64) -> Phase {
        let utterances = &self.setup.utterances;
        match self.workload.load {
            Load::Closed { in_flight } => load::run_closed(
                engine,
                self.clock,
                meter,
                utterances,
                &mut 0,
                in_flight,
                Stop::After(Duration::from_secs_f64(seconds)),
            ),
            Load::Open { callers } => {
                let lengths: Vec<usize> = utterances.iter().map(|u| u.frames.len()).collect();
                let horizon_ns = load::PREROLL_NS + (seconds * 1e9) as u64;
                let schedule = load::open_schedule(self.seed, callers, &lengths, horizon_ns);
                load::run_open(engine, self.clock, meter, utterances, &schedule, horizon_ns)
            }
        }
    }

    /// A traced run: an untraced phase on `engine` for the overhead
    /// baseline, then the rest of `seconds` on a second engine over the same
    /// model and graph with the timing wrappers installed. Fills in the
    /// per-layer metrics and returns the traced phase.
    fn drive_traced(
        &self,
        mut engine: ShardedScheduler,
        seconds: f64,
        trace_out: Option<&str>,
        out: &mut Outcome,
    ) -> Result<Phase, Error> {
        let (setup, clock) = (self.setup, self.clock);
        let mut meter = Meter::untraced(clock);
        let share = seconds * UNTRACED_SHARE;
        let untraced = self.drive(&mut engine, &mut meter, share);
        let untraced_busy = busy_ns_per_frame(&meter, &untraced);
        drop(engine);

        let step = Arc::new(StepContext::default());
        let scorer = Arc::new(TimedScorer::new(
            setup.bundle.scorer.clone(),
            clock.clone(),
            step.clone(),
        ));
        let graph = Arc::new(TimedGraph::new(setup.bundle.graph.clone()));
        let mut engine = self.build_engine(&ModelBundle {
            scorer: scorer.clone(),
            graph: graph.clone(),
            ..setup.bundle.clone()
        })?;
        self.warm_up(&mut engine, TRACED_WARMUP_OFFERS);
        scorer.take_spans();
        let memo_before = graph_memo(&setup.bundle);
        let expand_before = graph.timing();

        let mut meter = Meter::traced(clock, &step);
        let phase = self.drive(&mut engine, &mut meter, seconds - share);
        let mut all_spans = meter.take_spans();
        let scorer_spans = scorer.take_spans();
        let expand_after = graph.timing();
        let layers = LayerInputs {
            workload: self.workload,
            setup,
            phase: &phase,
            meter: &meter,
            step_spans: &all_spans,
            scorer_spans: &scorer_spans,
            expand_timing: (
                expand_after.0 - expand_before.0,
                expand_after.1 - expand_before.1,
            ),
            memo_before,
            untraced_busy_ns_per_frame: untraced_busy,
            rejected: engine.admission().rejected(),
            degraded: engine.admission().degraded(),
        };
        per_layer_metrics(&layers, out);
        if let Some(path) = trace_out {
            all_spans.extend(scorer_spans);
            all_spans.sort_by_key(|s| (s.start_ns, s.id));
            match spans::write_jsonl(path, &all_spans) {
                Ok(()) => out
                    .notes
                    .push(format!("{} spans written to {path}", all_spans.len())),
                Err(e) => out.doubts.push(format!("could not write {path}: {e}")),
            }
        }
        Ok(phase)
    }
}

pub fn run(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<&str>,
    process_start: Instant,
) -> Result<Outcome, Error> {
    let setup = set_up(workload, seed)?;
    let clock = Arc::new(Clock::new());
    let bench = Bench {
        workload,
        setup: &setup,
        clock: &clock,
        seed,
    };
    let mut engine = bench.build_engine(&setup.bundle)?;
    bench.warm_up(&mut engine, WARMUP_OFFERS);
    let setup_s = process_start.elapsed().as_secs_f64();

    let mut out = Outcome {
        workload: workload.name,
        seed,
        traced,
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        checks: Vec::new(),
        doubts: Vec::new(),
        notes: Vec::new(),
    };

    let phase = if traced {
        bench.drive_traced(engine, seconds, trace_out, &mut out)?
    } else {
        let mut meter = Meter::untraced(&clock);
        let phase = bench.drive(&mut engine, &mut meter, seconds);
        out.notes.push(format!(
            "busy_share {:.3} (engine calls ÷ wall), {} steps, {} steals, rejected {}, degraded {}",
            meter.busy_ns() as f64 / phase.wall_ns as f64,
            phase.steps.len(),
            phase.steals,
            engine.admission().rejected(),
            engine.admission().degraded(),
        ));
        phase
    };

    let latencies = in_window_latencies_ms(&phase);
    let word_acc_pct = check_outputs(workload, &setup, &phase, &latencies, &mut out);
    if !traced {
        end_to_end_metrics(&phase, &latencies, word_acc_pct, setup_s, &mut out);
    }
    out.attempted = phase.offered_utterances.max(1);
    out.failed = phase.failed;
    out.correct = out.checks.iter().all(|c| c.1);
    Ok(out)
}

/// A run reports exactly the metrics `BENCHMARK.json` declares, in order.
fn assert_declared(metrics: &[(&'static str, f64)], declared: &[(&str, &str)]) {
    assert!(
        metrics.iter().map(|m| m.0).eq(declared.iter().map(|d| d.0)),
        "reported metrics differ from the declared list"
    );
}

fn graph_memo(bundle: &ModelBundle) -> darkside_core::wfst::MemoStats {
    bundle.graph.memo_stats().unwrap_or_default()
}

fn scored_frames(phase: &Phase) -> u64 {
    phase.steps.iter().map(|s| u64::from(s.0)).sum()
}

fn busy_ns_per_frame(meter: &Meter<'_>, phase: &Phase) -> f64 {
    meter.busy_ns() as f64 / scored_frames(phase) as f64
}

fn in_window_latencies_ms(phase: &Phase) -> Vec<f64> {
    sorted(
        &phase
            .completions
            .iter()
            .filter(|c| c.in_window)
            .map(|c| c.latency_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

/// Length of the slices `served_fps` is a median over: a second in which
/// the host stalls or a neighbour takes the core then costs one slice, not
/// a share of the mean.
const SLICE_NS: u64 = 1_000_000_000;

fn end_to_end_metrics(
    phase: &Phase,
    latencies: &[f64],
    word_acc_pct: f64,
    setup_s: f64,
    out: &mut Outcome,
) {
    let slices = (phase.window_ns / SLICE_NS).max(1) as usize;
    let mut slice_frames = vec![0u64; slices];
    for c in phase.completions.iter().filter(|c| c.in_window) {
        // A window that is not a whole number of slices keeps its tail
        // in the last one.
        let k = ((c.done_ns / SLICE_NS) as usize).min(slices - 1);
        slice_frames[k] += u64::from(c.frames);
    }
    let slice_s = phase.window_ns as f64 / 1e9 / slices as f64;
    let fps: Vec<f64> = slice_frames.iter().map(|&f| f as f64 / slice_s).collect();
    let n = latencies.len();
    out.metrics = vec![
        ("served_fps", median(&fps)),
        ("latency_p50_ms", percentile(latencies, 0.50)),
        ("latency_p99_ms", percentile(latencies, 0.99)),
        ("word_acc_pct", word_acc_pct),
        ("setup_s", setup_s),
        ("peak_rss_mb", host::peak_rss_mb()),
    ];
    assert_declared(&out.metrics, &END_TO_END);
    out.notes.push(format!(
        "served_fps is the median over {slices} slices of {slice_s:.2} s (whole window: {:.1} frames/s)",
        slice_frames.iter().sum::<u64>() as f64 / (phase.window_ns as f64 / 1e9),
    ));
    out.notes.push(format!(
        "latency over {n} utterances completed in the window \
         ({} beyond p99; p95 {:.3} ms, max {:.3} ms)",
        samples_beyond(n, 0.99),
        percentile(latencies, 0.95),
        latencies.last().copied().unwrap_or(f64::NAN),
    ));
    // A doubt, not a failed check: the outputs are right, the window was
    // too short (or the host too slow) for the tail the metric names.
    if supported_tail(n) != Some(0.99) {
        out.doubts.push(format!(
            "latency_p99_ms rests on {n} samples; it needs 1000 to have ten beyond it"
        ));
    }
}

/// Run the output checks and return the word accuracy over everything
/// served (100 − WER, percent).
/// `latencies` are the window's, sorted, in ms.
fn check_outputs(
    workload: &Workload,
    setup: &Setup,
    phase: &Phase,
    latencies: &[f64],
    out: &mut Outcome,
) -> f64 {
    let bundle = &setup.bundle;

    // Streaming == one-shot: what the engine served for the checked
    // utterances is what a single decode of the whole utterance gives.
    let mut compared = 0;
    let mut equal = 0;
    for (utt, utterance) in setup.utterances.iter().enumerate().take(CHECKED_UTTERANCES) {
        let Some(served) = phase.first_words.get(&(utt as u32)) else {
            continue;
        };
        let scores = bundle.scorer.score_frames(&utterance.frames);
        let costs = acoustic_costs(&scores, &bundle.beam);
        let reference = bundle.build_policy().and_then(|mut policy| {
            decode_with_policy(bundle.graph.clone(), &costs, policy.as_mut())
        });
        compared += 1;
        if reference.is_ok_and(|r| r.words == *served) {
            equal += 1;
        }
    }
    out.checks.push((
        "served_words_equal_one_shot_decode",
        compared > 0 && equal == compared,
        format!("{equal} of {compared} checked utterances"),
    ));
    out.checks.push((
        "repeats_of_an_utterance_agree",
        phase.unstable_repeats == 0,
        format!("{} differing repeats", phase.unstable_repeats),
    ));
    out.checks.push((
        "frames_served_equal_frames_offered",
        phase.served_frames == phase.offered_frames && phase.offered_frames > 0,
        format!(
            "{} served, {} offered",
            phase.served_frames, phase.offered_frames
        ),
    ));
    out.checks.push((
        "nothing_refused_or_failed",
        phase.failed == 0,
        format!(
            "{} of {} utterances",
            phase.failed, phase.offered_utterances
        ),
    ));

    // Word errors are a property of the utterance (the engine is
    // deterministic), so align each distinct one once and weight it by
    // how often it was served.
    let mut wer = WerStats::default();
    let mut errors: std::collections::HashMap<u32, WerStats> = std::collections::HashMap::new();
    for c in &phase.completions {
        let Some(words) = phase.first_words.get(&c.utt) else {
            continue;
        };
        let e = errors
            .entry(c.utt)
            .or_insert_with(|| word_errors(&setup.utterances[c.utt as usize].words, words));
        wer.accumulate(e);
    }
    let wer_pct = wer.percent();
    out.checks.push((
        "wer_within_limit",
        wer_pct <= workload.wer_limit_pct,
        format!(
            "{wer_pct:.3} % over {} reference words, limit {} %",
            wer.reference_words, workload.wer_limit_pct
        ),
    ));

    // The shape facts each workload leans on.
    if let Some(memo) = bundle.graph.memo_stats() {
        out.checks.push((
            "lazy_memo_evicts",
            memo.evictions > 0,
            format!(
                "{} evictions, hit ratio {:.3}, peak resident {} of {}",
                memo.evictions,
                memo.hits as f64 / (memo.hits + memo.misses).max(1) as f64,
                memo.peak_resident,
                memo.capacity
            ),
        ));
    }
    if let Load::Open { callers } = workload.load {
        let p95 = percentile(latencies, 0.95);
        out.checks.push((
            "live_p95_within_limit",
            p95 <= LIVE_P95_LIMIT_MS,
            format!("{p95:.3} ms, limit {LIVE_P95_LIMIT_MS} ms"),
        ));
        let (first, last) = backlog_quarters(phase);
        // Not growing: the last quarter's mean backlog is within one
        // batch of chunks (one per caller) of the first quarter's.
        let slack = (callers * load::CHUNK_FRAMES) as f64;
        out.checks.push((
            "live_backlog_not_growing",
            last <= 2.0 * first + slack,
            format!("mean queued frames {first:.1} in the first quarter, {last:.1} in the last"),
        ));
        let late = sorted(&phase.late_ns);
        out.notes.push(format!(
            "generator lateness p50 {:.3} ms, p99 {:.3} ms over {} chunks; offered {:.0} frames/s",
            percentile(&late, 0.50) / 1e6,
            percentile(&late, 0.99) / 1e6,
            late.len(),
            phase.offered_frames as f64 / (phase.wall_ns as f64 / 1e9),
        ));
    }
    100.0 - wer_pct
}

/// Mean `queued_frames()` over the first and the last quarter of the
/// measured window.
fn backlog_quarters(phase: &Phase) -> (f64, f64) {
    let Some(&(start, _)) = phase.queue_depth.first() else {
        return (0.0, 0.0);
    };
    let quarter = phase.window_ns / 4;
    let mean = |from: u64, to: u64| {
        let (sum, n) = phase
            .queue_depth
            .iter()
            .filter(|(t, _)| (from..to).contains(t))
            .fold((0.0, 0u64), |(s, n), (_, q)| (s + f64::from(*q), n + 1));
        sum / n.max(1) as f64
    };
    (
        mean(start, start + quarter),
        mean(start + 3 * quarter, start + 4 * quarter + 1),
    )
}

struct LayerInputs<'a> {
    workload: &'a Workload,
    setup: &'a Setup,
    phase: &'a Phase,
    meter: &'a Meter<'a>,
    step_spans: &'a [Span],
    scorer_spans: &'a [Span],
    /// `(timed expand calls, their ns)` inside the traced engine.
    expand_timing: (u64, u64),
    memo_before: darkside_core::wfst::MemoStats,
    untraced_busy_ns_per_frame: f64,
    rejected: u64,
    degraded: u64,
}

/// Decode the checked utterances once more, one-shot, on a timed graph of
/// their own: `(decode ns per frame, of which expand ns per frame)`.
fn replay_decoder(setup: &Setup, timer_ns: f64) -> (f64, f64) {
    let bundle = &setup.bundle;
    let graph = Arc::new(TimedGraph::new(bundle.graph.clone()));
    let mut frames = 0u64;
    let mut decode_ns = 0u64;
    let mut search = load::SearchTotals::default();
    for utterance in setup.utterances.iter().take(CHECKED_UTTERANCES) {
        let scores = bundle.scorer.score_frames(&utterance.frames);
        let costs = acoustic_costs(&scores, &bundle.beam);
        let Ok(mut policy) = bundle.build_policy() else {
            continue;
        };
        let t0 = Instant::now();
        let result = decode_with_policy(graph.clone(), &costs, policy.as_mut());
        decode_ns += t0.elapsed().as_nanos() as u64;
        frames += utterance.frames.len() as u64;
        if let Ok(result) = result {
            search.add(&result);
        }
    }
    let (timed_calls, timed_ns) = graph.timing();
    let per_call = (timed_ns as f64 / timed_calls.max(1) as f64 - timer_ns).max(0.0);
    let expand_ns = per_call * search.expand_calls as f64;
    (decode_ns as f64 / frames as f64, expand_ns / frames as f64)
}

fn per_layer_metrics(l: &LayerInputs<'_>, out: &mut Outcome) {
    let phase = l.phase;
    let frames = scored_frames(phase) as f64;
    let timer_ns = timer_overhead_ns();

    // Scorer: one span per scoring call, from the wrapper.
    let scorer_calls = l.scorer_spans.len() as f64;
    let scorer_frames: u64 = l.scorer_spans.iter().map(|s| s.frames).sum();
    let scorer_ns: u64 = l.scorer_spans.iter().map(Span::duration_ns).sum();
    let cost = scoring_cost(&l.setup.pipeline.config, &l.setup.bundle);
    let batch_sizes = sorted(
        &l.scorer_spans
            .iter()
            .map(|s| s.frames as f64)
            .collect::<Vec<_>>(),
    );

    // Step self time: what a step spends outside the scoring calls it
    // caused. With two shards the children overlap, and count once.
    let mut both: Vec<Span> = l
        .step_spans
        .iter()
        .filter(|s| s.name == "serve.step")
        .cloned()
        .collect();
    let step_count = both.len();
    both.extend_from_slice(l.scorer_spans);
    let step_self_ns: u64 = spans::self_times(&both)[..step_count].iter().sum();
    let step_ns = l.meter.total(Call::Step).1;
    let scorer_wall_ns = step_ns - step_self_ns;
    // How many scoring calls ran side by side, on average.
    let overlap = (scorer_ns as f64 / scorer_wall_ns.max(1) as f64).max(1.0);

    // Graph: sampled timing × exact call count, inside the engine.
    let (timed_calls, timed_ns) = l.expand_timing;
    let expand_call_ns = (timed_ns as f64 / timed_calls.max(1) as f64 - timer_ns).max(0.0);
    let expand_calls_per_frame = phase.search.expand_calls as f64 / phase.search.frames as f64;
    let expand_ns_per_frame = expand_call_ns * expand_calls_per_frame;
    let memo = graph_memo(&l.setup.bundle);
    let (hits, misses) = (
        memo.hits - l.memo_before.hits,
        memo.misses - l.memo_before.misses,
    );

    // Decoder: replayed outside the engine, self = decode − expand.
    let (replay_decode_ns, replay_expand_ns) = replay_decoder(l.setup, timer_ns);
    let decoder_self_ns = (replay_decode_ns - replay_expand_ns).max(0.0);

    // The step-time budget, in wall ns per scored frame. Work the shards
    // do side by side is divided by how far they overlapped.
    let step_ns_per_frame = step_ns as f64 / frames;
    let budget_scorer = scorer_wall_ns as f64 / frames;
    let budget_decoder = decoder_self_ns / overlap;
    let budget_expand = expand_ns_per_frame / overlap;
    let serve_self = step_ns_per_frame - budget_scorer - budget_decoder - budget_expand;

    let (offers, offer_ns) = l.meter.total(Call::Offer);
    let (pushes, push_ns) = l.meter.total(Call::Push);
    let per_call = |ns: u64, calls: u64| {
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    };
    let step_frames = sorted(
        &phase
            .steps
            .iter()
            .map(|s| f64::from(s.0))
            .collect::<Vec<_>>(),
    );
    let step_sessions = sorted(
        &phase
            .steps
            .iter()
            .map(|s| f64::from(s.1))
            .collect::<Vec<_>>(),
    );
    let busy_share = l.meter.busy_ns() as f64 / phase.wall_ns as f64;
    let traced_busy = busy_ns_per_frame(l.meter, phase);
    let overhead = 1.0 - l.untraced_busy_ns_per_frame / traced_busy;
    let late = sorted(&phase.late_ns);
    let queued_mean = phase
        .queue_depth
        .iter()
        .fold(0.0, |sum, q| sum + f64::from(q.1))
        / phase.queue_depth.len().max(1) as f64;

    out.metrics = vec![
        ("core.pipeline_build_s", l.setup.pipeline_build_s),
        ("core.export_s", l.setup.export_s),
        (
            "scorer.ns_per_frame",
            scorer_ns as f64 / scorer_frames as f64,
        ),
        ("scorer.calls", scorer_calls),
        ("scorer.batch_frames_p50", percentile(&batch_sizes, 0.5)),
        (
            "scorer.gflops",
            cost.flops_per_frame * scorer_frames as f64 / scorer_ns as f64,
        ),
        (
            "scorer.bytes_per_frame",
            cost.weight_bytes_per_call * scorer_calls / scorer_frames as f64
                + cost.activation_bytes_per_frame,
        ),
        ("wfst.expand_calls_per_frame", expand_calls_per_frame),
        ("wfst.expand_ns_per_frame", expand_ns_per_frame),
        (
            "wfst.memo_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("wfst.memo_peak_resident", memo.peak_resident as f64),
        ("decoder.ns_per_frame", decoder_self_ns),
        (
            "decoder.hyps_per_frame",
            phase.search.tokens_alive as f64 / phase.search.frames as f64,
        ),
        (
            "decoder.arcs_per_frame",
            phase.search.arcs_expanded as f64 / phase.search.frames as f64,
        ),
        (
            "policy.evictions_per_frame",
            phase.search.evictions as f64 / phase.search.frames as f64,
        ),
        (
            "policy.occupancy",
            phase.search.table_occupancy as f64 / phase.search.frames as f64,
        ),
        ("serve.step_ns_per_frame", step_ns_per_frame),
        ("serve.self_ns_per_frame", serve_self),
        ("serve.offer_ns", per_call(offer_ns, offers)),
        ("serve.push_ns_per_chunk", per_call(push_ns, pushes)),
        ("serve.batch_frames_p50", percentile(&step_frames, 0.5)),
        ("serve.batch_sessions_p50", percentile(&step_sessions, 0.5)),
        ("serve.steals", phase.steals as f64),
        ("serve.busy_share", busy_share),
        ("serve.rejected", l.rejected as f64),
        ("serve.degraded", l.degraded as f64),
        (
            "load.gen_late_p99_ms",
            if late.is_empty() {
                0.0
            } else {
                percentile(&late, 0.99) / 1e6
            },
        ),
        ("load.queued_frames_mean", queued_mean),
        ("trace.overhead_share", overhead),
    ];
    assert_declared(&out.metrics, &PER_LAYER);

    out.notes.push(format!(
        "step-time budget, µs per scored frame: scorer {:.2} + decoder self {:.2} + graph expand {:.2} \
         + serve self {:.2} = step {:.2} ({} scoring calls overlapped ×{overlap:.2})",
        budget_scorer / 1e3,
        budget_decoder / 1e3,
        budget_expand / 1e3,
        serve_self / 1e3,
        step_ns_per_frame / 1e3,
        l.scorer_spans.len(),
    ));
    out.notes.push(format!(
        "scoring cost is computed, not measured: {:.0} flops/frame, {:.0} weight bytes/call, \
         {:.0} activation bytes/frame; memo hit ratio {hits}/{}; timer overhead {timer_ns:.0} ns",
        cost.flops_per_frame,
        cost.weight_bytes_per_call,
        cost.activation_bytes_per_frame,
        hits + misses,
    ));
    if let Load::Open { .. } = l.workload.load {
        out.notes.push(format!(
            "capacity is at least {:.0} frames/s (offered rate ÷ busy share; batches grow, and \
             cost less per frame, as load rises)",
            phase.offered_frames as f64 / (phase.wall_ns as f64 / 1e9) / busy_share
        ));
    }
    // The decoder's part is timed outside the engine, so allow it a few
    // percent of the step before calling the budget broken.
    if serve_self < -0.03 * step_ns_per_frame {
        out.doubts.push(format!(
            "step-time budget does not add up: the parts exceed the step by {:.2} µs/frame",
            -serve_self / 1e3
        ));
    }
    if overhead > 0.15 {
        out.doubts.push(format!(
            "tracing cost {:.1} % of engine time: the layer numbers are unreliable",
            overhead * 100.0
        ));
    }
    if matches!(l.workload.load, Load::Closed { .. }) && busy_share < 0.95 {
        out.doubts.push(format!(
            "engine calls cover only {:.1} % of wall time: the spans miss where time goes",
            busy_share * 100.0
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The result line parses back to exactly the contract's four keys,
    /// with every declared metric of the run's kind present by name.
    #[test]
    fn result_lines_round_trip_with_every_declared_name() {
        for (traced, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let outcome = Outcome {
                workload: "dense.batch",
                seed: 7,
                traced,
                correct: true,
                attempted: 1234,
                failed: 0,
                metrics: declared
                    .iter()
                    .enumerate()
                    .map(|(i, (name, _))| (*name, 1.5 + i as f64 / 7.0))
                    .collect(),
                checks: Vec::new(),
                doubts: Vec::new(),
                notes: Vec::new(),
            };
            let parsed = Json::parse(&outcome.result_line()).unwrap();
            let Json::Obj(fields) = &parsed else {
                panic!("result line is not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(parsed.get("attempted"), Some(&Json::Num(1234.0)));
            assert_eq!(parsed.get("failed"), Some(&Json::Num(0.0)));
            let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
                panic!("metrics is not an object");
            };
            assert_eq!(metrics.len(), declared.len());
            for (i, (name, unit)) in declared.iter().enumerate() {
                let m = parsed.get("metrics").unwrap().get(name).expect(name);
                assert_eq!(
                    m.get("value").and_then(Json::as_f64),
                    Some(1.5 + i as f64 / 7.0)
                );
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
            }
        }
    }
}
