//! Timing wrappers installed on a [`darkside_core::ModelBundle`]'s public
//! `scorer` and `graph` fields for the traced phase. Both forward every
//! call unchanged (the tests pin them bit-neutral), so a traced engine
//! answers exactly what an untraced one does.

use crate::spans::{Clock, Span};
use darkside_core::nn::{Frame, FrameScorer, Scores};
use darkside_core::wfst::{Arc as FstArc, GraphSource, MemoStats, SharedGraph, TropicalWeight};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which `serve.step` span is running, published by the stepping thread
/// so scoring calls made on shard threads can name their parent.
#[derive(Default)]
pub struct StepContext {
    span_id: AtomicU64,
    index: AtomicU64,
}

impl StepContext {
    pub fn enter(&self, span_id: u64, index: u64) {
        self.span_id.store(span_id, Ordering::SeqCst);
        self.index.store(index, Ordering::SeqCst);
    }
}

/// Records one `scorer.score_frames` span per call, child of the running
/// `serve.step`.
pub struct TimedScorer {
    inner: Arc<dyn FrameScorer + Send + Sync>,
    clock: Arc<Clock>,
    step: Arc<StepContext>,
    // One short lock per scoring call (at most one per shard per step);
    // the two shard threads meet here a few thousand times a second.
    spans: Mutex<Vec<Span>>,
}

impl TimedScorer {
    pub fn new(
        inner: Arc<dyn FrameScorer + Send + Sync>,
        clock: Arc<Clock>,
        step: Arc<StepContext>,
    ) -> Self {
        Self {
            inner,
            clock,
            step,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("scorer span log poisoned"))
    }
}

impl FrameScorer for TimedScorer {
    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn score_frames(&self, frames: &[Frame]) -> Scores {
        let start_ns = self.clock.now_ns();
        let scores = self.inner.score_frames(frames);
        let end_ns = self.clock.now_ns();
        let span = Span {
            id: self.clock.next_id(),
            name: "scorer.score_frames",
            start_ns,
            end_ns,
            parent: self.step.span_id.load(Ordering::SeqCst),
            request: self.step.index.load(Ordering::SeqCst),
            frames: frames.len() as u64,
        };
        self.spans
            .lock()
            .expect("scorer span log poisoned")
            .push(span);
        scores
    }
}

/// One in this many `expand` calls is timed; the exact call count comes
/// from `DecodeStats` (a frame expands every token alive before it).
const EXPAND_SAMPLE_EVERY: u32 = 64;

thread_local! {
    /// Calls since this thread's last timed `expand`.
    static EXPAND_TICK: Cell<u32> = const { Cell::new(0) };
}

/// Times a sample of `expand` calls. A span per call would cost more than
/// an eager expansion itself, so the wrapper keeps two sums instead.
pub struct TimedGraph {
    inner: SharedGraph,
    timed_calls: AtomicU64,
    timed_ns: AtomicU64,
}

impl TimedGraph {
    pub fn new(inner: SharedGraph) -> Self {
        Self {
            inner,
            timed_calls: AtomicU64::new(0),
            timed_ns: AtomicU64::new(0),
        }
    }

    /// `(timed calls, their total ns)` since construction.
    pub fn timing(&self) -> (u64, u64) {
        (
            self.timed_calls.load(Ordering::SeqCst),
            self.timed_ns.load(Ordering::SeqCst),
        )
    }
}

impl GraphSource for TimedGraph {
    fn start(&self) -> Option<u32> {
        self.inner.start()
    }

    fn num_states(&self) -> usize {
        self.inner.num_states()
    }

    fn max_ilabel(&self) -> u32 {
        self.inner.max_ilabel()
    }

    fn is_input_eps_free(&self) -> bool {
        self.inner.is_input_eps_free()
    }

    fn final_weight(&self, state: u32) -> TropicalWeight {
        self.inner.final_weight(state)
    }

    #[inline]
    fn expand<'a>(&'a self, state: u32, scratch: &'a mut Vec<FstArc>) -> &'a [FstArc] {
        let tick = EXPAND_TICK.with(|t| {
            let n = t.get() + 1;
            t.set(if n == EXPAND_SAMPLE_EVERY { 0 } else { n });
            n
        });
        if tick != EXPAND_SAMPLE_EVERY {
            return self.inner.expand(state, scratch);
        }
        let t0 = Instant::now();
        let arcs = self.inner.expand(state, scratch);
        let ns = t0.elapsed().as_nanos() as u64;
        // Relaxed: two statistics, read only after the engine is idle.
        self.timed_calls.fetch_add(1, Ordering::Relaxed);
        self.timed_ns.fetch_add(ns, Ordering::Relaxed);
        arcs
    }

    fn is_final(&self, state: u32) -> bool {
        self.inner.is_final(state)
    }

    fn memo_stats(&self) -> Option<MemoStats> {
        self.inner.memo_stats()
    }
}

/// What an empty timed section reads on this host (median of many), to be
/// taken off each timed `expand` — an eager expansion is a slice borrow,
/// shorter than the two clock reads around it.
pub fn timer_overhead_ns() -> f64 {
    let mut reads: Vec<f64> = (0..2001)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    reads.sort_by(f64::total_cmp);
    reads[reads.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkside_core::{Pipeline, PipelineConfig, ServableSpec};

    #[test]
    fn wrappers_are_bit_neutral() {
        let pipeline = Pipeline::build(PipelineConfig::smoke().with_training(1, 0)).unwrap();
        let bundle = pipeline.servable(ServableSpec::dense()).unwrap();
        let clock = Arc::new(Clock::new());
        let step = Arc::new(StepContext::default());
        step.enter(7, 3);
        let scorer = TimedScorer::new(bundle.scorer.clone(), clock, step);
        let utt = &pipeline.test_set()[0];
        let plain = bundle.scorer.score_frames(&utt.frames);
        let timed = scorer.score_frames(&utt.frames);
        let bits = |s: &Scores| -> Vec<u32> {
            (0..s.num_frames())
                .flat_map(|i| {
                    s.probs
                        .row(i)
                        .iter()
                        .map(|p| p.to_bits())
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        assert_eq!(bits(&plain), bits(&timed));
        assert_eq!(scorer.input_dim(), bundle.scorer.input_dim());
        assert_eq!(scorer.num_classes(), bundle.scorer.num_classes());
        let spans = scorer.take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].parent, spans[0].request), (7, 3));
        assert_eq!(spans[0].frames, utt.frames.len() as u64);
        assert!(spans[0].end_ns >= spans[0].start_ns);

        // Same arcs in the same order for every state, timed call or not.
        let graph = TimedGraph::new(bundle.graph.clone());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let states = bundle.graph.num_states() as u32;
        assert!(states > EXPAND_SAMPLE_EVERY, "need a timed call in range");
        for state in 0..states {
            assert_eq!(
                graph.expand(state, &mut a),
                bundle.graph.expand(state, &mut b),
                "state {state}"
            );
            assert_eq!(graph.final_weight(state), bundle.graph.final_weight(state));
            assert_eq!(graph.is_final(state), bundle.graph.is_final(state));
        }
        assert_eq!(graph.start(), bundle.graph.start());
        assert_eq!(graph.num_states(), bundle.graph.num_states());
        assert_eq!(graph.max_ilabel(), bundle.graph.max_ilabel());
        assert_eq!(graph.is_input_eps_free(), bundle.graph.is_input_eps_free());
        assert_eq!(graph.memo_stats(), bundle.graph.memo_stats());
        assert_eq!(graph.timing().0, u64::from(states / EXPAND_SAMPLE_EVERY));
    }
}
