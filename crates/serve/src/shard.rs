//! One scheduler shard (ISSUE 7 tentpole): an independent session table
//! with its own micro-batch loop and its own metrics sink.
//!
//! Each [`Shard`] is the ISSUE 5 scheduler's inner cycle, minus the
//! admission bookkeeping (which stays global in
//! [`crate::ShardedScheduler`]):
//!
//! ```text
//!  sessions (id order)          gather ≤ max_batch_frames, fair share
//!  s0: [f f f] ──┐
//!  s4: [f f]   ──┼──► one FrameScorer::score_frames(batch)   (the GEMM
//!  s8: [f f f] ──┘        │                                   amortization)
//!                         ▼
//!                 acoustic_costs → per-session row ranges
//!                         │
//!                 fan out over `workers` threads
//!                         │
//!                 reap finished → ServedResult
//! ```
//!
//! The shard owns a [`SharedRecorder`] and installs it ambiently for the
//! whole step, so every `decode.frame.*` / `serve.batch.*` event lands in
//! the shard's own sink — stepping N shards in parallel contends on **no
//! shared mutex**; the engine merges the per-shard histograms only when
//! admission asks for the fleet-wide p99 or a report is assembled.

use crate::session::{ServedResult, Session, SessionId};
use darkside_decoder::{acoustic_costs, BeamConfig};
use darkside_nn::{Frame, FrameScorer, Matrix};
use darkside_trace::{self as trace, Recorder as _, SharedRecorder};
use std::sync::Arc;

/// What one [`Shard::step`] did, for the engine's global accounting.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ShardStep {
    /// Frames scored in this shard's micro-batch (0 = idle).
    pub scored_frames: usize,
    /// Sessions that contributed frames to the batch.
    pub batch_sessions: usize,
    /// Sessions finalized this step.
    pub completed: usize,
    /// Of those, sessions that ended in a search error.
    pub failed: usize,
    /// Of those, sessions the detector flagged in this same step — reaped
    /// before the scheduler's sweep could downgrade them, so the shard
    /// counts the flag itself (see [`Shard::reap`]).
    pub flagged: usize,
    /// Queue budget stranded in reaped sessions (frames that died
    /// un-scored); the engine hands it back to admission.
    pub freed_unscored: usize,
}

/// An independent slice of the serving engine: session table, micro-batch
/// loop, worker fan-out, and a private metrics sink.
pub(crate) struct Shard {
    scorer: Arc<dyn FrameScorer + Send + Sync>,
    beam: BeamConfig,
    workers: usize,
    max_batch_frames: usize,
    /// Live sessions in ascending id order (home placement appends —
    /// per-shard ids are monotonic; steals insert sorted).
    sessions: Vec<Session>,
    /// Finalized results awaiting collection by the engine.
    pub(crate) completed: Vec<ServedResult>,
    /// This shard's private sink; never locked by another shard's step.
    pub(crate) recorder: SharedRecorder,
}

impl Shard {
    /// `recorder` is this shard's private sink — the engine passes a
    /// windowed one when live telemetry is configured
    /// ([`crate::ServeConfig::telemetry`]), a plain cumulative one
    /// otherwise.
    pub(crate) fn new(
        scorer: Arc<dyn FrameScorer + Send + Sync>,
        beam: BeamConfig,
        workers: usize,
        max_batch_frames: usize,
        recorder: SharedRecorder,
    ) -> Self {
        Self {
            scorer,
            beam,
            workers,
            max_batch_frames,
            sessions: Vec::new(),
            completed: Vec::new(),
            recorder,
        }
    }

    /// Insert a session, keeping ascending id order (steals and restores
    /// land mid-table).
    pub(crate) fn adopt(&mut self, session: Session) {
        let pos = self.sessions.partition_point(|s| s.id() < session.id());
        self.sessions.insert(pos, session);
    }

    /// Remove and return a session (the steal/checkpoint path).
    pub(crate) fn export(&mut self, id: SessionId) -> Option<Session> {
        self.sessions
            .binary_search_by_key(&id, Session::id)
            .ok()
            .map(|i| self.sessions.remove(i))
    }

    pub(crate) fn session(&self, id: SessionId) -> Option<&Session> {
        self.sessions
            .binary_search_by_key(&id, Session::id)
            .ok()
            .map(|i| &self.sessions[i])
    }

    pub(crate) fn session_mut(&mut self, id: SessionId) -> Option<&mut Session> {
        self.sessions
            .binary_search_by_key(&id, Session::id)
            .ok()
            .map(|i| &mut self.sessions[i])
    }

    pub(crate) fn len(&self) -> usize {
        self.sessions.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    pub(crate) fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.sessions.iter()
    }

    pub(crate) fn sessions_mut(&mut self) -> impl Iterator<Item = &mut Session> {
        self.sessions.iter_mut()
    }

    /// Un-scored frames ready across all sessions — the work-stealing
    /// pressure signal.
    pub(crate) fn ready_frames(&self) -> usize {
        self.sessions.iter().map(Session::ready).sum()
    }

    /// Sessions with at least one ready frame.
    pub(crate) fn ready_sessions(&self) -> usize {
        self.sessions.iter().filter(|s| s.ready() > 0).count()
    }

    /// The session a thief should take: the ready session holding the
    /// most un-scored frames (ties break to the smallest id, so the pick
    /// is deterministic).
    pub(crate) fn steal_candidate(&self) -> Option<SessionId> {
        self.sessions
            .iter()
            .filter(|s| s.ready() > 0)
            .max_by(|a, b| a.ready().cmp(&b.ready()).then(b.id().cmp(&a.id())))
            .map(Session::id)
    }

    /// One micro-batch cycle, with this shard's recorder installed as the
    /// ambient sink for every event: reap → gather → score once → fan out
    /// → reap.
    pub(crate) fn step(&mut self) -> ShardStep {
        let recorder = self.recorder.clone();
        recorder.scoped(|| {
            let mut out = ShardStep::default();
            self.reap(&mut out);
            self.run_batch(&mut out);
            self.reap(&mut out);
            out
        })
    }

    /// Gather a fair micro-batch, score it in one call, advance every
    /// contributing session over its rows, and record the per-frame
    /// latency estimate this shard is delivering (`elapsed / frames`,
    /// weighted by frames — the histogram SLO admission reads).
    fn run_batch(&mut self, out: &mut ShardStep) {
        let ready = self.ready_sessions();
        if ready == 0 {
            return;
        }
        let t0 = trace::now_ns();
        // Fair share: the batch cap divides across ready sessions (≥ 1
        // frame each), so one long utterance cannot starve the rest.
        let fair = (self.max_batch_frames / ready).max(1);
        let mut batch: Vec<Frame> = Vec::new();
        let mut parts: Vec<(usize, usize, usize)> = Vec::new(); // (session idx, row0, rows)
        for (i, s) in self.sessions.iter_mut().enumerate() {
            if batch.len() >= self.max_batch_frames {
                break;
            }
            let room = self.max_batch_frames - batch.len();
            let frames = s.take_ready(fair.min(room));
            if frames.is_empty() {
                continue;
            }
            parts.push((i, batch.len(), frames.len()));
            batch.extend(frames);
        }
        let scored = batch.len();
        let costs = {
            let _s = trace::span!("serve.score");
            let scores = self.scorer.score_frames(&batch);
            acoustic_costs(&scores, &self.beam)
        };
        self.fan_out(&parts, &costs);
        let elapsed = trace::now_ns().saturating_sub(t0);
        if scored > 0 {
            self.recorder.sample_n(
                "serve.frame.ns",
                elapsed as f64 / scored as f64,
                scored as u64,
            );
        }
        trace::sample("serve.batch.frames", scored as f64);
        trace::sample("serve.batch.sessions", parts.len() as f64);
        out.scored_frames = scored;
        out.batch_sessions = parts.len();
    }

    /// Advance each contributing session over its slice of the scored
    /// batch, split across this shard's workers. Sessions are independent
    /// decoders, so the split is embarrassingly parallel; each worker
    /// re-installs the shard recorder so per-frame metrics aggregate.
    fn fan_out(&mut self, parts: &[(usize, usize, usize)], costs: &Matrix) {
        // Disjoint &mut Session in parts order, from one sweep.
        let mut work: Vec<(&mut Session, usize, usize)> = Vec::with_capacity(parts.len());
        let mut want = parts.iter().peekable();
        for (i, s) in self.sessions.iter_mut().enumerate() {
            match want.peek() {
                Some(&&(pi, row0, rows)) if pi == i => {
                    want.next();
                    work.push((s, row0, rows));
                }
                _ => {}
            }
        }
        let workers = self.workers.min(work.len()).max(1);
        if workers == 1 {
            for (s, row0, rows) in &mut work {
                s.advance_rows(costs, *row0..*row0 + *rows);
            }
            return;
        }
        let chunk = work.len().div_ceil(workers);
        trace::counter("serve.threads_spawned", work.len().div_ceil(chunk) as u64);
        std::thread::scope(|scope| {
            for piece in work.chunks_mut(chunk) {
                let recorder = self.recorder.clone();
                scope.spawn(move || {
                    recorder.scoped(|| {
                        for (s, row0, rows) in piece.iter_mut() {
                            s.advance_rows(costs, *row0..*row0 + *rows);
                        }
                    })
                });
            }
        });
    }

    /// Finalize every done session: export its trace metrics, move its
    /// result to the completed queue, report freed budget upward.
    fn reap(&mut self, out: &mut ShardStep) {
        let mut i = 0;
        while i < self.sessions.len() {
            if !self.sessions[i].is_done() {
                i += 1;
                continue;
            }
            let s = self.sessions.remove(i);
            // An errored session may die with un-scored frames buffered;
            // the engine hands their queue budget back.
            out.freed_unscored += s.pending_unscored();
            let t0 = s.submitted_ns();
            let served = s.finalize();
            if served.decode.is_err() {
                out.failed += 1;
                trace::counter("serve.session.failed", 1);
            } else {
                trace::counter("serve.session.completed", 1);
            }
            trace::counter("serve.session.frames", served.frames as u64);
            trace::sample("serve.session.latency_ns", served.latency_ns as f64);
            // A session can flag and finish inside one step (the whole
            // utterance fit the batch cap): it is reaped before the
            // scheduler's flag sweep runs, so the flag is counted here —
            // there is nothing left to downgrade, but the ledgers must
            // still see it. Swept sessions are excluded (`degraded` is set
            // by the sweep that already counted them).
            if !served.degraded {
                if let Some(at) = served.flagged_at {
                    trace::counter("serve.detector.flagged", 1);
                    trace::sample("serve.detector.frames_to_flag", at as f64);
                    out.flagged += 1;
                }
            }
            // The per-session span: recorded with the session's own
            // submit→final timestamps on the shard sink (the ambient RAII
            // span API cannot backdate an enter).
            let t1 = t0 + served.latency_ns;
            self.recorder.span_enter("serve.session", 1, t0);
            self.recorder.span_exit("serve.session", 1, t0, t1);
            self.completed.push(served);
            out.completed += 1;
        }
    }
}
