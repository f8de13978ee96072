//! The sharded serving runtime (ISSUE 7 tentpole): shard-per-core
//! scheduling with work stealing, SLO-aware admission, and session
//! checkpoint/restore.
//!
//! A [`ShardedScheduler`] owns [`crate::ServeConfig::shards`] independent
//! [`Shard`]s. A session's **home shard** is `id % shards`; each
//! [`ShardedScheduler::step`] runs three phases:
//!
//! 1. **rebalance** — single-threaded, cheap: every shard with zero ready
//!    frames steals one ready session from the busiest shard (donor must
//!    hold ≥ [`crate::ServeConfig::steal_threshold`] ready frames across
//!    ≥ 2 ready sessions, so a lone session never ping-pongs);
//! 2. **shard stepping** — every non-empty shard runs its micro-batch
//!    cycle, each recording into its own sink (**no shared mutex on the
//!    hot path**). The first busy shard steps on the calling thread; every
//!    other busy shard is handed by value to its own long-lived thread,
//!    started at [`ShardedScheduler::build`] and joined when the engine
//!    drops — a step never spawns a thread;
//! 3. **bookkeeping** — scored/freed frames and closed sessions are
//!    reported to the global [`AdmissionController`], results are swept
//!    into the completed queue.
//!
//! Admission reads the fleet-wide per-frame p99 by merging the shards'
//! `serve.frame.ns` histograms ([`darkside_trace::LogHistogram::merge`] is
//! exact) — so when a pruning-inflated search blows the tail, new offers
//! degrade and then shed with [`darkside_error::RejectReason::SloBreach`]
//! *before* the queue budget ever fills (latency-first shedding, the
//! serving-side moral of the paper's Fig. 5).
//!
//! Checkpoint/restore ([`ShardedScheduler::checkpoint`] /
//! [`ShardedScheduler::restore`]) serializes a live session at a frame
//! boundary and revives it on any engine serving the same bundle; the
//! restored session finishes bit-for-bit identical to an uninterrupted
//! run (`tests/checkpoint_restore.rs`).

use crate::admission::{Admission, AdmissionController};
use crate::checkpoint::SessionCheckpoint;
use crate::exporter::{Exporter, Exposition};
use crate::session::{ServedResult, Session, SessionId};
use crate::shard::{Shard, ShardStep};
use crate::ServeConfig;
use darkside_core::{ModelBundle, PolicyKind};
use darkside_decoder::{BeamConfig, PartialHypothesis};
use darkside_error::{Error, RejectReason};
use darkside_nn::Frame;
use darkside_trace::{
    self as trace, render_prometheus, Json, LogHistogram, MetricsSnapshot, Recorder as _,
    SharedRecorder, TelemetrySnapshot,
};
use darkside_viterbi_accel::NBestTableConfig;
use darkside_wfst::MemoStats;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The degraded-service table: small enough to bind (cap per-frame work)
/// even on smoke-scale graphs, 8-way like the paper's Table III.
const DEGRADED_TABLE: NBestTableConfig = NBestTableConfig {
    entries: 64,
    ways: 8,
};

/// How much the beam narrows for degraded sessions.
const DEGRADED_BEAM_SCALE: f32 = 0.5;

/// SLO admission holds until this many `serve.frame.ns` samples exist
/// fleet-wide, so a cold engine's first noisy batches cannot shed traffic.
const SLO_WARMUP_SAMPLES: u64 = 64;

/// How often (at most) the stepping thread re-renders the fleet snapshot
/// for the exposition endpoint. Publishing walks every recorder, so it is
/// throttled off the hot path; scrapes between publishes see the last
/// rendered snapshot.
const PUBLISH_INTERVAL_NS: u64 = 50_000_000;

/// How long either side of a shard hand-off polls its channel before it
/// blocks. A step carries only tens of frames, and a thread woken from a
/// blocking wait takes tens of µs to come back — so the spin is what keeps
/// the hand-off cheap. 500 µs covers about nine in ten gaps between steps
/// under the open-loop benchmark load on a 2-vCPU host. The bound, and the
/// yield between polls, keep a host with fewer cores than runnable threads
/// making progress.
const HANDOFF_SPIN: Duration = Duration::from_micros(500);

/// The engine's answer to an admitted utterance offer. Rejections are not
/// a variant: [`ShardedScheduler::offer`] returns them as typed
/// `Err(Error::Rejected { .. })` values (ISSUE 7 API redesign), so the
/// happy path always carries a [`SessionId`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitResponse {
    /// Full-quality service under the bundle's policy.
    Admitted(SessionId),
    /// Served, but under the narrowed beam + bounded N-best policy.
    Degraded(SessionId),
}

impl SubmitResponse {
    /// The opened session's id.
    pub fn id(&self) -> SessionId {
        match *self {
            SubmitResponse::Admitted(id) | SubmitResponse::Degraded(id) => id,
        }
    }

    pub fn is_degraded(&self) -> bool {
        matches!(self, SubmitResponse::Degraded(_))
    }
}

/// What one [`ShardedScheduler::step`] did, summed across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Frames scored across every shard's micro-batch (0 = idle step).
    pub scored_frames: usize,
    /// Sessions that contributed frames to some batch.
    pub batch_sessions: usize,
    /// Sessions finalized this step.
    pub completed: usize,
    /// Sessions moved between shards by work stealing this step.
    pub steals: usize,
    /// Sessions the dark-side detector flagged (and downgraded) this step.
    pub flagged: usize,
}

/// Cumulative engine counters (monotonic over the engine's life).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    pub steps: u64,
    /// Non-empty shard micro-batches.
    pub batches: u64,
    pub scored_frames: u64,
    pub completed: u64,
    /// Sessions that ended in a search error.
    pub failed: u64,
    /// Sessions moved between shards by work stealing.
    pub steals: u64,
    /// Sessions serialized out by [`ShardedScheduler::checkpoint`].
    pub checkpoints: u64,
    /// Sessions revived by [`ShardedScheduler::restore`].
    pub restores: u64,
    pub peak_active_sessions: usize,
    /// Largest single-shard micro-batch.
    pub peak_batch_frames: usize,
    /// Sessions flagged by the dark-side detector over the engine's life.
    pub flagged: u64,
}

/// The sharded streaming inference engine: global admission control in
/// front of per-shard session tables, stepped in parallel micro-batch
/// cycles.
pub struct ShardedScheduler {
    bundle: ModelBundle,
    degraded_bundle: ModelBundle,
    cfg: ServeConfig,
    admission: AdmissionController,
    shards: Vec<Shard>,
    /// One stepping thread per shard after the first: `threads[i - 1]`
    /// steps `shards[i]`. Empty with a single shard.
    threads: Vec<ShardThread>,
    next_id: u64,
    completed: Vec<ServedResult>,
    stats: EngineStats,
    /// The engine's own sink (windowed when telemetry is on): memo-cache
    /// and detector counters that belong to no single shard. Merged into
    /// [`ShardedScheduler::metrics`] alongside the shard sinks.
    recorder: SharedRecorder,
    /// Memo-cache counters at the last step, for per-step deltas (the
    /// graph's [`MemoStats`] are cumulative over its lifetime and the
    /// graph is shared engine-wide, so the delta must be taken once per
    /// step, never per session).
    last_memo: MemoStats,
    /// The exposition endpoint, when [`ServeConfig::exporter_port`] is set.
    exporter: Option<Exporter>,
    /// `None` until the first publish (which is never throttled).
    last_publish_ns: Option<u64>,
}

impl ShardedScheduler {
    /// Build the engine from a servable bundle and a validated config.
    /// Invalid configs and unbuildable policies fail here, not
    /// per-admission.
    pub fn build(bundle: ModelBundle, cfg: ServeConfig) -> Result<Self, Error> {
        cfg.validate()?;
        bundle.build_policy()?;
        let degraded_bundle = degraded(&bundle);
        degraded_bundle.build_policy()?;
        let make_recorder = || match cfg.telemetry {
            Some(window) => SharedRecorder::windowed(window),
            None => SharedRecorder::new(),
        };
        let shards = (0..cfg.shards)
            .map(|_| {
                Shard::new(
                    bundle.scorer.clone(),
                    bundle.beam,
                    cfg.workers,
                    cfg.max_batch_frames,
                    make_recorder(),
                )
            })
            .collect();
        let recorder = make_recorder();
        let threads = (1..cfg.shards)
            .map(ShardThread::start)
            .collect::<Result<Vec<_>, _>>()?;
        recorder.counter("serve.threads_spawned", threads.len() as u64);
        let exporter = match cfg.exporter_port {
            Some(port) => {
                recorder.counter("serve.threads_spawned", 1);
                Some(Exporter::start(port)?)
            }
            None => None,
        };
        Ok(Self {
            admission: AdmissionController::new(&cfg),
            last_memo: bundle.graph.memo_stats().unwrap_or_default(),
            bundle,
            degraded_bundle,
            cfg,
            shards,
            threads,
            next_id: 0,
            completed: Vec::new(),
            stats: EngineStats::default(),
            recorder,
            exporter,
            last_publish_ns: None,
        })
    }

    /// Offer one whole utterance: admission decision, then (when served) a
    /// session carrying every frame with input already closed. The common
    /// path for request/response serving and the load generator. Shed
    /// offers return `Err` with a typed
    /// [`darkside_error::RejectReason`] — nothing was buffered.
    pub fn offer(&mut self, frames: Vec<Frame>) -> Result<SubmitResponse, Error> {
        let response = self.open(frames.len())?;
        let id = response.id();
        self.push(id, frames)?;
        self.close_input(id);
        Ok(response)
    }

    /// Open a streaming session expected to push about `frames_hint`
    /// frames (the admission queue check uses the hint; actual pushes are
    /// re-checked against the live budget).
    pub fn open(&mut self, frames_hint: usize) -> Result<SubmitResponse, Error> {
        let observed = self.slo_observation();
        match self.admission.offer(frames_hint, observed) {
            Err(e) => Err(self.count_rejection(e)),
            Ok(decision) => {
                let degraded = decision == Admission::Degraded;
                let bundle = if degraded {
                    &self.degraded_bundle
                } else {
                    &self.bundle
                };
                let id = SessionId(self.next_id);
                let mut session = Session::new(
                    id,
                    bundle.graph.clone(),
                    bundle.graph_kind,
                    bundle.precision,
                    bundle.build_policy()?,
                    degraded,
                )?;
                if let Some(detector) = self.cfg.detector {
                    session = session.with_detector(detector, bundle.dense_hyps_baseline);
                }
                self.next_id += 1;
                let home = self.home(id);
                self.shards[home].adopt(session);
                self.admission.on_open();
                self.stats.peak_active_sessions =
                    self.stats.peak_active_sessions.max(self.active_sessions());
                if degraded {
                    trace::counter("serve.degraded", 1);
                }
                Ok(if degraded {
                    SubmitResponse::Degraded(id)
                } else {
                    SubmitResponse::Admitted(id)
                })
            }
        }
    }

    /// Push frames into an open session. Fails (without buffering
    /// anything) when the session is unknown, a frame's dimensionality
    /// does not match the scorer, or the frames would exceed the queue
    /// budget — the latter as a typed
    /// [`darkside_error::RejectReason::QueueBudget`] rejection: explicit
    /// backpressure, never unbounded buffering.
    pub fn push(&mut self, id: SessionId, frames: Vec<Frame>) -> Result<(), Error> {
        let dim = self.bundle.scorer.input_dim();
        if let Some(bad) = frames.iter().find(|f| f.dim() != dim) {
            return Err(Error::shape(
                "serve.push",
                format!("frame dim {} but scorer expects {dim}", bad.dim()),
            ));
        }
        if !self.admission.queue_has_room(frames.len()) {
            let e = Error::rejected("serve.push", RejectReason::QueueBudget);
            return Err(self.count_rejection(e));
        }
        let shard = self
            .locate(id)
            .ok_or_else(|| Error::config("serve", format!("no live session {id}")))?;
        // `locate` just found the session on this shard.
        let session = self.shards[shard]
            .session_mut(id)
            .expect("located session exists");
        let n = frames.len();
        session.push(frames);
        self.admission.on_enqueue(n);
        Ok(())
    }

    /// Mark a session's input complete; it finalizes once scored through.
    /// Unknown ids are a no-op (the session may already have finished).
    pub fn close_input(&mut self, id: SessionId) {
        if let Some(shard) = self.locate(id) {
            if let Some(s) = self.shards[shard].session_mut(id) {
                s.close_input();
            }
        }
    }

    /// The best hypothesis a live session holds right now (`None` once the
    /// session has finalized — its result is in
    /// [`ShardedScheduler::take_completed`]).
    pub fn partial(&self, id: SessionId) -> Option<PartialHypothesis> {
        let shard = self.locate(id)?;
        self.shards[shard].session(id).map(Session::partial)
    }

    /// One engine cycle: rebalance (work stealing) → step every busy shard
    /// (in parallel when 2+ have sessions) → sweep results and report
    /// budget transitions to admission.
    pub fn step(&mut self) -> Result<StepStats, Error> {
        let _span = trace::span!("serve.step");
        self.stats.steps += 1;
        let steals = self.rebalance();
        let shard_steps = self.step_shards();
        let mut agg = StepStats {
            steals,
            ..StepStats::default()
        };
        for st in &shard_steps {
            agg.scored_frames += st.scored_frames;
            agg.batch_sessions += st.batch_sessions;
            agg.completed += st.completed;
            // Flags the shards counted at reap time (sessions that flagged
            // and finished inside this very step); the sweep below adds
            // the still-live ones it downgrades.
            agg.flagged += st.flagged;
            self.admission
                .on_scored(st.scored_frames + st.freed_unscored);
            for _ in 0..st.completed {
                self.admission.on_close();
            }
            self.stats.failed += st.failed as u64;
            if st.scored_frames > 0 {
                self.stats.batches += 1;
            }
            self.stats.peak_batch_frames = self.stats.peak_batch_frames.max(st.scored_frames);
        }
        self.stats.scored_frames += agg.scored_frames as u64;
        self.stats.completed += agg.completed as u64;
        self.stats.steals += steals as u64;
        agg.flagged += self.sweep_flagged()?;
        self.stats.flagged += agg.flagged as u64;
        self.record_memo_delta();
        for shard in &mut self.shards {
            self.completed.append(&mut shard.completed);
        }
        trace::gauge("serve.queue.depth", self.admission.queued_frames() as f64);
        trace::gauge("serve.sessions.active", self.active_sessions() as f64);
        self.publish_exposition(false);
        Ok(agg)
    }

    /// Graceful shutdown: stop admitting, close every session's input,
    /// step until every shard is empty, and hand back everything served.
    /// Terminates unconditionally — every remaining session either
    /// contributes to some shard's next batch or reaps as done, so each
    /// step makes progress no matter how sessions migrate.
    pub fn drain(&mut self) -> Result<Vec<ServedResult>, Error> {
        self.admission.begin_drain();
        for shard in &mut self.shards {
            for s in shard.sessions_mut() {
                s.close_input();
            }
        }
        while self.active_sessions() > 0 {
            self.step()?;
        }
        // Scrapers polling through a drain see the final state, not a
        // snapshot from up to one publish interval earlier.
        self.publish_exposition(true);
        Ok(self.take_completed())
    }

    /// Results finalized since the last call (submit order not guaranteed;
    /// each carries its [`SessionId`]).
    pub fn take_completed(&mut self) -> Vec<ServedResult> {
        for shard in &mut self.shards {
            self.completed.append(&mut shard.completed);
        }
        std::mem::take(&mut self.completed)
    }

    /// Serialize a live session out of the engine at the current frame
    /// boundary (destructive: its budget is released and the session is
    /// gone; see [`SessionCheckpoint`]). Errored sessions refuse — their
    /// result is already decided, reap it via [`ShardedScheduler::step`].
    pub fn checkpoint(&mut self, id: SessionId) -> Result<SessionCheckpoint, Error> {
        let shard = self
            .locate(id)
            .ok_or_else(|| Error::config("serve.checkpoint", format!("no live session {id}")))?;
        // `locate` just found the session on this shard.
        let ckpt = self.shards[shard]
            .session(id)
            .expect("located session exists")
            .checkpoint()?;
        // Nothing ran between `locate` and here to move the session away.
        let session = self.shards[shard]
            .export(id)
            .expect("located session exists");
        self.admission.on_scored(session.pending_unscored());
        self.admission.on_close();
        self.stats.checkpoints += 1;
        trace::counter("serve.checkpoint", 1);
        Ok(ckpt)
    }

    /// Revive a checkpointed session on this engine (its home shard here —
    /// any shard of any engine serving the same bundle works). Re-reserves
    /// the session + queue budget through admission
    /// ([`AdmissionController::readmit`]); the restored session finishes
    /// bit-for-bit identical to an uninterrupted run.
    pub fn restore(&mut self, ckpt: &SessionCheckpoint) -> Result<SessionId, Error> {
        let id = ckpt.id();
        if self.locate(id).is_some() {
            return Err(Error::config(
                "serve.restore",
                format!("session {id} is already live on this engine"),
            ));
        }
        let bundle = if ckpt.degraded() {
            &self.degraded_bundle
        } else {
            &self.bundle
        };
        let mut session = Session::restore(
            ckpt,
            bundle.graph.clone(),
            bundle.graph_kind,
            bundle.precision,
            bundle.build_policy()?,
        )?;
        // Health is derived observation, not checkpoint state: a restored
        // session starts a fresh streak (and re-flags within one window if
        // the pathology persists).
        if let Some(detector) = self.cfg.detector {
            session = session.with_detector(detector, bundle.dense_hyps_baseline);
        }
        if let Err(e) = self.admission.readmit(ckpt.pending_frames()) {
            return Err(self.count_rejection(e));
        }
        self.admission.on_open();
        self.admission.on_enqueue(ckpt.pending_frames());
        let home = self.home(id);
        self.shards[home].adopt(session);
        // Never mint a fresh id that collides with a restored one.
        self.next_id = self.next_id.max(id.0 + 1);
        self.stats.restores += 1;
        self.stats.peak_active_sessions =
            self.stats.peak_active_sessions.max(self.active_sessions());
        trace::counter("serve.restore", 1);
        Ok(id)
    }

    pub fn active_sessions(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    pub fn queued_frames(&self) -> usize {
        self.admission.queued_frames()
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    pub fn bundle(&self) -> &ModelBundle {
        &self.bundle
    }

    /// The fleet-wide per-frame p99, nanoseconds — the SLO signal, merged
    /// exactly from the per-shard `serve.frame.ns` histograms. `None`
    /// until any frame has been scored.
    pub fn frame_p99_ns(&self) -> Option<f64> {
        self.merged_frame_histogram().map(|h| h.quantile(0.99))
    }

    /// The union of every shard's metrics (counters add, histograms
    /// merge) plus the engine's own sink — one fleet-wide snapshot for
    /// reports.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.union_recorder().snapshot()
    }

    /// The fleet-wide [`TelemetrySnapshot`]: cumulative metrics plus, when
    /// [`ServeConfig::telemetry`] is set, the live windowed rates (the
    /// cross-shard window merge is exact — slots align on absolute time).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.union_recorder().telemetry_snapshot()
    }

    /// Where the exposition endpoint is listening (`None` when
    /// [`ServeConfig::exporter_port`] is unset). With port 0 this is how
    /// the caller learns the ephemeral port.
    pub fn exporter_addr(&self) -> Option<std::net::SocketAddr> {
        self.exporter.as_ref().map(Exporter::local_addr)
    }

    fn union_recorder(&self) -> SharedRecorder {
        let union = match self.cfg.telemetry {
            Some(window) => SharedRecorder::windowed(window),
            None => SharedRecorder::new(),
        };
        union.absorb(&self.recorder);
        for shard in &self.shards {
            union.absorb(&shard.recorder);
        }
        union
    }

    /// Detector bookkeeping, after the shards step: every freshly flagged
    /// session is downgraded to the degraded tier (fresh policy from the
    /// degraded bundle — policies are per-frame, so the swap takes over at
    /// the session's next advance), counted on its shard's sink and typed
    /// in admission. No-op when the detector is off.
    fn sweep_flagged(&mut self) -> Result<usize, Error> {
        if self.cfg.detector.is_none() {
            return Ok(0);
        }
        let mut flagged = 0;
        for shard in &mut self.shards {
            let recorder = shard.recorder.clone();
            for s in shard.sessions_mut() {
                if !s.needs_degrade() {
                    continue;
                }
                s.degrade(self.degraded_bundle.build_policy()?);
                recorder.counter("serve.detector.flagged", 1);
                if let Some(at) = s.flagged_at() {
                    recorder.sample("serve.detector.frames_to_flag", at as f64);
                }
                self.admission.on_detector_degrade();
                flagged += 1;
            }
        }
        Ok(flagged)
    }

    /// Surface the shared graph's memo-cache counters as per-step deltas
    /// (satellite of ISSUE 9): the graph is one engine-wide `Arc`, so the
    /// delta is taken once per step against [`Self::last_memo`] — never
    /// per session, which would multiply-count the shared cache. Eager
    /// graphs have no memo and skip this entirely.
    fn record_memo_delta(&mut self) {
        let Some(stats) = self.bundle.graph.memo_stats() else {
            return;
        };
        let last = std::mem::replace(&mut self.last_memo, stats);
        self.recorder
            .counter("wfst.memo.hits", stats.hits.saturating_sub(last.hits));
        self.recorder
            .counter("wfst.memo.misses", stats.misses.saturating_sub(last.misses));
        self.recorder.counter(
            "wfst.memo.evictions",
            stats.evictions.saturating_sub(last.evictions),
        );
        self.recorder
            .gauge("wfst.memo.resident_states", stats.resident as f64);
    }

    /// Re-render the fleet snapshot for the exposition endpoint, at most
    /// every [`PUBLISH_INTERVAL_NS`] (`force` skips the throttle — drain
    /// publishes the final state). No-op without an exporter.
    fn publish_exposition(&mut self, force: bool) {
        if self.exporter.is_none() {
            return;
        }
        let now = trace::now_ns();
        let throttled = self
            .last_publish_ns
            .is_some_and(|last| now.saturating_sub(last) < PUBLISH_INTERVAL_NS);
        if !force && throttled {
            return;
        }
        self.last_publish_ns = Some(now);
        let exposition = self.render_exposition();
        if let Some(exporter) = &self.exporter {
            exporter.publish(exposition);
        }
    }

    /// Render the fleet state in both exposition formats: Prometheus text
    /// (fleet-wide series, per-shard labelled series, and one
    /// `darkside_serve_session_frames` gauge per live session) and one
    /// JSONL event carrying the [`TelemetrySnapshot`] plus per-shard and
    /// per-session tables.
    fn render_exposition(&self) -> Exposition {
        use std::fmt::Write as _;
        let telemetry = self.telemetry();
        let mut prometheus = telemetry.to_prometheus();
        let mut shards_json = Vec::new();
        let mut sessions_json = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let label = i.to_string();
            render_prometheus(
                &mut prometheus,
                &shard.recorder.snapshot(),
                &[("shard", &label)],
            );
            shards_json.push(Json::obj(vec![
                ("shard", (i as u64).into()),
                ("sessions", (shard.len() as u64).into()),
                ("ready_frames", (shard.ready_frames() as u64).into()),
            ]));
            for s in shard.sessions() {
                let _ = writeln!(
                    prometheus,
                    "darkside_serve_session_frames{{shard=\"{i}\",session=\"{}\",\
                     degraded=\"{}\",flagged=\"{}\"}} {}",
                    s.id(),
                    s.is_degraded(),
                    s.flagged_at().is_some(),
                    s.frames_in(),
                );
                sessions_json.push(Json::obj(vec![
                    ("id", Json::Str(s.id().to_string())),
                    ("shard", (i as u64).into()),
                    ("frames_in", (s.frames_in() as u64).into()),
                    ("ready", (s.ready() as u64).into()),
                    ("degraded", s.is_degraded().into()),
                    (
                        "flagged_at",
                        match s.flagged_at() {
                            Some(at) => (at as u64).into(),
                            None => Json::Null,
                        },
                    ),
                ]));
            }
        }
        let event = Json::obj(vec![
            ("telemetry", telemetry.to_json()),
            ("shards", Json::Arr(shards_json)),
            ("sessions", Json::Arr(sessions_json)),
        ]);
        Exposition {
            prometheus,
            event_json: event.render(),
        }
    }

    fn home(&self, id: SessionId) -> usize {
        (id.0 % self.shards.len() as u64) as usize
    }

    /// Find the shard holding `id`: home first (the common case), then a
    /// scan (the session may have been stolen or restored elsewhere).
    fn locate(&self, id: SessionId) -> Option<usize> {
        let home = self.home(id);
        if self.shards[home].session(id).is_some() {
            return Some(home);
        }
        (0..self.shards.len()).find(|&i| i != home && self.shards[i].session(id).is_some())
    }

    /// The observed p99 admission should judge against: `None` when no
    /// SLO is configured (skip the histogram locks entirely) or while the
    /// fleet has fewer than [`SLO_WARMUP_SAMPLES`] frame samples.
    fn slo_observation(&self) -> Option<f64> {
        self.cfg.slo_p99_ms?;
        let merged = self.merged_frame_histogram()?;
        if merged.count() < SLO_WARMUP_SAMPLES {
            return None;
        }
        Some(merged.quantile(0.99))
    }

    fn merged_frame_histogram(&self) -> Option<LogHistogram> {
        let mut merged: Option<LogHistogram> = None;
        for shard in &self.shards {
            if let Some(h) = shard.recorder.histogram("serve.frame.ns") {
                match &mut merged {
                    Some(m) => m.merge(&h),
                    None => merged = Some(h),
                }
            }
        }
        merged.filter(|m| m.count() > 0)
    }

    /// Work stealing, phase 1 of [`ShardedScheduler::step`]: each shard
    /// with zero ready frames takes one ready session from the busiest
    /// shard — if that donor has at least
    /// [`crate::ServeConfig::steal_threshold`] ready frames spread over
    /// ≥ 2 ready sessions (never strand the donor, never ping-pong a lone
    /// session). Runs single-threaded between shard steps, so the hot
    /// path stays lock-free.
    fn rebalance(&mut self) -> usize {
        if self.cfg.steal_threshold == 0 || self.shards.len() < 2 {
            return 0;
        }
        let mut moved = 0;
        for thief in 0..self.shards.len() {
            if self.shards[thief].ready_frames() > 0 {
                continue;
            }
            let donor = (0..self.shards.len())
                .filter(|&i| i != thief)
                .filter(|&i| {
                    self.shards[i].ready_sessions() >= 2
                        && self.shards[i].ready_frames() >= self.cfg.steal_threshold
                })
                .max_by_key(|&i| self.shards[i].ready_frames());
            let Some(donor) = donor else { continue };
            let Some(victim) = self.shards[donor].steal_candidate() else {
                continue;
            };
            // `steal_candidate` just picked this id from the donor's table.
            let session = self.shards[donor]
                .export(victim)
                .expect("steal candidate exists");
            self.shards[thief].adopt(session);
            trace::counter("serve.steals", 1);
            moved += 1;
        }
        moved
    }

    /// Phase 2: run every non-empty shard's micro-batch cycle, each under
    /// its own shard sink. The first busy shard steps on the calling
    /// thread; every other busy shard is handed by value to its own
    /// long-lived thread (started at build, so no step spawns one) and
    /// comes back with its [`ShardStep`] before this returns. A panicking
    /// shard step loses no shard and no session: every shard is put back
    /// in place first, then the first panic resumes with its original
    /// payload.
    fn step_shards(&mut self) -> Vec<ShardStep> {
        let busy: Vec<usize> = (0..self.shards.len())
            .filter(|&i| !self.shards[i].is_empty())
            .collect();
        let Some((&first, rest)) = busy.split_first() else {
            return Vec::new();
        };
        if rest.is_empty() {
            return vec![self.shards[first].step()];
        }
        let mut slots: Vec<Option<Shard>> = std::mem::take(&mut self.shards)
            .into_iter()
            .map(Some)
            .collect();
        for &i in rest {
            // `busy` holds each index once, so the slot is still full.
            let shard = slots[i].take().expect("busy shard is in its slot");
            self.threads[i - 1].hand_off(shard);
        }
        let inline = slots[first]
            .as_mut()
            .expect("the inline shard never leaves its slot");
        let mut steps = vec![panic::catch_unwind(AssertUnwindSafe(|| inline.step()))];
        for &i in rest {
            let (shard, step) = self.threads[i - 1].take_back();
            slots[i] = Some(shard);
            steps.push(step);
        }
        self.shards = slots
            .into_iter()
            .map(|slot| slot.expect("every handed-off shard came back"))
            .collect();
        steps
            .into_iter()
            .collect::<std::thread::Result<_>>()
            .unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// Mirror a typed rejection into trace counters keyed by the same
    /// variant, then pass the error through.
    fn count_rejection(&mut self, e: Error) -> Error {
        if let Some(reason) = e.reject_reason() {
            trace::counter("serve.rejected", 1);
            match reason {
                RejectReason::Draining => trace::counter("serve.rejected.draining", 1),
                RejectReason::SessionBudget => trace::counter("serve.rejected.session_budget", 1),
                RejectReason::QueueBudget => trace::counter("serve.rejected.queue_budget", 1),
                RejectReason::SloBreach => trace::counter("serve.rejected.slo_breach", 1),
            }
        }
        e
    }
}

/// A shard plus what stepping it did (or the panic that cut it short).
type Stepped = (Shard, std::thread::Result<ShardStep>);

/// The long-lived stepping thread behind one shard after the first. The
/// shard travels by value over one channel and comes back over the other,
/// so no lock ever guards it; dropping the handle closes the inbound
/// channel, which ends the thread's loop, and joins it.
struct ShardThread {
    to_thread: Option<Sender<Shard>>,
    from_thread: Receiver<Stepped>,
    handle: Option<JoinHandle<()>>,
}

impl ShardThread {
    fn start(index: usize) -> Result<Self, Error> {
        let (to_thread, inbox) = mpsc::channel::<Shard>();
        let (outbox, from_thread) = mpsc::channel::<Stepped>();
        let handle = std::thread::Builder::new()
            .name(format!("darkside-shard-{index}"))
            .spawn(move || {
                while let Some(mut shard) = recv_spinning(&inbox) {
                    let step = panic::catch_unwind(AssertUnwindSafe(|| shard.step()));
                    if outbox.send((shard, step)).is_err() {
                        return;
                    }
                }
            })
            .map_err(|e| Error::config("serve", format!("start shard thread {index}: {e}")))?;
        Ok(Self {
            to_thread: Some(to_thread),
            from_thread,
            handle: Some(handle),
        })
    }

    fn hand_off(&self, shard: Shard) {
        self.to_thread
            .as_ref()
            .and_then(|tx| tx.send(shard).ok())
            // The thread only exits once `to_thread` is dropped, in `Drop`.
            .expect("shard thread is running");
    }

    fn take_back(&self) -> Stepped {
        // The thread catches every step's panic, so it always answers.
        recv_spinning(&self.from_thread).expect("shard thread answered")
    }
}

impl Drop for ShardThread {
    fn drop(&mut self) {
        drop(self.to_thread.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Wait for a hand-off: poll for up to [`HANDOFF_SPIN`], yielding the
/// core between polls, then block. `None` once the sending side is gone.
fn recv_spinning<T>(rx: &Receiver<T>) -> Option<T> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(value) => return Some(value),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if start.elapsed() < HANDOFF_SPIN => std::thread::yield_now(),
            Err(TryRecvError::Empty) => return rx.recv().ok(),
        }
    }
}

/// The degraded operating point: beam narrowed, policy downgraded to the
/// paper's bounded loose N-best (which caps per-frame survivors no matter
/// how much pruning inflated the search — exactly the property overload
/// shedding wants). A bundle already on N-best keeps its table geometry.
fn degraded(bundle: &ModelBundle) -> ModelBundle {
    let beam = BeamConfig {
        beam: bundle.beam.beam * DEGRADED_BEAM_SCALE,
        ..bundle.beam
    };
    let policy = match bundle.policy {
        PolicyKind::LooseNBest(cfg) => PolicyKind::LooseNBest(cfg),
        PolicyKind::Beam | PolicyKind::UnfoldHash(_) => PolicyKind::LooseNBest(DEGRADED_TABLE),
    };
    bundle.with_policy(policy, beam)
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkside_core::{Pipeline, PipelineConfig, ServableSpec};
    use darkside_nn::{FrameScorer, Rng, Scores};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// An untrained smoke pipeline: model quality is irrelevant to the
    /// scheduler mechanics, and skipping training keeps these tests fast.
    fn test_bundle() -> ModelBundle {
        let config = PipelineConfig::smoke().with_training(0, 0);
        Pipeline::build(config)
            .unwrap()
            .servable(ServableSpec::dense())
            .unwrap()
    }

    fn test_config() -> ServeConfig {
        // Deterministic shard count regardless of host cores.
        ServeConfig::default().with_shards(2)
    }

    fn utterances(bundle: &ModelBundle, n: usize, len: usize, seed: u64) -> Vec<Vec<Frame>> {
        let dim = bundle.scorer.input_dim();
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                (0..len)
                    .map(|_| Frame((0..dim).map(|_| rng.normal()).collect()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn serves_concurrent_sessions_to_completion_across_shards() {
        let bundle = test_bundle();
        let mut engine = ShardedScheduler::build(
            bundle.clone(),
            test_config().with_workers(2).with_max_batch_frames(16),
        )
        .unwrap();
        let utts = utterances(&bundle, 6, 11, 0xA);
        let mut ids = Vec::new();
        for u in utts {
            match engine.offer(u).unwrap() {
                SubmitResponse::Admitted(id) => ids.push(id),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(engine.active_sessions(), 6);
        // Sessions hashed onto both shards by id.
        assert_eq!(engine.shards[0].len(), 3);
        assert_eq!(engine.shards[1].len(), 3);
        let served = engine.drain().unwrap();
        assert_eq!(served.len(), 6);
        assert_eq!(engine.active_sessions(), 0);
        assert_eq!(engine.queued_frames(), 0);
        for r in &served {
            let d = r.decode.as_ref().unwrap();
            assert_eq!(d.stats.active_tokens.len(), 11);
            assert!(r.latency_ns > 0);
        }
        let mut served_ids: Vec<_> = served.iter().map(|r| r.id).collect();
        served_ids.sort();
        assert_eq!(served_ids, ids);
        let stats = engine.stats();
        assert_eq!(stats.scored_frames, 66);
        assert!(stats.peak_batch_frames <= 16);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.failed, 0);
        // Per-frame latency evidence accumulated across shard sinks.
        assert!(engine.frame_p99_ns().unwrap() > 0.0);
        assert_eq!(engine.metrics().counters["serve.session.completed"], 6);
    }

    #[test]
    fn over_budget_offers_are_typed_rejections_not_queued() {
        let bundle = test_bundle();
        let mut engine = ShardedScheduler::build(
            bundle.clone(),
            test_config()
                .with_max_sessions(3)
                .with_degrade_fraction(1.0),
        )
        .unwrap();
        let utts = utterances(&bundle, 5, 4, 0xB);
        let mut rejected = 0;
        for u in utts {
            if let Err(e) = engine.offer(u) {
                assert_eq!(e.reject_reason(), Some(RejectReason::SessionBudget));
                rejected += 1;
            }
        }
        assert_eq!(rejected, 2);
        assert_eq!(engine.active_sessions(), 3);
        // The budget frees as sessions finish; the engine drains clean.
        let served = engine.drain().unwrap();
        assert_eq!(served.len(), 3);
        assert_eq!(engine.admission().rejected(), 2);
        assert_eq!(
            engine.admission().rejections(RejectReason::SessionBudget),
            2
        );
    }

    /// Burns a fixed per-frame busy-wait on top of the real model, so the
    /// frame-latency tail blows an SLO deterministically.
    struct SlowScorer {
        inner: Arc<dyn FrameScorer + Send + Sync>,
        spin_ns_per_frame: u64,
    }

    impl FrameScorer for SlowScorer {
        fn input_dim(&self) -> usize {
            self.inner.input_dim()
        }

        fn num_classes(&self) -> usize {
            self.inner.num_classes()
        }

        fn score_frames(&self, frames: &[Frame]) -> Scores {
            let start = Instant::now();
            let out = self.inner.score_frames(frames);
            let budget = Duration::from_nanos(self.spin_ns_per_frame * frames.len() as u64);
            while start.elapsed() < budget {
                std::hint::spin_loop();
            }
            out
        }
    }

    #[test]
    fn slo_breach_sheds_offers_and_drains_what_was_admitted() {
        // A 0.05 ms/frame p99 target against a scorer that burns 0.4
        // ms/frame: once the warmup samples exist, every new offer is past
        // 2× the target and must be shed with the typed SloBreach reason,
        // while the sessions admitted during warmup still drain.
        let bundle = test_bundle();
        let slow = ModelBundle {
            scorer: Arc::new(SlowScorer {
                inner: bundle.scorer.clone(),
                spin_ns_per_frame: 400_000,
            }),
            ..bundle.clone()
        };
        let utts = utterances(&bundle, 24, 8, 0x5105);
        let mut engine = ShardedScheduler::build(
            slow,
            ServeConfig::default()
                .with_shards(1)
                .with_max_sessions(utts.len())
                .with_max_queue_frames(1 << 20)
                .with_degrade_fraction(1.0)
                .with_slo_p99_ms(0.05),
        )
        .unwrap();
        let mut slo_shed = 0;
        let mut other_rejects = 0;
        for u in utts {
            match engine.offer(u) {
                Ok(_) => {}
                Err(e) if e.reject_reason() == Some(RejectReason::SloBreach) => slo_shed += 1,
                Err(_) => other_rejects += 1,
            }
            // Step between offers so latency evidence accumulates while
            // load is still arriving.
            engine.step().unwrap();
        }
        let drained = engine.drain().unwrap().len() as u64;
        let admission = engine.admission();
        assert!(slo_shed > 0, "no offer was shed on SLO breach");
        assert_eq!(other_rejects, 0, "offers rejected for a non-SLO reason");
        assert_eq!(admission.rejections(RejectReason::SloBreach), slo_shed);
        assert_eq!(drained, admission.admitted() + admission.degraded());
    }

    #[test]
    fn overload_degrades_sessions_to_the_bounded_policy() {
        let bundle = test_bundle();
        let mut engine = ShardedScheduler::build(
            bundle.clone(),
            test_config()
                .with_max_sessions(4)
                .with_degrade_fraction(0.5),
        )
        .unwrap();
        let utts = utterances(&bundle, 4, 4, 0xC);
        let mut responses = Vec::new();
        for u in utts {
            responses.push(engine.offer(u).unwrap());
        }
        assert!(matches!(responses[0], SubmitResponse::Admitted(_)));
        assert!(matches!(responses[1], SubmitResponse::Admitted(_)));
        assert!(matches!(responses[2], SubmitResponse::Degraded(_)));
        assert!(matches!(responses[3], SubmitResponse::Degraded(_)));
        let served = engine.drain().unwrap();
        assert_eq!(served.iter().filter(|r| r.degraded).count(), 2);
        // Degraded sessions still produce decodes.
        for r in &served {
            assert!(r.decode.is_ok());
        }
    }

    #[test]
    fn streaming_push_partials_and_backpressure() {
        let bundle = test_bundle();
        let mut engine = ShardedScheduler::build(
            bundle.clone(),
            test_config()
                .with_max_queue_frames(8)
                .with_max_batch_frames(8)
                .with_degrade_fraction(1.0),
        )
        .unwrap();
        let id = engine.open(4).unwrap().id();
        let utt = utterances(&bundle, 1, 6, 0xD).pop().unwrap();
        engine.push(id, utt[..4].to_vec()).unwrap();
        // Over the queue budget: typed rejection, nothing buffered.
        let err = engine
            .push(id, utterances(&bundle, 1, 6, 0xE).pop().unwrap())
            .unwrap_err();
        assert_eq!(err.reject_reason(), Some(RejectReason::QueueBudget));
        engine.step().unwrap();
        let partial = engine.partial(id).unwrap();
        assert_eq!(partial.frames, 4);
        engine.push(id, utt[4..].to_vec()).unwrap();
        engine.close_input(id);
        let served = engine.drain().unwrap();
        assert_eq!(served.len(), 1);
        assert_eq!(served[0].frames, 6);
        assert!(engine.partial(id).is_none());
    }

    #[test]
    fn wrong_frame_dim_is_a_shape_error() {
        let bundle = test_bundle();
        let mut engine = ShardedScheduler::build(bundle, test_config()).unwrap();
        let id = engine.open(1).unwrap().id();
        let err = engine.push(id, vec![Frame(vec![0.0; 3])]).unwrap_err();
        assert!(matches!(err, Error::Shape { .. }));
        engine.close_input(id);
        assert_eq!(engine.drain().unwrap().len(), 1);
    }

    #[test]
    fn degraded_bundle_downgrades_beam_to_nbest() {
        let bundle = test_bundle();
        let d = degraded(&bundle);
        assert!(matches!(d.policy, PolicyKind::LooseNBest(_)));
        assert!((d.beam.beam - bundle.beam.beam * DEGRADED_BEAM_SCALE).abs() < 1e-6);
        assert_eq!(d.beam.acoustic_scale, bundle.beam.acoustic_scale);
    }

    #[test]
    fn dry_shards_steal_from_the_busiest_donor() {
        let bundle = test_bundle();
        // 4 shards, stealing kicks in at 2 ready frames. Open ids 0..4 so
        // every shard holds exactly one home session, then feed frames
        // only to the shard-0 and shard-1 sessions — shards 2/3 are dry.
        let mut engine = ShardedScheduler::build(
            bundle.clone(),
            ServeConfig::default()
                .with_shards(4)
                .with_steal_threshold(2)
                .with_max_batch_frames(2)
                .with_degrade_fraction(1.0),
        )
        .unwrap();
        let utts = utterances(&bundle, 2, 12, 0xF);
        let mut ids = Vec::new();
        for (i, u) in utts.into_iter().enumerate() {
            // Sessions 0 and 1: long utterances, still streaming (input
            // open, so they stay alive as frames drain).
            let id = engine.open(12).unwrap().id();
            assert_eq!(id.0, i as u64);
            engine.push(id, u).unwrap();
            ids.push(id);
        }
        // Two more sessions (home shards 2 and 3) with no frames at all.
        for _ in 0..2 {
            engine.open(0).unwrap();
        }
        assert_eq!(engine.shards[2].ready_frames(), 0);
        // Shards 2 and 3 are dry but there is only ONE ready session per
        // busy shard — no ping-pong of a lone session.
        let st = engine.step().unwrap();
        assert_eq!(st.steals, 0);
        // Now pile a second ready session onto shard 0: donor has 2 ready
        // sessions and enough frames, so a dry shard may steal.
        let id4 = engine.open(12).unwrap().id();
        assert_eq!(engine.home(id4), 0);
        engine
            .push(id4, utterances(&bundle, 1, 12, 0x10).pop().unwrap())
            .unwrap();
        let st = engine.step().unwrap();
        assert!(st.steals > 0, "dry shard should have stolen: {st:?}");
        assert!(engine.stats().steals > 0);
        // Stolen sessions remain addressable (locate scans past home).
        for id in ids {
            engine.close_input(id);
        }
        engine.close_input(id4);
        for i in 0..4u64 {
            engine.close_input(SessionId(i + 2));
        }
        let served = engine.drain().unwrap();
        assert_eq!(served.len(), 5);
    }

    #[test]
    fn checkpoint_releases_budget_and_restore_reclaims_it() {
        let bundle = test_bundle();
        let mut engine = ShardedScheduler::build(
            bundle.clone(),
            test_config()
                .with_max_sessions(2)
                .with_max_batch_frames(4)
                .with_degrade_fraction(1.0),
        )
        .unwrap();
        let utt = utterances(&bundle, 1, 9, 0x11).pop().unwrap();
        let id = engine.offer(utt).unwrap().id();
        engine.step().unwrap();
        let queued_before = engine.queued_frames();
        let ckpt = engine.checkpoint(id).unwrap();
        assert_eq!(engine.active_sessions(), 0);
        assert_eq!(engine.queued_frames(), 0);
        assert!(queued_before >= ckpt.pending_frames());
        // Unknown id now.
        assert!(engine.checkpoint(id).is_err());
        // Restore revives it; double-restore is rejected.
        let back = engine.restore(&ckpt).unwrap();
        assert_eq!(back, id);
        assert!(engine.restore(&ckpt).is_err());
        assert_eq!(engine.queued_frames(), ckpt.pending_frames());
        let served = engine.drain().unwrap();
        assert_eq!(served.len(), 1);
        assert_eq!(served[0].frames, 9);
        assert!(served[0].decode.is_ok());
        let stats = engine.stats();
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(stats.restores, 1);
    }

    #[test]
    fn lazy_graph_memo_counters_surface_per_step() {
        // A lazy-composed graph has a memo; serving must surface its
        // traffic as engine-level counters (ISSUE 9 satellite). The delta
        // baseline is taken at build, so the servable-export probe decode
        // does not leak into serving counters.
        let config = PipelineConfig::smoke()
            .with_training(0, 0)
            .with_lazy_graph(256);
        let bundle = Pipeline::build(config)
            .unwrap()
            .servable(ServableSpec::dense())
            .unwrap();
        let mut engine = ShardedScheduler::build(bundle.clone(), test_config()).unwrap();
        for u in utterances(&bundle, 2, 6, 0x20) {
            engine.offer(u).unwrap();
        }
        engine.drain().unwrap();
        let metrics = engine.metrics();
        let hits = metrics.counters.get("wfst.memo.hits").copied().unwrap_or(0);
        let misses = metrics
            .counters
            .get("wfst.memo.misses")
            .copied()
            .unwrap_or(0);
        assert!(
            hits + misses > 0,
            "lazy serving must touch the memo: {:?}",
            metrics.counters
        );
        assert!(
            metrics.gauges.contains_key("wfst.memo.resident_states"),
            "{:?}",
            metrics.gauges
        );
        // An eager engine surfaces none of this.
        let eager = test_bundle();
        let mut engine = ShardedScheduler::build(eager.clone(), test_config()).unwrap();
        for u in utterances(&eager, 1, 4, 0x21) {
            engine.offer(u).unwrap();
        }
        engine.drain().unwrap();
        assert!(!engine.metrics().counters.contains_key("wfst.memo.hits"));
    }

    #[test]
    fn shard_threads_start_at_build_not_per_step() {
        let bundle = test_bundle();
        let threads_spawned = |engine: &ShardedScheduler| {
            engine
                .metrics()
                .counters
                .get("serve.threads_spawned")
                .copied()
                .unwrap_or(0)
        };
        for (shards, spawned) in [(2, 1), (1, 0)] {
            let mut engine = ShardedScheduler::build(
                bundle.clone(),
                ServeConfig::default()
                    .with_shards(shards)
                    .with_max_batch_frames(2 / shards),
            )
            .unwrap();
            // Ids 0 and 1 land on shards 0 and 1 (both on shard 0 with one
            // shard); one frame per session per step keeps every shard
            // busy for all 200 steps.
            for u in utterances(&bundle, 2, 200, 0x30) {
                engine.offer(u).unwrap();
            }
            for _ in 0..200 {
                assert_eq!(engine.step().unwrap().scored_frames, 2);
            }
            assert_eq!(engine.drain().unwrap().len(), 2);
            assert_eq!(threads_spawned(&engine), spawned, "{shards} shard(s)");
        }
    }

    /// Panics with `"scorer call {k}"` on its `k`-th call made from a
    /// shard thread (`on_shard_thread`) or from the stepping thread.
    struct PanicOnCall {
        inner: Arc<dyn FrameScorer + Send + Sync>,
        k: usize,
        on_shard_thread: bool,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl FrameScorer for PanicOnCall {
        fn input_dim(&self) -> usize {
            self.inner.input_dim()
        }

        fn num_classes(&self) -> usize {
            self.inner.num_classes()
        }

        fn score_frames(&self, frames: &[Frame]) -> Scores {
            let current = std::thread::current();
            let on_shard_thread = current
                .name()
                .is_some_and(|n| n.starts_with("darkside-shard-"));
            if on_shard_thread == self.on_shard_thread {
                let call = 1 + self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if call == self.k {
                    std::panic::panic_any(format!("scorer call {call}"));
                }
            }
            self.inner.score_frames(frames)
        }
    }

    #[test]
    fn a_panicking_shard_step_loses_no_session_and_hangs_no_thread() {
        let bundle = test_bundle();
        for on_shard_thread in [true, false] {
            let faulty = ModelBundle {
                scorer: Arc::new(PanicOnCall {
                    inner: bundle.scorer.clone(),
                    k: 3,
                    on_shard_thread,
                    calls: Default::default(),
                }),
                ..bundle.clone()
            };
            let mut engine = ShardedScheduler::build(
                faulty,
                test_config()
                    .with_max_batch_frames(2)
                    .with_degrade_fraction(1.0),
            )
            .unwrap();
            for u in utterances(&bundle, 4, 8, 0x31) {
                engine.offer(u).unwrap();
            }
            let before = engine.active_sessions();
            let payload = (0..8)
                .find_map(|_| std::panic::catch_unwind(AssertUnwindSafe(|| engine.step())).err())
                .expect("the third scorer call panics within 8 steps");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("scorer call 3"),
                "on_shard_thread = {on_shard_thread}"
            );
            assert_eq!(engine.active_sessions(), before);
            assert_eq!(engine.shard_count(), 2);
            // Dropping joins the shard thread; the test returning proves
            // nothing hangs.
            drop(engine);
        }
    }

    #[test]
    fn fresh_ids_never_collide_with_restored_sessions() {
        let bundle = test_bundle();
        let mut engine = ShardedScheduler::build(bundle.clone(), test_config()).unwrap();
        let utt = utterances(&bundle, 1, 5, 0x12).pop().unwrap();
        let id = engine.offer(utt).unwrap().id();
        let ckpt = engine.checkpoint(id).unwrap();
        // A second engine restores the session, then opens new ones.
        let mut other = ShardedScheduler::build(bundle, test_config()).unwrap();
        other.restore(&ckpt).unwrap();
        let fresh = other.open(0).unwrap().id();
        assert!(fresh.0 > id.0, "fresh {fresh} collides with restored {id}");
        other.close_input(fresh);
        let served = other.drain().unwrap();
        assert_eq!(served.len(), 2);
    }
}
