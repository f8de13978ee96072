//! # darkside-serve — sharded streaming ASR serving engine (ISSUE 5 + 7)
//!
//! The paper's observation — pruning inflates per-frame Viterbi work and
//! blows up tail latency — only matters *operationally* when the pruned
//! model is serving live traffic. This crate turns the offline
//! reproduction into that serving context, with the workspace's
//! no-external-deps rule intact (std threads + mutexes only):
//!
//! * a [`Session`] holds one live utterance: an owning
//!   [`darkside_decoder::SearchCore`] (`Arc<Fst>`) plus its per-utterance
//!   [`darkside_decoder::PruningPolicy`], accepts feature frames
//!   incrementally, and yields partial
//!   ([`darkside_decoder::PartialHypothesis`]) and final
//!   ([`ServedResult`]) hypotheses; sessions checkpoint to bytes at frame
//!   boundaries ([`SessionCheckpoint`]) and restore on any shard with
//!   bit-identical results;
//! * a [`ShardedScheduler`] spreads sessions over
//!   [`ServeConfig::shards`] independent shards (home shard =
//!   `session id % shards`), each with its own session table, micro-batch
//!   loop, and metrics sink — shards step in parallel with **no shared
//!   mutex on the hot path**, and a dry shard steals ready sessions from
//!   the busiest one ([`ServeConfig::steal_threshold`]);
//! * an [`AdmissionController`] enforces session/queue budgets *and* a
//!   live latency SLO ([`ServeConfig::slo_p99_ms`], read from the shards'
//!   `serve.frame.ns` histograms): past-budget or past-2×SLO offers fail
//!   with a typed [`darkside_error::RejectReason`], borderline ones are
//!   served degraded (narrowed beam + bounded loose N-best — the paper's
//!   own mitigation for pruning-inflated search).
//!
//! The model enters as a [`darkside_core::ModelBundle`] — the servable
//! export of a finished `Pipeline` via
//! [`darkside_core::Pipeline::servable`] — so the engine serves dense and
//! pruned scorers through the identical path, which is what makes the
//! paper's served-p99-vs-sparsity story measurable (`darkside-bench --bin
//! serve_load`).
//!
//! ## Quickstart
//!
//! ```no_run
//! use darkside_core::{Pipeline, PipelineConfig, ServableSpec};
//! use darkside_serve::{ServeConfig, ShardedScheduler};
//!
//! let pipeline = Pipeline::build(PipelineConfig::smoke()).unwrap();
//! let bundle = pipeline.servable(ServableSpec::pruned(0.9)).unwrap();
//! let cfg = ServeConfig::default()
//!     .with_shards(4)
//!     .with_slo_p99_ms(20.0);
//! let mut engine = ShardedScheduler::build(bundle, cfg).unwrap();
//! # let utterance_frames = Vec::new();
//! match engine.offer(utterance_frames) {
//!     Ok(response) => {
//!         while engine.active_sessions() > 0 {
//!             engine.step().unwrap();
//!         }
//!         let served = engine.take_completed();
//!         println!(
//!             "{}: {:?}",
//!             response.id(),
//!             served[0].decode.as_ref().unwrap().words
//!         );
//!     }
//!     Err(e) => eprintln!("shed: {:?}", e.reject_reason()),
//! }
//! ```

pub mod admission;
pub mod checkpoint;
pub mod exporter;
pub mod session;
mod shard;
pub mod sharded;

pub use admission::{Admission, AdmissionController};
pub use checkpoint::SessionCheckpoint;
pub use darkside_error::RejectReason;
pub use exporter::{Exporter, Exposition};
pub use session::{ServedResult, Session, SessionHealth, SessionId};
pub use sharded::{EngineStats, ShardedScheduler, StepStats, SubmitResponse};

use darkside_error::Error;
use darkside_trace::WindowConfig;

/// Per-session dark-side detector knobs (ISSUE 9): when to flag a live
/// session as exhibiting the paper's pruning pathology — score-margin
/// collapse and/or hypothesis blowup past a multiple of the dense
/// baseline. A session is flagged after [`DetectorConfig::window_frames`]
/// *consecutive* unhealthy frames (a streak, so one noisy frame never
/// flags), and a flagged session is downgraded to the bounded N-best
/// degrade tier — counted and typed, never silently.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectorConfig {
    /// Workload check: a frame is unhealthy when its live hypothesis count
    /// exceeds `hyps_multiple ×` the bundle's dense baseline
    /// (`ModelBundle::dense_hyps_baseline`; a non-positive baseline
    /// disables this check). The paper measures 3.63× at 90 % sparsity —
    /// the default 2.0 sits between healthy dense variance and that.
    pub hyps_multiple: f64,
    /// Confidence check: a frame is unhealthy when its best-vs-runner-up
    /// cost margin falls below this floor (the live analogue of the
    /// paper's softmax-confidence collapse). 0 disables the check
    /// (margins are non-negative).
    pub margin_floor: f32,
    /// Consecutive unhealthy frames before the session is flagged.
    pub window_frames: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            hyps_multiple: 2.0,
            margin_floor: 0.0,
            window_frames: 8,
        }
    }
}

impl DetectorConfig {
    pub fn with_hyps_multiple(mut self, hyps_multiple: f64) -> Self {
        self.hyps_multiple = hyps_multiple;
        self
    }

    pub fn with_margin_floor(mut self, margin_floor: f32) -> Self {
        self.margin_floor = margin_floor;
        self
    }

    pub fn with_window_frames(mut self, window_frames: u32) -> Self {
        self.window_frames = window_frames;
        self
    }

    fn validate(&self) -> Result<(), Error> {
        let fail = |detail: String| Err(Error::config("DetectorConfig", detail));
        if !(self.hyps_multiple.is_finite() && self.hyps_multiple > 1.0) {
            return fail(format!(
                "hyps_multiple {} must exceed 1",
                self.hyps_multiple
            ));
        }
        if !(self.margin_floor.is_finite() && self.margin_floor >= 0.0) {
            return fail(format!(
                "margin_floor {} must be finite ≥ 0",
                self.margin_floor
            ));
        }
        if self.window_frames == 0 {
            return fail("zero window_frames".into());
        }
        Ok(())
    }
}

/// Serving-engine knobs (validated at [`ShardedScheduler::build`], mirror
/// of the `PipelineConfig` builder idiom): shard/worker topology,
/// micro-batch cap, admission budgets, and the latency SLO.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeConfig {
    /// Independent scheduler shards; sessions hash onto them by id and
    /// shards step in parallel. Every shard after the first gets one
    /// long-lived stepping thread, started at
    /// [`ShardedScheduler::build`] and joined when the engine drops (one
    /// shard starts none). Default: one per available core, capped at 8.
    pub shards: usize,
    /// Decode worker threads **per shard** for the post-score fan-out.
    /// The default 1 keeps each shard single-threaded (parallelism comes
    /// from the shards themselves).
    pub workers: usize,
    /// Admission budget: maximum concurrent sessions, engine-wide.
    pub max_sessions: usize,
    /// Admission budget: maximum un-scored feature frames buffered across
    /// all sessions (bounds memory under overload — offers beyond it are
    /// rejected, never queued).
    pub max_queue_frames: usize,
    /// Micro-batch cap: at most this many frames are scored per shard per
    /// [`ShardedScheduler::step`], shared fairly across ready sessions.
    pub max_batch_frames: usize,
    /// Occupancy fraction of either budget beyond which newly admitted
    /// sessions are degraded (narrowed beam + bounded N-best policy)
    /// rather than served at full quality.
    pub degrade_fraction: f64,
    /// Per-frame p99 latency target, milliseconds. When set, admission
    /// reads the live `serve.frame.ns` p99 from the shard histograms:
    /// past the target new sessions degrade, past 2× they are rejected
    /// with [`RejectReason::SloBreach`]. `None` disables SLO admission.
    pub slo_p99_ms: Option<f64>,
    /// Work stealing: a shard with no ready frames steals a session from
    /// the busiest shard, provided the donor has at least this many ready
    /// frames (and ≥ 2 ready sessions, so stealing never ping-pongs a
    /// lone session). 0 disables stealing.
    pub steal_threshold: usize,
    /// Per-session dark-side detector (ISSUE 9). `None` (the default)
    /// disables it entirely: sessions carry no health state and decode
    /// bit-for-bit as before.
    pub detector: Option<DetectorConfig>,
    /// Sliding-window telemetry (ISSUE 9). When set, every shard recorder
    /// (and the scheduler's own) keeps windowed counter/histogram views
    /// with this geometry alongside the cumulative ones, and
    /// [`ShardedScheduler::telemetry`] reports live rates over the window.
    /// `None` (the default) keeps recorders cumulative-only.
    pub telemetry: Option<WindowConfig>,
    /// Metrics exposition endpoint (ISSUE 9). When set, the scheduler
    /// starts a background [`Exporter`] bound to `127.0.0.1:port` (0 picks
    /// an ephemeral port — read it back via
    /// [`ShardedScheduler::exporter_addr`]) serving the fleet-wide merged
    /// snapshot as Prometheus text (`GET /metrics`) and a JSONL event
    /// stream (`GET /events`).
    pub exporter_port: Option<u16>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            shards: cores.min(8),
            workers: 1,
            max_sessions: 64,
            max_queue_frames: 16_384,
            max_batch_frames: 512,
            degrade_fraction: 0.75,
            slo_p99_ms: None,
            steal_threshold: 32,
            detector: None,
            telemetry: None,
            exporter_port: None,
        }
    }
}

impl ServeConfig {
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    pub fn with_max_sessions(mut self, max_sessions: usize) -> Self {
        self.max_sessions = max_sessions;
        self
    }

    pub fn with_max_queue_frames(mut self, max_queue_frames: usize) -> Self {
        self.max_queue_frames = max_queue_frames;
        self
    }

    pub fn with_max_batch_frames(mut self, max_batch_frames: usize) -> Self {
        self.max_batch_frames = max_batch_frames;
        self
    }

    pub fn with_degrade_fraction(mut self, degrade_fraction: f64) -> Self {
        self.degrade_fraction = degrade_fraction;
        self
    }

    pub fn with_slo_p99_ms(mut self, slo_p99_ms: f64) -> Self {
        self.slo_p99_ms = Some(slo_p99_ms);
        self
    }

    pub fn with_steal_threshold(mut self, steal_threshold: usize) -> Self {
        self.steal_threshold = steal_threshold;
        self
    }

    pub fn with_detector(mut self, detector: DetectorConfig) -> Self {
        self.detector = Some(detector);
        self
    }

    pub fn with_telemetry(mut self, window: WindowConfig) -> Self {
        self.telemetry = Some(window);
        self
    }

    pub fn with_exporter_port(mut self, port: u16) -> Self {
        self.exporter_port = Some(port);
        self
    }

    pub(crate) fn validate(&self) -> Result<(), Error> {
        let fail = |detail: String| Err(Error::config("ServeConfig", detail));
        if self.shards == 0 {
            return fail("zero shards".into());
        }
        if self.workers == 0 {
            return fail("zero workers".into());
        }
        if self.max_sessions == 0 {
            return fail("zero max_sessions".into());
        }
        if self.max_batch_frames == 0 {
            return fail("zero max_batch_frames".into());
        }
        if self.max_queue_frames == 0 {
            return fail("zero max_queue_frames".into());
        }
        if !(0.0..=1.0).contains(&self.degrade_fraction) {
            return fail(format!("degrade_fraction {}", self.degrade_fraction));
        }
        if let Some(slo) = self.slo_p99_ms {
            if !(slo.is_finite() && slo > 0.0) {
                return fail(format!("slo_p99_ms {slo} is not a positive duration"));
            }
        }
        if let Some(detector) = &self.detector {
            detector.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_rejects_zero_budgets() {
        assert!(ServeConfig::default().validate().is_ok());
        for bad in [
            ServeConfig::default().with_shards(0),
            ServeConfig::default().with_workers(0),
            ServeConfig::default().with_max_sessions(0),
            ServeConfig::default().with_max_batch_frames(0),
            ServeConfig::default().with_max_queue_frames(0),
            ServeConfig::default().with_degrade_fraction(1.5),
            ServeConfig::default().with_degrade_fraction(-0.1),
            ServeConfig::default().with_slo_p99_ms(0.0),
            ServeConfig::default().with_slo_p99_ms(f64::NAN),
            ServeConfig::default().with_detector(DetectorConfig::default().with_hyps_multiple(1.0)),
            ServeConfig::default()
                .with_detector(DetectorConfig::default().with_hyps_multiple(f64::NAN)),
            ServeConfig::default().with_detector(DetectorConfig::default().with_margin_floor(-1.0)),
            ServeConfig::default()
                .with_detector(DetectorConfig::default().with_margin_floor(f32::INFINITY)),
            ServeConfig::default().with_detector(DetectorConfig::default().with_window_frames(0)),
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn builder_chain_sets_every_knob() {
        let cfg = ServeConfig::default()
            .with_shards(3)
            .with_workers(2)
            .with_max_sessions(10)
            .with_max_queue_frames(100)
            .with_max_batch_frames(32)
            .with_degrade_fraction(0.5)
            .with_slo_p99_ms(12.5)
            .with_steal_threshold(7)
            .with_detector(
                DetectorConfig::default()
                    .with_hyps_multiple(3.0)
                    .with_margin_floor(0.25)
                    .with_window_frames(16),
            )
            .with_telemetry(WindowConfig::of_seconds(4.0, 8))
            .with_exporter_port(0);
        assert_eq!(cfg.shards, 3);
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.max_sessions, 10);
        assert_eq!(cfg.max_queue_frames, 100);
        assert_eq!(cfg.max_batch_frames, 32);
        assert_eq!(cfg.degrade_fraction, 0.5);
        assert_eq!(cfg.slo_p99_ms, Some(12.5));
        assert_eq!(cfg.steal_threshold, 7);
        let detector = cfg.detector.expect("detector set");
        assert_eq!(detector.hyps_multiple, 3.0);
        assert_eq!(detector.margin_floor, 0.25);
        assert_eq!(detector.window_frames, 16);
        assert_eq!(cfg.telemetry, Some(WindowConfig::of_seconds(4.0, 8)));
        assert_eq!(cfg.exporter_port, Some(0));
        assert!(cfg.validate().is_ok());
    }
}
