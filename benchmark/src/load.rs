//! The two load generators and the meter every engine call goes through.
//!
//! * Closed loop (`*.batch`): a fixed number of whole-utterance offers in
//!   flight; a client sends its next utterance when one completes.
//! * Open loop (`*.live`): callers stream 10-frame chunks in real time on
//!   a schedule fixed by the seed before the run; nothing in it waits for
//!   the engine, and latency counts from the moment a chunk was *due*.
//!
//! One thread drives the engine, as the serving API intends (`step` fans
//! out to shard threads itself).

use crate::spans::{Clock, Span, NO_PARENT};
use crate::wrappers::StepContext;
use darkside_core::acoustic::Utterance;
use darkside_core::decoder::DecodeResult;
use darkside_core::nn::Rng;
use darkside_serve::{ServedResult, SessionId, ShardedScheduler};
use std::collections::HashMap;
use std::time::Duration;

/// Frames per streamed chunk and the real-time gap between chunks: ten
/// 10 ms frames every 100 ms.
pub const CHUNK_FRAMES: usize = 10;
pub const CHUNK_PERIOD_NS: u64 = 100_000_000;
/// Longest pause a caller takes between utterances (uniform from zero).
const MAX_THINK_NS: u64 = 200_000_000;
/// Open loop only: schedule time before the measured window opens, so the
/// window starts on a fleet already in steady state.
pub const PREROLL_NS: u64 = 1_000_000_000;

/// The engine calls the meter tells apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Offer,
    Open,
    Push,
    CloseInput,
    Step,
    TakeCompleted,
}

impl Call {
    const KINDS: usize = Call::TakeCompleted as usize + 1;

    fn span_name(self) -> &'static str {
        match self {
            Call::Offer => "serve.offer",
            Call::Open => "serve.open",
            Call::Push => "serve.push",
            Call::CloseInput => "serve.close_input",
            Call::Step => "serve.step",
            Call::TakeCompleted => "serve.take_completed",
        }
    }
}

/// Times every engine call: always a count and a total per kind (two
/// clock reads against calls of microseconds to milliseconds), and a span
/// per call when tracing.
pub struct Meter<'a> {
    clock: &'a Clock,
    totals: [(u64, u64); Call::KINDS],
    tracing: Option<Tracing<'a>>,
}

struct Tracing<'a> {
    spans: Vec<Span>,
    step: &'a StepContext,
}

impl<'a> Meter<'a> {
    pub fn untraced(clock: &'a Clock) -> Self {
        Self {
            clock,
            totals: Default::default(),
            tracing: None,
        }
    }

    pub fn traced(clock: &'a Clock, step: &'a StepContext) -> Self {
        Self {
            clock,
            totals: Default::default(),
            tracing: Some(Tracing {
                spans: Vec::new(),
                step,
            }),
        }
    }

    /// Run one engine call. `request` is the span's request id (step
    /// index or session id; [`Meter::tag_last`] fills it in afterwards
    /// when the call itself mints the id).
    fn call<T>(&mut self, kind: Call, request: u64, frames: u64, f: impl FnOnce() -> T) -> T {
        let id = match &self.tracing {
            Some(t) => {
                let id = self.clock.next_id();
                if kind == Call::Step {
                    t.step.enter(id, request);
                }
                id
            }
            None => NO_PARENT,
        };
        let start_ns = self.clock.now_ns();
        let out = f();
        let end_ns = self.clock.now_ns();
        let total = &mut self.totals[kind as usize];
        total.0 += 1;
        total.1 += end_ns - start_ns;
        if let Some(t) = &mut self.tracing {
            t.spans.push(Span {
                id,
                name: kind.span_name(),
                start_ns,
                end_ns,
                parent: NO_PARENT,
                request,
                frames,
            });
        }
        out
    }

    fn tag_last(&mut self, request: u64, frames: u64) {
        if let Some(span) = self.tracing.as_mut().and_then(|t| t.spans.last_mut()) {
            span.request = request;
            span.frames = frames;
        }
    }

    /// `(calls, total ns)` of one kind.
    pub fn total(&self, kind: Call) -> (u64, u64) {
        self.totals[kind as usize]
    }

    /// Time spent inside engine calls of any kind.
    pub fn busy_ns(&self) -> u64 {
        self.totals.iter().map(|t| t.1).sum()
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        self.tracing
            .as_mut()
            .map_or_else(Vec::new, |t| std::mem::take(&mut t.spans))
    }
}

/// One utterance that came back.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    pub utt: u32,
    pub frames: u32,
    pub latency_ns: u64,
    /// When it came back, ns after the measured window opened.
    pub done_ns: u64,
    /// Finished inside the measured window (the others finished during
    /// pre-roll or drain and count for the output checks only).
    pub in_window: bool,
}

/// Search-effort sums over every served frame, from `DecodeStats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchTotals {
    pub frames: u64,
    pub arcs_expanded: u64,
    pub tokens_alive: u64,
    /// `expand` calls: one per token alive going into each frame.
    pub expand_calls: u64,
    pub evictions: u64,
    pub table_occupancy: u64,
}

impl SearchTotals {
    pub fn add(&mut self, result: &DecodeResult) {
        let stats = &result.stats;
        let alive: u64 = stats.active_tokens.iter().map(|&n| n as u64).sum();
        self.frames += stats.active_tokens.len() as u64;
        self.arcs_expanded += stats.arcs_expanded.iter().map(|&n| n as u64).sum::<u64>();
        self.tokens_alive += alive;
        // Frame 0 expands the start token; frame t the survivors of t − 1.
        if let Some(&last) = stats.active_tokens.last() {
            self.expand_calls += 1 + alive - last as u64;
        }
        self.evictions += stats.evictions;
        self.table_occupancy += stats.table_occupancy.iter().map(|&n| n as u64).sum::<u64>();
    }
}

/// Everything one phase of load observed.
#[derive(Default)]
pub struct Phase {
    /// Length of the measured window, and of the whole phase (the window
    /// plus any pre-roll and the drain).
    pub window_ns: u64,
    pub wall_ns: u64,
    pub completions: Vec<Completion>,
    /// Words of the first completion of each utterance index.
    pub first_words: HashMap<u32, Vec<u32>>,
    /// Later completions of an utterance whose words differed from its
    /// first (the engine must be deterministic per utterance).
    pub unstable_repeats: u64,
    pub search: SearchTotals,
    pub offered_utterances: u64,
    pub offered_frames: u64,
    pub served_frames: u64,
    /// Offers or pushes the engine refused, plus sessions that came back
    /// with a decode error.
    pub failed: u64,
    /// `(scored_frames, batch_sessions)` of every step that scored.
    pub steps: Vec<(u32, u32)>,
    pub steals: u64,
    /// Open loop: `(time, queued_frames())`, sampled every millisecond.
    pub queue_depth: Vec<(u64, u32)>,
    /// Open loop: how late each chunk was pushed, ns after it was due.
    pub late_ns: Vec<f64>,
}

struct InFlight {
    utt: u32,
    /// Closed loop: when `offer` was called. Open loop: when the last
    /// chunk was due.
    since_ns: u64,
}

/// Book-keeping shared by both generators.
struct Driver<'a, 'm> {
    engine: &'a mut ShardedScheduler,
    clock: &'a Clock,
    meter: &'a mut Meter<'m>,
    phase: Phase,
    live: HashMap<SessionId, InFlight>,
    step_index: u64,
    window: (u64, u64),
}

impl<'a, 'm> Driver<'a, 'm> {
    fn new(
        engine: &'a mut ShardedScheduler,
        clock: &'a Clock,
        meter: &'a mut Meter<'m>,
        window: (u64, u64),
    ) -> Self {
        Self {
            engine,
            clock,
            meter,
            phase: Phase {
                window_ns: window.1 - window.0,
                ..Phase::default()
            },
            live: HashMap::new(),
            step_index: 0,
            window,
        }
    }

    fn in_window(&self, t_ns: u64) -> bool {
        (self.window.0..=self.window.1).contains(&t_ns)
    }

    /// One `step` + `take_completed`, folding what came back into the
    /// phase record.
    fn step_and_collect(&mut self) {
        let engine = &mut *self.engine;
        let stats = self
            .meter
            .call(Call::Step, self.step_index, 0, || engine.step())
            .expect("engine step failed");
        self.meter
            .tag_last(self.step_index, stats.scored_frames as u64);
        self.step_index += 1;
        let done = self
            .meter
            .call(Call::TakeCompleted, 0, 0, || engine.take_completed());
        let now = self.clock.now_ns();
        if stats.scored_frames > 0 {
            self.phase
                .steps
                .push((stats.scored_frames as u32, stats.batch_sessions as u32));
        }
        self.phase.steals += stats.steals as u64;
        for result in done {
            self.collect(result, now);
        }
    }

    fn collect(&mut self, result: ServedResult, now: u64) {
        let Some(flight) = self.live.remove(&result.id) else {
            return;
        };
        self.phase.served_frames += result.frames as u64;
        match result.decode {
            Ok(decode) => {
                self.phase.search.add(&decode);
                match self.phase.first_words.get(&flight.utt) {
                    Some(first) if *first != decode.words => self.phase.unstable_repeats += 1,
                    Some(_) => {}
                    None => {
                        self.phase.first_words.insert(flight.utt, decode.words);
                    }
                }
            }
            Err(_) => self.phase.failed += 1,
        }
        self.phase.completions.push(Completion {
            utt: flight.utt,
            frames: result.frames as u32,
            latency_ns: now.saturating_sub(flight.since_ns),
            done_ns: now.saturating_sub(self.window.0),
            in_window: self.in_window(now),
        });
    }
}

/// Closed loop: keep `in_flight` whole-utterance offers outstanding for
/// `duration`, replaying `utterances` round-robin from `*next`; then stop
/// offering and let the rest finish.
pub fn run_closed(
    engine: &mut ShardedScheduler,
    clock: &Clock,
    meter: &mut Meter<'_>,
    utterances: &[Utterance],
    next: &mut usize,
    in_flight: usize,
    stop: Stop,
) -> Phase {
    let t0 = clock.now_ns();
    let deadline = match stop {
        Stop::After(duration) => t0 + duration.as_nanos() as u64,
        Stop::AfterOffers(_) => u64::MAX,
    };
    let mut d = Driver::new(engine, clock, meter, (t0, deadline));
    loop {
        let offering = match stop {
            Stop::After(_) => clock.now_ns() < deadline,
            Stop::AfterOffers(n) => d.phase.offered_utterances < n as u64,
        };
        while offering && d.live.len() < in_flight {
            let utt = *next % utterances.len();
            *next += 1;
            // The copy is the client's cost, made before its clock starts.
            let frames = utterances[utt].frames.clone();
            let count = frames.len() as u64;
            d.phase.offered_utterances += 1;
            d.phase.offered_frames += count;
            let since_ns = clock.now_ns();
            let engine = &mut *d.engine;
            match d.meter.call(Call::Offer, 0, count, || engine.offer(frames)) {
                Ok(response) => {
                    let id = response.id();
                    d.meter.tag_last(id.0, count);
                    d.live.insert(
                        id,
                        InFlight {
                            utt: utt as u32,
                            since_ns,
                        },
                    );
                }
                Err(_) => {
                    d.phase.failed += 1;
                    d.phase.offered_frames -= count;
                    break;
                }
            }
        }
        if !offering && d.live.is_empty() {
            break;
        }
        d.step_and_collect();
    }
    d.phase.wall_ns = clock.now_ns() - t0;
    if let Stop::AfterOffers(_) = stop {
        d.phase.window_ns = d.phase.wall_ns;
    }
    d.phase
}

/// When a closed-loop phase stops offering.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this much wall time (a measured phase).
    After(Duration),
    /// After this many offers (warm-up: work, not time, so a faster
    /// system warms up sooner).
    AfterOffers(usize),
}

/// One chunk of one caller's stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// When the caller sends it, ns from the start of the schedule.
    pub due_ns: u64,
    pub caller: u32,
    pub utt: u32,
    /// Frame range of the utterance this chunk carries.
    pub from: u32,
    pub to: u32,
}

impl Chunk {
    pub fn is_first(&self) -> bool {
        self.from == 0
    }
}

/// The open-loop schedule: every chunk every caller sends, sorted by due
/// time. A pure function of its arguments — the engine never sees the
/// seed and the schedule never sees the engine. Caller `c` starts at a
/// random offset inside the pre-roll, speaks utterances `c, c + callers,
/// …` (mod the set) in real time, pauses a random think gap after each,
/// and starts no utterance at or after `horizon_ns`.
pub fn open_schedule(
    seed: u64,
    callers: usize,
    utterance_frames: &[usize],
    horizon_ns: u64,
) -> Vec<Chunk> {
    let mut rng = Rng::new(seed ^ 0x0b5e_55ed_ca11_e125);
    let mut chunks = Vec::new();
    for caller in 0..callers {
        let mut t = (rng.next_f64() * PREROLL_NS as f64) as u64;
        let mut turn = 0usize;
        while t < horizon_ns {
            let utt = (caller + turn * callers) % utterance_frames.len();
            turn += 1;
            let frames = utterance_frames[utt];
            let mut from = 0;
            while from < frames {
                let to = (from + CHUNK_FRAMES).min(frames);
                chunks.push(Chunk {
                    due_ns: t,
                    caller: caller as u32,
                    utt: utt as u32,
                    from: from as u32,
                    to: to as u32,
                });
                from = to;
                // A chunk is sent once its last frame has been spoken.
                t += CHUNK_PERIOD_NS;
            }
            t += (rng.next_f64() * MAX_THINK_NS as f64) as u64;
        }
    }
    chunks.sort_by_key(|c| (c.due_ns, c.caller));
    chunks
}

/// How late a chunk due at `due_ns` was when handled at `now_ns`.
pub fn lateness_ns(due_ns: u64, now_ns: u64) -> u64 {
    now_ns.saturating_sub(due_ns)
}

/// Open loop: play `schedule` against the engine in real time. The
/// measured window is `[PREROLL_NS, horizon_ns]` on the schedule's axis.
pub fn run_open(
    engine: &mut ShardedScheduler,
    clock: &Clock,
    meter: &mut Meter<'_>,
    utterances: &[Utterance],
    schedule: &[Chunk],
    horizon_ns: u64,
) -> Phase {
    let t0 = clock.now_ns();
    let mut d = Driver::new(engine, clock, meter, (t0 + PREROLL_NS, t0 + horizon_ns));
    // The session each caller is speaking into.
    let mut speaking: HashMap<u32, SessionId> = HashMap::new();
    let mut next = 0;
    let mut next_depth_sample = 0;
    // A wedged session must fail the run, not hang it.
    let give_up = t0 + horizon_ns + 30_000_000_000;
    loop {
        while next < schedule.len() && t0 + schedule[next].due_ns <= clock.now_ns() {
            let chunk = schedule[next];
            next += 1;
            let due = t0 + chunk.due_ns;
            d.phase
                .late_ns
                .push(lateness_ns(due, clock.now_ns()) as f64);
            let utterance = &utterances[chunk.utt as usize];
            let total = utterance.frames.len();
            let engine = &mut *d.engine;
            if chunk.is_first() {
                d.phase.offered_utterances += 1;
                match d.meter.call(Call::Open, 0, 0, || engine.open(total)) {
                    Ok(response) => {
                        let id = response.id();
                        d.meter.tag_last(id.0, 0);
                        speaking.insert(chunk.caller, id);
                        d.live.insert(
                            id,
                            InFlight {
                                utt: chunk.utt,
                                since_ns: due,
                            },
                        );
                    }
                    Err(_) => {
                        d.phase.failed += 1;
                        speaking.remove(&chunk.caller);
                    }
                }
            }
            // A caller whose `open` was refused drops the utterance.
            let Some(&id) = speaking.get(&chunk.caller) else {
                continue;
            };
            let frames = utterance.frames[chunk.from as usize..chunk.to as usize].to_vec();
            let count = frames.len() as u64;
            let pushed = d
                .meter
                .call(Call::Push, id.0, count, || engine.push(id, frames));
            if pushed.is_ok() {
                d.phase.offered_frames += count;
            } else {
                d.phase.failed += 1;
            }
            if chunk.to as usize == total || pushed.is_err() {
                d.meter
                    .call(Call::CloseInput, id.0, 0, || engine.close_input(id));
                speaking.remove(&chunk.caller);
                // The caller waits for the transcript from here on.
                if let Some(flight) = d.live.get_mut(&id) {
                    flight.since_ns = due;
                }
            }
        }
        let now = clock.now_ns();
        let queued = d.engine.queued_frames();
        if d.in_window(now) && now >= next_depth_sample {
            d.phase.queue_depth.push((now, queued as u32));
            next_depth_sample = now + 1_000_000;
        }
        if queued > 0 {
            d.step_and_collect();
        } else if next < schedule.len() {
            // Nothing to score: spin until the next chunk is due. Never
            // sleep: an idle vCPU can take tens of milliseconds to come
            // back, which lands on every caller at once and would be
            // charged to the engine.
            std::hint::spin_loop();
        } else if d.live.is_empty() {
            break;
        } else if now > give_up {
            d.phase.failed += d.live.len() as u64;
            break;
        } else {
            d.step_and_collect();
        }
    }
    d.phase.wall_ns = clock.now_ns() - t0;
    d.phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_schedule_is_a_function_of_the_seed() {
        let frames = [37usize, 10, 64, 5, 91, 20];
        let horizon = 5_000_000_000;
        let a = open_schedule(42, 7, &frames, horizon);
        assert_eq!(a, open_schedule(42, 7, &frames, horizon));
        assert_ne!(a, open_schedule(43, 7, &frames, horizon));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));

        for caller in 0..7u32 {
            let mine: Vec<&Chunk> = a.iter().filter(|c| c.caller == caller).collect();
            // Starts inside the pre-roll with utterance `caller`.
            assert!(mine[0].due_ns < PREROLL_NS);
            assert!(mine[0].is_first());
            assert_eq!(mine[0].utt as usize, caller as usize % frames.len());
            for pair in mine.windows(2) {
                let (prev, cur) = (pair[0], pair[1]);
                if cur.is_first() {
                    // The previous utterance was sent whole, then a think
                    // gap of at most MAX_THINK_NS after its last period.
                    assert_eq!(prev.to as usize, frames[prev.utt as usize]);
                    let gap = cur.due_ns - prev.due_ns;
                    assert!((CHUNK_PERIOD_NS..CHUNK_PERIOD_NS + MAX_THINK_NS).contains(&gap));
                    assert!(cur.due_ns < horizon, "no start at or after the horizon");
                } else {
                    // Mid-utterance: the next ten frames, one period on.
                    assert_eq!(cur.utt, prev.utt);
                    assert_eq!(cur.from, prev.to);
                    assert_eq!(cur.due_ns - prev.due_ns, CHUNK_PERIOD_NS);
                    assert!(cur.to - cur.from <= CHUNK_FRAMES as u32);
                }
            }
            // Whatever was started is finished, even past the horizon.
            let last = mine.last().unwrap();
            assert_eq!(last.to as usize, frames[last.utt as usize]);
        }
    }

    #[test]
    fn lateness_counts_from_the_due_time() {
        // A chunk handled 3 ms after it was due is 3 ms late no matter
        // when the previous one was handled; an early look is not late.
        assert_eq!(lateness_ns(10_000_000, 13_000_000), 3_000_000);
        assert_eq!(lateness_ns(10_000_000, 10_000_000), 0);
        assert_eq!(lateness_ns(10_000_000, 9_000_000), 0);
    }

    #[test]
    fn expand_calls_follow_from_tokens_alive() {
        let mut totals = SearchTotals::default();
        let mut result = DecodeResult {
            words: vec![],
            cost: 0.0,
            reached_final: true,
            stats: Default::default(),
        };
        result.stats.active_tokens = vec![3, 5, 2];
        result.stats.arcs_expanded = vec![4, 9, 11];
        result.stats.table_occupancy = vec![0, 0, 0];
        totals.add(&result);
        // Frame 0 expands the start token, frame 1 three, frame 2 five.
        assert_eq!(totals.expand_calls, 1 + 3 + 5);
        assert_eq!(
            (totals.frames, totals.arcs_expanded, totals.tokens_alive),
            (3, 24, 10)
        );
    }
}
