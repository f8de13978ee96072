//! Spans recorded by the benchmark around its calls into the system.
//!
//! Everything here lives on the benchmark's side of the API: a span is
//! opened before a public call and closed after it, kept in memory, and
//! written out as JSONL when the run ends. No crate of the system is
//! instrumented for this.

use crate::json::Json;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Parent of a top-level span.
pub const NO_PARENT: u64 = 0;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one ([`NO_PARENT`] at top level).
    pub parent: u64,
    /// Spans of one request share this: the step index for `serve.step`
    /// and the scoring calls it causes, the session id for offers/pushes.
    pub request: u64,
    /// Frames the call handled (0 where that has no meaning).
    pub frames: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", self.id.into()),
            ("name", Json::str(self.name)),
            ("start_ns", self.start_ns.into()),
            ("end_ns", self.end_ns.into()),
            ("parent", self.parent.into()),
            ("request", self.request.into()),
            ("frames", self.frames.into()),
        ])
    }
}

/// The run's clock and span-id source, shared by every producer so spans
/// from different threads order on one axis.
pub struct Clock {
    epoch: Instant,
    next_id: AtomicU64,
}

impl Clock {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(NO_PARENT + 1),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        // Relaxed: the id only has to be unique; it publishes nothing.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }
}

/// Total length of the union of `intervals` (each `(start, end)`),
/// clipped to `[lo, hi]`. Overlapping and nested intervals count once.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover. Returned in `spans` order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            s.duration_ns() - covered
        })
        .collect()
}

/// Write `spans` as one JSON object per line.
pub fn write_jsonl(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(out, "{}", s.to_json().render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: 0,
            frames: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_and_nested_children_once() {
        let spans = vec![
            span(1, NO_PARENT, 0, 100),
            // Two children overlapping on [30, 40] (parallel shards).
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            // A grandchild takes from its own parent only.
            span(4, 2, 15, 25),
            // A child poking past its parent's end is clipped to it.
            span(5, 1, 90, 120),
            // A second root with no children keeps its whole duration.
            span(6, NO_PARENT, 200, 250),
        ];
        // Root: 100 − (union [10, 60] = 50) − (clipped [90, 100] = 10).
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10, 30, 50]);
    }

    #[test]
    fn coverage_is_the_union_clipped_to_the_window() {
        assert_eq!(covered_ns(&mut [], 0, 10), 0);
        assert_eq!(covered_ns(&mut [(2, 4), (3, 5), (3, 4)], 0, 10), 3);
        assert_eq!(covered_ns(&mut [(0, 20)], 5, 10), 5);
        assert_eq!(covered_ns(&mut [(8, 9), (1, 2)], 0, 10), 2);
    }
}
