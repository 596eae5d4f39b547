//! Busy and self time per span name, from a drained `hi-trace` stream.
//!
//! Lane 0 is the driving thread; its events are spread over every epoch
//! (the collector re-keys it after each parallel batch), so they are read
//! as one stream. Every other `(epoch, lane)` key is one work item of a
//! batch and is read on its own. A span's self time is its duration
//! minus the durations of the spans nested directly inside it.

use std::collections::BTreeMap;

use hi_trace::{EventKind, LanedEvent};

#[derive(Debug, Default, Clone)]
pub struct SpanTimes {
    /// Summed duration per span name, seconds.
    pub busy: BTreeMap<&'static str, f64>,
    /// Summed self time per span name, seconds.
    pub self_time: BTreeMap<&'static str, f64>,
    /// Summed self time of all spans on the driving thread, seconds.
    pub main_lane_self: f64,
    /// Spans left open or closed without a matching begin.
    pub unmatched: u64,
}

impl SpanTimes {
    pub fn busy(&self, name: &str) -> f64 {
        self.busy.get(name).copied().unwrap_or(0.0)
    }
}

pub fn attribute(events: &[LanedEvent]) -> SpanTimes {
    let mut out = SpanTimes::default();
    let main_lane: Vec<&LanedEvent> = events.iter().filter(|e| e.lane == 0).collect();
    out.main_lane_self = walk(&main_lane, &mut out);
    let mut items: BTreeMap<(u64, u32), Vec<&LanedEvent>> = BTreeMap::new();
    for event in events.iter().filter(|e| e.lane != 0) {
        items
            .entry((event.epoch, event.lane))
            .or_default()
            .push(event);
    }
    for stream in items.values() {
        walk(stream, &mut out);
    }
    out
}

/// Folds one stream's spans into `out`; returns the stream's total self
/// time.
fn walk(stream: &[&LanedEvent], out: &mut SpanTimes) -> f64 {
    // (name, begin timestamp, time covered by direct children)
    let mut stack: Vec<(&'static str, u64, u64)> = Vec::new();
    let mut total_self = 0.0;
    for laned in stream {
        let event = &laned.event;
        match event.kind {
            EventKind::SpanBegin => stack.push((event.name, event.ts_ns, 0)),
            EventKind::SpanEnd => {
                let Some((name, begin, children)) = stack.pop() else {
                    out.unmatched += 1;
                    continue;
                };
                if name != event.name {
                    out.unmatched += 1;
                }
                let dur = event.ts_ns.saturating_sub(begin);
                let own = dur.saturating_sub(children) as f64 * 1e-9;
                *out.busy.entry(name).or_default() += dur as f64 * 1e-9;
                *out.self_time.entry(name).or_default() += own;
                total_self += own;
                if let Some(parent) = stack.last_mut() {
                    parent.2 += dur;
                }
            }
            EventKind::Instant | EventKind::Counter => {}
        }
    }
    out.unmatched += stack.len() as u64;
    total_self
}
