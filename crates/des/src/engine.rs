//! The future-event list and simulation clock.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{SimDuration, SimTime};

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap behaviour inside BinaryHeap (a max-heap):
        // earliest time first; FIFO among equal times via the sequence no.
        other.key().cmp(&self.key())
    }
}

/// A deterministic discrete-event engine.
///
/// The engine is generic over the model's event type `E`. It maintains the
/// future-event list, the simulation clock and an optional horizon.
/// Events scheduled for the same instant are delivered in scheduling order.
///
/// Besides the heap, the engine has one *tick lane*: a single pending event
/// held outside the heap, armed with [`schedule_tick_at`] /
/// [`schedule_tick_in`]. A periodic model event (a MAC slot boundary that
/// re-arms itself every slot) rides there and skips the heap's push and
/// pop. The lane changes cost, not order: a tick takes its sequence number
/// when it is armed, exactly like a heap event, and [`pop`] delivers
/// whichever of the tick and the heap's earliest event comes first by
/// `(time, seq)`.
///
/// See the [crate-level example](crate) for usage.
///
/// [`schedule_tick_at`]: Engine::schedule_tick_at
/// [`schedule_tick_in`]: Engine::schedule_tick_in
/// [`pop`]: Engine::pop
pub struct Engine<E> {
    queue: BinaryHeap<Scheduled<E>>,
    tick: Option<Scheduled<E>>,
    now: SimTime,
    next_seq: u64,
    horizon: SimTime,
    delivered: u64,
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("delivered", &self.delivered)
            .field("horizon", &self.horizon)
            .finish()
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at zero and no horizon.
    pub fn new() -> Self {
        Self {
            queue: BinaryHeap::new(),
            tick: None,
            now: SimTime::ZERO,
            next_seq: 0,
            horizon: SimTime::MAX,
            delivered: 0,
        }
    }

    /// The current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events still pending, the armed tick included.
    pub fn pending(&self) -> usize {
        self.queue.len() + usize::from(self.tick.is_some())
    }

    /// Sets the horizon: events strictly after it are never delivered.
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = horizon;
    }

    /// Stamps `event` for delivery at `at` with the next sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the engine's current time):
    /// causality would be violated.
    fn stamp(&mut self, at: SimTime, event: E) -> Scheduled<E> {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now = {}, requested = {}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        Scheduled {
            time: at,
            seq,
            event,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the engine's current time):
    /// causality would be violated.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let scheduled = self.stamp(at, event);
        self.queue.push(scheduled);
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event)
    }

    /// Arms the tick lane with `event` at absolute time `at`. The tick is
    /// ordered against heap events by `(time, seq)`, its sequence number
    /// taken now, so arming a tick is observably identical to
    /// [`schedule_at`](Engine::schedule_at).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, or if a tick is already armed (the
    /// lane holds one event; a periodic model re-arms it from the tick's
    /// own handler).
    pub fn schedule_tick_at(&mut self, at: SimTime, event: E) {
        assert!(self.tick.is_none(), "the tick lane is already armed");
        self.tick = Some(self.stamp(at, event));
    }

    /// Arms the tick lane with `event` after `delay` from the current time.
    ///
    /// # Panics
    ///
    /// As [`schedule_tick_at`](Engine::schedule_tick_at).
    pub fn schedule_tick_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_tick_at(self.now + delay, event)
    }

    /// Fast-forwards a periodic tick over firings its model proves are
    /// no-ops. Called from the tick's own handler after everything else it
    /// schedules and just before it re-arms the lane, it counts the firings
    /// at `now + period`, `now + 2·period`, … that lie strictly before the
    /// heap's earliest event and no later than the horizon, at most `max`
    /// of them, and returns that count `k`. Each counts as delivered and
    /// consumes a sequence number, exactly as if it had fired and re-armed
    /// the lane, so the handler then arms at `now + period·(k+1)` and
    /// every later `(time, seq)`, [`delivered`](Engine::delivered) total
    /// and horizon cut is that of the unskipped run.
    ///
    /// Sound only while the skipped firings would change nothing: the
    /// model must read its idle verdict from state that only heap events
    /// change. A firing that ties with the heap head is never skipped —
    /// the head holds the smaller `seq`, fires first and may change that
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or the tick lane is armed.
    pub fn skip_ticks(&mut self, period: SimDuration, max: u64) -> u64 {
        assert!(!period.is_zero(), "a tick period must be positive");
        assert!(self.tick.is_none(), "skip_ticks with the tick lane armed");
        let mut last = self.horizon;
        if let Some(head) = self.queue.peek() {
            match head.time.as_nanos().checked_sub(1) {
                Some(before_head) => last = last.min(SimTime::from_nanos(before_head)),
                None => return 0,
            }
        }
        let Some(span) = last.as_nanos().checked_sub(self.now.as_nanos()) else {
            return 0;
        };
        let skipped = (span / period.as_nanos()).min(max);
        self.delivered += skipped;
        self.next_seq += skipped;
        skipped
    }

    /// Pops the next event, advancing the clock. Returns `None` once no
    /// event is pending or the next one lies beyond the horizon (it then
    /// stays pending, and `pop` keeps returning `None`).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let tick_first = match (&self.tick, self.queue.peek()) {
            (Some(tick), Some(head)) => tick.key() < head.key(),
            (tick, _) => tick.is_some(),
        };
        let next_time = if tick_first {
            self.tick.as_ref()?.time
        } else {
            self.queue.peek()?.time
        };
        if next_time > self.horizon {
            return None;
        }
        let next = if tick_first {
            self.tick.take()
        } else {
            self.queue.pop()
        }?;
        // Event-time monotonicity: neither lane may hand us an event older
        // than the clock. A violation means the ordering in
        // `Scheduled::cmp` (or a future refactor of it) is broken.
        debug_assert!(
            next.time >= self.now,
            "event-time monotonicity violated: clock at {}, popped event at {}",
            self.now,
            next.time
        );
        self.now = next.time;
        self.delivered += 1;
        Some((next.time, next.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_delivered_in_time_order() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_nanos(30), "c");
        e.schedule_at(SimTime::from_nanos(10), "a");
        e.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, x)| x).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut e = Engine::new();
        let t = SimTime::from_nanos(5);
        for i in 0..10 {
            e.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, x)| x).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(2.0), ());
        assert_eq!(e.now(), SimTime::ZERO);
        e.pop();
        assert_eq!(e.now(), SimTime::from_secs(2.0));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(1.0), ());
        e.pop();
        e.schedule_at(SimTime::from_secs(0.5), ());
    }

    #[test]
    fn horizon_stops_delivery() {
        let mut e = Engine::new();
        e.set_horizon(SimTime::from_secs(1.0));
        e.schedule_at(SimTime::from_secs(0.5), "in");
        e.schedule_at(SimTime::from_secs(1.5), "out");
        assert_eq!(e.pop().map(|(_, v)| v), Some("in"));
        assert_eq!(e.pop(), None);
        // Event exactly at the horizon still fires.
        let mut e = Engine::new();
        e.set_horizon(SimTime::from_secs(1.0));
        e.schedule_at(SimTime::from_secs(1.0), "edge");
        assert_eq!(e.pop().map(|(_, v)| v), Some("edge"));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(1.0), 0u8);
        e.pop();
        e.schedule_in(SimDuration::from_secs(0.5), 1u8);
        let (t, _) = e.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(1.5));
    }

    #[test]
    fn delivered_counter() {
        let mut e = Engine::new();
        for i in 0..5 {
            e.schedule_at(SimTime::from_nanos(i), i);
        }
        while e.pop().is_some() {}
        assert_eq!(e.delivered(), 5);
    }

    #[test]
    fn tick_interleaves_with_heap_by_time_then_seq() {
        let mut e = Engine::new();
        let t = SimTime::from_nanos(10);
        e.schedule_at(t, "heap-before");
        e.schedule_tick_at(t, "tick");
        e.schedule_at(t, "heap-after");
        e.schedule_at(SimTime::from_nanos(5), "early");
        assert_eq!(e.pending(), 4);
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, x)| x).collect();
        assert_eq!(order, vec!["early", "heap-before", "tick", "heap-after"]);
        assert_eq!(e.delivered(), 4);
    }

    #[test]
    fn tick_rearms_from_its_own_handler() {
        let mut e = Engine::new();
        e.set_horizon(SimTime::from_nanos(35));
        e.schedule_tick_at(SimTime::ZERO, 0u64);
        let mut ticks = Vec::new();
        while let Some((t, i)) = e.pop() {
            ticks.push(t.as_nanos());
            e.schedule_tick_in(SimDuration::from_nanos(10), i + 1);
        }
        assert_eq!(ticks, vec![0, 10, 20, 30]);
        // The tick past the horizon stays armed and undelivered.
        assert_eq!(e.pending(), 1);
        assert_eq!(e.pop(), None);
    }

    #[test]
    fn skip_ticks_stops_before_the_heap_head_and_at_the_horizon() {
        let period = SimDuration::from_nanos(10);
        let mut e = Engine::new();
        e.set_horizon(SimTime::from_nanos(100));
        e.schedule_tick_at(SimTime::ZERO, "tick");
        e.schedule_at(SimTime::from_nanos(40), "head");
        assert_eq!(e.pop(), Some((SimTime::ZERO, "tick")));
        // 10, 20 and 30 lie before the head; 40 ties with it.
        assert_eq!(e.skip_ticks(period, u64::MAX), 3);
        assert_eq!(e.delivered(), 4);
        e.schedule_tick_at(SimTime::from_nanos(40), "landed");
        assert_eq!(e.pop().map(|(_, x)| x), Some("head"));
        assert_eq!(e.pop().map(|(_, x)| x), Some("landed"));
        // No heap event left: 50..=100 are within the horizon, capped by `max`.
        assert_eq!(e.skip_ticks(period, 4), 4);
        assert_eq!(e.skip_ticks(period, u64::MAX), 6);
        assert_eq!(e.delivered(), 16);
    }

    #[test]
    #[should_panic(expected = "already armed")]
    fn double_arming_the_tick_panics() {
        let mut e = Engine::new();
        e.schedule_tick_at(SimTime::from_nanos(1), ());
        e.schedule_tick_at(SimTime::from_nanos(2), ());
    }
}
