//! Property-based tests of the event engine: delivery order, FIFO ties,
//! horizon semantics, the tick lane under arbitrary schedules, and tick
//! skipping against the unskipped engine.

use hi_des::check::{run_cases, Gen};
use hi_des::{Engine, SimDuration, SimTime};

fn times(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<u64> {
    g.vec(len, |g| g.u64_below(1_000))
}

#[test]
fn delivery_is_sorted_and_complete() {
    run_cases(256, 0xE0_0001, |g| {
        let times = times(g, 0..64);
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut delivered = Vec::new();
        while let Some((t, id)) = engine.pop() {
            delivered.push((t.as_nanos(), id));
        }
        // Complete: every scheduled event arrives exactly once.
        assert_eq!(delivered.len(), times.len());
        // Sorted by time, FIFO among equal timestamps (ids ascend within
        // the same instant because we scheduled them in id order).
        for w in delivered.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO violated at t={}", w[0].0);
            }
        }
    });
}

#[test]
fn horizon_is_a_clean_cut() {
    run_cases(256, 0xE0_0003, |g| {
        let times = times(g, 1..64);
        let horizon = g.u64_below(1_000);
        let mut engine = Engine::new();
        engine.set_horizon(SimTime::from_nanos(horizon));
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut count = 0usize;
        while let Some((t, _)) = engine.pop() {
            assert!(t.as_nanos() <= horizon);
            count += 1;
        }
        let expected = times.iter().filter(|&&t| t <= horizon).count();
        assert_eq!(count, expected);
    });
}

#[test]
fn clock_is_monotone_under_interleaved_scheduling() {
    run_cases(256, 0xE0_0004, |g| {
        // Re-schedule from inside the run loop (events spawn events).
        let seeds: Vec<u64> = g.vec(1..32, |g| g.u64_below(100));
        let mut engine = Engine::new();
        engine.set_horizon(SimTime::from_nanos(5_000));
        for (i, &s) in seeds.iter().enumerate() {
            engine.schedule_at(SimTime::from_nanos(s), i as u64);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, gen)) = engine.pop() {
            assert!(t >= last);
            last = t;
            if gen < 1_000 {
                // Spawn a follow-up event a pseudo-random delay ahead.
                let delay = (gen * 37 + 11) % 400 + 1;
                engine.schedule_at(SimTime::from_nanos(t.as_nanos() + delay), gen + 1_000);
            }
        }
    });
}

/// The contract the tick lane must honour, written as the obvious model:
/// one pending list, the earliest `(time, seq)` wins, and a tick is just
/// an event that draws its `seq` when armed.
#[derive(Default)]
struct Reference {
    pending: Vec<(u64, u64, u64)>,
    next_seq: u64,
    now: u64,
    horizon: u64,
    delivered: u64,
}

/// What a schedule driver needs from an engine; implemented by the real
/// [`Engine`] and by [`Reference`].
trait Scheduler {
    fn at(&mut self, t: u64, id: u64);
    fn tick_at(&mut self, t: u64, id: u64);
    fn pop(&mut self) -> Option<(u64, u64)>;
    fn now(&self) -> u64;
    fn delivered(&self) -> u64;
}

impl Scheduler for Reference {
    fn at(&mut self, t: u64, id: u64) {
        self.pending.push((t, self.next_seq, id));
        self.next_seq += 1;
    }
    fn tick_at(&mut self, t: u64, id: u64) {
        self.at(t, id);
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        let (i, &(t, _, id)) = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, seq, _))| (t, seq))?;
        if t > self.horizon {
            return None;
        }
        self.pending.swap_remove(i);
        self.now = t;
        self.delivered += 1;
        Some((t, id))
    }
    fn now(&self) -> u64 {
        self.now
    }
    fn delivered(&self) -> u64 {
        self.delivered
    }
}

impl Scheduler for Engine<u64> {
    fn at(&mut self, t: u64, id: u64) {
        self.schedule_at(SimTime::from_nanos(t), id);
    }
    fn tick_at(&mut self, t: u64, id: u64) {
        self.schedule_tick_at(SimTime::from_nanos(t), id);
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        Engine::pop(self).map(|(t, id)| (t.as_nanos(), id))
    }
    fn now(&self) -> u64 {
        Engine::now(self).as_nanos()
    }
    fn delivered(&self) -> u64 {
        Engine::delivered(self)
    }
}

fn engine_with_horizon(horizon: u64) -> Engine<u64> {
    let mut engine = Engine::new();
    engine.set_horizon(SimTime::from_nanos(horizon));
    engine
}

/// Tick events carry ids at or above this; heap events below it.
const TICK: u64 = 1 << 32;

/// A static schedule: heap events (many sharing instants) with the tick
/// armed somewhere in the middle of the scheduling order, often at an
/// instant heap events also use — so ties fall on both sides of its seq.
fn static_schedule(g: &mut Gen) -> (Vec<u64>, usize, u64, u64) {
    let times = g.vec(0..48, |g| g.u64_below(60));
    let tick_pos = g.usize_in(0..times.len() + 1);
    let tick_time = if !times.is_empty() && g.bool() {
        *g.choose(&times)
    } else {
        g.u64_below(60)
    };
    let horizon = if g.bool() { u64::MAX } else { g.u64_below(70) };
    (times, tick_pos, tick_time, horizon)
}

fn drive_static(s: &mut impl Scheduler, schedule: &(Vec<u64>, usize, u64, u64)) -> Vec<(u64, u64)> {
    let (times, tick_pos, tick_time, _) = schedule;
    for (i, &t) in times.iter().enumerate() {
        if i == *tick_pos {
            s.tick_at(*tick_time, TICK);
        }
        s.at(t, i as u64);
    }
    if *tick_pos == times.len() {
        s.tick_at(*tick_time, TICK);
    }
    std::iter::from_fn(|| s.pop()).collect()
}

#[test]
fn tick_lane_matches_the_sorted_reference() {
    run_cases(512, 0xE0_0005, |g| {
        let schedule = static_schedule(g);
        let horizon = schedule.3;
        let mut engine = engine_with_horizon(horizon);
        let mut reference = Reference {
            horizon,
            ..Reference::default()
        };
        let got = drive_static(&mut engine, &schedule);
        let want = drive_static(&mut reference, &schedule);
        assert_eq!(got, want, "schedule {schedule:?}");
        assert_eq!(engine.delivered(), reference.delivered());
        assert_eq!(engine.delivered(), want.len() as u64);
        // Cut-off events stay pending; the engine keeps answering `None`.
        let total = schedule.0.len() + 1;
        assert_eq!(engine.pending(), total - want.len());
        assert_eq!(engine.pop(), None);
    });
}

/// A periodic tick re-armed from its own handler, with heap events that
/// spawn follow-ups. Delays are often multiples of the tick period, so heap
/// events land on tick instants, armed both before and after the tick.
fn drive_periodic(s: &mut impl Scheduler, period: u64, seeds: &[u64]) -> Vec<(u64, u64)> {
    for (i, &t) in seeds.iter().enumerate() {
        s.at(t, i as u64);
    }
    s.tick_at(0, TICK);
    let mut log = Vec::new();
    let mut next_id = seeds.len() as u64;
    while let Some((t, id)) = s.pop() {
        assert_eq!(s.now(), t);
        log.push((t, id));
        // A cheap deterministic mix of the event's identity decides what
        // it spawns, so both schedulers make identical choices.
        let mix = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        if id >= TICK {
            if mix % 3 == 0 {
                s.at(t + period, next_id); // same instant, before the tick
                next_id += 1;
            }
            s.tick_at(t + period, id + 1);
            if mix % 4 == 1 {
                s.at(t + period, next_id); // same instant, after the tick
                next_id += 1;
            }
        } else if mix % 5 != 0 && next_id < 400 {
            let delay = if mix % 2 == 0 {
                period * (mix % 3 + 1)
            } else {
                mix % 37 + 1
            };
            s.at(t + delay, next_id);
            next_id += 1;
        }
    }
    log
}

#[test]
fn periodic_tick_interleaves_exactly_like_the_reference() {
    run_cases(256, 0xE0_0006, |g| {
        let period = g.u64_below(20) + 1;
        let seeds = g.vec(0..24, |g| g.u64_below(100));
        let horizon = g.u64_below(600);
        let mut engine = engine_with_horizon(horizon);
        let mut reference = Reference {
            horizon,
            ..Reference::default()
        };
        let got = drive_periodic(&mut engine, period, &seeds);
        let want = drive_periodic(&mut reference, period, &seeds);
        assert_eq!(
            got, want,
            "period {period}, seeds {seeds:?}, horizon {horizon}"
        );
        assert_eq!(engine.delivered(), reference.delivered());
        assert!(got.iter().all(|&(t, _)| t <= horizon));
        assert!(
            got.iter().any(|&(_, id)| id >= TICK),
            "the tick at 0 always fires"
        );
    });
}

/// One run of [`drive_slots`]: every physical delivery as
/// `(time, payload, delivered())`, plus the final engine state.
#[derive(Debug, Default)]
struct SlotRun {
    log: Vec<(u64, u64, u64)>,
    /// `delivered()` at each tick that fired idle.
    idle_ticks: Vec<u64>,
    skipped: u64,
    delivered: u64,
    pending: usize,
    /// `(delivered(), time)` of the event that tripped the budget.
    trip: Option<(u64, u64)>,
}

fn mix(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40
}

/// Whether slot `index` does work under `mask` (one bit per index mod 8).
fn busy(mask: u8, index: u64) -> bool {
    mask >> (index % 8) & 1 == 1
}

/// Slots after `index` before the next busy one (`u64::MAX`: none is).
fn idle_run(mask: u8, index: u64) -> u64 {
    (1..=8)
        .find(|&d| busy(mask, index + d))
        .map_or(u64::MAX, |d| d - 1)
}

/// A slot model over a self-re-arming tick whose idle verdict is frozen
/// between heap events: `mask` marks the busy slot indices, every heap
/// event rewrites it, and a busy slot clears its own bit (it "sends") and
/// spawns a heap event. Heap events spawn follow-ups, many on tick
/// instants, armed both before and after the tick that lands there.
///
/// With `skip`, each tick handler fast-forwards over the idle run the mask
/// predicts, capped at the budget, and checks that a skip short of that
/// cap stopped at a bound: the tick it lands is then never the next event.
fn drive_slots(
    skip: bool,
    period: u64,
    mask: u8,
    seeds: &[u64],
    horizon: u64,
    budget: Option<u64>,
) -> SlotRun {
    let mut engine = engine_with_horizon(horizon);
    for (i, &t) in seeds.iter().enumerate() {
        engine.schedule_at(SimTime::from_nanos(t), i as u64);
    }
    engine.schedule_tick_at(SimTime::ZERO, TICK);
    let mut mask = mask;
    let mut next_id = seeds.len() as u64;
    let mut spawn = |engine: &mut Engine<u64>, at: u64| {
        if next_id < 300 {
            engine.schedule_at(SimTime::from_nanos(at), next_id);
            next_id += 1;
        }
    };
    let mut run = SlotRun::default();
    let mut landed_short = None;
    while let Some((t, id)) = engine.pop() {
        let t = t.as_nanos();
        let delivered = engine.delivered();
        assert_ne!(
            landed_short.take(),
            Some(id),
            "a skip short of its cap must stop at the heap head or the horizon"
        );
        if budget.is_some_and(|b| delivered > b) {
            run.trip = Some((delivered, t));
            break;
        }
        run.log.push((t, id, delivered));
        let m = mix(id);
        if id < TICK {
            mask = if m.is_multiple_of(4) {
                0
            } else {
                (m >> 8) as u8
            };
            match m % 5 {
                0 => {}
                1 => spawn(&mut engine, (t / period + 1 + m % 3) * period),
                2 => spawn(&mut engine, t + period * (m % 3 + 1)),
                _ => spawn(&mut engine, t + m % 37 + 1),
            }
            continue;
        }
        let index = id - TICK;
        if busy(mask, index) {
            mask &= !(1 << (index % 8));
            spawn(&mut engine, t + period * (m % 3) + m % 2);
        } else {
            run.idle_ticks.push(delivered);
        }
        let mut k = 0;
        if skip {
            let idle = idle_run(mask, index);
            let max = budget.map_or(idle, |b| idle.min(b - delivered));
            k = engine.skip_ticks(SimDuration::from_nanos(period), max);
            if k < max {
                landed_short = Some(id + k + 1);
            }
        }
        run.skipped += k;
        engine.schedule_tick_at(SimTime::from_nanos(t + period * (k + 1)), id + k + 1);
    }
    run.delivered = engine.delivered();
    run.pending = engine.pending();
    run
}

#[test]
fn skipping_idle_ticks_matches_the_unskipped_engine() {
    let mut total_skipped = 0;
    run_cases(512, 0xE0_0007, |g| {
        let period = g.u64_below(20) + 1;
        let mask = if g.bool() { 0 } else { g.u64() as u8 };
        let seeds = g.vec(0..24, |g| {
            if g.bool() {
                period * g.u64_below(20)
            } else {
                g.u64_below(300)
            }
        });
        let horizon = if g.bool() {
            period * g.u64_below(60)
        } else {
            g.u64_below(900)
        };
        let budget = g.bool().then(|| g.u64_below(300));
        let naive = drive_slots(false, period, mask, &seeds, horizon, budget);
        let skipping = drive_slots(true, period, mask, &seeds, horizon, budget);
        let case = format!(
            "period {period}, mask {mask:#x}, seeds {seeds:?}, \
             horizon {horizon}, budget {budget:?}"
        );
        assert_eq!(naive.skipped, 0);
        // Every physical delivery is the unskipped run's delivery of the
        // same logical count...
        for entry in &skipping.log {
            assert_eq!(Some(entry), naive.log.get(entry.2 as usize - 1), "{case}");
        }
        // ...and every delivery the skipping run did not make is an idle
        // tick it counted as skipped.
        assert_eq!(
            naive.log.len() as u64,
            skipping.log.len() as u64 + skipping.skipped,
            "{case}"
        );
        let physical: Vec<u64> = skipping.log.iter().map(|e| e.2).collect();
        for entry in &naive.log {
            if physical.binary_search(&entry.2).is_err() {
                assert!(
                    naive.idle_ticks.contains(&entry.2),
                    "{case}: skipped {entry:?}"
                );
            }
        }
        assert_eq!(
            (skipping.delivered, skipping.pending, skipping.trip),
            (naive.delivered, naive.pending, naive.trip),
            "{case}"
        );
        total_skipped += skipping.skipped;
    });
    assert!(total_skipped > 0, "no case skipped a tick");
}
