//! Checker verdicts: violations, replayable schedules, lock usage.

use std::fmt;

/// What kind of concurrency bug the checker found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ViolationKind {
    /// Two accesses to one [`Data`](crate::sync::Data) cell, at least one
    /// a write, with no happens-before edge between them. The classic
    /// cause in this workspace is a too-weak `Ordering` on the atomic
    /// that was meant to publish the data (`Relaxed` creates no edge).
    DataRace,
    /// Every unfinished thread is blocked on a mutex or a join — no
    /// schedule can make progress.
    Deadlock,
    /// Progress requires waking a condvar waiter, but no runnable thread
    /// remains to notify it: the wakeup was lost (missed `notify_all`, or
    /// a notify that raced ahead of the park). A spurious wakeup *could*
    /// rescue such a state, but `std` does not guarantee spurious
    /// wakeups, so depending on one is a bug.
    LostWakeup,
    /// Two locks are acquired in opposite nesting orders somewhere in the
    /// program — a deadlock waiting for the right interleaving.
    LockOrderInversion,
    /// A thread finished while still holding a lock.
    LockLeak,
    /// A thread attempted to re-acquire a lock it already holds
    /// (self-deadlock on `std::sync::Mutex`).
    RecursiveLock,
    /// A model thread panicked (assertion failure or explicit panic).
    Panic,
    /// One execution exceeded the per-execution step budget — a livelock
    /// or an unbounded loop in the model.
    StepBudget,
    /// A replayed schedule diverged from the model's behavior: the model
    /// is not deterministic under a fixed schedule.
    ReplayDivergence,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::DataRace => "data race",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::LostWakeup => "lost wakeup",
            ViolationKind::LockOrderInversion => "lock-order inversion",
            ViolationKind::LockLeak => "lock leaked at thread exit",
            ViolationKind::RecursiveLock => "recursive lock acquisition",
            ViolationKind::Panic => "panic in model thread",
            ViolationKind::StepBudget => "step budget exceeded",
            ViolationKind::ReplayDivergence => "schedule replay diverged",
        })
    }
}

/// One concurrency bug, with the schedule that reproduces it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The bug class.
    pub kind: ViolationKind,
    /// The scheduling decisions (chosen thread ids, `,`-separated) that
    /// lead to the bug. Feed it to [`crate::replay`] to reproduce the
    /// exact execution deterministically.
    pub schedule: String,
    /// Human-readable description naming the threads and objects involved.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [replay: {}]",
            self.kind, self.message, self.schedule
        )
    }
}

/// Acquire/release accounting for one lock across one execution.
///
/// `hi-opt lint` lowers these into `hi-lint`'s `ModelLockSpec`s for rule
/// HL041 (a model program that never releases an acquired lock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockUsage {
    /// The lock's name (`Mutex::named`) or `lock#<uid>`.
    pub name: String,
    /// Successful acquisitions.
    pub acquires: u64,
    /// Releases (guard drops and condvar parks).
    pub releases: u64,
}

/// The verdict of one [`crate::explore`] call.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Executions (distinct interleavings) actually run.
    pub executions: u64,
    /// True when the bounded-preemption schedule space was exhausted;
    /// false when [`crate::Config::max_executions`] stopped exploration
    /// early.
    pub complete: bool,
    /// The first violation found, if any. Exploration stops at the first
    /// violation so the schedule stays short and replayable.
    pub violation: Option<Violation>,
    /// Lock usage observed in the last execution (sorted by name).
    pub locks: Vec<LockUsage>,
}

impl CheckReport {
    /// True when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violation.is_none()
    }

    /// The violation, panicking (with the full report) if the run was
    /// clean. Convenience for mutant self-tests.
    pub fn expect_violation(&self, context: &str) -> &Violation {
        match &self.violation {
            Some(v) => v,
            None => panic!(
                "{context}: expected a violation but {} execution(s) were clean (complete: {})",
                self.executions, self.complete
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_schedule() {
        let v = Violation {
            kind: ViolationKind::LostWakeup,
            schedule: "0,1,1,0".into(),
            message: "thread t1 parked on condvar cv#0".into(),
        };
        let text = v.to_string();
        assert!(text.contains("lost wakeup"));
        assert!(text.contains("0,1,1,0"));
    }
}
