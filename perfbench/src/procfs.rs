//! Process counters read from `/proc/self`, standard library only.
//!
//! Sampled around every repetition so a slow repetition can be told
//! apart as host contention (involuntary context switches, wall time far
//! above CPU time) or the program's own memory churn (minor faults and
//! system time).

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields. Linux reports
/// them in `USER_HZ`, which is 100 on every mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

/// One reading of the process-wide counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub minor_faults: u64,
    pub major_faults: u64,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
    /// Summed over the threads alive at the time of the reading.
    pub ctx_voluntary: u64,
    /// Summed over the threads alive at the time of the reading.
    pub ctx_involuntary: u64,
    /// Bytes passed to `write(2)` and friends.
    pub wchar: u64,
    /// Write system calls.
    pub syscw: u64,
}

/// Counter growth between two readings.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    pub minor_faults: u64,
    pub major_faults: u64,
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_voluntary: u64,
    pub ctx_involuntary: u64,
    pub wchar: u64,
    pub syscw: u64,
}

impl Sample {
    /// Reads the counters now. Files the kernel does not offer read as 0.
    pub fn now() -> Self {
        let mut sample = Sample::default();
        if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
            // The command name may contain spaces; fields after the
            // closing parenthesis start at field 3 (`state`).
            if let Some((_, rest)) = stat.rsplit_once(')') {
                let fields: Vec<&str> = rest.split_whitespace().collect();
                let field = |n: usize| -> u64 {
                    fields.get(n - 3).and_then(|v| v.parse().ok()).unwrap_or(0)
                };
                sample.minor_faults = field(10);
                sample.major_faults = field(12);
                sample.utime_ticks = field(14);
                sample.stime_ticks = field(15);
            }
        }
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let Ok(status) = fs::read_to_string(task.path().join("status")) else {
                    continue;
                };
                sample.ctx_voluntary += status_field(&status, "voluntary_ctxt_switches:");
                sample.ctx_involuntary += status_field(&status, "nonvoluntary_ctxt_switches:");
            }
        }
        if let Ok(io) = fs::read_to_string("/proc/self/io") {
            sample.wchar = status_field(&io, "wchar:");
            sample.syscw = status_field(&io, "syscw:");
        }
        sample
    }

    /// Counter growth from `self` to `later`.
    pub fn until(&self, later: &Sample) -> Delta {
        Delta {
            minor_faults: later.minor_faults.saturating_sub(self.minor_faults),
            major_faults: later.major_faults.saturating_sub(self.major_faults),
            user_s: later.utime_ticks.saturating_sub(self.utime_ticks) as f64 / TICKS_PER_S,
            sys_s: later.stime_ticks.saturating_sub(self.stime_ticks) as f64 / TICKS_PER_S,
            ctx_voluntary: later.ctx_voluntary.saturating_sub(self.ctx_voluntary),
            ctx_involuntary: later.ctx_involuntary.saturating_sub(self.ctx_involuntary),
            wchar: later.wchar.saturating_sub(self.wchar),
            syscw: later.syscw.saturating_sub(self.syscw),
        }
    }
}

/// Peak resident set size of the process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .map(|status| status_field(&status, "VmHWM:") as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// The first number after `key` on the line that starts with it.
fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}
