//! The closed vocabulary of metric names used across the workspace.
//!
//! Centralizing the names here (a) keeps instrumentation sites typo-free,
//! (b) lets [`register_all`] pre-declare every metric so summaries have a
//! stable shape even when a counter never fires, and (c) gives the HL037
//! duplicate-metric lint one catalog to check.

use crate::metrics::{MetricKind, MetricsRegistry};

/// Tasks executed by the `hi-exec` thread pool.
pub const EXEC_TASKS_RUN: &str = "exec.tasks_run";
/// Jobs stolen from another worker's deque.
pub const EXEC_STEALS: &str = "exec.steals";
/// Times a worker parked on the wakeup condvar.
pub const EXEC_PARKS: &str = "exec.parks";
/// Times the pool signalled parked workers.
pub const EXEC_UNPARKS: &str = "exec.unparks";
/// Evaluation-cache hits (existing or in-flight entry found).
pub const EXEC_CACHE_HITS: &str = "exec.cache.hits";
/// Evaluation-cache misses (fresh computations).
pub const EXEC_CACHE_MISSES: &str = "exec.cache.misses";
/// Fresh computations whose memoized result was an error (panic demoted to
/// a cached per-point failure).
pub const EXEC_CACHE_PANIC_MEMO: &str = "exec.cache.panic_memo";
/// Supervised-evaluation retries (extra attempts beyond the first).
pub const EXEC_RETRIES: &str = "exec.retry";
/// Evaluations that tripped their logical deadline (DES-event budget).
pub const EXEC_DEADLINES: &str = "exec.deadline";
/// Chaos injections (panics, transients, cache drops) applied.
pub const EXEC_CHAOS_EVENTS: &str = "exec.chaos";

/// Complete MILP solves (`Model::solve`).
pub const MILP_SOLVES: &str = "milp.solves";
/// Simplex pivot operations across all LP relaxations.
pub const MILP_PIVOTS: &str = "milp.pivots";
/// Branch-and-bound nodes explored.
pub const MILP_BB_NODES: &str = "milp.bb_nodes";
/// Branch-and-bound nodes fathomed (bound-pruned, LP-infeasible, or
/// integral-but-not-improving).
pub const MILP_BB_FATHOMED: &str = "milp.bb_fathomed";
/// Wall time of each `Model::solve`, nanoseconds.
pub const MILP_SOLVE_NS: &str = "milp.solve_ns";
/// Size of each solution pool returned by `solve_pool`.
pub const MILP_POOL_SIZE: &str = "milp.pool_size";

/// DES events dispatched (all replications), skipped slot ticks included.
pub const DES_EVENTS_DISPATCHED: &str = "des.events_dispatched";
/// Slot ticks fast-forwarded as provable no-ops: counted in
/// `des.events_dispatched`, never handled.
pub const DES_TICKS_SKIPPED: &str = "des.ticks_skipped";
/// Simulated replications (stochastic runs).
pub const NET_REPLICATIONS: &str = "net.replications";
/// Application packets generated.
pub const NET_PACKETS_GENERATED: &str = "net.packets_generated";
/// Application packets delivered to the hub.
pub const NET_PACKETS_DELIVERED: &str = "net.packets_delivered";
/// Link-layer transmissions (including retries).
pub const NET_TRANSMISSIONS: &str = "net.transmissions";
/// Packets lost to collisions.
pub const NET_DROPS_COLLISION: &str = "net.drops.collision";
/// Packets lost to buffer overflow.
pub const NET_DROPS_BUFFER: &str = "net.drops.buffer";
/// Packets lost to MAC retry exhaustion.
pub const NET_DROPS_MAC: &str = "net.drops.mac";
/// Wall time of each stochastic replication, nanoseconds.
pub const NET_REPLICATION_NS: &str = "net.replication_ns";

/// Algorithm 1 live iterations (resume replay excluded).
pub const ALGO1_ITERATIONS: &str = "algo1.iterations";
/// Power cuts added by the live loop (resume replay excluded).
pub const ALGO1_CUTS_ADDED: &str = "algo1.cuts_added";
/// Candidate points proposed by MILP solution pools.
pub const ALGO1_CANDIDATES: &str = "algo1.candidates";
/// Incumbent improvements accepted.
pub const ALGO1_INCUMBENTS: &str = "algo1.incumbents";
/// Design-point evaluations requested (cache hits included).
pub const CORE_EVALS: &str = "core.evals";
/// Design-point evaluations that returned an error.
pub const CORE_EVAL_ERRORS: &str = "core.eval_errors";
/// Robust-suite scenario simulations.
pub const ROBUST_SCENARIOS: &str = "robust.scenarios";
/// Wall time of each robust scenario simulation, nanoseconds.
pub const ROBUST_SCENARIO_NS: &str = "robust.scenario_ns";

/// Jobs accepted by the `hi-serve` daemon (across restarts of one state
/// directory, freshly counted per process).
pub const SERVE_JOBS_ACCEPTED: &str = "serve.jobs.accepted";
/// Jobs that ran to a terminal `done` state.
pub const SERVE_JOBS_COMPLETED: &str = "serve.jobs.completed";
/// Jobs that ended in a terminal `failed` state.
pub const SERVE_JOBS_FAILED: &str = "serve.jobs.failed";
/// Jobs cancelled before or during execution.
pub const SERVE_JOBS_CANCELLED: &str = "serve.jobs.cancelled";
/// Jobs currently queued or running (gauge).
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue.depth";
/// Wall time from job acceptance to its terminal state, nanoseconds.
pub const SERVE_JOB_LATENCY_NS: &str = "serve.job_latency_ns";
/// Fleet evaluation-cache hits: design points recalled from another
/// user's (or an earlier job's) simulations.
pub const SERVE_FLEET_HITS: &str = "serve.fleet.cache_hits";
/// Fleet evaluation-cache misses: design points simulated fresh.
pub const SERVE_FLEET_MISSES: &str = "serve.fleet.cache_misses";
/// Cache entries appended to (or rewritten into) durable segment files.
pub const SERVE_CACHE_PERSISTED: &str = "serve.cache.entries_persisted";
/// Cache entries loaded back from segment files at daemon start.
pub const SERVE_CACHE_LOADED: &str = "serve.cache.entries_loaded";
/// Segment compactions (full atomic rewrites folding the append tail).
pub const SERVE_CACHE_COMPACTIONS: &str = "serve.cache.compactions";
/// Segment files quarantined at load (structural bit rot, not a torn
/// tail — torn tails are truncated and recovered instead).
pub const SERVE_CACHE_QUARANTINED: &str = "serve.cache.segments_quarantined";
/// Client reconnect attempts (each retried session after a transport
/// failure, across all `hi-serve-client` invocations in-process).
pub const SERVE_RECONNECTS: &str = "serve.reconnect.attempts";
/// Evaluations accepted into a Pareto archive (new front members).
pub const SERVE_PARETO_INSERTS: &str = "serve.pareto.inserts";
/// Evaluations rejected by an archive (epsilon-box dominated).
pub const SERVE_PARETO_DOMINATED: &str = "serve.pareto.dominated";
/// `FRONT` wire queries answered.
pub const SERVE_PARETO_QUERIES: &str = "serve.pareto.queries";
/// Front points hydrated back from front segment files at daemon start.
pub const SERVE_PARETO_LOADED: &str = "serve.pareto.points_loaded";
/// Front points appended to (or rewritten into) durable front segments.
pub const SERVE_PARETO_PERSISTED: &str = "serve.pareto.points_persisted";

/// Every metric in the catalog with its kind.
pub const CATALOG: &[(&str, MetricKind)] = &[
    (EXEC_TASKS_RUN, MetricKind::Counter),
    (EXEC_STEALS, MetricKind::Counter),
    (EXEC_PARKS, MetricKind::Counter),
    (EXEC_UNPARKS, MetricKind::Counter),
    (EXEC_CACHE_HITS, MetricKind::Counter),
    (EXEC_CACHE_MISSES, MetricKind::Counter),
    (EXEC_CACHE_PANIC_MEMO, MetricKind::Counter),
    (EXEC_RETRIES, MetricKind::Counter),
    (EXEC_DEADLINES, MetricKind::Counter),
    (EXEC_CHAOS_EVENTS, MetricKind::Counter),
    (MILP_SOLVES, MetricKind::Counter),
    (MILP_PIVOTS, MetricKind::Counter),
    (MILP_BB_NODES, MetricKind::Counter),
    (MILP_BB_FATHOMED, MetricKind::Counter),
    (MILP_SOLVE_NS, MetricKind::Histogram),
    (MILP_POOL_SIZE, MetricKind::Histogram),
    (DES_EVENTS_DISPATCHED, MetricKind::Counter),
    (DES_TICKS_SKIPPED, MetricKind::Counter),
    (NET_REPLICATIONS, MetricKind::Counter),
    (NET_PACKETS_GENERATED, MetricKind::Counter),
    (NET_PACKETS_DELIVERED, MetricKind::Counter),
    (NET_TRANSMISSIONS, MetricKind::Counter),
    (NET_DROPS_COLLISION, MetricKind::Counter),
    (NET_DROPS_BUFFER, MetricKind::Counter),
    (NET_DROPS_MAC, MetricKind::Counter),
    (NET_REPLICATION_NS, MetricKind::Histogram),
    (ALGO1_ITERATIONS, MetricKind::Counter),
    (ALGO1_CUTS_ADDED, MetricKind::Counter),
    (ALGO1_CANDIDATES, MetricKind::Counter),
    (ALGO1_INCUMBENTS, MetricKind::Counter),
    (CORE_EVALS, MetricKind::Counter),
    (CORE_EVAL_ERRORS, MetricKind::Counter),
    (ROBUST_SCENARIOS, MetricKind::Counter),
    (ROBUST_SCENARIO_NS, MetricKind::Histogram),
    (SERVE_JOBS_ACCEPTED, MetricKind::Counter),
    (SERVE_JOBS_COMPLETED, MetricKind::Counter),
    (SERVE_JOBS_FAILED, MetricKind::Counter),
    (SERVE_JOBS_CANCELLED, MetricKind::Counter),
    (SERVE_QUEUE_DEPTH, MetricKind::Gauge),
    (SERVE_JOB_LATENCY_NS, MetricKind::Histogram),
    (SERVE_FLEET_HITS, MetricKind::Counter),
    (SERVE_FLEET_MISSES, MetricKind::Counter),
    (SERVE_CACHE_PERSISTED, MetricKind::Counter),
    (SERVE_CACHE_LOADED, MetricKind::Counter),
    (SERVE_CACHE_COMPACTIONS, MetricKind::Counter),
    (SERVE_CACHE_QUARANTINED, MetricKind::Counter),
    (SERVE_RECONNECTS, MetricKind::Counter),
    (SERVE_PARETO_INSERTS, MetricKind::Counter),
    (SERVE_PARETO_DOMINATED, MetricKind::Counter),
    (SERVE_PARETO_QUERIES, MetricKind::Counter),
    (SERVE_PARETO_LOADED, MetricKind::Counter),
    (SERVE_PARETO_PERSISTED, MetricKind::Counter),
];

/// Pre-registers the whole catalog on `registry`.
pub fn register_all(registry: &MetricsRegistry) {
    for &(name, kind) in CATALOG {
        registry.register(name, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_no_duplicate_names() {
        let mut names: Vec<_> = CATALOG.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name in catalog");
    }

    #[test]
    fn register_all_declares_every_entry_once() {
        let reg = MetricsRegistry::new();
        register_all(&reg);
        let specs = reg.specs();
        assert_eq!(specs.len(), CATALOG.len());
        for (spec, (name, kind)) in specs.iter().zip(CATALOG) {
            assert_eq!(spec.name, *name);
            assert_eq!(spec.kind, *kind);
        }
    }
}
