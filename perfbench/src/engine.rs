//! Measurement scaffold shared by the engine workloads (`ladder`,
//! `robust`): one collector per repetition, process counters around the
//! solve, and the per-layer split of a traced solve.

use std::collections::BTreeMap;
use std::time::Instant;

use hi_trace::{wellknown as wk, Collector, MetricsRegistry};

use crate::procfs;
use crate::spans::{self, SpanTimes};
use crate::stats::ratio;
use crate::timed::EvalStats;
use crate::Counts;

/// A fresh collector for one repetition: metrics only for untraced
/// repetitions (exact counters, no spans), full events for traced ones.
pub fn collector(traced: bool) -> Collector {
    let collector = if traced {
        Collector::enabled()
    } else {
        Collector::metrics_only()
    };
    wk::register_all(registry(&collector));
    collector
}

pub fn registry(collector: &Collector) -> &MetricsRegistry {
    collector
        .registry()
        .expect("an enabled collector has a registry")
}

/// Sum of a histogram's samples, in seconds (the catalog records ns).
pub fn hist_sum_s(registry: &MetricsRegistry, name: &str) -> f64 {
    registry
        .snapshot()
        .histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, h)| h.sum() as f64 * 1e-9)
}

pub fn counts(registry: &MetricsRegistry) -> Counts {
    Counts {
        simulations: registry.counter_value(wk::NET_REPLICATIONS),
        pivots: registry.counter_value(wk::MILP_PIVOTS),
        events: registry.counter_value(wk::DES_EVENTS_DISPATCHED),
    }
}

/// What one solve left behind.
pub struct Solved<R> {
    pub value: R,
    pub solve_s: f64,
    pub proc: procfs::Delta,
    /// Span split of the solve (traced repetitions only).
    pub spans: Option<SpanTimes>,
}

/// Runs `solve` on this thread under `collector`, inside a `bench.solve`
/// root span, with process counters read around it.
pub fn solve<R>(collector: &Collector, solve: impl FnOnce() -> R) -> Solved<R> {
    let before = procfs::Sample::now();
    let t0 = Instant::now();
    let value = {
        let _installed = collector.install(0, 0);
        let _root = hi_trace::span("bench.solve");
        solve()
    };
    let solve_s = t0.elapsed().as_secs_f64();
    let proc = before.until(&procfs::Sample::now());
    let spans = collector
        .records_events()
        .then(|| spans::attribute(&collector.drain_events()));
    Solved {
        value,
        solve_s,
        proc,
        spans,
    }
}

/// The per-layer metrics of one traced engine solve.
///
/// Driver-side layers are shares of the solve's wall time; worker-side
/// layers (simulation, fault scenarios) are shares of the time workers
/// spent inside the evaluator.
pub fn layers(
    registry: &MetricsRegistry,
    spans: &SpanTimes,
    eval: &EvalStats,
    solve_s: f64,
    workers: usize,
    lint_one_s: f64,
    (cache_hits, cache_misses): (u64, u64),
) -> BTreeMap<&'static str, f64> {
    let counter = |name| registry.counter_value(name) as f64;
    let milp_s = hist_sum_s(registry, wk::MILP_SOLVE_NS);
    let replication_s = hist_sum_s(registry, wk::NET_REPLICATION_NS);
    let scenario_s = hist_sum_s(registry, wk::ROBUST_SCENARIO_NS);
    let batch_wall_s = spans.busy("exec.batch");
    let worker_s = eval.busy_s();
    let mut m = BTreeMap::new();
    m.insert("milp.solves", counter(wk::MILP_SOLVES));
    m.insert("milp.solve_s", milp_s);
    m.insert("milp.solve_share", ratio(milp_s, solve_s));
    m.insert("milp.pivots", counter(wk::MILP_PIVOTS));
    m.insert("milp.bb_nodes", counter(wk::MILP_BB_NODES));
    m.insert(
        "milp.pivots_per_node",
        ratio(counter(wk::MILP_PIVOTS), counter(wk::MILP_BB_NODES)),
    );
    m.insert("milp.lint_s", lint_one_s * counter(wk::MILP_SOLVES));
    m.insert("net.replications", counter(wk::NET_REPLICATIONS));
    m.insert("net.replication_share", ratio(replication_s, worker_s));
    m.insert("des.events_dispatched", counter(wk::DES_EVENTS_DISPATCHED));
    m.insert(
        "des.events_per_s",
        ratio(counter(wk::DES_EVENTS_DISPATCHED), replication_s),
    );
    m.insert("core.evals", eval.calls() as f64);
    m.insert("core.eval_share", ratio(worker_s, solve_s));
    m.insert(
        "core.cache_hit_ratio",
        ratio(cache_hits as f64, (cache_hits + cache_misses) as f64),
    );
    m.insert("algo1.iterations", counter(wk::ALGO1_ITERATIONS));
    m.insert("algo1.candidates", counter(wk::ALGO1_CANDIDATES));
    m.insert(
        "algo1.feasible_ratio",
        ratio(eval.feasible() as f64, eval.calls() as f64),
    );
    m.insert("robust.scenarios", counter(wk::ROBUST_SCENARIOS));
    m.insert("robust.scenario_share", ratio(scenario_s, worker_s));
    // Engine self time: the solve minus the time the driving thread waited on
    // evaluation batches and minus the MILP.
    let engine_self_s = (solve_s - batch_wall_s - milp_s).max(0.0);
    m.insert("engine.self_s", engine_self_s);
    m.insert("exec.tasks_run", counter(wk::EXEC_TASKS_RUN));
    m.insert("exec.steals", counter(wk::EXEC_STEALS));
    m.insert("exec.parks", counter(wk::EXEC_PARKS));
    m.insert(
        "exec.busy_share",
        ratio(worker_s, workers as f64 * batch_wall_s),
    );
    m.insert(
        "trace.attributed_share",
        ratio(spans.main_lane_self, solve_s),
    );
    m
}
