//! Parallel execution plumbing for the search engines.
//!
//! [`ExecContext`] bundles the three `hi-exec` pieces — thread pool,
//! cancellation token and (through [`SharedSimEvaluator`]) the shared
//! evaluation cache — behind one handle that every engine (`explore`,
//! `exhaustive_search`, `explore_tradeoff_par`,
//! `simulated_annealing_restarts` and the robust engines) accepts. There
//! is no separate sequential code path: a context built with
//! `threads <= 1` spawns no pool at all and evaluates on the calling
//! thread in input order, and that *is* a sequential run.

use hi_exec::{CancelToken, EvalError, ThreadPool};
use hi_trace::{wellknown as wk, Collector};

use crate::evaluator::{Evaluation, PointEvaluator};
use crate::point::DesignPoint;

/// Execution resources for the batch search entry points.
#[derive(Debug)]
pub struct ExecContext {
    pool: Option<ThreadPool>,
    cancel: CancelToken,
    collector: Collector,
}

impl ExecContext {
    /// A context with `threads` workers. `threads <= 1` means strictly
    /// sequential: no pool is spawned and evaluations run on the calling
    /// thread in input order.
    pub fn new(threads: usize) -> Self {
        Self {
            pool: (threads > 1).then(|| ThreadPool::new(threads)),
            cancel: CancelToken::new(),
            collector: Collector::disabled(),
        }
    }

    /// The strictly sequential context.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// A context sized by [`hi_exec::default_threads`] (the
    /// `HI_EXEC_THREADS` environment variable, else the machine's
    /// available parallelism).
    pub fn from_env() -> Self {
        Self::new(hi_exec::default_threads())
    }

    /// Worker threads evaluations run on (1 for the sequential context).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, ThreadPool::threads)
    }

    /// A clone of the context's cancellation token; cancelling it makes
    /// every engine running under this context stop between evaluations
    /// and report [`StopReason::Cancelled`](crate::StopReason::Cancelled)
    /// (or return its current partial result).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Whether the context has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Attaches a tracing/metrics collector. Every batch fanned out
    /// through this context opens a fresh collector epoch and records
    /// work item `i` on lane `i + 1`, so trace layout is identical for
    /// every thread count (see `hi-trace`'s module docs).
    #[must_use]
    pub fn with_collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }

    /// The context's collector (disabled unless set via
    /// [`with_collector`](Self::with_collector)).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Folds the thread pool's lifetime statistics (tasks run, steals,
    /// park/unpark episodes) into the collector's metrics registry.
    ///
    /// The pool counts are cumulative totals, so call this once, when the
    /// run is over. No-op for disabled collectors and for sequential
    /// contexts (which have no pool).
    pub fn flush_pool_stats(&self) {
        let (Some(registry), Some(pool)) = (self.collector.registry(), &self.pool) else {
            return;
        };
        let stats = pool.stats();
        registry.add(wk::EXEC_TASKS_RUN, stats.tasks_run);
        registry.add(wk::EXEC_STEALS, stats.steals);
        registry.add(wk::EXEC_PARKS, stats.parks);
        registry.add(wk::EXEC_UNPARKS, stats.unparks);
    }

    /// Applies `f` to every item — on the pool if there is one, else
    /// sequentially in input order — returning results in input order.
    /// `None` marks items skipped after cancellation; without
    /// cancellation every slot is `Some` regardless of thread count.
    pub(crate) fn map_cancellable<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<Option<R>>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let mut batch_span = hi_trace::span("exec.batch");
        if batch_span.is_recording() {
            batch_span.arg("items", items.len() as u64);
            batch_span.arg("threads", self.threads() as u64);
        }
        let batch = self.collector.open_batch();
        let epoch = batch.as_ref().map(hi_trace::BatchToken::epoch);
        let collector = self.collector.clone();
        let indexed: Vec<(usize, T)> = items.into_iter().enumerate().collect();
        let run_one = move |(i, item): (usize, T)| {
            let _lane = epoch.map(|e| collector.install(e, lane_for(i)));
            f(item)
        };
        match &self.pool {
            None => indexed
                .into_iter()
                .map(|it| (!self.cancel.is_cancelled()).then(|| run_one(it)))
                .collect(),
            Some(pool) => pool.par_map_cancellable(indexed, self.cancel.clone(), run_one),
        }
    }

    /// Evaluates `points` against `evaluator`, returning results in
    /// input order. `None` marks points skipped after cancellation;
    /// without cancellation every slot is `Some`. A failing (or
    /// panicking) evaluation degrades to a per-slot [`EvalError`] instead
    /// of aborting the batch. Both execution paths catch panics, so the
    /// slot-level results are bit-identical for every thread count.
    pub fn try_eval_points<P: PointEvaluator>(
        &self,
        evaluator: &P,
        points: &[DesignPoint],
    ) -> Vec<Option<Result<Evaluation, EvalError>>> {
        let evaluator = evaluator.clone();
        let mut batch_span = hi_trace::span("exec.batch");
        if batch_span.is_recording() {
            batch_span.arg("items", points.len() as u64);
            batch_span.arg("threads", self.threads() as u64);
        }
        let batch = self.collector.open_batch();
        let epoch = batch.as_ref().map(hi_trace::BatchToken::epoch);
        let collector = self.collector.clone();
        let eval_one = move |(i, p): (usize, DesignPoint)| {
            let _lane = epoch.map(|e| collector.install(e, lane_for(i)));
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| evaluator.try_eval(&p)))
                .unwrap_or_else(|payload| Err(EvalError::from_panic(payload.as_ref())))
        };
        let indexed: Vec<(usize, DesignPoint)> = points.iter().copied().enumerate().collect();
        match &self.pool {
            None => indexed
                .into_iter()
                .map(|it| (!self.cancel.is_cancelled()).then(|| eval_one(it)))
                .collect(),
            Some(pool) => pool.par_map_catching(indexed, self.cancel.clone(), eval_one),
        }
    }
}

/// Trace lane for work item `i` of a batch: lane 0 belongs to the driving
/// thread, so items start at 1. Lanes saturate rather than wrap — batches
/// anywhere near `u32::MAX` items are far beyond this workspace's sizes,
/// and saturation keeps the key order monotone even then.
fn lane_for(i: usize) -> u32 {
    u32::try_from(i.saturating_add(1)).unwrap_or(u32::MAX)
}

impl Default for ExecContext {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::SimProtocol;
    use crate::point::{MacChoice, Placement, RouteChoice};
    use hi_des::SimDuration;
    use hi_net::TxPower;

    fn points() -> Vec<DesignPoint> {
        TxPower::ALL
            .iter()
            .map(|&tx_power| DesignPoint {
                placement: Placement::from_indices([0, 1, 3, 5]),
                tx_power,
                mac: MacChoice::Tdma,
                routing: RouteChoice::Star,
            })
            .collect()
    }

    #[test]
    fn sequential_context_has_no_pool() {
        let ctx = ExecContext::sequential();
        assert_eq!(ctx.threads(), 1);
        let ctx = ExecContext::new(0);
        assert_eq!(ctx.threads(), 1);
    }

    #[test]
    fn eval_points_is_thread_count_invariant() {
        let protocol = SimProtocol::new(SimDuration::from_secs(2.0), 1, 17);
        let run = |threads: usize| {
            let ctx = ExecContext::new(threads);
            let ev = protocol.shared_evaluator();
            ctx.try_eval_points(&ev, &points())
        };
        let sequential = run(1);
        assert!(sequential.iter().all(|slot| matches!(slot, Some(Ok(_)))));
        assert_eq!(sequential, run(4));
    }

    #[test]
    fn cancelled_context_skips_sequential_work() {
        let protocol = SimProtocol::new(SimDuration::from_secs(2.0), 1, 17);
        let ctx = ExecContext::sequential();
        ctx.cancel_token().cancel();
        assert!(ctx.is_cancelled());
        let ev = protocol.shared_evaluator();
        let out = ctx.try_eval_points(&ev, &points());
        assert!(out.iter().all(Option::is_none));
        assert_eq!(ev.cache_len(), 0);
    }
}
