//! A timing wrapper around a [`PointEvaluator`], used by traced runs.
//!
//! It measures the evaluator layer from outside: wall time spent inside
//! `try_eval` summed over workers, the number of calls, and how many of
//! them met the reliability floor the caller is currently exploring. Each
//! call also opens a `bench.eval` span, so the trace's worker lanes have a
//! root that the simulator's own spans nest under.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hi_core::{DesignPoint, EvalError, Evaluation, PointEvaluator};

#[derive(Debug, Default)]
pub struct EvalStats {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    feasible: AtomicU64,
    floor_bits: AtomicU64,
}

impl EvalStats {
    /// Sets the PDR floor that later calls are judged against.
    pub fn set_floor(&self, floor: f64) {
        self.floor_bits.store(floor.to_bits(), Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Calls whose evaluation met the floor set at the time of the call.
    pub fn feasible(&self) -> u64 {
        self.feasible.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
pub struct Timed<P> {
    inner: P,
    stats: Arc<EvalStats>,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            stats: Arc::default(),
        }
    }

    pub fn inner(&self) -> &P {
        &self.inner
    }

    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }
}

impl<P: PointEvaluator> PointEvaluator for Timed<P> {
    fn try_eval(&self, point: &DesignPoint) -> Result<Evaluation, EvalError> {
        let _span = hi_trace::span("bench.eval");
        let t0 = Instant::now();
        let result = self.inner.try_eval(point);
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        let floor = f64::from_bits(self.stats.floor_bits.load(Ordering::Relaxed));
        if result.as_ref().is_ok_and(|eval| eval.pdr >= floor) {
            self.stats.feasible.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn unique_evaluations(&self) -> u64 {
        self.inner.unique_evaluations()
    }

    fn drop_cached(&self, point: &DesignPoint) -> bool {
        self.inner.drop_cached(point)
    }
}
