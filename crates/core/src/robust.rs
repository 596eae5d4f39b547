//! Robust (fault-aware) evaluation of design points.
//!
//! The paper's Algorithm 1 scores each candidate under nominal
//! conditions. This module rescores candidates across a suite of fault
//! scenarios ([`FaultSuite`]) — node outages, link blackouts, battery
//! depletions, interference bursts — and aggregates the per-scenario
//! results into a single conservative [`Evaluation`] the exploration
//! engines consume unchanged. Feasibility under
//! [`RobustMode::WorstCase`] therefore means *the PDR floor holds in
//! every scenario* (the Γ = all case of Γ-robustness: the optimum must
//! survive every modeled disruption), and [`RobustMode::Quantile`]
//! relaxes that to "holds in a fraction `q` of scenarios".
//!
//! Determinism: scenario `s` of point `p` is seeded purely from
//! `(protocol seed, p, s)`, with `s = 0` (nominal) reproducing
//! [`SharedSimEvaluator`](crate::SharedSimEvaluator)'s seed bit for bit —
//! so an empty suite makes robust exploration identical, bit for bit, to
//! nominal exploration, and a non-empty suite stays thread-invariant
//! through the shared cache's exactly-once contract.

use std::sync::Arc;

use hi_exec::{EvalCache, EvalError};
use hi_net::{simulate_averaged_budgeted, FaultScenario, SimError};

use crate::evaluator::{Evaluation, PointEvaluator, SimProtocol};
use crate::point::DesignPoint;

/// An ordered set of fault scenarios a design is scored against (the
/// nominal, fault-free scenario is always implicitly included first).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSuite {
    /// The fault scenarios, in evaluation (and seed-derivation) order.
    pub scenarios: Vec<FaultScenario>,
}

impl FaultSuite {
    /// A suite over the given scenarios.
    pub fn new(scenarios: Vec<FaultScenario>) -> Self {
        Self { scenarios }
    }

    /// The empty suite: robust evaluation degenerates to nominal.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of fault scenarios (not counting the implicit nominal one).
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True if the suite holds no fault scenario.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

/// How per-scenario results collapse into the one [`Evaluation`] the
/// exploration engines rank and constrain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RobustMode {
    /// Ignore the fault suite: report the nominal evaluation (useful as a
    /// baseline against the robust modes on the same suite).
    Nominal,
    /// Field-wise worst case over nominal + all scenarios: lowest PDR,
    /// lowest lifetime, highest power. The conservative envelope — each
    /// field may come from a different scenario.
    WorstCase,
    /// The `q`-quantile (lower tail for PDR and lifetime, upper tail for
    /// power) over nominal + all scenarios. `Quantile(0.0)` is
    /// `WorstCase`; `Quantile(1.0)` is the most optimistic scenario.
    Quantile(f64),
}

/// The full fault-suite scorecard of one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustEvaluation {
    /// The fault-free evaluation (scenario index 0).
    pub nominal: Evaluation,
    /// Per-fault-scenario evaluations, in suite order.
    pub scenarios: Vec<Evaluation>,
}

/// `values` sorted ascending with a total order (all simulator outputs
/// are finite, but `total_cmp` keeps even pathological values stable).
fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v
}

impl RobustEvaluation {
    /// All evaluations — nominal first, then suite order.
    pub fn all(&self) -> impl Iterator<Item = &Evaluation> {
        std::iter::once(&self.nominal).chain(self.scenarios.iter())
    }

    /// The field-wise worst case (see [`RobustMode::WorstCase`]).
    pub fn worst_case(&self) -> Evaluation {
        Evaluation {
            pdr: self.all().map(|e| e.pdr).fold(f64::INFINITY, f64::min),
            nlt_days: self.all().map(|e| e.nlt_days).fold(f64::INFINITY, f64::min),
            power_mw: self
                .all()
                .map(|e| e.power_mw)
                .fold(f64::NEG_INFINITY, f64::max),
            latency_ms: self
                .all()
                .map(|e| e.latency_ms)
                .fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// The `q`-quantile evaluation (see [`RobustMode::Quantile`]): the
    /// deterministic index `round(q * (n - 1))` into the sorted
    /// per-scenario values, taken from the pessimistic end of each field.
    ///
    /// Pinned semantics (certified by `quantile_edge_semantics_are_pinned`):
    ///
    /// * `q` is clamped to `[0, 1]`; `q = 0` equals [`worst_case`]
    ///   field-wise and `q = 1` is the most optimistic value of each
    ///   field (lowest power, highest PDR/lifetime);
    /// * the index rounds half away from zero, so with one fault
    ///   scenario (`n = 2`) the median `q = 0.5` resolves to the
    ///   *optimistic* end;
    /// * an empty suite (`n = 1`) returns the nominal evaluation for
    ///   every `q`, bit for bit;
    /// * fields are ranked independently, so the quantile evaluation —
    ///   like the worst case — may mix fields from different scenarios.
    ///
    /// [`worst_case`]: Self::worst_case
    pub fn quantile(&self, q: f64) -> Evaluation {
        let q = q.clamp(0.0, 1.0);
        let n = self.scenarios.len() + 1;
        let idx = (q * (n - 1) as f64).round() as usize;
        let pdr = sorted(self.all().map(|e| e.pdr))[idx];
        let nlt = sorted(self.all().map(|e| e.nlt_days))[idx];
        // For power and latency, pessimistic = high: index from the top.
        let power = sorted(self.all().map(|e| e.power_mw))[n - 1 - idx];
        let latency = sorted(self.all().map(|e| e.latency_ms))[n - 1 - idx];
        Evaluation {
            pdr,
            nlt_days: nlt,
            power_mw: power,
            latency_ms: latency,
        }
    }

    /// Collapses the scorecard under `mode`.
    pub fn aggregate(&self, mode: RobustMode) -> Evaluation {
        match mode {
            RobustMode::Nominal => self.nominal,
            RobustMode::WorstCase => self.worst_case(),
            RobustMode::Quantile(q) => self.quantile(q),
        }
    }
}

/// A [`PointEvaluator`] scoring each point across a [`FaultSuite`].
///
/// Clones share one evaluation cache (keyed by design point, holding the
/// full per-scenario scorecard), so the engines' exactly-once and
/// thread-invariance guarantees carry over unchanged: a point costs
/// `(1 + suite.len()) × runs` simulations exactly once, no matter how
/// many threads or engines ask.
#[derive(Debug, Clone)]
pub struct RobustEvaluator {
    protocol: SimProtocol,
    suite: Arc<FaultSuite>,
    mode: RobustMode,
    cache: Arc<EvalCache<DesignPoint, Result<RobustEvaluation, EvalError>>>,
}

impl RobustEvaluator {
    /// A fresh robust evaluator (and cache) under `protocol`.
    pub fn new(protocol: SimProtocol, suite: FaultSuite, mode: RobustMode) -> Self {
        Self {
            protocol,
            suite: Arc::new(suite),
            mode,
            cache: Arc::new(EvalCache::new()),
        }
    }

    /// The simulation protocol.
    pub fn protocol(&self) -> &SimProtocol {
        &self.protocol
    }

    /// The fault suite this evaluator scores against.
    pub fn suite(&self) -> &FaultSuite {
        &self.suite
    }

    /// The aggregation mode.
    pub fn mode(&self) -> RobustMode {
        self.mode
    }

    /// Runs scenario `index` (0 = nominal) of `point`. Seed derivation
    /// for index 0 matches the nominal evaluator's exactly; fault
    /// scenarios mix the index into the low fingerprint half. A
    /// replication exceeding the protocol's [`SimProtocol::max_events`]
    /// budget fails the scenario — and through it the whole scorecard —
    /// with a typed deadline error.
    fn simulate_scenario(&self, point: &DesignPoint, index: u64) -> Result<Evaluation, EvalError> {
        let mut span = hi_trace::span("robust.scenario");
        if span.is_recording() {
            // Scenario labels are user-supplied strings (quotes, control
            // characters, non-ASCII all possible): the sinks escape them.
            let label = if index == 0 {
                "nominal".to_string()
            } else {
                self.suite.scenarios[index as usize - 1].name.clone()
            };
            span.arg("scenario", label);
            span.arg("index", index);
        }
        let t_begin = hi_trace::now_ns();
        let mut cfg = point.to_network_config();
        cfg.app = self.protocol.app;
        if index > 0 {
            cfg.scenario = self.suite.scenarios[index as usize - 1].clone();
        }
        let fingerprint = point.fingerprint();
        let seed = self.protocol.seed
            ^ hi_des::rng::derive_seed(fingerprint >> 4, (fingerprint & 0xF) | (index << 8));
        let out = simulate_averaged_budgeted(
            &cfg,
            self.protocol.channel,
            self.protocol.t_sim,
            seed,
            self.protocol.runs,
            self.protocol.max_events,
        )
        .map_err(|e| match e {
            SimError::Config(c) => panic!("design points lower to valid configs: {c}"),
            deadline @ SimError::DeadlineExceeded { .. } => {
                hi_trace::counter(hi_trace::wellknown::EXEC_DEADLINES, 1);
                EvalError::deadline(format!(
                    "robust evaluation of {point} (scenario {index}): {deadline}"
                ))
            }
        })?;
        hi_trace::counter(hi_trace::wellknown::ROBUST_SCENARIOS, 1);
        if let (Some(t0), Some(t1)) = (t_begin, hi_trace::now_ns()) {
            hi_trace::histogram(
                hi_trace::wellknown::ROBUST_SCENARIO_NS,
                t1.saturating_sub(t0),
            );
        }
        Ok(Evaluation {
            pdr: out.pdr,
            nlt_days: out.nlt_days,
            power_mw: out.max_power_mw,
            latency_ms: out.latency.mean_ms,
        })
    }

    /// The full scorecard of `point` (cached; a panicking simulation —
    /// or a deadline trip in any scenario — degrades to a cached
    /// [`EvalError`]).
    pub fn try_robust_eval(&self, point: &DesignPoint) -> Result<RobustEvaluation, EvalError> {
        self.cache.get_or_compute(*point, || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                || -> Result<RobustEvaluation, EvalError> {
                    Ok(RobustEvaluation {
                        nominal: self.simulate_scenario(point, 0)?,
                        scenarios: (1..=self.suite.len() as u64)
                            .map(|s| self.simulate_scenario(point, s))
                            .collect::<Result<_, _>>()?,
                    })
                },
            ))
            .unwrap_or_else(|payload| Err(EvalError::from_panic(payload.as_ref())));
            if result.is_err() {
                hi_trace::counter(hi_trace::wellknown::EXEC_CACHE_PANIC_MEMO, 1);
            }
            result
        })
    }

    /// Seeds the scorecard cache with a previously computed outcome —
    /// the import half of cache persistence (see
    /// [`SharedSimEvaluator::seed_eval`](crate::SharedSimEvaluator::seed_eval)).
    /// An existing entry wins; returns whether the seed landed.
    pub fn seed_scorecard(&self, point: DesignPoint, card: RobustEvaluation) -> bool {
        self.cache.seed(point, Ok(card))
    }

    /// Every successfully settled `(point, scorecard)` pair, sorted by
    /// point fingerprint — the export half of cache persistence. Cached
    /// errors are excluded, mirroring
    /// [`SharedSimEvaluator::cached_ok`](crate::SharedSimEvaluator::cached_ok).
    pub fn cached_scorecards(&self) -> Vec<(DesignPoint, RobustEvaluation)> {
        let mut out: Vec<(DesignPoint, RobustEvaluation)> = self
            .cache
            .snapshot()
            .into_iter()
            .filter_map(|(point, outcome)| outcome.ok().map(|card| (point, card)))
            .collect();
        out.sort_by_key(|(point, _)| point.fingerprint());
        out
    }

    /// Forgets the cached scorecard of `point`, if any (see
    /// [`PointEvaluator::drop_cached`]).
    pub fn drop_cached(&self, point: &DesignPoint) -> bool {
        self.cache.remove(point)
    }

    /// Number of unique points whose scorecard has been computed.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Cache lookups answered without simulating.
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Raw cache misses: scorecards actually computed (each one costs
    /// `1 + suite.len()` simulations — see
    /// [`unique_evaluations`](Self::unique_evaluations)).
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Unique simulations spent: each computed scorecard costs one
    /// nominal plus one run per suite scenario.
    pub fn unique_evaluations(&self) -> u64 {
        self.cache.misses() * (self.suite.len() as u64 + 1)
    }
}

impl PointEvaluator for RobustEvaluator {
    fn try_eval(&self, point: &DesignPoint) -> Result<Evaluation, EvalError> {
        self.try_robust_eval(point).map(|r| r.aggregate(self.mode))
    }

    fn unique_evaluations(&self) -> u64 {
        RobustEvaluator::unique_evaluations(self)
    }

    fn drop_cached(&self, point: &DesignPoint) -> bool {
        RobustEvaluator::drop_cached(self, point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{MacChoice, Placement, RouteChoice};
    use hi_des::SimDuration;
    use hi_net::TxPower;

    fn ev(pdr: f64, nlt: f64, power: f64) -> Evaluation {
        Evaluation {
            pdr,
            nlt_days: nlt,
            power_mw: power,
            // Latency covaries with power in these fixtures, so the
            // pessimistic-high aggregation is exercised on both fields.
            latency_ms: power * 10.0,
        }
    }

    fn scorecard() -> RobustEvaluation {
        RobustEvaluation {
            nominal: ev(0.95, 100.0, 1.0),
            scenarios: vec![ev(0.60, 80.0, 1.4), ev(0.85, 120.0, 1.2)],
        }
    }

    #[test]
    fn worst_case_is_the_fieldwise_envelope() {
        let w = scorecard().worst_case();
        assert_eq!(w.pdr, 0.60);
        assert_eq!(w.nlt_days, 80.0);
        assert_eq!(w.power_mw, 1.4);
        assert_eq!(w.latency_ms, 14.0, "latency worst case is the maximum");
    }

    #[test]
    fn quantile_spans_worst_to_best() {
        let card = scorecard();
        assert_eq!(card.quantile(0.0), card.worst_case());
        let median = card.quantile(0.5);
        assert_eq!(median.pdr, 0.85);
        assert_eq!(median.nlt_days, 100.0);
        assert_eq!(median.power_mw, 1.2);
        assert_eq!(median.latency_ms, 12.0);
        let best = card.quantile(1.0);
        assert_eq!(best.pdr, 0.95);
        assert_eq!(best.power_mw, 1.0);
        assert_eq!(best.latency_ms, 10.0, "optimistic latency is the lowest");
    }

    #[test]
    fn nominal_mode_ignores_the_suite() {
        assert_eq!(
            scorecard().aggregate(RobustMode::Nominal),
            ev(0.95, 100.0, 1.0)
        );
    }

    #[test]
    fn quantile_edge_semantics_are_pinned() {
        // Empty suite (n = 1): every quantile is the nominal evaluation.
        let lone = RobustEvaluation {
            nominal: ev(0.95, 100.0, 1.0),
            scenarios: vec![],
        };
        for q in [0.0, 0.25, 0.5, 1.0] {
            let e = lone.quantile(q);
            assert_eq!(e.pdr.to_bits(), lone.nominal.pdr.to_bits(), "q = {q}");
            assert_eq!(e.nlt_days.to_bits(), lone.nominal.nlt_days.to_bits());
            assert_eq!(e.power_mw.to_bits(), lone.nominal.power_mw.to_bits());
        }
        // Single-scenario suite (n = 2): q = 0 is the worst case, q = 1
        // the best, and the median rounds half away from zero — to the
        // optimistic end.
        let pair = RobustEvaluation {
            nominal: ev(0.95, 100.0, 1.0),
            scenarios: vec![ev(0.60, 80.0, 1.4)],
        };
        assert_eq!(pair.quantile(0.0), pair.worst_case());
        assert_eq!(pair.quantile(1.0), ev(0.95, 100.0, 1.0));
        assert_eq!(pair.quantile(0.5), ev(0.95, 100.0, 1.0));
        // q = 0 / q = 100 percent pin to the ends on a wider card too,
        // and out-of-range q clamps instead of panicking or indexing out.
        let card = scorecard();
        assert_eq!(card.quantile(0.0), card.worst_case());
        assert_eq!(card.quantile(1.0), ev(0.95, 120.0, 1.0));
        assert_eq!(card.quantile(-3.0), card.quantile(0.0));
        assert_eq!(card.quantile(7.0), card.quantile(1.0));
    }

    #[test]
    fn all_scenarios_infeasible_still_aggregates() {
        // Every scenario floored at PDR 0 (total outage): the worst case
        // is infeasible for any positive floor, the nominal untouched,
        // and nothing panics or divides by zero.
        let card = RobustEvaluation {
            nominal: ev(0.95, 100.0, 1.0),
            scenarios: vec![ev(0.0, 0.0, 2.0), ev(0.0, 0.0, 1.8)],
        };
        let worst = card.aggregate(RobustMode::WorstCase);
        assert_eq!(worst.pdr, 0.0);
        assert_eq!(worst.nlt_days, 0.0);
        assert_eq!(worst.power_mw, 2.0);
        assert_eq!(card.aggregate(RobustMode::Nominal), ev(0.95, 100.0, 1.0));
        // The median of {0, 0, 0.95} is the middle order statistic.
        assert_eq!(card.aggregate(RobustMode::Quantile(0.5)).pdr, 0.0);
    }

    #[test]
    fn empty_suite_robust_eval_equals_nominal_eval_bitwise() {
        let protocol = SimProtocol::new(SimDuration::from_secs(2.0), 1, 314);
        let robust = RobustEvaluator::new(protocol, FaultSuite::empty(), RobustMode::WorstCase);
        let nominal = protocol.shared_evaluator();
        let point = DesignPoint {
            placement: Placement::from_indices([0, 1, 3, 5]),
            tx_power: TxPower::ZeroDbm,
            mac: MacChoice::Tdma,
            routing: RouteChoice::Star,
        };
        let a = robust.try_eval(&point).unwrap();
        let b = nominal.try_eval(&point).unwrap();
        assert_eq!(a.pdr.to_bits(), b.pdr.to_bits());
        assert_eq!(a.nlt_days.to_bits(), b.nlt_days.to_bits());
        assert_eq!(a.power_mw.to_bits(), b.power_mw.to_bits());
        assert_eq!(a.latency_ms.to_bits(), b.latency_ms.to_bits());
        assert_eq!(robust.unique_evaluations(), 1);
    }

    #[test]
    fn faulted_scenarios_change_the_scorecard() {
        use hi_net::{SiteOutage, Window};
        let protocol = SimProtocol::new(SimDuration::from_secs(2.0), 1, 314);
        let mut scenario = FaultScenario::named("arm down");
        scenario.outages.push(SiteOutage {
            site: 5,
            window: Window::open_ended(hi_des::SimTime::ZERO),
        });
        let robust = RobustEvaluator::new(
            protocol,
            FaultSuite::new(vec![scenario]),
            RobustMode::WorstCase,
        );
        let point = DesignPoint {
            placement: Placement::from_indices([0, 1, 3, 5]),
            tx_power: TxPower::ZeroDbm,
            mac: MacChoice::Tdma,
            routing: RouteChoice::Star,
        };
        let card = robust.try_robust_eval(&point).unwrap();
        assert_eq!(card.scenarios.len(), 1);
        assert!(
            card.scenarios[0].pdr < card.nominal.pdr,
            "a dead node all run long must cost PDR ({} vs nominal {})",
            card.scenarios[0].pdr,
            card.nominal.pdr
        );
        assert_eq!(robust.unique_evaluations(), 2);
        // Broken points degrade to typed errors, same as the nominal path.
        let broken = DesignPoint {
            placement: Placement::from_indices([1, 2, 3, 4]),
            tx_power: TxPower::ZeroDbm,
            mac: MacChoice::Tdma,
            routing: RouteChoice::Star,
        };
        assert!(robust.try_eval(&broken).is_err());
    }
}
