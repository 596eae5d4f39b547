//! Exhaustive-search baseline: simulate every feasible configuration.
//!
//! This is the reference the paper measures its "87% reduction in the
//! number of required simulations" against.

use hi_exec::EvalError;

use crate::algorithm1::Problem;
use crate::evaluator::{Evaluation, PointEvaluator};
use crate::parallel::ExecContext;
use crate::point::DesignPoint;

/// Whether `candidate` strictly improves on the incumbent `best`.
///
/// The selection contract of every engine in this crate: **lowest
/// simulated power wins; ties keep the earlier point in enumeration
/// order** (strict `<`, first-wins). Because reductions always scan
/// evaluations in input order, the reported optimum cannot depend on
/// which worker finished first.
pub(crate) fn improves(candidate: &Evaluation, best: &Evaluation) -> bool {
    candidate.power_mw < best.power_mw
}

/// Folds `(point, evaluation)` pairs — in enumeration order — down to the
/// best reliability-feasible one under the [`improves`] tie-break.
pub(crate) fn best_feasible<'a>(
    pairs: impl IntoIterator<Item = &'a (DesignPoint, Evaluation)>,
    pdr_min: f64,
) -> Option<(DesignPoint, Evaluation)> {
    let mut best: Option<(DesignPoint, Evaluation)> = None;
    for (point, eval) in pairs {
        if eval.pdr >= pdr_min && best.as_ref().is_none_or(|(_, b)| improves(eval, b)) {
            best = Some((*point, *eval));
        }
    }
    best
}

/// Pairs each point with its evaluation, in input order, dropping failed
/// and skipped (`None`) slots; returns the pairs and the number of failed
/// evaluations. Algorithm 1 and the exhaustive sweep both degrade a
/// failed point this one way: it is excluded from the reduction and
/// counted.
pub(crate) fn settled(
    points: &[DesignPoint],
    slots: Vec<Option<Result<Evaluation, EvalError>>>,
) -> (Vec<(DesignPoint, Evaluation)>, u64) {
    let mut failed = 0u64;
    let pairs = points
        .iter()
        .zip(slots)
        .filter_map(|(point, slot)| match slot? {
            Ok(eval) => Some((*point, eval)),
            Err(_) => {
                failed += 1;
                None
            }
        })
        .collect();
    (pairs, failed)
}

/// Result of an exhaustive sweep.
#[derive(Debug, Clone)]
pub struct ExhaustiveOutcome {
    /// The lifetime-optimal reliability-feasible point, if any.
    pub best: Option<(DesignPoint, Evaluation)>,
    /// Every successfully evaluated `(point, evaluation)` pair, in
    /// enumeration order — the raw material of the paper's Fig. 3
    /// scatter.
    pub evaluations: Vec<(DesignPoint, Evaluation)>,
    /// Unique simulations run.
    pub simulations: u64,
    /// Points whose evaluation failed (panicking simulation, exceeded
    /// event budget). They are excluded from `evaluations` and from the
    /// selection of `best`, exactly as Algorithm 1 excludes a failed
    /// candidate; a nonzero count flags a degraded sweep.
    pub eval_errors: u64,
}

/// Evaluates every point of the problem's design space and returns the
/// best feasible one along with the full sweep.
///
/// The sweep fans out over `exec`'s thread pool while the reduction stays
/// sequential over enumeration order, so the outcome — points,
/// evaluations, best point, simulation and error counts — is
/// bit-identical for every thread count ([`ExecContext::sequential`]
/// runs the plain sequential loop). Best-point selection follows the
/// crate-wide tie-break: lowest `power_mw`, ties resolved to the first
/// point in enumeration order.
///
/// If `exec` is cancelled mid-sweep, the outcome covers the evaluations
/// that completed (a best-effort partial sweep, no longer guaranteed to
/// be deterministic).
pub fn exhaustive_search<P: PointEvaluator>(
    problem: &Problem,
    evaluator: &P,
    exec: &ExecContext,
) -> ExhaustiveOutcome {
    let before = evaluator.unique_evaluations();
    let points = problem.space.points();
    let slots = exec.try_eval_points(evaluator, &points);
    let (evaluations, eval_errors) = settled(&points, slots);
    ExhaustiveOutcome {
        best: best_feasible(&evaluations, problem.pdr_min),
        evaluations,
        simulations: evaluator.unique_evaluations() - before,
        eval_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::FnEvaluator;
    use crate::power::analytic_power_mw;
    use hi_net::AppParams;

    fn oracle(point: &DesignPoint) -> Evaluation {
        let app = AppParams::default();
        let power = analytic_power_mw(point, &app);
        Evaluation {
            pdr: if point.tx_power == hi_net::TxPower::ZeroDbm {
                0.95
            } else {
                0.5
            },
            nlt_days: 2430.0 / (power * 1e-3) / 86_400.0,
            latency_ms: 2.0 + power,
            power_mw: power,
        }
    }

    #[test]
    fn sweeps_whole_space() {
        let problem = Problem::paper_default(0.9);
        let ev = FnEvaluator::new(oracle);
        let out = exhaustive_search(&problem, &ev, &ExecContext::sequential());
        assert_eq!(out.evaluations.len(), 1320);
        assert_eq!(out.simulations, 1320);
        assert_eq!(out.eval_errors, 0);
        let (pt, _) = out.best.unwrap();
        // Cheapest feasible: 4-node star at 0 dBm.
        assert_eq!(pt.tx_power, hi_net::TxPower::ZeroDbm);
        assert_eq!(pt.num_nodes(), 4);
    }

    #[test]
    fn tie_on_power_keeps_first_point_in_enumeration_order() {
        // A constant oracle makes every point tie on power; the documented
        // tie-break must pick the very first enumerated point, no matter
        // what order evaluations complete in.
        let problem = Problem::paper_default(0.0);
        let ev = FnEvaluator::new(|_: &DesignPoint| Evaluation {
            pdr: 1.0,
            nlt_days: 1.0,
            power_mw: 1.0,
            latency_ms: 1.0,
        });
        let out = exhaustive_search(&problem, &ev, &ExecContext::new(2));
        assert_eq!(out.best.unwrap().0, problem.space.points()[0]);
    }

    #[test]
    fn reports_infeasible_when_nothing_qualifies() {
        let problem = Problem::paper_default(0.99);
        let ev = FnEvaluator::new(oracle);
        let out = exhaustive_search(&problem, &ev, &ExecContext::sequential());
        assert!(out.best.is_none());
        assert_eq!(out.evaluations.len(), 1320);
    }
}
