//! Reliability/lifetime trade-off sweeps — the paper's Fig. 3 arrows as
//! an API.
//!
//! Running [`explore`] once answers "what is the best design for *this*
//! `PDRmin`?". Designers usually want the whole frontier: how the
//! architecture migrates (weak star → strong star → mesh → bigger mesh)
//! as the floor rises, and what each step costs in lifetime.
//! [`explore_tradeoff_par`] runs Algorithm 1 per floor against a *shared*
//! memoizing evaluator, so the sweep costs barely more than its most
//! demanding floor.

use crate::algorithm1::{explore, ExploreError, ExploreOptions, Problem, StopReason};
use crate::evaluator::{Evaluation, PointEvaluator};
use crate::parallel::ExecContext;
use crate::point::DesignPoint;

/// One floor of a trade-off sweep.
#[derive(Debug, Clone)]
pub struct TradeoffPoint {
    /// The reliability floor explored.
    pub pdr_min: f64,
    /// The optimal design and its measured performance (`None` if the
    /// floor is infeasible).
    pub best: Option<(DesignPoint, Evaluation)>,
    /// Unique simulations newly run for this floor (cache hits excluded).
    pub new_simulations: u64,
    /// Why Algorithm 1 stopped at this floor.
    pub stop_reason: StopReason,
}

/// The answer for `floor` when it bit-equals the floor just swept:
/// Algorithm 1 is deterministic, so a repeated adjacent floor would
/// redo the whole MILP ladder only to rediscover the same optimum from
/// cache. The duplicate echoes the previous point (zero new work)
/// instead of dispatching a sweep.
fn echo_duplicate_floor(swept: &[TradeoffPoint], floor: f64) -> Option<TradeoffPoint> {
    let last = swept.last()?;
    (last.pdr_min.to_bits() == floor.to_bits()).then(|| TradeoffPoint {
        new_simulations: 0,
        ..last.clone()
    })
}

/// Runs Algorithm 1 for every floor in `floors` (any order), sharing
/// `evaluator`'s cache across floors. Results are returned in the given
/// floor order. Each floor's candidate levels fan out over `exec`'s pool,
/// and results are bit-identical for every thread count.
///
/// If `exec` is cancelled, the remaining floors are skipped and the sweep
/// returns the floors finished so far (the cancelled floor reports
/// [`StopReason::Cancelled`]).
///
/// # Errors
///
/// Propagates the first [`ExploreError`].
///
/// # Panics
///
/// Panics if a floor lies outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use hi_core::{explore_tradeoff_par, power, DesignPoint, Evaluation, ExecContext,
///               FnEvaluator, Problem};
/// use hi_net::AppParams;
///
/// # fn main() -> Result<(), hi_core::ExploreError> {
/// let app = AppParams::default();
/// let oracle = FnEvaluator::new(move |p: &DesignPoint| {
///     let power = power::analytic_power_mw(p, &app);
///     Evaluation { pdr: 0.9, nlt_days: 2430.0 / power / 86.4, power_mw: power,
///                  latency_ms: 4.0 }
/// });
/// let problem = Problem::paper_default(0.5);
/// let exec = ExecContext::sequential();
/// let sweep = explore_tradeoff_par(&problem, &[0.5, 0.8], &oracle, &exec)?;
/// assert_eq!(sweep.len(), 2);
/// assert!(sweep.iter().all(|t| t.best.is_some()));
/// # Ok(())
/// # }
/// ```
pub fn explore_tradeoff_par<P: PointEvaluator>(
    template: &Problem,
    floors: &[f64],
    evaluator: &P,
    exec: &ExecContext,
) -> Result<Vec<TradeoffPoint>, ExploreError> {
    let mut out: Vec<TradeoffPoint> = Vec::with_capacity(floors.len());
    for &floor in floors {
        assert!((0.0..=1.0).contains(&floor), "floor {floor} outside [0, 1]");
        if exec.is_cancelled() {
            break;
        }
        if let Some(echo) = echo_duplicate_floor(&out, floor) {
            out.push(echo);
            continue;
        }
        let problem = Problem {
            space: template.space.clone(),
            pdr_min: floor,
            app: template.app,
        };
        let before = evaluator.unique_evaluations();
        let outcome = explore(
            &problem,
            evaluator,
            ExploreOptions::default(),
            exec,
            None,
            &mut |_| (),
        )?;
        out.push(TradeoffPoint {
            pdr_min: floor,
            best: outcome.best,
            new_simulations: evaluator.unique_evaluations() - before,
            stop_reason: outcome.stop_reason,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::FnEvaluator;
    use crate::point::RouteChoice;
    use crate::power::analytic_power_mw;
    use hi_exec::EvalError;
    use hi_net::{AppParams, TxPower};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn ladder_oracle(point: &DesignPoint) -> Evaluation {
        let app = AppParams::default();
        let base = match point.tx_power {
            TxPower::Minus20Dbm => 0.45,
            TxPower::Minus10Dbm => 0.70,
            TxPower::ZeroDbm => 0.93,
        };
        let bonus: f64 = if point.routing == RouteChoice::Mesh {
            0.06
        } else {
            0.0
        };
        let power = analytic_power_mw(point, &app);
        Evaluation {
            pdr: (base + bonus).min(1.0),
            nlt_days: 2430.0 / (power * 1e-3) / 86_400.0,
            power_mw: power,
            latency_ms: 2.0 + power,
        }
    }

    fn sweep<P: PointEvaluator>(floors: &[f64], evaluator: &P) -> Vec<TradeoffPoint> {
        let template = Problem::paper_default(0.5);
        explore_tradeoff_par(&template, floors, evaluator, &ExecContext::sequential()).unwrap()
    }

    #[test]
    fn lifetime_is_monotone_in_the_floor() {
        let ev = FnEvaluator::new(ladder_oracle);
        let sweep = sweep(&[0.4, 0.6, 0.9, 0.98], &ev);
        let nlts: Vec<f64> = sweep
            .iter()
            .map(|t| t.best.as_ref().expect("feasible").1.nlt_days)
            .collect();
        assert!(
            nlts.windows(2).all(|w| w[0] >= w[1]),
            "lifetime must not rise with the floor: {nlts:?}"
        );
    }

    #[test]
    fn shared_cache_makes_later_floors_cheap() {
        let ev = FnEvaluator::new(ladder_oracle);
        let sweep = sweep(&[0.9, 0.9], &ev);
        assert!(sweep[0].new_simulations > 0);
        assert_eq!(sweep[1].new_simulations, 0, "second pass fully cached");
    }

    #[test]
    fn duplicate_adjacent_floors_echo_without_dispatching() {
        // Counts *every* evaluator query, cache hits included: a deduped
        // duplicate floor must not even re-walk the MILP ladder. The
        // count is the same on one worker and on several.
        #[derive(Clone)]
        struct Counting {
            inner: FnEvaluator<fn(&DesignPoint) -> Evaluation>,
            queries: Arc<AtomicU64>,
        }
        impl PointEvaluator for Counting {
            fn try_eval(&self, point: &DesignPoint) -> Result<Evaluation, EvalError> {
                self.queries.fetch_add(1, Ordering::Relaxed);
                self.inner.try_eval(point)
            }
            fn unique_evaluations(&self) -> u64 {
                self.inner.unique_evaluations()
            }
        }
        let template = Problem::paper_default(0.5);
        let run = |floors: &[f64], threads: usize| {
            let ev = Counting {
                inner: FnEvaluator::new(ladder_oracle as fn(&DesignPoint) -> Evaluation),
                queries: Arc::default(),
            };
            let exec = ExecContext::new(threads);
            let sweep = explore_tradeoff_par(&template, floors, &ev, &exec).unwrap();
            (sweep, ev.queries.load(Ordering::Relaxed))
        };
        let (lone, queries_for_one) = run(&[0.9], 1);
        for threads in [1, 4] {
            let (sweep, queries) = run(&[0.9, 0.9, 0.9], threads);
            assert_eq!(queries, queries_for_one, "duplicates dispatched work");
            assert_eq!(sweep.len(), 3);
            for point in &sweep[1..] {
                assert_eq!(point.new_simulations, 0);
                assert_eq!(point.best, lone[0].best);
                assert_eq!(point.stop_reason, lone[0].stop_reason);
            }
        }
        // Non-adjacent repeats still re-sweep (cheaply, via the cache):
        // only *adjacent* duplicates are textual duplicates of intent.
        let ev = FnEvaluator::new(ladder_oracle);
        let sweep = sweep(&[0.9, 0.6, 0.9], &ev);
        assert_eq!(sweep[2].new_simulations, 0, "cache still covers repeats");
        assert_eq!(sweep[2].best, sweep[0].best);
    }

    #[test]
    fn infeasible_floor_reported() {
        let ev = FnEvaluator::new(|p: &DesignPoint| {
            let mut e = ladder_oracle(p);
            e.pdr = e.pdr.min(0.98);
            e
        });
        let sweep = sweep(&[0.99], &ev);
        assert!(sweep[0].best.is_none());
        assert_eq!(sweep[0].stop_reason, StopReason::MilpExhausted);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn floors_validated() {
        let ev = FnEvaluator::new(ladder_oracle);
        let _ = sweep(&[1.5], &ev);
    }
}
