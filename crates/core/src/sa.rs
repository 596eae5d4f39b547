//! Simulated-annealing baseline (the paper compares against the
//! `perrygeo/simanneal` package).
//!
//! The state is a feasible [`DesignPoint`]; moves toggle an optional site,
//! step the transmit power, or flip the MAC/routing bits. The energy is
//! the simulated node power with a large penalty for violating the
//! reliability floor, so the annealer minimizes power among reliable
//! configurations — the same objective Algorithm 1 optimizes exactly.

use hi_des::rng;
use hi_net::TxPower;

use crate::algorithm1::Problem;
use crate::evaluator::{Evaluation, PointEvaluator};
use crate::exhaustive::improves;
use crate::parallel::ExecContext;
use crate::point::{DesignPoint, MacChoice, Placement, RouteChoice};

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaParams {
    /// Initial temperature (energy units: mW).
    pub t_start: f64,
    /// Final temperature.
    pub t_end: f64,
    /// Number of annealing steps.
    pub steps: u32,
    /// Penalty weight (mW per unit of PDR deficit) for infeasible states.
    pub penalty_mw: f64,
}

impl Default for SaParams {
    fn default() -> Self {
        Self {
            t_start: 2.0,
            t_end: 0.01,
            steps: 600,
            penalty_mw: 100.0,
        }
    }
}

/// Result of a simulated-annealing run.
#[derive(Debug, Clone)]
pub struct SaOutcome {
    /// Best reliability-feasible point observed, if any.
    pub best: Option<(DesignPoint, Evaluation)>,
    /// Annealing steps performed.
    pub steps: u32,
    /// Unique simulations run.
    pub simulations: u64,
}

/// Runs simulated annealing on `problem` (one chain, on the calling
/// thread).
///
/// A state whose evaluation fails has infinite energy, so a move to it
/// is always rejected — the same per-point degradation the other engines
/// apply — and the chain's random stream is consumed exactly as for any
/// other rejected move.
///
/// # Panics
///
/// Panics if the problem's design space is empty.
pub fn simulated_annealing<P: PointEvaluator>(
    problem: &Problem,
    evaluator: &P,
    params: SaParams,
    seed: u64,
) -> SaOutcome {
    let before = evaluator.unique_evaluations();
    let mut rng = rng::stream(seed, 0x5A5A);
    let constraints = problem.space.constraints().clone();
    let placements = constraints.feasible_placements();
    assert!(!placements.is_empty(), "empty design space");

    let energy = |e: &Evaluation| -> f64 {
        if e.pdr >= problem.pdr_min {
            e.power_mw
        } else {
            e.power_mw + params.penalty_mw * (problem.pdr_min - e.pdr)
        }
    };
    let measure = |point: &DesignPoint| -> (Option<Evaluation>, f64) {
        let eval = evaluator.try_eval(point).ok();
        (eval, eval.as_ref().map_or(f64::INFINITY, energy))
    };

    // Random feasible starting state.
    let mut current = DesignPoint {
        placement: placements[rng.gen_range(0..placements.len())],
        tx_power: TxPower::ALL[rng.gen_range(0..3)],
        mac: MacChoice::ALL[rng.gen_range(0..2)],
        routing: RouteChoice::ALL[rng.gen_range(0..2)],
    };
    let (current_eval, mut current_energy) = measure(&current);
    let mut best: Option<(DesignPoint, Evaluation)> =
        current_eval.and_then(|eval| feasible(problem, current, eval));

    let cooling = (params.t_end / params.t_start).powf(1.0 / params.steps.max(1) as f64);
    let mut temperature = params.t_start;
    for _ in 0..params.steps {
        let candidate = neighbor(&current, &constraints, &mut rng);
        let (eval, e) = measure(&candidate);
        let accept =
            e < current_energy || rng.gen_f64() < ((current_energy - e) / temperature).exp();
        // An accepted move has finite energy, so its evaluation succeeded.
        if let (true, Some(eval)) = (accept, eval) {
            current = candidate;
            current_energy = e;
            if let Some(fb) = feasible(problem, current, eval) {
                let better = best
                    .as_ref()
                    .is_none_or(|(_, b)| fb.1.power_mw < b.power_mw);
                if better {
                    best = Some(fb);
                }
            }
        }
        temperature *= cooling;
    }

    SaOutcome {
        best,
        steps: params.steps,
        simulations: evaluator.unique_evaluations() - before,
    }
}

/// Multi-restart simulated annealing on the execution engine: `restarts`
/// independent chains (chain `i` is seeded `derive_seed(base_seed, i)`,
/// so the chain set is fixed up front) run across `exec`'s thread pool
/// against the shared evaluation cache, and the best feasible point over
/// all chains is selected deterministically — lowest power first, ties
/// resolved to the lowest chain index.
///
/// Each chain is internally sequential (annealing is a Markov chain), so
/// `threads == 1` degenerates to running the chains back to back; any
/// thread count returns bit-identical results. The shared cache means
/// chains revisiting each other's states (or states another engine
/// already simulated) pay nothing, and `simulations` counts unique
/// simulations across the whole restart batch.
///
/// Cancelling `exec` skips chains that have not started; finished chains
/// still contribute to `best`.
///
/// # Panics
///
/// Panics if `restarts == 0` or the problem's design space is empty.
pub fn simulated_annealing_restarts<P: PointEvaluator>(
    problem: &Problem,
    evaluator: &P,
    params: SaParams,
    base_seed: u64,
    restarts: u32,
    exec: &ExecContext,
) -> SaOutcome {
    assert!(restarts > 0, "need at least one restart");
    let before = evaluator.unique_evaluations();
    let seeds: Vec<u64> = (0..restarts)
        .map(|i| rng::derive_seed(base_seed, u64::from(i)))
        .collect();
    let chain_bests: Vec<Option<Option<(DesignPoint, Evaluation)>>> = {
        let problem = problem.clone();
        let evaluator = evaluator.clone();
        exec.map_cancellable(seeds, move |seed| {
            simulated_annealing(&problem, &evaluator, params, seed).best
        })
    };
    let mut best: Option<(DesignPoint, Evaluation)> = None;
    for chain_best in chain_bests.into_iter().flatten().flatten() {
        if best
            .as_ref()
            .is_none_or(|(_, b)| improves(&chain_best.1, b))
        {
            best = Some(chain_best);
        }
    }
    SaOutcome {
        best,
        steps: params.steps.saturating_mul(restarts),
        simulations: evaluator.unique_evaluations() - before,
    }
}

fn feasible(
    problem: &Problem,
    point: DesignPoint,
    eval: Evaluation,
) -> Option<(DesignPoint, Evaluation)> {
    (eval.pdr >= problem.pdr_min).then_some((point, eval))
}

/// Draws a random constraint-preserving move.
fn neighbor(
    point: &DesignPoint,
    constraints: &crate::constraints::TopologyConstraints,
    rng: &mut rng::Rng,
) -> DesignPoint {
    for _attempt in 0..32 {
        let mut next = *point;
        match rng.gen_range(0..4) {
            0 => {
                // Toggle one of the ten sites.
                let site = rng.gen_range(0..10);
                let mask = next.placement.mask() ^ (1 << site);
                next.placement = Placement::from_mask(mask);
            }
            1 => {
                let step: i8 = if rng.gen_bool() { 1 } else { -1 };
                let idx = TxPower::ALL
                    .iter()
                    .position(|&p| p == next.tx_power)
                    .expect("power level is in ALL") as i8;
                let new = (idx + step).clamp(0, 2) as usize;
                next.tx_power = TxPower::ALL[new];
            }
            2 => {
                next.mac = match next.mac {
                    MacChoice::Csma => MacChoice::Tdma,
                    MacChoice::Tdma => MacChoice::Csma,
                };
            }
            _ => {
                next.routing = match next.routing {
                    RouteChoice::Star => RouteChoice::Mesh,
                    RouteChoice::Mesh => RouteChoice::Star,
                };
            }
        }
        if constraints.is_satisfied(next.placement) && next != *point {
            return next;
        }
    }
    *point // fall back to staying put (bounded retry)
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
        let pdr = match (point.tx_power, point.routing) {
            (TxPower::Minus20Dbm, RouteChoice::Star) => 0.45,
            (TxPower::Minus10Dbm, RouteChoice::Star) => 0.70,
            (TxPower::ZeroDbm, RouteChoice::Star) => 0.93,
            (TxPower::Minus20Dbm, RouteChoice::Mesh) => 0.55,
            (TxPower::Minus10Dbm, RouteChoice::Mesh) => 0.80,
            (TxPower::ZeroDbm, RouteChoice::Mesh) => 0.99,
        };
        Evaluation {
            pdr,
            nlt_days: 2430.0 / (power * 1e-3) / 86_400.0,
            power_mw: power,
            latency_ms: 2.0 + power,
        }
    }

    #[test]
    fn finds_a_feasible_solution() {
        let problem = Problem::paper_default(0.9);
        let ev = FnEvaluator::new(oracle);
        let out = simulated_annealing(&problem, &ev, SaParams::default(), 3);
        let (pt, e) = out.best.expect("SA should find a feasible point");
        assert!(e.pdr >= 0.9);
        assert_eq!(pt.tx_power, TxPower::ZeroDbm);
    }

    #[test]
    fn converges_to_cheapest_feasible_class() {
        // With enough steps SA should land on the 4-node 0 dBm star.
        let problem = Problem::paper_default(0.9);
        let ev = FnEvaluator::new(oracle);
        let out = simulated_annealing(
            &problem,
            &ev,
            SaParams {
                steps: 2000,
                ..Default::default()
            },
            11,
        );
        let (pt, _) = out.best.unwrap();
        assert_eq!(pt.tx_power, TxPower::ZeroDbm);
        assert_eq!(pt.routing, RouteChoice::Star);
        assert_eq!(pt.num_nodes(), 4, "SA should shed the optional nodes");
    }

    #[test]
    fn respects_constraints_during_search() {
        let problem = Problem::paper_default(0.5);
        let constraints = problem.space.constraints().clone();
        let ev = FnEvaluator::new(move |p: &DesignPoint| {
            assert!(
                constraints.is_satisfied(p.placement),
                "SA evaluated infeasible placement {p}"
            );
            oracle(p)
        });
        let _ = simulated_annealing(&problem, &ev, SaParams::default(), 9);
    }

    #[test]
    fn deterministic_per_seed() {
        let problem = Problem::paper_default(0.7);
        let run = |seed| {
            let ev = FnEvaluator::new(oracle);
            simulated_annealing(&problem, &ev, SaParams::default(), seed)
                .best
                .map(|(p, _)| p)
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn failed_evaluations_are_rejected_moves() {
        // Every mesh state fails to evaluate: the chain must run to the
        // end and elect a star, never a failed state.
        #[derive(Clone)]
        struct MeshFails(FnEvaluator<fn(&DesignPoint) -> Evaluation>);
        impl PointEvaluator for MeshFails {
            fn try_eval(&self, p: &DesignPoint) -> Result<Evaluation, hi_exec::EvalError> {
                if p.routing == RouteChoice::Mesh {
                    return Err(hi_exec::EvalError::new(format!("{p} failed")));
                }
                self.0.try_eval(p)
            }
            fn unique_evaluations(&self) -> u64 {
                self.0.unique_evaluations()
            }
        }
        let problem = Problem::paper_default(0.9);
        let ev = MeshFails(FnEvaluator::new(oracle as fn(&DesignPoint) -> Evaluation));
        for seed in [3, 11] {
            let out = simulated_annealing(&problem, &ev, SaParams::default(), seed);
            let (pt, e) = out.best.expect("star states stay reachable");
            assert_eq!(pt.routing, RouteChoice::Star);
            assert!(e.pdr >= 0.9);
        }
    }

    #[test]
    fn uses_more_simulations_than_algorithm1() {
        // The headline claim: SA needs more evaluations for the same
        // optimum. With memoized oracles, compare unique evaluations.
        let problem = Problem::paper_default(0.9);

        let sa_ev = FnEvaluator::new(oracle);
        let sa = simulated_annealing(&problem, &sa_ev, SaParams::default(), 1);

        let a1_ev = FnEvaluator::new(oracle);
        let a1 = crate::algorithm1::explore(
            &problem,
            &a1_ev,
            crate::ExploreOptions::default(),
            &ExecContext::sequential(),
            None,
            &mut |_| (),
        )
        .unwrap();

        assert_eq!(
            sa.best.as_ref().map(|(_, e)| e.power_mw),
            a1.best.as_ref().map(|(_, e)| e.power_mw),
            "both should find the same optimum class"
        );
        assert!(
            sa.simulations > a1.simulations,
            "SA {} sims vs Algorithm 1 {} sims",
            sa.simulations,
            a1.simulations
        );
    }
}
