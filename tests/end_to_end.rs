//! Full-pipeline test: Algorithm 1 (MILP + real discrete-event simulation)
//! must find the same optimum as exhaustive search, with fewer
//! simulations — the paper's central claim, on a reduced space sized for
//! CI.

use hi_opt::des::SimDuration;
use hi_opt::net::AppParams;
use hi_opt::{
    exhaustive_search, explore, DesignSpace, ExecContext, ExplorationOutcome, ExploreOptions,
    Problem, SharedSimEvaluator, SimProtocol, TopologyConstraints,
};

/// A CI-sized problem: 4-node placements only (8 of them), full stack
/// choices — 96 design points.
fn small_problem(pdr_min: f64) -> Problem {
    let mut constraints = TopologyConstraints::paper_default();
    constraints.max_nodes = 4;
    Problem {
        space: DesignSpace::new(constraints),
        pdr_min,
        app: AppParams::default(),
    }
}

fn evaluator(seed: u64) -> SharedSimEvaluator {
    SimProtocol::new(SimDuration::from_secs(20.0), 1, seed).shared_evaluator()
}

/// Algorithm 1 on one worker, without resume or snapshots.
fn explore_seq(problem: &Problem, ev: &SharedSimEvaluator) -> ExplorationOutcome {
    let exec = ExecContext::sequential();
    explore(
        problem,
        ev,
        ExploreOptions::default(),
        &exec,
        None,
        &mut |_| (),
    )
    .expect("explore")
}

#[test]
fn algorithm1_matches_exhaustive_optimum() {
    for pdr_min in [0.55, 0.80] {
        let problem = small_problem(pdr_min);
        // One shared evaluator: both searches see identical measurements.
        let ev = evaluator(42);
        let a1 = explore_seq(&problem, &ev);
        let ex = exhaustive_search(&problem, &ev, &ExecContext::sequential());

        let a1_power = a1.best.as_ref().map(|(_, e)| e.power_mw);
        let ex_power = ex.best.as_ref().map(|(_, e)| e.power_mw);
        assert_eq!(
            a1_power, ex_power,
            "PDRmin {pdr_min}: algorithm1 {:?} vs exhaustive {:?}",
            a1.best, ex.best
        );
    }
}

#[test]
fn algorithm1_uses_fraction_of_exhaustive_simulations() {
    let problem = small_problem(0.80);
    let a1_ev = evaluator(7);
    let a1 = explore_seq(&problem, &a1_ev);
    assert!(a1.is_feasible());

    let total = problem.space.points().len() as u64;
    assert!(
        a1.simulations * 2 <= total,
        "algorithm used {} of {} simulations — expected a substantial cut",
        a1.simulations,
        total
    );
}

#[test]
fn infeasible_floor_is_detected_against_simulation() {
    // Nothing delivers literally every packet on a 20 s x 1 run of the
    // -20 dBm-class space... but 0 dBm mesh might. Constrain to
    // reliability no stack can reach by capping power implicitly: ask for
    // a PDR floor strictly above 1.0 being impossible, use 1.0 + epsilon
    // via 1.0 and a lossy channel instead. Pragmatic check: a floor of
    // 1.0 on the *star-only* 4-node space must fail on the fading channel.
    let mut constraints = TopologyConstraints::paper_default();
    constraints.max_nodes = 4;
    let problem = Problem {
        space: DesignSpace::new(constraints),
        pdr_min: 1.0,
        app: AppParams::default(),
    };
    let ev = evaluator(3);
    let out = explore_seq(&problem, &ev);
    // With only 4-node configurations and deep fades, 100.0% across all
    // 12 ordered pairs for 20 s is effectively unreachable for stars;
    // mesh at 0 dBm occasionally manages it, so accept either a mesh
    // optimum or infeasibility — but never a star.
    if let Some((pt, ev)) = out.best {
        assert_eq!(pt.routing, hi_opt::RouteChoice::Mesh, "{pt}");
        assert_eq!(ev.pdr, 1.0);
    }
}

#[test]
fn outcome_statistics_are_consistent() {
    let problem = small_problem(0.70);
    let ev = evaluator(11);
    let out = explore_seq(&problem, &ev);
    assert!(out.iterations >= 1);
    assert!(out.candidates_proposed >= out.simulations);
    assert_eq!(out.simulations, ev.unique_evaluations());
    if let Some((pt, e)) = out.best {
        assert!(problem.space.contains(&pt));
        assert!(e.pdr >= 0.70);
        assert!(e.nlt_days > 0.0 && e.nlt_days.is_finite());
        assert!(e.power_mw > 0.1, "must exceed the 100 uW baseline");
    }
}
