//! The paper's §4.2 qualitative result (experiment E3 in DESIGN.md): as
//! `PDRmin` rises, the selected architecture climbs a ladder —
//! low-power star → full-power star → flooding mesh — with extra nodes
//! appearing only at the extreme-reliability end, and lifetime falling
//! monotonically along the way.

use hi_opt::des::SimDuration;
use hi_opt::net::TxPower;
use hi_opt::{
    explore, ExecContext, ExplorationOutcome, ExploreOptions, Problem, RouteChoice,
    SharedSimEvaluator, SimProtocol,
};

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
fn architecture_ladder_follows_the_paper() {
    // One evaluator: the memoized measurements keep the sweep affordable
    // and make the floors directly comparable.
    let ev = SimProtocol::new(SimDuration::from_secs(30.0), 1, 0x1ADDE2).shared_evaluator();

    let optimum = |pdr_min: f64, ev: &SharedSimEvaluator| {
        let problem = Problem::paper_default(pdr_min);
        explore_seq(&problem, ev)
            .best
            .unwrap_or_else(|| panic!("PDRmin {pdr_min} should be feasible"))
    };

    // Relaxed reliability: a star at reduced transmit power wins.
    let (low, low_eval) = optimum(0.60, &ev);
    assert_eq!(low.routing, RouteChoice::Star, "low floor: {low}");
    assert!(
        low.tx_power != TxPower::ZeroDbm,
        "low floor should not need full power: {low}"
    );

    // Mid reliability: still a star, but at 0 dBm.
    let (mid, mid_eval) = optimum(0.85, &ev);
    assert_eq!(mid.routing, RouteChoice::Star, "mid floor: {mid}");
    assert_eq!(mid.tx_power, TxPower::ZeroDbm, "mid floor: {mid}");

    // High reliability: the star cannot deliver; flooding mesh takes over.
    let (high, high_eval) = optimum(0.995, &ev);
    assert_eq!(high.routing, RouteChoice::Mesh, "high floor: {high}");

    // Lifetime is the price of reliability (Fig. 3's downward arrows).
    assert!(
        low_eval.nlt_days > mid_eval.nlt_days,
        "lifetime must drop with the power bump: {} vs {}",
        low_eval.nlt_days,
        mid_eval.nlt_days
    );
    assert!(
        mid_eval.nlt_days > high_eval.nlt_days,
        "mesh must cost lifetime: {} vs {}",
        mid_eval.nlt_days,
        high_eval.nlt_days
    );
    // And measured reliability climbs.
    assert!(low_eval.pdr >= 0.60);
    assert!(mid_eval.pdr >= 0.85);
    assert!(high_eval.pdr >= 0.995);
}

#[test]
fn extreme_reliability_recruits_extra_nodes() {
    // The paper: "for 100% reliability a fifth node is added to the mesh".
    // On the synthetic channel a 4-node mesh tops out just below a perfect
    // score over long horizons; at 100.0% the optimizer must either grow
    // the mesh or, if a lucky 4-node run hits 100%, still choose a mesh.
    let ev = SimProtocol::new(SimDuration::from_secs(30.0), 2, 0xFEED).shared_evaluator();
    let problem = Problem::paper_default(1.0);
    let out = explore_seq(&problem, &ev);
    match out.best {
        Some((pt, eval)) => {
            assert_eq!(pt.routing, RouteChoice::Mesh, "{pt}");
            assert_eq!(eval.pdr, 1.0);
        }
        None => {
            // Acceptable on an unlucky channel draw: the paper's 100%
            // bar is razor-thin. The search must at least have examined
            // the mesh levels before giving up.
            assert!(out.simulations > 100, "gave up too early");
        }
    }
}
