//! Engine-level contracts of the Γ-robust engines: cross-thread
//! determinism, price-of-robustness monotonicity in Γ, and the
//! restriction-and-repair heuristic tracking the exact robust MILP.
//!
//! All tests run the real discrete-event simulator behind a worst-case
//! [`RobustEvaluator`] over the demo fault suite (inlined below so the
//! crate's tests stay hermetic), with a short protocol sized for CI.

use hi_core::{
    ilp_heuristic_search, parse_fault_suite, robust_milp_search, ExecContext, ExploreOptions,
    FaultSuite, Problem, RobustEvaluator, RobustMode, RobustOutcome, RobustnessSpec, SimProtocol,
    StopReason,
};
use hi_des::SimDuration;

/// `scenarios/demo.suite`: a wrist reboot, a torso shadowing and a
/// passing wideband interferer.
const DEMO_SUITE: &str = "\
scenario wrist reboot
outage 5 1 3

scenario torso shadowing
blackout 0 3 0.5 2.5
blackout 0 4 0.5 2.5

scenario passing interferer
interfere 2 4 9
";

fn protocol() -> SimProtocol {
    SimProtocol::new(SimDuration::from_secs(2.0), 1, 20_260_808)
}

fn demo_suite() -> FaultSuite {
    let (suite, _) = parse_fault_suite(DEMO_SUITE).expect("demo suite parses");
    suite
}

fn run_engine(milp: bool, gamma: u32, threads: usize, pdr_min: f64) -> RobustOutcome {
    let suite = demo_suite();
    let spec = RobustnessSpec::from_suite(&suite, gamma);
    let problem = Problem::paper_default(pdr_min);
    let exec = ExecContext::new(threads);
    let evaluator = RobustEvaluator::new(protocol(), suite, RobustMode::WorstCase);
    let mut observer = |_: &hi_core::ExploreCheckpoint| {};
    let result = if milp {
        robust_milp_search(
            &problem,
            &spec,
            &evaluator,
            ExploreOptions::default(),
            &exec,
            None,
            &mut observer,
        )
    } else {
        ilp_heuristic_search(
            &problem,
            &spec,
            &evaluator,
            ExploreOptions::default(),
            &exec,
            None,
            &mut observer,
        )
    };
    result.expect("robust engine succeeds")
}

#[test]
fn robust_engines_are_bit_identical_across_thread_counts() {
    for milp in [true, false] {
        let baseline = run_engine(milp, 2, 1, 0.6);
        assert!(
            baseline.outcome.best.is_some(),
            "a 60% worst-case floor must be reachable (milp = {milp})"
        );
        let threaded = run_engine(milp, 2, 8, 0.6);
        assert_eq!(
            baseline, threaded,
            "8 threads changed the outcome (milp = {milp})"
        );
    }
}

#[test]
fn price_of_robustness_is_monotone_in_gamma() {
    let mut prev_robust = f64::NEG_INFINITY;
    let mut nominal_bits = None;
    for gamma in [1, 2, 3] {
        let out = run_engine(true, gamma, 1, 0.6);
        assert_eq!(out.outcome.stop_reason, StopReason::BoundProven);
        let nominal = out.nominal_power_mw.expect("nominal model is feasible");
        let robust = out.robust_power_mw.expect("a witness was accepted");
        // The baseline never depends on the budget...
        let bits = *nominal_bits.get_or_insert_with(|| nominal.to_bits());
        assert_eq!(bits, nominal.to_bits(), "nominal baseline moved with gamma");
        // ...while every design's robust cost grows with it, so the
        // accepted minimum does too (ties equal up to float summation
        // order, hence the slack).
        assert!(
            robust > nominal,
            "gamma = {gamma}: robustness must cost something ({robust} vs {nominal})"
        );
        assert!(
            robust >= prev_robust - 1e-9,
            "gamma = {gamma}: price of robustness regressed ({robust} after {prev_robust})"
        );
        prev_robust = robust;
    }
}

#[test]
fn ilp_heuristic_tracks_the_robust_milp() {
    let exact = run_engine(true, 2, 1, 0.6);
    let heuristic = run_engine(false, 2, 1, 0.6);
    let (_, exact_eval) = exact.outcome.best.expect("exact engine finds a design");
    let (_, heur_eval) = heuristic.outcome.best.expect("heuristic finds a design");
    // The restriction may land on a different design, but its measured
    // worst power must stay within 5% of the exact robust optimum's.
    assert!(
        heur_eval.power_mw <= exact_eval.power_mw * 1.05,
        "heuristic gap above 5%: {} mW vs {} mW",
        heur_eval.power_mw,
        exact_eval.power_mw
    );
    // The restricted model explores a subset of the placements, so the
    // heuristic never spends more simulations than the full model.
    assert!(
        heuristic.outcome.simulations <= exact.outcome.simulations,
        "heuristic spent more simulations ({}) than the exact engine ({})",
        heuristic.outcome.simulations,
        exact.outcome.simulations
    );
    assert_eq!(exact.repairs, 0, "the full model never repairs");
}
