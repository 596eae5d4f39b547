//! Microbenchmark B4: the search loops themselves. An instant analytic
//! oracle stands in for the simulator, so these measure the pure
//! orchestration cost of Algorithm 1 (MILP queries, pool expansion,
//! bookkeeping) and of the baselines — the overhead on top of `RunSim`.

use hi_bench::micro::Runner;
use hi_core::power::analytic_power_mw;
use hi_core::{
    exhaustive_search, explore, simulated_annealing, DesignPoint, Evaluation, ExecContext,
    ExploreOptions, FnEvaluator, Problem, RouteChoice, SaParams,
};
use hi_net::{AppParams, TxPower};

fn oracle(point: &DesignPoint) -> Evaluation {
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

fn main() {
    let runner = Runner::new("explorer_oracle");
    let problem = Problem::paper_default(0.90);
    let exec = ExecContext::sequential();
    runner.bench("algorithm1_pdr90", || {
        let ev = FnEvaluator::new(oracle);
        explore(
            &problem,
            &ev,
            ExploreOptions::default(),
            &exec,
            None,
            &mut |_| (),
        )
        .expect("explore")
        .simulations
    });
    runner.bench("exhaustive_pdr90", || {
        let ev = FnEvaluator::new(oracle);
        exhaustive_search(&problem, &ev, &exec).simulations
    });
    runner.bench("annealing_pdr90_300steps", || {
        let ev = FnEvaluator::new(oracle);
        simulated_annealing(
            &problem,
            &ev,
            SaParams {
                steps: 300,
                ..Default::default()
            },
            7,
        )
        .simulations
    });
}
