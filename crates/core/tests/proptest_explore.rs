//! Property-based verification of the exploration machinery:
//!
//! * the MILP encoding's pool equals the brute-force set of analytic-cost
//!   minimizers for random topological constraint sets;
//! * a cut ladder reoptimized level by level returns, at every level, the
//!   pool and `P̄*` of an encoding rebuilt from the same cuts and solved
//!   cold;
//! * Algorithm 1 returns the exhaustive-search optimum whenever the
//!   simulated power respects the analytic model (α-soundness premise).

use hi_core::power::analytic_power_mw;
use hi_core::{
    exhaustive_search, explore, DesignPoint, DesignSpace, Evaluation, ExecContext, ExploreOptions,
    FnEvaluator, MilpEncoding, Problem, TopologyConstraints,
};
use hi_des::check::{run_cases, Gen};
use hi_net::AppParams;
use std::collections::HashSet;

fn any_constraints(g: &mut Gen) -> TopologyConstraints {
    let all: Vec<usize> = (0..10).collect();
    // Rejection-sample until the induced design space is non-empty
    // (mirrors the original `prop_filter`); generous cap so a pathological
    // seed still terminates with a witness instead of spinning.
    for _ in 0..64 {
        let mut required = g.subsequence(&all, 0.1);
        required.truncate(2);
        let groups = g.vec(0..3, |g| {
            let mut grp = g.subsequence(&all, 0.2);
            grp.truncate(3);
            if grp.is_empty() {
                grp.push(*g.choose(&all));
            }
            grp
        });
        let min_nodes = g.usize_in(2..5);
        let extra = g.usize_in(0..4);
        let c = TopologyConstraints {
            required,
            at_least_one: groups,
            implications: Vec::new(),
            min_nodes,
            max_nodes: min_nodes + extra,
        };
        if !c.feasible_placements().is_empty() {
            return c;
        }
    }
    // Fallback: the unconstrained space, always non-empty.
    TopologyConstraints {
        required: Vec::new(),
        at_least_one: Vec::new(),
        implications: Vec::new(),
        min_nodes: 2,
        max_nodes: 4,
    }
}

#[test]
fn milp_pool_equals_brute_force_minimizers() {
    run_cases(40, 0xC0_7E01, |g| {
        let constraints = any_constraints(g);
        let app = AppParams::default();
        let mut enc = MilpEncoding::new(&constraints, &app);
        let (pool, p_star) = enc.solve_pool().expect("solves");
        let space = DesignSpace::new(constraints);
        let points = space.points();
        assert!(!points.is_empty());
        let p_star = p_star.expect("feasible space must yield an optimum");

        // Brute force: every point attaining the minimum analytic power.
        let best = points
            .iter()
            .map(|p| analytic_power_mw(p, &app))
            .fold(f64::INFINITY, f64::min);
        assert!(
            (best - p_star).abs() < 1e-6,
            "milp {p_star} vs brute {best}"
        );
        let want: HashSet<DesignPoint> = points
            .into_iter()
            .filter(|p| (analytic_power_mw(p, &app) - best).abs() < 1e-9)
            .collect();
        let got: HashSet<DesignPoint> = pool.into_iter().collect();
        assert_eq!(got, want);
    });
}

#[test]
fn warm_cut_ladder_matches_cold_rebuilds() {
    run_cases(40, 0xC0_7E03, |g| {
        let constraints = any_constraints(g);
        let app = AppParams::default();
        let mut warm = MilpEncoding::new(&constraints, &app);
        let mut cuts: Vec<f64> = Vec::new();
        loop {
            let (pool, p_star) = warm.solve_pool().expect("warm solves");
            let mut cold = MilpEncoding::new(&constraints, &app);
            for &cut in &cuts {
                cold.add_power_cut(cut);
            }
            let (cold_pool, cold_p_star) = cold.solve_pool().expect("cold solves");
            assert_eq!(pool, cold_pool, "pool at level {}", cuts.len());
            assert_eq!(
                p_star.map(f64::to_bits),
                cold_p_star.map(f64::to_bits),
                "P̄* at level {}",
                cuts.len()
            );
            let Some(p) = p_star else { break };
            warm.add_power_cut(p);
            cuts.push(p);
        }
        assert!(!cuts.is_empty(), "a non-empty space has a first level");
    });
}

#[test]
fn algorithm1_equals_exhaustive_under_sound_oracle() {
    run_cases(40, 0xC0_7E02, |g| {
        let constraints = any_constraints(g);
        let pdr_seed = g.u64();
        let floor = g.f64_in(0.1, 0.95);
        // Oracle: deterministic pseudo-random PDR per point, simulated
        // power exactly the analytic value (so the α bound is sound).
        let app = AppParams::default();
        let oracle = move |p: &DesignPoint| {
            let mut h = pdr_seed
                ^ (u64::from(p.placement.mask()) << 7)
                ^ ((p.tx_power as u64) << 30)
                ^ ((p.routing as u64) << 40)
                ^ ((p.mac as u64) << 50);
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
            let pdr = (h % 1000) as f64 / 999.0;
            let power = analytic_power_mw(p, &app);
            Evaluation {
                pdr,
                nlt_days: 2430.0 / (power * 1e-3) / 86_400.0,
                power_mw: power,
                latency_ms: 2.0 + power,
            }
        };
        let problem = Problem {
            space: DesignSpace::new(constraints),
            pdr_min: floor,
            app,
        };
        let exec = ExecContext::sequential();
        let a1_ev = FnEvaluator::new(oracle);
        let a1 = explore(
            &problem,
            &a1_ev,
            ExploreOptions::default(),
            &exec,
            None,
            &mut |_| (),
        )
        .expect("explore");
        let ex_ev = FnEvaluator::new(oracle);
        let ex = exhaustive_search(&problem, &ex_ev, &exec);

        assert_eq!(
            a1.best.map(|(_, e)| e.power_mw.to_bits()),
            ex.best.map(|(_, e)| e.power_mw.to_bits()),
            "optimum mismatch"
        );
        assert!(a1.simulations <= ex.simulations);
    });
}
