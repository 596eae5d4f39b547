//! Microbenchmark B2: exact MILP solves — knapsacks and the paper's
//! relaxed problem `P̃` (the model Algorithm 1 queries every iteration),
//! including the cut ladder that drives the whole exploration, and one
//! witness query of the Γ-robust engine.

use hi_bench::micro::Runner;
use hi_core::{parse_fault_suite, MilpEncoding, RobustnessSpec, TopologyConstraints};
use hi_milp::{LinExpr, Model, Sense};
use hi_net::AppParams;

fn knapsack(n: usize) -> Model {
    let mut m = Model::new();
    let mut weight = LinExpr::new();
    let mut value = LinExpr::new();
    for i in 0..n {
        let x = m.add_binary(&format!("x{i}"));
        weight.add_term(x, ((i * 7 + 3) % 10 + 1) as f64);
        value.add_term(x, ((i * 11 + 5) % 13 + 1) as f64);
    }
    m.add_constraint(weight, Sense::Le, (2 * n) as f64);
    m.maximize(value);
    m
}

fn main() {
    let runner = Runner::new("branch_bound");
    for n in [10usize, 20, 30] {
        let model = knapsack(n);
        runner.bench(&format!("knapsack/{n}"), || {
            model.solve().expect("solves").objective()
        });
    }
    // One cold MILP query of Algorithm 1 (paper problem, no cuts yet).
    // The encoding is built inside the timed closure: re-solving one
    // unchanged encoding would only reoptimize its kept tableau.
    runner.bench("paper_p_tilde_pool", || {
        let mut enc =
            MilpEncoding::new(&TopologyConstraints::paper_default(), &AppParams::default());
        enc.solve_pool().expect("solves").1
    });
    // The full cut ladder (a complete RunMILP sequence): one cold query,
    // then every level reoptimized from the last one.
    runner.bench("paper_cut_ladder", || {
        let mut enc =
            MilpEncoding::new(&TopologyConstraints::paper_default(), &AppParams::default());
        let mut levels = 0u32;
        loop {
            let (_, p) = enc.solve_pool().expect("solves");
            match p {
                Some(p) => {
                    levels += 1;
                    enc.add_power_cut(p);
                }
                None => break,
            }
        }
        levels
    });
    // One cold witness query of the Γ-robust engine at Γ = 2 on the demo
    // fault suite, encoding built inside the timed closure as above.
    let suite = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/demo.suite"
    ));
    let (suite, _) = parse_fault_suite(suite).expect("demo suite parses");
    let spec = RobustnessSpec::from_suite(&suite, 2);
    runner.bench("robust_demo_witness", || {
        MilpEncoding::new_robust(
            &TopologyConstraints::paper_default(),
            &AppParams::default(),
            &spec,
        )
        .solve_witness()
        .expect("solves")
        .map(|(_, p)| p)
    });
}
