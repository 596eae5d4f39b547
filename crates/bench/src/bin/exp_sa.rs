//! Experiment E2: the paper's §4.2 comparison against simulated annealing
//! — "our algorithm runs, on average, 3x faster across the whole range of
//! PDRmin values of interest (from 50 to 100%)".
//!
//! Both methods share the same simulation protocol; we report unique
//! simulations (the dominant cost) and wall-clock time per floor, plus
//! whether each method reached the reference optimum class.
//!
//! ```sh
//! cargo run --release -p hi-bench --bin exp_sa
//! ```

use hi_bench::ExpOptions;
use hi_core::{explore, simulated_annealing, ExecContext, ExploreOptions, Problem, SaParams};
use std::time::Instant;

fn main() {
    let opts = ExpOptions::from_args();
    // SA tuned to reliably reach the optimum class on this space; the
    // evaluation count is what the comparison is about.
    let sa_params = SaParams {
        steps: 700,
        ..Default::default()
    };

    println!("# Experiment E2: Algorithm 1 vs simulated annealing");
    println!(
        "pdr_min_pct\talg1_sims\tsa_sims\talg1_time_s\tsa_time_s\tspeedup_time\tspeedup_sims\tsame_optimum"
    );
    let floors = [0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 1.00];
    let mut time_ratios = Vec::new();
    let mut sim_ratios = Vec::new();
    for &floor in &floors {
        let problem = Problem::paper_default(floor);

        // Both methods run on one thread, so wall-clock compares like
        // with like.
        let a1_ev = opts.evaluator();
        let t0 = Instant::now();
        let a1 = explore(
            &problem,
            &a1_ev,
            ExploreOptions::default(),
            &ExecContext::sequential(),
            None,
            &mut |_| (),
        )
        .expect("explore");
        let a1_time = t0.elapsed().as_secs_f64();

        let sa_ev = opts.evaluator();
        let t0 = Instant::now();
        let sa = simulated_annealing(&problem, &sa_ev, sa_params, opts.seed ^ 0x5A);
        let sa_time = t0.elapsed().as_secs_f64();

        let same = match (&a1.best, &sa.best) {
            // SA is a heuristic: count it as matched when it lands within
            // 2% of Algorithm 1's (exact) optimal power.
            (Some((_, a)), Some((_, b))) => (b.power_mw - a.power_mw) / a.power_mw < 0.02,
            (None, None) => true,
            _ => false,
        };
        let speedup_time = sa_time / a1_time.max(1e-9);
        let speedup_sims = sa.simulations as f64 / a1.simulations.max(1) as f64;
        time_ratios.push(speedup_time);
        sim_ratios.push(speedup_sims);
        println!(
            "{:.0}\t{}\t{}\t{:.2}\t{:.2}\t{:.2}\t{:.2}\t{}",
            floor * 100.0,
            a1.simulations,
            sa.simulations,
            a1_time,
            sa_time,
            speedup_time,
            speedup_sims,
            same
        );
    }
    let avg_time = time_ratios.iter().sum::<f64>() / time_ratios.len() as f64;
    let avg_sims = sim_ratios.iter().sum::<f64>() / sim_ratios.len() as f64;
    println!(
        "\n# average speedup: {avg_time:.1}x wall-clock, {avg_sims:.1}x simulations (paper reports 3x)"
    );
}
