//! Experiment E1: the paper's §4.2 claim that Algorithm 1 cuts the number
//! of required simulations by ~87% relative to exhaustive search, while
//! returning the same optimum.
//!
//! ```sh
//! cargo run --release -p hi-bench --bin exp_reduction
//! cargo run --release -p hi-bench --bin exp_reduction -- --paper
//! ```

use hi_bench::{optima_per_floor, parallel_sweep, ExpOptions};
use hi_core::{explore, DesignSpace, ExecContext, ExploreOptions, Problem};
use std::time::Instant;

fn main() {
    let opts = ExpOptions::from_args();
    let space = DesignSpace::paper_default();
    let points = space.points();
    let total = points.len();

    // Exhaustive reference sweep (shared across all floors).
    eprintln!("exhaustive sweep of {total} configurations ...");
    let t0 = Instant::now();
    let evals = parallel_sweep(&points, &opts);
    let exhaustive_time = t0.elapsed();
    let sweep: Vec<_> = points.into_iter().zip(evals).collect();
    eprintln!("exhaustive sweep took {exhaustive_time:.1?}");

    let floors = [0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 1.00];
    let reference = optima_per_floor(&sweep, &floors);

    println!("# Experiment E1: simulations required, Algorithm 1 vs exhaustive");
    println!("pdr_min_pct\tsims_alg1\tsims_exhaustive\treduction_pct\tsame_optimum\talg1_time_s");
    let mut reductions = Vec::new();
    for (&floor, (_, reference_best)) in floors.iter().zip(&reference) {
        let problem = Problem::paper_default(floor);
        let evaluator = opts.evaluator();
        let t0 = Instant::now();
        let outcome = explore(
            &problem,
            &evaluator,
            ExploreOptions::default(),
            &ExecContext::sequential(),
            None,
            &mut |_| (),
        )
        .expect("explore");
        let elapsed = t0.elapsed();
        let same = match (&outcome.best, reference_best) {
            (Some((_, a)), Some((_, b))) => (a.power_mw - b.power_mw).abs() < 1e-9,
            (None, None) => true,
            _ => false,
        };
        let reduction = 100.0 * (1.0 - outcome.simulations as f64 / total as f64);
        reductions.push(reduction);
        println!(
            "{:.0}\t{}\t{}\t{:.1}\t{}\t{:.2}",
            floor * 100.0,
            outcome.simulations,
            total,
            reduction,
            same,
            elapsed.as_secs_f64()
        );
    }
    let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
    println!("\n# average reduction: {avg:.1}% (paper reports 87%)");
    println!(
        "# exhaustive wall-clock: {:.1}s for {} simulations",
        exhaustive_time.as_secs_f64(),
        total
    );
}
