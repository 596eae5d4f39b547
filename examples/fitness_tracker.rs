//! Everyday fitness monitoring: lifetime is king, a few dropped packets
//! are acceptable (the paper's low-`PDRmin` regime).
//!
//! Sweeps the reliability floor with [`explore_tradeoff_par`] and prints how
//! the selected architecture migrates from a weak star to a strong star
//! to a mesh — the ladder the paper's Fig. 3 arrows trace.
//!
//! ```sh
//! cargo run --release -p hi-opt --example fitness_tracker
//! ```

use hi_opt::des::SimDuration;
use hi_opt::{explore_tradeoff_par, ExecContext, Problem, SimProtocol};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One shared evaluator: its cache makes the sweep cheap, mirroring how
    // a designer would explore several requirement levels interactively.
    let evaluator =
        SimProtocol::new(SimDuration::from_secs(60.0), 3, 0xF17_BEEF).shared_evaluator();

    let template = Problem::paper_default(0.5);
    let floors = [0.50, 0.60, 0.70, 0.80, 0.90, 0.95];
    let sweep = explore_tradeoff_par(&template, &floors, &evaluator, &ExecContext::from_env())?;

    println!(
        "{:>7} | {:<34} | {:>6} | {:>9} | {:>9}",
        "PDRmin", "selected design", "PDR", "lifetime", "new sims"
    );
    println!("{}", "-".repeat(82));
    for point in &sweep {
        match &point.best {
            Some((design, eval)) => println!(
                "{:>6.0}% | {:<34} | {:>5.1}% | {:>7.1} d | {:>9}",
                point.pdr_min * 100.0,
                design.to_string(),
                eval.pdr * 100.0,
                eval.nlt_days,
                point.new_simulations,
            ),
            None => println!(
                "{:>6.0}% | {:<34} | {:>6} | {:>9} | {:>9}",
                point.pdr_min * 100.0,
                "(infeasible)",
                "-",
                "-",
                point.new_simulations
            ),
        }
    }
    println!(
        "\ntotal unique simulations across the sweep: {} (cache shared between floors)",
        evaluator.unique_evaluations()
    );
    Ok(())
}
