//! Quickstart: find the lifetime-optimal Human Intranet configuration for
//! a 90% reliability floor, exactly as the paper's Algorithm 1 does —
//! MILP-proposed candidates verified by discrete-event simulation.
//!
//! ```sh
//! cargo run --release -p hi-opt --example quickstart
//! ```

use hi_opt::des::SimDuration;
use hi_opt::{explore, ExecContext, ExploreOptions, Problem, SimProtocol};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's design example (§4.1): 10 candidate body sites, chest +
    // hip + foot + wrist required, up to two extra nodes, CC2650 radio,
    // 100-byte packets at 10 packets/s.
    let pdr_min = 0.90;
    let problem = Problem::paper_default(pdr_min);

    // Evaluation protocol: the paper runs 3 x 600 s per candidate. Here we
    // use 3 x 60 s so the example finishes in seconds; bump `t_sim` for
    // paper-grade accuracy (<0.5% metric error).
    let evaluator = SimProtocol::new(SimDuration::from_secs(60.0), 3, 0xC0FFEE).shared_evaluator();
    // Each MILP candidate level is simulated on these workers; the result
    // is bit-identical for any count, `ExecContext::sequential()` included.
    let exec = ExecContext::from_env();

    println!("exploring {} candidate configurations ...", 1320);
    let outcome = explore(
        &problem,
        &evaluator,
        ExploreOptions::default(),
        &exec,
        None,        // no checkpoint to resume from
        &mut |_| (), // no auto-checkpoint observer
    )?;

    match outcome.best {
        Some((point, eval)) => {
            println!(
                "optimal configuration for PDRmin = {:.0}%:",
                pdr_min * 100.0
            );
            println!("  design        : {point}");
            println!("  placements    : {:?}", point.placement.locations());
            println!("  PDR           : {:.1}%", eval.pdr * 100.0);
            println!("  lifetime      : {:.1} days", eval.nlt_days);
            println!("  worst power   : {:.3} mW", eval.power_mw);
        }
        None => println!("no configuration reaches {:.0}% PDR", pdr_min * 100.0),
    }
    println!(
        "search effort : {} simulations over {} MILP iterations ({} candidates proposed, stop: {:?})",
        outcome.simulations, outcome.iterations, outcome.candidates_proposed, outcome.stop_reason
    );
    println!(
        "vs exhaustive : {} simulations ({}% saved)",
        1320,
        100 - (100 * outcome.simulations as usize) / 1320
    );
    Ok(())
}
