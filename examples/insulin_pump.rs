//! Safety-critical wearable (e.g. an insulin delivery loop): reliability
//! is non-negotiable — the paper's `PDRmin → 100%` regime, where the
//! optimizer abandons the star, switches to a flooding mesh and finally
//! adds a fifth node purely for redundancy, trading away lifetime.
//!
//! ```sh
//! cargo run --release -p hi-opt --example insulin_pump
//! ```

use hi_opt::des::SimDuration;
use hi_opt::{explore, ExecContext, ExploreOptions, Problem, RouteChoice, SimProtocol};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One evaluator across the floors: its cache carries measurements
    // from one floor to the next.
    let evaluator = SimProtocol::new(SimDuration::from_secs(120.0), 3, 0x1453).shared_evaluator();
    let exec = ExecContext::from_env();

    // The demanding end of the reliability spectrum.
    for pdr_min in [0.97, 0.99, 0.999] {
        let problem = Problem::paper_default(pdr_min);
        let outcome = explore(
            &problem,
            &evaluator,
            ExploreOptions::default(),
            &exec,
            None,
            &mut |_| (),
        )?;
        println!("PDRmin = {:.1}%:", pdr_min * 100.0);
        match outcome.best {
            Some((point, eval)) => {
                println!("  design   : {point}");
                println!(
                    "  topology : {} with {} nodes at {:?}",
                    match point.routing {
                        RouteChoice::Star => "star",
                        RouteChoice::Mesh => "flooding mesh",
                    },
                    point.num_nodes(),
                    point.placement.locations()
                );
                println!(
                    "  measured : PDR {:.2}%  lifetime {:.1} days  worst node {:.2} mW",
                    eval.pdr * 100.0,
                    eval.nlt_days,
                    eval.power_mw
                );
                if point.routing == RouteChoice::Mesh {
                    println!(
                        "  note     : redundant parallel links beat the star's single relay\n\
                         \x20            at this reliability level, at the cost of lifetime"
                    );
                }
            }
            None => println!("  infeasible — no configuration reaches this floor"),
        }
        println!();
    }
    Ok(())
}
