//! Design-space exploration for a Human Intranet network.
//!
//! This crate is the primary contribution of the `hi-opt` workspace: a
//! from-scratch reproduction of *"Optimized Design of a Human Intranet
//! Network"* (Moin, Nuzzo, Sangiovanni-Vincentelli, Rabaey — DAC 2017).
//! Given application-driven topological constraints and a reliability
//! floor `PDRmin`, it selects the node placement and full network-stack
//! configuration (radio transmit power, MAC protocol, routing topology)
//! that maximizes network lifetime:
//!
//! * [`DesignSpace`] / [`TopologyConstraints`] — the constrained discrete
//!   space of `(ν, χ)` design vectors ([`DesignPoint`]);
//! * [`power`] — the coarse analytic power model (eqs. 3, 5, 9) used to
//!   rank candidates cheaply, and the α bound-correction;
//! * [`MilpEncoding`] — the relaxed problem `P̃` as a mixed integer linear
//!   program (solved exactly by [`hi_milp`]);
//! * [`explore`] — **Algorithm 1**: the iterative MILP + discrete-event
//!   simulation loop with power cuts and the α-corrected optimality test;
//! * [`exhaustive_search`] and [`simulated_annealing`] — the baselines the
//!   paper compares against;
//! * [`PointEvaluator`] and [`ExecContext`] — the `RunSim` oracle every
//!   engine measures through and the worker pool it fans out over; a
//!   sequential run is [`ExecContext::sequential`].
//!
//! # Quickstart
//!
//! Find the lifetime-optimal configuration at 70% reliability with a
//! fast simulation protocol:
//!
//! ```
//! use hi_core::{explore, ExecContext, ExploreOptions, Problem, SimProtocol};
//! use hi_des::SimDuration;
//!
//! # fn main() -> Result<(), hi_core::ExploreError> {
//! let problem = Problem::paper_default(0.70);
//! // The paper's protocol is 600 s x 3 runs; 30 s x 1 run is a quick look.
//! let evaluator = SimProtocol::new(SimDuration::from_secs(30.0), 1, 42).shared_evaluator();
//! let outcome = explore(
//!     &problem,
//!     &evaluator,
//!     ExploreOptions::default(),
//!     &ExecContext::sequential(), // or ExecContext::new(threads)
//!     None,                       // no checkpoint to resume from
//!     &mut |_| (),                // no auto-checkpoint observer
//! )?;
//! let (point, eval) = outcome.best.expect("70% is achievable");
//! println!("optimal: {point} (PDR {:.1}%, {:.1} days)",
//!          eval.pdr * 100.0, eval.nlt_days);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod algorithm1;
mod checkpoint;
mod constraints;
mod crc32;
mod engine;
mod evaluator;
mod exhaustive;
mod ilp_heuristic;
mod milp_encode;
mod parallel;
mod point;
pub mod power;
mod profiles;
mod robust;
mod robust_milp;
mod robustness;
mod sa;
pub mod store;
mod suitefile;
mod supervised;
mod tradeoff;

pub use algorithm1::{
    explore, ExplorationOutcome, ExploreError, ExploreOptions, Problem, StopReason,
};
pub use checkpoint::{load_checkpoint_file, CheckpointLoadError, ExploreCheckpoint};
pub use constraints::{DesignSpace, TopologyConstraints};
pub use crc32::crc32_ieee;
pub use engine::{Engine, EngineOutcome};
pub use evaluator::{Evaluation, FnEvaluator, PointEvaluator, SharedSimEvaluator, SimProtocol};
pub use exhaustive::{exhaustive_search, ExhaustiveOutcome};
pub use hi_exec::{CancelToken, ChaosPolicy, EvalError, RetryPolicy, Supervisor};
pub use ilp_heuristic::ilp_heuristic_search;
pub use milp_encode::{MilpEncoding, MilpRoot};
pub use parallel::ExecContext;
pub use point::{DesignPoint, MacChoice, Placement, RouteChoice};
pub use profiles::AppProfile;
pub use robust::{FaultSuite, RobustEvaluation, RobustEvaluator, RobustMode};
pub use robust_milp::{robust_milp_search, RobustOutcome};
pub use robustness::{deviation_power_mw, LinkDeviation, RobustnessSpec, DEVIATION_CAP_DB};
pub use sa::{simulated_annealing, simulated_annealing_restarts, SaOutcome, SaParams};
pub use suitefile::{parse_fault_suite, SuiteParseError};
pub use supervised::{supervision_spec, warmup_events_floor, SupervisedEvaluator};
pub use tradeoff::{explore_tradeoff_par, TradeoffPoint};
