//! `hi-opt` — Optimized Design of a Human Intranet Network.
//!
//! Umbrella crate for the open-source reproduction of Moin, Nuzzo,
//! Sangiovanni-Vincentelli and Rabaey, *"Optimized Design of a Human
//! Intranet Network"*, DAC 2017. It re-exports the workspace crates under
//! one roof:
//!
//! * [`exec`] — the deterministic parallel execution engine (work-stealing
//!   pool, shared evaluation cache, cancellation);
//! * [`check`] — the loom-style model checker that verifies [`exec`]'s
//!   concurrency protocols across thread interleavings;
//! * [`milp`] — the exact MILP solver (simplex + branch & bound + pools);
//! * [`lint`] — the static analyzer over models, schedules and spaces;
//! * [`des`] — the discrete-event simulation kernel;
//! * [`channel`] — the time-varying on-body wireless channel;
//! * [`net`] — the WBAN stack simulator (radio / MAC / routing / app);
//! * [`trace`] — the observability subsystem (structured tracing, metrics
//!   registry, JSONL / Chrome-trace export);
//! * [`serve`] — the fleet-optimization job service (wire protocol,
//!   per-user profiles, cross-user evaluation-cache dedup);
//! * [`core`] — the design-space explorer (Algorithm 1 and baselines),
//!   whose items are also re-exported at the top level.
//!
//! The [`cli`] module carries the `hi-opt` binary's shared plumbing
//! (trace sessions, stop notices) so it stays unit-testable.
//!
//! # Example
//!
//! ```
//! use hi_opt::{explore, ExecContext, ExploreOptions, Problem, SimProtocol};
//! use hi_opt::des::SimDuration;
//!
//! # fn main() -> Result<(), hi_opt::ExploreError> {
//! let problem = Problem::paper_default(0.60);
//! let sim = SimProtocol::new(SimDuration::from_secs(10.0), 1, 1).shared_evaluator();
//! let exec = ExecContext::sequential();
//! let outcome = explore(&problem, &sim, ExploreOptions::default(), &exec, None, &mut |_| ())?;
//! assert!(outcome.is_feasible());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hi_channel as channel;
pub use hi_check as check;
pub use hi_core as core;
pub use hi_des as des;
pub use hi_exec as exec;
pub use hi_lint as lint;
pub use hi_milp as milp;
pub use hi_net as net;
pub use hi_pareto as pareto;
pub use hi_serve as serve;
pub use hi_trace as trace;

pub mod cli;

pub use hi_core::{
    deviation_power_mw, exhaustive_search, explore, explore_tradeoff_par, ilp_heuristic_search,
    load_checkpoint_file, parse_fault_suite, robust_milp_search, simulated_annealing,
    simulated_annealing_restarts, store, supervision_spec, warmup_events_floor, AppProfile,
    CancelToken, ChaosPolicy, CheckpointLoadError, DesignPoint, DesignSpace, Engine, EngineOutcome,
    EvalError, Evaluation, ExecContext, ExhaustiveOutcome, ExplorationOutcome, ExploreCheckpoint,
    ExploreError, ExploreOptions, FaultSuite, FnEvaluator, LinkDeviation, MacChoice, MilpEncoding,
    Placement, PointEvaluator, Problem, RetryPolicy, RobustEvaluation, RobustEvaluator, RobustMode,
    RobustOutcome, RobustnessSpec, RouteChoice, SaOutcome, SaParams, SharedSimEvaluator,
    SimProtocol, StopReason, SuiteParseError, SupervisedEvaluator, Supervisor, TopologyConstraints,
    TradeoffPoint, DEVIATION_CAP_DB,
};
