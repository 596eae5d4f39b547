//! Static analysis for optimization models, configuration spaces and
//! event schedules.
//!
//! The DAC 2017 Human-Intranet exploration loop (Algorithm 1) alternates a
//! MILP solver with a discrete-event simulator, mutating the MILP every
//! iteration with no-good and power cuts. A malformed or trivially
//! infeasible encoding does not crash — it silently turns into "MILP
//! infeasible → terminate", which corrupts the whole reproduction. This
//! crate is the pre-solve gate that catches those states and explains them:
//!
//! * [`analyze`] runs the full rule set over a [`LintModel`] — structural
//!   errors (non-finite numbers, dangling variable references, crossed
//!   bounds; also available alone as [`structural`] and item by item as
//!   [`check_var`], [`check_objective`] and [`check_row`]), semantic
//!   warnings (provable infeasibility via interval
//!   propagation, unused variables, duplicate/dominated rows, big-M
//!   conditioning) and redundancy infos.
//! * [`CutTracker`] watches the cuts an Algorithm-1 style loop adds across
//!   iterations and flags ones that are identical to or weaker than cuts
//!   already present.
//! * [`lint_schedule`] and [`lint_space`] cover two other inputs of the
//!   loop: event schedules (monotone, finite times) and configuration
//!   spaces (no empty dimensions).
//! * [`lint_faults`] validates fault-scenario specifications before the
//!   robust-evaluation engine spends simulations on them: inverted or
//!   overlapping windows, faults past the horizon, hub-disabling
//!   scenarios.
//! * [`lint_metrics`] checks a metrics registry's declaration log for
//!   duplicate metric names (two subsystems claiming one counter).
//! * [`lint_supervision`] validates execution-supervision policies:
//!   retry/deadline misconfigurations that would waste the whole run
//!   (HL038) and chaos injection left enabled in release or robust runs
//!   (HL039).
//! * [`lint_exec`] validates the parallel-execution configuration —
//!   thread counts and cache sharding the engine would silently clamp or
//!   round (HL040) — and [`lint_model_locks`] checks `hi-check` model
//!   programs for lock acquire/release imbalance (HL041).
//! * [`lint_profile`] validates fleet user profiles before the `hi-serve`
//!   daemon spends simulations on them — empty/duplicate ids, zero
//!   traffic, PDRmin outside `[0, 1]` (HL042) — and [`lint_server`]
//!   checks the daemon's own queue capacity and per-job deadline against
//!   the DES warm-up floor (HL043). [`lint_cache_persist`] validates the
//!   daemon's durable-cache persistence (zero/absurd compaction
//!   threshold, segment/record directory collision — HL044) and
//!   [`lint_client_retry`] a reconnecting client's retry policy
//!   (unbounded attempts, non-positive backoff base — HL045).
//! * [`lint_archive`] validates a Pareto archive's epsilon-box widths —
//!   non-positive/non-finite or range-swallowing epsilons that collapse
//!   the front (HL046) — and [`lint_front_query`] flags a `FRONT` wire
//!   query issued before any job completed (HL047).
//! * [`lint_robustness`] validates Γ-robust engine specifications before
//!   the dualization prices them: a non-positive or link-count-exceeding
//!   budget and NaN/negative/zero-width deviation bounds (HL048), and a
//!   robust engine pointed at an empty fault suite, which silently
//!   degenerates to the nominal engine (HL049).
//!
//! Every [`Finding`] carries a stable [`RuleId`], a [`Severity`], and a
//! [`Span`] naming the offending variable, row, event or dimension. The
//! severity contract is deliberate: **errors mean the object is broken and
//! solving it would be meaningless; provable *infeasibility* is only a
//! warning**, because an infeasible model is a legal question with a
//! well-defined answer — Algorithm 1 terminates by driving its model
//! infeasible on purpose.
//!
//! This crate is dependency-free and sits at the bottom of the workspace
//! graph so `hi-milp` itself can call it on every solve.
//!
//! # Example
//!
//! ```
//! use hi_lint::{analyze, LintModel, RowSense, RuleId, Severity};
//!
//! let mut m = LintModel::new();
//! let x = m.var("x", 0.0, 1.0, true);
//! let y = m.var("y", 0.0, 1.0, true);
//! m.row("choose-two", vec![(x, 1.0), (y, 1.0)], RowSense::Ge, 3.0);
//! m.objective = vec![(x, 1.0), (y, 1.0)];
//!
//! let report = analyze(&m);
//! assert!(report.has_rule(RuleId::BoundInfeasible)); // 2 binaries < 3
//! assert!(!report.has_errors());                     // ...but still legal
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod concurrency;
mod cuts;
mod faults;
mod metrics;
mod model;
mod propagate;
mod report;
mod robustness;
mod rules;
mod schedule;
mod serve;
mod space;
mod structure;
mod supervision;

pub use concurrency::{lint_exec, lint_model_locks, ExecSpec, ModelLockSpec};
pub use cuts::CutTracker;
pub use faults::{lint_faults, FaultEntity, FaultWindowSpec};
pub use metrics::{lint_metrics, MetricDefSpec};
pub use model::{LintModel, LintRow, LintVar, RowSense};
pub use propagate::{propagate, Propagation};
pub use report::{Finding, Report, RuleId, Severity, Span};
pub use robustness::{lint_robustness, RobustnessLintSpec};
pub use rules::analyze;
pub use schedule::lint_schedule;
pub use serve::{
    lint_archive, lint_cache_persist, lint_client_retry, lint_front_query, lint_profile,
    lint_server, ArchiveSpec, CachePersistSpec, ClientRetrySpec, FrontQuerySpec, ProfileSpec,
    ServerSpec, COMPACT_THRESHOLD_CEILING,
};
pub use space::{lint_space, SpaceDim};
pub use structure::{check_objective, check_row, check_var, structural, ModelNames};
pub use supervision::{lint_supervision, SupervisionSpec};
