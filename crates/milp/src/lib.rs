//! A self-contained mixed integer linear programming (MILP) solver.
//!
//! This crate is the optimization substrate of the `hi-opt` workspace, the
//! open-source reproduction of *"Optimized Design of a Human Intranet
//! Network"* (DAC 2017). The paper drives its design-space exploration with
//! IBM CPLEX through PuLP; this crate replaces that proprietary dependency
//! with a from-scratch exact solver sized for the paper's problem class:
//! small, mostly-binary MILPs of up to a few hundred variables and
//! constraints (the Γ-robust counterpart's tableau, the largest, has 301
//! rows and 426 columns).
//!
//! # Components
//!
//! * [`Model`] — a builder-style modelling API with typed [`VarId`]s,
//!   [`LinExpr`] linear expressions (with operator overloading), and
//!   `<=`/`==`/`>=` constraints.
//! * [`simplex`] — a dense two-phase primal simplex for the LP relaxation,
//!   with Bland's anti-cycling rule, and a dual simplex that reoptimizes a
//!   kept tableau after rows are appended or bounds tightened.
//! * [`branch`] — depth-first branch & bound over the integer variables,
//!   diving into the child nearest the LP value first.
//! * [`presolve`] — activity-based bound tightening, run automatically
//!   before branch & bound.
//! * [`WarmModel`] — a model that keeps its root relaxation solved across
//!   edits, for loops that tighten one model and re-solve it.
//!
//! # Example
//!
//! Maximize `3x + 2y` subject to `x + y <= 4`, `x <= 3` with integer `x, y`:
//!
//! ```
//! use hi_milp::{Model, Sense, VarType};
//!
//! # fn main() -> Result<(), hi_milp::SolveError> {
//! let mut m = Model::new();
//! let x = m.add_var("x", VarType::Integer, 0.0, f64::INFINITY);
//! let y = m.add_var("y", VarType::Integer, 0.0, f64::INFINITY);
//! m.add_constraint(x + y, Sense::Le, 4.0);
//! m.add_constraint(x * 1.0, Sense::Le, 3.0);
//! m.maximize(x * 3.0 + y * 2.0);
//! let sol = m.solve()?;
//! assert!((sol.objective() - 11.0).abs() < 1e-6); // x = 3, y = 1
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod branch;
mod error;
mod expr;
mod model;
pub mod presolve;
pub mod simplex;
mod solution;
mod warm;

pub use error::SolveError;
pub use expr::{LinExpr, Term};
pub use model::{Constraint, Model, Objective, Sense, VarType, Variable};
pub use solution::{Solution, SolveStatus};
pub use warm::WarmModel;

/// Identifier of a decision variable within a [`Model`].
///
/// `VarId`s are handed out by [`Model::add_var`] and friends, are only
/// meaningful for the model that created them, and index solutions densely
/// (the first variable added is index 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Returns the dense index of this variable inside its model.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Absolute tolerance used throughout the solver when comparing floating
/// point quantities (integrality, feasibility, and optimality checks).
pub const TOL: f64 = 1e-7;
