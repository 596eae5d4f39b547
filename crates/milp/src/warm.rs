//! Re-solving a model that grows between solves.
//!
//! Loops like Algorithm 1 solve one model, tighten it by a row or a few
//! bound edits, and solve again. [`WarmModel`] keeps the root LP
//! relaxation's optimal tableau ([`WarmLp`]) across those edits and
//! restores optimality with dual simplex pivots instead of a fresh
//! phase 1. When the reoptimized root is integral it is the answer, as
//! the branch & bound root would be; otherwise the model goes to the
//! ordinary cold [`branch::solve`].

use crate::model::traced_solve;
use crate::simplex::{LpStatus, WarmLp};
use crate::{branch, LinExpr, Model, Sense, Solution, SolveError, VarId, Variable, TOL};

/// A [`Model`] that keeps its root LP relaxation solved across edits.
///
/// Edits go through [`add_constraint`](WarmModel::add_constraint) and
/// [`set_bounds`](WarmModel::set_bounds), which update the model and the
/// kept tableau together. Each edit is checked by the analyzer's
/// structural rules on its own; an edit that fails them, or that the
/// tableau cannot absorb, drops the tableau, and the next
/// [`solve`](WarmModel::solve) gates and solves the whole model cold,
/// exactly as [`Model::solve`] does.
///
/// # Examples
///
/// ```
/// use hi_milp::{LinExpr, Sense, WarmModel};
///
/// # fn main() -> Result<(), hi_milp::SolveError> {
/// let mut warm = WarmModel::new(hi_milp::Model::new());
/// let (a, b) = {
///     let m = warm.model_mut();
///     let a = m.add_binary("a");
///     let b = m.add_binary("b");
///     m.add_constraint(a + b, Sense::Ge, 1.0);
///     m.minimize(a * 1.0 + b * 2.0);
///     (a, b)
/// };
/// assert_eq!(warm.solve()?.int_value(a), 1); // cold root
/// warm.set_bounds(a, 0.0, 0.0); // a bound edit on the kept tableau
/// let s = warm.solve()?; // dual simplex from the last basis
/// assert_eq!((s.int_value(a), s.int_value(b)), (0, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WarmModel {
    model: Model,
    /// The root relaxation at a dual-feasible basis of `model`, if any.
    root: Option<WarmLp>,
}

impl WarmModel {
    /// Wraps `model`; the first solve is cold.
    pub fn new(model: Model) -> Self {
        Self { model, root: None }
    }

    /// The current model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Mutable access to the model for edits other than rows and bounds;
    /// drops the kept tableau.
    pub fn model_mut(&mut self) -> &mut Model {
        self.root = None;
        &mut self.model
    }

    /// Adds the constraint `expr (sense) rhs`, as [`Model::add_constraint`].
    pub fn add_constraint(&mut self, expr: impl Into<LinExpr>, sense: Sense, rhs: f64) {
        self.model.add_constraint(expr, sense, rhs);
        let index = self.model.num_constraints() - 1;
        if !self.model.check_row(&mut hi_lint::Report::new(), index) {
            self.root = None;
        }
        if let Some(root) = &mut self.root {
            let c = &self.model.constraints[index];
            root.add_row(&c.expr, c.sense, c.rhs);
        }
    }

    /// Sets a variable's bounds, as [`Model::set_bounds`].
    pub fn set_bounds(&mut self, id: VarId, lb: f64, ub: f64) {
        self.model.set_bounds(id, lb, ub);
        let absorbed = self.model.check_var(&mut hi_lint::Report::new(), id)
            && self
                .root
                .as_mut()
                .is_some_and(|root| root.set_bounds(id, lb, ub));
        if !absorbed {
            self.root = None;
        }
    }

    /// Solves the root LP relaxation cold and keeps its tableau, without
    /// branching, so that the next [`solve`](WarmModel::solve) (of this
    /// model or of a clone) starts from it. Counts the pivots but no
    /// solve; a no-op when a tableau is already kept. An infeasible or
    /// unbounded root keeps none, and the next solve runs cold.
    ///
    /// # Errors
    ///
    /// As [`Model::solve`], with the same verdict on a malformed model.
    pub fn solve_root(&mut self) -> Result<(), SolveError> {
        if self.root.is_none() {
            self.model.gate()?;
            self.root = WarmLp::solve(&self.model)?.1;
        }
        Ok(())
    }

    /// Solves the model exactly, reoptimizing the kept root relaxation
    /// when there is one.
    ///
    /// Emits the same `milp.solve` span and `milp.solves`,
    /// `milp.bb_nodes`, `milp.pivots` and `milp.solve_ns` metrics as
    /// [`Model::solve`].
    ///
    /// # Errors
    ///
    /// As [`Model::solve`], with the same verdict on a malformed model.
    pub fn solve(&mut self) -> Result<Solution, SolveError> {
        traced_solve(|| {
            let lp = match &mut self.root {
                Some(root) => root.reoptimize(),
                None => {
                    self.model.gate()?;
                    WarmLp::solve(&self.model).map(|(lp, root)| {
                        self.root = root;
                        lp
                    })
                }
            };
            let lp = match lp {
                Ok(lp) if lp.status == LpStatus::Optimal => lp,
                // Infeasible, unbounded or failed: keep no tableau, and let
                // branch & bound give today's answer (or error).
                _ => {
                    self.root = None;
                    return branch::solve(&self.model);
                }
            };
            let vars = &self.model.vars;
            let integral = vars
                .iter()
                .zip(&lp.values)
                .all(|(v, &x)| !v.is_integer() || (x - x.round()).abs() <= TOL);
            if !integral {
                return branch::solve(&self.model);
            }
            if vars.iter().any(Variable::is_integer) {
                // The root closed the search, as a branch & bound root does.
                hi_trace::counter(hi_trace::wellknown::MILP_BB_NODES, 1);
                hi_trace::counter(hi_trace::wellknown::MILP_BB_FATHOMED, 0);
            }
            let values = vars
                .iter()
                .zip(lp.values)
                .map(|(v, x)| if v.is_integer() { x.round() } else { x })
                .collect();
            Ok(Solution::optimal(values, lp.objective))
        })
    }
}
