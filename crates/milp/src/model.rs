//! The modelling API: variables, constraints and objective.

use crate::{branch, LinExpr, Solution, SolveError, VarId, TOL};

/// The domain of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarType {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds.
    Integer,
    /// Integer in `[0, 1]`.
    Binary,
}

/// The comparison sense of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// `expr <= rhs`
    Le,
    /// `expr == rhs`
    Eq,
    /// `expr >= rhs`
    Ge,
}

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize the objective expression.
    Minimize,
    /// Maximize the objective expression.
    Maximize,
}

/// A decision variable's metadata.
#[derive(Debug, Clone)]
pub struct Variable {
    pub(crate) name: String,
    pub(crate) ty: VarType,
    pub(crate) lb: f64,
    pub(crate) ub: f64,
}

impl Variable {
    /// The variable's name, as given at creation.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The variable's domain type.
    pub fn var_type(&self) -> VarType {
        self.ty
    }

    /// The lower bound (possibly `-inf`).
    pub fn lower_bound(&self) -> f64 {
        self.lb
    }

    /// The upper bound (possibly `+inf`).
    pub fn upper_bound(&self) -> f64 {
        self.ub
    }

    /// True for integer and binary variables.
    pub(crate) fn is_integer(&self) -> bool {
        matches!(self.ty, VarType::Integer | VarType::Binary)
    }
}

/// A linear constraint `expr (<=|==|>=) rhs`.
///
/// The expression's additive constant is folded into `rhs` at construction,
/// so `expr.constant()` is always zero here.
#[derive(Debug, Clone)]
pub struct Constraint {
    pub(crate) expr: LinExpr,
    pub(crate) sense: Sense,
    pub(crate) rhs: f64,
}

impl Constraint {
    /// The left-hand-side expression (constant-free).
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// The comparison sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// The right-hand-side constant.
    pub fn rhs(&self) -> f64 {
        self.rhs
    }

    /// Checks whether a dense assignment satisfies this constraint within
    /// tolerance `tol`.
    pub fn is_satisfied(&self, values: &[f64], tol: f64) -> bool {
        let lhs = self.expr.eval(values);
        match self.sense {
            Sense::Le => lhs <= self.rhs + tol,
            Sense::Ge => lhs >= self.rhs - tol,
            Sense::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// A mixed integer linear program under construction.
///
/// See the [crate-level documentation](crate) for a worked example.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: Option<(Objective, LinExpr)>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with an explicit type and bounds, returning its id.
    ///
    /// For `VarType::Binary` the given bounds are intersected with `[0, 1]`.
    pub fn add_var(&mut self, name: &str, ty: VarType, lb: f64, ub: f64) -> VarId {
        let (lb, ub) = match ty {
            VarType::Binary => (lb.max(0.0), ub.min(1.0)),
            _ => (lb, ub),
        };
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            name: name.to_owned(),
            ty,
            lb,
            ub,
        });
        id
    }

    /// Adds a binary (0/1) variable.
    pub fn add_binary(&mut self, name: &str) -> VarId {
        self.add_var(name, VarType::Binary, 0.0, 1.0)
    }

    /// Adds an integer variable with the given bounds.
    pub fn add_integer(&mut self, name: &str, lb: f64, ub: f64) -> VarId {
        self.add_var(name, VarType::Integer, lb, ub)
    }

    /// Adds a continuous variable with the given bounds.
    pub fn add_continuous(&mut self, name: &str, lb: f64, ub: f64) -> VarId {
        self.add_var(name, VarType::Continuous, lb, ub)
    }

    /// Adds the constraint `expr (sense) rhs`.
    ///
    /// Any constant inside `expr` is moved to the right-hand side.
    pub fn add_constraint(&mut self, expr: impl Into<LinExpr>, sense: Sense, rhs: f64) {
        let mut expr = expr.into();
        let c = expr.constant();
        expr.add_constant(-c);
        self.constraints.push(Constraint {
            expr,
            sense,
            rhs: rhs - c,
        });
    }

    /// Sets the objective to minimize `expr`.
    pub fn minimize(&mut self, expr: impl Into<LinExpr>) {
        self.objective = Some((Objective::Minimize, expr.into()));
    }

    /// Sets the objective to maximize `expr`.
    pub fn maximize(&mut self, expr: impl Into<LinExpr>) {
        self.objective = Some((Objective::Maximize, expr.into()));
    }

    /// Number of variables in the model.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints in the model.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Metadata for a variable.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this model.
    pub fn var(&self, id: VarId) -> &Variable {
        &self.vars[id.0]
    }

    /// The model's constraints, in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective direction and expression, if set.
    pub fn objective(&self) -> Option<(&Objective, &LinExpr)> {
        self.objective.as_ref().map(|(d, e)| (d, e))
    }

    /// The ids of all integer-constrained (integer or binary) variables.
    pub fn integer_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_integer())
            .map(|(i, _)| VarId(i))
            .collect()
    }

    /// Tightens a variable's bounds in place (used by branch & bound and by
    /// callers that refine a model between solves).
    pub fn set_bounds(&mut self, id: VarId, lb: f64, ub: f64) {
        self.vars[id.0].lb = lb;
        self.vars[id.0].ub = ub;
    }

    /// Checks a dense assignment against every constraint, every bound and
    /// every integrality requirement.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (i, v) in self.vars.iter().enumerate() {
            let x = values[i];
            if x < v.lb - tol || x > v.ub + tol {
                return false;
            }
            if v.is_integer() && (x - x.round()).abs() > tol {
                return false;
            }
        }
        self.constraints.iter().all(|c| c.is_satisfied(values, tol))
    }

    /// Validates structural invariants (finite coefficients, ordered
    /// bounds, an objective being present).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`SolveError`].
    pub fn validate(&self) -> Result<(), SolveError> {
        for v in &self.vars {
            if v.lb > v.ub + TOL {
                return Err(SolveError::InvalidBounds {
                    var: v.name.clone(),
                });
            }
        }
        let obj = self
            .objective
            .as_ref()
            .ok_or(SolveError::MissingObjective)?;
        let finite_expr =
            |e: &LinExpr| e.iter().all(|(_, c)| c.is_finite()) && e.constant().is_finite();
        if !finite_expr(&obj.1) {
            return Err(SolveError::NonFiniteCoefficient);
        }
        for c in &self.constraints {
            if !finite_expr(&c.expr) || !c.rhs.is_finite() {
                return Err(SolveError::NonFiniteCoefficient);
            }
        }
        Ok(())
    }

    /// Converts the model into the static analyzer's IR.
    ///
    /// Constraints are named `c0`, `c1`, ... in insertion order; variables
    /// keep their given names.
    pub fn to_lint_model(&self) -> hi_lint::LintModel {
        let mut lm = hi_lint::LintModel::new();
        for v in &self.vars {
            lm.var(&v.name, v.lb, v.ub, v.is_integer());
        }
        lm.rows = (0..self.constraints.len())
            .map(|i| self.to_lint_row(i))
            .collect();
        if let Some((_, expr)) = &self.objective {
            lm.objective = expr.iter().map(|(id, coeff)| (id.0, coeff)).collect();
        }
        lm
    }

    /// Constraint `index` in the static analyzer's IR, named as in
    /// [`to_lint_model`](Model::to_lint_model).
    ///
    /// # Panics
    ///
    /// Panics if the model has no constraint `index`.
    pub fn to_lint_row(&self, index: usize) -> hi_lint::LintRow {
        let c = &self.constraints[index];
        hi_lint::LintRow {
            name: hi_lint::ModelNames::row_name(self, index),
            terms: c.expr.iter().map(|(id, coeff)| (id.0, coeff)).collect(),
            sense: match c.sense {
                Sense::Le => hi_lint::RowSense::Le,
                Sense::Eq => hi_lint::RowSense::Eq,
                Sense::Ge => hi_lint::RowSense::Ge,
            },
            rhs: c.rhs,
        }
    }

    /// Runs the static analyzer ([`hi_lint::analyze`]) over the model.
    pub fn lint(&self) -> hi_lint::Report {
        hi_lint::analyze(&self.to_lint_model())
    }

    /// The structural half of [`lint`](Model::lint): the analyzer's
    /// error rules ([`hi_lint::structural`]) run over the model in place.
    fn structural_report(&self) -> hi_lint::Report {
        let mut report = hi_lint::Report::new();
        for i in 0..self.vars.len() {
            self.check_var(&mut report, VarId(i));
        }
        if let Some((_, expr)) = &self.objective {
            let terms = expr.iter().map(|(id, c)| (id.0, c));
            hi_lint::check_objective(&mut report, self, self.vars.len(), terms);
        }
        for i in 0..self.constraints.len() {
            self.check_row(&mut report, i);
        }
        report
    }

    /// Structural check of constraint `index` alone; true if it is sound.
    pub(crate) fn check_row(&self, report: &mut hi_lint::Report, index: usize) -> bool {
        let c = &self.constraints[index];
        let terms = c.expr.iter().map(|(id, coeff)| (id.0, coeff));
        hi_lint::check_row(report, self, self.vars.len(), index, terms, c.rhs)
    }

    /// Structural check of variable `id`'s bounds alone; true if sound.
    pub(crate) fn check_var(&self, report: &mut hi_lint::Report, id: VarId) -> bool {
        let v = &self.vars[id.0];
        hi_lint::check_var(report, self, id.0, v.lb, v.ub)
    }

    /// The checks every solve runs first: [`validate`](Model::validate),
    /// then the analyzer's error rules. Warning and info rules never
    /// abort a solve, so only the structural pass runs here; the full
    /// analysis stays in [`lint`](Model::lint).
    ///
    /// # Errors
    ///
    /// The first violated invariant, or [`SolveError::Lint`] with the
    /// first error finding in canonical order and the error count.
    pub(crate) fn gate(&self) -> Result<(), SolveError> {
        self.validate()?;
        let mut report = self.structural_report();
        if !report.has_errors() {
            return Ok(());
        }
        // Canonical order + dedup, so the reported finding is
        // deterministic.
        report.normalize();
        let first = report
            .with_severity(hi_lint::Severity::Error)
            .next()
            .expect("has_errors implies an error finding")
            .to_string();
        Err(SolveError::Lint {
            first,
            errors: report.error_count(),
        })
    }

    /// Solves the model exactly (branch & bound over the LP relaxation).
    ///
    /// The analyzer's structural rules run first (see
    /// [`hi_lint::structural`]): an error finding aborts the solve with
    /// [`SolveError::Lint`].
    ///
    /// # Errors
    ///
    /// Returns a [`SolveError`] on malformed models or if solver limits are
    /// hit. Infeasibility and unboundedness are *not* errors: they are
    /// reported through [`Solution::status`].
    pub fn solve(&self) -> Result<Solution, SolveError> {
        traced_solve(|| {
            self.gate()?;
            branch::solve(self)
        })
    }
}

impl hi_lint::ModelNames for Model {
    fn var_name(&self, index: usize) -> String {
        self.vars[index].name.clone()
    }

    fn row_name(&self, index: usize) -> String {
        format!("c{index}")
    }
}

/// Runs one solve inside the `milp.solve` span and, when it succeeds,
/// counts it in `milp.solves` and `milp.solve_ns`.
pub(crate) fn traced_solve(
    solve: impl FnOnce() -> Result<Solution, SolveError>,
) -> Result<Solution, SolveError> {
    let mut solve_span = hi_trace::span("milp.solve");
    let t_begin = hi_trace::now_ns();
    let solution = solve()?;
    hi_trace::counter(hi_trace::wellknown::MILP_SOLVES, 1);
    if let (Some(t0), Some(t1)) = (t_begin, hi_trace::now_ns()) {
        hi_trace::histogram(hi_trace::wellknown::MILP_SOLVE_NS, t1.saturating_sub(t0));
    }
    if solve_span.is_recording() {
        solve_span.arg("status", format!("{:?}", solution.status()));
    }
    Ok(solution)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folds_into_rhs() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.add_constraint(x + 3.0, Sense::Le, 5.0);
        let c = &m.constraints()[0];
        assert_eq!(c.rhs(), 2.0);
        assert_eq!(c.expr().constant(), 0.0);
    }

    #[test]
    fn binary_bounds_clamped() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Binary, -5.0, 7.0);
        assert_eq!(m.var(x).lower_bound(), 0.0);
        assert_eq!(m.var(x).upper_bound(), 1.0);
    }

    #[test]
    fn validate_catches_crossed_bounds() {
        let mut m = Model::new();
        m.add_continuous("x", 2.0, 1.0);
        m.minimize(LinExpr::constant_expr(0.0));
        assert!(matches!(
            m.validate(),
            Err(SolveError::InvalidBounds { .. })
        ));
    }

    #[test]
    fn validate_requires_objective() {
        let m = Model::new();
        assert_eq!(m.validate(), Err(SolveError::MissingObjective));
    }

    #[test]
    fn validate_rejects_nan() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.minimize(x * f64::NAN);
        assert_eq!(m.validate(), Err(SolveError::NonFiniteCoefficient));
    }

    #[test]
    fn feasibility_check_covers_integrality() {
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint(x * 1.0, Sense::Le, 5.0);
        assert!(m.is_feasible(&[3.0], 1e-9));
        assert!(!m.is_feasible(&[3.5], 1e-9));
        assert!(!m.is_feasible(&[6.0], 1e-9));
    }

    #[test]
    fn integer_vars_lists_binaries_too() {
        let mut m = Model::new();
        let _c = m.add_continuous("c", 0.0, 1.0);
        let b = m.add_binary("b");
        let i = m.add_integer("i", 0.0, 3.0);
        assert_eq!(m.integer_vars(), vec![b, i]);
    }
}
