//! The structural rules: the analyzer's first pass.
//!
//! HL001 NonFiniteBound, HL002 CrossedBounds, HL003 NonFiniteCoefficient
//! and HL004 DanglingVariable are the only error-severity model rules.
//! Each looks at one variable, the objective or one row on its own, so
//! they are exposed item by item: a solver that grows a model by appended
//! rows and bound edits re-gates it by checking only what changed, and a
//! model type other than [`LintModel`] runs them without converting
//! itself (names are produced only when a finding fires).

use crate::model::{LintModel, TOL};
use crate::report::{Finding, Report, RuleId, Span};

/// Names the variables and rows of a model under structural checks.
///
/// Called only when a finding fires, so a clean model never formats a
/// name.
pub trait ModelNames {
    /// Display name of variable `index`.
    fn var_name(&self, index: usize) -> String;
    /// Display name of row `index`.
    fn row_name(&self, index: usize) -> String;
}

impl ModelNames for LintModel {
    fn var_name(&self, index: usize) -> String {
        self.vars[index].name.clone()
    }

    fn row_name(&self, index: usize) -> String {
        self.rows[index].name.clone()
    }
}

pub(crate) fn var_span(names: &impl ModelNames, index: usize) -> Span {
    Span::Variable {
        index,
        name: names.var_name(index),
    }
}

pub(crate) fn row_span(names: &impl ModelNames, index: usize) -> Span {
    Span::Row {
        index,
        name: names.row_name(index),
    }
}

/// HL001 and HL002 for variable `index` with bounds `[lower, upper]`.
///
/// Returns true if the bounds are structurally sound.
pub fn check_var(
    report: &mut Report,
    names: &impl ModelNames,
    index: usize,
    lower: f64,
    upper: f64,
) -> bool {
    if lower.is_nan() || upper.is_nan() || lower == f64::INFINITY || upper == f64::NEG_INFINITY {
        report.push(Finding::new(
            RuleId::NonFiniteBound,
            var_span(names, index),
            format!("bounds [{lower}, {upper}] are not usable"),
        ));
        return false; // crossed-bound comparison is meaningless on NaN
    }
    if lower > upper + TOL {
        report.push(Finding::new(
            RuleId::CrossedBounds,
            var_span(names, index),
            format!("lower bound {lower} exceeds upper bound {upper}"),
        ));
        return false;
    }
    true
}

/// HL003 and HL004 for the objective's `(variable, coefficient)` terms
/// in a model of `num_vars` variables.
pub fn check_objective(
    report: &mut Report,
    names: &impl ModelNames,
    num_vars: usize,
    terms: impl IntoIterator<Item = (usize, f64)>,
) {
    for (v, c) in terms {
        if v >= num_vars {
            report.push(Finding::new(
                RuleId::DanglingVariable,
                Span::Model,
                format!("objective references variable #{v} but the model has {num_vars}"),
            ));
        } else if !c.is_finite() {
            report.push(Finding::new(
                RuleId::NonFiniteCoefficient,
                var_span(names, v),
                format!("objective coefficient {c} is not finite"),
            ));
        }
    }
}

/// HL003 and HL004 for row `index` with the given terms and right-hand
/// side, in a model of `num_vars` variables.
///
/// Returns true if the row is structurally sound.
pub fn check_row(
    report: &mut Report,
    names: &impl ModelNames,
    num_vars: usize,
    index: usize,
    terms: impl IntoIterator<Item = (usize, f64)>,
    rhs: f64,
) -> bool {
    let mut ok = true;
    for (v, c) in terms {
        if v >= num_vars {
            report.push(Finding::new(
                RuleId::DanglingVariable,
                row_span(names, index),
                format!("references variable #{v} but the model has {num_vars}"),
            ));
            ok = false;
        } else if !c.is_finite() {
            report.push(Finding::new(
                RuleId::NonFiniteCoefficient,
                row_span(names, index),
                format!("coefficient {c} on `{}` is not finite", names.var_name(v)),
            ));
            ok = false;
        }
    }
    if !rhs.is_finite() {
        report.push(Finding::new(
            RuleId::NonFiniteCoefficient,
            row_span(names, index),
            format!("right-hand side {rhs} is not finite"),
        ));
        ok = false;
    }
    ok
}

/// Runs the structural rules over a whole model.
///
/// Every finding is an error, and these are all the error findings
/// [`analyze`](crate::analyze) can produce: a model passes this pass
/// exactly when `analyze` reports no error.
///
/// # Examples
///
/// ```
/// use hi_lint::{structural, LintModel, RowSense, RuleId};
///
/// let mut m = LintModel::new();
/// let x = m.var("x", 0.0, f64::NAN, true);
/// m.row("r", vec![(x, 1.0), (7, 2.0)], RowSense::Le, 1.0);
/// let report = structural(&m);
/// assert!(report.has_rule(RuleId::NonFiniteBound));
/// assert!(report.has_rule(RuleId::DanglingVariable));
/// assert_eq!(report.error_count(), report.findings().len());
/// ```
pub fn structural(model: &LintModel) -> Report {
    structural_pass(model).0
}

/// [`structural`] plus, per row, whether it passed (later passes skip
/// broken rows).
pub(crate) fn structural_pass(model: &LintModel) -> (Report, Vec<bool>) {
    let mut report = Report::new();
    let n = model.vars.len();
    for (i, v) in model.vars.iter().enumerate() {
        check_var(&mut report, model, i, v.lower, v.upper);
    }
    check_objective(&mut report, model, n, model.objective.iter().copied());
    let rows_ok = model
        .rows
        .iter()
        .enumerate()
        .map(|(i, row)| check_row(&mut report, model, n, i, row.terms.iter().copied(), row.rhs))
        .collect();
    (report, rows_ok)
}
