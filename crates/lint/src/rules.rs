//! The static rule set over [`LintModel`]s.

use std::collections::HashMap;

use crate::model::{normalize, LintModel, NormKind, NormRow, RowSense, TOL, ZERO_TOL};
use crate::propagate::propagate;
use crate::report::{Finding, Report, RuleId, Span};
use crate::structure::{row_span, structural_pass, var_span};

/// Coefficient-magnitude ratio within one row above which conditioning is
/// flagged (classic big-M smell).
const CONDITION_RATIO: f64 = 1e6;

/// Propagation rounds run by [`analyze`].
const PROPAGATION_ROUNDS: usize = 8;

/// Runs every static rule against `model` and returns the combined report.
///
/// Rules and severities (see [`RuleId`] for the full table):
/// errors are structural (non-finite numbers, dangling references, crossed
/// bounds), warnings are semantic smells (provable infeasibility, unused
/// variables, duplicate/dominated rows, conditioning), infos are harmless
/// redundancy.
///
/// # Examples
///
/// ```
/// use hi_lint::{analyze, LintModel, RowSense, RuleId};
///
/// let mut m = LintModel::new();
/// let x = m.var("x", 0.0, 1.0, true);
/// let y = m.var("y", 0.0, 1.0, true);
/// m.row("choose", vec![(x, 1.0), (y, 1.0)], RowSense::Ge, 3.0);
/// let report = analyze(&m);
/// assert!(report.has_rule(RuleId::BoundInfeasible)); // 2 binaries can't sum to 3
/// ```
pub fn analyze(model: &LintModel) -> Report {
    // First pass: the structural (error-severity) rules.
    let (mut report, rows_ok) = structural_pass(model);
    let n = model.vars.len();

    // --- per-row shape -----------------------------------------------------
    for (i, row) in model.rows.iter().enumerate() {
        if !rows_ok[i] {
            continue;
        }

        let effective: Vec<f64> = row
            .terms
            .iter()
            .map(|&(_, c)| c.abs())
            .filter(|&a| a > ZERO_TOL)
            .collect();
        if effective.is_empty() {
            let holds = match row.sense {
                RowSense::Le => 0.0 <= row.rhs + TOL,
                RowSense::Ge => 0.0 >= row.rhs - TOL,
                RowSense::Eq => row.rhs.abs() <= TOL,
            };
            let verdict = if holds {
                "vacuously true"
            } else {
                "trivially infeasible"
            };
            report.push(Finding::new(
                RuleId::EmptyRow,
                row_span(model, i),
                format!("row has no effective terms and is {verdict}"),
            ));
            continue;
        }

        // Conditioning / big-M.
        let max_c = effective.iter().copied().fold(0.0f64, f64::max);
        let min_c = effective.iter().copied().fold(f64::INFINITY, f64::min);
        if max_c / min_c > CONDITION_RATIO {
            report.push(Finding::new(
                RuleId::Conditioning,
                row_span(model, i),
                format!(
                    "coefficient magnitudes span [{min_c:.3e}, {max_c:.3e}] \
                     (ratio {:.1e} > {CONDITION_RATIO:.0e}); big-M style rows \
                     weaken LP relaxations and invite round-off",
                    max_c / min_c
                ),
            ));
        }
    }

    // --- variable usage ----------------------------------------------------
    let mut used = vec![false; n];
    for row in &model.rows {
        for &(v, c) in &row.terms {
            if v < n && c.abs() > ZERO_TOL {
                used[v] = true;
            }
        }
    }
    for &(v, c) in &model.objective {
        if v < n && c.abs() > ZERO_TOL {
            used[v] = true;
        }
    }
    for (i, v) in model.vars.iter().enumerate() {
        // A variable fixed by its bounds is a deliberate pin (Algorithm 1
        // freezes dominated configuration variables this way), not an
        // accident worth flagging.
        if !used[i] && (v.upper - v.lower).abs() > TOL {
            report.push(Finding::new(
                RuleId::UnusedVariable,
                var_span(model, i),
                "appears in no constraint and not in the objective".to_owned(),
            ));
        }
    }

    // --- duplicate / dominated / conflicting rows ---------------------------
    // Fingerprint -> (row index, normalized rhs) of the strongest row seen.
    let mut seen: HashMap<NormRow, (usize, f64)> = HashMap::new();
    for (i, row) in model.rows.iter().enumerate() {
        let Some(norm) = normalize(row) else {
            continue;
        };
        match seen.get(&norm.key) {
            None => {
                seen.insert(norm.key, (i, norm.rhs));
            }
            Some(&(prev, prev_rhs)) => {
                let prev_name = &model.rows[prev].name;
                if (norm.rhs - prev_rhs).abs() <= TOL {
                    report.push(Finding::new(
                        RuleId::DuplicateRow,
                        row_span(model, i),
                        format!("identical to row `{prev_name}` (#{prev})"),
                    ));
                } else if norm.key.kind == NormKind::Eq {
                    report.push(Finding::new(
                        RuleId::BoundInfeasible,
                        row_span(model, i),
                        format!(
                            "equality conflicts with row `{prev_name}` (#{prev}): \
                             same left-hand side, different right-hand side"
                        ),
                    ));
                } else if norm.rhs > prev_rhs {
                    // Le-normalized: larger rhs is the weaker row.
                    report.push(Finding::new(
                        RuleId::DominatedRow,
                        row_span(model, i),
                        format!("implied by the tighter row `{prev_name}` (#{prev})"),
                    ));
                } else {
                    report.push(Finding::new(
                        RuleId::DominatedRow,
                        Span::Row {
                            index: prev,
                            name: prev_name.clone(),
                        },
                        format!("implied by the tighter row `{}` (#{i})", model.rows[i].name),
                    ));
                    seen.insert(norm.key, (i, norm.rhs));
                }
            }
        }
    }

    // --- interval propagation ----------------------------------------------
    // Skip when structure is broken: propagation over dangling/NaN data
    // would chase garbage.
    if !report.has_errors() {
        let prop = propagate(model, PROPAGATION_ROUNDS);
        for f in prop.findings {
            report.push(f);
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Severity;

    /// A well-formed two-variable model no rule should fire on.
    fn clean_model() -> LintModel {
        let mut m = LintModel::new();
        let x = m.var("x", 0.0, 1.0, true);
        let y = m.var("y", 0.0, 1.0, true);
        m.row("pick", vec![(x, 1.0), (y, 1.0)], RowSense::Ge, 1.0);
        m.objective = vec![(x, 1.0), (y, 2.0)];
        m
    }

    #[test]
    fn clean_model_is_clean() {
        let report = analyze(&clean_model());
        assert!(report.is_clean(), "{report}");
    }

    // -- NonFiniteBound ------------------------------------------------------

    #[test]
    fn nan_bound_fires() {
        let mut m = clean_model();
        m.vars[0].lower = f64::NAN;
        let r = analyze(&m);
        assert!(r.has_rule(RuleId::NonFiniteBound));
        assert!(r.has_errors());
    }

    #[test]
    fn infinite_bounds_in_the_right_direction_are_fine() {
        let mut m = clean_model();
        let z = m.var("z", f64::NEG_INFINITY, f64::INFINITY, false);
        m.objective.push((z, 1.0));
        let r = analyze(&m);
        assert!(!r.has_rule(RuleId::NonFiniteBound), "{r}");
    }

    // -- CrossedBounds -------------------------------------------------------

    #[test]
    fn crossed_bounds_fire() {
        let mut m = clean_model();
        m.vars[1].lower = 2.0;
        m.vars[1].upper = 1.0;
        let r = analyze(&m);
        assert!(r.has_rule(RuleId::CrossedBounds));
        assert!(r.has_errors());
    }

    #[test]
    fn equal_bounds_do_not_fire_crossed() {
        let mut m = clean_model();
        m.vars[1].lower = 1.0;
        m.vars[1].upper = 1.0;
        let r = analyze(&m);
        assert!(!r.has_rule(RuleId::CrossedBounds), "{r}");
    }

    // -- NonFiniteCoefficient ------------------------------------------------

    #[test]
    fn nan_coefficient_fires() {
        let mut m = clean_model();
        m.rows[0].terms[0].1 = f64::NAN;
        let r = analyze(&m);
        assert!(r.has_rule(RuleId::NonFiniteCoefficient));
        assert!(r.has_errors());
    }

    #[test]
    fn infinite_rhs_fires() {
        let mut m = clean_model();
        m.rows[0].rhs = f64::INFINITY;
        assert!(analyze(&m).has_rule(RuleId::NonFiniteCoefficient));
    }

    #[test]
    fn nan_objective_coefficient_fires() {
        let mut m = clean_model();
        m.objective[0].1 = f64::NAN;
        assert!(analyze(&m).has_rule(RuleId::NonFiniteCoefficient));
    }

    // -- DanglingVariable ----------------------------------------------------

    #[test]
    fn dangling_row_reference_fires() {
        let mut m = clean_model();
        m.rows[0].terms.push((17, 1.0));
        let r = analyze(&m);
        assert!(r.has_rule(RuleId::DanglingVariable));
        assert!(r.has_errors());
    }

    #[test]
    fn dangling_objective_reference_fires() {
        let mut m = clean_model();
        m.objective.push((99, 1.0));
        assert!(analyze(&m).has_rule(RuleId::DanglingVariable));
    }

    // -- EmptyRow ------------------------------------------------------------

    #[test]
    fn empty_infeasible_row_fires() {
        let mut m = clean_model();
        m.row("empty", vec![], RowSense::Ge, 2.0);
        let r = analyze(&m);
        assert!(r.has_rule(RuleId::EmptyRow));
        let f = r
            .findings()
            .iter()
            .find(|f| f.rule == RuleId::EmptyRow)
            .unwrap();
        assert!(f.message.contains("trivially infeasible"), "{}", f.message);
        assert_eq!(f.severity, Severity::Warning);
    }

    #[test]
    fn all_zero_row_fires_as_vacuous() {
        let mut m = clean_model();
        m.row("zeros", vec![(0, 0.0), (1, 0.0)], RowSense::Le, 1.0);
        let r = analyze(&m);
        let f = r
            .findings()
            .iter()
            .find(|f| f.rule == RuleId::EmptyRow)
            .unwrap();
        assert!(f.message.contains("vacuously true"), "{}", f.message);
    }

    // -- UnusedVariable ------------------------------------------------------

    #[test]
    fn unused_variable_fires() {
        let mut m = clean_model();
        m.var("ghost", 0.0, 1.0, true);
        let r = analyze(&m);
        assert!(r.has_rule(RuleId::UnusedVariable));
        assert!(!r.has_errors());
    }

    #[test]
    fn fixed_variable_is_not_flagged_unused() {
        let mut m = clean_model();
        m.var("pinned", 0.0, 0.0, true); // Algorithm-1 style freeze
        let r = analyze(&m);
        assert!(!r.has_rule(RuleId::UnusedVariable), "{r}");
    }

    #[test]
    fn objective_only_variable_is_used() {
        let mut m = clean_model();
        let z = m.var("z", 0.0, 5.0, false);
        m.objective.push((z, 1.0));
        let r = analyze(&m);
        assert!(!r.has_rule(RuleId::UnusedVariable), "{r}");
    }

    // -- DuplicateRow --------------------------------------------------------

    #[test]
    fn scaled_duplicate_fires() {
        let mut m = clean_model();
        m.row("pick2", vec![(0, 2.0), (1, 2.0)], RowSense::Ge, 2.0);
        let r = analyze(&m);
        assert!(r.has_rule(RuleId::DuplicateRow), "{r}");
    }

    #[test]
    fn different_rows_are_not_duplicates() {
        let mut m = clean_model();
        m.row("other", vec![(0, 1.0), (1, -1.0)], RowSense::Le, 0.0);
        let r = analyze(&m);
        assert!(!r.has_rule(RuleId::DuplicateRow), "{r}");
    }

    // -- DominatedRow --------------------------------------------------------

    #[test]
    fn weaker_same_lhs_row_is_dominated() {
        let mut m = clean_model();
        // pick >= 1 (from clean_model) dominates pick >= 0.5... rows must
        // share the normalized LHS: x + y >= 0.5 is weaker than x + y >= 1.
        m.row("weaker", vec![(0, 1.0), (1, 1.0)], RowSense::Ge, 0.5);
        let r = analyze(&m);
        assert!(r.has_rule(RuleId::DominatedRow), "{r}");
    }

    #[test]
    fn dominance_found_regardless_of_order() {
        let mut m = clean_model();
        // Tighter row arrives second; the *first* row should be flagged.
        m.row("tighter", vec![(0, 1.0), (1, 1.0)], RowSense::Ge, 2.0);
        let r = analyze(&m);
        let f = r
            .findings()
            .iter()
            .find(|f| f.rule == RuleId::DominatedRow)
            .expect("dominated row finding");
        assert!(matches!(&f.span, Span::Row { index: 0, .. }), "{f}");
    }

    #[test]
    fn conflicting_equalities_fire_infeasible() {
        let mut m = clean_model();
        m.row("eq1", vec![(0, 1.0), (1, 1.0)], RowSense::Eq, 1.0);
        m.row("eq2", vec![(0, 2.0), (1, 2.0)], RowSense::Eq, 4.0);
        let r = analyze(&m);
        assert!(r.has_rule(RuleId::BoundInfeasible), "{r}");
    }

    // -- BoundInfeasible (propagation) ---------------------------------------

    #[test]
    fn propagation_infeasibility_is_warning_not_error() {
        let mut m = clean_model();
        m.rows[0].rhs = 3.0; // two binaries cannot sum to 3
        let r = analyze(&m);
        assert!(r.has_rule(RuleId::BoundInfeasible));
        assert!(!r.has_errors(), "infeasible is a legal model state: {r}");
    }

    #[test]
    fn feasible_tight_model_has_no_infeasibility_finding() {
        let mut m = clean_model();
        m.rows[0].rhs = 2.0; // exactly both binaries: feasible
        let r = analyze(&m);
        assert!(!r.has_rule(RuleId::BoundInfeasible), "{r}");
    }

    // -- RedundantRow --------------------------------------------------------

    #[test]
    fn always_satisfied_row_is_info() {
        let mut m = clean_model();
        m.row("slack", vec![(0, 1.0), (1, 1.0)], RowSense::Le, 10.0);
        let r = analyze(&m);
        assert!(r.has_rule(RuleId::RedundantRow));
        assert_eq!(r.info_count(), 1);
        assert!(!r.has_errors());
    }

    // -- Conditioning --------------------------------------------------------

    #[test]
    fn big_m_row_fires_conditioning() {
        let mut m = clean_model();
        m.row("bigM", vec![(0, 1.0), (1, 1e8)], RowSense::Le, 1e8);
        let r = analyze(&m);
        assert!(r.has_rule(RuleId::Conditioning), "{r}");
    }

    #[test]
    fn moderate_coefficients_do_not_fire_conditioning() {
        let mut m = clean_model();
        m.row("ok", vec![(0, 1.0), (1, 1000.0)], RowSense::Le, 500.0);
        let r = analyze(&m);
        assert!(!r.has_rule(RuleId::Conditioning), "{r}");
    }

    // -- interaction ---------------------------------------------------------

    #[test]
    fn structural_errors_suppress_propagation() {
        let mut m = clean_model();
        m.rows[0].terms.push((42, 1.0)); // dangling
        m.rows[0].rhs = 100.0; // would otherwise be bound-infeasible
        let r = analyze(&m);
        assert!(r.has_rule(RuleId::DanglingVariable));
        assert!(!r.has_rule(RuleId::BoundInfeasible));
    }
}
