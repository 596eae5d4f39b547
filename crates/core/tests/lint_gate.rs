//! The solve gate runs only the analyzer's structural (error) rules; its
//! verdict must be the one the full analysis gives.
//!
//! The reference verdict is `Model::validate`, then `hi_lint::analyze`
//! filtered to errors in canonical order: exactly what a solve aborted
//! with before the gate was narrowed to the structural pass. Each
//! structural rule gets a model that trips it, solved cold, solved warm
//! after a clean first solve, and (for the Algorithm-1 encoding) after a
//! NaN power cut on a warm ladder.

use hi_core::{MilpEncoding, TopologyConstraints};
use hi_lint::{RuleId, Severity};
use hi_milp::{LinExpr, Model, Sense, SolveError, VarId, WarmModel};
use hi_net::AppParams;

/// The verdict of `validate` plus the full analyzer, filtered to errors.
fn reference_verdict(model: &Model) -> Result<(), SolveError> {
    model.validate()?;
    let mut report = model.lint();
    report.normalize();
    let first = report.with_severity(Severity::Error).next();
    match first.map(ToString::to_string) {
        None => Ok(()),
        Some(first) => Err(SolveError::Lint {
            first,
            errors: report.error_count(),
        }),
    }
}

/// A small clean model: two binaries, one row, an objective.
fn clean() -> (Model, VarId, VarId) {
    let mut m = Model::new();
    let a = m.add_binary("a");
    let b = m.add_binary("b");
    m.add_constraint(a + b, Sense::Ge, 1.0);
    m.minimize(a * 1.0 + b * 2.0);
    (m, a, b)
}

/// A variable id past the end of [`clean`]'s two variables.
fn foreign_var() -> VarId {
    let mut other = Model::new();
    other.add_binary("x");
    other.add_binary("y");
    other.add_binary("z")
}

/// Checks the cold and the warm solve of `broken` against the reference,
/// and that the reference names `rule` (when the analyzer decides it).
fn assert_gate_matches(broken: &Model, rule: Option<RuleId>) {
    let want = reference_verdict(broken);
    assert!(want.is_err(), "the model must be broken");
    if let Some(rule) = rule {
        assert!(broken.lint().has_rule(rule), "{}", broken.lint());
    }
    let cold = broken.solve().map(|_| ());
    assert_eq!(cold, want, "cold solve");
    // A fresh wrapper gates the whole model on its first solve.
    let warm = WarmModel::new(broken.clone()).solve().map(|_| ());
    assert_eq!(warm, want, "first warm solve");
}

#[test]
fn non_finite_bound_matches_the_analyzer() {
    let (mut m, a, _) = clean();
    m.set_bounds(a, 0.0, f64::NAN);
    assert_gate_matches(&m, Some(RuleId::NonFiniteBound));
}

#[test]
fn crossed_bounds_inside_validate_tolerance_match_the_analyzer() {
    // `validate` allows bounds crossed by less than the solver tolerance
    // (1e-7); the analyzer's tolerance (1e-9) does not.
    let (mut m, a, _) = clean();
    m.set_bounds(a, 1.0 + 5e-8, 1.0);
    assert_gate_matches(&m, Some(RuleId::CrossedBounds));
    // Crossed past the solver tolerance, `validate` answers first.
    m.set_bounds(a, 1.0, 0.0);
    assert_gate_matches(&m, Some(RuleId::CrossedBounds));
}

#[test]
fn non_finite_coefficient_matches_the_analyzer() {
    let (mut m, a, b) = clean();
    m.add_constraint(a * f64::INFINITY + b, Sense::Le, 1.0);
    assert_gate_matches(&m, Some(RuleId::NonFiniteCoefficient));
    let (mut m, a, _) = clean();
    m.add_constraint(a * 1.0, Sense::Le, f64::NAN);
    assert_gate_matches(&m, Some(RuleId::NonFiniteCoefficient));
}

#[test]
fn dangling_variable_matches_the_analyzer() {
    let (mut m, a, _) = clean();
    m.add_constraint(a + foreign_var(), Sense::Le, 1.0);
    assert_gate_matches(&m, Some(RuleId::DanglingVariable));
    let (mut m, a, _) = clean();
    m.minimize(a + foreign_var());
    assert_gate_matches(&m, Some(RuleId::DanglingVariable));
}

#[test]
fn several_errors_report_the_canonical_first_and_the_count() {
    let (mut m, a, b) = clean();
    m.set_bounds(b, f64::NAN, 1.0);
    m.add_constraint(a + foreign_var(), Sense::Le, 1.0);
    m.add_constraint(LinExpr::var(foreign_var()), Sense::Ge, 0.0);
    m.set_bounds(a, 1.0 + 5e-8, 1.0);
    let want = reference_verdict(&m);
    assert!(
        matches!(&want, Err(SolveError::Lint { errors, .. }) if *errors == 4),
        "{want:?}"
    );
    assert_gate_matches(&m, None);
}

#[test]
fn broken_edits_on_a_warm_model_match_the_analyzer() {
    type Edit = fn(&mut WarmModel, VarId);
    let edits: [(Edit, RuleId); 4] = [
        (
            |w, a| w.set_bounds(a, f64::NAN, 1.0),
            RuleId::NonFiniteBound,
        ),
        (
            |w, a| w.set_bounds(a, 1.0 + 5e-8, 1.0),
            RuleId::CrossedBounds,
        ),
        (
            |w, a| w.add_constraint(a * f64::NAN, Sense::Le, 1.0),
            RuleId::NonFiniteCoefficient,
        ),
        (
            |w, a| w.add_constraint(a + foreign_var(), Sense::Le, 1.0),
            RuleId::DanglingVariable,
        ),
    ];
    for (edit, rule) in edits {
        let (m, a, _) = clean();
        let mut warm = WarmModel::new(m);
        assert!(warm.solve().unwrap().is_optimal(), "clean first solve");
        edit(&mut warm, a);
        assert!(warm.model().lint().has_rule(rule), "{rule:?}");
        let want = reference_verdict(warm.model());
        assert!(want.is_err(), "{rule:?}");
        assert_eq!(warm.solve().map(|_| ()), want, "{rule:?}");
        // The verdict sticks: the broken model is re-gated every time.
        assert_eq!(warm.solve().map(|_| ()), want, "{rule:?} again");
    }
}

#[test]
fn nan_power_cut_on_a_warm_ladder_matches_the_analyzer() {
    let mut enc = MilpEncoding::new(&TopologyConstraints::paper_default(), &AppParams::default());
    let (_, p) = enc.solve_pool().unwrap();
    enc.add_power_cut(p.unwrap());
    let (_, p) = enc.solve_pool().unwrap();
    assert!(p.is_some(), "second level solved on the warm tableau");
    enc.add_power_cut(f64::NAN);
    let want = reference_verdict(enc.model());
    assert_eq!(want, Err(SolveError::NonFiniteCoefficient));
    assert_eq!(enc.solve_pool().map(|_| ()), want);
    assert_eq!(enc.model().solve().map(|_| ()), want);
}
