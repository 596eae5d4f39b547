//! Property-based verification of the MILP solver against brute force.
//!
//! For random small binary ILPs we enumerate all 2^n assignments directly
//! and check that branch & bound (a) agrees on feasibility and (b) returns
//! the same optimal objective. The pool enumeration is checked to return
//! exactly the set of optimal assignments. Dual simplex reoptimization of
//! a kept tableau, and warm re-solves of a growing model, are checked
//! against cold solves of the edited model.

use hi_des::check::{run_cases, Gen};
use hi_milp::simplex::{self, LpStatus, WarmLp};
use hi_milp::{pool, LinExpr, Model, Sense, SolveStatus, VarId, WarmModel};

/// A randomly generated binary ILP instance description.
#[derive(Debug, Clone)]
struct Instance {
    nvars: usize,
    obj: Vec<f64>,
    /// (coeffs, sense index 0..3, rhs)
    constraints: Vec<(Vec<f64>, u8, f64)>,
    maximize: bool,
}

fn any_instance(g: &mut Gen) -> Instance {
    let nvars = g.usize_in(2..7);
    let obj = (0..nvars).map(|_| g.f64_in(-5.0, 5.0)).collect();
    let ncons = g.usize_in(1..5);
    let constraints = (0..ncons)
        .map(|_| {
            let coeffs = (0..nvars).map(|_| g.f64_in(-4.0, 4.0)).collect();
            let sense = g.u64_below(3) as u8;
            let rhs = g.f64_in(-6.0, 6.0);
            (coeffs, sense, rhs)
        })
        .collect();
    Instance {
        nvars,
        obj,
        constraints,
        maximize: g.bool(),
    }
}

fn build_model(inst: &Instance) -> (Model, Vec<VarId>) {
    let mut m = Model::new();
    let vars: Vec<VarId> = (0..inst.nvars)
        .map(|i| m.add_binary(&format!("b{i}")))
        .collect();
    for (coeffs, sense, rhs) in &inst.constraints {
        let mut e = LinExpr::new();
        for (v, c) in vars.iter().zip(coeffs) {
            e.add_term(*v, round2(*c));
        }
        let sense = match sense {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        };
        m.add_constraint(e, sense, round2(*rhs));
    }
    let mut o = LinExpr::new();
    for (v, c) in vars.iter().zip(&inst.obj) {
        o.add_term(*v, round2(*c));
    }
    if inst.maximize {
        m.maximize(o);
    } else {
        m.minimize(o);
    }
    (m, vars)
}

/// Round coefficients to 2 decimals so brute-force feasibility checks and
/// the solver agree despite floating point tolerances.
fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Enumerates all assignments; returns (best objective, set of optimal keys).
fn brute_force(inst: &Instance) -> Option<(f64, Vec<u64>)> {
    let mut best: Option<f64> = None;
    let mut winners: Vec<u64> = Vec::new();
    for mask in 0u64..(1 << inst.nvars) {
        let x: Vec<f64> = (0..inst.nvars).map(|i| ((mask >> i) & 1) as f64).collect();
        let feasible = inst.constraints.iter().all(|(coeffs, sense, rhs)| {
            let lhs: f64 = coeffs.iter().zip(&x).map(|(c, v)| round2(*c) * v).sum();
            let rhs = round2(*rhs);
            match sense {
                0 => lhs <= rhs + 1e-9,
                1 => lhs >= rhs - 1e-9,
                _ => (lhs - rhs).abs() <= 1e-9,
            }
        });
        if !feasible {
            continue;
        }
        let obj: f64 = inst.obj.iter().zip(&x).map(|(c, v)| round2(*c) * v).sum();
        let better = match best {
            None => true,
            Some(b) => {
                if inst.maximize {
                    obj > b + 1e-9
                } else {
                    obj < b - 1e-9
                }
            }
        };
        if better {
            best = Some(obj);
            winners.clear();
            winners.push(mask);
        } else if let Some(b) = best {
            if (obj - b).abs() <= 1e-9 {
                winners.push(mask);
            }
        }
    }
    best.map(|b| (b, winners))
}

#[test]
fn branch_and_bound_matches_brute_force() {
    run_cases(300, 0x11_9001, |g| {
        let inst = any_instance(g);
        let (m, _) = build_model(&inst);
        let sol = m.solve().unwrap();
        match brute_force(&inst) {
            None => assert_eq!(sol.status(), SolveStatus::Infeasible),
            Some((best, _)) => {
                assert_eq!(sol.status(), SolveStatus::Optimal);
                assert!(
                    (sol.objective() - best).abs() < 1e-5,
                    "solver {} vs brute {}",
                    sol.objective(),
                    best
                );
            }
        }
    });
}

#[test]
fn pool_matches_brute_force_optima() {
    run_cases(300, 0x11_9002, |g| {
        let inst = any_instance(g);
        let (m, vars) = build_model(&inst);
        let found = pool::enumerate_optima(&m, pool::PoolOptions::default()).unwrap();
        match brute_force(&inst) {
            None => assert!(found.is_empty()),
            Some((_, winners)) => {
                let mut got: Vec<u64> = found
                    .iter()
                    .map(|s| {
                        vars.iter()
                            .enumerate()
                            .map(|(i, &v)| (s.int_value(v) as u64) << i)
                            .sum()
                    })
                    .collect();
                got.sort_unstable();
                let mut want = winners.clone();
                want.sort_unstable();
                assert_eq!(got, want);
            }
        }
    });
}

#[test]
fn optimal_solutions_are_feasible() {
    run_cases(300, 0x11_9003, |g| {
        let inst = any_instance(g);
        let (m, _) = build_model(&inst);
        let sol = m.solve().unwrap();
        if sol.is_optimal() {
            assert!(m.is_feasible(sol.values(), 1e-6));
        }
    });
}

/// A random LP over 2..7 variables with random bounds (some upper bounds
/// infinite, some lower bounds negative) and 1..5 random rows.
fn any_lp(g: &mut Gen) -> (Model, Vec<VarId>) {
    let nvars = g.usize_in(2..7);
    let mut m = Model::new();
    let vars: Vec<VarId> = (0..nvars)
        .map(|i| {
            let lb = if g.bool_p(0.2) {
                -round2(g.f64_in(0.0, 3.0))
            } else {
                0.0
            };
            let ub = if g.bool_p(0.2) {
                f64::INFINITY
            } else {
                lb + round2(g.f64_in(0.5, 6.0))
            };
            m.add_continuous(&format!("x{i}"), lb, ub)
        })
        .collect();
    for _ in 0..g.usize_in(1..5) {
        let (e, sense, rhs) = any_row(g, &vars);
        m.add_constraint(e, sense, rhs);
    }
    let mut o = LinExpr::new();
    for &v in &vars {
        o.add_term(v, round2(g.f64_in(-5.0, 5.0)));
    }
    if g.bool() {
        m.maximize(o);
    } else {
        m.minimize(o);
    }
    (m, vars)
}

fn any_row(g: &mut Gen, vars: &[VarId]) -> (LinExpr, Sense, f64) {
    let mut e = LinExpr::new();
    for &v in vars {
        if g.bool_p(0.7) {
            e.add_term(v, round2(g.f64_in(-4.0, 4.0)));
        }
    }
    let sense = match g.u64_below(3) {
        0 => Sense::Le,
        1 => Sense::Ge,
        _ => Sense::Eq,
    };
    (e, sense, round2(g.f64_in(-6.0, 6.0)))
}

/// One edit a cut ladder makes: a row, or a tightened upper bound.
enum Edit {
    Row(LinExpr, Sense, f64),
    Upper(VarId, f64),
}

/// A random edit. One in four asks a bounded variable past its upper
/// bound, which makes the LP infeasible; one in four tightens a finite
/// upper bound; the rest append a random row.
fn any_edit(g: &mut Gen, m: &Model, vars: &[VarId]) -> Edit {
    let v = *g.choose(vars);
    let (lb, ub) = (m.var(v).lower_bound(), m.var(v).upper_bound());
    match g.u64_below(4) {
        0 if ub.is_finite() => Edit::Row(LinExpr::var(v), Sense::Ge, ub + 1.0),
        1 if ub.is_finite() => Edit::Upper(v, round2(lb + (ub - lb) * g.f64_unit())),
        _ => {
            let (e, sense, rhs) = any_row(g, vars);
            Edit::Row(e, sense, rhs)
        }
    }
}

fn assert_same_lp(warm: &simplex::LpResult, cold: &simplex::LpResult, what: &str) {
    assert_eq!(warm.status, cold.status, "{what}: status");
    if cold.status == LpStatus::Optimal {
        assert!(
            (warm.objective - cold.objective).abs() <= 1e-9,
            "{what}: warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
    }
}

#[test]
fn dual_reoptimization_matches_cold_lp_solves() {
    let mut infeasible_edits = 0;
    run_cases(500, 0x11_9004, |g| {
        let (mut m, vars) = any_lp(g);
        let (first, kept) = WarmLp::solve(&m).unwrap();
        assert_same_lp(&first, &simplex::solve_lp(&m).unwrap(), "cold start");
        let Some(mut warm) = kept else {
            assert_ne!(
                first.status,
                LpStatus::Optimal,
                "an optimum keeps its tableau"
            );
            return;
        };
        // A short ladder of edits, each reoptimized from the last basis.
        for step in 0..g.usize_in(1..5) {
            match any_edit(g, &m, &vars) {
                Edit::Row(e, sense, rhs) => {
                    warm.add_row(&e, sense, rhs);
                    m.add_constraint(e, sense, rhs);
                }
                Edit::Upper(v, ub) => {
                    let lb = m.var(v).lower_bound();
                    assert!(
                        warm.set_bounds(v, lb, ub),
                        "upper-bound edits apply in place"
                    );
                    m.set_bounds(v, lb, ub);
                }
            }
            let reopt = warm.reoptimize().unwrap();
            let cold = simplex::solve_lp(&m).unwrap();
            assert_same_lp(&reopt, &cold, &format!("edit {step}"));
            if cold.status == LpStatus::Infeasible {
                infeasible_edits += 1;
                break; // further edits only keep it infeasible
            }
        }
    });
    assert!(infeasible_edits > 0, "no edit made an LP infeasible");
}

#[test]
fn warm_model_matches_cold_solves_across_edits() {
    run_cases(300, 0x11_9005, |g| {
        let inst = any_instance(g);
        let (m, vars) = build_model(&inst);
        let mut cold = m.clone();
        let mut warm = WarmModel::new(m);
        for step in 0..4 {
            let (w, c) = (warm.solve().unwrap(), cold.solve().unwrap());
            assert_eq!(w.status(), c.status(), "step {step}");
            if c.is_optimal() {
                assert!(
                    (w.objective() - c.objective()).abs() <= 1e-9,
                    "step {step}: warm {} vs cold {}",
                    w.objective(),
                    c.objective()
                );
                assert!(cold.is_feasible(w.values(), 1e-6), "step {step}");
            }
            if g.bool() {
                let (e, sense, rhs) = any_row(g, &vars);
                warm.add_constraint(e.clone(), sense, rhs);
                cold.add_constraint(e, sense, rhs);
            } else {
                let v = *g.choose(&vars);
                let x = g.u64_below(2) as f64;
                warm.set_bounds(v, x, x);
                cold.set_bounds(v, x, x);
            }
        }
    });
}
