//! Depth-first branch & bound over the LP relaxation.
//!
//! Each node carries tightened bounds for the integer variables; the LP
//! relaxation is solved cold with `simplex::solve_lp_reusing`, every node's
//! tableau built in the row buffers of the one before, and fractional integer
//! variables are branched on (most-fractional rule, index tie-break).
//! The search dives depth-first, exploring the child nearest the LP value
//! first — this finds incumbents quickly, and nodes whose relaxation bound
//! cannot beat the incumbent are pruned.

use crate::simplex::{self, LpStatus};
use crate::{Model, Objective, Solution, SolveError, VarId, TOL};

/// Hard cap on explored nodes; generous for this workspace's problem sizes.
const NODE_LIMIT: usize = 2_000_000;

/// A pending subproblem.
struct Node {
    /// LP bound of the parent (normalized: smaller is better).
    bound: f64,
    /// Per-variable `(lb, ub)` overrides, dense over all variables.
    bounds: Vec<(f64, f64)>,
}

/// Solves `model` to proven optimality.
///
/// # Errors
///
/// Propagates simplex failures and returns [`SolveError::NodeLimit`] if the
/// search tree exceeds its safety cap.
pub fn solve(model: &Model) -> Result<Solution, SolveError> {
    let int_vars = model.integer_vars();
    // Pure LP: a single relaxation solve is exact.
    if int_vars.is_empty() {
        return Ok(lp_to_solution(simplex::solve_lp(model)?));
    }

    // Presolve: tighten bounds once up front (exact transformation).
    let mut presolved = model.clone();
    let (status, _) = crate::presolve::presolve(&mut presolved)?;
    if status == crate::presolve::PresolveStatus::Infeasible {
        return Ok(Solution::infeasible());
    }
    let model = &presolved;

    let dir = model
        .objective
        .as_ref()
        .map(|(d, _)| *d)
        .ok_or(SolveError::MissingObjective)?;
    // Normalize: internally we always minimize `norm = sign * objective`.
    let sign = match dir {
        Objective::Minimize => 1.0,
        Objective::Maximize => -1.0,
    };

    let root_bounds: Vec<(f64, f64)> = model.vars.iter().map(|v| (v.lb, v.ub)).collect();
    let mut stack = vec![Node {
        bound: f64::NEG_INFINITY,
        bounds: root_bounds,
    }];

    let mut incumbent: Option<(f64, Vec<f64>)> = None; // (norm objective, values)
    let mut scratch = model.clone();
    let mut rows = Vec::new();
    let mut nodes = 0usize;
    let mut fathomed = 0u64;
    let mut root_unbounded = false;

    while let Some(node) = stack.pop() {
        nodes += 1;
        if nodes > NODE_LIMIT {
            return Err(SolveError::NodeLimit);
        }
        // Bound-based pruning against the incumbent.
        if let Some((best, _)) = &incumbent {
            if node.bound >= *best - TOL {
                fathomed += 1;
                continue;
            }
        }
        for (i, &(lb, ub)) in node.bounds.iter().enumerate() {
            scratch.set_bounds(VarId(i), lb, ub);
        }
        let lp = simplex::solve_lp_reusing(&scratch, &mut rows)?;
        match lp.status {
            LpStatus::Infeasible => {
                fathomed += 1;
                continue;
            }
            LpStatus::Unbounded => {
                // An unbounded relaxation at the root means the MILP is
                // unbounded or infeasible; report unbounded (standard
                // convention for LP-based B&B without further probing).
                if nodes == 1 {
                    root_unbounded = true;
                    break;
                }
                fathomed += 1;
                continue;
            }
            LpStatus::Optimal => {}
        }
        let norm = sign * lp.objective;
        if let Some((best, _)) = &incumbent {
            if norm >= *best - TOL {
                fathomed += 1;
                continue; // cannot improve
            }
        }
        // Find the most fractional integer variable.
        let mut branch_var: Option<(VarId, f64, f64)> = None; // (var, value, frac dist)
        for &v in &int_vars {
            let x = lp.values[v.0];
            let frac = (x - x.round()).abs();
            if frac > TOL {
                let dist = (x - x.floor() - 0.5).abs(); // smaller = more fractional
                match branch_var {
                    Some((_, _, d)) if d <= dist => {}
                    _ => branch_var = Some((v, x, dist)),
                }
            }
        }
        match branch_var {
            None => {
                // Integral: candidate incumbent.
                let values: Vec<f64> = lp
                    .values
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        if int_vars.contains(&VarId(i)) {
                            x.round()
                        } else {
                            x
                        }
                    })
                    .collect();
                if incumbent.as_ref().is_none_or(|(best, _)| norm < *best) {
                    incumbent = Some((norm, values));
                }
            }
            Some((v, x, _)) => {
                let mut down = node.bounds.clone();
                down[v.0].1 = down[v.0].1.min(x.floor());
                let mut up = node.bounds;
                up[v.0].0 = up[v.0].0.max(x.ceil());
                // Depth-first: push the less promising child first so the
                // child nearest the LP value is explored next.
                let (first, second) = if x - x.floor() >= 0.5 {
                    (down, up) // dive towards ceil
                } else {
                    (up, down) // dive towards floor
                };
                stack.push(Node {
                    bound: norm,
                    bounds: first,
                });
                stack.push(Node {
                    bound: norm,
                    bounds: second,
                });
            }
        }
    }

    hi_trace::counter(hi_trace::wellknown::MILP_BB_NODES, nodes as u64);
    hi_trace::counter(hi_trace::wellknown::MILP_BB_FATHOMED, fathomed);

    if root_unbounded {
        return Ok(Solution::unbounded());
    }
    Ok(match incumbent {
        Some((norm, values)) => Solution::optimal(values, sign * norm),
        None => Solution::infeasible(),
    })
}

fn lp_to_solution(lp: simplex::LpResult) -> Solution {
    match lp.status {
        LpStatus::Optimal => Solution::optimal(lp.values, lp.objective),
        LpStatus::Infeasible => Solution::infeasible(),
        LpStatus::Unbounded => Solution::unbounded(),
    }
}

#[cfg(test)]
mod tests {
    use crate::{Model, Sense, SolveStatus};

    fn near(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary => a=1,c=1 (17)
        // vs b=1,c=1 (20, weight 6) — check exactness.
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_constraint(a * 3.0 + b * 4.0 + c * 2.0, Sense::Le, 6.0);
        m.maximize(a * 10.0 + b * 13.0 + c * 7.0);
        let s = m.solve().unwrap();
        assert!(near(s.objective(), 20.0));
        assert_eq!(s.int_value(b), 1);
        assert_eq!(s.int_value(c), 1);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y, 2x + 2y <= 5, integers => LP gives 2.5, ILP gives 2.
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, 10.0);
        let y = m.add_integer("y", 0.0, 10.0);
        m.add_constraint(x * 2.0 + y * 2.0, Sense::Le, 5.0);
        m.maximize(x + y);
        let s = m.solve().unwrap();
        assert!(near(s.objective(), 2.0));
    }

    #[test]
    fn infeasible_ilp() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint(x + y, Sense::Ge, 3.0);
        m.minimize(x + y);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), SolveStatus::Infeasible);
    }

    #[test]
    fn equality_partition() {
        // exactly one of three binaries, minimize weighted cost.
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_constraint(a + b + c, Sense::Eq, 1.0);
        m.minimize(a * 5.0 + b * 2.0 + c * 9.0);
        let s = m.solve().unwrap();
        assert!(near(s.objective(), 2.0));
        assert_eq!(s.int_value(b), 1);
    }

    #[test]
    fn mixed_integer_continuous() {
        // min 4x + 5y + c : x,y int >=0, c cont >= 0; x + y >= 3; c >= 2x
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, 100.0);
        let y = m.add_integer("y", 0.0, 100.0);
        let c = m.add_continuous("c", 0.0, f64::INFINITY);
        m.add_constraint(x + y, Sense::Ge, 3.0);
        m.add_constraint(c - x * 2.0, Sense::Ge, 0.0);
        m.minimize(x * 4.0 + y * 5.0 + c);
        let s = m.solve().unwrap();
        // all-y is best: y = 3, x = 0, c = 0, obj = 15 vs x=3: 12+6=18.
        assert!(near(s.objective(), 15.0));
    }

    #[test]
    fn implication_constraint() {
        // n_j - n_i <= 0 means "j used requires i used" (paper §2.1).
        let mut m = Model::new();
        let ni = m.add_binary("n_i");
        let nj = m.add_binary("n_j");
        m.add_constraint(nj - ni, Sense::Le, 0.0);
        m.add_constraint(nj * 1.0, Sense::Ge, 1.0);
        m.minimize(ni + nj);
        let s = m.solve().unwrap();
        assert_eq!(s.int_value(ni), 1);
        assert_eq!(s.int_value(nj), 1);
    }

    #[test]
    fn unbounded_integer_program() {
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, f64::INFINITY);
        m.maximize(x * 1.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), SolveStatus::Unbounded);
    }

    #[test]
    fn negative_coefficients_and_bounds() {
        // min -3x + y : x in [-2, 2] int, y in [0, 5] int, x + y >= 1
        let mut m = Model::new();
        let x = m.add_integer("x", -2.0, 2.0);
        let y = m.add_integer("y", 0.0, 5.0);
        m.add_constraint(x + y, Sense::Ge, 1.0);
        m.minimize(x * -3.0 + y);
        let s = m.solve().unwrap();
        assert!(near(s.objective(), -6.0)); // x = 2, y = 0
    }

    #[test]
    fn ten_binary_cover() {
        // Set cover flavored instance with a unique optimum.
        let mut m = Model::new();
        let vars: Vec<_> = (0..10).map(|i| m.add_binary(&format!("b{i}"))).collect();
        // each of 5 elements covered by 2 sets
        for e in 0..5 {
            m.add_constraint(vars[e] + vars[e + 5], Sense::Ge, 1.0);
        }
        let costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        let obj: crate::LinExpr = vars.iter().zip(costs.iter()).map(|(&v, &c)| v * c).sum();
        m.minimize(obj);
        let s = m.solve().unwrap();
        // per element pick the cheaper of (e, e+5): min(3,9)+min(1,2)+min(4,5)+min(1,3)+min(5,3)
        assert!(near(s.objective(), 3.0 + 1.0 + 4.0 + 1.0 + 3.0));
    }
}
