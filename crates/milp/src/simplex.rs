//! Dense two-phase primal simplex for the LP relaxation.
//!
//! The solver converts a [`Model`] to standard form (`Ax = b`, `x >= 0`)
//! by shifting, mirroring or splitting variables according to their bounds,
//! then runs the classic tableau method: phase 1 minimizes the sum of
//! artificial variables to find a basic feasible solution, phase 2 optimizes
//! the true objective. Bland's rule is used throughout, so the method
//! terminates on degenerate instances.
//!
//! [`WarmLp`] keeps an optimal tableau across model edits: appended rows
//! and tightened upper bounds leave its basis dual feasible, and a dual
//! simplex restores optimality from there.
//!
//! Problem sizes in this workspace are tiny (tens of rows/columns), so a
//! dense `Vec<Vec<f64>>` tableau is simpler and faster than a revised
//! implementation would be.

use crate::{LinExpr, Model, Objective, Sense, SolveError, VarId, TOL};

/// Spare columns a kept tableau's rows grow by when a row is appended.
const APPEND_COLUMNS: usize = 8;

/// Status of an LP relaxation solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LpStatus {
    /// Proven optimal.
    Optimal,
    /// Empty feasible region.
    Infeasible,
    /// Objective unbounded in the optimization direction.
    Unbounded,
}

/// Result of solving the LP relaxation of a model.
#[derive(Debug, Clone)]
pub struct LpResult {
    /// Solve outcome.
    pub status: LpStatus,
    /// Values of the *original* model variables (empty unless optimal).
    pub values: Vec<f64>,
    /// Objective value in the model's own direction (0 unless optimal).
    pub objective: f64,
}

/// How an original variable is represented in standard form.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lb + x'`, `x' >= 0`; optional explicit upper-bound row.
    Shifted { col: usize, lb: f64 },
    /// `x = ub - x'`, `x' >= 0` (used when only an upper bound is finite).
    Mirrored { col: usize, ub: f64 },
    /// `x = x+ - x-` (free variable).
    Split { pos: usize, neg: usize },
    /// Fixed variable (`lb == ub`): substituted out entirely.
    Fixed { value: f64 },
}

/// A row of the standard-form system before slack/artificial augmentation.
#[derive(Debug, Clone)]
struct StdRow {
    coeffs: Vec<f64>,
    sense: Sense,
    rhs: f64,
}

/// The standard-form image of a model: how each variable maps to
/// columns and the minimization objective over the columns.
#[derive(Debug, Clone)]
struct StdForm {
    maps: Vec<VarMap>,
    ncols: usize,
    /// Per variable, the index among the built rows of its upper-bound
    /// row (shifted variables with a finite upper bound only).
    ub_rows: Vec<Option<usize>>,
    /// Each variable's bounds as the tableau currently holds them.
    bounds: Vec<(f64, f64)>,
    obj: Vec<f64>,
    obj_const: f64,
    /// `+1` to minimize, `-1` to maximize: `objective = sign * cost + obj_const`.
    sign: f64,
}

impl StdForm {
    /// Maps `model` to standard form, with the rows built from its
    /// constraints and finite ranges; `None` if some variable's bounds are
    /// crossed (the LP is infeasible).
    fn build(model: &Model) -> Result<Option<(Self, Vec<StdRow>)>, SolveError> {
        let (dir, obj) = match &model.objective {
            Some((d, e)) => (*d, e),
            None => return Err(SolveError::MissingObjective),
        };

        // --- 1. Map variables to non-negative standard-form columns. ------
        let mut maps = Vec::with_capacity(model.vars.len());
        let mut ncols = 0usize;
        for v in &model.vars {
            if v.lb > v.ub + TOL {
                return Ok(None);
            }
            let map = if (v.ub - v.lb).abs() <= TOL && v.lb.is_finite() {
                VarMap::Fixed { value: v.lb }
            } else if v.lb.is_finite() {
                let m = VarMap::Shifted {
                    col: ncols,
                    lb: v.lb,
                };
                ncols += 1;
                m
            } else if v.ub.is_finite() {
                let m = VarMap::Mirrored {
                    col: ncols,
                    ub: v.ub,
                };
                ncols += 1;
                m
            } else {
                let m = VarMap::Split {
                    pos: ncols,
                    neg: ncols + 1,
                };
                ncols += 2;
                m
            };
            maps.push(map);
        }
        let mut form = Self {
            maps,
            ncols,
            ub_rows: vec![None; model.vars.len()],
            bounds: model.vars.iter().map(|v| (v.lb, v.ub)).collect(),
            obj: Vec::new(),
            obj_const: 0.0,
            sign: match dir {
                Objective::Minimize => 1.0,
                Objective::Maximize => -1.0,
            },
        };

        // --- 2. Build standard-form rows from constraints and finite ranges.
        let mut rows = Vec::with_capacity(model.constraints.len());
        for con in &model.constraints {
            let (coeffs, rhs) = form.map_expr(&con.expr, con.rhs);
            rows.push(StdRow {
                coeffs,
                sense: con.sense,
                rhs,
            });
        }
        // Upper-bound rows for shifted variables with a finite upper bound.
        for (i, v) in model.vars.iter().enumerate() {
            if let VarMap::Shifted { col, lb } = form.maps[i] {
                if v.ub.is_finite() {
                    let mut coeffs = vec![0.0; ncols];
                    coeffs[col] = 1.0;
                    form.ub_rows[i] = Some(rows.len());
                    rows.push(StdRow {
                        coeffs,
                        sense: Sense::Le,
                        rhs: v.ub - lb,
                    });
                }
            }
        }
        // Objective in standard-form columns, normalized to minimization.
        // `map_expr` moves `-(c * shift)` to its rhs, so the objective's
        // constant is what that rhs is short of.
        let (coeffs, rhs_dummy) = form.map_expr(obj, 0.0);
        form.obj_const = obj.constant() - rhs_dummy;
        form.obj = coeffs.iter().map(|c| c * form.sign).collect();
        Ok(Some((form, rows)))
    }

    /// `expr (sense) rhs` over the standard-form columns: the column
    /// coefficients and the right-hand side net of shifted-out constants.
    fn map_expr(&self, expr: &LinExpr, rhs: f64) -> (Vec<f64>, f64) {
        let mut coeffs = vec![0.0; self.ncols];
        let mut rhs = rhs;
        for (v, c) in expr.iter() {
            match self.maps[v.0] {
                VarMap::Shifted { col, lb } => {
                    coeffs[col] += c;
                    rhs -= c * lb;
                }
                VarMap::Mirrored { col, ub } => {
                    coeffs[col] -= c;
                    rhs -= c * ub;
                }
                VarMap::Split { pos, neg } => {
                    coeffs[pos] += c;
                    coeffs[neg] -= c;
                }
                VarMap::Fixed { value } => {
                    rhs -= c * value;
                }
            }
        }
        (coeffs, rhs)
    }

    /// Maps a finished tableau's outcome back to the model's variables.
    fn result(&self, outcome: TableauOutcome) -> LpResult {
        match outcome {
            TableauOutcome::Infeasible => LpResult::empty(LpStatus::Infeasible),
            TableauOutcome::Unbounded => LpResult::empty(LpStatus::Unbounded),
            TableauOutcome::Optimal { col_values, cost } => {
                let values = self
                    .maps
                    .iter()
                    .map(|map| match *map {
                        VarMap::Shifted { col, lb } => lb + col_values[col],
                        VarMap::Mirrored { col, ub } => ub - col_values[col],
                        VarMap::Split { pos, neg } => col_values[pos] - col_values[neg],
                        VarMap::Fixed { value } => value,
                    })
                    .collect();
                LpResult {
                    status: LpStatus::Optimal,
                    values,
                    objective: self.sign * cost + self.obj_const,
                }
            }
        }
    }
}

impl LpResult {
    fn empty(status: LpStatus) -> Self {
        Self {
            status,
            values: Vec::new(),
            objective: 0.0,
        }
    }
}

/// Solves the LP relaxation of `model` (integrality dropped, bounds kept).
///
/// # Errors
///
/// Returns [`SolveError::IterationLimit`] if the simplex cycles past its
/// safety limit (should not happen with Bland's rule, but guards against
/// numerical pathologies).
pub fn solve_lp(model: &Model) -> Result<LpResult, SolveError> {
    Ok(WarmLp::solve(model)?.0)
}

/// An LP relaxation kept at a dual-feasible basis across model edits.
///
/// [`WarmLp::solve`] is a cold solve, pivot for pivot the one
/// [`solve_lp`] runs, that keeps the final tableau when it ends optimal.
/// Appended rows ([`add_row`](WarmLp::add_row)) and tightened upper
/// bounds ([`set_bounds`](WarmLp::set_bounds)) leave that basis dual
/// feasible, so [`reoptimize`](WarmLp::reoptimize) restores optimality
/// with dual simplex pivots instead of a fresh phase 1.
#[derive(Debug, Clone)]
pub struct WarmLp {
    form: StdForm,
    tableau: Tableau,
}

impl WarmLp {
    /// Solves `model`'s LP relaxation from a slack basis and returns the
    /// result with the tableau, which is kept only at an optimum.
    ///
    /// # Errors
    ///
    /// As [`solve_lp`].
    pub fn solve(model: &Model) -> Result<(LpResult, Option<Self>), SolveError> {
        let Some((form, rows)) = StdForm::build(model)? else {
            return Ok((LpResult::empty(LpStatus::Infeasible), None));
        };
        let mut tableau = Tableau::new(form.ncols, &rows, &form.obj)?;
        let outcome = tableau.optimize()?;
        hi_trace::counter(hi_trace::wellknown::MILP_PIVOTS, tableau.pivots);
        let optimal = matches!(outcome, TableauOutcome::Optimal { .. });
        let result = form.result(outcome);
        Ok((result, optimal.then_some(Self { form, tableau })))
    }

    /// Appends the constraint `expr (sense) rhs` to the tableau, expressed
    /// in the current basis with its slack basic (an equality becomes a
    /// `<=` and a `>=` row). Every variable in `expr` must exist in the
    /// model the tableau was built from.
    pub fn add_row(&mut self, expr: &LinExpr, sense: Sense, rhs: f64) {
        let (coeffs, rhs) = self.form.map_expr(expr, rhs);
        if sense != Sense::Ge {
            self.tableau.append_le(&coeffs, rhs);
        }
        if sense != Sense::Le {
            let negated: Vec<f64> = coeffs.iter().map(|c| -c).collect();
            self.tableau.append_le(&negated, -rhs);
        }
    }

    /// Moves `var`'s bounds to `[lb, ub]` (no NaN, not
    /// crossed). Returns false, leaving the tableau untouched, if it
    /// cannot absorb the edit: only a new finite upper bound on a variable
    /// that kept its finite lower bound and its upper-bound row can be
    /// applied in place (as a right-hand-side edit of that row).
    /// Unchanged bounds are always absorbed.
    pub fn set_bounds(&mut self, var: VarId, lb: f64, ub: f64) -> bool {
        let (old_lb, old_ub) = self.form.bounds[var.0];
        if lb == old_lb && ub == old_ub {
            return true;
        }
        let (VarMap::Shifted { .. }, Some(row)) = (self.form.maps[var.0], self.form.ub_rows[var.0])
        else {
            return false;
        };
        if lb != old_lb || !ub.is_finite() {
            return false;
        }
        self.tableau.shift_rhs(row, ub - old_ub);
        self.form.bounds[var.0].1 = ub;
        true
    }

    /// Restores optimality after edits: dual simplex from the kept basis.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::IterationLimit`] past the pivot cap; the
    /// tableau is then unusable and should be dropped.
    pub fn reoptimize(&mut self) -> Result<LpResult, SolveError> {
        let before = self.tableau.pivots;
        let outcome = self.tableau.dual_optimize();
        hi_trace::counter(
            hi_trace::wellknown::MILP_PIVOTS,
            self.tableau.pivots - before,
        );
        Ok(self.form.result(outcome?))
    }
}

enum TableauOutcome {
    Optimal { col_values: Vec<f64>, cost: f64 },
    Infeasible,
    Unbounded,
}

/// Dense simplex tableau with explicit basis bookkeeping.
#[derive(Debug, Clone)]
struct Tableau {
    /// `rows x (total_cols + 1)`; last column is the rhs.
    t: Vec<Vec<f64>>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Number of structural columns (standard-form variables).
    nstruct: usize,
    /// Total columns excluding rhs (struct + slack/surplus + artificial).
    ncols: usize,
    /// Column indices of artificial variables.
    artificials: Vec<usize>,
    /// Phase-2 cost of every column (artificials get 0; they are banned).
    costs: Vec<f64>,
    /// Pivot operations performed (both phases + artificial purge);
    /// flushed to the `milp.pivots` metric once per `solve_lp`.
    pivots: u64,
    /// Slack/surplus column of each input row (`None` for equalities).
    slacks: Vec<Option<usize>>,
}

impl Tableau {
    fn new(nstruct: usize, rows: &[StdRow], obj: &[f64]) -> Result<Self, SolveError> {
        let m = rows.len();
        // Count augmentation columns.
        let mut nslack = 0;
        let mut nart = 0;
        for r in rows {
            // Flip rows with negative rhs so b >= 0.
            let (sense, rhs) = normalized(r);
            match sense {
                Sense::Le => nslack += 1,
                Sense::Ge => {
                    nslack += 1;
                    if rhs > TOL {
                        nart += 1;
                    }
                }
                Sense::Eq => nart += 1,
            }
        }
        let ncols = nstruct + nslack + nart;
        let mut t = vec![vec![0.0; ncols + 1]; m];
        let mut basis = vec![usize::MAX; m];
        let mut artificials = Vec::with_capacity(nart);
        let mut slacks = Vec::with_capacity(m);

        let mut next_slack = nstruct;
        let mut next_art = nstruct + nslack;
        for (i, r) in rows.iter().enumerate() {
            let flip = r.rhs < -TOL;
            let s = if flip { -1.0 } else { 1.0 };
            for (j, &c) in r.coeffs.iter().enumerate() {
                t[i][j] = s * c;
            }
            t[i][ncols] = s * r.rhs;
            let sense = flipped_sense(r.sense, flip);
            slacks.push((sense != Sense::Eq).then_some(next_slack));
            match sense {
                Sense::Le => {
                    t[i][next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Sense::Ge => {
                    t[i][next_slack] = -1.0;
                    next_slack += 1;
                    if t[i][ncols] > TOL {
                        t[i][next_art] = 1.0;
                        basis[i] = next_art;
                        artificials.push(next_art);
                        next_art += 1;
                    } else {
                        // rhs == 0: the surplus column itself can be basic
                        // (value 0) by negating the row.
                        for v in t[i].iter_mut() {
                            *v = -*v;
                        }
                        basis[i] = next_slack - 1;
                    }
                }
                Sense::Eq => {
                    t[i][next_art] = 1.0;
                    basis[i] = next_art;
                    artificials.push(next_art);
                    next_art += 1;
                }
            }
        }
        let mut costs = vec![0.0; ncols];
        costs[..nstruct].copy_from_slice(obj);
        Ok(Self {
            t,
            basis,
            nstruct,
            ncols,
            artificials,
            costs,
            pivots: 0,
            slacks,
        })
    }

    fn optimize(&mut self) -> Result<TableauOutcome, SolveError> {
        // ---- Phase 1 ----
        if !self.artificials.is_empty() {
            let mut phase1 = vec![0.0; self.ncols];
            for &a in &self.artificials {
                phase1[a] = 1.0;
            }
            match self.run(&phase1, true)? {
                RunOutcome::Optimal(cost) => {
                    if cost > 1e-6 {
                        return Ok(TableauOutcome::Infeasible);
                    }
                }
                RunOutcome::Unbounded => {
                    // Phase-1 objective is bounded below by zero; cannot happen.
                    return Err(SolveError::IterationLimit);
                }
            }
            self.purge_artificials();
        }

        self.phase2()
    }

    /// Phase 2: optimizes the true costs from the current feasible basis.
    fn phase2(&mut self) -> Result<TableauOutcome, SolveError> {
        let costs = self.costs.clone();
        match self.run(&costs, false)? {
            RunOutcome::Optimal(cost) => {
                let mut col_values = vec![0.0; self.ncols];
                for (i, &b) in self.basis.iter().enumerate() {
                    col_values[b] = self.t[i][self.ncols];
                }
                col_values.truncate(self.nstruct);
                Ok(TableauOutcome::Optimal { col_values, cost })
            }
            RunOutcome::Unbounded => Ok(TableauOutcome::Unbounded),
        }
    }

    /// Dual simplex from a dual-feasible basis (no negative reduced cost,
    /// as an optimal basis leaves it after rows are appended or
    /// right-hand sides move): pivots rows with a negative right-hand
    /// side out until the basis is primal feasible, then lets phase 2
    /// settle any round-off left in the reduced costs.
    ///
    /// Leaving row: the most negative right-hand side (first row on
    /// ties); entering column: the smallest ratio of reduced cost to the
    /// row's negative entry (smallest index on ties). After the same
    /// stall budget as [`run`](Tableau::run) it switches to Bland's rule
    /// (the leaving row with the smallest basic column), which
    /// terminates on degenerate instances.
    fn dual_optimize(&mut self) -> Result<TableauOutcome, SolveError> {
        let is_art = self.artificial_mask();
        let rhs = self.ncols;
        let max_iters = 50_000 + 200 * (self.ncols + self.t.len());
        let bland_after = 200 + 5 * (self.ncols + self.t.len());
        for iter in 0..max_iters {
            let infeasible = (0..self.t.len()).filter(|&i| self.t[i][rhs] < -1e-9);
            let leaving = if iter < bland_after {
                infeasible.min_by(|&a, &b| self.t[a][rhs].total_cmp(&self.t[b][rhs]))
            } else {
                infeasible.min_by_key(|&i| self.basis[i])
            };
            let Some(row) = leaving else {
                return self.phase2();
            };
            let reduced = self.reduced_costs(&self.costs);
            let mut entering: Option<(usize, f64)> = None;
            for (j, (&a, &d)) in self.t[row][..rhs].iter().zip(&reduced).enumerate() {
                if a < -1e-9 && !is_art[j] {
                    let ratio = d.max(0.0) / -a;
                    if entering.is_none_or(|(_, best)| ratio < best - 1e-12) {
                        entering = Some((j, ratio));
                    }
                }
            }
            let Some((col, _)) = entering else {
                // The row reads `basic = negative + non-negative terms`:
                // no feasible point exists.
                return Ok(TableauOutcome::Infeasible);
            };
            self.pivot(row, col);
        }
        Err(SolveError::IterationLimit)
    }

    /// Appends the row `coeffs · x + s = rhs` with a fresh slack `s`
    /// (`coeffs` over the structural columns), reduced against the current
    /// basis so `s` is its basic column.
    fn append_le(&mut self, coeffs: &[f64], rhs: f64) {
        let slack = self.ncols;
        for r in &mut self.t {
            // Grow rows by a few columns at a time, not by doubling: a
            // ladder appends one column per cut to a kept tableau.
            if r.len() == r.capacity() {
                r.reserve_exact(APPEND_COLUMNS);
            }
            r.insert(slack, 0.0);
        }
        self.ncols += 1;
        self.costs.push(0.0);
        let mut row = vec![0.0; self.ncols + 1];
        row[..coeffs.len()].copy_from_slice(coeffs);
        row[slack] = 1.0;
        row[self.ncols] = rhs;
        for (r, &b) in self.t.iter().zip(&self.basis) {
            let factor = row[b];
            if factor != 0.0 {
                for (v, &p) in row.iter_mut().zip(r) {
                    *v -= factor * p;
                }
                row[b] = 0.0; // kill round-off exactly
            }
        }
        self.t.push(row);
        self.basis.push(slack);
        self.slacks.push(Some(slack));
    }

    /// Adds `delta` to the right-hand side of input row `row`, an
    /// unflipped `<=` row: its slack column holds `B^-1 e_row`, so the
    /// basic values move by `delta` times that column.
    fn shift_rhs(&mut self, row: usize, delta: f64) {
        let slack = self.slacks[row].expect("only inequality rows shift");
        let rhs = self.ncols;
        for r in &mut self.t {
            r[rhs] += delta * r[slack];
        }
    }

    /// Marks the artificial columns.
    fn artificial_mask(&self) -> Vec<bool> {
        let mut f = vec![false; self.ncols];
        for &a in &self.artificials {
            f[a] = true;
        }
        f
    }

    /// Pivot artificial variables out of the basis (or drop redundant rows)
    /// and ban them from ever entering again.
    fn purge_artificials(&mut self) {
        let is_art = self.artificial_mask();
        let mut row = 0;
        while row < self.t.len() {
            if is_art[self.basis[row]] {
                // Find a non-artificial column with a nonzero coefficient.
                let pivot_col =
                    (0..self.ncols).find(|&j| !is_art[j] && self.t[row][j].abs() > 1e-9);
                match pivot_col {
                    Some(j) => {
                        self.pivot(row, j);
                        row += 1;
                    }
                    None => {
                        // Redundant row: every real coefficient is zero.
                        self.t.remove(row);
                        self.basis.remove(row);
                    }
                }
            } else {
                row += 1;
            }
        }
        // Zero artificial columns so they can never be selected again.
        for r in &mut self.t {
            for &a in &self.artificials {
                r[a] = 0.0;
            }
        }
    }

    /// Runs Bland-rule simplex iterations for the given cost vector.
    ///
    /// In phase 1 (`allow_artificials`), artificial columns may participate;
    /// in phase 2 they have been purged/zeroed.
    fn run(&mut self, costs: &[f64], allow_artificials: bool) -> Result<RunOutcome, SolveError> {
        let is_art = self.artificial_mask();
        let max_iters = 50_000 + 200 * (self.ncols + self.t.len());
        // Dantzig pricing converges fast; swap to Bland's rule after a
        // stall budget to guarantee termination on degenerate instances.
        let bland_after = 200 + 5 * (self.ncols + self.t.len());
        for iter in 0..max_iters {
            let reduced = self.reduced_costs(costs);
            let entering = if iter < bland_after {
                // Dantzig: most negative reduced cost (index tie-break).
                let mut best: Option<(usize, f64)> = None;
                for j in 0..self.ncols {
                    if reduced[j] < -1e-9
                        && (allow_artificials || !is_art[j])
                        && best.is_none_or(|(_, r)| reduced[j] < r)
                    {
                        best = Some((j, reduced[j]));
                    }
                }
                best.map(|(j, _)| j)
            } else {
                // Bland: smallest index with negative reduced cost.
                (0..self.ncols).find(|&j| reduced[j] < -1e-9 && (allow_artificials || !is_art[j]))
            };
            let Some(col) = entering else {
                let cost = self
                    .basis
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| costs[b] * self.t[i][self.ncols])
                    .sum();
                return Ok(RunOutcome::Optimal(cost));
            };
            // Ratio test; Bland tie-break on smallest basis index.
            let mut best: Option<(f64, usize, usize)> = None; // (ratio, basisvar, row)
            for (i, r) in self.t.iter().enumerate() {
                if r[col] > 1e-9 {
                    let ratio = r[self.ncols] / r[col];
                    let candidate = (ratio, self.basis[i], i);
                    best = Some(match best {
                        None => candidate,
                        Some(b) => {
                            if ratio < b.0 - 1e-12
                                || ((ratio - b.0).abs() <= 1e-12 && self.basis[i] < b.1)
                            {
                                candidate
                            } else {
                                b
                            }
                        }
                    });
                }
            }
            let Some((_, _, row)) = best else {
                return Ok(RunOutcome::Unbounded);
            };
            self.pivot(row, col);
        }
        Err(SolveError::IterationLimit)
    }

    /// `reduced[j] = c_j - c_B * B^-1 A_j` computed directly from the tableau.
    fn reduced_costs(&self, costs: &[f64]) -> Vec<f64> {
        let mut reduced = costs.to_vec();
        for (i, &b) in self.basis.iter().enumerate() {
            let cb = costs[b];
            if cb != 0.0 {
                for (r, &tij) in reduced.iter_mut().zip(&self.t[i][..self.ncols]) {
                    *r -= cb * tij;
                }
            }
        }
        reduced
    }

    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let piv = self.t[row][col];
        debug_assert!(piv.abs() > 1e-12, "pivot on (near-)zero element");
        let inv = 1.0 / piv;
        for v in self.t[row].iter_mut() {
            *v *= inv;
        }
        let pivot_row = self.t[row].clone();
        for (i, r) in self.t.iter_mut().enumerate() {
            if i != row && r[col].abs() > 0.0 {
                let factor = r[col];
                for (v, &p) in r.iter_mut().zip(&pivot_row) {
                    *v -= factor * p;
                }
                r[col] = 0.0; // kill round-off exactly
            }
        }
        self.basis[row] = col;
        #[cfg(debug_assertions)]
        self.check_pivot_invariants(row, col);
    }

    /// Debug-mode dynamic invariant: after a pivot the entering column must
    /// be a unit vector with its 1 in the pivot row, and the basis
    /// bookkeeping must point at it. O(m), so it keeps debug solves usable
    /// even on Algorithm-1 cut ladders with hundreds of rows.
    #[cfg(debug_assertions)]
    fn check_pivot_invariants(&self, row: usize, col: usize) {
        debug_assert_eq!(self.basis[row], col, "basis entry not updated by pivot");
        for (i, r) in self.t.iter().enumerate() {
            let expect = if i == row { 1.0 } else { 0.0 };
            debug_assert!(
                (r[col] - expect).abs() <= 1e-6,
                "entering column {col} is not a unit vector: t[{i}][{col}] = {}",
                r[col]
            );
        }
    }
}

enum RunOutcome {
    Optimal(f64),
    Unbounded,
}

fn normalized(r: &StdRow) -> (Sense, f64) {
    if r.rhs < -TOL {
        (flipped_sense(r.sense, true), -r.rhs)
    } else {
        (r.sense, r.rhs)
    }
}

fn flipped_sense(s: Sense, flip: bool) -> Sense {
    if !flip {
        return s;
    }
    match s {
        Sense::Le => Sense::Ge,
        Sense::Ge => Sense::Le,
        Sense::Eq => Sense::Eq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, Model, VarType};

    fn near(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => 36 at (2, 6)
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint(x * 1.0, Sense::Le, 4.0);
        m.add_constraint(y * 2.0, Sense::Le, 12.0);
        m.add_constraint(x * 3.0 + y * 2.0, Sense::Le, 18.0);
        m.maximize(x * 3.0 + y * 5.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(near(r.objective, 36.0));
        assert!(near(r.values[0], 2.0));
        assert!(near(r.values[1], 6.0));
    }

    #[test]
    fn minimization_with_ge() {
        // min 2x + 3y  s.t. x + y >= 10, x >= 2, y >= 3  => x=7, y=3, obj 23
        let mut m = Model::new();
        let x = m.add_continuous("x", 2.0, f64::INFINITY);
        let y = m.add_continuous("y", 3.0, f64::INFINITY);
        m.add_constraint(x + y, Sense::Ge, 10.0);
        m.minimize(x * 2.0 + y * 3.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(near(r.objective, 23.0));
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y == 6, x - y == 0 => x = y = 2, obj 4
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint(x + y * 2.0, Sense::Eq, 6.0);
        m.add_constraint(x - y, Sense::Eq, 0.0);
        m.minimize(x + y);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(near(r.values[0], 2.0));
        assert!(near(r.values[1], 2.0));
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint(x * 1.0, Sense::Ge, 2.0);
        m.minimize(x * 1.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.maximize(x * 1.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Unbounded);
    }

    #[test]
    fn free_variable_split() {
        // min x  s.t. x >= -5  with free x declared via infinite bounds
        let mut m = Model::new();
        let x = m.add_continuous("x", f64::NEG_INFINITY, f64::INFINITY);
        m.add_constraint(x * 1.0, Sense::Ge, -5.0);
        m.minimize(x * 1.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(near(r.values[0], -5.0));
    }

    #[test]
    fn mirrored_upper_bound_only() {
        // max x  with x <= 7 and no lower bound
        let mut m = Model::new();
        let x = m.add_continuous("x", f64::NEG_INFINITY, 7.0);
        m.maximize(x * 1.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(near(r.values[0], 7.0));
    }

    #[test]
    fn fixed_variable_substitution() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 3.0, 3.0);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint(x + y, Sense::Le, 10.0);
        m.maximize(y * 1.0 + x * 1.0);
        let r = solve_lp(&m).unwrap();
        assert!(near(r.values[0], 3.0));
        assert!(near(r.values[1], 7.0));
        assert!(near(r.objective, 10.0));
    }

    #[test]
    fn negative_rhs_rows_normalize() {
        // x + y >= -1 is vacuous for x,y >= 0; min x + y = 0.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint(x + y, Sense::Ge, -1.0);
        m.minimize(x + y);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(near(r.objective, 0.0));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-ish degenerate corner; Bland's rule must terminate.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        let z = m.add_continuous("z", 0.0, f64::INFINITY);
        m.add_constraint(x * 0.5 - y * 5.5 - z * 2.5, Sense::Le, 0.0);
        m.add_constraint(x * 0.5 - y * 1.5 - z * 0.5, Sense::Le, 0.0);
        m.add_constraint(x * 1.0, Sense::Le, 1.0);
        m.maximize(x * 10.0 - y * 57.0 - z * 9.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
    }

    #[test]
    fn objective_constant_preserved() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 5.0);
        m.minimize(x * 2.0 + 100.0);
        let r = solve_lp(&m).unwrap();
        assert!(near(r.objective, 100.0));
    }

    #[test]
    fn bounded_range_variable() {
        let mut m = Model::new();
        let x = m.add_continuous("x", -2.0, 3.0);
        m.minimize(x * 1.0);
        let r = solve_lp(&m).unwrap();
        assert!(near(r.values[0], -2.0));
        m.maximize(x * 1.0);
        let r = solve_lp(&m).unwrap();
        assert!(near(r.values[0], 3.0));
    }

    #[test]
    fn zero_objective_feasibility_probe() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint(x * 1.0, Sense::Ge, 0.5);
        m.minimize(LinExpr::constant_expr(0.0));
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
    }

    #[test]
    fn ge_with_zero_rhs() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint(x - y, Sense::Ge, 0.0);
        m.add_constraint(x + y, Sense::Le, 4.0);
        m.maximize(y * 1.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(near(r.objective, 2.0));
    }

    #[test]
    fn binary_relaxation_is_continuous() {
        let mut m = Model::new();
        let x = m.add_var("x", VarType::Binary, 0.0, 1.0);
        m.maximize(x * 1.5);
        let r = solve_lp(&m).unwrap();
        assert!(near(r.values[0], 1.0));
        assert!(near(r.objective, 1.5));
    }
}
