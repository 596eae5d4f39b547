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
//! Problem sizes in this workspace are small (at most a few hundred
//! rows and columns), so the tableau is a dense `Vec<Vec<f64>>`. Its rows
//! are sparse, though, so the pivot, the reduction of an appended row and
//! the right-hand-side shift do work only where the row they read is
//! nonzero. A skipped term is `v -= f * 0.0`, which can change only the
//! sign of a zero, and no comparison in the solver tells `+0.0` from
//! `-0.0`: pivots and results are those of the dense update.
//!
//! Pricing is kept on the same terms. Each run of the primal or dual
//! simplex computes the reduced costs in full once; after a pivot only
//! the columns where the pivot row is nonzero are recomputed, by the
//! same expression. Any other column's sum gains or loses only a
//! `c * 0.0` term, from the pivot row joining or leaving the rows whose
//! basic column has a cost.

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
    /// End of the row's coefficients in [`StdRows::terms`].
    end: usize,
    sense: Sense,
    rhs: f64,
}

/// The standard-form rows, stored sparse: row `i`'s `(column,
/// coefficient)` pairs follow row `i - 1`'s in `terms`, in ascending
/// column order. A column a row does not list has coefficient `+0.0`.
#[derive(Debug, Default)]
struct StdRows {
    terms: Vec<(usize, f64)>,
    rows: Vec<StdRow>,
}

impl StdRows {
    /// Closes the row whose coefficients were just pushed onto `terms`.
    fn push(&mut self, sense: Sense, rhs: f64) {
        self.rows.push(StdRow {
            end: self.terms.len(),
            sense,
            rhs,
        });
    }

    /// The coefficients of row `i`.
    fn terms(&self, i: usize) -> &[(usize, f64)] {
        let start = if i == 0 { 0 } else { self.rows[i - 1].end };
        &self.terms[start..self.rows[i].end]
    }
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
    fn build(model: &Model) -> Result<Option<(Self, StdRows)>, SolveError> {
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
        let mut rows = StdRows::default();
        rows.rows.reserve(model.constraints.len());
        for con in &model.constraints {
            let rhs = form.map_terms(&con.expr, con.rhs, &mut rows.terms);
            rows.push(con.sense, rhs);
        }
        // Upper-bound rows for shifted variables with a finite upper bound.
        for (i, v) in model.vars.iter().enumerate() {
            if let VarMap::Shifted { col, lb } = form.maps[i] {
                if v.ub.is_finite() {
                    form.ub_rows[i] = Some(rows.rows.len());
                    rows.terms.push((col, 1.0));
                    rows.push(Sense::Le, v.ub - lb);
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

    /// `expr (sense) rhs` over the standard-form columns: pushes the
    /// column coefficients onto `terms` (ascending columns, each once)
    /// and returns the right-hand side net of shifted-out constants.
    ///
    /// A coefficient is written `0.0 + c` or `0.0 - c`, exactly what
    /// accumulating `expr`'s terms into a zeroed dense row gives (it
    /// differs from `c` or `-c` only on signed zeros): `expr` holds each
    /// variable once, and variables map to distinct columns.
    fn map_terms(&self, expr: &LinExpr, rhs: f64, terms: &mut Vec<(usize, f64)>) -> f64 {
        let mut rhs = rhs;
        for (v, c) in expr.iter() {
            match self.maps[v.0] {
                VarMap::Shifted { col, lb } => {
                    terms.push((col, 0.0 + c));
                    rhs -= c * lb;
                }
                VarMap::Mirrored { col, ub } => {
                    terms.push((col, 0.0 - c));
                    rhs -= c * ub;
                }
                VarMap::Split { pos, neg } => {
                    terms.push((pos, 0.0 + c));
                    terms.push((neg, 0.0 - c));
                }
                VarMap::Fixed { value } => {
                    rhs -= c * value;
                }
            }
        }
        rhs
    }

    /// [`map_terms`](StdForm::map_terms) as a dense row over the
    /// standard-form columns.
    fn map_expr(&self, expr: &LinExpr, rhs: f64) -> (Vec<f64>, f64) {
        let mut terms = Vec::new();
        let rhs = self.map_terms(expr, rhs, &mut terms);
        let mut coeffs = vec![0.0; self.ncols];
        for (col, c) in terms {
            coeffs[col] = c;
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
    solve_lp_reusing(model, &mut Vec::new())
}

/// [`solve_lp`], building the tableau in the row buffers of `spare`
/// and handing them back afterwards, so a search that solves many
/// relaxations of one model allocates its tableau once.
///
/// # Errors
///
/// As [`solve_lp`].
pub(crate) fn solve_lp_reusing(
    model: &Model,
    spare: &mut Vec<Vec<f64>>,
) -> Result<LpResult, SolveError> {
    let Some((form, mut tableau, outcome)) = cold_solve(model, spare)? else {
        return Ok(LpResult::empty(LpStatus::Infeasible));
    };
    spare.append(&mut tableau.t);
    Ok(form.result(outcome))
}

/// Builds `model`'s standard form and tableau (rows from `spare`) and
/// optimizes it from a slack basis; `None` if some variable's bounds are
/// crossed.
fn cold_solve(
    model: &Model,
    spare: &mut Vec<Vec<f64>>,
) -> Result<Option<(StdForm, Tableau, TableauOutcome)>, SolveError> {
    let Some((form, rows)) = StdForm::build(model)? else {
        return Ok(None);
    };
    let mut tableau = Tableau::new(form.ncols, &rows, &form.obj, spare)?;
    let outcome = tableau.optimize()?;
    hi_trace::counter(hi_trace::wellknown::MILP_PIVOTS, tableau.pivots);
    Ok(Some((form, tableau, outcome)))
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
        let Some((form, tableau, outcome)) = cold_solve(model, &mut Vec::new())? else {
            return Ok((LpResult::empty(LpStatus::Infeasible), None));
        };
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
    /// Per column, whether it is artificial.
    is_art: Vec<bool>,
    /// Phase-2 cost of every column (artificials get 0; they are banned).
    costs: Vec<f64>,
    /// Pivot operations performed (both phases + artificial purge);
    /// flushed to the `milp.pivots` metric once per `solve_lp`.
    pivots: u64,
    /// Slack/surplus column of each input row (`None` for equalities).
    slacks: Vec<Option<usize>>,
    /// Reduced costs under the running phase's costs, kept across pivots.
    pricing: Pricing,
    /// The pivot row's nonzero `(column, value)` entries after scaling,
    /// rhs included, reused across pivots.
    nonzeros: Vec<(usize, f64)>,
}

impl Tableau {
    /// Builds the initial tableau of `rows` in the row buffers of
    /// `spare` (fresh ones when it runs out).
    fn new(
        nstruct: usize,
        rows: &StdRows,
        obj: &[f64],
        spare: &mut Vec<Vec<f64>>,
    ) -> Result<Self, SolveError> {
        let m = rows.rows.len();
        // Count augmentation columns.
        let mut nslack = 0;
        let mut nart = 0;
        for r in &rows.rows {
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
        let mut t = Vec::with_capacity(m);
        let mut basis = vec![usize::MAX; m];
        let mut artificials = Vec::with_capacity(nart);
        let mut slacks = Vec::with_capacity(m);

        let mut next_slack = nstruct;
        let mut next_art = nstruct + nslack;
        for (i, r) in rows.rows.iter().enumerate() {
            let flip = r.rhs < -TOL;
            let s = if flip { -1.0 } else { 1.0 };
            // The structural part is the row scaled by `s`, zeros included
            // (so a flipped row's zeros are `-0.0`); the rest starts `+0.0`.
            let mut row = spare.pop().unwrap_or_else(|| Vec::with_capacity(ncols + 1));
            row.clear();
            row.resize(nstruct, s * 0.0);
            row.resize(ncols + 1, 0.0);
            for &(j, c) in rows.terms(i) {
                row[j] = s * c;
            }
            row[ncols] = s * r.rhs;
            let sense = flipped_sense(r.sense, flip);
            slacks.push((sense != Sense::Eq).then_some(next_slack));
            match sense {
                Sense::Le => {
                    row[next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Sense::Ge => {
                    row[next_slack] = -1.0;
                    next_slack += 1;
                    if row[ncols] > TOL {
                        row[next_art] = 1.0;
                        basis[i] = next_art;
                        artificials.push(next_art);
                        next_art += 1;
                    } else {
                        // rhs == 0: the surplus column itself can be basic
                        // (value 0) by negating the row.
                        for v in row.iter_mut() {
                            *v = -*v;
                        }
                        basis[i] = next_slack - 1;
                    }
                }
                Sense::Eq => {
                    row[next_art] = 1.0;
                    basis[i] = next_art;
                    artificials.push(next_art);
                    next_art += 1;
                }
            }
            t.push(row);
        }
        let mut costs = vec![0.0; ncols];
        costs[..nstruct].copy_from_slice(obj);
        let mut is_art = vec![false; ncols];
        for &a in &artificials {
            is_art[a] = true;
        }
        Ok(Self {
            t,
            basis,
            nstruct,
            ncols,
            artificials,
            is_art,
            costs,
            pivots: 0,
            slacks,
            pricing: Pricing::default(),
            nonzeros: Vec::new(),
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
        // Lent to `run` for the duration, not copied.
        let costs = std::mem::take(&mut self.costs);
        let outcome = self.run(&costs, false);
        self.costs = costs;
        match outcome? {
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
        let rhs = self.ncols;
        let max_iters = 50_000 + 200 * (self.ncols + self.t.len());
        let bland_after = 200 + 5 * (self.ncols + self.t.len());
        self.pricing.price(&self.t, &self.basis, &self.costs);
        for iter in 0..max_iters {
            #[cfg(any(test, debug_assertions))]
            self.check_pricing(&self.costs);
            let infeasible = (0..self.t.len()).filter(|&i| self.t[i][rhs] < -1e-9);
            let leaving = if iter < bland_after {
                infeasible.min_by(|&a, &b| self.t[a][rhs].total_cmp(&self.t[b][rhs]))
            } else {
                infeasible.min_by_key(|&i| self.basis[i])
            };
            let Some(row) = leaving else {
                return self.phase2();
            };
            let mut entering: Option<(usize, f64)> = None;
            for (j, (&a, &d)) in self.t[row][..rhs]
                .iter()
                .zip(&self.pricing.reduced)
                .enumerate()
            {
                if a < -1e-9 && !self.is_art[j] {
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
            self.pricing
                .repriced(&self.t, &self.basis, &self.costs, row, &self.nonzeros);
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
        self.is_art.push(false);
        let mut row = vec![0.0; self.ncols + 1];
        row[..coeffs.len()].copy_from_slice(coeffs);
        row[slack] = 1.0;
        row[self.ncols] = rhs;
        for (r, &b) in self.t.iter().zip(&self.basis) {
            let factor = row[b];
            if factor != 0.0 {
                for (v, &p) in row.iter_mut().zip(r) {
                    if p != 0.0 {
                        *v -= factor * p;
                    }
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
            if r[slack] != 0.0 {
                r[rhs] += delta * r[slack];
            }
        }
    }

    /// Pivot artificial variables out of the basis (or drop redundant rows)
    /// and ban them from ever entering again.
    fn purge_artificials(&mut self) {
        let mut row = 0;
        while row < self.t.len() {
            if self.is_art[self.basis[row]] {
                // Find a non-artificial column with a nonzero coefficient.
                let pivot_col =
                    (0..self.ncols).find(|&j| !self.is_art[j] && self.t[row][j].abs() > 1e-9);
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
        let max_iters = 50_000 + 200 * (self.ncols + self.t.len());
        // Dantzig pricing converges fast; swap to Bland's rule after a
        // stall budget to guarantee termination on degenerate instances.
        let bland_after = 200 + 5 * (self.ncols + self.t.len());
        self.pricing.price(&self.t, &self.basis, costs);
        for iter in 0..max_iters {
            #[cfg(any(test, debug_assertions))]
            self.check_pricing(costs);
            let reduced = &self.pricing.reduced;
            let is_art = &self.is_art;
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
            self.pricing
                .repriced(&self.t, &self.basis, costs, row, &self.nonzeros);
        }
        Err(SolveError::IterationLimit)
    }

    /// Pivots on `(row, col)`: scales the pivot row so the entry reads 1,
    /// then eliminates `col` from every other row, at the pivot row's
    /// nonzeros only.
    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let mut pivot_row = std::mem::take(&mut self.t[row]);
        let piv = pivot_row[col];
        debug_assert!(piv.abs() > 1e-12, "pivot on (near-)zero element");
        let inv = 1.0 / piv;
        self.nonzeros.clear();
        for (j, v) in pivot_row.iter_mut().enumerate() {
            if *v != 0.0 {
                *v *= inv;
                self.nonzeros.push((j, *v));
            }
        }
        for (i, r) in self.t.iter_mut().enumerate() {
            if i != row && r[col].abs() > 0.0 {
                // Indexing a slice, not the `Vec`, keeps its pointer and
                // length out of memory across the stores below.
                let r = r.as_mut_slice();
                let factor = r[col];
                for &(j, p) in &self.nonzeros {
                    r[j] -= factor * p;
                }
                r[col] = 0.0; // kill round-off exactly
            }
        }
        self.t[row] = pivot_row;
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

    /// Invariant of the kept pricing, checked at every iteration of the
    /// primal and dual loops (after their full pass, then after every
    /// pivot): the reduced costs equal a full pass's under `costs` (`==`,
    /// so a zero's sign may differ) and the costed rows are exactly the
    /// rows whose basic column has a nonzero cost, ascending. It costs a
    /// full pass per iteration, as pricing did before the costs were
    /// kept, so it runs only in debug builds and tests.
    #[cfg(any(test, debug_assertions))]
    fn check_pricing(&self, costs: &[f64]) {
        let mut full = Pricing::default();
        full.price(&self.t, &self.basis, costs);
        assert!(
            self.pricing.reduced == full.reduced,
            "kept reduced costs {:?} differ from a full pass {:?}",
            self.pricing.reduced,
            full.reduced
        );
        assert_eq!(self.pricing.costed, full.costed, "costed rows");
    }
}

/// The reduced costs `reduced[j] = c_j - c_B * B^-1 A_j` of a tableau
/// under one cost vector, kept up to date across pivots.
///
/// [`price`](Pricing::price) computes them in full; each run of the
/// primal or dual simplex starts with it, since the costs change between
/// phases and model edits change the tableau. After a pivot,
/// [`repriced`](Pricing::repriced) recomputes only the columns where the
/// pivot row is nonzero, with the same expression: no entry of any other
/// column changed, and its sum differs only by a `c * ±0.0` term from the
/// pivot row joining or leaving the costed rows, which can change only
/// the sign of a zero.
#[derive(Debug, Clone, Default)]
struct Pricing {
    /// `c_j - c_B * B^-1 A_j` per column.
    reduced: Vec<f64>,
    /// The rows whose basic column has a nonzero cost, ascending.
    costed: Vec<usize>,
}

impl Pricing {
    /// Full pass over tableau `t` with basis `basis`: subtracts, from
    /// each column's cost, each costed row's multiple of its entry, rows
    /// in ascending order.
    fn price(&mut self, t: &[Vec<f64>], basis: &[usize], costs: &[f64]) {
        self.costed.clear();
        self.costed
            .extend((0..t.len()).filter(|&i| costs[basis[i]] != 0.0));
        self.reduced.clear();
        self.reduced.extend_from_slice(costs);
        for &i in &self.costed {
            let cb = costs[basis[i]];
            for (d, &tij) in self.reduced.iter_mut().zip(&t[i][..costs.len()]) {
                *d -= cb * tij;
            }
        }
    }

    /// Update after a pivot on `row`, whose scaled nonzero entries are
    /// `nonzeros` (ascending columns, the rhs last): each of those
    /// columns gets exactly the sum [`price`](Pricing::price) would give.
    fn repriced(
        &mut self,
        t: &[Vec<f64>],
        basis: &[usize],
        costs: &[f64],
        row: usize,
        nonzeros: &[(usize, f64)],
    ) {
        match (self.costed.binary_search(&row), costs[basis[row]] != 0.0) {
            (Err(at), true) => self.costed.insert(at, row),
            (Ok(at), false) => {
                self.costed.remove(at);
            }
            _ => {}
        }
        let cols = &nonzeros[..nonzeros.partition_point(|&(j, _)| j < costs.len())];
        for &(j, _) in cols {
            self.reduced[j] = costs[j];
        }
        for &i in &self.costed {
            let (cb, r) = (costs[basis[i]], t[i].as_slice());
            for &(j, _) in cols {
                self.reduced[j] -= cb * r[j];
            }
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
    use hi_des::check::{run_cases, Gen};

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

    /// The dense row operations the kernel replaced, kept as the oracle
    /// its sparse ones must match bit for bit (a zero's sign aside).
    mod dense {
        use super::super::{flipped_sense, StdForm, Tableau, VarMap, APPEND_COLUMNS, TOL};
        use crate::{Model, Sense};

        pub fn pivot(tb: &mut Tableau, row: usize, col: usize) {
            tb.pivots += 1;
            let inv = 1.0 / tb.t[row][col];
            for v in tb.t[row].iter_mut() {
                *v *= inv;
            }
            let pivot_row = tb.t[row].clone();
            for (i, r) in tb.t.iter_mut().enumerate() {
                if i != row && r[col].abs() > 0.0 {
                    let factor = r[col];
                    for (v, &p) in r.iter_mut().zip(&pivot_row) {
                        *v -= factor * p;
                    }
                    r[col] = 0.0;
                }
            }
            tb.basis[row] = col;
        }

        pub fn append_le(tb: &mut Tableau, coeffs: &[f64], rhs: f64) {
            let slack = tb.ncols;
            for r in &mut tb.t {
                if r.len() == r.capacity() {
                    r.reserve_exact(APPEND_COLUMNS);
                }
                r.insert(slack, 0.0);
            }
            tb.ncols += 1;
            tb.costs.push(0.0);
            tb.is_art.push(false);
            let mut row = vec![0.0; tb.ncols + 1];
            row[..coeffs.len()].copy_from_slice(coeffs);
            row[slack] = 1.0;
            row[tb.ncols] = rhs;
            for (r, &b) in tb.t.iter().zip(&tb.basis) {
                let factor = row[b];
                if factor != 0.0 {
                    for (v, &p) in row.iter_mut().zip(r) {
                        *v -= factor * p;
                    }
                    row[b] = 0.0;
                }
            }
            tb.t.push(row);
            tb.basis.push(slack);
            tb.slacks.push(Some(slack));
        }

        pub fn shift_rhs(tb: &mut Tableau, row: usize, delta: f64) {
            let slack = tb.slacks[row].expect("only inequality rows shift");
            let rhs = tb.ncols;
            for r in &mut tb.t {
                r[rhs] += delta * r[slack];
            }
        }

        pub fn reduced_costs(tb: &Tableau, costs: &[f64]) -> Vec<f64> {
            let mut reduced = costs.to_vec();
            for (i, &b) in tb.basis.iter().enumerate() {
                let cb = costs[b];
                if cb != 0.0 {
                    for (r, &tij) in reduced.iter_mut().zip(&tb.t[i][..tb.ncols]) {
                        *r -= cb * tij;
                    }
                }
            }
            reduced
        }

        /// The initial tableau's rows and basis as the dense build made
        /// them: each constraint accumulated into a zeroed row, then
        /// copied, flipped, augmented and (for `>=` rows with a zero
        /// right-hand side) negated.
        pub fn build(form: &StdForm, model: &Model) -> (Vec<Vec<f64>>, Vec<usize>) {
            let mut rows: Vec<(Vec<f64>, Sense, f64)> = Vec::new();
            for con in &model.constraints {
                let mut coeffs = vec![0.0; form.ncols];
                let mut rhs = con.rhs;
                for (v, c) in con.expr.iter() {
                    match form.maps[v.0] {
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
                        VarMap::Fixed { value } => rhs -= c * value,
                    }
                }
                rows.push((coeffs, con.sense, rhs));
            }
            for (i, v) in model.vars.iter().enumerate() {
                if let VarMap::Shifted { col, lb } = form.maps[i] {
                    if v.ub.is_finite() {
                        let mut coeffs = vec![0.0; form.ncols];
                        coeffs[col] = 1.0;
                        rows.push((coeffs, Sense::Le, v.ub - lb));
                    }
                }
            }
            let nstruct = form.ncols;
            let (mut nslack, mut nart) = (0, 0);
            for (_, sense, rhs) in &rows {
                let flip = *rhs < -TOL;
                match flipped_sense(*sense, flip) {
                    Sense::Le => nslack += 1,
                    Sense::Ge => {
                        nslack += 1;
                        if rhs.abs() > TOL {
                            nart += 1;
                        }
                    }
                    Sense::Eq => nart += 1,
                }
            }
            let ncols = nstruct + nslack + nart;
            let mut t = vec![vec![0.0; ncols + 1]; rows.len()];
            let mut basis = vec![usize::MAX; rows.len()];
            let (mut next_slack, mut next_art) = (nstruct, nstruct + nslack);
            for (i, (coeffs, sense, rhs)) in rows.iter().enumerate() {
                let flip = *rhs < -TOL;
                let s = if flip { -1.0 } else { 1.0 };
                for (j, &c) in coeffs.iter().enumerate() {
                    t[i][j] = s * c;
                }
                t[i][ncols] = s * rhs;
                match flipped_sense(*sense, flip) {
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
                            next_art += 1;
                        } else {
                            for v in t[i].iter_mut() {
                                *v = -*v;
                            }
                            basis[i] = next_slack - 1;
                        }
                    }
                    Sense::Eq => {
                        t[i][next_art] = 1.0;
                        basis[i] = next_art;
                        next_art += 1;
                    }
                }
            }
            (t, basis)
        }
    }

    fn round2(x: f64) -> f64 {
        (x * 100.0).round() / 100.0
    }

    /// A random LP in the style of `any_lp` in `tests/proptest_ilp.rs`,
    /// with free, mirrored, fixed and negative-bound variables too, and
    /// every sense of row.
    fn any_lp(g: &mut Gen) -> Model {
        let nvars = g.usize_in(2..8);
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..nvars)
            .map(|i| {
                let (lb, ub) = match g.u64_below(6) {
                    0 => (f64::NEG_INFINITY, f64::INFINITY),
                    1 => (f64::NEG_INFINITY, round2(g.f64_in(-2.0, 4.0))),
                    2 => {
                        let v = round2(g.f64_in(-2.0, 2.0));
                        (v, v)
                    }
                    3 => (0.0, f64::INFINITY),
                    _ => {
                        let lb = -round2(g.f64_in(0.0, 3.0));
                        (lb, lb + round2(g.f64_in(0.5, 6.0)))
                    }
                };
                m.add_continuous(&format!("x{i}"), lb, ub)
            })
            .collect();
        for _ in 0..g.usize_in(1..7) {
            let mut e = LinExpr::new();
            for &v in &vars {
                if g.bool_p(0.5) {
                    e.add_term(v, round2(g.f64_in(-4.0, 4.0)));
                }
            }
            let sense = [Sense::Le, Sense::Ge, Sense::Eq][g.u64_below(3) as usize];
            // One row in four has a zero right-hand side: `>=` rows with
            // one are negated when the tableau is built.
            let rhs = if g.bool_p(0.25) {
                0.0
            } else {
                round2(g.f64_in(-6.0, 6.0))
            };
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
        m
    }

    /// Asserts the two tableaus agree: every entry equal (`==`, so a
    /// zero's sign may differ), same basis and pivot count, and the same
    /// reduced costs from each kernel's routine.
    fn assert_same(sparse: &Tableau, dense: &Tableau, what: &str) {
        assert_eq!(sparse.basis, dense.basis, "{what}: basis");
        assert_eq!(sparse.ncols, dense.ncols, "{what}: columns");
        assert_eq!(sparse.pivots, dense.pivots, "{what}: pivots");
        for (i, (a, b)) in sparse.t.iter().zip(&dense.t).enumerate() {
            assert_eq!(a.len(), b.len(), "{what}: row {i} length");
            for (j, (x, y)) in a.iter().zip(b).enumerate() {
                assert!(x == y, "{what}: t[{i}][{j}] = {x:e}, dense {y:e}");
            }
        }
        let mut pricing = Pricing::default();
        pricing.price(&sparse.t, &sparse.basis, &sparse.costs);
        assert_eq!(
            pricing.reduced,
            dense::reduced_costs(dense, &dense.costs),
            "{what}"
        );
    }

    #[test]
    fn build_matches_the_dense_build_bit_for_bit() {
        run_cases(300, 0x5EED_B11D, |g| {
            let m = any_lp(g);
            let Some((form, rows)) = StdForm::build(&m).unwrap() else {
                return;
            };
            // Dirty spare buffers of assorted lengths must not leak into
            // the build.
            let mut spare: Vec<Vec<f64>> = (0..g.usize_in(0..6))
                .map(|_| vec![f64::NAN; g.usize_in(0..40)])
                .collect();
            let tb = Tableau::new(form.ncols, &rows, &form.obj, &mut spare).unwrap();
            let (t, basis) = dense::build(&form, &m);
            assert_eq!(tb.basis, basis);
            assert_eq!(tb.t.len(), t.len());
            for (i, (a, b)) in tb.t.iter().zip(&t).enumerate() {
                let a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "row {i}");
            }
        });
    }

    /// Random pivots, appended rows and right-hand-side shifts, applied
    /// to two copies of one tableau, one by the kernel and one by the
    /// dense oracle, leave them equal after every operation.
    #[test]
    fn sparse_row_operations_match_the_dense_oracle() {
        run_cases(300, 0xD1FF_0001, |g| {
            let m = any_lp(g);
            let Some((form, rows)) = StdForm::build(&m).unwrap() else {
                return;
            };
            let mut sparse = Tableau::new(form.ncols, &rows, &form.obj, &mut Vec::new()).unwrap();
            let mut dense = sparse.clone();
            for step in 0..g.usize_in(1..16) {
                let what = format!("step {step}");
                match g.u64_below(4) {
                    0 => {
                        let coeffs: Vec<f64> = (0..sparse.nstruct)
                            .map(|_| {
                                if g.bool_p(0.5) {
                                    round2(g.f64_in(-4.0, 4.0))
                                } else {
                                    0.0
                                }
                            })
                            .collect();
                        let rhs = round2(g.f64_in(-6.0, 6.0));
                        sparse.append_le(&coeffs, rhs);
                        dense::append_le(&mut dense, &coeffs, rhs);
                    }
                    1 => {
                        let shiftable: Vec<usize> = (0..sparse.slacks.len())
                            .filter(|&r| sparse.slacks[r].is_some())
                            .collect();
                        if shiftable.is_empty() {
                            continue;
                        }
                        let row = shiftable[g.usize_in(0..shiftable.len())];
                        let delta = round2(g.f64_in(-3.0, 3.0));
                        sparse.shift_rhs(row, delta);
                        dense::shift_rhs(&mut dense, row, delta);
                    }
                    _ => {
                        // A pivot on an entry far enough from zero to keep
                        // the numbers finite.
                        let candidates: Vec<(usize, usize)> = (0..sparse.t.len())
                            .flat_map(|i| (0..sparse.ncols).map(move |j| (i, j)))
                            .filter(|&(i, j)| sparse.t[i][j].abs() >= 0.1)
                            .collect();
                        if candidates.is_empty() {
                            continue;
                        }
                        let (row, col) = candidates[g.usize_in(0..candidates.len())];
                        sparse.pivot(row, col);
                        dense::pivot(&mut dense, row, col);
                    }
                }
                assert_same(&sparse, &dense, &what);
                if sparse.t.iter().flatten().any(|v| v.abs() > 1e12) {
                    return; // grown past what the solver ever sees
                }
            }
        });
    }

    /// Cold solves (phase 1 with artificials, their purge, phase 2) and
    /// warm edits (appended rows and shifted right-hand sides, then the
    /// dual simplex) of random LPs. In test builds the primal and dual
    /// loops run `Tableau::check_pricing` at every iteration, so after
    /// every pivot, which fails if the kept reduced costs differ from a
    /// full pass or the costed rows from their filter; this drives both
    /// loops and counts that they pivoted.
    #[test]
    fn kept_pricing_matches_a_full_pass_after_every_pivot() {
        let (mut cold, mut warm) = (0, 0);
        run_cases(1000, 0x9121_C1E5, |g| {
            let m = any_lp(g);
            let Some((_, mut tb, outcome)) = cold_solve(&m, &mut Vec::new()).unwrap() else {
                return;
            };
            cold += tb.pivots;
            if !matches!(outcome, TableauOutcome::Optimal { .. }) {
                return;
            }
            for _ in 0..g.usize_in(1..9) {
                if g.bool() {
                    let coeffs: Vec<f64> = (0..tb.nstruct)
                        .map(|_| round2(g.f64_in(-4.0, 4.0)))
                        .collect();
                    tb.append_le(&coeffs, round2(g.f64_in(-4.0, 2.0)));
                } else {
                    let shiftable: Vec<usize> = (0..tb.slacks.len())
                        .filter(|&r| tb.slacks[r].is_some())
                        .collect();
                    if let Some(&row) = shiftable.get(g.usize_in(0..shiftable.len().max(1))) {
                        tb.shift_rhs(row, round2(g.f64_in(-3.0, 3.0)));
                    }
                }
                let before = tb.pivots;
                let outcome = tb.dual_optimize();
                warm += tb.pivots - before;
                if !matches!(outcome, Ok(TableauOutcome::Optimal { .. })) {
                    return;
                }
            }
        });
        assert!(
            cold > 1000 && warm > 100,
            "{cold} cold and {warm} warm pivots"
        );
    }
}
