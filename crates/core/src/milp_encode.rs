//! MILP encoding of the relaxed problem `P̃` (everything in eq. 8 except
//! the PDR constraint, with the analytic power eq. 9 as objective).
//!
//! Variables:
//!
//! * `n_i` — site occupancy binaries (the topology vector `ν`);
//! * `p_k` — one-hot transmit-power selectors (`p1 + p2 + p3 = 1`);
//! * `mac` — MAC choice (free: the coarse power model is MAC-independent,
//!   so both choices appear in every optimal pool);
//! * `mesh` — routing selector (`Prt`);
//! * `y_N` — one-hot node-count indicators (`Σ n_i = Σ N·y_N`);
//! * `z_{N,k,r}` — products `y_N ∧ p_k ∧ (routing = r)`, linearized with
//!   the standard `z ≤ a, z ≤ b, z ≤ c, z ≥ a + b + c − 2` rows.
//!
//! The bilinear analytic power (eq. 9 multiplies the power-level choice,
//! the routing choice and an `N`-dependent factor) becomes the linear form
//! `Σ cost(N, k, r) · z_{N,k,r}` over the 18-combination lattice.

use std::sync::{Arc, Mutex};

use hi_lint::{CutTracker, Finding, Report};
use hi_milp::{LinExpr, Model, Sense, Solution, SolveError, VarId, WarmModel};
use hi_net::{AppParams, TxPower};

use crate::constraints::TopologyConstraints;
use crate::point::{DesignPoint, MacChoice, Placement, RouteChoice};
use crate::power::radio_power_mw;
use crate::robustness::{deviation_power_mw, RobustnessSpec};

/// The growing MILP model behind Algorithm 1's `RunMILP`: construct once,
/// then alternate [`solve_pool`](MilpEncoding::solve_pool) and
/// [`add_power_cut`](MilpEncoding::add_power_cut).
///
/// The model keeps its root LP relaxation solved between calls
/// ([`WarmModel`]): each power cut is appended to the last optimal
/// tableau as one row plus `z` bound edits, and the next `solve_pool`
/// reoptimizes with a few dual simplex pivots.
#[derive(Debug, Clone)]
pub struct MilpEncoding {
    model: WarmModel,
    site_vars: Vec<VarId>,
    power_vars: Vec<(TxPower, VarId)>,
    mac_var: VarId,
    mesh_var: VarId,
    /// Objective in mW, kept for power cuts.
    objective_mw: LinExpr,
    /// The Γ-robust objective (nominal + `Γλ + Σμ_l`), present only on
    /// encodings built by [`new_robust`](MilpEncoding::new_robust) with a
    /// non-degenerate spec; kept for robust cuts.
    robust_objective: Option<LinExpr>,
    /// The product lattice: `(analytic power incl. baseline, z var)`.
    z_vars: Vec<(f64, VarId)>,
    /// The feasible placements grouped by node count (index = count),
    /// each group in mask order: what expands an optimum into its pool.
    placements: Vec<Vec<Placement>>,
    /// Fingerprints of the Algorithm-1 cuts added so far, so a cut that
    /// is no tighter than an earlier one is flagged instead of silently
    /// bloating every subsequent solve.
    cut_tracker: CutTracker,
    /// Redundancy findings the tracker produced across the cut ladder.
    cut_findings: Vec<Finding>,
}

impl MilpEncoding {
    /// Encodes `P̃` for the given topological constraints and application
    /// parameters.
    pub fn new(constraints: &TopologyConstraints, app: &AppParams) -> Self {
        let _span = hi_trace::span("milp.encoding_build");
        let mut model = Model::new();

        let site_vars: Vec<VarId> = (0..10)
            .map(|i| model.add_binary(&format!("n{i}")))
            .collect();
        let power_vars: Vec<(TxPower, VarId)> = TxPower::ALL
            .iter()
            .enumerate()
            .map(|(k, &p)| (p, model.add_binary(&format!("p{}", k + 1))))
            .collect();
        let mac_var = model.add_binary("mac");
        let mesh_var = model.add_binary("mesh");

        // Topological constraints r_T.
        for &i in &constraints.required {
            model.add_constraint(site_vars[i] * 1.0, Sense::Eq, 1.0);
        }
        for group in &constraints.at_least_one {
            let e = LinExpr::sum(group.iter().map(|&i| site_vars[i]));
            model.add_constraint(e, Sense::Ge, 1.0);
        }
        for &(i, j) in &constraints.implications {
            model.add_constraint(site_vars[j] - site_vars[i], Sense::Le, 0.0);
        }
        let total = LinExpr::sum(site_vars.iter().copied());
        model.add_constraint(total.clone(), Sense::Ge, constraints.min_nodes as f64);
        model.add_constraint(total.clone(), Sense::Le, constraints.max_nodes as f64);

        // One-hot selectors.
        let p_sum = LinExpr::sum(power_vars.iter().map(|&(_, v)| v));
        model.add_constraint(p_sum, Sense::Eq, 1.0);

        // Node-count indicators: sum n = sum N * y_N, sum y = 1.
        let counts: Vec<usize> = (constraints.min_nodes..=constraints.max_nodes).collect();
        let count_vars: Vec<(usize, VarId)> = counts
            .iter()
            .map(|&n| (n, model.add_binary(&format!("y{n}"))))
            .collect();
        let y_sum = LinExpr::sum(count_vars.iter().map(|&(_, v)| v));
        model.add_constraint(y_sum, Sense::Eq, 1.0);
        let mut linked = LinExpr::new();
        for &(n, y) in &count_vars {
            linked.add_term(y, n as f64);
        }
        model.add_constraint(total - linked, Sense::Eq, 0.0);

        // Product lattice and the linearized objective.
        let baseline_mw = app.baseline_power_w * 1e3;
        let mut objective_mw = LinExpr::constant_expr(baseline_mw);
        let mut z_sum = LinExpr::new();
        let mut z_vars = Vec::new();
        for &(n, y) in &count_vars {
            for &(p, pv) in &power_vars {
                for r in RouteChoice::ALL {
                    let z = model.add_binary(&format!("z_{n}_{p}_{r}"));
                    // z <= y, z <= p
                    model.add_constraint(LinExpr::var(z) - y, Sense::Le, 0.0);
                    model.add_constraint(LinExpr::var(z) - pv, Sense::Le, 0.0);
                    match r {
                        RouteChoice::Mesh => {
                            // z <= mesh; z >= y + p + mesh - 2
                            model.add_constraint(LinExpr::var(z) - mesh_var, Sense::Le, 0.0);
                            model.add_constraint(
                                LinExpr::var(z) - y - pv - mesh_var,
                                Sense::Ge,
                                -2.0,
                            );
                        }
                        RouteChoice::Star => {
                            // z <= 1 - mesh; z >= y + p + (1 - mesh) - 2
                            model.add_constraint(z + mesh_var, Sense::Le, 1.0);
                            model.add_constraint(
                                LinExpr::var(z) - y - pv + mesh_var,
                                Sense::Ge,
                                -1.0,
                            );
                        }
                    }
                    let cost = radio_power_mw(n, p, r, app);
                    objective_mw.add_term(z, cost);
                    z_vars.push((baseline_mw + cost, z));
                    z_sum.add_term(z, 1.0);
                }
            }
        }
        model.add_constraint(z_sum, Sense::Eq, 1.0);
        model.minimize(objective_mw.clone());

        let mut placements: Vec<Vec<Placement>> = Vec::new();
        for placement in constraints.feasible_placements() {
            let n = placement.len();
            if placements.len() <= n {
                placements.resize(n + 1, Vec::new());
            }
            placements[n].push(placement);
        }

        Self {
            model: WarmModel::new(model),
            site_vars,
            power_vars,
            mac_var,
            mesh_var,
            objective_mw,
            robust_objective: None,
            z_vars,
            placements,
            cut_tracker: CutTracker::new(),
            cut_findings: Vec::new(),
        }
    }

    /// Prunes every configuration whose analytic power is at or below
    /// `power_mw` — Algorithm 1's `Update(P̃, P̄ > P̄*)` (line 11).
    pub fn add_power_cut(&mut self, power_mw: f64) {
        // Power levels are discrete and well separated; a tiny epsilon
        // turns the strict inequality into a usable `>=` row.
        self.model
            .add_constraint(self.objective_mw.clone(), Sense::Ge, power_mw + 1e-6);
        // Fingerprint the new cut so a ladder that stops tightening — the
        // classic stalled-Algorithm-1 bug — is reported instead of looping
        // forever at the same power level.
        self.track_last_cut();
        // Presolve-strength equivalent: the analytic power is `Σ cost·z`
        // over a one-hot lattice, so `P̄ > power_mw` is exactly "no combo
        // at or below the bound" — fixing those `z` to zero keeps the LP
        // relaxation tight (the bare `>=` row alone admits fractional
        // z-mixes that sit on the bound and stall branch & bound).
        for &(cost, v) in &self.z_vars {
            if cost <= power_mw + 1e-6 {
                self.model.set_bounds(v, 0.0, 0.0);
            }
        }
    }

    /// Feeds the row just appended to the cut tracker. Only that row is
    /// converted, so a cut costs the same at every ladder level.
    fn track_last_cut(&mut self) {
        let model = self.model.model();
        let cut_row = model.to_lint_row(model.num_constraints() - 1);
        if let Some(finding) = self.cut_tracker.observe(&cut_row) {
            self.cut_findings.push(finding);
        }
    }

    /// Encodes the Γ-robust counterpart of `P̃`: the nominal encoding plus
    /// the classic Bertsimas–Sim dualization of "up to Γ links deviate by
    /// their bounds at once".
    ///
    /// Per protected link `l = (a, b)` with deviation price
    /// `δp_l = deviation_power_mw(δ_l)`:
    ///
    /// * a continuous activation `u_l ∈ [0, 1]`, forced to 1 exactly when
    ///   the link exists in the decoded design — `u_l ≥ n_a + n_b − 1` for
    ///   hub pairs (site 0 is the star coordinator, so its links exist
    ///   under both routings), `u_l ≥ n_a + n_b + mesh − 2` for peripheral
    ///   pairs (a direct peripheral link only exists in mesh routing);
    /// * a dual `μ_l ∈ [0, δp_l]` and the shared budget dual `λ ≥ 0`, tied
    ///   by the dual feasibility row `λ + μ_l ≥ δp_l · u_l`.
    ///
    /// The objective becomes `P̄ + Γ·λ + Σ_l μ_l`, whose minimum equals
    /// the nominal power plus the worst sum of Γ active-link deviations —
    /// LP duality makes the inner adversary exact while the model stays an
    /// LP-relaxable MILP for the existing simplex / branch & bound.
    /// A degenerate spec (Γ = 0 or no protected links) returns the plain
    /// nominal encoding unchanged.
    pub fn new_robust(
        constraints: &TopologyConstraints,
        app: &AppParams,
        spec: &RobustnessSpec,
    ) -> Self {
        let mut enc = Self::new(constraints, app);
        if spec.is_degenerate() {
            return enc;
        }
        let delta_max = spec
            .deviations
            .iter()
            .map(|d| deviation_power_mw(d.delta_db, app))
            .fold(0.0f64, f64::max);
        let model = enc.model.model_mut();
        let lambda = model.add_continuous("lambda", 0.0, delta_max);
        let mut robust = enc.objective_mw.clone();
        robust.add_term(lambda, f64::from(spec.gamma));
        for d in &spec.deviations {
            let dp = deviation_power_mw(d.delta_db, app);
            if dp <= 0.0 {
                continue;
            }
            let u = model.add_continuous(&format!("u_{}_{}", d.site_a, d.site_b), 0.0, 1.0);
            let (na, nb) = (enc.site_vars[d.site_a], enc.site_vars[d.site_b]);
            if d.site_a == 0 || d.site_b == 0 {
                model.add_constraint(LinExpr::var(u) - na - nb, Sense::Ge, -1.0);
            } else {
                model.add_constraint(LinExpr::var(u) - na - nb - enc.mesh_var, Sense::Ge, -2.0);
            }
            let mu = model.add_continuous(&format!("mu_{}_{}", d.site_a, d.site_b), 0.0, dp);
            model.add_constraint(lambda + mu - LinExpr::term(u, dp), Sense::Ge, 0.0);
            robust.add_term(mu, 1.0);
        }
        model.minimize(robust.clone());
        enc.robust_objective = Some(robust);
        enc
    }

    /// True if this encoding carries the Γ-robust objective.
    pub fn is_robust(&self) -> bool {
        self.robust_objective.is_some()
    }

    /// Excludes the exact integer assignment of `point` (a no-good cut) —
    /// the robust engines' ladder step.
    ///
    /// An objective-threshold row like
    /// [`add_power_cut`](MilpEncoding::add_power_cut) is unsound on the
    /// robust objective: its duals (`lambda`, `mu`) are only
    /// lower-bounded by the dualization rows, so the LP can inflate them
    /// past their dual-minimal values and return the *same* design at
    /// any demanded objective — the ladder would crawl by epsilon
    /// forever. Excluding the disproven witness itself is sound:
    /// re-minimizing then yields the next-cheapest design by robust
    /// cost, ties surfacing one at a time in deterministic solver order.
    pub fn exclude_point(&mut self, point: &DesignPoint) {
        let mut row = LinExpr::new();
        let mut ones = 0.0;
        let mut bind = |row: &mut LinExpr, var: VarId, selected: bool| {
            if selected {
                row.add_term(var, 1.0);
                ones += 1.0;
            } else {
                row.add_term(var, -1.0);
            }
        };
        for (i, &v) in self.site_vars.iter().enumerate() {
            bind(&mut row, v, point.placement.contains_index(i));
        }
        for &(p, v) in &self.power_vars {
            bind(&mut row, v, p == point.tx_power);
        }
        bind(&mut row, self.mac_var, point.mac == MacChoice::Tdma);
        bind(&mut row, self.mesh_var, point.routing == RouteChoice::Mesh);
        self.model.add_constraint(row, Sense::Le, ones - 1.0);
        // Fingerprint the new cut so a ladder that re-excludes the same
        // witness — the stalled-ladder bug in robust form — is reported
        // instead of looping forever.
        self.track_last_cut();
    }

    /// Runs the MILP and returns the single decoded optimum and its
    /// objective value, or `None` if the (cut-augmented) model is
    /// infeasible.
    ///
    /// The robust engines use this instead of
    /// [`solve_pool`](MilpEncoding::solve_pool): the pool expansion there
    /// assumes the objective depends only on `(N, power, routing)`, which
    /// the placement-dependent robust objective breaks. Designs tied at
    /// the witness's robust objective surface one at a time as
    /// [`exclude_point`](MilpEncoding::exclude_point) removes each
    /// disproven witness.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn solve_witness(&self) -> Result<Option<(DesignPoint, f64)>, SolveError> {
        let sol = self.model.model().solve()?;
        if !sol.is_optimal() {
            return Ok(None);
        }
        Ok(Some((self.decode(&sol), sol.objective())))
    }

    /// Pins site `site`'s occupancy binary to `occupied` — the ILP
    /// heuristic's restriction step.
    pub fn fix_site(&mut self, site: usize, occupied: bool) {
        let v = f64::from(u8::from(occupied));
        self.model.set_bounds(self.site_vars[site], v, v);
    }

    /// Releases a pinned site back to `[0, 1]` — the ILP heuristic's
    /// repair step.
    pub fn free_site(&mut self, site: usize) {
        self.model.set_bounds(self.site_vars[site], 0.0, 1.0);
    }

    /// Lints the current (cut-augmented) encoding.
    ///
    /// Combines the model-level analysis of [`hi_lint::analyze`] with the
    /// cross-iteration cut-redundancy findings accumulated by
    /// [`add_power_cut`](MilpEncoding::add_power_cut).
    pub fn lint_report(&self) -> Report {
        let mut report = self.model.model().lint();
        for finding in &self.cut_findings {
            report.push(finding.clone());
        }
        report
    }

    /// Runs the MILP and enumerates *all* optimal configurations —
    /// Algorithm 1's `RunMILP` returning `(S, P̄*)`.
    ///
    /// The branch & bound finds one optimum and its power level; because
    /// the analytic cost (eq. 9) depends only on `(N, power, routing)`,
    /// the remaining optimal solutions are exactly the other placements of
    /// the same size (under the same topological constraints) combined
    /// with either MAC — the pool is expanded combinatorially instead of
    /// re-solving behind no-good cuts.
    ///
    /// `P̄*` is the lattice cost of the optimum's `(N, power, routing)`
    /// cell, not the solver's floating-point objective, so it does not
    /// depend on the pivots that reached the optimum: a ladder
    /// reoptimized level by level and one rebuilt from saved cuts produce
    /// bit-identical cuts.
    ///
    /// Returns an empty set if the (cut-augmented) model is infeasible.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn solve_pool(&mut self) -> Result<(Vec<DesignPoint>, Option<f64>), SolveError> {
        let sol = self.model.solve()?;
        if !sol.is_optimal() {
            return Ok((Vec::new(), None));
        }
        let p_star = self
            .z_vars
            .iter()
            .find(|&&(_, z)| sol.int_value(z) == 1)
            .map(|&(cost, _)| cost)
            .expect("exactly one lattice cell must be selected");
        let witness = self.decode(&sol);
        let _span = hi_trace::span("milp.pool_expand");
        let points: Vec<DesignPoint> = self.placements[witness.num_nodes()]
            .iter()
            .flat_map(|&placement| {
                MacChoice::ALL.map(|mac| DesignPoint {
                    placement,
                    tx_power: witness.tx_power,
                    mac,
                    routing: witness.routing,
                })
            })
            .collect();
        debug_assert!(points.contains(&witness));
        Ok((points, Some(p_star)))
    }

    /// Interprets a MILP solution as a design point.
    fn decode(&self, sol: &Solution) -> DesignPoint {
        let placement = Placement::from_indices(
            self.site_vars
                .iter()
                .enumerate()
                .filter(|(_, &v)| sol.int_value(v) == 1)
                .map(|(i, _)| i),
        );
        let tx_power = self
            .power_vars
            .iter()
            .find(|&&(_, v)| sol.int_value(v) == 1)
            .map(|&(p, _)| p)
            .expect("exactly one power level must be selected");
        let mac = if sol.int_value(self.mac_var) == 1 {
            MacChoice::Tdma
        } else {
            MacChoice::Csma
        };
        let routing = if sol.int_value(self.mesh_var) == 1 {
            RouteChoice::Mesh
        } else {
            RouteChoice::Star
        };
        DesignPoint {
            placement,
            tx_power,
            mac,
            routing,
        }
    }

    /// Solves the root LP relaxation and keeps its tableau
    /// ([`WarmModel::solve_root`]), so that the first
    /// [`solve_pool`](MilpEncoding::solve_pool) of this encoding or of
    /// a clone reoptimizes it instead of starting from phase 1.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub(crate) fn solve_root(&mut self) -> Result<(), SolveError> {
        self.model.solve_root()
    }

    /// Read-only access to the underlying MILP model (for inspection and
    /// benchmarking).
    pub fn model(&self) -> &Model {
        self.model.model()
    }
}

/// A stream's root-solved Algorithm-1 encoding, shared by clones.
///
/// Algorithm 1's cut ladder depends only on the design space and the
/// application parameters; `PDRmin` decides only where it stops. Jobs
/// that share both can therefore start from one encoding whose root LP
/// is already solved ([`WarmModel::solve_root`]) instead of building
/// the model and solving its root again. The slot holds one encoding,
/// keyed by `(constraints, app)`; a job with another key replaces it.
/// [`Engine::run`](crate::Engine::run) takes one for Algorithm 1, and
/// every [`SharedSimEvaluator`](crate::SharedSimEvaluator) carries one.
#[derive(Debug, Clone, Default)]
pub struct MilpRoot {
    slot: Arc<Mutex<Option<RootEntry>>>,
}

type RootEntry = (TopologyConstraints, AppParams, MilpEncoding);

impl MilpRoot {
    /// A clone of the root-solved encoding of `P̃` for `constraints`
    /// and `app`, built and root-solved on the first call with this key.
    ///
    /// # Errors
    ///
    /// Propagates a failure of the root solve.
    pub(crate) fn encoding(
        &self,
        constraints: &TopologyConstraints,
        app: &AppParams,
    ) -> Result<MilpEncoding, SolveError> {
        let mut slot = self.slot.lock().expect("milp root poisoned");
        let hit = slot
            .as_ref()
            .is_some_and(|(c, a, _)| c == constraints && a == app);
        if !hit {
            let mut root = MilpEncoding::new(constraints, app);
            root.solve_root()?;
            *slot = Some((constraints.clone(), *app, root));
        }
        let (_, _, root) = slot.as_ref().expect("the slot was just filled");
        let _span = hi_trace::span("milp.encoding_clone");
        Ok(root.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::analytic_power_mw;
    use std::collections::HashSet;

    fn paper_encoding() -> MilpEncoding {
        MilpEncoding::new(&TopologyConstraints::paper_default(), &AppParams::default())
    }

    #[test]
    fn first_pool_is_minimal_star_at_minus20() {
        let mut enc = paper_encoding();
        let (points, p_star) = enc.solve_pool().unwrap();
        assert!(!points.is_empty());
        let app = AppParams::default();
        for pt in &points {
            // Cheapest class: 4 nodes, -20 dBm, star (both MACs).
            assert_eq!(pt.num_nodes(), 4, "{pt}");
            assert_eq!(pt.tx_power, TxPower::Minus20Dbm, "{pt}");
            assert_eq!(pt.routing, RouteChoice::Star, "{pt}");
            assert!((analytic_power_mw(pt, &app) - p_star.unwrap()).abs() < 1e-6);
        }
        // 8 minimal placements x 2 MAC choices.
        assert_eq!(points.len(), 16);
        let macs: HashSet<_> = points.iter().map(|p| p.mac).collect();
        assert_eq!(macs.len(), 2, "both MACs must appear in the pool");
    }

    #[test]
    fn pool_entries_are_distinct_and_constraint_satisfying() {
        let mut enc = paper_encoding();
        let constraints = TopologyConstraints::paper_default();
        let (points, _) = enc.solve_pool().unwrap();
        let set: HashSet<_> = points.iter().collect();
        assert_eq!(set.len(), points.len());
        for pt in &points {
            assert!(constraints.is_satisfied(pt.placement), "{pt}");
        }
    }

    #[test]
    fn power_cut_advances_to_next_level() {
        let app = AppParams::default();
        let mut enc = paper_encoding();
        let (_, p1) = enc.solve_pool().unwrap();
        enc.add_power_cut(p1.unwrap());
        let (points, p2) = enc.solve_pool().unwrap();
        assert!(p2.unwrap() > p1.unwrap());
        // Second-cheapest class: 4 nodes, -10 dBm, star.
        for pt in &points {
            assert_eq!(pt.tx_power, TxPower::Minus10Dbm, "{pt}");
            assert_eq!(pt.routing, RouteChoice::Star, "{pt}");
            assert!((analytic_power_mw(pt, &app) - p2.unwrap()).abs() < 1e-6);
        }
    }

    #[test]
    fn cut_ladder_reaches_infeasibility() {
        // 18 (N, power, routing) cost levels at most; cutting repeatedly
        // must terminate with an empty pool.
        let mut enc = paper_encoding();
        let mut levels = Vec::new();
        for _ in 0..32 {
            let (points, p) = enc.solve_pool().unwrap();
            match p {
                None => break,
                Some(p) => {
                    assert!(!points.is_empty());
                    levels.push(p);
                    enc.add_power_cut(p);
                }
            }
        }
        assert!(!levels.is_empty());
        assert!(levels.len() <= 18, "at most 18 distinct cost levels");
        assert!(
            levels.windows(2).all(|w| w[1] > w[0]),
            "strictly increasing"
        );
        // After the ladder is exhausted the model must be infeasible.
        let (points, p) = enc.solve_pool().unwrap();
        assert!(points.is_empty() && p.is_none());
    }

    #[test]
    fn ladder_orders_star_before_equal_size_mesh() {
        let mut enc = paper_encoding();
        let mut first_mesh_level = None;
        let mut last_star4_level = None;
        for level in 0.. {
            let (points, p) = enc.solve_pool().unwrap();
            let Some(p) = p else { break };
            for pt in &points {
                if pt.routing == RouteChoice::Mesh && first_mesh_level.is_none() {
                    first_mesh_level = Some(level);
                }
                if pt.routing == RouteChoice::Star && pt.num_nodes() == 4 {
                    last_star4_level = Some(level);
                }
            }
            enc.add_power_cut(p);
        }
        let (fm, ls) = (first_mesh_level.unwrap(), last_star4_level.unwrap());
        assert!(
            fm > ls,
            "every 4-node star level ({ls}) must precede the first mesh level ({fm})"
        );
    }

    #[test]
    fn cut_ladder_stays_lint_clean_on_paper_scenario() {
        // Regression for the full 12,288-configuration scenario: the cuts
        // Algorithm 1 accumulates while exhausting the ladder must neither
        // break the encoding structurally nor repeat themselves.
        assert_eq!(
            crate::DesignSpace::unconstrained_size(),
            12_288,
            "paper scenario size"
        );
        let mut enc = paper_encoding();
        loop {
            let (_, p) = enc.solve_pool().unwrap();
            match p {
                Some(p) => enc.add_power_cut(p),
                None => break,
            }
        }
        let report = enc.lint_report();
        assert!(!report.has_errors(), "{report}");
        assert!(
            !report.has_rule(hi_lint::RuleId::RedundantCut),
            "a strictly rising ladder must not repeat cuts:\n{report}"
        );
    }

    #[test]
    fn repeated_power_cut_is_flagged_as_redundant() {
        let mut enc = paper_encoding();
        let (_, p) = enc.solve_pool().unwrap();
        let p = p.unwrap();
        enc.add_power_cut(p);
        enc.add_power_cut(p); // same threshold again: no progress
        let report = enc.lint_report();
        assert!(report.has_rule(hi_lint::RuleId::RedundantCut), "{report}");
    }

    #[test]
    fn required_site_always_selected() {
        let mut enc = paper_encoding();
        let (points, _) = enc.solve_pool().unwrap();
        for pt in points {
            assert!(pt.placement.contains_index(0), "chest required");
        }
    }

    use crate::robustness::{LinkDeviation, RobustnessSpec};
    use hi_channel::BodyLocation;

    /// Every pair deviates by 9 dB (a wideband interference burst): any
    /// witness has active protected links, so robustness must cost.
    fn wideband_spec(gamma: u32) -> RobustnessSpec {
        let mut deviations = Vec::new();
        for a in 0..BodyLocation::COUNT {
            for b in (a + 1)..BodyLocation::COUNT {
                deviations.push(LinkDeviation {
                    site_a: a,
                    site_b: b,
                    delta_db: 9.0,
                });
            }
        }
        RobustnessSpec { gamma, deviations }
    }

    #[test]
    fn robust_objective_prices_gamma_monotonically() {
        let app = AppParams::default();
        let constraints = TopologyConstraints::paper_default();
        let (_, nominal) = MilpEncoding::new(&constraints, &app)
            .solve_witness()
            .unwrap()
            .unwrap();
        let mut prev = nominal;
        for gamma in 1..=4u32 {
            let enc = MilpEncoding::new_robust(&constraints, &app, &wideband_spec(gamma));
            assert!(enc.is_robust());
            let (pt, robust) = enc.solve_witness().unwrap().unwrap();
            assert!(constraints.is_satisfied(pt.placement), "{pt}");
            assert!(
                robust > nominal,
                "Γ = {gamma}: robust {robust} must cost more than nominal {nominal}"
            );
            assert!(
                robust >= prev - 1e-9,
                "price of robustness must be non-decreasing in Γ ({robust} < {prev})"
            );
            prev = robust;
        }
    }

    #[test]
    fn degenerate_spec_builds_the_nominal_encoding() {
        let app = AppParams::default();
        let constraints = TopologyConstraints::paper_default();
        let nominal = MilpEncoding::new(&constraints, &app)
            .solve_witness()
            .unwrap()
            .unwrap()
            .1;
        for spec in [
            RobustnessSpec {
                gamma: 0,
                deviations: wideband_spec(1).deviations,
            },
            RobustnessSpec {
                gamma: 3,
                deviations: vec![],
            },
        ] {
            let enc = MilpEncoding::new_robust(&constraints, &app, &spec);
            assert!(!enc.is_robust());
            let (_, p) = enc.solve_witness().unwrap().unwrap();
            assert_eq!(p.to_bits(), nominal.to_bits(), "bit-identical to nominal");
        }
    }

    #[test]
    fn excluding_witnesses_climbs_the_robust_ladder() {
        let app = AppParams::default();
        let constraints = TopologyConstraints::paper_default();
        let mut enc = MilpEncoding::new_robust(&constraints, &app, &wideband_spec(2));
        let mut seen = Vec::new();
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..6 {
            let (pt, p) = enc.solve_witness().unwrap().unwrap();
            // Ties are only equal up to float summation order (each
            // placement sums its own duals), hence the 1e-9 slack.
            assert!(
                p >= prev - 1e-9,
                "robust ladder must be monotone: {p} after {prev}"
            );
            assert!(!seen.contains(&pt), "each witness must be new: {pt}");
            prev = p;
            seen.push(pt);
            enc.exclude_point(&pt);
        }
        let report = enc.lint_report();
        assert!(!report.has_errors(), "{report}");
        assert!(
            !report.has_rule(hi_lint::RuleId::RedundantCut),
            "a climbing robust ladder must not repeat cuts:\n{report}"
        );
    }

    #[test]
    fn fix_and_free_site_bound_the_witness() {
        let app = AppParams::default();
        let constraints = TopologyConstraints::paper_default();
        let nominal = MilpEncoding::new(&constraints, &app)
            .solve_witness()
            .unwrap()
            .unwrap()
            .1;
        let mut enc = MilpEncoding::new(&constraints, &app);
        enc.fix_site(7, true);
        let (pt, p_in) = enc.solve_witness().unwrap().unwrap();
        assert!(pt.placement.contains_index(7), "pinned-in site selected");
        assert!(p_in > nominal, "forcing an extra site costs power");
        enc.fix_site(7, false);
        let (pt, _) = enc.solve_witness().unwrap().unwrap();
        assert!(!pt.placement.contains_index(7), "pinned-out site excluded");
        enc.free_site(7);
        let (_, p) = enc.solve_witness().unwrap().unwrap();
        assert_eq!(p.to_bits(), nominal.to_bits(), "freed model is nominal");
    }
}
