//! Algorithm 1 of the paper: MILP-guided, simulation-verified design-space
//! exploration.
//!
//! Each iteration asks the MILP for the set `S` of configurations with the
//! lowest analytic power `P̄*` still admissible, simulates them, keeps the
//! best reliability-feasible candidate, and prunes the level with a power
//! cut. The loop stops when the MILP runs dry or when the α-corrected
//! analytic bound proves that no remaining configuration can beat the
//! incumbent: `P̄*/α(S*, PDRmin) > P̄min`.

use hi_net::AppParams;
use hi_trace::wellknown as wk;

use crate::checkpoint::{validate_resume, ExploreCheckpoint, ENGINE_ALGORITHM1};
use crate::constraints::DesignSpace;
use crate::evaluator::{Evaluation, PointEvaluator};
use crate::exhaustive::{best_feasible, improves, settled};
use crate::milp_encode::MilpEncoding;
use crate::parallel::ExecContext;
use crate::point::DesignPoint;
use crate::power::alpha;

/// The optimization problem `P` (eq. 8): maximize lifetime subject to a
/// reliability floor over a constrained design space.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Topological/configuration constraints defining the space.
    pub space: DesignSpace,
    /// The reliability floor `PDRmin` in `[0, 1]`.
    pub pdr_min: f64,
    /// Application-layer parameters (traffic, baseline power).
    pub app: AppParams,
}

impl Problem {
    /// The paper's §4.1 problem at a given `PDRmin`.
    ///
    /// # Panics
    ///
    /// Panics if `pdr_min` is outside `[0, 1]`.
    pub fn paper_default(pdr_min: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&pdr_min),
            "pdr_min must be in [0, 1], got {pdr_min}"
        );
        Self {
            space: DesignSpace::paper_default(),
            pdr_min,
            app: AppParams::default(),
        }
    }
}

/// Why the exploration stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The MILP became infeasible: every admissible level was explored.
    MilpExhausted,
    /// The α-corrected analytic bound proved the incumbent optimal.
    BoundProven,
    /// The execution context's [`CancelToken`](hi_exec::CancelToken)
    /// fired: the loop stopped early and `best` holds the incumbent from
    /// the last *fully evaluated* candidate level (partial levels are
    /// discarded so cancellation can never report a wrong optimum, only
    /// a premature one).
    Cancelled,
    /// The simulation budget ([`ExploreOptions::budget`]) ran out: the
    /// loop stopped before the next MILP query and `best` holds the
    /// best-so-far incumbent. The exploration state can be checkpointed
    /// (see [`ExplorationOutcome::cuts`] and
    /// [`ExploreCheckpoint`](crate::ExploreCheckpoint)) and resumed
    /// later with a bit-identical continuation.
    BudgetExhausted,
}

/// The result of a design-space exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationOutcome {
    /// The optimal design and its measured performance, or `None` if no
    /// configuration satisfies the reliability constraint.
    pub best: Option<(DesignPoint, Evaluation)>,
    /// MILP query iterations performed.
    pub iterations: u32,
    /// Candidate configurations proposed by the MILP across all
    /// iterations.
    pub candidates_proposed: u64,
    /// Unique simulations run (the evaluator's counter).
    pub simulations: u64,
    /// Candidates whose evaluation failed (panicking simulation, broken
    /// lowering). Failed candidates are excluded from their level and the
    /// exploration carries on; a nonzero count flags degraded results.
    pub eval_errors: u64,
    /// The power-cut ladder applied to the MILP, in application order —
    /// together with `best` and the counters, the full exploration state
    /// (see [`ExploreCheckpoint`](crate::ExploreCheckpoint)).
    pub cuts: Vec<f64>,
    /// Why the loop stopped.
    pub stop_reason: StopReason,
}

impl ExplorationOutcome {
    /// True if a feasible optimum was found.
    pub fn is_feasible(&self) -> bool {
        self.best.is_some()
    }
}

/// Errors from [`explore`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExploreError {
    /// The underlying MILP solver failed.
    Milp(hi_milp::SolveError),
    /// A resume checkpoint is unusable (malformed, or recorded under a
    /// different problem/options than the resuming run).
    Checkpoint(String),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Milp(e) => write!(f, "milp solver failure: {e}"),
            ExploreError::Checkpoint(msg) => write!(f, "bad checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for ExploreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExploreError::Milp(e) => Some(e),
            ExploreError::Checkpoint(_) => None,
        }
    }
}

impl From<hi_milp::SolveError> for ExploreError {
    fn from(e: hi_milp::SolveError) -> Self {
        ExploreError::Milp(e)
    }
}

/// Tuning knobs for [`explore`] and the robust engines; the defaults
/// reproduce the paper's Algorithm 1 exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Apply the α divisor in the termination test (line 5). Disabling it
    /// makes the bound naively compare `P̄*` against `P̄min` — an ablation
    /// showing why the paper needs α: the analytic model *over*estimates
    /// the power of lossy configurations, so the naive test can stop one
    /// level early and return a false optimum.
    pub alpha_correction: bool,
    /// Graceful-degradation budget: stop with
    /// [`StopReason::BudgetExhausted`] (returning best-so-far) once this
    /// many unique simulations have been spent. The check runs at the top
    /// of each iteration, so a partially evaluated level is never
    /// reported. `None` (the default) means unlimited. On a resumed run
    /// the budget counts *total* simulations including the checkpoint's.
    pub budget: Option<u64>,
    /// Auto-checkpoint cadence: snapshot the exploration state every `k`
    /// completed iterations and hand it to the observer (see
    /// [`explore`]). The snapshot is taken after the level's power cut
    /// lands, so resuming from it replays exactly the levels an
    /// uninterrupted run would visit next. `None` (the default) and
    /// `Some(0)` disable periodic snapshots; a caller that needs no
    /// snapshots passes a no-op observer.
    pub checkpoint_every: Option<u32>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self {
            alpha_correction: true,
            budget: None,
            checkpoint_every: None,
        }
    }
}

/// Runs Algorithm 1 on `problem`, using `evaluator` as the `RunSim`
/// oracle.
///
/// Each candidate level (the MILP's pool `S`) fans out over `exec`'s
/// thread pool and the per-level reduction stays sequential over pool
/// order, so the outcome — best point, iteration count, candidate count
/// and simulation count — is bit-identical for every thread count
/// ([`ExecContext::sequential`] runs the plain sequential loop). A
/// candidate whose evaluation fails is excluded from its level and
/// counted in [`ExplorationOutcome::eval_errors`].
///
/// `resume` continues from a saved [`ExploreCheckpoint`]: its cut ladder
/// is replayed into a fresh MILP encoding and its incumbent and effort
/// counters are restored, so the continuation visits exactly the
/// candidate levels the uninterrupted run would have visited next.
/// Because levels are disjoint (each cut excludes the previous level), a
/// checkpoint-and-resume pair performs the same total unique simulations
/// — and reports the same outcome, bit for bit — as a single
/// straight-through run.
///
/// Every [`ExploreOptions::checkpoint_every`] completed iterations,
/// `observer` receives a snapshot of the full exploration state (taken
/// after that level's power cut, so it resumes bit-identically). The
/// observer is the persistence policy — the CLI writes each snapshot
/// crash-safely via [`store::write_atomic`](crate::store::write_atomic);
/// tests collect them in memory. Observer calls happen on the driving
/// thread, between iterations, so they never perturb evaluation order.
///
/// Cancelling `exec` stops in-flight candidate evaluations between tasks
/// and breaks the loop with [`StopReason::Cancelled`]; the incumbent of
/// the last fully evaluated level is returned.
///
/// # Errors
///
/// Returns [`ExploreError::Checkpoint`] if the checkpoint was recorded by
/// another engine or under a different `pdr_min` or `alpha_correction`
/// than this call, and [`ExploreError::Milp`] if the MILP solver fails
/// (structurally impossible for well-formed problems; numerical safety
/// valve).
pub fn explore<P: PointEvaluator>(
    problem: &Problem,
    evaluator: &P,
    options: ExploreOptions,
    exec: &ExecContext,
    resume: Option<&ExploreCheckpoint>,
    observer: &mut dyn FnMut(&ExploreCheckpoint),
) -> Result<ExplorationOutcome, ExploreError> {
    validate_resume(resume, ENGINE_ALGORITHM1, problem, options)?;
    let mut encoding = MilpEncoding::new(problem.space.constraints(), &problem.app);
    let mut cuts: Vec<f64> = Vec::new();
    let mut best: Option<(DesignPoint, Evaluation)> = None;
    let mut p_min = f64::INFINITY; // P̄min: best simulated power so far
    let mut iterations = 0u32;
    let mut candidates_proposed = 0u64;
    let mut prior_sims = 0u64;
    if let Some(cp) = resume {
        // Replay the saved state: the cut ladder reproduces the MILP's
        // admissible region, the incumbent reproduces P̄min and the bound
        // test, and the counters make reported totals cumulative.
        for &cut in &cp.cuts {
            encoding.add_power_cut(cut);
            cuts.push(cut);
        }
        best = cp.best;
        p_min = cp.best.map_or(f64::INFINITY, |(_, e)| e.power_mw);
        iterations = cp.iterations;
        candidates_proposed = cp.candidates_proposed;
        prior_sims = cp.simulations;
    }
    let mut eval_errors = 0u64;
    let sims_before = evaluator.unique_evaluations();
    let sims_spent = |evaluator: &P| prior_sims + (evaluator.unique_evaluations() - sims_before);

    let stop_reason = loop {
        if exec.is_cancelled() {
            break StopReason::Cancelled;
        }
        // Graceful degradation: out of simulation budget means stop
        // *before* starting another level, keeping best-so-far intact.
        if options.budget.is_some_and(|b| sims_spent(evaluator) >= b) {
            break StopReason::BudgetExhausted;
        }
        let mut iter_span = hi_trace::span("algo1.iteration");
        if iter_span.is_recording() {
            iter_span.arg("iteration", u64::from(iterations) + 1);
        }
        // Line 3: (S, P̄*) <- RunMILP(P̃).
        let (pool, p_star) = {
            let _s = hi_trace::span("algo1.milp_query");
            encoding.solve_pool()?
        };
        iterations += 1;
        hi_trace::counter(wk::ALGO1_ITERATIONS, 1);
        hi_trace::histogram(wk::MILP_POOL_SIZE, pool.len() as u64);
        let Some(p_star) = p_star else {
            break StopReason::MilpExhausted; // lines 4 & 5 (S = {})
        };
        // Line 5: optimality proof via the α-corrected bound.
        if let Some((incumbent, _)) = &best {
            let a = if options.alpha_correction {
                alpha(incumbent, problem.pdr_min, &problem.app)
            } else {
                1.0
            };
            if p_star / a > p_min {
                break StopReason::BoundProven;
            }
        }
        candidates_proposed += pool.len() as u64;
        hi_trace::counter(wk::ALGO1_CANDIDATES, pool.len() as u64);

        // Line 7: RunSim(S); line 8: Sort. The reduction walks pool order,
        // so the level best (ties: lowest power, then first in pool order)
        // is independent of evaluation scheduling.
        let evals = {
            let mut s = hi_trace::span("algo1.eval_level");
            if s.is_recording() {
                s.arg("candidates", pool.len() as u64);
            }
            hi_trace::counter(wk::CORE_EVALS, pool.len() as u64);
            exec.try_eval_points(evaluator, &pool)
        };
        // A failed candidate is excluded from the level (it cannot be
        // elected incumbent) and counted, while every healthy candidate
        // still competes.
        let (level, failed) = settled(&pool, evals);
        eval_errors += failed;
        hi_trace::counter(wk::CORE_EVAL_ERRORS, failed);
        if exec.is_cancelled() {
            // A partially evaluated level could elect a wrong level-best;
            // discard it and report the incumbent so far.
            break StopReason::Cancelled;
        }
        // Lines 9-10: update the incumbent.
        if let Some((pt, ev)) = best_feasible(&level, problem.pdr_min) {
            if best.as_ref().is_none_or(|(_, b)| !improves(b, &ev)) {
                p_min = ev.power_mw;
                best = Some((pt, ev));
                hi_trace::counter(wk::ALGO1_INCUMBENTS, 1);
                hi_trace::instant_with("algo1.incumbent", || {
                    vec![
                        ("point", pt.to_string().into()),
                        ("power_mw", ev.power_mw.into()),
                        ("pdr", ev.pdr.into()),
                    ]
                });
            }
        }
        // Line 11: prune the current analytic level.
        {
            let mut s = hi_trace::span("algo1.prune");
            if s.is_recording() {
                s.arg("p_star_mw", p_star);
            }
            encoding.add_power_cut(p_star);
        }
        cuts.push(p_star);
        hi_trace::counter(wk::ALGO1_CUTS_ADDED, 1);
        if options
            .checkpoint_every
            .is_some_and(|k| k > 0 && iterations.is_multiple_of(k))
        {
            observer(&ExploreCheckpoint {
                engine: ENGINE_ALGORITHM1.to_string(),
                pdr_min: problem.pdr_min,
                alpha_correction: options.alpha_correction,
                cuts: cuts.clone(),
                iterations,
                candidates_proposed,
                simulations: sims_spent(evaluator),
                best,
            });
        }
    };

    Ok(ExplorationOutcome {
        best,
        iterations,
        candidates_proposed,
        simulations: sims_spent(evaluator),
        eval_errors,
        cuts,
        stop_reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::FnEvaluator;
    use crate::point::RouteChoice;
    use crate::power::analytic_power_mw;
    use hi_net::TxPower;

    /// A synthetic oracle with a paper-like reliability ladder:
    /// PDR grows with Tx power and with mesh redundancy; simulated power
    /// tracks the analytic value scaled slightly by PDR.
    fn ladder_oracle(point: &DesignPoint) -> Evaluation {
        let app = AppParams::default();
        let base = match point.tx_power {
            TxPower::Minus20Dbm => 0.45,
            TxPower::Minus10Dbm => 0.70,
            TxPower::ZeroDbm => 0.93,
        };
        let bonus = match point.routing {
            RouteChoice::Star => 0.0,
            RouteChoice::Mesh => 0.06 + 0.01 * (point.num_nodes() as f64 - 4.0),
        };
        let pdr = (base + bonus).min(1.0);
        let power = analytic_power_mw(point, &app) * (0.8 + 0.2 * pdr);
        Evaluation {
            pdr,
            nlt_days: 2430.0 / (power * 1e-3) / 86_400.0,
            power_mw: power,
            latency_ms: 2.0 + power,
        }
    }

    /// A sequential run with default options, no resume, no snapshots.
    fn explore_seq<P: PointEvaluator>(problem: &Problem, evaluator: &P) -> ExplorationOutcome {
        let exec = ExecContext::sequential();
        explore(
            problem,
            evaluator,
            ExploreOptions::default(),
            &exec,
            None,
            &mut |_| (),
        )
        .unwrap()
    }

    fn run(pdr_min: f64) -> (ExplorationOutcome, u64) {
        let problem = Problem::paper_default(pdr_min);
        let ev = FnEvaluator::new(ladder_oracle);
        let out = explore_seq(&problem, &ev);
        let sims = ev.unique_evaluations();
        (out, sims)
    }

    #[test]
    fn low_reliability_selects_cheapest_feasible_star() {
        let (out, _) = run(0.40);
        let (pt, ev) = out.best.expect("feasible");
        assert_eq!(pt.tx_power, TxPower::Minus20Dbm);
        assert_eq!(pt.routing, RouteChoice::Star);
        assert!(ev.pdr >= 0.40);
    }

    #[test]
    fn mid_reliability_raises_tx_power() {
        let (out, _) = run(0.60);
        let (pt, _) = out.best.unwrap();
        assert_eq!(pt.tx_power, TxPower::Minus10Dbm);
        assert_eq!(pt.routing, RouteChoice::Star);
    }

    #[test]
    fn high_reliability_switches_to_mesh() {
        let (out, _) = run(0.97);
        let (pt, _) = out.best.unwrap();
        assert_eq!(pt.routing, RouteChoice::Mesh);
    }

    #[test]
    fn full_reliability_needs_bigger_mesh() {
        let (out, _) = run(1.0);
        let (pt, ev) = out.best.unwrap();
        assert_eq!(pt.routing, RouteChoice::Mesh);
        assert!(pt.num_nodes() >= 5, "oracle caps 4-node mesh below 100%");
        assert_eq!(ev.pdr, 1.0);
    }

    #[test]
    fn impossible_reliability_reported_infeasible() {
        // Oracle never exceeds 1.0 but a floor above every reachable pdr:
        let problem = Problem::paper_default(1.0);
        let ev = FnEvaluator::new(|p: &DesignPoint| {
            let mut e = ladder_oracle(p);
            e.pdr = e.pdr.min(0.99); // nothing reaches 1.0
            e
        });
        let out = explore_seq(&problem, &ev);
        assert!(out.best.is_none());
        assert_eq!(out.stop_reason, StopReason::MilpExhausted);
    }

    #[test]
    fn explores_fewer_points_than_exhaustive() {
        let (out, sims) = run(0.60);
        assert!(out.is_feasible());
        // The paper reports an 87% reduction; our oracle ladder stops
        // after a couple of levels out of 1320 points.
        assert!(
            sims < 1320 / 4,
            "Algorithm 1 simulated {sims} of 1320 points"
        );
        assert_eq!(out.simulations, sims);
    }

    #[test]
    fn terminates_soon_after_first_feasible_level() {
        // The paper observes termination shortly after the first feasible
        // configuration appears; with the ladder oracle the bound fires.
        let (out, _) = run(0.60);
        assert_eq!(out.stop_reason, StopReason::BoundProven);
        assert!(out.iterations <= 8, "iterations = {}", out.iterations);
    }

    #[test]
    fn optimum_maximizes_nlt_among_feasible_points() {
        // Brute-force the oracle over the whole space and compare.
        let problem = Problem::paper_default(0.9);
        let ev = FnEvaluator::new(ladder_oracle);
        let out = explore_seq(&problem, &ev);
        let (_, got) = out.best.unwrap();

        let best_nlt = problem
            .space
            .points()
            .into_iter()
            .map(|p| ladder_oracle(&p))
            .filter(|e| e.pdr >= 0.9)
            .map(|e| e.nlt_days)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (got.nlt_days - best_nlt).abs() < 1e-9,
            "algorithm {} vs exhaustive {}",
            got.nlt_days,
            best_nlt
        );
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn problem_validates_pdr_min() {
        let _ = Problem::paper_default(1.2);
    }
}
