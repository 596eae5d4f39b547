//! The Γ-robust MILP engine: robustness in the formulation, simulation
//! only to verify.
//!
//! Where Algorithm 1 simulates the MILP's whole optimal pool at every
//! power level (and PR 3's `--robust worst` multiplies that by the fault
//! suite), this engine solves the Bertsimas–Sim robust counterpart
//! ([`MilpEncoding::new_robust`]) and simulates **only the witness** of
//! each robust level: the inner Γ adversary is priced into the objective,
//! so a witness is already margin-hardened before the first simulation
//! runs. The ladder climbs robust objective values by excluding each
//! disproven witness ([`MilpEncoding::exclude_point`] — an
//! objective-threshold cut would be unsound, because the dualization's
//! free duals can inflate past any demanded value) until a witness's
//! evaluation clears the PDR floor — with a worst-case
//! [`RobustEvaluator`](crate::RobustEvaluator) behind the oracle, that is
//! "every scenario survives", at `1 + suite.len()` simulation sets per
//! level instead of `pool × (1 + suite.len())`.
//!
//! Budget / checkpoint / cancel support mirrors Algorithm 1's: the cut
//! ladder replays into a fresh robust encoding, so checkpoint-and-resume
//! is bit-identical to a straight-through run. A degenerate
//! [`RobustnessSpec`] (Γ = 0 or an empty fault suite) delegates to
//! [`explore`] verbatim — nominal behavior, bit for bit.

use hi_trace::wellknown as wk;

use crate::algorithm1::{
    explore, ExplorationOutcome, ExploreError, ExploreOptions, Problem, StopReason,
};
use crate::checkpoint::{validate_resume, ExploreCheckpoint, ENGINE_ROBUST_MILP};
use crate::evaluator::PointEvaluator;
use crate::milp_encode::MilpEncoding;
use crate::parallel::ExecContext;
use crate::robustness::RobustnessSpec;

/// The result of a robust-engine run: the ordinary exploration outcome
/// plus the price-of-robustness ingredients.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustOutcome {
    /// The exploration outcome, shaped exactly like Algorithm 1's so the
    /// CLI, checkpoints, the fleet service and the Pareto archive consume
    /// it unchanged.
    pub outcome: ExplorationOutcome,
    /// The *nominal* MILP optimum (no deviations priced), mW — the
    /// baseline of the price-of-robustness line. `None` if even the
    /// nominal model is infeasible. Costs one MILP solve, zero
    /// simulations.
    pub nominal_power_mw: Option<f64>,
    /// The robust objective (nominal + Γ-deviation margin) of the
    /// accepted witness, mW. `None` when no witness was accepted.
    pub robust_power_mw: Option<f64>,
    /// Repair steps performed (ILP heuristic only: sites released after a
    /// restricted model went infeasible). Always 0 for the robust MILP.
    pub repairs: u32,
}

impl RobustOutcome {
    /// Wraps a plain exploration outcome (degenerate-spec delegation).
    pub(crate) fn degenerate(outcome: ExplorationOutcome) -> Self {
        Self {
            outcome,
            nominal_power_mw: None,
            robust_power_mw: None,
            repairs: 0,
        }
    }
}

/// The witness ladder shared by both robust engines.
///
/// `repair_queue` holds the sites the ILP heuristic may release (in
/// order) when the restricted model goes infeasible; the robust MILP
/// passes an empty queue. Iteration counting is pinned for determinism
/// across checkpoint/resume: only solves that *yield a witness* plus the
/// final exhausting solve count — repair-triggering infeasible solves do
/// not, because a resumed run replays the whole cut ladder first and then
/// performs the pending repairs back to back.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_witness_ladder<P: PointEvaluator>(
    problem: &Problem,
    options: ExploreOptions,
    evaluator: &P,
    exec: &ExecContext,
    resume: Option<&ExploreCheckpoint>,
    observer: &mut dyn FnMut(&ExploreCheckpoint),
    encoding: &mut MilpEncoding,
    mut repair_queue: Vec<usize>,
    engine: &'static str,
) -> Result<(ExplorationOutcome, Option<f64>, u32), ExploreError> {
    let mut cuts: Vec<f64> = Vec::new();
    let mut best = None;
    let mut robust_power = None;
    let mut iterations = 0u32;
    let mut candidates_proposed = 0u64;
    let mut prior_sims = 0u64;
    let mut eval_errors = 0u64;
    let mut repairs = 0u32;
    if let Some(cp) = resume {
        // Replay the ladder: each recorded level is a witness that was
        // disproven. The solver is deterministic, so re-solving and
        // re-excluding reproduces the exact model state — including any
        // repairs an infeasible restricted model forced along the way —
        // with zero fresh simulations.
        while cuts.len() < cp.cuts.len() {
            match encoding.solve_witness()? {
                Some((point, robust_mw)) => {
                    encoding.exclude_point(&point);
                    cuts.push(robust_mw);
                }
                None => {
                    let Some(site) = (!repair_queue.is_empty()).then(|| repair_queue.remove(0))
                    else {
                        break;
                    };
                    encoding.free_site(site);
                    repairs += 1;
                }
            }
        }
        best = cp.best;
        iterations = cp.iterations;
        candidates_proposed = cp.candidates_proposed;
        prior_sims = cp.simulations;
    }
    let sims_before = evaluator.unique_evaluations();
    let sims_spent = |evaluator: &P| prior_sims + (evaluator.unique_evaluations() - sims_before);

    let stop_reason = loop {
        if exec.is_cancelled() {
            break StopReason::Cancelled;
        }
        // A resumed final checkpoint already carries the accepted design:
        // nothing left to search.
        if best.is_some() {
            break StopReason::BoundProven;
        }
        if options.budget.is_some_and(|b| sims_spent(evaluator) >= b) {
            break StopReason::BudgetExhausted;
        }
        let witness = {
            let _s = hi_trace::span("robust.milp_query");
            encoding.solve_witness()?
        };
        let Some((point, robust_mw)) = witness else {
            if let Some(site) = (!repair_queue.is_empty()).then(|| repair_queue.remove(0)) {
                // Deterministic repair: release the lowest-index pinned
                // site and re-solve (the cut ladder stays in force).
                encoding.free_site(site);
                repairs += 1;
                continue;
            }
            iterations += 1;
            hi_trace::counter(wk::ALGO1_ITERATIONS, 1);
            break StopReason::MilpExhausted;
        };
        iterations += 1;
        candidates_proposed += 1;
        hi_trace::counter(wk::ALGO1_ITERATIONS, 1);
        hi_trace::counter(wk::ALGO1_CANDIDATES, 1);
        // Verification pass: simulate *only* the witness.
        hi_trace::counter(wk::CORE_EVALS, 1);
        let evals = exec.try_eval_points(evaluator, std::slice::from_ref(&point));
        if exec.is_cancelled() {
            break StopReason::Cancelled;
        }
        match evals.into_iter().next().flatten() {
            Some(Ok(eval)) if eval.pdr >= problem.pdr_min => {
                best = Some((point, eval));
                robust_power = Some(robust_mw);
                hi_trace::counter(wk::ALGO1_INCUMBENTS, 1);
                break StopReason::BoundProven;
            }
            Some(Ok(_)) => {} // verified infeasible: cut the level, climb
            Some(Err(_)) => {
                // Degraded candidate: count it, cut the level, carry on.
                eval_errors += 1;
                hi_trace::counter(wk::CORE_EVAL_ERRORS, 1);
            }
            None => break StopReason::Cancelled,
        }
        encoding.exclude_point(&point);
        cuts.push(robust_mw);
        hi_trace::counter(wk::ALGO1_CUTS_ADDED, 1);
        if options
            .checkpoint_every
            .is_some_and(|k| k > 0 && iterations.is_multiple_of(k))
        {
            observer(&ExploreCheckpoint {
                engine: engine.to_string(),
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

    Ok((
        ExplorationOutcome {
            best,
            iterations,
            candidates_proposed,
            simulations: sims_spent(evaluator),
            eval_errors,
            cuts,
            stop_reason,
        },
        robust_power,
        repairs,
    ))
}

/// Runs the Γ-robust MILP engine (see the [module docs](self)).
///
/// A degenerate `spec` delegates to [`explore`] bit for bit.
/// The ladder accepts the first witness whose (evaluator-aggregated)
/// evaluation clears `problem.pdr_min` — put a worst-case
/// [`RobustEvaluator`](crate::RobustEvaluator) behind `evaluator` to make
/// acceptance mean "survives every scenario".
///
/// # Errors
///
/// Returns [`ExploreError::Checkpoint`] on a resume checkpoint recorded
/// by another engine or under different problem/options, and
/// [`ExploreError::Milp`] if the solver fails.
pub fn robust_milp_search<P: PointEvaluator>(
    problem: &Problem,
    spec: &RobustnessSpec,
    evaluator: &P,
    options: ExploreOptions,
    exec: &ExecContext,
    resume: Option<&ExploreCheckpoint>,
    observer: &mut dyn FnMut(&ExploreCheckpoint),
) -> Result<RobustOutcome, ExploreError> {
    if spec.is_degenerate() {
        return explore(problem, evaluator, options, exec, resume, observer)
            .map(RobustOutcome::degenerate);
    }
    validate_resume(resume, ENGINE_ROBUST_MILP, problem, options)?;
    let constraints = problem.space.constraints();
    // The price-of-robustness baseline: one nominal solve, zero sims.
    let nominal_power_mw = MilpEncoding::new(constraints, &problem.app)
        .solve_witness()?
        .map(|(_, p)| p);
    let mut encoding = MilpEncoding::new_robust(constraints, &problem.app, spec);
    let (outcome, robust_power_mw, repairs) = run_witness_ladder(
        problem,
        options,
        evaluator,
        exec,
        resume,
        observer,
        &mut encoding,
        Vec::new(),
        ENGINE_ROBUST_MILP,
    )?;
    Ok(RobustOutcome {
        outcome,
        nominal_power_mw,
        robust_power_mw,
        repairs,
    })
}
