//! The ILP restriction-and-repair heuristic: robust-MILP quality at a
//! fraction of the solve time.
//!
//! The full Γ-robust counterpart ([`robust_milp_search`]) prices every
//! protected link into one MILP. This heuristic shrinks that model
//! first:
//!
//! 1. **Restrict** — solve the *nominal* MILP once (analytic, zero
//!    simulations) and pin every body site the fault suite does not
//!    target to its nominal occupancy. Targeted sites — those with at
//!    least two [`DEVIATION_CAP_DB`]-sized bounds on their links
//!    (blackouts, outages, depletions) — stay free: those are the
//!    decisions robustness can actually flip.
//! 2. **Solve** the robust counterpart on the restricted model with the
//!    shared witness ladder — same budget / checkpoint / cancel /
//!    verification contract as the full engine.
//! 3. **Repair** — if the restricted model goes infeasible with pins
//!    remaining, release the lowest-index pinned site and re-solve.
//!    The repair order is a deterministic function of the cut ladder, so
//!    checkpoint-resumed runs replay it bit-identically.
//!
//! The restriction removes integer branching on the pinned sites, so the
//! heuristic is faster per level; because the pins come from the nominal
//! optimum, its objective stays within a few percent of the full robust
//! MILP on realistic suites (gated in CI at 5% on the demo scenario).

use hi_channel::BodyLocation;

use crate::algorithm1::{explore, ExploreError, ExploreOptions, Problem};
use crate::checkpoint::{validate_resume, ExploreCheckpoint};
use crate::engine::Engine;
use crate::evaluator::PointEvaluator;
use crate::milp_encode::MilpEncoding;
use crate::parallel::ExecContext;
use crate::robust_milp::{robust_milp_search, run_witness_ladder, RobustOutcome};
use crate::robustness::{RobustnessSpec, DEVIATION_CAP_DB};

/// Runs the restriction-and-repair heuristic: pins the sites the fault
/// suite does not target to the nominal optimum, solves the robust
/// counterpart on the rest, and frees pins while the restricted model is
/// infeasible.
///
/// A degenerate `spec` delegates to plain Algorithm 1 bit for bit. If
/// the nominal model is already infeasible there is nothing to restrict
/// and the call falls back to [`robust_milp_search`] on the full model.
///
/// # Errors
///
/// Returns [`ExploreError::Checkpoint`] on a resume checkpoint recorded
/// by another engine or under different problem/options, and
/// [`ExploreError::Milp`] if the solver fails.
pub fn ilp_heuristic_search<P: PointEvaluator>(
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
    let engine = Engine::IlpHeuristic {
        gamma: Some(spec.gamma),
    };
    validate_resume(resume, engine, problem, options)?;
    let constraints = problem.space.constraints();
    // Step 1: the nominal witness seeds both the restriction and the
    // price-of-robustness baseline. One MILP solve, zero simulations.
    let Some((nominal, nominal_mw)) =
        MilpEncoding::new(constraints, &problem.app).solve_witness()?
    else {
        // Nothing to restrict around: run the full robust model.
        return robust_milp_search(problem, spec, evaluator, options, exec, resume, observer);
    };
    // Fault-targeted sites are where robustness can flip the placement;
    // everything else gets pinned to the nominal optimum. A site with a
    // single capped link is merely the surviving endpoint of the *other*
    // site's death (an outage of s caps every (i, s) pair), so targeting
    // needs at least two capped links: dead sites accumulate one per
    // neighbor and blackout endpoints one per blackout plus the
    // bystander caps.
    let mut capped = [0usize; BodyLocation::COUNT];
    for d in &spec.deviations {
        if d.delta_db >= DEVIATION_CAP_DB {
            capped[d.site_a] += 1;
            capped[d.site_b] += 1;
        }
    }
    let heavy = |site: usize| capped[site] >= 2;
    let mut encoding = MilpEncoding::new_robust(constraints, &problem.app, spec);
    let mut pinned = Vec::new();
    for site in 0..BodyLocation::COUNT {
        if !heavy(site) {
            encoding.fix_site(site, nominal.placement.contains_index(site));
            pinned.push(site);
        }
    }
    let (outcome, robust_power_mw, repairs) = run_witness_ladder(
        problem,
        options,
        evaluator,
        exec,
        resume,
        observer,
        &mut encoding,
        pinned,
        engine,
    )?;
    Ok(RobustOutcome {
        outcome,
        nominal_power_mw: Some(nominal_mw),
        robust_power_mw,
        repairs,
    })
}
