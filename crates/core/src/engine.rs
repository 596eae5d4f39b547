//! Engine selection and dispatch: the one place a search engine is
//! named, parsed and run.
//!
//! [`Engine`] is what `hi-opt explore --engine` and a `hi-serve`
//! profile's `engine` line parse into, and its [label](Engine::label) is
//! the name a checkpoint header records. [`Engine::run`] dispatches to
//! the four searches — Algorithm 1 ([`explore`](crate::explore)), the
//! exhaustive sweep ([`exhaustive_search`]), the Γ-robust MILP
//! ([`robust_milp_search`]) and the ILP heuristic
//! ([`ilp_heuristic_search`]) — and returns one
//! [`EngineOutcome`] for all of them. Before a robust run,
//! [`Engine::check_robustness`] derives the Γ-robustness specification
//! from the fault suite and lints it (HL048/HL049).

use std::fmt;

use hi_lint::{lint_robustness, Report, RobustnessLintSpec};

use crate::algorithm1::{
    explore_from, ExplorationOutcome, ExploreError, ExploreOptions, Problem, StopReason,
};
use crate::checkpoint::ExploreCheckpoint;
use crate::evaluator::PointEvaluator;
use crate::exhaustive::exhaustive_search;
use crate::ilp_heuristic::ilp_heuristic_search;
use crate::milp_encode::{MilpEncoding, MilpRoot};
use crate::parallel::ExecContext;
use crate::robust::FaultSuite;
use crate::robust_milp::robust_milp_search;
use crate::robustness::RobustnessSpec;

/// A search engine and its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The paper's Algorithm 1: the MILP cut ladder, every candidate of
    /// a level simulated.
    Algorithm1,
    /// Every point of the design space simulated (the paper's baseline).
    Exhaustive,
    /// The Γ-robust MILP counterpart: per-link deviation bounds priced
    /// into the MILP, only each level's witness simulated.
    RobustMilp {
        /// The deviation budget Γ; `None` runs the default of 1.
        gamma: Option<u32>,
    },
    /// The ILP restriction-and-repair heuristic over the robust model.
    IlpHeuristic {
        /// The deviation budget Γ; `None` runs the default of 1.
        gamma: Option<u32>,
    },
}

impl Engine {
    /// Every engine, Γ unset.
    pub const ALL: [Engine; 4] = [
        Engine::Algorithm1,
        Engine::Exhaustive,
        Engine::RobustMilp { gamma: None },
        Engine::IlpHeuristic { gamma: None },
    ];

    /// The engine named `name` (its [label](Self::label)), Γ unset.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|engine| engine.label() == name)
    }

    /// The engine's name: the profile keyword, the `--engine` value and
    /// the `engine` line of the checkpoints it records. The names are on
    /// disk, so they never change.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Algorithm1 => "algorithm1",
            Engine::Exhaustive => "exhaustive",
            Engine::RobustMilp { .. } => "robust-milp",
            Engine::IlpHeuristic { .. } => "ilp-heuristic",
        }
    }

    /// The Γ set on a robust engine; `None` when unset or nominal.
    pub fn gamma(self) -> Option<u32> {
        match self {
            Engine::RobustMilp { gamma } | Engine::IlpHeuristic { gamma } => gamma,
            Engine::Algorithm1 | Engine::Exhaustive => None,
        }
    }

    /// This engine with Γ set, or `None` for an engine that prices no
    /// deviations.
    pub fn with_gamma(self, gamma: u32) -> Option<Self> {
        match self {
            Engine::RobustMilp { .. } => Some(Engine::RobustMilp { gamma: Some(gamma) }),
            Engine::IlpHeuristic { .. } => Some(Engine::IlpHeuristic { gamma: Some(gamma) }),
            Engine::Algorithm1 | Engine::Exhaustive => None,
        }
    }

    /// Whether the engine climbs a cut ladder: it checkpoints, resumes
    /// from a checkpoint and reports why it stopped. Only the exhaustive
    /// sweep does none of these.
    pub fn resumes(self) -> bool {
        self != Engine::Exhaustive
    }

    /// The Γ-robustness specification this engine runs under, derived
    /// from `suite`: `None` for the nominal engines, and a degenerate
    /// specification (no protected link) when there is no suite.
    pub fn robustness(self, suite: Option<&FaultSuite>) -> Option<RobustnessSpec> {
        let gamma = match self {
            Engine::RobustMilp { gamma } | Engine::IlpHeuristic { gamma } => gamma.unwrap_or(1),
            Engine::Algorithm1 | Engine::Exhaustive => return None,
        };
        Some(match suite {
            Some(suite) => RobustnessSpec::from_suite(suite, gamma),
            None => RobustnessSpec {
                gamma,
                deviations: Vec::new(),
            },
        })
    }

    /// The robust-spec step every front end runs before a robust search:
    /// the [specification](Self::robustness) and its HL048/HL049
    /// findings. A degenerate specification (`is_degenerate`) runs as
    /// plain Algorithm 1; any other with error findings is refused.
    /// `None` for the nominal engines.
    pub fn check_robustness(self, suite: Option<&FaultSuite>) -> Option<(RobustnessSpec, Report)> {
        let spec = self.robustness(suite)?;
        let report = lint_robustness(&RobustnessLintSpec {
            gamma: i64::from(spec.gamma),
            protected_links: spec.deviations.len(),
            deviation_bounds: spec.deviations.iter().map(|d| d.delta_db).collect(),
            robust_engine: true,
            suite_scenarios: suite.map_or(0, FaultSuite::len),
        });
        Some((spec, report))
    }

    /// Runs this engine on `problem` through `evaluator`.
    ///
    /// `spec` is the robust engines' specification; a robust engine with
    /// no specification or a degenerate one runs Algorithm 1 bit for
    /// bit, and the nominal engines ignore it. Algorithm 1 starts from a
    /// clone of `root`'s solved encoding when there is one, and from a
    /// fresh encoding otherwise, with the same outcome bit for bit.
    /// `resume` and `observer` serve the engines that
    /// [resume](Self::resumes); the exhaustive sweep ignores them and
    /// `options`.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Checkpoint`] on a resume checkpoint
    /// recorded by another engine or under different problem/options,
    /// and [`ExploreError::Milp`] if the solver fails.
    #[allow(clippy::too_many_arguments)]
    pub fn run<P: PointEvaluator>(
        self,
        problem: &Problem,
        evaluator: &P,
        spec: Option<&RobustnessSpec>,
        root: Option<&MilpRoot>,
        exec: &ExecContext,
        options: ExploreOptions,
        resume: Option<&ExploreCheckpoint>,
        observer: &mut dyn FnMut(&ExploreCheckpoint),
    ) -> Result<EngineOutcome, ExploreError> {
        let robust = spec.filter(|spec| !spec.is_degenerate());
        let (outcome, price_mw, repairs) = match (self, robust) {
            (Engine::Exhaustive, _) => {
                let sweep = exhaustive_search(problem, evaluator, exec);
                let outcome = ExplorationOutcome {
                    best: sweep.best,
                    iterations: 0,
                    candidates_proposed: sweep.evaluations.len() as u64 + sweep.eval_errors,
                    simulations: sweep.simulations,
                    eval_errors: sweep.eval_errors,
                    cuts: Vec::new(),
                    stop_reason: if exec.is_cancelled() {
                        StopReason::Cancelled
                    } else {
                        StopReason::MilpExhausted
                    },
                };
                (outcome, None, None)
            }
            (Engine::RobustMilp { .. }, Some(spec)) => {
                let run =
                    robust_milp_search(problem, spec, evaluator, options, exec, resume, observer)?;
                (
                    run.outcome,
                    run.nominal_power_mw.zip(run.robust_power_mw),
                    None,
                )
            }
            (Engine::IlpHeuristic { .. }, Some(spec)) => {
                let run = ilp_heuristic_search(
                    problem, spec, evaluator, options, exec, resume, observer,
                )?;
                let price_mw = run.nominal_power_mw.zip(run.robust_power_mw);
                (run.outcome, price_mw, Some(run.repairs))
            }
            // Algorithm 1, and a robust engine with nothing to price: the
            // robust searches would delegate to it bit for bit anyway.
            _ => {
                let (constraints, app) = (problem.space.constraints(), &problem.app);
                let encoding = match root {
                    Some(root) => root.encoding(constraints, app)?,
                    None => MilpEncoding::new(constraints, app),
                };
                let outcome = explore_from(
                    encoding, problem, evaluator, options, exec, resume, observer,
                )?;
                (outcome, None, None)
            }
        };
        Ok(EngineOutcome {
            outcome,
            price_mw,
            repairs,
        })
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What [`Engine::run`] returns, for every engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutcome {
    /// The search result. An exhaustive sweep reports 0 iterations, every
    /// enumerated point (evaluated or failed) as a candidate, no cuts,
    /// and [`StopReason::MilpExhausted`] unless it was cancelled.
    pub outcome: ExplorationOutcome,
    /// The price of robustness, `(nominal, robust)` in mW: the nominal
    /// MILP optimum and the accepted witness's robust objective. Only a
    /// robust search that has both sets it.
    pub price_mw: Option<(f64, f64)>,
    /// Pinned sites the ILP heuristic freed; `None` for the other
    /// engines.
    pub repairs: Option<u32>,
}
