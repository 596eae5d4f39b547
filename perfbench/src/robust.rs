//! `robust`: the Γ-robust MILP engine on the demo fault suite.
//!
//! Why: the MILP does almost all of the work (18 solves, ~143k pivots,
//! ~2.5k branch-and-bound nodes against 136 replications), so it is the
//! workload that a solver change moves and a simulator change does not.

use std::time::Instant;

use hi_core::{
    parse_fault_suite, robust_milp_search, ExecContext, ExploreOptions, MilpEncoding, Problem,
    RobustEvaluator, RobustMode, RobustOutcome, RobustnessSpec, SimProtocol,
};
use hi_des::SimDuration;

use crate::engine;
use crate::timed::Timed;
use crate::{lint_time, Rep, Workload};

/// Read from the checkout root, as a user would pass it to
/// `hi-opt explore --faults`.
const SUITE_PATH: &str = "scenarios/demo.suite";
const GAMMA: u32 = 2;
const FLOOR: f64 = 0.8;
/// Two 20 s replications per evaluation, as in `ladder`. With one 5 s
/// replication the witnesses near the floor pass or fail by chance and
/// the search runs 17 to 19 levels depending on the seed, which swings
/// the MILP work by half; at this protocol every seed tried runs 17.
const T_SIM_S: f64 = 20.0;
const RUNS: u32 = 2;
const WORKERS: usize = 1;

pub struct Robust {
    seed: u64,
    lint_one_s: f64,
}

/// Everything a caller builds before the first `robust_milp_search`:
/// the suite read, parsed and linted, and the robustness spec derived
/// from it and linted.
struct Setup {
    spec: RobustnessSpec,
    evaluator: RobustEvaluator,
}

impl Robust {
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut workload = Self {
            seed,
            lint_one_s: 0.0,
        };
        let setup = workload.setup()?;
        let problem = Problem::paper_default(FLOOR);
        let encoding =
            MilpEncoding::new_robust(problem.space.constraints(), &problem.app, &setup.spec);
        workload.lint_one_s = lint_time(encoding.model());
        Ok(workload)
    }

    fn setup(&self) -> Result<Setup, String> {
        let text = std::fs::read_to_string(SUITE_PATH)
            .map_err(|e| format!("cannot read `{SUITE_PATH}`: {e}"))?;
        let (suite, windows) =
            parse_fault_suite(&text).map_err(|e| format!("`{SUITE_PATH}`: {e:?}"))?;
        // Site 0 (chest) is the hub of every star candidate, as in the CLI.
        let report = hi_lint::lint_faults(&windows, T_SIM_S, Some(0));
        if report.has_errors() {
            return Err(format!("`{SUITE_PATH}` fails lint:\n{report}"));
        }
        let spec = RobustnessSpec::from_suite(&suite, GAMMA);
        let report = hi_lint::lint_robustness(&hi_lint::RobustnessLintSpec {
            gamma: i64::from(spec.gamma),
            protected_links: spec.deviations.len(),
            deviation_bounds: spec.deviations.iter().map(|d| d.delta_db).collect(),
            robust_engine: true,
            suite_scenarios: suite.len(),
        });
        if report.has_errors() || spec.is_degenerate() {
            return Err(format!("`{SUITE_PATH}` gives no robust model:\n{report}"));
        }
        let protocol = SimProtocol::new(SimDuration::from_secs(T_SIM_S), RUNS, self.seed);
        Ok(Setup {
            spec,
            evaluator: RobustEvaluator::new(protocol, suite, RobustMode::WorstCase),
        })
    }
}

impl Workload for Robust {
    fn setup_only(&mut self) -> Option<f64> {
        let t0 = Instant::now();
        let setup = self.setup();
        let setup_s = t0.elapsed().as_secs_f64();
        drop(setup);
        Some(setup_s)
    }

    fn threads(&self) -> usize {
        WORKERS
    }

    fn rep(&mut self, traced: bool) -> Result<Rep, String> {
        let collector = engine::collector(traced);
        let t0 = Instant::now();
        let setup = self.setup()?;
        let setup_s = t0.elapsed().as_secs_f64();
        let exec = ExecContext::new(WORKERS).with_collector(collector.clone());
        let problem = Problem::paper_default(FLOOR);
        let timed = Timed::new(setup.evaluator.clone());
        timed.stats().set_floor(FLOOR);
        let options = ExploreOptions::default();
        let solved = engine::solve(&collector, || {
            if traced {
                robust_milp_search(
                    &problem,
                    &setup.spec,
                    &timed,
                    options,
                    &exec,
                    None,
                    &mut |_| {},
                )
            } else {
                let evaluator = &setup.evaluator;
                robust_milp_search(
                    &problem,
                    &setup.spec,
                    evaluator,
                    options,
                    &exec,
                    None,
                    &mut |_| {},
                )
            }
        });
        let registry = engine::registry(&collector);
        let counts = engine::counts(registry);

        let mut rep = Rep::new(setup_s, solved.solve_s, solved.proc, counts);
        rep.answer_simulations = counts.simulations;
        rep.attempted = 1;
        rep.jobs_s.push(solved.solve_s);
        match &solved.value {
            Ok(outcome) => self.check(&setup.evaluator, outcome, &mut rep),
            Err(e) => rep.fail(format!("robust search failed: {e}")),
        }
        rep.outputs
            .push_str(&format!("simulations {}\n", counts.simulations));
        if let Some(spans) = &solved.spans {
            let evaluator = timed.inner();
            rep.layers = engine::layers(
                registry,
                spans,
                timed.stats(),
                solved.solve_s,
                WORKERS,
                self.lint_one_s,
                (evaluator.cache_hits(), evaluator.cache_misses()),
            );
            rep.spans = Some(spans.clone());
        }
        Ok(rep)
    }
}

impl Robust {
    /// The returned design survives every scenario at the floor, and
    /// robustness costs power rather than saving it.
    fn check(&self, evaluator: &RobustEvaluator, outcome: &RobustOutcome, rep: &mut Rep) {
        let Some((design, eval)) = outcome.outcome.best else {
            rep.fail("no robust design at the floor".into());
            return;
        };
        match evaluator.try_robust_eval(&design) {
            Ok(card) if card.worst_case().pdr >= FLOOR => {}
            Ok(card) => rep.fail(format!(
                "worst-scenario PDR {} is below the floor {FLOOR}",
                card.worst_case().pdr
            )),
            Err(e) => rep.fail(format!("scorecard of {design} failed: {e}")),
        }
        match (outcome.nominal_power_mw, outcome.robust_power_mw) {
            (Some(nominal), Some(robust)) if robust >= nominal => {}
            (nominal, robust) => rep.fail(format!(
                "robust power {robust:?} mW is not at least nominal power {nominal:?} mW"
            )),
        }
        rep.design_power_mw = eval.power_mw;
        rep.outputs.push_str(&format!(
            "design {:016x} {design} power_mw {:016x} pdr {:016x} nominal_mw {:016x} robust_mw {:016x}\n",
            design.fingerprint(),
            eval.power_mw.to_bits(),
            eval.pdr.to_bits(),
            outcome.nominal_power_mw.unwrap_or(f64::NAN).to_bits(),
            outcome.robust_power_mw.unwrap_or(f64::NAN).to_bits(),
        ));
    }
}
