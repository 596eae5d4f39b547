//! `ladder`: the nominal Algorithm 1 tradeoff sweep over the default
//! reliability floors.
//!
//! Why: the discrete-event simulator does almost all of the work (1,416
//! replications against ~40 small MILP solves), floors share evaluations
//! through the cache, and it is the only workload where the `hi-exec`
//! pool has parallel work.

use std::time::Instant;

use hi_core::{
    explore_tradeoff_par, ExecContext, MilpEncoding, PointEvaluator, Problem, SharedSimEvaluator,
    SimProtocol, TradeoffPoint,
};
use hi_des::SimDuration;

use crate::engine;
use crate::timed::Timed;
use crate::{lint_time, Rep, Workload};

/// The default floors of `hi-opt tradeoff`.
pub const FLOORS: [f64; 7] = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99];
const T_SIM_S: f64 = 20.0;
const RUNS: u32 = 2;
const WORKERS: usize = 2;

pub struct Ladder {
    seed: u64,
    lint_one_s: f64,
}

/// Everything a caller builds before the first `explore_tradeoff_par`.
struct Setup {
    exec: ExecContext,
    evaluator: SharedSimEvaluator,
    template: Problem,
}

impl Ladder {
    pub fn new(seed: u64) -> Self {
        let template = Problem::paper_default(FLOORS[0]);
        let encoding = MilpEncoding::new(template.space.constraints(), &template.app);
        Self {
            seed,
            lint_one_s: lint_time(encoding.model()),
        }
    }

    fn setup(&self, collector: &hi_trace::Collector) -> Setup {
        let protocol = SimProtocol::new(SimDuration::from_secs(T_SIM_S), RUNS, self.seed);
        Setup {
            exec: ExecContext::new(WORKERS).with_collector(collector.clone()),
            evaluator: protocol.shared_evaluator(),
            template: Problem::paper_default(FLOORS[0]),
        }
    }
}

/// One floor at a time, so the timing wrapper knows the floor each
/// evaluation is judged against; the shared evaluator carries the cache
/// across floors exactly as a single multi-floor call does.
fn sweep<P: PointEvaluator>(
    setup: &Setup,
    evaluator: &P,
    on_floor: impl Fn(f64),
) -> Vec<Result<TradeoffPoint, String>> {
    FLOORS
        .iter()
        .map(|&floor| {
            on_floor(floor);
            explore_tradeoff_par(&setup.template, &[floor], evaluator, &setup.exec)
                .map_err(|e| e.to_string())
                .and_then(|mut points| points.pop().ok_or_else(|| "no tradeoff point".into()))
        })
        .collect()
}

impl Workload for Ladder {
    fn setup_only(&mut self) -> Option<f64> {
        let collector = engine::collector(false);
        let t0 = Instant::now();
        let setup = self.setup(&collector);
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
        let setup = self.setup(&collector);
        let setup_s = t0.elapsed().as_secs_f64();
        let timed = Timed::new(setup.evaluator.clone());
        let solved = engine::solve(&collector, || {
            if traced {
                sweep(&setup, &timed, |floor| timed.stats().set_floor(floor))
            } else {
                sweep(&setup, &setup.evaluator, |_| {})
            }
        });
        setup.exec.flush_pool_stats();
        let registry = engine::registry(&collector);
        let counts = engine::counts(registry);

        let mut rep = Rep::new(setup_s, solved.solve_s, solved.proc, counts);
        rep.answer_simulations = counts.simulations;
        rep.attempted = FLOORS.len() as u64;
        // The sweep is the job a user waits for: most floors after the
        // first are answered from the cache in milliseconds.
        rep.jobs_s.push(solved.solve_s);
        let mut prev_power = f64::NEG_INFINITY;
        for (floor, point) in FLOORS.iter().zip(&solved.value) {
            let (design, eval) = match point {
                Ok(TradeoffPoint {
                    best: Some(best), ..
                }) => best,
                Ok(_) => {
                    rep.fail(format!("floor {floor}: no feasible design"));
                    continue;
                }
                Err(e) => {
                    rep.fail(format!("floor {floor}: {e}"));
                    continue;
                }
            };
            if eval.pdr < *floor {
                rep.fail(format!(
                    "floor {floor}: design PDR {} is below it",
                    eval.pdr
                ));
            }
            if eval.power_mw < prev_power {
                rep.fail(format!(
                    "floor {floor}: power {} mW is below the previous floor's {prev_power} mW",
                    eval.power_mw
                ));
            }
            prev_power = eval.power_mw;
            rep.design_power_mw += eval.power_mw;
            rep.outputs.push_str(&format!(
                "floor {floor} design {:016x} {design} power_mw {:016x} pdr {:016x}\n",
                design.fingerprint(),
                eval.power_mw.to_bits(),
                eval.pdr.to_bits()
            ));
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
