//! Golden MILP outcomes: for every solve of the workspace's MILP loops,
//! the exact bits of the objective, the decoded design's fingerprint and
//! the exact `milp.pivots` and `milp.bb_nodes` counts.
//!
//! The loops covered are the ones the optimizer engines run:
//!
//! * the paper cut ladder of Algorithm 1, level by level, both cold (a
//!   fresh `Model::solve` of the cut-augmented model) and warm
//!   (`MilpEncoding::solve_pool` on the kept root tableau);
//! * the Γ-robust engine's witness ladder on the demo fault suite at
//!   Γ ∈ {1, 2, 3}, with its no-good cuts;
//! * the ILP restriction-and-repair heuristic's restricted solves on the
//!   same suite and Γ values.
//!
//! The solver is deterministic, so a changed pivot rule, tie-break or
//! floating-point operation order shows up here as a changed count or
//! bit. Performance work on the simplex kernel must leave this file and
//! `golden/milp.txt` untouched.
//!
//! The robust engines run under a stub evaluator that disproves every
//! witness, with a simulation budget that stops each ladder after
//! [`WITNESSES`] witnesses; no simulation runs. Each witness line counts
//! the solves since the previous witness (the engines' nominal solve and
//! any repair solves included).
//!
//! To regenerate the golden file after an *intended* behaviour change, run
//! `HI_GOLDEN_BLESS=1 cargo test -p hi-core --test golden_milp` and
//! review the diff.

use std::sync::{Arc, Mutex};

use hi_core::{
    ilp_heuristic_search, parse_fault_suite, robust_milp_search, DesignPoint, EvalError,
    Evaluation, ExecContext, ExploreOptions, MilpEncoding, PointEvaluator, Problem, RobustOutcome,
    RobustnessSpec, TopologyConstraints,
};
use hi_net::AppParams;
use hi_trace::{wellknown, Collector, MetricsRegistry};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/milp.txt");

/// `scenarios/demo.suite`, inlined so the crate's tests stay hermetic.
const DEMO_SUITE: &str = "\
scenario wrist reboot
outage 5 1 3

scenario torso shadowing
blackout 0 3 0.5 2.5
blackout 0 4 0.5 2.5

scenario passing interferer
interfere 2 4 9
";

/// Witnesses disproven per robust ladder before its budget stops it.
const WITNESSES: u64 = 5;

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// The MILP counters a registry holds: `(solves, pivots, bb_nodes)`.
fn milp_counts(registry: &MetricsRegistry) -> [u64; 3] {
    [
        wellknown::MILP_SOLVES,
        wellknown::MILP_PIVOTS,
        wellknown::MILP_BB_NODES,
    ]
    .map(|name| registry.counter_value(name))
}

fn render_counts([solves, pivots, nodes]: [u64; 3]) -> String {
    format!("solves={solves} pivots={pivots} nodes={nodes}")
}

/// Runs `solve` under a fresh metrics collector and returns its value
/// with the MILP counters it added.
fn counted<T>(solve: impl FnOnce() -> T) -> (T, String) {
    let collector = Collector::metrics_only();
    let value = {
        let _guard = collector.install(0, 0);
        solve()
    };
    let counts = milp_counts(collector.registry().expect("enabled collector"));
    (value, render_counts(counts))
}

/// Order-sensitive FNV-1a over the pool's fingerprints.
fn pool_fingerprint(points: &[DesignPoint]) -> u64 {
    points.iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
        (h ^ p.fingerprint()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The paper cut ladder, each level solved cold and then warm, until the
/// model runs out of levels.
fn paper_ladder(lines: &mut Vec<String>) {
    let mut enc = MilpEncoding::new(&TopologyConstraints::paper_default(), &AppParams::default());
    for level in 0.. {
        let (cold, counts) = counted(|| enc.solve_witness().expect("cold solve"));
        lines.push(match cold {
            Some((point, obj)) => format!(
                "paper/L{level}/cold obj={} fp={:016x} {counts}",
                hex(obj),
                point.fingerprint()
            ),
            None => format!("paper/L{level}/cold infeasible {counts}"),
        });
        let ((points, p_star), counts) = counted(|| enc.solve_pool().expect("warm solve"));
        let Some(p_star) = p_star else {
            lines.push(format!("paper/L{level}/warm infeasible {counts}"));
            break;
        };
        lines.push(format!(
            "paper/L{level}/warm p_star={} pool={}:{:016x} {counts}",
            hex(p_star),
            points.len(),
            pool_fingerprint(&points)
        ));
        enc.add_power_cut(p_star);
    }
}

/// A disproven witness's fingerprint and the MILP counters at the time.
type Seen = (u64, [u64; 3]);

/// Disproves every witness; each call snapshots the MILP counters, so
/// consecutive snapshots bracket the solves behind each witness.
#[derive(Clone)]
struct Disprover {
    collector: Collector,
    seen: Arc<Mutex<Vec<Seen>>>,
}

impl PointEvaluator for Disprover {
    fn try_eval(&self, point: &DesignPoint) -> Result<Evaluation, EvalError> {
        let counts = milp_counts(self.collector.registry().expect("enabled collector"));
        self.seen
            .lock()
            .unwrap()
            .push((point.fingerprint(), counts));
        Ok(Evaluation {
            pdr: 0.0,
            nlt_days: 0.0,
            power_mw: 0.0,
            latency_ms: 0.0,
        })
    }

    fn unique_evaluations(&self) -> u64 {
        self.seen.lock().unwrap().len() as u64
    }
}

type Engine = fn(
    &Problem,
    &RobustnessSpec,
    &Disprover,
    ExploreOptions,
    &ExecContext,
    Option<&hi_core::ExploreCheckpoint>,
    &mut dyn FnMut(&hi_core::ExploreCheckpoint),
) -> Result<RobustOutcome, hi_core::ExploreError>;

/// One robust engine's witness ladder on the demo suite at `gamma`.
fn robust_ladder(lines: &mut Vec<String>, name: &str, engine: Engine, gamma: u32) {
    let (suite, _) = parse_fault_suite(DEMO_SUITE).expect("demo suite parses");
    let spec = RobustnessSpec::from_suite(&suite, gamma);
    let problem = Problem::paper_default(0.8);
    let collector = Collector::metrics_only();
    let evaluator = Disprover {
        collector: collector.clone(),
        seen: Arc::default(),
    };
    let options = ExploreOptions {
        budget: Some(WITNESSES),
        ..ExploreOptions::default()
    };
    let outcome = {
        let _guard = collector.install(0, 0);
        engine(
            &problem,
            &spec,
            &evaluator,
            options,
            &ExecContext::sequential(),
            None,
            &mut |_| {},
        )
        .expect("robust engine succeeds")
    };
    let case = format!("{name}/g{gamma}");
    let nominal = outcome.nominal_power_mw.map_or_else(|| "none".into(), hex);
    lines.push(format!(
        "{case} nominal={nominal} repairs={}",
        outcome.repairs
    ));
    let seen = evaluator.seen.lock().unwrap();
    assert_eq!(
        seen.len(),
        outcome.outcome.cuts.len(),
        "{case}: one cut per disproven witness"
    );
    let mut before = [0u64; 3];
    for (i, ((fp, counts), cut)) in seen.iter().zip(&outcome.outcome.cuts).enumerate() {
        let delta = [0, 1, 2].map(|k| counts[k] - before[k]);
        before = *counts;
        lines.push(format!(
            "{case}/W{i} obj={} fp={fp:016x} {}",
            hex(*cut),
            render_counts(delta)
        ));
    }
}

fn render_all() -> Vec<String> {
    let mut lines = Vec::new();
    paper_ladder(&mut lines);
    for gamma in 1..=3 {
        robust_ladder(&mut lines, "robust-milp", robust_milp_search, gamma);
    }
    for gamma in 1..=3 {
        robust_ladder(&mut lines, "ilp-heuristic", ilp_heuristic_search, gamma);
    }
    lines
}

#[test]
fn milp_outcomes_match_the_golden_bits() {
    let lines = render_all();
    if std::env::var_os("HI_GOLDEN_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, lines.join("\n") + "\n").expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("read golden file");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(golden.len(), lines.len(), "golden solve count changed");
    let mismatches: Vec<String> = lines
        .iter()
        .zip(&golden)
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  want {want}\n   got {got}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} solves changed:\n{}",
        mismatches.len(),
        lines.len(),
        mismatches.join("\n")
    );
}
