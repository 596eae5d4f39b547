//! Cross-thread determinism contract for the parallel search engines.
//!
//! The `hi-exec` integration promises that for any thread count the
//! engines produce *bit-identical* results and the same unique-simulation
//! accounting. These tests run the real discrete-event simulator (short
//! protocol) through every parallel entry point at 1, 2 and 8 threads and
//! compare outcomes field by field.

use hi_core::{
    exhaustive_search, explore, explore_tradeoff_par, simulated_annealing_restarts, DesignPoint,
    EvalError, Evaluation, ExecContext, ExhaustiveOutcome, ExplorationOutcome, ExploreCheckpoint,
    ExploreError, ExploreOptions, PointEvaluator, Problem, SaParams, SimProtocol, StopReason,
};
use hi_des::SimDuration;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn protocol() -> SimProtocol {
    SimProtocol::new(SimDuration::from_secs(2.0), 1, 20_260_806)
}

/// Algorithm 1 without a checkpoint to resume or an observer.
fn explore_run<P: PointEvaluator>(
    problem: &Problem,
    evaluator: &P,
    options: ExploreOptions,
    exec: &ExecContext,
) -> Result<ExplorationOutcome, ExploreError> {
    explore(problem, evaluator, options, exec, None, &mut |_| ())
}

fn assert_same_best(a: &Option<(DesignPoint, Evaluation)>, b: &Option<(DesignPoint, Evaluation)>) {
    match (a, b) {
        (None, None) => {}
        (Some((pa, ea)), Some((pb, eb))) => {
            assert_eq!(pa, pb, "chosen optimum differs");
            assert_eq!(ea, eb, "optimum's evaluation differs");
        }
        _ => panic!("feasibility verdict differs: {a:?} vs {b:?}"),
    }
}

#[test]
fn exhaustive_search_is_bit_identical_across_thread_counts() {
    let problem = Problem::paper_default(0.7);
    let run = |threads: usize| -> ExhaustiveOutcome {
        let exec = ExecContext::new(threads);
        let evaluator = protocol().shared_evaluator();
        exhaustive_search(&problem, &evaluator, &exec)
    };
    let baseline = run(1);
    assert!(baseline.best.is_some(), "70% floor must be feasible");
    for threads in &THREAD_COUNTS[1..] {
        let outcome = run(*threads);
        assert_same_best(&baseline.best, &outcome.best);
        assert_eq!(
            baseline.evaluations, outcome.evaluations,
            "{threads} threads evaluated a different number of points"
        );
        assert_eq!(
            baseline.simulations, outcome.simulations,
            "{threads} threads changed the unique-simulation count"
        );
    }
}

#[test]
fn parallel_exhaustive_matches_the_sequential_engine() {
    // The sequential engine is the one-worker context. Against a flaky
    // evaluator it must exclude and count exactly the failures a pool
    // run does, and keep every healthy evaluation bit for bit.
    let problem = Problem::paper_default(0.7);
    let run = |exec: ExecContext| {
        let flaky = FlakyEvaluator {
            inner: protocol().shared_evaluator(),
        };
        exhaustive_search(&problem, &flaky, &exec)
    };
    let sequential = run(ExecContext::sequential());
    let parallel = run(ExecContext::new(4));

    assert!(sequential.eval_errors > 0, "injected failures must count");
    assert_eq!(
        sequential.evaluations.len() as u64 + sequential.eval_errors,
        problem.space.points().len() as u64,
        "every point is either evaluated or counted as failed"
    );
    assert_same_best(&sequential.best, &parallel.best);
    assert_eq!(sequential.evaluations, parallel.evaluations);
    assert_eq!(sequential.simulations, parallel.simulations);
    assert_eq!(sequential.eval_errors, parallel.eval_errors);
}

#[test]
fn algorithm1_is_bit_identical_across_thread_counts() {
    let problem = Problem::paper_default(0.7);
    let run = |threads: usize| {
        let exec = ExecContext::new(threads);
        let evaluator = protocol().shared_evaluator();
        explore_run(&problem, &evaluator, ExploreOptions::default(), &exec)
            .expect("exploration succeeds")
    };
    let baseline = run(1);
    for threads in &THREAD_COUNTS[1..] {
        let outcome = run(*threads);
        assert_same_best(&baseline.best, &outcome.best);
        assert_eq!(baseline.stop_reason, outcome.stop_reason);
        assert_eq!(baseline.iterations, outcome.iterations);
        assert_eq!(
            baseline.simulations, outcome.simulations,
            "{threads} threads changed Algorithm 1's simulation count"
        );
    }
}

#[test]
fn sa_restarts_are_bit_identical_across_thread_counts() {
    let problem = Problem::paper_default(0.7);
    let params = SaParams {
        steps: 40,
        ..SaParams::default()
    };
    let run = |threads: usize| {
        let exec = ExecContext::new(threads);
        let evaluator = protocol().shared_evaluator();
        simulated_annealing_restarts(&problem, &evaluator, params, 7, 4, &exec)
    };
    let baseline = run(1);
    for threads in &THREAD_COUNTS[1..] {
        let outcome = run(*threads);
        assert_same_best(&baseline.best, &outcome.best);
        assert_eq!(baseline.steps, outcome.steps);
        assert_eq!(
            baseline.simulations, outcome.simulations,
            "{threads} threads changed the restart batch's simulation count"
        );
    }
}

#[test]
fn tradeoff_sweep_is_bit_identical_across_thread_counts() {
    let template = Problem::paper_default(0.5);
    let floors = [0.5, 0.7];
    let run = |threads: usize| {
        let exec = ExecContext::new(threads);
        let evaluator = protocol().shared_evaluator();
        explore_tradeoff_par(&template, &floors, &evaluator, &exec).expect("sweep succeeds")
    };
    let baseline = run(1);
    for threads in &THREAD_COUNTS[1..] {
        let sweep = run(*threads);
        assert_eq!(baseline.len(), sweep.len());
        for (b, s) in baseline.iter().zip(&sweep) {
            assert_eq!(b.pdr_min, s.pdr_min);
            assert_same_best(&b.best, &s.best);
            assert_eq!(b.new_simulations, s.new_simulations);
            assert_eq!(b.stop_reason, s.stop_reason);
        }
    }
}

#[test]
fn engines_share_one_cache_so_a_second_engine_is_free() {
    // Exhaustive search visits every feasible point, so Algorithm 1 run
    // against the same shared evaluator afterwards needs zero new
    // simulations — the cross-engine cache-sharing the subsystem exists
    // for.
    let problem = Problem::paper_default(0.7);
    let exec = ExecContext::new(2);
    let evaluator = protocol().shared_evaluator();

    let sweep = exhaustive_search(&problem, &evaluator, &exec);
    assert!(sweep.simulations > 0);

    let explored = explore_run(&problem, &evaluator, ExploreOptions::default(), &exec)
        .expect("exploration succeeds");
    assert_eq!(
        explored.simulations, 0,
        "Algorithm 1 re-simulated points the sweep already covered"
    );
    assert_same_best(&sweep.best, &explored.best);
}

#[test]
fn cache_hit_accounting_is_thread_count_invariant() {
    let problem = Problem::paper_default(0.7);
    let run = |threads: usize| {
        let exec = ExecContext::new(threads);
        let evaluator = protocol().shared_evaluator();
        let _ = exhaustive_search(&problem, &evaluator, &exec);
        let _ = exhaustive_search(&problem, &evaluator, &exec);
        (
            evaluator.unique_evaluations(),
            evaluator.cache_hits(),
            evaluator.cache_len(),
        )
    };
    let baseline = run(1);
    assert!(baseline.1 > 0, "second pass must hit the cache");
    for threads in &THREAD_COUNTS[1..] {
        assert_eq!(
            baseline,
            run(*threads),
            "{threads} threads changed accounting"
        );
    }
}

/// Wraps the real evaluator and fires a cancel token after a fixed
/// number of evaluation requests — deterministic at 1 thread, where the
/// sequential path evaluates pool order one by one.
#[derive(Clone)]
struct CancellingEvaluator {
    inner: hi_core::SharedSimEvaluator,
    cancel_after: u64,
    count: std::sync::Arc<std::sync::atomic::AtomicU64>,
    token: hi_core::CancelToken,
}

impl PointEvaluator for CancellingEvaluator {
    fn try_eval(&self, point: &DesignPoint) -> Result<Evaluation, EvalError> {
        use std::sync::atomic::Ordering;
        let n = self.count.fetch_add(1, Ordering::SeqCst) + 1;
        let result = self.inner.try_eval(point);
        if n >= self.cancel_after {
            self.token.cancel();
        }
        result
    }

    fn unique_evaluations(&self) -> u64 {
        self.inner.unique_evaluations()
    }
}

#[test]
fn mid_level_cancellation_discards_the_partial_level() {
    let problem = Problem::paper_default(0.7);

    // Reference: a budget of 1 simulation stops Algorithm 1 right after
    // its first fully evaluated level, exposing the level-1 incumbent.
    let exec = ExecContext::sequential();
    let evaluator = protocol().shared_evaluator();
    let options = ExploreOptions {
        budget: Some(1),
        ..ExploreOptions::default()
    };
    let after_level1 = explore_run(&problem, &evaluator, options, &exec).unwrap();
    assert_eq!(after_level1.stop_reason, StopReason::BudgetExhausted);
    assert_eq!(after_level1.iterations, 1);
    let level1_sims = after_level1.simulations;
    assert!(level1_sims > 0);

    // Now cancel one evaluation *into* level 2: the partial level must be
    // fully discarded and the reported incumbent must be exactly the
    // level-1 incumbent — never a point from the half-evaluated level.
    let exec = ExecContext::sequential();
    let cancelling = CancellingEvaluator {
        inner: protocol().shared_evaluator(),
        cancel_after: level1_sims + 1,
        count: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
        token: exec.cancel_token(),
    };
    let cancelled = explore_run(&problem, &cancelling, ExploreOptions::default(), &exec).unwrap();
    assert_eq!(cancelled.stop_reason, StopReason::Cancelled);
    assert_eq!(cancelled.iterations, 2, "cancel fired during level 2");
    assert_same_best(&after_level1.best, &cancelled.best);
    assert_eq!(cancelled.cuts, after_level1.cuts);
}

#[test]
fn budget_zero_stops_immediately_with_best_so_far_none() {
    let problem = Problem::paper_default(0.7);
    let exec = ExecContext::sequential();
    let evaluator = protocol().shared_evaluator();
    let options = ExploreOptions {
        budget: Some(0),
        ..ExploreOptions::default()
    };
    let out = explore_run(&problem, &evaluator, options, &exec).unwrap();
    assert_eq!(out.stop_reason, StopReason::BudgetExhausted);
    assert_eq!(out.iterations, 0);
    assert_eq!(out.simulations, 0);
    assert!(out.best.is_none());
}

#[test]
fn ample_budget_changes_nothing() {
    let problem = Problem::paper_default(0.7);
    let run = |budget: Option<u64>| {
        let exec = ExecContext::sequential();
        let evaluator = protocol().shared_evaluator();
        let options = ExploreOptions {
            budget,
            ..ExploreOptions::default()
        };
        explore_run(&problem, &evaluator, options, &exec).unwrap()
    };
    let unlimited = run(None);
    let generous = run(Some(1_000_000));
    assert_same_best(&unlimited.best, &generous.best);
    assert_eq!(unlimited.stop_reason, generous.stop_reason);
    assert_eq!(unlimited.iterations, generous.iterations);
    assert_eq!(unlimited.simulations, generous.simulations);
    assert_eq!(unlimited.cuts, generous.cuts);
}

#[test]
fn checkpoint_resume_is_bit_identical_to_a_straight_through_run() {
    let problem = Problem::paper_default(0.7);

    // The uninterrupted reference run.
    let exec = ExecContext::new(2);
    let evaluator = protocol().shared_evaluator();
    let straight = explore_run(&problem, &evaluator, ExploreOptions::default(), &exec).unwrap();
    assert!(
        straight.iterations >= 2,
        "need at least two levels to interrupt between"
    );

    // Interrupted run: stop after the first level on a 1-sim budget...
    let exec = ExecContext::new(2);
    let evaluator = protocol().shared_evaluator();
    let options = ExploreOptions {
        budget: Some(1),
        ..ExploreOptions::default()
    };
    let partial = explore_run(&problem, &evaluator, options, &exec).unwrap();
    assert_eq!(partial.stop_reason, StopReason::BudgetExhausted);

    // ... serialize the exploration state through the text format ...
    let saved = ExploreCheckpoint::from_outcome(problem.pdr_min, true, &partial).to_text();
    let restored = ExploreCheckpoint::from_text(&saved).expect("own format parses");

    // ... and resume with a *fresh* evaluator and cache, as a restarted
    // process would. Every field of the final outcome must match the
    // straight-through run bit for bit.
    let exec = ExecContext::new(2);
    let evaluator = protocol().shared_evaluator();
    let resumed = explore(
        &problem,
        &evaluator,
        ExploreOptions::default(),
        &exec,
        Some(&restored),
        &mut |_| (),
    )
    .unwrap();
    assert_same_best(&straight.best, &resumed.best);
    assert_eq!(straight.stop_reason, resumed.stop_reason);
    assert_eq!(straight.iterations, resumed.iterations);
    assert_eq!(straight.candidates_proposed, resumed.candidates_proposed);
    assert_eq!(straight.simulations, resumed.simulations);
    assert_eq!(straight.cuts, resumed.cuts);
}

#[test]
fn resume_rejects_a_checkpoint_from_a_different_problem() {
    let partial = {
        let problem = Problem::paper_default(0.7);
        let exec = ExecContext::sequential();
        let evaluator = protocol().shared_evaluator();
        let options = ExploreOptions {
            budget: Some(1),
            ..ExploreOptions::default()
        };
        explore_run(&problem, &evaluator, options, &exec).unwrap()
    };
    let checkpoint = ExploreCheckpoint::from_outcome(0.7, true, &partial);
    let other = Problem::paper_default(0.9);
    let exec = ExecContext::sequential();
    let evaluator = protocol().shared_evaluator();
    let err = explore(
        &other,
        &evaluator,
        ExploreOptions::default(),
        &exec,
        Some(&checkpoint),
        &mut |_| (),
    )
    .unwrap_err();
    assert!(matches!(err, ExploreError::Checkpoint(_)), "got {err:?}");
}

/// Wraps the real evaluator and fails deterministically on a subset of
/// points, exercising the per-point degradation path.
#[derive(Clone)]
struct FlakyEvaluator {
    inner: hi_core::SharedSimEvaluator,
}

impl PointEvaluator for FlakyEvaluator {
    fn try_eval(&self, point: &DesignPoint) -> Result<Evaluation, EvalError> {
        if point.fingerprint().is_multiple_of(5) {
            return Err(EvalError::new(format!("injected failure for {point}")));
        }
        self.inner.try_eval(point)
    }

    fn unique_evaluations(&self) -> u64 {
        self.inner.unique_evaluations()
    }
}

#[test]
fn failed_evaluations_degrade_per_point_and_stay_deterministic() {
    let problem = Problem::paper_default(0.7);
    let run = |threads: usize| {
        let exec = ExecContext::new(threads);
        let flaky = FlakyEvaluator {
            inner: protocol().shared_evaluator(),
        };
        explore_run(&problem, &flaky, ExploreOptions::default(), &exec)
            .expect("errors must degrade, not abort")
    };
    let baseline = run(1);
    assert!(
        baseline.eval_errors > 0,
        "the injected failures must be observed"
    );
    assert!(
        baseline.best.is_some(),
        "healthy candidates must still elect an optimum"
    );
    for threads in &THREAD_COUNTS[1..] {
        let outcome = run(*threads);
        assert_same_best(&baseline.best, &outcome.best);
        assert_eq!(baseline.eval_errors, outcome.eval_errors);
        assert_eq!(baseline.stop_reason, outcome.stop_reason);
        assert_eq!(baseline.iterations, outcome.iterations);
    }
}

#[test]
fn robust_exploration_is_bit_identical_across_thread_counts() {
    use hi_core::{FaultSuite, RobustEvaluator, RobustMode};
    use hi_net::{FaultScenario, SiteOutage, Window};

    let mut scenario = FaultScenario::named("sternum outage");
    scenario.outages.push(SiteOutage {
        site: 1,
        window: Window::from_secs(0.5, 1.5),
    });
    let suite = FaultSuite::new(vec![scenario]);
    let problem = Problem::paper_default(0.5);
    let run = |threads: usize| {
        let exec = ExecContext::new(threads);
        let evaluator = RobustEvaluator::new(protocol(), suite.clone(), RobustMode::WorstCase);
        explore_run(&problem, &evaluator, ExploreOptions::default(), &exec)
            .expect("robust exploration succeeds")
    };
    let baseline = run(1);
    for threads in &THREAD_COUNTS[1..] {
        let outcome = run(*threads);
        assert_same_best(&baseline.best, &outcome.best);
        assert_eq!(baseline.stop_reason, outcome.stop_reason);
        assert_eq!(baseline.iterations, outcome.iterations);
        assert_eq!(baseline.simulations, outcome.simulations);
    }
}

#[test]
fn tracing_never_perturbs_exploration_results() {
    // The observability contract: a traced run returns the *same
    // `ExplorationOutcome`, field for field*, as an untraced one, at any
    // thread count — recording must observe the search, never steer it.
    let problem = Problem::paper_default(0.7);
    let run = |threads: usize, collector: hi_trace::Collector| {
        let exec = ExecContext::new(threads).with_collector(collector.clone());
        let _main = collector.install(0, 0);
        let evaluator = protocol().shared_evaluator();
        explore_run(&problem, &evaluator, ExploreOptions::default(), &exec)
            .expect("exploration succeeds")
    };
    let untraced = run(1, hi_trace::Collector::disabled());
    for &threads in &[1usize, 8] {
        let collector = hi_trace::Collector::enabled();
        let traced = run(threads, collector.clone());
        assert_eq!(
            untraced, traced,
            "tracing at {threads} thread(s) changed the outcome"
        );
        assert!(
            !collector.drain_events().is_empty(),
            "the traced run must actually have recorded events"
        );
        let metrics_only = run(threads, hi_trace::Collector::metrics_only());
        assert_eq!(
            untraced, metrics_only,
            "metrics-only at {threads} thread(s) changed the outcome"
        );
    }
}

#[test]
fn traced_event_layout_is_thread_count_invariant() {
    // Event *structure* — (epoch, lane, name, kind) in drain order — must
    // be identical for every pool size; only timestamps may differ.
    let problem = Problem::paper_default(0.7);
    let layout = |threads: usize| {
        let collector = hi_trace::Collector::enabled();
        let exec = ExecContext::new(threads).with_collector(collector.clone());
        {
            let _main = collector.install(0, 0);
            let evaluator = protocol().shared_evaluator();
            explore_run(&problem, &evaluator, ExploreOptions::default(), &exec)
                .expect("exploration succeeds");
        }
        collector
            .drain_events()
            .into_iter()
            .map(|e| (e.epoch, e.lane, e.event.name, e.event.kind))
            .collect::<Vec<_>>()
    };
    let baseline = layout(1);
    assert!(!baseline.is_empty());
    for threads in &THREAD_COUNTS[1..] {
        assert_eq!(
            baseline,
            layout(*threads),
            "{threads} threads changed the trace layout"
        );
    }
}

#[test]
fn supervised_chaos_free_exploration_is_bit_identical_to_unsupervised() {
    // Wrapping the evaluator in a Supervisor with no chaos policy must be
    // invisible: same outcome, same unique-simulation accounting, at any
    // thread count. This is the "supervision is free" half of the
    // robustness contract — CI byte-diffs the CLI transcripts for the
    // same property end to end.
    use hi_core::{RetryPolicy, SupervisedEvaluator, Supervisor};

    let problem = Problem::paper_default(0.7);
    let plain = {
        let exec = ExecContext::new(2);
        let evaluator = protocol().shared_evaluator();
        explore_run(&problem, &evaluator, ExploreOptions::default(), &exec).unwrap()
    };
    for threads in THREAD_COUNTS {
        let exec = ExecContext::new(threads);
        let supervised =
            SupervisedEvaluator::new(protocol().shared_evaluator(), Supervisor::default());
        let outcome = explore_run(&problem, &supervised, ExploreOptions::default(), &exec).unwrap();
        assert_eq!(
            plain, outcome,
            "{threads} threads diverged under supervision"
        );
        assert_eq!(
            supervised.inner().unique_evaluations(),
            plain.simulations,
            "{threads} threads re-simulated under supervision"
        );

        let retried = SupervisedEvaluator::new(
            protocol().shared_evaluator(),
            Supervisor::new(RetryPolicy::new(5), None),
        );
        let outcome = explore_run(&problem, &retried, ExploreOptions::default(), &exec).unwrap();
        assert_eq!(
            plain, outcome,
            "a bigger retry budget changed a healthy run"
        );
    }
}

#[test]
fn chaos_injected_exploration_is_thread_count_invariant() {
    // Chaos injection is keyed by (fingerprint, attempt), so the same
    // spec must fault the same evaluations regardless of which worker
    // picks them up — the whole outcome, including the eval-error count,
    // is a pure function of the spec.
    use hi_core::{ChaosPolicy, RetryPolicy, SupervisedEvaluator, Supervisor};

    let problem = Problem::paper_default(0.7);
    let chaos = ChaosPolicy::parse("seed=1,panic=13,transient=3,drop=8").unwrap();
    let run = |threads: usize| {
        let exec = ExecContext::new(threads);
        let evaluator = SupervisedEvaluator::new(
            protocol().shared_evaluator(),
            Supervisor::new(RetryPolicy::new(3), Some(chaos)),
        );
        explore_run(&problem, &evaluator, ExploreOptions::default(), &exec)
            .expect("chaos degrades per point, never aborts")
    };
    let baseline = run(1);
    assert!(
        baseline.best.is_some(),
        "this spec must leave the optimum electable"
    );
    for threads in &THREAD_COUNTS[1..] {
        assert_eq!(
            baseline,
            run(*threads),
            "{threads} threads diverged under chaos"
        );
    }

    // And the chaos-free optimum survives: retries ride out the injected
    // transients, so only unlucky points (transient on every attempt) are
    // lost, and this spec spares the winner.
    let exec = ExecContext::new(2);
    let plain = explore_run(
        &problem,
        &protocol().shared_evaluator(),
        ExploreOptions::default(),
        &exec,
    )
    .unwrap();
    assert_same_best(&plain.best, &baseline.best);
}

#[test]
fn resume_from_a_mid_run_auto_checkpoint_is_bit_identical() {
    // The observer fires after every completed iteration (checkpoint_every
    // = 1); resuming from any of those snapshots with a fresh process's
    // evaluator must land on the straight-through outcome bit for bit.
    let problem = Problem::paper_default(0.7);
    let options = ExploreOptions {
        checkpoint_every: Some(1),
        ..ExploreOptions::default()
    };
    let mut snapshots: Vec<ExploreCheckpoint> = Vec::new();
    let exec = ExecContext::new(2);
    let evaluator = protocol().shared_evaluator();
    let straight = explore(
        &problem,
        &evaluator,
        options,
        &exec,
        None,
        &mut |cp: &ExploreCheckpoint| snapshots.push(cp.clone()),
    )
    .unwrap();
    // Every iteration that *continued* (pushed a cut) snapshotted; the
    // final iteration proves the bound and stops instead of cutting.
    assert_eq!(
        snapshots.len() as u32,
        straight.iterations - 1,
        "every continuing iteration must have produced a snapshot"
    );
    assert!(
        snapshots.len() >= 2,
        "need a mid-run snapshot to resume from"
    );

    for (i, snapshot) in snapshots.iter().enumerate() {
        // Round-trip through the on-disk text format, like a real resume.
        let restored = ExploreCheckpoint::from_text(&snapshot.to_text()).unwrap();
        let exec = ExecContext::new(2);
        let evaluator = protocol().shared_evaluator();
        let resumed = explore(
            &problem,
            &evaluator,
            ExploreOptions::default(),
            &exec,
            Some(&restored),
            &mut |_| (),
        )
        .unwrap();
        assert_same_best(&straight.best, &resumed.best);
        assert_eq!(straight.stop_reason, resumed.stop_reason, "snapshot {i}");
        assert_eq!(straight.iterations, resumed.iterations, "snapshot {i}");
        assert_eq!(straight.cuts, resumed.cuts, "snapshot {i}");
        assert_eq!(
            straight.candidates_proposed, resumed.candidates_proposed,
            "snapshot {i}"
        );
    }
}

#[test]
fn evaluator_panic_reaches_the_caller_through_the_pool() {
    // A poisoned point must abort the batch with the worker's own panic
    // message, not hang or return partial results silently.
    let pool = hi_exec::ThreadPool::new(2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.par_map((0..8u32).collect::<Vec<_>>(), |x| {
            assert!(x != 5, "simulator diverged on point {x}");
            x
        })
    }));
    let payload = result.expect_err("panic must propagate");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(message.contains("simulator diverged on point 5"));
}
