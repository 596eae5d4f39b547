//! Fleet mode: many users' jobs sharing one fingerprint-keyed
//! evaluation-cache pool, so identical design points dedup across users.
//!
//! The unit of sharing is the *evaluation fingerprint*
//! ([`UserProfile::eval_fingerprint`]): a hash of exactly the fields
//! that determine simulation results. Profiles with equal fingerprints —
//! same body, same channel, same traffic, same protocol, same fault
//! suite — get handed the *same* [`SharedSimEvaluator`] (or
//! [`RobustEvaluator`]), whose exactly-once `EvalCache` then answers any
//! design point either user's engine asks about from one simulation.
//! Profiles that differ only in `pdr_min`, `engine` or id land on the
//! same evaluator on purpose: those knobs steer the search, not the
//! physics.
//!
//! Jobs run *strictly serially in submission order* (the scheduler's
//! contract), so the cache state any job observes is a deterministic
//! function of the jobs before it — which is what makes fleet batches
//! bit-identical across thread counts and restarts.

use std::collections::BTreeMap;
use std::sync::Mutex;

use hi_core::{
    exhaustive_search, explore, ilp_heuristic_search, robust_milp_search, DesignPoint, EvalError,
    Evaluation, ExecContext, ExploreCheckpoint, ExploreOptions, PointEvaluator, RetryPolicy,
    RobustEvaluator, RobustnessSpec, SharedSimEvaluator, StopReason, SupervisedEvaluator,
    Supervisor,
};

use crate::profile::{EngineChoice, UserProfile};
use crate::segment::CachedOutcome;

/// One entry of the fleet pool: a nominal or robust shared evaluator.
///
/// Both variants are cheap clones around one shared cache; the enum
/// exists so one pool can hold both kinds and hand either to the
/// engines through [`PointEvaluator`].
#[derive(Debug, Clone)]
pub enum FleetEvaluator {
    /// Plain protocol evaluation (no fault suite).
    Nominal(SharedSimEvaluator),
    /// Fault-suite evaluation aggregated by the profile's robust mode.
    Robust(RobustEvaluator),
}

impl FleetEvaluator {
    /// Cache hits so far (design points recalled, not simulated).
    pub fn cache_hits(&self) -> u64 {
        match self {
            FleetEvaluator::Nominal(e) => e.cache_hits(),
            FleetEvaluator::Robust(e) => e.cache_hits(),
        }
    }

    /// Cache misses so far (design points simulated fresh).
    pub fn cache_misses(&self) -> u64 {
        match self {
            FleetEvaluator::Nominal(e) => e.cache_misses(),
            FleetEvaluator::Robust(e) => e.cache_misses(),
        }
    }

    /// Every `Ok` outcome this stream has settled, sorted by point
    /// fingerprint — what the segment store spills to disk.
    pub fn export_entries(&self) -> Vec<CachedOutcome> {
        match self {
            FleetEvaluator::Nominal(e) => e
                .cached_ok()
                .into_iter()
                .map(|(point, eval)| CachedOutcome::Nominal { point, eval })
                .collect(),
            FleetEvaluator::Robust(e) => e
                .cached_scorecards()
                .into_iter()
                .map(|(point, card)| CachedOutcome::Robust { point, card })
                .collect(),
        }
    }

    /// Every `Ok` outcome lowered to a Pareto [`FrontPoint`] offer:
    /// nominal evaluations directly, robust scorecards aggregated by the
    /// stream's robust mode (the same pessimism the engine optimized
    /// under). The archive's dominance filter decides what survives.
    pub fn export_front_points(&self) -> Vec<hi_pareto::FrontPoint> {
        let lower = |point: DesignPoint, eval: Evaluation| hi_pareto::FrontPoint {
            fingerprint: point.fingerprint(),
            power_mw: eval.power_mw,
            pdr: eval.pdr,
            latency_ms: eval.latency_ms,
            nlt_days: eval.nlt_days,
        };
        match self {
            FleetEvaluator::Nominal(e) => e
                .cached_ok()
                .into_iter()
                .map(|(point, eval)| lower(point, eval))
                .collect(),
            FleetEvaluator::Robust(e) => {
                let mode = e.mode();
                e.cached_scorecards()
                    .into_iter()
                    .map(|(point, card)| lower(point, card.aggregate(mode)))
                    .collect()
            }
        }
    }

    /// Seeds one recovered outcome into this stream's cache. Returns
    /// false (and changes nothing) if the entry's kind does not match
    /// the stream — a robust scorecard can't answer a nominal stream —
    /// or if the point already has an entry; both mean the recovered
    /// value is simply not used, never that it overrides live data.
    pub fn import_entry(&self, outcome: CachedOutcome) -> bool {
        match (self, outcome) {
            (FleetEvaluator::Nominal(e), CachedOutcome::Nominal { point, eval }) => {
                e.seed_eval(point, eval)
            }
            (FleetEvaluator::Robust(e), CachedOutcome::Robust { point, card }) => {
                e.seed_scorecard(point, card)
            }
            _ => false,
        }
    }
}

impl PointEvaluator for FleetEvaluator {
    fn try_eval(&self, point: &DesignPoint) -> Result<Evaluation, EvalError> {
        match self {
            FleetEvaluator::Nominal(e) => e.try_eval(point),
            FleetEvaluator::Robust(e) => e.try_eval(point),
        }
    }

    fn unique_evaluations(&self) -> u64 {
        match self {
            FleetEvaluator::Nominal(e) => PointEvaluator::unique_evaluations(e),
            FleetEvaluator::Robust(e) => PointEvaluator::unique_evaluations(e),
        }
    }

    fn drop_cached(&self, point: &DesignPoint) -> bool {
        match self {
            FleetEvaluator::Nominal(e) => PointEvaluator::drop_cached(e, point),
            FleetEvaluator::Robust(e) => PointEvaluator::drop_cached(e, point),
        }
    }
}

/// Aggregate hit/miss counts across a fleet pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Evaluator streams in the pool (distinct physics).
    pub evaluators: usize,
    /// Total cache hits across all streams.
    pub hits: u64,
    /// Total cache misses across all streams.
    pub misses: u64,
}

/// The cross-user evaluator pool, keyed by evaluation fingerprint.
#[derive(Debug, Default)]
pub struct FleetCache {
    evaluators: Mutex<BTreeMap<u64, FleetEvaluator>>,
}

impl FleetCache {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The evaluator for fingerprint `key`, building it on first use.
    /// Clones share the underlying cache, so every job with this key —
    /// whichever user submitted it — reuses the same simulations.
    pub fn evaluator(&self, key: u64, build: impl FnOnce() -> FleetEvaluator) -> FleetEvaluator {
        let mut map = self.evaluators.lock().expect("fleet pool poisoned");
        map.entry(key).or_insert_with(build).clone()
    }

    /// Every stream in the pool with its key — cheap clones sharing the
    /// live caches — for the drain-time segment flush.
    pub fn streams(&self) -> Vec<(u64, FleetEvaluator)> {
        let map = self.evaluators.lock().expect("fleet pool poisoned");
        map.iter().map(|(key, ev)| (*key, ev.clone())).collect()
    }

    /// Aggregate hit/miss counts over every stream in the pool.
    pub fn stats(&self) -> FleetStats {
        let map = self.evaluators.lock().expect("fleet pool poisoned");
        let mut stats = FleetStats {
            evaluators: map.len(),
            ..FleetStats::default()
        };
        for evaluator in map.values() {
            stats.hits += evaluator.cache_hits();
            stats.misses += evaluator.cache_misses();
        }
        stats
    }
}

/// Per-job execution policy the daemon layers onto every profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPolicy {
    /// Per-replication DES event budget (logical deadline), if any.
    pub max_events: Option<u64>,
    /// Supervised-retry attempts per evaluation.
    pub retry_attempts: u32,
    /// Auto-checkpoint cadence in Algorithm-1 iterations (`None` = no
    /// periodic snapshots; exhaustive jobs never checkpoint).
    pub checkpoint_every: Option<u32>,
}

impl Default for RunPolicy {
    fn default() -> Self {
        Self {
            max_events: None,
            retry_attempts: 3,
            checkpoint_every: Some(1),
        }
    }
}

/// The measured outcome of one profile's job, rendered into the result
/// block clients read back.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOutcome {
    /// The optimum, if any configuration satisfies the profile's floor.
    pub best: Option<(DesignPoint, Evaluation)>,
    /// Algorithm-1 iterations (0 for exhaustive).
    pub iterations: u32,
    /// Candidates proposed (algorithm1) / points enumerated (exhaustive).
    pub candidates: u64,
    /// Unique simulations spent by *this job* (a warm fleet cache makes
    /// this 0 for a duplicate profile; on a resumed job it is cumulative
    /// across the interruption, matching a straight-through run).
    pub simulations: u64,
    /// Evaluations that failed (after supervised retries).
    pub eval_errors: u64,
    /// Why the search stopped (`None` for exhaustive: it always sweeps).
    pub stop_reason: Option<StopReason>,
    /// Fleet-cache hits this job observed (delta while it ran).
    pub cache_hits: u64,
    /// Fleet-cache misses this job observed (delta while it ran).
    pub cache_misses: u64,
}

/// Runs one profile's search on `evaluator` under `policy`.
///
/// Algorithm-1 jobs honor `resume` (a PR-5 CRC-checked checkpoint) and
/// hand `observer` every auto-checkpoint; exhaustive jobs ignore both —
/// they are a single sweep and simply rerun after a crash (the fleet
/// cache makes the rerun cheap within one daemon lifetime).
pub fn run_profile(
    profile: &UserProfile,
    evaluator: &FleetEvaluator,
    exec: &ExecContext,
    policy: RunPolicy,
    resume: Option<&ExploreCheckpoint>,
    observer: &mut dyn FnMut(&ExploreCheckpoint),
) -> Result<ProfileOutcome, String> {
    let supervisor = Supervisor::new(RetryPolicy::new(policy.retry_attempts), None);
    let supervised = SupervisedEvaluator::new(evaluator.clone(), supervisor);
    let hits_before = evaluator.cache_hits();
    let misses_before = evaluator.cache_misses();
    let problem = profile.problem();
    let outcome = match profile.engine {
        EngineChoice::Algorithm1 => {
            let options = ExploreOptions {
                checkpoint_every: policy.checkpoint_every,
                ..ExploreOptions::default()
            };
            let out = explore(&problem, &supervised, options, exec, resume, observer)
                .map_err(|e| e.to_string())?;
            ProfileOutcome {
                best: out.best,
                iterations: out.iterations,
                candidates: out.candidates_proposed,
                simulations: out.simulations,
                eval_errors: out.eval_errors,
                stop_reason: Some(out.stop_reason),
                cache_hits: 0,
                cache_misses: 0,
            }
        }
        EngineChoice::Exhaustive => {
            let out = exhaustive_search(&problem, &supervised, exec);
            ProfileOutcome {
                best: out.best,
                iterations: 0,
                candidates: out.evaluations.len() as u64 + out.eval_errors,
                simulations: out.simulations,
                eval_errors: out.eval_errors,
                stop_reason: None,
                cache_hits: 0,
                cache_misses: 0,
            }
        }
        EngineChoice::RobustMilp | EngineChoice::IlpHeuristic => {
            // Deviation bounds come from the stream's fault suite; a
            // nominal stream (no `faults` line) yields a degenerate spec,
            // so the engine delegates to Algorithm 1 bit for bit.
            let gamma = profile.gamma.unwrap_or(1);
            let spec = match evaluator {
                FleetEvaluator::Robust(e) => RobustnessSpec::from_suite(e.suite(), gamma),
                FleetEvaluator::Nominal(_) => RobustnessSpec {
                    gamma,
                    deviations: Vec::new(),
                },
            };
            let options = ExploreOptions {
                checkpoint_every: policy.checkpoint_every,
                ..ExploreOptions::default()
            };
            let out = match profile.engine {
                EngineChoice::RobustMilp => robust_milp_search(
                    &problem,
                    &spec,
                    &supervised,
                    options,
                    exec,
                    resume,
                    observer,
                ),
                _ => ilp_heuristic_search(
                    &problem,
                    &spec,
                    &supervised,
                    options,
                    exec,
                    resume,
                    observer,
                ),
            }
            .map_err(|e| e.to_string())?;
            ProfileOutcome {
                best: out.outcome.best,
                iterations: out.outcome.iterations,
                candidates: out.outcome.candidates_proposed,
                simulations: out.outcome.simulations,
                eval_errors: out.outcome.eval_errors,
                stop_reason: Some(out.outcome.stop_reason),
                cache_hits: 0,
                cache_misses: 0,
            }
        }
    };
    Ok(ProfileOutcome {
        cache_hits: evaluator.cache_hits() - hits_before,
        cache_misses: evaluator.cache_misses() - misses_before,
        ..outcome
    })
}

pub(crate) fn f64_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Renders a job's canonical result block: the text `RESULT` returns and
/// the persistence layer stores. Deterministic byte for byte — floats
/// carry their exact bits next to the human reading — so resumed,
/// rerun and deduped jobs can be compared with `diff`.
pub fn render_result(profile: &UserProfile, outcome: &ProfileOutcome) -> String {
    let mut out = format!("profile {}\n", profile.id);
    out.push_str(&format!("engine {}\n", profile.engine));
    match &outcome.best {
        Some((point, eval)) => {
            out.push_str("status feasible\n");
            out.push_str(&format!("design {:016x} {point}\n", point.fingerprint()));
            out.push_str(&format!("pdr {} {:.4}\n", f64_hex(eval.pdr), eval.pdr));
            out.push_str(&format!(
                "nlt_days {} {:.2}\n",
                f64_hex(eval.nlt_days),
                eval.nlt_days
            ));
            out.push_str(&format!(
                "power_mw {} {:.3}\n",
                f64_hex(eval.power_mw),
                eval.power_mw
            ));
            out.push_str(&format!(
                "latency_ms {} {:.3}\n",
                f64_hex(eval.latency_ms),
                eval.latency_ms
            ));
        }
        None => out.push_str("status infeasible\n"),
    }
    out.push_str(&format!("iterations {}\n", outcome.iterations));
    out.push_str(&format!("candidates {}\n", outcome.candidates));
    out.push_str(&format!("simulations {}\n", outcome.simulations));
    out.push_str(&format!("eval_errors {}\n", outcome.eval_errors));
    if let Some(reason) = outcome.stop_reason {
        out.push_str(&format!("stop {reason:?}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::parse_profiles;

    fn quick(id: &str) -> UserProfile {
        let mut p = UserProfile::named(id);
        p.t_sim_secs = 2.0;
        p.runs = 1;
        p
    }

    #[test]
    fn identical_profiles_share_one_evaluator_stream() {
        let fleet = FleetCache::new();
        let a = quick("a");
        let mut b = quick("b");
        b.pdr_min = 0.5; // search knob only — same fingerprint
        let key_a = a.eval_fingerprint(None);
        assert_eq!(key_a, b.eval_fingerprint(None));
        let ev_a = fleet.evaluator(key_a, || {
            FleetEvaluator::Nominal(a.protocol().shared_evaluator())
        });
        let _ev_b = fleet.evaluator(key_a, || {
            panic!("second user with the same physics must reuse the stream")
        });
        assert_eq!(fleet.stats().evaluators, 1);
        drop(ev_a);
    }

    #[test]
    fn duplicate_job_spends_zero_simulations() {
        let fleet = FleetCache::new();
        let profile = quick("alice");
        let key = profile.eval_fingerprint(None);
        let evaluator = fleet.evaluator(key, || {
            FleetEvaluator::Nominal(profile.protocol().shared_evaluator())
        });
        let exec = ExecContext::sequential();
        let policy = RunPolicy {
            checkpoint_every: None,
            ..RunPolicy::default()
        };
        let first = run_profile(&profile, &evaluator, &exec, policy, None, &mut |_| {}).unwrap();
        assert!(first.simulations > 0);
        let again = run_profile(&profile, &evaluator, &exec, policy, None, &mut |_| {}).unwrap();
        assert_eq!(again.simulations, 0, "warm cache must answer everything");
        assert!(again.cache_hits > 0);
        assert_eq!(again.cache_misses, 0);
        assert_eq!(first.best, again.best);
        assert_eq!(
            render_result(&profile, &first)
                .lines()
                .filter(|l| !l.starts_with("simulations") && !l.starts_with("candidates"))
                .collect::<Vec<_>>(),
            render_result(&profile, &again)
                .lines()
                .filter(|l| !l.starts_with("simulations") && !l.starts_with("candidates"))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn result_block_is_deterministic_and_tagged_with_bits() {
        let profile = quick("p");
        let outcome = ProfileOutcome {
            best: None,
            iterations: 2,
            candidates: 10,
            simulations: 7,
            eval_errors: 0,
            stop_reason: Some(StopReason::MilpExhausted),
            cache_hits: 0,
            cache_misses: 0,
        };
        let text = render_result(&profile, &outcome);
        assert!(text.contains("status infeasible\n"), "{text}");
        assert!(text.contains("stop MilpExhausted\n"), "{text}");
        let fleet = parse_profiles(crate::profile::DEMO_FLEET).unwrap();
        assert!(render_result(&fleet[0], &outcome).starts_with("profile alice\n"));
    }
}
