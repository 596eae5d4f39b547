//! Performance evaluation of design points (Algorithm 1's `RunSim`).

use std::sync::Arc;

use hi_channel::ChannelParams;
use hi_des::SimDuration;
use hi_exec::{EvalCache, EvalError};
use hi_net::{simulate_averaged_budgeted, AppParams, SimError};

use crate::milp_encode::MilpRoot;
use crate::point::DesignPoint;

/// The simulated performance of one design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Network packet delivery ratio in `[0, 1]` (eq. 7).
    pub pdr: f64,
    /// Network lifetime in days (eq. 4).
    pub nlt_days: f64,
    /// Simulated power of the lifetime-limiting node, mW (`P̄sim`).
    pub power_mw: f64,
    /// Mean end-to-end packet latency across replications, ms. The DES
    /// has always measured this; it is surfaced here so the Pareto
    /// archive can trade it off against power and PDR.
    pub latency_ms: f64,
}

/// Anything that can measure a design point: Algorithm 1's `RunSim`
/// oracle. Every engine consumes evaluations through this trait, so tests
/// and benches can substitute deterministic oracles ([`FnEvaluator`]) for
/// the (expensive) simulator.
///
/// Evaluation takes `&self` (workers share one instance, and a sequential
/// run is just a one-worker [`ExecContext`](crate::ExecContext)) and is
/// fallible: a broken point — or a panicking simulation — degrades to a
/// typed [`EvalError`] for that slot instead of taking down the whole
/// batch. Implementations must be deterministic: the same point must
/// always produce the same `Result`, independent of thread count,
/// evaluation order, and which clone asked.
pub trait PointEvaluator: Clone + Send + Sync + 'static {
    /// Measures (or recalls) the performance of `point`.
    fn try_eval(&self, point: &DesignPoint) -> Result<Evaluation, EvalError>;

    /// Number of unique expensive evaluations performed so far — the
    /// simulation-count metric behind the paper's "87% fewer simulations"
    /// (failed attempts count: they spent the compute budget too).
    fn unique_evaluations(&self) -> u64;

    /// Forgets the memoized result of `point`, if any, so the next
    /// request recomputes it; returns whether an entry was dropped.
    /// Deterministic evaluators recompute the same value bit for bit, so
    /// a drop is observable only in effort counters — which is exactly
    /// what chaos testing needs. The default (for evaluators without a
    /// cache) drops nothing.
    fn drop_cached(&self, _point: &DesignPoint) -> bool {
        false
    }
}

/// The full simulation protocol of an evaluator: channel, per-run
/// duration, replication count and master seed.
///
/// Every simulation evaluator in the workspace — the CLI's, the
/// experiment binaries', the daemon's and the benchmark's — is built
/// through this one type, so `--tsim`, `--runs`, `--seed` and
/// `--threads` semantics cannot drift between entry points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimProtocol {
    /// Channel model parameters.
    pub channel: ChannelParams,
    /// Per-run simulated duration.
    pub t_sim: SimDuration,
    /// Replications averaged per evaluation.
    pub runs: u32,
    /// Master seed (combined with each point's fingerprint).
    pub seed: u64,
    /// Logical deadline: the DES-event budget of each *replication* (not
    /// cumulative across the `runs` replications of one evaluation).
    /// A replication dispatching more events than this fails the whole
    /// evaluation with [`hi_exec::ErrorKind::DeadlineExceeded`] — a pure
    /// function of `(config, seed, budget)`, never wall clock. `None`
    /// means unbudgeted.
    pub max_events: Option<u64>,
    /// Application-layer traffic parameters (`χapp`): baseline power,
    /// packet length and generation rate. Defaults to the paper's §4.1
    /// values; fleet user profiles override this to model per-user
    /// traffic mixes.
    pub app: AppParams,
}

impl SimProtocol {
    /// A protocol over the default channel.
    pub fn new(t_sim: SimDuration, runs: u32, seed: u64) -> Self {
        Self {
            channel: ChannelParams::default(),
            t_sim,
            runs,
            seed,
            max_events: None,
            app: AppParams::default(),
        }
    }

    /// The same protocol under a per-replication DES-event budget
    /// (`None` removes the budget).
    pub fn with_max_events(mut self, max_events: Option<u64>) -> Self {
        self.max_events = max_events;
        self
    }

    /// The same protocol under different application-layer traffic
    /// parameters.
    pub fn with_app(mut self, app: AppParams) -> Self {
        self.app = app;
        self
    }

    /// The paper's §4 protocol: `Tsim = 600 s`, 3 runs.
    pub fn paper(seed: u64) -> Self {
        Self::new(SimDuration::from_secs(600.0), 3, seed)
    }

    /// A fresh thread-safe evaluator with a (shareable) evaluation cache.
    pub fn shared_evaluator(&self) -> SharedSimEvaluator {
        SharedSimEvaluator::new(*self)
    }
}

/// The expensive part of an evaluation: `runs` averaged simulations of
/// one design point, seeded purely from `(protocol seed, point)` so the
/// result is independent of evaluation order, thread interleaving and
/// which engine asked first.
///
/// A replication exceeding [`SimProtocol::max_events`] fails the
/// evaluation with a typed [`hi_exec::ErrorKind::DeadlineExceeded`] error
/// (and an `exec.deadline` trace tick). Invalid lowerings panic — the
/// design space guarantees valid configs, so that path is an engine bug,
/// not an input condition — and [`SharedSimEvaluator`] degrades the panic
/// to an [`EvalError`].
fn try_simulate_point(
    protocol: &SimProtocol,
    point: &DesignPoint,
) -> Result<Evaluation, EvalError> {
    let mut cfg = point.to_network_config();
    cfg.app = protocol.app;
    let fingerprint = point.fingerprint();
    let seed = protocol.seed ^ hi_des::rng::derive_seed(fingerprint >> 4, fingerprint & 0xF);
    let out = simulate_averaged_budgeted(
        &cfg,
        protocol.channel,
        protocol.t_sim,
        seed,
        protocol.runs,
        protocol.max_events,
    )
    .map_err(|e| match e {
        SimError::Config(c) => panic!("design points lower to valid configs: {c}"),
        deadline @ SimError::DeadlineExceeded { .. } => {
            hi_trace::counter(hi_trace::wellknown::EXEC_DEADLINES, 1);
            EvalError::deadline(format!("evaluation of {point}: {deadline}"))
        }
    })?;
    Ok(Evaluation {
        pdr: out.pdr,
        nlt_days: out.nlt_days,
        power_mw: out.max_power_mw,
        latency_ms: out.latency.mean_ms,
    })
}

/// The production evaluator: runs the discrete-event simulator (averaged
/// over `runs` seeds), memoizing results per design point in a cache
/// *shared* between clones.
///
/// Clones are cheap (`Arc` bump) and hand the same [`EvalCache`] to every
/// worker thread and every engine in the process, so a point simulated by
/// the exhaustive sweep is a cache hit for Algorithm 1 and simulated
/// annealing. The cache's exactly-once contract keeps
/// [`unique_evaluations`](PointEvaluator::unique_evaluations) independent
/// of the thread count, and the per-point seed derivation (certified by
/// `sim_evaluator_is_order_independent`) keeps every `Evaluation`
/// independent of evaluation order.
///
/// Clones also share one [`MilpRoot`]: the root-solved Algorithm-1
/// encoding that every job on this stream starts from.
#[derive(Debug, Clone)]
pub struct SharedSimEvaluator {
    protocol: SimProtocol,
    cache: Arc<EvalCache<DesignPoint, Result<Evaluation, EvalError>>>,
    root: MilpRoot,
}

impl SharedSimEvaluator {
    /// A fresh evaluator (and cache) under `protocol`.
    pub fn new(protocol: SimProtocol) -> Self {
        Self {
            protocol,
            cache: Arc::new(EvalCache::new()),
            root: MilpRoot::default(),
        }
    }

    /// The root-solved Algorithm-1 encoding this stream's jobs share.
    pub fn milp_root(&self) -> &MilpRoot {
        &self.root
    }

    /// The protocol this evaluator runs.
    pub fn protocol(&self) -> &SimProtocol {
        &self.protocol
    }

    /// Seeds the shared cache with a previously simulated outcome —
    /// the import half of cache persistence. Seeded points answer later
    /// lookups as ordinary hits without counting a miss, so a restarted
    /// process reports `simulations 0` for work a previous process paid
    /// for. An existing entry wins; returns whether the seed landed.
    pub fn seed_eval(&self, point: DesignPoint, eval: Evaluation) -> bool {
        self.cache.seed(point, Ok(eval))
    }

    /// Every successfully settled `(point, evaluation)` pair, sorted by
    /// point fingerprint — the export half of cache persistence. Cached
    /// *errors* are deliberately excluded: failures are deterministic
    /// and cheap to rediscover, and persisting them would resurrect
    /// stale diagnostics across configuration changes.
    pub fn cached_ok(&self) -> Vec<(DesignPoint, Evaluation)> {
        let mut out: Vec<(DesignPoint, Evaluation)> = self
            .cache
            .snapshot()
            .into_iter()
            .filter_map(|(point, outcome)| outcome.ok().map(|eval| (point, eval)))
            .collect();
        out.sort_by_key(|(point, _)| point.fingerprint());
        out
    }

    /// Number of cached evaluations (shared across clones).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Cache lookups answered without simulating.
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Cache lookups that had to simulate (equals
    /// [`unique_evaluations`](Self::unique_evaluations); named for
    /// symmetry with [`cache_hits`](Self::cache_hits) at fleet
    /// accounting sites).
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Number of unique expensive evaluations performed (shared across
    /// clones; failed attempts count). Inherent so call sites need not
    /// import [`PointEvaluator`], whose impl delegates here.
    pub fn unique_evaluations(&self) -> u64 {
        self.cache.misses()
    }
}

impl PointEvaluator for SharedSimEvaluator {
    /// Measures (or recalls) `point` through the shared cache, degrading
    /// a panicking simulation to a typed [`EvalError`] (and a
    /// logical-deadline trip to a typed
    /// [`hi_exec::ErrorKind::DeadlineExceeded`] error). The failure is
    /// cached exactly once like a success, so the unique-evaluation count
    /// stays thread-invariant even when some points are broken.
    fn try_eval(&self, point: &DesignPoint) -> Result<Evaluation, EvalError> {
        self.cache.get_or_compute(*point, || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                try_simulate_point(&self.protocol, point)
            }))
            .unwrap_or_else(|payload| Err(EvalError::from_panic(payload.as_ref())));
            if result.is_err() {
                // A fresh compute whose memoized value is a failure: every
                // later lookup of this point is a hit on the cached error.
                hi_trace::counter(hi_trace::wellknown::EXEC_CACHE_PANIC_MEMO, 1);
            }
            result
        })
    }

    fn unique_evaluations(&self) -> u64 {
        SharedSimEvaluator::unique_evaluations(self)
    }

    fn drop_cached(&self, point: &DesignPoint) -> bool {
        self.cache.remove(point)
    }
}

/// A deterministic test/bench oracle backed by a closure, memoized in an
/// [`EvalCache`] that clones share (like [`SharedSimEvaluator`]'s), so the
/// engines count its unique evaluations exactly as they count
/// simulations.
pub struct FnEvaluator<F> {
    f: Arc<F>,
    cache: Arc<EvalCache<DesignPoint, Evaluation>>,
}

impl<F> Clone for FnEvaluator<F> {
    fn clone(&self) -> Self {
        Self {
            f: Arc::clone(&self.f),
            cache: Arc::clone(&self.cache),
        }
    }
}

impl<F> std::fmt::Debug for FnEvaluator<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnEvaluator")
            .field("unique", &self.cache.misses())
            .finish()
    }
}

impl<F: Fn(&DesignPoint) -> Evaluation + Send + Sync + 'static> FnEvaluator<F> {
    /// Wraps a closure as a memoized evaluator.
    pub fn new(f: F) -> Self {
        Self {
            f: Arc::new(f),
            cache: Arc::new(EvalCache::new()),
        }
    }
}

impl<F: Fn(&DesignPoint) -> Evaluation + Send + Sync + 'static> PointEvaluator for FnEvaluator<F> {
    fn try_eval(&self, point: &DesignPoint) -> Result<Evaluation, EvalError> {
        Ok(self.cache.get_or_compute(*point, || (self.f)(point)))
    }

    fn unique_evaluations(&self) -> u64 {
        self.cache.misses()
    }

    fn drop_cached(&self, point: &DesignPoint) -> bool {
        self.cache.remove(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{MacChoice, Placement, RouteChoice};
    use hi_net::TxPower;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn pt() -> DesignPoint {
        DesignPoint {
            placement: Placement::from_indices([0, 1, 3, 5]),
            tx_power: TxPower::ZeroDbm,
            mac: MacChoice::Tdma,
            routing: RouteChoice::Star,
        }
    }

    #[test]
    fn fn_evaluator_memoizes() {
        let calls = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&calls);
        let ev = FnEvaluator::new(move |_p: &DesignPoint| {
            counted.fetch_add(1, Ordering::Relaxed);
            Evaluation {
                pdr: 0.9,
                nlt_days: 10.0,
                power_mw: 1.0,
                latency_ms: 4.0,
            }
        });
        let a = ev.try_eval(&pt()).unwrap();
        // A clone shares the memo: no second call of the closure.
        let b = ev.clone().try_eval(&pt()).unwrap();
        assert_eq!(a, b);
        assert_eq!(ev.unique_evaluations(), 1);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn sim_evaluator_caches_and_counts() {
        let ev = SimProtocol::new(SimDuration::from_secs(5.0), 1, 42).shared_evaluator();
        let a = ev.try_eval(&pt()).unwrap();
        assert_eq!(ev.unique_evaluations(), 1);
        let b = ev.try_eval(&pt()).unwrap();
        assert_eq!(ev.unique_evaluations(), 1);
        assert_eq!(a, b);
        assert_eq!(ev.cache_len(), 1);
        assert!(a.pdr >= 0.0 && a.pdr <= 1.0);
        assert!(a.power_mw > 0.1);
        assert!(a.latency_ms > 0.0, "the DES latency must reach the user");
    }

    #[test]
    fn shared_evaluator_matches_sequential_and_shares_its_cache() {
        let protocol = SimProtocol::new(SimDuration::from_secs(3.0), 1, 99);
        let shared = protocol.shared_evaluator();
        let independent = protocol.shared_evaluator();
        let p1 = pt();
        let mut p2 = pt();
        p2.tx_power = TxPower::Minus10Dbm;
        assert_eq!(shared.try_eval(&p1), independent.try_eval(&p1));
        assert_eq!(shared.try_eval(&p2), independent.try_eval(&p2));
        // A clone sees the same cache: no new simulations, hits recorded.
        let clone = shared.clone();
        assert_eq!(clone.try_eval(&p1), shared.try_eval(&p1));
        assert_eq!(shared.unique_evaluations(), 2);
        assert_eq!(clone.unique_evaluations(), 2);
        assert!(shared.cache_hits() >= 2);
        assert_eq!(shared.cache_len(), 2);
    }

    #[test]
    fn broken_point_degrades_to_a_cached_eval_error() {
        let protocol = SimProtocol::new(SimDuration::from_secs(1.0), 1, 5);
        let shared = protocol.shared_evaluator();
        // Star routing without the chest site: lowering to a network
        // config panics, which must surface as a typed error.
        let broken = DesignPoint {
            placement: Placement::from_indices([1, 2, 3, 4]),
            tx_power: TxPower::ZeroDbm,
            mac: MacChoice::Tdma,
            routing: RouteChoice::Star,
        };
        let err = shared.try_eval(&broken).unwrap_err();
        assert!(err.message().contains("chest"), "panic message lost: {err}");
        // The failure is cached: asking again is a hit, not a recompute,
        // and it still counts as one unique (attempted) evaluation.
        assert_eq!(shared.try_eval(&broken).unwrap_err(), err);
        assert_eq!(PointEvaluator::unique_evaluations(&shared.clone()), 1);
        assert!(shared.cache_hits() >= 1);
        // Healthy points are unaffected.
        assert!(shared.try_eval(&pt()).is_ok());
    }

    #[test]
    fn tiny_event_budget_is_a_typed_deadline_error() {
        let protocol =
            SimProtocol::new(SimDuration::from_secs(5.0), 2, 11).with_max_events(Some(3));
        let shared = protocol.shared_evaluator();
        let err = shared.try_eval(&pt()).unwrap_err();
        assert_eq!(err.kind(), hi_exec::ErrorKind::DeadlineExceeded);
        assert!(err.message().contains("event budget"), "{err}");
        // Deterministic: the cached error equals a fresh recompute's.
        let again = protocol.shared_evaluator().try_eval(&pt()).unwrap_err();
        assert_eq!(err, again);
    }

    #[test]
    fn generous_event_budget_is_bit_identical_to_unbudgeted() {
        let plain = SimProtocol::new(SimDuration::from_secs(3.0), 1, 23);
        let budgeted = plain.with_max_events(Some(u64::MAX));
        let a = plain.shared_evaluator().try_eval(&pt()).unwrap();
        let b = budgeted.shared_evaluator().try_eval(&pt()).unwrap();
        assert_eq!(a.pdr.to_bits(), b.pdr.to_bits());
        assert_eq!(a.nlt_days.to_bits(), b.nlt_days.to_bits());
        assert_eq!(a.power_mw.to_bits(), b.power_mw.to_bits());
        assert_eq!(a.latency_ms.to_bits(), b.latency_ms.to_bits());
    }

    #[test]
    fn drop_cached_forces_a_deterministic_recompute() {
        let protocol = SimProtocol::new(SimDuration::from_secs(2.0), 1, 77);
        let shared = protocol.shared_evaluator();
        let first = shared.try_eval(&pt()).unwrap();
        assert!(shared.drop_cached(&pt()), "entry was cached");
        assert!(!shared.drop_cached(&pt()), "second drop finds nothing");
        let second = shared.try_eval(&pt()).unwrap();
        assert_eq!(first.pdr.to_bits(), second.pdr.to_bits());
        assert_eq!(shared.unique_evaluations(), 2, "the recompute is a miss");
    }

    #[test]
    fn sim_evaluator_is_order_independent() {
        let protocol = SimProtocol::new(SimDuration::from_secs(5.0), 1, 7);
        let p1 = pt();
        let mut p2 = pt();
        p2.tx_power = TxPower::Minus10Dbm;
        let a = protocol.shared_evaluator();
        let r1 = (a.try_eval(&p1).unwrap(), a.try_eval(&p2).unwrap());
        let b = protocol.shared_evaluator();
        let r2 = (b.try_eval(&p2).unwrap(), b.try_eval(&p1).unwrap());
        assert_eq!(r1.0, r2.1);
        assert_eq!(r1.1, r2.0);
    }
}
