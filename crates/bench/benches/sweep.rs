//! Microbenchmark B5: the pool-backed design-space sweep.
//!
//! Runs the same exhaustive sweep (real discrete-event simulator, short
//! protocol) sequentially and on the `hi-exec` pool, and reports the
//! measured speedup. A fresh evaluator is built per iteration so every
//! iteration pays the full simulation cost rather than hitting the cache.
//! On a single-core host the ratio is expected to be ~1x (the engine's
//! value there is determinism + shared caching, not speedup); on
//! multi-core hosts it should approach the worker count for this
//! embarrassingly parallel workload. The fleet and Pareto rows time
//! `hi-serve`'s cross-user dedup, front build/hydrate and warm restart.
//! Per-layer measurements with spreads are `perfbench`'s job.

use std::time::Instant;

use hi_bench::micro::Runner;
use hi_bench::{parallel_sweep, ExpOptions};
use hi_core::{DesignSpace, ExecContext};
use hi_des::SimDuration;

fn main() {
    let quick = std::env::var_os("HI_BENCH_QUICK").is_some();
    let runner = Runner::new("sweep");
    let mut points = DesignSpace::paper_default().points();
    if quick {
        points.truncate(24);
    }
    let opts = |threads: usize| ExpOptions {
        t_sim: SimDuration::from_secs(2.0),
        runs: 1,
        seed: 7,
        threads,
    };
    let threads = hi_exec::default_threads();

    runner.bench("exhaustive_sequential", || {
        parallel_sweep(&points, &opts(1))
    });
    runner.bench(&format!("exhaustive_pool_{threads}threads"), || {
        parallel_sweep(&points, &opts(threads))
    });

    // One paired measurement for the headline ratio (the Runner prints
    // per-variant stats above; this line makes the comparison explicit).
    let t0 = Instant::now();
    let seq = parallel_sweep(&points, &opts(1));
    let sequential = t0.elapsed();
    let t1 = Instant::now();
    let par = parallel_sweep(&points, &opts(threads));
    let pooled = t1.elapsed();
    assert_eq!(seq, par, "pool changed the sweep's results");
    println!(
        "  sweep/speedup_{}pts_{}threads          {:.2}x (seq {:.3?} vs pool {:.3?})",
        points.len(),
        threads,
        sequential.as_secs_f64() / pooled.as_secs_f64().max(1e-9),
        sequential,
        pooled
    );

    // Fleet mode: a batch of user profiles through one shared,
    // fingerprint-keyed evaluator pool (`hi-serve`'s cross-user dedup).
    // Three of the four profiles share their lowered physics, so after
    // the first user pays for the simulations the other two run almost
    // entirely from cache — the printed hit count is the measured dedup
    // factor, not a synthetic one.
    let fleet_text = "\
profile alice\ntsim 2\nruns 1\nseed 7\npdrmin 0.9\n\
profile bob\ntsim 2\nruns 1\nseed 7\npdrmin 0.85\n\
profile carol\ntsim 2\nruns 1\nseed 7\npdrmin 0.7\n\
profile dave\ntsim 2\nruns 1\nseed 7\npdrmin 0.9\ngeometry 1.15\ntraffic 25 64\n";
    let profiles = hi_serve::parse_profiles(fleet_text).expect("bench fleet parses");
    for t in [1, threads] {
        let exec = ExecContext::new(t);
        let fleet = hi_serve::FleetCache::new();
        let policy = hi_serve::RunPolicy {
            max_events: None,
            retry_attempts: 3,
            checkpoint_every: None,
        };
        let t0 = Instant::now();
        for profile in &profiles {
            let protocol = profile.protocol();
            let key = profile.eval_fingerprint(None);
            let evaluator = fleet.evaluator(key, || {
                hi_serve::FleetEvaluator::Nominal(protocol.shared_evaluator())
            });
            hi_serve::run_profile(profile, &evaluator, &exec, policy, None, &mut |_| {})
                .expect("fleet profile runs");
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let stats = fleet.stats();
        println!(
            "  sweep/fleet_dedup_{}profiles_{}threads   {:.3}s, {} evaluator(s), {} hits / {} misses",
            profiles.len(),
            t,
            wall_s,
            stats.evaluators,
            stats.hits,
            stats.misses
        );
        if threads == 1 {
            break;
        }
    }

    // Pareto archive: the cost of folding a full sweep's evaluations
    // into the epsilon-box front, and of hydrating the same front back
    // from a rendered segment file. Both are pure CPU — zero fresh
    // simulations — so the rows pin down the overhead a FRONT query (or
    // a warm `tradeoff --archive`) adds on top of the evaluation cache.
    {
        let evaluator = opts(1).evaluator();
        let exec = ExecContext::new(1);
        for slot in exec.try_eval_points(&evaluator, &points) {
            slot.expect("sweep is never cancelled")
                .expect("evaluation succeeds");
        }
        let evals = evaluator.cached_ok();
        let to_point =
            |(point, eval): &(hi_core::DesignPoint, hi_core::Evaluation)| hi_pareto::FrontPoint {
                fingerprint: point.fingerprint(),
                power_mw: eval.power_mw,
                pdr: eval.pdr,
                latency_ms: eval.latency_ms,
                nlt_days: eval.nlt_days,
            };
        let build = || {
            let mut archive = hi_pareto::ParetoArchive::new(hi_pareto::ArchiveConfig::default());
            for pair in &evals {
                archive.insert(to_point(pair));
            }
            archive
        };
        runner.bench(&format!("pareto_front_build_{}pts", evals.len()), build);
        let archive = build();
        let front = archive.front();
        let segment = hi_serve::render_front_segment(0x42, &front);
        runner.bench(&format!("pareto_front_hydrate_{}pts", front.len()), || {
            let load = hi_serve::parse_front_segment(&segment).expect("bench segment is valid");
            let mut warm = hi_pareto::ParetoArchive::new(hi_pareto::ArchiveConfig::default());
            for point in load.entries {
                warm.insert(point);
            }
            assert_eq!(warm.len(), front.len(), "hydration changed the front");
        });
    }

    // Warm restart: the same fleet, served by a daemon that was killed
    // and restarted between the cold run and the re-submission. Pass 1
    // runs cold and spills every evaluator's outcomes to CRC-checked
    // segment files; pass 2 starts from empty in-memory state, hydrates
    // the segments, and re-runs the whole fleet. Its hit rate is the
    // measured durability payoff — close to 1.0, far above the
    // cold-fleet dedup rate — and its simulation count should be 0.
    let cache_dir =
        std::env::temp_dir().join(format!("hi-bench-warm-{}-{}", threads, std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let run_fleet = |fleet: &hi_serve::FleetCache,
                     exec: &ExecContext,
                     store: Option<&hi_serve::SegmentStore>| {
        let policy = hi_serve::RunPolicy {
            max_events: None,
            retry_attempts: 3,
            checkpoint_every: None,
        };
        for profile in &profiles {
            let protocol = profile.protocol();
            let key = profile.eval_fingerprint(None);
            let evaluator = fleet.evaluator(key, || {
                let built = hi_serve::FleetEvaluator::Nominal(protocol.shared_evaluator());
                if let Some(store) = store {
                    for outcome in store.hydrate(key) {
                        built.import_entry(outcome);
                    }
                }
                built
            });
            hi_serve::run_profile(profile, &evaluator, exec, policy, None, &mut |_| {})
                .expect("fleet profile runs");
        }
    };
    {
        // Pass 1 (cold, spilled): equivalent to a daemon run + SHUTDOWN.
        let exec = ExecContext::new(threads);
        let fleet = hi_serve::FleetCache::new();
        let (store, _) = hi_serve::SegmentStore::open(cache_dir.clone(), 256, None)
            .expect("bench cache dir is writable");
        run_fleet(&fleet, &exec, None);
        for (key, evaluator) in fleet.streams() {
            store
                .flush(key, &evaluator.export_entries())
                .expect("segments flush");
        }
    }
    {
        // Pass 2 (warm restart): fresh in-memory state, warm disk.
        let exec = ExecContext::new(threads);
        let fleet = hi_serve::FleetCache::new();
        let (store, notes) = hi_serve::SegmentStore::open(cache_dir.clone(), 256, None)
            .expect("bench cache dir reloads");
        assert!(notes.is_empty(), "clean segments reload clean: {notes:?}");
        let t0 = Instant::now();
        run_fleet(&fleet, &exec, Some(&store));
        let wall_s = t0.elapsed().as_secs_f64();
        let stats = fleet.stats();
        let hit_rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
        println!(
            "  sweep/fleet_warm_restart_{}profiles     {:.3}s, {} hits / {} misses ({:.0}% warm)",
            profiles.len(),
            wall_s,
            stats.hits,
            stats.misses,
            hit_rate * 100.0
        );
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}
