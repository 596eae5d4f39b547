//! `fleet_warm`: a `hi-serve` fleet restarted over a warm state
//! directory, serving one closed-loop client.
//!
//! Why: it runs zero simulations. Its work is many small nominal MILP
//! pool solves (where per-solve overhead and lint dominate), cache hits,
//! segment hydrate and the Pareto front — the same MILP layer `robust`
//! stresses, used differently, and the daemon's restart and query path
//! that no other workload touches.
//!
//! Set-up (once per process, untimed): a cold daemon serves every job
//! once and shuts down, leaving job records, cache segments and front
//! segments in a state directory inside the checkout.
//!
//! Each repetition restarts on that directory, which is read-only until
//! a job is submitted: `Server::new` (record scan, segment and front
//! store open), a first `FRONT` (front hydrate), and the job stream's
//! evaluator hydrated from the segment store. Restart plus the primer
//! job is the measured set-up. The measured jobs then run one after
//! another through the fleet layer the daemon itself uses
//! (`run_profile`, `render_result`), each followed by a `FRONT` query
//! to the restarted daemon.
//!
//! The daemon's own job path fsyncs several files per job, and on this
//! kind of shared virtual disk an fsync costs anywhere from 0.2 to 2 ms
//! depending on the neighbours, which would bury every other layer. So
//! the timed path writes nothing; traced repetitions submit a few jobs
//! through `Server::{submit, wait, result}` on a copy of the state and
//! report the write path's exact volume and its share of a job.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hi_core::{ExecContext, MilpEncoding};
use hi_serve::{
    parse_profiles, render_result, run_profile, FleetEvaluator, JobState, RunPolicy, SegmentStore,
    ServeConfig, Server, UserProfile,
};
use hi_trace::wellknown as wk;

use crate::engine;
use crate::procfs;
use crate::stats::ratio;
use crate::{lint_time, Rep, Workload};

/// Measured jobs per repetition; one primer job more is served first.
pub const JOBS: usize = 100;
/// Jobs a traced repetition submits through the daemon's write path.
const PROBE_JOBS: usize = 10;
/// The `ladder` protocol: short protocols make the cold pass's verdicts
/// near the floors coin flips, and the warm state's size with them.
const T_SIM_S: f64 = 20.0;
const RUNS: u32 = 2;
const THREADS: usize = 1;
/// Every job shares one physics stream; the run's seed picks the floors.
const PHYSICS_SEED: u64 = 1;
/// The daemon's default compaction threshold.
const COMPACT_THRESHOLD: u32 = 256;
/// The daemon's policy, without its per-iteration checkpoints.
const POLICY: RunPolicy = RunPolicy {
    max_events: None,
    retry_attempts: 3,
    checkpoint_every: None,
};

pub struct FleetWarm {
    root: PathBuf,
    warm_dir: PathBuf,
    /// Profile text per job; index 0 is the primer.
    profiles: Vec<String>,
    /// Daemon job id of each profile in the warm state.
    job_ids: Vec<u64>,
    /// The cold pass's RESULT design lines per job.
    cold_designs: Vec<String>,
    /// The cold pass's final FRONT point rows.
    cold_front: String,
    cold_simulations: u64,
    /// Pareto archive inserts and dominated offers of the cold pass; a
    /// warm daemon re-offers nothing, so these are the front's build cost.
    cold_pareto: (u64, u64),
    cold_failures: Vec<String>,
    stream_key: u64,
    lint_one_s: f64,
}

fn config(dir: &Path) -> ServeConfig {
    let mut config = ServeConfig::new(dir);
    config.threads = THREADS;
    config.compact_threshold = COMPACT_THRESHOLD;
    config
}

/// `splitmix64`: a fixed generator, so a seed names the same floors on
/// every platform.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Floors in [0.5, 0.95] at 0.001 steps, drawn from `seed`: one from
/// each of `JOBS + 1` equal strata, in shuffled order. Stratifying keeps
/// the range covered for every seed, so the warm state (how many points
/// the cold pass simulated) does not swing with the seed.
fn floors(seed: u64) -> Vec<f64> {
    let mut state = seed;
    let strata = (JOBS + 1) as u64;
    let mut floors: Vec<f64> = (0..strata)
        .map(|i| {
            let (lo, hi) = (i * 451 / strata, (i + 1) * 451 / strata);
            (500 + lo + splitmix64(&mut state) % (hi - lo)) as f64 / 1000.0
        })
        .collect();
    for i in (1..floors.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        floors.swap(i, j);
    }
    floors
}

/// The RESULT lines that describe the design, not the effort spent.
fn design_lines(result: &str) -> String {
    result
        .lines()
        .filter(|line| {
            let key = line.split_whitespace().next().unwrap_or("");
            matches!(
                key,
                "profile" | "status" | "design" | "pdr" | "nlt_days" | "power_mw" | "latency_ms"
            )
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

fn front_points(front: &str) -> String {
    front
        .lines()
        .filter(|line| line.starts_with("point "))
        .map(|line| format!("{line}\n"))
        .collect()
}

fn line_value<'a>(block: &'a str, key: &str) -> Option<&'a str> {
    block
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(' '))
}

/// `power_mw <exact bits> <rounded>` as a number.
fn result_power_mw(result: &str) -> f64 {
    line_value(result, "power_mw")
        .and_then(|v| v.split_whitespace().next())
        .and_then(|bits| u64::from_str_radix(bits, 16).ok())
        .map_or(0.0, f64::from_bits)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// One job through the daemon: submit, wait, RESULT, FRONT.
fn submit_and_fetch(server: &Server, profile: &str) -> Result<(String, String), String> {
    let ids = server.submit(profile)?;
    let [id] = ids[..] else {
        return Err(format!("one profile minted {} jobs", ids.len()));
    };
    let state = server.wait(id, &mut |_| true)?;
    if state != JobState::Done {
        return Err(format!("job {id} ended {state}"));
    }
    Ok((server.result(id)?, server.front_block(id)?))
}

fn parse_one(text: &str) -> Result<UserProfile, String> {
    let mut profiles = parse_profiles(text).map_err(|e| e.to_string())?;
    match profiles.len() {
        1 => Ok(profiles.remove(0)),
        n => Err(format!("a job's profile text holds {n} profiles")),
    }
}

/// The daemon's restart, up to the first answer it can give.
struct Restarted {
    server: Server,
    evaluator: FleetEvaluator,
    restart_s: f64,
    hydrate_s: f64,
    entries_loaded: u64,
}

/// One job's answer as the client saw it.
struct Served {
    latency_s: f64,
    result_s: f64,
    front_s: f64,
    result: String,
    front: String,
    simulations: u64,
}

impl FleetWarm {
    /// Builds the job stream from `seed` and serves it once, cold, into a
    /// state directory under `root`.
    pub fn new(seed: u64, root: &Path) -> Result<Self, String> {
        let profiles: Vec<String> = floors(seed)
            .iter()
            .enumerate()
            .map(|(i, floor)| {
                format!(
                    "profile u{i:03}\ntsim {T_SIM_S}\nruns {RUNS}\nseed {PHYSICS_SEED}\npdrmin {floor}\n"
                )
            })
            .collect();
        let first = parse_one(&profiles[0])?;
        let problem = first.problem();
        let encoding = MilpEncoding::new(problem.space.constraints(), &problem.app);
        let mut workload = Self {
            root: root.to_path_buf(),
            warm_dir: root.join("warm"),
            profiles,
            job_ids: Vec::new(),
            cold_designs: Vec::new(),
            cold_front: String::new(),
            cold_simulations: 0,
            cold_pareto: (0, 0),
            cold_failures: Vec::new(),
            stream_key: first.eval_fingerprint(None),
            lint_one_s: lint_time(encoding.model()),
        };
        workload.cold_pass()?;
        Ok(workload)
    }

    fn cold_pass(&mut self) -> Result<(), String> {
        let server = Server::new(config(&self.warm_dir))?;
        let served: Vec<Result<(String, String), String>> = std::thread::scope(|scope| {
            scope.spawn(|| server.scheduler_loop());
            let served = self
                .profiles
                .iter()
                .map(|p| submit_and_fetch(&server, p))
                .collect();
            server.request_shutdown();
            served
        });
        for (i, job) in served.into_iter().enumerate() {
            // Job ids are minted from 1 in submission order.
            self.job_ids.push(i as u64 + 1);
            match job {
                Ok((result, front)) => {
                    if line_value(&result, "status") != Some("feasible") {
                        self.cold_failures
                            .push(format!("cold job {i}: no feasible design"));
                    }
                    self.cold_designs.push(design_lines(&result));
                    // Every job runs on the one stream, so the last FRONT
                    // is the stream's final front.
                    self.cold_front = front_points(&front);
                }
                Err(e) => {
                    self.cold_failures.push(format!("cold job {i}: {e}"));
                    self.cold_designs.push(String::new());
                }
            }
        }
        let registry = server.registry();
        self.cold_simulations = registry.counter_value(wk::NET_REPLICATIONS);
        self.cold_pareto = (
            registry.counter_value(wk::SERVE_PARETO_INSERTS),
            registry.counter_value(wk::SERVE_PARETO_DOMINATED),
        );
        if self.cold_simulations == 0 {
            return Err("the cold pass ran no simulations".into());
        }
        Ok(())
    }

    /// Restarts over the warm state: `Server::new`, then the job
    /// stream's evaluator hydrated from the segment store.
    fn restart(&self, protocol_of: &UserProfile) -> Result<Restarted, String> {
        let t0 = Instant::now();
        let server = Server::new(config(&self.warm_dir))?;
        let restart_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let (segments, notes) = SegmentStore::open(
            config(&self.warm_dir).resolved_cache_dir(),
            COMPACT_THRESHOLD,
            None,
        )
        .map_err(|e| format!("cannot open the segment store: {e}"))?;
        if !notes.is_empty() {
            return Err(format!("segment store needed repair: {notes:?}"));
        }
        let evaluator = FleetEvaluator::Nominal(protocol_of.protocol().shared_evaluator());
        for outcome in segments.hydrate(self.stream_key) {
            evaluator.import_entry(outcome);
        }
        let hydrate_s = t1.elapsed().as_secs_f64();
        Ok(Restarted {
            server,
            evaluator,
            restart_s,
            hydrate_s,
            entries_loaded: segments.stats().loaded,
        })
    }

    /// Serves job `i` in process and asks the daemon for its FRONT.
    fn serve(&self, i: usize, restarted: &Restarted, exec: &ExecContext) -> Result<Served, String> {
        let t0 = Instant::now();
        let profile = parse_one(&self.profiles[i])?;
        if profile.eval_fingerprint(None) != self.stream_key {
            return Err(format!("job {i} left the shared stream"));
        }
        let outcome = run_profile(
            &profile,
            &restarted.evaluator,
            exec,
            POLICY,
            None,
            &mut |_| {},
        )?;
        let t1 = Instant::now();
        let result = render_result(&profile, &outcome);
        let latency_s = t0.elapsed().as_secs_f64();
        let result_s = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        let front = restarted.server.front_block(self.job_ids[i])?;
        let front_s = t2.elapsed().as_secs_f64();
        Ok(Served {
            latency_s,
            result_s,
            front_s,
            result,
            front,
            simulations: outcome.simulations,
        })
    }

    /// Checks job `i`'s answers against the cold pass; returns its design
    /// lines.
    fn check(
        &self,
        i: usize,
        result: &str,
        front: &str,
        simulations: u64,
        rep: &mut Rep,
    ) -> String {
        if simulations != 0 || line_value(result, "simulations") != Some("0") {
            rep.fail(format!("warm job {i} ran simulations"));
        }
        if line_value(front, "simulations") != Some("0") {
            rep.fail(format!("warm FRONT of job {i} reports simulations"));
        }
        let design = design_lines(result);
        if design != self.cold_designs[i] {
            rep.fail(format!(
                "warm job {i} answered differently from the cold pass"
            ));
        }
        if front_points(front) != self.cold_front {
            rep.fail(format!("warm FRONT of job {i} differs from the cold front"));
        }
        design
    }

    /// Submits the first jobs through the daemon on a copy of the warm
    /// state and returns (bytes written, write calls, daemon-side job
    /// seconds, in-process job seconds) for them.
    fn write_probe(&self, rep: &mut Rep) -> Result<(u64, u64, f64, f64), String> {
        let dir = self.root.join("probe");
        copy_dir(&self.warm_dir, &dir).map_err(|e| format!("cannot copy the warm state: {e}"))?;
        let server = Server::new(config(&dir))?;
        let (served, io) = std::thread::scope(|scope| {
            scope.spawn(|| server.scheduler_loop());
            let before = procfs::Sample::now();
            let served: Vec<_> = (1..=PROBE_JOBS)
                .map(|i| submit_and_fetch(&server, &self.profiles[i]))
                .collect();
            let io = before.until(&procfs::Sample::now());
            server.request_shutdown();
            (served, io)
        });
        for (i, job) in served.iter().enumerate() {
            match job {
                Ok((result, front)) => {
                    self.check(i + 1, result, front, 0, rep);
                }
                Err(e) => rep.fail(format!("daemon job {}: {e}", i + 1)),
            }
        }
        let registry = server.registry();
        if registry.counter_value(wk::NET_REPLICATIONS) != 0 {
            rep.fail("the restarted daemon ran simulations".into());
        }
        let daemon_s = engine::hist_sum_s(registry, wk::SERVE_JOB_LATENCY_NS);
        drop(server);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {dir:?}: {e}"))?;
        let in_process_s: f64 = rep.jobs_s.iter().take(PROBE_JOBS).sum();
        Ok((io.wchar, io.syscw, daemon_s, in_process_s))
    }
}

impl Workload for FleetWarm {
    fn setup_only(&mut self) -> Option<f64> {
        None
    }

    fn threads(&self) -> usize {
        THREADS
    }

    fn rep(&mut self, traced: bool) -> Result<Rep, String> {
        let primer = parse_one(&self.profiles[0])?;
        let t0 = Instant::now();
        let restarted = self.restart(&primer)?;
        let first = self.serve(0, &restarted, &ExecContext::new(THREADS));
        let setup_s = t0.elapsed().as_secs_f64();

        let collector = engine::collector(traced);
        let exec = ExecContext::new(THREADS).with_collector(collector.clone());
        let (hits_before, misses_before) = (
            restarted.evaluator.cache_hits(),
            restarted.evaluator.cache_misses(),
        );
        let solved = engine::solve(&collector, || {
            (1..=JOBS)
                .map(|i| self.serve(i, &restarted, &exec))
                .collect::<Vec<_>>()
        });
        let registry = engine::registry(&collector);
        let counts = engine::counts(registry);

        let mut rep = Rep::new(setup_s, solved.solve_s, solved.proc, counts);
        rep.answer_simulations = self.cold_simulations;
        rep.failures.extend(self.cold_failures.iter().cloned());
        rep.attempted = 1 + JOBS as u64;
        match first {
            Ok(job) => {
                let design = self.check(0, &job.result, &job.front, job.simulations, &mut rep);
                rep.outputs.push_str(&design);
            }
            Err(e) => rep.fail(format!("primer job: {e}")),
        }
        let (mut result_s, mut front_s) = (0.0, 0.0);
        for (i, job) in solved.value.iter().enumerate() {
            match job {
                Ok(job) => {
                    rep.jobs_s.push(job.latency_s);
                    result_s += job.result_s;
                    front_s += job.front_s;
                    rep.design_power_mw += result_power_mw(&job.result);
                    let design =
                        self.check(i + 1, &job.result, &job.front, job.simulations, &mut rep);
                    rep.outputs.push_str(&design);
                }
                Err(e) => rep.fail(format!("job {}: {e}", i + 1)),
            }
        }
        rep.outputs
            .push_str(&format!("cold simulations {}\n", self.cold_simulations));
        if counts.simulations != 0 {
            rep.fail("a warm job ran simulations".into());
        }

        if let Some(spans) = &solved.spans {
            let hits = restarted.evaluator.cache_hits() - hits_before;
            let misses = restarted.evaluator.cache_misses() - misses_before;
            let counter = |name| registry.counter_value(name) as f64;
            // One thread: the pass's evaluations run inline, inside the
            // `exec.batch` spans.
            let eval_s = spans.busy("exec.batch");
            let milp_s = engine::hist_sum_s(registry, wk::MILP_SOLVE_NS);
            let (bytes, writes, daemon_s, in_process_s) = self.write_probe(&mut rep)?;
            let pass_s = solved.solve_s;
            let m = &mut rep.layers;
            m.insert("milp.solves", counter(wk::MILP_SOLVES));
            m.insert("milp.solve_s", milp_s);
            m.insert("milp.solve_share", ratio(milp_s, pass_s));
            m.insert("milp.pivots", counter(wk::MILP_PIVOTS));
            m.insert("milp.bb_nodes", counter(wk::MILP_BB_NODES));
            m.insert(
                "milp.pivots_per_node",
                ratio(counter(wk::MILP_PIVOTS), counter(wk::MILP_BB_NODES)),
            );
            m.insert("milp.lint_s", self.lint_one_s * counter(wk::MILP_SOLVES));
            m.insert("core.evals", counter(wk::CORE_EVALS));
            m.insert("core.eval_share", ratio(eval_s, pass_s));
            m.insert(
                "core.cache_hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
            );
            m.insert("algo1.iterations", counter(wk::ALGO1_ITERATIONS));
            m.insert("algo1.candidates", counter(wk::ALGO1_CANDIDATES));
            m.insert(
                "engine.self_s",
                (pass_s - eval_s - milp_s - result_s - front_s).max(0.0),
            );
            m.insert("serve.restart_share", ratio(restarted.restart_s, setup_s));
            m.insert("serve.hydrate_share", ratio(restarted.hydrate_s, setup_s));
            m.insert("serve.result_share", ratio(result_s, pass_s));
            m.insert("serve.front_share", ratio(front_s, pass_s));
            m.insert(
                "serve.persist_share",
                ratio(daemon_s - in_process_s, daemon_s),
            );
            m.insert(
                "serve.bytes_written_per_job",
                bytes as f64 / PROBE_JOBS as f64,
            );
            m.insert(
                "serve.files_written_per_job",
                writes as f64 / PROBE_JOBS as f64,
            );
            m.insert(
                "serve.cache.entries_loaded",
                restarted.entries_loaded as f64,
            );
            m.insert("serve.fleet.cache_hits", hits as f64);
            m.insert("pareto.inserts", self.cold_pareto.0 as f64);
            m.insert("pareto.dominated", self.cold_pareto.1 as f64);
            m.insert(
                "trace.attributed_share",
                ratio(spans.main_lane_self, pass_s),
            );
            rep.spans = Some(spans.clone());
        }
        Ok(rep)
    }
}
