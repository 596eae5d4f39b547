//! The daemon: a persistent job queue behind the wire protocol.
//!
//! One [`Server`] owns the job table (a mutex + condvar — submissions,
//! cancellations and `WAIT` streams are control-plane traffic; the data
//! plane is the `hi-exec` pool inside each job), the cross-user
//! [`FleetCache`], and a metrics-only `hi-trace` collector whose
//! registry backs `STATS`.
//!
//! **Scheduling is strictly serial in job-id order.** One job runs at a
//! time on the scheduler thread, fanning out over `threads` workers via
//! its own [`ExecContext`]; ids are assigned in submission order and
//! restarts re-enqueue in id order. Serial order is what makes the fleet
//! cache deterministic: the simulations job *n* finds warm are exactly
//! the ones jobs `1..n` ran, independent of thread count, connection
//! interleaving, or a crash between jobs.
//!
//! **Every lifecycle transition is persisted before it is observable**
//! (CRC-checked, atomically rotated [`JobRecord`]s), and Algorithm-1
//! jobs auto-checkpoint every iteration. A SIGKILLed daemon therefore
//! restarts into the same queue: terminal jobs serve their recorded
//! result bytes, the interrupted job resumes from its checkpoint, and
//! the resumed result block is byte-identical to an uninterrupted run
//! (cumulative counters are part of the checkpoint contract).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufRead, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use hi_core::{
    load_checkpoint_file, parse_fault_suite, store, warmup_events_floor, CancelToken, ChaosPolicy,
    ExecContext, FaultSuite, RobustEvaluator, StopReason, SuiteParseError,
};
use hi_pareto::{ArchiveConfig, FrontPoint, InsertOutcome, ParetoArchive};
use hi_trace::{wellknown as wk, Collector, MetricsRegistry};

use crate::fleet::{f64_hex, render_result, run_profile, FleetCache, FleetEvaluator, RunPolicy};
use crate::front::FrontStore;
use crate::persist::{checkpoint_path, record_path, scan_records, JobRecord, JobState};
use crate::profile::{lint_profiles, parse_profiles, UserProfile};
use crate::proto::{err_line, ok_block, ok_line, Request};
use crate::segment::SegmentStore;

/// Everything the daemon is configured with.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory job records, checkpoints and the `addr` file live in.
    pub state_dir: std::path::PathBuf,
    /// TCP listen address (`host:port`; port 0 picks a free one). The
    /// actually bound address is written to `<state_dir>/addr`.
    pub listen: Option<String>,
    /// Serve the protocol on stdin/stdout as well. When stdio is the
    /// only frontend, EOF on stdin requests shutdown.
    pub stdio: bool,
    /// Worker threads per job's `ExecContext`.
    pub threads: usize,
    /// Maximum queued-or-running jobs admitted at once (HL043 ≥ 1).
    pub queue_capacity: usize,
    /// Supervised-retry attempts per evaluation.
    pub retry_attempts: u32,
    /// Per-replication DES event budget applied to every job, if any
    /// (HL043 checks it against the warm-up floor).
    pub max_events: Option<u64>,
    /// Directory cache segments live in (`None` = `<state_dir>/cache`).
    /// HL044 refuses a collision with the job-record directory.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Segment appends per stream before the file is compacted (full
    /// atomic rewrite). HL044 refuses 0 and absurd values.
    pub compact_threshold: u32,
    /// Per-connection TCP read/write timeout in seconds (0 = none), so
    /// a stalled peer's thread is reaped instead of pinned forever.
    pub conn_timeout_secs: u64,
    /// Fault injection for the persistence layer (segment drops, torn
    /// appends) on top of the evaluator-level chaos knobs.
    pub chaos: Option<ChaosPolicy>,
}

impl ServeConfig {
    /// A config with the daemon defaults: TCP/stdio off, the machine's
    /// thread count, a 64-deep queue, 3 retry attempts, no deadline.
    pub fn new(state_dir: impl Into<std::path::PathBuf>) -> Self {
        Self {
            state_dir: state_dir.into(),
            listen: None,
            stdio: false,
            threads: hi_exec::default_threads(),
            queue_capacity: 64,
            retry_attempts: 3,
            max_events: None,
            cache_dir: None,
            compact_threshold: 256,
            conn_timeout_secs: 600,
            chaos: None,
        }
    }

    /// The effective segment directory: `cache_dir`, defaulting to
    /// `<state_dir>/cache`.
    pub fn resolved_cache_dir(&self) -> std::path::PathBuf {
        self.cache_dir
            .clone()
            .unwrap_or_else(|| self.state_dir.join("cache"))
    }

    /// Lowers this config for `hi_lint::lint_server` (HL043).
    pub fn lint_spec(&self) -> hi_lint::ServerSpec {
        hi_lint::ServerSpec {
            queue_capacity: self.queue_capacity,
            job_max_events: self.max_events,
            warmup_events_floor: warmup_events_floor(),
        }
    }

    /// Lowers this config for `hi_lint::lint_cache_persist` (HL044).
    pub fn cache_lint_spec(&self) -> hi_lint::CachePersistSpec {
        hi_lint::CachePersistSpec {
            compact_threshold: self.compact_threshold,
            cache_dir: self.resolved_cache_dir(),
            record_dir: self.state_dir.clone(),
        }
    }
}

struct JobEntry {
    record: JobRecord,
    profile: UserProfile,
    /// The job's evaluator stream, derived once at submit (or at
    /// restart), or why it could not be: a robust job whose suite fails
    /// to load fails with that error when it runs.
    stream: Result<JobStream, String>,
    progress: Vec<String>,
    cancel: Option<CancelToken>,
    cancel_requested: bool,
    accepted: Instant,
}

struct State {
    jobs: BTreeMap<u64, JobEntry>,
    queue: VecDeque<u64>,
    running: Option<u64>,
    next_id: u64,
    shutdown: bool,
    /// Idempotency tokens → the job ids they minted, in submit order.
    /// Rebuilt from records on restart, so replay works across crashes.
    tokens: BTreeMap<String, Vec<u64>>,
}

/// A job's evaluator stream: the fleet key its evaluations share and,
/// for a robust profile, the fault suite read, parsed and linted once.
#[derive(Clone)]
struct JobStream {
    key: u64,
    suite: Option<Arc<FaultSuite>>,
}

impl JobStream {
    /// Derives `profile`'s stream, loading its fault suite if it has one.
    fn derive(profile: &UserProfile) -> Result<Self, String> {
        if profile.faults.is_none() {
            return Ok(Self {
                key: profile.eval_fingerprint(None),
                suite: None,
            });
        }
        let (text, suite) = load_suite(profile)?;
        Ok(Self {
            key: profile.eval_fingerprint(Some(&text)),
            suite: Some(Arc::new(suite)),
        })
    }
}

/// One evaluator stream's in-memory Pareto archive, plus the set of
/// fingerprints already offered to it. Re-offering is harmless for the
/// front itself (a fingerprint determines its evaluation), but skipping
/// re-offers keeps the insert/dominated counters counting *evaluations*,
/// not settle batches.
struct ArchiveEntry {
    archive: ParetoArchive,
    offered: BTreeSet<u64>,
    /// The `point` rows of the `FRONT` block, rendered whenever the
    /// archive changes, so a query only copies them.
    rows: String,
}

impl ArchiveEntry {
    /// An archive holding `points` (a stream's hydrated front), all
    /// marked offered.
    fn hydrate(points: Vec<FrontPoint>) -> Self {
        let mut entry = ArchiveEntry {
            archive: ParetoArchive::new(ArchiveConfig::default()),
            offered: BTreeSet::new(),
            rows: String::new(),
        };
        for point in points {
            entry.offered.insert(point.fingerprint);
            entry.archive.insert(point);
        }
        entry.render();
        entry
    }

    /// Offers `points`, skipping fingerprints offered before; returns
    /// (inserted, dominated) and re-renders the rows if any landed.
    fn offer(&mut self, points: Vec<FrontPoint>) -> (u64, u64) {
        let (mut inserts, mut dominated) = (0, 0);
        for point in points {
            if !self.offered.insert(point.fingerprint) {
                continue;
            }
            match self.archive.insert(point) {
                InsertOutcome::Added { .. } => inserts += 1,
                InsertOutcome::Dominated => dominated += 1,
            }
        }
        if inserts > 0 {
            self.render();
        }
        (inserts, dominated)
    }

    fn render(&mut self) {
        let _span = hi_trace::span("serve.front_render");
        self.rows = render_front_rows(self.archive.iter());
    }
}

/// One `point` row per front member — floats as exact bits next to a
/// rounded decimal, like result blocks.
fn render_front_rows<'a>(front: impl Iterator<Item = &'a FrontPoint>) -> String {
    let mut out = String::new();
    for point in front {
        out.push_str(&format!(
            "point {:016x} pdr {} {:.4} power_mw {} {:.3} latency_ms {} {:.3} nlt_days {} {:.2}\n",
            point.fingerprint,
            f64_hex(point.pdr),
            point.pdr,
            f64_hex(point.power_mw),
            point.power_mw,
            f64_hex(point.latency_ms),
            point.latency_ms,
            f64_hex(point.nlt_days),
            point.nlt_days,
        ));
    }
    out
}

/// The daemon: the job queue, its crash-safe records and the shared
/// evaluation cache behind the wire protocol ([`serve_connection`]).
pub struct Server {
    config: ServeConfig,
    state: Mutex<State>,
    cv: Condvar,
    fleet: FleetCache,
    segments: SegmentStore,
    fronts: FrontStore,
    archives: Mutex<BTreeMap<u64, ArchiveEntry>>,
    collector: Collector,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("state_dir", &self.config.state_dir)
            .finish()
    }
}

impl Server {
    /// Builds a server over `state_dir`, restoring any persisted jobs:
    /// terminal records serve their stored results, queued/running
    /// records re-enqueue in id order (a `running` record means the
    /// previous process crashed mid-job — its checkpoint, if any, makes
    /// the rerun a resume). Fails on HL043 lint errors, an unusable
    /// state directory, or any unrecoverable job record.
    pub fn new(config: ServeConfig) -> Result<Self, String> {
        let report = hi_lint::lint_server(&config.lint_spec());
        if report.has_errors() {
            return Err(format!("server configuration rejected:\n{report}"));
        }
        let report = hi_lint::lint_cache_persist(&config.cache_lint_spec());
        if report.has_errors() {
            return Err(format!("cache persistence rejected:\n{report}"));
        }
        std::fs::create_dir_all(&config.state_dir).map_err(|e| {
            format!(
                "cannot create state dir `{}`: {e}",
                config.state_dir.display()
            )
        })?;
        let (records, errors) = scan_records(&config.state_dir);
        if !errors.is_empty() {
            return Err(format!(
                "unrecoverable job record(s) in `{}`: {}",
                config.state_dir.display(),
                errors.join("; ")
            ));
        }
        let (segments, notes) = SegmentStore::open(
            config.resolved_cache_dir(),
            config.compact_threshold,
            config.chaos,
        )
        .map_err(|e| {
            format!(
                "cannot open cache dir `{}`: {e}",
                config.resolved_cache_dir().display()
            )
        })?;
        for note in notes {
            eprintln!("note: cache segment: {note}");
        }
        let (fronts, notes) = FrontStore::open(
            config.resolved_cache_dir(),
            config.compact_threshold,
            config.chaos,
        )
        .map_err(|e| {
            format!(
                "cannot open front store in `{}`: {e}",
                config.resolved_cache_dir().display()
            )
        })?;
        for note in notes {
            eprintln!("note: front segment: {note}");
        }
        let mut jobs = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut tokens: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let mut next_id = 1;
        for (record, fallback) in records {
            if fallback {
                eprintln!(
                    "note: job {} recovered from its .prev record rotation",
                    record.id
                );
            }
            let profile = match parse_profiles(&record.profile_text) {
                Ok(mut fleet) if fleet.len() == 1 => fleet.remove(0),
                _ => {
                    return Err(format!(
                        "job {} record holds a non-canonical profile block",
                        record.id
                    ));
                }
            };
            next_id = next_id.max(record.id + 1);
            let stream = JobStream::derive(&profile);
            if !record.state.is_terminal() {
                queue.push_back(record.id);
            }
            if let Some(token) = &record.token {
                // Records scan in id order, so replayed id lists match
                // the original submission order.
                tokens.entry(token.clone()).or_default().push(record.id);
            }
            jobs.insert(
                record.id,
                JobEntry {
                    record,
                    profile,
                    stream,
                    progress: Vec::new(),
                    cancel: None,
                    cancel_requested: false,
                    accepted: Instant::now(),
                },
            );
        }
        let collector = Collector::metrics_only();
        let registry = collector.registry().expect("metrics-only has a registry");
        hi_trace::wellknown::register_all(registry);
        registry.set_gauge(wk::SERVE_QUEUE_DEPTH, queue.len() as i64);
        Ok(Server {
            config,
            state: Mutex::new(State {
                jobs,
                queue,
                running: None,
                next_id,
                shutdown: false,
                tokens,
            }),
            cv: Condvar::new(),
            fleet: FleetCache::new(),
            segments,
            fronts,
            archives: Mutex::new(BTreeMap::new()),
            collector,
        })
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The metrics registry backing `STATS` (and any trace sink).
    pub fn registry(&self) -> &MetricsRegistry {
        self.collector
            .registry()
            .expect("metrics-only has a registry")
    }

    fn sync_depth(&self, state: &State) {
        let depth = state.queue.len() + usize::from(state.running.is_some());
        self.registry()
            .set_gauge(wk::SERVE_QUEUE_DEPTH, depth as i64);
    }

    /// Accepts a submission: parses the profile text, lints it (HL042 —
    /// errors bounce the whole submission), validates fault-suite
    /// references, persists one queued record per profile and wakes the
    /// scheduler. Returns the new job ids in profile order.
    pub fn submit(&self, profile_text: &str) -> Result<Vec<u64>, String> {
        self.submit_with_token(profile_text, None)
    }

    /// [`submit`](Self::submit) with an idempotency token. A token seen
    /// before with a byte-identical canonical payload replays the
    /// existing job ids (same `OK job ...` bytes, nothing scheduled) —
    /// that is what makes a client-side retry after a dropped connection
    /// safe. The same token with a *different* payload is a client bug
    /// and is refused with a typed `token-reuse` error.
    pub fn submit_with_token(
        &self,
        profile_text: &str,
        token: Option<&str>,
    ) -> Result<Vec<u64>, String> {
        let profiles = parse_profiles(profile_text).map_err(|e| e.to_string())?;
        let report = lint_profiles(&profiles);
        if report.has_errors() {
            return Err(format!("submission rejected:\n{report}"));
        }
        // Validate suites at the door: a bad path or torn suite file
        // should bounce the submission, not fail the job an hour later.
        // So should a robust profile whose Γ specification has an error
        // finding (HL048), which `hi-opt explore` refuses too; a
        // degenerate one runs as Algorithm 1.
        let mut streams = Vec::with_capacity(profiles.len());
        for profile in &profiles {
            let stream = JobStream::derive(profile)?;
            let checked = stream
                .suite
                .as_deref()
                .and_then(|suite| profile.engine.check_robustness(Some(suite)));
            if let Some((spec, report)) = checked {
                if !spec.is_degenerate() && report.has_errors() {
                    return Err(format!(
                        "submission rejected: profile `{}` robustness specification:\n{report}",
                        profile.id
                    ));
                }
            }
            streams.push(stream);
        }
        let canonical: String = profiles.iter().map(UserProfile::to_text).collect();
        let mut state = self.state.lock().expect("server state poisoned");
        if let Some(token) = token {
            if let Some(ids) = state.tokens.get(token) {
                let existing: String = ids
                    .iter()
                    .filter_map(|id| state.jobs.get(id))
                    .map(|entry| entry.record.profile_text.clone())
                    .collect();
                if existing == canonical {
                    // Retried submit: answer exactly as the first did.
                    return Ok(ids.clone());
                }
                return Err(format!(
                    "token-reuse {token}: already bound to job(s) {} with a different payload",
                    ids.iter()
                        .map(|id| id.to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
        }
        if state.shutdown {
            return Err("daemon is shutting down".into());
        }
        let admitted = state.queue.len() + usize::from(state.running.is_some());
        if admitted + profiles.len() > self.config.queue_capacity {
            return Err(format!(
                "busy: {admitted} admitted + {} submitted exceeds capacity {} (retry later)",
                profiles.len(),
                self.config.queue_capacity
            ));
        }
        let mut ids = Vec::with_capacity(profiles.len());
        for (profile, stream) in profiles.into_iter().zip(streams) {
            let id = state.next_id;
            state.next_id += 1;
            let record = JobRecord {
                id,
                state: JobState::Queued,
                token: token.map(str::to_string),
                profile_text: profile.to_text(),
                result: None,
            };
            store::write_atomic(
                &record_path(&self.config.state_dir, id),
                record.to_text().as_bytes(),
            )
            .map_err(|e| format!("cannot persist job {id}: {e}"))?;
            state.jobs.insert(
                id,
                JobEntry {
                    record,
                    profile,
                    stream: Ok(stream),
                    progress: Vec::new(),
                    cancel: None,
                    cancel_requested: false,
                    accepted: Instant::now(),
                },
            );
            state.queue.push_back(id);
            ids.push(id);
        }
        if let Some(token) = token {
            state.tokens.insert(token.to_string(), ids.clone());
        }
        self.registry()
            .add(wk::SERVE_JOBS_ACCEPTED, ids.len() as u64);
        self.sync_depth(&state);
        drop(state);
        self.cv.notify_all();
        Ok(ids)
    }

    /// A job's lifecycle state.
    pub fn status(&self, id: u64) -> Option<JobState> {
        let state = self.state.lock().expect("server state poisoned");
        state.jobs.get(&id).map(|e| e.record.state)
    }

    /// A terminal job's result block (the exact persisted bytes).
    pub fn result(&self, id: u64) -> Result<String, String> {
        let state = self.state.lock().expect("server state poisoned");
        let entry = state
            .jobs
            .get(&id)
            .ok_or_else(|| format!("unknown job {id}"))?;
        if !entry.record.state.is_terminal() {
            return Err(format!("job {id} is {}", entry.record.state));
        }
        entry
            .record
            .result
            .clone()
            .ok_or_else(|| format!("job {id} has no result block"))
    }

    /// Cancels a job: a queued job goes terminal immediately; a running
    /// job has its `CancelToken` fired and goes terminal when the
    /// engine yields (between evaluations). Returns the state observed
    /// after the request — idempotent on terminal jobs.
    pub fn cancel(&self, id: u64) -> Result<JobState, String> {
        let mut state = self.state.lock().expect("server state poisoned");
        let state_dir = self.config.state_dir.clone();
        let entry = match state.jobs.get_mut(&id) {
            Some(entry) => entry,
            None => return Err(format!("unknown job {id}")),
        };
        match entry.record.state {
            JobState::Queued => {
                entry.record.state = JobState::Cancelled;
                entry.record.result = Some(format!(
                    "profile {}\nengine {}\nstatus cancelled\n",
                    entry.profile.id, entry.profile.engine
                ));
                let record = entry.record.clone();
                state.queue.retain(|&queued| queued != id);
                self.registry().add(wk::SERVE_JOBS_CANCELLED, 1);
                self.sync_depth(&state);
                drop(state);
                store::write_atomic(&record_path(&state_dir, id), record.to_text().as_bytes())
                    .map_err(|e| format!("cannot persist job {id}: {e}"))?;
                self.cv.notify_all();
                Ok(JobState::Cancelled)
            }
            JobState::Running => {
                entry.cancel_requested = true;
                if let Some(token) = &entry.cancel {
                    token.cancel();
                }
                Ok(JobState::Running)
            }
            terminal => Ok(terminal),
        }
    }

    /// Streams a job's progress events through `emit` (return `false`
    /// to stop early, e.g. on a broken pipe) until the job is terminal;
    /// returns the terminal state. Events already emitted before the
    /// call replay first, so a late `WAIT` sees the full history.
    pub fn wait(&self, id: u64, emit: &mut dyn FnMut(&str) -> bool) -> Result<JobState, String> {
        let mut guard = self.state.lock().expect("server state poisoned");
        let mut cursor = 0;
        loop {
            let entry = guard
                .jobs
                .get(&id)
                .ok_or_else(|| format!("unknown job {id}"))?;
            let job_state = entry.record.state;
            let fresh: Vec<String> = entry.progress[cursor..].to_vec();
            cursor += fresh.len();
            if !fresh.is_empty() || job_state.is_terminal() {
                drop(guard);
                for line in &fresh {
                    if !emit(line) {
                        return Ok(job_state);
                    }
                }
                if job_state.is_terminal() {
                    return Ok(job_state);
                }
                guard = self.state.lock().expect("server state poisoned");
            } else {
                guard = self.cv.wait(guard).expect("server state poisoned");
            }
        }
    }

    /// Runs `f` over a stream's Pareto archive, creating it on first
    /// touch this lifetime and hydrating it from the front store — so a
    /// restarted daemon answers `FRONT` warm, before (and without) any
    /// job running on the stream. Hydrated fingerprints are marked
    /// offered; the archive's own dominance filter drops any point a
    /// later, better one had displaced after it was logged.
    fn with_archive<R>(&self, key: u64, f: impl FnOnce(&mut ArchiveEntry) -> R) -> R {
        let mut archives = self.archives.lock().expect("archive table poisoned");
        let entry = archives
            .entry(key)
            .or_insert_with(|| ArchiveEntry::hydrate(self.fronts.hydrate(key)));
        f(entry)
    }

    /// Offers a stream's cached evaluations to its Pareto archive and
    /// settles the accepted points durably. Called exactly where the
    /// evaluation segment settles (every checkpoint, and again before a
    /// result becomes observable), so archive durability rides the same
    /// crash-consistency discipline as the cache itself.
    fn settle_front(&self, key: u64, evaluator: &FleetEvaluator) {
        let front = self.with_archive(key, |entry| {
            let (inserts, dominated) = entry.offer(evaluator.export_front_points());
            let registry = self.registry();
            registry.add(wk::SERVE_PARETO_INSERTS, inserts);
            registry.add(wk::SERVE_PARETO_DOMINATED, dominated);
            entry.archive.front()
        });
        if let Err(e) = self.fronts.settle(key, &front) {
            eprintln!("warning: cannot settle stream {key:016x} front: {e}");
        }
    }

    /// The `FRONT` block for a job's evaluator stream: the stream key,
    /// the fresh simulations this process has spent on the stream (a
    /// warm restart answering purely from hydrated segments reports 0),
    /// then one `point` row per non-dominated design — floats as exact
    /// bits next to a rounded decimal, like result blocks, so the block
    /// is byte-stable across restarts and thread counts. An empty front
    /// on a daemon that has completed no job earns the HL047 advisory.
    pub fn front_block(&self, id: u64) -> Result<String, String> {
        let _span = hi_trace::span("serve.front");
        let key = {
            let state = self.state.lock().expect("server state poisoned");
            let entry = state
                .jobs
                .get(&id)
                .ok_or_else(|| format!("unknown job {id}"))?;
            entry.stream.as_ref().map_err(Clone::clone)?.key
        };
        self.registry().add(wk::SERVE_PARETO_QUERIES, 1);
        let simulations = self
            .fleet
            .stream(key)
            .map_or(0, |evaluator| evaluator.cache_misses());
        let mut out = format!("key {key:016x}\nsimulations {simulations}\n");
        let empty = self.with_archive(key, |entry| {
            out.push_str(&entry.rows);
            entry.archive.is_empty()
        });
        if empty {
            let report = hi_lint::lint_front_query(&hi_lint::FrontQuerySpec {
                completed_jobs: self.registry().counter_value(wk::SERVE_JOBS_COMPLETED),
                archived_points: 0,
            });
            for finding in report.findings() {
                out.push_str(&format!(
                    "note {} {}\n",
                    finding.rule.code(),
                    finding.message
                ));
            }
        }
        Ok(out)
    }

    /// The `STATS` block: a deterministic, fixed-order metric snapshot.
    pub fn stats_block(&self) -> String {
        let registry = self.registry();
        let fleet = self.fleet.stats();
        let depth = {
            let state = self.state.lock().expect("server state poisoned");
            state.queue.len() + usize::from(state.running.is_some())
        };
        let mut out = String::new();
        for name in [
            wk::SERVE_JOBS_ACCEPTED,
            wk::SERVE_JOBS_COMPLETED,
            wk::SERVE_JOBS_FAILED,
            wk::SERVE_JOBS_CANCELLED,
        ] {
            out.push_str(&format!("{name} {}\n", registry.counter_value(name)));
        }
        out.push_str(&format!("{} {depth}\n", wk::SERVE_QUEUE_DEPTH));
        out.push_str(&format!("serve.fleet.evaluators {}\n", fleet.evaluators));
        out.push_str(&format!("{} {}\n", wk::SERVE_FLEET_HITS, fleet.hits));
        out.push_str(&format!("{} {}\n", wk::SERVE_FLEET_MISSES, fleet.misses));
        let segs = self.segments.stats();
        out.push_str(&format!("{} {}\n", wk::SERVE_CACHE_LOADED, segs.loaded));
        out.push_str(&format!(
            "{} {}\n",
            wk::SERVE_CACHE_PERSISTED,
            segs.persisted
        ));
        out.push_str(&format!(
            "{} {}\n",
            wk::SERVE_CACHE_COMPACTIONS,
            segs.compactions
        ));
        out.push_str(&format!(
            "{} {}\n",
            wk::SERVE_CACHE_QUARANTINED,
            segs.quarantined
        ));
        for name in [
            wk::SERVE_PARETO_INSERTS,
            wk::SERVE_PARETO_DOMINATED,
            wk::SERVE_PARETO_QUERIES,
        ] {
            out.push_str(&format!("{name} {}\n", registry.counter_value(name)));
        }
        let fronts = self.fronts.stats();
        out.push_str(&format!("{} {}\n", wk::SERVE_PARETO_LOADED, fronts.loaded));
        out.push_str(&format!(
            "{} {}\n",
            wk::SERVE_PARETO_PERSISTED,
            fronts.persisted
        ));
        out.push_str(&format!(
            "{} {}\n",
            wk::NET_REPLICATIONS,
            registry.counter_value(wk::NET_REPLICATIONS)
        ));
        out
    }

    /// Asks the scheduler to exit after the in-flight job (if any)
    /// finishes. Queued jobs stay persisted for the next start.
    pub fn request_shutdown(&self) {
        let mut state = self.state.lock().expect("server state poisoned");
        state.shutdown = true;
        drop(state);
        self.cv.notify_all();
    }

    fn next_job(&self) -> Option<(u64, UserProfile, Result<JobStream, String>)> {
        let mut guard = self.state.lock().expect("server state poisoned");
        loop {
            if guard.shutdown {
                return None;
            }
            if let Some(id) = guard.queue.pop_front() {
                let entry = guard.jobs.get_mut(&id).expect("queued job has an entry");
                entry.record.state = JobState::Running;
                let record = entry.record.clone();
                let profile = entry.profile.clone();
                let stream = entry.stream.clone();
                guard.running = Some(id);
                self.sync_depth(&guard);
                drop(guard);
                let path = record_path(&self.config.state_dir, id);
                if let Err(e) = store::write_atomic(&path, record.to_text().as_bytes()) {
                    eprintln!("warning: cannot persist job {id} running state: {e}");
                }
                return Some((id, profile, stream));
            }
            guard = self.cv.wait(guard).expect("server state poisoned");
        }
    }

    fn finalize(&self, id: u64, final_state: JobState, result: String) {
        let path = record_path(&self.config.state_dir, id);
        let ck = checkpoint_path(&self.config.state_dir, id);
        let mut state = self.state.lock().expect("server state poisoned");
        let latency_ns;
        {
            let entry = state.jobs.get_mut(&id).expect("finalized job has an entry");
            entry.record.state = final_state;
            entry.record.result = Some(result);
            entry.cancel = None;
            latency_ns = entry.accepted.elapsed().as_nanos() as u64;
            if let Err(e) = store::write_atomic(&path, entry.record.to_text().as_bytes()) {
                eprintln!("warning: cannot persist job {id} terminal state: {e}");
            }
        }
        state.running = None;
        let registry = self.registry();
        registry.record(wk::SERVE_JOB_LATENCY_NS, latency_ns);
        match final_state {
            JobState::Done => registry.add(wk::SERVE_JOBS_COMPLETED, 1),
            JobState::Failed => registry.add(wk::SERVE_JOBS_FAILED, 1),
            JobState::Cancelled => registry.add(wk::SERVE_JOBS_CANCELLED, 1),
            other => unreachable!("finalize with non-terminal state {other}"),
        }
        self.sync_depth(&state);
        drop(state);
        // The checkpoint has served its purpose; keep the directory to
        // exactly one file per live concern.
        for suffix in ["", ".prev", ".tmp"] {
            let mut p = ck.clone().into_os_string();
            p.push(suffix);
            let _ = std::fs::remove_file(std::path::PathBuf::from(p));
        }
        self.cv.notify_all();
    }

    fn run_job(&self, id: u64, profile: UserProfile, stream: Result<JobStream, String>) {
        let JobStream { key, suite } = match stream {
            Ok(stream) => stream,
            Err(e) => {
                let result = format!(
                    "profile {}\nengine {}\nstatus failed\nerror {}\n",
                    profile.id,
                    profile.engine,
                    e.replace('\n', "; ")
                );
                self.finalize(id, JobState::Failed, result);
                return;
            }
        };
        let protocol = profile.protocol().with_max_events(self.config.max_events);
        let evaluator = self.fleet.evaluator(key, || {
            let built = match (suite, &profile.faults) {
                (Some(suite), Some(faults)) => FleetEvaluator::Robust(RobustEvaluator::new(
                    protocol,
                    (*suite).clone(),
                    faults.mode,
                )),
                _ => FleetEvaluator::Nominal(protocol.shared_evaluator()),
            };
            // First touch of this stream this lifetime: seed everything
            // a previous process already simulated, *before* any job
            // runs on it — that is what turns a restart into a warm
            // start (`simulations 0` on already-settled points).
            let recovered = self.segments.hydrate(key);
            if !recovered.is_empty() {
                let total = recovered.len();
                let seeded = recovered
                    .into_iter()
                    .filter(|outcome| built.import_entry(outcome.clone()))
                    .count();
                eprintln!(
                    "note: stream {key:016x} warmed with {seeded}/{total} persisted evaluations"
                );
            }
            built
        });
        let exec = ExecContext::new(self.config.threads).with_collector(self.collector.clone());
        {
            let mut state = self.state.lock().expect("server state poisoned");
            let entry = state.jobs.get_mut(&id).expect("running job has an entry");
            entry.cancel = Some(exec.cancel_token());
            if entry.cancel_requested {
                exec.cancel_token().cancel();
            }
        }
        let ck_path = checkpoint_path(&self.config.state_dir, id);
        // Every checkpoint-capable engine resumes; the checkpoint header
        // records which engine wrote it, and the engines refuse a
        // mismatched file instead of silently continuing.
        let resume = if profile.engine.resumes() && ck_path.exists() {
            match store::load_recovering(&ck_path, load_checkpoint_file) {
                Ok((checkpoint, fallback)) => {
                    if let Some(primary) = fallback {
                        eprintln!(
                            "note: job {id} checkpoint recovery: {primary}; recovered from \
                             the previous auto-checkpoint `{}`",
                            store::prev_path(&ck_path).display()
                        );
                    }
                    eprintln!(
                        "note: job {id} resuming at iteration {}",
                        checkpoint.iterations
                    );
                    Some(checkpoint)
                }
                Err(e) => {
                    eprintln!("warning: job {id} checkpoint unusable ({e}); starting over");
                    None
                }
            }
        } else {
            None
        };
        let policy = RunPolicy {
            max_events: self.config.max_events,
            retry_attempts: self.config.retry_attempts,
            checkpoint_every: Some(1),
        };
        let mut observer = |cp: &hi_core::ExploreCheckpoint| {
            if let Err(e) = store::write_atomic(&ck_path, cp.to_text().as_bytes()) {
                eprintln!("warning: job {id} checkpoint write failed: {e}");
            }
            // Settle alongside every checkpoint: the checkpoint makes the
            // iteration's simulations logically spent (a resumed engine
            // will not redo them), so they must be durable too — or a
            // SIGKILL between checkpoint and job end would strand them
            // in neither the segment nor the resumed evaluator.
            if let Err(e) = self.segments.settle(key, &evaluator.export_entries()) {
                eprintln!("warning: cannot settle stream {key:016x} segment: {e}");
            }
            self.settle_front(key, &evaluator);
            let mut state = self.state.lock().expect("server state poisoned");
            if let Some(entry) = state.jobs.get_mut(&id) {
                entry.progress.push(format!(
                    "iteration {} simulations {}",
                    cp.iterations, cp.simulations
                ));
            }
            drop(state);
            self.cv.notify_all();
        };
        let outcome = run_profile(
            &profile,
            &evaluator,
            &exec,
            policy,
            resume.as_ref(),
            &mut observer,
        );
        // Settle the stream's new simulations to its segment *before*
        // the result becomes observable: once a client can read `done`,
        // a crash no longer costs the simulations behind it.
        match self.segments.settle(key, &evaluator.export_entries()) {
            Ok(settled) => {
                if settled.chaos_dropped || settled.chaos_torn {
                    eprintln!(
                        "note: chaos injected into stream {key:016x} segment (dropped {}, torn {})",
                        settled.chaos_dropped, settled.chaos_torn
                    );
                }
            }
            Err(e) => eprintln!("warning: cannot settle stream {key:016x} segment: {e}"),
        }
        self.settle_front(key, &evaluator);
        match outcome {
            Ok(outcome) => {
                let registry = self.registry();
                registry.add(wk::SERVE_FLEET_HITS, outcome.cache_hits);
                registry.add(wk::SERVE_FLEET_MISSES, outcome.cache_misses);
                let cancelled = outcome.stop_reason == Some(StopReason::Cancelled) || {
                    let state = self.state.lock().expect("server state poisoned");
                    state
                        .jobs
                        .get(&id)
                        .is_some_and(|entry| entry.cancel_requested)
                };
                let final_state = if cancelled {
                    JobState::Cancelled
                } else {
                    JobState::Done
                };
                self.finalize(id, final_state, render_result(&profile, &outcome));
            }
            Err(e) => {
                let result = format!(
                    "profile {}\nengine {}\nstatus failed\nerror {}\n",
                    profile.id,
                    profile.engine,
                    e.replace('\n', "; ")
                );
                self.finalize(id, JobState::Failed, result);
            }
        }
    }

    /// Runs jobs serially in id order until shutdown is requested (the
    /// in-flight job always completes and persists first), then flushes
    /// every evaluator stream to its segment — SHUTDOWN drains, settles
    /// and leaves one clean file per stream for the next process. Call
    /// on a dedicated thread — typically the process's main thread.
    pub fn scheduler_loop(&self) {
        let _guard = self.collector.install(0, 0);
        while let Some((id, profile, stream)) = self.next_job() {
            let mut span = hi_trace::span("serve.job");
            if span.is_recording() {
                span.arg("job", id);
            }
            self.run_job(id, profile, stream);
        }
        for (key, evaluator) in self.fleet.streams() {
            if let Err(e) = self.segments.flush(key, &evaluator.export_entries()) {
                eprintln!("warning: cannot flush stream {key:016x} segment: {e}");
            }
        }
        let archives = self.archives.lock().expect("archive table poisoned");
        for (key, entry) in archives.iter() {
            if let Err(e) = self.fronts.flush(*key, &entry.archive.front()) {
                eprintln!("warning: cannot flush stream {key:016x} front: {e}");
            }
        }
    }
}

/// Reads, parses and lints a profile's fault suite; returns the raw
/// text (for fingerprinting) and the parsed suite.
fn load_suite(profile: &UserProfile) -> Result<(String, FaultSuite), String> {
    let faults = profile.faults.as_ref().expect("caller checked faults");
    let text = std::fs::read_to_string(&faults.path)
        .map_err(|e| format!("cannot read fault suite `{}`: {e}", faults.path))?;
    let (suite, windows) = parse_fault_suite(&text).map_err(|e| match e {
        SuiteParseError::Line { line, message } => format!("{}:{line}: {message}", faults.path),
        SuiteParseError::NoScenario => {
            format!("fault suite `{}` declares no scenario", faults.path)
        }
    })?;
    let report = hi_lint::lint_faults(&windows, profile.t_sim_secs, Some(0));
    if report.has_errors() {
        return Err(format!(
            "fault suite `{}` has {} error-severity lint finding(s)",
            faults.path,
            report.error_count()
        ));
    }
    Ok((text, suite))
}

/// Serves one protocol connection: reads request lines from `reader`,
/// writes responses to `writer`, until EOF or `SHUTDOWN`. Generic over
/// the transport — the TCP accept loop and the stdio frontend both land
/// here, as do in-memory tests.
pub fn serve_connection<R: BufRead, W: Write>(
    server: &Server,
    reader: &mut R,
    writer: &mut W,
) -> std::io::Result<()> {
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(request) => request,
            Err(e) => {
                writer.write_all(err_line(&e).as_bytes())?;
                writer.flush()?;
                continue;
            }
        };
        match request {
            Request::Submit { lines, token } => {
                let mut payload = String::new();
                let mut truncated = false;
                for _ in 0..lines {
                    let mut payload_line = String::new();
                    if reader.read_line(&mut payload_line)? == 0 {
                        truncated = true;
                        break;
                    }
                    payload.push_str(&payload_line);
                }
                let response = if truncated {
                    err_line("connection closed inside SUBMIT payload")
                } else {
                    match server.submit_with_token(&payload, token.as_deref()) {
                        Ok(ids) => {
                            let ids: Vec<String> = ids.iter().map(|id| id.to_string()).collect();
                            ok_line(&format!("job {}", ids.join(" ")))
                        }
                        Err(e) => err_line(&e),
                    }
                };
                writer.write_all(response.as_bytes())?;
                if truncated {
                    writer.flush()?;
                    return Ok(());
                }
            }
            Request::Status { id } => {
                let response = match server.status(id) {
                    Some(state) => ok_line(&format!("status {id} {state}")),
                    None => err_line(&format!("unknown job {id}")),
                };
                writer.write_all(response.as_bytes())?;
            }
            Request::Result { id } => {
                let response = match server.result(id) {
                    Ok(block) => ok_block(&format!("result {id}"), &block),
                    Err(e) => err_line(&e),
                };
                writer.write_all(response.as_bytes())?;
            }
            Request::Wait { id } => {
                let mut io_err = None;
                let outcome = server.wait(id, &mut |event| {
                    let frame = format!("EVENT {id} {event}\n");
                    match writer
                        .write_all(frame.as_bytes())
                        .and_then(|()| writer.flush())
                    {
                        Ok(()) => true,
                        Err(e) => {
                            io_err = Some(e);
                            false
                        }
                    }
                });
                if let Some(e) = io_err {
                    return Err(e);
                }
                let response = match outcome {
                    Ok(state) => ok_line(&format!("status {id} {state}")),
                    Err(e) => err_line(&e),
                };
                writer.write_all(response.as_bytes())?;
            }
            Request::Cancel { id } => {
                let response = match server.cancel(id) {
                    Ok(state) => ok_line(&format!("cancel {id} {state}")),
                    Err(e) => err_line(&e),
                };
                writer.write_all(response.as_bytes())?;
            }
            Request::Front { id } => {
                let response = match server.front_block(id) {
                    Ok(block) => ok_block(&format!("front {id}"), &block),
                    Err(e) => err_line(&e),
                };
                writer.write_all(response.as_bytes())?;
            }
            Request::Stats => {
                writer.write_all(ok_block("stats", &server.stats_block()).as_bytes())?;
            }
            Request::Shutdown => {
                writer.write_all(ok_line("shutdown").as_bytes())?;
                writer.flush()?;
                server.request_shutdown();
                return Ok(());
            }
        }
        writer.flush()?;
    }
}

/// Runs the daemon to completion: binds the TCP listener (writing the
/// actual address to `<state_dir>/addr`), starts the stdio frontend if
/// configured, and drives the scheduler on the calling thread until a
/// `SHUTDOWN` request (or, in stdio-only mode, EOF) drains it.
pub fn run(config: ServeConfig) -> Result<(), String> {
    let has_listener = config.listen.is_some();
    if !has_listener && !config.stdio {
        return Err("nothing to serve on: enable --listen and/or --stdio".into());
    }
    let server = Arc::new(Server::new(config)?);
    if let Some(spec) = server.config.listen.clone() {
        let listener =
            std::net::TcpListener::bind(&spec).map_err(|e| format!("cannot bind `{spec}`: {e}"))?;
        let actual = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve bound address: {e}"))?;
        let addr_path = server.config.state_dir.join("addr");
        std::fs::write(&addr_path, format!("{actual}\n"))
            .map_err(|e| format!("cannot write `{}`: {e}", addr_path.display()))?;
        eprintln!("hi-serve: listening on {actual}");
        let accept_server = Arc::clone(&server);
        let conn_timeout = match server.config.conn_timeout_secs {
            0 => None,
            secs => Some(std::time::Duration::from_secs(secs)),
        };
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                // A peer that stalls mid-request (or vanishes without a
                // FIN) trips the timeout and the connection thread is
                // reaped, instead of holding its WAIT stream forever.
                let _ = stream.set_read_timeout(conn_timeout);
                let _ = stream.set_write_timeout(conn_timeout);
                let conn_server = Arc::clone(&accept_server);
                std::thread::spawn(move || {
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    let mut reader = std::io::BufReader::new(read_half);
                    let mut writer = stream;
                    let _ = serve_connection(&conn_server, &mut reader, &mut writer);
                });
            }
        });
    }
    if server.config.stdio {
        let stdio_server = Arc::clone(&server);
        let shutdown_on_eof = !has_listener;
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut reader = stdin.lock();
            let mut writer = stdout.lock();
            let _ = serve_connection(&stdio_server, &mut reader, &mut writer);
            if shutdown_on_eof {
                stdio_server.request_shutdown();
            }
        });
    }
    server.scheduler_loop();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hi-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quick_config(tag: &str) -> ServeConfig {
        let mut config = ServeConfig::new(test_dir(tag));
        config.threads = 1;
        config
    }

    const QUICK_PROFILE: &str = "profile alice\ntsim 2\nruns 1\npdrmin 0.9\n";

    fn drive(server: &Server, script: &str) -> String {
        let mut reader = Cursor::new(script.as_bytes().to_vec());
        let mut out = Vec::new();
        serve_connection(server, &mut reader, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn queued_jobs_survive_a_restart() {
        let config = quick_config("restart");
        let server = Server::new(config.clone()).unwrap();
        let ids = server.submit(QUICK_PROFILE).unwrap();
        assert_eq!(ids, vec![1]);
        assert_eq!(server.status(1), Some(JobState::Queued));
        assert!(server.result(1).is_err(), "no result before the job runs");
        server.request_shutdown();
        server.scheduler_loop(); // exits immediately: shutdown already set
        drop(server);
        // Restart: the queued record was persisted, so the job is back
        // in the queue with the same id and runs to completion.
        let server = Server::new(config.clone()).unwrap();
        assert_eq!(server.status(1), Some(JobState::Queued));
        let ids = server.submit(QUICK_PROFILE).unwrap();
        assert_eq!(ids, vec![2], "id allocation resumes past restored jobs");
        let _ = std::fs::remove_dir_all(&config.state_dir);
    }

    #[test]
    fn protocol_end_to_end_over_in_memory_transport() {
        let config = quick_config("e2e");
        let server = Arc::new(Server::new(config.clone()).unwrap());
        let scheduler = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.scheduler_loop())
        };
        let submit = format!("SUBMIT 4\n{QUICK_PROFILE}");
        let out = drive(&server, &submit);
        assert_eq!(out, "OK job 1\n");
        // WAIT streams at least one progress event, then the terminal
        // status; RESULT returns the counted block.
        let out = drive(&server, "WAIT 1\n");
        assert!(out.contains("EVENT 1 iteration 1 simulations"), "{out}");
        assert!(out.ends_with("OK status 1 done\n"), "{out}");
        let out = drive(&server, "RESULT 1\nSTATS\nSHUTDOWN\n");
        assert!(out.starts_with("OK result 1 "), "{out}");
        assert!(out.contains("\nprofile alice\n"), "{out}");
        assert!(out.contains("\nstatus feasible\n"), "{out}");
        assert!(out.contains("serve.jobs.completed 1\n"), "{out}");
        assert!(out.ends_with("OK shutdown\n"), "{out}");
        scheduler.join().unwrap();
        let _ = std::fs::remove_dir_all(&config.state_dir);
    }

    #[test]
    fn duplicate_submission_is_served_from_the_fleet_cache() {
        let config = quick_config("dedup");
        let server = Arc::new(Server::new(config.clone()).unwrap());
        let scheduler = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.scheduler_loop())
        };
        let submit = format!("SUBMIT 4\n{QUICK_PROFILE}SUBMIT 4\n{QUICK_PROFILE}WAIT 2\n");
        let out = drive(&server, &submit);
        assert!(out.ends_with("OK status 2 done\n"), "{out}");
        let first = server.result(1).unwrap();
        let second = server.result(2).unwrap();
        assert!(first.contains("status feasible"), "{first}");
        let sims: Vec<&str> = second
            .lines()
            .filter(|l| l.starts_with("simulations "))
            .collect();
        assert_eq!(sims, vec!["simulations 0"], "{second}");
        assert!(server.fleet.stats().hits > 0);
        assert!(server.stats_block().contains("serve.fleet.cache_hits"),);
        drive(&server, "SHUTDOWN\n");
        scheduler.join().unwrap();
        let _ = std::fs::remove_dir_all(&config.state_dir);
    }

    #[test]
    fn malformed_and_invalid_submissions_bounce_with_diagnostics() {
        let config = quick_config("bounce");
        let server = Server::new(config.clone()).unwrap();
        let out = drive(&server, "SUBMIT 1\nprofile a junk here\nNOPE\nSTATUS 9\n");
        // `profile a junk here` is a legal id (rest of line) — but the
        // lone payload line leaves defaults, which lint accepts; so use
        // the response shape only for the malformed request coverage.
        assert!(out.contains("ERR unknown request `NOPE`"), "{out}");
        assert!(out.contains("ERR unknown job 9"), "{out}");
        let err = server.submit("profile a\ngeometry zero\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = server.submit("profile a\npdrmin 2\n").unwrap_err();
        assert!(err.contains("HL042"), "{err}");
        let err = server
            .submit("profile a\nfaults /no/such/file.suite worst\n")
            .unwrap_err();
        assert!(err.contains("cannot read fault suite"), "{err}");
        let _ = std::fs::remove_dir_all(&config.state_dir);
    }

    #[test]
    fn a_robust_profile_with_an_hl048_error_bounces() {
        let config = quick_config("hl048");
        let server = Server::new(config.clone()).unwrap();
        let suite = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/demo.suite");
        let robust = |gamma: u32| {
            format!("{QUICK_PROFILE}engine robust-milp\ngamma {gamma}\nfaults {suite} worst\n")
        };
        // The demo suite protects 45 links, so Γ 100 is a configuration
        // error: the submission bounces with `ERR`, as HL042 ones do.
        let greedy = robust(100);
        let out = drive(
            &server,
            &format!("SUBMIT {}\n{greedy}", greedy.lines().count()),
        );
        assert!(
            out.starts_with("ERR submission rejected: profile `alice`"),
            "{out}"
        );
        assert!(out.contains("HL048"), "{out}");
        assert_eq!(server.status(1), None, "a bounced profile gets no job");
        // Γ within the protected links is admitted, and Γ 0 (degenerate:
        // the job runs Algorithm 1) is admitted too.
        assert_eq!(server.submit(&robust(2)).unwrap(), vec![1]);
        assert_eq!(server.submit(&robust(0)).unwrap(), vec![2]);
        let _ = std::fs::remove_dir_all(&config.state_dir);
    }

    #[test]
    fn cancel_takes_a_queued_job_terminal() {
        let config = quick_config("cancel");
        let server = Server::new(config.clone()).unwrap();
        let ids = server.submit(QUICK_PROFILE).unwrap();
        assert_eq!(server.cancel(ids[0]), Ok(JobState::Cancelled));
        assert_eq!(server.cancel(ids[0]), Ok(JobState::Cancelled), "idempotent");
        let block = server.result(ids[0]).unwrap();
        assert!(block.contains("status cancelled"), "{block}");
        assert!(server.cancel(99).is_err());
        let _ = std::fs::remove_dir_all(&config.state_dir);
    }

    #[test]
    fn hl043_rejects_a_broken_daemon_config() {
        let mut config = quick_config("hl043");
        config.queue_capacity = 0;
        let err = Server::new(config).unwrap_err();
        assert!(err.contains("HL043"), "{err}");
        let mut config = quick_config("hl043b");
        config.max_events = Some(1);
        let err = Server::new(config).unwrap_err();
        assert!(err.contains("warm-up floor"), "{err}");
    }

    #[test]
    fn failed_exhaustive_points_degrade_and_the_daemon_keeps_serving() {
        // Under a 200-event budget every replication trips the logical
        // deadline, so every point of the exhaustive sweep fails. The job
        // must still end `done` with its failures counted — as an
        // Algorithm 1 job does — and the next job must still run.
        let mut config = quick_config("exhaustive-errors");
        config.max_events = Some(200);
        let server = Arc::new(Server::new(config.clone()).unwrap());
        let exhaustive = format!("{QUICK_PROFILE}engine exhaustive\n");
        assert_eq!(server.submit(&exhaustive).unwrap(), vec![1]);
        assert_eq!(server.submit(QUICK_PROFILE).unwrap(), vec![2]);
        let waiter = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let last = server.wait(2, &mut |_| true);
                server.request_shutdown();
                last
            })
        };
        // The scheduler runs on the test thread, so a job that takes it
        // down fails the test here rather than stranding the waiter.
        server.scheduler_loop();
        assert_eq!(waiter.join().unwrap(), Ok(JobState::Done));
        assert_eq!(server.status(1), Some(JobState::Done));
        let block = server.result(1).unwrap();
        assert!(block.contains("\nengine exhaustive\n"), "{block}");
        let errors: u64 = block
            .lines()
            .find_map(|line| line.strip_prefix("eval_errors "))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no eval_errors line: {block}"));
        assert!(errors > 0, "{block}");
        let next = server.result(2).unwrap();
        assert!(next.contains("\nengine algorithm1\n"), "{next}");
        let _ = std::fs::remove_dir_all(&config.state_dir);
    }

    #[test]
    fn hl044_rejects_broken_cache_persistence() {
        let mut config = quick_config("hl044");
        config.compact_threshold = 0;
        let err = Server::new(config).unwrap_err();
        assert!(err.contains("HL044"), "{err}");
        let mut config = quick_config("hl044b");
        config.cache_dir = Some(config.state_dir.clone());
        let err = Server::new(config).unwrap_err();
        assert!(err.contains("collides"), "{err}");
    }

    #[test]
    fn a_restarted_daemon_serves_persisted_evaluations_warm() {
        let config = quick_config("warm");
        {
            let server = Arc::new(Server::new(config.clone()).unwrap());
            let scheduler = {
                let server = Arc::clone(&server);
                std::thread::spawn(move || server.scheduler_loop())
            };
            let submit = format!("SUBMIT 4\n{QUICK_PROFILE}WAIT 1\nSHUTDOWN\n");
            let out = drive(&server, &submit);
            assert!(out.contains("OK status 1 done"), "{out}");
            scheduler.join().unwrap();
            let first = server.result(1).unwrap();
            assert!(first.contains("status feasible"), "{first}");
            let stats = server.segments.stats();
            assert!(stats.persisted > 0, "settle must persist evaluations");
        }
        // Cold process, warm disk: a twin submission replays entirely
        // from the hydrated segment — zero fresh simulations.
        let server = Arc::new(Server::new(config.clone()).unwrap());
        assert!(server.segments.stats().loaded > 0, "segments must reload");
        let scheduler = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.scheduler_loop())
        };
        let submit = format!("SUBMIT 4\n{QUICK_PROFILE}WAIT 2\nSHUTDOWN\n");
        let out = drive(&server, &submit);
        assert!(out.contains("OK status 2 done"), "{out}");
        scheduler.join().unwrap();
        let warm = server.result(2).unwrap();
        let sims: Vec<&str> = warm
            .lines()
            .filter(|l| l.starts_with("simulations "))
            .collect();
        assert_eq!(sims, vec!["simulations 0"], "{warm}");
        // And the answer is identical to the cold run's, modulo the
        // job id and the simulation count (32 cold, 0 warm) — exactly
        // the two lines that are *supposed* to differ.
        let cold_body = server.result(1).unwrap();
        let strip = |block: &str| {
            block
                .lines()
                .filter(|l| !l.starts_with("job ") && !l.starts_with("simulations "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&cold_body), strip(&warm));
        let _ = std::fs::remove_dir_all(&config.state_dir);
    }

    #[test]
    fn idempotency_tokens_replay_instead_of_duplicating() {
        let config = quick_config("token");
        let server = Server::new(config.clone()).unwrap();
        let ids = server
            .submit_with_token(QUICK_PROFILE, Some("retry-1"))
            .unwrap();
        assert_eq!(ids, vec![1]);
        // The retried submit returns the same id without queueing again.
        let replay = server
            .submit_with_token(QUICK_PROFILE, Some("retry-1"))
            .unwrap();
        assert_eq!(replay, vec![1]);
        assert_eq!(server.submit(QUICK_PROFILE).unwrap(), vec![2]);
        // Same token, different payload: a typed refusal, not a job.
        let twin = QUICK_PROFILE.replace("alice", "mallory");
        let err = server
            .submit_with_token(&twin, Some("retry-1"))
            .unwrap_err();
        assert!(err.starts_with("token-reuse retry-1"), "{err}");
        // Tokens survive a restart via the job records.
        drop(server);
        let server = Server::new(config.clone()).unwrap();
        let replay = server
            .submit_with_token(QUICK_PROFILE, Some("retry-1"))
            .unwrap();
        assert_eq!(replay, vec![1], "token bindings rebuild from records");
        // Wire-level: the same SUBMIT line twice yields the same id.
        let submit = format!("SUBMIT 4 tok-A\n{QUICK_PROFILE}SUBMIT 4 tok-A\n{QUICK_PROFILE}");
        let out = drive(&server, &submit);
        assert_eq!(out, "OK job 3\nOK job 3\n");
        let _ = std::fs::remove_dir_all(&config.state_dir);
    }

    #[test]
    fn overload_is_a_typed_busy_refusal() {
        let mut config = quick_config("busy");
        config.queue_capacity = 1;
        let server = Server::new(config.clone()).unwrap();
        assert_eq!(server.submit(QUICK_PROFILE).unwrap(), vec![1]);
        let err = server.submit(QUICK_PROFILE).unwrap_err();
        assert!(err.starts_with("busy: "), "{err}");
        assert!(err.contains("retry later"), "{err}");
        // Wire level: the refusal surfaces as `ERR busy ...`.
        let submit = format!("SUBMIT 4\n{QUICK_PROFILE}");
        let out = drive(&server, &submit);
        assert!(out.starts_with("ERR busy: "), "{out}");
        // A token replay still resolves while the queue is full.
        let _ = std::fs::remove_dir_all(&config.state_dir);
    }

    #[test]
    fn stats_block_reports_cache_persistence_counters() {
        let config = quick_config("stats18");
        let server = Server::new(config.clone()).unwrap();
        let block = server.stats_block();
        assert_eq!(block.lines().count(), 18, "{block}");
        for counter in [
            "serve.cache.entries_persisted ",
            "serve.cache.entries_loaded ",
            "serve.cache.compactions ",
            "serve.cache.segments_quarantined ",
            "serve.pareto.inserts ",
            "serve.pareto.dominated ",
            "serve.pareto.queries ",
            "serve.pareto.points_loaded ",
            "serve.pareto.points_persisted ",
        ] {
            assert!(block.contains(counter), "{block}");
        }
        let out = drive(&server, "STATS\n");
        assert!(out.starts_with("OK stats 18\n"), "{out}");
        let _ = std::fs::remove_dir_all(&config.state_dir);
    }

    #[test]
    fn front_streams_the_archive_and_warns_before_any_job() {
        let config = quick_config("front");
        let server = Arc::new(Server::new(config.clone()).unwrap());
        let ids = server.submit(QUICK_PROFILE).unwrap();
        // Queued but never run: the archive is empty and HL047 advises.
        let early = server.front_block(ids[0]).unwrap();
        assert!(early.contains("simulations 0\n"), "{early}");
        assert!(early.contains("note HL047 "), "{early}");
        assert!(server.front_block(99).is_err(), "unknown job refused");
        let scheduler = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.scheduler_loop())
        };
        let out = drive(&server, "WAIT 1\nFRONT 1\nFRONT 99\nSHUTDOWN\n");
        assert!(out.contains("OK status 1 done"), "{out}");
        assert!(out.contains("OK front 1 "), "{out}");
        assert!(out.contains("\npoint "), "{out}");
        assert!(!out.contains("HL047"), "a populated front is not premature");
        assert!(out.contains("ERR unknown job 99"), "{out}");
        scheduler.join().unwrap();
        // The job ran: its evaluations were simulated fresh this process.
        let block = server.front_block(1).unwrap();
        let sims: Vec<&str> = block
            .lines()
            .filter(|l| l.starts_with("simulations "))
            .collect();
        assert_ne!(sims, vec!["simulations 0"], "{block}");
        assert!(server.fronts.stats().persisted > 0, "front must settle");
        // Three queries counted: the two on job 1 before and after the
        // run, plus the wire-level FRONT 1. Unknown jobs do not count.
        assert!(server.stats_block().contains("serve.pareto.queries 3"));
        let _ = std::fs::remove_dir_all(&config.state_dir);
    }

    #[test]
    fn a_restarted_daemon_answers_front_warm_with_zero_simulations() {
        let config = quick_config("front-warm");
        let cold = {
            let server = Arc::new(Server::new(config.clone()).unwrap());
            let scheduler = {
                let server = Arc::clone(&server);
                std::thread::spawn(move || server.scheduler_loop())
            };
            let submit = format!("SUBMIT 4\n{QUICK_PROFILE}WAIT 1\nSHUTDOWN\n");
            drive(&server, &submit);
            scheduler.join().unwrap();
            server.front_block(1).unwrap()
        };
        assert!(cold.contains("\npoint "), "{cold}");
        // Cold process, warm disk: job 1's record restores, the archive
        // hydrates from its front segment, and the whole block matches
        // byte for byte except the simulation count — which must be 0.
        let server = Server::new(config.clone()).unwrap();
        let warm = server.front_block(1).unwrap();
        assert!(warm.contains("\nsimulations 0\n"), "{warm}");
        let strip = |block: &str| {
            block
                .lines()
                .filter(|l| !l.starts_with("simulations "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&cold), strip(&warm));
        assert!(server.fronts.stats().loaded > 0, "front segments reload");
        let _ = std::fs::remove_dir_all(&config.state_dir);
    }

    #[test]
    fn cached_front_rows_equal_a_fresh_render_after_each_offer() {
        let mut entry = ArchiveEntry::hydrate(Vec::new());
        let mut reference = ParetoArchive::new(ArchiveConfig::default());
        assert_eq!(entry.rows, "");
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..200u64 {
            let point = FrontPoint {
                fingerprint: i * 7 + 1,
                power_mw: 0.5 + next(),
                pdr: next(),
                latency_ms: 1.0 + 20.0 * next(),
                nlt_days: 10.0 + 30.0 * next(),
            };
            // Every fifth offer repeats an earlier fingerprint: skipped.
            let repeat = FrontPoint {
                fingerprint: (i / 5 * 5) * 7 + 1,
                ..point
            };
            let offered = if i % 5 == 4 { repeat } else { point };
            if i % 5 != 4 {
                reference.insert(point);
            }
            entry.offer(vec![offered]);
            assert_eq!(entry.rows, render_front_rows(reference.iter()), "offer {i}");
        }
        assert!(entry.archive.len() > 1, "the test front is not trivial");
    }

    #[test]
    fn a_finished_jobs_front_survives_editing_or_deleting_its_suite() {
        let config = quick_config("suite-edit");
        std::fs::create_dir_all(&config.state_dir).unwrap();
        let suite = config.state_dir.join("copy.suite");
        let demo = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/demo.suite");
        std::fs::copy(demo, &suite).unwrap();
        let profile = format!("{QUICK_PROFILE}faults {} worst\n", suite.display());
        let server = Arc::new(Server::new(config.clone()).unwrap());
        let scheduler = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.scheduler_loop())
        };
        let out = drive(
            &server,
            &format!("SUBMIT {}\n{profile}WAIT 1\n", profile.lines().count()),
        );
        assert!(out.ends_with("OK status 1 done\n"), "{out}");
        let front = server.front_block(1).unwrap();
        assert!(front.contains("\npoint "), "{front}");
        std::fs::write(&suite, "scenario calm\n").unwrap();
        assert_eq!(server.front_block(1).unwrap(), front, "suite edited");
        std::fs::remove_file(&suite).unwrap();
        assert_eq!(server.front_block(1).unwrap(), front, "suite deleted");
        drive(&server, "SHUTDOWN\n");
        scheduler.join().unwrap();
        let _ = std::fs::remove_dir_all(&config.state_dir);
    }

    #[test]
    fn the_front_is_identical_across_worker_thread_counts() {
        let mut blocks = Vec::new();
        for threads in [1, 8] {
            let mut config = quick_config(&format!("front-t{threads}"));
            config.threads = threads;
            let server = Arc::new(Server::new(config.clone()).unwrap());
            let scheduler = {
                let server = Arc::clone(&server);
                std::thread::spawn(move || server.scheduler_loop())
            };
            let submit = format!("SUBMIT 4\n{QUICK_PROFILE}WAIT 1\nSHUTDOWN\n");
            drive(&server, &submit);
            scheduler.join().unwrap();
            blocks.push(server.front_block(1).unwrap());
            let _ = std::fs::remove_dir_all(&config.state_dir);
        }
        assert_eq!(blocks[0], blocks[1], "front depends on thread count");
    }
}
