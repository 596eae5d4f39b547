//! `hi-opt` command-line interface.
//!
//! ```text
//! hi-opt explore  --pdr-min 0.9 [--tsim 600] [--runs 3] [--seed 42] [--threads 8]
//! hi-opt explore  --pdr-min 0.9 --faults scenarios/demo.suite --robust worst
//! hi-opt explore  --pdr-min 0.9 --faults scenarios/demo.suite \
//!                 --engine robust-milp --gamma 2
//! hi-opt simulate --sites 0,1,3,5 --power 0 --mac tdma --routing mesh
//! hi-opt space
//! hi-opt lint
//! ```
//!
//! Every simulation-backed command takes `--threads <n>` and fans its
//! evaluations over the `hi-exec` pool; results are bit-identical for
//! every thread count. Failures on user-supplied inputs are typed
//! ([`CliError`]) and map to distinct exit codes so scripts can tell a
//! typo (2) from an unreadable file (3) from a malformed spec (4).

use std::path::Path;
use std::process::ExitCode;

use hi_opt::channel::{BodyLocation, ChannelParams};
use hi_opt::cli::{stop_notice, TraceFormat, TraceSession};
use hi_opt::des::SimDuration;
use hi_opt::lint::lint_faults;
use hi_opt::net::{
    average_outcomes, simulate_stochastic, MacKind, NetworkConfig, Routing, TxPower,
};
use hi_opt::{
    explore, explore_tradeoff_par, ilp_heuristic_search, parse_fault_suite, robust_milp_search,
    store, supervision_spec, ChaosPolicy, CheckpointLoadError, DesignSpace, ExecContext,
    ExplorationOutcome, ExploreCheckpoint, ExploreError, ExploreOptions, FaultSuite, MilpEncoding,
    Problem, RetryPolicy, RobustEvaluator, RobustMode, RobustnessSpec, SimProtocol,
    SuiteParseError, SupervisedEvaluator, Supervisor, TopologyConstraints, ENGINE_ALGORITHM1,
    ENGINE_ILP_HEURISTIC, ENGINE_ROBUST_MILP,
};

const USAGE: &str = "\
hi-opt — optimized design of a Human Intranet network (DAC 2017)

USAGE:
    hi-opt explore  --pdr-min <0..1> [--tsim <secs>] [--runs <n>] [--seed <n>]
                    [--threads <n>] [--faults <file> [--robust <mode>]]
                    [--engine <algorithm1|robust-milp|ilp-heuristic>]
                    [--gamma <k>]
                    [--budget <sims>] [--retries <n>] [--max-events <n>]
                    [--chaos <spec>]
                    [--checkpoint <file> [--resume] [--checkpoint-every <k>]]
    hi-opt tradeoff [--floors <p1,p2,...>] [--tsim <secs>] [--runs <n>] [--seed <n>]
                    [--threads <n>] [--archive <dir>]
    hi-opt simulate --sites <i,j,...> --power <-20|-10|0> --mac <csma|tdma>
                    --routing <star|mesh> [--tsim <secs>] [--runs <n>] [--seed <n>]
                    [--threads <n>]
    hi-opt space
    hi-opt lint     [--seed <n>]
    hi-opt serve    --state <dir> [--listen <host:port>] [--stdio]
                    [--threads <n>] [--queue-cap <n>] [--retries <n>]
                    [--max-events <n>] [--cache-dir <dir>]
                    [--compact-every <n>] [--conn-timeout <secs>]
                    [--chaos <spec>]

COMMANDS:
    explore    run Algorithm 1: MILP-proposed candidates verified by
               discrete-event simulation; prints the lifetime-optimal
               configuration meeting the PDR floor
    tradeoff   sweep reliability floors and print the architecture ladder
               (default floors: 50,60,70,80,90,95,99%); with --archive
               <dir>, maintain a persistent Pareto archive over
               (power, PDR, latency) there — the first run sweeps and
               persists the front, later runs with the same physics
               answer from the archive with 0 fresh simulations
               (changing --tsim/--runs/--seed invalidates it)
    simulate   evaluate one explicit configuration
    space      describe the design space and its constraints
    lint       statically analyze the paper scenario: configuration space,
               MILP encoding, the full Algorithm-1 cut ladder, a sample
               event schedule, the workspace metric catalog (HL037), the
               execution supervision policy (HL038/HL039), the execution
               configuration (HL040), hi-check model lock accounting
               (HL041), the fleet demo profiles (HL042), the serve
               daemon defaults (HL043-HL045), the Pareto archive
               epsilons plus a cold-daemon FRONT query (HL046/HL047)
               and the Gamma-robustness specification (HL048/HL049);
               exits 1 on error-severity findings
    serve      run the fleet-optimization daemon: a job queue behind a
               line-oriented wire protocol (SUBMIT/STATUS/RESULT/WAIT/
               CANCEL/STATS/SHUTDOWN) on TCP and/or stdin/stdout; jobs
               persist crash-safely under --state and identical design
               points dedup across users through one shared evaluation
               cache (drive it with the `hi-serve-client` binary)

EXPLORE OPTIONS:
    --faults <file>      score every candidate across a fault-scenario
                         suite; feasibility means the PDR floor holds
                         under the chosen aggregation
    --robust <mode>      aggregation over nominal + scenarios: `nominal`,
                         `worst` (default with --faults) or `qNN`
                         (e.g. q25: the 25th-percentile scenario)
    --engine <name>      search engine: `algorithm1` (default — the
                         paper's cut ladder, every candidate simulated),
                         `robust-milp` (Gamma-robust counterpart: per-link
                         deviation bounds derived from --faults are priced
                         into the MILP by Bertsimas-Sim dualization, and
                         only the single witness optimum per level is
                         simulated) or `ilp-heuristic` (restriction and
                         repair: pin sites untouched by worst-case faults
                         to the nominal optimum, re-solve the robust
                         counterpart on the rest, free pins on
                         infeasibility)
    --gamma <k>          deviation budget Gamma for the robust engines:
                         the adversary may push up to <k> protected links
                         to their bounds at once (default 1; 0 or a
                         missing --faults degenerates to the nominal
                         engine with a note; linted HL048/HL049)
    --budget <sims>      stop after ~<sims> unique simulations and report
                         the best design found so far
    --retries <n>        attempts per evaluation (default 3); transient
                         failures are retried deterministically, permanent
                         failures and deadline trips are not
    --max-events <n>     logical deadline: fail any evaluation whose
                         replication dispatches more than <n> DES events
                         (a pure function of the seed — never wall clock)
    --chaos <spec>       inject deterministic engine faults, e.g.
                         `seed=1,panic=13,transient=3,drop=8` (1-in-N odds
                         keyed by (point, attempt)); a debug/test
                         instrument — lint rule HL039 warns elsewhere
    --checkpoint <file>  write the exploration state to <file> on exit
                         (crash-safely: staged, fsynced, renamed; the
                         previous state rotates to <file>.prev)
    --checkpoint-every <k>  also auto-checkpoint every <k> iterations, so
                         a crashed run loses at most <k> levels
    --resume             load --checkpoint <file> first and continue,
                         falling back to <file>.prev if the file is torn;
                         the resumed run is bit-identical to an
                         uninterrupted one

OBSERVABILITY OPTIONS (explore, tradeoff, simulate):
    --trace <file>        record a structured event trace (every engine:
                          milp, des/net, exec, algorithm1) and write it on
                          exit; stdout results stay byte-identical with
                          and without tracing, at any --threads
    --trace-format <fmt>  `jsonl` (default: one JSON event per line) or
                          `chrome` (a Chrome trace-event array, loadable
                          in Perfetto / chrome://tracing)
    --metrics             print a metrics summary table to stderr on exit
                          (also on budget/cancel stops)

SERVE OPTIONS:
    --state <dir>        job records, checkpoints and the bound-address
                         file live here; a restarted daemon resumes the
                         queue it finds (required)
    --listen <addr>      accept TCP connections on <addr> (`host:port`;
                         port 0 picks a free port); the actual address is
                         written to <dir>/addr
    --stdio              speak the protocol on stdin/stdout too; with no
                         --listen, EOF on stdin shuts the daemon down
    --queue-cap <n>      refuse submissions past <n> queued-or-running
                         jobs with `ERR busy` (default 64)
    --retries/--max-events  as for explore, applied to every job
    --cache-dir <dir>    durable evaluation-cache segment directory
                         (default <state>/cache); a restarted daemon
                         re-serves persisted evaluations with 0 fresh
                         simulations
    --compact-every <n>  appends tolerated per segment before it is
                         compacted in place (default 256; linted, HL044)
    --conn-timeout <s>   per-connection read/write timeout in seconds
                         (default 600; 0 disables)
    --chaos <spec>       deterministic fault injection, e.g.
                         `seed=1,segdrop=2,torn=2` (adds segment-drop
                         and torn-write injection to the panic/transient
                         knobs; debug instrument, linted HL039)
Profile files submitted over the protocol (`#` starts a comment):
    profile <id>                     start a user profile
    geometry <scale>                 body-geometry scale factor
    channel <dB>                     channel-matrix path-loss offset
    traffic <pkts/s> [bytes]         application traffic mix
    pdrmin <0..1>                    reliability floor
    engine <name>                    search engine: algorithm1, exhaustive,
                                     robust-milp or ilp-heuristic
    gamma <k>                        deviation budget (robust engines only)
    tsim/runs/seed <n>               simulation protocol knobs
    faults <file> [worst|nominal|qNN]  robust scoring over a fault suite

FAULT SUITE FILES (`#` starts a comment; times in seconds):
    scenario <name>                       start a named scenario
    outage <site> <from> <until|inf>      node crash/recover window
    blackout <a> <b> <from> <until|inf>   link blackout between two sites
    deplete <site> <at>                   battery death, never recovers
    interfere <from> <until|inf> <dB>     wideband interference burst
Loaded suites are linted (HL033+) before any simulation runs: windows
that never activate are errors; overlaps, past-horizon windows and
hub-disabling scenarios are warnings printed to stderr.

EXIT CODES:
    0  success
    1  lint findings of error severity (`hi-opt lint`)
    2  usage error (unknown/missing/ill-formed flags)
    3  I/O error (unreadable --faults or --checkpoint file)
    4  malformed spec (suite/checkpoint contents, suite lint errors)

`--threads <n>` sizes the deterministic evaluation pool (default: the
HI_EXEC_THREADS environment variable, else all cores). Any value yields
bit-identical results; 1 disables the pool entirely.

SITES (index = paper's n_i):
    0 chest  1 l-hip  2 r-hip  3 l-ankle  4 r-ankle
    5 l-wrist  6 r-wrist  7 l-arm  8 head  9 back
";

/// A failure on a user-supplied input, typed by what the user got wrong
/// so the process can exit with a distinct code for each.
enum CliError {
    /// Flag-level mistake: unknown command/option, missing or ill-formed
    /// value. Exits 2 and prints the usage banner.
    Usage(String),
    /// The OS refused an input file (missing, unreadable, unwritable).
    /// Exits 3.
    Io(String),
    /// An input file was read but its contents are malformed — a bad
    /// fault-suite line, a corrupt checkpoint, an error-severity suite
    /// lint finding. Exits 4.
    Spec(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.to_owned())
    }
}

struct Common {
    t_sim: SimDuration,
    runs: u32,
    seed: u64,
    threads: usize,
    trace: Option<String>,
    trace_format: TraceFormat,
    metrics: bool,
}

impl Common {
    /// The one simulation protocol every evaluator of this invocation is
    /// built from, so `--tsim`/`--runs`/`--seed` cannot drift between the
    /// sequential path and the pool workers.
    fn protocol(&self) -> SimProtocol {
        SimProtocol::new(self.t_sim, self.runs, self.seed)
    }

    /// The invocation's trace/metrics session, built from
    /// `--trace`/`--trace-format`/`--metrics`.
    fn trace_session(&self) -> TraceSession {
        TraceSession::new(self.trace.clone(), self.trace_format, self.metrics)
    }

    fn exec_context(&self, session: &TraceSession) -> ExecContext {
        ExecContext::new(self.threads).with_collector(session.collector().clone())
    }
}

/// Flushes end-of-run statistics (pool activity, evaluation-cache hit
/// rates) into the session's registry and finishes the session: writes
/// the `--trace` file and prints the `--metrics` summary, all on stderr.
fn finish_session(
    session: &TraceSession,
    exec: &ExecContext,
    cache: Option<(u64, u64)>,
) -> Result<(), CliError> {
    exec.flush_pool_stats();
    if let (Some(registry), Some((hits, misses))) = (session.collector().registry(), cache) {
        registry.add(hi_opt::trace::wellknown::EXEC_CACHE_HITS, hits);
        registry.add(hi_opt::trace::wellknown::EXEC_CACHE_MISSES, misses);
    }
    session.finish().map_err(CliError::Io)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "explore" => cmd_explore(&args[1..]),
        "tradeoff" => cmd_tradeoff(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "space" => cmd_space(),
        "lint" => cmd_lint(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Io(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(3)
        }
        Err(CliError::Spec(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(4)
        }
    }
}

fn parse_common(args: &[String]) -> Result<(Common, Vec<(String, String)>), CliError> {
    let mut common = Common {
        t_sim: SimDuration::from_secs(60.0),
        runs: 3,
        seed: 0xDAC_2017,
        threads: hi_opt::exec::default_threads(),
        trace: None,
        trace_format: TraceFormat::default(),
        metrics: false,
    };
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].clone();
        // Valueless flags pass through with an empty value.
        if key == "--resume" {
            rest.push((key, String::new()));
            i += 1;
            continue;
        }
        if key == "--metrics" {
            common.metrics = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .cloned()
            .ok_or_else(|| format!("missing value for `{key}`"))?;
        match key.as_str() {
            "--tsim" => {
                let secs: f64 = value.parse().map_err(|_| "bad --tsim".to_owned())?;
                common.t_sim = SimDuration::from_secs(secs);
            }
            "--runs" => common.runs = value.parse().map_err(|_| "bad --runs".to_owned())?,
            "--seed" => common.seed = value.parse().map_err(|_| "bad --seed".to_owned())?,
            "--threads" => {
                common.threads = value.parse().map_err(|_| "bad --threads".to_owned())?
            }
            "--trace" => common.trace = Some(value),
            "--trace-format" => {
                common.trace_format = TraceFormat::parse(&value)
                    .ok_or_else(|| format!("bad --trace-format `{value}` (use jsonl or chrome)"))?
            }
            _ => rest.push((key, value)),
        }
        i += 2;
    }
    if common.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    if common.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if common.t_sim.is_zero() {
        return Err("--tsim must be positive".into());
    }
    // Lint the execution configuration (HL040): the engine clamps and
    // rounds these silently, so e.g. `--threads 4096` on 8 cores runs —
    // it just context-switches its budget away. Warnings only; the run
    // proceeds.
    let report = hi_opt::lint::lint_exec(&exec_spec(common.threads));
    for finding in report.findings() {
        eprintln!("exec: {finding}");
    }
    Ok((common, rest))
}

/// Lowers the run's execution configuration for HL040. The shard count
/// is [`EvalCache::new`]'s default — the cache every evaluator builds.
///
/// [`EvalCache::new`]: hi_opt::exec::EvalCache::new
fn exec_spec(threads: usize) -> hi_opt::lint::ExecSpec {
    hi_opt::lint::ExecSpec {
        threads,
        available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
        cache_shards: 32,
    }
}

fn parse_robust(value: &str) -> Result<RobustMode, CliError> {
    match value {
        "nominal" => Ok(RobustMode::Nominal),
        "worst" => Ok(RobustMode::WorstCase),
        q => {
            let bad = || format!("bad --robust `{value}` (use nominal, worst or qNN, e.g. q25)");
            let pct: f64 = q
                .strip_prefix('q')
                .ok_or_else(bad)?
                .parse()
                .map_err(|_| bad())?;
            if !(0.0..=100.0).contains(&pct) {
                return Err(CliError::Usage(bad()));
            }
            Ok(RobustMode::Quantile(pct / 100.0))
        }
    }
}

/// The `--engine` selection for `explore`. The label doubles as the
/// checkpoint header's engine name, so a `--resume` across engines is
/// detected by exact string comparison.
#[derive(Clone, Copy, PartialEq, Eq)]
enum EngineKind {
    Algorithm1,
    RobustMilp,
    IlpHeuristic,
}

impl EngineKind {
    fn parse(value: &str) -> Result<Self, CliError> {
        match value {
            "algorithm1" => Ok(EngineKind::Algorithm1),
            "robust-milp" => Ok(EngineKind::RobustMilp),
            "ilp-heuristic" => Ok(EngineKind::IlpHeuristic),
            other => Err(CliError::Usage(format!(
                "bad --engine `{other}` (use algorithm1, robust-milp or ilp-heuristic)"
            ))),
        }
    }

    fn label(self) -> &'static str {
        match self {
            EngineKind::Algorithm1 => ENGINE_ALGORITHM1,
            EngineKind::RobustMilp => ENGINE_ROBUST_MILP,
            EngineKind::IlpHeuristic => ENGINE_ILP_HEURISTIC,
        }
    }

    fn is_robust(self) -> bool {
        matches!(self, EngineKind::RobustMilp | EngineKind::IlpHeuristic)
    }
}

fn robust_name(mode: RobustMode) -> String {
    match mode {
        RobustMode::Nominal => "nominal".into(),
        RobustMode::WorstCase => "worst-case".into(),
        RobustMode::Quantile(q) => format!("q{:.0}", q * 100.0),
    }
}

/// Loads a resume checkpoint, falling back to the `.prev` rotation when
/// the primary file is torn or corrupt. The fallback diagnostic goes to
/// stderr so resumed stdout stays byte-identical.
fn load_checkpoint(path: &str) -> Result<ExploreCheckpoint, CliError> {
    let path = Path::new(path);
    let (checkpoint, fallback) = store::load_recovering(path, hi_opt::load_checkpoint_file)
        .map_err(|e| match e {
            CheckpointLoadError::Io(msg) => CliError::Io(msg),
            CheckpointLoadError::Spec(msg) => CliError::Spec(msg),
        })?;
    if let Some(primary) = fallback {
        eprintln!(
            "checkpoint: {primary}; recovered from the previous auto-checkpoint `{}`",
            store::prev_path(path).display()
        );
    }
    Ok(checkpoint)
}

/// Reads, parses and lints a fault-suite file. Lint findings go to
/// stderr (stdout stays byte-stable for determinism diffing); findings
/// of error severity reject the suite before any simulation runs.
fn load_fault_suite(path: &str, t_sim: SimDuration) -> Result<FaultSuite, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read fault suite `{path}`: {e}")))?;
    let (suite, windows) = parse_fault_suite(&text).map_err(|e| match e {
        SuiteParseError::Line { line, message } => {
            CliError::Spec(format!("{path}:{line}: {message}"))
        }
        SuiteParseError::NoScenario => {
            CliError::Spec(format!("fault suite `{path}` declares no scenario"))
        }
    })?;
    // Site 0 (chest) is the hub of every star candidate the exploration
    // proposes, so HL036 warns whenever a scenario takes it down.
    let report = lint_faults(&windows, t_sim.as_secs_f64(), Some(0));
    for finding in report.findings() {
        eprintln!("{path}: {finding}");
    }
    if report.has_errors() {
        return Err(CliError::Spec(format!(
            "fault suite `{path}` has {} error-severity lint finding(s)",
            report.error_count()
        )));
    }
    Ok(suite)
}

fn explore_err(e: ExploreError) -> CliError {
    match e {
        ExploreError::Checkpoint(_) => CliError::Spec(e.to_string()),
        other => CliError::Usage(other.to_string()),
    }
}

fn print_best(outcome: &ExplorationOutcome, pdr_min: f64) {
    match &outcome.best {
        Some((point, eval)) => {
            println!("optimal design : {point}");
            println!(
                "placements     : {:?}",
                point
                    .placement
                    .locations()
                    .iter()
                    .map(|l| l.name())
                    .collect::<Vec<_>>()
            );
            println!("PDR            : {:.2}%", eval.pdr * 100.0);
            println!("lifetime       : {:.1} days", eval.nlt_days);
            println!("worst power    : {:.3} mW", eval.power_mw);
            println!("latency        : {:.2} ms", eval.latency_ms);
        }
        None => println!(
            "infeasible: no configuration reaches {:.1}% PDR",
            pdr_min * 100.0
        ),
    }
}

/// Prints the optimum's nominal/worst/median PDR scorecard across the
/// fault suite. Cached from the exploration: reprinting the scorecard
/// costs no extra simulations.
fn print_scorecard(
    evaluator: &SupervisedEvaluator<RobustEvaluator>,
    outcome: &ExplorationOutcome,
) -> Result<(), CliError> {
    let Some((point, _)) = &outcome.best else {
        return Ok(());
    };
    let card = evaluator
        .inner()
        .try_robust_eval(point)
        .map_err(|e| CliError::Spec(format!("robust evaluation of the optimum failed: {e}")))?;
    let mut worst_name = "nominal";
    let mut worst_pdr = card.nominal.pdr;
    for (sc, ev) in evaluator
        .inner()
        .suite()
        .scenarios
        .iter()
        .zip(&card.scenarios)
    {
        if ev.pdr < worst_pdr {
            worst_pdr = ev.pdr;
            worst_name = &sc.name;
        }
    }
    println!("nominal PDR    : {:.2}%", card.nominal.pdr * 100.0);
    println!("worst PDR      : {:.2}% ({worst_name})", worst_pdr * 100.0);
    println!("median PDR     : {:.2}%", card.quantile(0.5).pdr * 100.0);
    Ok(())
}

fn cmd_explore(args: &[String]) -> Result<(), CliError> {
    let (common, rest) = parse_common(args)?;
    let mut pdr_min = None;
    let mut faults: Option<String> = None;
    let mut robust: Option<RobustMode> = None;
    let mut engine = EngineKind::Algorithm1;
    let mut gamma: Option<u32> = None;
    let mut budget: Option<u64> = None;
    let mut checkpoint: Option<String> = None;
    let mut checkpoint_every: Option<u32> = None;
    let mut resume = false;
    let mut retries: u32 = 3;
    let mut max_events: Option<u64> = None;
    let mut chaos: Option<ChaosPolicy> = None;
    for (k, v) in rest {
        match k.as_str() {
            "--pdr-min" => {
                pdr_min = Some(v.parse::<f64>().map_err(|_| "bad --pdr-min".to_owned())?)
            }
            "--faults" => faults = Some(v),
            "--robust" => robust = Some(parse_robust(&v)?),
            "--engine" => engine = EngineKind::parse(&v)?,
            "--gamma" => {
                gamma = Some(v.parse::<u32>().map_err(|_| {
                    "bad --gamma (expected a non-negative deviation budget)".to_owned()
                })?)
            }
            "--budget" => {
                budget = Some(
                    v.parse::<u64>()
                        .map_err(|_| "bad --budget (expected a simulation count)".to_owned())?,
                )
            }
            "--retries" => {
                retries = v
                    .parse::<u32>()
                    .map_err(|_| "bad --retries (expected an attempt count)".to_owned())?
            }
            "--max-events" => {
                max_events = Some(
                    v.parse::<u64>()
                        .map_err(|_| "bad --max-events (expected a DES event count)".to_owned())?,
                )
            }
            "--chaos" => {
                chaos = Some(
                    ChaosPolicy::parse(&v)
                        .map_err(|e| CliError::Usage(format!("bad --chaos: {e}")))?,
                )
            }
            "--checkpoint" => checkpoint = Some(v),
            "--checkpoint-every" => {
                checkpoint_every = Some(v.parse::<u32>().map_err(|_| {
                    "bad --checkpoint-every (expected an iteration count)".to_owned()
                })?)
            }
            "--resume" => resume = true,
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    let pdr_min = pdr_min.ok_or("explore requires --pdr-min")?;
    if !(0.0..=1.0).contains(&pdr_min) {
        return Err("--pdr-min must be within [0, 1]".into());
    }
    if robust.is_some() && faults.is_none() {
        return Err("--robust needs --faults <file> (nothing to be robust against)".into());
    }
    if gamma.is_some() && !engine.is_robust() {
        return Err(
            "--gamma needs --engine robust-milp or ilp-heuristic (the nominal engine prices \
             no deviations)"
                .into(),
        );
    }
    if resume && checkpoint.is_none() {
        return Err("--resume needs --checkpoint <file> to resume from".into());
    }
    if checkpoint_every.is_some() && checkpoint.is_none() {
        return Err("--checkpoint-every needs --checkpoint <file> to write to".into());
    }
    // Lint the run's actual supervision policy (HL038/HL039): warnings —
    // like chaos in a release build — go to stderr and the run proceeds;
    // error-severity misconfigurations reject the flags before any
    // simulation spends budget discovering them.
    let supervisor = Supervisor::new(RetryPolicy::new(retries), chaos);
    // A --faults run is a robust run even without an explicit --robust
    // (the aggregation then defaults to worst-case).
    let report = hi_opt::lint::lint_supervision(&supervision_spec(
        &supervisor,
        max_events,
        faults.is_some(),
    ));
    for finding in report.findings() {
        eprintln!("supervision: {finding}");
    }
    if report.has_errors() {
        return Err(CliError::Usage(format!(
            "supervision policy has {} error-severity lint finding(s)",
            report.error_count()
        )));
    }
    let suite = match &faults {
        Some(path) => Some(load_fault_suite(path, common.t_sim)?),
        None => None,
    };
    // Gamma-robust engines derive their per-link deviation bounds from
    // the fault suite and are linted (HL048/HL049) before any budget is
    // spent. A degenerate specification — Gamma 0 or no protected links
    // — falls back to the nominal engine with a stderr note, so its
    // stdout stays byte-identical to a plain algorithm1 run's.
    let mut spec: Option<RobustnessSpec> = None;
    if engine.is_robust() {
        let gamma = gamma.unwrap_or(1);
        let derived = match &suite {
            Some(s) => RobustnessSpec::from_suite(s, gamma),
            None => RobustnessSpec {
                gamma,
                deviations: Vec::new(),
            },
        };
        let report = hi_opt::lint::lint_robustness(&hi_opt::lint::RobustnessLintSpec {
            gamma: i64::from(gamma),
            protected_links: derived.deviations.len(),
            deviation_bounds: derived.deviations.iter().map(|d| d.delta_db).collect(),
            robust_engine: true,
            suite_scenarios: suite.as_ref().map_or(0, |s| s.len()),
        });
        for finding in report.findings() {
            eprintln!("robustness: {finding}");
        }
        if derived.is_degenerate() {
            eprintln!(
                "note: the robustness specification is degenerate (gamma = {gamma}, {} \
                 protected link(s)); running the nominal algorithm1 engine",
                derived.deviations.len()
            );
            engine = EngineKind::Algorithm1;
        } else if report.has_errors() {
            return Err(CliError::Usage(format!(
                "robustness specification has {} error-severity lint finding(s)",
                report.error_count()
            )));
        } else {
            spec = Some(derived);
        }
    }
    let prior = match (&checkpoint, resume) {
        (Some(path), true) => Some(load_checkpoint(path)?),
        _ => None,
    };
    // A checkpoint records which engine wrote it; silently replaying an
    // algorithm1 cut ladder into the robust counterpart (or vice versa)
    // would corrupt the resumed search, so a mismatch is a usage error.
    if let Some(cp) = &prior {
        if cp.engine != engine.label() {
            return Err(CliError::Usage(format!(
                "--resume checkpoint was recorded by engine `{}`, but this run selects \
                 `{}`; rerun with `--engine {}` or start a fresh checkpoint",
                cp.engine,
                engine.label(),
                cp.engine
            )));
        }
    }
    let options = ExploreOptions {
        budget,
        checkpoint_every,
        ..ExploreOptions::default()
    };
    // Auto-saves are best-effort: a full disk must not kill a run that
    // can still finish and print its result. Notices stay on stderr so
    // checkpointed stdout is byte-identical to a plain run's.
    let autosave_path = checkpoint.clone();
    let mut observer = move |cp: &ExploreCheckpoint| {
        let Some(path) = &autosave_path else { return };
        match store::write_atomic(Path::new(path), cp.to_text().as_bytes()) {
            Ok(()) => eprintln!(
                "checkpoint: auto-saved {} iteration(s), {} simulation(s) to `{path}`",
                cp.iterations, cp.simulations
            ),
            Err(e) => eprintln!("checkpoint: auto-save to `{path}` failed: {e}"),
        }
    };
    let problem = Problem::paper_default(pdr_min);
    let session = common.trace_session();
    let trace_main = session.install_main();
    let exec = common.exec_context(&session);

    let (outcome, cache) = match (engine, suite) {
        (EngineKind::Algorithm1, Some(suite)) => {
            let mode = robust.unwrap_or(RobustMode::WorstCase);
            println!(
                "fault suite    : {} scenario(s), {} aggregation",
                suite.len(),
                robust_name(mode)
            );
            let evaluator = SupervisedEvaluator::new(
                RobustEvaluator::new(common.protocol().with_max_events(max_events), suite, mode),
                supervisor,
            );
            let outcome = explore(
                &problem,
                &evaluator,
                options,
                &exec,
                prior.as_ref(),
                &mut observer,
            )
            .map_err(explore_err)?;
            print_best(&outcome, pdr_min);
            print_scorecard(&evaluator, &outcome)?;
            (
                outcome,
                (
                    evaluator.inner().cache_hits(),
                    evaluator.inner().cache_misses(),
                ),
            )
        }
        (kind, Some(suite)) => {
            let spec = spec
                .take()
                .expect("non-degenerate robust engines carry a spec");
            let mode = robust.unwrap_or(RobustMode::WorstCase);
            println!(
                "fault suite    : {} scenario(s), {} aggregation",
                suite.len(),
                robust_name(mode)
            );
            println!(
                "engine         : {} (gamma = {}, {} protected link(s))",
                kind.label(),
                spec.gamma,
                spec.deviations.len()
            );
            let evaluator = SupervisedEvaluator::new(
                RobustEvaluator::new(common.protocol().with_max_events(max_events), suite, mode),
                supervisor,
            );
            let result = match kind {
                EngineKind::RobustMilp => robust_milp_search(
                    &problem,
                    &spec,
                    &evaluator,
                    options,
                    &exec,
                    prior.as_ref(),
                    &mut observer,
                ),
                _ => ilp_heuristic_search(
                    &problem,
                    &spec,
                    &evaluator,
                    options,
                    &exec,
                    prior.as_ref(),
                    &mut observer,
                ),
            }
            .map_err(explore_err)?;
            print_best(&result.outcome, pdr_min);
            print_scorecard(&evaluator, &result.outcome)?;
            if let (Some(nominal), Some(robust_mw)) =
                (result.nominal_power_mw, result.robust_power_mw)
            {
                println!(
                    "price of robustness : nominal {:.3} mW -> robust {:.3} mW (+{:.1}%), \
                     {} simulation(s)",
                    nominal,
                    robust_mw,
                    (robust_mw - nominal) / nominal * 100.0,
                    result.outcome.simulations
                );
            }
            if kind == EngineKind::IlpHeuristic {
                println!("repairs        : {} pinned site(s) freed", result.repairs);
            }
            (
                result.outcome,
                (
                    evaluator.inner().cache_hits(),
                    evaluator.inner().cache_misses(),
                ),
            )
        }
        (EngineKind::RobustMilp | EngineKind::IlpHeuristic, None) => {
            unreachable!("degenerate robust specifications run as algorithm1")
        }
        (EngineKind::Algorithm1, None) => {
            let evaluator = SupervisedEvaluator::new(
                common
                    .protocol()
                    .with_max_events(max_events)
                    .shared_evaluator(),
                supervisor,
            );
            let outcome = explore(
                &problem,
                &evaluator,
                options,
                &exec,
                prior.as_ref(),
                &mut observer,
            )
            .map_err(explore_err)?;
            print_best(&outcome, pdr_min);
            (
                outcome,
                (
                    evaluator.inner().cache_hits(),
                    evaluator.inner().unique_evaluations(),
                ),
            )
        }
    };
    if outcome.eval_errors > 0 {
        println!(
            "eval errors    : {} design point(s) failed evaluation and were skipped",
            outcome.eval_errors
        );
    }
    println!(
        "effort         : {} simulations, {} MILP iterations ({:?})",
        outcome.simulations, outcome.iterations, outcome.stop_reason
    );
    if let Some(path) = &checkpoint {
        let cp = ExploreCheckpoint::from_outcome(pdr_min, options.alpha_correction, &outcome)
            .with_engine(engine.label());
        store::write_atomic(Path::new(path), cp.to_text().as_bytes())
            .map_err(|e| CliError::Io(format!("cannot write checkpoint `{path}`: {e}")))?;
        // Stderr, so a resumed run's stdout stays byte-identical to an
        // uninterrupted one.
        eprintln!(
            "checkpoint: saved {} iteration(s), {} simulation(s) to `{path}`",
            outcome.iterations, outcome.simulations
        );
    }
    // Stderr: stdout must stay byte-identical whether or not the run was
    // traced, budgeted or resumed.
    if let Some(notice) = stop_notice(&outcome) {
        eprintln!("{notice}");
    }
    drop(trace_main);
    finish_session(&session, &exec, Some(cache))?;
    Ok(())
}

/// The archive stream key for a `tradeoff` invocation's physics. Any
/// change to the simulation protocol (`--tsim`/`--runs`/`--seed`) lands
/// in a differently named front segment, so a stale archive is
/// invalidated by construction — never silently served.
fn archive_key(common: &Common) -> u64 {
    let text = format!(
        "tradeoff tsim {} runs {} seed {}",
        common.t_sim.as_secs_f64(),
        common.runs,
        common.seed
    );
    let token = hi_opt::serve::derive_token(&text);
    u64::from_str_radix(token.trim_start_matches("auto-"), 16)
        .expect("derive_token yields 16 hex digits")
}

/// Prints the archive's non-dominated front, one row per design. Byte
/// deterministic: the archive orders points by fingerprint, so a warm
/// reprint is identical to the cold sweep that populated it.
fn print_front(front: &[hi_opt::pareto::FrontPoint]) {
    println!("pareto front   : {} point(s)", front.len());
    for p in front {
        let design = hi_opt::DesignPoint::from_fingerprint(p.fingerprint)
            .map(|d| d.to_string())
            .unwrap_or_else(|| format!("fp {:016x}", p.fingerprint));
        println!(
            "  {:<34} pdr {:>6.2}%  power {:>7.3} mW  latency {:>6.2} ms  nlt {:>6.1} d",
            design,
            p.pdr * 100.0,
            p.power_mw,
            p.latency_ms,
            p.nlt_days
        );
    }
}

fn cmd_tradeoff(args: &[String]) -> Result<(), CliError> {
    let (common, rest) = parse_common(args)?;
    let mut floors: Vec<f64> = vec![0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99];
    let mut archive_dir: Option<std::path::PathBuf> = None;
    for (k, v) in rest {
        match k.as_str() {
            "--floors" => {
                floors = v
                    .split(',')
                    .map(|s| s.trim().parse::<f64>().map(|p| p / 100.0))
                    .collect::<Result<_, _>>()
                    .map_err(|_| "bad --floors (expected e.g. 50,80,95)".to_owned())?;
            }
            "--archive" => archive_dir = Some(v.into()),
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    if floors.iter().any(|f| !(0.0..=1.0).contains(f)) {
        return Err("floors must be percentages within [0, 100]".into());
    }
    // The archive's epsilon boxes are linted (HL046) before anything is
    // inserted or served — a degenerate box would corrupt the front.
    let eps = hi_opt::pareto::ArchiveConfig::default();
    if archive_dir.is_some() {
        let report = hi_opt::lint::lint_archive(&hi_opt::lint::ArchiveSpec {
            eps_power_mw: eps.eps_power_mw,
            eps_pdr: eps.eps_pdr,
            eps_latency_ms: eps.eps_latency_ms,
        });
        if report.has_errors() {
            return Err(CliError::Spec(format!(
                "archive configuration rejected:\n{report}"
            )));
        }
    }
    // Warm path: a front segment for this exact physics already exists —
    // answer from it, zero fresh simulations, no sweep at all. A torn
    // file holds only a prefix of the front, and a file whose key line
    // names other physics (copied or renamed by hand) holds another
    // front, so both are misses: the cold sweep below runs and rewrites
    // the file. Bit rot stays a spec error.
    if let Some(dir) = &archive_dir {
        let key = archive_key(&common);
        let path = hi_opt::serve::front_path(dir, key);
        if path.is_file() {
            let bytes = std::fs::read(&path)
                .map_err(|e| CliError::Io(format!("cannot read `{}`: {e}", path.display())))?;
            let load = hi_opt::serve::parse_front_segment(&bytes)
                .map_err(|e| CliError::Spec(format!("{}: {e}", path.display())))?;
            if let Some(torn) = load.torn {
                eprintln!(
                    "note: {}: torn archive ({torn}); recomputing the front",
                    path.display()
                );
            } else if load.key != key {
                eprintln!(
                    "note: {}: key line says {:016x} but this physics is {key:016x}; \
                     recomputing the front",
                    path.display(),
                    load.key
                );
            } else {
                let mut archive = hi_opt::pareto::ParetoArchive::new(eps);
                for point in load.entries {
                    archive.insert(point);
                }
                print_front(&archive.front());
                println!("total unique simulations: 0");
                return Ok(());
            }
        }
    }
    let template = Problem::paper_default(0.5);
    let evaluator = common.protocol().shared_evaluator();
    let session = common.trace_session();
    let trace_main = session.install_main();
    let exec = common.exec_context(&session);
    let sweep =
        explore_tradeoff_par(&template, &floors, &evaluator, &exec).map_err(|e| e.to_string())?;
    println!(
        "{:>7}  {:<34} {:>7} {:>10}",
        "PDRmin", "design", "PDR", "lifetime"
    );
    for point in sweep {
        match point.best {
            Some((design, eval)) => println!(
                "{:>6.1}%  {:<34} {:>6.1}% {:>8.1} d",
                point.pdr_min * 100.0,
                design.to_string(),
                eval.pdr * 100.0,
                eval.nlt_days
            ),
            None => println!("{:>6.1}%  (infeasible)", point.pdr_min * 100.0),
        }
    }
    // Cold populate: fold every evaluation the sweep cached into the
    // archive and persist the resulting front atomically, so a killed
    // run leaves either the old segment or the new one, never a
    // half-written file. The printed front section is byte-identical
    // to what the warm path will print for the same physics.
    if let Some(dir) = &archive_dir {
        let mut archive = hi_opt::pareto::ParetoArchive::new(eps);
        for (point, eval) in evaluator.cached_ok() {
            archive.insert(hi_opt::pareto::FrontPoint {
                fingerprint: point.fingerprint(),
                power_mw: eval.power_mw,
                pdr: eval.pdr,
                latency_ms: eval.latency_ms,
                nlt_days: eval.nlt_days,
            });
        }
        let front = archive.front();
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Io(format!("cannot create `{}`: {e}", dir.display())))?;
        let key = archive_key(&common);
        let path = hi_opt::serve::front_path(dir, key);
        let bytes = hi_opt::serve::render_front_segment(key, &front);
        store::write_atomic(&path, &bytes)
            .map_err(|e| CliError::Io(format!("cannot write `{}`: {e}", path.display())))?;
        print_front(&front);
    }
    println!(
        "total unique simulations: {}",
        evaluator.unique_evaluations()
    );
    drop(trace_main);
    finish_session(
        &session,
        &exec,
        Some((evaluator.cache_hits(), evaluator.unique_evaluations())),
    )?;
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), CliError> {
    let (common, rest) = parse_common(args)?;
    let mut sites: Option<Vec<usize>> = None;
    let mut power = None;
    let mut mac = None;
    let mut routing = None;
    for (k, v) in rest {
        match k.as_str() {
            "--sites" => {
                sites = Some(
                    v.split(',')
                        .map(|s| s.trim().parse::<usize>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| "bad --sites (expected e.g. 0,1,3,5)".to_owned())?,
                )
            }
            "--power" => {
                power = Some(match v.as_str() {
                    "-20" => TxPower::Minus20Dbm,
                    "-10" => TxPower::Minus10Dbm,
                    "0" => TxPower::ZeroDbm,
                    _ => return Err("bad --power (use -20, -10 or 0)".into()),
                })
            }
            "--mac" => {
                mac = Some(match v.as_str() {
                    "csma" => MacKind::csma(),
                    "tdma" => MacKind::tdma(),
                    _ => return Err("bad --mac (use csma or tdma)".into()),
                })
            }
            "--routing" => {
                routing = Some(match v.as_str() {
                    "star" => None, // resolved after sites are known
                    "mesh" => Some(Routing::mesh()),
                    _ => return Err("bad --routing (use star or mesh)".into()),
                })
            }
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    let sites = sites.ok_or("simulate requires --sites")?;
    let power = power.ok_or("simulate requires --power")?;
    let mac = mac.ok_or("simulate requires --mac")?;
    let routing = routing.ok_or("simulate requires --routing")?;

    let placements: Vec<BodyLocation> = sites
        .iter()
        .map(|&i| BodyLocation::from_index(i).ok_or_else(|| format!("site index {i} out of range")))
        .collect::<Result<_, _>>()?;
    let routing = match routing {
        Some(mesh) => mesh,
        None => {
            let coordinator = placements
                .iter()
                .position(|&l| l == BodyLocation::Chest)
                .ok_or("star routing requires site 0 (chest) as coordinator")?;
            Routing::Star { coordinator }
        }
    };
    let cfg = NetworkConfig::new(placements, power, mac, routing);
    cfg.validate().map_err(|e| e.to_string())?;
    // Replication r always gets seed `base + r` in input order, so the
    // pooled average is bit-identical to `hi_net::simulate_averaged`.
    let workers = common.threads.min(common.runs as usize);
    let session = common.trace_session();
    let trace_main = session.install_main();
    // Replication r records on lane r + 1 of one batch epoch (the same
    // convention ExecContext uses), so the trace layout is identical for
    // every worker count.
    let batch = session.collector().open_batch();
    let run_one = {
        let cfg = cfg.clone();
        let (t_sim, seed) = (common.t_sim, common.seed);
        let collector = session.collector().clone();
        let epoch = batch.as_ref().map(hi_opt::trace::BatchToken::epoch);
        move |r: u32| {
            let _lane = epoch.map(|e| collector.install(e, r + 1));
            simulate_stochastic(&cfg, ChannelParams::default(), t_sim, seed + u64::from(r))
        }
    };
    let replications: Result<Vec<_>, _> = if workers > 1 {
        let pool = hi_opt::exec::ThreadPool::new(workers);
        pool.par_map((0..common.runs).collect(), run_one)
            .into_iter()
            .collect()
    } else {
        (0..common.runs).map(run_one).collect()
    };
    drop(batch);
    let replications = replications.map_err(|e| e.to_string())?;
    let out = average_outcomes(&replications);
    println!("configuration  : {}", cfg.summary());
    println!("PDR            : {:.2}%", out.pdr_percent());
    println!("lifetime       : {:.1} days", out.nlt_days);
    println!("worst power    : {:.3} mW", out.max_power_mw);
    println!(
        "latency        : mean {:.2} ms, jitter {:.2} ms, max {:.2} ms",
        out.latency.mean_ms, out.latency.std_ms, out.latency.max_ms
    );
    // Per-replication means: replication r runs on seed `base + r`, so
    // this line exposes the seed-to-seed latency spread the pooled mean
    // above averages away.
    println!(
        "latency / rep  : {} ms",
        replications
            .iter()
            .map(|r| format!("{:.2}", r.latency.mean_ms))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "traffic        : {} generated, {} transmissions, {} collisions, {} drops",
        out.counts.generated,
        out.counts.transmissions,
        out.counts.collisions,
        out.counts.buffer_drops + out.counts.mac_drops
    );
    drop(trace_main);
    session.finish().map_err(CliError::Io)?;
    Ok(())
}

fn cmd_space() -> Result<(), CliError> {
    let space = DesignSpace::paper_default();
    let constraints = space.constraints();
    println!("design space (paper §4.1 defaults)");
    println!("  candidate sites      : 10 (see `hi-opt --help` for the index map)");
    println!("  required             : chest (n0 = 1)");
    println!(
        "  at least one of      : {{l-hip, r-hip}}, {{l-ankle, r-ankle}}, {{l-wrist, r-wrist}}"
    );
    println!(
        "  node count           : {} ..= {}",
        constraints.min_nodes, constraints.max_nodes
    );
    println!(
        "  feasible placements  : {}",
        constraints.feasible_placements().len()
    );
    println!("  stack choices        : 3 Tx powers x 2 MACs x 2 routings");
    println!("  feasible points      : {}", space.points().len());
    println!(
        "  unconstrained space  : {} (the paper's 12,288)",
        DesignSpace::unconstrained_size()
    );
    Ok(())
}

fn print_lint_section(title: &str, report: &hi_opt::lint::Report) {
    println!("{title}");
    if report.is_clean() {
        println!("  clean");
    } else {
        for finding in report.findings() {
            println!("  {finding}");
        }
    }
}

fn cmd_lint(args: &[String]) -> Result<(), CliError> {
    use hi_opt::lint::{lint_schedule, lint_space, Report, SpaceDim};

    let mut seed: u64 = 0xDAC_2017;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad --seed")?;
                i += 2;
            }
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }

    let constraints = TopologyConstraints::paper_default();
    let app = hi_opt::net::AppParams::default();
    let mut total = Report::new();

    // 1. The configuration space itself (paper §4.1 dimensions).
    let dims = [
        SpaceDim::new(
            "feasible placements",
            constraints.feasible_placements().len() as u64,
        ),
        SpaceDim::new("tx power", TxPower::ALL.len() as u64),
        SpaceDim::new("mac", 2),
        SpaceDim::new("routing", 2),
    ];
    let report = lint_space(&dims);
    print_lint_section("configuration space", &report);
    total.merge(report);

    // 2. The MILP encoding of the relaxed problem P-tilde, as built.
    let enc = MilpEncoding::new(&constraints, &app);
    let report = enc.lint_report();
    print_lint_section("milp encoding (no cuts)", &report);
    total.merge(report);

    // 3. The full Algorithm-1 cut ladder: every power cut RunMILP would
    //    ever add, checked for structural damage and redundancy.
    let mut enc = MilpEncoding::new(&constraints, &app);
    let mut levels = 0u32;
    loop {
        let (_, p) = enc.solve_pool().map_err(|e| e.to_string())?;
        match p {
            Some(p) => {
                levels += 1;
                enc.add_power_cut(p);
            }
            None => break,
        }
    }
    let report = enc.lint_report();
    print_lint_section(&format!("cut ladder ({levels} levels)"), &report);
    total.merge(report);

    // 4. A sample event schedule drained through the DES engine.
    let mut rng = hi_opt::des::rng::stream(seed, 7);
    let mut engine = hi_opt::des::Engine::new();
    for event in 0u32..64 {
        let t_ns = rng.gen_below(10_000_000_000); // within 10 s
        engine.schedule_at(hi_opt::des::SimTime::from_nanos(t_ns), event);
    }
    let mut times = Vec::new();
    while let Some((t, _)) = engine.pop() {
        times.push(t.as_secs_f64());
    }
    let report = lint_schedule(&times);
    print_lint_section("event schedule sample (64 events)", &report);
    total.merge(report);

    // 5. The workspace metric catalog: every name the tracing subsystem
    //    registers, checked for duplicate declarations (HL037).
    let registry = hi_opt::trace::MetricsRegistry::new();
    hi_opt::trace::wellknown::register_all(&registry);
    let defs: Vec<hi_opt::lint::MetricDefSpec> = registry
        .specs()
        .into_iter()
        .map(|spec| hi_opt::lint::MetricDefSpec {
            name: spec.name,
            kind: spec.kind.label().to_string(),
        })
        .collect();
    let report = hi_opt::lint::lint_metrics(&defs);
    print_lint_section(&format!("metric catalog ({} metrics)", defs.len()), &report);
    total.merge(report);

    // 6. The execution supervision policy `hi-opt explore` runs under by
    //    default (HL038/HL039): retry bounds, deadline floor, no chaos.
    let report =
        hi_opt::lint::lint_supervision(&supervision_spec(&Supervisor::default(), None, false));
    print_lint_section("supervision policy (explore defaults)", &report);
    total.merge(report);

    // 7. The parallel-execution configuration explore defaults to
    //    (HL040): worker count against this machine's cores, cache
    //    sharding against the power-of-two mask.
    let report = hi_opt::lint::lint_exec(&exec_spec(hi_opt::exec::default_threads()));
    print_lint_section("execution configuration (explore defaults)", &report);
    total.merge(report);

    // 8. Lock accounting of the hi-check protocol models (HL041): a
    //    brief exploration of each model in the catalog, with its
    //    per-lock acquire/release counts lowered into lint specs. The
    //    full-budget sweep lives in `cargo test -p hi-check`; 64
    //    executions here are enough to exercise every lock.
    let config = hi_opt::check::Config {
        max_executions: 64,
        ..hi_opt::check::Config::default()
    };
    let mut lock_total = 0usize;
    let mut report = hi_opt::lint::Report::new();
    for entry in hi_opt::check::models::catalog() {
        let checked = hi_opt::check::explore(&config, entry.model);
        let specs: Vec<hi_opt::lint::ModelLockSpec> = checked
            .locks
            .iter()
            .map(|lock| hi_opt::lint::ModelLockSpec {
                name: format!("{}/{}", entry.name, lock.name),
                acquires: lock.acquires,
                releases: lock.releases,
            })
            .collect();
        lock_total += specs.len();
        report.merge(hi_opt::lint::lint_model_locks(&specs));
    }
    print_lint_section(
        &format!("checker model lock accounting ({lock_total} locks)"),
        &report,
    );
    total.merge(report);

    // 9. The fleet service: the demo profiles shipped in the crate
    //    (HL042) and the daemon's default configuration (HL043) — the
    //    same checks `hi-opt serve` runs at startup and per submission.
    let profiles = hi_opt::serve::parse_profiles(hi_opt::serve::DEMO_FLEET)
        .map_err(|e| CliError::Spec(e.to_string()))?;
    let report = hi_opt::serve::lint_profiles(&profiles);
    print_lint_section(
        &format!("fleet demo profiles ({} profiles)", profiles.len()),
        &report,
    );
    total.merge(report);

    let defaults = hi_opt::serve::ServeConfig::new("hi-serve-state");
    let report = hi_opt::lint::lint_server(&defaults.lint_spec());
    print_lint_section("serve daemon configuration (defaults)", &report);
    total.merge(report);

    // 10. Durable-cache persistence (HL044) and the reconnecting
    //     client's retry policy (HL045) — the same checks `hi-opt
    //     serve` and `hi-serve-client` run at startup, here against
    //     their defaults.
    let report = hi_opt::lint::lint_cache_persist(&defaults.cache_lint_spec());
    print_lint_section("serve cache persistence (defaults)", &report);
    total.merge(report);

    let report = hi_opt::lint::lint_client_retry(&hi_opt::lint::ClientRetrySpec {
        max_attempts: 5,
        backoff_base_ms: 50.0,
    });
    print_lint_section("serve client retry policy (defaults)", &report);
    total.merge(report);

    // 11. The Pareto archive: the epsilon boxes every archive (daemon
    //     and `tradeoff --archive`) is built with (HL046), and the
    //     cold-daemon FRONT query (HL047) — shown deliberately in its
    //     firing state so the advisory a too-early client would see is
    //     part of this report (a warning, never an error).
    let eps = hi_opt::pareto::ArchiveConfig::default();
    let report = hi_opt::lint::lint_archive(&hi_opt::lint::ArchiveSpec {
        eps_power_mw: eps.eps_power_mw,
        eps_pdr: eps.eps_pdr,
        eps_latency_ms: eps.eps_latency_ms,
    });
    print_lint_section("pareto archive epsilons (defaults)", &report);
    total.merge(report);

    let report = hi_opt::lint::lint_front_query(&hi_opt::lint::FrontQuerySpec {
        completed_jobs: 0,
        archived_points: 0,
    });
    print_lint_section("front query (cold daemon, empty archive)", &report);
    total.merge(report);

    // 12. The Gamma-robustness specification (HL048/HL049): first the
    //     shape a robust engine derives from the demo fault suite (45
    //     protected links, burst- and cap-level deviation bounds), then
    //     — deliberately in its firing state, like the FRONT query above
    //     — a robust engine pointed at no suite at all, whose silent
    //     degeneration to the nominal engine is a warning, never an
    //     error.
    let report = hi_opt::lint::lint_robustness(&hi_opt::lint::RobustnessLintSpec {
        gamma: 2,
        protected_links: 45,
        deviation_bounds: vec![9.0, 40.0],
        robust_engine: true,
        suite_scenarios: 3,
    });
    print_lint_section("robustness spec (demo suite, gamma 2)", &report);
    total.merge(report);

    let report = hi_opt::lint::lint_robustness(&hi_opt::lint::RobustnessLintSpec {
        gamma: 1,
        protected_links: 0,
        deviation_bounds: vec![],
        robust_engine: true,
        suite_scenarios: 0,
    });
    print_lint_section("robust engine without a fault suite", &report);
    total.merge(report);

    println!();
    println!(
        "summary: {} error(s), {} warning(s), {} info(s)",
        total.error_count(),
        total.warning_count(),
        total.info_count()
    );
    if total.has_errors() {
        // Error severity means a structurally broken artifact; make the
        // failure visible to scripts without dumping the usage banner.
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let mut state: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut stdio = false;
    let mut threads = hi_opt::exec::default_threads();
    let mut queue_cap: usize = 64;
    let mut retries: u32 = 3;
    let mut max_events: Option<u64> = None;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut compact_threshold: u32 = 256;
    let mut conn_timeout: u64 = 600;
    let mut chaos: Option<hi_opt::exec::ChaosPolicy> = None;
    let mut i = 0;
    let take = |args: &[String], i: usize, flag: &str| -> Result<String, CliError> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--state" => {
                state = Some(take(args, i, "--state")?);
                i += 2;
            }
            "--listen" => {
                listen = Some(take(args, i, "--listen")?);
                i += 2;
            }
            "--stdio" => {
                stdio = true;
                i += 1;
            }
            "--threads" => {
                threads = take(args, i, "--threads")?
                    .parse()
                    .map_err(|_| "bad --threads")?;
                i += 2;
            }
            "--queue-cap" => {
                queue_cap = take(args, i, "--queue-cap")?
                    .parse()
                    .map_err(|_| "bad --queue-cap")?;
                i += 2;
            }
            "--retries" => {
                retries = take(args, i, "--retries")?
                    .parse()
                    .map_err(|_| "bad --retries")?;
                i += 2;
            }
            "--max-events" => {
                max_events = Some(
                    take(args, i, "--max-events")?
                        .parse()
                        .map_err(|_| "bad --max-events")?,
                );
                i += 2;
            }
            "--cache-dir" => {
                cache_dir = Some(take(args, i, "--cache-dir")?.into());
                i += 2;
            }
            "--compact-every" => {
                compact_threshold = take(args, i, "--compact-every")?
                    .parse()
                    .map_err(|_| "bad --compact-every")?;
                i += 2;
            }
            "--conn-timeout" => {
                conn_timeout = take(args, i, "--conn-timeout")?
                    .parse()
                    .map_err(|_| "bad --conn-timeout")?;
                i += 2;
            }
            "--chaos" => {
                let spec = take(args, i, "--chaos")?;
                chaos = Some(
                    hi_opt::exec::ChaosPolicy::parse(&spec)
                        .map_err(|e| CliError::Usage(format!("bad --chaos: {e}")))?,
                );
                i += 2;
            }
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    let state = state.ok_or("serve needs --state <dir>")?;
    let mut config = hi_opt::serve::ServeConfig::new(state);
    config.listen = listen;
    config.stdio = stdio;
    config.threads = threads;
    config.queue_capacity = queue_cap;
    config.retry_attempts = retries;
    config.max_events = max_events;
    config.cache_dir = cache_dir;
    config.compact_threshold = compact_threshold;
    config.conn_timeout_secs = conn_timeout;
    config.chaos = chaos;
    // Startup failures are misconfigurations or unusable state files —
    // closest to a malformed spec; scripts see exit 4.
    hi_opt::serve::run(config).map_err(CliError::Spec)
}
