//! `hi-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ladder|robust|fleet_warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each repetition builds a fresh evaluator
//! (or restarts the daemon), solves, and checks the answer; timings are
//! medians over the repetitions of one run. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Per-repetition detail goes to `.bench_out/`. See
//! `perfbench/README.md` for the metric definitions.

mod engine;
mod fleet;
mod host;
mod ladder;
mod procfs;
mod robust;
mod spans;
mod stats;
mod timed;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stats::{median, median_of, quantile, ratio};

/// The seed whose outputs are pinned in `reference/`.
const DEFAULT_SEED: u64 = 1;
/// Repetitions per run at the least, however long they take.
const MIN_REPS: usize = 3;
/// Extra set-up-only samples for workloads whose set-up is cheap.
const SETUP_SAMPLES: usize = 31;
/// Calls averaged into one lint timing.
const LINT_SAMPLES: usize = 21;
const OUT_DIR: &str = ".bench_out";
/// glibc malloc thresholds every measured process runs under.
///
/// By default glibc adapts its mmap threshold at run time and returns
/// freed heap tops to the kernel, and identical processes settle into a
/// low-fault or a high-fault mode by chance: one `robust` solve took 30k
/// minor faults in one process and 560k (+1.3 s system time) in the
/// next. Fixed thresholds give every process the same allocator
/// behaviour; allocation savings still show, as user time and faults.
const MALLOC_TUNABLES: &str =
    "glibc.malloc.trim_threshold=268435456:glibc.malloc.mmap_threshold=33554432";

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("simulations", "count"),
    ("design_power_mw", "mW"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not exercise reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("milp.solves", "count"),
    ("milp.solve_s", "s"),
    ("milp.solve_share", "share"),
    ("milp.pivots", "count"),
    ("milp.bb_nodes", "count"),
    ("milp.pivots_per_node", "pivot/node"),
    ("milp.lint_s", "s"),
    ("net.replications", "count"),
    ("net.replication_share", "share"),
    ("des.events_dispatched", "count"),
    ("des.events_per_s", "1/s"),
    ("core.evals", "count"),
    ("core.eval_share", "share"),
    ("core.cache_hit_ratio", "share"),
    ("algo1.iterations", "count"),
    ("algo1.candidates", "count"),
    ("algo1.feasible_ratio", "share"),
    ("robust.scenarios", "count"),
    ("robust.scenario_share", "share"),
    ("engine.self_s", "s"),
    ("exec.tasks_run", "count"),
    ("exec.steals", "count"),
    ("exec.parks", "count"),
    ("exec.busy_share", "share"),
    ("serve.restart_share", "share"),
    ("serve.hydrate_share", "share"),
    ("serve.result_share", "share"),
    ("serve.front_share", "share"),
    ("serve.persist_share", "share"),
    ("serve.bytes_written_per_job", "B/job"),
    ("serve.files_written_per_job", "count/job"),
    ("serve.cache.entries_loaded", "count"),
    ("serve.fleet.cache_hits", "count"),
    ("pareto.inserts", "count"),
    ("pareto.dominated", "count"),
    ("proc.minor_faults", "count"),
    ("proc.sys_share", "share"),
    ("proc.ctx_switches_voluntary", "count"),
    ("proc.ctx_switches_involuntary", "count"),
    ("trace.overhead_share", "share"),
    ("trace.attributed_share", "share"),
];

/// Exact per-repetition counts. Every repetition starts from a fresh
/// evaluator, so they must repeat exactly; a repetition served from a
/// warm cache would differ and is counted as a failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub simulations: u64,
    pub pivots: u64,
    pub events: u64,
}

/// One repetition: set-up, solve and output checks.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub solve_s: f64,
    /// Latency of each job the solve served (a floor of `ladder`, the
    /// search of `robust`, a daemon job of `fleet_warm`).
    pub jobs_s: Vec<f64>,
    pub counts: Counts,
    /// Replications behind the answers: the solve's own, or for
    /// `fleet_warm` the cold pass the warm state came from.
    pub answer_simulations: u64,
    pub design_power_mw: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub proc: procfs::Delta,
    /// Canonical answers, compared across repetitions and with the
    /// pinned reference.
    pub outputs: String,
    /// Per-layer metrics (traced repetitions only).
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Option<spans::SpanTimes>,
    /// Mean host probe around this repetition, seconds.
    pub host_s: f64,
}

impl Rep {
    pub fn new(setup_s: f64, solve_s: f64, proc: procfs::Delta, counts: Counts) -> Self {
        Self {
            setup_s,
            solve_s,
            proc,
            counts,
            ..Self::default()
        }
    }

    pub fn fail(&mut self, failure: String) {
        self.failures.push(failure);
    }
}

pub trait Workload {
    /// One repetition; `traced` turns on the full collector and the
    /// evaluator timing wrapper. `Err` is a fault of the benchmark's own
    /// environment (files, directories), not of the program under test.
    fn rep(&mut self, traced: bool) -> Result<Rep, String>;

    /// Times one set-up alone, for workloads where that is cheap.
    fn setup_only(&mut self) -> Option<f64>;

    /// Threads the workload keeps busy, which the host probe mirrors.
    fn threads(&self) -> usize;
}

/// Runs one repetition between two host probes; `last_probe` carries
/// the probe after one repetition over as the probe before the next.
fn measure(workload: &mut dyn Workload, traced: bool, last_probe: &mut f64) -> Result<Rep, String> {
    let mut rep = workload.rep(traced)?;
    let probe = host::probe(workload.threads());
    rep.host_s = (*last_probe + probe) / 2.0;
    *last_probe = probe;
    Ok(rep)
}

/// Median wall time of one `Model::lint` call, the static analysis
/// `Model::solve` runs before every solve.
pub fn lint_time(model: &hi_milp::Model) -> f64 {
    let samples: Vec<f64> = (0..LINT_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(model.lint());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Output checks accumulated over a run's repetitions.
struct Checks {
    counts: Counts,
    outputs: String,
    reps: usize,
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Starts from the first repetition, which later ones must match.
    fn new(first: &Rep) -> Self {
        let mut checks = Self {
            counts: first.counts,
            outputs: first.outputs.clone(),
            reps: 0,
            attempted: 0,
            failures: Vec::new(),
        };
        checks.tally(first);
        checks
    }

    fn tally(&mut self, rep: &Rep) {
        let i = self.reps;
        self.reps += 1;
        self.attempted += rep.attempted;
        self.failures
            .extend(rep.failures.iter().map(|f| format!("repetition {i}: {f}")));
        // Fresh-evaluator guard: identical work and answers every time.
        if rep.counts != self.counts {
            self.failures.push(format!(
                "repetition {i}: counts {:?} differ from the first repetition's {:?}",
                rep.counts, self.counts
            ));
        }
        if rep.outputs != self.outputs {
            self.failures.push(format!(
                "repetition {i}: answers differ from the first repetition's"
            ));
        }
    }

    /// Checks `rep` and drops its answer text, so that a long run's
    /// bookkeeping does not show in the peak RSS it reports.
    fn absorb(&mut self, mut rep: Rep) -> Rep {
        self.tally(&rep);
        rep.outputs = String::new();
        rep
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    if std::env::var("GLIBC_TUNABLES").ok().as_deref() != Some(MALLOC_TUNABLES) {
        // Tunables are read at process start: replace this process with
        // itself under them. `exec` returns only on failure.
        use std::os::unix::process::CommandExt as _;
        let err = std::env::current_exe()
            .map(|exe| {
                std::process::Command::new(exe)
                    .args(std::env::args_os().skip(1))
                    .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
                    .exec()
            })
            .unwrap_or_else(|e| e);
        eprintln!("perfbench: cannot re-execute under fixed malloc thresholds: {err}");
        std::process::exit(1);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <ladder|robust|fleet_warm> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let state =
        PathBuf::from(OUT_DIR).join(format!("state-{}-{}", args.workload, std::process::id()));
    let outcome = run(&args, &state);
    // Best effort: a failed run may not have created it.
    let _ = std::fs::remove_dir_all(&state);
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, state: &Path) -> Result<String, String> {
    std::fs::create_dir_all(state).map_err(|e| format!("cannot create {state:?}: {e}"))?;
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "ladder" => Box::new(ladder::Ladder::new(args.seed)),
        "robust" => Box::new(robust::Robust::new(args.seed)?),
        "fleet_warm" => Box::new(fleet::FleetWarm::new(args.seed, state)?),
        other => return Err(format!("unknown workload `{other}`")),
    };

    // The warm-up repetition lets lazy process set-up finish; it is
    // checked like the others but not timed into the metrics.
    let mut last_probe = host::probe(workload.threads());
    let warmup = measure(workload.as_mut(), false, &mut last_probe)?;
    let outputs_path =
        PathBuf::from(OUT_DIR).join(format!("{}-seed{}-outputs.txt", args.workload, args.seed));
    std::fs::write(&outputs_path, &warmup.outputs)
        .map_err(|e| format!("cannot write {outputs_path:?}: {e}"))?;
    let mut checks = Checks::new(&warmup);
    if args.seed == DEFAULT_SEED {
        let reference = match args.workload.as_str() {
            "ladder" => include_str!("../reference/ladder-seed1.txt"),
            "robust" => include_str!("../reference/robust-seed1.txt"),
            _ => include_str!("../reference/fleet_warm-seed1.txt"),
        };
        if warmup.outputs != reference {
            checks.failures.push(format!(
                "answers differ from the pinned reference (actual answers in {outputs_path:?})"
            ));
        }
    }
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    loop {
        plain.push(checks.absorb(measure(workload.as_mut(), false, &mut last_probe)?));
        if args.trace {
            traced.push(checks.absorb(measure(workload.as_mut(), true, &mut last_probe)?));
        }
        if plain.len() >= MIN_REPS && t0.elapsed() >= budget {
            break;
        }
    }
    let mut setup_samples: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    setup_samples.extend((0..SETUP_SAMPLES).map_while(|_| workload.setup_only()));
    // Every timing below is rescaled to the reference host speed by the
    // run's median probe.
    let host_s = median_of(&plain.iter().chain(&traced).collect::<Vec<_>>(), |r| {
        r.host_s
    });
    let scale = host::REFERENCE_S / host_s;
    let Checks {
        attempted,
        failures,
        ..
    } = checks;
    for failure in &failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    let failed = (failures.len() as u64).min(attempted);

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let overhead = ratio(
            median_of(&traced, |r| r.solve_s),
            median_of(&plain, |r| r.solve_s),
        ) - 1.0;
        for (name, unit) in PER_LAYER {
            let value = match name {
                "proc.minor_faults" => median_of(&plain, |r| r.proc.minor_faults as f64),
                "proc.sys_share" => median_of(&plain, |r| {
                    ratio(r.proc.sys_s, r.proc.user_s + r.proc.sys_s)
                }),
                "proc.ctx_switches_voluntary" => median_of(&plain, |r| r.proc.ctx_voluntary as f64),
                "proc.ctx_switches_involuntary" => {
                    median_of(&plain, |r| r.proc.ctx_involuntary as f64)
                }
                "trace.overhead_share" => overhead,
                // Layer times in reference seconds, like the solve.
                _ => median_of(&traced, |r| {
                    let value = r.layers.get(name).copied().unwrap_or(0.0);
                    if unit == "s" {
                        value * scale
                    } else {
                        value
                    }
                }),
            };
            metrics.push((name, value, unit));
        }
    } else {
        let jobs: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.jobs_s.iter().map(|j| j * scale))
            .collect();
        for (name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => median(&setup_samples) * scale,
                "solve_s" => median_of(&plain, |r| r.solve_s * scale),
                "job_p50_s" => quantile(&jobs, 0.5),
                "job_p90_s" => quantile(&jobs, 0.9),
                "simulations" => warmup.answer_simulations as f64,
                "design_power_mw" => warmup.design_power_mw,
                _ => procfs::peak_rss_mb(),
            };
            metrics.push((name, value, unit));
        }
    }
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number"));
        }
    }
    write_side_file(args, &plain, &traced, setup_samples.len(), scale, &metrics)?;

    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failures.is_empty()
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    Ok(line)
}

/// Writes the run's detail — every repetition's raw wall times, host
/// probe, counts and process counters, and the span split of traced
/// repetitions — to `.bench_out/<workload>-seed<n>-trace<0|1>.json`.
fn write_side_file(
    args: &Args,
    plain: &[Rep],
    traced: &[Rep],
    setup_samples: usize,
    scale: f64,
    metrics: &[(&str, f64, &str)],
) -> Result<(), String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {},",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let jobs: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.jobs_s.iter().copied())
        .collect();
    let _ = writeln!(
        out,
        " \"samples\": {{\"repetitions\": {}, \"traced_repetitions\": {}, \"setup\": {setup_samples}, \"jobs\": {}}},",
        plain.len(),
        traced.len(),
        jobs.len()
    );
    let _ = writeln!(out, " \"host_scale\": {scale},");
    out.push_str(" \"job_deciles_s\": [");
    for d in 1..10 {
        let sep = if d == 1 { "" } else { ", " };
        let _ = write!(out, "{sep}{}", quantile(&jobs, f64::from(d) / 10.0));
    }
    out.push_str("],\n \"metrics\": {");
    for (i, (name, value, _)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {value}");
    }
    out.push_str("},\n \"repetitions\": [\n");
    for (i, rep) in plain.iter().chain(traced).enumerate() {
        let p = &rep.proc;
        let _ = write!(
            out,
            "  {{\"traced\": {}, \"setup_s\": {}, \"solve_s\": {}, \"jobs\": {}, \
             \"host_probe_s\": {}, \"simulations\": {}, \"pivots\": {}, \"events\": {}, \
             \"user_s\": {}, \"sys_s\": {}, \
             \"minor_faults\": {}, \"major_faults\": {}, \"ctx_voluntary\": {}, \
             \"ctx_involuntary\": {}, \"wchar\": {}, \"syscw\": {}",
            i >= plain.len(),
            rep.setup_s,
            rep.solve_s,
            rep.jobs_s.len(),
            rep.host_s,
            rep.counts.simulations,
            rep.counts.pivots,
            rep.counts.events,
            p.user_s,
            p.sys_s,
            p.minor_faults,
            p.major_faults,
            p.ctx_voluntary,
            p.ctx_involuntary,
            p.wchar,
            p.syscw
        );
        if let Some(spans) = &rep.spans {
            for (key, map) in [("busy_s", &spans.busy), ("self_s", &spans.self_time)] {
                let _ = write!(out, ", \"{key}\": {{");
                for (j, (name, secs)) in map.iter().enumerate() {
                    let sep = if j == 0 { "" } else { ", " };
                    let _ = write!(out, "{sep}\"{name}\": {secs}");
                }
                out.push('}');
            }
            let _ = write!(out, ", \"unmatched_spans\": {}", spans.unmatched);
        }
        if !rep.layers.is_empty() {
            out.push_str(", \"layers\": {");
            for (j, (name, value)) in rep.layers.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{name}\": {value}");
            }
            out.push('}');
        }
        let last = i + 1 == plain.len() + traced.len();
        out.push_str(if last { "}\n" } else { "},\n" });
    }
    out.push_str(" ]\n}\n");
    let path = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, out).map_err(|e| format!("cannot write {path:?}: {e}"))
}
