//! Shared plumbing for the experiment binaries: CLI options, the
//! pool-backed design-space sweep and result formatting.
//!
//! Every binary regenerates one artifact of the paper (see the experiment
//! index in `DESIGN.md`); this crate keeps them small and consistent.
//! All simulation work funnels through one [`SimProtocol`] constructor
//! ([`ExpOptions::protocol`]) so every evaluator and every worker thread
//! are guaranteed to agree on `t_sim`, `runs` and seeding.

#![forbid(unsafe_code)]

pub mod micro;

use hi_core::{DesignPoint, Evaluation, ExecContext, SharedSimEvaluator, SimProtocol};
use hi_des::SimDuration;

/// Common command-line options of the experiment binaries.
///
/// Parsed from `--tsim <secs>`, `--runs <n>`, `--seed <n>`,
/// `--paper` (shorthand for the paper's 600 s × 3 protocol) and
/// `--threads <n>`.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Per-run simulated duration.
    pub t_sim: SimDuration,
    /// Replications averaged per evaluation.
    pub runs: u32,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for sweeps.
    pub threads: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            // Fast default so the harnesses finish in tens of seconds;
            // `--paper` switches to the publication protocol.
            t_sim: SimDuration::from_secs(60.0),
            runs: 3,
            seed: 0xDAC_2017,
            threads: hi_exec::default_threads(),
        }
    }
}

impl ExpOptions {
    /// Parses options from `std::env::args`, exiting with a usage message
    /// on malformed input.
    pub fn from_args() -> Self {
        let mut opts = Self::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        let usage = || -> ! {
            eprintln!("usage: [--tsim <secs>] [--runs <n>] [--seed <n>] [--threads <n>] [--paper]");
            std::process::exit(2);
        };
        while i < args.len() {
            match args[i].as_str() {
                "--tsim" => {
                    i += 1;
                    let secs: f64 = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage());
                    opts.t_sim = SimDuration::from_secs(secs);
                }
                "--runs" => {
                    i += 1;
                    opts.runs = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage());
                }
                "--seed" => {
                    i += 1;
                    opts.seed = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage());
                }
                "--threads" => {
                    i += 1;
                    opts.threads = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage());
                }
                "--paper" => {
                    opts.t_sim = SimDuration::from_secs(600.0);
                    opts.runs = 3;
                }
                _ => usage(),
            }
            i += 1;
        }
        opts
    }

    /// The simulation protocol these options describe. Every evaluator a
    /// binary constructs must come from this one value so
    /// `--tsim`/`--runs`/`--seed` cannot drift between workers.
    pub fn protocol(&self) -> SimProtocol {
        SimProtocol::new(self.t_sim, self.runs, self.seed)
    }

    /// A fresh memoizing simulator evaluator under these options.
    pub fn evaluator(&self) -> SharedSimEvaluator {
        self.protocol().shared_evaluator()
    }

    /// An execution context with these options' thread count.
    pub fn exec_context(&self) -> ExecContext {
        ExecContext::new(self.threads)
    }
}

/// Evaluates `points` on the `hi-exec` engine with per-point
/// deterministic seeding.
///
/// Results are returned in the input order regardless of scheduling, so
/// sweeps are reproducible: the per-point seed derivation in
/// [`SimProtocol`] makes the measurements bit-identical for any
/// `--threads` value.
///
/// # Panics
///
/// Panics if a point's evaluation fails: a sweep feeding a figure has no
/// meaningful way to leave a point out.
pub fn parallel_sweep(points: &[DesignPoint], opts: &ExpOptions) -> Vec<Evaluation> {
    let exec = opts.exec_context();
    let evaluator = opts.evaluator();
    exec.try_eval_points(&evaluator, points)
        .into_iter()
        .zip(points)
        .map(
            |(slot, point)| match slot.expect("sweep is never cancelled") {
                Ok(eval) => eval,
                Err(e) => panic!("evaluation of {point} failed: {e}"),
            },
        )
        .collect()
}

/// Picks, per reliability floor, the lifetime-optimal point of a sweep —
/// the "arrows" of the paper's Fig. 3.
pub fn optima_per_floor(
    sweep: &[(DesignPoint, Evaluation)],
    floors: &[f64],
) -> Vec<(f64, Option<(DesignPoint, Evaluation)>)> {
    floors
        .iter()
        .map(|&floor| {
            let best = sweep
                .iter()
                .filter(|(_, e)| e.pdr >= floor)
                .min_by(|(_, a), (_, b)| {
                    a.power_mw.partial_cmp(&b.power_mw).expect("finite powers")
                })
                .map(|&(p, e)| (p, e));
            (floor, best)
        })
        .collect()
}

/// The (reliability, lifetime) Pareto front of a sweep: every point not
/// dominated by another with both a higher-or-equal PDR and a
/// higher-or-equal lifetime (one strictly). Sorted by descending PDR.
pub fn pareto_front(sweep: &[(DesignPoint, Evaluation)]) -> Vec<(DesignPoint, Evaluation)> {
    let mut sorted: Vec<&(DesignPoint, Evaluation)> = sweep.iter().collect();
    // Descending PDR; lifetime breaks ties descending so the scan below
    // keeps the best representative per PDR level.
    sorted.sort_by(|(_, a), (_, b)| {
        b.pdr
            .partial_cmp(&a.pdr)
            .expect("finite pdr")
            .then(b.nlt_days.partial_cmp(&a.nlt_days).expect("finite nlt"))
    });
    let mut front = Vec::new();
    let mut best_nlt = f64::NEG_INFINITY;
    let mut last_pdr = f64::INFINITY;
    for &&(p, e) in &sorted {
        if e.nlt_days > best_nlt + 1e-12 {
            // Equal-PDR entries after the first are dominated.
            if (e.pdr - last_pdr).abs() > 1e-12 {
                front.push((p, e));
                best_nlt = e.nlt_days;
                last_pdr = e.pdr;
            }
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_core::DesignSpace;

    #[test]
    fn parallel_sweep_matches_sequential() {
        let opts = ExpOptions {
            t_sim: SimDuration::from_secs(3.0),
            runs: 1,
            seed: 5,
            threads: 4,
        };
        let points: Vec<_> = DesignSpace::paper_default()
            .points()
            .into_iter()
            .take(12)
            .collect();
        let par = parallel_sweep(&points, &opts);
        let seq = parallel_sweep(&points, &ExpOptions { threads: 1, ..opts });
        assert_eq!(par.len(), points.len());
        assert_eq!(par, seq);
    }

    #[test]
    fn pareto_front_drops_dominated_points() {
        use hi_core::{MacChoice, Placement, RouteChoice};
        use hi_net::TxPower;
        let pt = |p| DesignPoint {
            placement: Placement::from_indices([0, 1, 3, 5]),
            tx_power: p,
            mac: MacChoice::Tdma,
            routing: RouteChoice::Star,
        };
        let e = |pdr, nlt| Evaluation {
            pdr,
            nlt_days: nlt,
            power_mw: 1.0,
            latency_ms: 5.0,
        };
        let sweep = vec![
            (pt(TxPower::Minus20Dbm), e(0.5, 30.0)), // on front
            (pt(TxPower::Minus10Dbm), e(0.7, 25.0)), // on front
            (pt(TxPower::ZeroDbm), e(0.6, 20.0)),    // dominated by 0.7/25
            (pt(TxPower::ZeroDbm), e(0.9, 15.0)),    // on front
            (pt(TxPower::ZeroDbm), e(0.9, 10.0)),    // dominated (equal pdr)
        ];
        let front = pareto_front(&sweep);
        let pdrs: Vec<f64> = front.iter().map(|(_, e)| e.pdr).collect();
        assert_eq!(pdrs, vec![0.9, 0.7, 0.5]);
        assert_eq!(front[0].1.nlt_days, 15.0);
    }

    #[test]
    fn pareto_front_of_empty_sweep_is_empty() {
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn optima_respect_floor() {
        use hi_core::{MacChoice, Placement, RouteChoice};
        use hi_net::TxPower;
        let pt = |p| DesignPoint {
            placement: Placement::from_indices([0, 1, 3, 5]),
            tx_power: p,
            mac: MacChoice::Tdma,
            routing: RouteChoice::Star,
        };
        let sweep = vec![
            (
                pt(TxPower::Minus20Dbm),
                Evaluation {
                    pdr: 0.5,
                    nlt_days: 30.0,
                    power_mw: 0.9,
                    latency_ms: 4.0,
                },
            ),
            (
                pt(TxPower::ZeroDbm),
                Evaluation {
                    pdr: 0.95,
                    nlt_days: 25.0,
                    power_mw: 1.1,
                    latency_ms: 6.0,
                },
            ),
        ];
        let out = optima_per_floor(&sweep, &[0.4, 0.9, 0.99]);
        assert_eq!(out[0].1.unwrap().1.power_mw, 0.9);
        assert_eq!(out[1].1.unwrap().1.power_mw, 1.1);
        assert!(out[2].1.is_none());
    }
}
