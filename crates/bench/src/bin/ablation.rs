//! Ablation studies for the design choices called out in DESIGN.md §6:
//!
//! 1. **Flooding duplicate suppression** — per-node dedup (default) vs
//!    the paper-literal history-only mode (`NreTx → N²−4N+5` redundancy):
//!    redundancy buys marginal PDR at a steep lifetime cost.
//! 2. **α-correction** — Algorithm 1 with and without the α divisor in
//!    the termination test: the naive bound can stop a level early and
//!    return a worse (false) optimum.
//! 3. **MAC protocols** — CSMA vs TDMA at identical placement/power:
//!    identical analytic power, different simulated reliability.
//!
//! ```sh
//! cargo run --release -p hi-bench --bin ablation
//! ```

use hi_bench::ExpOptions;
use hi_channel::{BodyLocation, ChannelParams};
use hi_core::{explore, ExecContext, ExploreOptions, Problem};
use hi_net::{simulate_averaged, FloodMode, MacKind, NetworkConfig, Routing, TxPower};

fn main() {
    let opts = ExpOptions::from_args();
    flooding_modes(&opts);
    alpha_correction(&opts);
    mac_choice(&opts);
}

fn flooding_modes(opts: &ExpOptions) {
    println!("# Ablation 1: flooding duplicate suppression (5-node mesh, 0 dBm, TDMA)");
    println!("mode\tpdr_pct\tnlt_days\ttransmissions\tworst_mw");
    let placements = vec![
        BodyLocation::Chest,
        BodyLocation::LeftHip,
        BodyLocation::LeftAnkle,
        BodyLocation::LeftWrist,
        BodyLocation::LeftUpperArm,
    ];
    for (label, mode) in [
        ("dedup-per-node", FloodMode::DedupPerNode),
        ("history-only", FloodMode::HistoryOnly),
    ] {
        let mut cfg = NetworkConfig::new(
            placements.clone(),
            TxPower::ZeroDbm,
            MacKind::tdma(),
            Routing::Mesh {
                max_hops: 2,
                flood_mode: mode,
            },
        );
        cfg.mac_buffer = 64; // history-only floods need queue headroom
        let out = simulate_averaged(
            &cfg,
            ChannelParams::default(),
            opts.t_sim,
            opts.seed,
            opts.runs,
        )
        .expect("valid config");
        println!(
            "{label}\t{:.2}\t{:.2}\t{}\t{:.3}",
            out.pdr_percent(),
            out.nlt_days,
            out.counts.transmissions,
            out.max_power_mw
        );
    }
    println!();
}

fn alpha_correction(opts: &ExpOptions) {
    println!("# Ablation 2: Algorithm 1 termination with/without the alpha correction");
    println!("pdr_min_pct\talpha\tbest_power_mw\tsims\tnote");
    for pdr_min in [0.60, 0.80, 0.95] {
        let problem = Problem::paper_default(pdr_min);
        let mut with_power = None;
        for (label, alpha) in [("on", true), ("off", false)] {
            let ev = opts.evaluator();
            let out = explore(
                &problem,
                &ev,
                ExploreOptions {
                    alpha_correction: alpha,
                    ..ExploreOptions::default()
                },
                &ExecContext::sequential(),
                None,
                &mut |_| (),
            )
            .expect("explore");
            let power = out.best.as_ref().map(|(_, e)| e.power_mw);
            let note = match (alpha, with_power, power) {
                (true, _, _) => {
                    with_power = power;
                    "reference (paper)".to_owned()
                }
                (false, Some(a), Some(b)) if b > a + 1e-9 => {
                    format!("FALSE OPTIMUM (+{:.1}% power)", (b / a - 1.0) * 100.0)
                }
                (false, Some(_), Some(_)) => "same optimum (bound inactive here)".to_owned(),
                _ => "infeasible".to_owned(),
            };
            println!(
                "{:.0}\t{}\t{}\t{}\t{}",
                pdr_min * 100.0,
                label,
                power.map_or_else(|| "-".into(), |p| format!("{p:.3}")),
                out.simulations,
                note
            );
        }
    }
    println!();
}

fn mac_choice(opts: &ExpOptions) {
    println!("# Ablation 3: MAC protocol at fixed placement/power (4-node star + mesh)");
    println!("routing\tmac\tpdr_pct\tnlt_days\tcollisions");
    let placements = vec![
        BodyLocation::Chest,
        BodyLocation::LeftHip,
        BodyLocation::LeftAnkle,
        BodyLocation::LeftWrist,
    ];
    for routing in [Routing::Star { coordinator: 0 }, Routing::mesh()] {
        for mac in [MacKind::csma(), MacKind::tdma()] {
            let cfg = NetworkConfig::new(placements.clone(), TxPower::ZeroDbm, mac, routing);
            let out = simulate_averaged(
                &cfg,
                ChannelParams::default(),
                opts.t_sim,
                opts.seed,
                opts.runs,
            )
            .expect("valid config");
            println!(
                "{}\t{}\t{:.2}\t{:.2}\t{}",
                routing.label(),
                mac.label(),
                out.pdr_percent(),
                out.nlt_days,
                out.counts.collisions
            );
        }
    }
}
