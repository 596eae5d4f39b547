//! Golden outcomes: the exact bits of every [`SimOutcome`] field, plus the
//! number of dispatched DES events, over a MAC × routing × fault matrix.
//! Each case also pins where a run under half that many events trips its
//! budget: the events counted at the trip, the budget and the simulated
//! instant, so event accounting is exact mid-run as well as at the end.
//!
//! The simulator is deterministic per configuration and seed, so any change
//! to event ordering, random-stream consumption or bookkeeping shows up
//! here as a changed bit. Performance work on the event loop must leave
//! this file and `golden/outcomes.txt` untouched.
//!
//! The matrix covers every MAC (TDMA, non-persistent and p-persistent CSMA,
//! slotted ALOHA, hybrid), star and both mesh flood modes, and four fault
//! set-ups (none, a permanent `NodeFault`, a crash/recover outage window, a
//! link blackout plus an interference burst) — 60 cases in all.
//!
//! To regenerate the golden file after an *intended* behaviour change, run
//! `HI_GOLDEN_BLESS=1 cargo test -p hi-net --test golden_outcomes` and
//! review the diff.

use hi_channel::{BodyLocation, ChannelParams};
use hi_des::{SimDuration, SimTime};
use hi_net::{
    simulate_stochastic, simulate_stochastic_budgeted, CsmaAccessMode, CsmaParams, FaultScenario,
    FloodMode, InterferenceBurst, LinkBlackout, MacKind, NetworkConfig, NodeFault, Routing,
    SimError, SimOutcome, SiteOutage, TxPower, Window,
};
use hi_trace::{wellknown, Collector};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/outcomes.txt");

fn macs() -> Vec<(&'static str, MacKind)> {
    let p_persistent = MacKind::Csma(CsmaParams {
        access_mode: CsmaAccessMode::PPersistent {
            p: 0.5,
            sense_period: SimDuration::from_millis(0.5),
        },
        ..CsmaParams::default()
    });
    vec![
        ("tdma", MacKind::tdma()),
        ("csma-np", MacKind::csma()),
        ("csma-pp", p_persistent),
        ("aloha", MacKind::slotted_aloha()),
        ("hybrid", MacKind::hybrid()),
    ]
}

fn routings() -> Vec<(&'static str, Routing)> {
    let Routing::Mesh { max_hops, .. } = Routing::mesh() else {
        unreachable!("Routing::mesh builds a mesh")
    };
    let mesh = |flood_mode| Routing::Mesh {
        max_hops,
        flood_mode,
    };
    vec![
        ("star", Routing::Star { coordinator: 0 }),
        ("mesh-dedup", mesh(FloodMode::DedupPerNode)),
        ("mesh-history", mesh(FloodMode::HistoryOnly)),
    ]
}

/// Applies fault set-up `name` to `cfg`. Sites: chest 0, left hip 1,
/// left ankle 3, left wrist 5, left upper arm 7.
fn apply_faults(name: &str, cfg: &mut NetworkConfig) {
    match name {
        "none" => {}
        "node-fault" => cfg.faults.push(NodeFault {
            node: 2,
            at: SimDuration::from_secs(7.5),
        }),
        "outage" => {
            cfg.scenario = FaultScenario::named("wrist reboot");
            cfg.scenario.outages.push(SiteOutage {
                site: 5,
                window: Window::from_secs(4.0, 11.0),
            });
        }
        "blackout-burst" => {
            cfg.scenario = FaultScenario::named("shadow and jammer");
            cfg.scenario.blackouts.push(LinkBlackout {
                site_a: 0,
                site_b: 3,
                window: Window::open_ended(SimTime::from_secs(5.0)),
            });
            cfg.scenario.bursts.push(InterferenceBurst {
                window: Window::from_secs(12.0, 14.5),
                extra_loss_db: 6.0,
            });
        }
        other => unreachable!("unknown fault set-up {other}"),
    }
}

const FAULTS: [&str; 4] = ["none", "node-fault", "outage", "blackout-burst"];

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn hex_list(vs: &[f64]) -> String {
    vs.iter().map(|&v| hex(v)).collect::<Vec<_>>().join(",")
}

/// One canonical line per case: every outcome field as exact bits.
fn render(case: &str, events: u64, o: &SimOutcome) -> String {
    let c = &o.counts;
    format!(
        "{case} events={events} pdr={} nlt_days={} max_power_mw={} sim_seconds={} \
         latency={},{},{},{} counts={},{},{},{},{},{} node_pdr={} node_power_mw={}",
        hex(o.pdr),
        hex(o.nlt_days),
        hex(o.max_power_mw),
        hex(o.sim_seconds),
        o.latency.samples,
        hex(o.latency.mean_ms),
        hex(o.latency.std_ms),
        hex(o.latency.max_ms),
        c.generated,
        c.transmissions,
        c.deliveries,
        c.collisions,
        c.buffer_drops,
        c.mac_drops,
        hex_list(&o.node_pdr),
        hex_list(&o.node_power_mw),
    )
}

const T_SIM: SimDuration = SimDuration::from_micros(20_000_000);

/// Runs one case under a metrics collector, returning the outcome and the
/// dispatched-event count the simulator reports.
fn run_case(cfg: &NetworkConfig, seed: u64) -> (SimOutcome, u64) {
    let collector = Collector::metrics_only();
    let outcome = {
        let _guard = collector.install(0, 0);
        simulate_stochastic(cfg, ChannelParams::default(), T_SIM, seed)
            .expect("valid configuration")
    };
    let events = collector
        .registry()
        .expect("enabled collector")
        .counter_value(wellknown::DES_EVENTS_DISPATCHED);
    (outcome, events)
}

/// Reruns one case under a budget of `budget` events and renders where it
/// trips.
fn render_trip(case: &str, cfg: &NetworkConfig, seed: u64, budget: u64) -> String {
    let trip =
        simulate_stochastic_budgeted(cfg, ChannelParams::default(), T_SIM, seed, Some(budget));
    let Err(SimError::DeadlineExceeded {
        events,
        budget,
        at_secs,
    }) = trip
    else {
        panic!("{case}: a budget of half the events must trip, got {trip:?}");
    };
    format!(
        "{case} trip events={events} budget={budget} at={}",
        hex(at_secs)
    )
}

fn render_all() -> Vec<String> {
    let placements = vec![
        BodyLocation::Chest,
        BodyLocation::LeftHip,
        BodyLocation::LeftAnkle,
        BodyLocation::LeftWrist,
        BodyLocation::LeftUpperArm,
    ];
    let mut lines = Vec::new();
    let mut seed = 0u64;
    for (mac_name, mac) in macs() {
        for (routing_name, routing) in routings() {
            for fault in FAULTS {
                seed += 1;
                let mut cfg =
                    NetworkConfig::new(placements.clone(), TxPower::Minus10Dbm, mac, routing);
                apply_faults(fault, &mut cfg);
                let (outcome, events) = run_case(&cfg, seed);
                let case = format!("{mac_name}/{routing_name}/{fault}/seed{seed}");
                lines.push(render(&case, events, &outcome));
                lines.push(render_trip(&case, &cfg, seed, events / 2));
            }
        }
    }
    lines
}

#[test]
fn outcomes_match_the_golden_bits() {
    let lines = render_all();
    if std::env::var_os("HI_GOLDEN_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, lines.join("\n") + "\n").expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("read golden file");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(golden.len(), lines.len(), "golden case count changed");
    let mismatches: Vec<String> = lines
        .iter()
        .zip(&golden)
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  want {want}\n   got {got}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} cases changed:\n{}",
        mismatches.len(),
        lines.len(),
        mismatches.join("\n")
    );
}
