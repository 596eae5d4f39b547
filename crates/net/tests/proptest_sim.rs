//! Property-based invariants of the network simulator: for *any* valid
//! configuration and seed, the metrics must be internally consistent.

use hi_channel::{BodyLocation, Channel, ChannelParams};
use hi_des::check::{run_cases, Gen};
use hi_des::SimDuration;
use hi_net::{
    simulate_stochastic, FloodMode, MacKind, NetworkConfig, NetworkSim, Routing, TxPower,
};
use hi_trace::{wellknown, Collector};

#[derive(Debug, Clone)]
struct AnyConfig {
    cfg: NetworkConfig,
    seed: u64,
}

fn any_config(g: &mut Gen) -> AnyConfig {
    const EXTRAS: [BodyLocation; 9] = [
        BodyLocation::LeftHip,
        BodyLocation::RightHip,
        BodyLocation::LeftAnkle,
        BodyLocation::RightAnkle,
        BodyLocation::LeftWrist,
        BodyLocation::RightWrist,
        BodyLocation::LeftUpperArm,
        BodyLocation::Head,
        BodyLocation::Back,
    ];
    // 1..=4 distinct extra nodes next to the mandatory chest hub.
    let mut extra = g.subsequence(&EXTRAS, 0.3);
    extra.truncate(4);
    if extra.is_empty() {
        extra.push(*g.choose(&EXTRAS));
    }
    let mut placements = vec![BodyLocation::Chest];
    placements.append(&mut extra);

    let power = *g.choose(&TxPower::ALL[..3]);
    let mac = match g.u64_below(4) {
        0 => MacKind::csma(),
        1 => MacKind::tdma(),
        2 => MacKind::slotted_aloha(),
        _ => MacKind::hybrid(),
    };
    let routing = if g.bool() {
        Routing::Mesh {
            max_hops: g.u64_below(3) as u8 + 1,
            flood_mode: FloodMode::DedupPerNode,
        }
    } else {
        Routing::Star { coordinator: 0 }
    };
    AnyConfig {
        cfg: NetworkConfig::new(placements, power, mac, routing),
        seed: g.u64(),
    }
}

#[test]
fn metrics_are_internally_consistent() {
    run_cases(48, 0x4E_0001, |g| {
        let any = any_config(g);
        let out = simulate_stochastic(
            &any.cfg,
            ChannelParams::default(),
            SimDuration::from_secs(5.0),
            any.seed,
        )
        .expect("generated configs are valid");

        let n = any.cfg.num_nodes();
        // PDR bounds (eq. 6-7).
        assert!((0.0..=1.0).contains(&out.pdr), "pdr {}", out.pdr);
        assert_eq!(out.node_pdr.len(), n);
        for &p in &out.node_pdr {
            assert!((0.0..=1.0 + 1e-12).contains(&p));
        }
        let mean = out.node_pdr.iter().sum::<f64>() / n as f64;
        assert!((mean - out.pdr).abs() < 1e-9, "eq. 7 violated");

        // Power: every node draws at least the baseline; the reported
        // worst equals the max over lifetime-relevant nodes.
        assert_eq!(out.node_power_mw.len(), n);
        for &p in &out.node_power_mw {
            assert!(p >= 0.1 - 1e-12, "below baseline: {p}");
        }
        let coordinator = any.cfg.coordinator();
        let worst = out
            .node_power_mw
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != coordinator)
            .map(|(_, &p)| p)
            .fold(0.0f64, f64::max);
        assert!((worst - out.max_power_mw).abs() < 1e-12);

        // Lifetime consistent with the worst power (eq. 4).
        let expected_days = any.cfg.battery_j / (out.max_power_mw * 1e-3) / 86_400.0;
        assert!((out.nlt_days - expected_days).abs() < 1e-6);

        // Traffic accounting.
        let c = &out.counts;
        assert!(c.deliveries <= c.transmissions * (n as u64 - 1));
        assert!(c.generated > 0);
        // Latency sane.
        assert!(out.latency.mean_ms >= 0.0);
        assert!(out.latency.max_ms >= out.latency.mean_ms || out.latency.samples == 0);
        if out.pdr > 0.0 {
            assert!(out.latency.samples > 0);
        }
    });
}

#[test]
fn simulation_is_deterministic() {
    run_cases(48, 0x4E_0002, |g| {
        let any = any_config(g);
        let run = || {
            simulate_stochastic(
                &any.cfg,
                ChannelParams::default(),
                SimDuration::from_secs(3.0),
                any.seed,
            )
            .expect("valid")
        };
        assert_eq!(run(), run());
    });
}

#[test]
fn longer_simulation_does_not_break_invariants() {
    run_cases(48, 0x4E_0003, |g| {
        let any = any_config(g);
        // Guard against time-dependent state corruption (e.g. queue leaks):
        // PDR of a longer run stays within [0, 1] and power stays finite.
        let out = simulate_stochastic(
            &any.cfg,
            ChannelParams::default(),
            SimDuration::from_secs(20.0),
            any.seed,
        )
        .expect("valid");
        assert!((0.0..=1.0).contains(&out.pdr));
        assert!(out.max_power_mw.is_finite() && out.max_power_mw < 100.0);
    });
}

#[test]
fn event_budget_trips_exactly_at_the_dispatched_count() {
    run_cases(24, 0x4E_0004, |g| {
        let any = any_config(g);
        let sim = || {
            let channel = Channel::new(ChannelParams::default(), any.seed ^ 0xC4A7);
            NetworkSim::new(
                any.cfg.clone(),
                channel,
                SimDuration::from_secs(3.0),
                any.seed,
            )
            .expect("valid")
        };
        let collector = Collector::metrics_only();
        let outcome = {
            let _guard = collector.install(0, 0);
            sim().run()
        };
        let events = collector
            .registry()
            .expect("enabled collector")
            .counter_value(wellknown::DES_EVENTS_DISPATCHED);
        // Slot-driven MACs dispatch thousands of slot ticks in 3 s; even
        // CSMA generates traffic from every node.
        assert!(events > 0);
        // A budget of exactly the dispatched count completes unchanged...
        assert_eq!(sim().run_budgeted(events), Ok(outcome));
        // ...and one event fewer trips on the last event, as does a budget
        // cut mid-run on the event just past it.
        for budget in [events - 1, events / 2] {
            let trip = sim()
                .run_budgeted(budget)
                .expect_err("budget below the count");
            assert_eq!((trip.events, trip.budget), (budget + 1, budget));
        }
    });
}
