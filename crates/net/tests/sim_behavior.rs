//! Behavioural integration tests of the WBAN simulator: routing semantics,
//! MAC properties, energy accounting and determinism.

use hi_channel::{BodyLocation, ChannelModel, ChannelParams, PathLossMatrix, StaticChannel};
use hi_des::{SimDuration, SimTime};
use hi_net::{
    simulate, simulate_averaged, simulate_stochastic, FloodMode, MacKind, NetworkConfig, Routing,
    TxPower,
};
use hi_trace::{wellknown, Collector};

const T: f64 = 60.0;

fn t_sim() -> SimDuration {
    SimDuration::from_secs(T)
}

fn base_placements() -> Vec<BodyLocation> {
    vec![
        BodyLocation::Chest,
        BodyLocation::LeftHip,
        BodyLocation::LeftAnkle,
        BodyLocation::LeftWrist,
    ]
}

/// A channel defined by an explicit per-pair loss table (test double).
struct TableChannel {
    loss: Vec<(BodyLocation, BodyLocation, f64)>,
    default: f64,
}

impl TableChannel {
    fn new(default: f64) -> Self {
        Self {
            loss: Vec::new(),
            default,
        }
    }

    fn with(mut self, a: BodyLocation, b: BodyLocation, loss: f64) -> Self {
        self.loss.push((a, b, loss));
        self
    }
}

impl ChannelModel for TableChannel {
    fn path_loss_db(&mut self, a: BodyLocation, b: BodyLocation, _t: SimTime) -> f64 {
        if a == b {
            return 0.0;
        }
        self.loss
            .iter()
            .find(|(x, y, _)| (*x == a && *y == b) || (*x == b && *y == a))
            .map(|(_, _, l)| *l)
            .unwrap_or(self.default)
    }
}

#[test]
fn perfect_channel_tdma_star_delivers_everything() {
    let cfg = NetworkConfig::new(
        base_placements(),
        TxPower::ZeroDbm,
        MacKind::tdma(),
        Routing::Star { coordinator: 0 },
    );
    let out = simulate(&cfg, StaticChannel::uniform(50.0), t_sim(), 1).unwrap();
    assert_eq!(out.pdr, 1.0, "lossless TDMA star must deliver all packets");
    assert_eq!(out.counts.collisions, 0);
    assert_eq!(out.counts.buffer_drops, 0);
}

#[test]
fn perfect_channel_tdma_mesh_delivers_everything() {
    let cfg = NetworkConfig::new(
        base_placements(),
        TxPower::ZeroDbm,
        MacKind::tdma(),
        Routing::mesh(),
    );
    let out = simulate(&cfg, StaticChannel::uniform(50.0), t_sim(), 1).unwrap();
    assert_eq!(out.pdr, 1.0);
    assert_eq!(out.counts.collisions, 0);
}

#[test]
fn dead_channel_delivers_nothing() {
    let cfg = NetworkConfig::new(
        base_placements(),
        TxPower::ZeroDbm,
        MacKind::tdma(),
        Routing::Star { coordinator: 0 },
    );
    let out = simulate(&cfg, StaticChannel::uniform(150.0), t_sim(), 1).unwrap();
    assert_eq!(out.pdr, 0.0);
    assert_eq!(out.counts.deliveries, 0);
    // Nodes still transmit blindly and burn tx (but no rx) energy.
    assert!(out.counts.transmissions > 0);
}

#[test]
fn tdma_never_collides() {
    for routing in [Routing::Star { coordinator: 0 }, Routing::mesh()] {
        let cfg = NetworkConfig::new(
            base_placements(),
            TxPower::ZeroDbm,
            MacKind::tdma(),
            routing,
        );
        let out = simulate(&cfg, StaticChannel::uniform(50.0), t_sim(), 3).unwrap();
        assert_eq!(out.counts.collisions, 0, "TDMA is collision-free");
    }
}

#[test]
fn star_coordinator_bridges_hidden_nodes() {
    // Hip and wrist cannot hear each other, but both hear the chest
    // coordinator, which relays.
    let ch = TableChannel::new(150.0)
        .with(BodyLocation::Chest, BodyLocation::LeftHip, 50.0)
        .with(BodyLocation::Chest, BodyLocation::LeftWrist, 50.0);
    let cfg = NetworkConfig::new(
        vec![
            BodyLocation::Chest,
            BodyLocation::LeftHip,
            BodyLocation::LeftWrist,
        ],
        TxPower::ZeroDbm,
        MacKind::tdma(),
        Routing::Star { coordinator: 0 },
    );
    let out = simulate(&cfg, ch, t_sim(), 1).unwrap();
    // All pairs deliverable: direct to/from chest, hip<->wrist via relay.
    assert_eq!(out.pdr, 1.0, "coordinator relay must bridge hidden pairs");
}

#[test]
fn star_without_relay_path_fails_hidden_pairs() {
    // Same hidden-pair topology, but coordinator placed at the *wrist*:
    // chest<->hip must fail (no relay path), pairs via wrist succeed.
    let ch = TableChannel::new(150.0)
        .with(BodyLocation::LeftWrist, BodyLocation::LeftHip, 50.0)
        .with(BodyLocation::LeftWrist, BodyLocation::Chest, 50.0);
    let cfg = NetworkConfig::new(
        vec![
            BodyLocation::Chest,
            BodyLocation::LeftHip,
            BodyLocation::LeftWrist,
        ],
        TxPower::ZeroDbm,
        MacKind::tdma(),
        Routing::Star { coordinator: 2 },
    );
    let out = simulate(&cfg, ch, t_sim(), 1).unwrap();
    assert_eq!(out.pdr, 1.0, "wrist coordinator bridges chest<->hip too");

    // Now a non-coordinator cannot bridge: coordinator at chest, which
    // nobody but the wrist can hear... chest relay reaches only wrist.
    let ch = TableChannel::new(150.0)
        .with(BodyLocation::LeftWrist, BodyLocation::LeftHip, 50.0)
        .with(BodyLocation::LeftWrist, BodyLocation::Chest, 50.0);
    let cfg = NetworkConfig::new(
        vec![
            BodyLocation::Chest,
            BodyLocation::LeftHip,
            BodyLocation::LeftWrist,
        ],
        TxPower::ZeroDbm,
        MacKind::tdma(),
        Routing::Star { coordinator: 0 },
    );
    let out = simulate(&cfg, ch, t_sim(), 1).unwrap();
    // chest<->hip pairs dead (2 of 6 ordered pairs), plus chest->hip relay
    // cannot happen. Expect PDR strictly between 0 and 1.
    assert!(out.pdr > 0.3 && out.pdr < 0.9, "pdr = {}", out.pdr);
}

#[test]
fn mesh_two_hop_reaches_across_chain() {
    // Chain chest - hip - ankle - wrist (only adjacent links audible).
    // Two re-broadcast hops suffice for end-to-end delivery.
    let ch = || {
        TableChannel::new(150.0)
            .with(BodyLocation::Chest, BodyLocation::LeftHip, 50.0)
            .with(BodyLocation::LeftHip, BodyLocation::LeftAnkle, 50.0)
            .with(BodyLocation::LeftAnkle, BodyLocation::LeftWrist, 50.0)
    };
    let mk = |max_hops| {
        let mut cfg = NetworkConfig::new(
            base_placements(),
            TxPower::ZeroDbm,
            MacKind::tdma(),
            Routing::Mesh {
                max_hops,
                flood_mode: FloodMode::DedupPerNode,
            },
        );
        cfg.mac_buffer = 64;
        cfg
    };
    let out = simulate(&mk(2), ch(), t_sim(), 1).unwrap();
    // Not exactly 1.0: a packet generated just before the horizon may not
    // finish both hops in time, and that truncation artifact depends on
    // where the generation jitter lands for the seed.
    assert!(
        out.pdr > 0.999,
        "2 hops must cover a 3-link chain: {}",
        out.pdr
    );

    // One re-broadcast hop cannot connect chest <-> wrist.
    let out = simulate(&mk(1), ch(), t_sim(), 1).unwrap();
    assert!(out.pdr < 1.0, "1 hop cannot cover a 3-link chain");
    assert!(out.pdr > 0.5);
}

#[test]
fn mesh_beats_star_on_weak_links() {
    // Same marginal channel; mesh's redundant relays must not do worse.
    let params = ChannelParams::default();
    let star = NetworkConfig::new(
        base_placements(),
        TxPower::Minus10Dbm,
        MacKind::tdma(),
        Routing::Star { coordinator: 0 },
    );
    let mesh = NetworkConfig::new(
        base_placements(),
        TxPower::Minus10Dbm,
        MacKind::tdma(),
        Routing::mesh(),
    );
    let s = simulate_averaged(&star, params, t_sim(), 10, 3).unwrap();
    let m = simulate_averaged(&mesh, params, t_sim(), 10, 3).unwrap();
    assert!(
        m.pdr > s.pdr,
        "mesh ({}) should out-deliver star ({}) on weak links",
        m.pdr,
        s.pdr
    );
    // ... at the price of shorter lifetime.
    assert!(
        m.nlt_days < s.nlt_days,
        "mesh lifetime ({}) should be below star ({})",
        m.nlt_days,
        s.nlt_days
    );
}

#[test]
fn history_only_flooding_transmits_more() {
    let mk = |mode| {
        let mut cfg = NetworkConfig::new(
            base_placements(),
            TxPower::ZeroDbm,
            MacKind::tdma(),
            Routing::Mesh {
                max_hops: 2,
                flood_mode: mode,
            },
        );
        cfg.mac_buffer = 64;
        cfg
    };
    let dedup = simulate(
        &mk(FloodMode::DedupPerNode),
        StaticChannel::uniform(50.0),
        t_sim(),
        1,
    )
    .unwrap();
    let hist = simulate(
        &mk(FloodMode::HistoryOnly),
        StaticChannel::uniform(50.0),
        t_sim(),
        1,
    )
    .unwrap();
    assert!(
        hist.counts.transmissions > dedup.counts.transmissions,
        "history-only flooding must be more redundant ({} vs {})",
        hist.counts.transmissions,
        dedup.counts.transmissions
    );
    assert!(hist.max_power_mw > dedup.max_power_mw);
}

#[test]
fn deterministic_same_seed_same_outcome() {
    let cfg = NetworkConfig::new(
        base_placements(),
        TxPower::Minus10Dbm,
        MacKind::csma(),
        Routing::mesh(),
    );
    let a = simulate_stochastic(&cfg, ChannelParams::default(), t_sim(), 99).unwrap();
    let b = simulate_stochastic(&cfg, ChannelParams::default(), t_sim(), 99).unwrap();
    assert_eq!(a, b);
    let c = simulate_stochastic(&cfg, ChannelParams::default(), t_sim(), 100).unwrap();
    assert_ne!(a, c);
}

#[test]
fn energy_matches_analytic_model_for_lossless_tdma_star() {
    // In a lossless star every round a non-coordinator transmits once and
    // receives 2(N-1) packets (originals + coordinator relays of others,
    // minus its own relay...). The paper's coarse model (eq. 5, star):
    // Prd = phi*Tpkt*(TxmW + 2(N-1) RxmW). The simulated per-node power
    // must land within ~15% of baseline + Prd.
    let n = 4.0;
    let cfg = NetworkConfig::new(
        base_placements(),
        TxPower::ZeroDbm,
        MacKind::tdma(),
        Routing::Star { coordinator: 0 },
    );
    let out = simulate(
        &cfg,
        StaticChannel::uniform(50.0),
        SimDuration::from_secs(300.0),
        1,
    )
    .unwrap();
    let phi = 10.0;
    let tpkt = 800.0 / 1_024_000.0;
    let prd_mw = phi * tpkt * (18.3 + 2.0 * (n - 1.0) * 17.7);
    let expected = 0.1 + prd_mw;
    let rel = (out.max_power_mw - expected).abs() / expected;
    assert!(
        rel < 0.15,
        "simulated {} mW vs analytic {} mW (rel err {:.3})",
        out.max_power_mw,
        expected,
        rel
    );
}

#[test]
fn csma_congestion_produces_collisions_or_backoff_drops() {
    // Crank the load (10x packet rate) on an all-audible channel.
    let mut cfg = NetworkConfig::new(
        base_placements(),
        TxPower::ZeroDbm,
        MacKind::csma(),
        Routing::mesh(),
    );
    cfg.app.packets_per_second = 100.0;
    let out = simulate(&cfg, StaticChannel::uniform(50.0), t_sim(), 5).unwrap();
    assert!(
        out.counts.collisions > 0 || out.counts.mac_drops > 0 || out.counts.buffer_drops > 0,
        "saturated CSMA must show contention"
    );
    assert!(out.pdr < 1.0);
}

#[test]
fn tiny_buffer_drops_packets() {
    let mut cfg = NetworkConfig::new(
        base_placements(),
        TxPower::ZeroDbm,
        MacKind::tdma(),
        Routing::mesh(),
    );
    cfg.mac_buffer = 1;
    cfg.app.packets_per_second = 100.0;
    let out = simulate(&cfg, StaticChannel::uniform(50.0), t_sim(), 5).unwrap();
    assert!(out.counts.buffer_drops > 0);
}

#[test]
fn coordinator_excluded_from_lifetime() {
    // The chest coordinator relays everything (highest power), yet NLT is
    // computed over the other nodes.
    let cfg = NetworkConfig::new(
        base_placements(),
        TxPower::ZeroDbm,
        MacKind::tdma(),
        Routing::Star { coordinator: 0 },
    );
    let out = simulate(&cfg, StaticChannel::uniform(50.0), t_sim(), 1).unwrap();
    let coord_power = out.node_power_mw[0];
    assert!(
        coord_power > out.max_power_mw,
        "coordinator ({} mW) should out-draw members ({} mW)",
        coord_power,
        out.max_power_mw
    );
    let worst_member_days = 2430.0 / (out.max_power_mw * 1e-3) / 86_400.0;
    assert!((out.nlt_days - worst_member_days).abs() < 1e-9);
}

#[test]
fn mesh_lifetime_counts_every_node() {
    let cfg = NetworkConfig::new(
        base_placements(),
        TxPower::ZeroDbm,
        MacKind::tdma(),
        Routing::mesh(),
    );
    let out = simulate(&cfg, StaticChannel::uniform(50.0), t_sim(), 1).unwrap();
    let worst = out.node_power_mw.iter().cloned().fold(0.0f64, f64::max);
    assert!((out.max_power_mw - worst).abs() < 1e-12);
}

#[test]
fn higher_tx_power_never_hurts_pdr_star() {
    let params = ChannelParams::default();
    let pdr_at = |p| {
        let cfg = NetworkConfig::new(
            base_placements(),
            p,
            MacKind::tdma(),
            Routing::Star { coordinator: 0 },
        );
        simulate_averaged(&cfg, params, t_sim(), 42, 3).unwrap().pdr
    };
    let lo = pdr_at(TxPower::Minus20Dbm);
    let mid = pdr_at(TxPower::Minus10Dbm);
    let hi = pdr_at(TxPower::ZeroDbm);
    assert!(lo < mid && mid < hi, "PDR ladder broken: {lo} {mid} {hi}");
}

#[test]
fn pdr_sweep_spans_paper_fig3_range() {
    // Feasible configurations should span low to ~100% PDR and single-digit
    // to >month lifetimes, as in Fig. 3.
    let params = ChannelParams::default();
    let mut min_pdr: f64 = 1.0;
    let mut max_pdr: f64 = 0.0;
    let mut min_nlt = f64::INFINITY;
    let mut max_nlt: f64 = 0.0;
    for power in TxPower::ALL {
        for routing in [Routing::Star { coordinator: 0 }, Routing::mesh()] {
            let cfg = NetworkConfig::new(base_placements(), power, MacKind::tdma(), routing);
            let out = simulate_averaged(&cfg, params, t_sim(), 7, 2).unwrap();
            min_pdr = min_pdr.min(out.pdr);
            max_pdr = max_pdr.max(out.pdr);
            min_nlt = min_nlt.min(out.nlt_days);
            max_nlt = max_nlt.max(out.nlt_days);
        }
    }
    assert!(
        min_pdr < 0.6,
        "worst config should be unreliable: {min_pdr}"
    );
    assert!(max_pdr > 0.97, "best config should be reliable: {max_pdr}");
    assert!(min_nlt < 15.0, "mesh should be power-hungry: {min_nlt}");
    assert!(max_nlt > 25.0, "weak star should be long-lived: {max_nlt}");
}

#[test]
fn from_values_matrix_roundtrip_through_simulation() {
    // A custom measured-style matrix can drive the simulation.
    let mut vals = [[60.0; 10]; 10];
    for (i, row) in vals.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    let matrix = PathLossMatrix::from_values(vals);
    let cfg = NetworkConfig::new(
        base_placements(),
        TxPower::ZeroDbm,
        MacKind::tdma(),
        Routing::Star { coordinator: 0 },
    );
    let out = simulate(&cfg, StaticChannel::new(matrix), t_sim(), 1).unwrap();
    assert_eq!(out.pdr, 1.0);
}

#[test]
fn latency_reflects_mac_determinism() {
    // The paper's §2.1.2 remark: CSMA's channel access is
    // non-deterministic, TDMA's is deterministic. With equal traffic the
    // TDMA star's latency spread stays within the frame structure, while
    // CSMA's random backoffs widen the distribution tail.
    let mk = |mac| {
        NetworkConfig::new(
            base_placements(),
            TxPower::ZeroDbm,
            mac,
            Routing::Star { coordinator: 0 },
        )
    };
    let tdma = simulate(
        &mk(MacKind::tdma()),
        StaticChannel::uniform(50.0),
        t_sim(),
        2,
    )
    .unwrap();
    let csma = simulate(
        &mk(MacKind::csma()),
        StaticChannel::uniform(50.0),
        t_sim(),
        2,
    )
    .unwrap();
    assert!(tdma.latency.samples > 1000);
    assert!(csma.latency.samples > 1000);
    // TDMA: a 4-node round is 4 ms; direct packets wait <= one frame and
    // relays one more. Everything is bounded by a few frames.
    assert!(
        tdma.latency.max_ms < 20.0,
        "TDMA latency must be frame-bounded, got {} ms",
        tdma.latency.max_ms
    );
    assert!(tdma.latency.mean_ms > 0.5 && tdma.latency.mean_ms < 10.0);
    // CSMA's mean is small (immediate access on an idle channel) but its
    // jitter comes from random backoffs.
    assert!(csma.latency.std_ms > 0.0);
}

#[test]
fn latency_zero_when_nothing_delivered() {
    let cfg = NetworkConfig::new(
        base_placements(),
        TxPower::ZeroDbm,
        MacKind::tdma(),
        Routing::Star { coordinator: 0 },
    );
    let out = simulate(&cfg, StaticChannel::uniform(150.0), t_sim(), 1).unwrap();
    assert_eq!(out.latency.samples, 0);
    assert_eq!(out.latency.mean_ms, 0.0);
}

#[test]
fn mesh_relays_add_latency() {
    // Chain topology: multi-hop deliveries must be slower on average than
    // an all-direct topology.
    let chain = TableChannel::new(150.0)
        .with(BodyLocation::Chest, BodyLocation::LeftHip, 50.0)
        .with(BodyLocation::LeftHip, BodyLocation::LeftAnkle, 50.0)
        .with(BodyLocation::LeftAnkle, BodyLocation::LeftWrist, 50.0);
    let mut cfg = NetworkConfig::new(
        base_placements(),
        TxPower::ZeroDbm,
        MacKind::tdma(),
        Routing::mesh(),
    );
    cfg.mac_buffer = 64;
    let multi = simulate(&cfg, chain, t_sim(), 1).unwrap();
    let direct = simulate(&cfg, StaticChannel::uniform(50.0), t_sim(), 1).unwrap();
    assert!(
        multi.latency.mean_ms > direct.latency.mean_ms,
        "chain ({} ms) should exceed direct ({} ms)",
        multi.latency.mean_ms,
        direct.latency.mean_ms
    );
}

#[test]
fn one_persistent_csma_collides_more_under_contention() {
    // Classic result: nodes waiting out the same transmission all fire at
    // the instant the channel frees in 1-persistent mode, while
    // non-persistent backoffs spread them out.
    use hi_net::{CsmaAccessMode, CsmaParams};
    let mk = |mode| {
        let mut cfg = NetworkConfig::new(
            vec![
                BodyLocation::Chest,
                BodyLocation::LeftHip,
                BodyLocation::RightHip,
                BodyLocation::LeftWrist,
                BodyLocation::RightWrist,
                BodyLocation::Head,
            ],
            TxPower::ZeroDbm,
            MacKind::Csma(CsmaParams {
                access_mode: mode,
                ..Default::default()
            }),
            Routing::mesh(),
        );
        cfg.app.packets_per_second = 50.0; // heavy contention
        cfg.mac_buffer = 64;
        cfg
    };
    let np = simulate(
        &mk(CsmaAccessMode::NonPersistent),
        StaticChannel::uniform(50.0),
        t_sim(),
        4,
    )
    .unwrap();
    let op = simulate(
        &mk(CsmaAccessMode::one_persistent()),
        StaticChannel::uniform(50.0),
        t_sim(),
        4,
    )
    .unwrap();
    assert!(
        op.counts.collisions > np.counts.collisions,
        "1-persistent ({}) should collide more than non-persistent ({})",
        op.counts.collisions,
        np.counts.collisions
    );
}

#[test]
fn p_persistent_low_p_reduces_collisions() {
    use hi_net::{CsmaAccessMode, CsmaParams};
    let mk = |p| {
        let mut cfg = NetworkConfig::new(
            base_placements(),
            TxPower::ZeroDbm,
            MacKind::Csma(CsmaParams {
                access_mode: CsmaAccessMode::PPersistent {
                    p,
                    sense_period: hi_des::SimDuration::from_millis(0.5),
                },
                ..Default::default()
            }),
            Routing::mesh(),
        );
        cfg.app.packets_per_second = 50.0;
        cfg.mac_buffer = 64;
        cfg
    };
    let greedy = simulate(&mk(1.0), StaticChannel::uniform(50.0), t_sim(), 6).unwrap();
    let polite = simulate(&mk(0.2), StaticChannel::uniform(50.0), t_sim(), 6).unwrap();
    assert!(
        polite.counts.collisions < greedy.counts.collisions,
        "p=0.2 ({}) should collide less than p=1.0 ({})",
        polite.counts.collisions,
        greedy.counts.collisions
    );
    // ... but deferrals cost latency.
    assert!(polite.latency.mean_ms > greedy.latency.mean_ms);
}

#[test]
fn persistent_mode_never_mac_drops() {
    use hi_net::{CsmaAccessMode, CsmaParams};
    let mut cfg = NetworkConfig::new(
        base_placements(),
        TxPower::ZeroDbm,
        MacKind::Csma(CsmaParams {
            access_mode: CsmaAccessMode::one_persistent(),
            max_attempts: 1, // irrelevant in persistent mode
            ..Default::default()
        }),
        Routing::mesh(),
    );
    cfg.app.packets_per_second = 50.0;
    cfg.mac_buffer = 64;
    let out = simulate(&cfg, StaticChannel::uniform(50.0), t_sim(), 2).unwrap();
    assert_eq!(out.counts.mac_drops, 0);
    assert!(out.pdr > 0.5);
}

#[test]
fn slotted_aloha_delivers_at_sane_load() {
    let cfg = NetworkConfig::new(
        base_placements(),
        TxPower::ZeroDbm,
        MacKind::slotted_aloha(),
        Routing::Star { coordinator: 0 },
    );
    let out = simulate(&cfg, StaticChannel::uniform(50.0), t_sim(), 3).unwrap();
    // 40 pkt/s offered over 1000 slots/s at p = 0.3: mostly clean.
    assert!(out.pdr > 0.7, "pdr {}", out.pdr);
}

#[test]
fn slotted_aloha_p1_collapses_under_backlog() {
    use hi_net::AlohaParams;
    let mk = |p| {
        let mut cfg = NetworkConfig::new(
            base_placements(),
            TxPower::ZeroDbm,
            MacKind::SlottedAloha(AlohaParams {
                p,
                ..Default::default()
            }),
            Routing::Star { coordinator: 0 },
        );
        // Saturate beyond the 1000 slots/s service rate: queues never
        // drain, every slot is contended by all four nodes.
        cfg.app.packets_per_second = 2000.0;
        cfg
    };
    let greedy = simulate(&mk(1.0), StaticChannel::uniform(50.0), t_sim(), 8).unwrap();
    let tuned = simulate(&mk(0.2), StaticChannel::uniform(50.0), t_sim(), 8).unwrap();
    // With p = 1 every backlogged node fires every slot: perpetual
    // collision (and no listeners left), essentially nothing gets through
    // after the warm-up transient.
    assert!(
        greedy.pdr < 0.01,
        "saturated p=1 ALOHA should collapse, pdr {}",
        greedy.pdr
    );
    assert!(greedy.counts.collisions > 10_000);
    // Backing off to p = 0.2 restores a single-transmitter slot rate of
    // ~4 * 0.2 * 0.8^3 = 41%, visible as real deliveries.
    assert!(
        tuned.counts.deliveries > 10 * greedy.counts.deliveries.max(1),
        "tuned deliveries {} vs greedy {}",
        tuned.counts.deliveries,
        greedy.counts.deliveries
    );
    assert!(tuned.pdr > greedy.pdr);
}

#[test]
fn slotted_aloha_validates_probability() {
    use hi_net::AlohaParams;
    let mut cfg = NetworkConfig::new(
        base_placements(),
        TxPower::ZeroDbm,
        MacKind::SlottedAloha(AlohaParams {
            p: 1.5,
            ..Default::default()
        }),
        Routing::Star { coordinator: 0 },
    );
    cfg.app.packets_per_second = 10.0;
    assert_eq!(
        cfg.validate(),
        Err(hi_net::ConfigError::BadAlohaProbability)
    );
}

#[test]
fn slot_macs_skip_idle_ticks_and_csma_has_none_to_skip() {
    for (name, mac) in [
        ("csma", MacKind::csma()),
        ("tdma", MacKind::tdma()),
        ("aloha", MacKind::slotted_aloha()),
        ("hybrid", MacKind::hybrid()),
    ] {
        let cfg = NetworkConfig::new(
            base_placements(),
            TxPower::Minus10Dbm,
            mac,
            Routing::Star { coordinator: 0 },
        );
        let collector = Collector::metrics_only();
        {
            let _guard = collector.install(0, 0);
            simulate_stochastic(&cfg, ChannelParams::default(), t_sim(), 7).expect("valid");
        }
        let registry = collector.registry().expect("enabled collector");
        let dispatched = registry.counter_value(wellknown::DES_EVENTS_DISPATCHED);
        let skipped = registry.counter_value(wellknown::DES_TICKS_SKIPPED);
        if name == "csma" {
            assert_eq!(skipped, 0, "csma has no slot ticks");
        } else {
            assert!(skipped > 0, "{name}: no idle slot tick was skipped");
        }
        assert!(
            skipped < dispatched,
            "{name}: skipped ticks are part of the count"
        );
    }
}
