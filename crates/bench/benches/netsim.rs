//! Microbenchmark B3: discrete-event simulation throughput for each
//! MAC x routing combination — the per-candidate cost Algorithm 1 pays at
//! `RunSim`, and the quantity the 87%-fewer-simulations claim saves.

use hi_bench::micro::Runner;
use hi_channel::{BodyLocation, ChannelParams};
use hi_des::SimDuration;
use hi_net::{simulate_stochastic, MacKind, NetworkConfig, Routing, TxPower};

fn placements() -> Vec<BodyLocation> {
    vec![
        BodyLocation::Chest,
        BodyLocation::LeftHip,
        BodyLocation::LeftAnkle,
        BodyLocation::LeftWrist,
        BodyLocation::LeftUpperArm,
    ]
}

fn main() {
    let runner = Runner::new("netsim_10s_5nodes");
    let cases = [
        (
            "star_csma",
            MacKind::csma(),
            Routing::Star { coordinator: 0 },
        ),
        (
            "star_tdma",
            MacKind::tdma(),
            Routing::Star { coordinator: 0 },
        ),
        (
            "star_aloha",
            MacKind::slotted_aloha(),
            Routing::Star { coordinator: 0 },
        ),
        (
            "star_hybrid",
            MacKind::hybrid(),
            Routing::Star { coordinator: 0 },
        ),
        ("mesh_csma", MacKind::csma(), Routing::mesh()),
        ("mesh_tdma", MacKind::tdma(), Routing::mesh()),
        ("mesh_aloha", MacKind::slotted_aloha(), Routing::mesh()),
        ("mesh_hybrid", MacKind::hybrid(), Routing::mesh()),
    ];
    for (name, mac, routing) in cases {
        let cfg = NetworkConfig::new(placements(), TxPower::ZeroDbm, mac, routing);
        let mut seed = 0u64;
        runner.bench(name, || {
            seed += 1;
            simulate_stochastic(
                &cfg,
                ChannelParams::default(),
                SimDuration::from_secs(10.0),
                seed,
            )
            .expect("valid config")
            .pdr
        });
    }
}
