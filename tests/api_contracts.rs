//! API-contract tests across the workspace: thread-safety markers,
//! error-type behaviour and Display stability — the Rust API guideline
//! checks (C-SEND-SYNC, C-GOOD-ERR, C-COMMON-TRAITS) as executable tests.

use hi_opt::channel::{BodyLocation, Channel, PathLossMatrix, StaticChannel};
use hi_opt::core::{
    DesignPoint, DesignSpace, Evaluation, Placement, PointEvaluator, Problem, SharedSimEvaluator,
    SimProtocol,
};
use hi_opt::des::{Engine, SimDuration, SimTime};
use hi_opt::milp::{LinExpr, Model, Solution, SolveError};
use hi_opt::net::{NetworkConfig, SimOutcome};

fn assert_send_sync<T: Send + Sync>() {}
fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}

#[test]
fn core_types_are_send_sync() {
    assert_send_sync::<Model>();
    assert_send_sync::<LinExpr>();
    assert_send_sync::<Solution>();
    assert_send_sync::<Engine<u64>>();
    assert_send_sync::<SimTime>();
    assert_send_sync::<SimDuration>();
    assert_send_sync::<Channel>();
    assert_send_sync::<StaticChannel>();
    assert_send_sync::<PathLossMatrix>();
    assert_send_sync::<NetworkConfig>();
    assert_send_sync::<SimOutcome>();
    assert_send_sync::<DesignPoint>();
    assert_send_sync::<DesignSpace>();
    assert_send_sync::<Problem>();
    assert_send_sync::<SharedSimEvaluator>();
    assert_send_sync::<Evaluation>();
}

#[test]
fn error_types_behave() {
    assert_error::<SolveError>();
    assert_error::<hi_opt::net::ConfigError>();
    assert_error::<hi_opt::ExploreError>();
    assert_error::<hi_opt::serve::ProfileParseError>();
    // Display messages: lowercase, no trailing period (C-GOOD-ERR style).
    let messages = [
        SolveError::MissingObjective.to_string(),
        hi_opt::net::ConfigError::TooFewNodes.to_string(),
        hi_opt::serve::ProfileParseError::NoProfile.to_string(),
    ];
    for m in messages {
        assert!(m.starts_with(char::is_lowercase), "{m}");
        assert!(!m.ends_with('.'), "{m}");
    }
}

#[test]
fn display_formats_are_stable() {
    // These strings appear in experiment output files; keep them stable.
    assert_eq!(BodyLocation::LeftAnkle.to_string(), "l-ankle");
    assert_eq!(SimTime::from_secs(1.25).to_string(), "1.250000000s");
    assert_eq!(Placement::from_indices([0, 9]).to_string(), "[0,9]");
    assert_eq!(hi_opt::net::TxPower::Minus10Dbm.to_string(), "-10dBm");
    assert_eq!(
        hi_opt::core::AppProfile::FitnessMonitoring.to_string(),
        "fitness-monitoring"
    );
}

#[test]
fn evaluators_are_usable_across_threads() {
    // A practical Send check: move an evaluator into a thread.
    let handle = std::thread::spawn(|| {
        let ev = SimProtocol::new(SimDuration::from_secs(2.0), 1, 1).shared_evaluator();
        let pt = DesignPoint {
            placement: Placement::from_indices([0, 1, 3, 5]),
            tx_power: hi_opt::net::TxPower::ZeroDbm,
            mac: hi_opt::core::MacChoice::Tdma,
            routing: hi_opt::core::RouteChoice::Star,
        };
        ev.try_eval(&pt).expect("a valid design point").pdr
    });
    let pdr = handle.join().expect("thread");
    assert!((0.0..=1.0).contains(&pdr));
}
