//! `hi-serve` — a fleet-optimization job service for the `hi-opt`
//! workspace: a wire protocol, per-user profiles, and cross-user
//! evaluation-cache dedup.
//!
//! The paper's pipeline (channel → DES → constrained search) optimizes
//! one Human Intranet wearer at a time. A deployment has a *fleet* of
//! wearers whose design problems differ only in a few knobs — body
//! geometry, traffic mix, reliability floor — while the expensive part,
//! the per-design-point network simulation, is identical whenever the
//! lowered physics coincide. This crate turns the workspace into a
//! long-running service that exploits exactly that overlap:
//!
//! * [`profile`](UserProfile) — a per-user profile file format (body
//!   [`geometry`](UserProfile::geometry_scale) scaling, channel-matrix
//!   offset, traffic mix, PDRmin, engine choice, optional fault suite)
//!   with a total, fuzz-tested parser and a canonical
//!   [`to_text`](UserProfile::to_text) rendering;
//! * [`proto`](Request) — a line-oriented wire protocol (`SUBMIT`,
//!   `STATUS`, `RESULT`, `WAIT`, `CANCEL`, `FRONT`, `STATS`,
//!   `SHUTDOWN`) served over stdin/stdout and TCP by the same
//!   transport-generic loop;
//! * [`fleet`](FleetCache) — one shared, fingerprint-keyed evaluator
//!   pool: profiles whose lowered physics agree share a memo cache, so
//!   identical design points simulate once per fleet, not once per user;
//! * [`server`](Server) — the daemon: a persistent job queue over
//!   `hi-exec` (per-job cancel tokens, supervised retries), CRC-checked
//!   crash-safe job records and per-iteration checkpoints (a SIGKILLed
//!   daemon resumes in-flight jobs on restart, byte-identically), and
//!   `hi-trace` metrics behind `STATS`;
//! * [`front`](FrontStore) — a per-stream `hi-pareto` archive over
//!   `(power, PDR, latency)`, fed incrementally by every job through
//!   the shared cache, persisted in CRC-checked front segments beside
//!   the cache segments (both logs are one [`LogStore`] over a payload
//!   codec), and served by `FRONT` — warm after a restart, with zero
//!   fresh simulations.
//!
//! Everything is std-only and deterministic: jobs run serially in id
//! order, so the cache state any job observes is a pure function of the
//! submission history, independent of thread count or crashes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fleet;
mod front;
mod persist;
mod profile;
mod proto;
mod segment;
mod server;

pub use fleet::{
    render_result, run_profile, FleetCache, FleetEvaluator, FleetStats, ProfileOutcome, RunPolicy,
};
pub use front::{
    front_path, parse_front_entry, parse_front_segment, render_front_entry, render_front_segment,
    FrontCodec, FrontLoad, FrontStore,
};
pub use persist::{
    checkpoint_path, load_job_recovering, record_path, scan_records, JobRecord, JobState,
};
pub use profile::{
    lint_profiles, parse_profiles, EngineChoice, FaultsRef, ProfileParseError, UserProfile,
    DEMO_FLEET,
};
pub use proto::{
    derive_token, err_line, ok_block, ok_line, validate_token, Request, MAX_SUBMIT_LINES,
    MAX_TOKEN_LEN,
};
pub use segment::{
    frame_entry, parse_entry, parse_segment, render_entry, render_segment, segment_path,
    CacheCodec, CachedOutcome, LogCodec, LogLoad, LogStats, LogStore, SegmentLoad, SegmentStore,
    SettleOutcome,
};
pub use server::{run, serve_connection, ServeConfig, Server};
