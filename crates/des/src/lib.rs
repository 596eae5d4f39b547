//! A small, deterministic discrete-event simulation (DES) kernel.
//!
//! This crate replaces the Castalia/OMNeT++ simulation substrate used by
//! *"Optimized Design of a Human Intranet Network"* (DAC 2017). It provides
//! the pieces every DES needs and nothing network-specific:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time
//!   as integers, so event ordering is exact and runs are reproducible.
//! * [`Engine`] — a future-event list with a monotone clock, stable FIFO
//!   ordering among simultaneous events, a heap-free tick lane for one
//!   periodic event, and an optional horizon.
//! * [`rng`] — seed-derived independent random streams (SplitMix64-based),
//!   so each stochastic component of a model gets its own reproducible
//!   generator.
//! * [`stats`] — Welford tallies for collecting run metrics.
//!
//! # Example
//!
//! A two-event "ping-pong" model:
//!
//! ```
//! use hi_des::{Engine, SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Ping, Pong }
//!
//! let mut engine = Engine::new();
//! engine.set_horizon(SimTime::from_secs(1.0));
//! engine.schedule_at(SimTime::ZERO, Ev::Ping);
//! let mut pings = 0;
//! while let Some((t, ev)) = engine.pop() {
//!     match ev {
//!         Ev::Ping => {
//!             pings += 1;
//!             engine.schedule_at(t + SimDuration::from_millis(400.0), Ev::Pong);
//!         }
//!         Ev::Pong => {
//!             engine.schedule_at(t + SimDuration::from_millis(400.0), Ev::Ping);
//!         }
//!     }
//! }
//! assert_eq!(pings, 2); // t = 0 and t = 0.8 s; 1.6 s is past the horizon
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod check;
mod engine;
pub mod fault;
pub mod rng;
pub mod stats;
mod time;

pub use engine::Engine;
pub use fault::Window;
pub use time::{SimDuration, SimTime};
