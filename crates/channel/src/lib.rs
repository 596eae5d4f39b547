//! Wireless body-area channel model for the Human Intranet.
//!
//! The DAC 2017 paper models the instantaneous path loss between two
//! on-body locations `(i, j)` as (its eq. 1)
//!
//! ```text
//! PL_ij(t) = PL̄_ij + δPL_ij(t)
//! ```
//!
//! where `PL̄_ij` is a per-link average inferred from a two-hour measurement
//! campaign on human subjects (the NICTA open dataset) and `δPL_ij(t)` is a
//! temporally correlated random process whose conditional density depends
//! on the previously observed value and the elapsed time — exactly the
//! conditional-probability link model of Smith, Boulis & Tselishchev.
//!
//! **Substitution note (see DESIGN.md §2).** The measurement dataset is not
//! redistributable, so this crate generates `PL̄_ij` *synthetically* from
//! the geometry of the ten named body sites ([`BodyLocation`]): log-distance
//! path loss plus an around-torso non-line-of-sight penalty, calibrated to
//! the dynamic range reported for on-body 2.4 GHz links (≈45–90 dB). The
//! temporal term is an Ornstein–Uhlenbeck (Gauss–Markov) process: its
//! conditional density given the last observation `δ0` after elapsed `Δt`
//! is `N(ρ·δ0, σ²(1−ρ²))` with `ρ = exp(−Δt/τ)` — the same
//! "depends on the previous value and the elapsed time" structure as the
//! paper's empirical model, with a stationary `N(0, σ²)` marginal.
//!
//! # Example
//!
//! ```
//! use hi_channel::{BodyLocation, Channel, ChannelModel, ChannelParams};
//! use hi_des::SimTime;
//!
//! let mut ch = Channel::new(ChannelParams::default(), 42);
//! let pl = ch.path_loss_db(BodyLocation::Chest, BodyLocation::LeftWrist,
//!                          SimTime::from_secs(1.0));
//! assert!(pl > 30.0 && pl < 120.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod location;
mod pathloss;
pub mod posture;
mod sampler;
mod variation;

pub use location::BodyLocation;
pub use pathloss::{PathLossMatrix, PathLossParams};
pub use sampler::{Channel, ChannelModel, ChannelParams, StaticChannel};
pub use variation::{OuProcess, VariationParams};
