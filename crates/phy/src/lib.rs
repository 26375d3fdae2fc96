//! # pcmac-phy — wireless physical layer
//!
//! Everything below the MAC: how much power arrives where, who can decode
//! what, and when the channel looks busy.
//!
//! * [`propagation`] — path-loss models. The paper (like ns-2's CMU
//!   wireless extensions) uses **two-ray ground** with the Lucent WaveLAN
//!   constants: 914 MHz carrier, 1.5 m antennas, decode range 250 m and
//!   carrier-sense range 550 m at the 281.8 mW maximum power.
//! * [`model`] — the closed [`PropagationModel`] enum (static dispatch on
//!   the channel hot path).
//! * [`gain`] — the block-sparse [`SparseGainCache`]: pair gains keyed by
//!   occupied spatial-index cell pairs, O(touched local pairs) memory.
//!   No product code uses it since static transmitters keep receiver
//!   rows (`pcmac-core`'s channel); the repo benchmark still times it.
//! * [`levels`] — the paper's ten discrete transmit power levels
//!   (1 mW … 281.8 mW) and quantisation of a computed "needed power" up to
//!   the next level.
//! * [`radio`] — the per-node reception state machine: cumulative
//!   interference tracking, SINR-based capture (threshold 10), half-duplex
//!   transmit/receive, carrier-sense busy/idle edge notifications.
//! * [`energy`] — a per-node radiated-energy meter (the power of the
//!   selected level times the time on the air; this is what power
//!   *saving* claims measure).
//!
//! The fidelity anchors in DESIGN.md §4 — crossover distance, the
//! level→range table, threshold values — are asserted by this crate's
//! tests.

pub mod energy;
pub mod gain;
pub mod levels;
pub mod model;
pub mod propagation;
pub mod radio;
pub mod shadowing;

pub use energy::EnergyMeter;
pub use gain::{SparseCacheStats, SparseGainCache};
pub use levels::PowerLevels;
pub use model::PropagationModel;
pub use propagation::TwoRayGround;
pub use radio::{CapturePolicy, Heard, Radio, RadioConfig, RadioEvent, RxRow};
pub use shadowing::Shadowed;
