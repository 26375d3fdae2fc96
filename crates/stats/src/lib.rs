//! # pcmac-stats — metric collection primitives
//!
//! Small, dependency-light building blocks the simulation core and the
//! campaign subsystem assemble their reports from:
//!
//! * [`OnlineStats`] — Welford single-pass mean/variance/min/max.
//! * [`Histogram`] — fixed-width buckets with percentile queries (delay
//!   distributions).
//! * [`StreamingQuantile`] — constant-memory latency population summary
//!   (exact up to a cap, power-of-two buckets beyond, merge-order
//!   independent).
//! * [`Series`] — named (x, y) curves with CSV emission, the shape of the
//!   paper's figures.
//! * [`Table`] — aligned text tables for harness stdout.

pub mod histogram;
pub mod online;
pub mod plot;
pub mod quantile;
pub mod series;
pub mod table;

pub use histogram::Histogram;
pub use online::OnlineStats;
pub use plot::ascii_plot;
pub use quantile::StreamingQuantile;
pub use series::Series;
pub use table::Table;
