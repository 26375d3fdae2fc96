//! # pcmac-traffic — workload generation and measurement
//!
//! The paper's workload: 10 constant-bit-rate (CBR) flows over UDP with
//! 512-byte packets, scaled from 300 to 1000 kbps of aggregate offered
//! load. [`Source::cbr`] reproduces it exactly; [`Source::poisson`] and
//! [`Source::on_off`] are extensions used by robustness tests (bursty
//! arrivals stress the MAC differently than a metronome). All three are
//! one concrete [`Source`] type that keeps its arrival process as data,
//! so the simulator stores and steps every flow the same way.
//!
//! [`Sink`] is the measuring end: per-flow delivered packets/bytes and
//! end-to-end delay statistics — the two metrics of Figures 8 and 9.

pub mod sink;
pub mod source;

pub use sink::{FlowStats, Sink};
pub use source::Source;
