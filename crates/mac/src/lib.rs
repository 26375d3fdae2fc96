//! # pcmac-mac — IEEE 802.11 DCF with power control, and PCMAC
//!
//! The medium access layer of the reproduction. One DCF engine
//! ([`DcfMac`]) implements all four protocols compared in the paper's
//! evaluation:
//!
//! | Variant | RTS/CTS | DATA/ACK | Extras |
//! |---|---|---|---|
//! | [`Variant::Basic`]   | max power | max power | — |
//! | [`Variant::Scheme1`] | max power | needed power | power history table |
//! | [`Variant::Scheme2`] | needed | needed | power history table |
//! | [`Variant::Pcmac`]   | needed | needed, **no ACK** | control channel, 3-way handshake, tolerance checks, RTS ladder, noise-sized CTS / DATA |
//!
//! The table is one `match` in [`PowerControl::level`]; the engine asks
//! it through a single private `tx_power(kind, peer, now)` and never
//! matches on the variant itself.
//!
//! Modules:
//!
//! * [`timing`] — DSSS slot/SIFS/DIFS/EIFS and frame airtimes.
//! * [`frame`] — RTS/CTS/DATA/ACK frames and the PCMAC control-channel
//!   frame (48 bits).
//! * [`nav`] — virtual carrier sense.
//! * [`backoff`] — binary exponential backoff with freeze/resume.
//! * [`power`] — a station's [`PowerControl`]: the needed-power history
//!   table, the §IV table over it, PCMAC's RTS ladder (§III step 2) and
//!   its noise-sized responses (§III step 3).
//! * [`pcmac`] — noise tolerances, protected-receiver registry, and the
//!   sent/received tables of the three-way handshake.
//! * [`dcf`] — the full state machine; it tells its `PowerControl`
//!   what happened, asks it for levels, and reads the variant through one
//!   predicate, whether the PCMAC machinery is live.
//! * [`config`], [`counters`] — knobs and statistics.

pub mod backoff;
pub mod config;
pub mod counters;
pub mod dcf;
pub mod frame;
pub mod nav;
pub mod pcmac;
pub mod power;
pub mod timing;

pub use config::{MacConfig, PcmacParams, Variant};
pub use counters::MacCounters;
pub use dcf::{DcfMac, MacAction, MacTimerKind};
pub use frame::{CtrlFrame, Frame, FrameBody, FrameKind};
pub use power::PowerControl;
pub use timing::Dot11Timing;
