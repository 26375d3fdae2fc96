//! # pcmac-engine — deterministic discrete-event simulation kernel
//!
//! The foundation crate of the PCMAC reproduction. It provides everything a
//! wireless network simulator needs below the domain layer:
//!
//! * [`time`] — nanosecond-resolution simulation time ([`SimTime`],
//!   [`Duration`]) with saturating/checked arithmetic.
//! * [`queue`] — a deterministic event queue ([`EventQueue`]): events with
//!   identical timestamps pop in insertion order, so runs with the same seed
//!   are bit-for-bit reproducible.
//! * [`timer`] — generation-counted timer tokens ([`TimerSlot`]) giving O(1)
//!   logical cancellation without touching the heap.
//! * [`rng`] — seedable, stream-split random number generation
//!   ([`RngStream`]) so each model component draws from an independent,
//!   reproducible sequence.
//! * [`geom`] — 2-D geometry ([`Point`], [`Vector`]) for node positions and
//!   mobility.
//! * [`grid`] — a uniform-grid spatial index ([`UniformGrid`]) answering
//!   "who is within radius r?" in O(local density) instead of O(N); the
//!   wireless channel's per-transmission neighbourhood query.
//! * [`units`] — the RF power quantity ([`Milliwatts`]) and its linear
//!   arithmetic.
//! * [`ids`] — strongly-typed identifiers ([`NodeId`], [`FlowId`], …).
//! * [`vecmap`] — a sorted-vector map ([`VecMap`]) for the small
//!   per-station tables, sized to its entries.
//!
//! The kernel is intentionally generic: the event payload type is a type
//! parameter, and the main loop lives in the `pcmac` core crate where the
//! domain event enum is defined. This keeps the kernel reusable and
//! independently testable.

pub mod geom;
pub mod grid;
pub mod ids;
pub mod queue;
pub mod rng;
pub mod snap_impls;
pub mod time;
pub mod timer;
pub mod units;
pub mod vecmap;

pub use geom::{Point, Vector};
pub use grid::UniformGrid;
pub use ids::{FlowId, NodeId, PacketId, SessionId};
pub use queue::{EventKey, EventQueue, ScheduledEvent};
pub use rng::RngStream;
pub use time::{Duration, SimTime};
pub use timer::{TimerSlot, TimerToken};
pub use units::Milliwatts;
pub use vecmap::VecMap;
