//! # dcn-sim — deterministic discrete-event network emulator
//!
//! This crate is the substrate on which the routing protocols of the paper
//! reproduction run. It replaces the FABRIC testbed used by the authors with
//! a laptop-scale emulation that preserves the properties the paper's
//! measurements depend on:
//!
//! * **Point-to-point links** with configurable propagation delay and
//!   bandwidth (serialization delay is modelled per frame, FIFO per port).
//! * **Asymmetric interface-failure visibility**: when an interface is
//!   administratively failed (the paper's `ip link set down` bash script),
//!   the *owning* node receives a carrier-down notification after a small
//!   detection latency, while the *remote* node receives nothing and must
//!   infer the failure from missing keepalives. This asymmetry is the core
//!   of the paper's TC1–TC4 test-case design.
//! * **Deterministic execution**: events carry content-derived keys
//!   (creator node, per-node counter) giving a total ordering
//!   `(time, key)` that is independent of how the queue is implemented —
//!   per-node seeded RNGs plus per-link impairment streams make every run
//!   bit-reproducible for a given seed.
//! * **Frame tracing**: every transmitted frame is recorded with its wire
//!   length and a [`FrameClass`], so the metrics crate can compute control
//!   overhead, keep-alive overhead and convergence instants exactly the way
//!   the paper's tshark/log-parsing pipeline did.
//!
//! One run executes on one thread. Multi-core use is scenario-level —
//! fanning independent runs over threads — and lives one level up in the
//! experiment harness.

#![deny(unsafe_code)]

pub mod alloc_track;
pub mod engine;
pub mod event;
pub mod grid;
pub mod hash;
pub mod link;
pub mod node;
pub mod profiler;
pub mod rng;
pub mod time;
pub mod trace;
pub mod wheel;

pub use dcn_wire::{FrameBuf, FrameMeta};
pub use engine::{Sim, SimBuilder, SimConfig, CARRIER_LATENCY};
pub use event::{scheduler_stress, Event, EventKey, SchedulerKind};
pub use grid::GridTimer;
pub use hash::{hash64, Hash64};
pub use link::{Impairment, LinkId, LinkSpec};
pub use node::{Ctx, NodeId, PortId, Protocol, StatsSnapshot};
pub use profiler::{EngineProfile, SchedulerStats};
pub use time::{Duration, Time, MICROS, MILLIS, NANOS, SECONDS};
pub use trace::{
    BgpDownReason, BgpState, FrameClass, RouteChangeKind, SpanEvent, Trace, TraceEvent,
};
