//! # dcn-telemetry — structured observability for the emulator
//!
//! The paper measured its testbed with tshark captures and router logs;
//! this crate gives the reproduction the equivalent instruments, built on
//! three pillars:
//!
//! 1. **A typed metrics registry** ([`Registry`]): named counter/gauge
//!    series scoped per node, per link or fabric-wide, sampled on a
//!    configurable simulated-time cadence by [`run_sampled`] into
//!    fixed-capacity [`RingBuffer`]s. Routers expose their state through
//!    the [`dcn_sim::StatsSnapshot`] trait — RIB/VID-table sizes, session
//!    FSM states, retransmit queues, malformed-frame drops — without the
//!    harness downcasting per protocol stack.
//! 2. **Structured span analysis**: the routers emit typed
//!    [`dcn_sim::SpanEvent`]s (FSM transitions, detection verdicts, flood
//!    waves, hold-down windows); `dcn_metrics::storyboard` reconstructs a
//!    per-failure convergence storyboard from them, and [`spans_jsonl`]
//!    exports them for offline tooling.
//! 3. **Exporters** ([`export`]): JSONL series/span dumps, tshark-style
//!    per-interface captures and self-contained [`TraceBundle`]s — the
//!    artifact a chaos-campaign invariant violation leaves on disk for
//!    replay.
//!
//! ## Determinism contract
//!
//! Telemetry is attach-only: sampling steps the engine with
//! `Sim::run_until` and *reads* state between event batches, so an
//! instrumented run processes the identical event sequence as a bare run
//! and per-seed determinism digests are unchanged. When no telemetry is
//! requested nothing here runs at all — zero cost when disabled.

pub mod export;
pub mod hist;
pub mod json;
pub mod perf;
pub mod registry;
pub mod ring;
pub mod sampler;

pub use export::{capture_dump, hists_jsonl, series_jsonl, spans_jsonl, TraceBundle};
pub use perf::{host_cores, PerfReport};
pub use hist::Histogram;
pub use json::Json;
pub use registry::{Registry, Scope, Series, SeriesKind};
pub use ring::RingBuffer;
pub use sampler::{run_sampled, Telemetry, TelemetryConfig};
