//! # dcn-telemetry — structured observability for the emulator
//!
//! The paper measured its testbed with tshark captures and router logs;
//! this crate gives the reproduction the equivalent instruments. All of
//! them read the finished run — its append-only trace and the routers'
//! end-of-run [`dcn_sim::StatsSnapshot`] — so observing a run cannot
//! change it. Two pillars:
//!
//! 1. **Structured span analysis**: the routers emit typed
//!    [`dcn_sim::SpanEvent`]s (FSM transitions, detection verdicts, flood
//!    waves, hold-down windows); `dcn_metrics::storyboard` reconstructs a
//!    per-failure convergence storyboard from them, and [`spans_jsonl`]
//!    exports them for offline tooling.
//! 2. **Exporters** ([`export`]): JSONL span dumps, per-class frame-size
//!    [`Histogram`]s folded from the trace ([`frame_size_hists`]),
//!    tshark-style per-interface captures and self-contained
//!    [`TraceBundle`]s — the artifact a chaos-campaign invariant violation
//!    leaves on disk for replay.

pub mod export;
pub mod hist;
pub mod json;
pub mod perf;

pub use export::{capture_dump, frame_size_hists, hists_jsonl, spans_jsonl, TraceBundle};
pub use perf::{host_cores, PerfReport};
pub use hist::Histogram;
pub use json::Json;
