//! The sim-driven sampler: steps the engine to each sample instant and
//! reads router/engine state into the registry.
//!
//! Sampling is scheduled through simulated time (`Sim::run_until`), never
//! wall-clock, and only *reads* state between event batches. The engine
//! processes exactly the same events in exactly the same order as an
//! uninstrumented run, so enabling telemetry cannot perturb a seed's
//! determinism digest.

use dcn_sim::time::{millis, Duration, Time};
use dcn_sim::{FrameClass, NodeId, PortId, Sim, TraceEvent};

use crate::hist::Histogram;
use crate::registry::{Registry, Scope, SeriesKind};

/// Stable per-class series name for the fabric-wide frame counters.
pub(crate) fn frames_series_name(class: FrameClass) -> &'static str {
    match class {
        FrameClass::Keepalive => "frames_keepalive",
        FrameClass::Update => "frames_update",
        FrameClass::Session => "frames_session",
        FrameClass::Ack => "frames_ack",
        FrameClass::Data => "frames_data",
    }
}

fn class_idx(class: FrameClass) -> usize {
    FrameClass::ALL.iter().position(|&c| c == class).expect("class listed in ALL")
}

/// Sampling cadence and retention.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Simulated time between samples.
    pub interval: Duration,
    /// Per-series ring capacity (oldest samples drop beyond this).
    pub capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        // 10 ms resolves the paper's fastest dynamics (50 ms hellos,
        // 100 ms BFD) without drowning a multi-second run in samples.
        TelemetryConfig { interval: millis(10), capacity: 4096 }
    }
}

/// A telemetry session: config + registry + frame-size histograms +
/// sample bookkeeping.
#[derive(Clone, Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    registry: Registry,
    samples_taken: u64,
    /// Per-[`FrameClass`] wire-length distributions, fabric-wide; indexed
    /// as [`FrameClass::ALL`]. Power-of-two buckets up to 2048 B cover
    /// every emulated frame size.
    frame_size: [Histogram; FrameClass::ALL.len()],
    /// How many trace events have already been folded into the
    /// histograms (the trace is append-only during a sampled run).
    trace_cursor: usize,
}

impl Telemetry {
    pub fn new(cfg: TelemetryConfig) -> Telemetry {
        Telemetry {
            cfg,
            registry: Registry::new(cfg.capacity),
            samples_taken: 0,
            frame_size: std::array::from_fn(|_| Histogram::exponential(12)),
            trace_cursor: 0,
        }
    }

    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Every per-class wire-length histogram, in [`FrameClass::ALL`]
    /// order.
    pub fn frame_size_hists(&self) -> impl Iterator<Item = (FrameClass, &Histogram)> {
        FrameClass::ALL.iter().map(move |&c| (c, &self.frame_size[class_idx(c)]))
    }

    /// Read the current state of `sim` into the registry as one sample.
    pub fn sample(&mut self, sim: &Sim) {
        let now = sim.now();

        // Fold newly traced frames into the per-class histograms first,
        // so the per-class counter series below reflect this instant.
        let events = sim.trace().events();
        for ev in &events[self.trace_cursor.min(events.len())..] {
            if let TraceEvent::FrameSent { class, wire_len, .. } = ev {
                self.frame_size[class_idx(*class)].record(*wire_len as u64);
            }
        }
        self.trace_cursor = events.len();

        let reg = &mut self.registry;
        for (i, &class) in FrameClass::ALL.iter().enumerate() {
            reg.record(
                Scope::Global,
                frames_series_name(class),
                SeriesKind::Counter,
                now,
                self.frame_size[i].total(),
            );
        }

        // Engine-wide counters.
        reg.record(Scope::Global, "events_processed", SeriesKind::Counter, now, sim.events_processed());
        reg.record(Scope::Global, "frames_delivered", SeriesKind::Counter, now, sim.frames_delivered());
        reg.record(Scope::Global, "frames_lost_to_impairment", SeriesKind::Counter, now, sim.frames_lost_to_impairment());
        reg.record(Scope::Global, "frames_corrupted", SeriesKind::Counter, now, sim.frames_corrupted());
        reg.record(Scope::Global, "trace_events", SeriesKind::Gauge, now, sim.trace().events().len() as u64);

        // Per-node counters and gauges via the uniform StatsSnapshot
        // surface (None for plain traffic hosts).
        let mut link_endpoints_up: Vec<u32> = vec![0; sim.link_count()];
        for i in 0..sim.node_count() as u32 {
            let node = NodeId(i);
            let mut ports_up = 0u64;
            for p in 0..sim.port_count(node) as u16 {
                let port = PortId(p);
                let up = sim.port_up(node, port);
                ports_up += up as u64;
                if let Some(lid) = sim.link_at(node, port) {
                    link_endpoints_up[lid.index()] += up as u32;
                }
            }
            reg.record(Scope::Node(i), "ports_up", SeriesKind::Gauge, now, ports_up);
            if let Some(ss) = sim.stats_snapshot_of(node) {
                for (name, v) in ss.counters() {
                    reg.record(Scope::Node(i), name, SeriesKind::Counter, now, v);
                }
                for (name, v) in ss.gauges() {
                    reg.record(Scope::Node(i), name, SeriesKind::Gauge, now, v);
                }
            }
        }

        // Per-link carrier state: 2 = both endpoints up, 0 = both down.
        for (l, &ups) in link_endpoints_up.iter().enumerate() {
            reg.record(Scope::Link(l as u32), "endpoints_up", SeriesKind::Gauge, now, ups as u64);
        }

        self.samples_taken += 1;
    }
}

/// Run `sim` to `until`, sampling `tel` every `tel.config().interval`
/// of simulated time (plus a final sample at `until`).
pub fn run_sampled(sim: &mut Sim, until: Time, tel: &mut Telemetry) {
    let interval = tel.cfg.interval.max(1);
    loop {
        let now = sim.now();
        if now >= until {
            break;
        }
        let target = (now + interval).min(until);
        sim.run_until(target);
        tel.sample(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::time::MILLIS;
    use dcn_sim::{Ctx, LinkSpec, Protocol, SimBuilder, StatsSnapshot};

    /// A protocol that ticks every ms, counting ticks and sending one
    /// 64-byte keepalive per tick.
    struct Ticker {
        ticks: u64,
    }

    impl StatsSnapshot for Ticker {
        fn counters(&self) -> Vec<(&'static str, u64)> {
            vec![("ticks", self.ticks)]
        }

        fn gauges(&self) -> Vec<(&'static str, u64)> {
            vec![("ticks_mod_3", self.ticks % 3)]
        }
    }

    impl Protocol for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(MILLIS, 0);
        }
        fn on_frame(&mut self, _: &mut Ctx<'_>, _: dcn_sim::PortId, _: &dcn_sim::FrameBuf) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
            self.ticks += 1;
            ctx.send(dcn_sim::PortId(0), vec![0u8; 64], FrameClass::Keepalive);
            ctx.set_timer(MILLIS, 0);
        }
        fn stats_snapshot(&self) -> Option<&dyn StatsSnapshot> {
            Some(self)
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn two_node_sim() -> Sim {
        let mut b = SimBuilder::new(7);
        let a = b.add_node("a", Box::new(Ticker { ticks: 0 }));
        let c = b.add_node("b", Box::new(Ticker { ticks: 0 }));
        b.add_link(a, c, LinkSpec::default());
        b.build()
    }

    #[test]
    fn sampling_collects_node_and_link_series() {
        let mut sim = two_node_sim();
        let mut tel = Telemetry::new(TelemetryConfig { interval: millis(10), capacity: 64 });
        run_sampled(&mut sim, millis(100), &mut tel);
        assert_eq!(tel.samples_taken(), 10);
        assert_eq!(sim.now(), millis(100));

        let ticks = tel.registry().get(Scope::Node(0), "ticks").unwrap();
        assert_eq!(ticks.len(), 10);
        let (t_last, v_last) = ticks.last().unwrap();
        assert_eq!(t_last, millis(100));
        assert_eq!(v_last, 100, "one tick per ms");
        assert_eq!(ticks.kind, SeriesKind::Counter);

        let link = tel.registry().get(Scope::Link(0), "endpoints_up").unwrap();
        assert_eq!(link.last().unwrap().1, 2, "both endpoints up");
        let ports = tel.registry().get(Scope::Node(1), "ports_up").unwrap();
        assert_eq!(ports.last().unwrap().1, 1);
    }

    #[test]
    fn sampling_is_read_only_for_the_event_stream() {
        // Same seed, run once plain and once sampled: the protocols must
        // process identical event sequences.
        let mut plain = two_node_sim();
        plain.run_until(millis(100));
        let plain_events = plain.events_processed();

        let mut sampled = two_node_sim();
        let mut tel = Telemetry::new(TelemetryConfig { interval: millis(7), capacity: 8 });
        run_sampled(&mut sampled, millis(100), &mut tel);
        assert_eq!(sampled.events_processed(), plain_events);
        assert_eq!(
            format!("{:?}", plain.trace().events()),
            format!("{:?}", sampled.trace().events()),
        );
    }

    #[test]
    fn frame_histograms_and_class_counters_track_the_trace() {
        let mut sim = two_node_sim();
        let mut tel = Telemetry::new(TelemetryConfig { interval: millis(10), capacity: 64 });
        run_sampled(&mut sim, millis(100), &mut tel);

        // 100 ticks per node, one 64-byte keepalive each.
        for (class, h) in tel.frame_size_hists() {
            if class == FrameClass::Keepalive {
                assert_eq!(h.total(), 200);
                assert_eq!(h.mean(), 64.0);
                assert_eq!(h.quantile_bound(0.99), Some(64), "64 B lands on the 2^6 bound");
            } else {
                assert_eq!(h.total(), 0, "{class:?}");
            }
        }

        // The per-class counter series is cumulative and monotone.
        let s = tel.registry().get(Scope::Global, "frames_keepalive").unwrap();
        let samples: Vec<(Time, u64)> = s.samples().collect();
        assert_eq!(samples.last().unwrap().1, 200);
        assert!(samples.windows(2).all(|w| w[0].1 <= w[1].1));

        // JSONL export round-trips the buckets.
        let text = crate::export::hists_jsonl(&tel);
        let line = text.lines().find(|l| l.contains("keepalive")).unwrap();
        let j = crate::json::Json::parse(line).unwrap();
        assert_eq!(j.get("total").unwrap().as_u64(), Some(200));
        assert_eq!(j.get("sum_bytes").unwrap().as_u64(), Some(200 * 64));
        let buckets = j.get("buckets").unwrap().as_arr().unwrap();
        let full: Vec<&crate::json::Json> = buckets
            .iter()
            .filter(|b| b.as_arr().unwrap()[1].as_u64() != Some(0))
            .collect();
        assert_eq!(full.len(), 1, "all frames in the 64 B bucket");
        assert_eq!(full[0].as_arr().unwrap()[0].as_u64(), Some(64));
    }

    #[test]
    fn final_partial_interval_still_sampled() {
        let mut sim = two_node_sim();
        let mut tel = Telemetry::new(TelemetryConfig { interval: millis(30), capacity: 8 });
        run_sampled(&mut sim, millis(100), &mut tel);
        // Samples at 30, 60, 90, 100 ms.
        assert_eq!(tel.samples_taken(), 4);
        let s = tel.registry().get(Scope::Global, "events_processed").unwrap();
        assert_eq!(s.samples().last().unwrap().0, millis(100));
    }
}
