//! Exporters: JSONL span/series dumps, per-interface frame captures, and
//! self-contained trace bundles (the artifact a chaos invariant violation
//! leaves behind).

use std::io;
use std::path::{Path, PathBuf};

use dcn_sim::time::Time;
use dcn_sim::{NodeId, RouteChangeKind, Sim, SpanEvent, Trace, TraceEvent};

use crate::json::Json;
use crate::registry::Registry;
use crate::sampler::Telemetry;

fn span_fields(span: &SpanEvent) -> Vec<(&'static str, Json)> {
    match span {
        SpanEvent::BgpFsm { port, from, to } => vec![
            ("port", Json::UInt(port.0 as u64)),
            ("from", Json::str(from.name())),
            ("to", Json::str(to.name())),
        ],
        SpanEvent::BgpSessionDown { port, reason } => vec![
            ("port", Json::UInt(port.0 as u64)),
            ("reason", Json::str(reason.name())),
            ("carrier", Json::Bool(reason.detection() == Some(true))),
        ],
        SpanEvent::BgpUpdateBatch { peers, prefixes } => vec![
            ("peers", Json::UInt(*peers as u64)),
            ("prefixes", Json::UInt(*prefixes as u64)),
        ],
        SpanEvent::NeighborDown { port, carrier } => vec![
            ("port", Json::UInt(port.0 as u64)),
            ("carrier", Json::Bool(*carrier)),
        ],
        SpanEvent::NeighborUp { port } => vec![("port", Json::UInt(port.0 as u64))],
        SpanEvent::VidInstall { root, port } | SpanEvent::VidRemove { root, port } => vec![
            ("root", Json::UInt(*root as u64)),
            ("port", Json::UInt(port.0 as u64)),
        ],
        SpanEvent::LossFlood { roots, fanout, lost } => vec![
            ("roots", Json::UInt(*roots as u64)),
            ("fanout", Json::UInt(*fanout as u64)),
            ("lost", Json::Bool(*lost)),
        ],
        SpanEvent::HolddownArm => vec![],
        SpanEvent::HolddownResolve { negatives, totals } => vec![
            ("negatives", Json::UInt(*negatives as u64)),
            ("totals", Json::UInt(*totals as u64)),
        ],
        SpanEvent::UpperLossTotal { root } => vec![("root", Json::UInt(*root as u64))],
        SpanEvent::LocalRepair { port } => vec![("port", Json::UInt(port.0 as u64))],
    }
}

/// All non-frame trace events as JSONL, one event per line: spans,
/// routing changes and port up/down injections.
/// `name_of` maps node ids to router names.
pub fn spans_jsonl(trace: &Trace, name_of: impl Fn(NodeId) -> String) -> String {
    let mut out = String::new();
    for ev in trace.events() {
        let mut fields: Vec<(&str, Json)> = vec![
            ("t", Json::UInt(ev.time())),
            ("node", Json::str(name_of(ev.node()))),
        ];
        match ev {
            TraceEvent::FrameSent { .. } => continue, // captures cover frames
            TraceEvent::Span { span, .. } => {
                fields.push(("type", Json::str("span")));
                fields.push(("kind", Json::str(span.kind())));
                if let Some(carrier) = span.detection() {
                    fields.push(("detection", Json::str(if carrier { "carrier" } else { "timeout" })));
                }
                fields.extend(span_fields(span));
            }
            TraceEvent::PortDown { port, .. } => {
                fields.push(("type", Json::str("port_down")));
                fields.push(("port", Json::UInt(port.0 as u64)));
            }
            TraceEvent::PortUp { port, .. } => {
                fields.push(("type", Json::str("port_up")));
                fields.push(("port", Json::UInt(port.0 as u64)));
            }
            TraceEvent::RouteChange { kind, detail, .. } => {
                fields.push(("type", Json::str("route_change")));
                fields.push((
                    "kind",
                    Json::str(match kind {
                        RouteChangeKind::Withdraw => "withdraw",
                        RouteChangeKind::Install => "install",
                    }),
                ));
                fields.push(("detail", Json::UInt(*detail)));
            }
        }
        out.push_str(&Json::obj(fields).render());
        out.push('\n');
    }
    out
}

/// Every registered time series as JSONL, one series per line with its
/// retained `[time_ns, value]` samples.
pub fn series_jsonl(reg: &Registry, name_of_node: impl Fn(u32) -> String) -> String {
    let mut out = String::new();
    for s in reg.series() {
        let mut fields: Vec<(&str, Json)> = vec![
            ("scope", Json::str(s.scope.tag())),
            ("id", Json::UInt(s.scope.id() as u64)),
        ];
        if let crate::registry::Scope::Node(i) = s.scope {
            fields.push(("node", Json::str(name_of_node(i))));
        }
        fields.push(("name", Json::str(s.name)));
        fields.push(("kind", Json::str(s.kind.tag())));
        fields.push(("dropped", Json::UInt(s.dropped())));
        fields.push((
            "samples",
            Json::Arr(
                s.samples()
                    .map(|(t, v)| Json::Arr(vec![Json::UInt(t), Json::UInt(v)]))
                    .collect(),
            ),
        ));
        out.push_str(&Json::obj(fields).render());
        out.push('\n');
    }
    out
}

/// The per-[`dcn_sim::FrameClass`] wire-length histograms as JSONL, one
/// class per line with its `[upper_bound, count]` buckets (the overflow
/// bucket reports `u64::MAX` as its bound).
pub fn hists_jsonl(tel: &Telemetry) -> String {
    let mut out = String::new();
    for (class, h) in tel.frame_size_hists() {
        let fields: Vec<(&str, Json)> = vec![
            ("class", Json::str(class.name())),
            ("total", Json::UInt(h.total())),
            ("sum_bytes", Json::UInt(h.sum())),
            ("max", Json::UInt(h.max())),
            (
                "buckets",
                Json::Arr(
                    h.buckets()
                        .map(|(b, c)| Json::Arr(vec![Json::UInt(b), Json::UInt(c)]))
                        .collect(),
                ),
            ),
        ];
        out.push_str(&Json::obj(fields).render());
        out.push('\n');
    }
    out
}

/// tshark-style capture of every interface that transmitted in
/// `[t0, t1)`, concatenated with per-interface headers — the bundle's
/// pcap analog.
pub fn capture_dump(sim: &Sim, t0: Time, t1: Time, max_lines_per_port: usize) -> String {
    let mut out = String::new();
    for i in 0..sim.node_count() as u32 {
        let node = NodeId(i);
        for p in 0..sim.port_count(node) as u16 {
            let port = dcn_sim::PortId(p);
            let text = dcn_metrics::capture_text(sim.trace(), node, port, t0, t1, max_lines_per_port);
            if text.is_empty() {
                continue;
            }
            out.push_str(&format!("== {} {} ==\n", sim.node_name(node), port));
            out.push_str(&text);
        }
    }
    out
}

/// A self-contained dump of one instrumented run: a `meta.json` plus any
/// number of named text files, written together into one directory.
#[derive(Clone, Debug)]
pub struct TraceBundle {
    meta: Json,
    files: Vec<(String, String)>,
}

impl TraceBundle {
    pub fn new(meta: Json) -> TraceBundle {
        TraceBundle { meta, files: Vec::new() }
    }

    pub fn add_file(&mut self, name: impl Into<String>, contents: impl Into<String>) {
        self.files.push((name.into(), contents.into()));
    }

    pub fn meta(&self) -> &Json {
        &self.meta
    }

    pub fn files(&self) -> &[(String, String)] {
        &self.files
    }

    /// Write `meta.json` and every file into `dir` (created if needed).
    /// Returns the paths written.
    pub fn write(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let meta_path = dir.join("meta.json");
        std::fs::write(&meta_path, self.meta.render() + "\n")?;
        written.push(meta_path);
        for (name, contents) in &self.files {
            let path = dir.join(name);
            std::fs::write(&path, contents)?;
            written.push(path);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Scope, SeriesKind};
    use dcn_sim::{BgpState, PortId};

    fn toy_trace() -> Trace {
        let mut tr = Trace::enabled();
        tr.push(TraceEvent::PortDown { time: 5, node: NodeId(0), port: PortId(1) });
        tr.push(TraceEvent::Span {
            time: 6,
            node: NodeId(0),
            span: SpanEvent::NeighborDown { port: PortId(1), carrier: true },
        });
        tr.push(TraceEvent::Span {
            time: 7,
            node: NodeId(1),
            span: SpanEvent::BgpFsm {
                port: PortId(0),
                from: BgpState::OpenSent,
                to: BgpState::Established,
            },
        });
        tr.push(TraceEvent::RouteChange {
            time: 8,
            node: NodeId(1),
            kind: RouteChangeKind::Withdraw,
            detail: 11,
        });
        tr
    }

    #[test]
    fn spans_jsonl_round_trips_through_the_parser() {
        let text = spans_jsonl(&toy_trace(), |n| format!("n{}", n.0));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("type").unwrap().as_str(), Some("port_down"));
        assert_eq!(first.get("t").unwrap().as_u64(), Some(5));
        let det = Json::parse(lines[1]).unwrap();
        assert_eq!(det.get("kind").unwrap().as_str(), Some("neighbor_down"));
        assert_eq!(det.get("detection").unwrap().as_str(), Some("carrier"));
        assert_eq!(det.get("carrier").unwrap().as_bool(), Some(true));
        let fsm = Json::parse(lines[2]).unwrap();
        assert_eq!(fsm.get("to").unwrap().as_str(), Some("established"));
        assert_eq!(fsm.get("detection"), None, "FSM moves are not detections");
        for line in lines {
            Json::parse(line).expect("every line is valid JSON");
        }
    }

    #[test]
    fn series_jsonl_round_trips_samples_exactly() {
        let mut reg = Registry::new(16);
        let big = u64::MAX - 7;
        reg.record(Scope::Node(3), "rib_routes", SeriesKind::Gauge, 1_000_000, 42);
        reg.record(Scope::Node(3), "rib_routes", SeriesKind::Gauge, 2_000_000, big);
        reg.record(Scope::Global, "events_processed", SeriesKind::Counter, 2_000_000, 9);
        let text = series_jsonl(&reg, |i| format!("node{i}"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        // Parse back and compare against the registry.
        let parsed = Json::parse(lines[1]).unwrap();
        assert_eq!(parsed.get("scope").unwrap().as_str(), Some("node"));
        assert_eq!(parsed.get("node").unwrap().as_str(), Some("node3"));
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("gauge"));
        let samples = parsed.get("samples").unwrap().as_arr().unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].as_arr().unwrap()[0].as_u64(), Some(2_000_000));
        assert_eq!(samples[1].as_arr().unwrap()[1].as_u64(), Some(big), "u64 exact");
    }

    #[test]
    fn bundle_writes_meta_and_files() {
        let mut b = TraceBundle::new(Json::obj(vec![
            ("seed", Json::UInt(7)),
            ("stack", Json::str("mrmtp")),
        ]));
        b.add_file("spans.jsonl", "{}\n");
        b.add_file("series.jsonl", "");
        let dir = std::env::temp_dir().join(format!("dcn-bundle-test-{}", std::process::id()));
        let written = b.write(&dir).unwrap();
        assert_eq!(written.len(), 3);
        let meta = std::fs::read_to_string(dir.join("meta.json")).unwrap();
        let parsed = Json::parse(meta.trim()).unwrap();
        assert_eq!(parsed.get("seed").unwrap().as_u64(), Some(7));
        assert!(dir.join("spans.jsonl").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
