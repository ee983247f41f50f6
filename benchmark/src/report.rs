//! Metric names, units and the result a run prints.
//!
//! `BENCHMARK.json` at the repository root fixes the same names with their
//! bounds; a unit test keeps the two lists identical.

use crate::sut::Json;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher: true,
    }
}

/// What a user of the emulator pays: host time per experiment, host time
/// per forwarded packet, memory, and the time before the first result.
pub const END_TO_END: [MetricDef; 4] = [
    higher("runs_per_s", "1/s"),
    higher("pkts_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// One entry per layer quantity, layer = crate. Metrics from the workload's
/// own rounds come first, then the fixed probes.
pub const PER_LAYER: [MetricDef; 56] = [
    lower("sim.ns_per_event", "ns"),
    higher("sim.events_per_s", "1/s"),
    lower("sim.events_per_round", "count"),
    lower("sim.trace_events_per_round", "count"),
    lower("alloc.allocs_per_event", "count"),
    lower("alloc.bytes_per_event", "B"),
    higher("experiments.pool_efficiency", "ratio"),
    lower("harness.ops_per_round", "count"),
    lower("harness.pkts_per_round", "count"),
    lower("harness.calib_ns", "ns"),
    lower("harness.round_iqr_pct", "%"),
    lower("harness.trace_overhead_pct", "%"),
    lower("harness.unattributed_pct", "%"),
    lower("topology.build_us", "us"),
    lower("experiments.sim_build_us", "us"),
    lower("sim.teardown_us", "us"),
    lower("sim.trace_event_bytes", "B"),
    lower("sim.floor_ns_per_event", "ns"),
    lower("sim.trace_ns_per_event", "ns"),
    lower("sim.impair_ns_per_frame", "ns"),
    lower("sim.sched_wheel_ns_per_op_2k", "ns"),
    lower("sim.sched_heap_ns_per_op_2k", "ns"),
    lower("sim.sched_wheel_ns_per_op_256k", "ns"),
    lower("sim.sched_heap_ns_per_op_256k", "ns"),
    lower("mrmtp.ns_per_event", "ns"),
    lower("bgp.ns_per_event", "ns"),
    lower("bgpbfd.ns_per_event", "ns"),
    lower("mrmtp.fib_lookup_ns", "ns"),
    lower("bgp.fib_lookup_ns", "ns"),
    lower("traffic.ingest_ns", "ns"),
    higher("mrmtp.pkts_per_s_100", "1/s"),
    higher("mrmtp.pkts_per_s_1400", "1/s"),
    higher("bgp.pkts_per_s_100", "1/s"),
    higher("bgp.pkts_per_s_1400", "1/s"),
    lower("mrmtp.allocs_per_pkt", "count"),
    lower("bgp.allocs_per_pkt", "count"),
    lower("mrmtp.fib_rebuild_us", "us"),
    lower("bgp.fib_rebuild_us", "us"),
    lower("mrmtp.vid_update_ns", "ns"),
    lower("bgp.rib_update_ns", "ns"),
    lower("wire.bgp_update_encode_ns", "ns"),
    lower("wire.bgp_update_decode_ns", "ns"),
    lower("wire.mrmtp_decode_ns", "ns"),
    lower("wire.ipv4_decode_ns", "ns"),
    lower("wire.flow_hash_ns", "ns"),
    lower("metrics.extract_us", "us"),
    lower("metrics.storyboard_us", "us"),
    lower("experiments.digest_us", "us"),
    lower("experiments.digest_ns_per_trace_event", "ns"),
    lower("experiments.pool_dispatch_us", "us"),
    lower("experiments.store_append_us", "us"),
    lower("experiments.store_read_us", "us"),
    lower("experiments.store_bytes_per_record", "B"),
    lower("experiments.diff_ms", "ms"),
    lower("telemetry.sampling_overhead_pct", "%"),
    lower("telemetry.export_us", "us"),
];

/// Per-layer metrics that must read the same on every run of one commit
/// with one seed.
pub const EXACT: [&str; 10] = [
    "sim.events_per_round",
    "sim.trace_events_per_round",
    "sim.trace_event_bytes",
    "mrmtp.allocs_per_pkt",
    "bgp.allocs_per_pkt",
    "experiments.store_bytes_per_record",
    "alloc.allocs_per_event",
    "alloc.bytes_per_event",
    "harness.ops_per_round",
    "harness.pkts_per_round",
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// Provenance at the head of every result.
#[derive(Clone, Debug, PartialEq)]
pub struct Header {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub cores: u64,
    pub threads: u64,
    pub git: String,
    pub setups: u64,
    pub rounds_timed: u64,
    pub rounds_traced: u64,
    /// Median of the host-speed kernel and spread of the timed rounds'
    /// rates: how quiet the host was while this result was taken.
    pub calib_ns: f64,
    pub round_iqr_pct: f64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub header: Header,
    pub attempted: u64,
    pub failed: u64,
    /// Named measurements in table order.
    pub metrics: Vec<(String, f64)>,
    /// Simulated statistics of one round, as exact counts.
    pub exact: Vec<(String, u64)>,
    /// `runs_per_s` of every timed round, in order.
    pub round_rates: Vec<f64>,
}

impl RunResult {
    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value)| {
                    let unit = unit_of(name).expect("every emitted metric is in the tables");
                    (
                        name.clone(),
                        Json::obj(vec![
                            ("value", Json::Float(*value)),
                            ("unit", Json::str(unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The contract's last line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", self.metrics_json()),
        ])
    }

    /// One line of a result file: the header first, then the contract
    /// object's fields and the exact counts.
    pub fn file_json(&self) -> Json {
        let h = &self.header;
        let header = Json::obj(vec![
            ("workload", Json::str(h.workload.as_str())),
            ("seed", Json::UInt(h.seed)),
            ("seconds", Json::UInt(h.seconds)),
            ("trace", Json::Bool(h.trace)),
            ("cores", Json::UInt(h.cores)),
            ("threads", Json::UInt(h.threads)),
            ("git", Json::str(h.git.as_str())),
            ("setups", Json::UInt(h.setups)),
            ("rounds_timed", Json::UInt(h.rounds_timed)),
            ("rounds_traced", Json::UInt(h.rounds_traced)),
            ("calib_ns", Json::Float(h.calib_ns)),
            ("round_iqr_pct", Json::Float(h.round_iqr_pct)),
        ]);
        let exact = Json::Obj(
            self.exact
                .iter()
                .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                .collect(),
        );
        Json::obj(vec![
            ("header", header),
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", self.metrics_json()),
            ("exact", exact),
            (
                "round_rates",
                Json::Arr(self.round_rates.iter().map(|r| Json::Float(*r)).collect()),
            ),
        ])
    }

    pub fn from_file_json(doc: &Json) -> Result<RunResult, String> {
        let h = doc.get("header").ok_or("result line has no header")?;
        let hs = |k: &str| {
            h.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("header misses {k}"))
        };
        let hu = |k: &str| {
            h.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("header misses {k}"))
        };
        let hb = |k: &str| {
            h.get(k)
                .and_then(Json::as_bool)
                .ok_or(format!("header misses {k}"))
        };
        let hf = |k: &str| {
            h.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("header misses {k}"))
        };
        let header = Header {
            workload: hs("workload")?,
            seed: hu("seed")?,
            seconds: hu("seconds")?,
            trace: hb("trace")?,
            cores: hu("cores")?,
            threads: hu("threads")?,
            git: hs("git")?,
            setups: hu("setups")?,
            rounds_timed: hu("rounds_timed")?,
            rounds_traced: hu("rounds_traced")?,
            calib_ns: hf("calib_ns")?,
            round_iqr_pct: hf("round_iqr_pct")?,
        };
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err("result line has no metrics".into());
        };
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or(format!("metric {name} has no value"))
            })
            .collect::<Result<_, _>>()?;
        let exact = match doc.get("exact") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|v| (k.clone(), v))
                        .ok_or(format!("exact count {k} is not a count"))
                })
                .collect::<Result<_, _>>()?,
            _ => Vec::new(),
        };
        Ok(RunResult {
            header,
            attempted: doc
                .get("attempted")
                .and_then(Json::as_u64)
                .ok_or("result line misses attempted")?,
            failed: doc
                .get("failed")
                .and_then(Json::as_u64)
                .ok_or("result line misses failed")?,
            metrics,
            exact,
            round_rates: doc
                .get("round_rates")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default(),
        })
    }

    /// Every metric by name with its unit, one per line.
    pub fn human(&self) -> String {
        let h = &self.header;
        let mut out = format!(
            "# workload={} seed={} seconds={} trace={} cores={} threads={} git={} setups={} rounds_timed={} rounds_traced={} calib_ns={} round_iqr_pct={:.2}\n",
            h.workload, h.seed, h.seconds, h.trace as u8, h.cores, h.threads, h.git, h.setups, h.rounds_timed, h.rounds_traced, h.calib_ns, h.round_iqr_pct,
        );
        out.push_str(&format!(
            "ops={} ops_failed={}\n",
            self.attempted, self.failed
        ));
        for (name, value) in &self.metrics {
            out.push_str(&format!(
                "{name} = {value} {}\n",
                unit_of(name).unwrap_or("?")
            ));
        }
        for (name, value) in &self.exact {
            out.push_str(&format!("exact {name} = {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "bad metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
        }
        for w in NAMES {
            assert!(name_ok(w), "bad workload name {w:?}");
            assert!(seen.insert(w), "{w} clashes with a metric name");
        }
        for e in EXACT {
            assert!(
                PER_LAYER.iter().any(|m| m.name == e),
                "{e} is not a per-layer metric"
            );
        }
    }

    /// `BENCHMARK.json` and the tables above list the same names, units,
    /// directions and workloads.
    #[test]
    fn manifest_matches_the_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, bool)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_else(|| panic!("{key} entry has {k}"))
                            .to_string()
                    };
                    (s("name"), s("unit"), s("better") == "higher")
                })
                .collect()
        };
        let table = |t: &[MetricDef]| -> Vec<(String, String, bool)> {
            t.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.higher))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads is a list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("workload has a name")
            })
            .collect();
        assert_eq!(workloads, NAMES);
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).map(|p| p.len()),
            Some(1)
        );
    }

    #[test]
    fn result_json_parses_back() {
        let result = RunResult {
            header: Header {
                workload: "fwd-soak".into(),
                seed: 3,
                seconds: 20,
                trace: false,
                cores: 2,
                threads: 1,
                git: "abc".into(),
                setups: 3,
                rounds_timed: 50,
                rounds_traced: 0,
                calib_ns: 1_894_391.0,
                round_iqr_pct: 1.25,
            },
            attempted: 204,
            failed: 0,
            metrics: vec![("runs_per_s".into(), 11.25), ("setup_s".into(), 0.812_7)],
            exact: vec![("events".into(), u64::MAX)],
            round_rates: vec![11.5, 11.25, 10.75],
        };
        let line = result.file_json().render();
        assert!(
            line.starts_with("{\"header\":{\"workload\":\"fwd-soak\",\"seed\":3,"),
            "{line}"
        );
        let back = RunResult::from_file_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, result);

        let contract = Json::parse(&result.contract_json().render()).unwrap();
        let Json::Obj(fields) = &contract else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(contract.get("correct"), Some(&Json::Bool(true)));
        let setup = contract
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.812_7));
        assert!(result.human().contains("runs_per_s = 11.25 1/s"));
    }
}
