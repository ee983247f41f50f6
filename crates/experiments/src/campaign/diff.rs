//! Differential regression over two campaign stores.
//!
//! Any two stores (typically the same campaign spec run at two git
//! revisions) are compared run by run on their canonical keys. A digest
//! mismatch is always a finding — the simulation is deterministic, so
//! same key + same code must mean the same trace, bit for bit. Numeric
//! metrics tolerate `threshold`
//! relative drift before being flagged. The host-clock field `wall_ms`
//! is never compared: a store recorded on a loaded laptop must diff
//! clean against one from a quiet CI runner.

use std::collections::BTreeMap;

use super::store::{RunRecord, Store};

/// One flagged difference between two stores.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Canonical run key the finding is about.
    pub key: String,
    /// Which field drifted (`digest`, `convergence_ms`, …).
    pub field: &'static str,
    /// Values on each side, rendered.
    pub a: String,
    pub b: String,
    /// Relative drift for numeric fields (`None` for digest mismatches
    /// and present/absent flips, which are categorical).
    pub rel: Option<f64>,
}

/// The full comparison of two stores.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Keys present in both stores and compared.
    pub compared: usize,
    /// Flagged drifts, in key order.
    pub findings: Vec<Finding>,
    /// Keys only one side has (coverage changes, not drift — reported
    /// separately so a grown grid doesn't read as a regression).
    pub only_a: Vec<String>,
    pub only_b: Vec<String>,
}

impl DiffReport {
    /// Did anything drift? (Coverage differences don't count.)
    pub fn has_drift(&self) -> bool {
        !self.findings.is_empty()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "campaign diff: {} run(s) compared, {} drifted, {}+{} uncompared\n",
            self.compared,
            self.findings.len(),
            self.only_a.len(),
            self.only_b.len(),
        );
        for f in &self.findings {
            out.push_str(&format!("  DRIFT {:<16} {} -> {}", f.field, f.a, f.b));
            if let Some(rel) = f.rel {
                out.push_str(&format!("  ({:+.1}%)", rel * 100.0));
            }
            out.push_str(&format!("\n        {}\n", f.key));
        }
        for k in &self.only_a {
            out.push_str(&format!("  only in A: {k}\n"));
        }
        for k in &self.only_b {
            out.push_str(&format!("  only in B: {k}\n"));
        }
        if self.compared == 0 {
            // Not "zero drift": disjoint keys (an empty store, a changed
            // key spelling) show nothing unchanged.
            out.push_str("  NOTHING COMPARED: the stores share no run key\n");
        } else if !self.has_drift() {
            out.push_str("  zero drift\n");
        }
        out
    }
}

/// Relative difference of two magnitudes, symmetric in its arguments.
fn rel_drift(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (b - a).abs() / scale
    }
}

/// Compare two key-resolved record sets. `threshold` is the relative
/// drift a numeric metric may show before being flagged (e.g. `0.05`
/// for 5%); digests are compared exactly.
pub fn diff(
    a: &BTreeMap<String, RunRecord>,
    b: &BTreeMap<String, RunRecord>,
    threshold: f64,
) -> DiffReport {
    let mut report = DiffReport::default();
    for (key, ra) in a {
        let Some(rb) = b.get(key) else {
            report.only_a.push(key.clone());
            continue;
        };
        report.compared += 1;
        diff_one(ra, rb, threshold, &mut report.findings);
    }
    for key in b.keys() {
        if !a.contains_key(key) {
            report.only_b.push(key.clone());
        }
    }
    report
}

/// [`diff`] over two stores' key-resolved records — refused when the
/// stores name different digest definitions: every key-matched run would
/// read as `DRIFT digest` although nothing was compared.
pub fn diff_stores(a: &Store, b: &Store, threshold: f64) -> Result<DiffReport, String> {
    let (def_a, def_b) = (a.digest_definition()?, b.digest_definition()?);
    if def_a != def_b {
        return Err(format!(
            "cannot compare: {} holds {def_a:?} digests, {} holds {def_b:?} digests \
             (re-run the older store's spec with this build)",
            a.dir().display(),
            b.dir().display(),
        ));
    }
    Ok(diff(&a.latest()?, &b.latest()?, threshold))
}

fn diff_one(a: &RunRecord, b: &RunRecord, threshold: f64, out: &mut Vec<Finding>) {
    let mut flag = |field: &'static str, va: String, vb: String, rel: Option<f64>| {
        out.push(Finding { key: a.key.clone(), field, a: va, b: vb, rel });
    };
    if a.digest != b.digest {
        flag("digest", format!("{:016x}", a.digest), format!("{:016x}", b.digest), None);
    }
    let mut num = |field: &'static str, va: Option<f64>, vb: Option<f64>| match (va, vb) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            let rel = rel_drift(x, y);
            if rel > threshold {
                flag(field, format!("{x}"), format!("{y}"), Some(rel));
            }
        }
        (x, y) => {
            let r = |v: Option<f64>| v.map_or("absent".to_string(), |v| format!("{v}"));
            flag(field, r(x), r(y), None);
        }
    };
    num("convergence_ms", a.convergence_ms, b.convergence_ms);
    num("blast_radius", Some(a.blast_radius as f64), Some(b.blast_radius as f64));
    num("control_bytes", Some(a.control_bytes as f64), Some(b.control_bytes as f64));
    num("update_frames", Some(a.update_frames as f64), Some(b.update_frames as f64));
    num("packets_lost", a.packets_lost.map(|v| v as f64), b.packets_lost.map(|v| v as f64));
    num("keepalive_frames", Some(a.keepalive_frames as f64), Some(b.keepalive_frames as f64));
    match (a.phases, b.phases) {
        (None, None) => {}
        (Some(pa), Some(pb)) => {
            num("detection_ms", Some(pa.0), Some(pb.0));
            num("propagation_ms", Some(pa.1), Some(pb.1));
            num("quiescence_ms", Some(pa.2), Some(pb.2));
        }
        (pa, pb) => {
            let r = |p: Option<(f64, f64, f64)>| {
                p.map_or("absent".to_string(), |p| format!("{p:?}"))
            };
            flag("storyboard", r(pa), r(pb), None);
        }
    }
    // wall_ms is a host-clock observation: never compared.
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64) -> RunRecord {
        RunRecord {
            key: format!("seed={seed}"),
            key_hash: seed,
            pods: 2,
            stack: "mrmtp".into(),
            failure: "tc1".into(),
            traffic: "none".into(),
            seed,
            local_repair: false,
            digest: 0xabc0 + seed,
            convergence_ms: Some(40.0),
            blast_radius: 3,
            control_bytes: 1000,
            update_frames: 10,
            packets_lost: None,
            keepalive_frames: 200,
            phases: Some((1.0, 39.0, 0.0)),
            wall_ms: 50.0,
        }
    }

    fn keyed(records: Vec<RunRecord>) -> BTreeMap<String, RunRecord> {
        records.into_iter().map(|r| (r.key.clone(), r)).collect()
    }

    #[test]
    fn identical_stores_have_zero_drift() {
        let a = keyed(vec![record(1), record(2)]);
        let r = diff(&a, &a.clone(), 0.05);
        assert_eq!(r.compared, 2);
        assert!(!r.has_drift(), "{:?}", r.findings);
        assert!(r.render().contains("zero drift"));
    }

    #[test]
    fn host_clock_fields_are_diff_exempt() {
        let a = keyed(vec![record(1)]);
        let mut slow = record(1);
        slow.wall_ms = 9000.0;
        let r = diff(&a, &keyed(vec![slow]), 0.05);
        assert!(!r.has_drift(), "{:?}", r.findings);
    }

    #[test]
    fn digest_mismatch_is_always_flagged() {
        let a = keyed(vec![record(1)]);
        let mut b1 = record(1);
        b1.digest ^= 1;
        let r = diff(&a, &keyed(vec![b1]), 1000.0);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].field, "digest");
    }

    #[test]
    fn metric_drift_respects_the_threshold() {
        let a = keyed(vec![record(1)]);
        let mut b1 = record(1);
        b1.convergence_ms = Some(41.0); // 2.4% drift
        let r = diff(&a, &keyed(vec![b1.clone()]), 0.05);
        assert!(!r.has_drift(), "{:?}", r.findings);
        let r = diff(&a, &keyed(vec![b1]), 0.01);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].field, "convergence_ms");
        assert!(r.findings[0].rel.unwrap() > 0.01);
    }

    #[test]
    fn coverage_changes_are_reported_but_not_drift() {
        let a = keyed(vec![record(1), record(2)]);
        let b = keyed(vec![record(2), record(3)]);
        let r = diff(&a, &b, 0.05);
        assert_eq!(r.compared, 1);
        assert!(!r.has_drift());
        assert_eq!(r.only_a, vec!["seed=1".to_string()]);
        assert_eq!(r.only_b, vec!["seed=3".to_string()]);
    }

    #[test]
    fn present_absent_flips_are_flagged() {
        let a = keyed(vec![record(1)]);
        let mut b1 = record(1);
        b1.convergence_ms = None;
        b1.phases = None;
        let r = diff(&a, &keyed(vec![b1]), 0.05);
        let fields: Vec<&str> = r.findings.iter().map(|f| f.field).collect();
        assert!(fields.contains(&"convergence_ms"), "{fields:?}");
        assert!(fields.contains(&"storyboard"), "{fields:?}");
    }
}
