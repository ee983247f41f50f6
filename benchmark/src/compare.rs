//! `compare <a.jsonl> <b.jsonl>`: two sets of runs, judged by the bounds
//! `BENCHMARK.json` fixes.
//!
//! For every (end-to-end metric, workload) pair: regression when B's
//! median is worse than A's by more than the bound; unresolved when it is
//! not but either set's own interquartile spread exceeds the bound (unless
//! every run of B reads better than every run of A). Exact-count metrics
//! are compared run by run at equal (workload, seed).

use std::collections::BTreeMap;

use crate::harness::{quartiles, Quartiles};
use crate::report::{RunResult, EXACT};
use crate::sut::Json;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Better,
    Unresolved,
    Regression,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let delta = (b - a) / a.abs();
    if higher_is_better {
        -delta
    } else {
        delta
    }
}

pub fn judge(
    a: &[f64],
    b: &[f64],
    higher_is_better: bool,
    bound: f64,
) -> (Verdict, Quartiles, Quartiles, f64) {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let worse = worse_by(qa.median, qb.median, higher_is_better);
    let all_better = if higher_is_better {
        b.iter().cloned().fold(f64::INFINITY, f64::min)
            > a.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    } else {
        b.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            < a.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    let verdict = if worse > bound {
        Verdict::Regression
    } else if all_better {
        Verdict::Better
    } else if qa.spread() > bound || qb.spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, qa, qb, worse)
}

pub fn load(path: &str) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            Json::parse(l)
                .and_then(|doc| RunResult::from_file_json(&doc))
                .map_err(|e| format!("{path}:{}: {e}", i + 1))
        })
        .collect()
}

/// (name, higher is better, bound) of every end-to-end metric.
pub fn bounds(manifest: &Json) -> Result<Vec<(String, bool, f64)>, String> {
    manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("manifest has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("end_to_end entry without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("end_to_end entry without better")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("end_to_end entry without a bound")?;
            Ok((name.to_string(), better == "higher", bound))
        })
        .collect()
}

fn values(set: &[RunResult], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.header.workload == workload && r.header.trace == trace)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

/// Every exact count of a set, as printed (a 64-bit digest does not fit an
/// f64), keyed by (workload, seed, name).
fn exact_of(set: &[RunResult]) -> BTreeMap<(&str, u64, String), String> {
    let mut map = BTreeMap::new();
    for r in set {
        let key = |name: String| (r.header.workload.as_str(), r.header.seed, name);
        for (name, value) in r
            .metrics
            .iter()
            .filter(|(n, _)| EXACT.contains(&n.as_str()))
        {
            map.insert(key(name.clone()), value.to_string());
        }
        for (name, value) in &r.exact {
            map.insert(key(format!("exact {name}")), value.to_string());
        }
    }
    map
}

/// Render the comparison; the flag says whether any pair regressed.
pub fn compare(
    a: &[RunResult],
    b: &[RunResult],
    manifest: &Json,
) -> Result<(String, bool), String> {
    let mut workloads: Vec<&str> = a
        .iter()
        .chain(b)
        .map(|r| r.header.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = String::new();
    let mut regressed = false;

    out.push_str(&format!(
        "{:<14} {:<12} {:>3}/{:<3} {:>14} {:>7} {:>14} {:>7} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "nA",
        "nB",
        "median A",
        "iqr A",
        "median B",
        "iqr B",
        "worse",
        "bound"
    ));
    for w in &workloads {
        for (metric, higher, bound) in bounds(manifest)? {
            let (va, vb) = (values(a, w, false, &metric), values(b, w, false, &metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (verdict, qa, qb, worse) = judge(&va, &vb, higher, bound);
            regressed |= verdict == Verdict::Regression;
            out.push_str(&format!(
                "{:<14} {:<12} {:>3}/{:<3} {:>14.4} {:>6.2}% {:>14.4} {:>6.2}% {:>+7.2}% {:>5.1}%  {}\n",
                w,
                metric,
                va.len(),
                vb.len(),
                qa.median,
                100.0 * qa.spread(),
                qb.median,
                100.0 * qb.spread(),
                100.0 * worse,
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Better => "better",
                    Verdict::Unresolved => "UNRESOLVED",
                    Verdict::Regression => "REGRESSION",
                },
            ));
        }
    }

    // Exact counts: equal seeds must read the same on both sides.
    let (ea, eb) = (exact_of(a), exact_of(b));
    let (mut same, mut differ) = (0, 0);
    for ((workload, seed, name), va) in &ea {
        match eb.get(&(*workload, *seed, name.clone())) {
            Some(vb) if vb == va => same += 1,
            Some(vb) => {
                differ += 1;
                out.push_str(&format!(
                    "DIFFERS {workload} seed {seed} {name}: {va} -> {vb}\n"
                ));
            }
            None => {}
        }
    }
    out.push_str(&format!(
        "exact counts: {same} identical, {differ} differ\n"
    ));

    let failed = |set: &[RunResult]| set.iter().map(|r| r.failed).sum::<u64>();
    out.push_str(&format!("ops_failed: A {} B {}\n", failed(a), failed(b)));
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_is_judged_against_the_bound_and_the_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [88.0, 89.0, 87.0, 88.5, 87.5];
        assert_eq!(judge(&a, &slower, true, 0.10).0, Verdict::Regression);
        // The same numbers as a cost: lower is better, so B improved.
        assert_eq!(judge(&a, &slower, false, 0.10).0, Verdict::Better);
        let near = [97.0, 98.0, 96.0, 97.5, 96.5];
        assert_eq!(judge(&a, &near, true, 0.10).0, Verdict::Ok);
        let (_, _, _, worse) = judge(&a, &near, true, 0.10);
        assert!((worse - 0.03).abs() < 1e-9);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let a = [100.0, 130.0, 80.0, 120.0, 90.0];
        let b = [101.0, 128.0, 82.0, 119.0, 91.0];
        assert_eq!(judge(&a, &b, true, 0.10).0, Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let b = [140.0, 150.0, 135.0, 160.0, 131.0];
        assert_eq!(judge(&a, &b, true, 0.10).0, Verdict::Better);
    }

    #[test]
    fn bounds_come_from_the_manifest() {
        let manifest = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let b = bounds(&manifest).unwrap();
        assert!(b.iter().any(|(n, higher, bound)| n == "runs_per_s"
            && *higher
            && *bound > 0.0
            && *bound <= 0.25));
        assert!(b.iter().any(|(n, higher, _)| n == "setup_s" && !*higher));
    }
}
