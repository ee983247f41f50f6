//! Append-only on-disk results store (`campaign/v1`).
//!
//! One directory per campaign: an `index.json` header written at
//! creation plus a `runs.jsonl` segment that only ever grows — one JSON
//! object per finished run. Appends are line-atomic, so a crashed or
//! interrupted campaign leaves a readable store; re-running appends
//! fresh records and readers resolve duplicates by key, last record
//! wins. This is the substrate `fcr campaign diff` compares across git
//! revisions: every record carries the run's canonical
//! [`RunSpec::key`](crate::RunSpec::key), its trace digest, the paper
//! metrics and the storyboard phase breakdown. The header names the
//! digest's *definition* ([`DIGEST`]): digests under different
//! definitions are different functions of the same trace, so
//! [`diff_stores`](super::diff::diff_stores) refuses to compare them.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use dcn_telemetry::Json;

/// Store schema identifier, bumped on any incompatible record change.
pub const SCHEMA: &str = "campaign/v1";
/// The trace-digest definition this build records
/// ([`trace_digest`](crate::chaos::trace_digest), DESIGN.md §16): the
/// header's `digest` field.
pub const DIGEST: &str = "trace64/v1";
/// What a header without the field means: the store predates named
/// definitions and holds digests of `derive(Debug)` text through `std`'s
/// default hasher.
pub const LEGACY_DIGEST: &str = "debug-siphash/v0";
const INDEX_FILE: &str = "index.json";
const RUNS_FILE: &str = "runs.jsonl";

/// One finished run, as persisted in `runs.jsonl`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Canonical spec key (the store's primary key; see
    /// [`RunSpec::key`](crate::RunSpec::key)).
    pub key: String,
    /// Hash of `key` — the compact run id.
    pub key_hash: u64,
    /// Denormalized axes for reporting (all derivable from `key`).
    pub pods: u64,
    pub stack: String,
    pub failure: String,
    pub traffic: String,
    pub seed: u64,
    pub local_repair: bool,
    /// Trace digest of the finished simulation — the bit-identity
    /// surface `diff` gates on.
    pub digest: u64,
    /// Paper metrics.
    pub convergence_ms: Option<f64>,
    pub blast_radius: u64,
    pub control_bytes: u64,
    pub update_frames: u64,
    pub packets_lost: Option<u64>,
    pub keepalive_frames: u64,
    /// Storyboard phase breakdown (ms), when the run failed something
    /// and detection happened: (detection, propagation, quiescence).
    pub phases: Option<(f64, f64, f64)>,
    /// Host wall-clock of the run in milliseconds. Diff-exempt.
    pub wall_ms: f64,
}

impl RunRecord {
    pub fn to_json(&self) -> Json {
        let opt_f = |v: Option<f64>| v.map_or(Json::Null, Json::Float);
        let opt_u = |v: Option<u64>| v.map_or(Json::Null, Json::UInt);
        let mut fields = vec![
            ("key", Json::str(self.key.as_str())),
            ("key_hash", Json::UInt(self.key_hash)),
            ("pods", Json::UInt(self.pods)),
            ("stack", Json::str(self.stack.as_str())),
            ("failure", Json::str(self.failure.as_str())),
            ("traffic", Json::str(self.traffic.as_str())),
            ("seed", Json::UInt(self.seed)),
            ("local_repair", Json::Bool(self.local_repair)),
            ("digest", Json::UInt(self.digest)),
            (
                "metrics",
                Json::obj(vec![
                    ("convergence_ms", opt_f(self.convergence_ms)),
                    ("blast_radius", Json::UInt(self.blast_radius)),
                    ("control_bytes", Json::UInt(self.control_bytes)),
                    ("update_frames", Json::UInt(self.update_frames)),
                    ("packets_lost", opt_u(self.packets_lost)),
                    ("keepalive_frames", Json::UInt(self.keepalive_frames)),
                ]),
            ),
            (
                "storyboard",
                match self.phases {
                    None => Json::Null,
                    Some((d, p, q)) => Json::obj(vec![
                        ("detection_ms", Json::Float(d)),
                        ("propagation_ms", Json::Float(p)),
                        ("quiescence_ms", Json::Float(q)),
                    ]),
                },
            ),
        ];
        fields.push(("wall_ms", Json::Float(self.wall_ms)));
        Json::obj(fields)
    }

    pub fn from_json(doc: &Json) -> Result<RunRecord, String> {
        let s = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("record missing string field {k:?}"))
        };
        let u = |k: &str| {
            doc.get(k).and_then(Json::as_u64).ok_or_else(|| format!("record missing uint field {k:?}"))
        };
        let metrics = doc.get("metrics").ok_or("record missing metrics object")?;
        let mu = |k: &str| {
            metrics
                .get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("metrics missing uint field {k:?}"))
        };
        let phases = match doc.get("storyboard") {
            None | Some(Json::Null) => None,
            Some(sb) => Some((
                sb.get("detection_ms").and_then(Json::as_f64).ok_or("storyboard missing detection_ms")?,
                sb.get("propagation_ms").and_then(Json::as_f64).ok_or("storyboard missing propagation_ms")?,
                sb.get("quiescence_ms").and_then(Json::as_f64).ok_or("storyboard missing quiescence_ms")?,
            )),
        };
        Ok(RunRecord {
            key: s("key")?,
            key_hash: u("key_hash")?,
            pods: u("pods")?,
            stack: s("stack")?,
            failure: s("failure")?,
            traffic: s("traffic")?,
            seed: u("seed")?,
            local_repair: doc
                .get("local_repair")
                .and_then(Json::as_bool)
                .ok_or("record missing local_repair")?,
            digest: u("digest")?,
            convergence_ms: metrics.get("convergence_ms").and_then(Json::as_f64),
            blast_radius: mu("blast_radius")?,
            control_bytes: mu("control_bytes")?,
            update_frames: mu("update_frames")?,
            packets_lost: metrics.get("packets_lost").and_then(Json::as_u64),
            keepalive_frames: mu("keepalive_frames")?,
            phases,
            wall_ms: doc.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }
}

/// An on-disk campaign store (a directory with `index.json` +
/// `runs.jsonl`).
#[derive(Clone, Debug)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Create a new store directory (the directory may exist, the index
    /// must not — a store is created once and only ever appended to).
    pub fn create(dir: &Path, name: &str, spec: Json, planned_runs: u64) -> Result<Store, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let index_path = dir.join(INDEX_FILE);
        if index_path.exists() {
            return Err(format!(
                "{} already holds a campaign store (append-only: pick a fresh directory)",
                dir.display()
            ));
        }
        let index = Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("digest", Json::str(DIGEST)),
            ("name", Json::str(name)),
            ("planned_runs", Json::UInt(planned_runs)),
            ("cores", Json::UInt(dcn_telemetry::host_cores())),
            ("spec", spec),
        ]);
        std::fs::write(&index_path, index.render() + "\n")
            .map_err(|e| format!("write {}: {e}", index_path.display()))?;
        Ok(Store { dir: dir.to_path_buf() })
    }

    /// Open an existing store, validating the schema header.
    pub fn open(dir: &Path) -> Result<Store, String> {
        let store = Store { dir: dir.to_path_buf() };
        let index = store.index()?;
        match index.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => Ok(store),
            Some(other) => Err(format!(
                "{}: unsupported store schema {other:?} (this build reads {SCHEMA:?})",
                dir.display()
            )),
            None => Err(format!("{}: index.json has no schema field", dir.display())),
        }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The parsed `index.json` header.
    pub fn index(&self) -> Result<Json, String> {
        let path = self.dir.join(INDEX_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        Json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The definition this store's digests were computed under.
    pub fn digest_definition(&self) -> Result<String, String> {
        match self.index()?.get("digest") {
            None => Ok(LEGACY_DIGEST.to_string()),
            Some(v) => v.as_str().map(str::to_string).ok_or_else(|| {
                format!("{}: index.json digest field must be a string", self.dir.display())
            }),
        }
    }

    /// Append one finished run to the segment (one line, flushed).
    pub fn append(&self, record: &RunRecord) -> io::Result<()> {
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(RUNS_FILE))?;
        writeln!(f, "{}", record.to_json().render())?;
        f.flush()
    }

    /// Append a batch of finished runs in order.
    pub fn append_all(&self, records: &[RunRecord]) -> io::Result<()> {
        for r in records {
            self.append(r)?;
        }
        Ok(())
    }

    /// Every record in append order (duplicates included). A store with
    /// no segment yet reads as empty.
    pub fn records(&self) -> Result<Vec<RunRecord>, String> {
        let path = self.dir.join(RUNS_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let doc = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
            out.push(
                RunRecord::from_json(&doc).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?,
            );
        }
        Ok(out)
    }

    /// Records resolved by key: the append-only convention is that a
    /// re-run of the same experiment appends a fresh record and the
    /// *last* one wins.
    pub fn latest(&self) -> Result<BTreeMap<String, RunRecord>, String> {
        let mut map = BTreeMap::new();
        for r in self.records()? {
            map.insert(r.key.clone(), r);
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64) -> RunRecord {
        RunRecord {
            key: format!("pods=2x2x2x2x1;stack=mrmtp;seed={seed}"),
            key_hash: 0xfeed_0000 + seed,
            pods: 2,
            stack: "mrmtp".into(),
            failure: "tc1".into(),
            traffic: "none".into(),
            seed,
            local_repair: false,
            digest: 0xdead_beef + seed,
            convergence_ms: Some(41.5),
            blast_radius: 3,
            control_bytes: 1234,
            update_frames: 17,
            packets_lost: None,
            keepalive_frames: 210,
            phases: Some((0.5, 41.0, 2.0)),
            wall_ms: 99.25,
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = record(7);
        let parsed = RunRecord::from_json(&Json::parse(&r.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, r);
        // And the fully-null optional shape round-trips too.
        let bare = RunRecord { convergence_ms: None, phases: None, ..record(8) };
        let parsed = RunRecord::from_json(&Json::parse(&bare.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, bare);
        // Keys this reader does not know (`stall`, written by older
        // `campaign/v1` stores) are ignored.
        let Json::Obj(mut fields) = r.to_json() else { panic!("record is an object") };
        fields.push(("stall".into(), Json::obj(vec![("execute_pct", Json::Float(96.0))])));
        assert_eq!(RunRecord::from_json(&Json::Obj(fields)).unwrap(), r);
    }

    #[test]
    fn store_appends_reopens_and_resolves_duplicates() {
        let dir = std::env::temp_dir().join(format!("dcn-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::create(&dir, "unit", Json::obj(vec![]), 3).unwrap();
        store.append_all(&[record(1), record(2)]).unwrap();
        // Second handle sees the same records.
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.digest_definition().unwrap(), DIGEST);
        assert_eq!(reopened.records().unwrap(), vec![record(1), record(2)]);
        // A re-run appends; latest() resolves last-wins by key.
        let mut rerun = record(1);
        rerun.digest = 0x1111;
        reopened.append(&rerun).unwrap();
        assert_eq!(reopened.records().unwrap().len(), 3);
        let latest = reopened.latest().unwrap();
        assert_eq!(latest.len(), 2);
        assert_eq!(latest[&record(1).key].digest, 0x1111);
        // Creating over an existing index is refused.
        assert!(Store::create(&dir, "again", Json::obj(vec![]), 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
