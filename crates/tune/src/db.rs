//! The versioned tune database: per-kernel winning configurations with
//! their measured and modeled costs, serialized with the suite's own
//! JSON layer so `llpd` can persist and reload it.

use crate::calibrate::MAX_WORKERS;
use llp::obs::json::Json;
use llp::{MeasuredChoice, Policy, ScheduleMap};
use solver::check_range;
use std::path::Path;

/// Schema version of [`TuneDb::to_json`]; bumped on layout changes.
/// Version 2 added the per-entry `vector_width` (the SLP axis);
/// version 3 added a per-entry `stale` flag; version 4 added the
/// top-level `solver` kind for multi-physics serving. Only the current
/// version loads. Two per-entry keys are retired without a bump:
/// `stale`, and `vector_width` (lane counts are kernel constants, so
/// there is no width to tune). Entries are read by key, so a version-4
/// file that still carries either loads with it ignored, and nothing
/// writes them back.
pub const TUNE_SCHEMA_VERSION: u64 = 4;

/// One kernel's calibration outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneEntry {
    /// Kernel name (span-tree vocabulary: `rhs_jk`, `update_e`, …).
    pub kernel: String,
    /// Winning worker count.
    pub workers: usize,
    /// Winning schedule.
    pub schedule: Policy,
    /// Mean parallel-loop iterations per region (the stair-step `U`).
    pub iterations: u64,
    /// Candidates the search measured for this kernel.
    pub candidates_tried: usize,
    /// Median measured cost of the winner over the calibration case
    /// (summed region wall nanoseconds).
    pub measured_cost_ns: u64,
    /// Median measured cost of the default configuration (full pool
    /// width, static). Selection guarantees `measured_cost_ns <=
    /// default_cost_ns`.
    pub default_cost_ns: u64,
    /// [`crate::model::predicted_cost_ns`] for the winner over the
    /// calibration case — reported, never selected on.
    pub modeled_cost_ns: u64,
    /// Whether ranking the same candidates by predicted cost picks the
    /// measured winner.
    pub model_agrees: bool,
}

impl TuneEntry {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("kernel", Json::Str(self.kernel.clone())),
            ("workers", Json::from_usize(self.workers)),
            ("schedule", Json::str(self.schedule.name())),
        ];
        if let Some(chunk) = self.schedule.chunk_param() {
            pairs.push(("chunk", Json::from_usize(chunk)));
        }
        pairs.extend([
            ("iterations", Json::from_u64(self.iterations)),
            ("candidates_tried", Json::from_usize(self.candidates_tried)),
            ("measured_cost_ns", Json::from_u64(self.measured_cost_ns)),
            ("default_cost_ns", Json::from_u64(self.default_cost_ns)),
            ("modeled_cost_ns", Json::from_u64(self.modeled_cost_ns)),
            ("model_agrees", Json::Bool(self.model_agrees)),
        ]);
        Json::object(pairs)
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("entry missing {k:?}"));
        let name = field("schedule")?
            .as_str()
            .ok_or("schedule must be a string")?;
        let kernel = field("kernel")?
            .as_str()
            .ok_or("kernel must be a string")?
            .to_string();
        // The file is outside input (`--tune-db`, `LLPD_TUNE_DB`) and
        // these fields configure a pool view and its schedule: a value
        // no calibration can write must not load.
        let in_entry = |e: String| format!("entry {kernel:?}: {e}");
        let workers = field("workers")?
            .as_usize()
            .ok_or("workers must be an integer")?;
        check_range("workers", workers, MAX_WORKERS).map_err(in_entry)?;
        let chunk = match j.get("chunk") {
            None => None,
            Some(v) => Some(
                v.as_usize()
                    .ok_or_else(|| in_entry("chunk must be a non-negative integer".to_string()))?,
            ),
        };
        Ok(Self {
            kernel,
            workers,
            schedule: Policy::parse(name, chunk)?,
            iterations: field("iterations")?
                .as_u64()
                .ok_or("iterations must be an integer")?,
            candidates_tried: field("candidates_tried")?
                .as_usize()
                .ok_or("candidates_tried must be an integer")?,
            measured_cost_ns: field("measured_cost_ns")?
                .as_u64()
                .ok_or("measured_cost_ns must be an integer")?,
            default_cost_ns: field("default_cost_ns")?
                .as_u64()
                .ok_or("default_cost_ns must be an integer")?,
            modeled_cost_ns: field("modeled_cost_ns")?
                .as_u64()
                .ok_or("modeled_cost_ns must be an integer")?,
            model_agrees: field("model_agrees")?
                .as_bool()
                .ok_or("model_agrees must be a boolean")?,
        })
    }
}

/// A full calibration result: the winning configuration for every
/// parallel kernel of one solver's calibration case, plus the calibration
/// context needed to interpret (and invalidate) it.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneDb {
    /// [`TUNE_SCHEMA_VERSION`] at write time.
    pub schema_version: u64,
    /// Solver kind this calibration belongs to (`"f3d"`, `"fdtd"`) —
    /// tuned decisions for one physics say nothing about another, so
    /// the serve layer keys its databases by this field.
    pub solver: String,
    /// Pool width the calibration ran on — configs tuned for a 2-wide
    /// pool say nothing about an 8-wide one.
    pub pool_width: usize,
    /// Zones of the calibration case.
    pub zones: usize,
    /// Steps of the calibration case.
    pub steps: usize,
    /// Trials per candidate (the K of median-of-K).
    pub trials: usize,
    /// Measured mean synchronization cost (the empirical `S`,
    /// nanoseconds) the model predictions were seeded with.
    pub sync_cost_ns: u64,
    /// Per-kernel outcomes, sorted by kernel name.
    pub entries: Vec<TuneEntry>,
}

impl TuneDb {
    /// JSON form (schema pinned by a test; see `TUNE_SCHEMA_VERSION`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::from_u64(self.schema_version)),
            ("solver", Json::Str(self.solver.clone())),
            ("pool_width", Json::from_usize(self.pool_width)),
            ("zones", Json::from_usize(self.zones)),
            ("steps", Json::from_usize(self.steps)),
            ("trials", Json::from_usize(self.trials)),
            ("sync_cost_ns", Json::from_u64(self.sync_cost_ns)),
            (
                "entries",
                Json::Array(self.entries.iter().map(TuneEntry::to_json).collect()),
            ),
        ])
    }

    /// Parse a database from its JSON form.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed field;
    /// unknown schema versions are rejected rather than misread.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let version = j
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("tune db missing schema_version")?;
        if version != TUNE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported tune db schema_version {version} (expected {TUNE_SCHEMA_VERSION})"
            ));
        }
        let field = |k: &str| {
            j.get(k)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("tune db missing {k:?}"))
        };
        let entries = j
            .get("entries")
            .and_then(Json::as_array)
            .ok_or("tune db missing entries")?
            .iter()
            .map(TuneEntry::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            schema_version: version,
            solver: j
                .get("solver")
                .and_then(Json::as_str)
                .ok_or("tune db missing \"solver\"")?
                .to_string(),
            pool_width: field("pool_width")?,
            zones: field("zones")?,
            steps: field("steps")?,
            trials: field("trials")?,
            sync_cost_ns: j
                .get("sync_cost_ns")
                .and_then(Json::as_u64)
                .ok_or("tune db missing sync_cost_ns")?,
            entries,
        })
    }

    /// Write the database to `path` as pretty-printed JSON.
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty_string())
    }

    /// Load a database from `path`.
    ///
    /// # Errors
    /// I/O and parse failures, as a message naming the path.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read tune db {}: {e}", path.display()))?;
        text.parse()
            .map_err(|e| format!("invalid tune db {}: {e}", path.display()))
    }

    /// The per-kernel overrides a solver consumes
    /// ([`solver::run_instrumented`]).
    #[must_use]
    pub fn schedule_map(&self) -> ScheduleMap {
        let mut map = ScheduleMap::new();
        for e in &self.entries {
            map.set(&e.kernel, e.workers, e.schedule);
        }
        map
    }

    /// The measured choices for the advisor
    /// ([`llp::Advisor::advise_with_measured`]).
    #[must_use]
    pub fn measured_choices(&self) -> Vec<(String, MeasuredChoice)> {
        self.entries
            .iter()
            .map(|e| {
                (
                    e.kernel.clone(),
                    MeasuredChoice {
                        workers: e.workers,
                        schedule: e.schedule,
                        measured_cost_ns: e.measured_cost_ns,
                        modeled_cost_ns: e.modeled_cost_ns,
                    },
                )
            })
            .collect()
    }
}

impl std::str::FromStr for TuneDb {
    type Err = String;

    /// Parse from JSON text: syntax and schema errors as a message.
    fn from_str(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn sample() -> TuneDb {
        TuneDb {
            schema_version: TUNE_SCHEMA_VERSION,
            solver: "f3d".to_string(),
            pool_width: 4,
            zones: 2,
            steps: 2,
            trials: 3,
            sync_cost_ns: 1_200,
            entries: vec![
                TuneEntry {
                    kernel: "rhs".to_string(),
                    workers: 4,
                    schedule: Policy::Guided { min_chunk: 1 },
                    iterations: 10,
                    candidates_tried: 12,
                    measured_cost_ns: 80_000,
                    default_cost_ns: 95_000,
                    modeled_cost_ns: 78_000,
                    model_agrees: true,
                },
                TuneEntry {
                    kernel: "update".to_string(),
                    workers: 2,
                    schedule: Policy::Static,
                    iterations: 10,
                    candidates_tried: 12,
                    measured_cost_ns: 40_000,
                    default_cost_ns: 41_000,
                    modeled_cost_ns: 52_000,
                    model_agrees: false,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let db = sample();
        let text = db.to_json().to_pretty_string();
        let back = TuneDb::from_str(&text).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn schema_is_pinned() {
        let j = sample().to_json();
        assert_eq!(
            j.get("schema_version").and_then(Json::as_u64),
            Some(TUNE_SCHEMA_VERSION)
        );
        for key in [
            "solver",
            "pool_width",
            "zones",
            "steps",
            "trials",
            "sync_cost_ns",
            "entries",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        let entries = j.get("entries").and_then(Json::as_array).unwrap();
        let e = &entries[0];
        let keys = |e: &Json| -> Vec<String> {
            let pairs = e.as_object().unwrap();
            pairs.iter().map(|(k, _)| k.clone()).collect()
        };
        let mut expected = vec![
            "kernel",
            "workers",
            "schedule",
            "chunk",
            "iterations",
            "candidates_tried",
            "measured_cost_ns",
            "default_cost_ns",
            "modeled_cost_ns",
            "model_agrees",
        ];
        assert_eq!(keys(e), expected);
        // Static entries omit the chunk; dynamic ones carry it.
        assert_eq!(e.get("chunk").and_then(Json::as_u64), Some(1));
        expected.retain(|k| *k != "chunk");
        assert_eq!(keys(&entries[1]), expected);
        // Version 4 as it was written while entries still carried a
        // `stale` boolean: entries are read by key, so such a file loads
        // to the same database, and nothing writes the key back.
        let old = j
            .to_string()
            .replace(
                "\"model_agrees\":true",
                "\"model_agrees\":true,\"stale\":false",
            )
            .replace(
                "\"model_agrees\":false",
                "\"model_agrees\":false,\"stale\":true",
            );
        assert_eq!(old.matches("\"stale\"").count(), 2);
        let loaded = TuneDb::from_str(&old).unwrap();
        assert_eq!(loaded, sample());
        assert_eq!(loaded.to_json(), j);
    }

    #[test]
    fn version_and_field_errors_are_named() {
        let err = TuneDb::from_str("{\"schema_version\": 999, \"entries\": []}").unwrap_err();
        assert!(err.contains("999"), "{err}");
        let err = TuneDb::from_str("{}").unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        assert!(TuneDb::from_str("not json").is_err());
        // Only the current schema loads: older versions are rejected by
        // number, and a current document missing a field names it.
        let without = |doc: &Json, key: &str| match doc {
            Json::Object(pairs) => {
                Json::Object(pairs.iter().filter(|(k, _)| k != key).cloned().collect())
            }
            other => other.clone(),
        };
        for old in [2, 3] {
            let mut doc = without(&sample().to_json(), "schema_version");
            if let Json::Object(pairs) = &mut doc {
                pairs.push(("schema_version".to_string(), Json::from_u64(old)));
            }
            let err = TuneDb::from_json(&doc).unwrap_err();
            assert!(err.contains(&format!("schema_version {old}")), "{err}");
        }
        let err = TuneDb::from_json(&without(&sample().to_json(), "solver")).unwrap_err();
        assert!(err.contains("solver"), "{err}");
        let mut doc = sample().to_json();
        if let Json::Object(pairs) = &mut doc {
            for (key, value) in pairs.iter_mut() {
                if let ("entries", Json::Array(entries)) = (key.as_str(), value) {
                    entries[0] = without(&entries[0], "model_agrees");
                }
            }
        }
        let err = TuneDb::from_json(&doc).unwrap_err();
        assert!(err.contains("model_agrees"), "{err}");
        // Values no calibration can write are rejected by entry and
        // field: a worker count a pool view would panic on, a chunk
        // that is not a count (which once loaded as no chunk — chunk 1
        // for a dynamic entry, and a static entry that must not load).
        let text = sample().to_json().to_pretty_string();
        let static_entry = "\"schedule\": \"static\"";
        for (kernel, field, good, bad) in [
            ("rhs", "workers", "\"workers\": 4", "\"workers\": 0"),
            ("rhs", "workers", "\"workers\": 4", "\"workers\": 65"),
            ("rhs", "chunk", "\"chunk\": 1", "\"chunk\": \"4\""),
            ("rhs", "chunk", "\"chunk\": 1", "\"chunk\": -1"),
            ("rhs", "chunk", "\"chunk\": 1", "\"chunk\": 2.5"),
            (
                "update",
                "chunk",
                static_entry,
                "\"schedule\": \"static\", \"chunk\": \"4\"",
            ),
        ] {
            assert!(text.contains(good), "{good} in {text}");
            let err = TuneDb::from_str(&text.replacen(good, bad, 1)).unwrap_err();
            let named = format!("entry {kernel:?}: {field}");
            assert!(err.contains(&named), "{err}");
        }
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join("tune_db_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        let db = sample();
        db.save(&path).unwrap();
        assert_eq!(TuneDb::load(&path).unwrap(), db);
        let err = TuneDb::load(&dir.join("absent.json")).unwrap_err();
        assert!(err.contains("absent.json"), "{err}");
    }

    #[test]
    fn schedule_map_and_choices_cover_every_entry() {
        let db = sample();
        let map = db.schedule_map();
        assert_eq!(map.len(), 2);
        assert_eq!(map.get("rhs"), Some((4, Policy::Guided { min_chunk: 1 })));
        let choices = db.measured_choices();
        assert_eq!(choices.len(), 2);
        assert_eq!(choices[0].0, "rhs");
        assert_eq!(choices[0].1.measured_cost_ns, 80_000);
    }

    #[test]
    fn retired_vector_width_column_is_ignored_and_never_written() {
        let j = sample().to_json();
        let text = j.to_string();
        assert!(!text.contains("vector_width"), "{text}");
        // A schema-4 file written without the column loads...
        assert_eq!(TuneDb::from_str(&text).unwrap(), sample());
        // ...and one that still carries it, even at a width no request
        // may spell, loads to the same database with the key ignored.
        let carried = text.replace("\"iterations\"", "\"vector_width\":3,\"iterations\"");
        assert_eq!(carried.matches("\"vector_width\"").count(), 2);
        let loaded = TuneDb::from_str(&carried).unwrap();
        assert_eq!(loaded, sample());
        assert_eq!(loaded.to_json(), j);
    }
}
