//! Service counters behind `GET /metrics`, stated once.
//!
//! Every metric is one row of a static table — `SCALARS` for plain
//! counters and gauges, `FAMILIES` for labelled counter families,
//! `HISTOGRAMS` for the two distributions — carrying its Prometheus
//! name, kind, HELP text and JSON path. [`Metrics`] holds one atomic
//! cell per row (per label, for a family), indexed by the row's id;
//! [`Metrics::snapshot`] copies the cells into a [`Snapshot`], and both
//! expositions are loops over the tables rendering one. Adding a metric
//! is one row here and one `inc`/`add`/`set`/`bump` call where it
//! happens.
//!
//! Counting happens here and nowhere else. A telemetry window
//! (`/v1/stats`, [`crate::telemetry`]) is the difference of two
//! snapshots ([`Snapshot::since`]): counters, families and histogram
//! buckets subtract, gauges keep their value at the window's end, so a
//! new row windows itself.
//!
//! Everything is a relaxed atomic: connection threads bump request and
//! status counters, the executor bumps job and observability totals,
//! and `/metrics` renders a consistent-enough snapshot without taking
//! any lock. The observability totals (`obs_sync_events_total`,
//! `obs_seconds_total`) accumulate the per-request span reports, so
//! they must agree with the pool's own synchronization-event counter —
//! an invariant the integration tests check end to end.

use crate::hist::{add_f64, Buckets, Histogram};
use crate::solvers;
use llp::obs::json::Json;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The status codes the service emits, each with its own counter.
pub const TRACKED_STATUSES: [u16; 10] = [200, 400, 404, 405, 408, 413, 429, 500, 501, 503];

/// Request endpoint families, each with its own counter: the route
/// table's labels in row order, then `other` for unrouted requests.
pub const ENDPOINTS: &[&str] = &crate::routes::LABELS;

/// Requested-schedule labels for executed solves.
pub const SCHEDULES: [&str; 4] = ["static", "dynamic", "guided", "auto"];

/// The values `/metrics` reports that the server owns, not [`Metrics`]:
/// the shared pool's width and counters and the executor count.
#[derive(Debug, Clone, Copy)]
pub struct PoolContext {
    /// Worker lanes in the shared pool.
    pub pool_workers: usize,
    /// Executors running (one per pool worker); the row keeps the name
    /// it had when executors owned disjoint shards of the pool.
    pub executor_shards: usize,
    /// Synchronization events the pool has executed.
    pub pool_sync_events: u64,
    /// Parallel regions the pool has executed.
    pub pool_regions: u64,
}

/// Prometheus `# TYPE` of a monotone row; its name ends in `_total`.
const COUNTER: &str = "counter";
/// Prometheus `# TYPE` of a row that moves both ways.
const GAUGE: &str = "gauge";

/// Where a row's value lives.
#[derive(Clone, Copy)]
enum Value {
    /// An integer in the row's cell.
    U64,
    /// An `f64` accumulated as its bit pattern in the row's cell.
    F64,
    /// Read off the caller's [`PoolContext`]; the row's cell is unused.
    Pool(fn(&PoolContext) -> u64),
}
use Value::{Pool, F64, U64};

/// One scalar metric: everything either exposition says about it.
struct ScalarRow {
    /// Prometheus name without the `llpd_` prefix.
    name: &'static str,
    /// [`COUNTER`] (the name ends in `_total`) or [`GAUGE`].
    kind: &'static str,
    /// JSON path: a top-level key, or `group/key` inside a group object.
    json: &'static str,
    value: Value,
    help: &'static str,
}

/// Which slot a label outside a family's vocabulary lands in.
#[derive(Clone, Copy)]
enum Fold {
    /// The first label (the default: `f3d`, width `1`, `static`).
    First,
    /// The last label (the vocabulary's own `other`).
    Last,
    /// Nowhere: the observation is not counted.
    Drop,
}

/// One labelled counter family.
struct FamilyRow {
    /// Prometheus family name without the `llpd_` prefix.
    name: &'static str,
    /// Prometheus label name.
    label: &'static str,
    /// Top-level JSON key of the `{label value: count}` object.
    json: &'static str,
    /// [`U64`] or [`F64`].
    value: Value,
    /// The label vocabulary, in exposition order.
    labels: fn() -> Vec<String>,
    fold: Fold,
    help: &'static str,
}

/// One histogram.
struct HistogramRow {
    /// Prometheus family name without the `llpd_` prefix.
    name: &'static str,
    /// Top-level JSON key.
    json: &'static str,
    help: &'static str,
    /// The bucket ladder.
    new: fn() -> Histogram,
}

/// Declare an id enum and its row table from one list, so a row's id
/// is its index and neither can be stated without the other.
macro_rules! table {
    ($(#[$doc:meta])* $id:ident indexes $table:ident: [$row:ty] { $($variant:ident => $value:expr,)* }) => {
        $(#[$doc])*
        #[allow(missing_docs)] // each variant is described by its row
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $id { $($variant),* }

        /// The rows, in exposition order; a row's index is its id.
        const $table: &[$row] = &[$($value),*];
    };
}

table! {
    /// Scalar metric ids.
    Scalar indexes SCALARS: [ScalarRow] {
        RequestsTotal => ScalarRow { name: "requests_total", kind: COUNTER, json: "requests_total", value: U64, help: "Requests routed, all endpoints." },
        RejectedTotal => ScalarRow { name: "rejected_total", kind: COUNTER, json: "rejected_total", value: U64, help: "Requests rejected with 429 back-pressure." },
        TimeoutsTotal => ScalarRow { name: "timeouts_total", kind: COUNTER, json: "timeouts_total", value: U64, help: "Requests abandoned at their deadline." },
        JobsTotal => ScalarRow { name: "jobs_total", kind: COUNTER, json: "jobs_total", value: U64, help: "Executor jobs completed." },
        ExecutorPanicsTotal => ScalarRow { name: "executor_panics_total", kind: COUNTER, json: "executor_panics_total", value: U64, help: "Jobs that panicked and were contained." },
        QueueDepth => ScalarRow { name: "queue_depth", kind: GAUGE, json: "queue_depth", value: U64, help: "Jobs currently queued." },
        ExecutorBusy => ScalarRow { name: "executor_busy", kind: GAUGE, json: "executor_busy", value: U64, help: "Executor shards currently mid-job." },
        ExecutorShards => ScalarRow { name: "executor_shards", kind: GAUGE, json: "executor_shards", value: Pool(|c| c.executor_shards as u64), help: "Executor shards configured." },
        OpenConnections => ScalarRow { name: "open_connections", kind: GAUGE, json: "open_connections", value: U64, help: "Connections currently open." },
        PoolWorkers => ScalarRow { name: "pool_workers", kind: GAUGE, json: "pool_workers", value: Pool(|c| c.pool_workers as u64), help: "Worker lanes in the shared pool." },
        PoolSyncEventsTotal => ScalarRow { name: "pool_sync_events_total", kind: COUNTER, json: "pool_sync_events_total", value: Pool(|c| c.pool_sync_events), help: "Synchronization events executed by the pool." },
        PoolRegionsTotal => ScalarRow { name: "pool_regions_total", kind: COUNTER, json: "pool_regions_total", value: Pool(|c| c.pool_regions), help: "Parallel regions executed by the pool." },
        ObsReportsTotal => ScalarRow { name: "obs_reports_total", kind: COUNTER, json: "obs_reports_total", value: U64, help: "Span reports folded into the totals." },
        ObsSyncEventsTotal => ScalarRow { name: "obs_sync_events_total", kind: COUNTER, json: "obs_sync_events_total", value: U64, help: "Sync events attributed by span reports." },
        ObsSecondsTotal => ScalarRow { name: "obs_seconds_total", kind: COUNTER, json: "obs_seconds_total", value: F64, help: "Solver wall seconds attributed by span reports." },
        ObsSyncNsTotal => ScalarRow { name: "obs_sync_ns_total", kind: COUNTER, json: "obs_sync_ns_total", value: U64, help: "Barrier and claim nanoseconds attributed by flight timelines." },
        ObsBusyNsTotal => ScalarRow { name: "obs_busy_ns_total", kind: COUNTER, json: "obs_busy_ns_total", value: U64, help: "Compute, barrier and claim nanoseconds attributed by flight timelines." },
        SolvesRejectedMemoryTotal => ScalarRow { name: "solves_rejected_memory_total", kind: COUNTER, json: "solves_rejected_memory_total", value: U64, help: "Solves rejected by memory-budget admission control." },
        CacheHitsTotal => ScalarRow { name: "cache_hits_total", kind: COUNTER, json: "cache/hits", value: U64, help: "Solves served from the result cache." },
        CacheMissesTotal => ScalarRow { name: "cache_misses_total", kind: COUNTER, json: "cache/misses", value: U64, help: "Solves that missed the cache and executed." },
        CacheCoalescedTotal => ScalarRow { name: "cache_coalesced_total", kind: COUNTER, json: "cache/coalesced", value: U64, help: "Solves coalesced onto in-flight executions." },
        CacheBypassTotal => ScalarRow { name: "cache_bypass_total", kind: COUNTER, json: "cache/bypass", value: U64, help: "Solves that bypassed the cache on request." },
        CacheEvictionsTotal => ScalarRow { name: "cache_evictions_total", kind: COUNTER, json: "cache/evictions", value: U64, help: "Cache entries evicted." },
        ZoneJobsTotal => ScalarRow { name: "zone_jobs_total", kind: COUNTER, json: "zones/jobs", value: U64, help: "Zone-scheduled solves executed." },
        ZoneTasksTotal => ScalarRow { name: "zone_tasks_total", kind: COUNTER, json: "zones/tasks", value: U64, help: "Zone tasks stepped across zone-scheduled solves." },
        CacheEntries => ScalarRow { name: "cache_entries", kind: GAUGE, json: "cache/entries", value: U64, help: "Cache entries currently resident." },
        ZoneShardsLast => ScalarRow { name: "zone_shards_last", kind: GAUGE, json: "zones/shards_last", value: U64, help: "Shards the most recent zone job dispatched over." },
        ZonePeakReadyLast => ScalarRow { name: "zone_peak_ready_last", kind: GAUGE, json: "zones/peak_ready_last", value: U64, help: "Peak ready-queue occupancy of the most recent zone job." },
    }
}

table! {
    /// Labelled family ids.
    Family indexes FAMILIES: [FamilyRow] {
        RequestsByEndpoint => FamilyRow {
            name: "requests_by_endpoint_total",
            label: "endpoint",
            json: "endpoints",
            value: U64,
            labels: || strings(ENDPOINTS),
            fold: Fold::Last,
            help: "Requests routed, by endpoint family.",
        },
        Responses => FamilyRow {
            name: "responses_total",
            label: "status",
            json: "status",
            value: U64,
            labels: || strings(&TRACKED_STATUSES),
            fold: Fold::Drop,
            help: "Responses sent, by status code.",
        },
        SolvesBySolver => FamilyRow {
            name: "solves_by_solver_total",
            label: "solver",
            json: "solves_by_solver",
            value: U64,
            labels: || strings(&solvers::KINDS),
            fold: Fold::First,
            help: "Executed solves, by solver kind.",
        },
        SolvesBySchedule => FamilyRow {
            name: "solves_by_schedule_total",
            label: "schedule",
            json: "solves_by_schedule",
            value: U64,
            labels: || strings(&SCHEDULES),
            fold: Fold::First,
            help: "Executed solves, by requested schedule.",
        },
        KernelSeconds => FamilyRow {
            name: "kernel_seconds_total",
            label: "kernel",
            json: "kernel_seconds",
            value: F64,
            labels: kernel_labels,
            fold: Fold::Last,
            help: "Attributed wall seconds, by kernel.",
        },
    }
}

table! {
    /// Histogram ids.
    Hist indexes HISTOGRAMS: [HistogramRow] {
        LatencyMs => HistogramRow {
            name: "request_latency_ms",
            json: "latency_ms",
            help: "End-to-end request latency in milliseconds.",
            new: Histogram::latency_ms,
        },
        // The distribution a single `queue_depth` gauge cannot show.
        QueueDepths => HistogramRow {
            name: "queue_depth_observed",
            json: "queue_depths",
            help: "Queue depth sampled at each admission attempt.",
            new: Histogram::queue_depth,
        },
    }
}

fn strings<T: ToString>(items: &[T]) -> Vec<String> {
    items.iter().map(ToString::to_string).collect()
}

/// Every served solver's kernel vocabulary in [`solvers::TABLE`] order,
/// then `other` for spans outside it (the serial `bc`/`source` phases).
fn kernel_labels() -> Vec<String> {
    let mut labels: Vec<String> = solvers::TABLE
        .iter()
        .flat_map(|row| strings(row.kernels))
        .collect();
    labels.push("other".to_string());
    labels
}

/// A value as both expositions print it: integers exactly, `f64` in
/// shortest form with infinities as `+Inf`/`-Inf`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reading {
    Int(u64),
    Real(f64),
}

impl Reading {
    fn of(value: Value, cell: &AtomicU64, ctx: &PoolContext) -> Self {
        match value {
            U64 => Reading::Int(cell.load(Ordering::Relaxed)),
            F64 => Reading::Real(f64::from_bits(cell.load(Ordering::Relaxed))),
            Pool(read) => Reading::Int(read(ctx)),
        }
    }

    /// The counter increase from `earlier` to `self`.
    fn minus(self, earlier: Reading) -> Self {
        match (self, earlier) {
            (Reading::Int(now), Reading::Int(then)) => Reading::Int(now.saturating_sub(then)),
            (Reading::Real(now), Reading::Real(then)) => Reading::Real(now - then),
            _ => unreachable!("a row's value keeps its type"),
        }
    }

    fn as_f64(self) -> f64 {
        match self {
            Reading::Int(v) => v as f64,
            Reading::Real(v) => v,
        }
    }

    fn to_json(self) -> Json {
        match self {
            Reading::Int(v) => Json::from_u64(v),
            Reading::Real(v) => Json::Num(v),
        }
    }
}

impl fmt::Display for Reading {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Reading::Int(v) => write!(f, "{v}"),
            Reading::Real(v) if v == f64::INFINITY => f.write_str("+Inf"),
            Reading::Real(v) if v == f64::NEG_INFINITY => f.write_str("-Inf"),
            Reading::Real(v) => write!(f, "{v}"),
        }
    }
}

/// One family's label vocabulary and a cell per label.
#[derive(Debug)]
struct FamilyCells {
    labels: Arc<[String]>,
    cells: Vec<AtomicU64>,
}

/// All service counters and gauges: one cell per table row.
#[derive(Debug)]
pub struct Metrics {
    scalars: [AtomicU64; SCALARS.len()],
    families: [FamilyCells; FAMILIES.len()],
    histograms: [Histogram; HISTOGRAMS.len()],
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Self {
            scalars: std::array::from_fn(|_| AtomicU64::new(0)),
            families: std::array::from_fn(|i| {
                let labels: Arc<[String]> = (FAMILIES[i].labels)().into();
                let cells = labels.iter().map(|_| AtomicU64::new(0)).collect();
                FamilyCells { labels, cells }
            }),
            histograms: std::array::from_fn(|i| (HISTOGRAMS[i].new)()),
        }
    }

    fn cell(&self, id: Scalar) -> &AtomicU64 {
        debug_assert!(
            !matches!(SCALARS[id as usize].value, Pool(_)),
            "{id:?} is read off the PoolContext, not stored"
        );
        &self.scalars[id as usize]
    }

    /// Add one to `id`.
    pub fn inc(&self, id: Scalar) {
        self.add(id, 1);
    }

    /// Take one off gauge `id`.
    pub fn dec(&self, id: Scalar) {
        self.cell(id).fetch_sub(1, Ordering::Relaxed);
    }

    /// Add `n` to `id`.
    pub fn add(&self, id: Scalar, n: u64) {
        self.cell(id).fetch_add(n, Ordering::Relaxed);
    }

    /// Set gauge `id` to `value`.
    pub fn set(&self, id: Scalar, value: u64) {
        self.cell(id).store(value, Ordering::Relaxed);
    }

    /// Current value of integer metric `id`.
    #[must_use]
    pub fn get(&self, id: Scalar) -> u64 {
        self.cell(id).load(Ordering::Relaxed)
    }

    /// The cell of `family`'s slot `idx`; `None` (a label outside the
    /// vocabulary) resolves through the family's [`Fold`].
    fn slot(&self, family: Family, idx: Option<usize>) -> Option<&AtomicU64> {
        let cells = &self.families[family as usize].cells;
        match (idx, FAMILIES[family as usize].fold) {
            (Some(idx), _) => cells.get(idx),
            (None, Fold::First) => cells.first(),
            (None, Fold::Last) => cells.last(),
            (None, Fold::Drop) => None,
        }
    }

    fn slot_of(&self, family: Family, label: &str) -> Option<&AtomicU64> {
        let labels = &self.families[family as usize].labels;
        self.slot(family, labels.iter().position(|l| l == label))
    }

    /// Add one to `family`'s counter for `label`; a label outside the
    /// vocabulary folds as the family's row says.
    pub fn bump(&self, family: Family, label: &str) {
        debug_assert!(matches!(FAMILIES[family as usize].value, U64));
        if let Some(cell) = self.slot_of(family, label) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Add `seconds` to `family`'s `f64` counter for `label`, folding
    /// unknown labels like [`Metrics::bump`].
    pub fn add_seconds(&self, family: Family, label: &str, seconds: f64) {
        debug_assert!(matches!(FAMILIES[family as usize].value, F64));
        if let Some(cell) = self.slot_of(family, label) {
            add_f64(cell, seconds);
        }
    }

    /// Record one observation in `hist`.
    pub fn observe(&self, hist: Hist, value: f64) {
        self.histograms[hist as usize].record(value);
    }

    /// Count one request routed to `endpoint` (see [`ENDPOINTS`]), in
    /// the total and in its family.
    pub fn request(&self, endpoint: &str) {
        self.inc(Scalar::RequestsTotal);
        self.bump(Family::RequestsByEndpoint, endpoint);
    }

    /// Count one response with `status`; a 429 is also a rejection.
    pub fn response(&self, status: u16) {
        let idx = TRACKED_STATUSES.iter().position(|&s| s == status);
        if let Some(cell) = self.slot(Family::Responses, idx) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
        if status == 429 {
            self.inc(Scalar::RejectedTotal);
        }
    }

    /// Fold one completed pool job's observability report totals in.
    /// (A job without a report — advice is pure computation — is just
    /// `inc(Scalar::JobsTotal)`.)
    pub fn job_done(&self, report_sync_events: u64, report_seconds: f64) {
        self.inc(Scalar::JobsTotal);
        self.inc(Scalar::ObsReportsTotal);
        self.add(Scalar::ObsSyncEventsTotal, report_sync_events);
        add_f64(self.cell(Scalar::ObsSecondsTotal), report_seconds);
    }

    /// Fold one zone-scheduled solve's step statistics in: how many
    /// zone shards it dispatched over, how many zone tasks it stepped
    /// across the whole run, and its peak ready zones (`U_zones`, the
    /// zone count of a chain). The shard and peak gauges keep the last
    /// value — the queue picture of the most recent zone job.
    pub fn zone_job(&self, shards: u64, zone_tasks: u64, peak_ready: u64) {
        self.inc(Scalar::ZoneJobsTotal);
        self.add(Scalar::ZoneTasksTotal, zone_tasks);
        self.set(Scalar::ZoneShardsLast, shards);
        self.set(Scalar::ZonePeakReadyLast, peak_ready);
    }

    /// Count `n` evicted cache entries and set the resident-entry gauge.
    pub fn cache_evicted(&self, n: u64, entries: usize) {
        self.add(Scalar::CacheEvictionsTotal, n);
        self.set(Scalar::CacheEntries, entries as u64);
    }

    /// Copy every cell out, reading the pool's rows off `ctx`.
    #[must_use]
    pub fn snapshot(&self, ctx: &PoolContext) -> Snapshot {
        Snapshot {
            scalars: std::array::from_fn(|i| Reading::of(SCALARS[i].value, &self.scalars[i], ctx)),
            families: std::array::from_fn(|i| {
                let family = &self.families[i];
                let readings = family
                    .cells
                    .iter()
                    .map(|cell| Reading::of(FAMILIES[i].value, cell, ctx))
                    .collect();
                (Arc::clone(&family.labels), readings)
            }),
            histograms: std::array::from_fn(|i| self.histograms[i].snapshot()),
        }
    }
}

/// Every cell of the table, copied at one instant. Both expositions
/// render one, and so does a telemetry window: the difference of two.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    scalars: [Reading; SCALARS.len()],
    /// Per family, its label vocabulary and a reading per label.
    families: [(Arc<[String]>, Vec<Reading>); FAMILIES.len()],
    histograms: [Buckets; HISTOGRAMS.len()],
}

impl Snapshot {
    /// What happened after `earlier`, a snapshot of the same table:
    /// counters, families and histograms are differences; gauges keep
    /// their value here, at the later end.
    #[must_use]
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            scalars: std::array::from_fn(|i| {
                let now = self.scalars[i];
                if SCALARS[i].kind == GAUGE {
                    now
                } else {
                    now.minus(earlier.scalars[i])
                }
            }),
            families: std::array::from_fn(|i| {
                let ((labels, now), (_, then)) = (&self.families[i], &earlier.families[i]);
                let delta = now.iter().zip(then).map(|(n, t)| n.minus(*t)).collect();
                (Arc::clone(labels), delta)
            }),
            histograms: std::array::from_fn(|i| self.histograms[i].since(&earlier.histograms[i])),
        }
    }

    /// The pooled synchronization share Σ sync_ns / Σ busy_ns over every
    /// attributed solve counted here — one
    /// `AttributionReport::sync_fraction` over all of their timelines.
    /// `None` when nothing was attributed.
    #[must_use]
    pub fn sync_fraction(&self) -> Option<f64> {
        let sync = self.scalars[Scalar::ObsSyncNsTotal as usize].as_f64();
        let busy = self.scalars[Scalar::ObsBusyNsTotal as usize].as_f64();
        (busy > 0.0).then(|| sync / busy)
    }

    /// Render as a JSON document: each scalar at its path, each family
    /// as a `{label: value}` object, each histogram under its key.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut doc: Vec<(String, Json)> = Vec::new();
        for (row, value) in SCALARS.iter().zip(&self.scalars) {
            let value = value.to_json();
            match row.json.split_once('/') {
                None => doc.push((row.json.to_string(), value)),
                Some((group, key)) => group_of(&mut doc, group).push((key.to_string(), value)),
            }
        }
        for (row, (labels, readings)) in FAMILIES.iter().zip(&self.families) {
            let members = labels
                .iter()
                .zip(readings)
                .map(|(label, value)| (label.clone(), value.to_json()))
                .collect();
            doc.push((row.json.to_string(), Json::Object(members)));
        }
        for (row, buckets) in HISTOGRAMS.iter().zip(&self.histograms) {
            doc.push((row.json.to_string(), buckets.to_json()));
        }
        Json::Object(doc)
    }

    /// Render in the Prometheus text exposition format (version 0.0.4):
    /// one `# TYPE`d family per row, in table order, the histograms as
    /// cumulative `_bucket` / `_sum` / `_count` series.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        // Writing to a `String` cannot fail, hence the dropped results.
        let mut out = String::with_capacity(8192);
        let header = |out: &mut String, name: &str, kind: &str, help: &str| {
            let _ = write!(
                out,
                "# HELP llpd_{name} {help}\n# TYPE llpd_{name} {kind}\n"
            );
        };
        for (row, value) in SCALARS.iter().zip(&self.scalars) {
            header(&mut out, row.name, row.kind, row.help);
            let _ = writeln!(out, "llpd_{} {value}", row.name);
        }
        for (row, (labels, readings)) in FAMILIES.iter().zip(&self.families) {
            header(&mut out, row.name, COUNTER, row.help);
            for (label, value) in labels.iter().zip(readings) {
                let _ = writeln!(
                    out,
                    "llpd_{}{{{}=\"{label}\"}} {value}",
                    row.name, row.label
                );
            }
        }
        for (row, buckets) in HISTOGRAMS.iter().zip(&self.histograms) {
            header(&mut out, row.name, "histogram", row.help);
            for (bound, cumulative) in buckets.cumulative() {
                let le = Reading::Real(bound);
                let _ = writeln!(out, "llpd_{}_bucket{{le=\"{le}\"}} {cumulative}", row.name);
            }
            let sum = Reading::Real(buckets.sum());
            let _ = writeln!(out, "llpd_{}_sum {sum}", row.name);
            let _ = writeln!(out, "llpd_{}_count {}", row.name, buckets.count());
        }
        out
    }
}

/// The member list of `doc`'s `group` object, appended on first use.
fn group_of<'a>(doc: &'a mut Vec<(String, Json)>, group: &str) -> &'a mut Vec<(String, Json)> {
    let idx = doc.iter().position(|(k, _)| k == group).unwrap_or_else(|| {
        doc.push((group.to_string(), Json::Object(Vec::new())));
        doc.len() - 1
    });
    match &mut doc[idx].1 {
        Json::Object(members) => members,
        _ => unreachable!("`{group}` is both a scalar path and a group"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const CTX: PoolContext = PoolContext {
        pool_workers: 4,
        executor_shards: 2,
        pool_sync_events: 36,
        pool_regions: 19,
    };

    /// Recursively sort object members: documents compare as parsed
    /// JSON, where member order carries no meaning.
    fn canonical(json: &Json) -> Json {
        match json {
            Json::Object(members) => {
                let mut members: Vec<_> = members
                    .iter()
                    .map(|(k, v)| (k.clone(), canonical(v)))
                    .collect();
                members.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Object(members)
            }
            Json::Array(items) => Json::Array(items.iter().map(canonical).collect()),
            other => other.clone(),
        }
    }

    /// The JSON value at a table path (`key` or `group/key`).
    fn at<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
        path.split('/').try_fold(doc, |j, key| j.get(key))
    }

    /// The golden files were written by the hand-rolled renderer this
    /// table replaced, driven by the same script (through its named
    /// bump methods): every scalar, every family including a label
    /// outside its vocabulary, both histograms. The two attribution
    /// rows (`obs_sync_ns_total`, `obs_busy_ns_total`) came later and
    /// are the goldens' only additions.
    #[test]
    fn expositions_match_the_goldens_of_the_hand_written_renderer() {
        let m = Metrics::new();
        for endpoint in ["solve", "solve", "solve", "metrics", "nonsense"] {
            m.request(endpoint);
        }
        for status in [200, 200, 413, 429, 999] {
            m.response(status);
        }
        m.add(Scalar::TimeoutsTotal, 2);
        m.set(Scalar::QueueDepth, 7);
        m.add(Scalar::ExecutorBusy, 3);
        m.dec(Scalar::ExecutorBusy);
        m.inc(Scalar::ExecutorPanicsTotal);
        m.add(Scalar::OpenConnections, 4);
        m.dec(Scalar::OpenConnections);
        m.inc(Scalar::JobsTotal);
        m.job_done(18, 0.25);
        m.job_done(36, 0.5);
        m.add(Scalar::ObsSyncNsTotal, 40);
        m.add(Scalar::ObsBusyNsTotal, 4000);
        m.zone_job(2, 12, 4);
        m.zone_job(4, 16, 3);
        for kind in ["f3d", "fdtd", "fdtd", "nonsense"] {
            m.bump(Family::SolvesBySolver, kind);
        }
        m.inc(Scalar::SolvesRejectedMemoryTotal);
        for schedule in ["dynamic", "auto", "auto", "weird"] {
            m.bump(Family::SolvesBySchedule, schedule);
        }
        for (kernel, seconds) in [
            ("rhs_jk", 0.5),
            ("rhs_jk", 0.25),
            ("l_factor_solve", 1.5),
            ("update_e", 0.0625),
            ("no_such_kernel", 0.125),
        ] {
            m.add_seconds(Family::KernelSeconds, kernel, seconds);
        }
        m.add(Scalar::CacheHitsTotal, 6);
        m.add(Scalar::CacheMissesTotal, 5);
        m.add(Scalar::CacheCoalescedTotal, 4);
        m.add(Scalar::CacheBypassTotal, 2);
        m.cache_evicted(9, 11);
        for ms in [0.7, 3.0, 40.0, 700.0] {
            m.observe(Hist::LatencyMs, ms);
        }
        m.observe(Hist::QueueDepths, 0.0);
        m.observe(Hist::QueueDepths, 5.0);

        assert_eq!(
            m.snapshot(&CTX).to_prometheus(),
            include_str!("../tests/golden/metrics.prom"),
            "Prometheus exposition must stay byte-for-byte"
        );
        let golden = Json::parse(include_str!("../tests/golden/metrics.json")).unwrap();
        assert_eq!(canonical(&m.snapshot(&CTX).to_json()), canonical(&golden));
    }

    #[test]
    fn table_names_and_paths_are_unique_and_every_row_renders_twice() {
        let m = Metrics::new();
        let text = m.snapshot(&CTX).to_prometheus();
        let doc = m.snapshot(&CTX).to_json();
        let rows = SCALARS
            .iter()
            .map(|r| (r.name, r.kind, r.json))
            .chain(FAMILIES.iter().map(|r| (r.name, "counter", r.json)))
            .chain(HISTOGRAMS.iter().map(|r| (r.name, "histogram", r.json)));
        let (mut names, mut paths) = (HashSet::new(), HashSet::new());
        for (name, kind, path) in rows {
            assert!(names.insert(name), "duplicate Prometheus name {name}");
            assert!(paths.insert(path), "duplicate JSON path {path}");
            assert_eq!(
                kind == "counter",
                name.ends_with("_total"),
                "{name}: exactly the counters end in _total"
            );
            assert!(
                text.contains(&format!("# TYPE llpd_{name} {kind}\nllpd_{name}")),
                "{name} missing from the Prometheus exposition"
            );
            assert!(at(&doc, path).is_some(), "{path} missing from the JSON");
        }
        for (row, family) in FAMILIES.iter().zip(&m.families) {
            let distinct: HashSet<_> = family.labels.iter().collect();
            assert_eq!(distinct.len(), family.labels.len(), "{}", row.name);
        }
    }

    #[test]
    fn every_solver_kernel_has_its_own_seconds_bucket() {
        for row in &solvers::TABLE {
            for name in row.kernels {
                let m = Metrics::new();
                m.add_seconds(Family::KernelSeconds, name, 0.5);
                let doc = m.snapshot(&CTX).to_json();
                let kernels = doc.get("kernel_seconds").unwrap();
                assert_eq!(kernels.get(name).and_then(Json::as_f64), Some(0.5));
                assert_eq!(kernels.get("other").and_then(Json::as_f64), Some(0.0));
                assert!(m.snapshot(&CTX).to_prometheus().contains(&format!(
                    "llpd_kernel_seconds_total{{kernel=\"{name}\"}} 0.5\n"
                )));
            }
        }
    }

    #[test]
    fn a_429_is_also_a_rejection_and_an_untracked_status_is_dropped() {
        let m = Metrics::new();
        m.response(200);
        m.response(429);
        m.response(418);
        assert_eq!(m.get(Scalar::RejectedTotal), 1);
        let doc = m.snapshot(&CTX).to_json();
        let status = doc.get("status").unwrap();
        assert_eq!(status.get("200").unwrap().as_u64(), Some(1));
        assert_eq!(status.get("429").unwrap().as_u64(), Some(1));
        let counted: u64 = status
            .as_object()
            .unwrap()
            .iter()
            .map(|(_, v)| v.as_u64().unwrap())
            .sum();
        assert_eq!(counted, 2);
    }

    #[test]
    fn unknown_labels_fold_into_the_slot_their_row_names() {
        let m = Metrics::new();
        m.request("nonsense");
        m.bump(Family::Responses, "999");
        m.bump(Family::SolvesBySolver, "nonsense");
        m.bump(Family::SolvesBySchedule, "weird");
        m.add_seconds(Family::KernelSeconds, "bc", 0.125);
        let doc = m.snapshot(&CTX).to_json();
        for (path, expect) in [
            ("requests_total", 1.0),
            ("endpoints/other", 1.0),
            ("solves_by_solver/f3d", 1.0),
            ("solves_by_schedule/static", 1.0),
            ("kernel_seconds/other", 0.125),
        ] {
            assert_eq!(
                at(&doc, path).and_then(Json::as_f64),
                Some(expect),
                "{path}"
            );
        }
        let responses = doc.get("status").unwrap().as_object().unwrap();
        assert!(responses.iter().all(|(_, v)| v.as_u64() == Some(0)));
    }

    #[test]
    fn gauges_move_both_ways() {
        let m = Metrics::new();
        m.set(Scalar::QueueDepth, 3);
        m.inc(Scalar::ExecutorBusy);
        m.inc(Scalar::ExecutorBusy);
        m.inc(Scalar::OpenConnections);
        m.inc(Scalar::OpenConnections);
        m.dec(Scalar::OpenConnections);
        let j = m.snapshot(&CTX).to_json();
        assert_eq!(j.get("queue_depth").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("executor_busy").unwrap().as_u64(), Some(2));
        assert_eq!(m.get(Scalar::ExecutorBusy), 2);
        assert_eq!(j.get("open_connections").unwrap().as_u64(), Some(1));
        m.set(Scalar::QueueDepth, 0);
        m.dec(Scalar::ExecutorBusy);
        m.dec(Scalar::ExecutorBusy);
        let j = m.snapshot(&CTX).to_json();
        assert_eq!(j.get("queue_depth").unwrap().as_u64(), Some(0));
        assert_eq!(j.get("executor_busy").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn prometheus_lines_parse_and_histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.observe(Hist::LatencyMs, 3.0);
        m.observe(Hist::LatencyMs, 700.0);
        let text = m.snapshot(&CTX).to_prometheus();
        assert!(text.contains("llpd_request_latency_ms_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("llpd_request_latency_ms_count 2\n"));
        assert!(text.contains("llpd_request_latency_ms_sum 703\n"));
        let mut last = 0u64;
        let mut buckets = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("llpd_request_latency_ms_bucket{le=\"") {
                let count: u64 = rest.split("} ").nth(1).unwrap().parse().unwrap();
                assert!(count >= last, "buckets must be cumulative: {line}");
                last = count;
                buckets += 1;
            }
        }
        assert!(buckets > 2, "expected a bucket ladder");
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').unwrap();
            assert!(name.starts_with("llpd_"), "{line}");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "unparseable value in {line}"
            );
        }
    }
}
