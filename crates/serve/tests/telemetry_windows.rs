//! `/v1/stats` windows are differences of `/metrics` snapshots.
//!
//! The property drives random interleavings of metric events and clock
//! ticks — quiet gaps, far jumps, more windows than the ring holds —
//! and checks every retained window three ways: it is the difference
//! of the snapshots the ring took at its two boundaries; its counters
//! and histograms equal those of a fresh table fed only that window's
//! events (so its p50/p99 are those of a histogram fed only its
//! observations), with gauges at their value at the window's end; and,
//! while nothing has been evicted, each counter summed over the windows
//! equals its cumulative value at the last seal. Event values are
//! dyadic, so the `f64` sums are exact and every comparison is `==`.
//! The named tests below pin the ring's behaviours one at a time.

use llp::obs::json::Json;
use proptest::prelude::*;
use proptest::strategy::Rejected;
use proptest::test_runner::TestRng;
use serve::hist::Histogram;
use serve::metrics::{Family, Hist, Metrics, PoolContext, Scalar, Snapshot, TRACKED_STATUSES};
use serve::telemetry::{Windows, SCHEMA_VERSION};
use std::collections::BTreeMap;

/// The pool values `/metrics` reads off the server, with `n` sync
/// events (half as many regions) executed.
fn ctx(n: u64) -> PoolContext {
    PoolContext {
        pool_workers: 2,
        executor_shards: 1,
        pool_sync_events: n,
        pool_regions: n / 2,
    }
}

/// JSON paths of the gauges: a window carries their value at its end.
const GAUGES: [&str; 8] = [
    "queue_depth",
    "executor_busy",
    "executor_shards",
    "open_connections",
    "pool_workers",
    "cache/entries",
    "zones/shards_last",
    "zones/peak_ready_last",
];

/// Members a window adds around the `/metrics` keys.
const WINDOW_KEYS: [&str; 4] = ["index", "start_ms", "end_ms", "sync_fraction"];

/// `json`'s leaves by `/`-joined path (array items by position).
fn leaves(json: &Json) -> BTreeMap<String, Json> {
    fn walk(json: &Json, path: &str, out: &mut BTreeMap<String, Json>) {
        let join = |key: &str| {
            if path.is_empty() {
                key.to_string()
            } else {
                format!("{path}/{key}")
            }
        };
        match json {
            Json::Object(members) => members.iter().for_each(|(k, v)| walk(v, &join(k), out)),
            Json::Array(items) => items
                .iter()
                .enumerate()
                .for_each(|(i, v)| walk(v, &join(&i.to_string()), out)),
            leaf => {
                out.insert(path.to_string(), leaf.clone());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(json, "", &mut out);
    out
}

/// A counter path: it telescopes. Gauges, quantiles and bucket bounds
/// do not.
fn is_counter(path: &str) -> bool {
    !GAUGES.contains(&path)
        && !path.ends_with("/p50")
        && !path.ends_with("/p99")
        && !path.ends_with("/le")
}

fn request(m: &Metrics, endpoint: &str, status: u16, latency_ms: f64) {
    m.request(endpoint);
    m.response(status);
    m.observe(Hist::LatencyMs, latency_ms);
}

#[derive(Debug, Clone)]
enum Op {
    Request {
        endpoint: &'static str,
        status: u16,
        latency_ms: f64,
    },
    Cache {
        hit: bool,
    },
    Solve {
        kind: &'static str,
        kernel: &'static str,
        seconds: f64,
        sync_ns: u64,
        busy_ns: u64,
    },
    ZoneJob {
        shards: u64,
        tasks: u64,
        peak: u64,
    },
    Queue(u64),
    /// Move the clock forward this many milliseconds, then tick.
    Advance(u64),
}

/// Pool sync events one solve executes.
const SOLVE_SYNC_EVENTS: u64 = 6;

impl Op {
    /// Count this event in `m`.
    fn apply(&self, m: &Metrics) {
        match *self {
            Op::Request {
                endpoint,
                status,
                latency_ms,
            } => request(m, endpoint, status, latency_ms),
            Op::Cache { hit } => m.inc(if hit {
                Scalar::CacheHitsTotal
            } else {
                Scalar::CacheMissesTotal
            }),
            Op::Solve {
                kind,
                kernel,
                seconds,
                sync_ns,
                busy_ns,
            } => {
                m.job_done(SOLVE_SYNC_EVENTS, seconds);
                m.bump(Family::SolvesBySolver, kind);
                m.add_seconds(Family::KernelSeconds, kernel, seconds);
                m.add(Scalar::ObsSyncNsTotal, sync_ns);
                m.add(Scalar::ObsBusyNsTotal, busy_ns);
            }
            Op::ZoneJob {
                shards,
                tasks,
                peak,
            } => m.zone_job(shards, tasks, peak),
            Op::Queue(depth) => {
                m.set(Scalar::QueueDepth, depth);
                m.observe(Hist::QueueDepths, depth as f64);
            }
            Op::Advance(_) => {}
        }
    }

    fn pool_events(&self) -> u64 {
        match self {
            Op::Solve { .. } => SOLVE_SYNC_EVENTS,
            _ => 0,
        }
    }
}

const WINDOW_MS: u64 = 10;
const CAPACITY: usize = 5;

#[derive(Debug, Clone, Copy)]
struct OpsStrategy;

impl Strategy for OpsStrategy {
    type Value = Vec<Op>;
    fn generate(&self, rng: &mut TestRng) -> Result<Vec<Op>, Rejected> {
        let pick = |rng: &mut TestRng, items: &[&'static str]| {
            items[rng.gen_u64(0, items.len() as u64) as usize]
        };
        let len = rng.gen_u64(1, 120);
        Ok((0..len)
            .map(|_| match rng.gen_u64(0, 40) {
                0..=11 => Op::Request {
                    endpoint: pick(rng, &["solve", "metrics", "stats", "nonsense"]),
                    status: TRACKED_STATUSES[rng.gen_u64(0, 10) as usize],
                    // Eighths of a millisecond up to 25 ms, and now and
                    // then past the ladder's last bound.
                    latency_ms: if rng.gen_u64(0, 10) == 0 {
                        rng.gen_u64(10_000, 20_000) as f64
                    } else {
                        rng.gen_u64(0, 200) as f64 / 8.0
                    },
                },
                12..=15 => Op::Cache {
                    hit: rng.gen_u64(0, 2) == 0,
                },
                16..=20 => {
                    let busy_ns = rng.gen_u64(1, 1_000_000);
                    Op::Solve {
                        kind: pick(rng, &["f3d", "fdtd"]),
                        kernel: pick(rng, &["rhs_jk", "l_factor_solve", "update_e", "bc"]),
                        seconds: rng.gen_u64(0, 256) as f64 / 64.0,
                        sync_ns: rng.gen_u64(0, busy_ns + 1),
                        busy_ns,
                    }
                }
                21 | 22 => Op::ZoneJob {
                    shards: rng.gen_u64(1, 5),
                    tasks: rng.gen_u64(1, 40),
                    peak: rng.gen_u64(1, 5),
                },
                23 | 24 => Op::Queue(rng.gen_u64(0, 70)),
                25..=36 => Op::Advance(rng.gen_u64(0, WINDOW_MS)),
                // A quiet gap of several windows.
                37 | 38 => Op::Advance(rng.gen_u64(WINDOW_MS, 4 * WINDOW_MS)),
                // A jump past everything the ring can hold.
                _ => Op::Advance(rng.gen_u64(
                    (CAPACITY as u64 + 2) * WINDOW_MS,
                    (CAPACITY as u64 + 20) * WINDOW_MS,
                )),
            })
            .collect())
    }
}

/// What the test knows independently of the ring.
struct Model {
    /// Index of the open window.
    open: u64,
    /// The snapshot taken at each retained window boundary.
    boundaries: BTreeMap<u64, Snapshot>,
    /// Each retained sealed window's events (absent: none).
    events: BTreeMap<u64, Vec<Op>>,
}

/// The ring's view of the retained windows against the model.
fn check(windows: &Windows, model: &Model) -> Result<(), TestCaseError> {
    let doc = windows.to_json(usize::MAX);
    prop_assert_eq!(doc.get("schema_version"), Some(&Json::from_u64(2)));
    prop_assert_eq!(doc.get("windows_sealed"), Some(&Json::from_u64(model.open)));
    let rendered = doc.get("windows").and_then(Json::as_array).unwrap();
    let retained = model.open.min(CAPACITY as u64);
    prop_assert_eq!(rendered.len() as u64, retained);
    for (k, window) in rendered.iter().enumerate() {
        let j = model.open - retained + k as u64;
        prop_assert_eq!(window.get("index"), Some(&Json::from_u64(j)));
        prop_assert_eq!(window.get("start_ms"), Some(&Json::from_u64(j * WINDOW_MS)));
        prop_assert_eq!(
            window.get("end_ms"),
            Some(&Json::from_u64((j + 1) * WINDOW_MS))
        );
        let mut keys = leaves(window);
        keys.retain(|path, _| !WINDOW_KEYS.contains(&path.as_str()));

        // The difference of the snapshots at its boundaries.
        let (start, end) = (&model.boundaries[&j], &model.boundaries[&(j + 1)]);
        let diff = end.since(start);
        prop_assert_eq!(&keys, &leaves(&diff.to_json()), "window {}", j);
        let sync = window.get("sync_fraction").unwrap();
        prop_assert_eq!(sync, &diff.sync_fraction().map_or(Json::Null, Json::Num));

        // Exactly this window's events; gauges as they stood at its end.
        let events = model.events.get(&j).map_or(&[][..], Vec::as_slice);
        let fed = Metrics::new();
        events.iter().for_each(|op| op.apply(&fed));
        let pool = events.iter().map(Op::pool_events).sum();
        let fed = leaves(&fed.snapshot(&ctx(pool)).to_json());
        let at_end = leaves(&end.to_json());
        for (path, value) in &keys {
            let want = if is_counter(path) || path.ends_with("/p50") || path.ends_with("/p99") {
                &fed[path]
            } else {
                &at_end[path]
            };
            prop_assert_eq!(value, want, "window {} at {}", j, path);
        }
        let latency = Histogram::latency_ms();
        let (mut sync_ns, mut busy_ns) = (0u64, 0u64);
        for op in events {
            match *op {
                Op::Request { latency_ms, .. } => latency.record(latency_ms),
                Op::Solve {
                    sync_ns: s,
                    busy_ns: b,
                    ..
                } => (sync_ns, busy_ns) = (sync_ns + s, busy_ns + b),
                _ => {}
            }
        }
        let latency = latency.snapshot();
        for (q, key) in [(0.5, "latency_ms/p50"), (0.99, "latency_ms/p99")] {
            prop_assert_eq!(
                &keys[key],
                &latency.quantile(q).map_or(Json::Null, Json::Num)
            );
        }
        let pooled = (busy_ns > 0).then(|| sync_ns as f64 / busy_ns as f64);
        prop_assert_eq!(sync, &pooled.map_or(Json::Null, Json::Num));
    }

    // Nothing evicted yet: the windows telescope to the last seal.
    if model.open > 0 && model.open <= CAPACITY as u64 {
        let cumulative = leaves(&model.boundaries[&model.open].to_json());
        let windows: Vec<_> = rendered.iter().map(leaves).collect();
        for (path, total) in cumulative.iter().filter(|(p, _)| is_counter(p)) {
            let sum: f64 = windows.iter().map(|w| w[path].as_f64().unwrap()).sum();
            prop_assert_eq!(Some(sum), total.as_f64(), "{} telescopes", path);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn windows_are_snapshot_differences_and_telescope(ops in OpsStrategy) {
        let metrics = Metrics::new();
        let origin = metrics.snapshot(&ctx(0));
        let windows = Windows::new(WINDOW_MS, CAPACITY, origin.clone());
        let mut model = Model {
            open: 0,
            boundaries: BTreeMap::from([(0, origin)]),
            events: BTreeMap::new(),
        };
        let (mut now, mut pool, mut pending) = (0u64, 0u64, Vec::new());
        for op in ops {
            let Op::Advance(dt) = op else {
                op.apply(&metrics);
                pool += op.pool_events();
                pending.push(op);
                continue;
            };
            now += dt;
            let mut taken = None;
            let sealed = windows.tick(now, || {
                let snapshot = metrics.snapshot(&ctx(pool));
                taken = Some(snapshot.clone());
                snapshot
            });
            let due = now / WINDOW_MS - model.open;
            prop_assert_eq!(sealed, due);
            prop_assert_eq!(taken.is_some(), due > 0, "a snapshot exactly when a window seals");
            if let Some(snapshot) = taken {
                // What happened since the last seal is the first sealed
                // window's; the rest of the gap is empty.
                model.events.insert(model.open, std::mem::take(&mut pending));
                let open = model.open + due;
                let oldest = open.saturating_sub(CAPACITY as u64);
                for j in (model.open + 1).max(oldest)..=open {
                    model.boundaries.insert(j, snapshot.clone());
                }
                model.boundaries.retain(|&j, _| j >= oldest);
                model.events.retain(|&j, _| j >= oldest);
                model.open = open;
                check(&windows, &model)?;
            }
        }
    }
}

#[test]
fn the_gauge_list_names_every_gauge() {
    let text = Metrics::new().snapshot(&ctx(0)).to_prometheus();
    let gauges = text
        .lines()
        .filter(|l| l.starts_with("# TYPE ") && l.ends_with(" gauge"))
        .count();
    assert_eq!(gauges, GAUGES.len());
}

/// A metrics table and a ring over it, ticked on a test clock.
struct Rig {
    metrics: Metrics,
    windows: Windows,
}

impl Rig {
    fn new(window_ms: u64, capacity: usize) -> Self {
        let metrics = Metrics::new();
        let windows = Windows::new(window_ms, capacity, metrics.snapshot(&ctx(0)));
        Self { metrics, windows }
    }

    fn request(&self) {
        request(&self.metrics, "solve", 200, 1.0);
    }

    fn tick(&self, now_ms: u64) -> u64 {
        self.windows.tick(now_ms, || self.metrics.snapshot(&ctx(0)))
    }

    fn windows(&self, newest: usize) -> Vec<Json> {
        let doc = self.windows.to_json(newest);
        doc.get("windows")
            .and_then(Json::as_array)
            .unwrap()
            .to_vec()
    }
}

fn at<'a>(json: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('/').try_fold(json, |j, key| j.get(key))
}

#[test]
fn windows_seal_on_boundaries_and_aggregate() {
    let rig = Rig::new(100, 8);
    let m = &rig.metrics;
    request(m, "solve", 200, 3.0);
    request(m, "solve", 200, 7.0);
    request(m, "solve", 429, 0.4);
    m.inc(Scalar::CacheHitsTotal);
    m.inc(Scalar::CacheMissesTotal);
    m.job_done(18, 0.25);
    m.bump(Family::SolvesBySolver, "f3d");
    m.add_seconds(Family::KernelSeconds, "rhs_jk", 0.2);
    m.add_seconds(Family::KernelSeconds, "update", 0.05);
    m.add(Scalar::ObsSyncNsTotal, 500);
    m.add(Scalar::ObsBusyNsTotal, 1000);
    m.zone_job(2, 4, 3);
    assert_eq!(rig.tick(99), 0, "window not over yet");
    assert_eq!(rig.tick(100), 1, "boundary seals");
    let w = &rig.windows(10)[0];
    for (path, want) in [
        ("index", 0.0),
        ("requests_total", 3.0),
        ("rejected_total", 1.0),
        ("status/200", 2.0),
        ("status/429", 1.0),
        ("latency_ms/count", 3.0),
        ("latency_ms/p50", 5.0),
        ("cache/hits", 1.0),
        ("cache/misses", 1.0),
        ("jobs_total", 1.0),
        ("solves_by_solver/f3d", 1.0),
        ("kernel_seconds/rhs_jk", 0.2),
        ("sync_fraction", 0.5),
        ("zones/jobs", 1.0),
        ("zones/tasks", 4.0),
    ] {
        assert_eq!(at(w, path).and_then(Json::as_f64), Some(want), "{path}");
    }
}

#[test]
fn quiet_gaps_seal_empty_windows() {
    let rig = Rig::new(10, 16);
    rig.request();
    assert_eq!(rig.tick(35), 3);
    let windows = rig.windows(16);
    assert_eq!(windows.len(), 3);
    let requests = |w: &Json| w.get("requests_total").and_then(Json::as_u64);
    assert_eq!(requests(&windows[0]), Some(1));
    assert_eq!(requests(&windows[1]), Some(0));
    assert_eq!(windows[2].get("start_ms").and_then(Json::as_u64), Some(20));
    assert_eq!(windows[2].get("sync_fraction"), Some(&Json::Null));
}

#[test]
fn ring_evicts_oldest_beyond_capacity() {
    let rig = Rig::new(10, 4);
    for i in 0..8u64 {
        rig.request();
        rig.tick((i + 1) * 10);
    }
    assert_eq!(rig.windows.windows_sealed(), 8);
    let windows = rig.windows(100);
    assert_eq!(windows.len(), 4);
    assert_eq!(windows[0].get("index").and_then(Json::as_u64), Some(4));
    assert_eq!(windows[3].get("index").and_then(Json::as_u64), Some(7));
}

#[test]
fn far_clock_jump_fast_forwards_without_materializing() {
    let rig = Rig::new(10, 4);
    rig.request();
    assert_eq!(rig.tick(1_000_000), 100_000);
    assert_eq!(rig.windows.windows_sealed(), 100_000);
    assert!(rig.windows(100).len() <= 4);
    // The open window resumes at the correct boundary.
    rig.request();
    rig.tick(1_000_010);
    let windows = rig.windows(100);
    let last = windows.last().unwrap();
    assert_eq!(last.get("start_ms").and_then(Json::as_u64), Some(1_000_000));
    assert_eq!(last.get("requests_total").and_then(Json::as_u64), Some(1));
}

#[test]
fn snapshot_limits_to_requested_windows() {
    let rig = Rig::new(10, 8);
    for i in 0..6u64 {
        rig.tick((i + 1) * 10);
    }
    let doc = rig.windows.to_json(2);
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(SCHEMA_VERSION)
    );
    let windows = doc.get("windows").and_then(Json::as_array).unwrap();
    assert_eq!(windows.len(), 2);
    assert_eq!(windows[1].get("index").and_then(Json::as_u64), Some(5));
}
