//! Chrome trace-event export: render a drained [`Timeline`] as the
//! JSON Object Format understood by `chrome://tracing` and Perfetto.
//!
//! Each worker lane becomes one thread track (`tid` = lane) of complete
//! (`"ph": "X"`) slices: `chunk N` slices for compute, `barrier` and
//! `claim` slices for synchronization waits, instant (`"ph": "i"`)
//! markers for claim misses. The coordinator's region log becomes a
//! `regions` track above the lanes. Timestamps are microseconds from
//! the recorder's epoch (the trace-event format's native unit), emitted
//! in non-decreasing order per track.

use crate::obs::attr::AttributionReport;
use crate::obs::json::Json;
use crate::obs::timeline::{EventKind, Timeline, TimelineEvent};

/// `tid` used for the coordinator/regions track (lanes use their own
/// index, so the track sits above every lane that can exist).
const REGION_TRACK: u64 = 10_000;

fn us(ns: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        ns as f64 / 1_000.0
    }
}

/// One complete-slice event.
fn slice(
    name: &str,
    cat: &str,
    ts_ns: u64,
    dur_ns: u64,
    tid: u64,
    args: Vec<(&str, Json)>,
) -> Json {
    Json::object(vec![
        ("name", Json::str(name)),
        ("cat", Json::str(cat)),
        ("ph", Json::str("X")),
        ("ts", Json::Num(us(ts_ns))),
        ("dur", Json::Num(us(dur_ns))),
        ("pid", Json::from_u64(1)),
        ("tid", Json::from_u64(tid)),
        ("args", Json::object(args)),
    ])
}

/// One thread-name metadata event.
fn thread_name(tid: u64, name: &str) -> Json {
    Json::object(vec![
        ("name", Json::str("thread_name")),
        ("ph", Json::str("M")),
        ("pid", Json::from_u64(1)),
        ("tid", Json::from_u64(tid)),
        ("args", Json::object(vec![("name", Json::str(name))])),
    ])
}

/// Render `timeline` as a Chrome trace-event JSON document
/// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
///
/// Every interval of a lane becomes one slice, in ring order. A lane's
/// intervals never overlap, so within every worker track the slice
/// `ts` values are monotonically non-decreasing — which is what the
/// serve integration test asserts on the `?trace=chrome` download.
#[must_use]
pub fn chrome_trace(timeline: &Timeline) -> Json {
    let mut events: Vec<Json> = vec![thread_name(REGION_TRACK, "coordinator (regions)")];
    for region in &timeline.regions {
        events.push(slice(
            &format!("region {} ({})", region.seq, region.policy),
            "region",
            region.start_ns,
            region.wall_ns(),
            REGION_TRACK,
            vec![
                ("iterations", Json::from_u64(region.iterations)),
                ("chunks", Json::from_usize(region.chunks)),
                ("lanes", Json::from_usize(region.lanes)),
                ("workers", Json::from_usize(region.workers)),
                ("policy", Json::str(region.policy)),
            ],
        ));
    }
    for (lane, data) in timeline.lanes.iter().enumerate() {
        let tid = lane as u64;
        events.push(thread_name(tid, &format!("worker {lane}")));
        for e in &data.events {
            let region = ("region", Json::from_u64(e.region()));
            let wait = ("wait_ns", Json::from_u64(e.dur_ns()));
            let (name, cat, args) = match e.kind() {
                EventKind::Chunk => (
                    format!("chunk {}", e.arg),
                    "compute",
                    vec![("chunk", Json::from_u64(e.arg)), region],
                ),
                EventKind::Claim => ("claim".to_string(), "sync", vec![wait, region]),
                EventKind::Barrier => ("barrier".to_string(), "sync", vec![wait, region]),
                EventKind::Zone => (
                    format!("zone {}", e.arg),
                    "zone",
                    vec![
                        ("zone", Json::from_u64(e.arg)),
                        ("step", Json::from_u64(e.region())),
                    ],
                ),
            };
            events.push(slice(&name, cat, e.start_ns, e.dur_ns(), tid, args));
            if e.kind() == EventKind::Claim && e.arg == TimelineEvent::NO_CHUNK {
                events.push(Json::object(vec![
                    ("name", Json::str("claim miss")),
                    ("cat", Json::str("sync")),
                    ("ph", Json::str("i")),
                    ("s", Json::str("t")),
                    ("ts", Json::Num(us(e.end_ns))),
                    ("pid", Json::from_u64(1)),
                    ("tid", Json::from_u64(tid)),
                ]));
            }
        }
    }
    Json::object(vec![
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

/// [`chrome_trace`] plus a top-level `summary` object carrying the
/// attribution fractions, so a downloaded trace is self-describing.
#[must_use]
pub fn chrome_trace_with_summary(timeline: &Timeline, attr: &AttributionReport) -> Json {
    let mut trace = chrome_trace(timeline);
    if let Json::Object(pairs) = &mut trace {
        pairs.push((
            "summary".to_string(),
            Json::object(vec![
                ("compute_fraction", Json::Num(attr.compute_fraction())),
                ("barrier_fraction", Json::Num(attr.barrier_fraction())),
                ("claim_fraction", Json::Num(attr.claim_fraction())),
                ("imbalance", Json::Num(attr.imbalance())),
                ("dropped_events", Json::from_u64(attr.dropped_events)),
            ]),
        ));
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::timeline::FlightRecorder;

    fn sample() -> Timeline {
        let fr = FlightRecorder::enabled(2, 64);
        let s = fr.begin_region(2, 40, 4, "dynamic").unwrap();
        let mut from = s.now_ns();
        for chunk in [0, 2] {
            s.claimed(0, from, Some(chunk));
            from = s.chunk_end(0, chunk);
        }
        s.claimed(0, from, None);
        s.claimed(1, s.now_ns(), Some(1));
        let from = s.chunk_end(1, 1);
        s.claimed(1, from, None);
        s.finish();
        fr.take_timeline()
    }

    /// Collect (tid, ts) pairs from a parsed trace document.
    fn ts_by_track(doc: &Json) -> Vec<(u64, f64)> {
        doc.get("traceEvents")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
            .map(|e| {
                (
                    e.get("tid").and_then(Json::as_u64).unwrap(),
                    e.get("ts").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn trace_is_valid_json_with_monotone_ts_per_track() {
        let t = sample();
        let doc = chrome_trace(&t);
        let text = doc.to_pretty_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(
            back.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let pairs = ts_by_track(&back);
        assert!(!pairs.is_empty());
        for tid in [0u64, 1, REGION_TRACK] {
            let track: Vec<f64> = pairs
                .iter()
                .filter(|(t, _)| *t == tid)
                .map(|(_, ts)| *ts)
                .collect();
            assert!(
                track.windows(2).all(|w| w[0] <= w[1]),
                "tid {tid} ts not monotone: {track:?}"
            );
        }
    }

    #[test]
    fn trace_names_every_lane_and_the_region_track() {
        let doc = chrome_trace(&sample());
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(names.contains(&"worker 0"));
        assert!(names.contains(&"worker 1"));
        assert!(names.contains(&"coordinator (regions)"));
        // Compute, sync, and instant events all present.
        let cats: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("cat").and_then(Json::as_str))
            .collect();
        assert!(cats.contains(&"compute"));
        assert!(cats.contains(&"sync"));
        assert!(cats.contains(&"region"));
    }

    #[test]
    fn summary_rides_along() {
        let t = sample();
        let attr = AttributionReport::from_timeline(&t);
        let doc = chrome_trace_with_summary(&t, &attr);
        let summary = doc.get("summary").unwrap();
        let total = summary.get("compute_fraction").unwrap().as_f64().unwrap()
            + summary.get("barrier_fraction").unwrap().as_f64().unwrap()
            + summary.get("claim_fraction").unwrap().as_f64().unwrap();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zone_events_become_zone_slices() {
        let fr = FlightRecorder::enabled(2, 16);
        fr.zone(0, 0, 0, || ());
        fr.zone(1, 1, 0, || ());
        let doc = chrome_trace(&fr.take_timeline());
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let zones: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("zone"))
            .collect();
        assert_eq!(zones.len(), 2);
        assert_eq!(zones[0].get("name").and_then(Json::as_str), Some("zone 0"));
        assert_eq!(
            zones[0]
                .get("args")
                .unwrap()
                .get("step")
                .and_then(Json::as_u64),
            Some(0)
        );
        let tids: Vec<u64> = zones
            .iter()
            .filter_map(|e| e.get("tid").and_then(Json::as_u64))
            .collect();
        assert_eq!(tids, [0, 1], "one zone slice per team lane");
    }

    #[test]
    fn empty_timeline_yields_empty_trace() {
        let doc = chrome_trace(&Timeline::default());
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        // Only the coordinator metadata event.
        assert_eq!(events.len(), 1);
    }
}
