//! Ring capacity never reaches the span tree: the same recorded case
//! run with 8-slot flight rings and with the default rings gives
//! byte-identical span structure, although the small rings lose events.
//! Structure, counts and chunk timings come from the coordinator's log,
//! which does not wrap: each region mark carries its lanes' busy time.

use f3d::service::{ServiceCase, ZoneSchedule};
use fdtd::FdtdCase;
use llp::obs::attr::kernel_overheads;
use llp::obs::timeline::DEFAULT_EVENT_CAPACITY;
use llp::obs::{SpanKind, SpanNode, Timeline};
use llp::{AttributionReport, FlightRecorder, ObsReport, Policy, Workers};

const P: usize = 2;

/// A recorded pool whose rings hold `capacity` events per lane.
fn recorded(capacity: usize) -> Workers {
    let mut pool = Workers::recorded(P);
    pool.set_flight(FlightRecorder::enabled(P, capacity));
    pool
}

/// The structural columns of the per-kernel rows: kernel, regions,
/// iterations.
fn kernel_rows(timeline: &Timeline) -> Vec<(String, u64, u64)> {
    let attr = AttributionReport::from_timeline(timeline);
    kernel_overheads(&attr)
        .into_iter()
        .map(|row| (row.kernel, row.regions, row.iterations))
        .collect()
}

/// Every region node of the tree, depth first.
fn regions<'a>(node: &'a SpanNode, out: &mut Vec<&'a SpanNode>) {
    if node.kind == SpanKind::Region {
        out.push(node);
    }
    for child in &node.children {
        regions(child, out);
    }
}

/// Run `case` on 8-slot rings and on default rings and check what the
/// ring size may and may not change.
fn check(name: &str, run: impl Fn(&Workers) -> (ObsReport, Timeline)) {
    let (small, small_timeline) = run(&recorded(8));
    let (full, full_timeline) = run(&recorded(DEFAULT_EVENT_CAPACITY));
    assert!(small_timeline.dropped_events() > 0, "{name}: 8 slots wrap");
    assert_eq!(
        full_timeline.dropped_events(),
        0,
        "{name}: default rings hold the run"
    );
    assert_eq!(
        small.without_timings().to_json_string(),
        full.without_timings().to_json_string(),
        "{name}: a ring wrap changed the span tree"
    );
    assert_eq!(
        kernel_rows(&small_timeline),
        kernel_rows(&full_timeline),
        "{name}: a ring wrap changed a kernel row"
    );
    // No wrapped region lost its chunk timing.
    let mut wrapped = Vec::new();
    for span in &small.spans {
        regions(span, &mut wrapped);
    }
    assert!(
        wrapped.iter().all(|r| r.chunk_max_seconds > 0.0),
        "{name}: a ring wrap blanked a region's chunk timing"
    );
    // A dynamic region's chunk count is its claimant count, in
    // completion order on both sides.
    let mut nodes = Vec::new();
    for span in &full.spans {
        regions(span, &mut nodes);
    }
    let counts: Vec<usize> = nodes.iter().map(|r| r.chunk_count).collect();
    let claimants: Vec<usize> = full_timeline
        .regions
        .iter()
        .map(|r| r.workers.min(r.chunks))
        .collect();
    assert!(!counts.is_empty(), "{name}: the case ran parallel regions");
    assert_eq!(counts, claimants, "{name}");
}

#[test]
fn ring_wraps_leave_f3d_structure_unchanged() {
    let case = ServiceCase {
        zones: 2,
        steps: 2,
        workers: P,
        schedule: Policy::Dynamic { chunk: 2 },
        zone_schedule: ZoneSchedule::Sequential,
        vector_width: 1,
    };
    check("f3d z2s2", |pool| {
        let run = f3d::service::run(&case, pool).expect("a valid case");
        (run.report, run.timeline)
    });
}

#[test]
fn ring_wraps_leave_fdtd_structure_unchanged() {
    let case = FdtdCase {
        size: 128,
        steps: 2,
        workers: P,
        schedule: Policy::Dynamic { chunk: 1 },
        vector_width: 1,
    };
    check("fdtd 128", |pool| {
        let run = fdtd::service::run(&case, pool).expect("a valid case");
        (run.report, run.timeline)
    });
}
