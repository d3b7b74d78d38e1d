//! Flight-recorder timeline determinism: what the rings must contain
//! after real doacross regions under each scheduling policy.
//!
//! Static scheduling is fully deterministic — chunk `i` runs on lane
//! `i`, so the test pins exact event counts and ownership. The dynamic
//! policies are racy by design, so the tests pin the *invariants*
//! instead: every chunk starts and ends exactly once somewhere, every
//! claimant lane ends with one claim miss and one barrier wait, and
//! claim waits count wins plus the final losing attempt.

use llp::obs::chrome::chrome_trace;
use llp::obs::timeline::DEFAULT_EVENT_CAPACITY;
use llp::obs::EventKind;
use llp::{AttributionReport, FlightRecorder, Policy, Timeline, Workers};

/// A team of `p` workers with a private, enabled flight recorder.
fn instrumented(p: usize, policy: Policy) -> Workers {
    let mut w = Workers::new(p);
    w.set_policy(policy);
    w.set_flight(FlightRecorder::enabled(p, DEFAULT_EVENT_CAPACITY));
    w
}

fn count(t: &Timeline, lane: usize, kind: EventKind) -> usize {
    t.lanes[lane]
        .events
        .iter()
        .filter(|e| e.kind == kind)
        .count()
}

#[test]
fn static_timeline_is_exact() {
    for p in [1usize, 2, 4] {
        let w = instrumented(p, Policy::Static);
        llp::doacross(&w, 103, |i| {
            std::hint::black_box(i);
        });
        let t = w.flight().take_timeline();

        assert_eq!(t.regions.len(), 1, "p={p}");
        let region = &t.regions[0];
        assert_eq!(region.seq, 0);
        assert_eq!(region.iterations, 103);
        assert_eq!(region.chunks, p, "static: one chunk per worker");
        assert_eq!(region.lanes, p);
        assert_eq!(region.workers, p);
        assert_eq!(region.policy, "static");
        assert!(region.end_ns >= region.start_ns);

        // Lane i owns chunk i: exactly one start, one end (both naming
        // chunk i), and the coordinator's barrier wait. Nothing else.
        for lane in 0..p {
            assert_eq!(count(&t, lane, EventKind::ChunkStart), 1, "p={p}");
            assert_eq!(count(&t, lane, EventKind::ChunkEnd), 1, "p={p}");
            assert_eq!(count(&t, lane, EventKind::BarrierWait), 1, "p={p}");
            assert_eq!(count(&t, lane, EventKind::ClaimWait), 0, "p={p}");
            assert_eq!(count(&t, lane, EventKind::ClaimMiss), 0, "p={p}");
            assert_eq!(t.lanes[lane].events.len(), 3, "p={p}");
            for e in &t.lanes[lane].events {
                assert_eq!(e.region, 0);
                if e.kind != EventKind::BarrierWait {
                    assert_eq!(e.arg as usize, lane, "chunk must equal lane");
                }
            }
            // Timestamps are monotone within the lane's ring.
            let ts: Vec<u64> = t.lanes[lane].events.iter().map(|e| e.ts_ns).collect();
            assert!(ts.windows(2).all(|w| w[0] <= w[1]), "p={p} ts={ts:?}");
        }
        assert_eq!(t.dropped_events(), 0);
    }
}

#[test]
fn static_regions_number_sequentially() {
    let w = instrumented(3, Policy::Static);
    for _ in 0..4 {
        llp::doacross(&w, 30, |i| {
            std::hint::black_box(i);
        });
    }
    let t = w.flight().take_timeline();
    let seqs: Vec<u64> = t.regions.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, vec![0, 1, 2, 3]);
    // Each lane saw all four regions, in order.
    for lane in 0..3 {
        let regions: Vec<u64> = t.lanes[lane].events.iter().map(|e| e.region).collect();
        assert!(regions.windows(2).all(|w| w[0] <= w[1]), "{regions:?}");
        assert_eq!(count(&t, lane, EventKind::ChunkStart), 4);
    }
    // Draining resets the sequence counter.
    llp::doacross(&w, 10, |_| {});
    let again = w.flight().take_timeline();
    assert_eq!(again.regions[0].seq, 0);
}

#[test]
fn dynamic_and_guided_timelines_hold_invariants() {
    for policy in [
        Policy::Dynamic { chunk: 1 },
        Policy::Dynamic { chunk: 7 },
        Policy::Guided { min_chunk: 2 },
    ] {
        for p in [1usize, 2, 4] {
            let w = instrumented(p, policy);
            llp::doacross(&w, 103, |i| {
                std::hint::black_box(i);
            });
            let t = w.flight().take_timeline();

            assert_eq!(t.regions.len(), 1, "{policy:?} p={p}");
            let region = &t.regions[0];
            let chunk_count = region.chunks;
            assert!(chunk_count >= 1);
            let claimants = p.min(chunk_count);
            assert_eq!(region.lanes, claimants, "{policy:?} p={p}");
            assert_eq!(region.iterations, 103);

            // Every chunk index started and ended exactly once, on the
            // same lane it started on (chunks never split mid-flight).
            let mut started = vec![0usize; chunk_count];
            let mut ended = vec![0usize; chunk_count];
            for (lane, data) in t.lanes.iter().enumerate() {
                let mut open: Option<u64> = None;
                for e in &data.events {
                    match e.kind {
                        EventKind::ChunkStart => {
                            assert!(open.is_none(), "{policy:?} p={p} lane {lane}");
                            open = Some(e.arg);
                            started[usize::try_from(e.arg).unwrap()] += 1;
                        }
                        EventKind::ChunkEnd => {
                            assert_eq!(open.take(), Some(e.arg), "{policy:?} p={p}");
                            ended[usize::try_from(e.arg).unwrap()] += 1;
                        }
                        _ => {}
                    }
                }
                assert!(open.is_none(), "chunk left open on lane {lane}");
            }
            assert!(
                started.iter().all(|&c| c == 1),
                "{policy:?} p={p} {started:?}"
            );
            assert!(ended.iter().all(|&c| c == 1), "{policy:?} p={p} {ended:?}");

            // Per claimant lane: one losing claim (the miss), one
            // barrier wait, and a claim wait for every attempt —
            // wins + the final miss.
            let mut total_wins = 0usize;
            for lane in 0..claimants {
                let wins = count(&t, lane, EventKind::ChunkStart);
                total_wins += wins;
                assert_eq!(count(&t, lane, EventKind::ClaimMiss), 1, "{policy:?} p={p}");
                assert_eq!(
                    count(&t, lane, EventKind::BarrierWait),
                    1,
                    "{policy:?} p={p}"
                );
                assert_eq!(
                    count(&t, lane, EventKind::ClaimWait),
                    wins + 1,
                    "{policy:?} p={p} lane {lane}"
                );
            }
            assert_eq!(total_wins, chunk_count, "{policy:?} p={p}");
            // Non-claimant lanes stay silent.
            for lane in claimants..p {
                assert!(t.lanes[lane].events.is_empty(), "{policy:?} p={p}");
            }
        }
    }
}

#[test]
fn ring_overflow_drops_oldest_and_counts_them() {
    let mut w = Workers::new(2);
    w.set_policy(Policy::Dynamic { chunk: 1 });
    // Tiny rings: 256 chunks generate far more than 8 events per lane.
    w.set_flight(FlightRecorder::enabled(2, 8));
    llp::doacross(&w, 256, |i| {
        std::hint::black_box(i);
    });
    let t = w.flight().take_timeline();
    assert!(t.dropped_events() > 0, "tiny ring must overflow");
    for lane in &t.lanes {
        assert!(lane.events.len() <= 8);
        // Survivors are the newest events: monotone and region-tagged.
        let ts: Vec<u64> = lane.events.iter().map(|e| e.ts_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }
}

#[test]
fn attribution_and_chrome_ride_on_real_timelines() {
    for policy in [Policy::Static, Policy::Guided { min_chunk: 4 }] {
        let w = instrumented(4, policy);
        for _ in 0..3 {
            llp::doacross(&w, 400, |i| {
                std::hint::black_box((i as f64).sqrt());
            });
        }
        let t = w.flight().take_timeline();
        let attr = AttributionReport::from_timeline(&t);
        assert_eq!(attr.regions.len(), 3, "{policy:?}");
        assert!(attr.compute_ns() > 0, "{policy:?}");
        let fractions = attr.compute_fraction() + attr.barrier_fraction() + attr.claim_fraction();
        assert!((fractions - 1.0).abs() < 1e-9, "{policy:?}");
        assert!(attr.imbalance() >= 1.0, "{policy:?}");

        let doc = chrome_trace(&t);
        let events = doc
            .get("traceEvents")
            .and_then(llp::obs::json::Json::as_array)
            .unwrap();
        assert!(events.len() > 4, "{policy:?}");
    }
}

#[test]
fn reduce_and_slabs_record_regions_too() {
    let w = instrumented(3, Policy::Static);
    let _ = llp::doacross_reduce(&w, 90, 0u64, |i| i as u64, |a, b| a + b);
    let mut data = vec![0u8; 12 * 4];
    llp::doacross_slabs(&w, &mut data, 4, |_, _| {});
    let t = w.flight().take_timeline();
    assert_eq!(t.regions.len(), 2);
    assert_eq!(t.regions[0].iterations, 90);
    assert_eq!(t.regions[1].iterations, 12);
}

#[test]
fn a_thousand_regions_leave_every_lane_complete_and_monotone() {
    // The rings are single-writer and relaxed: what orders the task
    // that wrote a lane in region r before the (possibly different)
    // thread that writes it in region r + 1, and before this drain, is
    // the team's barrier alone. A barrier too weak for that shows up
    // here as a torn, missing or out-of-order event.
    const REGIONS: u64 = 1000;
    for policy in [Policy::Static, Policy::Dynamic { chunk: 4 }] {
        let mut w = Workers::new(4);
        w.set_policy(policy);
        w.set_flight(FlightRecorder::enabled(4, 16 * 1024));
        for _ in 0..REGIONS {
            llp::doacross(&w, 16, |i| {
                std::hint::black_box(i);
            });
        }
        let t = w.flight().take_timeline();
        assert_eq!(t.dropped_events(), 0, "{policy:?}");
        assert_eq!(t.regions.len() as u64, REGIONS, "{policy:?}");
        let mut starts = vec![0u64; REGIONS as usize];
        for (lane, timeline) in t.lanes.iter().enumerate() {
            let events = &timeline.events;
            assert!(
                events
                    .windows(2)
                    .all(|w| w[0].ts_ns <= w[1].ts_ns && w[0].region <= w[1].region),
                "{policy:?} lane {lane} is not monotone"
            );
            // Every start is followed on its lane by its own end.
            let mut open = None;
            for e in events {
                match e.kind {
                    EventKind::ChunkStart => {
                        assert_eq!(open, None, "{policy:?} lane {lane}");
                        open = Some((e.arg, e.region));
                        starts[e.region as usize] += 1;
                    }
                    EventKind::ChunkEnd => {
                        assert_eq!(
                            open.take(),
                            Some((e.arg, e.region)),
                            "{policy:?} lane {lane}"
                        );
                    }
                    _ => assert_eq!(open, None, "{policy:?} lane {lane}"),
                }
            }
            assert_eq!(open, None, "{policy:?} lane {lane}");
            // A lane that wrote in a region got that region's barrier wait.
            let waits = count(&t, lane, EventKind::BarrierWait) as u64;
            if policy == Policy::Static {
                assert_eq!(waits, REGIONS, "{policy:?} lane {lane}");
                assert_eq!(events.len() as u64, 3 * REGIONS, "{policy:?} lane {lane}");
            }
        }
        // Four chunks per region under either policy, each started once.
        assert!(starts.iter().all(|&n| n == 4), "{policy:?}");
    }
}
