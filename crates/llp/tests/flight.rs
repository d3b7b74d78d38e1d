//! Flight-recorder timeline determinism: what the rings must contain
//! after real doacross regions under each scheduling policy.
//!
//! A lane is a thread of the region's view, so which lane runs which
//! chunk is up to the worker team: a helper that is late, or busy in
//! another view of the same pool, leaves its chunks to the caller. The
//! tests therefore pin what that cannot change — every chunk starts and
//! ends exactly once, on the lane of the thread that ran it; every lane
//! that ran a region ends it with one barrier wait; a region's `lanes`
//! is the number of threads that ran it — and, for the dynamic
//! policies, that every claimant ends with one claim miss and claim
//! waits count wins plus those misses.

use llp::obs::chrome::chrome_trace;
use llp::obs::timeline::DEFAULT_EVENT_CAPACITY;
use llp::obs::EventKind;
use llp::{chunk_bounds, AttributionReport, FlightRecorder, Policy, Timeline, Workers};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::{self, ThreadId};

/// A team of `p` workers with a private, enabled flight recorder.
fn instrumented(p: usize, policy: Policy) -> Workers {
    let mut w = Workers::new(p).with_policy(policy);
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

/// Lanes that recorded anything.
fn active_lanes(t: &Timeline) -> usize {
    t.lanes.iter().filter(|l| !l.events.is_empty()).count()
}

#[test]
fn static_chunks_land_on_the_lane_of_their_thread() {
    for p in [1usize, 2, 4] {
        let w = instrumented(p, Policy::Static);
        let chunks = chunk_bounds(103, p);
        let ran_on: Vec<Mutex<Option<ThreadId>>> =
            chunks.iter().map(|_| Mutex::new(None)).collect();
        llp::doacross(&w, 103, |i| {
            let chunk = chunks.iter().position(|c| c.contains(&i)).unwrap();
            *ran_on[chunk].lock().unwrap() = Some(thread::current().id());
        });
        let ran_on: Vec<ThreadId> = ran_on
            .into_iter()
            .map(|t| t.into_inner().unwrap().expect("every chunk ran"))
            .collect();
        let t = w.flight().take_timeline();

        assert_eq!(t.regions.len(), 1, "p={p}");
        let region = &t.regions[0];
        assert_eq!(region.seq, 0);
        assert_eq!(region.iterations, 103);
        assert_eq!(region.chunks, p, "static: one chunk per worker");
        assert_eq!(region.workers, p);
        assert_eq!(region.policy, "static");
        assert!(region.end_ns >= region.start_ns);
        // The executed width is the number of threads that ran chunks.
        let threads: HashSet<ThreadId> = ran_on.iter().copied().collect();
        assert_eq!(region.lanes, threads.len(), "p={p}");
        assert_eq!(active_lanes(&t), threads.len(), "p={p}");

        // Each chunk starts and ends once, on one lane; the chunks of a
        // lane all ran on one thread, and no two lanes share a thread.
        let mut lane_thread: Vec<Option<ThreadId>> = vec![None; p];
        let mut started = vec![0usize; p];
        for (lane, data) in t.lanes.iter().enumerate() {
            if data.events.is_empty() {
                continue;
            }
            assert_eq!(count(&t, lane, EventKind::BarrierWait), 1, "p={p}");
            assert_eq!(data.events.last().unwrap().kind, EventKind::BarrierWait);
            assert_eq!(count(&t, lane, EventKind::ClaimWait), 0, "p={p}");
            assert_eq!(count(&t, lane, EventKind::ClaimMiss), 0, "p={p}");
            let mut open = None;
            for e in &data.events {
                assert_eq!(e.region, 0);
                match e.kind {
                    EventKind::ChunkStart => {
                        assert_eq!(open, None, "p={p} lane {lane}");
                        open = Some(e.arg);
                        let chunk = e.arg as usize;
                        started[chunk] += 1;
                        let thread = ran_on[chunk];
                        assert_eq!(*lane_thread[lane].get_or_insert(thread), thread, "p={p}");
                    }
                    EventKind::ChunkEnd => assert_eq!(open.take(), Some(e.arg), "p={p}"),
                    _ => assert_eq!(open, None, "p={p}"),
                }
            }
            // Timestamps are monotone within the lane's ring.
            let ts: Vec<u64> = data.events.iter().map(|e| e.ts_ns).collect();
            assert!(ts.windows(2).all(|w| w[0] <= w[1]), "p={p} ts={ts:?}");
        }
        assert!(started.iter().all(|&n| n == 1), "p={p} {started:?}");
        let lanes: HashSet<ThreadId> = lane_thread.iter().flatten().copied().collect();
        assert_eq!(lanes.len(), lane_thread.iter().flatten().count(), "p={p}");
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
    // Every lane saw its regions in order, and the three chunks of each
    // of the four regions started once between them.
    let mut starts = 0;
    for lane in 0..3 {
        let regions: Vec<u64> = t.lanes[lane].events.iter().map(|e| e.region).collect();
        assert!(regions.windows(2).all(|w| w[0] <= w[1]), "{regions:?}");
        starts += count(&t, lane, EventKind::ChunkStart);
    }
    assert_eq!(starts, 12);
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
            assert!((1..=claimants).contains(&region.lanes), "{policy:?} p={p}");
            assert_eq!(region.lanes, active_lanes(&t), "{policy:?} p={p}");
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

            // Per claimant: one losing claim (the miss). Per lane that
            // ran any: one barrier wait, and a claim wait for every
            // attempt — wins + the misses of the claimants it ran.
            let (mut total_wins, mut total_misses) = (0usize, 0usize);
            for lane in 0..claimants {
                if t.lanes[lane].events.is_empty() {
                    continue;
                }
                let wins = count(&t, lane, EventKind::ChunkStart);
                let misses = count(&t, lane, EventKind::ClaimMiss);
                total_wins += wins;
                total_misses += misses;
                assert!(misses >= 1, "{policy:?} p={p} lane {lane}");
                assert_eq!(
                    count(&t, lane, EventKind::BarrierWait),
                    1,
                    "{policy:?} p={p}"
                );
                assert_eq!(
                    count(&t, lane, EventKind::ClaimWait),
                    wins + misses,
                    "{policy:?} p={p} lane {lane}"
                );
            }
            assert_eq!(total_wins, chunk_count, "{policy:?} p={p}");
            assert_eq!(total_misses, claimants, "{policy:?} p={p}");
            // Lanes beyond the claimant count stay silent.
            for lane in claimants..p {
                assert!(t.lanes[lane].events.is_empty(), "{policy:?} p={p}");
            }
        }
    }
}

#[test]
fn ring_overflow_drops_oldest_and_counts_them() {
    let mut w = Workers::new(2).with_policy(Policy::Dynamic { chunk: 1 });
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
        let mut w = Workers::new(4).with_policy(policy);
        w.set_flight(FlightRecorder::enabled(4, 32 * 1024));
        for _ in 0..REGIONS {
            llp::doacross(&w, 16, |i| {
                std::hint::black_box(i);
            });
        }
        let t = w.flight().take_timeline();
        assert_eq!(t.dropped_events(), 0, "{policy:?}");
        assert_eq!(t.regions.len() as u64, REGIONS, "{policy:?}");
        let mut starts = vec![0u64; REGIONS as usize];
        let mut waits = 0;
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
            waits += count(&t, lane, EventKind::BarrierWait);
        }
        // Four chunks per region under either policy, each started once,
        // and one barrier wait per lane that ran the region.
        assert!(starts.iter().all(|&n| n == 4), "{policy:?}");
        assert_eq!(waits, t.regions.iter().map(|r| r.lanes).sum::<usize>());
    }
}

/// What one region's lanes were billed, summed over lanes: compute
/// (paired chunk starts and ends), barrier and claim nanoseconds.
fn billed(t: &Timeline, seq: u64) -> (u64, u64, u64) {
    let (mut compute, mut barrier, mut claim) = (0, 0, 0);
    for lane in &t.lanes {
        let mut open = None;
        for e in lane.events.iter().filter(|e| e.region == seq) {
            match e.kind {
                EventKind::ChunkStart => open = Some(e.ts_ns),
                EventKind::ChunkEnd => compute += e.ts_ns - open.take().expect("paired"),
                EventKind::BarrierWait => barrier += e.arg,
                EventKind::ClaimWait => claim += e.arg,
                _ => {}
            }
        }
    }
    (compute, barrier, claim)
}

/// Two threads drive views of the same two lanes, each view with its
/// own flight recorder — two executors of one server sharing its team.
/// A region whose helper was serving the other view ran on its caller
/// alone, and its timeline must say so: one lane executed it, the lane
/// it did not use shows no barrier and no claim time, and the caller's
/// lane bills the chunks it ran as compute — never as a barrier wait
/// for a helper that was not there. Over every region, the lanes are
/// billed no more time than the lanes that ran it had. (A helper that
/// joins a self-scheduled region after its chunks are gone still took
/// part: it claimed, and missed.)
#[test]
fn a_region_that_lost_its_helper_bills_its_chunks_to_the_caller() {
    const REGIONS: usize = 400;
    for policy in [Policy::Static, Policy::Dynamic { chunk: 4 }] {
        let pool = Workers::new(2);
        let narrow: usize = thread::scope(|threads| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    threads.spawn(|| {
                        let mut view = pool.sized_view(2).with_policy(policy);
                        view.set_flight(FlightRecorder::enabled(2, 16 * 1024));
                        // Per region: the threads that ran its iterations.
                        let ran: Vec<HashSet<ThreadId>> = (0..REGIONS)
                            .map(|_| {
                                let on = Mutex::new(HashSet::new());
                                llp::doacross(&view, 16, |i| {
                                    for k in 0..200 {
                                        std::hint::black_box(((i * k) as f64).sqrt());
                                    }
                                    on.lock().unwrap().insert(thread::current().id());
                                });
                                on.into_inner().unwrap()
                            })
                            .collect();
                        (view.flight().take_timeline(), ran)
                    })
                })
                .collect();
            let mut narrow = 0;
            for caller in callers {
                let (t, ran) = caller.join().unwrap();
                assert_eq!(t.dropped_events(), 0, "{policy:?}");
                assert_eq!(t.regions.len(), REGIONS, "{policy:?}");
                let attr = AttributionReport::from_timeline(&t);
                for (region, threads) in t.regions.iter().zip(&ran) {
                    let seq = region.seq;
                    if policy == Policy::Static {
                        assert_eq!(region.lanes, threads.len(), "{policy:?} region {seq}");
                    } else {
                        assert!(region.lanes >= threads.len(), "{policy:?} region {seq}");
                    }
                    let (compute, barrier, claim) = billed(&t, seq);
                    let split = &attr.regions[seq as usize];
                    assert_eq!(
                        (split.compute_ns, split.barrier_ns, split.claim_ns),
                        (compute, barrier, claim),
                        "{policy:?} region {seq}"
                    );
                    let lane_time = compute + barrier + claim;
                    let bound = region.wall_ns() * region.lanes as u64;
                    assert!(lane_time <= bound, "{policy:?} region {seq}");
                    if region.lanes == 1 {
                        narrow += 1;
                        let lanes: Vec<usize> = (0..2)
                            .filter(|&l| t.lanes[l].events.iter().any(|e| e.region == seq))
                            .collect();
                        assert_eq!(lanes.len(), 1, "{policy:?} region {seq}");
                        // Every chunk of the region ran, as compute, on
                        // the one lane.
                        let starts = t.lanes[lanes[0]]
                            .events
                            .iter()
                            .filter(|e| e.region == seq && e.kind == EventKind::ChunkStart)
                            .count();
                        assert_eq!(starts, region.chunks, "{policy:?} region {seq}");
                    }
                }
            }
            narrow
        });
        // Two threads forking regions back to back on one team collide:
        // some region always finds the helper busy.
        assert!(narrow > 0, "{policy:?}: no region ran narrow");
    }
}
