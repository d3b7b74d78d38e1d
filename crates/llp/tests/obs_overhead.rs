//! Asserts the disabled-recorder fast path really is free: opening and
//! closing spans, attaching regions, and annotating chunk stats through
//! a disabled [`llp::Recorder`] must perform **zero heap allocations**
//! (and, structurally, touches no lock — a disabled recorder holds no
//! mutex at all). This is the contract that lets the `RiscStepper` hot
//! path stay instrumented unconditionally.
//!
//! This file holds exactly one test: the allocation counter is a
//! process-wide global, so a concurrently running sibling test would
//! pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_recorder_allocates_nothing() {
    use llp::{Recorder, SpanKind};

    let rec = Recorder::disabled();
    assert!(!rec.is_enabled());

    // Warm up whatever lazy state the harness keeps, then measure.
    for _ in 0..8 {
        let _span = rec.span("warmup", SpanKind::Kernel);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        let _step = rec.span("step", SpanKind::Step);
        let _kernel = rec.span("rhs", SpanKind::Kernel);
        rec.attach_region(4, 0.0);
        rec.annotate_last_region(70, &[]);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled recorder must not allocate on the span/region path"
    );

    // Sanity: the counter does observe the enabled path.
    let enabled = Recorder::enabled();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    {
        let _span = enabled.span("step", SpanKind::Step);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(after > before, "enabled path should allocate span nodes");

    disabled_flight_recorder_allocates_nothing();
}

/// Same contract for the flight recorder: every recording call on a
/// disabled [`llp::FlightRecorder`] is a single `None` branch — no
/// allocation, no clock read. Called from the one `#[test]` above
/// (the counter is process-global, tests must not run concurrently).
fn disabled_flight_recorder_allocates_nothing() {
    // `LLP_FLIGHT=1` force-enables a real flight recorder on every
    // team, which allocates by design; the disabled-path contract is
    // unmeasurable in that configuration (CI runs it separately).
    if std::env::var("LLP_FLIGHT").is_ok() {
        eprintln!("LLP_FLIGHT set: skipping disabled-flight allocation assertions");
        return;
    }

    let flight = llp::FlightRecorder::disabled();
    assert!(!flight.is_enabled());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        let session = flight.begin_region(4, 100, 4, "static");
        assert!(session.is_none(), "disabled recorder must yield no session");
        if let Some(s) = session {
            s.finish();
        }
    }
    let timeline = flight.take_timeline();
    assert!(timeline.is_empty());
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled flight recorder must not allocate"
    );

    // And through the real doacross hot path: a team without a flight
    // recorder must allocate exactly as much per region as it did
    // before the flight recorder existed. Two identical rounds must
    // cost the same (the region machinery itself allocates; the
    // disabled-flight branches must add nothing that scales).
    let workers = llp::Workers::new(2);
    assert!(!workers.flight().is_enabled());
    let warm = || {
        for _ in 0..16 {
            llp::doacross(&workers, 64, |i| {
                std::hint::black_box(i);
            });
        }
    };
    warm(); // warm up thread-spawn and scheduler state
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    warm();
    let mid = ALLOCATIONS.load(Ordering::Relaxed);
    warm();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        mid - before,
        after - mid,
        "disabled-flight doacross rounds must have identical allocation counts"
    );

    // Sanity: the enabled flight recorder does allocate (on drain).
    let enabled = llp::FlightRecorder::enabled(2, 64);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    if let Some(s) = enabled.begin_region(2, 10, 2, "static") {
        s.chunk_start(0, 0);
        s.chunk_end(0, 0);
        s.finish();
    }
    let _timeline = enabled.take_timeline();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(
        after > before,
        "enabled flight path should allocate on drain"
    );
}
