//! Asserts the disabled-recorder fast path really is free: opening and
//! closing spans, opening and finishing region sessions, and draining
//! and resetting a disabled [`llp::FlightRecorder`] must perform **zero
//! heap allocations** (and, structurally, touches no lock — a disabled
//! recorder holds no mutex at all). This is the contract that lets the
//! `RiscStepper` hot path stay instrumented unconditionally.
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
    use llp::{FlightRecorder, SpanKind};

    let rec = FlightRecorder::disabled();
    assert!(!rec.is_enabled());

    // Warm up whatever lazy state the harness keeps, then measure.
    for _ in 0..8 {
        let _span = rec.span("warmup", SpanKind::Kernel);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        let _step = rec.span("step", SpanKind::Step);
        let _kernel = rec.span("rhs", SpanKind::Kernel);
        let session = rec.begin_region(4, 70, 4, "static");
        assert!(session.is_none(), "disabled recorder must yield no session");
        if let Some(s) = session {
            s.finish();
        }
    }
    assert!(rec.take_timeline().is_empty());
    rec.reset();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled recorder must not allocate on the span/region path or its drain"
    );
    // The report builds owned strings (its case name), so it is checked
    // outside the counted window.
    assert!(rec.take_report("off", 4).spans.is_empty());

    // Sanity: the counter does observe the enabled path.
    let enabled = FlightRecorder::enabled(2, 64);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    {
        let _span = enabled.span("step", SpanKind::Step);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(after > before, "enabled path should allocate span marks");

    disabled_team_allocates_nothing_per_region();
}

/// The real doacross hot path: a team without a recorder must allocate
/// exactly as much per region as the region machinery itself does.
/// Called from the one `#[test]` above (the counter is process-global,
/// tests must not run concurrently).
fn disabled_team_allocates_nothing_per_region() {
    // `LLP_FLIGHT=1` puts a real recorder on every new team, which
    // allocates by design; the disabled-path contract is unmeasurable
    // in that configuration (CI runs it separately).
    if std::env::var("LLP_FLIGHT").is_ok() {
        eprintln!("LLP_FLIGHT set: skipping disabled-team allocation assertions");
        return;
    }

    // Two identical rounds must cost the same (the region machinery
    // itself allocates; the disabled-recorder branches must add nothing
    // that scales).
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
        "disabled-recorder doacross rounds must have identical allocation counts"
    );

    // Sanity: the enabled recorder does allocate (on drain).
    let enabled = llp::FlightRecorder::enabled(2, 64);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    if let Some(s) = enabled.begin_region(2, 10, 2, "static") {
        s.chunk_start(0, 0);
        s.chunk_end(0, 0);
        s.finish();
    }
    let _timeline = enabled.take_timeline();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(after > before, "enabled recorder should allocate on drain");
}
