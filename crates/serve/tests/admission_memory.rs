//! Admission bills what a solve holds: for every f3d zone count and a
//! spread of FDTD sizes, the bytes an instance keeps after
//! `create_instance` and the peak during one `step` on one worker both
//! fit inside the `memory_usage_estimate` the server's memory budget
//! admits the solve on. Every case runs through the `Solver` trait,
//! exactly as `solver::run_instrumented` drives a served solve.
//!
//! This file holds exactly one test: the byte counters are process
//! globals, so a concurrently running sibling test would pollute the
//! measurement.

use f3d::service::{F3dSolver, ServiceCase, MAX_ZONES};
use fdtd::service::{FdtdCase, FdtdSolver};
use llp::Workers;
use solver::{Solver, SolverInstance, SolverSpec, WidthMap};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only read `layout.size()`
// and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes one instance of `case` holds once created, and the peak above
/// the same baseline during its first step on `pool`.
fn held_and_peak<S: Solver>(case: &S::Config, pool: &Workers) -> (usize, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    let mut instance = S::create_instance(case, &WidthMap);
    let held = LIVE.load(Ordering::Relaxed) - base;
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    instance.step(pool, 0, None);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    drop(instance);
    (held, peak)
}

#[test]
fn a_solve_fits_its_admission_estimate() {
    let pool = Workers::new(1);
    let f3d = (1..=MAX_ZONES).map(|zones| ServiceCase::calibration(zones, 1, 1));
    let fdtd = [16, 64, 128].map(|size| FdtdCase {
        size,
        ..FdtdCase::calibration(1, 1, 1)
    });
    let mut rows = Vec::new();
    for case in f3d {
        let (held, peak) = held_and_peak::<F3dSolver>(&case, &pool);
        rows.push((case.label(), case.memory_usage_estimate(), held, peak));
    }
    for case in fdtd {
        let (held, peak) = held_and_peak::<FdtdSolver>(&case, &pool);
        rows.push((case.label(), case.memory_usage_estimate(), held, peak));
    }
    for (label, estimate, held, peak) in &rows {
        let ratio = *peak as f64 / *estimate as f64;
        println!("{label}: estimate {estimate} B, holds {held} B, peaks {peak} B ({ratio:.2}x)");
    }
    for (label, estimate, held, peak) in rows {
        let estimate = estimate as usize;
        assert!(
            held <= estimate,
            "{label} holds {held} B after create_instance; admission bills {estimate} B"
        );
        assert!(
            peak <= estimate,
            "{label} peaks at {peak} B during a step; admission bills {estimate} B"
        );
    }
}
