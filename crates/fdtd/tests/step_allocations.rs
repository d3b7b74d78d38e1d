//! Counts the heap allocations of a served FDTD step. The step's only
//! allocations are the two regions' bookkeeping in `llp` (the chunk
//! list and the parked payload slots, and a self-scheduled region's
//! claim blocks); the sweeps, the energy terms (a stack block per run)
//! and the row partials (instance storage) allocate nothing. The
//! counts are pinned per worker count and schedule, so a sweep that
//! starts allocating per region, per run or per row shows here.
//!
//! This file holds exactly one test: the allocation counter is a
//! process-wide global, so a concurrently running sibling test would
//! pollute the measurement.

use fdtd::service::{FdtdCase, FdtdSolver};
use llp::{Policy, Workers};
use solver::{Solver, SolverInstance, WidthMap};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call to `System` unchanged, so it upholds the
// `GlobalAlloc` contract; the counter only counts calls.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout goes to `System` as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations of each of steps 4..8 of a served 128² solve.
fn step_allocations(workers: usize, schedule: Policy) -> Vec<u64> {
    let case = FdtdCase {
        size: 128,
        steps: 8,
        workers,
        schedule,
        vector_width: 1,
    };
    let pool = Workers::new(workers).with_policy(schedule);
    let mut instance = FdtdSolver::create_instance(&case, &WidthMap);
    // Warm up: the team's helpers are spawned on first use.
    for step in 0..4 {
        instance.step(&pool, step, None);
    }
    if workers > 1 {
        await_helper(&pool);
    }
    (4..8)
        .map(|step| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            instance.step(&pool, step, None);
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .collect()
}

/// Returns once a helper of `pool` has run a task. A helper's thread
/// allocates as it starts, and the warm-up steps that spawned it can
/// return before it has: each of these regions' tasks sleeps, so the
/// helper takes one, which it can do only once started.
fn await_helper(pool: &Workers) {
    let helped = AtomicBool::new(false);
    for _ in 0..1000 {
        pool.region(2, |_, lane| {
            if lane > 0 {
                helped.store(true, Ordering::Relaxed);
            }
            std::thread::sleep(Duration::from_millis(1));
        });
        if helped.load(Ordering::Relaxed) {
            return;
        }
    }
    panic!("no helper ran a task in 1000 regions");
}

#[test]
fn a_served_step_allocates_only_region_bookkeeping() {
    // `LLP_FLIGHT=1` puts a recorder on every new team, which allocates
    // by design.
    if std::env::var("LLP_FLIGHT").is_ok() {
        eprintln!("LLP_FLIGHT set: skipping the step allocation count");
        return;
    }
    for (workers, schedule, expected) in [
        (1, Policy::Static, 4),
        (2, Policy::Static, 4),
        (2, Policy::Dynamic { chunk: 4 }, 6),
        (2, Policy::Guided { min_chunk: 2 }, 6),
    ] {
        let counts = step_allocations(workers, schedule);
        println!("{workers} workers, {schedule:?}: {counts:?} allocations per step");
        assert!(
            counts.iter().all(|&n| n == expected),
            "{workers} workers, {schedule:?}: {counts:?}, expected {expected} per step"
        );
    }
}
