//! Pins what the tuned stepper holds and what one of its steps adds:
//! `RiscStepper` keeps exactly one whole-zone field (`rhs`) — the
//! implicit factors solve in place on its rows — and a step on two
//! workers adds nothing zone-sized on top of the zone, only two
//! workers' pencil-bundle scratch, the L factor's per-`k` row groups
//! and the regions' bookkeeping. Measured on the zone the
//! `f3d_above_bound` benchmark workload steps (33 × 40 × 32).
//!
//! This file holds exactly one test: the byte counters are process
//! globals, so a concurrently running sibling test would pollute the
//! measurement.

use f3d::bc::ZoneBcs;
use f3d::risc_impl::RiscStepper;
use f3d::solver::{SolverConfig, ZoneSolver};
use llp::Workers;
use mesh::{Arrangement, Dims, Layout, Metrics, NCONS};
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

#[test]
fn stepper_holds_one_field_and_a_step_adds_only_scratch() {
    let d = Dims::new(33, 40, 32);
    let mut zone = ZoneSolver::freestream(
        SolverConfig::supersonic(),
        Metrics::cartesian(d, (0.3, 0.3, 0.3)),
        Layout::jkl(),
        Arrangement::ComponentInner,
    );
    for p in d.iter_jkl() {
        let mut q = zone.q.get(p);
        q[0] *= 1.0 + 0.01 * ((p.j + 2 * p.k + 3 * p.l) as f64).sin();
        zone.q.set(p, q);
    }
    let field = d.points() * NCONS * size_of::<f64>();

    let before = LIVE.load(Ordering::Relaxed);
    let mut stepper = RiscStepper::for_zone(&zone);
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        held <= field + 4096,
        "the stepper holds {held} B; its `rhs` field is {field} B"
    );

    // One step first, so the team's helpers and any lazy state exist
    // before the measured step.
    let workers = Workers::new(2);
    let bcs = ZoneBcs::projectile();
    stepper.step(&mut zone, &bcs, &workers, None);

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    stepper.step(&mut zone, &bcs, &workers, None);
    let added = PEAK.load(Ordering::Relaxed) - base;
    let scratch = 2 * stepper.scratch_bytes_per_worker();
    let groups = d.k * (size_of::<Vec<&mut [f64]>>() + d.l * size_of::<&mut [f64]>());
    let bookkeeping = 8 << 10;
    assert!(
        added <= scratch + groups + bookkeeping,
        "a step peaked {added} B above the zone and stepper: more than two \
         workers' scratch ({scratch} B), the L factor's row groups ({groups} B) \
         and {bookkeeping} B of region bookkeeping"
    );
    println!(
        "stepper holds {held} B (rhs {field} B); a step adds at most {added} B \
         (scratch {scratch} B, groups {groups} B)"
    );
}
