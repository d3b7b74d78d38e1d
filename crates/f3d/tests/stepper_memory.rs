//! Pins what a Cartesian zone holds, what the tuned stepper holds and
//! what one of its steps adds: a `ZoneSolver` built on
//! `Metrics::cartesian` holds its state field and nothing zone-sized
//! besides (its ten metric terms are ten numbers), `RiscStepper` keeps
//! exactly one whole-zone field (`rhs`) — the implicit factors solve
//! in place on its rows — and a step on two
//! workers adds nothing zone-sized on top of the zone, only two
//! workers' scratch (the fused `rhs_jk` region's J-row buffer and
//! pencil bundle), the L factor's per-`k` row groups and the regions'
//! bookkeeping. Measured on the zone the `f3d_above_bound` benchmark
//! workload steps (33 × 40 × 32). And the fused region allocates
//! nothing per L-plane: a step makes as many allocations on that zone
//! as on one with half its planes.
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
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only read `layout.size()`
// and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

fn perturbed_zone(d: Dims) -> ZoneSolver {
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
    zone
}

/// Allocations of one step on one worker (so no helper's timing can
/// change the regions' shape), after a warm-up step.
fn allocations_per_step(d: Dims) -> usize {
    let mut zone = perturbed_zone(d);
    let mut stepper = RiscStepper::for_zone(&zone);
    let workers = Workers::new(1);
    let bcs = ZoneBcs::projectile();
    stepper.step(&mut zone, &bcs, &workers, None);
    let before = ALLOCS.load(Ordering::Relaxed);
    stepper.step(&mut zone, &bcs, &workers, None);
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn stepper_holds_one_field_and_a_step_adds_only_scratch() {
    let d = Dims::new(33, 40, 32);
    let field = d.points() * NCONS * size_of::<f64>();

    let before = LIVE.load(Ordering::Relaxed);
    let mut zone = perturbed_zone(d);
    let zone_held = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        zone_held <= field + 4096,
        "the Cartesian zone holds {zone_held} B; its `q` field is {field} B"
    );

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
        "zone holds {zone_held} B and stepper {held} B (q and rhs {field} B each); \
         a step adds at most {added} B (scratch {scratch} B, groups {groups} B)"
    );

    let full = allocations_per_step(d);
    let half = allocations_per_step(Dims::new(d.j, d.k, d.l / 2));
    assert_eq!(
        full,
        half,
        "a step allocated {full} times over {} L-planes and {half} times over {}: \
         some region allocates per plane",
        d.l,
        d.l / 2
    );
    println!(
        "a step allocates {full} times, at {} and at {} L-planes",
        d.l,
        d.l / 2
    );
}
