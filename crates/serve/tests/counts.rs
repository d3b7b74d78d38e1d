//! The count table (`golden/counts.tsv`): exact structural counts of
//! the cases this workspace serves or steps, one row per case × worker
//! count P × schedule × recorder, compared byte for byte. Per row:
//!
//! - sync events (one per parallel region's exit) in each step and in
//!   the whole solve;
//! - heap allocations in step 0 and in each later step;
//! - the bytes the instance holds once created, and the peak above the
//!   same baseline over the solve, beside its `memory_usage_estimate`
//!   (what admission bills; served cases only);
//! - ring slots the flight recorder wrote per region, and ring drops.
//!
//! A cell that depends on thread placement — at P > 1 the peak bytes
//! and the ring slots — reads `-`; it is still measured, and the bounds
//! below still hold over it. Every row sets its recorder itself, so the
//! table reads the same under `LLP_FLIGHT=1`.
//!
//! The properties behind the bounds are asserted over the measured rows,
//! so no edit of the table drops them: a region's exit is one sync event
//! and the count does not depend on P; a served case holds, and with
//! the recorder off peaks, within its admission estimate; a zone step
//! makes as many allocations at L as at L/2 planes; and a two-worker
//! zone step adds at most two workers' scratch, the L factor's row
//! groups and 8 KiB of region bookkeeping.
//!
//! On a mismatch the actual table is left under `CARGO_TARGET_TMPDIR`
//! next to the panic message; a PR that moves a row says why.
//!
//! This file holds the workspace's only counting allocator, and it runs
//! without the libtest harness (`harness = false`): the counters are
//! process globals, and the harness's own thread allocates while a test
//! runs, now and then inside a counted step.

use f3d::bc::ZoneBcs;
use f3d::risc_impl::RiscStepper;
use f3d::service::{F3dSolver, ServiceCase, ZoneSchedule};
use f3d::solver::{SolverConfig, ZoneSolver};
use fdtd::service::{FdtdCase, FdtdSolver};
use llp::obs::timeline::DEFAULT_EVENT_CAPACITY;
use llp::{FlightRecorder, Policy, SpanKind, Workers};
use mesh::{Arrangement, Dims, Layout, Metrics};
use solver::{Solver, SolverInstance, SolverSpec, WidthMap};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

struct CountingAlloc;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only read `layout.size()`
// and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller's layout goes to `System` as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What a row steps; each case runs `Case::steps` steps.
#[derive(Clone, Copy, PartialEq)]
enum Case {
    /// A served F3D solve of this many zones of the service grid,
    /// sequential or over this many zone shards.
    F3d(usize, Option<usize>),
    /// A served FDTD solve on a cavity this many points on a side.
    Fdtd(usize),
    /// `RiscStepper` alone on a perturbed Cartesian 33 × 40 × L zone of
    /// this many L-planes (at 32 the zone `f3d_above_bound` steps).
    Zone(usize),
    /// One bare `llp::doacross` of 64 iterations per step.
    Doacross,
    /// The recorder's coordinator path per step, with no region: a
    /// step span, a kernel span, a region session, a drain and a reset.
    Spans,
}
use Case::{Doacross, F3d, Fdtd, Spans, Zone};

const STATIC: Policy = Policy::Static;
const DYNAMIC: Policy = Policy::Dynamic { chunk: 4 };

/// A row's key: case, P, schedule, recorder on.
type Row = (Case, usize, Policy, bool);

/// The rows, in table order.
const ROWS: &[Row] = &[
    // Every served case admission bills, on one worker.
    (F3d(1, None), 1, STATIC, false),
    (F3d(2, None), 1, STATIC, false),
    (F3d(3, None), 1, STATIC, false),
    (F3d(4, None), 1, STATIC, false),
    (Fdtd(16), 1, STATIC, false),
    (Fdtd(64), 1, STATIC, false),
    (Fdtd(128), 1, STATIC, false),
    // Served F3D at every P, recorder off and on, self-scheduled, and
    // over zone shards.
    (F3d(3, None), 2, STATIC, false),
    (F3d(3, None), 4, STATIC, false),
    (F3d(3, None), 1, STATIC, true),
    (F3d(3, None), 2, STATIC, true),
    (F3d(3, None), 4, STATIC, true),
    (F3d(3, None), 2, DYNAMIC, false),
    (F3d(2, Some(2)), 1, STATIC, false),
    (F3d(2, Some(2)), 2, STATIC, false),
    (F3d(2, Some(2)), 1, STATIC, true),
    (F3d(2, Some(2)), 2, STATIC, true),
    // The served FDTD maximum under each schedule, and recorded.
    (Fdtd(128), 2, STATIC, false),
    (Fdtd(128), 2, DYNAMIC, false),
    (Fdtd(128), 2, Policy::Guided { min_chunk: 2 }, false),
    (Fdtd(128), 1, STATIC, true),
    (Fdtd(128), 2, STATIC, true),
    // The stepper alone, at L and L/2 planes.
    (Zone(32), 1, STATIC, false),
    (Zone(32), 2, STATIC, false),
    (Zone(32), 1, STATIC, true),
    (Zone(16), 1, STATIC, false),
    (Zone(16), 2, STATIC, false),
    // The region and recorder machinery alone.
    (Doacross, 1, STATIC, false),
    (Doacross, 2, STATIC, false),
    (Doacross, 1, STATIC, true),
    (Doacross, 2, STATIC, true),
    (Spans, 1, STATIC, false),
    (Spans, 1, STATIC, true),
];

impl Case {
    fn steps(self) -> usize {
        match self {
            F3d(..) => 2,
            Zone(_) => 3,
            Fdtd(_) | Doacross | Spans => 4,
        }
    }

    fn name(self) -> String {
        let steps = self.steps();
        match self {
            F3d(zones, None) => format!("f3d/z{zones}s{steps}"),
            F3d(zones, Some(shards)) => format!("f3d/z{zones}s{steps}-zp{shards}"),
            Fdtd(size) => format!("fdtd/n{size}s{steps}"),
            Zone(l) => format!("zone/33x40x{l}s{steps}"),
            Doacross => format!("llp/doacross64s{steps}"),
            Spans => format!("llp/spans-s{steps}"),
        }
    }
}

/// One row's measurements.
struct Counts {
    /// Sync events of each step.
    sync: Vec<u64>,
    /// Allocations of each step.
    allocs: Vec<usize>,
    /// Bytes the instance holds once created.
    held: usize,
    /// Highest live bytes above the pre-instance baseline.
    peak: usize,
    /// The most a later step added above what was live before it.
    step_peak: usize,
    /// What admission bills, for a served case.
    estimate: Option<u64>,
    /// Ring slots the recorder wrote over the solve, and those overwritten.
    slots: usize,
    drops: u64,
}

fn measure_row((case, p, schedule, recorded): Row) -> Counts {
    let mut pool = Workers::new(p).with_policy(schedule);
    pool.set_flight(if recorded {
        FlightRecorder::enabled(p, DEFAULT_EVENT_CAPACITY)
    } else {
        FlightRecorder::disabled()
    });
    await_helpers(&pool);
    let steps = case.steps();
    match case {
        F3d(zones, shards) => served::<F3dSolver>(
            &ServiceCase {
                schedule,
                zone_schedule: shards.map_or(ZoneSchedule::Sequential, ZoneSchedule::Zones),
                ..ServiceCase::calibration(zones, steps, p)
            },
            &pool,
        ),
        Fdtd(size) => served::<FdtdSolver>(
            &FdtdCase {
                size,
                schedule,
                ..FdtdCase::calibration(1, steps, p)
            },
            &pool,
        ),
        Zone(l) => measure(
            &pool,
            steps,
            || {
                let zone = perturbed_zone(Dims::new(33, 40, l));
                let stepper = RiscStepper::for_zone(&zone);
                (zone, stepper, ZoneBcs::projectile())
            },
            |(zone, stepper, bcs), pool, _| stepper.step(zone, bcs, pool, None),
        ),
        Doacross => measure(
            &pool,
            steps,
            || (),
            |(), pool, _| llp::doacross(pool, 64, |_| {}),
        ),
        Spans => measure(
            &pool,
            steps,
            || (),
            |(), pool, _| {
                let rec = pool.flight();
                {
                    let _step = rec.span("step", SpanKind::Step);
                    let _kernel = rec.span("kernel", SpanKind::Kernel);
                    if let Some(session) = rec.begin_region(p, 64, p, "static") {
                        session.finish();
                    }
                }
                drop(rec.take_timeline());
                rec.reset();
            },
        ),
    }
}

/// A served case stepped through the `Solver` trait, as
/// `solver::run_instrumented` drives it.
fn served<S: Solver>(case: &S::Config, pool: &Workers) -> Counts {
    let counts = measure(
        pool,
        case.steps(),
        || S::create_instance(case, &WidthMap),
        |instance, pool, step| instance.step(pool, step, None),
    );
    Counts {
        estimate: Some(case.memory_usage_estimate()),
        ..counts
    }
}

/// Creates an instance and runs `steps` steps of it on `pool`, counting
/// around each.
fn measure<I>(
    pool: &Workers,
    steps: usize,
    create: impl FnOnce() -> I,
    mut step: impl FnMut(&mut I, &Workers, usize),
) -> Counts {
    let (mut sync, mut allocs) = (Vec::with_capacity(steps), Vec::with_capacity(steps));
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut instance = create();
    let held = LIVE.load(Ordering::Relaxed) - base;
    let (mut peak, mut step_peak) = (PEAK.load(Ordering::Relaxed) - base, 0);
    for s in 0..steps {
        let live = LIVE.load(Ordering::Relaxed);
        PEAK.store(live, Ordering::Relaxed);
        let (calls, events) = (CALLS.load(Ordering::Relaxed), pool.sync_event_count());
        step(&mut instance, pool, s);
        allocs.push(CALLS.load(Ordering::Relaxed) - calls);
        sync.push(pool.sync_event_count() - events);
        let top = PEAK.load(Ordering::Relaxed);
        if s > 0 {
            step_peak = step_peak.max(top - live);
        }
        peak = peak.max(top - base);
        assert_eq!(
            pool.region_count(),
            pool.sync_event_count(),
            "every region's exit is one sync event"
        );
    }
    drop(instance);
    let timeline = pool.flight().take_timeline();
    Counts {
        sync,
        allocs,
        held,
        peak,
        step_peak,
        estimate: None,
        slots: timeline.total_events(),
        drops: timeline.dropped_events(),
    }
}

/// Returns once every helper of `pool` has run a task. A helper's
/// thread allocates as it starts, and the region that spawns it can
/// return before it has: each of these regions' tasks sleeps, so every
/// helper takes one, which it can do only once started.
fn await_helpers(pool: &Workers) {
    let p = pool.processors();
    let all = (1 << p) - 2;
    let seen = AtomicUsize::new(0);
    for _ in 0..1000 {
        if seen.load(Ordering::Relaxed) & all == all {
            return;
        }
        pool.region(p, |_, lane| {
            seen.fetch_or(1 << lane, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(1));
        });
    }
    panic!("not every helper of {p} lanes ran a task in 1000 regions");
}

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

/// A count every step read the same as one number, else one per step.
fn per_step<T: PartialEq + ToString>(counts: &[T]) -> String {
    let same = counts.windows(2).all(|w| w[0] == w[1]);
    let cells: Vec<_> = counts.iter().map(T::to_string).collect();
    if same {
        cells[0].clone()
    } else {
        cells.join(",")
    }
}

fn render((case, p, schedule, recorded): Row, c: &Counts) -> String {
    let placed = |cell: String| if p == 1 { cell } else { "-".to_string() };
    let regions: u64 = c.sync.iter().sum();
    let slots = if regions == 0 {
        "-".to_string()
    } else {
        placed(format!("{:.2}", c.slots as f64 / regions as f64))
    };
    let cells = [
        case.name(),
        p.to_string(),
        schedule.canonical(),
        if recorded { "on" } else { "off" }.to_string(),
        per_step(&c.sync),
        regions.to_string(),
        c.allocs[0].to_string(),
        per_step(&c.allocs[1..]),
        c.held.to_string(),
        placed(c.peak.to_string()),
        c.estimate.map_or("-".to_string(), |e| e.to_string()),
        slots,
        c.drops.to_string(),
    ];
    cells.join("\t") + "\n"
}

fn main() {
    let rows: Vec<_> = ROWS.iter().map(|&row| (row, measure_row(row))).collect();
    let mut actual = String::from(
        "# case\tP\tschedule\trecorder\tsync/step\tsync/solve\tallocs step 0\t\
         allocs/later step\theld B\tpeak B\testimate B\tslots/region\tdrops\n",
    );
    for &(row, ref c) in &rows {
        let (case, p, schedule, recorded) = row;
        let name = case.name();
        // The recorder's coordinator log is not billed, so only an
        // unrecorded solve must peak within the estimate.
        if let Some(estimate) = c.estimate.map(|e| e as usize) {
            let peak = if recorded { 0 } else { c.peak };
            assert!(
                c.held <= estimate && peak <= estimate,
                "{name} at P = {p} holds {} B and peaks at {peak} B; admission bills {estimate} B",
                c.held
            );
        }
        for ((_, q, _, _), d) in rows
            .iter()
            .filter(|((o, _, s, r), _)| (*o, *s, *r) == (case, schedule, recorded))
        {
            assert_eq!(c.sync, d.sync, "{name}: sync events at P = {p} and P = {q}");
        }
        if let Zone(l) = case {
            if let Some((_, d)) = rows
                .iter()
                .find(|(other, _)| *other == (Zone(l / 2), p, schedule, recorded))
            {
                assert_eq!(
                    c.allocs[1..],
                    d.allocs[1..],
                    "at P = {p} a step allocates differently over {l} and {} L-planes: \
                     some region allocates per plane",
                    l / 2
                );
            }
            if p == 2 {
                let d = Dims::new(33, 40, l);
                let scratch =
                    2 * RiscStepper::for_zone(&perturbed_zone(d)).scratch_bytes_per_worker();
                let groups = d.k * (size_of::<Vec<&mut [f64]>>() + d.l * size_of::<&mut [f64]>());
                assert!(
                    c.step_peak <= scratch + groups + (8 << 10),
                    "a two-worker step on {name} added {} B: more than two workers' scratch \
                     ({scratch} B), the L factor's row groups ({groups} B) and 8 KiB",
                    c.step_peak
                );
            }
        }
        actual += &render(row, c);
    }
    if actual != include_str!("golden/counts.tsv") {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("counts.tsv");
        std::fs::write(&dump, &actual).expect("write the actual table");
        panic!(
            "counts.tsv drifted from its golden; actual: {}",
            dump.display()
        );
    }
    println!("counts: {} rows match golden/counts.tsv", rows.len());
}
