//! Property tests for the FDTD kernels' exactness contract: every
//! `vector_width` variant equals the scalar reference *bitwise*, on
//! random fields, random extents that are not multiples of the lane
//! width, both boundary closures, and every worker count / schedule
//! combination. All comparisons are `==` on `f64` — one ULP of drift
//! is a failure. The served step's energy history (row partials
//! computed inside the `update_e` region by whichever worker wrote the
//! row) is held to the same standard against the serial
//! `TezGrid::energy` by one exhaustive oracle at the end.

use fdtd::grid::{Boundary, TezGrid};
use fdtd::kernels::{update_e, update_h};
use fdtd::service::{FdtdCase, FdtdSolver, SERVICE_COURANT};
use llp::{Policy, ScheduleMap, Workers};
use proptest::prelude::*;
use solver::SUPPORTED_WIDTHS;

/// Largest tested extent: big enough to cover full lane groups plus a
/// remainder at every supported width (8k + r for the widest lanes).
const MAX_EXTENT: usize = 21;

fn boundary() -> impl Strategy<Value = Boundary> {
    (0usize..2).prop_map(|i| {
        if i == 0 {
            Boundary::PecBox
        } else {
            Boundary::Periodic
        }
    })
}

fn policy() -> impl Strategy<Value = Policy> {
    (0usize..3, 1usize..4).prop_map(|(kind, c)| match kind {
        0 => Policy::Static,
        1 => Policy::Dynamic { chunk: c },
        _ => Policy::Guided { min_chunk: c },
    })
}

/// A grid with every point of every field drawn at random — no
/// physical smoothness, so cancellation-order bugs cannot hide.
fn seeded_grid(nx: usize, ny: usize, b: Boundary, e0: &[(f64, f64)], hz0: &[f64]) -> TezGrid {
    let mut g = TezGrid::new(nx, ny, b, 0.5);
    for (p, &(ex, ey)) in g.e.iter_mut().zip(e0) {
        *p = [ex, ey];
    }
    for (h, &v) in g.hz.iter_mut().zip(hz0) {
        *h = v;
    }
    g
}

fn advance(g: &mut TezGrid, pool: &Workers, steps: usize, width: usize) {
    for _ in 0..steps {
        update_h(pool, g, width);
        update_e(pool, g, width);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every supported width reproduces the scalar run bit-for-bit —
    /// including extents with remainders at every width, and a
    /// nonsense width (which must fall back to scalar).
    #[test]
    fn every_width_is_bit_exact_vs_scalar(
        nx in 2usize..=MAX_EXTENT,
        ny in 2usize..=MAX_EXTENT,
        b in boundary(),
        steps in 1usize..5,
        e0 in prop::collection::vec((-2.0f64..2.0, -2.0f64..2.0), MAX_EXTENT * MAX_EXTENT),
        hz0 in prop::collection::vec(-2.0f64..2.0, MAX_EXTENT * MAX_EXTENT),
    ) {
        let pool = Workers::serial();
        let mut reference = seeded_grid(nx, ny, b, &e0, &hz0);
        advance(&mut reference, &pool, steps, 1);

        for w in SUPPORTED_WIDTHS.into_iter().chain([3]) {
            let mut g = seeded_grid(nx, ny, b, &e0, &hz0);
            advance(&mut g, &pool, steps, w);
            prop_assert_eq!(&g.e, &reference.e, "e, width {}", w);
            prop_assert_eq!(&g.hz, &reference.hz, "hz, width {}", w);
        }
    }

    /// Width, worker count, and schedule compose without changing a
    /// bit: a wide run on a scheduled multi-worker pool equals the
    /// serial scalar run exactly.
    #[test]
    fn widths_compose_with_workers_and_schedules(
        nx in 2usize..=13,
        ny in 2usize..=13,
        b in boundary(),
        workers in 2usize..5,
        pol in policy(),
        e0 in prop::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 13 * 13),
        hz0 in prop::collection::vec(-2.0f64..2.0, 13 * 13),
    ) {
        let mut reference = seeded_grid(nx, ny, b, &e0, &hz0);
        advance(&mut reference, &Workers::serial(), 3, 1);

        let pool = Workers::new(workers).with_policy(pol);
        for &w in &SUPPORTED_WIDTHS {
            let mut g = seeded_grid(nx, ny, b, &e0, &hz0);
            advance(&mut g, &pool, 3, w);
            prop_assert_eq!(&g.e, &reference.e, "e, width {} pol {:?}", w, pol);
            prop_assert_eq!(&g.hz, &reference.hz, "hz, width {} pol {:?}", w, pol);
        }
    }
}

/// The energy history and final checksums of `size²` stepped serially
/// with the plain kernels and `TezGrid::energy` — the definition.
fn serial_reference(size: usize, steps: usize) -> (Vec<u64>, Vec<fdtd::FieldChecksum>) {
    let serial = Workers::serial();
    let mut g = TezGrid::new(size, size, Boundary::PecBox, SERVICE_COURANT);
    let energy = (0..steps)
        .map(|step| {
            g.inject_soft_source(step);
            update_h(&serial, &mut g, 1);
            update_e(&serial, &mut g, 1);
            g.energy().to_bits()
        })
        .collect();
    (energy, g.checksums())
}

/// Owner-computes energy is one number: size × workers × policy ×
/// width, plus per-kernel overrides that cut `update_h` and `update_e`
/// differently, all reproduce the serial history bit for bit.
#[test]
fn served_energy_is_the_serial_row_fold_under_every_configuration() {
    // Past the source's peak (t0 = 10), so the fields are well mixed.
    const STEPS: usize = 14;
    let pool = Workers::new(4);
    let mut uneven = ScheduleMap::new();
    uneven.set("update_h", 3, Policy::Guided { min_chunk: 1 });
    uneven.set("update_e", 2, Policy::Dynamic { chunk: 5 });
    for size in [8usize, 17, 33, 128] {
        let (energy, checksums) = serial_reference(size, STEPS);
        assert!(energy.iter().all(|&bits| f64::from_bits(bits) > 0.0));
        let check = |case: &FdtdCase, schedules: Option<&ScheduleMap>| {
            let view = pool.sized_view(case.workers);
            let run = solver::run_instrumented::<FdtdSolver>(case, &view, schedules).unwrap();
            let served: Vec<u64> = run.output.energy.iter().map(|e| e.to_bits()).collect();
            assert_eq!(served, energy, "{case:?} overrides {schedules:?}");
            assert_eq!(
                run.output.checksums, checksums,
                "{case:?} overrides {schedules:?}"
            );
            assert_eq!(run.sync_events, 2 * STEPS as u64, "{case:?}");
        };
        for workers in 1..=4 {
            for schedule in [
                Policy::Static,
                Policy::Dynamic { chunk: 1 },
                Policy::Dynamic { chunk: 4 },
                Policy::Guided { min_chunk: 2 },
            ] {
                for vector_width in SUPPORTED_WIDTHS {
                    let case = FdtdCase {
                        size,
                        steps: STEPS,
                        workers,
                        schedule,
                        vector_width,
                    };
                    check(&case, None);
                }
            }
        }
        let case = FdtdCase {
            size,
            steps: STEPS,
            workers: 4,
            schedule: Policy::Static,
            vector_width: 4,
        };
        check(&case, Some(&uneven));
    }
}
