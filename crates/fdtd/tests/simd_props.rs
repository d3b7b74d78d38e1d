//! Property tests for the FDTD kernels' exactness contract: every
//! `vector_width` variant equals the scalar reference *bitwise*, on
//! random fields, random extents that are not multiples of the lane
//! width, both boundary closures, and every worker count / schedule
//! combination. All comparisons are `==` on `f64` — one ULP of drift
//! is a failure.

use fdtd::grid::{Boundary, TezGrid};
use fdtd::kernels::{update_e, update_h};
use llp::{Policy, Workers};
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
