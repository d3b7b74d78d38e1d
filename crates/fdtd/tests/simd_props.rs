//! Property tests for the FDTD kernels' exactness contract: every
//! `vector_width` variant equals the scalar reference *bitwise*, on
//! random fields, random extents that are not multiples of the lane
//! width, both boundary closures, and every worker count / schedule
//! combination. All comparisons are `==` on `f64` — one ULP of drift
//! is a failure. The fused sweep's row partials (computed inside the
//! `update_e` region by whichever worker wrote the row) are held to
//! each row's own left fold, the energy's definition; the served energy
//! history under every run configuration is `serve`'s oracle's
//! (`crates/serve/tests/oracle.rs`), and the served maximum is pinned
//! bit for bit at the end.

use fdtd::grid::{Boundary, TezGrid};
use fdtd::kernels::{update_e, update_e_energy, update_h};
use fdtd::service::FdtdCase;
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
    for (p, &(ex, ey)) in e0[..nx * ny].iter().enumerate() {
        let (j, i) = (p / nx, p % nx);
        g.e[2 * nx * j + i] = ex;
        g.e[2 * nx * j + nx + i] = ey;
    }
    for (h, &v) in g.hz.iter_mut().zip(hz0) {
        *h = v;
    }
    g
}

/// Each row's energy partial as its definition states it: a plain left
/// fold of `ex² + ey² + hz²` over the row's points in storage order.
fn row_folds(g: &TezGrid) -> Vec<u64> {
    let rows = g.e.chunks_exact(2 * g.nx).zip(g.hz.chunks_exact(g.nx));
    rows.map(|(e_row, hz_row)| {
        let (ex, ey) = e_row.split_at(g.nx);
        let mut acc = 0.0;
        for i in 0..g.nx {
            acc += ex[i] * ex[i] + ey[i] * ey[i] + hz_row[i] * hz_row[i];
        }
        acc.to_bits()
    })
    .collect()
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

    /// The fused sweep is `update_e` plus the row folds, bit for bit,
    /// at extents that cut a row into several term blocks (`nx` past
    /// 128 and 256) and a run into groups with every leftover (`ny`
    /// mod 4), under every closure, worker count and schedule — checked
    /// against each row's own left fold, not against the shared fold.
    #[test]
    fn fused_energy_sweep_is_update_e_and_the_row_folds(
        nx in 2usize..=300,
        ny in 2usize..=11,
        b in boundary(),
        workers in 1usize..5,
        pol in policy(),
        e0 in prop::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 300 * 11),
        hz0 in prop::collection::vec(-2.0f64..2.0, 300 * 11),
    ) {
        let mut reference = seeded_grid(nx, ny, b, &e0, &hz0);
        update_e(&Workers::serial(), &mut reference, 1);
        let folds = row_folds(&reference);
        let total = folds.iter().fold(0.0, |acc, &bits| acc + f64::from_bits(bits)) / 2.0;
        prop_assert_eq!(reference.energy().to_bits(), total.to_bits());

        let mut g = seeded_grid(nx, ny, b, &e0, &hz0);
        let mut partials = vec![f64::NAN; ny];
        let pool = Workers::new(workers).with_policy(pol);
        update_e_energy(&pool, &mut g, &mut partials);
        prop_assert_eq!(&g.e, &reference.e, "e, {} x {} {:?}", nx, ny, pol);
        let served: Vec<u64> = partials.iter().map(|p| p.to_bits()).collect();
        prop_assert_eq!(served, folds, "partials, {} x {} {:?}", nx, ny, pol);
    }
}

/// FNV-1a over the values' bits, the digest `benchmark/golden.json`
/// spells.
fn digest(values: &[f64]) -> String {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    format!("{:016x}", solver::fnv1a64(&bytes))
}

/// The served maximum (128², 64 steps) is pinned bit for bit, so every
/// codegen this crate is tested under (CI runs it under x86-64-v3 too,
/// where the row loops vectorize wider) must reproduce it: its field
/// checksums are the benchmark's `fdtd_128_64steps` digests and its
/// energy history has a digest of its own.
#[test]
fn served_maximum_is_pinned_bit_for_bit() {
    let case = FdtdCase {
        size: 128,
        steps: 64,
        workers: 2,
        schedule: Policy::Static,
        vector_width: 1,
    };
    let run = fdtd::service::run(&case, &Workers::new(2)).unwrap();
    let sums: Vec<(&str, String)> = run
        .output
        .checksums
        .iter()
        .map(|s| (s.field.as_str(), digest(&[s.sum, s.sum_sq, s.min, s.max])))
        .collect();
    let pinned = [
        ("ex", "37848a50cdd17d57"),
        ("ey", "6bef1da8556c8d90"),
        ("hz", "71549c622b47224c"),
    ];
    assert_eq!(sums, pinned.map(|(field, d)| (field, d.to_string())));
    assert_eq!(digest(&run.output.energy), "3418e0243c33d960");
}
