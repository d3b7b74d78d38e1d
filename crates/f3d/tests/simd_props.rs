//! Property tests for the SLP lane widths' exactness contract.
//!
//! Every width-aware kernel is one lane body run at `W` lanes per
//! group with a one-lane tail, and claims *bit*-exactness across `W`:
//! lanes are independent outputs — points of a pencil for the
//! residual kernels, whole pencils for the implicit factors and the
//! block-Thomas solve under them — and no reduction is ever chunked,
//! so no floating-point operation is reassociated. These tests pin
//! that contract over random states, random directions, and —
//! critically — random extents that are not multiples of the lane
//! width, so every tail is exercised. The reference is the width-1
//! instantiation, itself pinned to the scalar flux functions per lane
//! below and to golden digests in `f3d::solver`'s unit tests. All
//! comparisons are `==` on `f64` or on its bits: a single ULP of drift
//! is a failure.

mod common;

use common::{directed_flux, matvec};
use f3d::blocktri::{
    self, solve_block_tridiagonal, solve_block_tridiagonal_lanes, solve_block_tridiagonal_w, Block,
    BlockTriScratch, Vec5,
};
use f3d::flux;
use f3d::solver::{
    implicit_central_pencil_w, implicit_factor_bundle, implicit_upwind_pencil_w,
    rhs_upwind_pencil_w, CentralFactor, ImplicitFactor, PencilScratch, UpwindFactor,
    RESIDUAL_LANES,
};
use f3d::state::Primitive;
use mesh::NCONS;
use proptest::prelude::*;
use solver::SUPPORTED_WIDTHS;

/// Longest pencil the tests draw: enough interior points to cover a
/// full lane group plus remainder at every supported width.
const MAX_PENCIL: usize = 19;

/// A physically valid primitive state (positive density and pressure).
fn primitive() -> impl Strategy<Value = Primitive> {
    (
        0.2f64..5.0,  // rho
        -2.0f64..2.0, // u
        -2.0f64..2.0, // v
        -2.0f64..2.0, // w
        0.1f64..5.0,  // p
    )
        .prop_map(|(rho, u, v, w, p)| Primitive { rho, u, v, w, p })
}

/// A nonzero direction vector.
fn direction() -> impl Strategy<Value = [f64; 3]> {
    ([-2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0])
        .prop_filter("nonzero", |n| n[0].abs() + n[1].abs() + n[2].abs() > 0.1)
}

/// A random 5×5 block with entries sprinkled with exact zeros, so the
/// block product's zero-skip branch is exercised.
fn block() -> impl Strategy<Value = Block> {
    prop::array::uniform5(prop::array::uniform5(-3.0f64..3.0)).prop_map(|mut b| {
        for (i, row) in b.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                if (i + 2 * j) % 5 == 3 {
                    *v = 0.0;
                }
            }
        }
        b
    })
}

fn vec5() -> impl Strategy<Value = Vec5> {
    prop::array::uniform5(-3.0f64..3.0)
}

/// A diagonally dominant block (identity-heavy), guaranteeing the
/// Thomas solve never meets a singular pivot.
fn dominant_diag() -> impl Strategy<Value = Block> {
    block().prop_map(|b| {
        let mut d = blocktri::scale(&b, 0.05);
        for (i, row) in d.iter_mut().enumerate() {
            row[i] += 4.0;
        }
        d
    })
}

fn off_diag() -> impl Strategy<Value = Block> {
    block().prop_map(|b| blocktri::scale(&b, 0.05))
}

/// One block-tridiagonal system, longer than any length the tests cut
/// it to.
#[derive(Debug, Clone)]
struct System {
    lower: Vec<Block>,
    diag: Vec<Block>,
    upper: Vec<Block>,
    rhs: Vec<Vec5>,
}

/// Longest system the lane-solve tests draw.
const MAX_SYSTEM: usize = 12;

/// A random diagonally dominant system of [`MAX_SYSTEM`] points.
fn system() -> impl Strategy<Value = System> {
    (
        prop::collection::vec(off_diag(), MAX_SYSTEM),
        prop::collection::vec(dominant_diag(), MAX_SYSTEM),
        prop::collection::vec(off_diag(), MAX_SYSTEM),
        prop::collection::vec(vec5(), MAX_SYSTEM),
    )
        .prop_map(|(lower, diag, upper, rhs)| System {
            lower,
            diag,
            upper,
            rhs,
        })
}

fn bits(x: &[Vec5]) -> Vec<[u64; NCONS]> {
    x.iter().map(|v| v.map(f64::to_bits)).collect()
}

/// The first `n` points of one system, solved alone.
fn solve_alone(system: &System, n: usize) -> Vec<Vec5> {
    let mut x = system.rhs[..n].to_vec();
    solve_block_tridiagonal(
        &system.lower[..n],
        &system.diag[..n],
        &system.upper[..n],
        &mut x,
        &mut BlockTriScratch::new(n),
    );
    x
}

/// The first `n` points of `W` systems, solved in lockstep.
fn solve_in_lockstep<const W: usize>(systems: &[System], n: usize) -> Vec<Vec<Vec5>> {
    let mut x: Vec<Vec<Vec5>> = systems[..W].iter().map(|s| s.rhs[..n].to_vec()).collect();
    let mut lanes = x.iter_mut();
    solve_block_tridiagonal_lanes::<W>(
        std::array::from_fn(|lane| &systems[lane].lower[..n]),
        std::array::from_fn(|lane| &systems[lane].diag[..n]),
        std::array::from_fn(|lane| &systems[lane].upper[..n]),
        std::array::from_fn(|_| lanes.next().expect("W systems").as_mut_slice()),
        &mut BlockTriScratch::for_lanes(n, W),
    );
    x
}

/// The lane whose lockstep solution differs from its solve alone, if
/// any.
fn lane_off_its_own_solve<const W: usize>(systems: &[System], n: usize) -> Option<usize> {
    let together = solve_in_lockstep::<W>(systems, n);
    (0..W).find(|&lane| bits(&together[lane]) != bits(&solve_alone(&systems[lane], n)))
}

/// A fixed dominant system, different per `seed`.
fn fixed_system(seed: usize, n: usize) -> System {
    let wave = |i: usize, r: usize, c: usize| 0.07 * ((seed + 3 * i + 5 * r + 7 * c) as f64).sin();
    let block = |i: usize, shift: f64| -> Block {
        std::array::from_fn(|r| {
            std::array::from_fn(|c| wave(i, r, c) + if r == c { shift } else { 0.0 })
        })
    };
    System {
        lower: (0..n).map(|i| block(i, 0.0)).collect(),
        diag: (0..n).map(|i| block(i + 40, 4.0)).collect(),
        upper: (0..n).map(|i| block(i + 80, 0.0)).collect(),
        rhs: (0..n)
            .map(|i| std::array::from_fn(|c| wave(i + 120, c, 2)))
            .collect(),
    }
}

/// One lane's diagonal blocks need a row swap in every column (a
/// scaled cyclic permutation: zeros on the diagonal, nonsingular),
/// its neighbours' need none. Every lane must still get exactly its
/// own one-pencil solution, and the swapped lane's must really solve
/// its system.
#[test]
fn one_lane_swapping_rows_leaves_every_lane_exact() {
    let n = 7;
    let mut systems: Vec<System> = (0..4).map(|seed| fixed_system(seed, n)).collect();
    for (i, d) in systems[2].diag.iter_mut().enumerate() {
        for (r, row) in d.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = 0.01 * ((i + r + 2 * c) as f64).cos();
            }
            row[r] = 0.0;
            row[(r + 1) % NCONS] = 4.0;
        }
    }
    assert_eq!(lane_off_its_own_solve::<4>(&systems, n), None);

    let swapped = &systems[2];
    let x = &solve_in_lockstep::<4>(&systems, n)[2];
    for i in 0..n {
        let mut residual = matvec(&swapped.diag[i], &x[i]);
        if i > 0 {
            let lx = matvec(&swapped.lower[i], &x[i - 1]);
            residual.iter_mut().zip(lx).for_each(|(r, v)| *r += v);
        }
        if i + 1 < n {
            let ux = matvec(&swapped.upper[i], &x[i + 1]);
            residual.iter_mut().zip(ux).for_each(|(r, v)| *r += v);
        }
        for (c, r) in residual.iter().enumerate() {
            assert!((r - swapped.rhs[i][c]).abs() < 1e-12, "point {i} comp {c}");
        }
    }
}

/// A singular pivot block in one lane stops the whole bundle, naming
/// the point.
#[test]
#[should_panic(expected = "singular pivot block at 3")]
fn a_singular_lane_panics_naming_the_point() {
    let n = 6;
    let mut systems: Vec<System> = (0..4).map(|seed| fixed_system(seed, n)).collect();
    systems[1].lower[3] = [[0.0; NCONS]; NCONS];
    systems[1].diag[3] = [[0.0; NCONS]; NCONS];
    let _ = solve_in_lockstep::<4>(&systems, n);
}

/// Gathered pencils, pencil-major: states, directions, time steps and
/// right-hand sides.
type Pencils = (Vec<Primitive>, Vec<[f64; 3]>, Vec<f64>, Vec<Vec5>);

/// `w` random pencils of `max` points.
fn pencils(w: usize, max: usize) -> impl Strategy<Value = Pencils> {
    (
        prop::collection::vec(primitive(), w * max),
        prop::collection::vec(direction(), w * max),
        prop::collection::vec(0.001f64..0.05, w * max),
        prop::collection::vec(vec5(), w * max),
    )
}

/// Run `factor` over the first `n` points of `W` pencils (pencil
/// `lane` starting at `lane * stride` of each input) as one bundle,
/// and return the lane whose solution differs from running
/// `one_pencil` on that pencil alone, if any.
fn lane_off_its_own_pencil<const W: usize, F: ImplicitFactor>(
    factor: &F,
    one_pencil: impl Fn(&mut PencilScratch),
    n: usize,
    stride: usize,
    (prims, dirs, dts, rhs): &Pencils,
) -> Option<usize> {
    let mut bundle = PencilScratch::for_pencils(n, W);
    for lane in 0..W {
        for i in 0..n {
            let from = lane * stride + i;
            bundle.q_line[i * W + lane] = prims[from].to_conserved();
            bundle.n_line[i * W + lane] = dirs[from];
            bundle.dt_line[i * W + lane] = dts[from];
            bundle.rhs_line[i * W + lane] = rhs[from];
        }
    }
    implicit_factor_bundle::<W, F>(&mut bundle, n, factor);
    (0..W).find(|&lane| {
        let at = lane * stride;
        let mut alone = filled_scratch(n, &prims[at..], &dirs[at..], &dts[at..], &rhs[at..]);
        one_pencil(&mut alone);
        (0..n).any(|i| {
            bundle.rhs_line[i * W + lane].map(f64::to_bits) != alone.rhs_line[i].map(f64::to_bits)
        })
    })
}

/// Fill a pencil scratch with the first `n` of the generated states,
/// directions, time steps, and right-hand sides.
fn filled_scratch(
    n: usize,
    prims: &[Primitive],
    dirs: &[[f64; 3]],
    dts: &[f64],
    rhs: &[Vec5],
) -> PencilScratch {
    let mut s = PencilScratch::new(n);
    for i in 0..n {
        s.q_line[i] = prims[i].to_conserved();
        s.n_line[i] = dirs[i];
        s.dt_line[i] = dts[i];
        s.rhs_line[i] = rhs[i];
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Thomas solve does not read the width: the width-taking
    /// entry point returns the plain solve's bits for random diagonally
    /// dominant systems of every length, at every supported width and
    /// at an unsupported one.
    #[test]
    fn block_tridiagonal_solve_is_bit_exact_at_every_width(
        n in 1usize..12,
        lowers in prop::collection::vec(off_diag(), 12),
        diags in prop::collection::vec(dominant_diag(), 12),
        uppers in prop::collection::vec(off_diag(), 12),
        rhs0 in prop::collection::vec(vec5(), 12),
    ) {
        let lower = &lowers[..n];
        let diag = &diags[..n];
        let upper = &uppers[..n];

        let mut reference = rhs0[..n].to_vec();
        let mut scratch = BlockTriScratch::new(n);
        solve_block_tridiagonal(lower, diag, upper, &mut reference, &mut scratch);

        for w in SUPPORTED_WIDTHS.into_iter().chain([3]) {
            let mut rhs = rhs0[..n].to_vec();
            let mut scratch = BlockTriScratch::new(n);
            solve_block_tridiagonal_w(lower, diag, upper, &mut rhs, &mut scratch, w);
            prop_assert_eq!(&rhs, &reference, "width {}, n {}", w, n);
        }
    }

    /// The Steger–Warming RHS in lane groups of `RESIDUAL_LANES` equals
    /// its one-lane instantiation bitwise for every pencil length — the
    /// tail points past the last full lane group run the same body at
    /// one lane.
    #[test]
    fn upwind_rhs_is_bit_exact_at_every_width(
        n in 2usize..=MAX_PENCIL,
        prims in prop::collection::vec(primitive(), MAX_PENCIL),
        dirs in prop::collection::vec(direction(), MAX_PENCIL),
        dts in prop::collection::vec(0.001f64..0.05, MAX_PENCIL),
        rhs in prop::collection::vec(vec5(), MAX_PENCIL),
    ) {
        let mut reference = filled_scratch(n, &prims, &dirs, &dts, &rhs);
        rhs_upwind_pencil_w(&mut reference, n, 1);
        let mut s = filled_scratch(n, &prims, &dirs, &dts, &rhs);
        rhs_upwind_pencil_w(&mut s, n, RESIDUAL_LANES);
        prop_assert_eq!(&s.rhs_line, &reference.rhs_line, "n {}", n);
    }

    /// `W` systems solved in lockstep give each lane the bits of that
    /// system solved alone, for random diagonally dominant systems of
    /// every length.
    #[test]
    fn lane_solve_is_bit_exact_with_the_one_pencil_solve(
        n in 1usize..=MAX_SYSTEM,
        systems in prop::collection::vec(system(), 8),
    ) {
        prop_assert_eq!(lane_off_its_own_solve::<2>(&systems, n), None, "W = 2, n {}", n);
        prop_assert_eq!(lane_off_its_own_solve::<4>(&systems, n), None, "W = 4, n {}", n);
        prop_assert_eq!(lane_off_its_own_solve::<8>(&systems, n), None, "W = 8, n {}", n);
    }

    /// The implicit upwind factor over a bundle of pencils — Jacobians
    /// evaluated across the lanes feeding the lockstep Thomas solve —
    /// gives every pencil the bits of the one-pencil entry point.
    #[test]
    fn implicit_upwind_factor_is_bit_exact_at_every_bundle_width(
        n in 2usize..=13,
        input in pencils(8, 13),
    ) {
        let alone = |s: &mut PencilScratch| implicit_upwind_pencil_w(s, n, 1);
        prop_assert_eq!(lane_off_its_own_pencil::<2, _>(&UpwindFactor, alone, n, 13, &input), None, "W = 2, n {}", n);
        prop_assert_eq!(lane_off_its_own_pencil::<4, _>(&UpwindFactor, alone, n, 13, &input), None, "W = 4, n {}", n);
        prop_assert_eq!(lane_off_its_own_pencil::<8, _>(&UpwindFactor, alone, n, 13, &input), None, "W = 8, n {}", n);
    }

    /// Same contract for the central factor, with and without the
    /// implicit viscous stabilization (`mu_vis` 0 and positive both
    /// run; the viscous branch divides by density, so exactness there
    /// is worth pinning separately).
    #[test]
    fn implicit_central_factor_is_bit_exact_at_every_bundle_width(
        n in 2usize..=13,
        eps_imp in 0.0f64..0.2,
        mu_vis in 0.0f64..0.01,
        input in pencils(8, 13),
    ) {
        for mu_vis in [0.0, mu_vis] {
            let factor = CentralFactor { eps_imp, mu_vis };
            let alone = |s: &mut PencilScratch| implicit_central_pencil_w(s, n, eps_imp, mu_vis);
            prop_assert_eq!(lane_off_its_own_pencil::<2, _>(&factor, alone, n, 13, &input), None, "W = 2, n {}", n);
            prop_assert_eq!(lane_off_its_own_pencil::<4, _>(&factor, alone, n, 13, &input), None, "W = 4, n {}", n);
            prop_assert_eq!(lane_off_its_own_pencil::<8, _>(&factor, alone, n, 13, &input), None, "W = 8, n {}", n);
        }
    }

    /// The flux lane kernels at W = 4 are their one-lane instances
    /// applied per lane — each lane's arithmetic is fully independent,
    /// so equality is bitwise, not approximate. (`flux`'s unit tests
    /// hold every width to the test-only one-point references.)
    #[test]
    fn flux_lane_kernels_match_scalar_per_lane(
        prims in prop::collection::vec(primitive(), 4),
        dirs in prop::collection::vec(direction(), 4),
    ) {
        let mut q = [[0.0; NCONS]; 4];
        let mut nv = [[0.0; 3]; 4];
        for lane in 0..4 {
            q[lane] = prims[lane].to_conserved();
            nv[lane] = dirs[lane];
        }
        let df = flux::directed_flux_lanes::<4>(&q, &nv);
        let sr = flux::spectral_radius_lanes::<4>(&q, &nv);
        let swp = flux::steger_warming_lanes::<4>(&q, &nv, true);
        let swm = flux::steger_warming_lanes::<4>(&q, &nv, false);
        for lane in 0..4 {
            prop_assert_eq!(df[lane], directed_flux(&q[lane], nv[lane]));
            prop_assert_eq!(sr[lane], flux::spectral_radius_lanes::<1>(&[q[lane]], &[nv[lane]])[0]);
            prop_assert_eq!(swp[lane], flux::steger_warming(&q[lane], nv[lane], true));
            prop_assert_eq!(swm[lane], flux::steger_warming(&q[lane], nv[lane], false));
        }
    }
}
