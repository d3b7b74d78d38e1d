//! Property tests for the SLP lane widths' exactness contract.
//!
//! Every width-aware kernel is one lane body run at `W` points per
//! group with a one-lane tail, and claims *bit*-exactness across `W`:
//! lanes are independent outputs (pencil points) and no reduction is
//! ever chunked, so no floating-point operation is reassociated. These
//! tests pin that contract over random states, random directions, and
//! — critically — random extents that are not multiples of the lane
//! width, so every tail is exercised. The reference is the width-1
//! instantiation, itself pinned to the scalar flux functions per lane
//! below and to golden digests in `f3d::solver`'s unit tests. All
//! comparisons are `==` on `f64`: a single ULP of drift is a failure.

use f3d::blocktri::{
    self, solve_block_tridiagonal, solve_block_tridiagonal_w, Block, BlockTriScratch, Vec5,
};
use f3d::flux;
use f3d::solver::{
    implicit_central_pencil_w, implicit_upwind_pencil_w, rhs_central_pencil_w, rhs_upwind_pencil_w,
    PencilScratch,
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

    /// The Steger–Warming RHS at every width equals its one-lane
    /// instantiation bitwise for every pencil length — the tail points
    /// past the last full lane group run the same body at one lane.
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
        for &w in &SUPPORTED_WIDTHS {
            let mut s = filled_scratch(n, &prims, &dirs, &dts, &rhs);
            rhs_upwind_pencil_w(&mut s, n, w);
            prop_assert_eq!(&s.rhs_line, &reference.rhs_line, "width {}, n {}", w, n);
        }
    }

    /// Same contract for the central RHS with its dissipation term.
    #[test]
    fn central_rhs_is_bit_exact_at_every_width(
        n in 2usize..=MAX_PENCIL,
        eps2 in 0.0f64..0.1,
        prims in prop::collection::vec(primitive(), MAX_PENCIL),
        dirs in prop::collection::vec(direction(), MAX_PENCIL),
        dts in prop::collection::vec(0.001f64..0.05, MAX_PENCIL),
        rhs in prop::collection::vec(vec5(), MAX_PENCIL),
    ) {
        let mut reference = filled_scratch(n, &prims, &dirs, &dts, &rhs);
        rhs_central_pencil_w(&mut reference, n, eps2, 1);
        for &w in &SUPPORTED_WIDTHS {
            let mut s = filled_scratch(n, &prims, &dirs, &dts, &rhs);
            rhs_central_pencil_w(&mut s, n, eps2, w);
            prop_assert_eq!(&s.rhs_line, &reference.rhs_line, "width {}, n {}", w, n);
        }
    }

    /// The implicit upwind factor — lane-evaluated Jacobians feeding
    /// the Thomas solve — returns bit-identical solutions.
    #[test]
    fn implicit_upwind_factor_is_bit_exact_at_every_width(
        n in 2usize..=13,
        prims in prop::collection::vec(primitive(), 13),
        dirs in prop::collection::vec(direction(), 13),
        dts in prop::collection::vec(0.001f64..0.05, 13),
        rhs in prop::collection::vec(vec5(), 13),
    ) {
        let mut reference = filled_scratch(n, &prims, &dirs, &dts, &rhs);
        implicit_upwind_pencil_w(&mut reference, n, 1);
        for &w in &SUPPORTED_WIDTHS {
            let mut s = filled_scratch(n, &prims, &dirs, &dts, &rhs);
            implicit_upwind_pencil_w(&mut s, n, w);
            prop_assert_eq!(&s.rhs_line, &reference.rhs_line, "width {}, n {}", w, n);
        }
    }

    /// Same contract for the central factor, with and without the
    /// implicit viscous stabilization (`mu_vis` 0 and positive both
    /// run; the viscous branch divides by density, so exactness there
    /// is worth pinning separately).
    #[test]
    fn implicit_central_factor_is_bit_exact_at_every_width(
        n in 2usize..=13,
        eps_imp in 0.0f64..0.2,
        mu_vis in 0.0f64..0.01,
        prims in prop::collection::vec(primitive(), 13),
        dirs in prop::collection::vec(direction(), 13),
        dts in prop::collection::vec(0.001f64..0.05, 13),
        rhs in prop::collection::vec(vec5(), 13),
    ) {
        for visc in [0.0, mu_vis] {
            let mut reference = filled_scratch(n, &prims, &dirs, &dts, &rhs);
            implicit_central_pencil_w(&mut reference, n, eps_imp, visc, 1);
            for &w in &SUPPORTED_WIDTHS {
                let mut s = filled_scratch(n, &prims, &dirs, &dts, &rhs);
                implicit_central_pencil_w(&mut s, n, eps_imp, visc, w);
                prop_assert_eq!(&s.rhs_line, &reference.rhs_line, "width {}, n {}", w, n);
            }
        }
    }

    /// The flux lane kernels are the scalar flux applied per lane —
    /// each lane's arithmetic is fully independent, so equality is
    /// bitwise, not approximate.
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
            prop_assert_eq!(df[lane], flux::directed_flux(&q[lane], nv[lane]));
            prop_assert_eq!(sr[lane], flux::spectral_radius(&q[lane], nv[lane]));
            prop_assert_eq!(swp[lane], flux::steger_warming(&q[lane], nv[lane], true));
            prop_assert_eq!(swm[lane], flux::steger_warming(&q[lane], nv[lane], false));
        }
    }
}
