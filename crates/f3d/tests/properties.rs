//! Property-based tests for the solver's numerical substrates.

mod common;

use common::{directed_flux, matvec};
use f3d::blocktri::{solve_block_tridiagonal, Block, BlockTriScratch, Vec5};
use f3d::flux;
use f3d::state::{Primitive, GAMMA};
use mesh::NCONS;
use proptest::prelude::*;

/// A physically valid primitive state.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Conserved/primitive conversion round-trips.
    #[test]
    fn state_roundtrip(prim in primitive()) {
        let q = prim.to_conserved();
        let back = Primitive::from_conserved(&q);
        prop_assert!((back.rho - prim.rho).abs() < 1e-12);
        prop_assert!((back.p - prim.p).abs() < 1e-10);
        prop_assert!((back.u - prim.u).abs() < 1e-12);
    }

    /// Steger–Warming splitting: F+ + F- = F for every state and
    /// direction.
    #[test]
    fn sw_split_sums(prim in primitive(), n in direction()) {
        let q = prim.to_conserved();
        let full = directed_flux(&q, n);
        let plus = flux::steger_warming(&q, n, true);
        let minus = flux::steger_warming(&q, n, false);
        for c in 0..NCONS {
            let err = (plus[c] + minus[c] - full[c]).abs();
            prop_assert!(err < 1e-10 * (1.0 + full[c].abs()), "comp {c}: {err}");
        }
    }

    /// Flux homogeneity: F(Q) = A(Q)·Q for the perfect gas.
    #[test]
    fn flux_homogeneity(prim in primitive(), n in direction()) {
        let q = prim.to_conserved();
        let a = flux::flux_jacobian(&q, n);
        let aq = matvec(&a, &q);
        let f = directed_flux(&q, n);
        for c in 0..NCONS {
            prop_assert!((aq[c] - f[c]).abs() < 1e-9 * (1.0 + f[c].abs()));
        }
    }

    /// Eigenvalues bracket: θ−a|n| < θ < θ+a|n|, and the spectral
    /// radius bounds all three.
    #[test]
    fn eigenvalue_bracket(prim in primitive(), n in direction()) {
        let q = prim.to_conserved();
        let (l1, l4, l5) = flux::eigenvalues(&q, n);
        prop_assert!(l5 < l1);
        prop_assert!(l1 < l4);
        let rho = flux::spectral_radius(&q, n);
        for l in [l1, l4, l5] {
            prop_assert!(l.abs() <= rho + 1e-12);
        }
    }

    /// Directional antisymmetry: F_{-n}(Q) = -F_n(Q), and the split
    /// parts swap roles.
    #[test]
    fn direction_antisymmetry(prim in primitive(), n in direction()) {
        let q = prim.to_conserved();
        let neg = [-n[0], -n[1], -n[2]];
        let f = directed_flux(&q, n);
        let f_neg = directed_flux(&q, neg);
        for c in 0..NCONS {
            prop_assert!((f[c] + f_neg[c]).abs() < 1e-11 * (1.0 + f[c].abs()));
        }
        let plus = flux::steger_warming(&q, n, true);
        let minus_neg = flux::steger_warming(&q, neg, false);
        for c in 0..NCONS {
            prop_assert!((plus[c] + minus_neg[c]).abs() < 1e-10 * (1.0 + plus[c].abs()),
                "F+(n) must equal -F-(-n), comp {c}");
        }
    }

    /// Sound speed and Mach are consistent.
    #[test]
    fn acoustics(prim in primitive()) {
        let a = prim.sound_speed();
        prop_assert!((a * a - GAMMA * prim.p / prim.rho).abs() < 1e-12);
        prop_assert!((prim.mach() - prim.speed() / a).abs() < 1e-12);
    }
}

/// A diagonally dominant random block.
fn dom_block(vals: &[f64; 25], dominance: f64) -> Block {
    let mut b = [[0.0; NCONS]; NCONS];
    for i in 0..NCONS {
        for j in 0..NCONS {
            b[i][j] = vals[i * NCONS + j];
        }
        b[i][i] += dominance;
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Block-tridiagonal Thomas solve reproduces a manufactured
    /// solution for random well-conditioned systems of random length.
    #[test]
    fn thomas_manufactured(
        n in 2usize..20,
        seed_vals in prop::collection::vec(prop::array::uniform25(-0.5f64..0.5), 60),
        xs in prop::collection::vec(prop::array::uniform5(-5.0f64..5.0), 20),
    ) {
        let lower: Vec<Block> = (0..n).map(|i| dom_block(&seed_vals[i % 60], 0.0)).collect();
        let upper: Vec<Block> = (0..n).map(|i| dom_block(&seed_vals[(i + 17) % 60], 0.0)).collect();
        let diag: Vec<Block> = (0..n).map(|i| dom_block(&seed_vals[(i + 31) % 60], 7.0)).collect();
        let x: Vec<Vec5> = (0..n).map(|i| xs[i % xs.len()]).collect();
        let mut rhs: Vec<Vec5> = Vec::with_capacity(n);
        for i in 0..n {
            let mut r = matvec(&diag[i], &x[i]);
            if i > 0 {
                let lx = matvec(&lower[i], &x[i - 1]);
                for (rv, lv) in r.iter_mut().zip(lx) { *rv += lv; }
            }
            if i + 1 < n {
                let ux = matvec(&upper[i], &x[i + 1]);
                for (rv, uv) in r.iter_mut().zip(ux) { *rv += uv; }
            }
            rhs.push(r);
        }
        let mut scratch = BlockTriScratch::new(n);
        solve_block_tridiagonal(&lower, &diag, &upper, &mut rhs, &mut scratch);
        for i in 0..n {
            for c in 0..NCONS {
                prop_assert!(
                    (rhs[i][c] - x[i][c]).abs() < 1e-6,
                    "point {i} comp {c}: {} vs {}", rhs[i][c], x[i][c]
                );
            }
        }
    }
}
