//! Directed Euler fluxes, Steger–Warming flux-vector splitting, and
//! analytic flux Jacobians in generalized coordinates.
//!
//! F3D's scheme is *partially flux-split*: the streamwise (J) direction
//! uses Steger–Warming upwinding — which is what creates the one-sided
//! implicit recurrences the paper's loop analysis revolves around —
//! while the K and L directions are centrally differenced. All three
//! need the directed flux and its Jacobian for the implicit factors.
//!
//! Directions are described by the (unnormalized) metric gradient
//! `n = ∇ξ` of the computational coordinate, so the directed flux is
//! `F_n = n_x F + n_y G + n_z H` with contravariant velocity
//! `θ = n·(u,v,w)`.

use crate::state::{Primitive, GAMMA};
use mesh::NCONS;

/// The three distinct eigenvalues of the directed flux Jacobian:
/// `(θ, θ + a|n|, θ − a|n|)`.
#[must_use]
pub fn eigenvalues(q: &[f64; NCONS], n: [f64; 3]) -> (f64, f64, f64) {
    let prim = Primitive::from_conserved(q);
    let theta = n[0] * prim.u + n[1] * prim.v + n[2] * prim.w;
    let m = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
    let a = prim.sound_speed();
    (theta, theta + a * m, theta - a * m)
}

/// Spectral radius `|θ| + a|n|` — the time-step and approximate-Jacobian
/// scale.
#[must_use]
pub fn spectral_radius(q: &[f64; NCONS], n: [f64; 3]) -> f64 {
    let (l1, l4, l5) = eigenvalues(q, n);
    l1.abs().max(l4.abs()).max(l5.abs())
}

/// Positive/negative part of an eigenvalue: `(λ ± |λ|) / 2`.
#[inline(always)]
fn split(lambda: f64, positive: bool) -> f64 {
    if positive {
        0.5 * (lambda + lambda.abs())
    } else {
        0.5 * (lambda - lambda.abs())
    }
}

/// Steger–Warming split flux `F_n^±(Q)`.
///
/// The classic formula built from the split eigenvalues; the defining
/// identity `F⁺ + F⁻ = F_n` is enforced by tests, and `F⁺` (`F⁻`) has
/// non-negative (non-positive) eigenvalue content so that backward
/// (forward) differencing of it is stable — the upwind property the J
/// sweeps rely on.
#[must_use]
pub fn steger_warming(q: &[f64; NCONS], n: [f64; 3], positive: bool) -> [f64; NCONS] {
    let prim = Primitive::from_conserved(q);
    let m = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
    assert!(m > 0.0, "direction vector must be nonzero");
    let nt = [n[0] / m, n[1] / m, n[2] / m];
    let a = prim.sound_speed();
    let theta = n[0] * prim.u + n[1] * prim.v + n[2] * prim.w;
    let l1 = split(theta, positive);
    let l4 = split(theta + a * m, positive);
    let l5 = split(theta - a * m, positive);

    let g = GAMMA;
    let c = prim.rho / (2.0 * g);
    let (u, v, w) = (prim.u, prim.v, prim.w);
    let q2 = u * u + v * v + w * w;
    let up = [u + a * nt[0], v + a * nt[1], w + a * nt[2]];
    let um = [u - a * nt[0], v - a * nt[1], w - a * nt[2]];
    let up2 = up[0] * up[0] + up[1] * up[1] + up[2] * up[2];
    let um2 = um[0] * um[0] + um[1] * um[1] + um[2] * um[2];

    [
        c * (2.0 * (g - 1.0) * l1 + l4 + l5),
        c * (2.0 * (g - 1.0) * l1 * u + l4 * up[0] + l5 * um[0]),
        c * (2.0 * (g - 1.0) * l1 * v + l4 * up[1] + l5 * um[1]),
        c * (2.0 * (g - 1.0) * l1 * w + l4 * up[2] + l5 * um[2]),
        c * ((g - 1.0) * l1 * q2
            + 0.5 * l4 * up2
            + 0.5 * l5 * um2
            + (3.0 - g) * (l4 + l5) * a * a / (2.0 * (g - 1.0))),
    ]
}

/// The analytic Jacobian `A_n = ∂F_n/∂Q` (5×5, row-major).
#[must_use]
pub fn flux_jacobian(q: &[f64; NCONS], n: [f64; 3]) -> [[f64; NCONS]; NCONS] {
    let prim = Primitive::from_conserved(q);
    let (u, v, w) = (prim.u, prim.v, prim.w);
    let theta = n[0] * u + n[1] * v + n[2] * w;
    let q2 = u * u + v * v + w * w;
    let g1 = GAMMA - 1.0;
    let h = (q[4] + prim.p) / prim.rho; // total enthalpy

    let vel = [u, v, w];
    let mut a = [[0.0; NCONS]; NCONS];

    // Continuity row.
    a[0] = [0.0, n[0], n[1], n[2], 0.0];

    // Momentum rows.
    for r in 0..3 {
        let nr = n[r];
        let ur = vel[r];
        a[r + 1][0] = nr * g1 * q2 / 2.0 - ur * theta;
        for c in 0..3 {
            let nc = n[c];
            let uc = vel[c];
            a[r + 1][c + 1] = nc * ur - nr * g1 * uc + if r == c { theta } else { 0.0 };
        }
        a[r + 1][4] = nr * g1;
    }

    // Energy row.
    a[4][0] = theta * (g1 * q2 / 2.0 - h);
    for c in 0..3 {
        a[4][c + 1] = -g1 * vel[c] * theta + h * n[c];
    }
    a[4][4] = GAMMA * theta;

    a
}

/// The directed flux at `W` independent states — the lane form of the
/// scalar test reference `directed_flux`. Each lane's operation
/// sequence is identical to the scalar function, so results are
/// bit-exact per lane; the lane loops are the fixed-trip inner loops
/// rustc unrolls and vectorizes.
#[must_use]
#[inline(always)]
pub fn directed_flux_lanes<const W: usize>(
    q: &[[f64; NCONS]; W],
    n: &[[f64; 3]; W],
) -> [[f64; NCONS]; W] {
    let mut u = [0.0; W];
    let mut v = [0.0; W];
    let mut w = [0.0; W];
    let mut p = [0.0; W];
    for lane in 0..W {
        let prim = Primitive::from_conserved(&q[lane]);
        u[lane] = prim.u;
        v[lane] = prim.v;
        w[lane] = prim.w;
        p[lane] = prim.p;
    }
    let mut out = [[0.0; NCONS]; W];
    for lane in 0..W {
        let nl = n[lane];
        let ql = q[lane];
        let theta = nl[0] * u[lane] + nl[1] * v[lane] + nl[2] * w[lane];
        out[lane] = [
            ql[0] * theta,
            ql[1] * theta + nl[0] * p[lane],
            ql[2] * theta + nl[1] * p[lane],
            ql[3] * theta + nl[2] * p[lane],
            (ql[4] + p[lane]) * theta,
        ];
    }
    out
}

/// The spectral radius at `W` independent states — the lane form of
/// [`spectral_radius`], bit-exact per lane.
#[must_use]
#[inline(always)]
pub fn spectral_radius_lanes<const W: usize>(q: &[[f64; NCONS]; W], n: &[[f64; 3]; W]) -> [f64; W] {
    let mut theta = [0.0; W];
    let mut am = [0.0; W];
    for lane in 0..W {
        let prim = Primitive::from_conserved(&q[lane]);
        let nl = n[lane];
        theta[lane] = nl[0] * prim.u + nl[1] * prim.v + nl[2] * prim.w;
        let m = (nl[0] * nl[0] + nl[1] * nl[1] + nl[2] * nl[2]).sqrt();
        am[lane] = prim.sound_speed() * m;
    }
    let mut out = [0.0; W];
    for lane in 0..W {
        let l1 = theta[lane];
        let l4 = theta[lane] + am[lane];
        let l5 = theta[lane] - am[lane];
        out[lane] = l1.abs().max(l4.abs()).max(l5.abs());
    }
    out
}

/// Steger–Warming split fluxes at `W` independent states — the lane
/// form of [`steger_warming`]. The scalar intermediates (`θ`, `a`, the
/// split eigenvalues, the shifted velocities) become `[f64; W]` lane
/// arrays filled by fixed-trip loops; each lane executes exactly the
/// scalar operation sequence, so results are bit-exact per lane.
#[must_use]
#[inline(always)]
pub fn steger_warming_lanes<const W: usize>(
    q: &[[f64; NCONS]; W],
    n: &[[f64; 3]; W],
    positive: bool,
) -> [[f64; NCONS]; W] {
    let mut rho = [0.0; W];
    let mut u = [0.0; W];
    let mut v = [0.0; W];
    let mut w = [0.0; W];
    let mut a = [0.0; W];
    for lane in 0..W {
        let prim = Primitive::from_conserved(&q[lane]);
        rho[lane] = prim.rho;
        u[lane] = prim.u;
        v[lane] = prim.v;
        w[lane] = prim.w;
        a[lane] = prim.sound_speed();
    }
    let mut m = [0.0; W];
    let mut nt = [[0.0; 3]; W];
    let mut theta = [0.0; W];
    for lane in 0..W {
        let nl = n[lane];
        let ml = (nl[0] * nl[0] + nl[1] * nl[1] + nl[2] * nl[2]).sqrt();
        assert!(ml > 0.0, "direction vector must be nonzero");
        m[lane] = ml;
        nt[lane] = [nl[0] / ml, nl[1] / ml, nl[2] / ml];
        theta[lane] = nl[0] * u[lane] + nl[1] * v[lane] + nl[2] * w[lane];
    }

    let g = GAMMA;
    let mut out = [[0.0; NCONS]; W];
    for lane in 0..W {
        let l1 = split(theta[lane], positive);
        let l4 = split(theta[lane] + a[lane] * m[lane], positive);
        let l5 = split(theta[lane] - a[lane] * m[lane], positive);
        let c = rho[lane] / (2.0 * g);
        let (ul, vl, wl) = (u[lane], v[lane], w[lane]);
        let al = a[lane];
        let ntl = nt[lane];
        let q2 = ul * ul + vl * vl + wl * wl;
        let up = [ul + al * ntl[0], vl + al * ntl[1], wl + al * ntl[2]];
        let um = [ul - al * ntl[0], vl - al * ntl[1], wl - al * ntl[2]];
        let up2 = up[0] * up[0] + up[1] * up[1] + up[2] * up[2];
        let um2 = um[0] * um[0] + um[1] * um[1] + um[2] * um[2];
        out[lane] = [
            c * (2.0 * (g - 1.0) * l1 + l4 + l5),
            c * (2.0 * (g - 1.0) * l1 * ul + l4 * up[0] + l5 * um[0]),
            c * (2.0 * (g - 1.0) * l1 * vl + l4 * up[1] + l5 * um[1]),
            c * (2.0 * (g - 1.0) * l1 * wl + l4 * up[2] + l5 * um[2]),
            c * ((g - 1.0) * l1 * q2
                + 0.5 * l4 * up2
                + 0.5 * l5 * um2
                + (3.0 - g) * (l4 + l5) * al * al / (2.0 * (g - 1.0))),
        ];
    }
    out
}

/// Flux Jacobians at `W` independent states — the lane form of
/// [`flux_jacobian`], bit-exact per lane. Assembly walks the matrix
/// entries with the lane index innermost so each entry group is a
/// fixed-trip vectorizable loop.
#[must_use]
#[inline(always)]
pub fn flux_jacobian_lanes<const W: usize>(
    q: &[[f64; NCONS]; W],
    n: &[[f64; 3]; W],
) -> [[[f64; NCONS]; NCONS]; W] {
    let mut vel = [[0.0; 3]; W];
    let mut theta = [0.0; W];
    let mut q2 = [0.0; W];
    let mut h = [0.0; W];
    for lane in 0..W {
        let prim = Primitive::from_conserved(&q[lane]);
        let nl = n[lane];
        vel[lane] = [prim.u, prim.v, prim.w];
        theta[lane] = nl[0] * prim.u + nl[1] * prim.v + nl[2] * prim.w;
        q2[lane] = prim.u * prim.u + prim.v * prim.v + prim.w * prim.w;
        h[lane] = (q[lane][4] + prim.p) / prim.rho;
    }
    let g1 = GAMMA - 1.0;
    let mut a = [[[0.0; NCONS]; NCONS]; W];
    for lane in 0..W {
        a[lane][0] = [0.0, n[lane][0], n[lane][1], n[lane][2], 0.0];
    }
    for r in 0..3 {
        for lane in 0..W {
            let nr = n[lane][r];
            let ur = vel[lane][r];
            a[lane][r + 1][0] = nr * g1 * q2[lane] / 2.0 - ur * theta[lane];
            for c in 0..3 {
                a[lane][r + 1][c + 1] = n[lane][c] * ur - nr * g1 * vel[lane][c]
                    + if r == c { theta[lane] } else { 0.0 };
            }
            a[lane][r + 1][4] = nr * g1;
        }
    }
    for lane in 0..W {
        a[lane][4][0] = theta[lane] * (g1 * q2[lane] / 2.0 - h[lane]);
        for c in 0..3 {
            a[lane][4][c + 1] = -g1 * vel[lane][c] * theta[lane] + h[lane] * n[lane][c];
        }
        a[lane][4][4] = GAMMA * theta[lane];
    }
    a
}

/// The directed Euler flux `F_n(Q)` for direction `n`, one point at a
/// time: the reference [`directed_flux_lanes`] is pinned to.
#[cfg(test)]
pub(crate) fn directed_flux(q: &[f64; NCONS], n: [f64; 3]) -> [f64; NCONS] {
    let prim = Primitive::from_conserved(q);
    let theta = n[0] * prim.u + n[1] * prim.v + n[2] * prim.w;
    [
        q[0] * theta,
        q[1] * theta + n[0] * prim.p,
        q[2] * theta + n[1] * prim.p,
        q[3] * theta + n[2] * prim.p,
        (q[4] + prim.p) * theta,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::FlowState;

    fn states() -> Vec<[f64; NCONS]> {
        vec![
            FlowState::freestream(0.5, 0.0).conserved(),
            FlowState::freestream(2.0, 0.05).conserved(),
            Primitive {
                rho: 1.4,
                u: -0.3,
                v: 0.7,
                w: 0.2,
                p: 2.0,
            }
            .to_conserved(),
        ]
    }

    fn directions() -> Vec<[f64; 3]> {
        vec![[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.3, -0.4, 1.2]]
    }

    #[test]
    fn split_fluxes_sum_to_full_flux() {
        for q in states() {
            for n in directions() {
                let full = directed_flux(&q, n);
                let plus = steger_warming(&q, n, true);
                let minus = steger_warming(&q, n, false);
                for i in 0..NCONS {
                    let sum = plus[i] + minus[i];
                    assert!(
                        (sum - full[i]).abs() < 1e-12 * (1.0 + full[i].abs()),
                        "component {i}: {sum} vs {}",
                        full[i]
                    );
                }
            }
        }
    }

    #[test]
    fn supersonic_flow_is_one_sided() {
        // At M=2 along +x, all eigenvalues are positive: F- = 0.
        let q = FlowState::freestream(2.0, 0.0).conserved();
        let minus = steger_warming(&q, [1.0, 0.0, 0.0], false);
        let plus = steger_warming(&q, [1.0, 0.0, 0.0], true);
        let full = directed_flux(&q, [1.0, 0.0, 0.0]);
        for i in 0..NCONS {
            assert!(minus[i].abs() < 1e-14, "F-[{i}] = {}", minus[i]);
            assert!((plus[i] - full[i]).abs() < 1e-12);
        }
        // And against -x, F+ = 0.
        let plus_rev = steger_warming(&q, [-1.0, 0.0, 0.0], true);
        for (i, f) in plus_rev.iter().enumerate() {
            assert!(f.abs() < 1e-14, "F+[{i}] = {f}");
        }
    }

    #[test]
    fn eigenvalues_bracket_theta() {
        for q in states() {
            for n in directions() {
                let (l1, l4, l5) = eigenvalues(&q, n);
                assert!(l5 < l1 && l1 < l4);
                assert!(spectral_radius(&q, n) >= l1.abs());
            }
        }
    }

    #[test]
    fn flux_is_homogeneous_of_degree_one() {
        // Perfect-gas Euler fluxes satisfy F(Q) = A(Q) Q exactly.
        for q in states() {
            for n in directions() {
                let a = flux_jacobian(&q, n);
                let aq: [f64; NCONS] =
                    std::array::from_fn(|i| a[i].iter().zip(&q).map(|(m, v)| m * v).sum());
                let f = directed_flux(&q, n);
                for i in 0..NCONS {
                    assert!(
                        (aq[i] - f[i]).abs() < 1e-11 * (1.0 + f[i].abs()),
                        "component {i}: {} vs {}",
                        aq[i],
                        f[i]
                    );
                }
            }
        }
    }

    #[test]
    fn jacobian_matches_finite_differences() {
        let eps = 1e-7;
        for q in states() {
            for n in directions() {
                let a = flux_jacobian(&q, n);
                for j in 0..NCONS {
                    let mut qp = q;
                    let mut qm = q;
                    let h = eps * (1.0 + q[j].abs());
                    qp[j] += h;
                    qm[j] -= h;
                    let fp = directed_flux(&qp, n);
                    let fm = directed_flux(&qm, n);
                    for i in 0..NCONS {
                        let fd = (fp[i] - fm[i]) / (2.0 * h);
                        assert!(
                            (a[i][j] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                            "A[{i}][{j}]: analytic {} vs fd {}",
                            a[i][j],
                            fd
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scaling_direction_scales_flux() {
        let q = states()[2];
        let f1 = directed_flux(&q, [0.3, -0.4, 1.2]);
        let f2 = directed_flux(&q, [0.6, -0.8, 2.4]);
        for i in 0..NCONS {
            assert!((f2[i] - 2.0 * f1[i]).abs() < 1e-12 * (1.0 + f1[i].abs()));
        }
    }

    #[test]
    fn split_parts_have_signed_eigen_content() {
        // Subsonic: both parts nonzero; mass flux of F+ must be >= 0,
        // of F- <= 0.
        let q = FlowState::freestream(0.5, 0.0).conserved();
        for n in directions() {
            let plus = steger_warming(&q, n, true);
            let minus = steger_warming(&q, n, false);
            assert!(plus[0] >= -1e-14, "mass flux of F+ negative: {}", plus[0]);
            assert!(minus[0] <= 1e-14, "mass flux of F- positive: {}", minus[0]);
        }
    }

    #[test]
    #[should_panic(expected = "direction vector must be nonzero")]
    fn zero_direction_panics() {
        let q = states()[0];
        let _ = steger_warming(&q, [0.0, 0.0, 0.0], true);
    }

    fn lane_inputs<const W: usize>() -> ([[f64; NCONS]; W], [[f64; 3]; W]) {
        let qs = states();
        let ns = directions();
        let mut q = [[0.0; NCONS]; W];
        let mut n = [[0.0; 3]; W];
        for lane in 0..W {
            q[lane] = qs[lane % qs.len()];
            n[lane] = ns[(lane + 1) % ns.len()];
        }
        (q, n)
    }

    fn assert_lanes_bit_exact<const W: usize>() {
        let (q, n) = lane_inputs::<W>();
        let df = directed_flux_lanes::<W>(&q, &n);
        let sr = spectral_radius_lanes::<W>(&q, &n);
        let swp = steger_warming_lanes::<W>(&q, &n, true);
        let swm = steger_warming_lanes::<W>(&q, &n, false);
        let ja = flux_jacobian_lanes::<W>(&q, &n);
        for lane in 0..W {
            assert_eq!(
                df[lane].map(f64::to_bits),
                directed_flux(&q[lane], n[lane]).map(f64::to_bits)
            );
            assert_eq!(
                sr[lane].to_bits(),
                spectral_radius(&q[lane], n[lane]).to_bits()
            );
            assert_eq!(
                swp[lane].map(f64::to_bits),
                steger_warming(&q[lane], n[lane], true).map(f64::to_bits)
            );
            assert_eq!(
                swm[lane].map(f64::to_bits),
                steger_warming(&q[lane], n[lane], false).map(f64::to_bits)
            );
            let scalar = flux_jacobian(&q[lane], n[lane]);
            for r in 0..NCONS {
                assert_eq!(ja[lane][r].map(f64::to_bits), scalar[r].map(f64::to_bits));
            }
        }
    }

    #[test]
    fn lane_variants_are_bit_exact_at_every_width() {
        assert_lanes_bit_exact::<1>();
        assert_lanes_bit_exact::<2>();
        assert_lanes_bit_exact::<4>();
        assert_lanes_bit_exact::<8>();
    }

    #[test]
    #[should_panic(expected = "direction vector must be nonzero")]
    fn lane_zero_direction_panics() {
        let (q, mut n) = lane_inputs::<4>();
        n[2] = [0.0, 0.0, 0.0];
        let _ = steger_warming_lanes::<4>(&q, &n, true);
    }
}
